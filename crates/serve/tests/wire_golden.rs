//! Golden wire bytes: the exact reply lines of `check`, `batch_check`,
//! `delay` and `patch` on c17 under each engine (`narrow`, `sat`,
//! `hybrid`), plus one hybrid check that the backtrack cap hands to SAT
//! (the suite's s432 at its exact delay) next to the same check on
//! narrowing alone and on SAT alone. Wall-clock fields (`elapsed_us`, `stage_us`,
//! `wall_us`) are zeroed; every other byte is pinned in
//! `tests/golden/wire_golden.txt`, so a serializer or report-shape change
//! that alters a reply fails here as a reviewed diff.
//!
//! Regenerate after an intended change with
//!
//! ```text
//! cargo test -p ltt-serve --test wire_golden bless -- --ignored
//! ```

use ltt_netlist::bench_format::write_bench;
use ltt_netlist::suite::{c17, iscas85_suite};
use ltt_serve::{Client, Json, ServeConfig, Server};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_golden.txt");

/// Replaces every integer under a wall-clock key with `0`.
fn zero_timing(v: &Json) -> Json {
    fn zero(v: &Json) -> Json {
        match v {
            Json::Int(_) | Json::Uint(_) => Json::Int(0),
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, val)| (k.clone(), zero(val)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, val)| {
                    let timing = matches!(k.as_str(), "elapsed_us" | "wall_us" | "stage_us");
                    (k.clone(), if timing { zero(val) } else { zero_timing(val) })
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(zero_timing).collect()),
        other => other.clone(),
    }
}

fn register(client: &mut Client, name: &str, source: String) -> String {
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str(name)),
            ("source", Json::str(source)),
        ]))
        .expect("register");
    reply
        .get("circuit")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("register {name}: {}", reply.encode()))
        .to_string()
}

fn checks(pairs: &[(&str, i64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(o, d)| Json::obj([("output", Json::str(o)), ("delta", Json::Int(d))]))
            .collect(),
    )
}

/// The request sequence, labelled, as `(label, request)` pairs. Order
/// matters: the patches run after every engine has checked the parent, so
/// their replies carry transplanted (`"reused":true`) reports.
fn requests(c17_key: &str, s432_key: &str) -> Vec<(String, Json)> {
    let explicit = [("22", 30), ("23", 31), ("22", 20)];
    let mut out = Vec::new();
    for engine in ["narrow", "sat", "hybrid"] {
        let opts = || Json::obj([("engine", Json::str(engine))]);
        out.push((
            format!("check {engine}"),
            Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(c17_key)),
                ("output", Json::str("22")),
                ("delta", Json::Int(30)),
                ("id", Json::Int(1)),
                ("opts", opts()),
            ]),
        ));
        out.push((
            format!("batch_check all {engine}"),
            Json::obj([
                ("op", Json::str("batch_check")),
                ("circuit", Json::str(c17_key)),
                ("delta", Json::Int(31)),
                ("opts", opts()),
            ]),
        ));
        out.push((
            format!("batch_check explicit {engine}"),
            Json::obj([
                ("op", Json::str("batch_check")),
                ("circuit", Json::str(c17_key)),
                ("checks", checks(&explicit)),
                ("opts", opts()),
            ]),
        ));
        out.push((
            format!("delay {engine}"),
            Json::obj([
                ("op", Json::str("delay")),
                ("circuit", Json::str(c17_key)),
                ("opts", opts()),
            ]),
        ));
    }
    for engine in ["narrow", "sat", "hybrid"] {
        // Gate 10 lies only in output 22's cone: 23's reports transplant.
        out.push((
            format!("patch {engine}"),
            Json::obj([
                ("op", Json::str("patch")),
                ("circuit", Json::str(c17_key)),
                (
                    "edits",
                    Json::Arr(vec![Json::obj([
                        ("gate", Json::str("10")),
                        ("delay", Json::Int(11)),
                    ])]),
                ),
                ("checks", checks(&explicit)),
                ("opts", Json::obj([("engine", Json::str(engine))])),
            ]),
        ));
    }
    for engine in ["hybrid", "narrow", "sat"] {
        out.push((
            format!("s432 capped {engine}"),
            Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(s432_key)),
                ("output", Json::str("s")),
                ("delta", Json::Int(190)),
                (
                    "opts",
                    Json::obj([
                        ("engine", Json::str(engine)),
                        ("max_backtracks", Json::Int(0)),
                    ]),
                ),
            ]),
        ));
    }
    out
}

/// Every labelled reply of a fresh daemon, one `label\treply` line each.
fn transcript() -> String {
    let server = Server::bind(&ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");

    let c17_key = register(&mut client, "c17", write_bench(&c17(10)));
    let s432 = iscas85_suite(10)
        .into_iter()
        .find(|e| e.name == "s432")
        .expect("s432 in the suite");
    let s432_key = register(&mut client, "s432", write_bench(&s432.circuit));

    let mut out =
        String::from("# Reply bytes per request (timing fields zeroed): label, tab, reply.\n");
    for (label, request) in requests(&c17_key, &s432_key) {
        let reply = client.call(&request).expect(&label);
        out.push_str(&label);
        out.push('\t');
        out.push_str(&zero_timing(&reply).encode());
        out.push('\n');
    }

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(client);
    join.join().expect("server thread").expect("clean drain");
    out
}

#[test]
fn wire_replies_match_golden() {
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file (bless it first)");
    let actual = transcript();
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "wire reply drifted from {GOLDEN}");
    }
    assert_eq!(actual, expected, "wire transcript length drifted");
}

#[test]
#[ignore = "rewrites the golden file; run after an intended wire change"]
fn bless_wire_golden() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
        .expect("golden dir");
    std::fs::write(GOLDEN, transcript()).expect("write golden");
}
