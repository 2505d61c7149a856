//! Serial-vs-served equivalence: every report a daemon sends over the
//! socket is bit-identical to running the same checks in-process through
//! a serial `BatchRunner` and serializing with the same `proto` helpers.
//! Only wall-clock fields (`elapsed_us`, `wall_us`, `stage_us`) are
//! exempt.

use ltt_core::{BatchRunner, CheckSession};
use ltt_netlist::bench_format::{parse_bench, write_bench};
use ltt_netlist::generators::figure1;
use ltt_netlist::suite::c17;
use ltt_netlist::{Circuit, DelayInterval, NetId};
use ltt_serve::proto::{batch_json, delay_json, ok_response};
use ltt_serve::{Client, Json, ServeConfig, Server};

fn start_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run());
    (addr, join)
}

/// Drops the wall-clock fields, the only parts of a reply that may differ
/// between a served run and a local rerun.
fn strip_timing(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "elapsed_us" | "wall_us" | "stage_us"))
                .map(|(k, val)| (k.clone(), strip_timing(val)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

/// Every output crossed with δ values straddling the interesting region.
fn checks_for(circuit: &Circuit) -> (Vec<String>, Vec<(NetId, i64)>) {
    let top = circuit.topological_delay();
    let deltas = [top / 2, top - 10, top, top + 1];
    let mut names = Vec::new();
    let mut checks = Vec::new();
    for &o in circuit.outputs() {
        for &d in &deltas {
            names.push(circuit.net(o).name().to_string());
            checks.push((o, d));
        }
    }
    (names, checks)
}

#[test]
fn served_reports_match_serial_run() {
    let (addr, join) = start_server();
    let mut client = Client::connect(&addr).expect("connect");

    for (name, circuit) in [("c17", c17(10)), ("figure1", figure1(10))] {
        let source = write_bench(&circuit);
        // The server analyses what it parses from the upload, so the local
        // reference must run on the same reparsed circuit — under the
        // registry's exact session configuration (cone-sliced checking
        // changes effort counters and witness search order, so a
        // differently-configured oracle would not be bit-identical).
        let parsed = parse_bench(name, &source, DelayInterval::fixed(10)).expect("reparse");
        let session = CheckSession::new(&parsed, ltt_serve::session_config());
        let (names, checks) = checks_for(&parsed);

        let reply = client
            .call(&Json::obj([
                ("op", Json::str("register")),
                ("name", Json::str(name)),
                ("source", Json::str(source.clone())),
            ]))
            .expect("register");
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            reply.encode()
        );
        let key = reply
            .get("circuit")
            .and_then(Json::as_str)
            .expect("content id")
            .to_string();

        // batch_check with explicit (output, δ) pairs, request order kept.
        let id = Json::Int(42);
        let batch = BatchRunner::new(1).run(&session, &checks);
        let expected = ok_response("batch_check", Some(&id), batch_json(&batch, &names, None));
        let check_items: Vec<Json> = names
            .iter()
            .zip(&checks)
            .map(|(n, &(_, d))| {
                Json::obj([("output", Json::str(n.clone())), ("delta", Json::Int(d))])
            })
            .collect();
        // jobs:4 must answer byte-for-byte like jobs:1 — parallelism is
        // invisible in the reports (the determinism contract).
        for jobs in [1i64, 4] {
            let served = client
                .call(&Json::obj([
                    ("op", Json::str("batch_check")),
                    ("circuit", Json::str(key.clone())),
                    ("checks", Json::Arr(check_items.clone())),
                    ("id", id.clone()),
                    ("opts", Json::obj([("jobs", Json::Int(jobs))])),
                ]))
                .expect("batch_check");
            assert_eq!(
                strip_timing(&served),
                strip_timing(&expected),
                "batch_check jobs={jobs} on {name}"
            );
        }

        // The single-check op serializes through the same batch shape.
        let (one_name, one_check) = (names[0].clone(), checks[0]);
        let single = BatchRunner::new(1).run(&session, &[one_check]);
        let expected = ok_response(
            "check",
            Some(&id),
            batch_json(&single, std::slice::from_ref(&one_name), None),
        );
        let served = client
            .call(&Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(key.clone())),
                ("output", Json::str(one_name)),
                ("delta", Json::Int(one_check.1)),
                ("id", id.clone()),
            ]))
            .expect("check");
        assert_eq!(
            strip_timing(&served),
            strip_timing(&expected),
            "check on {name}"
        );

        // Exact-delay search across every output.
        let results: Vec<Json> = parsed
            .outputs()
            .iter()
            .zip(BatchRunner::new(1).exact_delays(&session, parsed.outputs()))
            .map(|(&o, r)| delay_json(&r.expect("delay search"), parsed.net(o).name()))
            .collect();
        let expected = ok_response(
            "delay",
            Some(&id),
            vec![("results".to_string(), Json::Arr(results))],
        );
        let served = client
            .call(&Json::obj([
                ("op", Json::str("delay")),
                ("circuit", Json::str(key.clone())),
                ("id", id.clone()),
            ]))
            .expect("delay");
        assert_eq!(
            strip_timing(&served),
            strip_timing(&expected),
            "delay on {name}"
        );

        // Single-output delay takes the budgeted direct-search path; the
        // result must still match the plain session search.
        let target = *parsed.outputs().last().expect("an output");
        let expected_one = delay_json(&session.exact_delay(target), parsed.net(target).name());
        let served = client
            .call(&Json::obj([
                ("op", Json::str("delay")),
                ("circuit", Json::str(key.clone())),
                ("output", Json::str(parsed.net(target).name())),
            ]))
            .expect("single delay");
        let first = served
            .get("results")
            .and_then(Json::as_array)
            .and_then(|r| r.first())
            .expect("one result");
        assert_eq!(
            strip_timing(first),
            strip_timing(&expected_one),
            "single-output delay on {name}"
        );
    }

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(client);
    join.join().expect("server thread").expect("clean drain");
}
