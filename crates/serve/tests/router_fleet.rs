//! Router correctness over an in-process fleet, observed through the
//! same wire protocol a production client would use:
//!
//! * replies routed through the fleet are **bit-identical** (modulo
//!   wall-clock fields) to a single daemon answering directly — the
//!   router forwards backend bytes verbatim;
//! * killing a backend mid-workload triggers failover: every later
//!   request is still answered correctly, the registration cache repairs
//!   `unknown_circuit` on the surviving replicas, and the counters show
//!   the retries;
//! * with *every* backend dead, requests get a structured `unavailable`
//!   error — bounded by the retry budget, never a hang — and the
//!   breakers open;
//! * a `shutdown` request drains the router and its spawned fleet;
//! * forwarded work obeys the daemon's admission identity
//!   `submitted == completed_ok + panicked + overloaded + queued +
//!   in_flight`, with parse failures and oversize lines outside it.

use ltt_netlist::bench_format::write_bench;
use ltt_netlist::generators::{figure1, random_circuit, RandomCircuitConfig};
use ltt_netlist::suite::c17;
use ltt_serve::{Client, Json, Router, RouterConfig, RouterHandle, ServeConfig, Server};
use std::time::{Duration, Instant};

/// A fleet tuned for test speed: small timeouts, quick breaker trips,
/// fast health probes.
fn test_config(spawn: usize) -> RouterConfig {
    RouterConfig {
        spawn,
        backend_jobs: 2,
        jobs: 4,
        max_retries: 2,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        connect_timeout: Duration::from_millis(500),
        rpc_timeout: Duration::from_secs(5),
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(200),
        health_interval: Duration::from_millis(100),
        ..Default::default()
    }
}

fn start_router(
    config: RouterConfig,
) -> (
    String,
    RouterHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let router = Router::bind(config).expect("bind router");
    let addr = router.local_addr().expect("addr").to_string();
    let handle = router.handle();
    let join = std::thread::spawn(move || router.run());
    (addr, handle, join)
}

fn register(client: &mut Client, name: &str, source: &str) -> String {
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str(name)),
            ("source", Json::str(source)),
        ]))
        .expect("register");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.encode()
    );
    reply
        .get("circuit")
        .and_then(Json::as_str)
        .expect("content id")
        .to_string()
}

/// Drops the wall-clock fields, the only parts of a reply that may differ
/// between two runs of the same deterministic check.
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

/// The request mix used by the identity test: checks straddling the
/// interesting δ region, a batch, and an exact-delay search.
fn request_mix(key: &str, top: i64) -> Vec<Json> {
    let mut requests = Vec::new();
    for (i, delta) in [top / 2, top - 10, top, top + 1].into_iter().enumerate() {
        requests.push(Json::obj([
            ("op", Json::str("batch_check")),
            ("circuit", Json::str(key)),
            ("delta", Json::Int(delta)),
            ("id", Json::Int(i as i64)),
        ]));
    }
    requests.push(Json::obj([
        ("op", Json::str("batch_check")),
        ("circuit", Json::str(key)),
        ("delta", Json::Int(top)),
        ("id", Json::str("batch")),
    ]));
    requests.push(Json::obj([
        ("op", Json::str("delay")),
        ("circuit", Json::str(key)),
        ("id", Json::str("delay")),
    ]));
    requests
}

#[test]
fn routed_replies_are_bit_identical_to_a_direct_daemon() {
    let (router_addr, _handle, router_join) = start_router(test_config(3));
    let direct = Server::bind(&ServeConfig::default()).expect("bind direct");
    let direct_addr = direct.local_addr().expect("addr").to_string();
    let direct_join = std::thread::spawn(move || direct.run());

    let mut routed = Client::connect(&router_addr).expect("connect router");
    let mut local = Client::connect(&direct_addr).expect("connect direct");

    for (name, circuit) in [("c17", c17(10)), ("figure1", figure1(10))] {
        let source = write_bench(&circuit);
        let key_r = register(&mut routed, name, &source);
        let key_d = register(&mut local, name, &source);
        assert_eq!(key_r, key_d, "content ids are address-independent");
        for request in request_mix(&key_r, circuit.topological_delay()) {
            let via_fleet = routed.call(&request).expect("routed reply");
            let via_daemon = local.call(&request).expect("direct reply");
            assert_eq!(
                strip_timing(&via_fleet).encode(),
                strip_timing(&via_daemon).encode(),
                "fleet and daemon must agree bit-for-bit on {}",
                request.encode()
            );
        }
    }

    let _ = routed.call(&Json::obj([("op", Json::str("shutdown"))]));
    router_join.join().expect("router thread").expect("drain");
    let _ = local.call(&Json::obj([("op", Json::str("shutdown"))]));
    direct_join.join().expect("direct thread").expect("drain");
}

#[test]
fn killing_a_backend_fails_over_and_reregisters() {
    let (addr, handle, join) = start_router(test_config(3));
    let mut client = Client::connect(&addr).expect("connect");

    // Several distinct circuits so ownership spreads across the ring and
    // the killed backend is guaranteed to own some of the traffic.
    let mut keys = Vec::new();
    let mut tops = Vec::new();
    for i in 0..6 {
        let circuit = random_circuit(&RandomCircuitConfig {
            num_gates: 40,
            num_outputs: 2,
            seed: 0xFA11 + i,
            ..Default::default()
        });
        keys.push(register(
            &mut client,
            &format!("net-{i}"),
            &write_bench(&circuit),
        ));
        tops.push(circuit.topological_delay());
    }

    // Baseline answers, fleet healthy. (The id is pinned: it echoes back
    // in the reply, and the comparison below is byte-for-byte.)
    let ask = |client: &mut Client, key: &str, top: i64| -> Json {
        client
            .call(&Json::obj([
                ("op", Json::str("batch_check")),
                ("circuit", Json::str(key)),
                ("delta", Json::Int(top)),
                ("id", Json::Int(0)),
            ]))
            .expect("reply")
    };
    let baseline: Vec<String> = keys
        .iter()
        .zip(&tops)
        .map(|(k, &t)| strip_timing(&ask(&mut client, k, t)).encode())
        .collect();

    // Kill a backend that owns registered circuits. Ring placement hashes
    // the backends' ephemeral addresses, so which backend owns which
    // circuit changes from run to run; a fixed index can own none. Nor do
    // resident entries tell: with two replicas a backend can hold only
    // replica copies. Every baseline check is one registry lookup on its
    // circuit's owner, so registry hits count the circuits each owns.
    let owned: Vec<u64> = handle
        .spawned_backends()
        .iter()
        .map(|b| b.registry_stats().hits)
        .collect();
    let victim = (0..owned.len())
        .max_by_key(|&i| (owned[i], std::cmp::Reverse(i)))
        .expect("three backends");
    assert!(owned[victim] > 0, "some backend owns a circuit: {owned:?}");
    handle.kill_backend(victim);

    // Every circuit still answers — identically. Some of these walk the
    // failover path (dead owner), some the re-registration path (the
    // survivor that never saw the fan-out).
    for _round in 0..2 {
        for (i, (k, &t)) in keys.iter().zip(&tops).enumerate() {
            let reply = ask(&mut client, k, t);
            assert_eq!(
                strip_timing(&reply).encode(),
                baseline[i],
                "answers must not change when a backend dies"
            );
        }
    }

    // The counters must show the machinery actually engaged.
    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    let requests = status.get("requests").expect("requests group");
    let failovers = requests
        .get("failovers")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert!(
        failovers >= 1,
        "a dead owner must register as failovers: {}",
        status.encode()
    );

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    join.join().expect("router thread").expect("drain");
}

#[test]
fn all_backends_dead_yields_bounded_unavailable_and_open_breakers() {
    let mut config = test_config(2);
    config.max_retries = 1;
    config.rpc_timeout = Duration::from_millis(500);
    let (addr, handle, join) = start_router(config);
    let mut client = Client::connect(&addr).expect("connect");
    let key = register(&mut client, "c17", &write_bench(&c17(10)));

    handle.kill_backend(0);
    handle.kill_backend(1);

    let started = Instant::now();
    let mut unavailable = 0;
    for i in 0..4 {
        let reply = client
            .call(&Json::obj([
                ("op", Json::str("batch_check")),
                ("circuit", Json::str(key.clone())),
                ("delta", Json::Int(20)),
                ("id", Json::Int(i)),
            ]))
            .expect("a structured reply, not a hang");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        if reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            == Some("unavailable")
        {
            unavailable += 1;
        }
    }
    assert_eq!(unavailable, 4, "every request gets the structured error");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the retry budget bounds the wait"
    );

    // The breakers opened along the way (visible per backend).
    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    let opened: i64 = status
        .get("backends")
        .and_then(Json::as_array)
        .expect("backends")
        .iter()
        .map(|b| b.get("breaker_opened").and_then(Json::as_i64).unwrap_or(0))
        .sum();
    assert!(opened >= 1, "breakers must open: {}", status.encode());

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    join.join().expect("router thread").expect("drain");
}

#[test]
fn shutdown_op_drains_router_and_fleet() {
    let (addr, _handle, join) = start_router(test_config(2));
    let mut client = Client::connect(&addr).expect("connect");
    let key = register(&mut client, "fig1", &write_bench(&figure1(10)));

    let reply = client
        .call(&Json::obj([("op", Json::str("shutdown"))]))
        .expect("shutdown");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));

    // Work arriving on the draining router is refused in structure.
    let late = client.call(&Json::obj([
        ("op", Json::str("batch_check")),
        ("circuit", Json::str(key)),
        ("delta", Json::Int(20)),
    ]));
    if let Ok(late) = late {
        assert_eq!(
            late.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("shutting_down"),
            "{}",
            late.encode()
        );
    } // a torn-down connection is equally acceptable

    join.join().expect("router thread").expect("clean drain");
}

#[test]
fn forwarded_work_obeys_the_admission_identity() {
    use ltt_netlist::generators::carry_skip_adder;
    use std::io::{BufRead, BufReader, Write};

    // One forwarding worker and a one-slot queue, so a pipelined burst of
    // slow requests is partly shed at the router's own admission point.
    let mut config = test_config(1);
    config.jobs = 1;
    config.queue_cap = 1;
    config.max_line_bytes = 64 * 1024;
    let (addr, _handle, join) = start_router(config);
    let mut client = Client::connect(&addr).expect("connect");
    let c17_key = register(&mut client, "c17", &write_bench(&c17(10)));
    let adder = register(
        &mut client,
        "adder",
        &write_bench(&carry_skip_adder(6, 3, 10)),
    );

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut lines = vec![
        Json::obj([
            ("op", Json::str("batch_check")),
            ("circuit", Json::str(c17_key.clone())),
            ("delta", Json::Int(31)),
        ])
        .encode(),
        Json::obj([("op", Json::str("status"))]).encode(),
        "{not json".to_string(),
        r#"{"op":"no_such_op"}"#.to_string(),
        format!(r#"{{"op":"status","pad":"{}"}}"#, "x".repeat(128 * 1024)),
    ];
    let burst = 8;
    for _ in 0..burst {
        lines.push(
            Json::obj([
                ("op", Json::str("delay")),
                ("circuit", Json::str(adder.clone())),
            ])
            .encode(),
        );
    }
    for line in &lines {
        writeln!(stream, "{line}").expect("write");
    }
    stream.flush().expect("flush");
    let mut codes = Vec::new();
    for _ in &lines {
        let mut line = String::new();
        reader.read_line(&mut line).expect("one reply per line");
        let reply = ltt_serve::decode(line.trim()).expect("json reply");
        codes.push(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .unwrap_or("ok")
                .to_string(),
        );
    }
    let count = |code: &str| codes.iter().filter(|c| *c == code).count() as i64;
    assert_eq!(count("bad_request"), 2, "{codes:?}");
    assert_eq!(count("too_large"), 1, "{codes:?}");
    assert!(count("overloaded") >= 1, "the burst must shed: {codes:?}");

    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    let field = |group: &str, name: &str| {
        status
            .get(group)
            .and_then(|g| g.get(name))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("missing {group}.{name}: {}", status.encode()))
    };
    // Every admitted forward was answered, so nothing is queued or in
    // flight, and everything submitted completed, panicked or was shed.
    assert_eq!(field("queue", "depth"), 0);
    assert_eq!(field("requests", "in_flight"), 0);
    assert_eq!(
        field("requests", "submitted"),
        field("requests", "completed_ok")
            + field("requests", "panicked")
            + field("requests", "overloaded"),
        "{}",
        status.encode()
    );
    // One check plus the burst reached admission; control ops, the
    // registrations and the refused lines did not.
    assert_eq!(field("requests", "submitted"), 1 + burst);
    assert_eq!(field("requests", "overloaded"), count("overloaded"));
    assert_eq!(field("requests", "too_large"), 1);
    assert_eq!(field("requests", "bad_request"), 2);

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    join.join().expect("router thread").expect("drain");
}
