//! Observability regressions, observed from outside the daemon:
//!
//! * `status` replies are **coherent snapshots**: the accounting identity
//!   `submitted == completed_ok + panicked + overloaded + queued +
//!   in_flight` holds in every reply, even while checks are hammering the
//!   queue from other connections (the pre-fix server assembled the reply
//!   from independently-loaded counters and could violate it);
//! * a handler that panics counts under `panicked` only — the pre-fix
//!   worker also bumped `completed`, double-counting the job;
//! * `metrics` exposes the same snapshot as Prometheus text, with the
//!   request-latency histogram;
//! * `hit_rate` is `null` before any registry traffic, not `0.0`.

use ltt_netlist::bench_format::write_bench;
use ltt_netlist::generators::figure1;
use ltt_netlist::suite::c17;
use ltt_serve::{Client, Json, ServeConfig, Server};

fn start_server(
    jobs: usize,
    queue_cap: usize,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = ServeConfig {
        jobs,
        queue_cap,
        ..Default::default()
    };
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run());
    (addr, join)
}

fn register(client: &mut Client, name: &str, source: &str) -> (String, Vec<String>) {
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
    let key = reply
        .get("circuit")
        .and_then(Json::as_str)
        .expect("content id")
        .to_string();
    let outputs = reply
        .get("outputs")
        .and_then(Json::as_array)
        .expect("outputs")
        .iter()
        .map(|o| o.as_str().expect("output name").to_string())
        .collect();
    (key, outputs)
}

fn counter(status: &Json, group: &str, field: &str) -> i64 {
    status
        .get(group)
        .and_then(|g| g.get(field))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("missing {group}.{field} in {}", status.encode()))
}

/// The accounting identity every `status` reply must satisfy exactly.
fn assert_coherent(status: &Json) {
    let submitted = counter(status, "requests", "submitted");
    let accounted = counter(status, "requests", "completed_ok")
        + counter(status, "requests", "panicked")
        + counter(status, "requests", "overloaded")
        + counter(status, "requests", "in_flight")
        + counter(status, "queue", "depth");
    assert_eq!(
        submitted,
        accounted,
        "incoherent snapshot: {}",
        status.encode()
    );
}

#[test]
fn status_snapshots_stay_coherent_under_concurrent_load() {
    let (addr, join) = start_server(2, 4);
    let mut setup = Client::connect(&addr).expect("connect");
    let (key, outputs) = register(&mut setup, "c17", &write_bench(&c17(10)));
    drop(setup);

    // Hammer the admission queue from several pipelining connections while
    // an observer polls `status`: every reply must balance the books, shed
    // requests included (the tiny queue guarantees some are shed).
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for seed in 0..3usize {
            let (addr, key, outputs) = (&addr, &key, &outputs);
            let stop = &stop;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect hammer");
                let mut pending = 0usize;
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    client
                        .send(&Json::obj([
                            ("op", Json::str("check")),
                            ("circuit", Json::str(key.clone())),
                            (
                                "output",
                                Json::str(outputs[(seed + i) % outputs.len()].clone()),
                            ),
                            ("delta", Json::Int(30)),
                            ("id", Json::Int(i as i64)),
                        ]))
                        .expect("send check");
                    pending += 1;
                    i += 1;
                    // Keep a few in flight so the queue stays busy without
                    // the reply buffer growing unboundedly.
                    while pending > 8 {
                        client.recv().expect("recv").expect("reply");
                        pending -= 1;
                    }
                }
                while pending > 0 {
                    client.recv().expect("recv").expect("reply");
                    pending -= 1;
                }
            });
        }
        let mut observer = Client::connect(&addr).expect("connect observer");
        for _ in 0..200 {
            let status = observer
                .call(&Json::obj([("op", Json::str("status"))]))
                .expect("status");
            assert_coherent(&status);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // Quiesced: everything submitted is now accounted as finished or shed.
    let mut observer = Client::connect(&addr).expect("connect");
    let status = observer
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    assert_coherent(&status);
    assert_eq!(counter(&status, "requests", "in_flight"), 0);
    assert_eq!(counter(&status, "queue", "depth"), 0);
    assert!(counter(&status, "requests", "completed_ok") > 0);

    let _ = observer.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(observer);
    join.join().expect("server thread").expect("clean drain");
}

#[test]
fn panicked_handler_counts_once_not_as_completed() {
    let (addr, join) = start_server(1, 4);
    let mut client = Client::connect(&addr).expect("connect");
    let (key, outputs) = register(&mut client, "fig1", &write_bench(&figure1(10)));
    assert_eq!(outputs, vec!["s".to_string()]);

    // The batch runner isolates every check and delay search per slot, so
    // only the worker's own chaos site reaches the worker's catch_unwind.
    // Arming it on this server's address keeps the fault away from every
    // other test in this binary.
    ltt_core::failpoint::set(
        "serve::worker",
        Some(&addr),
        ltt_core::failpoint::FailAction::Panic("injected".to_string()),
    );
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("delay")),
            ("circuit", Json::str(key.clone())),
            ("output", Json::str("s")),
            ("id", Json::str("boom")),
        ]))
        .expect("delay reply");
    ltt_core::failpoint::clear_all();
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(false)),
        "{}",
        reply.encode()
    );
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("internal"),
        "{}",
        reply.encode()
    );

    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    assert_coherent(&status);
    assert_eq!(counter(&status, "requests", "panicked"), 1);
    // The pre-fix worker double-counted the job as completed too.
    assert_eq!(counter(&status, "requests", "completed_ok"), 0);

    // Disarmed, the same request succeeds and lands in completed_ok.
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("delay")),
            ("circuit", Json::str(key)),
            ("output", Json::str("s")),
        ]))
        .expect("delay reply");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.encode()
    );
    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    assert_coherent(&status);
    assert_eq!(counter(&status, "requests", "panicked"), 1);
    assert_eq!(counter(&status, "requests", "completed_ok"), 1);

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(client);
    join.join().expect("server thread").expect("clean drain");
}

/// Extracts the value of a plain `NAME VALUE` sample from Prometheus text.
fn sample(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?;
            let rest = rest.strip_prefix(' ')?;
            rest.parse().ok()
        })
        .unwrap_or_else(|| panic!("missing sample `{name}` in:\n{body}"))
}

#[test]
fn metrics_exposes_prometheus_text_matching_status() {
    let (addr, join) = start_server(1, 4);
    let mut client = Client::connect(&addr).expect("connect");
    let (key, outputs) = register(&mut client, "c17", &write_bench(&c17(10)));
    for delta in [10, 30] {
        let reply = client
            .call(&Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(key.clone())),
                ("output", Json::str(outputs[0].clone())),
                ("delta", Json::Int(delta)),
            ]))
            .expect("check");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    }

    let reply = client
        .call(&Json::obj([
            ("op", Json::str("metrics")),
            ("id", Json::Int(1)),
        ]))
        .expect("metrics");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.encode()
    );
    assert_eq!(
        reply.get("content_type").and_then(Json::as_str),
        Some("text/plain; version=0.0.4")
    );
    let body = reply
        .get("body")
        .and_then(Json::as_str)
        .expect("text body")
        .to_string();
    assert!(body.contains("# TYPE ltt_requests_submitted_total counter"));
    assert!(body.contains("# TYPE ltt_request_duration_seconds histogram"));
    assert!(body.contains("ltt_request_duration_seconds_bucket{le=\"+Inf\"} 2"));

    // The exposition and `status` describe the same frozen books.
    assert_eq!(sample(&body, "ltt_requests_submitted_total"), 2.0);
    assert_eq!(sample(&body, "ltt_requests_completed_total"), 2.0);
    assert_eq!(sample(&body, "ltt_requests_panicked_total"), 0.0);
    assert_eq!(sample(&body, "ltt_requests_shed_total"), 0.0);
    assert_eq!(sample(&body, "ltt_queue_depth"), 0.0);
    assert_eq!(sample(&body, "ltt_request_duration_seconds_count"), 2.0);
    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    assert_coherent(&status);
    assert_eq!(counter(&status, "requests", "submitted"), 2);

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(client);
    join.join().expect("server thread").expect("clean drain");
}

#[test]
fn hit_rate_is_null_before_any_registry_traffic() {
    let (addr, join) = start_server(1, 4);
    let mut client = Client::connect(&addr).expect("connect");
    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    // No lookups yet: the rate is absent (`null`), not a misleading 0.0.
    assert_eq!(
        status.get("registry").and_then(|r| r.get("hit_rate")),
        Some(&Json::Null),
        "{}",
        status.encode()
    );
    // And the metrics exposition omits the ratio gauge entirely.
    let reply = client
        .call(&Json::obj([("op", Json::str("metrics"))]))
        .expect("metrics");
    let body = reply.get("body").and_then(Json::as_str).expect("body");
    assert!(!body.contains("ltt_registry_hit_ratio"));

    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    drop(client);
    join.join().expect("server thread").expect("clean drain");
}
