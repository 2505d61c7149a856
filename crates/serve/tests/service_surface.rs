//! The observable surface of both serving tiers, pinned: every `status`
//! field path and every `metrics` family name that the daemon and the
//! router expose. A tier may gain fields and families; none may vanish,
//! because dashboards, the CI smoke scripts and `loadgen` read them by
//! name.

use ltt_netlist::bench_format::write_bench;
use ltt_netlist::suite::c17;
use ltt_serve::{Client, Json, Router, RouterConfig, ServeConfig, Server};
use std::collections::BTreeSet;

/// Every field path of a JSON object: `a`, `a.b`, and `a[].b` for the
/// objects inside an array.
fn field_paths(value: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match value {
        Json::Obj(fields) => {
            for (key, child) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.insert(path.clone());
                field_paths(child, &path, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                field_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

/// The family names declared by `# TYPE` lines of a Prometheus body.
fn families(body: &str) -> BTreeSet<String> {
    body.lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// Registers c17 and runs one check, so every conditional family (the
/// registry hit ratio, the latency buckets) has something to show; then
/// returns the `status` paths and the `metrics` families.
fn surface(addr: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut client = Client::connect(addr).expect("connect");
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str("c17")),
            ("source", Json::str(write_bench(&c17(10)))),
        ]))
        .expect("register");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.encode()
    );
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("batch_check")),
            ("circuit", Json::str("c17")),
            ("delta", Json::Int(31)),
        ]))
        .expect("check");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.encode()
    );
    let status = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect("status");
    let mut paths = BTreeSet::new();
    field_paths(&status, "", &mut paths);
    let metrics = client
        .call(&Json::obj([("op", Json::str("metrics"))]))
        .expect("metrics");
    let body = metrics.get("body").and_then(Json::as_str).expect("body");
    let names = families(body);
    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    (paths, names)
}

fn assert_superset(actual: &BTreeSet<String>, pinned: &[&str], what: &str) {
    let missing: Vec<&&str> = pinned.iter().filter(|p| !actual.contains(**p)).collect();
    assert!(
        missing.is_empty(),
        "{what} lost {missing:?}; it now has {actual:?}"
    );
}

const DAEMON_STATUS: &[&str] = &[
    "ok",
    "op",
    "uptime_ms",
    "draining",
    "registry",
    "registry.entries",
    "registry.capacity",
    "registry.hits",
    "registry.misses",
    "registry.evictions",
    "registry.hit_rate",
    "queue",
    "queue.depth",
    "queue.capacity",
    "requests",
    "requests.submitted",
    "requests.completed_ok",
    "requests.in_flight",
    "requests.overloaded",
    "requests.budget_tripped",
    "requests.panicked",
    "requests.too_large",
    "connections",
    "connections.total",
    "connections.open",
    "connections.disconnect_cancels",
];

const DAEMON_METRICS: &[&str] = &[
    "ltt_uptime_seconds",
    "ltt_draining",
    "ltt_requests_submitted_total",
    "ltt_requests_completed_total",
    "ltt_requests_panicked_total",
    "ltt_requests_shed_total",
    "ltt_requests_budget_tripped_total",
    "ltt_requests_too_large_total",
    "ltt_requests_in_flight",
    "ltt_queue_depth",
    "ltt_queue_capacity",
    "ltt_connections_total",
    "ltt_connections_open",
    "ltt_disconnect_cancels_total",
    "ltt_registry_entries",
    "ltt_registry_capacity",
    "ltt_registry_hits_total",
    "ltt_registry_misses_total",
    "ltt_registry_evictions_total",
    "ltt_registry_hit_ratio",
    "ltt_request_duration_seconds",
];

const ROUTER_STATUS: &[&str] = &[
    "ok",
    "op",
    "role",
    "uptime_ms",
    "draining",
    "backends",
    "backends[].addr",
    "backends[].healthy",
    "backends[].breaker",
    "backends[].breaker_opened",
    "backends[].rpcs",
    "backends[].errors",
    "queue",
    "queue.depth",
    "queue.capacity",
    "requests",
    "requests.total",
    "requests.forwarded",
    "requests.unavailable",
    "requests.shed",
    "requests.retries",
    "requests.failovers",
    "requests.reregistered",
    "requests.too_large",
    "requests.bad_request",
];

const ROUTER_METRICS: &[&str] = &[
    "ltt_router_uptime_seconds",
    "ltt_router_draining",
    "ltt_router_backends",
    "ltt_router_requests_total",
    "ltt_router_forwarded_total",
    "ltt_router_unavailable_total",
    "ltt_router_shed_total",
    "ltt_router_retries_total",
    "ltt_router_failovers_total",
    "ltt_router_reregister_total",
    "ltt_router_too_large_total",
    "ltt_router_bad_request_total",
    "ltt_router_queue_depth",
    "ltt_backend_healthy",
    "ltt_backend_breaker_state",
    "ltt_backend_breaker_opened_total",
    "ltt_backend_rpcs_total",
    "ltt_backend_errors_total",
    "ltt_backend_rpc_duration_seconds",
    "ltt_router_request_duration_seconds",
];

#[test]
fn every_status_field_and_metrics_family_of_both_tiers_survives() {
    let server = Server::bind(&ServeConfig::default()).expect("bind daemon");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run());
    let (status, metrics) = surface(&addr);
    join.join().expect("daemon thread").expect("clean drain");
    assert_superset(&status, DAEMON_STATUS, "daemon status");
    assert_superset(&metrics, DAEMON_METRICS, "daemon metrics");

    let router = Router::bind(RouterConfig {
        spawn: 1,
        backend_jobs: 1,
        jobs: 2,
        ..Default::default()
    })
    .expect("bind router");
    let addr = router.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || router.run());
    let (status, metrics) = surface(&addr);
    join.join().expect("router thread").expect("clean drain");
    assert_superset(&status, ROUTER_STATUS, "router status");
    assert_superset(&metrics, ROUTER_METRICS, "router metrics");
}
