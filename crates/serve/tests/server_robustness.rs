//! Serving-tier robustness, observed from outside the process. The first
//! two contracts hold for both tiers — a daemon, and a router fronting
//! one spawned daemon — because both run on the same service skeleton:
//!
//! * an oversize request line yields a structured `too_large` error and
//!   the connection keeps working — the tier never buffers the line;
//! * a graceful drain answers everything admitted, refuses late work
//!   with `shutting_down`, and refuses *new connections* at the OS level
//!   (the listener is dropped, so peers see `connection refused`, not a
//!   black hole);
//! * a client armed with a read timeout gets a `TimedOut` error from a
//!   stalled peer instead of blocking forever.

use ltt_netlist::bench_format::write_bench;
use ltt_netlist::generators::carry_skip_adder;
use ltt_netlist::suite::c17;
use ltt_serve::{Client, Json, Router, RouterConfig, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start_server(config: ServeConfig) -> (String, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run());
    (addr, join)
}

/// The two serving tiers.
#[derive(Clone, Copy, Debug)]
enum Tier {
    Daemon,
    /// A router in front of one spawned daemon configured like `Daemon`.
    Router,
}

const TIERS: [Tier; 2] = [Tier::Daemon, Tier::Router];

fn start(tier: Tier, config: ServeConfig) -> (String, JoinHandle<std::io::Result<()>>) {
    match tier {
        Tier::Daemon => start_server(config),
        Tier::Router => {
            let router = Router::bind(RouterConfig {
                spawn: 1,
                backend_jobs: config.jobs,
                backend_queue_cap: config.queue_cap,
                max_line_bytes: config.max_line_bytes,
                ..Default::default()
            })
            .expect("bind router");
            let addr = router.local_addr().expect("addr").to_string();
            (addr, std::thread::spawn(move || router.run()))
        }
    }
}

fn counter(status: &Json, group: &str, field: &str) -> i64 {
    status
        .get(group)
        .and_then(|g| g.get(field))
        .and_then(Json::as_i64)
        .unwrap_or(-1)
}

#[test]
fn oversize_line_gets_too_large_and_the_connection_survives() {
    for tier in TIERS {
        oversize_line_on(tier);
    }
}

fn oversize_line_on(tier: Tier) {
    let (addr, join) = start(
        tier,
        ServeConfig {
            max_line_bytes: 1024,
            ..Default::default()
        },
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // 8 KiB against a 1 KiB cap — and the line is even valid JSON, to
    // prove the refusal happens at the framing layer, before parsing.
    let big = format!(
        r#"{{"op":"register","name":"big","source":"{}"}}"#,
        "x".repeat(8 * 1024)
    );
    writeln!(stream, "{big}").expect("write");
    stream.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    let reply = ltt_serve::decode(line.trim()).expect("json");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(false)),
        "{tier:?}: {line}"
    );
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("too_large"),
        "{tier:?}: {line}"
    );

    // The same connection still serves normal traffic afterwards.
    writeln!(stream, r#"{{"op":"status","id":"after"}}"#).expect("write");
    stream.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("status reply");
    let status = ltt_serve::decode(line.trim()).expect("json");
    assert_eq!(
        status.get("ok"),
        Some(&Json::Bool(true)),
        "{tier:?}: {line}"
    );
    assert_eq!(
        counter(&status, "requests", "too_large"),
        1,
        "{tier:?}: {line}"
    );
    // `too_large` is refused before admission, so the accounting identity
    // (submitted = overloaded + queued + in_flight + completed + panicked)
    // must not count it as submitted.
    assert_eq!(
        counter(&status, "requests", "submitted"),
        0,
        "{tier:?}: {line}"
    );

    writeln!(stream, r#"{{"op":"shutdown"}}"#).expect("write");
    stream.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("shutdown reply");
    join.join().expect("tier thread").expect("clean drain");
}

#[test]
fn graceful_drain_answers_admitted_work_and_refuses_the_rest() {
    for tier in TIERS {
        graceful_drain_on(tier);
    }
}

fn graceful_drain_on(tier: Tier) {
    let (addr, join) = start(
        tier,
        ServeConfig {
            jobs: 1,
            queue_cap: 8,
            ..Default::default()
        },
    );
    let mut client = Client::connect(&addr).expect("connect");
    let source = write_bench(&carry_skip_adder(6, 3, 10));
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str("adder")),
            ("source", Json::str(source)),
        ]))
        .expect("register");
    let key = reply
        .get("circuit")
        .and_then(Json::as_str)
        .expect("content id")
        .to_string();
    let output = reply
        .get("outputs")
        .and_then(Json::as_array)
        .and_then(|o| o.last())
        .and_then(Json::as_str)
        .expect("an output")
        .to_string();

    // Pipeline slow work without reading, so some of it is queued (and
    // thus admitted) when the drain begins.
    let pipelined = 4usize;
    for i in 0..pipelined {
        client
            .send(&Json::obj([
                ("op", Json::str("delay")),
                ("circuit", Json::str(key.clone())),
                ("output", Json::str(output.clone())),
                ("id", Json::Int(i as i64)),
            ]))
            .expect("send");
    }
    let mut other = Client::connect(&addr).expect("second connection");
    let shutdown = other
        .call(&Json::obj([("op", Json::str("shutdown"))]))
        .expect("shutdown reply");
    assert_eq!(shutdown.get("ok"), Some(&Json::Bool(true)));

    // Every pipelined slot is answered — with a result if it was admitted
    // before the drain, with `shutting_down` if its line was only read
    // after. Nothing hangs, nothing is dropped.
    let mut completed = 0;
    let mut refused = 0;
    for _ in 0..pipelined {
        let reply = client
            .recv()
            .expect("drain reply")
            .expect("a reply line, not a hang-up");
        if reply.get("ok") == Some(&Json::Bool(true)) {
            completed += 1;
        } else {
            assert_eq!(
                reply
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("shutting_down"),
                "{tier:?}: {}",
                reply.encode()
            );
            refused += 1;
        }
    }
    assert_eq!(completed + refused, pipelined);
    assert!(
        completed >= 1,
        "{tier:?}: the in-flight request must complete"
    );
    join.join().expect("tier thread").expect("clean drain");

    // The listener is gone with the drain: connecting now fails at the OS
    // level instead of parking in a dead backlog.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "{tier:?}: post-drain connections must be refused"
    );
}

#[test]
fn read_timeout_surfaces_instead_of_hanging_on_a_stalled_peer() {
    // A "server" that accepts and then never says anything.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || listener.accept());

    let mut client =
        Client::connect_timeout(&addr, Duration::from_secs(2)).expect("connect_timeout");
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("arm timeout");
    let started = Instant::now();
    let err = client
        .call(&Json::obj([("op", Json::str("status"))]))
        .expect_err("a stalled peer must not answer");
    assert!(
        ltt_serve::is_timeout(&err),
        "expected a timeout, got: {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the timeout must fire at ~200ms, not block"
    );
    // c17 checks still work against a real server afterwards (the client
    // object is not poisoned by the timeout, only that connection is).
    drop(client);
    let _ = hold.join();

    let (addr, join) = start_server(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let reply = client
        .call(&Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str("c17")),
            ("source", Json::str(write_bench(&c17(10)))),
        ]))
        .expect("register");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    let _ = client.call(&Json::obj([("op", Json::str("shutdown"))]));
    join.join().expect("server thread").expect("clean drain");
}
