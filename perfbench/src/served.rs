//! The `serve_eco` workload: one closed-loop client against an in-process
//! daemon with one worker.
//!
//! The client waits for each reply before sending the next request, as a
//! verifier caller does. Requests follow a Zipf(1.0) mix over four
//! circuit variants (a carry-skip adder and three random DAGs drawn from
//! the seed); every tenth request is a `patch` — a delay ECO chained off
//! the variant's base revision with an all-outputs re-check bundled in.
//! The bases and their patch children (4 + 4 × 3) fit the default
//! registry capacity of 16.

use crate::report::{median, ms, percentile, ratio, us, Gauge, Metrics, Outcome, Rng};
use ltt_core::{CheckSession, Obs, Recorder, Verdict, VerifyConfig, VerifyReport};
use ltt_netlist::bench_format::{parse_bench, write_bench};
use ltt_netlist::generators::{carry_skip_adder, random_circuit, RandomCircuitConfig};
use ltt_netlist::{Circuit, CircuitEdit, DelayInterval, NetId};
use ltt_serve::proto::report_json;
use ltt_serve::{decode, Json, Router, RouterConfig, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-gate delay every variant is registered with.
const GATE_DELAY: u32 = 10;
/// Every `PATCH_EVERY`-th request is a patch.
const PATCH_EVERY: u64 = 10;
/// Zipf exponent of the variant mix.
const ZIPF_S: f64 = 1.0;
/// Requests per block: the end-to-end metrics are medians over blocks,
/// so a short burst of interference from outside moves them less.
const BLOCK: usize = 2_000;
/// Daemon starts timed for `setup_s`.
const SETUP_REPS: usize = 21;
/// Requests sent through the router for `serve.router.hop_us`.
const ROUTER_REQUESTS: u64 = 2_000;
/// Extra delay units each of a variant's ECOs puts on a driver gate.
const EDITS: [(usize, u32); 3] = [(0, 1), (0, 2), (1, 1)];

/// One circuit variant of the mix, with the expected answer of every
/// request the stream can send about it.
struct Variant {
    name: String,
    source: String,
    outputs: Vec<String>,
    /// Per output: one below its exact delay, the exact delay (both
    /// violated), one past it, and one past its topological arrival (both
    /// safe).
    deltas: Vec<Vec<i64>>,
    /// The same four points for the critical output: the δ grid of the
    /// all-outputs re-checks bundled with patches.
    patch_deltas: Vec<i64>,
    /// `(driver net name, new fixed delay)` of each ECO.
    edits: Vec<(String, u32)>,
    /// `check[output][delta]`: the expected answer.
    check: Vec<Vec<String>>,
    /// `patch[edit][delta]`: the expected answers, one per output.
    patch: Vec<Vec<Vec<String>>>,
}

/// A served report reduced to what must match: verdict, proving stage
/// and witness vector.
fn answer(report: &Json) -> String {
    let field = |k: &str| report.get(k).and_then(Json::as_str).unwrap_or("");
    format!(
        "{}:{}:{}",
        field("verdict"),
        field("stage"),
        field("vector")
    )
}

/// The in-process answer the daemon must reproduce.
fn expected(report: &VerifyReport, output: &str) -> String {
    answer(&report_json(report, output))
}

/// The four variants: a carry-skip adder and three random DAGs of fixed
/// structure (generator seeds 1, 2, 3).
///
/// `seed` renames every net with a seeded tag, so each seed uploads
/// different netlist text — different content ids, different request
/// lines — for the same amount of work. Drawing the DAG *structure* from
/// the seed instead made throughput a property of the seed: five seeds
/// gave 6.3 k to 18.5 k req/s.
fn variant_sources(seed: u64) -> Vec<(String, String)> {
    let tag = format!("t{:05x}_", Rng::new(seed, 2).next_u64() & 0xF_FFFF);
    let mut circuits = vec![("csa8x4".to_string(), carry_skip_adder(8, 4, GATE_DELAY))];
    for i in 1..4u64 {
        let circuit = random_circuit(&RandomCircuitConfig {
            num_gates: 80,
            num_outputs: 4,
            seed: i,
            ..Default::default()
        });
        circuits.push((format!("dag{i}"), circuit));
    }
    circuits
        .into_iter()
        .map(|(name, circuit)| {
            let nets: std::collections::HashSet<&str> = (0..circuit.num_nets())
                .map(|i| circuit.net(NetId::from_index(i)).name())
                .collect();
            (name, retag(&write_bench(&circuit), &nets, &tag))
        })
        .collect()
}

/// `text` with every identifier that names a net prefixed by `tag`.
fn retag(text: &str, nets: &std::collections::HashSet<&str>, tag: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        if nets.contains(word.as_str()) {
            out.push_str(tag);
        }
        out.push_str(word);
        word.clear();
    };
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            word.push(ch);
        } else {
            flush(&mut word, &mut out);
            out.push(ch);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// Layer observations made while computing the oracles. Their times are
/// wall-clock; `factor` scales them to reference time.
#[derive(Default)]
struct OracleLayers {
    factor: f64,
    parse_ms: f64,
    prepare_ms: f64,
    reports: Vec<VerifyReport>,
    spans: Vec<ltt_core::Span>,
    certify_us: Vec<f64>,
    rebase_us: Vec<f64>,
}

/// Builds the variants of `seed` and their oracles: every check on a cold
/// in-process session of the base, every patch re-check on a cold session
/// of the patched revision. Witnesses are re-certified here, once.
fn build_variants(seed: u64) -> (Vec<Variant>, OracleLayers, u64) {
    let recorder = Arc::new(Recorder::new());
    let config = VerifyConfig {
        obs: Obs::recording(recorder.clone()),
        ..ltt_serve::session_config()
    };
    let mut layers = OracleLayers::default();
    let mut bad_witnesses = 0u64;
    let generated = variant_sources(seed);
    let mut parse = Vec::new();
    let mut parsed = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        parsed = generated
            .iter()
            .map(|(name, text)| {
                parse_bench(name, text, DelayInterval::fixed(GATE_DELAY))
                    .expect("generated variant text parses")
            })
            .collect();
        parse.push(ms(t0.elapsed()));
    }
    layers.parse_ms = median(&parse);
    let mut variants = Vec::new();
    for ((name, source), circuit) in generated.into_iter().zip(parsed) {
        let names: Vec<String> = circuit
            .outputs()
            .iter()
            .map(|&o| circuit.net(o).name().to_string())
            .collect();
        let mut certify = |c: &Circuit, r: &VerifyReport| {
            if let Verdict::Violation { vector } = &r.verdict {
                let t0 = Instant::now();
                let ok = ltt_sta::vector_violates(c, vector, r.output, r.delta);
                layers.certify_us.push(us(t0.elapsed()));
                bad_witnesses += u64::from(!ok);
            }
        };
        let t0 = Instant::now();
        let session = CheckSession::new(&circuit, config.clone());
        session.warm_up();
        layers.prepare_ms += ms(t0.elapsed());
        let arrival = circuit.arrival_times();
        let grid = |o: NetId| {
            let exact = session.exact_delay(o).delay;
            vec![
                exact - i64::from(GATE_DELAY),
                exact,
                exact + 1,
                arrival[o.index()] + 1,
            ]
        };
        let deltas: Vec<Vec<i64>> = circuit.outputs().iter().map(|&o| grid(o)).collect();
        let critical = crate::library::critical_output(&circuit);
        let patch_deltas = grid(critical);
        let mut check = Vec::new();
        for ((&o, oname), grid) in circuit.outputs().iter().zip(&names).zip(&deltas) {
            let mut row = Vec::new();
            for &delta in grid {
                let r = session.verify(o, delta);
                certify(&circuit, &r);
                row.push(expected(&r, oname));
                layers.reports.push(r);
            }
            check.push(row);
        }
        let edits: Vec<(String, u32)> = EDITS
            .iter()
            .map(|&(k, extra)| (names[k % names.len()].clone(), GATE_DELAY + extra))
            .collect();
        let mut patch = Vec::new();
        for (gate_net, delay) in &edits {
            let edit = edit_of(&circuit, gate_net, *delay);
            let t0 = Instant::now();
            let outcome = circuit.apply_edit(&[edit]).expect("a delay edit applies");
            let edited = Arc::new(outcome.circuit);
            let _rebased = session.rebase(edited.clone(), &outcome.dirty, outcome.structural);
            layers.rebase_us.push(us(t0.elapsed()));
            let cold = CheckSession::new(&edited, ltt_serve::session_config());
            let mut per_delta = Vec::new();
            for &delta in &patch_deltas {
                let answers = edited
                    .outputs()
                    .iter()
                    .zip(&names)
                    .map(|(&o, oname)| {
                        let r = cold.verify(o, delta);
                        certify(&edited, &r);
                        expected(&r, oname)
                    })
                    .collect();
                per_delta.push(answers);
            }
            patch.push(per_delta);
        }
        variants.push(Variant {
            name,
            source,
            outputs: names,
            deltas,
            patch_deltas,
            edits,
            check,
            patch,
        });
    }
    layers.spans = recorder.spans();
    (variants, layers, bad_witnesses)
}

/// The netlist edit that sets the delay of the gate driving `net`.
fn edit_of(circuit: &Circuit, net: &str, delay: u32) -> CircuitEdit {
    let net: NetId = circuit.net_by_name(net).expect("edit names a net");
    CircuitEdit::SetDelay {
        gate: circuit.net(net).driver().expect("edited net is driven"),
        delay: DelayInterval::fixed(delay),
    }
}

/// One request of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// `check` of `variant`'s output at grid δ.
    Check {
        variant: usize,
        output: usize,
        delta: usize,
    },
    /// `patch` of `variant` with its ECO `edit`, re-checking all outputs
    /// at grid δ.
    Patch {
        variant: usize,
        edit: usize,
        delta: usize,
    },
}

/// The seeded request stream.
struct Stream {
    rng: Rng,
    cdf: Vec<f64>,
    sent: u64,
}

impl Stream {
    /// The stream of `seed` over `variants`.
    fn new(seed: u64, variants: &[Variant]) -> Stream {
        let weights: Vec<f64> = (1..=variants.len())
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream {
            rng: Rng::new(seed, 3),
            cdf,
            sent: 0,
        }
    }

    /// The next request.
    fn next(&mut self, variants: &[Variant]) -> Op {
        self.sent += 1;
        let u = self.rng.unit();
        let variant = self
            .cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1);
        let v = &variants[variant];
        if self.sent.is_multiple_of(PATCH_EVERY) {
            Op::Patch {
                variant,
                edit: self.rng.below(v.edits.len()),
                delta: self.rng.below(v.patch_deltas.len()),
            }
        } else {
            let output = self.rng.below(v.outputs.len());
            Op::Check {
                variant,
                output,
                delta: self.rng.below(v.deltas[output].len()),
            }
        }
    }
}

/// A blocking newline-delimited JSON connection whose wire encode and
/// parse steps are timed separately.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    encode: Duration,
    parse: Duration,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
            encode: Duration::ZERO,
            parse: Duration::ZERO,
        })
    }

    fn call(&mut self, request: &Json) -> std::io::Result<Json> {
        let t0 = Instant::now();
        let mut text = request.encode();
        self.encode += t0.elapsed();
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        let t0 = Instant::now();
        let reply = decode(self.line.trim_end()).map_err(std::io::Error::other);
        self.parse += t0.elapsed();
        reply
    }
}

/// A daemon running on its own thread.
struct Daemon {
    addr: String,
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> std::io::Result<Daemon> {
        let server = Server::bind(&ServeConfig {
            jobs: 1,
            ..Default::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, handle, join })
    }

    fn stop(self) -> bool {
        self.handle.shutdown();
        matches!(self.join.join(), Ok(Ok(())))
    }
}

fn register_request(v: &Variant) -> Json {
    Json::obj([
        ("op", Json::str("register")),
        ("name", Json::str(v.name.clone())),
        ("source", Json::str(v.source.clone())),
    ])
}

/// Registers every variant; returns their circuit ids and each round
/// trip's time.
fn register_all(conn: &mut Conn, variants: &[Variant]) -> std::io::Result<(Vec<String>, Vec<f64>)> {
    let mut ids = Vec::new();
    let mut times = Vec::new();
    for v in variants {
        let t0 = Instant::now();
        let reply = conn.call(&register_request(v))?;
        times.push(us(t0.elapsed()));
        let id = reply
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| std::io::Error::other(format!("register failed: {}", reply.encode())))?;
        ids.push(id.to_string());
    }
    Ok((ids, times))
}

fn request_of(op: Op, variants: &[Variant], ids: &[String]) -> Json {
    match op {
        Op::Check {
            variant,
            output,
            delta,
        } => {
            let v = &variants[variant];
            Json::obj([
                ("op", Json::str("check")),
                ("circuit", Json::str(ids[variant].clone())),
                ("output", Json::str(v.outputs[output].clone())),
                ("delta", Json::Int(v.deltas[output][delta])),
            ])
        }
        Op::Patch {
            variant,
            edit,
            delta,
        } => {
            let v = &variants[variant];
            let (gate, delay) = &v.edits[edit];
            Json::obj([
                ("op", Json::str("patch")),
                ("circuit", Json::str(ids[variant].clone())),
                (
                    "edits",
                    Json::Arr(vec![Json::obj([
                        ("gate", Json::str(gate.clone())),
                        ("delay", Json::Int(i64::from(*delay))),
                    ])]),
                ),
                ("delta", Json::Int(v.patch_deltas[delta])),
            ])
        }
    }
}

/// One block of [`BLOCK`] requests, in reference time.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// The block's time, s.
    pub secs: f64,
    /// `check` round trips, p50 and p90, µs.
    pub check_p50: f64,
    pub check_p90: f64,
    /// `patch` round trips, p50 and p90, µs.
    pub patch_p50: f64,
    pub patch_p90: f64,
    /// Median `elapsed_us` of the answered checks (handler time), µs.
    pub handler_p50: f64,
    /// Median check round trip minus its `elapsed_us`, µs.
    pub overhead_p50: f64,
    /// The block's [`Gauge`] factor.
    pub factor: f64,
}

/// What the client saw over one stretch of the stream. Times are kept
/// per block, so a run's memory does not grow with its request count.
#[derive(Default)]
pub struct Tally {
    /// Requests answered correctly or not.
    pub attempted: u64,
    /// Wrong answers, error replies and transport failures.
    pub failed: u64,
    /// Every complete block; a trailing partial block is left out.
    pub blocks: Vec<Block>,
    /// Summed `stage_us` of the answered checks in reference time:
    /// narrowing, dominators, stems, case analysis.
    pub stage_us: [f64; 4],
    /// Patch reports served from the result cache, and all patch reports.
    pub reused: (u64, u64),
    /// `unknown_circuit` replies repaired by re-registering.
    pub reregisters: u64,
    /// Summed `backtracks` of the served reports.
    pub backtracks: u64,
    /// FNV-1a over every served answer, in request order.
    pub digest: u64,
}

impl Tally {
    /// The median over complete blocks of `f`.
    pub fn median(&self, f: impl Fn(&Block) -> f64) -> f64 {
        median(&self.blocks.iter().map(f).collect::<Vec<_>>())
    }
}

/// Wall-clock samples of the block in progress, µs.
struct Samples {
    started: Instant,
    check: Vec<f64>,
    patch: Vec<f64>,
    handler: Vec<f64>,
    overhead: Vec<f64>,
    stage: [f64; 4],
}

impl Samples {
    fn new() -> Samples {
        Samples {
            started: Instant::now(),
            check: Vec::with_capacity(BLOCK),
            patch: Vec::with_capacity(BLOCK),
            handler: Vec::with_capacity(BLOCK),
            overhead: Vec::with_capacity(BLOCK),
            stage: [0.0; 4],
        }
    }

    /// Closes the block against `gauge`: adds its stage times to `t` and,
    /// when `complete`, its summary to `t.blocks`. Starts the next block.
    fn close(&mut self, t: &mut Tally, gauge: &mut Gauge, complete: bool) {
        let secs = self.started.elapsed().as_secs_f64();
        let factor = gauge.factor();
        for (sum, stage) in t.stage_us.iter_mut().zip(self.stage) {
            *sum += stage * factor;
        }
        if complete {
            t.blocks.push(Block {
                secs: secs * factor,
                check_p50: percentile(&self.check, 0.5) * factor,
                check_p90: percentile(&self.check, 0.9) * factor,
                patch_p50: percentile(&self.patch, 0.5) * factor,
                patch_p90: percentile(&self.patch, 0.9) * factor,
                handler_p50: median(&self.handler) * factor,
                overhead_p50: median(&self.overhead) * factor,
                factor,
            });
        }
        *self = Samples::new();
    }
}

/// Whether `reply` carries exactly the `expected` reports.
fn reports_match(reply: &Json, expected: &[String]) -> bool {
    let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
    let reports = reply.get("reports").and_then(Json::as_array).unwrap_or(&[]);
    ok && reports.len() == expected.len()
        && reports.iter().zip(expected).all(|(r, e)| answer(r) == *e)
}

/// Sends requests from `stream` until `stop` says so, checking every
/// reply against the oracles. On `unknown_circuit` (an LRU eviction, as
/// the protocol documents) the variant is re-registered and the request
/// retried once.
fn drive(
    conn: &mut Conn,
    variants: &[Variant],
    ids: &mut [String],
    stream: &mut Stream,
    gauge: &mut Gauge,
    mut stop: impl FnMut(u64, Duration) -> bool,
) -> Tally {
    let mut t = Tally {
        digest: 0xCBF2_9CE4_8422_2325,
        ..Tally::default()
    };
    let started = Instant::now();
    let mut block = Samples::new();
    while !stop(t.attempted, started.elapsed()) {
        let op = stream.next(variants);
        let variant = match op {
            Op::Check { variant, .. } | Op::Patch { variant, .. } => variant,
        };
        let request = request_of(op, variants, ids);
        let t0 = Instant::now();
        let mut reply = conn.call(&request);
        let mut rtt = t0.elapsed();
        let evicted = reply.as_ref().is_ok_and(|r| {
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                == Some("unknown_circuit")
        });
        if evicted {
            t.reregisters += 1;
            let t0 = Instant::now();
            reply = conn
                .call(&register_request(&variants[variant]))
                .and_then(|r| {
                    if let Some(id) = r.get("circuit").and_then(Json::as_str) {
                        ids[variant] = id.to_string();
                    }
                    conn.call(&request_of(op, variants, ids))
                });
            rtt += t0.elapsed();
        }
        t.attempted += 1;
        let Ok(reply) = reply else {
            t.failed += 1;
            break;
        };
        let reports = reply.get("reports").and_then(Json::as_array).unwrap_or(&[]);
        for r in reports {
            t.backtracks += r.get("backtracks").and_then(Json::as_u64).unwrap_or(0);
            for byte in answer(r).bytes() {
                t.digest = (t.digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
            }
        }
        let v = &variants[variant];
        let correct = match op {
            Op::Check { output, delta, .. } => {
                block.check.push(us(rtt));
                if let Some(r) = reports.first() {
                    let elapsed = r.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0);
                    block.handler.push(elapsed as f64);
                    block.overhead.push(us(rtt) - elapsed as f64);
                    let stage_us = r.get("stage_us");
                    for (sum, k) in block.stage.iter_mut().zip([
                        "narrowing",
                        "dominators",
                        "stems",
                        "case_analysis",
                    ]) {
                        let stage = stage_us.and_then(|s| s.get(k)).and_then(Json::as_u64);
                        *sum += stage.unwrap_or(0) as f64;
                    }
                }
                reports_match(&reply, std::slice::from_ref(&v.check[output][delta]))
            }
            Op::Patch { edit, delta, .. } => {
                block.patch.push(us(rtt));
                t.reused.0 += reports
                    .iter()
                    .filter(|r| r.get("reused").and_then(Json::as_bool) == Some(true))
                    .count() as u64;
                t.reused.1 += reports.len() as u64;
                reports_match(&reply, &v.patch[edit][delta])
            }
        };
        t.failed += u64::from(!correct);
        if (t.attempted as usize).is_multiple_of(BLOCK) {
            block.close(&mut t, gauge, true);
        }
    }
    block.close(&mut t, gauge, false);
    t
}

/// A daemon with every variant registered, and the client's connection.
struct Live {
    daemon: Daemon,
    conn: Conn,
    ids: Vec<String>,
    /// Round trip of each cold `register`, µs.
    register_us: Vec<f64>,
}

/// Starts a daemon and cold-registers every variant.
fn cold_start(variants: &[Variant]) -> std::io::Result<Live> {
    let daemon = Daemon::start()?;
    let mut conn = Conn::connect(&daemon.addr)?;
    let (ids, register_us) = register_all(&mut conn, variants)?;
    Ok(Live {
        daemon,
        conn,
        ids,
        register_us,
    })
}

/// Sends the first `requests` requests of `seed`'s stream to a fresh
/// daemon and drains it.
pub fn replay(seed: u64, requests: u64) -> std::io::Result<Tally> {
    let (variants, _, _) = build_variants(seed);
    let Live {
        daemon,
        mut conn,
        mut ids,
        ..
    } = cold_start(&variants)?;
    let mut stream = Stream::new(seed, &variants);
    let mut gauge = Gauge::new();
    let mut tally = drive(
        &mut conn,
        &variants,
        &mut ids,
        &mut stream,
        &mut gauge,
        |n, _| n >= requests,
    );
    drop(conn);
    tally.failed += u64::from(!daemon.stop());
    Ok(tally)
}

/// The serve-layer per-layer metrics, zero: for workloads that never
/// touch the serve layer.
pub(crate) fn absent_serve_metrics() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in SERVE_LAYER {
        m.put(name, 0.0, unit);
    }
    m
}

const SERVE_LAYER: [(&str, &str); 10] = [
    ("serve.wire.encode_us", "us"),
    ("serve.wire.parse_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.register_cold_ms", "ms"),
    ("serve.register_hit_us", "us"),
    ("serve.patch.reused_ratio", "ratio"),
    ("serve.registry.reregisters", "count"),
    ("core.rebase_us", "us"),
    ("serve.router.hop_us", "us"),
];

/// The request stream through a router over one spawned backend; returns
/// the check round trips and the tally's failures.
fn router_run(seed: u64, variants: &[Variant], gauge: &mut Gauge) -> std::io::Result<Tally> {
    let router = Router::bind(RouterConfig {
        spawn: 1,
        backend_jobs: 1,
        replicas: 1,
        ..Default::default()
    })?;
    let addr = router.local_addr()?.to_string();
    let handle = router.handle();
    let join = std::thread::spawn(move || router.run());
    let result = (|| -> std::io::Result<Tally> {
        let mut conn = Conn::connect(&addr)?;
        let (mut ids, _) = register_all(&mut conn, variants)?;
        let mut stream = Stream::new(seed, variants);
        Ok(drive(
            &mut conn,
            variants,
            &mut ids,
            &mut stream,
            gauge,
            |n, _| n >= ROUTER_REQUESTS,
        ))
    })();
    handle.shutdown();
    let drained = matches!(join.join(), Ok(Ok(())));
    let mut tally = result?;
    tally.failed += u64::from(!drained);
    Ok(tally)
}

/// The core-layer metrics of the oracle computation: the same checks the
/// daemon serves, run cold in-process with spans recorded.
fn oracle_core_metrics(layers: &OracleLayers, served: &Tally) -> Metrics {
    let span_ms = |name: &str| -> f64 {
        layers
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e3 * layers.factor)
            .sum()
    };
    let count =
        |f: fn(&VerifyReport) -> u64| -> f64 { layers.reports.iter().map(f).sum::<u64>() as f64 };
    // Served stage times, per block of requests (a serve "pass").
    let blocks = (served.attempted as f64 / BLOCK as f64).max(1.0);
    let stage_ms = |i: usize| served.stage_us[i] / 1e3 / blocks;
    let stems = count(|r| r.stems.stems);
    let backtracks = count(|r| r.case.backtracks);
    let mut m = Metrics::default();
    m.put("netlist.parse_ms", layers.parse_ms * layers.factor, "ms");
    m.put("core.prepare_ms", layers.prepare_ms * layers.factor, "ms");
    m.put(
        "core.static_learning_ms",
        span_ms("prepare.static_learning"),
        "ms",
    );
    m.put(
        "core.base_fixpoint_ms",
        span_ms("prepare.base_fixpoint"),
        "ms",
    );
    m.put("core.narrowing_ms", stage_ms(0), "ms");
    m.put("core.dominators_ms", stage_ms(1), "ms");
    m.put(
        "core.events",
        count(|r| r.effort.narrowing.events + r.effort.dominators.events),
        "count",
    );
    m.put(
        "core.narrowings",
        count(|r| r.effort.narrowing.narrowings + r.effort.dominators.narrowings),
        "count",
    );
    m.put(
        "core.learned_applications",
        count(|r| {
            r.effort.narrowing.learned_applications + r.effort.dominators.learned_applications
        }),
        "count",
    );
    m.put("core.stems_ms", stage_ms(2), "ms");
    m.put("core.stems.stems", stems, "count");
    m.put(
        "core.stems.effective_ratio",
        ratio(count(|r| r.stems.effective_stems), stems),
        "ratio",
    );
    m.put(
        "core.stems.dead_branches",
        count(|r| r.stems.dead_branches),
        "count",
    );
    m.put(
        "core.stems.events",
        count(|r| r.effort.stems.events),
        "count",
    );
    m.put("core.case_analysis_ms", stage_ms(3), "ms");
    m.put("core.fan.backtracks", backtracks, "count");
    m.put("core.fan.decisions", count(|r| r.case.decisions), "count");
    let case_ms: f64 = layers
        .reports
        .iter()
        .map(|r| ms(r.stage_times.case_analysis) * layers.factor)
        .sum();
    m.put(
        "core.fan.us_per_backtrack",
        ratio(case_ms * 1e3, backtracks),
        "us",
    );
    m.put(
        "core.case_analysis.events",
        count(|r| r.effort.case_analysis.events),
        "count",
    );
    m.put("core.delay_search_ms", 0.0, "ms");
    m.put("core.delay_probes", 0.0, "count");
    m.put(
        "sta.certify_us",
        median(&layers.certify_us) * layers.factor,
        "us",
    );
    m
}

/// Runs `serve_eco` for `seconds` and returns its result.
pub fn run(seed: u64, seconds: f64, trace: bool) -> std::io::Result<Outcome> {
    // Every time below is reference time (see `Gauge`).
    let mut gauge = Gauge::new();
    let (variants, mut layers, bad_witnesses) = build_variants(seed);
    layers.factor = gauge.factor();
    let mut setup = Vec::new();
    let mut register_cold_ms = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some(Live { daemon, .. }) = live.take() {
            if !daemon.stop() {
                return Err(std::io::Error::other("daemon did not drain"));
            }
        }
        let t0 = Instant::now();
        let started = cold_start(&variants)?;
        let wall = t0.elapsed().as_secs_f64();
        let factor = gauge.factor();
        setup.push(wall * factor);
        register_cold_ms.extend(started.register_us.iter().map(|u| u / 1e3 * factor));
        live = Some(started);
    }
    let Live {
        daemon,
        mut conn,
        mut ids,
        ..
    } = live.expect("at least one set-up repetition");
    let mut stream = Stream::new(seed, &variants);
    let mut metrics = Metrics::default();
    let (attempted, mut failed);
    if !trace {
        let t = drive(
            &mut conn,
            &variants,
            &mut ids,
            &mut stream,
            &mut gauge,
            |_, e| e.as_secs_f64() >= seconds,
        );
        attempted = t.attempted;
        failed = t.failed;
        metrics.put("setup_s", median(&setup), "s");
        metrics.put("pass_s", t.median(|b| b.secs), "s");
        metrics.put("req_per_s", t.median(|b| BLOCK as f64 / b.secs), "1/s");
        metrics.put("check_p50_us", t.median(|b| b.check_p50), "us");
        metrics.put("check_p90_us", t.median(|b| b.check_p90), "us");
        metrics.put("patch_p50_us", t.median(|b| b.patch_p50), "us");
        metrics.put("patch_p90_us", t.median(|b| b.patch_p90), "us");
        metrics.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    } else {
        // Untraced half, then the traced half with wire steps timed.
        let half = seconds / 2.0;
        let plain = drive(
            &mut conn,
            &variants,
            &mut ids,
            &mut stream,
            &mut gauge,
            |_, e| e.as_secs_f64() >= half,
        );
        conn.encode = Duration::ZERO;
        conn.parse = Duration::ZERO;
        let traced = drive(
            &mut conn,
            &variants,
            &mut ids,
            &mut stream,
            &mut gauge,
            |_, e| e.as_secs_f64() >= half,
        );
        let factor = traced.median(|b| b.factor);
        let per_request = |d: Duration| us(d) * factor / traced.attempted.max(1) as f64;
        let (encode_us, parse_us) = (per_request(conn.encode), per_request(conn.parse));
        let mut hits = Vec::new();
        for _ in 0..25 {
            let (_, times) = register_all(&mut conn, &variants)?;
            let factor = gauge.factor();
            hits.extend(times.iter().map(|t| t * factor));
        }
        let routed = router_run(seed, &variants, &mut gauge)?;
        attempted = plain.attempted + traced.attempted + routed.attempted;
        failed = plain.failed + traced.failed + routed.failed;
        metrics = oracle_core_metrics(&layers, &traced);
        metrics.0.extend(crate::library::zero_sat_metrics().0);
        let direct_p50 = plain.median(|b| b.check_p50);
        for (name, unit) in SERVE_LAYER {
            let value = match name {
                "serve.wire.encode_us" => encode_us,
                "serve.wire.parse_us" => parse_us,
                "serve.handler_us" => traced.median(|b| b.handler_p50),
                "serve.overhead_us" => traced.median(|b| b.overhead_p50),
                "serve.register_cold_ms" => median(&register_cold_ms),
                "serve.register_hit_us" => median(&hits),
                "serve.patch.reused_ratio" => ratio(traced.reused.0 as f64, traced.reused.1 as f64),
                "serve.registry.reregisters" => (plain.reregisters + traced.reregisters) as f64,
                "core.rebase_us" => median(&layers.rebase_us) * layers.factor,
                "serve.router.hop_us" => routed.median(|b| b.check_p50) - direct_p50,
                _ => unreachable!("every serve-layer metric is listed"),
            };
            metrics.put(name, value, unit);
        }
        metrics.put(
            "trace.overhead_ratio",
            ratio(traced.median(|b| b.check_p50), direct_p50),
            "ratio",
        );
        metrics.put("bench.kernel_ms", median(&gauge.kernel_ms), "ms");
    }
    failed += bad_witnesses;
    drop(conn);
    failed += u64::from(!daemon.stop());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_mixes_witnesses_and_proofs() {
        let (variants, _, bad_witnesses) = build_variants(1);
        assert_eq!(bad_witnesses, 0);
        let verdicts: Vec<&str> = variants
            .iter()
            .flat_map(|v| v.check.iter().flatten())
            .map(|a| a.split(':').next().unwrap_or(""))
            .collect();
        let violations = verdicts.iter().filter(|&&v| v == "violation").count();
        let proofs = verdicts.iter().filter(|&&v| v == "no_violation").count();
        assert_eq!(violations + proofs, verdicts.len());
        assert!(violations > 0 && proofs > 0);
    }

    #[test]
    fn seeds_change_the_text_not_the_structure() {
        let (a, b) = (variant_sources(1), variant_sources(2));
        for ((_, x), (_, y)) in a.iter().zip(&b) {
            assert_ne!(x, y);
            assert_eq!(x.lines().count(), y.lines().count());
        }
        assert_eq!(variant_sources(1), a);
    }
}
