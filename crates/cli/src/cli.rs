//! Argument parsing and subcommand implementations for the `ltt` binary.

use ltt_core::{
    explain, BatchRunner, Budget, CheckSession, Completeness, DelayMode, Engine, Error,
    LearningMode, Obs, Recorder, Stage, Verdict, VerifyConfig,
};
use ltt_netlist::bench_format::{parse_bench, write_bench};
use ltt_netlist::sdf::apply_sdf;
use ltt_netlist::verilog::{parse_verilog, write_verilog};
use ltt_netlist::{Circuit, CircuitEdit, DelayInterval, NetId};
use ltt_sta::{simulate, transition_counts, write_vcd, SlackReport, WaveformTrace};
use ltt_waveform::Level;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a run that parsed and executed concluded — the non-error half of
/// the exit-code contract (`0` clean, `1` violation, `2` incomplete;
/// [`Error::exit_code`] covers `2`/`3` for runs that failed outright).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Every requested check completed and none violates.
    Clean,
    /// At least one certified timing violation.
    Violation,
    /// No violation found, but some result is partial: a budget tripped,
    /// a search was abandoned, or a fault-isolated slot failed.
    Incomplete,
}

impl RunStatus {
    /// The process exit code for this status.
    pub fn exit_code(self) -> u8 {
        match self {
            RunStatus::Clean => 0,
            RunStatus::Violation => 1,
            RunStatus::Incomplete => 2,
        }
    }
}

/// Parsed common options.
struct Options {
    file: String,
    format: Option<String>,
    delay: u32,
    sdf: Option<String>,
    output: Option<String>,
    delta: Option<i64>,
    deadline: Option<i64>,
    deadline_ms: Option<u64>,
    fail_fast: bool,
    to: Option<String>,
    v1: Option<String>,
    v2: Option<String>,
    vcd: Option<String>,
    assumptions: Vec<(String, Level)>,
    mode: DelayMode,
    dominators: bool,
    stems: bool,
    search: bool,
    learning: bool,
    max_backtracks: u64,
    jobs: usize,
    trace: Option<String>,
    engine: Engine,
    set_delay: Vec<String>,
    rewire: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            file: String::new(),
            format: None,
            delay: 10,
            sdf: None,
            output: None,
            delta: None,
            deadline: None,
            deadline_ms: None,
            fail_fast: false,
            to: None,
            v1: None,
            v2: None,
            vcd: None,
            assumptions: Vec::new(),
            mode: DelayMode::Floating,
            dominators: true,
            stems: true,
            search: true,
            learning: true,
            max_backtracks: 100_000,
            jobs: 0,
            trace: None,
            engine: Engine::Narrow,
            set_delay: Vec::new(),
            rewire: Vec::new(),
        }
    }
}

const USAGE: &str =
    "usage: ltt <info|check|delay|patch|report|convert|serve|router|client> <netlist> [options]
run `ltt help` for the full option list";

/// Entry point used by `main` (and the tests).
pub fn run(args: &[String]) -> Result<RunStatus, Error> {
    let Some(command) = args.first() else {
        return Err(Error::usage(USAGE));
    };
    if command == "help" || command == "--help" || command == "-h" {
        println!("{}", long_help());
        return Ok(RunStatus::Clean);
    }
    // `serve`, `router`, and `client` take no netlist positional; they
    // branch before the common option parser.
    match command.as_str() {
        "serve" => return cmd_serve(&args[1..]),
        "router" => return cmd_router(&args[1..]),
        "client" => return cmd_client(&args[1..]),
        _ => {}
    }
    let opts = parse_options(&args[1..])?;
    let circuit = load_circuit(&opts)?;
    match command.as_str() {
        "info" => cmd_info(&circuit),
        "check" => cmd_check(&circuit, &opts),
        "delay" => cmd_delay(&circuit, &opts),
        "patch" => cmd_patch(&circuit, &opts),
        "report" => cmd_report(&circuit, &opts),
        "convert" => cmd_convert(&circuit, &opts),
        "simulate" => cmd_simulate(&circuit, &opts),
        "explain" => cmd_explain(&circuit, &opts),
        other => Err(Error::usage(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

fn long_help() -> String {
    "ltt — false-path-aware gate-level timing verification
(waveform narrowing with last-transition-time constraint propagation,
after Kassab–Cerny–Aourid–Krodel, DATE 1998)

COMMANDS
  info    <netlist>                 circuit statistics
  check   <netlist> --delta N      can any output transition at/after N?
  delay   <netlist>                exact floating-mode delay per output
  patch   <netlist> --delta N --set-delay G=D | --rewire G=a,b,..
                                   apply ECO edits and re-verify
                                   incrementally (rebased session, clean
                                   cones transplanted), reporting the
                                   incremental-vs-cold wall-clock ratio
  report  <netlist> --deadline N   topological slack report
  convert <netlist> --to FMT       rewrite as bench|verilog
  simulate <netlist> --v1 BITS --v2 BITS [--vcd FILE]
                                   exact two-vector waveform simulation
  explain <netlist> --delta N      where could the violation live?
                                   (carriers, dominators, stems)
  serve   [--addr A] [--jobs N] [--queue-cap Q] [--registry-cap R]
                                   run the persistent verification daemon
                                   (newline-delimited JSON over TCP;
                                   default addr 127.0.0.1:7171, :0 picks
                                   an ephemeral port and prints it)
  router  --backend A [--backend B ...] | --spawn N
                                   run the fault-tolerant fleet front
                                   tier: consistent-hash placement over
                                   the backends, health probes, circuit
                                   breakers, backoff retry + failover
                                   (same wire protocol as `serve`)
  client  <requests.json> [--addr A] [--timeout-ms T]
                                   send request lines to a daemon and
                                   print the responses (`-` reads stdin;
                                   a stalled daemon past T yields a
                                   structured `timeout` error, exit 2)

OPTIONS
  --format bench|verilog    input format (default: by file extension)
  --delay D                 per-gate delay when the format has none (10)
  --sdf FILE                back-annotate delays from an SDF file
  --output NAME             restrict to one primary output
  --assume NET=0|1          pin a net's settling value (repeatable)
  --mode floating|transition
  --no-dominators --no-stems --no-search --no-learning
  --engine narrow|sat|hybrid
                            verification backend for check/delay
                            (default narrow: the waveform-narrowing
                            pipeline; `sat` re-decides each check with
                            an independent CNF/CDCL oracle; `hybrid`
                            runs narrowing first and falls back to SAT
                            only when the budget trips, tightening the
                            reported delay interval instead of giving
                            up; `sat`/`hybrid` do not support --assume
                            or --mode transition)
  --max-backtracks N        case-analysis budget (100000)
  --jobs N                  worker threads for check/delay batches
                            (0 = one per hardware thread, the default;
                            results are identical for every N)
  --deadline-ms T           wall-clock budget for the whole check/delay
                            run; past it, in-flight checks degrade to
                            sound partial results (exit code 2)
  --fail-fast               cancel remaining checks after the first
                            certified violation (trades the deterministic
                            report set for latency; the exit code is
                            unaffected)
  --trace FILE              write per-stage spans of a check/delay run as
                            Chrome-trace JSON (load in chrome://tracing);
                            verdicts and counters are identical with or
                            without tracing

PATCH OPTIONS
  --set-delay GATE=D        re-annotate a gate's delay (GATE is its
                            output net; D or LO:HI interval; repeatable)
  --rewire GATE=a,b,..      replace a gate's input nets (repeatable)

ROUTER OPTIONS
  --addr A                  bind address (default 127.0.0.1:7070, :0 ephemeral)
  --backend A               a backend daemon address (repeatable)
  --spawn N                 spawn N in-process backends instead (testing)
  --replicas R              backends each circuit registers on (2)
  --jobs N / --queue-cap Q  forwarding pool size / admission bound
  --retries N               retry rounds over the candidate list (3)
  --backoff-ms B            first-round backoff, doubled per round (10)
  --breaker-threshold K     consecutive failures that open a breaker (3)
  --breaker-cooldown-ms C   open-breaker cooldown before a probe (1000)
  --health-interval-ms H    status-probe period per backend (1000)
  --connect-timeout-ms T    backend connect bound (1000)
  --rpc-timeout-ms T        backend round-trip bound (30000)
  --max-line-bytes L        request/reply line cap (16 MiB)

EXIT CODES
  0  every check completed, no violation
  1  at least one certified violation
  2  incomplete: budget exhausted, search abandoned, or a check failed
  3  usage or input error"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, Error> {
    let mut opts = Options::default();
    let mut it = args.iter().peekable();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, Error> {
            it.next()
                .cloned()
                .ok_or_else(|| Error::usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--format" => opts.format = Some(value("--format")?),
            "--delay" => {
                opts.delay = value("--delay")?
                    .parse()
                    .map_err(|_| Error::usage("--delay needs an integer"))?
            }
            "--sdf" => opts.sdf = Some(value("--sdf")?),
            "--output" => opts.output = Some(value("--output")?),
            "--delta" => {
                opts.delta = Some(
                    value("--delta")?
                        .parse()
                        .map_err(|_| Error::usage("--delta needs an integer"))?,
                )
            }
            "--deadline" => {
                opts.deadline = Some(
                    value("--deadline")?
                        .parse()
                        .map_err(|_| Error::usage("--deadline needs an integer"))?,
                )
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|_| Error::usage("--deadline-ms needs an integer"))?,
                )
            }
            "--fail-fast" => opts.fail_fast = true,
            "--to" => opts.to = Some(value("--to")?),
            "--v1" => opts.v1 = Some(value("--v1")?),
            "--v2" => opts.v2 = Some(value("--v2")?),
            "--vcd" => opts.vcd = Some(value("--vcd")?),
            "--assume" => {
                let spec = value("--assume")?;
                let (net, v) = spec
                    .split_once('=')
                    .ok_or_else(|| Error::usage("--assume expects NET=0 or NET=1"))?;
                let level = match v {
                    "0" => Level::Zero,
                    "1" => Level::One,
                    _ => return Err(Error::usage("--assume expects NET=0 or NET=1")),
                };
                opts.assumptions.push((net.to_string(), level));
            }
            "--mode" => {
                opts.mode = match value("--mode")?.as_str() {
                    "floating" => DelayMode::Floating,
                    "transition" => DelayMode::Transition,
                    other => return Err(Error::usage(format!("unknown mode `{other}`"))),
                }
            }
            "--engine" => {
                let v = value("--engine")?;
                opts.engine = Engine::parse(&v)
                    .ok_or_else(|| Error::usage(format!("unknown engine `{v}`")))?;
            }
            "--set-delay" => opts.set_delay.push(value("--set-delay")?),
            "--rewire" => opts.rewire.push(value("--rewire")?),
            "--no-dominators" => opts.dominators = false,
            "--no-stems" => opts.stems = false,
            "--no-search" => opts.search = false,
            "--no-learning" => opts.learning = false,
            "--max-backtracks" => {
                opts.max_backtracks = value("--max-backtracks")?
                    .parse()
                    .map_err(|_| Error::usage("--max-backtracks needs an integer"))?
            }
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| Error::usage("--jobs needs an integer"))?
            }
            "--trace" => opts.trace = Some(value("--trace")?),
            other if other.starts_with("--") => {
                return Err(Error::usage(format!("unknown option `{other}`")))
            }
            _ => positional.push(arg.clone()),
        }
    }
    // The CNF encoder models floating mode only; answering a transition-
    // mode question with it would report floating-mode verdicts.
    if opts.mode == DelayMode::Transition && opts.engine != Engine::Narrow {
        return Err(Error::usage(
            "--mode transition requires --engine narrow (the CNF encoder models floating mode only)",
        ));
    }
    match positional.as_slice() {
        [file] => opts.file = file.clone(),
        [] => return Err(Error::usage("missing netlist file")),
        more => return Err(Error::usage(format!("unexpected arguments: {more:?}"))),
    }
    Ok(opts)
}

fn load_circuit(opts: &Options) -> Result<Circuit, Error> {
    let text = std::fs::read_to_string(&opts.file).map_err(|e| Error::Io {
        path: opts.file.clone(),
        message: e.to_string(),
    })?;
    let format = match &opts.format {
        Some(f) => f.clone(),
        None if opts.file.ends_with(".v") || opts.file.ends_with(".sv") => "verilog".into(),
        None => "bench".into(),
    };
    let delay = DelayInterval::fixed(opts.delay);
    let circuit = match format.as_str() {
        "bench" => {
            parse_bench(&opts.file, &text, delay).map_err(|e| Error::invalid(e.to_string()))?
        }
        "verilog" => parse_verilog(&text, delay).map_err(|e| Error::invalid(e.to_string()))?,
        other => return Err(Error::usage(format!("unknown format `{other}`"))),
    };
    match &opts.sdf {
        None => Ok(circuit),
        Some(path) => {
            let sdf = std::fs::read_to_string(path).map_err(|e| Error::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            apply_sdf(&circuit, &sdf).map_err(|e| Error::invalid(e.to_string()))
        }
    }
}

/// `ltt serve`: run the persistent verification daemon until a `shutdown`
/// request drains it.
fn cmd_serve(args: &[String]) -> Result<RunStatus, Error> {
    let mut config = ltt_serve::ServeConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, Error> {
            it.next()
                .cloned()
                .ok_or_else(|| Error::usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--jobs" => {
                config.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| Error::usage("--jobs needs an integer"))?
            }
            "--queue-cap" => {
                config.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| Error::usage("--queue-cap needs an integer"))?
            }
            "--registry-cap" => {
                config.registry_cap = value("--registry-cap")?
                    .parse()
                    .map_err(|_| Error::usage("--registry-cap needs an integer"))?
            }
            "--max-line-bytes" => {
                config.max_line_bytes = value("--max-line-bytes")?
                    .parse()
                    .map_err(|_| Error::usage("--max-line-bytes needs an integer"))?
            }
            other => return Err(Error::usage(format!("unknown serve option `{other}`"))),
        }
    }
    ltt_serve::serve(&config).map_err(|e| Error::Io {
        path: config.addr.clone(),
        message: e.to_string(),
    })?;
    Ok(RunStatus::Clean)
}

/// `ltt router`: run the sharded-fleet front tier until a `shutdown`
/// request drains it.
fn cmd_router(args: &[String]) -> Result<RunStatus, Error> {
    let mut config = ltt_serve::RouterConfig {
        addr: "127.0.0.1:7070".to_string(),
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, Error> {
            it.next()
                .cloned()
                .ok_or_else(|| Error::usage(format!("{name} needs a value")))
        };
        let arg = arg.as_str();
        // The duration-valued flags share one parse-and-assign path.
        let duration_slot: Option<&mut std::time::Duration> = match arg {
            "--backoff-ms" => Some(&mut config.backoff_base),
            "--backoff-cap-ms" => Some(&mut config.backoff_cap),
            "--breaker-cooldown-ms" => Some(&mut config.breaker_cooldown),
            "--health-interval-ms" => Some(&mut config.health_interval),
            "--connect-timeout-ms" => Some(&mut config.connect_timeout),
            "--rpc-timeout-ms" => Some(&mut config.rpc_timeout),
            _ => None,
        };
        if let Some(slot) = duration_slot {
            let ms: u64 = value(arg)?
                .parse()
                .map_err(|_| Error::usage(format!("{arg} needs an integer (milliseconds)")))?;
            *slot = std::time::Duration::from_millis(ms);
            continue;
        }
        let usize_slot: Option<&mut usize> = match arg {
            "--spawn" => Some(&mut config.spawn),
            "--replicas" => Some(&mut config.replicas),
            "--jobs" => Some(&mut config.jobs),
            "--queue-cap" => Some(&mut config.queue_cap),
            "--backend-jobs" => Some(&mut config.backend_jobs),
            "--backend-queue-cap" => Some(&mut config.backend_queue_cap),
            "--backend-registry-cap" => Some(&mut config.backend_registry_cap),
            "--max-line-bytes" => Some(&mut config.max_line_bytes),
            _ => None,
        };
        if let Some(slot) = usize_slot {
            *slot = value(arg)?
                .parse()
                .map_err(|_| Error::usage(format!("{arg} needs an integer")))?;
            continue;
        }
        match arg {
            "--addr" => config.addr = value("--addr")?,
            "--backend" => config.backends.push(value("--backend")?),
            "--retries" => {
                config.max_retries = value("--retries")?
                    .parse()
                    .map_err(|_| Error::usage("--retries needs an integer"))?
            }
            "--breaker-threshold" => {
                config.breaker_threshold = value("--breaker-threshold")?
                    .parse()
                    .map_err(|_| Error::usage("--breaker-threshold needs an integer"))?
            }
            other => return Err(Error::usage(format!("unknown router option `{other}`"))),
        }
    }
    if config.backends.is_empty() && config.spawn == 0 {
        return Err(Error::usage(
            "router needs at least one --backend (or --spawn N)",
        ));
    }
    let addr = config.addr.clone();
    ltt_serve::route(config).map_err(|e| Error::Io {
        path: addr,
        message: e.to_string(),
    })?;
    Ok(RunStatus::Clean)
}

/// `ltt client`: send each request line of a file (or stdin, `-`) to a
/// daemon, print each response line, and fold the responses into the
/// standard exit-code contract.
fn cmd_client(args: &[String]) -> Result<RunStatus, Error> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut file: Option<String> = None;
    let mut timeout: Option<std::time::Duration> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .ok_or_else(|| Error::usage("--addr needs a value"))?
            }
            "--timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or_else(|| Error::usage("--timeout-ms needs a value"))?
                    .parse()
                    .map_err(|_| Error::usage("--timeout-ms needs an integer"))?;
                if ms == 0 {
                    return Err(Error::usage("--timeout-ms must be positive"));
                }
                timeout = Some(std::time::Duration::from_millis(ms));
            }
            other if other.starts_with("--") => {
                return Err(Error::usage(format!("unknown client option `{other}`")))
            }
            _ => {
                if file.replace(arg.clone()).is_some() {
                    return Err(Error::usage("client takes exactly one request file"));
                }
            }
        }
    }
    let file = file.ok_or_else(|| Error::usage("client needs a request file (`-` for stdin)"))?;
    let text = if file == "-" {
        let mut buffer = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buffer).map_err(|e| {
            Error::Io {
                path: "<stdin>".to_string(),
                message: e.to_string(),
            }
        })?;
        buffer
    } else {
        std::fs::read_to_string(&file).map_err(|e| Error::Io {
            path: file.clone(),
            message: e.to_string(),
        })?
    };
    let connected = match timeout {
        Some(t) => ltt_serve::Client::connect_timeout(&addr, t),
        None => ltt_serve::Client::connect(&addr),
    };
    let mut client = match connected {
        Ok(client) => client,
        Err(e) if timeout.is_some() && ltt_serve::is_timeout(&e) => {
            println!("{}", timeout_response(&addr, "connect").encode());
            return Ok(RunStatus::Incomplete);
        }
        Err(e) => {
            return Err(Error::Io {
                path: addr.clone(),
                message: e.to_string(),
            })
        }
    };
    client.set_read_timeout(timeout).map_err(|e| Error::Io {
        path: addr.clone(),
        message: e.to_string(),
    })?;
    let mut status = RunStatus::Clean;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let request = ltt_serve::decode(line)
            .map_err(|e| Error::invalid(format!("bad request line: {e}")))?;
        match client.call(&request) {
            Ok(response) => {
                println!("{}", response.encode());
                status = worst_status(status, response_status(&response));
            }
            // A stalled server with `--timeout-ms` armed: report a
            // structured timeout and stop — the connection's framing can
            // no longer be trusted, and exit code 2 (incomplete) is the
            // contract for work that did not finish.
            Err(e) if ltt_serve::is_timeout(&e) => {
                println!("{}", timeout_response(&addr, "reply").encode());
                return Ok(RunStatus::Incomplete);
            }
            Err(e) => {
                return Err(Error::Io {
                    path: addr.clone(),
                    message: e.to_string(),
                })
            }
        }
    }
    Ok(status)
}

/// The client-side structured timeout report, shaped like a server error
/// reply so scripts parse both the same way.
fn timeout_response(addr: &str, what: &str) -> ltt_serve::Json {
    use ltt_serve::Json;
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("code", Json::str("timeout")),
                (
                    "message",
                    Json::str(format!("timed out waiting for {what} from {addr}")),
                ),
            ]),
        ),
    ])
}

/// Folds one server response into the exit-code contract: a reported
/// violation beats an incomplete result beats clean.
fn response_status(response: &ltt_serve::Json) -> RunStatus {
    use ltt_serve::Json;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return RunStatus::Incomplete;
    }
    let violated = response.get("outcome").and_then(Json::as_str) == Some("violation")
        || response
            .get("report")
            .and_then(|r| r.get("verdict"))
            .and_then(Json::as_str)
            == Some("violation");
    if violated {
        return RunStatus::Violation;
    }
    let incomplete = response.get("complete").and_then(Json::as_bool) == Some(false)
        || response
            .get("results")
            .and_then(Json::as_array)
            .is_some_and(|results| {
                results.iter().any(|r| {
                    r.get("exact").and_then(Json::as_bool) == Some(false)
                        || r.get("error").is_some()
                })
            });
    if incomplete {
        RunStatus::Incomplete
    } else {
        RunStatus::Clean
    }
}

/// `Violation` dominates (it is the signal), then `Incomplete`.
fn worst_status(a: RunStatus, b: RunStatus) -> RunStatus {
    use RunStatus::*;
    match (a, b) {
        (Violation, _) | (_, Violation) => Violation,
        (Incomplete, _) | (_, Incomplete) => Incomplete,
        _ => Clean,
    }
}

fn config_from(opts: &Options) -> VerifyConfig {
    VerifyConfig {
        delay_mode: opts.mode,
        learning: if opts.learning {
            LearningMode::Stems
        } else {
            LearningMode::Off
        },
        dominators: opts.dominators,
        stem_correlation: opts.stems,
        case_analysis: opts.search,
        max_backtracks: opts.max_backtracks,
        budget: Budget::unlimited(),
        engine: opts.engine,
        obs: Obs::disabled(),
    }
}

fn runner_from(opts: &Options) -> BatchRunner {
    let mut runner = BatchRunner::new(opts.jobs).with_fail_fast(opts.fail_fast);
    if let Some(ms) = opts.deadline_ms {
        runner = runner.with_deadline(Duration::from_millis(ms));
    }
    runner
}

fn resolve_outputs(circuit: &Circuit, opts: &Options) -> Result<Vec<NetId>, Error> {
    match &opts.output {
        None => Ok(circuit.outputs().to_vec()),
        Some(name) => {
            let net = circuit
                .net_by_name(name)
                .ok_or_else(|| Error::invalid(format!("no net named `{name}`")))?;
            Ok(vec![net])
        }
    }
}

fn resolve_assumptions(circuit: &Circuit, opts: &Options) -> Result<Vec<(NetId, Level)>, Error> {
    opts.assumptions
        .iter()
        .map(|(name, level)| {
            circuit
                .net_by_name(name)
                .map(|n| (n, *level))
                .ok_or_else(|| Error::invalid(format!("no net named `{name}` (in --assume)")))
        })
        .collect()
}

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Narrowing => "narrowing",
        Stage::Dominators => "timing dominators",
        Stage::StemCorrelation => "stem correlation",
        Stage::CaseAnalysis => "case analysis",
        Stage::Sat => "sat",
    }
}

fn cmd_info(circuit: &Circuit) -> Result<RunStatus, Error> {
    println!("name:            {}", circuit.name());
    println!("gates:           {}", circuit.num_gates());
    println!("nets:            {}", circuit.num_nets());
    println!("inputs:          {}", circuit.inputs().len());
    println!("outputs:         {}", circuit.outputs().len());
    println!("depth:           {} levels", circuit.depth());
    println!("topological:     {}", circuit.topological_delay());
    println!("min topological: {}", circuit.min_topological_delay());
    println!("fanout stems:    {}", circuit.num_fanout_stems());
    Ok(RunStatus::Clean)
}

fn cmd_check(circuit: &Circuit, opts: &Options) -> Result<RunStatus, Error> {
    let delta = opts
        .delta
        .ok_or_else(|| Error::usage("check needs --delta N"))?;
    let mut config = config_from(opts);
    let recorder = trace_recorder(opts, &mut config);
    let assumptions = resolve_assumptions(circuit, opts)?;
    // The CNF encoder has no notion of pinned nets, and silently ignoring
    // pins would let it report witnesses the assumption set rules out.
    if !assumptions.is_empty() && matches!(opts.engine, Engine::Sat | Engine::Hybrid) {
        return Err(Error::usage(
            "--assume requires --engine narrow (the CNF encoder does not support pins)",
        ));
    }
    let session = CheckSession::new(circuit, config);
    let checks: Vec<(NetId, i64)> = resolve_outputs(circuit, opts)?
        .into_iter()
        .map(|o| (o, delta))
        .collect();
    let runner = runner_from(opts);
    let batch = runner.run_under(&session, &checks, &assumptions);
    let mut any_violation = false;
    let mut any_open = false;
    for r in &batch.reports {
        let name = circuit.net(r.output).name();
        match &r.verdict {
            Verdict::NoViolation { stage } => println!(
                "{name}: no transition at or after {delta} is possible (proved by {}, {:.2} ms)",
                stage_name(*stage),
                r.elapsed.as_secs_f64() * 1e3
            ),
            Verdict::Violation { vector } => {
                any_violation = true;
                let pretty: Vec<String> = circuit
                    .inputs()
                    .iter()
                    .zip(vector.iter())
                    .map(|(&n, &v)| format!("{}={}", circuit.net(n).name(), u8::from(v)))
                    .collect();
                println!(
                    "{name}: VIOLATED — certified vector after {} backtracks: {}",
                    r.backtracks(),
                    pretty.join(" ")
                );
            }
            Verdict::Possible => {
                any_open = true;
                println!("{name}: possible violation (search disabled; rerun without --no-search)");
            }
            Verdict::Abandoned => {
                any_open = true;
                match r.completeness {
                    Completeness::BudgetExhausted { stage, reason } => println!(
                        "{name}: undecided — budget exhausted ({reason}) in {} after {} backtracks",
                        stage_name(stage),
                        r.backtracks()
                    ),
                    Completeness::Exact => println!(
                        "{name}: undecided — case analysis abandoned after {} backtracks",
                        r.backtracks()
                    ),
                }
            }
        }
    }
    for e in &batch.errors {
        println!("{}: {}", circuit.net(e.output).name(), e.error);
    }
    let s = &batch.summary;
    println!(
        "checked {} output(s) in {:.2} ms with {} job(s): {} safe, {} violated, {} undecided, {} failed, {} skipped",
        s.checks,
        batch.wall.as_secs_f64() * 1e3,
        runner.jobs(),
        s.no_violation,
        s.violations,
        s.undecided,
        s.failed,
        s.skipped
    );
    println!(
        "  effort: {} events, {} backtracks · stage ms: narrowing {:.2}, dominators {:.2}, stems {:.2}, search {:.2}",
        s.stage_effort.total().events,
        batch.backtracks(),
        s.stage_wall.narrowing.as_secs_f64() * 1e3,
        s.stage_wall.dominators.as_secs_f64() * 1e3,
        s.stage_wall.stems.as_secs_f64() * 1e3,
        s.stage_wall.case_analysis.as_secs_f64() * 1e3
    );
    write_trace(opts, recorder.as_deref())?;
    if any_violation {
        println!("result: VIOLATED");
        Ok(RunStatus::Violation)
    } else if any_open || !batch.errors.is_empty() {
        println!("result: INCOMPLETE");
        Ok(RunStatus::Incomplete)
    } else {
        Ok(RunStatus::Clean)
    }
}

/// Resolves a gate by the name of the net it drives.
fn gate_by_output(circuit: &Circuit, name: &str) -> Result<ltt_netlist::GateId, Error> {
    let net = circuit
        .net_by_name(name)
        .ok_or_else(|| Error::invalid(format!("no net named `{name}`")))?;
    circuit
        .net(net)
        .driver()
        .ok_or_else(|| Error::invalid(format!("`{name}` is a primary input, not a gate output")))
}

/// Parses `--set-delay GATE=D|GATE=LO:HI` and `--rewire GATE=a,b,..`
/// specs into [`CircuitEdit`]s against `circuit`.
fn parse_edits(circuit: &Circuit, opts: &Options) -> Result<Vec<CircuitEdit>, Error> {
    let mut edits = Vec::new();
    for spec in &opts.set_delay {
        let (gate, delay) = spec
            .split_once('=')
            .ok_or_else(|| Error::usage("--set-delay expects GATE=D or GATE=LO:HI"))?;
        let bad = || Error::usage("--set-delay expects GATE=D or GATE=LO:HI with integers");
        let delay = match delay.split_once(':') {
            Some((lo, hi)) => {
                let (lo, hi): (u32, u32) = (
                    lo.parse().map_err(|_| bad())?,
                    hi.parse().map_err(|_| bad())?,
                );
                if lo > hi {
                    return Err(Error::usage("--set-delay interval needs LO <= HI"));
                }
                DelayInterval::new(lo, hi)
            }
            None => DelayInterval::fixed(delay.parse().map_err(|_| bad())?),
        };
        edits.push(CircuitEdit::SetDelay {
            gate: gate_by_output(circuit, gate)?,
            delay,
        });
    }
    for spec in &opts.rewire {
        let (gate, inputs) = spec
            .split_once('=')
            .ok_or_else(|| Error::usage("--rewire expects GATE=a,b,.."))?;
        let inputs = inputs
            .split(',')
            .map(|n| {
                circuit
                    .net_by_name(n.trim())
                    .ok_or_else(|| Error::invalid(format!("no net named `{n}` (in --rewire)")))
            })
            .collect::<Result<Vec<NetId>, Error>>()?;
        edits.push(CircuitEdit::Rewire {
            gate: gate_by_output(circuit, gate)?,
            inputs,
        });
    }
    Ok(edits)
}

/// The exit status a completed batch maps to (same contract as `check`).
fn batch_status(batch: &ltt_core::BatchCheck) -> RunStatus {
    if batch.summary.violations > 0 {
        RunStatus::Violation
    } else if batch.summary.undecided > 0 || !batch.errors.is_empty() {
        RunStatus::Incomplete
    } else {
        RunStatus::Clean
    }
}

/// `ltt patch`: apply ECO edits and re-verify **incrementally**. The
/// edited revision is rebased onto the already-prepared session —
/// structural analyses survive delay-only edits, and every per-output
/// cone untouched by the dirty nets keeps its warm state — instead of
/// being prepared from scratch. A cold session on the edited circuit is
/// also run as the reference: its verdicts must be bit-identical, and
/// the printed ratio is the incremental speedup. The exit code reflects
/// the *edited* circuit's checks.
fn cmd_patch(circuit: &Circuit, opts: &Options) -> Result<RunStatus, Error> {
    let delta = opts
        .delta
        .ok_or_else(|| Error::usage("patch needs --delta N"))?;
    if opts.set_delay.is_empty() && opts.rewire.is_empty() {
        return Err(Error::usage(
            "patch needs at least one --set-delay or --rewire",
        ));
    }
    let edits = parse_edits(circuit, opts)?;
    let config = config_from(opts);
    let runner = runner_from(opts);
    let checks: Vec<(NetId, i64)> = resolve_outputs(circuit, opts)?
        .into_iter()
        .map(|o| (o, delta))
        .collect();

    // Baseline: prepare and verify the pre-edit circuit — the warm
    // session the incremental path rebases.
    let t = Instant::now();
    let session = CheckSession::new(circuit, config.clone());
    let baseline = runner.run(&session, &checks);
    let baseline_ms = t.elapsed().as_secs_f64() * 1e3;

    let outcome = circuit
        .apply_edit(&edits)
        .map_err(|e| Error::invalid(e.to_string()))?;
    let dirty: Vec<&str> = outcome
        .dirty
        .iter()
        .map(|&n| outcome.circuit.net(n).name())
        .collect();
    println!(
        "applied {} edit(s): {} dirty net(s) [{}], {}",
        edits.len(),
        dirty.len(),
        dirty.join(" "),
        if outcome.structural {
            "structural"
        } else {
            "delay-only"
        }
    );

    // Incremental: rebase the warm session onto the edited revision and
    // re-run the same checks.
    let t = Instant::now();
    let rebased = session.rebase(
        Arc::new(outcome.circuit.clone()),
        &outcome.dirty,
        outcome.structural,
    );
    let incremental = runner.run(&rebased, &checks);
    let incremental_ms = t.elapsed().as_secs_f64() * 1e3;

    // Cold reference: the edited circuit prepared from scratch.
    let t = Instant::now();
    let cold_session = CheckSession::new(&outcome.circuit, config);
    let cold = runner.run(&cold_session, &checks);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;

    let identical = incremental
        .reports
        .iter()
        .zip(&cold.reports)
        .all(|(a, b)| a.verdict == b.verdict && a.completeness == b.completeness);
    println!(
        "baseline (pre-edit):    {} check(s) in {baseline_ms:.2} ms",
        baseline.summary.checks
    );
    println!(
        "incremental re-verify:  {} check(s) in {incremental_ms:.2} ms (rebase + run)",
        incremental.summary.checks
    );
    println!(
        "cold re-verify:         {} check(s) in {cold_ms:.2} ms",
        cold.summary.checks
    );
    println!(
        "incremental/cold:       {:.2}x — verdicts {}",
        incremental_ms / cold_ms.max(1e-9),
        if identical {
            "bit-identical"
        } else {
            "MISMATCHED (bug)"
        }
    );
    if !identical {
        return Err(Error::invalid(
            "incremental re-verification diverged from the cold session",
        ));
    }
    let s = &incremental.summary;
    println!(
        "result: {} safe, {} violated, {} undecided, {} failed",
        s.no_violation, s.violations, s.undecided, s.failed
    );
    Ok(batch_status(&incremental))
}

fn cmd_delay(circuit: &Circuit, opts: &Options) -> Result<RunStatus, Error> {
    let mut config = config_from(opts);
    let recorder = trace_recorder(opts, &mut config);
    let arrival = circuit.arrival_times();
    let session = CheckSession::new(circuit, config);
    let outputs = resolve_outputs(circuit, opts)?;
    let results = runner_from(opts).exact_delays(&session, &outputs);
    let mut incomplete = false;
    for (&out, result) in outputs.iter().zip(&results) {
        let name = circuit.net(out).name();
        let top = arrival[out.index()];
        match result {
            Ok(search) if search.proven_exact => {
                let marker = if search.delay < top {
                    "  ** longest path FALSE **"
                } else {
                    ""
                };
                println!(
                    "{name}: exact {} (topological {top}, {} backtracks){marker}",
                    search.delay,
                    search.backtracks()
                );
            }
            Ok(search) => {
                incomplete = true;
                println!(
                    "{name}: bounds [{}, {}] (topological {top}; search incomplete after {} backtracks)",
                    search.delay,
                    search.upper_bound,
                    search.backtracks()
                );
            }
            Err(e) => {
                incomplete = true;
                println!("{name}: {e}");
            }
        }
    }
    write_trace(opts, recorder.as_deref())?;
    if incomplete {
        println!("result: INCOMPLETE");
        Ok(RunStatus::Incomplete)
    } else {
        Ok(RunStatus::Clean)
    }
}

/// When `--trace FILE` was given, attaches a fresh recorder to the config
/// and returns it; otherwise leaves the config's (disabled) handle alone.
fn trace_recorder(opts: &Options, config: &mut VerifyConfig) -> Option<std::sync::Arc<Recorder>> {
    opts.trace.as_ref().map(|_| {
        let recorder = std::sync::Arc::new(Recorder::new());
        config.obs = Obs::recording(recorder.clone());
        recorder
    })
}

/// Writes the Chrome-trace JSON collected by `recorder` to the `--trace`
/// path, if both exist.
fn write_trace(opts: &Options, recorder: Option<&Recorder>) -> Result<(), Error> {
    let (Some(path), Some(recorder)) = (&opts.trace, recorder) else {
        return Ok(());
    };
    std::fs::write(path, recorder.chrome_trace()).map_err(|e| Error::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    println!("wrote trace {path} ({} spans)", recorder.len());
    Ok(())
}

fn cmd_report(circuit: &Circuit, opts: &Options) -> Result<RunStatus, Error> {
    let deadline = opts
        .deadline
        .ok_or_else(|| Error::usage("report needs --deadline N"))?;
    let report = SlackReport::compute(circuit, deadline);
    println!(
        "deadline {deadline}: worst slack {}",
        report
            .worst_slack()
            .map_or("-".to_string(), |s| s.to_string())
    );
    let mut rows: Vec<(i64, NetId)> = circuit
        .net_ids()
        .filter_map(|n| report.slack[n.index()].map(|s| (s, n)))
        .collect();
    rows.sort();
    println!(
        "{:<20} {:>8} {:>8} {:>8}",
        "net", "arrival", "required", "slack"
    );
    for (slack, net) in rows.iter().take(15) {
        println!(
            "{:<20} {:>8} {:>8} {:>8}",
            circuit.net(*net).name(),
            report.arrival[net.index()],
            report.required[net.index()].expect("covered"),
            slack
        );
    }
    if rows.len() > 15 {
        println!("… ({} more nets)", rows.len() - 15);
    }
    if report.is_violated() {
        println!("note: negative topological slack may still be a false path —");
        println!("      run `ltt check --delta {deadline}` for the exact answer");
    }
    Ok(RunStatus::Clean)
}

fn parse_vector(circuit: &Circuit, bits: &str, flag: &str) -> Result<Vec<bool>, Error> {
    if bits.len() != circuit.inputs().len() {
        return Err(Error::usage(format!(
            "{flag} needs {} bits (one per input, in declaration order)",
            circuit.inputs().len()
        )));
    }
    bits.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(Error::usage(format!("{flag}: invalid bit `{other}`"))),
        })
        .collect()
}

fn cmd_simulate(circuit: &Circuit, opts: &Options) -> Result<RunStatus, Error> {
    let v1 = parse_vector(
        circuit,
        opts.v1
            .as_deref()
            .ok_or_else(|| Error::usage("simulate needs --v1 BITS"))?,
        "--v1",
    )?;
    let v2 = parse_vector(
        circuit,
        opts.v2
            .as_deref()
            .ok_or_else(|| Error::usage("simulate needs --v2 BITS"))?,
        "--v2",
    )?;
    let inputs: Vec<WaveformTrace> = v1
        .iter()
        .zip(&v2)
        .map(|(&a, &b)| WaveformTrace::new(a, vec![(0, b)]))
        .collect();
    let traces = simulate(circuit, &inputs);
    let counts = transition_counts(&traces);
    for &o in circuit.outputs() {
        let tr = &traces[o.index()];
        println!(
            "{}: settles to {} at {} ({} transitions)",
            circuit.net(o).name(),
            u8::from(tr.settles_to()),
            tr.last_event().unwrap_or(0).max(0),
            tr.num_transitions()
        );
    }
    let total: usize = counts.iter().sum();
    println!(
        "total transitions across {} nets: {total}",
        circuit.num_nets()
    );
    if let Some(path) = &opts.vcd {
        std::fs::write(path, write_vcd(circuit, &traces)).map_err(|e| Error::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        println!("wrote {path}");
    }
    Ok(RunStatus::Clean)
}

fn cmd_explain(circuit: &Circuit, opts: &Options) -> Result<RunStatus, Error> {
    let delta = opts
        .delta
        .ok_or_else(|| Error::usage("explain needs --delta N"))?;
    for out in resolve_outputs(circuit, opts)? {
        print!("{}", explain(circuit, out, delta));
        println!();
    }
    Ok(RunStatus::Clean)
}

fn cmd_convert(circuit: &Circuit, opts: &Options) -> Result<RunStatus, Error> {
    match opts.to.as_deref() {
        Some("bench") => {
            print!("{}", write_bench(circuit));
            Ok(RunStatus::Clean)
        }
        Some("verilog") => {
            print!("{}", write_verilog(circuit));
            Ok(RunStatus::Clean)
        }
        Some(other) => Err(Error::usage(format!("unknown target format `{other}`"))),
        None => Err(Error::usage("convert needs --to bench|verilog")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("ltt_cli_test_{name}"));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path.to_string_lossy().into_owned()
    }

    const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn info_runs_on_bench_file() {
        let path = write_temp("info.bench", C17);
        assert_eq!(run(&args(&["info", &path])), Ok(RunStatus::Clean));
    }

    #[test]
    fn check_exit_statuses_follow_the_verdict() {
        let path = write_temp("check.bench", C17);
        // δ above topological: safe → exit 0.
        assert_eq!(
            run(&args(&["check", &path, "--delta", "31"])),
            Ok(RunStatus::Clean)
        );
        // δ = exact: violated → exit 1.
        assert_eq!(
            run(&args(&["check", &path, "--delta", "30"])),
            Ok(RunStatus::Violation)
        );
        // Search disabled: the check stays open → exit 2.
        assert_eq!(
            run(&args(&["check", &path, "--delta", "30", "--no-search"])),
            Ok(RunStatus::Incomplete)
        );
    }

    #[test]
    fn patch_reverifies_the_edited_circuit() {
        let path = write_temp("patch.bench", C17);
        // Slowing gate 16 (on the three-level critical path) to 11 raises
        // the c17 critical path to 31: the pre-edit circuit is safe at
        // δ=31, the patched one violates.
        assert_eq!(
            run(&args(&[
                "patch",
                &path,
                "--delta",
                "31",
                "--set-delay",
                "16=11",
            ])),
            Ok(RunStatus::Violation)
        );
        // Speeding it up instead keeps δ=31 clean.
        assert_eq!(
            run(&args(&[
                "patch",
                &path,
                "--delta",
                "31",
                "--set-delay",
                "10=9"
            ])),
            Ok(RunStatus::Clean)
        );
        // Without search, narrowing cannot certify the violation; the SAT
        // engine re-checks the patched circuit and does.
        assert_eq!(
            run(&args(&[
                "patch",
                &path,
                "--delta",
                "31",
                "--set-delay",
                "16=11",
                "--no-search",
            ])),
            Ok(RunStatus::Incomplete)
        );
        assert_eq!(
            run(&args(&[
                "patch",
                &path,
                "--delta",
                "31",
                "--set-delay",
                "16=11",
                "--no-search",
                "--engine",
                "sat",
            ])),
            Ok(RunStatus::Violation)
        );
        // A structural rewire goes through the same incremental path.
        assert_eq!(
            run(&args(&[
                "patch", &path, "--delta", "31", "--rewire", "10=1,2",
            ])),
            Ok(RunStatus::Clean)
        );
        // Usage errors: no edits, bad spec, unknown gate.
        assert!(run(&args(&["patch", &path, "--delta", "31"])).is_err());
        assert!(run(&args(&[
            "patch",
            &path,
            "--delta",
            "31",
            "--set-delay",
            "10"
        ]))
        .is_err());
        assert!(run(&args(&[
            "patch",
            &path,
            "--delta",
            "31",
            "--set-delay",
            "zz=5"
        ]))
        .is_err());
        // Rewiring a gate to read its own output is a rejected edit.
        assert!(run(&args(&[
            "patch", &path, "--delta", "31", "--rewire", "10=10,1"
        ]))
        .is_err());
    }

    #[test]
    fn exit_codes_cover_the_contract() {
        assert_eq!(RunStatus::Clean.exit_code(), 0);
        assert_eq!(RunStatus::Violation.exit_code(), 1);
        assert_eq!(RunStatus::Incomplete.exit_code(), 2);
        assert_eq!(Error::usage("x").exit_code(), 3);
    }

    #[test]
    fn check_with_assumption() {
        // Pinning input 3 to 1 makes NAND(1,3) = NOT(1)… the 30-paths run
        // through net 11/16; pinning 2 = 0 forces 16 = 1 early, killing
        // output 22's late paths through 16.
        let path = write_temp("assume.bench", C17);
        assert_eq!(
            run(&args(&[
                "check", &path, "--delta", "30", "--output", "22", "--assume", "2=0",
            ])),
            Ok(RunStatus::Clean)
        );
    }

    #[test]
    fn delay_reports_exact() {
        let path = write_temp("delay.bench", C17);
        assert_eq!(run(&args(&["delay", &path])), Ok(RunStatus::Clean));
        assert_eq!(
            run(&args(&["delay", &path, "--output", "22", "--delay", "7"])),
            Ok(RunStatus::Clean)
        );
        assert_eq!(
            run(&args(&["delay", &path, "--mode", "transition"])),
            Ok(RunStatus::Clean)
        );
    }

    #[test]
    fn jobs_flag_keeps_verdicts() {
        let path = write_temp("jobs.bench", C17);
        // Same exit status as serial for every job count.
        for jobs in ["1", "2", "8"] {
            assert_eq!(
                run(&args(&["check", &path, "--delta", "31", "--jobs", jobs])),
                Ok(RunStatus::Clean)
            );
            assert_eq!(
                run(&args(&["check", &path, "--delta", "30", "--jobs", jobs])),
                Ok(RunStatus::Violation)
            );
            assert_eq!(
                run(&args(&["delay", &path, "--jobs", jobs])),
                Ok(RunStatus::Clean)
            );
        }
        assert!(run(&args(&["check", &path, "--delta", "31", "--jobs", "x"])).is_err());
    }

    #[test]
    fn fail_fast_still_finds_the_violation() {
        let path = write_temp("failfast.bench", C17);
        for jobs in ["1", "4"] {
            assert_eq!(
                run(&args(&[
                    "check",
                    &path,
                    "--delta",
                    "30",
                    "--fail-fast",
                    "--jobs",
                    jobs
                ])),
                Ok(RunStatus::Violation)
            );
        }
    }

    #[test]
    fn expired_deadline_is_incomplete_not_an_error() {
        let path = write_temp("deadline.bench", C17);
        // A 0 ms budget trips before any check decides: exit 2, and the
        // degraded run must never claim safety or violation.
        assert_eq!(
            run(&args(&[
                "check",
                &path,
                "--delta",
                "30",
                "--deadline-ms",
                "0"
            ])),
            Ok(RunStatus::Incomplete)
        );
        // c17's outputs settle as late as their arrival time, and the
        // Monte-Carlo witness of the expired search reaches it: the
        // interval [30, 30] is closed, so the delay is exact.
        assert_eq!(
            run(&args(&["delay", &path, "--deadline-ms", "0"])),
            Ok(RunStatus::Clean)
        );
        // Figure 1's 70-path is false, so the expired search's interval
        // stays open: incomplete, on the all-output and the single-output
        // delay path alike.
        let fig1 = write_temp(
            "deadline_fig1.bench",
            &write_bench(&ltt_netlist::generators::figure1(10)),
        );
        assert_eq!(
            run(&args(&["delay", &fig1, "--deadline-ms", "0"])),
            Ok(RunStatus::Incomplete)
        );
        assert_eq!(
            run(&args(&[
                "delay",
                &fig1,
                "--output",
                "s",
                "--deadline-ms",
                "0"
            ])),
            Ok(RunStatus::Incomplete)
        );
        assert_eq!(run(&args(&["delay", &fig1])), Ok(RunStatus::Clean));
        assert!(run(&args(&[
            "check",
            &path,
            "--delta",
            "30",
            "--deadline-ms",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn report_and_convert_run() {
        let path = write_temp("report.bench", C17);
        assert_eq!(
            run(&args(&["report", &path, "--deadline", "25"])),
            Ok(RunStatus::Clean)
        );
        assert_eq!(
            run(&args(&["convert", &path, "--to", "verilog"])),
            Ok(RunStatus::Clean)
        );
        assert_eq!(
            run(&args(&["convert", &path, "--to", "bench"])),
            Ok(RunStatus::Clean)
        );
    }

    #[test]
    fn verilog_input_detected_by_extension() {
        let src = "module t (a, y);\n input a; output y;\n not (y, a);\nendmodule\n";
        let path = write_temp("input.v", src);
        assert_eq!(run(&args(&["info", &path])), Ok(RunStatus::Clean));
        assert_eq!(run(&args(&["delay", &path])), Ok(RunStatus::Clean));
    }

    #[test]
    fn sdf_annotation_applies() {
        let bench = write_temp("sdf.bench", C17);
        let sdf = write_temp(
            "delays.sdf",
            r#"(DELAYFILE (CELL (INSTANCE 22) (DELAY (ABSOLUTE (IOPATH a b (99))))))"#,
        );
        assert_eq!(
            run(&args(&["info", &bench, "--sdf", &sdf])),
            Ok(RunStatus::Clean)
        );
    }

    #[test]
    fn errors_are_reported_with_exit_code_3() {
        let usage_exit = |r: Result<RunStatus, Error>| r.unwrap_err().exit_code();
        assert_eq!(usage_exit(run(&args(&["frobnicate", "x"]))), 3);
        assert_eq!(
            usage_exit(run(&args(&["check", "/nonexistent.bench", "--delta", "1"]))),
            3
        );
        let path = write_temp("err.bench", C17);
        assert_eq!(usage_exit(run(&args(&["check", &path]))), 3); // missing --delta
        assert_eq!(usage_exit(run(&args(&["check", &path, "--delta", "x"]))), 3);
        assert_eq!(
            usage_exit(run(&args(&["convert", &path, "--to", "blif"]))),
            3
        );
        assert_eq!(
            usage_exit(run(&args(&[
                "check", &path, "--delta", "1", "--assume", "zz=1"
            ]))),
            3
        );
        // The CNF encoder cannot pin nets, and it models floating mode only.
        for engine in ["sat", "hybrid"] {
            assert_eq!(
                usage_exit(run(&args(&[
                    "check", &path, "--delta", "30", "--assume", "2=0", "--engine", engine
                ]))),
                3
            );
            for cmd in ["check", "delay"] {
                assert_eq!(
                    usage_exit(run(&args(&[
                        cmd,
                        &path,
                        "--delta",
                        "30",
                        "--mode",
                        "transition",
                        "--engine",
                        engine
                    ]))),
                    3
                );
            }
        }
    }

    #[test]
    fn help_prints() {
        assert_eq!(run(&args(&["help"])), Ok(RunStatus::Clean));
    }

    #[test]
    fn explain_runs() {
        let path = write_temp("explain.bench", C17);
        assert_eq!(
            run(&args(&["explain", &path, "--delta", "30"])),
            Ok(RunStatus::Clean)
        );
        assert_eq!(
            run(&args(&[
                "explain", &path, "--delta", "31", "--output", "22",
            ])),
            Ok(RunStatus::Clean)
        );
        assert!(run(&args(&["explain", &path])).is_err());
    }

    #[test]
    fn trace_flag_emits_chrome_trace_json() {
        use ltt_serve::Json;
        let path = write_temp("trace.bench", C17);
        let trace = std::env::temp_dir().join("ltt_cli_test_trace.json");
        let trace_s = trace.to_string_lossy().into_owned();
        assert_eq!(
            run(&args(&[
                "check", &path, "--delta", "30", "--trace", &trace_s
            ])),
            Ok(RunStatus::Violation)
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        let json = ltt_serve::decode(text.trim()).expect("trace file is valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for event in events {
            // chrome://tracing needs every one of these on a complete
            // event; a missing field renders as an empty timeline.
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            for field in ["name", "cat", "ts", "dur", "pid", "tid"] {
                assert!(
                    event.get(field).is_some(),
                    "missing {field}: {}",
                    event.encode()
                );
            }
        }
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for stage in ["check.narrowing", "check.dominators"] {
            assert!(names.contains(&stage), "no {stage} span in {names:?}");
        }
        // The same run without --trace exits identically (the recorder
        // must never change what the pipeline computes).
        assert_eq!(
            run(&args(&["check", &path, "--delta", "30"])),
            Ok(RunStatus::Violation)
        );
    }

    #[test]
    fn simulate_with_vcd() {
        let path = write_temp("sim.bench", C17);
        let vcd = std::env::temp_dir().join("ltt_cli_test_sim.vcd");
        let vcd_s = vcd.to_string_lossy().into_owned();
        assert_eq!(
            run(&args(&[
                "simulate", &path, "--v1", "00000", "--v2", "11111", "--vcd", &vcd_s,
            ])),
            Ok(RunStatus::Clean)
        );
        let contents = std::fs::read_to_string(&vcd).unwrap();
        assert!(contents.contains("$enddefinitions"));
        // Bad vector lengths and bits are rejected.
        assert!(run(&args(&["simulate", &path, "--v1", "0", "--v2", "11111"])).is_err());
        assert!(run(&args(&[
            "simulate", &path, "--v1", "0000x", "--v2", "11111"
        ]))
        .is_err());
        assert!(run(&args(&["simulate", &path, "--v1", "00000"])).is_err());
    }
}
