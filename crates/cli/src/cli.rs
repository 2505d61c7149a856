//! Argument parsing and subcommand implementations for the `ltt` binary.
//!
//! [`COMMANDS`] and [`FLAGS`] are the one description of the command
//! line: [`Args::parse`] checks every argument list against them, each
//! `cmd_*` reads typed values from the parsed [`Args`], and `ltt help`
//! renders both tables.

use ltt_core::{
    explain, BatchOutcome, BatchRunner, Budget, CheckSession, Completeness, DelayMode, Engine,
    Error, LearningMode, Obs, Recorder, Stage, Verdict, VerifyConfig,
};
use ltt_netlist::bench_format::write_bench;
use ltt_netlist::sdf::apply_sdf;
use ltt_netlist::verilog::write_verilog;
use ltt_netlist::{parse_netlist, Circuit, CircuitEdit, DelayInterval, NamedEdit, NetId};
use ltt_sta::{simulate, transition_counts, write_vcd, SlackReport, WaveformTrace};
use ltt_waveform::Level;
use std::io::Write;
use std::str::FromStr;
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

impl From<BatchOutcome> for RunStatus {
    fn from(outcome: BatchOutcome) -> Self {
        match outcome {
            BatchOutcome::AllSafe => RunStatus::Clean,
            BatchOutcome::Violation => RunStatus::Violation,
            BatchOutcome::Undecided => RunStatus::Incomplete,
        }
    }
}

/// Writes one line of command output to stdout (see [`out`]).
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Writes command output to stdout. A reader that closed the pipe early
/// (`ltt … | head -1`) wants nothing more, so the process ends there,
/// quietly, as `SIGPIPE` ends a C tool, instead of panicking the way
/// `println!` does.
fn out(text: std::fmt::Arguments) -> Result<(), Error> {
    std::io::stdout().write_fmt(text).map_err(|e| {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(3); // the exit code of every I/O error
        }
        io_error("<stdout>")(e)
    })
}

/// Reports an I/O failure on `path`.
fn io_error(path: &str) -> impl FnOnce(std::io::Error) -> Error + '_ {
    move |e| Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

type Text = &'static str;
/// Command names.
type Names = &'static [&'static str];
/// The commands that load a netlist.
const NETLIST: Names = &[
    "info", "check", "delay", "patch", "report", "convert", "simulate", "explain",
];
/// The commands that run the Fig. 4 check pipeline.
const PIPELINE: Names = &["check", "delay", "patch"];

/// One `ltt` command: a row of [`COMMANDS`].
struct Command {
    name: Text,
    /// The positional argument, when the command takes one.
    operand: Option<Text>,
    /// The flags the command cannot run without, for `ltt help`.
    needs: Text,
    about: Text,
    run: fn(&Args) -> Result<RunStatus, Error>,
}

const NETLIST_FILE: Option<Text> = Some("<netlist>");

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "info", operand: NETLIST_FILE, needs: "", run: cmd_info, about: "circuit statistics" },
    Command { name: "check", operand: NETLIST_FILE, needs: "--delta N", run: cmd_check,
        about: "can any output transition at or after N? (the Fig. 4 pipeline)" },
    Command { name: "delay", operand: NETLIST_FILE, needs: "", run: cmd_delay,
        about: "exact floating-mode delay per output" },
    Command { name: "patch", operand: NETLIST_FILE, needs: "--delta N --set-delay G=D | --rewire G=a,b,..",
        run: cmd_patch, about: "apply ECO edits and re-verify incrementally: re-run the checks the\n\
                                edits can affect, carry over the rest, and report the\n\
                                incremental-vs-cold wall-clock ratio" },
    Command { name: "report", operand: NETLIST_FILE, needs: "--deadline N", run: cmd_report,
        about: "topological slack report" },
    Command { name: "convert", operand: NETLIST_FILE, needs: "--to bench|verilog", run: cmd_convert,
        about: "netlist format conversion" },
    Command { name: "simulate", operand: NETLIST_FILE, needs: "--v1 BITS --v2 BITS", run: cmd_simulate,
        about: "exact two-vector waveform simulation" },
    Command { name: "explain", operand: NETLIST_FILE, needs: "--delta N", run: cmd_explain,
        about: "where could the violation live? (carriers, dominators, stems)" },
    Command { name: "serve", operand: None, needs: "", run: cmd_serve,
        about: "run the persistent verification daemon (newline-delimited JSON over TCP)" },
    Command { name: "router", operand: None, needs: "--backend A [--backend B ...] | --spawn N",
        run: cmd_router, about: "run the fleet front tier: consistent-hash placement, health probes,\n\
                                 breakers, retry and failover over the backends (`serve`'s protocol)" },
    Command { name: "client", operand: Some("<requests.json>"), needs: "", run: cmd_client,
        about: "send request lines (`-` reads stdin) to a daemon and print the responses" },
];

/// One flag: a row of [`FLAGS`].
struct Flag {
    name: Text,
    /// The value placeholder; empty for a switch.
    value: Text,
    /// The commands that read the flag; every other command rejects it.
    reads: Names,
    /// Whether the flag may be given more than once.
    repeat: bool,
    help: Text,
}

/// A flag given at most once.
#[rustfmt::skip]
const fn one(name: Text, value: Text, reads: Names, help: Text) -> Flag {
    Flag { name, value, reads, repeat: false, help }
}

/// A flag whose every occurrence counts.
#[rustfmt::skip]
const fn many(name: Text, value: Text, reads: Names, help: Text) -> Flag {
    Flag { repeat: true, ..one(name, value, reads, help) }
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    one("--format", "bench|verilog", NETLIST, "input format (default: by file extension, .v/.sv is verilog)"),
    one("--delay", "D", NETLIST, "per-gate delay when the format has none (default 10)"),
    one("--sdf", "FILE", NETLIST, "back-annotate delays from an SDF file"),
    one("--output", "NAME", &["check", "delay", "patch", "explain"],
        "restrict to one primary output (default: every output)"),
    one("--delta", "N", &["check", "patch", "explain"], "the checked time: can an output transition at or after N?"),
    one("--deadline", "N", &["report"], "the required time of the slack report"),
    many("--assume", "NET=0|1", &["check"], "pin a net's settling value (set_case_analysis)"),
    one("--mode", "floating|transition", PIPELINE, "delay model (default floating)"),
    one("--engine", "narrow|sat|hybrid", PIPELINE,
        "backend (default narrow: the waveform-narrowing pipeline; `sat`: a CNF/CDCL\n\
         oracle; `hybrid`: narrowing, then SAT when the budget trips; `sat` and\n\
         `hybrid` take neither --assume nor --mode transition)"),
    one("--no-dominators", "", PIPELINE, "skip the timing-dominator stage"),
    one("--no-stems", "", PIPELINE, "skip the stem-correlation stage"),
    one("--no-search", "", PIPELINE, "skip the case analysis (undecided checks stay open)"),
    one("--no-learning", "", PIPELINE, "skip static learning"),
    one("--max-backtracks", "N", PIPELINE, "case-analysis budget (default 100000)"),
    one("--jobs", "N", &["check", "delay", "patch", "serve", "router"],
        "worker threads (default 0: one per hardware thread, at least 4 for the\n\
         router); check, delay and patch results are identical for every N"),
    one("--deadline-ms", "T", PIPELINE,
        "wall-clock budget for the whole run; past it, in-flight checks degrade\n\
         to sound partial results (exit code 2)"),
    one("--fail-fast", "", &["check", "patch"],
        "cancel remaining checks after the first certified violation (trades\n\
         the deterministic report set for latency; the exit code is unaffected)"),
    one("--trace", "FILE", &["check", "delay"],
        "write per-stage spans as Chrome-trace JSON (load in chrome://tracing);\n\
         verdicts and counters are identical with or without tracing"),
    many("--set-delay", "GATE=D", &["patch"],
        "re-annotate a gate's delay (GATE is its output net; D or LO:HI)"),
    many("--rewire", "GATE=a,b,..", &["patch"], "replace a gate's input nets"),
    one("--to", "bench|verilog", &["convert"], "output format"),
    one("--v1", "BITS", &["simulate"], "input vector before time 0, one bit per input in declaration order"),
    one("--v2", "BITS", &["simulate"], "input vector from time 0"),
    one("--vcd", "FILE", &["simulate"], "also write the waveforms as a VCD file"),
    one("--addr", "A", &["serve", "router", "client"],
        "address to bind or reach (default 127.0.0.1:7171; router 127.0.0.1:7070;\n\
         port 0 picks an ephemeral port)"),
    one("--queue-cap", "Q", &["serve", "router"], "admission bound on queued requests (default 64; router 256)"),
    one("--registry-cap", "R", &["serve"], "circuits kept resident, least recently used evicted (default 16)"),
    one("--max-line-bytes", "L", &["serve", "router"], "request/reply line cap (default 16 MiB)"),
    many("--backend", "A", &["router"], "a backend daemon address"),
    one("--spawn", "N", &["router"], "spawn N in-process backends instead of --backend (testing)"),
    one("--backend-jobs", "N", &["router"], "worker threads per spawned backend (default 0)"),
    one("--backend-queue-cap", "Q", &["router"], "admission bound per spawned backend (default 64)"),
    one("--backend-registry-cap", "R", &["router"], "registry capacity per spawned backend (default 16)"),
    one("--replicas", "R", &["router"], "backends each circuit registers on (default 2)"),
    one("--retries", "N", &["router"], "retry rounds over the candidate list (default 3)"),
    one("--backoff-ms", "B", &["router"], "first-round backoff, doubled per round (default 10)"),
    one("--backoff-cap-ms", "B", &["router"], "backoff ceiling (default 500)"),
    one("--breaker-threshold", "K", &["router"], "consecutive failures that open a breaker (default 3)"),
    one("--breaker-cooldown-ms", "C", &["router"], "open-breaker cooldown before a probe (default 1000)"),
    one("--health-interval-ms", "H", &["router"], "status-probe period per backend (default 1000)"),
    one("--connect-timeout-ms", "T", &["router"], "backend connect bound (default 1000)"),
    one("--rpc-timeout-ms", "T", &["router"], "backend round-trip bound (default 30000)"),
    one("--timeout-ms", "T", &["client"], "bound on connecting and on each reply (default: none)"),
];

fn usage() -> String {
    let names: Vec<Text> = COMMANDS.iter().map(|c| c.name).collect();
    format!(
        "usage: ltt <{}> [arguments]\nrun `ltt help` for every command and flag",
        names.join("|")
    )
}

/// One command line, checked against its command's rows of [`FLAGS`].
struct Args {
    command: &'static Command,
    /// The positional argument; empty for a command that takes none.
    operand: String,
    /// Every flag given, in order, with its value (empty for a switch).
    flags: Vec<(&'static Flag, String)>,
}

impl Args {
    /// Rejects a flag the command does not read, a repeated single flag,
    /// a missing value and a missing or extra positional argument.
    fn parse(command: &'static Command, args: &[String]) -> Result<Args, Error> {
        let name = command.name;
        let mut parsed = Args {
            command,
            operand: String::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if command.operand.is_none() || !parsed.operand.is_empty() {
                    return Err(Error::usage(format!(
                        "`{name}`: unexpected argument `{arg}`"
                    )));
                }
                parsed.operand = arg.clone();
                continue;
            }
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                return Err(Error::usage(format!("unknown option `{arg}` for `{name}`")));
            };
            if !flag.reads.contains(&name) {
                return Err(Error::usage(format!(
                    "`{name}` does not read {arg} (read by: {})",
                    flag.reads.join(" ")
                )));
            }
            if !flag.repeat && parsed.flags.iter().any(|(f, _)| f.name == flag.name) {
                return Err(Error::usage(format!("`{name}` takes {arg} once")));
            }
            let value = if flag.value.is_empty() {
                String::new()
            } else {
                it.next()
                    .cloned()
                    .ok_or_else(|| Error::usage(format!("`{name}`: {arg} needs a value")))?
            };
            parsed.flags.push((flag, value));
        }
        match command.operand {
            Some(operand) if parsed.operand.is_empty() => {
                Err(Error::usage(format!("`{name}` needs {operand}")))
            }
            _ => Ok(parsed),
        }
    }

    /// Every value given for `name`, in order (a switch has one empty
    /// value).
    fn values<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a str> + 'a {
        let flag = FLAGS.iter().find(|f| f.name == name);
        debug_assert!(
            flag.is_some_and(|f| f.reads.contains(&self.command.name)),
            "`{}` reads {name}, which its FLAGS rows do not list",
            self.command.name
        );
        let name = flag.map_or("", |f| f.name);
        self.flags
            .iter()
            .filter(move |(f, _)| f.name == name)
            .map(|(_, v)| v.as_str())
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name).next()
    }

    fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The flag's value parsed as a `T` (an integer, or the text itself).
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, Error> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| self.bad(name, v, "an integer")))
            .transpose()
    }

    /// The value of a flag the command cannot run without.
    fn required<T: FromStr>(&self, name: &str) -> Result<T, Error> {
        self.get(name)?
            .ok_or_else(|| Error::usage(format!("{} needs {name}", self.command.name)))
    }

    /// Overwrites `slot` with the flag's number, when the flag is given.
    fn set<T: FromStr>(&self, name: &str, slot: &mut T) -> Result<(), Error> {
        if let Some(v) = self.get(name)? {
            *slot = v;
        }
        Ok(())
    }

    /// Overwrites `slot` with the flag's milliseconds, when given.
    fn set_ms(&self, name: &str, slot: &mut Duration) -> Result<(), Error> {
        if let Some(ms) = self.get(name)? {
            *slot = Duration::from_millis(ms);
        }
        Ok(())
    }

    fn bad(&self, name: &str, value: &str, expected: &str) -> Error {
        Error::usage(format!(
            "`{}`: {name} needs {expected}, not `{value}`",
            self.command.name
        ))
    }
}

/// Entry point used by `main` (and the tests).
pub fn run(args: &[String]) -> Result<RunStatus, Error> {
    let Some(name) = args.first() else {
        return Err(Error::usage(usage()));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        outln!("{}", long_help());
        return Ok(RunStatus::Clean);
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| Error::usage(format!("unknown command `{name}`\n{}", usage())))?;
    (command.run)(&Args::parse(command, &args[1..])?)
}

fn long_help() -> String {
    fn entry(text: &mut String, head: &str, about: &str) {
        text.push_str(&format!("  {head}\n"));
        for line in about.lines() {
            text.push_str(&format!("      {line}\n"));
        }
    }
    let mut text = String::from(
        "ltt — false-path-aware gate-level timing verification
(waveform narrowing with last-transition-time constraint propagation,
after Kassab–Cerny–Aourid–Krodel, DATE 1998)

usage: ltt <command> [arguments]

COMMANDS
",
    );
    for c in COMMANDS {
        let synopsis: Vec<&str> = [c.name, c.operand.unwrap_or(""), c.needs]
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        entry(&mut text, &synopsis.join(" "), c.about);
    }
    text.push_str("\nOPTIONS (a command rejects every flag it does not read: exit 3)\n");
    for f in FLAGS {
        let head = format!("{} {}", f.name, f.value);
        let repeat = if f.repeat { " (repeatable)" } else { "" };
        let about = format!("{}{repeat}\nread by: {}", f.help, f.reads.join(" "));
        entry(&mut text, head.trim_end(), &about);
    }
    text.push_str(
        "
EXIT CODES
  0  every check completed, no violation
  1  at least one certified violation
  2  incomplete: budget exhausted, search abandoned, or a check failed
  3  usage or input error",
    );
    text
}

fn load_circuit(a: &Args) -> Result<Circuit, Error> {
    let file = &a.operand;
    let text = std::fs::read_to_string(file).map_err(io_error(file))?;
    let format = match a.value("--format") {
        Some(f) => f,
        None if file.ends_with(".v") || file.ends_with(".sv") => "verilog",
        None => "bench",
    };
    let delay = DelayInterval::fixed(a.get("--delay")?.unwrap_or(10));
    let circuit = parse_netlist(format, file, &text, delay)
        .ok_or_else(|| a.bad("--format", format, "bench or verilog"))?
        .map_err(|e| Error::invalid(e.to_string()))?;
    match a.value("--sdf") {
        None => Ok(circuit),
        Some(path) => {
            let sdf = std::fs::read_to_string(path).map_err(io_error(path))?;
            apply_sdf(&circuit, &sdf).map_err(|e| Error::invalid(e.to_string()))
        }
    }
}

/// `ltt serve`: run the persistent verification daemon until a `shutdown`
/// request drains it.
fn cmd_serve(a: &Args) -> Result<RunStatus, Error> {
    let mut config = ltt_serve::ServeConfig {
        addr: a.value("--addr").unwrap_or("127.0.0.1:7171").to_string(),
        ..Default::default()
    };
    a.set("--jobs", &mut config.jobs)?;
    a.set("--queue-cap", &mut config.queue_cap)?;
    a.set("--registry-cap", &mut config.registry_cap)?;
    a.set("--max-line-bytes", &mut config.max_line_bytes)?;
    ltt_serve::serve(&config).map_err(io_error(&config.addr))?;
    Ok(RunStatus::Clean)
}

/// `ltt router`: run the sharded-fleet front tier until a `shutdown`
/// request drains it.
fn cmd_router(a: &Args) -> Result<RunStatus, Error> {
    let mut config = ltt_serve::RouterConfig {
        addr: a.value("--addr").unwrap_or("127.0.0.1:7070").to_string(),
        backends: a.values("--backend").map(String::from).collect(),
        ..Default::default()
    };
    a.set("--spawn", &mut config.spawn)?;
    a.set("--replicas", &mut config.replicas)?;
    a.set("--jobs", &mut config.jobs)?;
    a.set("--queue-cap", &mut config.queue_cap)?;
    a.set("--backend-jobs", &mut config.backend_jobs)?;
    a.set("--backend-queue-cap", &mut config.backend_queue_cap)?;
    a.set("--backend-registry-cap", &mut config.backend_registry_cap)?;
    a.set("--max-line-bytes", &mut config.max_line_bytes)?;
    a.set("--retries", &mut config.max_retries)?;
    a.set("--breaker-threshold", &mut config.breaker_threshold)?;
    a.set_ms("--backoff-ms", &mut config.backoff_base)?;
    a.set_ms("--backoff-cap-ms", &mut config.backoff_cap)?;
    a.set_ms("--breaker-cooldown-ms", &mut config.breaker_cooldown)?;
    a.set_ms("--health-interval-ms", &mut config.health_interval)?;
    a.set_ms("--connect-timeout-ms", &mut config.connect_timeout)?;
    a.set_ms("--rpc-timeout-ms", &mut config.rpc_timeout)?;
    if config.backends.is_empty() && config.spawn == 0 {
        return Err(Error::usage(
            "router needs at least one --backend (or --spawn N)",
        ));
    }
    let addr = config.addr.clone();
    ltt_serve::route(config).map_err(io_error(&addr))?;
    Ok(RunStatus::Clean)
}

/// `ltt client`: send each request line of a file (or stdin, `-`) to a
/// daemon, print each response line, and fold the responses into the
/// standard exit-code contract.
fn cmd_client(a: &Args) -> Result<RunStatus, Error> {
    let addr = a.value("--addr").unwrap_or("127.0.0.1:7171");
    let timeout = match a.get("--timeout-ms")? {
        Some(0) => return Err(a.bad("--timeout-ms", "0", "a positive integer")),
        ms => ms.map(Duration::from_millis),
    };
    let file = &a.operand;
    let text = if file == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(io_error("<stdin>"))?
    } else {
        std::fs::read_to_string(file).map_err(io_error(file))?
    };
    let connected = match timeout {
        Some(t) => ltt_serve::Client::connect_timeout(addr, t),
        None => ltt_serve::Client::connect(addr),
    };
    let mut client = match connected {
        Ok(client) => client,
        Err(e) if timeout.is_some() && ltt_serve::is_timeout(&e) => {
            outln!("{}", timeout_response(addr, "connect").encode());
            return Ok(RunStatus::Incomplete);
        }
        Err(e) => return Err(io_error(addr)(e)),
    };
    client.set_read_timeout(timeout).map_err(io_error(addr))?;
    let mut status = RunStatus::Clean;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let request = ltt_serve::decode(line)
            .map_err(|e| Error::invalid(format!("bad request line: {e}")))?;
        match client.call(&request) {
            Ok(response) => {
                outln!("{}", response.encode());
                status = worst_status(status, response_status(&response));
            }
            // A stalled server with `--timeout-ms` armed: report a
            // structured timeout and stop — the connection's framing can
            // no longer be trusted, and exit code 2 (incomplete) is the
            // contract for work that did not finish.
            Err(e) if ltt_serve::is_timeout(&e) => {
                outln!("{}", timeout_response(addr, "reply").encode());
                return Ok(RunStatus::Incomplete);
            }
            Err(e) => return Err(io_error(addr)(e)),
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

/// The pipeline config of `check`, `delay` and `patch`.
fn config_from(a: &Args) -> Result<VerifyConfig, Error> {
    let delay_mode = match a.value("--mode") {
        None | Some("floating") => DelayMode::Floating,
        Some("transition") => DelayMode::Transition,
        Some(other) => return Err(a.bad("--mode", other, "floating or transition")),
    };
    let engine = match a.value("--engine") {
        None => Engine::Narrow,
        Some(v) => Engine::parse(v).ok_or_else(|| a.bad("--engine", v, "narrow, sat or hybrid"))?,
    };
    // The CNF encoder models floating mode only; answering a transition-
    // mode question with it would report floating-mode verdicts.
    if delay_mode == DelayMode::Transition && engine != Engine::Narrow {
        return Err(Error::usage(
            "--mode transition requires --engine narrow (the CNF encoder models floating mode only)",
        ));
    }
    Ok(VerifyConfig {
        delay_mode,
        learning: if a.switch("--no-learning") {
            LearningMode::Off
        } else {
            LearningMode::Stems
        },
        dominators: !a.switch("--no-dominators"),
        stem_correlation: !a.switch("--no-stems"),
        case_analysis: !a.switch("--no-search"),
        max_backtracks: a.get("--max-backtracks")?.unwrap_or(100_000),
        budget: Budget::unlimited(),
        engine,
        obs: Obs::disabled(),
    })
}

fn runner_from(a: &Args) -> Result<BatchRunner, Error> {
    let mut runner = BatchRunner::new(a.get("--jobs")?.unwrap_or(0));
    if let Some(ms) = a.get("--deadline-ms")? {
        runner = runner.with_deadline(Duration::from_millis(ms));
    }
    Ok(runner)
}

fn resolve_outputs(circuit: &Circuit, a: &Args) -> Result<Vec<NetId>, Error> {
    match a.value("--output") {
        None => Ok(circuit.outputs().to_vec()),
        Some(name) => {
            let net = circuit
                .net_by_name(name)
                .ok_or_else(|| Error::invalid(format!("no net named `{name}`")))?;
            Ok(vec![net])
        }
    }
}

fn resolve_assumptions(circuit: &Circuit, a: &Args) -> Result<Vec<(NetId, Level)>, Error> {
    a.values("--assume")
        .map(|spec| {
            let (name, level) = match spec.split_once('=') {
                Some((name, "0")) => (name, Level::Zero),
                Some((name, "1")) => (name, Level::One),
                _ => return Err(a.bad("--assume", spec, "NET=0 or NET=1")),
            };
            circuit
                .net_by_name(name)
                .map(|n| (n, level))
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

fn cmd_info(a: &Args) -> Result<RunStatus, Error> {
    let circuit = load_circuit(a)?;
    outln!("name:            {}", circuit.name());
    outln!("gates:           {}", circuit.num_gates());
    outln!("nets:            {}", circuit.num_nets());
    outln!("inputs:          {}", circuit.inputs().len());
    outln!("outputs:         {}", circuit.outputs().len());
    outln!("depth:           {} levels", circuit.depth());
    outln!("topological:     {}", circuit.topological_delay());
    outln!("min topological: {}", circuit.min_topological_delay());
    outln!("fanout stems:    {}", circuit.num_fanout_stems());
    Ok(RunStatus::Clean)
}

fn cmd_check(a: &Args) -> Result<RunStatus, Error> {
    let circuit = &load_circuit(a)?;
    let delta: i64 = a.required("--delta")?;
    let mut config = config_from(a)?;
    let recorder = trace_recorder(a, &mut config);
    let assumptions = resolve_assumptions(circuit, a)?;
    // The CNF encoder has no notion of pinned nets, and silently ignoring
    // pins would let it report witnesses the assumption set rules out.
    if !assumptions.is_empty() && matches!(config.engine, Engine::Sat | Engine::Hybrid) {
        return Err(Error::usage(
            "--assume requires --engine narrow (the CNF encoder does not support pins)",
        ));
    }
    let session = CheckSession::new(circuit, config);
    let checks: Vec<(NetId, i64)> = resolve_outputs(circuit, a)?
        .into_iter()
        .map(|o| (o, delta))
        .collect();
    let runner = runner_from(a)?.with_fail_fast(a.switch("--fail-fast"));
    let batch = runner.run_under(&session, &checks, &assumptions);
    for r in &batch.reports {
        let name = circuit.net(r.output).name();
        match &r.verdict {
            Verdict::NoViolation { stage } => outln!(
                "{name}: no transition at or after {delta} is possible (proved by {}, {:.2} ms)",
                stage_name(*stage),
                r.elapsed.as_secs_f64() * 1e3
            ),
            Verdict::Violation { vector } => {
                let pretty: Vec<String> = circuit
                    .inputs()
                    .iter()
                    .zip(vector.iter())
                    .map(|(&n, &v)| format!("{}={}", circuit.net(n).name(), u8::from(v)))
                    .collect();
                outln!(
                    "{name}: VIOLATED — certified vector after {} backtracks: {}",
                    r.backtracks(),
                    pretty.join(" ")
                );
            }
            Verdict::Possible => {
                outln!("{name}: possible violation (search disabled; rerun without --no-search)");
            }
            Verdict::Abandoned => {
                // Every abandoned check names the limit that cut it short.
                if let Completeness::BudgetExhausted { stage, reason } = r.completeness {
                    outln!(
                        "{name}: undecided — budget exhausted ({reason}) in {} after {} backtracks",
                        stage_name(stage),
                        r.backtracks()
                    );
                }
            }
        }
    }
    for e in &batch.errors {
        outln!("{}: {}", circuit.net(e.output).name(), e.error);
    }
    let s = &batch.summary;
    outln!(
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
    outln!(
        "  effort: {} events, {} backtracks · stage ms: narrowing {:.2}, dominators {:.2}, stems {:.2}, search {:.2}, sat {:.2}",
        s.stage_effort.total().events,
        batch.backtracks(),
        s.stage_wall.narrowing.as_secs_f64() * 1e3,
        s.stage_wall.dominators.as_secs_f64() * 1e3,
        s.stage_wall.stems.as_secs_f64() * 1e3,
        s.stage_wall.case_analysis.as_secs_f64() * 1e3,
        s.stage_wall.sat.as_secs_f64() * 1e3
    );
    write_trace(a, recorder.as_deref())?;
    let status = RunStatus::from(batch.outcome());
    match status {
        RunStatus::Violation => outln!("result: VIOLATED"),
        RunStatus::Incomplete => outln!("result: INCOMPLETE"),
        RunStatus::Clean => {}
    }
    Ok(status)
}

/// Parses `--set-delay GATE=D|GATE=LO:HI` and `--rewire GATE=a,b,..`
/// specs into [`CircuitEdit`]s against `circuit`.
fn parse_edits(circuit: &Circuit, a: &Args) -> Result<Vec<CircuitEdit>, Error> {
    let mut edits = Vec::new();
    for spec in a.values("--set-delay") {
        let bad = || {
            a.bad(
                "--set-delay",
                spec,
                "GATE=D or GATE=LO:HI with integers LO <= HI",
            )
        };
        let (gate, delay) = spec.split_once('=').ok_or_else(bad)?;
        let delay = match delay.split_once(':') {
            Some((lo, hi)) => {
                let (lo, hi): (u32, u32) = (
                    lo.parse().map_err(|_| bad())?,
                    hi.parse().map_err(|_| bad())?,
                );
                if lo > hi {
                    return Err(bad());
                }
                DelayInterval::new(lo, hi)
            }
            None => DelayInterval::fixed(delay.parse().map_err(|_| bad())?),
        };
        edits.push(NamedEdit::SetDelay { gate, delay });
    }
    for spec in a.values("--rewire") {
        let (gate, inputs) = spec
            .split_once('=')
            .ok_or_else(|| a.bad("--rewire", spec, "GATE=a,b,.."))?;
        let inputs = inputs.split(',').map(str::trim).collect();
        edits.push(NamedEdit::Rewire { gate, inputs });
    }
    edits
        .iter()
        .map(|edit| circuit.resolve_edit(edit))
        .collect::<Result<_, _>>()
        .map_err(|e| Error::invalid(e.to_string()))
}

/// `ltt patch`: apply ECO edits and re-verify **incrementally**. The
/// pre-edit circuit is verified first; [`CheckSession::patch`] then opens
/// the edited revision rebased from that warm session, only the checks
/// the edits can affect re-run, and every unaffected check carries over
/// its exact baseline report ([`ltt_core::Patch::unaffected`]). A cold
/// session on the edited circuit is also run as the reference: its
/// verdicts must be bit-identical, and the printed ratio is the
/// incremental speedup. The exit code reflects the *edited* circuit's
/// checks.
fn cmd_patch(a: &Args) -> Result<RunStatus, Error> {
    let circuit = &load_circuit(a)?;
    let delta: i64 = a.required("--delta")?;
    let edits = parse_edits(circuit, a)?;
    if edits.is_empty() {
        return Err(Error::usage(
            "patch needs at least one --set-delay or --rewire",
        ));
    }
    let config = config_from(a)?;
    let runner = runner_from(a)?.with_fail_fast(a.switch("--fail-fast"));
    let checks: Vec<(NetId, i64)> = resolve_outputs(circuit, a)?
        .into_iter()
        .map(|o| (o, delta))
        .collect();

    // Baseline: prepare and verify the pre-edit circuit — the warm
    // session the patch rebases, and the reports it carries over.
    let t = Instant::now();
    let session = CheckSession::new(circuit, config.clone());
    let baseline = runner.run(&session, &checks);
    let baseline_ms = t.elapsed().as_secs_f64() * 1e3;

    // Incremental: patch the warm session, re-run the affected checks and
    // carry over the baseline report of every unaffected one.
    let t = Instant::now();
    let patch = session
        .patch(&edits)
        .map_err(|e| Error::invalid(e.to_string()))?;
    let (incremental, reused) = runner.run_reusing(&patch.session, &checks, |output, delta| {
        let r = baseline
            .reports
            .iter()
            .find(|r| (r.output, r.delta) == (output, delta))?;
        patch.unaffected(output).then(|| r.clone())
    });
    let incremental_ms = t.elapsed().as_secs_f64() * 1e3;
    let carried = reused.iter().filter(|&&r| r).count();
    let dirty: Vec<&str> = patch.dirty.iter().map(|&n| circuit.net(n).name()).collect();
    outln!(
        "applied {} edit(s): {} dirty net(s) [{}], {}",
        edits.len(),
        dirty.len(),
        dirty.join(" "),
        if patch.structural {
            "structural"
        } else {
            "delay-only"
        }
    );

    // Cold reference: the edited circuit prepared from scratch.
    let t = Instant::now();
    let cold_session = CheckSession::new(&patch.circuit, config);
    let cold = runner.run(&cold_session, &checks);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;

    let identical = incremental
        .reports
        .iter()
        .zip(&cold.reports)
        .all(|(a, b)| a.verdict == b.verdict && a.completeness == b.completeness);
    outln!(
        "baseline (pre-edit):    {} check(s) in {baseline_ms:.2} ms",
        baseline.summary.checks
    );
    outln!(
        "incremental re-verify:  {} check(s) re-run, {} carried over, in {incremental_ms:.2} ms (patch + run)",
        checks.len() - carried,
        carried
    );
    outln!(
        "cold re-verify:         {} check(s) in {cold_ms:.2} ms",
        cold.summary.checks
    );
    outln!(
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
    outln!(
        "result: {} safe, {} violated, {} undecided, {} failed",
        s.no_violation,
        s.violations,
        s.undecided,
        s.failed
    );
    Ok(incremental.outcome().into())
}

fn cmd_delay(a: &Args) -> Result<RunStatus, Error> {
    let circuit = &load_circuit(a)?;
    let mut config = config_from(a)?;
    let recorder = trace_recorder(a, &mut config);
    let arrival = circuit.arrival_times();
    let session = CheckSession::new(circuit, config);
    let outputs = resolve_outputs(circuit, a)?;
    let results = runner_from(a)?.exact_delays(&session, &outputs);
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
                outln!(
                    "{name}: exact {} (topological {top}, {} backtracks){marker}",
                    search.delay,
                    search.backtracks()
                );
            }
            Ok(search) => {
                incomplete = true;
                outln!(
                    "{name}: bounds [{}, {}] (topological {top}; search incomplete after {} backtracks)",
                    search.delay,
                    search.upper_bound,
                    search.backtracks()
                );
            }
            Err(e) => {
                incomplete = true;
                outln!("{name}: {e}");
            }
        }
    }
    write_trace(a, recorder.as_deref())?;
    if incomplete {
        outln!("result: INCOMPLETE");
        Ok(RunStatus::Incomplete)
    } else {
        Ok(RunStatus::Clean)
    }
}

/// When `--trace FILE` was given, attaches a fresh recorder to the config
/// and returns it; otherwise leaves the config's (disabled) handle alone.
fn trace_recorder(a: &Args, config: &mut VerifyConfig) -> Option<Arc<Recorder>> {
    a.value("--trace").map(|_| {
        let recorder = Arc::new(Recorder::new());
        config.obs = Obs::recording(recorder.clone());
        recorder
    })
}

/// Writes the Chrome-trace JSON collected by `recorder` to the `--trace`
/// path, if both exist.
fn write_trace(a: &Args, recorder: Option<&Recorder>) -> Result<(), Error> {
    let (Some(path), Some(recorder)) = (a.value("--trace"), recorder) else {
        return Ok(());
    };
    std::fs::write(path, recorder.chrome_trace()).map_err(io_error(path))?;
    outln!("wrote trace {path} ({} spans)", recorder.len());
    Ok(())
}

fn cmd_report(a: &Args) -> Result<RunStatus, Error> {
    let circuit = &load_circuit(a)?;
    let deadline: i64 = a.required("--deadline")?;
    let report = SlackReport::compute(circuit, deadline);
    outln!(
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
    outln!(
        "{:<20} {:>8} {:>8} {:>8}",
        "net",
        "arrival",
        "required",
        "slack"
    );
    for (slack, net) in rows.iter().take(15) {
        outln!(
            "{:<20} {:>8} {:>8} {:>8}",
            circuit.net(*net).name(),
            report.arrival[net.index()],
            report.required[net.index()].expect("covered"),
            slack
        );
    }
    if rows.len() > 15 {
        outln!("… ({} more nets)", rows.len() - 15);
    }
    if report.is_violated() {
        outln!("note: negative topological slack may still be a false path —");
        outln!("      run `ltt check --delta {deadline}` for the exact answer");
    }
    Ok(RunStatus::Clean)
}

fn parse_vector(circuit: &Circuit, a: &Args, flag: &str) -> Result<Vec<bool>, Error> {
    let bits: String = a.required(flag)?;
    if bits.len() != circuit.inputs().len() {
        let expected = format!(
            "{} bits (one per input, in declaration order)",
            circuit.inputs().len()
        );
        return Err(a.bad(flag, &bits, &expected));
    }
    bits.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => Err(a.bad(flag, &bits, "bits 0 and 1 only")),
        })
        .collect()
}

fn cmd_simulate(a: &Args) -> Result<RunStatus, Error> {
    let circuit = &load_circuit(a)?;
    let v1 = parse_vector(circuit, a, "--v1")?;
    let v2 = parse_vector(circuit, a, "--v2")?;
    let inputs: Vec<WaveformTrace> = v1
        .iter()
        .zip(&v2)
        .map(|(&from, &to)| WaveformTrace::new(from, vec![(0, to)]))
        .collect();
    let traces = simulate(circuit, &inputs);
    let counts = transition_counts(&traces);
    for &o in circuit.outputs() {
        let tr = &traces[o.index()];
        outln!(
            "{}: settles to {} at {} ({} transitions)",
            circuit.net(o).name(),
            u8::from(tr.settles_to()),
            tr.last_event().unwrap_or(0).max(0),
            tr.num_transitions()
        );
    }
    let total: usize = counts.iter().sum();
    outln!(
        "total transitions across {} nets: {total}",
        circuit.num_nets()
    );
    if let Some(path) = a.value("--vcd") {
        std::fs::write(path, write_vcd(circuit, &traces)).map_err(io_error(path))?;
        outln!("wrote {path}");
    }
    Ok(RunStatus::Clean)
}

fn cmd_explain(a: &Args) -> Result<RunStatus, Error> {
    let circuit = &load_circuit(a)?;
    let delta: i64 = a.required("--delta")?;
    for output in resolve_outputs(circuit, a)? {
        outln!("{}", explain(circuit, output, delta));
    }
    Ok(RunStatus::Clean)
}

fn cmd_convert(a: &Args) -> Result<RunStatus, Error> {
    let circuit = &load_circuit(a)?;
    let text = match a.required::<String>("--to")?.as_str() {
        "bench" => write_bench(circuit),
        "verilog" => write_verilog(circuit),
        other => return Err(a.bad("--to", other, "bench or verilog")),
    };
    out(format_args!("{text}"))?;
    Ok(RunStatus::Clean)
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
        // Exit 3 with a message that contains every one of `words`.
        let rejects = |argv: &[&str], words: &[&str]| {
            let error = run(&args(argv)).unwrap_err();
            assert_eq!(error.exit_code(), 3, "{argv:?}");
            let message = error.to_string();
            for word in words {
                assert!(
                    message.contains(word),
                    "{argv:?}: `{message}` lacks `{word}`"
                );
            }
        };
        rejects(&["frobnicate", "x"], &["unknown command `frobnicate`"]);
        assert_eq!(
            usage_exit(run(&args(&["check", "/nonexistent.bench", "--delta", "1"]))),
            3
        );
        let path = write_temp("err.bench", C17);
        assert_eq!(usage_exit(run(&args(&["check", &path]))), 3); // missing --delta
        rejects(&["check", &path, "--delta", "x"], &["check", "--delta"]);
        rejects(
            &["check", &path, "--delta", "30", "--delta", "31"],
            &["check", "--delta"],
        );
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
        // Only `check` applies pins; the other commands would drop them.
        rejects(
            &["delay", &path, "--assume", "2=0", "--output", "22"],
            &["delay", "--assume"],
        );
        rejects(
            &[
                "patch",
                &path,
                "--delta",
                "31",
                "--set-delay",
                "16=11",
                "--assume",
                "2=0",
            ],
            &["patch", "--assume"],
        );
        rejects(
            &["explain", &path, "--delta", "31", "--assume", "2=0"],
            &["explain", "--assume"],
        );
        // A command rejects every flag it does not read, instead of
        // answering a question other than the one typed.
        let trace = std::env::temp_dir().join("ltt_cli_test_unread.json");
        let trace = trace.to_string_lossy();
        for (argv, flag) in [
            (
                &["check", &path, "--delta", "31", "--set-delay", "16=50"][..],
                "--set-delay",
            ),
            (
                &["report", &path, "--deadline", "25", "--trace", &trace],
                "--trace",
            ),
            (&["delay", &path, "--fail-fast"], "--fail-fast"),
            (
                &[
                    "patch",
                    &path,
                    "--delta",
                    "31",
                    "--set-delay",
                    "16=11",
                    "--trace",
                    &trace,
                ],
                "--trace",
            ),
            (&["info", &path, "--jobs", "2"], "--jobs"),
            (
                &["explain", &path, "--delta", "30", "--engine", "sat"],
                "--engine",
            ),
            (
                &["convert", &path, "--to", "bench", "--v1", "00000"],
                "--v1",
            ),
        ] {
            rejects(argv, &[argv[0], flag]);
        }
        assert!(!std::path::Path::new(&*trace).exists());
        // The command is looked up first, netlist or not.
        rejects(&["foo"], &["unknown command `foo`"]);
        rejects(&["foo", &path], &["unknown command `foo`"]);
        // The CNF encoder cannot pin nets, and it models floating mode only.
        for engine in ["sat", "hybrid"] {
            rejects(
                &[
                    "check", &path, "--delta", "30", "--assume", "2=0", "--engine", engine,
                ],
                &["--assume requires --engine narrow"],
            );
            rejects(
                &[
                    "check",
                    &path,
                    "--delta",
                    "30",
                    "--mode",
                    "transition",
                    "--engine",
                    engine,
                ],
                &["--mode transition requires --engine narrow"],
            );
            rejects(
                &["delay", &path, "--mode", "transition", "--engine", engine],
                &["--mode transition requires --engine narrow"],
            );
        }
    }

    #[test]
    fn every_unread_flag_is_rejected_and_every_read_one_parses() {
        for flag in FLAGS {
            for name in flag.reads {
                assert!(
                    COMMANDS.iter().any(|c| c.name == *name),
                    "{}: {name}",
                    flag.name
                );
            }
        }
        for command in COMMANDS {
            let mut argv: Vec<&str> = command.operand.map(|_| "x.bench").into_iter().collect();
            for flag in FLAGS {
                argv.truncate(usize::from(command.operand.is_some()));
                argv.push(flag.name);
                if !flag.value.is_empty() {
                    argv.push("1");
                }
                let read = flag.reads.contains(&command.name);
                match Args::parse(command, &args(&argv)) {
                    Ok(_) => assert!(read, "{argv:?}"),
                    Err(e) => {
                        let message = e.to_string();
                        assert!(!read, "{argv:?}: {message}");
                        assert!(message.contains(command.name) && message.contains(flag.name));
                    }
                }
            }
        }
    }

    #[test]
    fn help_prints() {
        assert_eq!(run(&args(&["help"])), Ok(RunStatus::Clean));
        let help = long_help();
        let heads = |name: &str| {
            help.lines()
                .filter(|l| !l.starts_with("   ") && l.split_whitespace().next() == Some(name))
                .count()
        };
        for command in COMMANDS {
            assert_eq!(heads(command.name), 1, "{}", command.name);
        }
        for flag in FLAGS {
            assert_eq!(heads(flag.name), 1, "{}", flag.name);
        }
        for flag in [
            "--backoff-cap-ms",
            "--backend-jobs",
            "--backend-queue-cap",
            "--backend-registry-cap",
        ] {
            assert_eq!(heads(flag), 1, "{flag}");
        }
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
