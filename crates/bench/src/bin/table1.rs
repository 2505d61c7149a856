//! Regenerates the paper's **Table 1**: the full pipeline on the
//! evaluation suite (real c17 + synthetic ISCAS'85 stand-ins), reporting
//! per-stage verdicts, case-analysis backtracks, and CPU time, with the
//! paper's reference values alongside.
//!
//! Run with `cargo run --release -p ltt-bench --bin table1`.
//! Pass `--quick` to skip the two largest stand-ins, `--jobs N` to fan
//! each entry's per-output checks over N workers (0 = one per hardware
//! thread), and `--compare` to run the suite twice — serial and parallel —
//! and report both wall-clocks. Verdict columns are identical either way.
//! `--trace FILE` records per-stage spans of every check and writes them
//! as Chrome-trace JSON (load in chrome://tracing), plus a per-stage
//! wall-clock rollup — the Table 1 time columns broken down by pipeline
//! stage. Verdicts are identical with or without tracing.
//! `--engine narrow|sat|hybrid` re-runs the table through the selected
//! verification backend (DESIGN.md §15) — the narrow-vs-sat wall-clock
//! comparison in EXPERIMENTS.md is two invocations of this flag.
//! `--help` prints the usage; any other argument, or a flag without a
//! valid value, prints it and exits with code 3.

use ltt_bench::table1::{render_rows, run_entry_with, Table1Row, MAX_BACKTRACKS, QUICK_MAX_GATES};
use ltt_core::{BatchRunner, Engine, Obs, Recorder, VerifyConfig};
use ltt_netlist::suite::{iscas85_suite, SuiteEntry};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: table1 [--quick] [--compare] [--jobs N] [--trace FILE] [--engine NAME]

  --quick          skip the entries over 2000 gates
  --compare        run the suite serially, then with --jobs, and report both
  --jobs N         workers per entry (0 = one per hardware thread, the default)
  --trace FILE     write per-stage spans as Chrome-trace JSON
  --engine NAME    narrow (default), sat or hybrid
  --help           print this message";

/// The command line of one run.
#[derive(Default)]
struct Options {
    quick: bool,
    compare: bool,
    jobs: usize,
    trace: Option<String>,
    engine: Engine,
}

/// Parses the arguments after the program name: `Ok(None)` asks for the
/// usage, `Err` names the first argument that does not parse.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--help" => return Ok(None),
            "--quick" => opts.quick = true,
            "--compare" => opts.compare = true,
            "--jobs" => {
                opts.jobs = value("an integer")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?
            }
            "--trace" => opts.trace = Some(value("a file")?),
            "--engine" => {
                let name = value("a name")?;
                opts.engine =
                    Engine::parse(&name).ok_or_else(|| format!("unknown engine `{name}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn run_suite(
    suite: &[SuiteEntry],
    config: &VerifyConfig,
    runner: BatchRunner,
    quick: bool,
) -> (Vec<Table1Row>, Duration) {
    let t0 = Instant::now();
    let mut rows = Vec::new();
    for entry in suite {
        if quick && entry.circuit.num_gates() > QUICK_MAX_GATES {
            eprintln!("[skip] {} (--quick)", entry.name);
            continue;
        }
        eprintln!(
            "[run ] {} ({} gates, top {}, {} job(s))",
            entry.name,
            entry.circuit.num_gates(),
            entry.circuit.topological_delay(),
            runner.jobs()
        );
        rows.extend(run_entry_with(entry, config, runner.clone()));
    }
    (rows, t0.elapsed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(3);
        }
    };
    let recorder = opts.trace.is_some().then(|| Arc::new(Recorder::new()));
    let config = VerifyConfig {
        max_backtracks: MAX_BACKTRACKS,
        engine: opts.engine,
        obs: recorder
            .as_ref()
            .map_or_else(Obs::disabled, |r| Obs::recording(r.clone())),
        ..Default::default()
    };

    let suite = iscas85_suite(10);
    let runner = BatchRunner::new(opts.jobs);
    let serial_wall = if opts.compare {
        let (_, wall) = run_suite(&suite, &config, BatchRunner::serial(), opts.quick);
        Some(wall)
    } else {
        None
    };
    let (rows, wall) = run_suite(&suite, &config, runner.clone(), opts.quick);

    println!("Table 1 — ISCAS'85 evaluation (delay 10 per gate)");
    println!("(stand-ins marked sNNN; see DESIGN.md for the substitution)");
    println!();
    println!("{}", render_rows(&rows));
    println!("Legend: P possible violation, N no violation possible, V test");
    println!("vector found, A abandoned (backtrack budget), - stage not needed;");
    println!("E = exact floating-mode delay, U = proven upper bound.");
    println!();
    match serial_wall {
        Some(serial) => println!(
            "suite wall-clock: serial {:.2} s → {} job(s) {:.2} s ({:.2}x)",
            serial.as_secs_f64(),
            runner.jobs(),
            wall.as_secs_f64(),
            serial.as_secs_f64() / wall.as_secs_f64().max(1e-9)
        ),
        None => println!(
            "suite wall-clock: {:.2} s with {} job(s)",
            wall.as_secs_f64(),
            runner.jobs()
        ),
    }

    if let (Some(recorder), Some(path)) = (&recorder, &opts.trace) {
        let spans = recorder.spans();
        let mut totals: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for span in &spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.dur_us;
        }
        std::fs::write(path, recorder.chrome_trace()).expect("write trace file");
        println!();
        println!("per-stage breakdown ({} spans -> {path}):", spans.len());
        for (name, &(count, dur_us)) in &totals {
            println!(
                "  {name:<24} {count:>8} spans  {:>10.3} s",
                dur_us as f64 / 1e6
            );
        }
    }
    ExitCode::SUCCESS
}
