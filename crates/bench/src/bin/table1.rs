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
//! `--bench-json FILE` writes the same rollup as a machine-readable
//! benchmark artifact (suite wall-clock plus per-stage span counts and
//! totals) for CI trend tracking; it implies recording.
//! `--engine narrow|sat|hybrid` re-runs the table through the selected
//! verification backend (DESIGN.md §15) — the narrow-vs-sat wall-clock
//! comparison in EXPERIMENTS.md is two invocations of this flag.

use ltt_bench::table1::{render_rows, run_entry_with, Table1Row, MAX_BACKTRACKS, QUICK_MAX_GATES};
use ltt_core::{BatchRunner, Engine, Obs, Recorder, VerifyConfig};
use ltt_netlist::suite::{iscas85_suite, SuiteEntry};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let compare = args.iter().any(|a| a == "--compare");
    let jobs: usize = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--jobs needs an integer"))
        .unwrap_or(0);
    let trace: Option<String> = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a file").clone());
    let bench_json: Option<String> = args
        .iter()
        .position(|a| a == "--bench-json")
        .map(|i| args.get(i + 1).expect("--bench-json needs a file").clone());
    let engine = args
        .iter()
        .position(|a| a == "--engine")
        .map(|i| args.get(i + 1).expect("--engine needs a name"))
        .map(|name| Engine::parse(name).expect("--engine needs narrow, sat, or hybrid"))
        .unwrap_or(Engine::Narrow);
    let recorder = (trace.is_some() || bench_json.is_some()).then(|| Arc::new(Recorder::new()));
    let config = VerifyConfig {
        max_backtracks: MAX_BACKTRACKS,
        engine,
        obs: recorder
            .as_ref()
            .map_or_else(Obs::disabled, |r| Obs::recording(r.clone())),
        ..Default::default()
    };

    let suite = iscas85_suite(10);
    let runner = BatchRunner::new(jobs);
    let serial_wall = if compare {
        let (_, wall) = run_suite(&suite, &config, BatchRunner::serial(), quick);
        Some(wall)
    } else {
        None
    };
    let (rows, wall) = run_suite(&suite, &config, runner.clone(), quick);

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

    if let Some(recorder) = &recorder {
        let spans = recorder.spans();
        let mut totals: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for span in &spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.dur_us;
        }
        if let Some(path) = &trace {
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
        if let Some(path) = &bench_json {
            // Machine-readable rollup for CI trend tracking. Stage names
            // are static identifiers (no escaping needed).
            use std::fmt::Write;
            let mut json = String::new();
            let _ = write!(
                json,
                "{{\n  \"suite\": \"table1\",\n  \"quick\": {quick},\n  \"jobs\": {},\n  \"wall_s\": {:.6},\n  \"stages\": {{",
                runner.jobs(),
                wall.as_secs_f64()
            );
            for (i, (name, &(count, dur_us))) in totals.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}\n    \"{name}\": {{ \"spans\": {count}, \"total_s\": {:.6} }}",
                    if i == 0 { "" } else { "," },
                    dur_us as f64 / 1e6
                );
            }
            let _ = writeln!(json, "\n  }}\n}}");
            std::fs::write(path, json).expect("write bench-json file");
            eprintln!("[json] per-stage rollup -> {path}");
        }
    }
}
