//! The path-enumeration blow-up experiment (the paper's §1 motivation:
//! "path oriented timing verifiers suffer from poor performance as they may
//! have to enumerate a very large number of paths").
//!
//! Workload: `k` serial copies of the Figure-1-style false-path gadget
//! ([`ltt_netlist::generators::serial_false_path_gadgets`]). Every path
//! longer than the exact delay routes through at least one falsified long
//! branch, and their number grows exponentially with `k` — a path-oriented
//! verifier must refute each one, while the waveform narrower settles the
//! same `δ = exact + 1` check with near-linear work.
//!
//! Run with `cargo run --release -p ltt-bench --bin path_blowup`.
//!
//! `--emit K FILE` instead writes the `k = K` instance as a `.bench`
//! netlist and exits — this is how CI materializes the stress circuit for
//! the `ltt … --deadline-ms` smoke runs.

use ltt_bench::render::Table;
use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::bench_format::write_bench;
use ltt_netlist::generators::serial_false_path_gadgets;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(rest) = args.split_first().filter(|(flag, _)| *flag == "--emit") {
        return emit(rest.1);
    }
    let mut table = Table::new(&[
        "gadgets",
        "gates",
        "top",
        "exact",
        "false paths >= exact+1",
        "narrowing events",
        "stage",
        "narrowing ms",
    ]);
    for k in [1usize, 2, 4, 8, 16, 32] {
        let c = serial_false_path_gadgets(k, 10);
        let s = c.outputs()[0];
        let top = c.arrival_times()[s.index()];
        // Exact by construction: each gadget's true route is 6 levels, the
        // false one 7 (validated against the oracle for small k in the
        // integration tests).
        let exact = 60 * k as i64;
        let delta = exact + 1;
        // Exact count via DP (the enumerator itself blows up in memory on
        // the larger instances — the experiment's point).
        let count = ltt_sta::count_paths_at_least(&c, s, delta);
        let config = VerifyConfig::default();
        let r = CheckSession::new(&c, config.clone()).verify(s, delta);
        let stage = match &r.verdict {
            ltt_core::Verdict::NoViolation { stage } => format!("{stage:?}"),
            other => format!("{other:?}"),
        };
        table.row(&[
            k.to_string(),
            c.num_gates().to_string(),
            top.to_string(),
            exact.to_string(),
            count.to_string(),
            r.effort.total().events.to_string(),
            stage,
            format!("{:.2}", r.elapsed.as_secs_f64() * 1e3),
        ]);
    }
    println!("Path enumeration vs. waveform narrowing, k serial false-path gadgets");
    println!("(every listed path must be individually refuted by a path-oriented");
    println!("verifier; the narrower proves the same δ = exact+1 check once)");
    println!();
    println!("{}", table.render());
    ExitCode::SUCCESS
}

fn emit(rest: &[String]) -> ExitCode {
    let (k, path) = match rest {
        [k, path] => match k.parse::<usize>() {
            Ok(k) if k > 0 => (k, path),
            _ => {
                eprintln!("--emit needs a positive gadget count");
                return ExitCode::from(3);
            }
        },
        _ => {
            eprintln!("usage: path_blowup --emit K FILE");
            return ExitCode::from(3);
        }
    };
    let c = serial_false_path_gadgets(k, 10);
    if let Err(e) = std::fs::write(path, write_bench(&c)) {
        eprintln!("cannot write `{path}`: {e}");
        return ExitCode::from(3);
    }
    println!(
        "wrote {path}: k = {k}, {} gates, topological {}, exact floating delay {}",
        c.num_gates(),
        c.topological_delay(),
        60 * k
    );
    ExitCode::SUCCESS
}
