//! `cone_speedup` — measures ECO-style incremental re-verification: one
//! delay ECO, then the full output sweep re-verified the way `patch` does
//! it — patch the warm session (`CheckSession::patch`), re-check only the
//! outputs the edit can affect and carry over every other output's exact
//! report (`Patch::unaffected`, `BatchRunner::run_reusing`) — against a
//! cold re-registration (prepare from scratch, re-check everything).
//! Carried-over and recomputed reports must both equal cold in verdict
//! (witness included) and completeness; the ratio is the re-verification
//! cost relative to cold. Two scenarios: the s6288 stand-in re-checking
//! every output just above its arrival time, and the k = 800 false-path
//! blow-up split into 8 parallel chains, re-proving every chain at
//! δ = 6·k·d + 1.
//!
//! ```text
//! cone_speedup [--reps N]
//! ```
//!
//! Exits 1 if any served report disagrees with the cold one.

use ltt_bench::cone::{blowup800, blowup_delta, s6288_standin, smallest_cone_output};
use ltt_core::{BatchRunner, CheckSession, VerifyConfig};
use ltt_netlist::{Circuit, CircuitEdit, DelayInterval, NetId};
use std::time::Instant;

struct EcoRow {
    name: &'static str,
    checks: usize,
    reverified: usize,
    transplanted: usize,
    cold_ms: f64,
    incremental_ms: f64,
    identical: bool,
}

/// One delay ECO on `edit_output`'s driver, then the full `checks` sweep
/// re-verified the `patch` way (patch; carry over the exact reports of the
/// unaffected outputs; re-check the rest) vs a cold re-registration
/// (prepare the edited circuit from scratch; re-check everything).
fn eco_scenario(
    name: &'static str,
    circuit: &Circuit,
    checks: &[(NetId, i64)],
    edit_output: NetId,
    reps: usize,
) -> EcoRow {
    let runner = BatchRunner::new(1);

    // The warm pre-edit session the ECO flow starts from, its reports the
    // transplant source.
    let base = CheckSession::new(circuit, VerifyConfig::default());
    let base_batch = runner.run(&base, checks);

    // The 1-gate SDF re-annotation: the edited gate's delay drops from 10
    // to 9 (post-sizing numbers shrink; a delay increase past δ would turn
    // the dirty cone's re-check into a witness search and measure that
    // search, not the incremental machinery).
    let gate = circuit
        .net(edit_output)
        .driver()
        .expect("outputs are gate-driven");
    let edit = [CircuitEdit::SetDelay {
        gate,
        delay: DelayInterval::fixed(9),
    }];

    let mut cold_times = Vec::with_capacity(reps);
    let mut incr_times = Vec::with_capacity(reps);
    let mut identical = true;
    let mut transplanted = 0usize;
    for _ in 0..reps {
        // Incremental: patch, then carry over the pre-edit report of every
        // unaffected check and re-run the rest — what `ltt patch` and the
        // serve layer's `patch` op do.
        let t = Instant::now();
        let patch = base.patch(&edit).expect("delay edit");
        let (incremental, reused) = runner.run_reusing(&patch.session, checks, |output, delta| {
            let r = base_batch
                .reports
                .iter()
                .find(|r| (r.output, r.delta) == (output, delta))?;
            patch.unaffected(output).then(|| r.clone())
        });
        incr_times.push(t.elapsed().as_secs_f64() * 1e3);
        transplanted = reused.iter().filter(|&&r| r).count();

        let t = Instant::now();
        let cold_session = CheckSession::new(&patch.circuit, VerifyConfig::default());
        let cold = runner.run(&cold_session, checks);
        cold_times.push(t.elapsed().as_secs_f64() * 1e3);

        // Every report — recomputed on a dirty cone or transplanted from
        // the pre-edit session — must agree with the cold oracle, slot by
        // slot.
        identical &= incremental.errors.is_empty()
            && incremental.reports.len() == cold.reports.len()
            && (incremental.reports.iter().zip(&cold.reports)).all(|(served, cold)| {
                served.verdict == cold.verdict && served.completeness == cold.completeness
            });
    }
    cold_times.sort_by(|a, b| a.total_cmp(b));
    incr_times.sort_by(|a, b| a.total_cmp(b));
    EcoRow {
        name,
        checks: checks.len(),
        reverified: checks.len() - transplanted,
        transplanted,
        cold_ms: cold_times[cold_times.len() / 2],
        incremental_ms: incr_times[incr_times.len() / 2],
        identical,
    }
}

/// Every output at δ just above its arrival time — the registration
/// sweep shape the serve layer runs.
fn arrival_sweep(circuit: &Circuit) -> Vec<(NetId, i64)> {
    let arrival = circuit.arrival_times();
    circuit
        .outputs()
        .iter()
        .map(|&o| (o, arrival[o.index()] + 1))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs an integer")
            }
            other => {
                eprintln!("cone_speedup: unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }

    let s6288 = s6288_standin();
    let blowup = blowup800();
    let (s6288_output, _) = smallest_cone_output(&s6288);
    let (blowup_output, _) = smallest_cone_output(&blowup);

    // ECO sweeps: s6288 re-checks every output at arrival + 1; the blow-up
    // re-proves every chain's hard δ (the expensive sweep slicing pays for).
    let blowup_checks: Vec<(NetId, i64)> = blowup
        .outputs()
        .iter()
        .map(|&o| (o, blowup_delta()))
        .collect();
    let ecos = vec![
        eco_scenario(
            "eco_s6288",
            &s6288,
            &arrival_sweep(&s6288),
            s6288_output,
            reps,
        ),
        eco_scenario(
            "eco_blowup800",
            &blowup,
            &blowup_checks,
            blowup_output,
            reps,
        ),
    ];

    println!("ECO re-verification, patch + affected outputs vs cold (median of {reps}):");
    for row in &ecos {
        println!(
            "  {:<24} {:>3} checks ({} re-run, {} transplanted)  cold {:>9.3} ms  incremental {:>9.3} ms  ratio {:>6.3}  verdicts {}",
            row.name,
            row.checks,
            row.reverified,
            row.transplanted,
            row.cold_ms,
            row.incremental_ms,
            row.incremental_ms / row.cold_ms.max(1e-9),
            if row.identical { "identical" } else { "MISMATCHED" }
        );
    }

    if ecos.iter().any(|r| !r.identical) {
        eprintln!("cone_speedup: VERDICT MISMATCH — incremental diverged from cold");
        std::process::exit(1);
    }
}
