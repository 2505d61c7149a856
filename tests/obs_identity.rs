//! Observability must be a pure observer: running the pipeline with a
//! recording [`Obs`] handle attached produces **bit-identical** reports to
//! an uninstrumented run — same verdicts, same witness vectors, same
//! per-stage effort counters, same CDCL counters — at any worker count, on
//! every engine. Only wall-clock timings are exempt (and those live
//! outside the compared fingerprint).

use ltt_core::{
    BatchRunner, CaseStats, CdclStats, CheckSession, Engine, Obs, Recorder, SolverStats,
    StageEffort, StemStats, Verdict, VerifyConfig, VerifyReport,
};
use ltt_netlist::generators::{carry_skip_adder, figure1, stem_conflict_circuit};
use ltt_netlist::suite::c17;
use ltt_netlist::Circuit;
use std::sync::Arc;

/// A bounded config so debug-build case analysis stays fast; abandoned
/// verdicts must be identical under instrumentation too.
fn config(obs: Obs) -> VerifyConfig {
    engine_config(Engine::Narrow, obs)
}

fn engine_config(engine: Engine, obs: Obs) -> VerifyConfig {
    VerifyConfig {
        max_backtracks: 2_000,
        engine,
        obs,
        ..Default::default()
    }
}

/// Everything a check reports except wall-clock.
type Fingerprint = (
    usize,
    i64,
    Verdict,
    u64,
    SolverStats,
    StemStats,
    CaseStats,
    StageEffort,
    CdclStats,
);

fn fingerprint(r: &VerifyReport) -> Fingerprint {
    (
        r.output.index(),
        r.delta,
        r.verdict.clone(),
        r.backtracks(),
        r.effort.total(),
        r.stems,
        r.case,
        r.effort,
        r.sat,
    )
}

fn probe_checks(c: &Circuit) -> Vec<(ltt_netlist::NetId, i64)> {
    let top = c.topological_delay();
    let mut deltas = vec![top / 2, top - 1, top, top + 1];
    deltas.sort();
    deltas.dedup();
    c.outputs()
        .iter()
        .flat_map(|&o| deltas.iter().map(move |&d| (o, d)))
        .collect()
}

#[test]
fn recording_changes_no_report_at_any_job_count() {
    for circuit in [
        figure1(10),
        c17(10),
        stem_conflict_circuit(10, 10),
        carry_skip_adder(8, 4, 10),
    ] {
        for engine in [Engine::Narrow, Engine::Sat, Engine::Hybrid] {
            recording_changes_no_report(&circuit, engine);
        }
    }
}

fn recording_changes_no_report(circuit: &Circuit, engine: Engine) {
    let checks = probe_checks(circuit);
    let quiet_session = CheckSession::new(circuit, engine_config(engine, Obs::disabled()));
    let quiet = BatchRunner::new(1).run(&quiet_session, &checks);
    let quiet_prints: Vec<Fingerprint> = quiet.reports.iter().map(fingerprint).collect();
    let at = |jobs| format!("{} {} jobs={jobs}", circuit.name(), engine.name());

    for jobs in [1, 4] {
        let recorder = Arc::new(Recorder::new());
        let config = engine_config(engine, Obs::recording(recorder.clone()));
        let session = CheckSession::new(circuit, config);
        let traced = BatchRunner::new(jobs).run(&session, &checks);
        let traced_prints: Vec<Fingerprint> = traced.reports.iter().map(fingerprint).collect();
        assert_eq!(
            quiet_prints,
            traced_prints,
            "instrumented reports diverged at {}",
            at(jobs)
        );
        // The batch-level Table 1 effort breakdown is part of the
        // contract too (it is summed from the same integer counters).
        assert_eq!(
            quiet.summary.stage_effort,
            traced.summary.stage_effort,
            "stage_effort diverged at {}",
            at(jobs)
        );
        assert_eq!(quiet.summary.sat, traced.summary.sat, "sat at {}", at(jobs));
        // And the run was actually observed: every check contributes at
        // least one stage span (prepare-time spans come on top).
        assert!(
            recorder.len() >= checks.len(),
            "only {} spans for {} checks",
            recorder.len(),
            checks.len()
        );
        let spans = recorder.spans();
        let stages: &[&str] = match engine {
            Engine::Sat => &["check.sat"],
            _ => &["check.narrowing", "check.dominators"],
        };
        for stage in stages {
            assert!(
                spans.iter().any(|s| s.name == *stage),
                "no {stage} span recorded at {}",
                at(jobs)
            );
        }
    }
}

#[test]
fn effort_counters_are_identical_serial_vs_parallel() {
    // Same property at the single-report level with a shared session:
    // two runners over one session, different job counts, one recording.
    let circuit = carry_skip_adder(8, 4, 10);
    let checks = probe_checks(&circuit);
    let session = CheckSession::new(&circuit, config(Obs::disabled()));
    let serial = BatchRunner::new(1).run(&session, &checks);

    let recorder = Arc::new(Recorder::new());
    let traced_session = CheckSession::new(&circuit, config(Obs::recording(recorder)));
    let parallel = BatchRunner::new(4).run(&traced_session, &checks);

    for (a, b) in serial.reports.iter().zip(&parallel.reports) {
        assert_eq!(fingerprint(a), fingerprint(b));
    }
    let total = serial.summary.stage_effort.total();
    assert_eq!(total, parallel.summary.stage_effort.total());
    // The narrowing stage always does work on these probes.
    assert!(total.events > 0);
}
