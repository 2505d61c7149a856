//! Fault-injection tests (run with `--features failpoints`): the batch
//! runner's panic isolation, the wall-clock deadline path (at a narrowing
//! stage and at the SAT stage), and the SAT backend's budget-trip
//! soundness, exercised by real injected faults rather than hand-mocked
//! ones.
//!
//! The failpoint registry is process-global, so every test takes the
//! shared lock and disarms the registry when done.

#![cfg(feature = "failpoints")]

use ltt_core::failpoint::{clear_all, set, FailAction};
use ltt_core::sat::{sat_decide, SatVerdict};
use ltt_core::{
    BatchOutcome, BatchRunner, Budget, CheckError, CheckSession, Completeness, Engine, SolverStats,
    Stage, TripReason, Verdict, VerifyConfig, VerifyReport,
};
use ltt_netlist::generators::{figure1, random_circuit, RandomCircuitConfig};
use ltt_netlist::{Circuit, NetId};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking test (expected here!) poisons the lock; the registry
    // itself is still consistent because tests disarm it on entry.
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn multi_output_circuit() -> ltt_netlist::Circuit {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 8,
        num_gates: 40,
        num_outputs: 6,
        max_fanin: 3,
        depth_bias: 4,
        delay: 10,
        seed: 0xFA11,
    })
}

/// The decision content of a report — everything except wall-clock times,
/// which can never be identical across runs.
fn fingerprint(r: &VerifyReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.output,
        r.delta,
        r.verdict.clone(),
        r.completeness,
        r.backtracks(),
        r.effort.total(),
    )
}

#[test]
fn panicking_check_is_isolated_and_the_rest_is_bit_identical() {
    let _g = registry_lock();
    clear_all();
    let c = multi_output_circuit();
    let session = CheckSession::new(&c, VerifyConfig::default());
    let delta = 31;
    let checks: Vec<(NetId, i64)> = c.outputs().iter().map(|&o| (o, delta)).collect();
    let victim = c.outputs()[2];
    let victim_name = c.net(victim).name().to_string();

    // Baseline: the batch without the poisoned check, no failpoints armed.
    let without_victim: Vec<(NetId, i64)> = checks
        .iter()
        .copied()
        .filter(|&(o, _)| o != victim)
        .collect();
    let baseline = BatchRunner::serial().run_under(&session, &without_victim, &[]);
    assert!(baseline.errors.is_empty());

    set(
        "check::narrowing",
        Some(&victim_name),
        FailAction::Panic("injected fault".into()),
    );
    for jobs in [1, 2, 8] {
        let batch = BatchRunner::new(jobs).run_under(&session, &checks, &[]);
        // Exactly the victim's slot failed, with the injected message.
        assert_eq!(batch.errors.len(), 1, "jobs={jobs}");
        let err = &batch.errors[0];
        assert_eq!(err.output, victim);
        match &err.error {
            CheckError::Panicked { message } => {
                assert!(message.contains("injected fault"), "got: {message}")
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!(batch.summary.failed, 1);
        // Every other check completed, bit-identical to the baseline.
        assert_eq!(batch.reports.len(), baseline.reports.len(), "jobs={jobs}");
        for (got, want) in batch.reports.iter().zip(&baseline.reports) {
            assert_eq!(fingerprint(got), fingerprint(want), "jobs={jobs}");
        }
    }
    clear_all();
}

#[test]
fn panic_on_a_base_refuted_check_fails_only_its_slot() {
    let _g = registry_lock();
    clear_all();
    let c = multi_output_circuit();
    let session = CheckSession::new(&c, VerifyConfig::default());
    // Past its arrival time every output is refuted by the base fixpoint
    // alone, before any cone or narrower is built.
    let arrival = c.arrival_times();
    let checks: Vec<(NetId, i64)> = c
        .outputs()
        .iter()
        .map(|&o| (o, arrival[o.index()] + 1))
        .collect();
    let refuted = Verdict::NoViolation {
        stage: Stage::Narrowing,
    };
    let victim = c.outputs()[2];
    let probe = session.verify(victim, arrival[victim.index()] + 1);
    assert_eq!(probe.verdict, refuted);
    assert_eq!(probe.effort.total(), SolverStats::default());

    set(
        "check::narrowing",
        Some(c.net(victim).name()),
        FailAction::Panic("injected fault".into()),
    );
    for jobs in [1, 2] {
        let batch = BatchRunner::new(jobs).run_under(&session, &checks, &[]);
        assert_eq!(batch.errors.len(), 1, "jobs={jobs}");
        assert_eq!(batch.errors[0].output, victim);
        match &batch.errors[0].error {
            CheckError::Panicked { message } => {
                assert!(message.contains("injected fault"), "got: {message}")
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!(batch.reports.len(), checks.len() - 1, "jobs={jobs}");
        for r in &batch.reports {
            assert_eq!(r.verdict, refuted, "jobs={jobs}");
            assert_eq!(r.effort.total(), SolverStats::default());
        }
    }
    clear_all();
}

#[test]
fn unfiltered_panic_failpoint_fails_every_slot_but_never_the_batch() {
    let _g = registry_lock();
    clear_all();
    let c = multi_output_circuit();
    let session = CheckSession::new(&c, VerifyConfig::default());
    let checks: Vec<(NetId, i64)> = c.outputs().iter().map(|&o| (o, 31)).collect();
    set(
        "check::case-analysis",
        None,
        FailAction::Panic("late fault".into()),
    );
    let batch = BatchRunner::new(4).run_under(&session, &checks, &[]);
    // Checks decided before case analysis still report; the rest are
    // captured panics — and the run itself returns normally either way.
    assert_eq!(
        batch.reports.len() + batch.errors.len(),
        checks.len(),
        "every slot is accounted for"
    );
    assert_eq!(batch.summary.failed, batch.errors.len() as u64);
    clear_all();
}

#[test]
fn stalled_stage_hits_the_deadline_and_degrades() {
    let _g = registry_lock();
    clear_all();
    let c = multi_output_circuit();
    let session = CheckSession::new(&c, VerifyConfig::default());
    let checks: Vec<(NetId, i64)> = c.outputs().iter().map(|&o| (o, 31)).collect();
    set(
        "check::narrowing",
        None,
        FailAction::Stall(Duration::from_millis(30)),
    );
    let runner = BatchRunner::serial().with_deadline(Duration::from_millis(10));
    let batch = runner.run_under(&session, &checks, &[]);
    clear_all();
    // The first check stalls past the whole-batch deadline, so no check
    // can claim a decision — every slot is a degraded Abandoned report
    // (never a panic), and the batch still terminates promptly.
    assert!(batch.errors.is_empty(), "stalls must not become errors");
    assert!(!batch.is_complete());
    assert_eq!(batch.outcome(), BatchOutcome::Undecided);
    for r in &batch.reports {
        assert_eq!(r.verdict, Verdict::Abandoned);
        assert!(!r.completeness.is_exact());
    }
    assert!(batch.wall < Duration::from_secs(5), "took {:?}", batch.wall);
}

// The SAT stage's own site, `check::sat`: every SAT check runs as stage
// 5 through the same step as the narrowing stages, so a fault there is
// isolated to its slot and a stall there counts against the budget.

#[test]
fn panic_on_the_sat_stage_fails_only_its_slot() {
    let _g = registry_lock();
    clear_all();
    let c = multi_output_circuit();
    let session = engine_session(&c, Engine::Sat);
    let checks: Vec<(NetId, i64)> = c.outputs().iter().map(|&o| (o, 31)).collect();
    let victim = c.outputs()[2];
    let baseline = BatchRunner::serial().run(&session, &checks);
    assert!(baseline.errors.is_empty());
    let kept: Vec<_> = baseline
        .reports
        .iter()
        .filter(|r| r.output != victim)
        .map(fingerprint)
        .collect();

    set(
        "check::sat",
        Some(c.net(victim).name()),
        FailAction::Panic("injected fault".into()),
    );
    for jobs in [1, 2] {
        let batch = BatchRunner::new(jobs).run(&session, &checks);
        assert_eq!(batch.errors.len(), 1, "jobs={jobs}");
        assert_eq!(batch.errors[0].index, 2);
        assert_eq!(batch.errors[0].output, victim);
        match &batch.errors[0].error {
            CheckError::Panicked { message } => {
                assert!(message.contains("injected fault"), "got: {message}")
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
        let got: Vec<_> = batch.reports.iter().map(fingerprint).collect();
        assert_eq!(got, kept, "jobs={jobs}");
    }
    clear_all();
}

#[test]
fn stalled_sat_stage_hits_the_deadline_and_degrades() {
    let _g = registry_lock();
    clear_all();
    let circuit = figure1(10);
    let output = circuit.outputs()[0];
    let exact = figure1_exact_delay(&circuit);
    set(
        "check::sat",
        None,
        FailAction::Stall(Duration::from_millis(30)),
    );
    let sat = engine_session(&circuit, Engine::Sat);
    let runner = BatchRunner::serial().with_deadline(Duration::from_millis(10));
    let batch = runner.run(&sat, &[(output, exact)]);
    clear_all();
    assert!(batch.errors.is_empty(), "stalls must not become errors");
    let report = &batch.reports[0];
    assert_eq!(report.verdict, Verdict::Abandoned);
    assert_eq!(
        report.completeness,
        Completeness::BudgetExhausted {
            stage: Stage::Sat,
            reason: TripReason::Deadline,
        }
    );
    // The stall ran inside the SAT stage's clock.
    assert!(report.stage_times.sat >= Duration::from_millis(30));
    assert_eq!(report.stage_times.total(), report.elapsed);
}

// SAT budget-trip soundness: a stall armed on `sat::propagate` forces
// every CDCL run to exhaust its wall budget mid-search, and the tripped
// solve must surface as `Unknown`/`BudgetExhausted` — never as a decided
// (and therefore wrong) verdict — while delay searches keep a still-proven
// `[lower, upper]` interval around the true delay.

fn engine_session(circuit: &Circuit, engine: Engine) -> CheckSession<'_> {
    CheckSession::new(
        circuit,
        VerifyConfig {
            engine,
            ..Default::default()
        },
    )
}

/// Arms the CDCL propagation stall, runs `body`, and always disarms —
/// even when an assertion inside `body` panics, so one failure cannot
/// leave the registry armed for the remaining tests.
fn with_stalled_propagation<R>(stall: Duration, body: impl FnOnce() -> R) -> R {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            clear_all();
        }
    }
    let _guard = Disarm;
    set("sat::propagate", Some("cdcl"), FailAction::Stall(stall));
    body()
}

/// A wall budget short enough that the very first post-stall poll trips
/// it: the stall (100ms) dwarfs the window (10ms), so a stalled solve can
/// never run to completion no matter how the scheduler slices it.
fn tripping_budget() -> Budget {
    Budget::unlimited().with_wall(Duration::from_millis(10))
}

/// figure1's exact delay, decided by narrowing with nothing armed.
fn figure1_exact_delay(circuit: &Circuit) -> i64 {
    let search = engine_session(circuit, Engine::Narrow).exact_delay(circuit.outputs()[0]);
    assert!(search.proven_exact, "figure1 must be decidable unbudgeted");
    assert!(
        search.delay > 0,
        "figure1 has a positive floating-mode delay"
    );
    search.delay
}

#[test]
fn tripped_solve_reports_unknown_never_a_wrong_verdict() {
    let _g = registry_lock();
    clear_all();
    let circuit = figure1(10);
    let output = circuit.outputs()[0];
    let exact = figure1_exact_delay(&circuit);

    with_stalled_propagation(Duration::from_millis(100), || {
        // δ = exact: the true verdict is Violated. A tripped solve must
        // not claim Safe (unsound) — and with the stall it cannot finish,
        // so anything but Unknown(Deadline) is a soundness bug.
        let check = sat_decide(&circuit, output, exact, &tripping_budget());
        assert_eq!(
            check.verdict,
            SatVerdict::Unknown(TripReason::Deadline),
            "stalled solve at δ = exact must trip, not decide"
        );

        // δ = exact + 1: the true verdict is Safe. A tripped solve must
        // not claim Violated (a fabricated witness).
        let check = sat_decide(&circuit, output, exact + 1, &tripping_budget());
        assert_eq!(
            check.verdict,
            SatVerdict::Unknown(TripReason::Deadline),
            "stalled solve at δ = exact + 1 must trip, not decide"
        );
    });
}

#[test]
fn tripped_verify_surfaces_budget_exhausted_at_the_sat_stage() {
    let _g = registry_lock();
    clear_all();
    let circuit = figure1(10);
    let output = circuit.outputs()[0];
    let exact = figure1_exact_delay(&circuit);

    with_stalled_propagation(Duration::from_millis(100), || {
        let sat = engine_session(&circuit, Engine::Sat);
        let runner = BatchRunner::serial().with_budget(tripping_budget());
        let report = &runner.run(&sat, &[(output, exact)]).reports[0];
        assert_eq!(report.verdict, Verdict::Abandoned);
        assert_eq!(
            report.completeness,
            Completeness::BudgetExhausted {
                stage: Stage::Sat,
                reason: TripReason::Deadline,
            },
            "the trip must be attributed to the SAT stage"
        );
    });
}

#[test]
fn tripped_delay_search_keeps_a_proven_interval() {
    let _g = registry_lock();
    clear_all();
    let circuit = figure1(10);
    let output = circuit.outputs()[0];
    let truth = figure1_exact_delay(&circuit);

    with_stalled_propagation(Duration::from_millis(100), || {
        let sat = engine_session(&circuit, Engine::Sat);
        let runner = BatchRunner::serial().with_budget(tripping_budget());
        let search = match runner.exact_delays(&sat, &[output]).pop() {
            Some(Ok(search)) => search,
            other => panic!("delay search failed: {other:?}"),
        };
        // Every probe tripped, so the search cannot claim exactness...
        assert!(
            !search.proven_exact,
            "stalled bisection claimed an exact delay"
        );
        // ...but the interval it does report must still be *proven*:
        // `delay` only ever rises on a certified witness and
        // `upper_bound` only ever falls on an UNSAT proof, so even a
        // fully-starved search brackets the truth.
        assert!(
            search.delay <= truth && truth <= search.upper_bound,
            "tripped interval [{}, {}] lost the true delay {truth}",
            search.delay,
            search.upper_bound
        );
        if let Some(vector) = &search.vector {
            assert!(
                ltt_sta::vector_violates(&circuit, vector, output, search.delay),
                "reported lower-bound witness fails certification"
            );
        }
    });
}

#[test]
fn disarmed_failpoint_restores_exact_decisions() {
    // Guards against registry leakage between tests (and documents that
    // the stall — not some latent budget bug — caused the trips above).
    let _g = registry_lock();
    clear_all();
    let circuit = figure1(10);
    let output = circuit.outputs()[0];
    let search = engine_session(&circuit, Engine::Sat).exact_delay(output);
    assert!(
        search.proven_exact,
        "unarmed SAT search must decide figure1"
    );
}
