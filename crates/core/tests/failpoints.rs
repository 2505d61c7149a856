//! Fault-injection tests (run with `--features failpoints`): the batch
//! runner's panic isolation and the wall-clock deadline path, exercised by
//! real injected faults rather than hand-mocked ones.
//!
//! The failpoint registry is process-global, so every test takes the
//! shared lock and disarms the registry when done.

#![cfg(feature = "failpoints")]

use ltt_core::failpoint::{clear_all, set, FailAction};
use ltt_core::{
    BatchOutcome, BatchRunner, CheckError, CheckSession, Verdict, VerifyConfig, VerifyReport,
};
use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
use ltt_netlist::NetId;
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
