//! Soundness under resource exhaustion: a budget trip may cost
//! *completeness* (the check comes back `Abandoned` /
//! `BudgetExhausted`), but never *correctness*:
//!
//! * whatever the budget, a `NoViolation` or `Violation` verdict agrees
//!   with the exhaustive floating-mode oracle, and a non-`Exact`
//!   completeness marker accompanies an `Abandoned` verdict and nothing
//!   else;
//! * a budget-degraded delay search always reports a proven
//!   `[lower, upper]` interval containing the exact delay.

use ltt_core::{
    BatchRunner, Budget, CancelToken, CheckSession, Completeness, DelaySearch, Engine, Stage,
    TripReason, Verdict, VerifyConfig,
};
use ltt_netlist::generators::{random_circuit, serial_false_path_gadgets, RandomCircuitConfig};
use ltt_netlist::NetId;
use ltt_sta::{exhaustive_floating_delay, vector_violates};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn small_random(seed: u64) -> ltt_netlist::Circuit {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 7,
        num_gates: 30,
        num_outputs: 2,
        max_fanin: 3,
        depth_bias: 4,
        delay: 10,
        seed,
    })
}

/// The delay search of `output` with `budget` merged into the session's.
fn budgeted_search(session: &CheckSession, output: NetId, budget: Budget) -> DelaySearch {
    let runner = BatchRunner::serial().with_budget(budget);
    match runner.exact_delays(session, &[output]).pop() {
        Some(Ok(search)) => search,
        other => panic!("delay search failed: {other:?}"),
    }
}

/// One of the three cap kinds, tightened to `cap` where that applies.
/// `Duration::ZERO` makes the wall-clock case deterministic: the very
/// first clock read trips.
fn tight_budget(kind: u8, cap: u64) -> Budget {
    match kind % 3 {
        0 => Budget::unlimited().with_events(cap),
        1 => Budget::unlimited().with_backtracks(cap.min(3)),
        _ => Budget::unlimited().with_wall(Duration::ZERO),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn budget_exhaustion_never_contradicts_the_oracle(
        seed in 0u64..10_000,
        delta_offset in -3i64..4,
        kind in 0u8..3,
        cap in 1u64..200,
    ) {
        let c = small_random(seed);
        let s = c.outputs()[0];
        let oracle = exhaustive_floating_delay(&c, s).expect("7 inputs");
        let delta = oracle.delay + delta_offset * 10;
        let config = VerifyConfig {
            budget: tight_budget(kind, cap),
            max_backtracks: 10_000,
            ..Default::default()
        };
        let report = CheckSession::new(&c, config.clone()).verify(s, delta);
        match &report.verdict {
            Verdict::NoViolation { .. } => {
                prop_assert!(
                    report.completeness.is_exact(),
                    "a definitive NoViolation must be marked Exact, got {:?}",
                    report.completeness
                );
                prop_assert!(
                    oracle.delay < delta,
                    "claimed no violation at δ={delta} under {:?} but oracle delay is {}",
                    config.budget, oracle.delay
                );
            }
            Verdict::Violation { vector } => {
                prop_assert!(
                    vector_violates(&c, vector, s, delta),
                    "claimed violating vector at δ={delta} fails certification"
                );
            }
            // No claim made: nothing to contradict.
            Verdict::Possible | Verdict::Abandoned => {}
        }
        prop_assert_eq!(
            report.verdict == Verdict::Abandoned,
            !report.completeness.is_exact(),
            "Abandoned and a non-Exact marker come together: {:?} / {:?}",
            report.verdict,
            report.completeness
        );
    }

    #[test]
    fn degraded_delay_interval_contains_the_exact_delay(
        seed in 0u64..10_000,
        kind in 0u8..3,
        cap in 1u64..50,
    ) {
        let c = small_random(seed);
        let s = c.outputs()[0];
        let oracle = exhaustive_floating_delay(&c, s).expect("7 inputs");
        let session = CheckSession::new(&c, VerifyConfig::default());
        let search = budgeted_search(&session, s, tight_budget(kind, cap));
        prop_assert!(
            search.delay <= oracle.delay,
            "lower bound {} exceeds exact delay {}",
            search.delay, oracle.delay
        );
        prop_assert!(
            search.upper_bound >= oracle.delay,
            "upper bound {} is below exact delay {}",
            search.upper_bound, oracle.delay
        );
        if search.proven_exact {
            prop_assert_eq!(search.delay, oracle.delay);
        }
    }
}

#[test]
fn cancelled_token_aborts_without_claiming() {
    let c = serial_false_path_gadgets(4, 10);
    let s = c.outputs()[0];
    let token = CancelToken::new();
    token.cancel();
    let config = VerifyConfig {
        budget: Budget::unlimited().with_cancel(token),
        ..Default::default()
    };
    let report = CheckSession::new(&c, config).verify(s, 241);
    assert_eq!(report.verdict, Verdict::Abandoned);
    assert!(matches!(
        report.completeness,
        Completeness::BudgetExhausted {
            reason: TripReason::Cancelled,
            ..
        }
    ));
}

/// A SAT check that grid analysis alone decides (δ at or below the
/// output's earliest settle time, or past its latest) still polls the
/// budget first: a cancelled check ends `Unknown(Cancelled)` at both
/// ends instead of answering.
#[test]
fn cancelled_sat_checks_outside_the_settle_span_end_unknown() {
    let c = serial_false_path_gadgets(4, 10);
    let s = c.outputs()[0];
    let token = CancelToken::new();
    token.cancel();
    let config = VerifyConfig {
        engine: Engine::Sat,
        budget: Budget::unlimited().with_cancel(token),
        ..Default::default()
    };
    let session = CheckSession::new(&c, config);
    let latest = session.arrival_times()[s.index()];
    for delta in [0, 1, latest + 1, latest + 10] {
        let report = session.verify(s, delta);
        assert_eq!(report.verdict, Verdict::Abandoned, "δ={delta}");
        assert_eq!(
            report.completeness,
            Completeness::BudgetExhausted {
                stage: Stage::Sat,
                reason: TripReason::Cancelled,
            },
            "δ={delta}"
        );
    }
}

#[test]
fn event_cap_trips_in_the_named_stage() {
    let c = serial_false_path_gadgets(4, 10);
    let s = c.outputs()[0];
    let config = VerifyConfig {
        budget: Budget::unlimited().with_events(1),
        ..Default::default()
    };
    let report = CheckSession::new(&c, config).verify(s, 241);
    assert_eq!(report.verdict, Verdict::Abandoned);
    assert_eq!(
        report.completeness,
        Completeness::BudgetExhausted {
            stage: Stage::Narrowing,
            reason: TripReason::Events,
        }
    );
}

#[test]
fn deadline_on_the_blowup_workload_stays_sound_and_prompt() {
    // The acceptance-criterion shape: a wall-budgeted delay search on the
    // path-blow-up instance terminates promptly and brackets the exact
    // delay (6·k·d = 480 by construction).
    let c = serial_false_path_gadgets(8, 10);
    let s = c.outputs()[0];
    let session = CheckSession::new(&c, VerifyConfig::default());
    let budget = Budget::unlimited().with_wall(Duration::from_millis(50));
    let t0 = Instant::now();
    let search = budgeted_search(&session, s, budget);
    let elapsed = t0.elapsed();
    assert!(search.delay <= 480, "lower bound {}", search.delay);
    assert!(
        search.upper_bound >= 480,
        "upper bound {}",
        search.upper_bound
    );
    if search.proven_exact {
        assert_eq!(search.delay, 480);
    }
    // ~2× the 50 ms deadline, with a wide margin for loaded CI machines.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}
