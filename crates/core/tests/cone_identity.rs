//! Bit-identity and soundness of cone-scoped checking (DESIGN.md §14).
//!
//! Every check runs on its output's sliced fanin cone. The contract under
//! test, against the two references a session exposes for testing only:
//!
//! * The sliced check and the masked reference (the whole-circuit store
//!   with propagation and decisions masked to the cone) produce
//!   **bit-identical** reports — verdict, witness vector, per-stage
//!   verdicts, backtracks and every deterministic effort counter — because
//!   slicing renumbers the cone order-preservingly, making the two event
//!   schedules isomorphic.
//! * Both agree with the whole-circuit reference on verdicts, and any
//!   violation vector they report is a real violation (witness vectors may
//!   differ: the whole-circuit search also decides out-of-cone inputs, the
//!   cone runs fill them deterministically).
//! * Batch runs are identical at any job count.
//! * An ECO rebase ([`CheckSession::rebase`]) followed by re-verification
//!   equals a cold re-register + full re-check, bit for bit.

use ltt_core::{BatchRunner, CheckSession, Verdict, VerifyConfig, VerifyReport};
use ltt_netlist::generators::{
    carry_skip_adder, false_path_chain, figure1, random_circuit, RandomCircuitConfig,
};
use ltt_netlist::suite::c17;
use ltt_netlist::{Circuit, CircuitEdit, NetId};
use proptest::prelude::*;
use std::sync::Arc;

fn random_dag(seed: u64) -> Circuit {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 10,
        num_gates: 60,
        num_outputs: 4,
        max_fanin: 3,
        depth_bias: 4,
        delay: 10,
        seed,
    })
}

/// The deltas probed per output: below, at, and above the exact delay
/// region (relative to the per-output topological arrival).
fn probe_deltas(top: i64) -> [i64; 4] {
    [top / 2, (3 * top) / 4, top, top + 1]
}

/// Full bit-identity: everything deterministic in the report must match.
/// (Wall-clock fields are the only exclusions.)
fn assert_bit_identical(a: &VerifyReport, b: &VerifyReport, what: &str) {
    assert_eq!(a.verdict, b.verdict, "{what}: verdict");
    assert_eq!(a.completeness, b.completeness, "{what}: completeness");
    assert_eq!(a.backtracks(), b.backtracks(), "{what}: backtracks");
    assert_eq!(a.effort.total(), b.effort.total(), "{what}: solver stats");
    assert_eq!(a.stems, b.stems, "{what}: stem stats");
    assert_eq!(a.case, b.case, "{what}: case stats");
    assert_eq!(a.effort, b.effort, "{what}: stage effort");
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(a.delta, b.delta, "{what}: delta");
}

/// Runs every output × probe-δ as a sliced check and through the masked
/// and whole-circuit references, and checks the contracts on one circuit.
/// Each run gets its own session, so no run sees another's caches.
fn check_all_modes(c: &Circuit) {
    let sliced = CheckSession::new(c, VerifyConfig::default());
    let masked = CheckSession::new(c, VerifyConfig::default());
    let legacy = CheckSession::new(c, VerifyConfig::default());
    for &s in c.outputs() {
        let top = legacy.prepared().arrival_times()[s.index()];
        for delta in probe_deltas(top) {
            let rs = sliced.verify(s, delta);
            let rm = masked.verify_masked_reference(s, delta);
            let rl = legacy.verify_whole_reference(s, delta);
            let what = format!("{} output {} δ={delta}", c.name(), c.net(s).name());
            assert_bit_identical(&rs, &rm, &what);
            assert_eq!(
                rs.verdict.is_violation(),
                rl.verdict.is_violation(),
                "{what}"
            );
            assert_eq!(
                rs.verdict.is_no_violation(),
                rl.verdict.is_no_violation(),
                "{what}"
            );
            for (mode, report) in [("sliced", &rs), ("masked", &rm), ("legacy", &rl)] {
                if let Verdict::Violation { vector } = &report.verdict {
                    assert_eq!(vector.len(), c.inputs().len(), "{what} [{mode}]");
                    assert!(
                        ltt_sta::vector_violates(c, vector, s, delta),
                        "{what} [{mode}]: reported vector does not violate"
                    );
                }
            }
        }
    }
}

#[test]
fn named_circuits_cone_modes_agree() {
    for c in [
        figure1(10),
        false_path_chain(4, 3, 10),
        carry_skip_adder(6, 2, 10),
        c17(10),
    ] {
        check_all_modes(&c);
    }
}

#[test]
fn exact_delay_agrees_through_cones() {
    for c in [figure1(10), carry_skip_adder(6, 2, 10), c17(10)] {
        let auto = CheckSession::new(&c, VerifyConfig::default());
        let legacy = CheckSession::new(&c, VerifyConfig::default());
        for &s in c.outputs() {
            let a = auto.exact_delay(s);
            let l = legacy.exact_delay_whole_reference(s);
            assert_eq!(a.delay, l.delay, "{} output {}", c.name(), c.net(s).name());
            assert_eq!(a.proven_exact, l.proven_exact);
            assert_eq!(a.upper_bound, l.upper_bound);
        }
    }
}

#[test]
fn batch_reports_identical_at_any_job_count() {
    let c = carry_skip_adder(6, 2, 10);
    let session = CheckSession::new(&c, VerifyConfig::default());
    let checks: Vec<(NetId, i64)> = c
        .outputs()
        .iter()
        .flat_map(|&s| {
            let top = session.prepared().arrival_times()[s.index()];
            probe_deltas(top).into_iter().map(move |d| (s, d))
        })
        .collect();
    let serial = BatchRunner::new(1).run(&session, &checks);
    let parallel = BatchRunner::new(4).run(&session, &checks);
    assert!(serial.errors.is_empty() && parallel.errors.is_empty());
    assert_eq!(serial.reports.len(), parallel.reports.len());
    for (a, b) in serial.reports.iter().zip(&parallel.reports) {
        assert_bit_identical(a, b, "jobs 1 vs jobs 4");
    }
}

/// One delay edit on a mid-circuit gate, exercised through rebase.
fn bump_one_delay(c: &Circuit) -> (Arc<Circuit>, Vec<NetId>, bool) {
    let gid = ltt_netlist::GateId::from_index(c.num_gates() / 2);
    let new_delay = ltt_netlist::DelayInterval::fixed(35);
    let outcome = c
        .apply_edit(&[CircuitEdit::SetDelay {
            gate: gid,
            delay: new_delay,
        }])
        .expect("delay edit is valid");
    (Arc::new(outcome.circuit), outcome.dirty, outcome.structural)
}

#[test]
fn rebase_matches_cold_session() {
    for (i, c) in [
        figure1(10),
        carry_skip_adder(6, 2, 10),
        random_dag(7),
        random_dag(99),
    ]
    .into_iter()
    .enumerate()
    {
        let old = CheckSession::new(&c, VerifyConfig::default());
        // Warm the old session so the rebase has analyses to transplant.
        for &s in c.outputs() {
            let top = old.prepared().arrival_times()[s.index()];
            let _ = old.verify(s, top);
        }
        let (edited, dirty, structural) = bump_one_delay(&c);
        assert!(!structural);
        let rebased = old.rebase(edited.clone(), &dirty, structural);
        let cold = CheckSession::new_shared(edited, VerifyConfig::default());
        for &s in c.outputs() {
            let top = cold.prepared().arrival_times()[s.index()];
            for delta in probe_deltas(top) {
                let a = rebased.verify(s, delta);
                let b = cold.verify(s, delta);
                assert_bit_identical(&a, &b, &format!("case {i} δ={delta}"));
            }
        }
    }
}

#[test]
fn structural_rebase_matches_cold_session() {
    // Rewire one 2-input gate's inputs swapped with another input net —
    // connectivity changes, so nothing transplants; results must still
    // match a cold session exactly.
    let c = random_dag(3);
    let gid = c
        .gate_ids()
        .find(|&g| c.gate(g).inputs().len() == 2)
        .expect("random DAG has a 2-input gate");
    let ins = c.gate(gid).inputs().to_vec();
    let outcome = c
        .apply_edit(&[CircuitEdit::Rewire {
            gate: gid,
            inputs: vec![ins[1], ins[0]],
        }])
        .expect("swap rewire is valid");
    assert!(outcome.structural);
    let old = CheckSession::new(&c, VerifyConfig::default());
    old.warm_up();
    let edited = Arc::new(outcome.circuit);
    let rebased = old.rebase(edited.clone(), &outcome.dirty, outcome.structural);
    let cold = CheckSession::new_shared(edited, VerifyConfig::default());
    for &s in c.outputs() {
        let top = cold.prepared().arrival_times()[s.index()];
        for delta in probe_deltas(top) {
            let a = rebased.verify(s, delta);
            let b = cold.verify(s, delta);
            assert_bit_identical(&a, &b, &format!("structural δ={delta}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_dags_sliced_masked_bit_identical(seed in 0u64..2000) {
        check_all_modes(&random_dag(seed));
    }

    #[test]
    fn random_dag_rebase_reverify_matches_cold(seed in 0u64..2000) {
        let c = random_dag(seed);
        let old = CheckSession::new(&c, VerifyConfig::default());
        for &s in c.outputs() {
            let top = old.prepared().arrival_times()[s.index()];
            let _ = old.verify(s, top);
        }
        let (edited, dirty, structural) = bump_one_delay(&c);
        let rebased = old.rebase(edited.clone(), &dirty, structural);
        let cold = CheckSession::new_shared(edited, VerifyConfig::default());
        for &s in c.outputs() {
            let top = cold.prepared().arrival_times()[s.index()];
            for delta in probe_deltas(top) {
                let a = rebased.verify(s, delta);
                let b = cold.verify(s, delta);
                assert_bit_identical(&a, &b, &format!("seed {seed} δ={delta}"));
            }
        }
    }
}
