//! System-level soundness properties of the whole pipeline, on random
//! circuits with random δ and every stage configuration:
//!
//! * a `NoViolation` verdict is never wrong (the oracle's exact delay is
//!   strictly below δ);
//! * a `Violation` verdict always carries a vector the exact simulator
//!   confirms;
//! * the fixpoint domains always contain the trajectory of every concrete
//!   floating-mode simulation (settle bounds are respected).

use ltt_core::{CheckSession, FixpointResult, LearningMode, Narrower, Verdict, VerifyConfig};
use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
use ltt_sta::{exhaustive_floating_delay, floating_settle, vector_violates};
use ltt_waveform::{Level, Signal, Time};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn verdicts_are_sound_for_every_configuration(
        seed in 0u64..10_000,
        delta_offset in -3i64..4,
        dominators in any::<bool>(),
        stems in any::<bool>(),
        learning in any::<bool>(),
    ) {
        let c = small_random(seed);
        let s = c.outputs()[0];
        let oracle = exhaustive_floating_delay(&c, s).expect("7 inputs");
        let delta = oracle.delay + delta_offset * 10;
        let config = VerifyConfig {
            dominators,
            stem_correlation: stems,
            learning: if learning { LearningMode::Stems } else { LearningMode::Off },
            max_backtracks: 10_000,
            ..Default::default()
        };
        let report = CheckSession::new(&c, config).verify(s, delta);
        match &report.verdict {
            Verdict::NoViolation { .. } => {
                prop_assert!(
                    oracle.delay < delta,
                    "claimed no violation at δ={delta} but oracle delay is {}",
                    oracle.delay
                );
            }
            Verdict::Violation { vector } => {
                prop_assert!(vector_violates(&c, vector, s, delta));
                prop_assert!(oracle.delay >= delta);
            }
            Verdict::Possible | Verdict::Abandoned => {
                // Inconclusive is always allowed (soundness, not
                // completeness, is the property under test); but with case
                // analysis enabled and a generous budget this should not
                // happen on 30-gate circuits.
                prop_assert!(false, "case analysis failed to decide a tiny circuit");
            }
        }
    }

    /// Completeness of the full pipeline on small circuits: the exact
    /// verdict boundary sits exactly at the oracle delay.
    #[test]
    fn verdict_boundary_matches_oracle(seed in 0u64..10_000) {
        let c = small_random(seed);
        let s = c.outputs()[0];
        let oracle = exhaustive_floating_delay(&c, s).expect("7 inputs");
        let session = CheckSession::new(&c, VerifyConfig::default());
        let at = session.verify(s, oracle.delay);
        prop_assert!(
            oracle.delay == 0 || at.verdict.is_violation(),
            "must find a vector at the exact delay {}",
            oracle.delay
        );
        let above = session.verify(s, oracle.delay + 1);
        prop_assert!(above.verdict.is_no_violation());
    }

    /// Abstraction invariant: for any vector, the concrete floating-mode
    /// trajectory lies inside the fixpoint domains — each net's settled
    /// value class is non-empty and its settle bound is respected.
    #[test]
    fn fixpoint_domains_contain_all_trajectories(
        seed in 0u64..10_000,
        vector_bits in 0u64..128,
    ) {
        let c = small_random(seed);
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        prop_assert_eq!(nw.reach_fixpoint(), FixpointResult::Fixpoint);

        let vector: Vec<bool> = (0..c.inputs().len()).map(|i| (vector_bits >> i) & 1 == 1).collect();
        let trajectory = floating_settle(&c, &vector);
        for net in c.net_ids() {
            let info = trajectory[net.index()];
            let domain = nw.domain(net);
            let class = Level::from_bool(info.value);
            prop_assert!(
                !domain[class].is_empty(),
                "net {} settles to {} but that class is empty",
                c.net(net).name(),
                class
            );
            // The simulated stabilization time never exceeds the settle
            // bound of the settled class (the concrete waveform's last
            // difference is ≤ its stabilization time).
            prop_assert!(
                domain[class].max() >= Time::new(info.time) || domain[class].max() == Time::POS_INF
                    || Time::new(info.time) <= domain.latest_settle(),
                "net {}: class {} bound {} vs simulated settle {}",
                c.net(net).name(),
                class,
                domain[class].max(),
                info.time
            );
        }
    }

    /// The settle bound computed by forward narrowing is an upper bound on
    /// the stabilization time of every vector (the conservative direction).
    #[test]
    fn settle_bounds_dominate_simulation(seed in 0u64..10_000, vector_bits in 0u64..128) {
        let c = small_random(seed);
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.reach_fixpoint();
        let vector: Vec<bool> = (0..c.inputs().len()).map(|i| (vector_bits >> i) & 1 == 1).collect();
        let trajectory = floating_settle(&c, &vector);
        for net in c.net_ids() {
            let bound = nw.domain(net).latest_settle();
            let t = trajectory[net.index()].time;
            prop_assert!(
                bound >= Time::new(t),
                "net {}: fixpoint settle bound {} < simulated {}",
                c.net(net).name(),
                bound,
                t
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 1 / chaotic-iteration confluence: the greatest fixpoint is
    /// unique, so the order in which gate constraints are applied must not
    /// change the result. Compare the event-driven schedule against a
    /// brute-force round-robin over a seed-shuffled gate order.
    #[test]
    fn fixpoint_is_confluent(seed in 0u64..10_000, order_seed in 0u64..1000, delta in 1i64..120) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let c = small_random(seed);
        let s = c.outputs()[0];

        // Reference: the event-driven scheduler.
        let mut reference = Narrower::new(&c);
        for &i in c.inputs() {
            reference.narrow_net(i, Signal::floating_input());
        }
        reference.narrow_net(s, Signal::violation(Time::new(delta)));
        let ref_result = reference.reach_fixpoint();

        // Candidate: shuffled round-robin application until quiescence.
        let mut candidate = Narrower::new(&c);
        for &i in c.inputs() {
            candidate.narrow_net(i, Signal::floating_input());
        }
        candidate.narrow_net(s, Signal::violation(Time::new(delta)));
        let mut order: Vec<_> = c.gate_ids().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(order_seed);
        order.shuffle(&mut rng);
        loop {
            let mut changed = false;
            for &g in &order {
                changed |= candidate.apply_gate(g);
                if candidate.has_contradiction() {
                    break;
                }
            }
            if !changed || candidate.has_contradiction() {
                break;
            }
        }

        prop_assert_eq!(
            reference.has_contradiction(),
            candidate.has_contradiction(),
            "contradiction detection must agree (ref {:?})",
            ref_result
        );
        if !candidate.has_contradiction() {
            prop_assert_eq!(reference.domains(), candidate.domains());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dynamic carriers are a refinement of static carriers: once the
    /// forward settle bounds are in (the plain fixpoint), every dynamic
    /// carrier is also a static carrier, and its dynamic distance never
    /// exceeds the static one.
    #[test]
    fn dynamic_carriers_refine_static(seed in 0u64..10_000, delta_off in 0i64..5) {
        use ltt_core::carriers::{dynamic_carriers, static_carriers};
        let c = small_random(seed);
        let s = c.outputs()[0];
        let delta = c.arrival_times()[s.index()] - delta_off * 10;
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(delta)));
        if nw.reach_fixpoint() == FixpointResult::Contradiction {
            return Ok(());
        }
        let dynamic = dynamic_carriers(&c, nw.domains(), s, delta);
        let static_ = static_carriers(&c, s, delta);
        for net in c.net_ids() {
            if let Some(dk) = dynamic[net.index()] {
                let sk = static_[net.index()];
                prop_assert!(
                    sk.is_some(),
                    "net {} dynamic but not static",
                    c.net(net).name()
                );
                prop_assert!(
                    dk <= sk.unwrap(),
                    "net {}: dynamic distance {dk} exceeds static {}",
                    c.net(net).name(),
                    sk.unwrap()
                );
            }
        }
    }
}
