//! Property tests for the trail-based selective state saving: arbitrary
//! interleavings of narrowings, checkpoints and rollbacks must restore
//! domains exactly (the correctness bedrock under backtracking, stem
//! correlation and case analysis).

use ltt_core::{Narrower, SignalStore};
use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
use ltt_netlist::NetId;
use ltt_waveform::{Aw, Signal, Time};
use proptest::prelude::*;

fn arb_signal() -> impl Strategy<Value = Signal> {
    let bound = prop_oneof![
        Just(Time::NEG_INF),
        (0i64..60).prop_map(Time::new),
        Just(Time::POS_INF),
    ];
    let aw = (bound.clone(), bound).prop_map(|(a, b)| Aw::new(a, b));
    (aw.clone(), aw).prop_map(|(z, o)| Signal::new(z, o))
}

#[derive(Clone, Debug)]
enum Op {
    Narrow(usize, Signal),
    Checkpoint,
    Rollback,
}

fn arb_ops(nets: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0..nets, arb_signal()).prop_map(|(n, s)| Op::Narrow(n, s)),
            1 => Just(Op::Checkpoint),
            1 => Just(Op::Rollback),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replay semantics: a rollback restores exactly the domains captured
    /// at the checkpoint, for arbitrary op sequences.
    #[test]
    fn rollback_restores_snapshots(seed in 0u64..1000, ops in arb_ops(12)) {
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 4,
            num_gates: 8,
            num_outputs: 1,
            max_fanin: 2,
            depth_bias: 2,
            delay: 10,
            seed,
        });
        let nets = c.num_nets();
        let mut store = SignalStore::new(&c);
        // (checkpoint, full snapshot of domains at that moment)
        let mut stack: Vec<(ltt_core::Checkpoint, Vec<Signal>)> = Vec::new();
        for op in ops {
            match op {
                Op::Narrow(n, target) => {
                    let n = n % nets;
                    let before = store.get(NetId::from_index(n));
                    let changed = store.narrow_to(NetId::from_index(n), target);
                    let after = store.get(NetId::from_index(n));
                    // Narrowing is intersection.
                    prop_assert_eq!(after, before.intersect(target));
                    prop_assert_eq!(changed, after != before);
                }
                Op::Checkpoint => {
                    stack.push((store.checkpoint(), store.all().to_vec()));
                }
                Op::Rollback => {
                    if let Some((mark, snapshot)) = stack.pop() {
                        store.rollback(mark);
                        prop_assert_eq!(store.all(), &snapshot[..]);
                        // Contradiction flag re-derived consistently.
                        prop_assert_eq!(
                            store.has_contradiction(),
                            snapshot.iter().any(|d| d.is_empty())
                        );
                    }
                }
            }
        }
        // Unwind everything: the store returns to each snapshot in order.
        while let Some((mark, snapshot)) = stack.pop() {
            store.rollback(mark);
            prop_assert_eq!(store.all(), &snapshot[..]);
        }
    }

    /// The narrower's rollback also clears pending work: after a rollback
    /// and re-fixpoint, the state is identical to never having made the
    /// rolled-back narrowing at all.
    #[test]
    fn narrower_rollback_is_transparent(seed in 0u64..1000, delta in 1i64..200) {
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 5,
            num_gates: 15,
            num_outputs: 1,
            max_fanin: 3,
            depth_bias: 3,
            delay: 10,
            seed,
        });
        let s = c.outputs()[0];

        // Reference: inputs only.
        let mut reference = Narrower::new(&c);
        for &i in c.inputs() {
            reference.narrow_net(i, Signal::floating_input());
        }
        reference.reach_fixpoint();

        // Candidate: same, then a δ-constraint that gets rolled back.
        let mut candidate = Narrower::new(&c);
        for &i in c.inputs() {
            candidate.narrow_net(i, Signal::floating_input());
        }
        candidate.reach_fixpoint();
        let mark = candidate.checkpoint();
        candidate.narrow_net(s, Signal::violation(Time::new(delta)));
        candidate.reach_fixpoint();
        candidate.rollback(mark);

        prop_assert_eq!(reference.domains(), candidate.domains());
        prop_assert_eq!(
            reference.has_contradiction(),
            candidate.has_contradiction()
        );
    }
}
