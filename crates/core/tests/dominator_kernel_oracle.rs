//! Oracle tests for the search kernel of the dominator step.
//!
//! * The narrower's [`DominatorKernel`](ltt_core::carriers::DominatorKernel)
//!   reuses its carriers and dominator chain across narrowings,
//!   checkpoints and rollbacks. After every step of a random sequence its
//!   carriers and chain must equal a fresh computation on a copy of the
//!   domains — both through the public wrappers and through the slow
//!   reference below (explicit predecessor lists + `Dominators::compute`).
//! * The kernel skips its carrier sweep while the narrower has neither
//!   rolled back nor narrowed a carrier. Narrowings aimed at carrier and
//!   non-carrier nets, several between refreshes, under nested
//!   checkpoints and rollbacks, must leave every refresh equal to a fresh
//!   computation: carriers, carrier gates and dominator chain.
//! * Stem correlation unions only the nets its branches changed. It must
//!   reach the same verdict, statistics, effort and domains as the dense
//!   per-net union below, and narrow the live domains in the same order.

use ltt_core::carriers::{dynamic_carriers, fixpoint_with_dominators, timing_dominators};
use ltt_core::stems::stem_correlation;
use ltt_core::{FixpointResult, ImplicationTable, Narrower, SignalStore, StemStats};
use ltt_netlist::dominators::Dominators;
use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
use ltt_netlist::{Circuit, GateId, NetId};
use ltt_waveform::{Aw, Level, Signal, Time};
use proptest::prelude::*;
use std::sync::Arc;

fn small_random(seed: u64) -> Circuit {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 6,
        num_gates: 28,
        num_outputs: 2,
        max_fanin: 3,
        depth_bias: 3,
        delay: 10,
        seed,
    })
}

/// The pre-kernel timing dominators: reversed carrier DAG with explicit
/// predecessor lists, dominators of the sink by `Dominators::compute`.
fn reference_dominators(c: &Circuit, carriers: &[Option<i64>], s: NetId) -> Vec<NetId> {
    if carriers[s.index()].is_none() {
        return Vec::new();
    }
    let mut net_topo: Vec<NetId> = c.inputs().to_vec();
    net_topo.extend(c.topo_gates().iter().map(|&g| c.gate(g).output()));
    let mut order = Vec::new();
    let mut slot = vec![usize::MAX; c.num_nets()];
    for &net in net_topo.iter().rev() {
        if carriers[net.index()].is_some() {
            slot[net.index()] = order.len();
            order.push(net);
        }
    }
    let t = order.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); t + 1];
    for (yi, &y) in order.iter().enumerate() {
        let carrier_inputs: Vec<NetId> = c.net(y).driver().map_or_else(Vec::new, |g| {
            c.gate(g)
                .inputs()
                .iter()
                .copied()
                .filter(|x| carriers[x.index()].is_some())
                .collect()
        });
        for x in &carrier_inputs {
            preds[slot[x.index()]].push(yi);
        }
        if carrier_inputs.is_empty() {
            preds[t].push(yi);
        }
    }
    let topo: Vec<usize> = (0..=t).collect();
    let mut chain = Dominators::compute(&preds, 0, &topo).chain(t);
    chain.reverse();
    chain.pop();
    chain.into_iter().map(|v| order[v]).collect()
}

fn arb_signal() -> impl Strategy<Value = Signal> {
    let bound = prop_oneof![
        Just(Time::NEG_INF),
        (0i64..80).prop_map(Time::new),
        Just(Time::POS_INF),
    ];
    let aw = (bound.clone(), bound).prop_map(|(a, b)| Aw::new(a, b));
    (aw.clone(), aw).prop_map(|(z, o)| Signal::new(z, o))
}

#[derive(Clone, Debug)]
enum Op {
    Narrow(usize, Signal),
    Restrict(usize, bool),
    Fixpoint,
    Checkpoint,
    Rollback,
    /// Switch the check to output `o` at `δ = top + offset`.
    Retarget(usize, i64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..64, arb_signal()).prop_map(|(n, s)| Op::Narrow(n, s)),
            3 => (0usize..64, any::<bool>()).prop_map(|(n, v)| Op::Restrict(n, v)),
            2 => Just(Op::Fixpoint),
            2 => Just(Op::Checkpoint),
            2 => Just(Op::Rollback),
            1 => (0usize..2, -30i64..2).prop_map(|(o, d)| Op::Retarget(o, d)),
        ],
        1..50,
    )
}

#[derive(Clone, Debug)]
enum SkipOp {
    /// Narrow the `i`-th current carrier (by class, or by a signal).
    Carrier(usize, Result<bool, Signal>),
    /// Narrow the `i`-th current non-carrier (by class, or by a signal).
    Other(usize, Result<bool, Signal>),
    Fixpoint,
    Checkpoint,
    Rollback,
    Refresh,
}

fn arb_skip_ops() -> impl Strategy<Value = Vec<SkipOp>> {
    let how = prop_oneof![any::<bool>().prop_map(Ok), arb_signal().prop_map(Err)];
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..64, how.clone()).prop_map(|(i, h)| SkipOp::Carrier(i, h)),
            4 => (0usize..64, how).prop_map(|(i, h)| SkipOp::Other(i, h)),
            1 => Just(SkipOp::Fixpoint),
            2 => Just(SkipOp::Checkpoint),
            2 => Just(SkipOp::Rollback),
            3 => Just(SkipOp::Refresh),
        ],
        1..60,
    )
}

/// The gates whose output is a carrier, sorted.
fn carrier_gates(c: &Circuit, carriers: &[Option<i64>]) -> Vec<GateId> {
    c.gate_ids()
        .filter(|&g| carriers[c.gate(g).output().index()].is_some())
        .collect()
}

/// The narrower with floating inputs, at its base fixpoint.
fn floating(c: &Circuit) -> Narrower<'_> {
    let mut nw = Narrower::new(c);
    for &i in c.inputs() {
        nw.narrow_net(i, Signal::floating_input());
    }
    nw.reach_fixpoint();
    nw
}

/// The pre-kernel stem correlation: copies every branch's domains and
/// narrows every net to the per-net union.
fn dense_stem_correlation(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    stems: &[NetId],
    stats: &mut StemStats,
) -> FixpointResult {
    for &stem in stems {
        if nw.domain(stem).fixed_class().is_some() {
            continue;
        }
        stats.stems += 1;
        let branch = |nw: &mut Narrower, level: Level| {
            let mark = nw.checkpoint();
            let restriction = nw.domain(stem).restrict_to_class(level);
            nw.narrow_net(stem, restriction);
            let result = match fixpoint_with_dominators(nw, s, delta, true) {
                FixpointResult::Contradiction => Ok(None),
                FixpointResult::Fixpoint => Ok(Some(nw.domains().to_vec())),
                FixpointResult::Interrupted => Err(()),
            };
            nw.rollback(mark);
            result
        };
        let (Ok(zero), Ok(one)) = (branch(nw, Level::Zero), branch(nw, Level::One)) else {
            return FixpointResult::Interrupted;
        };
        stats.dead_branches += u64::from(zero.is_none()) + u64::from(one.is_none());
        let union: Vec<Signal> = match (&zero, &one) {
            (None, None) => return FixpointResult::Contradiction,
            (Some(d), None) | (None, Some(d)) => d.clone(),
            (Some(d0), Some(d1)) => d0.iter().zip(d1).map(|(a, b)| a.union(*b)).collect(),
        };
        let mut changed = false;
        for (i, target) in union.into_iter().enumerate() {
            changed |= nw.narrow_net(NetId::from_index(i), target);
        }
        if changed {
            stats.effective_stems += 1;
            match fixpoint_with_dominators(nw, s, delta, true) {
                FixpointResult::Fixpoint => {}
                other => return other,
            }
        }
    }
    FixpointResult::Fixpoint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every step, the kernel equals a fresh computation.
    #[test]
    fn kernel_matches_fresh_dominators(seed in 0u64..10_000, ops in arb_ops()) {
        let c = small_random(seed);
        let nets = c.num_nets();
        let top = c.topological_delay();
        let mut nw = floating(&c);
        let (mut s, mut delta) = (c.outputs()[0], top);
        let mut marks = Vec::new();
        for op in ops {
            match op {
                Op::Narrow(n, target) => {
                    nw.narrow_net(NetId::from_index(n % nets), target);
                }
                Op::Restrict(n, v) => {
                    let net = NetId::from_index(n % nets);
                    let target = nw.domain(net).restrict_to_class(Level::from_bool(v));
                    nw.narrow_net(net, target);
                }
                Op::Fixpoint => {
                    fixpoint_with_dominators(&mut nw, s, delta, true);
                }
                Op::Checkpoint => marks.push(nw.checkpoint()),
                Op::Rollback => {
                    if let Some(mark) = marks.pop() {
                        nw.rollback(mark);
                    }
                }
                Op::Retarget(o, offset) => {
                    s = c.outputs()[o % c.outputs().len()];
                    delta = top + offset;
                }
            }
            let copy = SignalStore::from_domains(nw.domains());
            let carriers = dynamic_carriers(&c, copy.all(), s, delta);
            let dominators = timing_dominators(&c, &carriers, s);
            prop_assert_eq!(&dominators, &reference_dominators(&c, &carriers, s));
            let kernel = nw.dominator_kernel(s, delta);
            prop_assert_eq!(kernel.carriers(), &carriers);
            prop_assert_eq!(kernel.dominators(), dominators.as_slice());
            for (net, lmin) in kernel.narrowings(delta) {
                let k = carriers[net.index()].expect("dominators are carriers");
                prop_assert_eq!(lmin, Time::new(delta - k));
            }
        }
    }

    /// The sparse stem union equals the dense one: verdict, statistics,
    /// effort, final domains, and the order the live domains change in.
    #[test]
    fn sparse_stem_union_matches_dense(
        seed in 0u64..10_000,
        offset in -30i64..1,
        stems in prop::collection::vec(0usize..64, 1..12),
        learned in any::<bool>(),
    ) {
        let c = small_random(seed);
        let s = c.outputs()[0];
        let delta = c.topological_delay() + offset;
        let mut base = floating(&c);
        if learned {
            base.set_implications(Arc::new(ImplicationTable::learn(&c)));
        }
        base.narrow_net(s, Signal::violation(Time::new(delta)));
        if fixpoint_with_dominators(&mut base, s, delta, true) != FixpointResult::Fixpoint {
            return Ok(()); // refuted before any stem split
        }
        let stems: Vec<NetId> = stems
            .into_iter()
            .map(|n| NetId::from_index(n % c.num_nets()))
            .collect();
        let run = |dense: bool| {
            let mut nw = Narrower::from_store(&c, SignalStore::from_domains(base.domains()));
            if learned {
                nw.set_implications(Arc::new(ImplicationTable::learn(&c)));
            }
            let mark = nw.checkpoint();
            let mut stats = StemStats::default();
            let result = if dense {
                dense_stem_correlation(&mut nw, s, delta, &stems, &mut stats)
            } else {
                stem_correlation(&mut nw, s, delta, &stems, true, &mut stats)
            };
            let order: Vec<NetId> = nw.changed_since(mark).collect();
            (result, stats, nw.stats(), nw.domains().to_vec(), order)
        };
        let sparse = run(false);
        let dense = run(true);
        prop_assert_eq!(sparse.0, dense.0);
        prop_assert_eq!(sparse.1, dense.1);
        prop_assert_eq!(sparse.2, dense.2);
        prop_assert_eq!(sparse.3, dense.3);
        prop_assert_eq!(sparse.4, dense.4);
    }
}

proptest! {
    // A learned implication that empties a carrier's only late class is
    // rare on these circuits; 512 cases reach one.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every refresh equals a fresh computation, whether the kernel swept
    /// or skipped: narrowings of non-carriers keep the carriers, and
    /// narrowings of carriers (learned implications included) or rollbacks
    /// force a sweep.
    #[test]
    fn kernel_skip_matches_fresh_carriers(
        seed in 0u64..10_000,
        offset in -30i64..1,
        ops in arb_skip_ops(),
    ) {
        let c = small_random(seed);
        let s = c.outputs()[0];
        let delta = c.topological_delay() + offset;
        let mut nw = floating(&c);
        nw.set_implications(Arc::new(ImplicationTable::learn(&c)));
        let mut marks = Vec::new();
        for op in ops {
            let fresh = dynamic_carriers(&c, nw.domains(), s, delta);
            let (carriers, others): (Vec<NetId>, Vec<NetId>) =
                c.net_ids().partition(|n| fresh[n.index()].is_some());
            match op {
                SkipOp::Carrier(i, how) | SkipOp::Other(i, how) => {
                    let pool = if matches!(op, SkipOp::Carrier(..)) { &carriers } else { &others };
                    if pool.is_empty() {
                        continue;
                    }
                    let net = pool[i % pool.len()];
                    let target = match how {
                        Ok(v) => nw.domain(net).restrict_to_class(Level::from_bool(v)),
                        Err(signal) => signal,
                    };
                    nw.narrow_net(net, target);
                }
                SkipOp::Fixpoint => {
                    nw.reach_fixpoint();
                }
                SkipOp::Checkpoint => marks.push(nw.checkpoint()),
                SkipOp::Rollback => {
                    if let Some(mark) = marks.pop() {
                        nw.rollback(mark);
                    }
                }
                SkipOp::Refresh => {
                    let dominators = timing_dominators(&c, &fresh, s);
                    let kernel = nw.dominator_kernel(s, delta);
                    prop_assert_eq!(kernel.carriers(), &fresh);
                    let mut gates = kernel.carrier_gates().to_vec();
                    gates.sort_unstable();
                    prop_assert_eq!(gates, carrier_gates(&c, &fresh));
                    prop_assert_eq!(kernel.dominators(), dominators.as_slice());
                }
            }
        }
    }
}
