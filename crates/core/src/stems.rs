//! Stem correlation (§5): partial correlation on reconvergent fanout stems.
//!
//! For a stem `Y`, the domains are recomputed twice — once with `Y`
//! restricted to class 0 and once to class 1 — and every net's domain is
//! replaced by the (abstract) union of the two results. The union still
//! contains every solution (each solution has `Y` settling to one of the
//! classes), so the step is sound, while removing waveforms that are
//! incompatible with *both* classes — pessimism that no local projection
//! can see. No decision is taken.
//!
//! The union is sparse. Each branch keeps only its *delta*: the nets it
//! changed, read off the trail since the branch checkpoint, with their
//! branch-final domains. A net changed by one branch only unions back to
//! its live domain (the branch value is a subset of it), so only nets
//! changed by both branches — or, when one branch dies, every net changed
//! by the survivor — are narrowed, in ascending net order, exactly as a
//! dense per-net loop would narrow them.

use crate::carriers::fixpoint_with_dominators;
use crate::solver::{FixpointResult, Narrower};
use ltt_netlist::NetId;
use ltt_waveform::{Level, Signal};

/// Statistics from a stem-correlation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StemStats {
    /// Stems processed.
    pub stems: u64,
    /// Stems whose correlation narrowed at least one domain.
    pub effective_stems: u64,
    /// Split branches that turned out contradictory.
    pub dead_branches: u64,
}

impl StemStats {
    /// Per-field saturating sum (aggregation must never panic).
    pub fn saturating_add(&self, other: &StemStats) -> StemStats {
        StemStats {
            stems: self.stems.saturating_add(other.stems),
            effective_stems: self.effective_stems.saturating_add(other.effective_stems),
            dead_branches: self.dead_branches.saturating_add(other.dead_branches),
        }
    }
}

/// Selects the correlation candidates: reconvergent fanout stems that are
/// dynamic carriers of the check (the paper's selection rule), ordered by
/// decreasing dynamic distance (stems furthest from the output first, so
/// their narrowing feeds the later ones).
///
/// `mask[n.index()]` must say whether net `n` is a reconvergent fanout
/// stem: [`Circuit::reconvergent_stems`](ltt_netlist::Circuit::reconvergent_stems),
/// cached per circuit as
/// [`CheckSession::stem_candidates`](crate::CheckSession::stem_candidates).
///
/// # Panics
///
/// Panics if `mask.len()` is smaller than the circuit's net count.
pub fn correlation_stems_masked(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    mask: &[bool],
) -> Vec<NetId> {
    let circuit = nw.circuit();
    assert!(mask.len() >= circuit.num_nets(), "one mask bit per net");
    nw.refresh_carriers(s, delta);
    let carriers = nw.kernel().carriers();
    let mut stems: Vec<(i64, NetId)> = circuit
        .net_ids()
        .filter(|&n| {
            carriers[n.index()].is_some() && mask[n.index()] && nw.domain(n).fixed_class().is_none()
        })
        .map(|n| (carriers[n.index()].expect("carrier"), n))
        .collect();
    stems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    stems.into_iter().map(|(_, n)| n).collect()
}

/// Runs one stem-correlation pass over the given stems.
///
/// Each stem is split by class; each branch is narrowed to its fixpoint
/// (including dominator implications when `use_dominators` is set); the
/// per-net union of the branch results is intersected back into the live
/// domains, and the queue is run again before the next stem.
///
/// Returns [`FixpointResult::Contradiction`] if both branches of some stem
/// die (no violation possible) or the re-propagation finds a conflict.
///
/// If an attached budget trips mid-pass the current stem's split is rolled
/// back and [`FixpointResult::Interrupted`] is returned: the live domains
/// are then exactly the state after the last completed stem — still a
/// sound superset of the fixpoint.
pub fn stem_correlation(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    stems: &[NetId],
    use_dominators: bool,
    stats: &mut StemStats,
) -> FixpointResult {
    // Each branch's changed nets, reused across stems: `(net,
    // branch-final domain)` in ascending net order.
    let mut zero: Vec<(NetId, Signal)> = Vec::new();
    let mut one: Vec<(NetId, Signal)> = Vec::new();
    for &stem in stems {
        if nw.domain(stem).fixed_class().is_some() {
            continue; // became fixed through an earlier stem's narrowing
        }
        stats.stems += 1;
        let Ok(zero_alive) = branch(nw, s, delta, stem, Level::Zero, use_dominators, &mut zero)
        else {
            return FixpointResult::Interrupted;
        };
        let Ok(one_alive) = branch(nw, s, delta, stem, Level::One, use_dominators, &mut one) else {
            return FixpointResult::Interrupted;
        };
        stats.dead_branches += u64::from(!zero_alive) + u64::from(!one_alive);
        let mut changed = false;
        match (zero_alive, one_alive) {
            (false, false) => return FixpointResult::Contradiction,
            (true, false) | (false, true) => {
                let survivor = if zero_alive { &zero } else { &one };
                for &(net, domain) in survivor {
                    changed |= nw.narrow_net(net, domain);
                }
            }
            (true, true) => {
                // Merge-join the two ascending deltas: only nets both
                // branches changed can narrow.
                let mut rest = one.as_slice();
                for &(net, d0) in &zero {
                    while rest.first().is_some_and(|&(n, _)| n < net) {
                        rest = &rest[1..];
                    }
                    if let Some(&(n, d1)) = rest.first() {
                        if n == net {
                            changed |= nw.narrow_net(net, d0.union(d1));
                        }
                    }
                }
            }
        }
        if changed {
            stats.effective_stems += 1;
            match fixpoint_with_dominators(nw, s, delta, use_dominators) {
                FixpointResult::Contradiction => return FixpointResult::Contradiction,
                FixpointResult::Interrupted => return FixpointResult::Interrupted,
                FixpointResult::Fixpoint => {}
            }
        }
    }
    FixpointResult::Fixpoint
}

/// One split branch of `stem`: restricts it to `level`, narrows to the
/// fixpoint, records the nets it changed with their branch-final domains
/// into `changed` (sorted by net) and rolls back. `Ok(true)` = narrowed
/// fixpoint, `Ok(false)` = dead (contradictory), `Err(())` = interrupted.
fn branch(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    stem: NetId,
    level: Level,
    use_dominators: bool,
    changed: &mut Vec<(NetId, Signal)>,
) -> Result<bool, ()> {
    let mark = nw.checkpoint();
    let restriction = nw.domain(stem).restrict_to_class(level);
    nw.narrow_net(stem, restriction);
    let result = match fixpoint_with_dominators(nw, s, delta, use_dominators) {
        FixpointResult::Contradiction => Ok(false),
        FixpointResult::Fixpoint => {
            changed.clear();
            changed.extend(nw.changed_since(mark).map(|n| (n, nw.domain(n))));
            changed.sort_unstable_by_key(|&(n, _)| n);
            Ok(true)
        }
        FixpointResult::Interrupted => Err(()),
    };
    nw.rollback(mark);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    use ltt_waveform::Time;

    fn d10() -> DelayInterval {
        DelayInterval::fixed(10)
    }

    /// A conflict circuit that needs a stem split: s = OR(AND(y, a_late),
    /// AND(¬y, b_late)) where a_late is sensitized only if y settles 0 and
    /// b_late only if y settles 1. Each split branch kills the check;
    /// the unsplit system cannot see it.
    fn conflict_mux() -> (ltt_netlist::Circuit, NetId, NetId) {
        let mut b = CircuitBuilder::new("conflict");
        let y = b.input("y");
        let xa = b.input("xa");
        let xb = b.input("xb");
        // a-chain: long path from xa, transparent only when y settles 0.
        let a1 = b.gate("a1", GateKind::Or, &[xa, y], d10());
        let a2 = b.gate("a2", GateKind::And, &[a1, xa], d10());
        let a3 = b.gate("a3", GateKind::Or, &[a2, y], d10());
        // b-chain: long path from xb, transparent only when y settles 1.
        let ny = b.gate("ny", GateKind::Not, &[y], d10());
        let b1 = b.gate("b1", GateKind::Or, &[xb, ny], d10());
        let b2 = b.gate("b2", GateKind::And, &[b1, xb], d10());
        let b3 = b.gate("b3", GateKind::Or, &[b2, ny], d10());
        // Mux by y.
        let m1 = b.gate("m1", GateKind::And, &[a3, y], d10());
        let m2 = b.gate("m2", GateKind::And, &[b3, ny], d10());
        let s = b.gate("s", GateKind::Or, &[m1, m2], d10());
        b.mark_output(s);
        let c = b.build().unwrap();
        let yn = c.net_by_name("y").unwrap();
        let sn = c.net_by_name("s").unwrap();
        (c, yn, sn)
    }

    #[test]
    fn stem_selection_prefers_carriers() {
        let (c, y, s) = conflict_mux();
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(1)));
        nw.reach_fixpoint();
        let stems = correlation_stems_masked(&mut nw, s, 1, &c.reconvergent_stems());
        assert!(stems.contains(&y), "y is a reconvergent carrier stem");
    }

    #[test]
    fn correlation_proves_the_oracle_bound() {
        // Ground truth from the exhaustive floating-mode oracle: narrowing
        // + dominators + stem correlation must prove no violation at
        // exact + 1, and must NOT prove one at exact.
        let (c, _y, s) = conflict_mux();
        let exact = ltt_sta::exhaustive_floating_delay(&c, s)
            .expect("small cone")
            .delay;
        assert!(exact < c.topological_delay(), "circuit has a false path");
        for (delta, expect_contradiction) in [(exact + 1, true), (exact, false)] {
            let mut nw = Narrower::new(&c);
            for &i in c.inputs() {
                nw.narrow_net(i, Signal::floating_input());
            }
            nw.narrow_net(s, Signal::violation(Time::new(delta)));
            let mut r = fixpoint_with_dominators(&mut nw, s, delta, true);
            if r == FixpointResult::Fixpoint {
                let stems = correlation_stems_masked(&mut nw, s, delta, &c.reconvergent_stems());
                let mut stats = StemStats::default();
                r = stem_correlation(&mut nw, s, delta, &stems, true, &mut stats);
            }
            if expect_contradiction {
                assert_eq!(r, FixpointResult::Contradiction, "δ = {delta}");
            } else {
                assert_eq!(r, FixpointResult::Fixpoint, "δ = {delta}");
            }
        }
    }

    #[test]
    fn correlation_is_sound_on_satisfiable_checks() {
        // On the figure-1 circuit at δ = 60 (violation exists), stem
        // correlation must not produce a contradiction.
        let c = ltt_netlist::generators::figure1(10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(60)));
        assert_eq!(
            fixpoint_with_dominators(&mut nw, s, 60, true),
            FixpointResult::Fixpoint
        );
        let stems = correlation_stems_masked(&mut nw, s, 60, &c.reconvergent_stems());
        let mut stats = StemStats::default();
        let r = stem_correlation(&mut nw, s, 60, &stems, true, &mut stats);
        assert_eq!(r, FixpointResult::Fixpoint);
    }
}
