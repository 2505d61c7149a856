//! Static and dynamic carriers and timing dominators (§4).
//!
//! A net can only *cause* a violation of the timing check `σ = (ξ, s, δ)`
//! if a long-enough path connects it to `s` (static carriers, Def. 4) and —
//! after narrowing — if its current domain still allows a transition late
//! enough to reach `s`'s last-transition interval (dynamic carriers,
//! Def. 7). Every violation-carrying path lies inside the carrier circuit,
//! so the nets on *all* its paths (the dominators of the reversed carrier
//! DAG, Defs. 6/9) must themselves transition at or after `δ − distance`
//! (Lemma 3 / Theorem 3), which Corollary 1 turns into a sound global
//! narrowing: the **global implication on timing dominators** (G.I.T.D.)
//! that the paper's Table 1 evaluates.

use ltt_netlist::{Circuit, GateId, NetId};
use ltt_waveform::{Signal, Time};

/// Carrier distances: `distance[net] = Some(k)` iff the net is a carrier
/// with (dynamic or static) distance `k` — the longest time a transition
/// there can take to reach the checked output.
pub type CarrierDistances = Vec<Option<i64>>;

/// Computes the *static* carriers of `(ξ, s, δ)` and their distances
/// `top_{x→s}` (Definition 4: nets on some input→s path of length ≥ δ).
pub fn static_carriers(circuit: &Circuit, s: NetId, delta: i64) -> CarrierDistances {
    let arrival = circuit.arrival_times();
    let to_s = circuit.longest_to(s);
    circuit
        .net_ids()
        .map(|x| match to_s[x.index()] {
            Some(dist) if arrival[x.index()] + dist >= delta => Some(dist),
            _ => None,
        })
        .collect()
}

/// Computes the *dynamic* carriers of `(ξ, s, δ)` and their dynamic
/// distances (Definitions 7–8), from the current domains.
///
/// `s` is a 0-dynamic-carrier if its domain is non-empty; an input `x` of a
/// gate (max delay `d`) driving a `k`-carrier is a `(k + d)`-carrier
/// provided its domain still allows a transition at or after `δ − (k + d)`.
/// The distance recorded is the maximum over paths, computed in one
/// reverse-topological sweep — the [`DominatorKernel`]'s own sweep, into a
/// fresh buffer.
pub fn dynamic_carriers(
    circuit: &Circuit,
    domains: &[Signal],
    s: NetId,
    delta: i64,
) -> CarrierDistances {
    let mut sweep = Sweep::default();
    sweep_carriers(circuit, domains, s, delta, &mut sweep);
    sweep.dist
}

/// The timing dominators of the carrier circuit: nets lying on **every**
/// carrier path from `s` to the carrier inputs (Definitions 6/9), ordered
/// from `s` outwards (so `d_0 = s`).
///
/// The carrier circuit is reversed into a single-source DAG Ψ′ (source
/// `s`, sink **T** fed by every dead-end carrier) and the dominator chain
/// of **T** is read off. This runs the [`DominatorKernel`]'s chain
/// computation on a throwaway kernel.
pub fn timing_dominators(circuit: &Circuit, carriers: &CarrierDistances, s: NetId) -> Vec<NetId> {
    let mut kernel = DominatorKernel::new(circuit);
    kernel.compute_chain(circuit, carriers, s);
    kernel.chain
}

/// The result of one carrier sweep.
#[derive(Debug, Default, PartialEq)]
struct Sweep {
    /// The dynamic carrier distances.
    dist: CarrierDistances,
    /// The gates driving a carrier, in reverse topological order.
    gates: Vec<GateId>,
}

/// One reverse-topological sweep computing the dynamic carriers of
/// `(ξ, s, δ)` (see [`dynamic_carriers`]) and the gates driving them.
fn sweep_carriers(circuit: &Circuit, domains: &[Signal], s: NetId, delta: i64, out: &mut Sweep) {
    let Sweep { dist, gates } = out;
    dist.clear();
    dist.resize(circuit.num_nets(), None);
    gates.clear();
    if domains[s.index()].is_empty() {
        return;
    }
    dist[s.index()] = Some(0);
    for &gid in circuit.topo_gates().iter().rev() {
        let gate = circuit.gate(gid);
        let Some(k) = dist[gate.output().index()] else {
            continue;
        };
        gates.push(gid);
        let cand = k + i64::from(gate.dmax());
        let late = Time::new(delta - cand);
        for &x in gate.inputs() {
            if dist[x.index()].is_none_or(|cur| cand > cur)
                && domains[x.index()].can_transition_at_or_after(late)
            {
                dist[x.index()] = Some(cand);
            }
        }
    }
}

/// Vertex id meaning "no immediate dominator yet" in the kernel's scratch.
const UNSET: u32 = u32::MAX;

/// The search kernel of the dominator step: the dynamic carriers and
/// timing dominators of one check, kept up to date across narrowings,
/// checkpoints and rollbacks with reusable buffers.
///
/// A [`Narrower`] owns one, created on its first dominator step (see
/// [`Narrower::dominator_kernel`]), so a check refuted by plain narrowing
/// never allocates it. Every refresh is exact — the carriers and chain it
/// exposes always equal a fresh [`dynamic_carriers`] +
/// [`timing_dominators`] on the current domains — and cheap when little
/// changed:
///
/// * the carriers are recomputed only when `(s, δ)` changed, or the
///   narrower rolled back or narrowed a current carrier since the last
///   sweep (the narrower's `carriers_stale` bit). The skip is exact:
///   narrowing a non-carrier never makes any net a carrier, and carrier
///   distances propagate only through carriers;
/// * the dominator chain is recomputed only when the *set* of carriers
///   changed: the reversed carrier DAG Ψ′, and therefore its dominators,
///   depends on which nets are carriers, not on their distances.
///
/// The chain itself is computed without per-call allocation: carriers are
/// numbered in reverse topological order (a topological order of Ψ′), and
/// each carrier pushes itself into the running immediate dominator of its
/// carrier inputs — the nearest common ancestor of a vertex's
/// predecessors, which does not depend on the order they arrive in.
#[derive(Debug, Default)]
pub struct DominatorKernel {
    /// Nets in reverse topological order: gate outputs in reverse
    /// topological gate order, then the primary inputs in reverse.
    rev_nets: Vec<NetId>,
    /// The current dynamic carriers.
    carriers: Sweep,
    /// The sweep buffer, swapped with `carriers` after each sweep.
    next: Sweep,
    /// `(s, δ)` the carriers were computed for.
    key: Option<(NetId, i64)>,
    /// Timing dominators of the current carrier set, `s` outwards.
    chain: Vec<NetId>,
    /// Whether `chain` belongs to the current carrier set.
    chain_fresh: bool,
    /// Ψ′ vertex id per carrier net (valid for current carriers only).
    slot: Vec<u32>,
    /// Carrier nets by Ψ′ vertex id.
    order: Vec<NetId>,
    /// Immediate dominator per Ψ′ vertex, plus the sink **T** last.
    idom: Vec<u32>,
}

impl DominatorKernel {
    /// An empty kernel for `circuit`: buffers sized once, nothing computed.
    pub(crate) fn new(circuit: &Circuit) -> Self {
        let mut rev_nets: Vec<NetId> = circuit
            .topo_gates()
            .iter()
            .rev()
            .map(|&g| circuit.gate(g).output())
            .collect();
        rev_nets.extend(circuit.inputs().iter().rev());
        DominatorKernel {
            rev_nets,
            slot: vec![UNSET; circuit.num_nets()],
            ..DominatorKernel::default()
        }
    }

    /// Brings the carriers up to date for `(s, δ)` on `domains`. Skips the
    /// sweep when the check is the same and the carriers are not `stale`
    /// (no rollback and no narrowed carrier since the last sweep); keeps
    /// the chain when the sweep leaves the carrier set unchanged.
    pub(crate) fn refresh_carriers(
        &mut self,
        circuit: &Circuit,
        domains: &[Signal],
        stale: bool,
        s: NetId,
        delta: i64,
    ) {
        if !stale && self.key == Some((s, delta)) {
            #[cfg(debug_assertions)]
            {
                sweep_carriers(circuit, domains, s, delta, &mut self.next);
                assert!(
                    self.next == self.carriers,
                    "a skipped sweep changes the carriers"
                );
            }
            return;
        }
        sweep_carriers(circuit, domains, s, delta, &mut self.next);
        let (next, current) = (&self.next.dist, &self.carriers.dist);
        let same_set = self.key.is_some_and(|(ks, ..)| ks == s)
            && next
                .iter()
                .zip(current)
                .all(|(a, b)| a.is_some() == b.is_some());
        self.chain_fresh &= same_set;
        std::mem::swap(&mut self.carriers, &mut self.next);
        self.key = Some((s, delta));
    }

    /// Recomputes the chain for the check's output `s` if the last
    /// carrier refresh changed the carrier set.
    pub(crate) fn refresh_chain(&mut self, circuit: &Circuit, s: NetId) {
        if !self.chain_fresh {
            let carriers = std::mem::take(&mut self.carriers.dist);
            self.compute_chain(circuit, &carriers, s);
            self.carriers.dist = carriers;
            self.chain_fresh = true;
        }
    }

    /// The dynamic carrier distances at the last refresh.
    pub fn carriers(&self) -> &CarrierDistances {
        &self.carriers.dist
    }

    /// The gates whose output is a carrier at the last refresh, in
    /// reverse topological order.
    pub fn carrier_gates(&self) -> &[GateId] {
        &self.carriers.gates
    }

    /// The timing dominators at the last refresh, `s` outwards.
    ///
    /// # Panics
    ///
    /// Panics if the last refresh updated only the carriers and they no
    /// longer form the set the chain was computed for.
    pub fn dominators(&self) -> &[NetId] {
        assert!(self.chain_fresh, "dominator chain is stale");
        &self.chain
    }

    /// Corollary 1 for the current chain: `(net, lmin)` pairs meaning
    /// "intersect the net's domain with waveforms transitioning at or
    /// after `lmin = δ − distance`".
    pub fn narrowings(&self, delta: i64) -> impl Iterator<Item = (NetId, Time)> + '_ {
        self.dominators().iter().map(move |&d| {
            let k = self.carriers.dist[d.index()].expect("dominators are carriers");
            (d, Time::new(delta - k))
        })
    }

    /// Computes the timing dominators of `carriers` into `self.chain`.
    fn compute_chain(&mut self, circuit: &Circuit, carriers: &[Option<i64>], s: NetId) {
        self.chain.clear();
        if carriers[s.index()].is_none() {
            return;
        }
        // Ψ′ vertices: carriers in reverse circuit-topological order (s is
        // topologically last among carriers, hence vertex 0), then T.
        self.order.clear();
        for &net in &self.rev_nets {
            if carriers[net.index()].is_some() {
                self.slot[net.index()] = self.order.len() as u32;
                self.order.push(net);
            }
        }
        debug_assert_eq!(self.order.first(), Some(&s), "s is the deepest carrier");
        let t = self.order.len();
        self.idom.clear();
        self.idom.resize(t + 1, UNSET);
        self.idom[0] = 0;
        for v in 0..t {
            if self.idom[v] == UNSET {
                continue; // unreachable from s (never, for dynamic carriers)
            }
            let v = v as u32;
            // Ψ′ edges y → x for every carrier input x of y's driver; a
            // carrier with none (a carrier input of Ψ) is a dead end
            // feeding T.
            let mut dead_end = true;
            if let Some(driver) = circuit.net(self.order[v as usize]).driver() {
                for &x in circuit.gate(driver).inputs() {
                    if carriers[x.index()].is_some() {
                        dead_end = false;
                        let xv = self.slot[x.index()] as usize;
                        self.idom[xv] = meet(&self.idom, self.idom[xv], v);
                    }
                }
            }
            if dead_end {
                self.idom[t] = meet(&self.idom, self.idom[t], v);
            }
        }
        // T's strict dominators, read from T back to s, then reversed to
        // run s-outward.
        let mut v = self.idom[t];
        if v == UNSET {
            return;
        }
        loop {
            self.chain.push(self.order[v as usize]);
            if v == 0 {
                break;
            }
            v = self.idom[v as usize];
        }
        self.chain.reverse();
    }
}

/// Folds predecessor `p` into a vertex's running immediate dominator
/// `acc`: their nearest common ancestor in the dominator tree built so far
/// (Cooper–Harvey–Kennedy `intersect`). Vertex ids are a topological order,
/// so every immediate dominator has a smaller id than its vertex.
fn meet(idom: &[u32], acc: u32, p: u32) -> u32 {
    if acc == UNSET {
        return p;
    }
    let (mut a, mut b) = (acc, p);
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
        }
    }
    a
}

use crate::solver::{FixpointResult, Narrower};

/// The `evaluate` loop of the paper's Fig. 4: run the event queue to a
/// fixpoint, then (if `use_dominators`) compute the dynamic timing
/// dominators and apply the Corollary 1 narrowings; repeat until neither
/// step changes anything.
///
/// The dominator step runs on the narrower's [`DominatorKernel`], which
/// reuses the previous chain when the carrier set is unchanged. The
/// Corollary 1 narrowings are re-applied on every turn all the same: a
/// rollback since the chain was computed may have undone them.
///
/// Returns the final [`FixpointResult`]; on
/// [`FixpointResult::Contradiction`] no violation of `(ξ, s, δ)` is
/// possible. [`FixpointResult::Interrupted`] (an attached budget tripped)
/// is passed straight through: the domains are then a superset of the
/// fixpoint and the dominator step would be wasted work.
pub fn fixpoint_with_dominators(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    use_dominators: bool,
) -> FixpointResult {
    loop {
        match nw.reach_fixpoint() {
            FixpointResult::Contradiction => return FixpointResult::Contradiction,
            FixpointResult::Interrupted => return FixpointResult::Interrupted,
            FixpointResult::Fixpoint => {}
        }
        if !use_dominators || !nw.apply_dominator_narrowings(s, delta) {
            return FixpointResult::Fixpoint;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::generators::{carry_skip_adder, cascade, figure1};
    use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};

    #[test]
    fn static_carriers_of_cascade_are_everything_at_top() {
        let c = cascade(GateKind::And, 3, 10);
        let s = c.outputs()[0];
        let carriers = static_carriers(&c, s, 30);
        // Only the e0 → n1 → n2 → n3 spine is on a 30-path; side inputs
        // e2, e3 arrive too late to start one… actually e1 feeds n1: path
        // e1→n1→n2→n3 has length 30 too. e3 feeds n3: length 10.
        let e0 = c.net_by_name("e0").unwrap();
        let e3 = c.net_by_name("e3").unwrap();
        assert_eq!(carriers[e0.index()], Some(30));
        assert_eq!(carriers[e3.index()], None);
        assert_eq!(carriers[s.index()], Some(0));
    }

    #[test]
    fn cascade_dominators_are_the_spine() {
        let c = cascade(GateKind::And, 3, 10);
        let s = c.outputs()[0];
        let carriers = static_carriers(&c, s, 30);
        let doms = timing_dominators(&c, &carriers, s);
        // Every 30-path runs through the whole spine: n1, n2, n3 (= s).
        let names: Vec<&str> = doms.iter().map(|&n| c.net(n).name()).collect();
        assert_eq!(names, vec!["n3", "n2", "n1"]);
    }

    #[test]
    fn figure1_static_carriers_at_61() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let carriers = static_carriers(&c, s, 61);
        // Only the 70-path nets qualify: e1, e2, n1..n4, n6, n7, s.
        for name in ["n1", "n2", "n3", "n4", "n6", "n7", "s", "e1", "e2"] {
            let n = c.net_by_name(name).unwrap();
            assert!(carriers[n.index()].is_some(), "{name} should be a carrier");
        }
        for name in ["n5", "e3", "e4", "e5", "e6", "e7"] {
            let n = c.net_by_name(name).unwrap();
            assert!(
                carriers[n.index()].is_none(),
                "{name} should not be a carrier"
            );
        }
        // Distances along the single chain.
        let n4 = c.net_by_name("n4").unwrap();
        assert_eq!(carriers[n4.index()], Some(30));
    }

    #[test]
    fn figure1_dominators_are_the_false_path() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let carriers = static_carriers(&c, s, 61);
        let doms = timing_dominators(&c, &carriers, s);
        let names: Vec<&str> = doms.iter().map(|&n| c.net(n).name()).collect();
        // The unique > 60 path is a chain: every net on it dominates.
        assert_eq!(names, vec!["s", "n7", "n6", "n4", "n3", "n2", "n1"]);
    }

    #[test]
    fn dynamic_carriers_respect_domains() {
        let c = figure1(10);
        let s = c.outputs()[0];
        // With full domains, dynamic carriers at δ=61 match the static ones
        // on the spine (domains allow any transition).
        let domains = vec![Signal::FULL; c.num_nets()];
        let dyn_c = dynamic_carriers(&c, &domains, s, 61);
        let stat_c = static_carriers(&c, s, 61);
        // Statically the spine nets carry; dynamically with FULL domains
        // even more nets qualify (no settling bounds yet), but the spine
        // must be included.
        for (i, st) in stat_c.iter().enumerate() {
            if st.is_some() {
                assert!(dyn_c[i].is_some());
            }
        }
        // Restricting inputs to floating mode removes the too-early nets
        // once settle bounds are propagated — covered in check-level tests.
    }

    #[test]
    fn dynamic_carriers_empty_when_output_dead() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut domains = vec![Signal::FULL; c.num_nets()];
        domains[s.index()] = Signal::EMPTY;
        let dyn_c = dynamic_carriers(&c, &domains, s, 61);
        assert!(dyn_c.iter().all(|d| d.is_none()));
    }

    #[test]
    fn carry_skip_dominators_cross_blocks() {
        // The paper's Figure 2 argument: all paths to the last carry longer
        // than δ−1 contain the previous block-carry nets.
        let c = carry_skip_adder(8, 4, 10);
        let cout = c.net_by_name("cout").unwrap();
        let top = c.arrival_times()[cout.index()];
        let carriers = static_carriers(&c, cout, top);
        let doms = timing_dominators(&c, &carriers, cout);
        let names: Vec<&str> = doms.iter().map(|&n| c.net(n).name()).collect();
        // The block-boundary carries C1 (and the final C2) dominate.
        assert!(names.contains(&"C1"), "dominators: {names:?}");
    }

    #[test]
    fn reconvergence_removes_dominators() {
        // Diamond: a → {p, q} → y; p and q do not dominate, a and y do.
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], DelayInterval::fixed(10));
        let q = b.gate("q", GateKind::Buffer, &[a], DelayInterval::fixed(10));
        let y = b.gate("y", GateKind::And, &[p, q], DelayInterval::fixed(10));
        b.mark_output(y);
        let c = b.build().unwrap();
        let carriers = static_carriers(&c, y, 20);
        let doms = timing_dominators(&c, &carriers, y);
        let names: Vec<&str> = doms.iter().map(|&n| c.net(n).name()).collect();
        assert_eq!(names, vec!["y", "a"]);
    }

    #[test]
    fn dominator_narrowings_use_delta_minus_distance() {
        let c = cascade(GateKind::And, 3, 10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        let kernel = nw.dominator_kernel(s, 30);
        assert!(!kernel.dominators().is_empty());
        for (net, lmin) in kernel.narrowings(30) {
            let k = kernel.carriers()[net.index()].unwrap();
            assert_eq!(lmin, Time::new(30 - k));
        }
    }

    #[test]
    fn kernel_matches_fresh_computation_across_rollback() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.reach_fixpoint();
        let fresh = |nw: &Narrower| {
            let carriers = dynamic_carriers(&c, nw.domains(), s, 60);
            let doms = timing_dominators(&c, &carriers, s);
            (carriers, doms)
        };
        let check = |nw: &mut Narrower| {
            let expect = fresh(nw);
            let kernel = nw.dominator_kernel(s, 60);
            assert_eq!(kernel.carriers(), &expect.0);
            assert_eq!(kernel.dominators(), expect.1.as_slice());
        };
        check(&mut nw);
        let mark = nw.checkpoint();
        nw.narrow_net(s, Signal::violation(Time::new(60)));
        nw.reach_fixpoint();
        check(&mut nw);
        nw.rollback(mark);
        check(&mut nw);
    }
}
