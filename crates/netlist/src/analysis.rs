//! Topological (structural) timing analysis on circuits: longest-path
//! delays `top`, `top_n`, and `top_{n1→n2}` from §2 of the paper.
//!
//! These are purely structural quantities — every path counts, sensitizable
//! or not — and provide both the conservative delay bound and the distance
//! metric used by static carriers and timing dominators.

use crate::{Circuit, NetId, Topology};
use std::sync::Arc;

impl Circuit {
    /// The topological arrival time `top_n` of every net: the length
    /// (sum of gate `d_max`) of the longest path from any primary input,
    /// indexed by [`NetId::index`]. Primary inputs arrive at 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CircuitBuilder::new("chain");
    /// let a = b.input("a");
    /// let x = b.gate("x", GateKind::Not, &[a], DelayInterval::fixed(10));
    /// let y = b.gate("y", GateKind::Not, &[x], DelayInterval::fixed(10));
    /// b.mark_output(y);
    /// let c = b.build()?;
    /// assert_eq!(c.arrival_times()[y.index()], 20);
    /// # Ok(())
    /// # }
    /// ```
    pub fn arrival_times(&self) -> Vec<i64> {
        let mut arrival = vec![0i64; self.num_nets()];
        for &gid in self.topo_gates() {
            let gate = self.gate(gid);
            let worst = gate
                .inputs()
                .iter()
                .map(|n| arrival[n.index()])
                .max()
                .unwrap_or(0);
            arrival[gate.output().index()] = worst + i64::from(gate.dmax());
        }
        arrival
    }

    /// The topological delay `top` of the circuit: the longest arrival time
    /// over the primary outputs.
    pub fn topological_delay(&self) -> i64 {
        let arrival = self.arrival_times();
        self.outputs()
            .iter()
            .map(|o| arrival[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// The longest path length `top_{n→target}` from every net to `target`,
    /// or `None` for nets with no path to `target`. `top_{target→target}`
    /// is 0.
    ///
    /// Together with [`Circuit::arrival_times`] this identifies the *static
    /// carriers* of a timing check `(ξ, s, δ)`: the nets `x` with
    /// `top_x + top_{x→s} ≥ δ` (Definition 4).
    pub fn longest_to(&self, target: NetId) -> Vec<Option<i64>> {
        let mut dist = vec![None; self.num_nets()];
        dist[target.index()] = Some(0i64);
        for &gid in self.topo_gates().iter().rev() {
            let gate = self.gate(gid);
            if let Some(d) = dist[gate.output().index()] {
                let through = d + i64::from(gate.dmax());
                for n in gate.inputs() {
                    let slot = &mut dist[n.index()];
                    if slot.is_none_or(|cur| through > cur) {
                        *slot = Some(through);
                    }
                }
            }
        }
        dist
    }

    /// The topological delay between two nets, `top_{from→to}`, or `None`
    /// if no path connects them.
    pub fn top_between(&self, from: NetId, to: NetId) -> Option<i64> {
        self.longest_to(to)[from.index()]
    }

    /// The logic depth (number of gates) of the deepest input→output path.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_nets()];
        for &gid in self.topo_gates() {
            let gate = self.gate(gid);
            let worst = gate
                .inputs()
                .iter()
                .map(|n| level[n.index()])
                .max()
                .unwrap_or(0);
            level[gate.output().index()] = worst + 1;
        }
        self.outputs()
            .iter()
            .map(|o| level[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// The set of nets in the fan-in cone of `net` (including `net`
    /// itself), as a dense boolean mask indexed by [`NetId::index`].
    pub fn fanin_cone(&self, net: NetId) -> Vec<bool> {
        let mut in_cone = vec![false; self.num_nets()];
        in_cone[net.index()] = true;
        for &gid in self.topo_gates().iter().rev() {
            let gate = self.gate(gid);
            if in_cone[gate.output().index()] {
                for n in gate.inputs() {
                    in_cone[n.index()] = true;
                }
            }
        }
        in_cone
    }

    /// Per-net mask of *reconvergent* fanout stems, indexed by
    /// [`NetId::index`]: nets with at least two readers from which two
    /// distinct paths meet again at some gate.
    ///
    /// Each stem's first 64 reader gates tag their outputs with one branch
    /// bit each, and tags flow forward in topological order. The stem
    /// reconverges at the first gate with at least two tagged inputs whose
    /// combined tag (its own included) carries at least two branches. Per
    /// stem this is one sparse forward walk: it visits only gates fed by a
    /// tagged net, in topological order, and stops at the first
    /// reconvergence. The tag plane and the pending-gate bitset are
    /// allocated once per call and reset sparsely between stems.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CircuitBuilder::new("r");
    /// let a = b.input("a");
    /// let p = b.gate("p", GateKind::Not, &[a], DelayInterval::fixed(10));
    /// let q = b.gate("q", GateKind::Buffer, &[a], DelayInterval::fixed(10));
    /// let y = b.gate("y", GateKind::And, &[p, q], DelayInterval::fixed(10));
    /// b.mark_output(y);
    /// let c = b.build()?;
    /// let stems = c.reconvergent_stems();
    /// assert!(stems[a.index()]);
    /// assert!(!stems[p.index()]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn reconvergent_stems(&self) -> Vec<bool> {
        let mut walk = StemWalk::new(self);
        self.net_ids().map(|stem| walk.reconverges(stem)).collect()
    }
}

/// Scratch state of [`Circuit::reconvergent_stems`], reused across stems.
struct StemWalk<'c> {
    circuit: &'c Circuit,
    topo: Arc<Topology>,
    /// Topological position of every gate.
    pos: Vec<u32>,
    /// Branch set per net; non-zero only on the `tagged` trail.
    tags: Vec<u64>,
    tagged: Vec<NetId>,
    /// Gates waiting to be visited, one bit per topological position;
    /// set bits lie in words `lo..=hi`.
    pending: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl<'c> StemWalk<'c> {
    fn new(circuit: &'c Circuit) -> Self {
        let mut pos = vec![0u32; circuit.num_gates()];
        for (i, g) in circuit.topo_gates().iter().enumerate() {
            pos[g.index()] = u32::try_from(i).expect("< 4G gates");
        }
        StemWalk {
            circuit,
            topo: circuit.topology(),
            pos,
            tags: vec![0; circuit.num_nets()],
            tagged: Vec::new(),
            pending: vec![0; circuit.num_gates().div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// ORs `bits` into `net`'s tag. A net tagged for the first time
    /// schedules its readers; their inputs are final by the time the
    /// topological walk reaches them.
    fn tag(&mut self, net: NetId, bits: u64) {
        if self.tags[net.index()] == 0 {
            self.tagged.push(net);
            for &r in self.circuit.net(net).readers() {
                let p = self.pos[r.index()] as usize;
                self.pending[p / 64] |= 1u64 << (p % 64);
                self.lo = self.lo.min(p / 64);
                self.hi = self.hi.max(p / 64);
            }
        }
        self.tags[net.index()] |= bits;
    }

    fn reconverges(&mut self, stem: NetId) -> bool {
        let readers = self.circuit.net(stem).readers();
        if readers.len() < 2 {
            return false;
        }
        for (b, &g) in readers.iter().enumerate().take(64) {
            self.tag(self.topo.gate_output(g), 1u64 << b);
        }
        let mut reconv = false;
        // Visits pending gates in topological order. A visit only
        // schedules later positions, so the scan never moves backwards.
        let mut w = self.lo;
        while w <= self.hi {
            let bits = self.pending[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = bits & (bits - 1);
            let g = self.circuit.topo_gates()[w * 64 + bits.trailing_zeros() as usize];
            let out = self.topo.gate_output(g);
            let mut acc = self.tags[out.index()];
            let mut arms = 0u32;
            for n in self.topo.gate_inputs(g) {
                let t = self.tags[n.index()];
                if t != 0 {
                    arms += 1;
                }
                acc |= t;
            }
            // Reconvergence at this gate: inputs reachable from ≥ 2 distinct
            // branches, or one input carrying ≥ 2 branches merged upstream
            // plus this gate seeing several arms.
            if arms >= 2 && acc.count_ones() >= 2 {
                reconv = true;
                break;
            }
            if acc != 0 {
                self.tag(out, acc);
            }
        }
        if self.lo <= self.hi {
            self.pending[self.lo..=self.hi].fill(0);
        }
        (self.lo, self.hi) = (usize::MAX, 0);
        for net in self.tagged.drain(..) {
            self.tags[net.index()] = 0;
        }
        reconv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, DelayInterval, GateKind};

    fn d(x: u32) -> DelayInterval {
        DelayInterval::fixed(x)
    }

    /// a ──not(10)── x ──not(20)── y (output), plus a ──not(5)── z (output)
    fn two_path() -> (Circuit, NetId, NetId, NetId, NetId) {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], d(10));
        let y = b.gate("y", GateKind::Not, &[x], d(20));
        let z = b.gate("z", GateKind::Not, &[a], d(5));
        b.mark_output(y);
        b.mark_output(z);
        (b.build().unwrap(), a, x, y, z)
    }

    #[test]
    fn arrival_times_are_longest_paths() {
        let (c, a, x, y, z) = two_path();
        let arr = c.arrival_times();
        assert_eq!(arr[a.index()], 0);
        assert_eq!(arr[x.index()], 10);
        assert_eq!(arr[y.index()], 30);
        assert_eq!(arr[z.index()], 5);
        assert_eq!(c.topological_delay(), 30);
    }

    #[test]
    fn longest_to_walks_backwards() {
        let (c, a, x, y, z) = two_path();
        let to_y = c.longest_to(y);
        assert_eq!(to_y[y.index()], Some(0));
        assert_eq!(to_y[x.index()], Some(20));
        assert_eq!(to_y[a.index()], Some(30));
        assert_eq!(to_y[z.index()], None);
        assert_eq!(c.top_between(a, y), Some(30));
        assert_eq!(c.top_between(z, y), None);
    }

    #[test]
    fn reconvergent_longest_to_takes_max() {
        // a fans out, reconverges at an AND; one arm longer.
        let mut b = CircuitBuilder::new("r");
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], d(10));
        let q = b.gate("q", GateKind::Not, &[p], d(10));
        let y = b.gate("y", GateKind::And, &[a, q], d(10));
        b.mark_output(y);
        let c = b.build().unwrap();
        assert_eq!(c.top_between(a, y), Some(30));
        assert_eq!(c.topological_delay(), 30);
    }

    #[test]
    fn depth_counts_gate_levels() {
        let (c, ..) = two_path();
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn fanin_cone_collects_transitive_inputs() {
        let (c, a, x, y, z) = two_path();
        let cone = c.fanin_cone(y);
        assert!(cone[y.index()] && cone[x.index()] && cone[a.index()]);
        assert!(!cone[z.index()]);
    }

    #[test]
    fn reconvergence_detection() {
        let mut b = CircuitBuilder::new("r");
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], d(10));
        let q = b.gate("q", GateKind::Buffer, &[a], d(10));
        let y = b.gate("y", GateKind::And, &[p, q], d(10));
        b.mark_output(y);
        let c = b.build().unwrap();
        let stems = c.reconvergent_stems();
        assert!(stems[a.index()]);
        assert!(!stems[p.index()]);

        // Fanout without reconvergence.
        let mut b = CircuitBuilder::new("nr");
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], d(10));
        let q = b.gate("q", GateKind::Buffer, &[a], d(10));
        b.mark_output(p);
        b.mark_output(q);
        let c = b.build().unwrap();
        assert!(!c.reconvergent_stems()[a.index()]);
    }
}

impl Circuit {
    /// Earliest possible transition time per net, using the gates'
    /// **minimum** delays: the length of the *shortest* input→net path
    /// (sum of `d_min`). The dual of [`Circuit::arrival_times`], used by
    /// hold-style ("can it transition too early?") checks.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CircuitBuilder::new("e");
    /// let a = b.input("a");
    /// let x = b.input("x");
    /// let fast = b.gate("fast", GateKind::And, &[a, x], DelayInterval::new(2, 10));
    /// let y = b.gate("y", GateKind::Or, &[fast, a], DelayInterval::new(3, 10));
    /// b.mark_output(y);
    /// let c = b.build()?;
    /// assert_eq!(c.earliest_arrival_times()[y.index()], 3); // via the direct a edge
    /// # Ok(())
    /// # }
    /// ```
    pub fn earliest_arrival_times(&self) -> Vec<i64> {
        let mut earliest = vec![0i64; self.num_nets()];
        for &gid in self.topo_gates() {
            let gate = self.gate(gid);
            let best = gate
                .inputs()
                .iter()
                .map(|n| earliest[n.index()])
                .min()
                .unwrap_or(0);
            earliest[gate.output().index()] = best + i64::from(gate.delay().min());
        }
        earliest
    }

    /// The minimum topological delay of the circuit: the earliest time any
    /// primary output could possibly transition (shortest path, `d_min`).
    pub fn min_topological_delay(&self) -> i64 {
        let earliest = self.earliest_arrival_times();
        self.outputs()
            .iter()
            .map(|o| earliest[o.index()])
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod min_delay_tests {
    use crate::{CircuitBuilder, DelayInterval, GateKind};

    #[test]
    fn earliest_uses_min_delays_and_shortest_paths() {
        let mut b = CircuitBuilder::new("m");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], DelayInterval::new(3, 30));
        let y = b.gate("y", GateKind::Not, &[x], DelayInterval::new(4, 40));
        b.mark_output(y);
        let c = b.build().unwrap();
        assert_eq!(c.earliest_arrival_times()[y.index()], 7);
        assert_eq!(c.min_topological_delay(), 7);
        assert_eq!(c.topological_delay(), 70);
    }

    #[test]
    fn reconvergence_takes_the_shorter_arm() {
        let mut b = CircuitBuilder::new("r");
        let a = b.input("a");
        let slow = b.gate("slow", GateKind::Not, &[a], DelayInterval::new(50, 50));
        let y = b.gate("y", GateKind::And, &[a, slow], DelayInterval::new(5, 5));
        b.mark_output(y);
        let c = b.build().unwrap();
        // Through the direct edge: 0 + 5.
        assert_eq!(c.earliest_arrival_times()[y.index()], 5);
    }
}
