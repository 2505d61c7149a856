//! Topological (structural) timing analysis on circuits: longest-path
//! delays `top`, `top_n`, and `top_{n1→n2}` from §2 of the paper.
//!
//! These are purely structural quantities — every path counts, sensitizable
//! or not — and provide both the conservative delay bound and the distance
//! metric used by static carriers and timing dominators.

use crate::{Circuit, NetId};

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
    /// reconverges iff some gate has at least two tagged inputs whose
    /// combined tag (its own included) carries at least two branches. The
    /// stems run 64 at a time, one per bit lane, in one forward sweep per
    /// chunk that stops once every lane has reconverged (DESIGN.md §16).
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
        let candidates: Vec<NetId> = self
            .net_ids()
            .filter(|&n| self.net(n).is_fanout_stem())
            .collect();
        let mut mask = vec![false; self.num_nets()];
        let mut kernel = StemKernel::new(self);
        for chunk in candidates.chunks(64) {
            let reconv = kernel.run(chunk);
            for (l, &stem) in chunk.iter().enumerate() {
                mask[stem.index()] = (reconv >> l) & 1 != 0;
            }
        }
        mask
    }
}

/// What the reconvergence rule needs of one lane's tag set: whether it
/// holds at least one branch (`any`) and at least two (`multi`), plus, for
/// a single-branch lane, that branch's index (0–63) bit-sliced over six
/// `id` planes. The planes are meaningless on lanes that are empty or
/// `multi`. One record is one 64-byte line.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Tags {
    any: u64,
    multi: u64,
    id: [u64; 6],
}

impl Tags {
    /// Unions `t` into `self`, lane by lane. Two single-branch lanes make
    /// a `multi` lane iff their ids differ.
    #[inline]
    fn join(&mut self, t: &Tags) {
        let take = t.any & !self.any;
        let mut differ = 0;
        for (mine, theirs) in self.id.iter_mut().zip(t.id) {
            differ |= *mine ^ theirs;
            *mine ^= (*mine ^ theirs) & take;
        }
        self.multi |= t.multi | self.any & t.any & differ;
        self.any |= t.any;
    }

    /// The record holding branch `b` alone in lane `l`.
    fn branch(l: usize, b: usize) -> Tags {
        Tags {
            any: 1 << l,
            multi: 0,
            id: std::array::from_fn(|k| (((b >> k) & 1) as u64) << l),
        }
    }
}

/// The stem-mask kernel of [`Circuit::reconvergent_stems`]: 64 candidate
/// stems at once, lane `l` being the chunk's `l`-th stem, one [`Tags`]
/// record per net. Allocated once per call and reset through the trail of
/// tagged nets between chunks.
struct StemKernel<'c> {
    circuit: &'c Circuit,
    tags: Vec<Tags>,
    /// Every net tagged in some lane of the chunk, each once.
    trail: Vec<NetId>,
}

impl<'c> StemKernel<'c> {
    fn new(circuit: &'c Circuit) -> Self {
        StemKernel {
            circuit,
            tags: vec![Tags::default(); circuit.num_nets()],
            trail: Vec::new(),
        }
    }

    /// Joins `t` into `net`'s record.
    fn tag(&mut self, net: NetId, t: &Tags) {
        let rec = &mut self.tags[net.index()];
        if rec.any == 0 {
            self.trail.push(net);
        }
        rec.join(t);
    }

    /// The lanes of `chunk` (at most 64 stems) that reconverge.
    ///
    /// Seeds each stem's first 64 readers, then sweeps the topological
    /// order forward from the earliest of them. A gate none of whose
    /// inputs is tagged in an undecided lane is skipped; otherwise its
    /// inputs join into its output, and `arms1`/`arms2` count per lane the
    /// tagged input slots (a net read twice counts twice). Each gate sees
    /// its inputs' final records in every undecided lane, so the sweep
    /// decides every lane exactly as a full per-stem scan would.
    fn run(&mut self, chunk: &[NetId]) -> u64 {
        debug_assert!((1..=64).contains(&chunk.len()));
        let lanes = u64::MAX >> (64 - chunk.len());
        let mut start = usize::MAX;
        for (l, &stem) in chunk.iter().enumerate() {
            for (b, &g) in self.circuit.net(stem).readers().iter().enumerate().take(64) {
                let gate = self.circuit.gate(g);
                self.tag(gate.output(), &Tags::branch(l, b));
                start = start.min(gate.topo_position());
            }
        }
        let mut done = 0u64;
        for &g in &self.circuit.topo_gates()[start..] {
            let live = lanes & !done;
            let gate = self.circuit.gate(g);
            let inputs = gate.inputs();
            if inputs.iter().all(|n| self.tags[n.index()].any & live == 0) {
                continue;
            }
            let out = gate.output();
            let mut acc = self.tags[out.index()];
            let (mut arms1, mut arms2) = (0u64, 0u64);
            for n in inputs {
                let t = &self.tags[n.index()];
                if t.any != 0 {
                    arms2 |= arms1 & t.any;
                    arms1 |= t.any;
                    acc.join(t);
                }
            }
            done |= arms2 & acc.multi;
            if done == lanes {
                break;
            }
            // `acc` already holds the output's own record.
            if self.tags[out.index()].any == 0 {
                self.trail.push(out);
            }
            self.tags[out.index()] = acc;
        }
        for net in self.trail.drain(..) {
            self.tags[net.index()] = Tags::default();
        }
        done
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
