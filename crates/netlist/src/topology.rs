//! Flattened, cache-friendly view of a circuit's connectivity.
//!
//! The event-driven narrower visits gates millions of times; going through
//! [`Circuit::gate`](crate::Circuit::gate) per event chases a pointer into
//! a [`Gate`](crate::Gate) whose input list is its own heap allocation.
//! [`Topology`] flattens everything the hot loop needs into dense,
//! id-indexed parallel arrays (CSR layout for the variable-length lists):
//!
//! * per gate: kind, max delay, output net, and an offset range into one
//!   shared input-net array;
//! * per net: an offset range into one shared "touching gates" array —
//!   the net's driver first (if any), then its readers, which is exactly
//!   the order the narrower schedules constraints in;
//! * per gate: its position in the circuit's topological order, the index
//!   the word kernels' bitsets and sweeps run over.
//!
//! The tables split into two planes with different invalidation rules:
//! the structural [`Adjacency`] (kinds, outputs, CSR input/touch lists,
//! topological positions),
//! which only a rewire can change, and the per-gate `dmax` delay plane,
//! which delay re-annotation ([`Circuit::with_delays`](crate::Circuit::with_delays),
//! a delay-only [`Circuit::apply_edit`](crate::Circuit::apply_edit), SDF)
//! rewrites. A delay-only edit therefore keeps the adjacency `Arc` and
//! rebuilds just the delay plane.
//!
//! A circuit builds its topology lazily, at most once, and hands out a
//! shared [`Arc`]; see [`Circuit::topology`](crate::Circuit::topology).

use crate::circuit::{Circuit, GateId, NetId};
use crate::gate::GateKind;
use std::sync::Arc;

/// The structural plane of a [`Topology`]: everything about connectivity
/// that delay edits can never change. Shared (via `Arc`) across delay
/// re-annotations of the same circuit.
#[derive(Debug)]
pub struct Adjacency {
    kind: Vec<GateKind>,
    output: Vec<NetId>,
    /// `in_off[g]..in_off[g+1]` indexes `in_nets` for gate `g`.
    in_off: Vec<u32>,
    in_nets: Vec<NetId>,
    /// `touch_off[n]..touch_off[n+1]` indexes `touch` for net `n`.
    touch_off: Vec<u32>,
    touch: Vec<GateId>,
    /// Position of every gate in [`Circuit::topo_gates`].
    pos: Vec<u32>,
    /// Number of nets with at least two readers.
    fanout_stems: usize,
}

impl Adjacency {
    fn build(c: &Circuit) -> Arc<Adjacency> {
        let ng = c.num_gates();
        let nn = c.num_nets();
        let mut kind = Vec::with_capacity(ng);
        let mut output = Vec::with_capacity(ng);
        let mut in_off = Vec::with_capacity(ng + 1);
        let mut in_nets = Vec::new();
        in_off.push(0u32);
        for gid in c.gate_ids() {
            let g = c.gate(gid);
            kind.push(g.kind());
            output.push(g.output());
            in_nets.extend_from_slice(g.inputs());
            in_off.push(u32::try_from(in_nets.len()).expect("< 4G gate inputs"));
        }
        let mut touch_off = Vec::with_capacity(nn + 1);
        let mut touch = Vec::new();
        let mut fanout_stems = 0;
        touch_off.push(0u32);
        for nid in c.net_ids() {
            let net = c.net(nid);
            fanout_stems += usize::from(net.is_fanout_stem());
            if let Some(driver) = net.driver() {
                touch.push(driver);
            }
            touch.extend_from_slice(net.readers());
            touch_off.push(u32::try_from(touch.len()).expect("< 4G net touches"));
        }
        let mut pos = vec![0u32; ng];
        for (i, g) in c.topo_gates().iter().enumerate() {
            pos[g.index()] = u32::try_from(i).expect("< 4G gates");
        }
        Arc::new(Adjacency {
            kind,
            output,
            in_off,
            in_nets,
            touch_off,
            touch,
            pos,
            fanout_stems,
        })
    }
}

/// Dense CSR tables describing a circuit's gates and net adjacency: the
/// shared structural [`Adjacency`] plus the per-gate delay plane.
#[derive(Debug)]
pub struct Topology {
    adj: Arc<Adjacency>,
    dmax: Vec<u32>,
}

impl Topology {
    /// Flattens the circuit. One linear pass; called once per circuit via
    /// the [`Circuit::topology`](crate::Circuit::topology) cache.
    pub(crate) fn build(c: &Circuit) -> Arc<Topology> {
        Self::with_adjacency(c, Adjacency::build(c))
    }

    /// Builds a topology around an existing (still structurally valid)
    /// adjacency, deriving only the delay plane — the delay re-annotation
    /// fast path.
    pub(crate) fn with_adjacency(c: &Circuit, adj: Arc<Adjacency>) -> Arc<Topology> {
        let dmax = c.gate_ids().map(|g| c.gate(g).dmax()).collect();
        Arc::new(Topology { adj, dmax })
    }

    /// The shared structural plane. Delay-only circuit copies
    /// ([`Circuit::with_delays`](crate::Circuit::with_delays)) hand out the
    /// same `Arc`.
    pub fn adjacency(&self) -> &Arc<Adjacency> {
        &self.adj
    }

    /// The gate's kind.
    #[inline]
    pub fn gate_kind(&self, g: GateId) -> GateKind {
        self.adj.kind[g.index()]
    }

    /// The gate's maximum delay.
    #[inline]
    pub fn gate_dmax(&self, g: GateId) -> u32 {
        self.dmax[g.index()]
    }

    /// The gate's output net.
    #[inline]
    pub fn gate_output(&self, g: GateId) -> NetId {
        self.adj.output[g.index()]
    }

    /// The gate's input nets, in gate input order.
    #[inline]
    pub fn gate_inputs(&self, g: GateId) -> &[NetId] {
        let gi = g.index();
        &self.adj.in_nets[self.adj.in_off[gi] as usize..self.adj.in_off[gi + 1] as usize]
    }

    /// The gate's position in the circuit's topological order
    /// ([`Circuit::topo_gates`](crate::Circuit::topo_gates)).
    #[inline]
    pub fn gate_position(&self, g: GateId) -> usize {
        self.adj.pos[g.index()] as usize
    }

    /// Number of fanout stems (nets with at least two readers).
    #[inline]
    pub fn num_fanout_stems(&self) -> usize {
        self.adj.fanout_stems
    }

    /// Every gate touching `net`: its driver first (if any), then its
    /// readers, in reader order — the narrower's scheduling order.
    #[inline]
    pub fn touching(&self, n: NetId) -> &[GateId] {
        let ni = n.index();
        &self.adj.touch[self.adj.touch_off[ni] as usize..self.adj.touch_off[ni + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::gate::DelayInterval;

    #[test]
    fn topology_matches_circuit_views() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.gate("x", GateKind::And, &[a, c], DelayInterval::fixed(7));
        let y = b.gate("y", GateKind::Not, &[x], DelayInterval::fixed(3));
        b.mark_output(y);
        let circuit = b.build().unwrap();
        let topo = circuit.topology();
        for g in circuit.gate_ids() {
            let gate = circuit.gate(g);
            assert_eq!(topo.gate_kind(g), gate.kind());
            assert_eq!(topo.gate_dmax(g), gate.dmax());
            assert_eq!(topo.gate_output(g), gate.output());
            assert_eq!(topo.gate_inputs(g), gate.inputs());
            assert_eq!(circuit.topo_gates()[topo.gate_position(g)], g);
        }
        for n in circuit.net_ids() {
            let net = circuit.net(n);
            let mut expect: Vec<GateId> = Vec::new();
            expect.extend(net.driver());
            expect.extend_from_slice(net.readers());
            assert_eq!(topo.touching(n), expect.as_slice(), "net {n:?}");
        }
    }

    #[test]
    fn topology_is_cached_and_reset_by_with_delays() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], DelayInterval::fixed(5));
        b.mark_output(x);
        let circuit = b.build().unwrap();
        let t1 = circuit.topology();
        let t2 = circuit.topology();
        assert!(Arc::ptr_eq(&t1, &t2), "topology is computed once");
        let slow = circuit.with_delays(|_, _| DelayInterval::fixed(25));
        let g = slow.net(slow.net_by_name("x").unwrap()).driver().unwrap();
        assert_eq!(slow.topology().gate_dmax(g), 25, "stale cache was reset");
    }

    #[test]
    fn with_delays_keeps_the_adjacency_plane() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.gate("x", GateKind::And, &[a, c], DelayInterval::fixed(7));
        let y = b.gate("y", GateKind::Not, &[x], DelayInterval::fixed(3));
        b.mark_output(y);
        let circuit = b.build().unwrap();
        let before = circuit.topology();
        let slow = circuit.with_delays(|_, g| DelayInterval::fixed(g.dmax() + 10));
        let after = slow.topology();
        // The CSR adjacency is shared — only the delay plane was rebuilt.
        assert!(
            Arc::ptr_eq(before.adjacency(), after.adjacency()),
            "delay edits must not rebuild the CSR adjacency"
        );
        assert!(!Arc::ptr_eq(&before, &after));
        let g = slow.net(slow.net_by_name("x").unwrap()).driver().unwrap();
        assert_eq!(after.gate_dmax(g), 17);
        assert_eq!(before.gate_dmax(g), 7);
    }

    #[test]
    fn with_delays_on_cold_cache_builds_lazily() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], DelayInterval::fixed(5));
        b.mark_output(x);
        let circuit = b.build().unwrap();
        // No topology() call before the edit: the copy builds from scratch.
        let slow = circuit.with_delays(|_, _| DelayInterval::fixed(9));
        let g = slow.net(slow.net_by_name("x").unwrap()).driver().unwrap();
        assert_eq!(slow.topology().gate_dmax(g), 9);
    }
}
