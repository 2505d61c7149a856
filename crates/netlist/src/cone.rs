//! Per-output transitive-fanin cones as dense renumbered sub-circuits.
//!
//! A last-transition-time check on output `s` can only depend on `s`'s
//! transitive fanin: the cone is *fanin-closed* (every input of a gate
//! whose output lies in the cone lies in the cone itself), so everything
//! outside it is dead weight for that check. [`ConeView`] extracts the
//! cone as a standalone [`Circuit`] with dense, renumbered ids plus the
//! old↔new net maps, sized so per-check state (signal stores, queues,
//! scratch) shrinks from circuit-sized to cone-sized.
//!
//! **Order preservation is the load-bearing invariant.** Nets, gates,
//! primary inputs, topological gate order, gate input lists, and every
//! net's reader list keep their *relative* order from the parent circuit.
//! The event-driven narrower's schedule — and therefore its statistics —
//! is a pure function of those orders, so a check run inside the renumbered
//! cone replays, step for step, the schedule of a whole-circuit run whose
//! propagation is masked to the cone (see DESIGN.md §14). This is why the
//! view is built by direct filtered renumbering rather than through
//! [`CircuitBuilder`](crate::CircuitBuilder), which would re-derive reader
//! lists in rebuild order.

use crate::circuit::{Circuit, GateId, NetId, Structure};
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel for "not in the cone" in the old→new maps.
const OUT: u32 = u32::MAX;

/// A dense renumbered view of one output's transitive-fanin cone.
#[derive(Debug, Clone)]
pub struct ConeView {
    sub: Arc<Circuit>,
    /// `net_to_sub[old.index()]` = new index, or `OUT`.
    net_to_sub: Vec<u32>,
    /// `net_from_sub[new.index()]` = old id.
    net_from_sub: Vec<NetId>,
    /// The checked output, in old ids.
    output: NetId,
}

impl ConeView {
    /// Extracts the fanin cone of `output` from `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a net of `circuit`.
    pub fn extract(circuit: &Circuit, output: NetId) -> ConeView {
        let in_cone = circuit.fanin_cone(output);
        // Old→new net map: cone nets keep their relative (dense id) order.
        let mut net_to_sub = vec![OUT; circuit.num_nets()];
        let mut net_from_sub = Vec::new();
        for old in circuit.net_ids() {
            if in_cone[old.index()] {
                net_to_sub[old.index()] = u32::try_from(net_from_sub.len()).expect("cone size");
                net_from_sub.push(old);
            }
        }
        let map_net = |n: NetId| NetId::from_index(net_to_sub[n.index()] as usize);

        let mut names = Vec::with_capacity(net_from_sub.len());
        let mut by_name = HashMap::with_capacity(net_from_sub.len());
        for (new_idx, &old) in net_from_sub.iter().enumerate() {
            let name = circuit.net(old).name().to_string();
            by_name.insert(name.clone(), NetId::from_index(new_idx));
            names.push(name);
        }
        let inputs: Vec<NetId> = circuit
            .inputs()
            .iter()
            .filter(|i| in_cone[i.index()])
            .map(|&i| map_net(i))
            .collect();
        let mut sub = Structure::new(
            format!("{}@{}", circuit.name(), circuit.net(output).name()),
            names,
            by_name,
            inputs,
            vec![map_net(output)],
        );
        // A gate is in the cone iff its output net is; fanin-closure then
        // guarantees all its inputs are too. Gate ids also keep relative
        // order.
        let mut cone_gate = vec![OUT; circuit.num_gates()];
        let mut delays = Vec::new();
        for old in circuit.gate_ids() {
            let gate = circuit.gate(old);
            if in_cone[gate.output().index()] {
                cone_gate[old.index()] = u32::try_from(delays.len()).expect("cone size");
                let inputs = gate.inputs().iter().map(|&n| map_net(n));
                sub.push_gate(gate.kind(), inputs, map_net(gate.output()));
                delays.push(gate.delay());
            }
        }
        let map_gate = |g: GateId| match cone_gate[g.index()] {
            OUT => None,
            new => Some(GateId::from_index(new as usize)),
        };
        for &old in &net_from_sub {
            let net = circuit.net(old);
            // Readers: filter to cone gates, preserving order.
            let readers = net.readers().iter().copied().filter_map(map_gate);
            sub.connect_net(net.driver().and_then(map_gate), readers);
        }
        sub.set_order(
            circuit
                .topo_gates()
                .iter()
                .copied()
                .filter_map(map_gate)
                .collect(),
        );
        ConeView {
            sub: Arc::new(sub.into_circuit(delays)),
            net_to_sub,
            net_from_sub,
            output,
        }
    }

    /// The cone as a standalone circuit (single output, dense ids).
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.sub
    }

    /// The checked output, in parent-circuit ids.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// The checked output, in sub-circuit ids.
    pub fn sub_output(&self) -> NetId {
        self.sub.outputs()[0]
    }

    /// Maps a parent-circuit net into the cone, if it lies inside.
    #[inline]
    pub fn net_to_sub(&self, old: NetId) -> Option<NetId> {
        match self.net_to_sub[old.index()] {
            OUT => None,
            new => Some(NetId::from_index(new as usize)),
        }
    }

    /// Maps a cone net back to its parent-circuit id.
    #[inline]
    pub fn net_from_sub(&self, new: NetId) -> NetId {
        self.net_from_sub[new.index()]
    }

    /// The cone nets, in parent ids, in parent (= cone) order.
    pub fn nets(&self) -> &[NetId] {
        &self.net_from_sub
    }

    /// The number of nets of the parent circuit.
    pub fn num_parent_nets(&self) -> usize {
        self.net_to_sub.len()
    }

    /// Whether a parent net lies in the cone.
    #[inline]
    pub fn contains_net(&self, old: NetId) -> bool {
        self.net_to_sub[old.index()] != OUT
    }

    /// Whether the cone covers the entire parent circuit (slicing then
    /// buys nothing; callers may fall back to the whole-circuit path).
    pub fn is_complete(&self) -> bool {
        self.net_from_sub.len() == self.net_to_sub.len()
    }

    /// Whether any of `dirty` (parent ids, sorted or not) lies in the cone
    /// — the ECO invalidation test.
    pub fn intersects(&self, dirty: &[NetId]) -> bool {
        dirty.iter().any(|&n| self.contains_net(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{carry_skip_adder, figure1, random_circuit, RandomCircuitConfig};
    use crate::{Circuit, CircuitBuilder, DelayInterval, GateKind};

    /// The cone gate of parent gate `old`: the driver of its output net.
    fn cone_gate(view: &ConeView, c: &Circuit, old: GateId) -> Option<GateId> {
        let out = view.net_to_sub(c.gate(old).output())?;
        view.circuit().net(out).driver()
    }

    /// The parent gate of cone gate `new`: the driver of its output net.
    fn parent_gate(view: &ConeView, c: &Circuit, new: GateId) -> GateId {
        let out = view.net_from_sub(view.circuit().gate(new).output());
        c.net(out).driver().expect("a cone gate's output is driven")
    }

    fn random_dag(num_gates: usize, num_outputs: usize, seed: u64) -> Circuit {
        random_circuit(&RandomCircuitConfig {
            num_gates,
            num_outputs,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn cone_of_single_output_circuit_is_complete() {
        let c = figure1(10);
        let view = ConeView::extract(&c, c.outputs()[0]);
        assert!(view.is_complete());
        assert_eq!(view.circuit().num_nets(), c.num_nets());
        assert_eq!(view.circuit().num_gates(), c.num_gates());
    }

    #[test]
    fn cone_preserves_names_function_and_orders() {
        let adder = carry_skip_adder(8, 4, 10);
        let s0 = adder.net_by_name("s0").unwrap();
        let view = ConeView::extract(&adder, s0);
        let sub = view.circuit();
        assert!(!view.is_complete());
        assert_eq!(sub.outputs().len(), 1);
        assert_eq!(sub.net(view.sub_output()).name(), "s0");
        // Round-trip maps.
        for new in sub.net_ids() {
            let old = view.net_from_sub(new);
            assert_eq!(view.net_to_sub(old), Some(new));
            assert_eq!(sub.net(new).name(), adder.net(old).name());
        }
        for new in sub.gate_ids() {
            let old = parent_gate(&view, &adder, new);
            assert_eq!(cone_gate(&view, &adder, old), Some(new));
            assert_eq!(sub.gate(new).kind(), adder.gate(old).kind());
            assert_eq!(sub.gate(new).delay(), adder.gate(old).delay());
        }
        // Reader lists are the parent's, filtered with order preserved.
        for new in sub.net_ids() {
            let old = view.net_from_sub(new);
            let expect: Vec<GateId> = adder
                .net(old)
                .readers()
                .iter()
                .filter_map(|&r| cone_gate(&view, &adder, r))
                .collect();
            assert_eq!(sub.net(new).readers(), expect.as_slice());
        }
        // The cone computes the same function of its inputs: evaluate the
        // parent on a vector and compare at s0.
        let vector: Vec<bool> = (0..adder.inputs().len()).map(|i| i % 3 == 0).collect();
        let full_vals = adder.evaluate_all(&vector);
        let sub_vector: Vec<bool> = sub
            .inputs()
            .iter()
            .map(|&i| {
                let old = view.net_from_sub(i);
                full_vals[old.index()]
            })
            .collect();
        assert_eq!(sub.evaluate(&sub_vector), vec![full_vals[s0.index()]]);
    }

    #[test]
    fn cone_matches_extract_cone_semantics() {
        let c = random_dag(60, 4, 0xC0FFEE);
        for &s in c.outputs() {
            let view = ConeView::extract(&c, s);
            let mask = c.fanin_cone(s);
            let nets = mask.iter().filter(|&&m| m).count();
            let gates = c.gate_ids().filter(|&g| mask[c.gate(g).output().index()]);
            let inputs = c.inputs().iter().filter(|i| mask[i.index()]);
            assert_eq!(view.circuit().num_nets(), nets, "net count");
            assert_eq!(view.circuit().num_gates(), gates.count());
            assert_eq!(view.circuit().inputs().len(), inputs.count());
        }
    }

    #[test]
    fn cone_topo_order_is_valid_and_relative_order_preserved() {
        let c = random_dag(80, 4, 7);
        let s = c.outputs()[0];
        let view = ConeView::extract(&c, s);
        let sub = view.circuit();
        // topo_gates is a filtered copy of the parent's: mapping back gives
        // a subsequence of the parent's topo order.
        let back: Vec<GateId> = sub
            .topo_gates()
            .iter()
            .map(|&g| parent_gate(&view, &c, g))
            .collect();
        let parent: Vec<GateId> = c.topo_gates().to_vec();
        let mut it = parent.iter();
        for g in &back {
            assert!(it.any(|p| p == g), "sub topo order must be a subsequence");
        }
        // And it is topologically valid in the sub-circuit.
        let mut seen = vec![false; sub.num_nets()];
        for &i in sub.inputs() {
            seen[i.index()] = true;
        }
        for &g in sub.topo_gates() {
            for &i in sub.gate(g).inputs() {
                assert!(seen[i.index()], "driver before reader");
            }
            seen[sub.gate(g).output().index()] = true;
        }
    }

    #[test]
    fn intersects_flags_only_cone_nets() {
        let mut b = CircuitBuilder::new("two");
        let a = b.input("a");
        let x = b.input("x");
        let p = b.gate("p", GateKind::Not, &[a], DelayInterval::fixed(10));
        let q = b.gate("q", GateKind::Not, &[x], DelayInterval::fixed(10));
        b.mark_output(p);
        b.mark_output(q);
        let c = b.build().unwrap();
        let view = ConeView::extract(&c, p);
        assert!(view.contains_net(a));
        assert!(!view.contains_net(x));
        assert!(view.intersects(&[a]));
        assert!(!view.intersects(&[x, q]));
        assert!(view.intersects(&[x, p]));
    }
}
