//! SCOAP controllability measures (Goldstein & Thigpen), used to guide the
//! case-analysis backtrace (§5: "We used SCOAP controllability to guide the
//! algorithm").

use ltt_netlist::{Circuit, GateKind, NetId};
use ltt_waveform::Level;

/// Per-net SCOAP combinational controllabilities `CC0` / `CC1`: an estimate
/// of how many line assignments are needed to set the net to 0 / 1
/// (primary inputs cost 1).
#[derive(Clone, Debug)]
pub struct Controllability {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
}

impl Controllability {
    /// Computes SCOAP controllability for every net.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_core::scoap::Controllability;
    /// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    /// use ltt_waveform::Level;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CircuitBuilder::new("t");
    /// let a = b.input("a");
    /// let c = b.input("b");
    /// let y = b.gate("y", GateKind::And, &[a, c], DelayInterval::fixed(10));
    /// b.mark_output(y);
    /// let circuit = b.build()?;
    /// let cc = Controllability::compute(&circuit);
    /// // Setting an AND output to 1 needs both inputs: costlier than 0.
    /// assert!(cc.of(y, Level::One) > cc.of(y, Level::Zero));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(circuit: &Circuit) -> Controllability {
        let n = circuit.num_nets();
        let mut cc0 = vec![1u32; n];
        let mut cc1 = vec![1u32; n];
        for &gid in circuit.topo_gates() {
            let gate = circuit.gate(gid);
            let ins = gate.inputs();
            let sum = |v: &Vec<u32>| -> u32 {
                ins.iter()
                    .map(|i| v[i.index()])
                    .fold(0u32, u32::saturating_add)
            };
            let min = |v: &Vec<u32>| -> u32 { ins.iter().map(|i| v[i.index()]).min().unwrap_or(0) };
            let (c0, c1) = match gate.kind() {
                GateKind::And => (min(&cc0) + 1, sum(&cc1).saturating_add(1)),
                GateKind::Nand => (sum(&cc1).saturating_add(1), min(&cc0) + 1),
                GateKind::Or => (sum(&cc0).saturating_add(1), min(&cc1) + 1),
                GateKind::Nor => (min(&cc1) + 1, sum(&cc0).saturating_add(1)),
                GateKind::Not => (cc1[ins[0].index()] + 1, cc0[ins[0].index()] + 1),
                GateKind::Buffer | GateKind::Delay => {
                    (cc0[ins[0].index()] + 1, cc1[ins[0].index()] + 1)
                }
                GateKind::Mux => {
                    let (s0, s1) = (cc0[ins[0].index()], cc1[ins[0].index()]);
                    let (a0, a1) = (cc0[ins[1].index()], cc1[ins[1].index()]);
                    let (b0, b1) = (cc0[ins[2].index()], cc1[ins[2].index()]);
                    (
                        s0.saturating_add(a0)
                            .min(s1.saturating_add(b0))
                            .saturating_add(1),
                        s0.saturating_add(a1)
                            .min(s1.saturating_add(b1))
                            .saturating_add(1),
                    )
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Fold the cheapest way to reach each parity.
                    let mut even = 0u32;
                    let mut odd = u32::MAX;
                    for i in ins {
                        let (z, o) = (cc0[i.index()], cc1[i.index()]);
                        let new_even = even.saturating_add(z).min(odd.saturating_add(o));
                        let new_odd = even.saturating_add(o).min(odd.saturating_add(z));
                        even = new_even;
                        odd = new_odd;
                    }
                    if gate.kind() == GateKind::Xor {
                        (even.saturating_add(1), odd.saturating_add(1))
                    } else {
                        (odd.saturating_add(1), even.saturating_add(1))
                    }
                }
            };
            cc0[gate.output().index()] = c0;
            cc1[gate.output().index()] = c1;
        }
        Controllability { cc0, cc1 }
    }

    /// The controllability of setting `net` to `level`.
    pub fn of(&self, net: NetId, level: Level) -> u32 {
        match level {
            Level::Zero => self.cc0[net.index()],
            Level::One => self.cc1[net.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::{CircuitBuilder, DelayInterval};

    fn d10() -> DelayInterval {
        DelayInterval::fixed(10)
    }

    #[test]
    fn inputs_cost_one() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let y = b.gate("y", GateKind::Buffer, &[a], d10());
        b.mark_output(y);
        let c = b.build().unwrap();
        let cc = Controllability::compute(&c);
        assert_eq!(cc.of(a, Level::Zero), 1);
        assert_eq!(cc.of(a, Level::One), 1);
        assert_eq!(cc.of(y, Level::One), 2);
    }

    #[test]
    fn and_chain_cc1_grows_linearly() {
        // AND cascade: CC1 accumulates, CC0 stays small.
        use ltt_netlist::generators::cascade;
        let c = cascade(GateKind::And, 5, 10);
        let cc = Controllability::compute(&c);
        let out = c.outputs()[0];
        assert!(cc.of(out, Level::One) > 6);
        assert!(cc.of(out, Level::Zero) <= 6);
    }

    #[test]
    fn xor_controllabilities_balanced() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let b2 = b.input("b");
        let y = b.gate("y", GateKind::Xor, &[a, b2], d10());
        b.mark_output(y);
        let c = b.build().unwrap();
        let cc = Controllability::compute(&c);
        assert_eq!(cc.of(y, Level::Zero), 3); // 0⊕0 (or 1⊕1): 1+1+1
        assert_eq!(cc.of(y, Level::One), 3);
    }

    #[test]
    fn nor_inverts_roles() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let b2 = b.input("b");
        let y = b.gate("y", GateKind::Nor, &[a, b2], d10());
        b.mark_output(y);
        let c = b.build().unwrap();
        let cc = Controllability::compute(&c);
        // NOR to 1 needs both inputs 0; NOR to 0 needs one input 1.
        assert!(cc.of(y, Level::One) > cc.of(y, Level::Zero));
    }
}
