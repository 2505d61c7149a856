//! Static learning (§4): SOCRATES-style class implications.
//!
//! In a pre-processing stage, every net is tentatively fixed to each class
//! and the consequences are propagated through the circuit at the *class*
//! level (a 2-bit "which settling values remain possible" analysis). Nets
//! whose class becomes unique yield implications `y=v ⇒ x=w`, stored
//! together with their contrapositives `x=¬w ⇒ y=¬v` — the indirect ones
//! are exactly what local gate consistency cannot see. During narrowing,
//! whenever a domain's class becomes fixed the learned table imposes class
//! restrictions on other domains (the paper: "when a class becomes empty in
//! the domain of a net, learning tables are used to impose class
//! restrictions on other domains").

use ltt_netlist::{Circuit, GateId, GateKind, NetId, Topology};
use ltt_waveform::Level;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

const CAN0: u8 = 1;
const CAN1: u8 = 2;
const BOTH: u8 = CAN0 | CAN1;

fn bit(v: Level) -> u8 {
    match v {
        Level::Zero => CAN0,
        Level::One => CAN1,
    }
}

fn forward_classes(kind: GateKind, ins: &[u8]) -> u8 {
    if ins.contains(&0) {
        return 0;
    }
    match kind {
        GateKind::Not => {
            let mut out = 0;
            if ins[0] & CAN0 != 0 {
                out |= CAN1;
            }
            if ins[0] & CAN1 != 0 {
                out |= CAN0;
            }
            out
        }
        GateKind::Buffer | GateKind::Delay => ins[0],
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let c = bit(Level::from_bool(kind.controlling_value().expect("ctrl")));
            let nc = if c == CAN0 { CAN1 } else { CAN0 };
            let out_c = bit(Level::from_bool(kind.controlled_output().expect("ctrl")));
            let out_nc = if out_c == CAN0 { CAN1 } else { CAN0 };
            let mut out = 0;
            if ins.iter().any(|&s| s & c != 0) {
                out |= out_c;
            }
            if ins.iter().all(|&s| s & nc != 0) {
                out |= out_nc;
            }
            out
        }
        GateKind::Mux => {
            // out can be a's classes when sel can be 0, b's when sel can be 1.
            let mut out = 0;
            if ins[0] & CAN0 != 0 {
                out |= ins[1];
            }
            if ins[0] & CAN1 != 0 {
                out |= ins[2];
            }
            out
        }
        GateKind::Xor | GateKind::Xnor => {
            let pol = kind == GateKind::Xnor;
            let mut parities = 0u8; // bit0: even possible, bit1: odd possible
            parities |= 1;
            for &s in ins {
                let mut next = 0u8;
                if s & CAN0 != 0 {
                    next |= parities;
                }
                if s & CAN1 != 0 {
                    next |= ((parities & 1) << 1) | ((parities & 2) >> 1);
                }
                parities = next;
            }
            let mut out = 0;
            // even parity ⇒ XOR = 0, odd ⇒ XOR = 1; XNOR flips.
            if parities & 1 != 0 {
                out |= if pol { CAN1 } else { CAN0 };
            }
            if parities & 2 != 0 {
                out |= if pol { CAN0 } else { CAN1 };
            }
            out
        }
    }
}

/// The classes input `j` may still take given the input classes `ins` and
/// the allowed output classes `out`. Substitutes into `ins[j]` in place
/// and restores it, so one reused snapshot buffer serves gates of any
/// fan-in without allocating.
fn backward_classes(kind: GateKind, ins: &mut [u8], out: u8, j: usize) -> u8 {
    if out == 0 || ins.contains(&0) {
        return 0;
    }
    let own = ins[j];
    let mut allowed = 0u8;
    for v in Level::BOTH {
        if own & bit(v) == 0 {
            continue;
        }
        // Is there a combo with input j = v whose output class is allowed?
        ins[j] = bit(v);
        if forward_classes(kind, ins) & out != 0 {
            allowed |= bit(v);
        }
    }
    ins[j] = own;
    allowed
}

/// A table of learned class implications, plus constant nets discovered
/// along the way.
///
/// # Examples
///
/// ```
/// use ltt_core::ImplicationTable;
/// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
/// use ltt_waveform::Level;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("t");
/// let a = b.input("a");
/// let x = b.gate("x", GateKind::Not, &[a], DelayInterval::fixed(10));
/// b.mark_output(x);
/// let c = b.build()?;
/// let table = ImplicationTable::learn(&c);
/// // a = 1 implies x = 0.
/// assert!(table
///     .implied_by(a, Level::One)
///     .contains(&(x, Level::Zero)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ImplicationTable {
    /// `offsets[b]..offsets[b + 1]` indexes `implied` for bucket
    /// `b = 2·net + level`: the pairs implied by fixing `net` to `level`.
    offsets: Vec<u32>,
    implied: Vec<(NetId, Level)>,
    /// Nets proven constant (one class can never be produced).
    constants: Vec<(NetId, Level)>,
}

impl ImplicationTable {
    /// Runs the learning pre-process with every net as an assumption
    /// source. Exhaustive (quadratic in circuit size): no configuration
    /// selects it; sessions learn with [`ImplicationTable::learn_stems`],
    /// and tests check that table against this one.
    pub fn learn(circuit: &Circuit) -> ImplicationTable {
        Self::learn_from(circuit, &vec![true; circuit.num_nets()])
    }

    /// Runs the learning pre-process with only the reconvergent fanout
    /// stems ([`Circuit::reconvergent_stems`]) as assumption sources —
    /// where non-local implications live and the table stays small.
    pub fn learn_stems(circuit: &Circuit) -> ImplicationTable {
        Self::learn_from(circuit, &circuit.reconvergent_stems())
    }

    /// Fixes every net flagged in `sources` (in net order) to each class
    /// in turn and records the unique classes the kernel derives, direct
    /// and contrapositive, each pair once, in first-insertion order.
    fn learn_from(circuit: &Circuit, sources: &[bool]) -> ImplicationTable {
        let n = circuit.num_nets();
        assert!(n < 1 << 31, "implication keys pack two net ids");
        let topo = circuit.topology();
        let mut kernel = Kernel::new(circuit, &topo);
        let mut constants = Vec::new();
        // (bucket, implied pair) in insertion order; bucketed at the end.
        let mut entries: Vec<(u32, (NetId, Level))> = Vec::new();
        let mut seen: HashSet<u64, BuildHasherDefault<KeyHasher>> = HashSet::default();
        // Direct pairs never repeat (one assumption per (y, v), one trail
        // entry per x), nor do contrapositives. A direct pair y=v ⇒ x=w can
        // only coincide with the contrapositive learned under x=¬w, so
        // only pairs whose target x is itself a source go through `seen`.
        let mut insert = |y: NetId, v: Level, x: NetId, w: Level, dedup: bool| {
            let (src, tgt) = (bucket(y, v), bucket(x, w));
            if !dedup || seen.insert(u64::from(src) << 32 | u64::from(tgt)) {
                entries.push((src, (x, w)));
            }
        };

        for y in circuit.net_ids().filter(|y| sources[y.index()]) {
            for v in Level::BOTH {
                if kernel.propagate(y, v) {
                    kernel.trail.sort_unstable();
                    for &x in &kernel.trail {
                        if x == y {
                            continue;
                        }
                        let w = match kernel.classes[x.index()] {
                            CAN0 => Level::Zero,
                            CAN1 => Level::One,
                            _ => continue,
                        };
                        let dedup = sources[x.index()];
                        // Direct: y=v ⇒ x=w.
                        insert(y, v, x, w, dedup);
                        // Contrapositive: x=¬w ⇒ y=¬v.
                        insert(x, !w, y, !v, dedup);
                    }
                } else {
                    // y can never settle to v: it is constant ¬v.
                    constants.push((y, !v));
                }
                kernel.reset();
            }
        }

        u32::try_from(entries.len()).expect("< 4G implications");
        let mut offsets = vec![0u32; 2 * n + 1];
        for &(b, _) in &entries {
            offsets[b as usize + 1] += 1;
        }
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        let mut fill = offsets.clone();
        let mut implied = vec![(NetId::from_index(0), Level::Zero); entries.len()];
        for (b, pair) in entries {
            let slot = &mut fill[b as usize];
            implied[*slot as usize] = pair;
            *slot += 1;
        }
        ImplicationTable {
            offsets,
            implied,
            constants,
        }
    }

    /// Slices the table to a fanin cone, renumbering every net through the
    /// view's old → sub map. Only implications whose source *and* target
    /// both lie in the cone survive; per-bucket order is preserved, so a
    /// sliced table fires the surviving implications in exactly the order a
    /// whole-circuit narrower (with out-of-cone targets masked) would —
    /// the invariant behind bit-identical cone-sliced checks.
    ///
    /// Constants are filtered the same way. Note that a sliced table is
    /// *not* the table learned from the sub-circuit: sources outside the
    /// cone contributed contrapositives inside it, and stem selection on
    /// the sub-circuit could differ. Cone checks must slice, not re-learn.
    pub fn sliced(&self, view: &ltt_netlist::ConeView) -> ImplicationTable {
        let sub = view.circuit();
        let mut offsets = Vec::with_capacity(2 * sub.num_nets() + 1);
        offsets.push(0u32);
        let mut implied = Vec::new();
        for sub_id in sub.net_ids() {
            let old = view.net_from_sub(sub_id);
            for v in Level::BOTH {
                implied.extend(
                    self.implied_by(old, v)
                        .iter()
                        .filter_map(|&(target, w)| view.net_to_sub(target).map(|t| (t, w))),
                );
                offsets.push(u32::try_from(implied.len()).expect("< 4G implications"));
            }
        }
        let constants: Vec<(NetId, Level)> = self
            .constants
            .iter()
            .filter_map(|&(net, v)| view.net_to_sub(net).map(|n| (n, v)))
            .collect();
        ImplicationTable {
            offsets,
            implied,
            constants,
        }
    }

    /// The implications fired by fixing `net` to `level`.
    pub fn implied_by(&self, net: NetId, level: Level) -> &[(NetId, Level)] {
        let b = bucket(net, level) as usize;
        &self.implied[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Nets proven constant by learning, with their constant value.
    pub fn constants(&self) -> &[(NetId, Level)] {
        &self.constants
    }

    /// Total number of stored implications.
    pub fn len(&self) -> usize {
        self.implied.len()
    }

    /// Whether no implications were learned.
    pub fn is_empty(&self) -> bool {
        self.implied.is_empty()
    }
}

/// The table bucket of the class assumption `net = level`.
fn bucket(net: NetId, level: Level) -> u32 {
    u32::try_from(2 * net.index() + level.index()).expect("< 2G nets")
}

/// A multiply-fold hasher for the packed `u64` pair keys of the learning
/// dedup set: one 128-bit multiply per key instead of SipHash rounds.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let m = u128::from(self.0 ^ key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }
}

/// The class-propagation kernel: the scratch state of one assumption's
/// fixpoint on the circuit's CSR [`Topology`], allocated once per learn
/// call and reset through the touched-net trail between assumptions.
struct Kernel<'t> {
    topo: &'t Topology,
    /// Class set per net; [`BOTH`] everywhere off the trail.
    classes: Vec<u8>,
    /// Every net the current assumption narrowed, its source first.
    trail: Vec<NetId>,
    queue: Vec<GateId>,
    queued: Vec<bool>,
    /// Input-class snapshot of the gate being visited.
    ins: Vec<u8>,
}

impl<'t> Kernel<'t> {
    fn new(circuit: &Circuit, topo: &'t Topology) -> Self {
        Kernel {
            topo,
            classes: vec![BOTH; circuit.num_nets()],
            trail: Vec::new(),
            queue: Vec::new(),
            queued: vec![false; circuit.num_gates()],
            ins: Vec::new(),
        }
    }

    /// Propagates the class assumption `y = v` to a fixpoint (LIFO gate
    /// queue, forward then backward per visit). Returns `false` if the
    /// assumption is contradictory. Either way the trail lists the
    /// narrowed nets; call [`Kernel::reset`] before the next assumption.
    fn propagate(&mut self, y: NetId, v: Level) -> bool {
        let topo = self.topo;
        self.classes[y.index()] = bit(v);
        self.trail.push(y);
        self.queue.extend_from_slice(topo.touching(y));
        for &g in topo.touching(y) {
            self.queued[g.index()] = true;
        }
        while let Some(g) = self.queue.pop() {
            self.queued[g.index()] = false;
            let inputs = topo.gate_inputs(g);
            self.ins.clear();
            self.ins
                .extend(inputs.iter().map(|n| self.classes[n.index()]));
            let kind = topo.gate_kind(g);
            // Forward.
            let out = topo.gate_output(g);
            let out_new = self.classes[out.index()] & forward_classes(kind, &self.ins);
            if out_new != self.classes[out.index()] && !self.narrow(out, out_new) {
                return false;
            }
            // Backward.
            for (j, &inp) in inputs.iter().enumerate() {
                let cur = self.classes[inp.index()];
                let allowed = cur & backward_classes(kind, &mut self.ins, out_new, j);
                if allowed != cur && !self.narrow(inp, allowed) {
                    return false;
                }
            }
        }
        true
    }

    /// Narrows `net` to `classes` and schedules every gate touching it.
    /// Returns `false` when the class set empties.
    fn narrow(&mut self, net: NetId, classes: u8) -> bool {
        self.classes[net.index()] = classes;
        self.trail.push(net);
        if classes == 0 {
            return false;
        }
        for &g in self.topo.touching(net) {
            if !self.queued[g.index()] {
                self.queued[g.index()] = true;
                self.queue.push(g);
            }
        }
        true
    }

    /// Restores the all-[`BOTH`] plane and an empty queue.
    fn reset(&mut self) {
        for net in self.trail.drain(..) {
            self.classes[net.index()] = BOTH;
        }
        for g in self.queue.drain(..) {
            self.queued[g.index()] = false;
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
    fn forward_classes_and_family() {
        // AND: out 0 possible iff some input can be 0.
        assert_eq!(forward_classes(GateKind::And, &[CAN1, CAN1]), CAN1);
        assert_eq!(forward_classes(GateKind::And, &[CAN0, CAN1]), CAN0);
        assert_eq!(forward_classes(GateKind::And, &[BOTH, CAN1]), BOTH);
        assert_eq!(forward_classes(GateKind::Nand, &[CAN1, CAN1]), CAN0);
        assert_eq!(forward_classes(GateKind::Nor, &[CAN0, CAN0]), CAN1);
    }

    #[test]
    fn forward_classes_xor_parity() {
        assert_eq!(forward_classes(GateKind::Xor, &[CAN1, CAN1]), CAN0);
        assert_eq!(forward_classes(GateKind::Xor, &[CAN1, CAN0]), CAN1);
        assert_eq!(forward_classes(GateKind::Xor, &[BOTH, CAN0]), BOTH);
        assert_eq!(forward_classes(GateKind::Xnor, &[CAN1, CAN1]), CAN1);
        assert_eq!(forward_classes(GateKind::Xor, &[CAN1, CAN1, CAN1]), CAN1);
    }

    #[test]
    fn backward_classes_and() {
        // AND with output forced 1: every input must be 1.
        assert_eq!(
            backward_classes(GateKind::And, &mut [BOTH, BOTH], CAN1, 0),
            CAN1
        );
        // AND with output forced 0 and the other input forced 1: this input
        // must be 0.
        assert_eq!(
            backward_classes(GateKind::And, &mut [BOTH, CAN1], CAN0, 0),
            CAN0
        );
        // AND with output forced 0 and the other input free: both classes OK.
        assert_eq!(
            backward_classes(GateKind::And, &mut [BOTH, BOTH], CAN0, 0),
            BOTH
        );
        // The substituted snapshot is restored.
        let mut ins = [BOTH, CAN1];
        backward_classes(GateKind::And, &mut ins, CAN0, 0);
        assert_eq!(ins, [BOTH, CAN1]);
    }

    #[test]
    fn learn_inverter_chain() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], d10());
        let y = b.gate("y", GateKind::Not, &[x], d10());
        b.mark_output(y);
        let c = b.build().unwrap();
        let t = ImplicationTable::learn(&c);
        assert!(t.implied_by(a, Level::One).contains(&(x, Level::Zero)));
        assert!(t.implied_by(a, Level::One).contains(&(y, Level::One)));
        assert!(t.implied_by(y, Level::Zero).contains(&(a, Level::Zero)));
        assert!(t.constants().is_empty());
        assert!(!t.is_empty());
    }

    #[test]
    fn learn_indirect_implication() {
        // y = AND(a, b), z = OR(y, a). Fixing z = 0 implies a = 0 (and
        // y = 0): an implication spanning two gates.
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let b2 = b.input("b");
        let y = b.gate("y", GateKind::And, &[a, b2], d10());
        let z = b.gate("z", GateKind::Or, &[y, a], d10());
        b.mark_output(z);
        let c = b.build().unwrap();
        let t = ImplicationTable::learn(&c);
        assert!(t.implied_by(z, Level::Zero).contains(&(a, Level::Zero)));
        // Contrapositive: a = 1 ⇒ z = 1 (classic SOCRATES-style learning:
        // forward propagation of a=1 alone cannot see it, because y is
        // unknown; the contrapositive of z=0 ⇒ a=0 provides it).
        assert!(t.implied_by(a, Level::One).contains(&(z, Level::One)));
    }

    #[test]
    fn learn_finds_constants() {
        // x = AND(a, NOT(a)) is constant 0.
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a], d10());
        let x = b.gate("x", GateKind::And, &[a, na], d10());
        b.mark_output(x);
        let c = b.build().unwrap();
        let t = ImplicationTable::learn(&c);
        assert!(t.constants().contains(&(x, Level::Zero)));
    }
}
