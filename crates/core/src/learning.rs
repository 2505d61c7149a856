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
//!
//! The propagation runs 64 assumptions at a time, one per bit lane of a
//! word per net and class (DESIGN.md §16).

use ltt_netlist::{Circuit, GateId, GateKind, NetId};
use ltt_waveform::Level;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// All lanes.
const ALL: u64 = !0;

/// The lane-wise class rules of one gate visit, over a snapshot of the
/// gate's input words. A word pair `[can0, can1]` holds, per lane, whether
/// the net can still settle to 0 and to 1. On a live lane no pair is empty,
/// and every rule below relies on that: it is the exact "which classes
/// remain possible" analysis of the gate for each live lane, computed for
/// all 64 lanes in O(fan-in) word operations.
enum GateRule {
    /// NOT, BUF, DELAY and MUX read the snapshot directly.
    Direct(GateKind),
    /// AND/NAND/OR/NOR. `c` indexes the controlling input class and `oc`
    /// the controlled output class. `any`/`any2`: lanes where at least one
    /// / two inputs can be controlling; `miss`/`miss2`: lanes where at
    /// least one / two inputs cannot be non-controlling. "Some *other*
    /// input" follows from the count without prefix or suffix arrays.
    Ctrl {
        c: usize,
        oc: usize,
        any: u64,
        any2: u64,
        miss: u64,
        miss2: u64,
    },
    /// XOR/XNOR. `even` indexes the output class of even input parity.
    /// `free`/`free2`: lanes where at least one / two inputs can take both
    /// classes (then every parity is reachable); `odd`: the parity of the
    /// inputs fixed to 1.
    Parity {
        even: usize,
        free: u64,
        free2: u64,
        odd: u64,
    },
}

impl GateRule {
    fn new(kind: GateKind, ins: &[[u64; 2]]) -> GateRule {
        match kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let c = usize::from(kind.controlling_value().expect("ctrl"));
                let oc = usize::from(kind.controlled_output().expect("ctrl"));
                let (mut any, mut any2, mut miss, mut miss2) = (0, 0, 0, 0);
                for s in ins {
                    any2 |= any & s[c];
                    any |= s[c];
                    miss2 |= miss & !s[1 - c];
                    miss |= !s[1 - c];
                }
                GateRule::Ctrl {
                    c,
                    oc,
                    any,
                    any2,
                    miss,
                    miss2,
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let (mut free, mut free2, mut odd) = (0, 0, 0);
                for s in ins {
                    let both = s[0] & s[1];
                    free2 |= free & both;
                    free |= both;
                    odd ^= s[1] & !s[0];
                }
                GateRule::Parity {
                    even: usize::from(kind == GateKind::Xnor),
                    free,
                    free2,
                    odd,
                }
            }
            GateKind::Not | GateKind::Buffer | GateKind::Delay | GateKind::Mux => {
                GateRule::Direct(kind)
            }
        }
    }

    /// The output classes the inputs can produce.
    fn forward(&self, ins: &[[u64; 2]]) -> [u64; 2] {
        match *self {
            GateRule::Direct(GateKind::Not) => [ins[0][1], ins[0][0]],
            GateRule::Direct(GateKind::Mux) => {
                let [s, a, b] = [ins[0], ins[1], ins[2]];
                [s[0] & a[0] | s[1] & b[0], s[0] & a[1] | s[1] & b[1]]
            }
            GateRule::Direct(_) => ins[0],
            GateRule::Ctrl { oc, any, miss, .. } => {
                let mut out = [0; 2];
                out[oc] = any;
                out[1 - oc] = !miss;
                out
            }
            GateRule::Parity {
                even, free, odd, ..
            } => {
                let mut out = [0; 2];
                out[even] = free | !odd;
                out[1 - even] = free | odd;
                out
            }
        }
    }

    /// The classes input `j` can take while the gate still produces one of
    /// the output classes `out`.
    fn backward(&self, ins: &[[u64; 2]], out: [u64; 2], j: usize) -> [u64; 2] {
        // The lanes in which `s` can match `out`.
        let meets = |s: [u64; 2]| s[0] & out[0] | s[1] & out[1];
        match *self {
            GateRule::Direct(GateKind::Not) => [out[1], out[0]],
            GateRule::Direct(GateKind::Mux) => {
                let [s, a, b] = [ins[0], ins[1], ins[2]];
                match j {
                    0 => [meets(a), meets(b)],
                    1 => [
                        s[0] & out[0] | s[1] & meets(b),
                        s[0] & out[1] | s[1] & meets(b),
                    ],
                    _ => [
                        s[1] & out[0] | s[0] & meets(a),
                        s[1] & out[1] | s[0] & meets(a),
                    ],
                }
            }
            GateRule::Direct(_) => out,
            GateRule::Ctrl {
                c,
                oc,
                any,
                any2,
                miss,
                miss2,
            } => {
                // At the controlling value input j forces the controlled
                // output. At the other value the output can be controlled
                // iff some other input can be controlling, and not
                // controlled iff every other input can be non-controlling.
                let s = ins[j];
                let others_c = any2 | any & !s[c];
                let others_nc = !miss2 & !(miss & s[1 - c]);
                let mut allowed = [0; 2];
                allowed[c] = out[oc];
                allowed[1 - c] = out[oc] & others_c | out[1 - oc] & others_nc;
                allowed
            }
            GateRule::Parity {
                even,
                free,
                free2,
                odd,
            } => {
                // The other inputs' reachable parities; input j at 0 keeps
                // their parity, at 1 flips it.
                let s = ins[j];
                let others_free = free2 | free & !(s[0] & s[1]);
                let others_odd = odd ^ (s[1] & !s[0]);
                let (e, o) = (others_free | !others_odd, others_free | others_odd);
                let (out_e, out_o) = (out[even], out[1 - even]);
                [e & out_e | o & out_o, o & out_e | e & out_o]
            }
        }
    }
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
    /// selects it; sessions learn the [`ImplicationTable::learn_stems`]
    /// table, and tests check that table against this one.
    pub fn learn(circuit: &Circuit) -> ImplicationTable {
        Self::learn_from(circuit, &vec![true; circuit.num_nets()])
    }

    /// Runs the learning pre-process with only the reconvergent fanout
    /// stems ([`Circuit::reconvergent_stems`]) as assumption sources —
    /// where non-local implications live and the table stays small. A
    /// [`CheckSession`](crate::CheckSession) learns the same table from
    /// its cached stem mask.
    pub fn learn_stems(circuit: &Circuit) -> ImplicationTable {
        Self::learn_from(circuit, &circuit.reconvergent_stems())
    }

    /// Fixes every net flagged in `sources` (in net order) to each class
    /// in turn and records the unique classes the kernel derives, direct
    /// and contrapositive, each pair once, in first-insertion order.
    ///
    /// The assumptions run 64 at a time, one per lane of a [`LaneKernel`];
    /// lane `l` of a chunk is its `l`-th assumption in that order.
    pub(crate) fn learn_from(circuit: &Circuit, sources: &[bool]) -> ImplicationTable {
        let n = circuit.num_nets();
        assert!(n < 1 << 31, "implication keys pack two net ids");
        let mut kernel = LaneKernel::new(circuit);
        let assumptions: Vec<(NetId, Level)> = circuit
            .net_ids()
            .filter(|y| sources[y.index()])
            .flat_map(|y| Level::BOTH.map(|v| (y, v)))
            .collect();
        let mut constants = Vec::new();
        // One record per learned fact y=v ⇒ x=w in insertion order,
        // `(bucket(y, v), bucket(x, w))`, standing for the direct pair and
        // its contrapositive x=¬w ⇒ y=¬v. `offsets[b + 1]` counts bucket
        // b's pairs as they arrive.
        let mut facts: Vec<(u32, u32)> = Vec::new();
        let mut offsets = vec![0u32; 2 * n + 1];
        let mut seen: HashSet<u64, BuildHasherDefault<KeyHasher>> = HashSet::default();
        // The nets each lane fixed to one class, in net order.
        let mut fixed: Vec<Vec<NetId>> = vec![Vec::new(); 64];

        for chunk in assumptions.chunks(64) {
            kernel.run(chunk);
            kernel.trail.sort_unstable();
            for &x in &kernel.trail {
                let [c0, c1] = kernel.can[x.index()];
                let mut unique = (c0 ^ c1) & !kernel.dead;
                while unique != 0 {
                    fixed[unique.trailing_zeros() as usize].push(x);
                    unique &= unique - 1;
                }
            }
            for (l, &(y, v)) in chunk.iter().enumerate() {
                if (kernel.dead >> l) & 1 != 0 {
                    // y can never settle to v: it is constant ¬v.
                    constants.push((y, !v));
                    continue;
                }
                for x in fixed[l].drain(..).filter(|&x| x != y) {
                    let w = if (kernel.can[x.index()][0] >> l) & 1 != 0 {
                        Level::Zero
                    } else {
                        Level::One
                    };
                    // Direct pairs never repeat (one assumption per (y, v),
                    // one unique class per x), nor do contrapositives. The
                    // fact y=v ⇒ x=w stores the same two pairs as the fact
                    // x=¬w ⇒ y=¬v learned under x=¬w, and no other fact
                    // shares either pair. So only facts whose target x is
                    // itself a source go through `seen`, under one key for
                    // both: the pair whose source net is the smaller.
                    let (src, tgt) = (bucket(y, v), bucket(x, w));
                    if sources[x.index()] {
                        let (a, b) = if y < x {
                            (src, tgt)
                        } else {
                            (tgt ^ 1, src ^ 1)
                        };
                        if !seen.insert(u64::from(a) << 32 | u64::from(b)) {
                            continue;
                        }
                    }
                    offsets[src as usize + 1] += 1;
                    offsets[(tgt ^ 1) as usize + 1] += 1;
                    facts.push((src, tgt));
                }
            }
            kernel.reset();
        }

        let total = 2 * facts.len();
        u32::try_from(total).expect("< 4G implications");
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        // Replays the facts in insertion order, so every bucket keeps its
        // first-insertion order. Bucket `b ^ 1` is `b` with the class flipped.
        let pair = |b: u32| {
            (
                NetId::from_index(b as usize / 2),
                Level::BOTH[b as usize % 2],
            )
        };
        let mut fill = offsets.clone();
        let mut implied = vec![(NetId::from_index(0), Level::Zero); total];
        for (src, tgt) in facts {
            for (b, p) in [(src, tgt), (tgt ^ 1, src ^ 1)] {
                let slot = &mut fill[b as usize];
                implied[*slot as usize] = pair(p);
                *slot += 1;
            }
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

/// The class-propagation kernel: 64 assumptions at once, one per bit lane,
/// on the circuit's CSR tables. Each net holds two words: the lanes
/// in which it can still settle to 0, and to 1. A lane that would empty a
/// net is marked dead and frozen. Every other lane ends at the greatest
/// fixpoint of the gate rules below its own assumption, which is unique,
/// so neither the visit order nor the other lanes change it. Allocated
/// once per learn call and reset through the trail of touched nets
/// between chunks.
struct LaneKernel<'t> {
    circuit: &'t Circuit,
    /// Gates by topological position.
    order: &'t [GateId],
    /// `[can0, can1]` per net; all ones everywhere off the trail.
    can: Vec<[u64; 2]>,
    /// Every net some lane of the chunk narrowed, each once.
    trail: Vec<NetId>,
    /// Lanes that are contradictory or carry no assumption.
    dead: u64,
    /// Gates waiting to be visited, one bit per topological position; set
    /// bits lie in words `lo..=hi`.
    pending: Vec<u64>,
    lo: usize,
    hi: usize,
    /// Input-word snapshot of the gate being visited.
    ins: Vec<[u64; 2]>,
}

impl<'t> LaneKernel<'t> {
    fn new(circuit: &'t Circuit) -> Self {
        LaneKernel {
            circuit,
            order: circuit.topo_gates(),
            can: vec![[ALL; 2]; circuit.num_nets()],
            trail: Vec::new(),
            dead: 0,
            pending: vec![0; circuit.num_gates().div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
            ins: Vec::new(),
        }
    }

    /// Propagates lane `l`'s assumption `chunk[l]` to a fixpoint in every
    /// lane at once, visiting pending gates lowest topological position
    /// first (forward, then backward per visit). Lanes past the chunk
    /// start dead. Call [`LaneKernel::reset`] before the next chunk.
    fn run(&mut self, chunk: &[(NetId, Level)]) {
        debug_assert!((1..=64).contains(&chunk.len()));
        self.dead = ALL.checked_shl(chunk.len() as u32).unwrap_or(0);
        for (l, &(y, v)) in chunk.iter().enumerate() {
            let mut allowed = [ALL; 2];
            allowed[(!v).index()] = !(1 << l);
            self.narrow(y, allowed);
        }
        while let Some(g) = self.pop() {
            let gate = self.circuit.gate(g);
            let inputs = gate.inputs();
            self.ins.clear();
            self.ins.extend(inputs.iter().map(|n| self.can[n.index()]));
            let rule = GateRule::new(gate.kind(), &self.ins);
            let out = gate.output();
            self.narrow(out, rule.forward(&self.ins));
            let out_words = self.can[out.index()];
            for (j, &inp) in inputs.iter().enumerate() {
                let allowed = rule.backward(&self.ins, out_words, j);
                self.narrow(inp, allowed);
            }
        }
    }

    /// Narrows `net` to `allowed` in every live lane and schedules every
    /// gate touching it. A live lane that would empty the net dies
    /// instead: its words stay as they are, here and everywhere after.
    fn narrow(&mut self, net: NetId, allowed: [u64; 2]) {
        let cur = self.can[net.index()];
        let mut next = [
            cur[0] & (allowed[0] | self.dead),
            cur[1] & (allowed[1] | self.dead),
        ];
        let emptied = !(next[0] | next[1]);
        if emptied != 0 {
            self.dead |= emptied;
            next = [
                cur[0] & (allowed[0] | self.dead),
                cur[1] & (allowed[1] | self.dead),
            ];
        }
        if next == cur {
            return;
        }
        if cur == [ALL; 2] {
            self.trail.push(net);
        }
        self.can[net.index()] = next;
        for &g in self.circuit.net(net).touching() {
            let p = self.circuit.gate(g).topo_position();
            self.pending[p / 64] |= 1u64 << (p % 64);
            self.lo = self.lo.min(p / 64);
            self.hi = self.hi.max(p / 64);
        }
    }

    /// Takes the pending gate of lowest topological position.
    fn pop(&mut self) -> Option<GateId> {
        while self.lo <= self.hi {
            let bits = self.pending[self.lo];
            if bits != 0 {
                self.pending[self.lo] = bits & (bits - 1);
                return Some(self.order[self.lo * 64 + bits.trailing_zeros() as usize]);
            }
            self.lo += 1;
        }
        (self.lo, self.hi) = (usize::MAX, 0);
        None
    }

    /// Restores the all-ones plane. The worklist is already empty.
    fn reset(&mut self) {
        for net in self.trail.drain(..) {
            self.can[net.index()] = [ALL; 2];
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

    const CAN0: u8 = 1;
    const CAN1: u8 = 2;
    const BOTH: u8 = CAN0 | CAN1;

    /// A class byte as lane 0 of a word pair.
    fn words(s: u8) -> [u64; 2] {
        [u64::from(s & CAN0 != 0), u64::from(s & CAN1 != 0)]
    }

    /// Lane `l` of a word pair as a class byte.
    fn byte(w: [u64; 2], l: usize) -> u8 {
        (((w[0] >> l) & 1) as u8 * CAN0) | (((w[1] >> l) & 1) as u8 * CAN1)
    }

    fn forward_classes(kind: GateKind, ins: &[u8]) -> u8 {
        let ins: Vec<[u64; 2]> = ins.iter().map(|&s| words(s)).collect();
        byte(GateRule::new(kind, &ins).forward(&ins), 0)
    }

    /// The classes input `j` keeps, as the kernel's narrowing intersects.
    fn backward_classes(kind: GateKind, ins: &[u8], out: u8, j: usize) -> u8 {
        let words: Vec<[u64; 2]> = ins.iter().map(|&s| words(s)).collect();
        let allowed = GateRule::new(kind, &words).backward(&words, self::words(out), j);
        byte(allowed, 0) & ins[j]
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
            backward_classes(GateKind::And, &[BOTH, BOTH], CAN1, 0),
            CAN1
        );
        // AND with output forced 0 and the other input forced 1: this input
        // must be 0.
        assert_eq!(
            backward_classes(GateKind::And, &[BOTH, CAN1], CAN0, 0),
            CAN0
        );
        // AND with output forced 0 and the other input free: both classes OK.
        assert_eq!(
            backward_classes(GateKind::And, &[BOTH, BOTH], CAN0, 0),
            BOTH
        );
    }

    #[test]
    fn word_rules_match_enumeration() {
        // Every non-empty class combination of every kind's inputs (fan-in
        // up to 4) and output, 64 combinations per word, against brute
        // force over the concrete values: the forward classes are the
        // outputs some input tuple produces, and input j keeps v iff some
        // tuple with x_j = v produces an allowed output.
        for kind in GateKind::ALL {
            for fanin in (1..=4).filter(|&k| kind.arity_ok(k)) {
                let combos: Vec<(Vec<u8>, u8)> = (0..3usize.pow(fanin as u32 + 1))
                    .map(|mut code| {
                        let mut digit = || {
                            let s = (code % 3) as u8 + 1;
                            code /= 3;
                            s
                        };
                        let ins = (0..fanin).map(|_| digit()).collect();
                        (ins, digit())
                    })
                    .collect();
                for chunk in combos.chunks(64) {
                    let mut ins = vec![[0u64; 2]; fanin];
                    let mut out = [0u64; 2];
                    for (l, (classes, o)) in chunk.iter().enumerate() {
                        for (w, &s) in ins.iter_mut().zip(classes) {
                            w[0] |= words(s)[0] << l;
                            w[1] |= words(s)[1] << l;
                        }
                        out[0] |= words(*o)[0] << l;
                        out[1] |= words(*o)[1] << l;
                    }
                    let rule = GateRule::new(kind, &ins);
                    let fwd = rule.forward(&ins);
                    let bwd: Vec<[u64; 2]> =
                        (0..fanin).map(|j| rule.backward(&ins, out, j)).collect();
                    for (l, (classes, o)) in chunk.iter().enumerate() {
                        let (mut produced, mut kept) = (0u8, vec![0u8; fanin]);
                        for tuple in 0..1usize << fanin {
                            let vals: Vec<bool> =
                                (0..fanin).map(|i| (tuple >> i) & 1 == 1).collect();
                            if (0..fanin).any(|i| classes[i] & (1 << usize::from(vals[i])) == 0) {
                                continue;
                            }
                            let y = 1 << usize::from(kind.eval(&vals));
                            produced |= y;
                            if y & o != 0 {
                                for (i, k) in kept.iter_mut().enumerate() {
                                    *k |= 1 << usize::from(vals[i]);
                                }
                            }
                        }
                        let case = format!("{kind} {classes:?} out {o}");
                        assert_eq!(byte(fwd, l), produced, "forward {case}");
                        for j in 0..fanin {
                            assert_eq!(byte(bwd[j], l) & classes[j], kept[j], "input {j} {case}");
                        }
                    }
                }
            }
        }
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
