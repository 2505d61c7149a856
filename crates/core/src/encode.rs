//! CNF encoding of the floating-mode timing check σ = (ξ, s, δ).
//!
//! The floating-mode settle rule (see `ltt_sta::floating_settle`) is a
//! *function* of the input vector: every net gets a settled value and a
//! last-transition time, inputs settling at 0 and a gate output settling
//! `d` after its earliest controlling input (if one exists under the
//! vector) or its latest input otherwise. The encoding unrolls exactly
//! that recurrence:
//!
//! * one **value variable** `v(n)` per cone net — the settled Boolean
//!   value, constrained by ordinary gate consistency clauses;
//! * one **threshold variable** `g(n, T)` per net and *demanded* settle
//!   time `T`, meaning `settle(n) ≥ T`.
//!
//! Time is quantized to each net's *settle grid*: `grid(input) = {0}` and
//! `grid(o) = {t + d : t ∈ ∪ᵢ grid(inᵢ)}`. Since the settle rule only
//! ever takes min/max over input settle times and adds `d`, the actual
//! settle time always lies on the grid — the quantization is *lossless*,
//! which is what makes the backend an exact differential oracle rather
//! than a conservative approximation. Queries `settle(n) ≥ x` for
//! off-grid `x` round up to the next grid point (`settle ∈ grid` makes
//! the two equivalent) and constant-fold to true/false past the ends.
//!
//! For a gate with controlling value `c` and delay `d`, write
//! `C = ∨ᵢ cᵢ` (some input is controlling, `cᵢ ⇔ v(inᵢ) = c`) and
//! `x = T − d`. The rule becomes
//!
//! ```text
//! settle(o) ≥ T  ⇔  C ? ∧ᵢ (cᵢ → settle(inᵢ) ≥ x)   — earliest controlling
//!                     : ∨ᵢ (settle(inᵢ) ≥ x)          — latest input
//! ```
//!
//! which is Tseitin-translated with one `okᵢ ⇔ (cᵢ → geqᵢ)` helper per
//! (gate, T, input). XOR/XNOR and the unary kinds have no controlling
//! value (pure max rule); MUX uses its dedicated decomposition
//! `settle = min(via_select, via_data) + d` mirroring the simulator.
//!
//! Every rule reads its inputs only at `x = T − d`, so the check reaches
//! `settle(n) ≥ δ − L` for the path delays `L` from `n` to the output and
//! nothing else. A backward **demand pass** marks exactly those points:
//! it marks the output's grid point for δ, then walks the cone gates in
//! reverse topological order and, for each marked point `T` of a gate
//! output, marks on each input the grid point `T − d` rounds up to.
//! Only marked points get a variable, a ladder clause and timing clauses.
//! Each variable is still fully defined by the input vector, so the
//! instance has the same input models as one over the full grids.
//!
//! The check itself is one unit clause `settle(s) ≥ δ`: a model is an
//! input vector whose floating-mode delay reaches δ (a violation witness,
//! decodable with [`CnfCheck::witness`]); UNSAT proves no vector violates.
//!
//! A check with δ at or below the output's first grid point is violated
//! by every vector, and one with δ past its last point by none. Those
//! *grid-trivial* checks need no CNF. A `CheckSession` caches every net's
//! first and last grid point (its shortest and longest `dmax` path from
//! the inputs) and decides them from that after one budget poll, before
//! any per-check work. The free [`encode_check`] finds the same bounds
//! over its cone in the grid pass and classifies through the same rule.
//!
//! Apart from one map from each circuit net to its cone slot, the CNF
//! build keeps no per-net state outside the cone: grids, demand marks and
//! threshold variables live in flat arrays over the cone's nets. The
//! clause pass reuses its buffers from gate to gate and clause to clause.

use crate::budget::{ArmedBudget, Budget, TripReason};
use crate::cdcl::{Lit, Solver, Var};
use ltt_netlist::{Circuit, GateId, GateKind, NetId};
use std::iter::once;
use std::ops::Range;

/// Hard cap on full-grid points, demanded or not, guarding against grid
/// blow-up on adversarial delay structures (the grid is exact, not
/// sampled, so wide reconvergence with incommensurate delays can explode
/// it).
const MAX_THRESHOLD_VARS: usize = 4_000_000;

/// A variable the solver never handed out: the value of a gate output
/// before the variable pass, or the threshold of an undemanded point.
const NO_VAR: Var = Var::MAX;

/// The threshold of a demanded grid point before the variable pass.
const DEMANDED: Var = Var::MAX - 1;

/// The cone slot of a net outside the cone.
const OFF_CONE: u32 = u32::MAX;

/// A literal or a constant-folded truth value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Plit {
    True,
    False,
    L(Lit),
}

impl Plit {
    fn negated(self) -> Plit {
        match self {
            Plit::True => Plit::False,
            Plit::False => Plit::True,
            Plit::L(l) => Plit::L(l.negated()),
        }
    }
}

/// The solver being loaded, with one literal buffer every clause is
/// built in.
struct Sink {
    solver: Solver,
    buf: Vec<Lit>,
}

impl Sink {
    /// Adds a clause with constant folding: `True` satisfies the clause
    /// (skip), `False` literals drop out.
    fn clause(&mut self, lits: impl IntoIterator<Item = Plit>) {
        self.buf.clear();
        for p in lits {
            match p {
                Plit::True => return,
                Plit::False => {}
                Plit::L(l) => self.buf.push(l),
            }
        }
        self.solver.add_clause(&self.buf);
    }

    /// A fresh variable's positive literal.
    fn new_lit(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }
}

/// Why a check could not be encoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The exact settle grid exceeded `MAX_THRESHOLD_VARS` variables.
    GridTooLarge {
        /// Threshold variables the grid would have needed.
        needed: usize,
    },
    /// The budget tripped while building the encoding (gate-strided poll,
    /// so encoding composes with deadlines the same way solving does).
    Budget(TripReason),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::GridTooLarge { needed } => {
                write!(
                    f,
                    "settle grid needs {needed} threshold vars (cap {MAX_THRESHOLD_VARS})"
                )
            }
            EncodeError::Budget(reason) => write!(f, "budget tripped while encoding: {reason}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Result of encoding a check: either decided outright by grid analysis
/// or a CNF instance ready to solve.
pub enum Encoded {
    /// δ is at or below the smallest reachable settle time: *every* vector
    /// violates (the all-false vector is as good a witness as any).
    AlwaysViolated,
    /// δ exceeds the largest reachable settle time (the topological bound
    /// on the quantized grid): no vector can violate.
    NeverViolated,
    /// A CNF instance; SAT ⇔ some vector violates. Boxed: the loaded
    /// solver dwarfs the data-free variants.
    Cnf(Box<CnfCheck>),
}

/// An encoded check plus the variable maps needed to decode a model.
pub struct CnfCheck {
    /// The loaded solver.
    pub solver: Solver,
    /// `(input slot in the circuit's input list, value variable)` for each
    /// primary input inside the checked output's cone.
    input_vars: Vec<(usize, Var)>,
    num_inputs: usize,
}

impl CnfCheck {
    /// Decodes a model into a full-width input vector (non-cone inputs
    /// are fixed at `false`, matching the exhaustive oracle).
    pub fn witness(&self, model: &[bool]) -> Vec<bool> {
        let mut vector = vec![false; self.num_inputs];
        for &(slot, var) in &self.input_vars {
            vector[slot] = model[var as usize];
        }
        vector
    }
}

/// The first and last point of a net's settle grid: its shortest and
/// longest `dmax` path from the inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SettleBounds {
    pub(crate) first: i64,
    pub(crate) last: i64,
}

impl SettleBounds {
    /// The verdict the bounds alone give the check `settle ≥ δ`: every
    /// vector violates when δ is at or below the first point, none when δ
    /// is past the last. `None` when δ lies inside the span, where only a
    /// CNF decides.
    pub(crate) fn classify(self, delta: i64) -> Option<Encoded> {
        if delta <= self.first {
            Some(Encoded::AlwaysViolated)
        } else if delta > self.last {
            Some(Encoded::NeverViolated)
        } else {
            None
        }
    }
}

/// Every net's [`SettleBounds`], in one topological pass (inputs settle at
/// 0).
pub(crate) fn settle_bounds(circuit: &Circuit) -> Vec<SettleBounds> {
    let mut bounds = vec![SettleBounds { first: 0, last: 0 }; circuit.num_nets()];
    for &gid in circuit.topo_gates() {
        let gate = circuit.gate(gid);
        let d = i64::from(gate.dmax());
        let ins = gate.inputs().iter().map(|n| bounds[n.index()]);
        let first = ins.clone().map(|b| b.first).min().unwrap_or(0);
        let last = ins.map(|b| b.last).max().unwrap_or(0);
        bounds[gate.output().index()] = SettleBounds {
            first: first + d,
            last: last + d,
        };
    }
    bounds
}

/// Encodes the check `(output, δ)` over the output's fan-in cone,
/// polling `budget` between gates so a deadline aborts encoding too.
pub fn encode_check(
    circuit: &Circuit,
    output: NetId,
    delta: i64,
    budget: &Budget,
) -> Result<Encoded, EncodeError> {
    encode(circuit, output, delta, None, &mut budget.arm())
}

/// [`encode_check`] under an armed budget. It polls the budget once before
/// any other work. With the output's settle `bounds` known (a session
/// caches them) a check outside them is then decided at once; otherwise
/// the grid pass finds the same bounds over the cone.
pub(crate) fn encode(
    circuit: &Circuit,
    output: NetId,
    delta: i64,
    bounds: Option<SettleBounds>,
    armed: &mut ArmedBudget,
) -> Result<Encoded, EncodeError> {
    if let Some(reason) = armed.poll(0) {
        return Err(EncodeError::Budget(reason));
    }
    if let Some(decided) = bounds.and_then(|b| b.classify(delta)) {
        return Ok(decided);
    }
    let mut sink = Sink {
        solver: Solver::new(),
        buf: Vec::new(),
    };
    let (mut cone, input_vars) =
        match demanded_grids(circuit, output, delta, &mut sink.solver, armed)? {
            Demand::Decided(decided) => return Ok(decided),
            Demand::Points { cone, input_vars } => (cone, input_vars),
        };

    // Value and demanded threshold variables, gate by gate in topological
    // order, with the monotonicity ladder between consecutive demanded
    // points: settle ≥ a later point implies settle ≥ the one before.
    let first_gate = input_vars.len();
    for o in first_gate..cone.value.len() {
        cone.value[o] = sink.solver.new_var();
        let mut below = None;
        for p in cone.points(o) {
            if cone.thresh[p] == DEMANDED {
                let g = sink.solver.new_var();
                cone.thresh[p] = g;
                if let Some(b) = below {
                    sink.solver.add_clause(&[Lit::neg(g), Lit::pos(b)]);
                }
                below = Some(g);
            }
        }
    }

    // The check is one threshold query on the output.
    let delta_lit = match cone.geq(cone.slot(output), delta) {
        Plit::L(l) => l,
        constant => unreachable!("δ folded to {constant:?} after the short-circuits"),
    };

    // Value and timing clauses per gate.
    let mut scratch = Scratch::default();
    for (k, &gid) in cone.gates.iter().enumerate() {
        if let Some(reason) = armed.poll(0) {
            return Err(EncodeError::Budget(reason));
        }
        let gate = circuit.gate(gid);
        let o = first_gate + k;
        scratch.ins.clear();
        scratch
            .ins
            .extend(gate.inputs().iter().map(|&n| cone.slot(n)));
        scratch.vin.clear();
        scratch
            .vin
            .extend(scratch.ins.iter().map(|&s| cone.value[s]));
        encode_values(&mut sink, gate.kind(), cone.value[o], &scratch.vin);
        let d = i64::from(gate.dmax());
        encode_timing(&mut sink, &mut scratch, &cone, gate.kind(), d, o);
    }

    sink.solver.add_clause(&[delta_lit]);
    Ok(Encoded::Cnf(Box::new(CnfCheck {
        solver: sink.solver,
        input_vars,
        num_inputs: circuit.inputs().len(),
    })))
}

/// The check's fan-in cone in cone-local flat arrays. Slots number the
/// cone inputs first, in the circuit's input order, then the outputs of
/// the cone gates in topological order.
struct Cone {
    /// The slot of each circuit net (`OFF_CONE` outside the cone): the
    /// only array sized to the circuit.
    slot: Vec<u32>,
    /// The cone gates in topological order; gate `k` drives slot
    /// `inputs + k`.
    gates: Vec<GateId>,
    /// Slot `s`'s settle grid is `grid[start[s]..start[s + 1]]`: sorted,
    /// deduplicated reachable settle times.
    start: Vec<usize>,
    grid: Vec<i64>,
    /// Parallel to `grid`: the variable of `settle ≥ grid[p]` for a
    /// demanded point, `DEMANDED` before the variable pass, `NO_VAR` for
    /// a point no query rounds up to. A slot's first point is its
    /// unconditional minimum, so it is never demanded.
    thresh: Vec<Var>,
    /// Each slot's value variable (`NO_VAR` for gate outputs before the
    /// variable pass).
    value: Vec<Var>,
}

impl Cone {
    fn slot(&self, net: NetId) -> usize {
        self.slot[net.index()] as usize
    }

    /// Slot `s`'s grid points, as indices into `grid` and `thresh`.
    fn points(&self, s: usize) -> Range<usize> {
        self.start[s]..self.start[s + 1]
    }

    /// The grid point `settle(s) ≥ x` rounds up to, or `None` when the
    /// query folds to a constant (`x` at or below the first point, or past
    /// the last). `settle ∈ grid` makes `settle ≥ x` ⇔ `settle ≥ grid[p]`.
    fn point(&self, s: usize, x: i64) -> Option<usize> {
        let points = self.points(s);
        let idx = self.grid[points.clone()].partition_point(|&t| t < x);
        (idx > 0 && idx < points.len()).then_some(points.start + idx)
    }

    /// The literal/constant for `settle(s) ≥ x`.
    fn geq(&self, s: usize, x: i64) -> Plit {
        match self.point(s, x) {
            Some(p) => {
                let g = self.thresh[p];
                assert!(
                    g < DEMANDED,
                    "settle ≥ {x} reads a threshold the demand pass did not mark"
                );
                Plit::L(Lit::pos(g))
            }
            None if x <= self.grid[self.start[s]] => Plit::True,
            None => Plit::False,
        }
    }

    /// `(T, g)` for each demanded grid point `T` of slot `s` and its
    /// variable `g`, in increasing `T`.
    fn thresholds(&self, s: usize) -> impl Iterator<Item = (i64, Var)> + '_ {
        self.points(s)
            .filter(|&p| self.thresh[p] != NO_VAR)
            .map(|p| (self.grid[p], self.thresh[p]))
    }
}

/// What the grid and demand passes leave for the clause passes.
enum Demand {
    /// The output's settle bounds decided the check.
    Decided(Encoded),
    /// Every cone net's grid with its demanded points marked (value
    /// variables of gate outputs still unallocated), and the cone inputs'
    /// value variables.
    Points {
        cone: Cone,
        input_vars: Vec<(usize, Var)>,
    },
}

/// The grid pass and the demand pass of `encode_check`. Allocates only
/// the cone inputs' value variables.
fn demanded_grids(
    circuit: &Circuit,
    output: NetId,
    delta: i64,
    solver: &mut Solver,
    armed: &mut ArmedBudget,
) -> Result<Demand, EncodeError> {
    // The cone, walking the gates backwards from the output: every cone
    // net is marked (slot 0 for now) and the cone gates are collected.
    let mut slot = vec![OFF_CONE; circuit.num_nets()];
    slot[output.index()] = 0;
    let mut gates: Vec<GateId> = Vec::new();
    for &gid in circuit.topo_gates().iter().rev() {
        let gate = circuit.gate(gid);
        if slot[gate.output().index()] != OFF_CONE {
            gates.push(gid);
            for n in gate.inputs() {
                slot[n.index()] = 0;
            }
        }
    }
    gates.reverse();

    // Value variables, slots and (settle) grids for cone inputs.
    let mut input_vars = Vec::new();
    for (i, &net) in circuit.inputs().iter().enumerate() {
        if slot[net.index()] != OFF_CONE {
            slot[net.index()] = u32::try_from(input_vars.len()).expect("slots fit u32");
            input_vars.push((i, solver.new_var()));
        }
    }
    let first_gate = input_vars.len();
    let slots = first_gate + gates.len();
    let mut start: Vec<usize> = (0..=first_gate).collect();
    start.reserve(gates.len());
    let mut grid = vec![0; first_gate];

    // Grid pass, in topological order, with the blow-up guard. It counts
    // full grids, demanded or not, and sizes every grid before any
    // threshold variable is allocated, so an over-cap grid costs no
    // solver memory. Each gate's grid is its inputs' points shifted by `d`,
    // appended, sorted and deduplicated in place.
    let mut thresh_budget = MAX_THRESHOLD_VARS;
    for (k, &gid) in gates.iter().enumerate() {
        if let Some(reason) = armed.poll(0) {
            return Err(EncodeError::Budget(reason));
        }
        let gate = circuit.gate(gid);
        let d = i64::from(gate.dmax());
        let at = grid.len();
        for n in gate.inputs() {
            let s = slot[n.index()] as usize;
            let from = grid.len();
            grid.extend_from_within(start[s]..start[s + 1]);
            for t in &mut grid[from..] {
                *t += d;
            }
        }
        let points = &mut grid[at..];
        points.sort_unstable();
        let mut kept = 0;
        for i in 0..points.len() {
            if kept == 0 || points[i] != points[kept - 1] {
                points[kept] = points[i];
                kept += 1;
            }
        }
        grid.truncate(at + kept);
        let need = kept - 1;
        if need > thresh_budget {
            let needed = MAX_THRESHOLD_VARS - thresh_budget + need;
            return Err(EncodeError::GridTooLarge { needed });
        }
        thresh_budget -= need;
        slot[gate.output().index()] = u32::try_from(first_gate + k).expect("slots fit u32");
        start.push(grid.len());
    }

    let mut value = vec![NO_VAR; slots];
    for (s, &(_, var)) in input_vars.iter().enumerate() {
        value[s] = var;
    }
    let mut cone = Cone {
        slot,
        gates,
        start,
        thresh: vec![NO_VAR; grid.len()],
        grid,
        value,
    };

    let out = cone.slot(output);
    let bounds = SettleBounds {
        first: cone.grid[cone.start[out]],
        last: cone.grid[cone.start[out + 1] - 1],
    };
    if let Some(decided) = bounds.classify(delta) {
        return Ok(Demand::Decided(decided));
    }
    let p = cone
        .point(out, delta)
        .expect("δ lies inside the output's span");
    cone.thresh[p] = DEMANDED;

    // Demand pass, in reverse topological order, so a gate output's
    // demand is complete (every fanout gate has marked it) before the
    // gate passes it on. Every gate kind reads its inputs at `T − d` for
    // each threshold point `T` it defines (see `encode_timing`); a query
    // that folds to a constant marks nothing.
    for k in (0..cone.gates.len()).rev() {
        if let Some(reason) = armed.poll(0) {
            return Err(EncodeError::Budget(reason));
        }
        let gate = circuit.gate(cone.gates[k]);
        let d = i64::from(gate.dmax());
        for p in cone.points(first_gate + k) {
            if cone.thresh[p] == NO_VAR {
                continue;
            }
            let x = cone.grid[p] - d;
            for &n in gate.inputs() {
                if let Some(q) = cone.point(cone.slot(n), x) {
                    cone.thresh[q] = DEMANDED;
                }
            }
        }
    }

    Ok(Demand::Points { cone, input_vars })
}

/// Gate consistency clauses `v(o) ⇔ kind(v(in…))`.
fn encode_values(sink: &mut Sink, kind: GateKind, vo: Var, vin: &[Var]) {
    let solver = &mut sink.solver;
    let o = Lit::pos(vo);
    match kind {
        GateKind::And | GateKind::Nand => {
            // a = ∧ inputs; for NAND the output literal is inverted.
            let a = if kind == GateKind::And {
                o
            } else {
                o.negated()
            };
            sink.buf.clear();
            sink.buf.extend(vin.iter().map(|&v| Lit::neg(v)));
            sink.buf.push(a);
            solver.add_clause(&sink.buf);
            for &v in vin {
                solver.add_clause(&[a.negated(), Lit::pos(v)]);
            }
        }
        GateKind::Or | GateKind::Nor => {
            let a = if kind == GateKind::Or { o } else { o.negated() };
            sink.buf.clear();
            sink.buf.extend(vin.iter().map(|&v| Lit::pos(v)));
            sink.buf.push(a.negated());
            solver.add_clause(&sink.buf);
            for &v in vin {
                solver.add_clause(&[a, Lit::neg(v)]);
            }
        }
        GateKind::Not => {
            solver.add_clause(&[o, Lit::pos(vin[0])]);
            solver.add_clause(&[o.negated(), Lit::neg(vin[0])]);
        }
        GateKind::Buffer | GateKind::Delay => {
            solver.add_clause(&[o, Lit::neg(vin[0])]);
            solver.add_clause(&[o.negated(), Lit::pos(vin[0])]);
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain of binary parities; the final one equals the output
            // (inverted for XNOR).
            let mut acc = Lit::pos(vin[0]);
            for &v in &vin[1..vin.len() - 1] {
                let p = Lit::pos(solver.new_var());
                encode_xor(solver, p, acc, Lit::pos(v));
                acc = p;
            }
            let target = if kind == GateKind::Xor {
                o
            } else {
                o.negated()
            };
            encode_xor(solver, target, acc, Lit::pos(vin[vin.len() - 1]));
        }
        GateKind::Mux => {
            let (s, a, b) = (Lit::pos(vin[0]), Lit::pos(vin[1]), Lit::pos(vin[2]));
            // ¬sel → (o ⇔ a); sel → (o ⇔ b).
            solver.add_clause(&[s, o.negated(), a]);
            solver.add_clause(&[s, o, a.negated()]);
            solver.add_clause(&[s.negated(), o.negated(), b]);
            solver.add_clause(&[s.negated(), o, b.negated()]);
        }
    }
}

/// `t ⇔ a ⊕ b`.
fn encode_xor(solver: &mut Solver, t: Lit, a: Lit, b: Lit) {
    solver.add_clause(&[t.negated(), a, b]);
    solver.add_clause(&[t.negated(), a.negated(), b.negated()]);
    solver.add_clause(&[t, a, b.negated()]);
    solver.add_clause(&[t, a.negated(), b]);
}

/// Per-gate buffers the clause pass reuses from gate to gate.
#[derive(Default)]
struct Scratch {
    /// The gate's input slots.
    ins: Vec<usize>,
    /// Their value variables.
    vin: Vec<Var>,
    /// `cᵢ` per input.
    cs: Vec<Lit>,
    /// `settle(inᵢ) ≥ x` per input, for the threshold at hand.
    qs: Vec<Plit>,
    /// `okᵢ` per input, for the threshold at hand.
    oks: Vec<Plit>,
}

/// Timing clauses defining every threshold variable of slot `o`, driven
/// by a gate reading `scratch.ins`: one set per demanded point, none (and
/// no per-gate helper) for a gate with none.
fn encode_timing(
    sink: &mut Sink,
    scratch: &mut Scratch,
    cone: &Cone,
    kind: GateKind,
    d: i64,
    o: usize,
) {
    if cone.thresholds(o).next().is_none() {
        return;
    }
    let Scratch {
        ins, cs, qs, oks, ..
    } = scratch;

    match kind {
        GateKind::Not | GateKind::Buffer | GateKind::Delay => {
            // settle(o) = settle(in) + d.
            for (t, g) in cone.thresholds(o) {
                let g = Plit::L(Lit::pos(g));
                let q = cone.geq(ins[0], t - d);
                sink.clause([g.negated(), q]);
                sink.clause([g, q.negated()]);
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // No controlling value: settle(o) = max settle(in) + d.
            for (t, g) in cone.thresholds(o) {
                let g = Plit::L(Lit::pos(g));
                qs.clear();
                qs.extend(ins.iter().map(|&n| cone.geq(n, t - d)));
                sink.clause(once(g.negated()).chain(qs.iter().copied()));
                for &q in qs.iter() {
                    sink.clause([g, q.negated()]);
                }
            }
        }
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let cv = kind.controlling_value().expect("controlling kind");
            // cᵢ: "input i sits at the controlling value".
            cs.clear();
            cs.extend(ins.iter().map(|&n| Lit::new(cone.value[n], cv)));
            // cvar ⇔ ∨ cᵢ, shared across all thresholds of this gate.
            let cvar = sink.new_lit();
            sink.clause(once(cvar.negated()).chain(cs.iter().copied()).map(Plit::L));
            for &c in cs.iter() {
                sink.solver.add_clause(&[cvar, c.negated()]);
            }
            for (t, g) in cone.thresholds(o) {
                let g = Lit::pos(g);
                let x = t - d;
                qs.clear();
                qs.extend(ins.iter().map(|&n| cone.geq(n, x)));
                // okᵢ ⇔ (cᵢ → settle(inᵢ) ≥ x), folded when qᵢ is constant.
                oks.clear();
                for (&c, &q) in cs.iter().zip(qs.iter()) {
                    oks.push(match q {
                        Plit::True => Plit::True,
                        Plit::False => Plit::L(c.negated()),
                        Plit::L(ql) => {
                            let ok = sink.new_lit();
                            sink.solver.add_clause(&[ok.negated(), c.negated(), ql]);
                            sink.solver.add_clause(&[ok, c]);
                            sink.solver.add_clause(&[ok, ql.negated()]);
                            Plit::L(ok)
                        }
                    });
                }
                // g → okᵢ (controlling inputs must all be ≥ x).
                for &ok in oks.iter() {
                    sink.clause([Plit::L(g.negated()), ok]);
                }
                // g → (C ∨ some input ≥ x).
                sink.clause(
                    [Plit::L(g.negated()), Plit::L(cvar)]
                        .into_iter()
                        .chain(qs.iter().copied()),
                );
                // (C ∧ ∧ okᵢ) → g.
                sink.clause(
                    [Plit::L(cvar.negated()), Plit::L(g)]
                        .into_iter()
                        .chain(oks.iter().map(|ok| ok.negated())),
                );
                // (¬C ∧ some input ≥ x) → g.
                for &q in qs.iter() {
                    sink.clause([Plit::L(cvar), q.negated(), Plit::L(g)]);
                }
            }
        }
        GateKind::Mux => {
            // settle = min(via_select, via_data) + d with
            //   via_select = max(t_sel, sel ? t_b : t_a)
            //   via_data   = v_a = v_b ? max(t_a, t_b) : ∞
            let (ns, na, nb) = (ins[0], ins[1], ins[2]);
            let sel = Lit::pos(cone.value[ns]);
            let va = Lit::pos(cone.value[na]);
            let vb = Lit::pos(cone.value[nb]);
            // dvar ⇔ v_a ⊕ v_b (data disagree ⇒ via_data = ∞).
            let dvar = sink.new_lit();
            encode_xor(&mut sink.solver, dvar, va, vb);
            for (t, g) in cone.thresholds(o) {
                let g = Lit::pos(g);
                let x = t - d;
                let qs = cone.geq(ns, x);
                let qa = cone.geq(na, x);
                let qb = cone.geq(nb, x);
                // vs ⇔ via_select ≥ x ⇔ qs ∨ (sel ? qb : qa).
                let vs = if qs == Plit::True {
                    Plit::True
                } else {
                    let vs = sink.new_lit();
                    sink.clause([Plit::L(vs.negated()), qs, Plit::L(sel), qa]);
                    sink.clause([Plit::L(vs.negated()), qs, Plit::L(sel.negated()), qb]);
                    sink.clause([qs.negated(), Plit::L(vs)]);
                    sink.clause([Plit::L(sel.negated()), qb.negated(), Plit::L(vs)]);
                    sink.clause([Plit::L(sel), qa.negated(), Plit::L(vs)]);
                    Plit::L(vs)
                };
                // vd ⇔ via_data ≥ x ⇔ dvar ∨ qa ∨ qb.
                let vd = if qa == Plit::True || qb == Plit::True {
                    Plit::True
                } else {
                    let vd = sink.new_lit();
                    sink.clause([Plit::L(vd.negated()), Plit::L(dvar), qa, qb]);
                    sink.clause([Plit::L(dvar.negated()), Plit::L(vd)]);
                    sink.clause([qa.negated(), Plit::L(vd)]);
                    sink.clause([qb.negated(), Plit::L(vd)]);
                    Plit::L(vd)
                };
                // g ⇔ vs ∧ vd (min rule: both routes must still be ≥ x).
                sink.clause([Plit::L(g.negated()), vs]);
                sink.clause([Plit::L(g.negated()), vd]);
                sink.clause([Plit::L(g), vs.negated(), vd.negated()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_sta::vector_violates;
    use std::collections::BTreeSet;

    /// SAT-decides a check and cross-checks any witness with the exact
    /// simulator.
    fn sat_violated(c: &Circuit, output: NetId, delta: i64) -> bool {
        match encode_check(c, output, delta, &Budget::unlimited()).expect("small circuits encode") {
            Encoded::AlwaysViolated => true,
            Encoded::NeverViolated => false,
            Encoded::Cnf(mut cnf) => match cnf.solver.solve(&Budget::unlimited()) {
                crate::cdcl::SatResult::Sat(model) => {
                    let w = cnf.witness(&model);
                    assert!(
                        vector_violates(c, &w, output, delta),
                        "witness fails certification at δ={delta}"
                    );
                    true
                }
                crate::cdcl::SatResult::Unsat => false,
                crate::cdcl::SatResult::Unknown(r) => panic!("unlimited tripped: {r:?}"),
            },
        }
    }

    /// Sweeps δ around the exact delay and asserts agreement with the
    /// exhaustive oracle at every point.
    fn assert_matches_oracle(c: &Circuit, output: NetId) {
        let exact = ltt_sta::exhaustive_floating_delay(c, output).expect("small cone");
        for delta in [
            exact.delay - 15,
            exact.delay - 1,
            exact.delay,
            exact.delay + 1,
            exact.delay + 15,
            c.topological_delay() + 1,
        ] {
            assert_eq!(
                sat_violated(c, output, delta),
                exact.delay >= delta,
                "{}: δ={delta}, exact={}",
                c.name(),
                exact.delay
            );
        }
    }

    #[test]
    fn figure1_matches_oracle() {
        let c = ltt_netlist::generators::figure1(10);
        assert_matches_oracle(&c, c.outputs()[0]);
    }

    #[test]
    fn cascade_and_parity_match_oracle() {
        for kind in [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor] {
            let c = ltt_netlist::generators::cascade(kind, 5, 10);
            assert_matches_oracle(&c, c.outputs()[0]);
        }
        let c = ltt_netlist::generators::parity_tree(6, 10);
        assert_matches_oracle(&c, c.outputs()[0]);
    }

    #[test]
    fn false_path_chain_matches_oracle() {
        let c = ltt_netlist::generators::false_path_chain(3, 2, 10);
        assert_matches_oracle(&c, c.outputs()[0]);
    }

    #[test]
    fn mux_chain_matches_oracle() {
        let c = ltt_netlist::generators::shared_select_mux_chain(3, 10);
        assert_matches_oracle(&c, c.outputs()[0]);
    }

    #[test]
    fn ripple_carry_all_outputs_match_oracle() {
        let c = ltt_netlist::generators::ripple_carry_adder(3, 10);
        for &o in c.outputs() {
            assert_matches_oracle(&c, o);
        }
    }

    #[test]
    fn carry_skip_adder_matches_oracle() {
        let c = ltt_netlist::generators::carry_skip_adder(3, 3, 10);
        for &o in c.outputs() {
            assert_matches_oracle(&c, o);
        }
    }

    #[test]
    fn random_circuits_match_oracle() {
        use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
        for seed in 0..12 {
            let config = RandomCircuitConfig {
                num_inputs: 6,
                num_gates: 24,
                max_fanin: 3,
                num_outputs: 2,
                seed: 0xE0C0 + seed,
                ..Default::default()
            };
            let c = random_circuit(&config);
            for &o in c.outputs() {
                assert_matches_oracle(&c, o);
            }
        }
    }

    /// A random circuit over every gate kind the encoder tells apart
    /// (AND/NAND/OR/NOR with 2–3 inputs, XOR/XNOR with 3, NOT, MUX), each
    /// gate with its own delay from {3, 4, 7, 10}, so the inputs' grids do
    /// not line up and `T − d` queries fall between grid points.
    fn mixed_delay_circuit(seed: u64) -> Circuit {
        use ltt_netlist::{CircuitBuilder, DelayInterval};
        const KINDS: [(GateKind, usize); 8] = [
            (GateKind::And, 2),
            (GateKind::Or, 3),
            (GateKind::Nand, 3),
            (GateKind::Nor, 2),
            (GateKind::Xor, 3),
            (GateKind::Xnor, 3),
            (GateKind::Not, 1),
            (GateKind::Mux, 3),
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut b = CircuitBuilder::new(format!("mixed{seed}"));
        let mut nets: Vec<NetId> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        for g in 0..14 {
            let (kind, arity) = KINDS[(g + seed as usize) % KINDS.len()];
            // Distinct inputs from the six most recent nets.
            let mut recent: Vec<NetId> = nets[nets.len().saturating_sub(6)..].to_vec();
            let inputs: Vec<NetId> = (0..arity)
                .map(|_| recent.swap_remove(next(recent.len())))
                .collect();
            let delay = DelayInterval::fixed([3, 4, 7, 10][next(4)]);
            nets.push(b.gate(format!("g{g}"), kind, &inputs, delay));
        }
        b.mark_output(nets[nets.len() - 1]);
        b.mark_output(nets[nets.len() - 2]);
        b.build().expect("well-formed mixed circuit")
    }

    #[test]
    fn mixed_delays_match_oracle() {
        for seed in 0..16 {
            let c = mixed_delay_circuit(seed);
            for &o in c.outputs() {
                assert_matches_oracle(&c, o);
            }
        }
    }

    /// Every distinct delay `L` of a path from each net to `s` (empty off
    /// the cone), by walking every path backwards from `s`.
    fn path_delays(c: &Circuit, s: NetId) -> Vec<BTreeSet<i64>> {
        let mut delays = vec![BTreeSet::new(); c.num_nets()];
        let mut stack = vec![(s, 0)];
        while let Some((net, l)) = stack.pop() {
            // A repeated (net, L) has had its fan-in walked already.
            if !delays[net.index()].insert(l) {
                continue;
            }
            if let Some(gid) = c.net(net).driver() {
                let gate = c.gate(gid);
                let d = i64::from(gate.dmax());
                stack.extend(gate.inputs().iter().map(|&n| (n, l + d)));
            }
        }
        delays
    }

    /// Asserts that the demand pass marks, on every cone net, exactly the
    /// grid points `δ − L` rounds up to for the path delays `L` to `s`,
    /// leaving out queries that fold to a constant. Returns how many of
    /// those queries, on nets other than `s`, fell strictly between two
    /// grid points.
    fn assert_demand_is_exact(c: &Circuit, s: NetId, delta: i64) -> usize {
        let mut solver = Solver::new();
        let mut armed = Budget::unlimited().arm();
        let cone = match demanded_grids(c, s, delta, &mut solver, &mut armed).unwrap() {
            Demand::Points { cone, .. } => cone,
            Demand::Decided(_) => return 0,
        };
        let paths = path_delays(c, s);
        let mut rounded = 0;
        for (net, &slot) in cone.slot.iter().enumerate() {
            if slot == OFF_CONE {
                assert!(paths[net].is_empty(), "{}: net {net} left out", c.name());
                continue;
            }
            let points = cone.points(slot as usize);
            let grid = &cone.grid[points.clone()];
            let mut expected = BTreeSet::new();
            for &l in &paths[net] {
                let x = delta - l;
                if x <= grid[0] {
                    continue;
                }
                if let Some(&t) = grid.iter().find(|&&t| t >= x) {
                    expected.insert(t);
                    rounded += usize::from(t != x && net != s.index());
                }
            }
            let marked: Vec<i64> = points
                .filter(|&p| cone.thresh[p] != NO_VAR)
                .map(|p| cone.grid[p])
                .collect();
            assert_eq!(
                marked,
                expected.into_iter().collect::<Vec<_>>(),
                "{}: net {} at δ={delta}",
                c.name(),
                c.net(NetId::from_index(net)).name()
            );
        }
        rounded
    }

    #[test]
    fn demand_is_exactly_the_rounded_path_delays() {
        use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
        let mut circuits = vec![
            ltt_netlist::generators::figure1(10),
            ltt_netlist::suite::c17(10),
        ];
        circuits.extend((0..6).map(|seed| {
            random_circuit(&RandomCircuitConfig {
                num_inputs: 6,
                num_gates: 24,
                max_fanin: 3,
                num_outputs: 2,
                seed: 0xE0C0 + seed,
                ..Default::default()
            })
        }));
        circuits.extend((0..6).map(mixed_delay_circuit));
        let mut rounded = 0;
        for c in &circuits {
            for &s in c.outputs() {
                for delta in 0..=c.topological_delay() + 1 {
                    rounded += assert_demand_is_exact(c, s, delta);
                }
            }
        }
        assert!(rounded > 0, "no query inside a cone was rounded up");
    }

    #[test]
    fn trivial_bounds_constant_fold() {
        let c = ltt_netlist::generators::figure1(10);
        let s = c.outputs()[0];
        // δ ≤ min settle time: every vector violates.
        assert!(matches!(
            encode_check(&c, s, 0, &Budget::unlimited()).unwrap(),
            Encoded::AlwaysViolated
        ));
        // δ above the topological bound: none can.
        assert!(matches!(
            encode_check(&c, s, c.topological_delay() + 1, &Budget::unlimited()).unwrap(),
            Encoded::NeverViolated
        ));
    }
}
