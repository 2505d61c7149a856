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
//! * one **threshold variable** `g(n, T)` per net and *reachable* settle
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
//! The check itself is one unit clause `settle(s) ≥ δ`: a model is an
//! input vector whose floating-mode delay reaches δ (a violation witness,
//! decodable with [`Encoded::witness`]); UNSAT proves no vector violates.

use crate::budget::{Budget, TripReason};
use crate::cdcl::{Lit, Solver, Var};
use ltt_netlist::{Circuit, GateKind, NetId};

/// Hard cap on threshold variables, guarding against grid blow-up on
/// adversarial delay structures (the grid is exact, not sampled, so wide
/// reconvergence with incommensurate delays can explode it).
const MAX_THRESHOLD_VARS: usize = 4_000_000;

/// The value variable of a gate output whose grid is sized but whose
/// variables are not allocated yet (never handed to the solver).
const UNALLOCATED: Var = Var::MAX;

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

/// Clause builder with constant folding: `True` satisfies the clause
/// (skip), `False` literals drop out.
fn add_clause(solver: &mut Solver, lits: &[Plit]) {
    let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
    for &p in lits {
        match p {
            Plit::True => return,
            Plit::False => {}
            Plit::L(l) => c.push(l),
        }
    }
    solver.add_clause(&c);
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

/// Per-net encoding state: the settle grid and its threshold variables.
struct NetEnc {
    /// Sorted, deduplicated reachable settle times.
    grid: Vec<i64>,
    /// `thresh[j]` ⇔ `settle ≥ grid[j + 1]` (the first grid point is the
    /// unconditional minimum, so it needs no variable).
    thresh: Vec<Var>,
    value: Var,
}

impl NetEnc {
    /// The literal/constant for `settle(net) ≥ x`.
    fn geq(&self, x: i64) -> Plit {
        let first = *self.grid.first().expect("grid non-empty");
        if x <= first {
            return Plit::True;
        }
        // Smallest grid index with grid[idx] ≥ x; settle ∈ grid makes
        // `settle ≥ x` ⇔ `settle ≥ grid[idx]`.
        match self.grid.binary_search(&x) {
            Ok(idx) => Plit::L(Lit::pos(self.thresh[idx - 1])),
            Err(idx) if idx < self.grid.len() => Plit::L(Lit::pos(self.thresh[idx - 1])),
            Err(_) => Plit::False,
        }
    }
}

/// Encodes the check `(output, δ)` over the output's fan-in cone,
/// polling `budget` between gates so a deadline aborts encoding too.
pub fn encode_check(
    circuit: &Circuit,
    output: NetId,
    delta: i64,
    budget: &Budget,
) -> Result<Encoded, EncodeError> {
    let mut armed = budget.arm();
    let cone = circuit.fanin_cone(output);
    let mut solver = Solver::new();
    let mut nets: Vec<Option<NetEnc>> = (0..circuit.num_nets()).map(|_| None).collect();

    // Value variables and (settle) grids for cone inputs.
    let mut input_vars = Vec::new();
    for (slot, &net) in circuit.inputs().iter().enumerate() {
        if cone[net.index()] {
            let value = solver.new_var();
            input_vars.push((slot, value));
            nets[net.index()] = Some(NetEnc {
                grid: vec![0],
                thresh: Vec::new(),
                value,
            });
        }
    }

    // First pass: grids in topological order, with the blow-up guard. Every
    // grid is sized before any threshold variable is allocated, so an
    // over-cap grid costs no solver memory.
    let mut thresh_budget = MAX_THRESHOLD_VARS;
    let mut cone_outputs: Vec<NetId> = Vec::new();
    for &gid in circuit.topo_gates() {
        if let Some(reason) = armed.poll(0) {
            return Err(EncodeError::Budget(reason));
        }
        let gate = circuit.gate(gid);
        let o = gate.output();
        if !cone[o.index()] {
            continue;
        }
        let d = i64::from(gate.dmax());
        let mut grid: Vec<i64> = Vec::new();
        for n in gate.inputs() {
            let enc = nets[n.index()].as_ref().expect("cone inputs precede gate");
            grid.extend(enc.grid.iter().map(|&t| t + d));
        }
        grid.sort_unstable();
        grid.dedup();
        let need = grid.len() - 1;
        if need > thresh_budget {
            let needed = MAX_THRESHOLD_VARS - thresh_budget + need;
            return Err(EncodeError::GridTooLarge { needed });
        }
        thresh_budget -= need;
        nets[o.index()] = Some(NetEnc {
            grid,
            thresh: Vec::new(),
            value: UNALLOCATED,
        });
        cone_outputs.push(o);
    }
    // Value and threshold variables, gate by gate in the same order.
    for o in cone_outputs {
        let enc = nets[o.index()].as_mut().expect("grid sized above");
        enc.value = solver.new_var();
        enc.thresh = (1..enc.grid.len()).map(|_| solver.new_var()).collect();
        // Monotonicity ladder: settle ≥ grid[j+1] implies settle ≥ grid[j].
        for w in enc.thresh.windows(2) {
            solver.add_clause(&[Lit::neg(w[1]), Lit::pos(w[0])]);
        }
    }

    // The check is one threshold query on the output.
    let delta_lit = match nets[output.index()]
        .as_ref()
        .expect("output in cone")
        .geq(delta)
    {
        Plit::True => return Ok(Encoded::AlwaysViolated),
        Plit::False => return Ok(Encoded::NeverViolated),
        Plit::L(l) => l,
    };

    // Second pass: value and timing clauses per gate.
    for &gid in circuit.topo_gates() {
        if let Some(reason) = armed.poll(0) {
            return Err(EncodeError::Budget(reason));
        }
        let gate = circuit.gate(gid);
        let o = gate.output();
        if !cone[o.index()] {
            continue;
        }
        let d = i64::from(gate.dmax());
        let in_nets: Vec<usize> = gate.inputs().iter().map(|n| n.index()).collect();
        let vo = nets[o.index()].as_ref().expect("encoded").value;
        let vin: Vec<Var> = in_nets
            .iter()
            .map(|&n| nets[n].as_ref().expect("encoded").value)
            .collect();
        encode_values(&mut solver, gate.kind(), vo, &vin);
        encode_timing(&mut solver, &mut nets, gate.kind(), d, o.index(), &in_nets);
    }

    solver.add_clause(&[delta_lit]);
    Ok(Encoded::Cnf(Box::new(CnfCheck {
        solver,
        input_vars,
        num_inputs: circuit.inputs().len(),
    })))
}

/// Gate consistency clauses `v(o) ⇔ kind(v(in…))`.
fn encode_values(solver: &mut Solver, kind: GateKind, vo: Var, vin: &[Var]) {
    let o = Lit::pos(vo);
    match kind {
        GateKind::And | GateKind::Nand => {
            // a = ∧ inputs; for NAND the output literal is inverted.
            let a = if kind == GateKind::And {
                o
            } else {
                o.negated()
            };
            let mut all: Vec<Lit> = vin.iter().map(|&v| Lit::neg(v)).collect();
            all.push(a);
            solver.add_clause(&all);
            for &v in vin {
                solver.add_clause(&[a.negated(), Lit::pos(v)]);
            }
        }
        GateKind::Or | GateKind::Nor => {
            let a = if kind == GateKind::Or { o } else { o.negated() };
            let mut any: Vec<Lit> = vin.iter().map(|&v| Lit::pos(v)).collect();
            any.push(a.negated());
            solver.add_clause(&any);
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

/// Timing clauses defining every threshold variable of `o`.
fn encode_timing(
    solver: &mut Solver,
    nets: &mut [Option<NetEnc>],
    kind: GateKind,
    d: i64,
    o: usize,
    in_nets: &[usize],
) {
    let out_grid: Vec<i64> = nets[o].as_ref().expect("encoded").grid.clone();
    let out_thresh: Vec<Var> = nets[o].as_ref().expect("encoded").thresh.clone();

    match kind {
        GateKind::Not | GateKind::Buffer | GateKind::Delay => {
            // settle(o) = settle(in) + d.
            for (j, &t) in out_grid.iter().enumerate().skip(1) {
                let g = Plit::L(Lit::pos(out_thresh[j - 1]));
                let q = nets[in_nets[0]].as_ref().expect("encoded").geq(t - d);
                add_clause(solver, &[g.negated(), q]);
                add_clause(solver, &[g, q.negated()]);
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // No controlling value: settle(o) = max settle(in) + d.
            for (j, &t) in out_grid.iter().enumerate().skip(1) {
                let g = Plit::L(Lit::pos(out_thresh[j - 1]));
                let qs: Vec<Plit> = in_nets
                    .iter()
                    .map(|&n| nets[n].as_ref().expect("encoded").geq(t - d))
                    .collect();
                let mut fwd = vec![g.negated()];
                fwd.extend(qs.iter().copied());
                add_clause(solver, &fwd);
                for &q in &qs {
                    add_clause(solver, &[g, q.negated()]);
                }
            }
        }
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let cv = kind.controlling_value().expect("controlling kind");
            // cᵢ: "input i sits at the controlling value".
            let cs: Vec<Lit> = in_nets
                .iter()
                .map(|&n| Lit::new(nets[n].as_ref().expect("encoded").value, cv))
                .collect();
            // cvar ⇔ ∨ cᵢ, shared across all thresholds of this gate.
            let cvar = Lit::pos(solver.new_var());
            let mut any = vec![cvar.negated()];
            any.extend(cs.iter().copied());
            solver.add_clause(&any);
            for &c in &cs {
                solver.add_clause(&[cvar, c.negated()]);
            }
            for (j, &t) in out_grid.iter().enumerate().skip(1) {
                let g = Lit::pos(out_thresh[j - 1]);
                let x = t - d;
                let qs: Vec<Plit> = in_nets
                    .iter()
                    .map(|&n| nets[n].as_ref().expect("encoded").geq(x))
                    .collect();
                // okᵢ ⇔ (cᵢ → settle(inᵢ) ≥ x), folded when qᵢ is constant.
                let oks: Vec<Plit> = cs
                    .iter()
                    .zip(&qs)
                    .map(|(&c, &q)| match q {
                        Plit::True => Plit::True,
                        Plit::False => Plit::L(c.negated()),
                        Plit::L(ql) => {
                            let ok = Lit::pos(solver.new_var());
                            solver.add_clause(&[ok.negated(), c.negated(), ql]);
                            solver.add_clause(&[ok, c]);
                            solver.add_clause(&[ok, ql.negated()]);
                            Plit::L(ok)
                        }
                    })
                    .collect();
                // g → okᵢ (controlling inputs must all be ≥ x).
                for &ok in &oks {
                    add_clause(solver, &[Plit::L(g.negated()), ok]);
                }
                // g → (C ∨ some input ≥ x).
                let mut fwd = vec![Plit::L(g.negated()), Plit::L(cvar)];
                fwd.extend(qs.iter().copied());
                add_clause(solver, &fwd);
                // (C ∧ ∧ okᵢ) → g.
                let mut bwd = vec![Plit::L(cvar.negated()), Plit::L(g)];
                bwd.extend(oks.iter().map(|ok| ok.negated()));
                add_clause(solver, &bwd);
                // (¬C ∧ some input ≥ x) → g.
                for &q in &qs {
                    add_clause(solver, &[Plit::L(cvar), q.negated(), Plit::L(g)]);
                }
            }
        }
        GateKind::Mux => {
            // settle = min(via_select, via_data) + d with
            //   via_select = max(t_sel, sel ? t_b : t_a)
            //   via_data   = v_a = v_b ? max(t_a, t_b) : ∞
            let (ns, na, nb) = (in_nets[0], in_nets[1], in_nets[2]);
            let sel = Lit::pos(nets[ns].as_ref().expect("encoded").value);
            let va = Lit::pos(nets[na].as_ref().expect("encoded").value);
            let vb = Lit::pos(nets[nb].as_ref().expect("encoded").value);
            // dvar ⇔ v_a ⊕ v_b (data disagree ⇒ via_data = ∞).
            let dvar = Lit::pos(solver.new_var());
            encode_xor(solver, dvar, va, vb);
            for (j, &t) in out_grid.iter().enumerate().skip(1) {
                let g = Lit::pos(out_thresh[j - 1]);
                let x = t - d;
                let qs = nets[ns].as_ref().expect("encoded").geq(x);
                let qa = nets[na].as_ref().expect("encoded").geq(x);
                let qb = nets[nb].as_ref().expect("encoded").geq(x);
                // vs ⇔ via_select ≥ x ⇔ qs ∨ (sel ? qb : qa).
                let vs = if qs == Plit::True {
                    Plit::True
                } else {
                    let vs = Lit::pos(solver.new_var());
                    add_clause(solver, &[Plit::L(vs.negated()), qs, Plit::L(sel), qa]);
                    add_clause(
                        solver,
                        &[Plit::L(vs.negated()), qs, Plit::L(sel.negated()), qb],
                    );
                    add_clause(solver, &[qs.negated(), Plit::L(vs)]);
                    add_clause(solver, &[Plit::L(sel.negated()), qb.negated(), Plit::L(vs)]);
                    add_clause(solver, &[Plit::L(sel), qa.negated(), Plit::L(vs)]);
                    Plit::L(vs)
                };
                // vd ⇔ via_data ≥ x ⇔ dvar ∨ qa ∨ qb.
                let vd = if qa == Plit::True || qb == Plit::True {
                    Plit::True
                } else {
                    let vd = Lit::pos(solver.new_var());
                    add_clause(solver, &[Plit::L(vd.negated()), Plit::L(dvar), qa, qb]);
                    add_clause(solver, &[Plit::L(dvar.negated()), Plit::L(vd)]);
                    add_clause(solver, &[qa.negated(), Plit::L(vd)]);
                    add_clause(solver, &[qb.negated(), Plit::L(vd)]);
                    Plit::L(vd)
                };
                // g ⇔ vs ∧ vd (min rule: both routes must still be ≥ x).
                add_clause(solver, &[Plit::L(g.negated()), vs]);
                add_clause(solver, &[Plit::L(g.negated()), vd]);
                add_clause(solver, &[Plit::L(g), vs.negated(), vd.negated()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_sta::vector_violates;

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
