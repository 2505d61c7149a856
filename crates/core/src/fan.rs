//! Case analysis (§5): FAN-adapted waveform splitting with SCOAP-guided
//! multiple backtrace and three decision phases.
//!
//! When the fixpoint leaves the system consistent, we cannot conclude a
//! violation exists; case analysis decides nets — restricting their domains
//! to one *class* at a time — until a test vector is found (all primary
//! inputs class-fixed, certified against the exact floating-mode oracle) or
//! the tree is exhausted (no violation possible).
//!
//! Decision ordering follows the paper's adaptation of FAN:
//!
//! * *objectives* `(k, n₀, n₁)` are raised for the non-carrier side inputs
//!   of gates in the dynamic-carrier circuit Ψ, asking for the value that
//!   keeps Ψ's paths transparent, weighted by the potential path delay they
//!   enable (with **max**, not sum, merged at fanout stems);
//! * objectives are *backtraced* to fanout stems / primary inputs, picking
//!   the hardest input (by SCOAP controllability) where all inputs must be
//!   set and the easiest where one suffices;
//! * decisions run in three phases: (1) cone by cone between consecutive
//!   dynamic dominators, (2) the whole circuit, (3) the output and the
//!   primary inputs;
//! * the backtrace is re-initiated whenever the decision stack shrinks
//!   (each backtrack changes Ψ, the source of the violation).

use crate::carriers::{fixpoint_with_dominators, CarrierDistances};
use crate::scoap::Controllability;
use crate::solver::{FixpointResult, Narrower};
use ltt_netlist::{Circuit, NetId};
use ltt_waveform::{Level, Signal};

/// Configuration of the case analysis.
#[derive(Clone, Copy, Debug)]
pub struct CaseConfig {
    /// Give up (result [`CaseOutcome::Abandoned`]) after this many
    /// backtracks — the paper abandons c6288 this way.
    pub max_backtracks: u64,
    /// Keep applying dominator implications inside the search.
    pub use_dominators: bool,
    /// Certify candidate vectors with the exact floating-mode simulator
    /// before reporting them (floating mode only).
    pub certify_vectors: bool,
}

impl Default for CaseConfig {
    fn default() -> Self {
        CaseConfig {
            max_backtracks: 100_000,
            use_dominators: true,
            certify_vectors: true,
        }
    }
}

/// The result of the case analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseOutcome {
    /// A test vector violating the timing check (certified).
    Vector(Vec<bool>),
    /// The search tree is exhausted: no violation is possible.
    NoViolation,
    /// A resource limit ran out: the backtrack budget, or any limit of the
    /// narrower's attached [`Budget`](crate::Budget) (wall-clock, events,
    /// cancellation). The search aborts — it never *backtracks* on an
    /// interrupt, which would unsoundly prune un-searched subtrees.
    Abandoned,
}

/// Search-effort counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaseStats {
    /// Number of backtracks (reversed decisions).
    pub backtracks: u64,
    /// Number of decisions taken.
    pub decisions: u64,
    /// Candidate vectors rejected by the oracle certification.
    pub rejected_candidates: u64,
    /// Decisions per FAN phase: `[0]` cone-by-cone between consecutive
    /// dynamic dominators (phase 1), `[1]` the whole circuit (phase 2),
    /// `[2]` unjustified-gate backtrace plus the output/primary-input
    /// tail (phase 3). Sums to `decisions`.
    pub decisions_by_phase: [u64; 3],
}

impl CaseStats {
    /// Per-field saturating sum (aggregation must never panic).
    pub fn saturating_add(&self, other: &CaseStats) -> CaseStats {
        CaseStats {
            backtracks: self.backtracks.saturating_add(other.backtracks),
            decisions: self.decisions.saturating_add(other.decisions),
            rejected_candidates: self
                .rejected_candidates
                .saturating_add(other.rejected_candidates),
            decisions_by_phase: [
                self.decisions_by_phase[0].saturating_add(other.decisions_by_phase[0]),
                self.decisions_by_phase[1].saturating_add(other.decisions_by_phase[1]),
                self.decisions_by_phase[2].saturating_add(other.decisions_by_phase[2]),
            ],
        }
    }
}

struct Frame {
    mark: crate::domain::Checkpoint,
    net: NetId,
    first: Level,
    tried_both: bool,
}

/// Restriction of the case analysis to a fanin cone, for *masked*
/// cone-scoped checks: decisions, the phase-2 region, the phase-3
/// unjustified scan and the input tail all stay inside the cone, and the
/// backtrace stops at *cone-local* fanout stems (a net with several
/// readers in the whole circuit may have only one inside the cone).
///
/// Out-of-cone primary inputs are not decided: their settling value cannot
/// affect the checked output (the cone is fanin-closed), so reported
/// vectors fill them deterministically from their base domains via
/// [`fill_level`].
pub struct CaseScope {
    /// Cone membership per net (`NetId::index`-indexed).
    pub nets: Vec<bool>,
    /// Cone membership per gate (`GateId::index`-indexed).
    pub gates: Vec<bool>,
    /// The cone's primary inputs, in whole-circuit declaration order.
    pub inputs: Vec<NetId>,
    /// Cone-local fanout-stem flags: `stems[n]` iff net `n` has ≥ 2
    /// readers *inside* the cone.
    pub stems: Vec<bool>,
    /// Bound on the decision-stack depth: 1 (the output) plus the cone's
    /// primary inputs and cone-local fanout stems.
    pub depth_bound: usize,
}

/// The deterministic settling value assigned to a primary input the search
/// never decided (an out-of-cone input of a cone-scoped check): the class
/// whose last-transition interval reaches latest in `domain`, ties to 1 —
/// the same preference order the phase-3 tail uses for its first try.
/// Sliced and masked cone runs use this same rule, so their reported
/// vectors agree bit for bit.
pub fn fill_level(domain: &Signal) -> Level {
    if domain[Level::One].max() >= domain[Level::Zero].max() {
        Level::One
    } else {
        Level::Zero
    }
}

/// Runs the case analysis on an already-propagated narrower.
///
/// Pre-condition: the caller has applied the input/check constraints and
/// run [`fixpoint_with_dominators`] (and optionally stem correlation); the
/// system is consistent.
///
/// Computes the SCOAP controllabilities on the fly; when many checks share
/// one circuit, compute them once and use [`case_analysis_with`] instead.
pub fn case_analysis(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    config: &CaseConfig,
    stats: &mut CaseStats,
) -> CaseOutcome {
    let cc = Controllability::compute(nw.circuit());
    case_analysis_with(nw, s, delta, config, stats, &cc)
}

/// [`case_analysis`] with precomputed SCOAP controllabilities (they depend
/// only on the circuit, so a batch of checks shares one table — see
/// [`CheckSession::controllability`](crate::CheckSession::controllability)).
/// Decisions, and therefore the outcome, are identical to
/// [`case_analysis`].
pub fn case_analysis_with(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    config: &CaseConfig,
    stats: &mut CaseStats,
    cc: &Controllability,
) -> CaseOutcome {
    case_analysis_scoped(nw, s, delta, config, stats, cc, None)
}

/// [`case_analysis_with`] restricted to a fanin cone (see [`CaseScope`]);
/// `scope = None` is the unrestricted whole-circuit search.
pub fn case_analysis_scoped(
    nw: &mut Narrower,
    s: NetId,
    delta: i64,
    config: &CaseConfig,
    stats: &mut CaseStats,
    cc: &Controllability,
    scope: Option<&CaseScope>,
) -> CaseOutcome {
    let circuit = nw.circuit();
    let plan = DecisionPlan::new(
        circuit,
        nw.dominator_kernel(s, delta).dominators(),
        s,
        scope,
    );
    let mut scratch = DecisionScratch::new(circuit);
    // Every live frame fixes the class of a distinct net, and decisions
    // only ever land on fanout stems, primary inputs, or the checked
    // output (backtrace stops there) — so the stack depth is bounded by
    // their count. Preallocate once instead of growing mid-search.
    let depth_bound = match scope {
        Some(scope) => scope.depth_bound,
        None => 1 + circuit.inputs().len() + circuit.topology().num_fanout_stems(),
    };
    let mut stack: Vec<Frame> = Vec::with_capacity(depth_bound);
    // The narrower's budget can carry its own backtrack cap; the effective
    // cap is the tighter of the two.
    let budget_cap = nw.budget_mut().budget().max_backtracks();
    let max_backtracks = budget_cap.map_or(config.max_backtracks, |b| b.min(config.max_backtracks));

    loop {
        // Cooperative cancellation point, once per search step. On a trip
        // the search *aborts*: treating an interrupt as a conflict would
        // backtrack past unexplored subtrees and could wrongly conclude
        // `NoViolation`.
        if nw.budget_mut().poll_now().is_some() {
            return CaseOutcome::Abandoned;
        }
        let consistent = if nw.has_contradiction() {
            false
        } else {
            match fixpoint_with_dominators(nw, s, delta, config.use_dominators) {
                FixpointResult::Fixpoint => true,
                FixpointResult::Contradiction => false,
                FixpointResult::Interrupted => return CaseOutcome::Abandoned,
            }
        };

        if consistent {
            if let Some(vector) = full_input_assignment(circuit, nw.domains(), scope) {
                let ok =
                    !config.certify_vectors || ltt_sta::vector_violates(circuit, &vector, s, delta);
                if ok {
                    return CaseOutcome::Vector(vector);
                }
                stats.rejected_candidates += 1;
                // Fall through to backtracking: this complete assignment
                // does not actually violate the check.
            } else {
                // Decide the next net. The refresh is exact in any case,
                // and free with dominators on: the fixpoint loop wrote
                // nothing since its last carrier sweep.
                nw.refresh_carriers(s, delta);
                let (net, level, phase) = choose_decision(nw, &plan, &mut scratch, cc, scope)
                    .expect("an unfixed primary input exists");
                stats.decisions += 1;
                stats.decisions_by_phase[phase as usize] += 1;
                let mark = nw.checkpoint();
                let restriction = nw.domain(net).restrict_to_class(level);
                nw.narrow_net(net, restriction);
                stack.push(Frame {
                    mark,
                    net,
                    first: level,
                    tried_both: false,
                });
                continue;
            }
        }

        // Conflict (or rejected candidate): backtrack.
        loop {
            let Some(mut frame) = stack.pop() else {
                return CaseOutcome::NoViolation;
            };
            nw.rollback(frame.mark);
            if frame.tried_both {
                continue; // exhausted: keep popping
            }
            stats.backtracks += 1;
            if stats.backtracks > max_backtracks {
                return CaseOutcome::Abandoned;
            }
            let second = !frame.first;
            let restriction = nw.domain(frame.net).restrict_to_class(second);
            frame.mark = nw.checkpoint();
            nw.narrow_net(frame.net, restriction);
            frame.tried_both = true;
            stack.push(frame);
            break;
        }
    }
}

/// If every decidable primary input has a fixed class, the corresponding
/// full-length vector. Under a [`CaseScope`] only the cone inputs must be
/// class-fixed; out-of-cone inputs — whose value cannot affect the checked
/// output — are filled deterministically from their (untouched, base)
/// domains via [`fill_level`].
fn full_input_assignment(
    circuit: &Circuit,
    domains: &[Signal],
    scope: Option<&CaseScope>,
) -> Option<Vec<bool>> {
    let decided = |i: &NetId| {
        scope.is_some_and(|sc| !sc.nets[i.index()]) || domains[i.index()].fixed_class().is_some()
    };
    if !circuit.inputs().iter().all(decided) {
        return None;
    }
    match scope {
        None => circuit
            .inputs()
            .iter()
            .map(|&i| domains[i.index()].fixed_class().map(Level::to_bool))
            .collect(),
        Some(scope) => circuit
            .inputs()
            .iter()
            .map(|&i| {
                if scope.nets[i.index()] {
                    domains[i.index()].fixed_class().map(Level::to_bool)
                } else {
                    Some(fill_level(&domains[i.index()]).to_bool())
                }
            })
            .collect(),
    }
}

/// The three-phase decision plan (computed once, before any decision).
struct DecisionPlan {
    /// Phase-1 regions, for the initial dominator chain `d_0 = s, d_1, …,
    /// d_{m−1}`: region `i < m − 1` is the cone of `d_i` minus the cone of
    /// `d_{i+1}`, and region `m − 1` is the cone of `d_{m−1}`. The cones
    /// are nested (each `d_{i+1}` lies on every carrier path into `d_i`),
    /// so a net belongs to region `innermost[net]`: the largest `i` with
    /// the net in the cone of `d_i`, or [`NO_REGION`] outside them all.
    innermost: Vec<u32>,
    /// Phase-3 list: the output then the primary inputs.
    tail: Vec<NetId>,
}

/// [`DecisionPlan::innermost`] of a net outside every dominator cone.
const NO_REGION: u32 = u32::MAX;

impl DecisionPlan {
    fn new(
        circuit: &Circuit,
        dominators: &[NetId],
        s: NetId,
        scope: Option<&CaseScope>,
    ) -> DecisionPlan {
        // One reverse sweep labels every net with its innermost dominator
        // cone: a label flows from each gate output to its inputs, and the
        // deeper (larger) label wins.
        let mut innermost = vec![NO_REGION; circuit.num_nets()];
        for (i, d) in dominators.iter().enumerate() {
            innermost[d.index()] = i as u32;
        }
        if !dominators.is_empty() {
            let topo = circuit.topology();
            for &gid in circuit.topo_gates().iter().rev() {
                let label = innermost[topo.gate_output(gid).index()];
                if label == NO_REGION {
                    continue;
                }
                for &x in topo.gate_inputs(gid) {
                    let slot = &mut innermost[x.index()];
                    if *slot == NO_REGION || *slot < label {
                        *slot = label;
                    }
                }
            }
        }
        let mut tail = vec![s];
        match scope {
            Some(scope) => tail.extend_from_slice(&scope.inputs),
            None => tail.extend_from_slice(circuit.inputs()),
        }
        DecisionPlan { innermost, tail }
    }
}

/// Buffers [`choose_decision`] reuses across the decisions of one search.
struct DecisionScratch {
    /// Per net, the best enabled path delay for each settling value.
    enabled: Vec<[i64; 2]>,
    /// Nets whose `enabled` entry was touched by the current decision.
    touched: Vec<NetId>,
    /// Backtraced objectives: `(weight, tie, target, value)`.
    candidates: Vec<(i64, u32, NetId, Level)>,
}

impl DecisionScratch {
    fn new(circuit: &Circuit) -> Self {
        DecisionScratch {
            enabled: vec![[i64::MIN; 2]; circuit.num_nets()],
            touched: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

/// Picks the next decision: phase 1/2 via objective backtrace inside the
/// planned regions, phase 3 over output + primary inputs, final fallback
/// any unfixed primary input. The returned index (0, 1 or 2) names the
/// FAN phase that produced the decision, for the per-phase counters in
/// [`CaseStats::decisions_by_phase`].
///
/// Reads the dynamic carriers from the narrower's kernel, which the caller
/// has refreshed for the current domains.
fn choose_decision(
    nw: &Narrower,
    plan: &DecisionPlan,
    scratch: &mut DecisionScratch,
    cc: &Controllability,
    scope: Option<&CaseScope>,
) -> Option<(NetId, Level, u8)> {
    let circuit = nw.circuit();
    let domains = nw.domains();
    let stems = scope.map(|sc| sc.stems.as_slice());
    // Phases 1 and 2: objectives from the *current* dynamic-carrier circuit,
    // backtraced to stems/inputs once, then restricted to each region in
    // turn. The final region is the whole circuit — that is FAN phase 2;
    // the dominator-cone regions before it are phase 1. Regions are tried
    // in order, so the first region holding any candidate — the smallest
    // innermost label, else the whole circuit — supplies the decision.
    // Cone-scoped, the whole circuit is the whole cone (its sliced twin's
    // "whole circuit" *is* the cone).
    raise_objectives(circuit, domains, nw.kernel().carriers(), scratch);
    let DecisionScratch {
        enabled,
        touched,
        candidates,
    } = scratch;
    candidates.clear();
    for &net in touched.iter() {
        let (level, weight) = objective(enabled[net.index()]);
        let Some((target, value)) = backtrace(circuit, domains, cc, net, level, stems) else {
            continue;
        };
        if domains[target.index()].fixed_class().is_none() {
            candidates.push((weight, cc.of(target, value), target, value));
        }
    }
    let first_region = candidates
        .iter()
        .map(|c| plan.innermost[c.2.index()])
        .min()
        .filter(|&r| r != NO_REGION);
    let in_region = |target: NetId| match first_region {
        Some(r) => plan.innermost[target.index()] == r,
        None => scope.is_none_or(|sc| sc.nets[target.index()]),
    };
    let mut best: Option<(i64, u32, NetId, Level)> = None;
    for &cand in candidates.iter() {
        if in_region(cand.2) && best.is_none_or(|b| (cand.0, cand.1) > (b.0, b.1)) {
            best = Some(cand);
        }
    }
    if let Some((_, _, net, level)) = best {
        let phase = if first_region.is_some() { 0 } else { 1 };
        return Some((net, level, phase));
    }
    // Phase 3: the output, then the primary inputs — reached by complete
    // backtrace from *unjustified* gate outputs (§5: a class-fixed output
    // whose inputs can still take a class combination inconsistent with
    // the gate constraint), falling back to direct input decisions.
    for gid in circuit.gate_ids() {
        if let Some(sc) = scope {
            if !sc.gates[gid.index()] {
                continue;
            }
        }
        let Some(out_class) = domains[circuit.gate(gid).output().index()].fixed_class() else {
            continue;
        };
        if !is_unjustified(circuit, domains, gid, out_class) {
            continue;
        }
        // Backtrace the justification objective (output = its fixed class)
        // to a stem or primary input.
        if let Some((target, value)) = backtrace(
            circuit,
            domains,
            cc,
            circuit.gate(gid).output(),
            out_class,
            stems,
        ) {
            if domains[target.index()].fixed_class().is_none() {
                return Some((target, value, 2));
            }
        }
    }
    for &net in &plan.tail {
        if domains[net.index()].fixed_class().is_none() {
            // Prefer the class that keeps the check satisfiable: the one
            // whose last-transition interval reaches latest.
            return Some((net, fill_level(&domains[net.index()]), 2));
        }
    }
    None
}

/// The paper's §5 *unjustified* test: the gate's output is restricted to
/// `out_class`, yet some class combination still allowed on the inputs is
/// inconsistent with the gate constraint — so decisions below this gate
/// are still needed. Gates with more than 8 inputs are never unjustified
/// (combinational blow-up guard); the rest run on fixed-size arrays.
fn is_unjustified(
    circuit: &Circuit,
    domains: &[Signal],
    gid: ltt_netlist::GateId,
    out_class: Level,
) -> bool {
    let gate = circuit.gate(gid);
    let inputs = gate.inputs();
    let k = inputs.len();
    if k > 8 {
        return false;
    }
    // allowed[i][v]: input i may still settle to value v.
    let mut allowed = [[false; 2]; 8];
    for (slot, &n) in allowed.iter_mut().zip(inputs) {
        let d = domains[n.index()];
        *slot = [!d[Level::Zero].is_empty(), !d[Level::One].is_empty()];
    }
    let mut vals = [false; 8];
    'combos: for combo in 0u32..(1 << k) {
        for (i, val) in vals[..k].iter_mut().enumerate() {
            let v = (combo >> i) & 1 == 1;
            if !allowed[i][usize::from(v)] {
                continue 'combos; // combo not allowed by the current domains
            }
            *val = v;
        }
        if Level::from_bool(gate.kind().eval(&vals[..k])) != out_class {
            return true; // an allowed combo contradicts the fixed output
        }
    }
    false
}

/// Initial objectives (§5): for every gate driving a dynamic carrier, each
/// non-carrier, class-unfixed input should take the non-controlling value
/// of that gate (to keep Ψ's paths transparent). Objectives are the
/// paper's triplets `(k, n₀(k), n₁(k))`: per net `k`, `n_v` is the largest
/// path delay potentially enabled by setting `k` to `v` — merged with
/// **max** (not sum) at fanout stems, the paper's modification of FAN.
///
/// Fills `scratch.enabled` for the nets listed, in ascending net order, in
/// `scratch.touched`; [`objective`] reads each one's objective off.
fn raise_objectives(
    circuit: &Circuit,
    domains: &[Signal],
    carriers: &CarrierDistances,
    scratch: &mut DecisionScratch,
) {
    for net in scratch.touched.drain(..) {
        scratch.enabled[net.index()] = [i64::MIN; 2];
    }
    let topo = circuit.topology();
    for gid in circuit.gate_ids() {
        let Some(k) = carriers[topo.gate_output(gid).index()] else {
            continue;
        };
        let Some(ctrl) = topo.gate_kind(gid).controlling_value() else {
            continue; // XOR/unary gates are always transparent
        };
        let nc = !Level::from_bool(ctrl);
        let weight = k + i64::from(topo.gate_dmax(gid));
        for &x in topo.gate_inputs(gid) {
            if carriers[x.index()].is_some() {
                continue; // carriers are path candidates, not side inputs
            }
            if domains[x.index()].fixed_class().is_some() {
                continue;
            }
            // Fanout: max-merge into the nc-value slot.
            let slots = &mut scratch.enabled[x.index()];
            if *slots == [i64::MIN; 2] {
                scratch.touched.push(x);
            }
            slots[nc.index()] = slots[nc.index()].max(weight);
        }
    }
    scratch.touched.sort_unstable();
}

/// The objective of one touched net's `(n₀, n₁)`: the better value and
/// its weight, ties breaking to 1 (keeping AND-family paths transparent
/// first).
fn objective(enabled: [i64; 2]) -> (Level, i64) {
    if enabled[1] >= enabled[0] {
        (Level::One, enabled[1])
    } else {
        (Level::Zero, enabled[0])
    }
}

/// FAN-style backtrace of one objective `(net, value)` to a fanout stem or
/// primary input: where the objective requires all inputs, follow the
/// hardest (max SCOAP); where one input suffices, follow the easiest.
/// `stems` overrides the fanout-stem stop test (cone-local reader counts
/// for masked cone runs); `None` uses the circuit's own stem flags.
fn backtrace(
    circuit: &Circuit,
    domains: &[Signal],
    cc: &Controllability,
    mut net: NetId,
    mut value: Level,
    stems: Option<&[bool]>,
) -> Option<(NetId, Level)> {
    for _ in 0..circuit.num_nets() {
        match domains[net.index()].fixed_class() {
            Some(v) if v == value => return None, // already satisfied
            Some(_) => return None,               // unachievable here
            None => {}
        }
        let Some(driver) = circuit.net(net).driver() else {
            return Some((net, value)); // reached a primary input
        };
        let is_stem = match stems {
            Some(flags) => flags[net.index()],
            None => circuit.net(net).is_fanout_stem(),
        };
        if is_stem {
            return Some((net, value)); // stop at stems (head lines)
        }
        let gate = circuit.gate(driver);
        let kind = gate.kind();
        let inputs = gate.inputs();
        match kind.controlling_value() {
            Some(c) => {
                let c = Level::from_bool(c);
                let out_c = Level::from_bool(kind.controlled_output().expect("ctrl"));
                if value == out_c {
                    // One controlling input suffices: easiest.
                    let pick = inputs
                        .iter()
                        .copied()
                        .filter(|i| domains[i.index()].fixed_class() != Some(!c))
                        .min_by_key(|&i| cc.of(i, c))?;
                    net = pick;
                    value = c;
                } else {
                    // All inputs must be non-controlling: hardest first.
                    let pick = inputs
                        .iter()
                        .copied()
                        .filter(|i| domains[i.index()].fixed_class() != Some(c))
                        .max_by_key(|&i| cc.of(i, !c))
                        .or_else(|| inputs.first().copied())?;
                    net = pick;
                    value = !c;
                }
            }
            None => {
                // Unary / XOR / MUX: follow the (single or easiest) input.
                if inputs.len() == 1 {
                    net = inputs[0];
                    value = if kind.inverts() { !value } else { value };
                } else if kind == ltt_netlist::GateKind::Mux {
                    // MUX(sel, a, b) = value: route through the cheaper of
                    // (sel=0, a=value) and (sel=1, b=value), descending into
                    // its data input.
                    let cost0 = cc
                        .of(inputs[0], Level::Zero)
                        .saturating_add(cc.of(inputs[1], value));
                    let cost1 = cc
                        .of(inputs[0], Level::One)
                        .saturating_add(cc.of(inputs[2], value));
                    net = if cost0 <= cost1 { inputs[1] } else { inputs[2] };
                    // value unchanged: the data input must produce it.
                } else {
                    // XOR family: choose the easiest input to flip; require
                    // its value to make the parity work out with the others
                    // at 0.
                    let pick = inputs
                        .iter()
                        .copied()
                        .min_by_key(|&i| cc.of(i, Level::One).min(cc.of(i, Level::Zero)))?;
                    let others_parity = false; // assume others settle 0
                    let pol = kind.inverts();
                    let want = value.to_bool() ^ others_parity ^ pol;
                    net = pick;
                    value = Level::from_bool(want);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::generators::{cascade, false_path_chain, figure1};
    use ltt_netlist::GateKind;
    use ltt_waveform::Time;

    fn setup<'a>(c: &'a Circuit, s: NetId, delta: i64) -> Narrower<'a> {
        let mut nw = Narrower::new(c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(delta)));
        nw
    }

    #[test]
    fn finds_vector_on_cascade_at_top() {
        let c = cascade(GateKind::And, 4, 10);
        let s = c.outputs()[0];
        let mut nw = setup(&c, s, 40);
        assert_eq!(
            fixpoint_with_dominators(&mut nw, s, 40, true),
            FixpointResult::Fixpoint
        );
        let mut stats = CaseStats::default();
        let out = case_analysis(&mut nw, s, 40, &CaseConfig::default(), &mut stats);
        match out {
            CaseOutcome::Vector(v) => {
                assert!(ltt_sta::vector_violates(&c, &v, s, 40));
            }
            other => panic!("expected vector, got {other:?}"),
        }
    }

    #[test]
    fn proves_no_violation_past_top() {
        let c = cascade(GateKind::And, 4, 10);
        let s = c.outputs()[0];
        let mut nw = setup(&c, s, 41);
        // Narrowing alone should already kill this; case analysis must
        // agree even if asked.
        if fixpoint_with_dominators(&mut nw, s, 41, true) == FixpointResult::Fixpoint {
            let mut stats = CaseStats::default();
            let out = case_analysis(&mut nw, s, 41, &CaseConfig::default(), &mut stats);
            assert_eq!(out, CaseOutcome::NoViolation);
        }
    }

    #[test]
    fn figure1_finds_vector_at_60() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut nw = setup(&c, s, 60);
        assert_eq!(
            fixpoint_with_dominators(&mut nw, s, 60, true),
            FixpointResult::Fixpoint
        );
        let mut stats = CaseStats::default();
        let out = case_analysis(&mut nw, s, 60, &CaseConfig::default(), &mut stats);
        match out {
            CaseOutcome::Vector(v) => assert!(ltt_sta::vector_violates(&c, &v, s, 60)),
            other => panic!("expected vector, got {other:?}"),
        }
    }

    #[test]
    fn false_path_chain_exact_delay_bracketing() {
        // For several (p, q): vector at (p+2)·10, no violation at
        // (p+2)·10 + 1 — with the oracle agreeing.
        for (p, q) in [(3usize, 2usize), (5, 3), (6, 4)] {
            let c = false_path_chain(p, q, 10);
            let s = c.outputs()[0];
            let exact = 10 * (p as i64 + 2);
            // δ = exact: violation.
            let mut nw = setup(&c, s, exact);
            let r = fixpoint_with_dominators(&mut nw, s, exact, true);
            assert_eq!(r, FixpointResult::Fixpoint, "({p},{q}) at exact");
            let mut stats = CaseStats::default();
            let out = case_analysis(&mut nw, s, exact, &CaseConfig::default(), &mut stats);
            assert!(
                matches!(out, CaseOutcome::Vector(_)),
                "({p},{q}) expected vector, got {out:?} after {} backtracks",
                stats.backtracks
            );
            // δ = exact + 1: no violation (whether by narrowing or search).
            let mut nw = setup(&c, s, exact + 1);
            if fixpoint_with_dominators(&mut nw, s, exact + 1, true) == FixpointResult::Fixpoint {
                let mut stats = CaseStats::default();
                let out = case_analysis(&mut nw, s, exact + 1, &CaseConfig::default(), &mut stats);
                assert_eq!(out, CaseOutcome::NoViolation, "({p},{q}) at exact+1");
            }
        }
    }

    #[test]
    fn abandons_at_backtrack_budget() {
        let c = false_path_chain(6, 4, 10);
        let s = c.outputs()[0];
        // An unsatisfiable-but-hard check with a zero budget abandons as
        // soon as one backtrack is needed.
        let mut nw = setup(&c, s, 75);
        if fixpoint_with_dominators(&mut nw, s, 75, true) == FixpointResult::Fixpoint {
            let cfg = CaseConfig {
                max_backtracks: 0,
                ..Default::default()
            };
            let mut stats = CaseStats::default();
            let out = case_analysis(&mut nw, s, 75, &cfg, &mut stats);
            // Either it decides without backtracking or it abandons.
            assert!(matches!(
                out,
                CaseOutcome::Abandoned | CaseOutcome::NoViolation | CaseOutcome::Vector(_)
            ));
        }
    }
}
