//! Event-driven fixpoint computation (§3.3, Fig. 4 `reach_fixpoint`).
//!
//! The constraint system is solved by chaotic iteration: gate constraints
//! are taken from a work queue, their projections applied, and every
//! constraint reading a net whose domain narrowed is re-scheduled. Each
//! domain only shrinks (projection targets are intersected in), so the
//! unique greatest fixpoint is reached in finitely many steps (Theorem 1).
//!
//! The inner loop is allocation-free: gate metadata comes from the
//! circuit's flat [`Topology`] tables, unary and 2-input AND-family gates
//! go through the straight-line projection kernels, and the general rules
//! write into scratch buffers owned by the narrower. The FIFO queue and
//! per-gate `queued` flags make the event order — and therefore
//! [`SolverStats`] — a pure function of the narrowing requests, identical
//! across all of these code paths.

use crate::budget::{ArmedBudget, Budget, TripReason};
use crate::domain::{Checkpoint, SignalStore};
use crate::learning::ImplicationTable;
use crate::projection::{project_and2, project_into, project_unary2};
use ltt_netlist::{Circuit, GateId, GateKind, NetId, Topology};
use ltt_waveform::Signal;
use std::collections::VecDeque;
use std::sync::Arc;

/// Result of running the queue to quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixpointResult {
    /// The greatest fixpoint was reached with all domains non-empty.
    Fixpoint,
    /// Some domain became `(φ, φ)`: the system has no solution.
    Contradiction,
    /// The attached [`Budget`] tripped before quiescence. The domains are a
    /// *superset* of the greatest fixpoint (narrowing only removes
    /// waveforms), so everything proven about them is still sound — but
    /// they are not the fixpoint, so absence of a contradiction proves
    /// nothing. Callers must abort, never backtrack, on this result.
    Interrupted,
}

/// Restriction of propagation to a fanin cone, for the *masked* reference
/// run of a cone-scoped check (DESIGN.md §14): gates outside the mask are
/// never scheduled and learned implications never narrow nets outside it.
///
/// The masked narrower operates on the whole-circuit store, but because the
/// cone is fanin-closed (every input of a cone gate is a cone net) the
/// blocked fringe gates could only ever have *read* cone nets — so skipping
/// them leaves the fixpoint on cone nets untouched while making the event
/// schedule identical, gate for gate, to a run on the extracted sub-circuit
/// (the *sliced* run every check takes).
#[derive(Debug)]
pub struct NarrowScope {
    gates: Vec<bool>,
    nets: Vec<bool>,
}

impl NarrowScope {
    /// Builds a scope from per-gate and per-net membership masks (indexed
    /// by [`GateId::index`] / [`NetId::index`]).
    pub fn new(gates: Vec<bool>, nets: Vec<bool>) -> Self {
        NarrowScope { gates, nets }
    }

    /// Whether the gate is inside the scope.
    #[inline]
    pub fn contains_gate(&self, gate: GateId) -> bool {
        self.gates[gate.index()]
    }

    /// Whether the net is inside the scope.
    #[inline]
    pub fn contains_net(&self, net: NetId) -> bool {
        self.nets[net.index()]
    }
}

/// Counters describing solver effort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Gate-constraint applications (events processed).
    pub events: u64,
    /// Domain narrowings performed.
    pub narrowings: u64,
    /// Class restrictions injected by static-learning implications.
    pub learned_applications: u64,
}

impl SolverStats {
    /// Counter increments accumulated since `earlier` (saturating, so a
    /// stale baseline can never panic the caller).
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            events: self.events.saturating_sub(earlier.events),
            narrowings: self.narrowings.saturating_sub(earlier.narrowings),
            learned_applications: self
                .learned_applications
                .saturating_sub(earlier.learned_applications),
        }
    }

    /// Per-field saturating sum (aggregation must never panic).
    pub fn saturating_add(&self, other: &SolverStats) -> SolverStats {
        SolverStats {
            events: self.events.saturating_add(other.events),
            narrowings: self.narrowings.saturating_add(other.narrowings),
            learned_applications: self
                .learned_applications
                .saturating_add(other.learned_applications),
        }
    }
}

/// The event-driven waveform narrower: circuit + domains + work queue.
///
/// # Examples
///
/// ```
/// use ltt_core::Narrower;
/// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
/// use ltt_waveform::{Signal, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("chain");
/// let a = b.input("a");
/// let x = b.gate("x", GateKind::Not, &[a], DelayInterval::fixed(10));
/// b.mark_output(x);
/// let circuit = b.build()?;
///
/// let mut nw = Narrower::new(&circuit);
/// nw.narrow_net(a, Signal::floating_input());
/// nw.reach_fixpoint();
/// // Forward propagation bounds x's settling time by the gate delay.
/// assert_eq!(nw.domain(x).latest_settle(), Time::new(10));
/// # Ok(())
/// # }
/// ```
pub struct Narrower<'c> {
    circuit: &'c Circuit,
    /// Flat connectivity tables, shared with every other narrower of the
    /// same circuit (built once, cached on the circuit).
    topo: Arc<Topology>,
    store: SignalStore,
    queue: VecDeque<GateId>,
    queued: Vec<bool>,
    /// Optional cone restriction (the masked reference run); `None` = whole
    /// circuit.
    scope: Option<Arc<NarrowScope>>,
    implications: Option<Arc<ImplicationTable>>,
    stats: SolverStats,
    budget: ArmedBudget,
    /// Scratch input-domain buffer for the general projection path.
    scratch_in: Vec<Signal>,
    /// Scratch target buffer for the general projection path.
    scratch_tgt: Vec<Signal>,
    /// Safety valve: abort (conservatively, as `Fixpoint`) after this many
    /// events. Practically unreachable on sane inputs.
    pub max_events: u64,
}

impl<'c> Narrower<'c> {
    /// Creates a narrower with all domains full and an empty queue.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::from_store(circuit, SignalStore::new(circuit))
    }

    /// Creates a narrower whose domains start from `store` — typically a
    /// base fixpoint computed once and shared by many checks (see
    /// [`CheckSession`](crate::CheckSession)) — instead of full signals.
    /// The queue starts empty: a seeded fixpoint needs no re-propagation
    /// until a new constraint narrows some net. A session derives the
    /// store planes once for its base fixpoint and hands every check a
    /// clone (a pair of flat memcpys).
    ///
    /// # Panics
    ///
    /// Panics if the store's net count differs from the circuit's.
    pub fn from_store(circuit: &'c Circuit, store: SignalStore) -> Self {
        assert_eq!(
            store.all().len(),
            circuit.num_nets(),
            "one stored domain per net"
        );
        Narrower {
            circuit,
            topo: circuit.topology(),
            store,
            queue: VecDeque::new(),
            queued: vec![false; circuit.num_gates()],
            scope: None,
            implications: None,
            stats: SolverStats::default(),
            budget: ArmedBudget::unlimited(),
            scratch_in: Vec::new(),
            scratch_tgt: Vec::new(),
            max_events: u64::MAX,
        }
    }

    /// Attaches (and arms) a resource budget: the per-check wall-clock
    /// window starts now, and [`Narrower::reach_fixpoint`] will return
    /// [`FixpointResult::Interrupted`] as soon as any limit trips. The trip
    /// is sticky — once tripped the narrower stays interrupted until the
    /// budget is replaced.
    pub fn set_budget(&mut self, budget: &Budget) {
        self.budget = budget.arm();
    }

    /// The attached armed budget (for pipeline stages that poll between
    /// narrower runs).
    pub(crate) fn budget_mut(&mut self) -> &mut ArmedBudget {
        &mut self.budget
    }

    /// The reason the attached budget tripped, if it has.
    pub fn budget_tripped(&self) -> Option<TripReason> {
        self.budget.tripped()
    }

    /// Attaches a static-learning implication table; learned class
    /// restrictions fire whenever a net's class becomes fixed.
    pub fn set_implications(&mut self, table: Arc<ImplicationTable>) {
        self.implications = Some(table);
    }

    /// Restricts propagation to a cone (see [`NarrowScope`]). Must be set
    /// before any constraint is scheduled; out-of-scope gates already in
    /// the queue would still run.
    pub fn set_scope(&mut self, scope: Arc<NarrowScope>) {
        self.scope = Some(scope);
    }

    /// The circuit this narrower operates on.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The current domain of a net.
    pub fn domain(&self, net: NetId) -> Signal {
        self.store.get(net)
    }

    /// All current domains, indexed by [`NetId::index`].
    pub fn domains(&self) -> &[Signal] {
        self.store.all()
    }

    /// Whether some domain is empty.
    pub fn has_contradiction(&self) -> bool {
        self.store.has_contradiction()
    }

    /// Effort counters so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Marks the current state for later [`Narrower::rollback`], opening a
    /// new trail decision window.
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.store.checkpoint()
    }

    /// Restores domains to a checkpoint and clears the queue (pending
    /// events refer to the rolled-back state).
    pub fn rollback(&mut self, mark: Checkpoint) {
        self.store.rollback(mark);
        self.clear_queue();
    }

    /// Empties the event queue, resetting only the `queued` flags of gates
    /// actually enqueued — O(queue length), not O(num gates). The case
    /// analysis rolls back once per backtrack, so a full `queued` scan here
    /// would dominate deep searches on large circuits.
    ///
    /// Drained events are *not* counted in [`SolverStats`]: the counters
    /// record work performed, and these constraints were never applied.
    fn clear_queue(&mut self) {
        for gate in self.queue.drain(..) {
            self.queued[gate.index()] = false;
        }
    }

    /// Schedules a gate constraint. Gates outside an attached
    /// [`NarrowScope`] are dropped silently — the fringe readers of a cone
    /// net never run in a masked cone check.
    pub fn schedule(&mut self, gate: GateId) {
        if let Some(scope) = &self.scope {
            if !scope.contains_gate(gate) {
                return;
            }
        }
        if !self.queued[gate.index()] {
            self.queued[gate.index()] = true;
            self.queue.push_back(gate);
        }
    }

    /// Schedules every constraint touching `net` (its driver and readers).
    pub fn schedule_net(&mut self, net: NetId) {
        let topo = Arc::clone(&self.topo);
        for &gate in topo.touching(net) {
            self.schedule(gate);
        }
    }

    /// Schedules every gate in the circuit.
    pub fn schedule_all(&mut self) {
        for gid in self.circuit.gate_ids() {
            self.schedule(gid);
        }
    }

    /// Narrows a net's domain (by intersection) and schedules affected
    /// constraints on change. Returns whether the domain changed.
    pub fn narrow_net(&mut self, net: NetId, target: Signal) -> bool {
        if self.store.narrow_to(net, target) {
            self.stats.narrowings += 1;
            self.schedule_net(net);
            self.fire_implications(net);
            true
        } else {
            false
        }
    }

    fn fire_implications(&mut self, net: NetId) {
        // Cheap rejections first (the common case by far): no table, or the
        // net's class is not fixed — the store's lattice plane answers that
        // without touching the bounds row or the table's `Arc`.
        if self.implications.is_none() {
            return;
        }
        let Some(level) = self.store.fixed_class(net) else {
            return;
        };
        let table = self.implications.clone().expect("checked above");
        for &(target, value) in table.implied_by(net, level) {
            // Masked cone mode: implications leaving the cone are skipped,
            // exactly matching a sliced run's cone-internal table.
            if let Some(scope) = &self.scope {
                if !scope.contains_net(target) {
                    continue;
                }
            }
            let restriction = {
                let cur = self.store.get(target);
                cur.restrict_to_class(value)
            };
            if self.store.narrow_to(target, restriction) {
                self.stats.narrowings += 1;
                self.stats.learned_applications += 1;
                self.schedule_net(target);
                // Recursively fire on the newly fixed net.
                self.fire_implications(target);
            }
        }
    }

    /// Applies one gate constraint; returns whether any domain narrowed.
    ///
    /// Dispatches on gate shape: unary gates and 2-input AND-family gates
    /// run the straight-line kernels; everything else gathers its input
    /// domains into a scratch buffer and runs the general projection. All
    /// paths narrow the output first, then the inputs in gate order, so the
    /// event schedule is shape-independent.
    pub fn apply_gate(&mut self, gate: GateId) -> bool {
        let kind = self.topo.gate_kind(gate);
        let d = i64::from(self.topo.gate_dmax(gate));
        let out_net = self.topo.gate_output(gate);
        let output = self.store.get(out_net);
        let ins = self.topo.gate_inputs(gate);
        match *ins {
            [a_net] => {
                let (out_t, in_t) = project_unary2(kind, d, self.store.get(a_net), output);
                let mut changed = self.narrow_net(out_net, out_t);
                changed |= self.narrow_net(a_net, in_t);
                changed
            }
            [a_net, b_net]
                if matches!(
                    kind,
                    GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor
                ) =>
            {
                let (out_t, a_t, b_t) = project_and2(
                    kind,
                    d,
                    self.store.get(a_net),
                    self.store.get(b_net),
                    output,
                );
                let mut changed = self.narrow_net(out_net, out_t);
                changed |= self.narrow_net(a_net, a_t);
                changed |= self.narrow_net(b_net, b_t);
                changed
            }
            _ => {
                // General path: gather into the reusable scratch buffers
                // (taken out of `self` to satisfy the borrow checker; the
                // swap is pointer-sized, no allocation).
                let mut scratch_in = std::mem::take(&mut self.scratch_in);
                let mut scratch_tgt = std::mem::take(&mut self.scratch_tgt);
                scratch_in.clear();
                scratch_in.extend(ins.iter().map(|&n| self.store.get(n)));
                let out_t = project_into(kind, d, &scratch_in, output, &mut scratch_tgt);
                let mut changed = self.narrow_net(out_net, out_t);
                for (i, &target) in scratch_tgt.iter().enumerate() {
                    let net = self.topo.gate_inputs(gate)[i];
                    changed |= self.narrow_net(net, target);
                }
                self.scratch_in = scratch_in;
                self.scratch_tgt = scratch_tgt;
                changed
            }
        }
    }

    /// Runs the event queue to quiescence (Fig. 4 `reach_fixpoint`).
    ///
    /// Returns [`FixpointResult::Contradiction`] as soon as any domain goes
    /// empty (Theorem 2's check generalized: an empty domain anywhere means
    /// the system has no solution), or [`FixpointResult::Interrupted`] if
    /// the attached budget trips (see [`Narrower::set_budget`]); a
    /// contradiction already on entry wins over an earlier trip, since it
    /// is a sound final result.
    pub fn reach_fixpoint(&mut self) -> FixpointResult {
        if self.store.has_contradiction() {
            self.clear_queue();
            return FixpointResult::Contradiction;
        }
        if self.budget.tripped().is_some() {
            return FixpointResult::Interrupted;
        }
        while let Some(gate) = self.queue.pop_front() {
            self.queued[gate.index()] = false;
            self.stats.events += 1;
            if self.stats.events > self.max_events {
                return FixpointResult::Fixpoint;
            }
            if self.budget.poll(self.stats.events).is_some() {
                // Leave the queue in place: the caller aborts (it must not
                // treat this as a fixpoint) and any reuse goes through
                // rollback, which clears the queue.
                return FixpointResult::Interrupted;
            }
            self.apply_gate(gate);
            if self.store.has_contradiction() {
                self.clear_queue();
                return FixpointResult::Contradiction;
            }
        }
        FixpointResult::Fixpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::generators::figure1;
    use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    use ltt_waveform::{Aw, Level, Time};

    fn d10() -> DelayInterval {
        DelayInterval::fixed(10)
    }

    #[test]
    fn forward_propagation_bounds_settling() {
        // Chain of 3 NOTs: settle ≤ 30.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], d10());
        let y = b.gate("y", GateKind::Not, &[x], d10());
        let z = b.gate("z", GateKind::Not, &[y], d10());
        b.mark_output(z);
        let c = b.build().unwrap();
        let mut nw = Narrower::new(&c);
        nw.narrow_net(a, Signal::floating_input());
        assert_eq!(nw.reach_fixpoint(), FixpointResult::Fixpoint);
        assert_eq!(nw.domain(z).latest_settle(), Time::new(30));
        assert_eq!(nw.domain(y).latest_settle(), Time::new(20));
    }

    /// The paper's Example 2, end to end: the Figure 1 circuit with
    /// δ = 61 is proven violation-free by plain narrowing.
    #[test]
    fn example2_figure1_delta61_no_violation() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(61)));
        assert_eq!(nw.reach_fixpoint(), FixpointResult::Contradiction);
    }

    /// …and with δ = 60 the system stays consistent (a violation exists).
    #[test]
    fn example2_figure1_delta60_possible() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(60)));
        assert_eq!(nw.reach_fixpoint(), FixpointResult::Fixpoint);
        assert!(!nw.domain(s).is_empty());
    }

    /// Intermediate domains of Example 2's mechanics, observed at δ = 60
    /// (the δ = 61 run ends in a contradiction, so its intermediate state
    /// is not observable at the fixpoint).
    #[test]
    fn example2_intermediate_intervals_delta60() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(60)));
        nw.reach_fixpoint();
        // n5 (side input of g8 = OR) settles by 50: at δ = 60 it can still
        // carry the violation, but only by settling to 1 (controlling)
        // exactly at t = 50.
        let n5 = c.net_by_name("n5").unwrap();
        assert_eq!(
            nw.domain(n5)[Level::One],
            Aw::new(Time::new(50), Time::new(50))
        );
        // Its non-controlling class is not narrowed (n7 may carry instead).
        assert_eq!(nw.domain(n5)[Level::Zero], Aw::before(Time::new(50)));
        // n7's controlling class must transition at or after 50 to reach
        // δ = 60 through g8's delay of 10.
        let n7 = c.net_by_name("n7").unwrap();
        assert_eq!(
            nw.domain(n7)[Level::One],
            Aw::new(Time::new(50), Time::new(60))
        );
        // n7's class 0 is unconstrained below its settle bound: n5 can
        // still carry.
        assert_eq!(nw.domain(n7)[Level::Zero], Aw::before(Time::new(60)));
    }

    /// At δ = 61 the "blocking controlling class" elimination of Example 2
    /// is visible one step before the contradiction: stop the fixpoint
    /// right after the event that empties n5's controlling class.
    #[test]
    fn example2_blocking_class_removed_at_delta61() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let n5 = c.net_by_name("n5").unwrap();
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        // Forward pass first (settle bounds), then the check constraint.
        nw.reach_fixpoint();
        assert_eq!(nw.domain(n5).latest_settle(), Time::new(50));
        nw.narrow_net(s, Signal::violation(Time::new(61)));
        // Apply only g8 (the driver of s) once.
        let g8 = c.net(s).driver().unwrap();
        nw.apply_gate(g8);
        assert!(nw.domain(n5)[Level::One].is_empty());
        assert!(!nw.domain(n5)[Level::Zero].is_empty());
        let n7 = c.net_by_name("n7").unwrap();
        assert_eq!(
            nw.domain(n7)[Level::Zero],
            Aw::new(Time::new(51), Time::new(60))
        );
        assert_eq!(
            nw.domain(n7)[Level::One],
            Aw::new(Time::new(51), Time::new(60))
        );
    }

    #[test]
    fn rollback_restores_and_clears_queue() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        let mark = nw.checkpoint();
        nw.narrow_net(s, Signal::violation(Time::new(61)));
        assert_eq!(nw.reach_fixpoint(), FixpointResult::Contradiction);
        nw.rollback(mark);
        assert!(!nw.has_contradiction());
        assert_eq!(nw.domain(s), Signal::FULL);
        // Re-running with δ = 60 from the restored state works.
        nw.narrow_net(s, Signal::violation(Time::new(60)));
        assert_eq!(nw.reach_fixpoint(), FixpointResult::Fixpoint);
    }

    #[test]
    fn stats_count_events_and_narrowings() {
        let c = figure1(10);
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.reach_fixpoint();
        let st = nw.stats();
        assert!(st.events > 0);
        assert!(st.narrowings >= 8); // at least every net settles
    }

    #[test]
    fn seeded_narrower_matches_fresh_fixpoint() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut fresh = Narrower::new(&c);
        for &i in c.inputs() {
            fresh.narrow_net(i, Signal::floating_input());
        }
        fresh.reach_fixpoint();
        let base = fresh.domains().to_vec();
        // Seeding from the base fixpoint and then adding the δ constraint
        // reaches the same greatest fixpoint as narrowing from scratch.
        let mut seeded = Narrower::from_store(&c, SignalStore::from_domains(&base));
        seeded.narrow_net(s, Signal::violation(Time::new(60)));
        seeded.reach_fixpoint();
        let mut scratch = Narrower::new(&c);
        for &i in c.inputs() {
            scratch.narrow_net(i, Signal::floating_input());
        }
        scratch.narrow_net(s, Signal::violation(Time::new(60)));
        scratch.reach_fixpoint();
        assert_eq!(seeded.domains(), scratch.domains());
    }

    #[test]
    fn rollback_then_renarrow_schedules_again() {
        // After a rollback the queued flags of the drained gates must be
        // reset, or re-narrowing the same nets would never re-enqueue their
        // constraints and the fixpoint would silently be missed.
        let c = figure1(10);
        let s = c.outputs()[0];
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.reach_fixpoint();
        let mark = nw.checkpoint();
        nw.narrow_net(s, Signal::violation(Time::new(61)));
        assert_eq!(nw.reach_fixpoint(), FixpointResult::Contradiction);
        nw.rollback(mark);
        nw.narrow_net(s, Signal::violation(Time::new(60)));
        let before = nw.stats().events;
        assert_eq!(nw.reach_fixpoint(), FixpointResult::Fixpoint);
        assert!(nw.stats().events > before, "constraints were re-scheduled");
        assert!(!nw.domain(s).is_empty());
    }

    #[test]
    fn schedule_all_reaches_same_fixpoint() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let run = |schedule_all: bool| {
            let mut nw = Narrower::new(&c);
            for &i in c.inputs() {
                nw.narrow_net(i, Signal::floating_input());
            }
            nw.narrow_net(s, Signal::violation(Time::new(55)));
            if schedule_all {
                nw.schedule_all();
            }
            nw.reach_fixpoint();
            nw.domains().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    /// Stats are schedule-independent across backtracking: the counter
    /// *increments* of a checkpoint → narrow → fixpoint pass are identical
    /// whether or not an earlier pass ran and was rolled back, and match a
    /// fresh narrower that never backtracked. Events drained by the
    /// rollback's queue clear must not leak into any counter.
    #[test]
    fn stats_increments_identical_with_and_without_backtracking() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let base = {
            let mut nw = Narrower::new(&c);
            for &i in c.inputs() {
                nw.narrow_net(i, Signal::floating_input());
            }
            nw.reach_fixpoint();
            nw.domains().to_vec()
        };
        let delta_pass = |nw: &mut Narrower<'_>, delta: i64| -> SolverStats {
            let before = nw.stats();
            let mark = nw.checkpoint();
            nw.narrow_net(s, Signal::violation(Time::new(delta)));
            nw.reach_fixpoint();
            nw.rollback(mark);
            nw.stats().since(&before)
        };
        // One narrower: a δ = 61 contradiction pass (rolled back, queue
        // drained mid-flight), then a δ = 60 pass.
        let mut backtracked = Narrower::from_store(&c, SignalStore::from_domains(&base));
        let _ = delta_pass(&mut backtracked, 61);
        let with_backtrack = delta_pass(&mut backtracked, 60);
        // Fresh narrower: only the δ = 60 pass, never backtracked.
        let mut fresh = Narrower::from_store(&c, SignalStore::from_domains(&base));
        let without_backtrack = delta_pass(&mut fresh, 60);
        assert_eq!(with_backtrack, without_backtrack);
        // And re-running the same pass on the backtracked narrower again
        // yields the same increments once more (rollback is transparent).
        assert_eq!(delta_pass(&mut backtracked, 60), without_backtrack);
    }
}
