//! Check sessions: one circuit, one configuration, and every analysis the
//! checks share.
//!
//! Every stage of the pipeline leans on analyses that depend only on the
//! circuit, not on the individual check `σ = (ξ, s, δ)`: the static
//! learning table (§4), the SCOAP controllabilities that
//! guide the case analysis (§5), the reconvergent-fanout-stem set that
//! seeds stem correlation (§5), arrival times, and each output's fanin
//! cone. Re-deriving them per check is pure overhead once a
//! workload runs more than one check — a delay search probes O(log top)
//! deltas, a batch visits every output at one δ, and the Table 1
//! harness runs whole suites.
//!
//! [`CheckSession`] computes each of these **once per circuit** (lazily,
//! so ablated configurations — and the SAT engine, which reads none of
//! them — pay nothing for stages they skip) and hands shared references to
//! every check. It also caches the **base fixpoint** — the greatest
//! fixpoint of the input-and-learning constraints *without* any δ
//! constraint — which every narrowing check of the session starts from.
//! The session is `Sync`: a batch executor
//! ([`BatchRunner`](crate::BatchRunner)) can fan checks out across threads
//! with no per-thread re-preparation, and because each check still runs on
//! its own [`Narrower`], parallel results are identical to serial ones.

use crate::budget::Budget;
use crate::check::{
    one_stage_check, run_pipeline, DelayMode, DelaySearch, Engine, LearningMode, PipelineScope,
    Stage, StageEnd, Verdict, VerifyConfig, VerifyReport,
};
use crate::domain::SignalStore;
use crate::encode::{settle_bounds, SettleBounds};
use crate::fan::{fill_level, CaseScope};
use crate::learning::ImplicationTable;
use crate::scoap::Controllability;
use crate::solver::{NarrowScope, Narrower};
use ltt_netlist::{Circuit, CircuitEdit, ConeView, EditError, NetId};
use ltt_waveform::{Level, Signal, Time};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How a session holds its netlist.
///
/// The classic, allocation-free form borrows the caller's circuit for the
/// scope of a run. The shared form owns an [`Arc`], which is what a
/// long-lived circuit registry (the serving layer) needs: the resulting
/// `CheckSession<'static>` can live in a cache and outlive any one
/// request, and dropping the cache entry frees the circuit — no leaked
/// `'static` borrows.
enum CircuitHandle<'c> {
    /// Borrowed for the scope `'c` (one-shot runs, tests, the CLI).
    Borrowed(&'c Circuit),
    /// Shared ownership (registry entries; `'c` may be `'static`).
    Shared(Arc<Circuit>),
}

impl CircuitHandle<'_> {
    fn get(&self) -> &Circuit {
        match self {
            CircuitHandle::Borrowed(c) => c,
            CircuitHandle::Shared(c) => c,
        }
    }
}

/// One output's fanin cone, built once per output and shared by every
/// check of it (DESIGN.md §14):
///
/// * the [`ConeView`] — the output's transitive fanin as a dense,
///   order-preservingly renumbered sub-circuit, with its net maps;
/// * the sub-session every sliced check of the output runs in: the
///   sub-circuit, the parent implication table sliced to cone-internal
///   pairs ([`ImplicationTable::sliced`] — *not* a table re-learned on the
///   sub-circuit, which could differ) and the parent base fixpoint sliced
///   to cone nets. Its stem candidates are the sub-circuit's own (reader
///   counts *inside* the cone — a net with one in-cone and two
///   out-of-cone readers is a whole-circuit stem but not a cone stem).
pub struct Cone {
    view: ConeView,
    session: CheckSession<'static>,
}

impl Cone {
    /// Opens the sub-session of `view`, seeded from its parent's table
    /// and base fixpoint.
    fn build(
        view: ConeView,
        table: Option<&Arc<ImplicationTable>>,
        base: &SignalStore,
        config: &VerifyConfig,
    ) -> Cone {
        let handle = CircuitHandle::Shared(view.circuit().clone());
        let session = CheckSession::open(handle, config.clone());
        let _ = session.table.set(table.map(|t| Arc::new(t.sliced(&view))));
        // Seed the sub base by slicing the whole base fixpoint — NOT by
        // re-running narrowing on the sub-circuit, which would lose the
        // backward pressure out-of-cone learning constants exert on cone
        // nets through fringe gates.
        let domains: Vec<Signal> = view.nets().iter().map(|&old| base.get(old)).collect();
        let _ = session.base.set(SignalStore::from_domains(&domains));
        Cone { view, session }
    }

    /// The cone as a renumbered sub-circuit.
    pub fn view(&self) -> &ConeView {
        &self.view
    }

    /// The cone's reconvergent-stem candidates: computed on the
    /// sub-circuit (reader counts inside the cone), whole-circuit indexed.
    pub fn stem_candidates(&self) -> Vec<bool> {
        let mut mask = vec![false; self.view.num_parent_nets()];
        for (&old, &stem) in self.view.nets().iter().zip(self.session.stem_candidates()) {
            mask[old.index()] = stem;
        }
        mask
    }
}

/// One circuit + one configuration + every check-independent analysis:
/// the entry point of every timing check, whichever [`Engine`] answers
/// it.
///
/// The analyses are lazy ([`OnceLock`]), so a narrowing-only
/// configuration never pays for SCOAP or the reconvergent-stem mask, and
/// a SAT session never pays for the implication table or the base
/// fixpoint, while a full pipeline computes each exactly once no matter
/// how many checks run — serially or from many threads at once.
///
/// The check methods dispatch on the config's [`Engine`] (DESIGN.md §15):
/// `Narrow` runs the staged pipeline, `Sat` the CNF/CDCL backend, and
/// `Hybrid` the pipeline with a SAT fallback when its budget trips.
///
/// A narrowing check seeds a fresh [`Narrower`] from the cached base
/// fixpoint (inputs + learning constants, no δ), applies the δ constraint
/// (and any assumptions), and runs the staged pipeline. The greatest
/// fixpoint of a constraint system is unique, so verdicts and witness
/// vectors are identical to running each check from scratch — only the
/// redundant re-propagation is gone.
///
/// A check of output `s` depends only on `s`'s transitive fanin cone, so
/// it runs on that cone alone: a cached sub-session over the cone
/// renumbered as a dense sub-circuit (DESIGN.md §14). When the cone is the
/// whole circuit the check runs on the whole circuit directly.
///
/// `CheckSession` is `Sync`; [`BatchRunner`](crate::BatchRunner) shares one
/// session across worker threads.
///
/// # Examples
///
/// ```
/// use ltt_core::{CheckSession, VerifyConfig};
/// use ltt_netlist::generators::figure1;
///
/// let c = figure1(10);
/// let session = CheckSession::new(&c, VerifyConfig::default());
/// let s = c.outputs()[0];
/// assert!(session.verify(s, 61).verdict.is_no_violation());
/// assert!(session.verify(s, 60).verdict.is_violation());
/// // The exact-delay search reuses the same cached analyses per probe.
/// assert_eq!(session.exact_delay(s).delay, 60);
/// ```
pub struct CheckSession<'c> {
    circuit: CircuitHandle<'c>,
    config: VerifyConfig,
    /// The static-learning table per `config.learning` (`None` when off).
    table: OnceLock<Option<Arc<ImplicationTable>>>,
    arrival: OnceLock<Vec<i64>>,
    settle: OnceLock<Vec<SettleBounds>>,
    controllability: OnceLock<Controllability>,
    stem_mask: OnceLock<Vec<bool>>,
    /// Per-output cones (`None` once computed = the cone covers the whole
    /// circuit, where a check runs on the whole circuit). `Arc` so an ECO
    /// rebase can transplant untouched cones wholesale.
    cones: Vec<OnceLock<Option<Arc<Cone>>>>,
    /// The base-fixpoint store prototype: planes derived once, cloned (two
    /// flat memcpys) into every per-check narrower.
    base: OnceLock<SignalStore>,
}

impl<'c> CheckSession<'c> {
    /// Opens a session. Every analysis — the implication table per the
    /// config's learning mode, and the base fixpoint — is computed lazily,
    /// on first use.
    pub fn new(circuit: &'c Circuit, config: VerifyConfig) -> Self {
        Self::open(CircuitHandle::Borrowed(circuit), config)
    }

    /// [`CheckSession::new`] with shared ownership of the circuit: the
    /// session carries its own reference count, so it can live in a
    /// long-lived registry (`CheckSession<'static>`) and be dropped freely.
    pub fn new_shared(circuit: Arc<Circuit>, config: VerifyConfig) -> CheckSession<'static> {
        CheckSession::open(CircuitHandle::Shared(circuit), config)
    }

    fn open(circuit: CircuitHandle<'c>, config: VerifyConfig) -> Self {
        CheckSession {
            table: OnceLock::new(),
            arrival: OnceLock::new(),
            settle: OnceLock::new(),
            controllability: OnceLock::new(),
            stem_mask: OnceLock::new(),
            cones: circuit
                .get()
                .outputs()
                .iter()
                .map(|_| OnceLock::new())
                .collect(),
            base: OnceLock::new(),
            circuit,
            config,
        }
    }

    /// The circuit under check.
    pub fn circuit(&self) -> &Circuit {
        self.circuit.get()
    }

    /// The shared static-learning table, if learning is enabled, learned
    /// on first use.
    pub fn implication_table(&self) -> Option<&Arc<ImplicationTable>> {
        self.table
            .get_or_init(|| {
                let span = self.config.obs.start();
                let table = match self.config.learning {
                    LearningMode::Off => None,
                    LearningMode::Stems => Some(ImplicationTable::learn_from(
                        self.circuit(),
                        self.stem_candidates(),
                    )),
                };
                self.config
                    .obs
                    .span("prepare.static_learning", "prepare", span, &[]);
                table.map(Arc::new)
            })
            .as_ref()
    }

    /// Topological arrival times (`max` delay to each net), cached.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_core::{CheckSession, VerifyConfig};
    /// use ltt_netlist::generators::figure1;
    ///
    /// let c = figure1(10);
    /// let session = CheckSession::new(&c, VerifyConfig::default());
    /// let s = c.outputs()[0];
    /// assert_eq!(session.arrival_times()[s.index()], 70);
    /// // Past the arrival time the base fixpoint refutes the check alone.
    /// assert_eq!(session.verify(s, 71).effort.total().events, 0);
    /// ```
    pub fn arrival_times(&self) -> &[i64] {
        self.arrival.get_or_init(|| self.circuit().arrival_times())
    }

    /// Each net's settle bounds, the first and last point of its settle
    /// grid (its shortest and longest `dmax` path from the inputs),
    /// cached. The SAT engine decides a check outside its output's bounds
    /// without encoding it.
    pub(crate) fn settle_bounds(&self) -> &[SettleBounds] {
        self.settle.get_or_init(|| settle_bounds(self.circuit()))
    }

    /// SCOAP controllabilities (case-analysis guidance), cached.
    pub fn controllability(&self) -> &Controllability {
        self.controllability
            .get_or_init(|| Controllability::compute(self.circuit()))
    }

    /// Per-net mask of reconvergent fanout stems — the stem-correlation
    /// candidate set ([`Circuit::reconvergent_stems`]), cached.
    pub fn stem_candidates(&self) -> &[bool] {
        self.stem_mask
            .get_or_init(|| self.circuit().reconvergent_stems())
    }

    /// The fanin cone of `output` and its sub-session, cached per output.
    /// `None` when no cone-scoped run applies: `output` is not a primary
    /// output, or its cone covers the whole circuit (slicing would be the
    /// identity and the whole-circuit run is strictly cheaper).
    pub fn cone(&self, output: NetId) -> Option<&Arc<Cone>> {
        let pos = self.circuit().outputs().iter().position(|&o| o == output)?;
        self.cones[pos]
            .get_or_init(|| {
                // Learn and settle the base first, so the span below times
                // the cone alone.
                let table = self.implication_table();
                let base = self.base_store();
                let span = self.config.obs.start();
                let view = ConeView::extract(self.circuit(), output);
                let cone_nets = view.nets().len();
                let cone = (!view.is_complete())
                    .then(|| Arc::new(Cone::build(view, table, base, &self.config)));
                self.config.obs.span(
                    "prepare.cone",
                    "prepare",
                    span,
                    &[
                        ("output", i64::try_from(output.index()).unwrap_or(i64::MAX)),
                        ("cone_nets", i64::try_from(cone_nets).unwrap_or(i64::MAX)),
                    ],
                );
                cone
            })
            .as_ref()
    }

    /// The session's pipeline configuration.
    pub fn config(&self) -> &VerifyConfig {
        &self.config
    }

    /// Forces the base fixpoint now (it is otherwise computed on the first
    /// narrowing check). A batch executor calls this before fanning out so
    /// workers start from a warm cache instead of serializing on its
    /// computation. A no-op on a SAT session, which never reads it.
    pub fn warm_up(&self) {
        self.warm_up_for(self.config.engine);
    }

    /// [`CheckSession::warm_up`] for checks answered by `engine`.
    pub(crate) fn warm_up_for(&self, engine: Engine) {
        if engine != Engine::Sat {
            let _ = self.base_store();
        }
    }

    /// Applies ECO edits and opens the edited revision's session: the one
    /// entry point of incremental re-verification (DESIGN.md §14). The
    /// edited session is [`Self::rebase`]d from this one, and the returned
    /// [`Patch`] answers, per output, whether this session's report still
    /// holds ([`Patch::unaffected`]).
    ///
    /// # Errors
    ///
    /// The [`EditError`] of [`Circuit::apply_edit`]; no session is opened.
    pub fn patch(&self, edits: &[CircuitEdit]) -> Result<Patch<'_>, EditError> {
        let outcome = self.circuit().apply_edit(edits)?;
        Ok(self.rebased(Arc::new(outcome.circuit), outcome.dirty, outcome.structural))
    }

    /// Opens a session for an edited revision of this session's circuit,
    /// transplanting every analysis the edit provably leaves intact.
    /// [`Self::patch`] applies the edits and rebases in one step.
    ///
    /// `dirty` and `structural` come from [`Circuit::apply_edit`]'s
    /// [`EditOutcome`](ltt_netlist::EditOutcome); `circuit` must be that
    /// outcome's circuit (same nets and gates, edited delays/wiring).
    ///
    /// What transfers when `structural` is `false` (delay-only edits):
    ///
    /// * the learned implication table — implications are about logic
    ///   classes, not times;
    /// * SCOAP controllabilities and the reconvergent-stem
    ///   candidate set — functions of connectivity only;
    /// * per output the carry-over rule leaves unaffected
    ///   ([`Patch::unaffected`]), the [`Cone`] with its warmed
    ///   sub-session, wholesale — if this session built it: checks the
    ///   base fixpoint refutes build no cone.
    ///
    /// Arrival times and settle bounds never transfer: delay edits move
    /// them. A `structural` edit keeps nothing: every analysis, the table
    /// included, is rebuilt lazily.
    ///
    /// # Panics
    ///
    /// Panics if `circuit`'s net/gate counts differ from this session's
    /// (it must be an [`EditOutcome`](ltt_netlist::EditOutcome) revision,
    /// not an unrelated circuit).
    pub fn rebase(
        &self,
        circuit: Arc<Circuit>,
        dirty: &[NetId],
        structural: bool,
    ) -> CheckSession<'static> {
        self.rebased(circuit, dirty.to_vec(), structural).session
    }

    /// [`Self::rebase`], keeping the [`Patch`] so its stale set, if a
    /// cached cone needed it, is computed once.
    fn rebased(&self, circuit: Arc<Circuit>, dirty: Vec<NetId>, structural: bool) -> Patch<'_> {
        assert_eq!(
            (circuit.num_nets(), circuit.num_gates()),
            (self.circuit().num_nets(), self.circuit().num_gates()),
            "rebase requires an edited revision of the same circuit"
        );
        let handle = CircuitHandle::Shared(circuit.clone());
        let mut patch = Patch {
            parent: self,
            session: CheckSession::open(handle, self.config.clone()),
            circuit,
            dirty,
            structural,
            stale: OnceLock::new(),
        };
        if structural {
            return patch;
        }
        patch.session.table = self.table.clone();
        patch.session.controllability = self.controllability.clone();
        patch.session.stem_mask = self.stem_mask.clone();
        // The stale set forces both base fixpoints — work the new
        // session's first narrowing check pays anyway. Without a cached
        // cone there is nothing to transplant, so a session that never
        // narrowed forces neither.
        for (pos, cone) in self.cones.iter().enumerate() {
            // An unaffected output keeps its cone. "The cone covers the
            // whole circuit" is a connectivity fact: it survives any
            // delay-only edit.
            let Some(cone) = cone.get() else { continue };
            if cone.is_none() || patch.unaffected(self.circuit().outputs()[pos]) {
                let _ = patch.session.cones[pos].set(cone.clone());
            }
        }
        patch
    }

    /// A narrower carrying the input-mode and learning-constant
    /// constraints, not yet propagated.
    fn fresh_narrower(&self) -> Narrower<'_> {
        let circuit = self.circuit();
        let mut nw = Narrower::new(circuit);
        if let Some(table) = self.implication_table() {
            for &(net, level) in table.constants() {
                let restriction = nw.domain(net).restrict_to_class(level);
                nw.narrow_net(net, restriction);
            }
            nw.set_implications(table.clone());
        }
        let input_domain = match self.config.delay_mode {
            DelayMode::Floating => Signal::floating_input(),
            DelayMode::Transition => Signal::transition_input(),
        };
        for &i in circuit.inputs() {
            nw.narrow_net(i, input_domain);
        }
        nw
    }

    /// The session's base-fixpoint store (computed once).
    fn base_store(&self) -> &SignalStore {
        self.base.get_or_init(|| {
            // Learn first, so the span below times the fixpoint alone.
            let _ = self.implication_table();
            let span = self.config.obs.start();
            let mut nw = self.fresh_narrower();
            nw.reach_fixpoint();
            let stats = nw.stats();
            self.config.obs.span(
                "prepare.base_fixpoint",
                "prepare",
                span,
                &[
                    ("events", i64::try_from(stats.events).unwrap_or(i64::MAX)),
                    (
                        "narrowings",
                        i64::try_from(stats.narrowings).unwrap_or(i64::MAX),
                    ),
                ],
            );
            SignalStore::from_domains(nw.domains())
        })
    }

    /// A narrower seeded at the session's base fixpoint (computed once).
    fn narrower_at_base(&self) -> Narrower<'_> {
        let mut nw = Narrower::from_store(self.circuit(), self.base_store().clone());
        if let Some(table) = self.implication_table() {
            nw.set_implications(table.clone());
        }
        nw
    }

    /// Runs one check under an explicit pipeline config (the delay
    /// search's search-free fallback and budgeted checks pass their own;
    /// `config` must agree with the session on `delay_mode` and learning
    /// for the shared base to be sound) along `route`.
    ///
    /// On the cone route a check the base fixpoint already refutes is
    /// answered before any cone is built: the base store is contradictory,
    /// or the output's base domain misses every waveform settling at or
    /// after δ. Stage 1 would contradict on entry, before visiting a gate,
    /// under any assumptions (they only narrow further) and any budget
    /// (`reach_fixpoint` reports a contradiction before it polls one).
    pub(crate) fn run_check(
        &self,
        route: Route,
        output: NetId,
        delta: i64,
        config: &VerifyConfig,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
        let base = self.base_store();
        let violation = Signal::violation(Time::new(delta));
        let misses = base.get(output).intersect(violation).is_empty();
        if route == Route::Cone && (base.has_contradiction() || misses) {
            return one_stage_check(self, output, delta, Stage::Narrowing, |_| StageEnd::Refuted);
        }
        if route != Route::Whole {
            if let Some(cone) = self.cone_target(output, assumptions) {
                return match route {
                    Route::Masked => self.verify_masked(cone, output, delta, config, assumptions),
                    _ => self.verify_sliced(cone, output, delta, config, assumptions),
                };
            }
        }
        self.verify_whole(output, delta, config, assumptions)
    }

    /// The whole-circuit pipeline run.
    fn verify_whole(
        &self,
        output: NetId,
        delta: i64,
        config: &VerifyConfig,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
        let start = Instant::now();
        let mut nw = self.narrower_at_base();
        for &(net, level) in assumptions {
            let restriction = nw.domain(net).restrict_to_class(level);
            nw.narrow_net(net, restriction);
        }
        run_pipeline(&mut nw, self, output, delta, config, start, None)
    }

    /// The cone a check may run in, if any: `output` is a primary output
    /// (the per-output caches exist for those only), the cone is a strict
    /// subset of the circuit, and every assumption net lies inside it. A
    /// contradictory base refutes *every* check, even through an
    /// out-of-cone net a cone-sized store cannot see; the cone route
    /// answers it from the base before asking for a cone, and the masked
    /// route keeps the whole-circuit store, which sees it.
    fn cone_target(&self, output: NetId, assumptions: &[(NetId, Level)]) -> Option<&Cone> {
        let cone = self.cone(output)?;
        let inside = assumptions.iter().all(|&(n, _)| cone.view.contains_net(n));
        inside.then_some(cone)
    }

    /// The masked cone run: the whole-circuit store, with propagation
    /// (gate scheduling, implication firing) and case-analysis decisions
    /// restricted to the cone. Bit-identical to [`Self::verify_sliced`] by
    /// construction — the sliced run executes the same event schedule on
    /// renumbered ids — while sharing the whole-circuit store layout, so it
    /// serves as the identity-testing reference. Its whole-circuit masks
    /// are derived from the cone on every call: no production check reads
    /// them.
    fn verify_masked(
        &self,
        cone: &Cone,
        output: NetId,
        delta: i64,
        config: &VerifyConfig,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
        let circuit = self.circuit();
        let (view, sub) = (&cone.view, cone.view.circuit());
        let nets: Vec<bool> = circuit.net_ids().map(|n| view.contains_net(n)).collect();
        // A gate is in the cone iff its output net is.
        let gates = circuit
            .gate_ids()
            .map(|g| nets[circuit.gate(g).output().index()])
            .collect();
        let inputs: Vec<NetId> = circuit
            .inputs()
            .iter()
            .copied()
            .filter(|&i| nets[i.index()])
            .collect();
        // Fanout stems by reader counts inside the cone.
        let mut stems = vec![false; circuit.num_nets()];
        for m in sub.net_ids() {
            stems[view.net_from_sub(m).index()] = sub.net(m).is_fanout_stem();
        }
        let case = CaseScope {
            depth_bound: 1 + inputs.len() + sub.num_fanout_stems(),
            nets: nets.clone(),
            inputs,
            stems,
        };
        let stem_candidates = cone.stem_candidates();
        let start = Instant::now();
        let mut nw = self.narrower_at_base();
        nw.set_scope(Arc::new(NarrowScope::new(gates, nets)));
        for &(net, level) in assumptions {
            let restriction = nw.domain(net).restrict_to_class(level);
            nw.narrow_net(net, restriction);
        }
        let scope = PipelineScope {
            stem_candidates: &stem_candidates,
            case: &case,
        };
        run_pipeline(&mut nw, self, output, delta, config, start, Some(&scope))
    }

    /// The sliced cone run: delegates to the cone's sub-session, whose
    /// circuit is the cone renumbered densely and whose base store is the
    /// whole-circuit base fixpoint sliced to cone nets. Every per-check
    /// allocation and memcpy is sized to the cone. The report is mapped
    /// back to whole-circuit terms: the output id, and a violation vector
    /// widened over all primary inputs (out-of-cone inputs cannot affect
    /// `output`; they take [`fill_level`] of their base domains — the same
    /// rule the masked run applies, so vectors agree bit for bit).
    fn verify_sliced(
        &self,
        cone: &Cone,
        output: NetId,
        delta: i64,
        config: &VerifyConfig,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
        let (view, session) = (&cone.view, &cone.session);
        let sub_assumptions: Vec<(NetId, Level)> = assumptions
            .iter()
            .map(|&(n, l)| (view.net_to_sub(n).expect("assumption net in cone"), l))
            .collect();
        // The sub-circuit is the cone itself: run it whole.
        let mut report = session.verify_whole(view.sub_output(), delta, config, &sub_assumptions);
        report.output = output;
        if let Verdict::Violation { vector } = &mut report.verdict {
            *vector = self.widen_cone_vector(view, vector);
        }
        report
    }

    /// Expands a sub-circuit violation vector (over cone inputs, sub
    /// declaration order) to the whole input list.
    fn widen_cone_vector(&self, view: &ConeView, vector: &[bool]) -> Vec<bool> {
        let sub = view.circuit();
        self.circuit()
            .inputs()
            .iter()
            .map(|&i| match view.net_to_sub(i) {
                Some(m) => {
                    let pos = sub
                        .inputs()
                        .iter()
                        .position(|&x| x == m)
                        .expect("cone input is a sub-circuit input");
                    vector[pos]
                }
                None => fill_level(&self.base_store().get(i)).to_bool(),
            })
            .collect()
    }

    /// Runs the timing check `(output, δ)` through the session's engine,
    /// under the session's budget. Per-call controls — assumption pins,
    /// an extra budget, a deadline, another engine — are
    /// [`BatchRunner`](crate::BatchRunner)'s.
    ///
    /// # Panics
    ///
    /// Panics if the session is in [`DelayMode::Transition`] and its
    /// engine is not [`Engine::Narrow`]: the CNF encoder models floating
    /// mode only, so it would answer a different question.
    ///
    /// # Examples
    ///
    /// The paper's Example 2: the Figure 1 circuit has topological delay 70
    /// but the 70-path is false; δ = 61 is proven safe by narrowing alone and
    /// δ = 60 yields a test vector.
    ///
    /// ```
    /// use ltt_core::{CheckSession, VerifyConfig};
    /// use ltt_netlist::generators::figure1;
    ///
    /// let c = figure1(10);
    /// let s = c.outputs()[0];
    /// let session = CheckSession::new(&c, VerifyConfig::default());
    /// assert!(session.verify(s, 61).verdict.is_no_violation());
    /// assert!(session.verify(s, 60).verdict.is_violation());
    /// ```
    pub fn verify(&self, output: NetId, delta: i64) -> VerifyReport {
        let engine = self.config.engine;
        self.check(engine, output, delta, &[], &Budget::unlimited())
    }

    /// Finds the exact delay of `output` by binary search over δ in
    /// `[0, arrival(output) + 1)` with the session's engine, sharing every
    /// per-circuit analysis (and the base fixpoint) across probes.
    ///
    /// A probe that shows a violation raises the lower bound, one that
    /// proves δ safe lowers the upper bound, and an undecided probe ends
    /// the bisection (see
    /// [`BatchRunner::exact_delays`](crate::BatchRunner::exact_delays) for
    /// the interval a budget-cut search returns). The circuit's delay — the
    /// quantity Table 1 reports — is the maximum over every output.
    ///
    /// # Panics
    ///
    /// Panics if the session is in [`DelayMode::Transition`] and its
    /// engine is not [`Engine::Narrow`]: the CNF encoder models floating
    /// mode only.
    pub fn exact_delay(&self, output: NetId) -> DelaySearch {
        let engine = self.config.engine;
        self.search(engine, Route::Cone, output, &Budget::unlimited())
    }
}

/// An edited revision of a session's circuit, from [`CheckSession::patch`]:
/// the edited circuit and its rebased session, plus the carry-over rule
/// that says which of the parent session's reports still hold.
pub struct Patch<'p> {
    parent: &'p CheckSession<'p>,
    /// The edited circuit.
    pub circuit: Arc<Circuit>,
    /// The nets whose constraints the edits changed
    /// ([`EditOutcome::dirty`](ltt_netlist::EditOutcome::dirty)).
    pub dirty: Vec<NetId>,
    /// Whether any edit changed connectivity (a rewire).
    pub structural: bool,
    /// The edited circuit's session, rebased from the parent's.
    pub session: CheckSession<'static>,
    /// `dirty` ∪ the base divergence, computed once: by the rebase when
    /// a cached cone needs it, else by the first [`Self::unaffected`].
    stale: OnceLock<Option<Vec<NetId>>>,
}

impl Patch<'_> {
    /// Whether the edits cannot change any check of `output`, so every
    /// parent report on it (verdict, witness, completeness, effort) is
    /// the edited circuit's: its cone is proper and misses the stale set,
    /// or its cone is the whole circuit and the stale set is empty
    /// (DESIGN.md §14). Builds no cone but the parent's cone of `output`.
    pub fn unaffected(&self, output: NetId) -> bool {
        self.stale()
            .is_some_and(|stale| match self.parent.cone(output) {
                Some(cone) => !cone.view.intersects(stale),
                None => stale.is_empty(),
            })
    }

    /// Every net the edits may have influenced: `dirty` (where
    /// constraints changed) plus every net whose base-fixpoint domain
    /// differs (where their consequences landed — backward narrowing
    /// through fringe gates can push an out-of-cone delay change into
    /// cone-net domains). `None` when nothing carries over: a structural
    /// edit, or a contradictory base on either side, which refutes every
    /// check against the whole circuit rather than a cone. Computed on
    /// first use; forces both base fixpoints.
    fn stale(&self) -> Option<&[NetId]> {
        self.stale
            .get_or_init(|| {
                if self.structural {
                    return None;
                }
                let (a, b) = (self.parent.base_store(), self.session.base_store());
                if a.has_contradiction() || b.has_contradiction() {
                    return None;
                }
                let moved = self.circuit.net_ids().filter(|&n| a.get(n) != b.get(n));
                Some(self.dirty.iter().copied().chain(moved).collect())
            })
            .as_deref()
    }
}

/// Where a check runs. Every public check method takes [`Route::Cone`];
/// the other two are the references the cone path is tested against,
/// reachable only through the test-support methods below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The output's cone sub-session (the whole circuit when the cone
    /// covers it).
    Cone,
    /// The whole-circuit store with propagation and decisions masked to
    /// the cone: bit-identical to `Cone`.
    Masked,
    /// The whole circuit, unmasked: verdict-identical to `Cone`, but it
    /// also schedules the fringe gates reading cone nets and decides
    /// out-of-cone inputs, so effort counters and witnesses may differ.
    Whole,
}

/// Test support: the reference runs cone slicing is checked against
/// (DESIGN.md §14). These are not part of the API and no configuration
/// selects them.
impl CheckSession<'_> {
    /// [`CheckSession::verify`] on the whole-circuit store masked to the
    /// output's cone — the bit-identity reference of the sliced run.
    #[doc(hidden)]
    pub fn verify_masked_reference(&self, output: NetId, delta: i64) -> VerifyReport {
        self.run_check(Route::Masked, output, delta, &self.config, &[])
    }

    /// [`CheckSession::verify`] on the whole circuit — the verdict
    /// reference of the sliced run.
    #[doc(hidden)]
    pub fn verify_whole_reference(&self, output: NetId, delta: i64) -> VerifyReport {
        self.run_check(Route::Whole, output, delta, &self.config, &[])
    }

    /// [`CheckSession::exact_delay`] with every probe on the whole circuit.
    #[doc(hidden)]
    pub fn exact_delay_whole_reference(&self, output: NetId) -> DelaySearch {
        self.search(Engine::Narrow, Route::Whole, output, &Budget::unlimited())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;
    use ltt_netlist::generators::{
        carry_skip_adder, false_path_chain, figure1, random_circuit, RandomCircuitConfig,
    };
    use ltt_netlist::suite::c17;
    use ltt_netlist::{DelayInterval, GateId};

    /// Compile-time guarantee that sessions can be shared across threads.
    fn assert_sync<T: Sync>() {}

    #[test]
    fn session_is_sync() {
        assert_sync::<CheckSession<'static>>();
    }

    /// A session reused across checks agrees with a fresh one-check
    /// session per check.
    #[test]
    fn session_matches_free_verify_verdicts() {
        let config = VerifyConfig::default();
        for c in [
            figure1(10),
            false_path_chain(4, 3, 10),
            carry_skip_adder(4, 2, 10),
        ] {
            let session = CheckSession::new(&c, config.clone());
            let top = c.topological_delay();
            for &s in c.outputs() {
                for delta in [top / 2, top, top + 1] {
                    let a = session.verify(s, delta);
                    let b = CheckSession::new(&c, config.clone()).verify(s, delta);
                    assert_eq!(a.verdict, b.verdict, "{} δ = {delta}", c.name());
                }
            }
        }
    }

    #[test]
    fn analyses_are_shared_not_recomputed() {
        let c = figure1(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        // Pointer identity across calls: the lazy caches hand out the same
        // allocation every time.
        assert!(std::ptr::eq(
            session.controllability(),
            session.controllability()
        ));
        assert!(std::ptr::eq(
            session.stem_candidates().as_ptr(),
            session.stem_candidates().as_ptr()
        ));
        assert!(std::ptr::eq(
            session.arrival_times().as_ptr(),
            session.arrival_times().as_ptr()
        ));
    }

    #[test]
    fn static_dominators_cover_the_critical_chain() {
        use crate::carriers::{static_carriers, timing_dominators};
        let c = figure1(10);
        let s = c.outputs()[0];
        let session = CheckSession::new(&c, VerifyConfig::default());
        // The static carrier circuit at δ = arrival: the critical paths.
        let carriers = static_carriers(&c, s, session.arrival_times()[s.index()]);
        let names: Vec<&str> = timing_dominators(&c, &carriers, s)
            .iter()
            .map(|&n| c.net(n).name())
            .collect();
        // The unique 70-path is a chain: every net on it dominates.
        assert_eq!(names, vec!["s", "n7", "n6", "n4", "n3", "n2", "n1"]);
    }

    /// Every output checked at arrival + 1 is refuted by the base
    /// fixpoint: no cone is built, stage 1 records one zero-counter span
    /// per check, and the answer equals the masked reference's, which
    /// still runs the narrower on the output's cone.
    #[test]
    fn base_refuted_checks_build_no_cone() {
        use crate::check::Stage;
        use crate::obs::{Obs, Recorder};
        let c = ltt_netlist::suite::iscas85_suite(10)
            .into_iter()
            .find(|e| e.name == "s432")
            .expect("s432 in the suite")
            .circuit;
        let recorder = Arc::new(Recorder::new());
        let config = VerifyConfig {
            obs: Obs::recording(recorder.clone()),
            ..Default::default()
        };
        let session = CheckSession::new(&c, config);
        let reference = CheckSession::new(&c, VerifyConfig::default());
        let pin = [(c.inputs()[0], Level::One)];
        for &s in c.outputs() {
            let delta = session.arrival_times()[s.index()] + 1;
            let r = session.verify(s, delta);
            let stage = Stage::Narrowing;
            assert_eq!(r.verdict, Verdict::NoViolation { stage });
            assert_eq!(r.effort, Default::default());
            let m = reference.verify_masked_reference(s, delta);
            assert_eq!((&r.verdict, r.effort), (&m.verdict, m.effort));
            // An assumption only narrows further: the same answer.
            let pinned = crate::BatchRunner::serial().run_under(&session, &[(s, delta)], &pin);
            let pinned = &pinned.reports[0];
            assert_eq!((&pinned.verdict, pinned.effort), (&r.verdict, r.effort));
        }
        assert!(c.outputs().iter().any(|&s| reference.cone(s).is_some()));
        let spans = recorder.spans();
        assert!(spans.iter().all(|span| span.name != "prepare.cone"));
        let stage_spans: Vec<_> = spans.iter().filter(|span| span.cat == "stage").collect();
        assert_eq!(stage_spans.len(), 2 * c.outputs().len());
        // Each span names the whole-circuit output.
        let outputs = c.outputs().iter().flat_map(|&s| [s, s]);
        for (span, s) in stage_spans.into_iter().zip(outputs) {
            assert_eq!(span.name, "check.narrowing");
            assert_eq!(span.args[0], ("output", s.index() as i64));
            assert!(span.args[2..].iter().all(|&(_, value)| value == 0));
        }
    }

    #[test]
    fn session_exact_delay_matches_figure1() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let session = CheckSession::new(&c, VerifyConfig::default());
        let search = session.exact_delay(s);
        assert_eq!(search.delay, 60);
        assert!(search.proven_exact);
        match session.verify(s, 60).verdict {
            Verdict::Violation { ref vector } => {
                assert!(ltt_sta::vector_violates(&c, vector, s, 60));
            }
            ref other => panic!("expected violation, got {other:?}"),
        }
    }

    /// The carry-over rule on `c` after `edits`: the parent's report of
    /// every output [`Patch::unaffected`] reports equals a cold session's
    /// report on the edited circuit at each probed δ — verdict, witness,
    /// completeness and effort. Returns the unaffected outputs.
    fn carried_over(c: &Circuit, edits: &[CircuitEdit]) -> Vec<NetId> {
        let config = VerifyConfig::default();
        let parent = CheckSession::new(c, config.clone());
        let reports: Vec<Vec<VerifyReport>> = c
            .outputs()
            .iter()
            .map(|&s| {
                let top = parent.arrival_times()[s.index()];
                [top / 2, 3 * top / 4, top, top + 1]
                    .map(|delta| parent.verify(s, delta))
                    .to_vec()
            })
            .collect();
        let patch = parent.patch(edits).expect("valid edit");
        let cold = CheckSession::new_shared(patch.circuit.clone(), config);
        let mut unaffected = Vec::new();
        for (&s, reports) in c.outputs().iter().zip(&reports) {
            if !patch.unaffected(s) {
                continue;
            }
            unaffected.push(s);
            for old in reports {
                let new = cold.verify(s, old.delta);
                let what = format!("{} output {} δ = {}", c.name(), s, old.delta);
                assert_eq!(old.verdict, new.verdict, "{what}");
                assert_eq!(old.completeness, new.completeness, "{what}");
                assert_eq!(old.effort, new.effort, "{what}");
                assert_eq!((old.stems, old.case), (new.stems, new.case), "{what}");
            }
        }
        unaffected
    }

    fn set_delay(gate: GateId, delay: DelayInterval) -> Vec<CircuitEdit> {
        vec![CircuitEdit::SetDelay { gate, delay }]
    }

    #[test]
    fn unaffected_outputs_keep_their_reports() {
        let random = |seed| {
            random_circuit(&RandomCircuitConfig {
                num_inputs: 10,
                num_gates: 60,
                num_outputs: 4,
                max_fanin: 3,
                depth_bias: 4,
                delay: 10,
                seed,
            })
        };
        let mut circuits = vec![c17(10), carry_skip_adder(6, 2, 10), figure1(10)];
        circuits.extend((0..6).map(random));
        let (mut out_of_cone_carried, mut whole_cones) = (0, 0);
        for c in &circuits {
            let outputs = c.outputs();
            let gate = |n: NetId| c.net(n).driver().expect("gate-driven output");
            // A no-op delay edit dirties nothing: every output carries over.
            let first = GateId::from_index(0);
            let noop = set_delay(first, c.gate(first).delay());
            assert_eq!(carried_over(c, &noop), outputs, "{}", c.name());
            // A rewire keeps nothing.
            let g = c
                .gate_ids()
                .find(|&g| {
                    c.gate(g).inputs().len() == 2 && c.gate(g).inputs()[0] != c.gate(g).inputs()[1]
                })
                .expect("a two-input gate");
            let swapped = vec![CircuitEdit::Rewire {
                gate: g,
                inputs: c.gate(g).inputs().iter().rev().copied().collect(),
            }];
            assert!(carried_over(c, &swapped).is_empty(), "{}", c.name());
            let probe = CheckSession::new(c, VerifyConfig::default());
            for &s in outputs {
                // An edit inside the cone affects the output.
                let inside = set_delay(gate(s), DelayInterval::fixed(17));
                assert!(!carried_over(c, &inside).contains(&s), "{}", c.name());
                // An edit outside it may leave it unaffected.
                let Some(cone) = probe.cone(s) else {
                    whole_cones += 1;
                    continue;
                };
                let in_cone = |g| cone.view.contains_net(c.gate(g).output());
                let Some(outside) = c.gate_ids().find(|&g| !in_cone(g)) else {
                    continue;
                };
                let carried = carried_over(c, &set_delay(outside, DelayInterval::fixed(7)));
                out_of_cone_carried += usize::from(carried.contains(&s));
            }
        }
        assert!(out_of_cone_carried > 0 && whole_cones > 0);
        // On c17, gate 10 feeds output 22 only: 23 carries over.
        let c = c17(10);
        let n = |name| c.net_by_name(name).unwrap();
        let edit = set_delay(c.net(n("10")).driver().unwrap(), DelayInterval::fixed(9));
        assert_eq!(carried_over(&c, &edit), vec![n("23")]);
    }

    /// A contradictory base on either side refutes every check against
    /// the whole circuit: nothing carries over.
    #[test]
    fn contradictory_base_keeps_nothing() {
        let c = c17(10);
        let contradictory = || {
            let mut domains = CheckSession::new(&c, VerifyConfig::default())
                .base_store()
                .all()
                .to_vec();
            domains[c.inputs()[0].index()] = Signal::EMPTY;
            SignalStore::from_domains(&domains)
        };
        let n = |name| c.net_by_name(name).unwrap();
        let edit = set_delay(c.net(n("10")).driver().unwrap(), DelayInterval::fixed(9));
        let parent = CheckSession::new(&c, VerifyConfig::default());
        let patch = parent.patch(&edit).unwrap();
        assert!(patch.unaffected(n("23")));
        for side in 0..2 {
            let parent = CheckSession::new(&c, VerifyConfig::default());
            if side == 0 {
                let _ = parent.base.set(contradictory());
            }
            let patch = parent.patch(&edit).unwrap();
            if side == 1 {
                let _ = patch.session.base.set(contradictory());
            }
            assert!(c.outputs().iter().all(|&s| !patch.unaffected(s)));
        }
    }
}
