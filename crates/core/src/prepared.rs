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
    refuted_at_base, run_pipeline, DelayMode, DelaySearch, Engine, LearningMode, PipelineScope,
    Verdict, VerifyConfig, VerifyReport,
};
use crate::domain::SignalStore;
use crate::fan::{fill_level, CaseScope};
use crate::learning::ImplicationTable;
use crate::scoap::Controllability;
use crate::solver::{NarrowScope, Narrower};
use ltt_netlist::{Circuit, ConeView, NetId};
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

/// Everything a cone-scoped check of one output needs, derived once per
/// output and shared by every check (and by the masked reference run):
///
/// * the [`ConeView`] — the output's transitive fanin as a dense,
///   order-preservingly renumbered sub-circuit (the circuit a sliced
///   check runs on);
/// * whole-circuit-indexed masks restricting propagation and decisions to
///   the cone (the masked reference run's scope);
/// * the cone-local reconvergent-stem candidates and fanout-stem flags
///   (reader counts *inside* the cone — a net with one in-cone and two
///   out-of-cone readers is a whole-circuit stem but not a cone stem);
/// * the parent implication table sliced to cone-internal pairs
///   ([`ImplicationTable::sliced`]) — *not* a table re-learned on the
///   sub-circuit, which could differ.
pub struct ConeAnalysis {
    view: ConeView,
    scope: Arc<NarrowScope>,
    case: CaseScope,
    /// Sub-circuit reconvergent-stem candidates, whole-circuit-indexed.
    stem_candidates: Vec<bool>,
    /// The parent table sliced to the cone, sub-circuit-indexed.
    table: Option<Arc<ImplicationTable>>,
}

impl ConeAnalysis {
    fn build(circuit: &Circuit, output: NetId, table: Option<&Arc<ImplicationTable>>) -> Self {
        let view = ConeView::extract(circuit, output);
        let sub = view.circuit();
        let nets: Vec<bool> = circuit.net_ids().map(|n| view.contains_net(n)).collect();
        let gates: Vec<bool> = circuit.gate_ids().map(|g| view.contains_gate(g)).collect();
        let inputs: Vec<NetId> = circuit
            .inputs()
            .iter()
            .copied()
            .filter(|&i| view.contains_net(i))
            .collect();
        let sub_candidates = sub.reconvergent_stems();
        let mut stems = vec![false; circuit.num_nets()];
        let mut stem_candidates = vec![false; circuit.num_nets()];
        for m in sub.net_ids() {
            let old = view.net_from_sub(m).index();
            stems[old] = sub.net(m).is_fanout_stem();
            stem_candidates[old] = sub_candidates[m.index()];
        }
        let sliced = table.map(|t| Arc::new(t.sliced(&view)));
        ConeAnalysis {
            scope: Arc::new(NarrowScope::new(gates.clone(), nets.clone())),
            case: CaseScope {
                depth_bound: 1 + inputs.len() + stems.iter().filter(|&&stem| stem).count(),
                nets,
                gates,
                inputs,
                stems,
            },
            stem_candidates,
            table: sliced,
            view,
        }
    }

    /// The cone as a renumbered sub-circuit.
    pub fn view(&self) -> &ConeView {
        &self.view
    }

    /// The cone's reconvergent-stem candidates: computed on the
    /// sub-circuit (reader counts inside the cone), whole-circuit indexed.
    pub fn stem_candidates(&self) -> &[bool] {
        &self.stem_candidates
    }

    /// Whether the cone contains any of the given (whole-circuit) nets —
    /// the ECO invalidation test.
    pub fn intersects(&self, nets: &[NetId]) -> bool {
        self.view.intersects(nets)
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
    controllability: OnceLock<Controllability>,
    stem_mask: OnceLock<Vec<bool>>,
    /// Per-output cone analyses (`None` once computed = the cone covers
    /// the whole circuit, where a check runs on the whole circuit).
    cones: Vec<OnceLock<Option<Arc<ConeAnalysis>>>>,
    /// The base-fixpoint store prototype: planes derived once, cloned (two
    /// flat memcpys) into every per-check narrower.
    base: OnceLock<SignalStore>,
    /// Per-output cone-sliced sub-sessions: each wraps the cone's
    /// renumbered sub-circuit with a base store sliced from the
    /// whole-circuit base fixpoint, so a sliced check seeds with two
    /// memcpys *sized to the cone*. `Arc` so an ECO rebase
    /// can transplant untouched cone sessions wholesale.
    cone_sessions: Vec<OnceLock<Arc<CheckSession<'static>>>>,
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
        fn per_output<T>(circuit: &CircuitHandle) -> Vec<OnceLock<T>> {
            (0..circuit.get().outputs().len())
                .map(|_| OnceLock::new())
                .collect()
        }
        CheckSession {
            table: OnceLock::new(),
            arrival: OnceLock::new(),
            controllability: OnceLock::new(),
            stem_mask: OnceLock::new(),
            cones: per_output(&circuit),
            base: OnceLock::new(),
            cone_sessions: per_output(&circuit),
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
                    LearningMode::Stems => Some(ImplicationTable::learn_stems(self.circuit())),
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

    /// The fanin-cone analysis of `output`, cached per output. `None` when
    /// no cone-scoped run applies: `output` is not a primary output, or its
    /// cone covers the whole circuit (slicing would be the identity and the
    /// whole-circuit run is strictly cheaper).
    pub fn cone(&self, output: NetId) -> Option<&Arc<ConeAnalysis>> {
        let pos = self.circuit().outputs().iter().position(|&o| o == output)?;
        self.cones[pos]
            .get_or_init(|| {
                // Learn first, so the span below times the cone alone.
                let table = self.implication_table();
                let span = self.config.obs.start();
                let ca = ConeAnalysis::build(self.circuit(), output, table);
                self.config.obs.span(
                    "prepare.cone",
                    "prepare",
                    span,
                    &[
                        ("output", i64::try_from(output.index()).unwrap_or(i64::MAX)),
                        (
                            "cone_nets",
                            i64::try_from(ca.view.nets().len()).unwrap_or(i64::MAX),
                        ),
                    ],
                );
                if ca.view.is_complete() {
                    None
                } else {
                    Some(Arc::new(ca))
                }
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

    /// Opens a session for an edited revision of this session's circuit,
    /// transplanting every analysis the edit provably leaves intact — the
    /// core of ECO-style incremental re-verification.
    ///
    /// `dirty` and `structural` come from
    /// [`Circuit::apply_edit`](ltt_netlist::Circuit::apply_edit)'s
    /// [`EditOutcome`](ltt_netlist::EditOutcome); `circuit` must be that
    /// outcome's circuit (same nets and gates, edited delays/wiring).
    ///
    /// What transfers when `structural` is `false` (delay-only edits):
    ///
    /// * the learned implication table — implications are about logic
    ///   classes, not times;
    /// * SCOAP controllabilities and the reconvergent-stem
    ///   candidate set — functions of connectivity only;
    /// * per output, when the output's fanin cone contains **no** dirty net
    ///   *and* no net whose base-fixpoint domain changed
    ///   ([`Self::base_divergence`] — backward narrowing through fringe
    ///   gates can push an out-of-cone delay change into cone-net
    ///   domains): the cone analysis and the warmed cone sub-session,
    ///   wholesale.
    ///
    /// Only what this session has computed so far transfers — and checks
    /// the base fixpoint refutes build no cone, so only the cones of
    /// checks that reached the narrower can transfer. A
    /// `structural` edit keeps nothing: every analysis, the table included,
    /// is rebuilt lazily.
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
        assert_eq!(
            (circuit.num_nets(), circuit.num_gates()),
            (self.circuit().num_nets(), self.circuit().num_gates()),
            "rebase requires an edited revision of the same circuit"
        );
        let mut session = CheckSession::open(CircuitHandle::Shared(circuit), self.config.clone());
        if structural {
            return session;
        }
        session.table = self.table.clone();
        session.controllability = self.controllability.clone();
        session.stem_mask = self.stem_mask.clone();
        // Per-output transplants need the base divergence, which forces
        // both base fixpoints — work the new session's first narrowing
        // check pays anyway. Without a cached cone there is nothing to
        // transplant, so a session that never narrowed forces neither.
        let mut stale: Option<Vec<NetId>> = None;
        for pos in 0..self.cones.len() {
            let ca = match self.cones[pos].get() {
                None => continue,
                Some(None) => {
                    // "Cone covers the whole circuit" is a connectivity
                    // fact; it survives any delay-only edit.
                    let _ = session.cones[pos].set(None);
                    continue;
                }
                Some(Some(ca)) => ca,
            };
            let stale = stale.get_or_insert_with(|| {
                let mut stale = dirty.to_vec();
                stale.extend(self.base_divergence(&session));
                stale
            });
            if ca.intersects(stale) {
                continue;
            }
            let _ = session.cones[pos].set(Some(ca.clone()));
            if let Some(sub) = self.cone_sessions[pos].get() {
                let _ = session.cone_sessions[pos].set(sub.clone());
            }
        }
        session
    }

    /// The nets whose base-fixpoint domains differ between this session
    /// and `other` (same-sized circuit). Forces both base fixpoints. An
    /// edit's full influence on cached cone state is `dirty ∪
    /// base_divergence`: `dirty` is where constraints changed,
    /// `base_divergence` is where their fixpoint consequences landed.
    pub fn base_divergence(&self, other: &CheckSession<'_>) -> Vec<NetId> {
        let a = self.base_store();
        let b = other.base_store();
        assert_eq!(a.all().len(), b.all().len(), "circuits differ in size");
        self.circuit()
            .net_ids()
            .filter(|&n| a.get(n) != b.get(n))
            .collect()
    }

    /// Whether the session's base fixpoint is already contradictory (the
    /// circuit admits no waveform assignment at all under the input mode).
    /// Forces the base fixpoint. Callers transplanting per-output results
    /// across a rebase must treat a contradictory base as all-stale: the
    /// degenerate path reports against the whole circuit, not a cone.
    pub fn base_contradictory(&self) -> bool {
        self.base_store().has_contradiction()
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
            let name = self.circuit().net(output).name();
            return refuted_at_base(output, name, delta, config);
        }
        if route != Route::Whole {
            if let Some((pos, ca)) = self.cone_target(output, assumptions) {
                let ca = ca.clone();
                return match route {
                    Route::Masked => self.verify_masked(&ca, output, delta, config, assumptions),
                    _ => self.verify_sliced(pos, &ca, output, delta, config, assumptions),
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
    fn cone_target(
        &self,
        output: NetId,
        assumptions: &[(NetId, Level)],
    ) -> Option<(usize, &Arc<ConeAnalysis>)> {
        let pos = self.circuit().outputs().iter().position(|&o| o == output)?;
        let ca = self.cone(output)?;
        let inside = assumptions.iter().all(|&(n, _)| ca.view.contains_net(n));
        inside.then_some((pos, ca))
    }

    /// The masked cone run: the whole-circuit store, with propagation
    /// (gate scheduling, implication firing) and case-analysis decisions
    /// restricted to the cone. Bit-identical to [`Self::verify_sliced`] by
    /// construction — the sliced run executes the same event schedule on
    /// renumbered ids — while sharing the whole-circuit store layout, so it
    /// serves as the identity-testing reference.
    fn verify_masked(
        &self,
        ca: &ConeAnalysis,
        output: NetId,
        delta: i64,
        config: &VerifyConfig,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
        let start = Instant::now();
        let mut nw = self.narrower_at_base();
        nw.set_scope(ca.scope.clone());
        for &(net, level) in assumptions {
            let restriction = nw.domain(net).restrict_to_class(level);
            nw.narrow_net(net, restriction);
        }
        let scope = PipelineScope {
            stem_candidates: &ca.stem_candidates,
            case: &ca.case,
        };
        run_pipeline(&mut nw, self, output, delta, config, start, Some(&scope))
    }

    /// The sliced cone run: delegates to the output's cached sub-session,
    /// whose circuit is the cone renumbered densely and whose base store
    /// is the whole-circuit base fixpoint sliced to cone nets. Every
    /// per-check allocation and memcpy is sized to the cone. The report is
    /// mapped back to whole-circuit terms: the output id, and a violation
    /// vector widened over all primary inputs (out-of-cone inputs cannot
    /// affect `output`; they take [`fill_level`] of their base domains —
    /// the same rule the masked run applies, so vectors agree bit for
    /// bit).
    fn verify_sliced(
        &self,
        pos: usize,
        ca: &Arc<ConeAnalysis>,
        output: NetId,
        delta: i64,
        config: &VerifyConfig,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
        let session = self.cone_session(pos, ca);
        let view = ca.view();
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

    /// The cached sub-session of output cone `pos` (built on first use).
    fn cone_session(&self, pos: usize, ca: &Arc<ConeAnalysis>) -> &Arc<CheckSession<'static>> {
        self.cone_sessions[pos].get_or_init(|| {
            let view = ca.view();
            let session = CheckSession::open(
                CircuitHandle::Shared(view.circuit().clone()),
                self.config.clone(),
            );
            let _ = session.table.set(ca.table.clone());
            // The cone's stem mask was computed on this very sub-circuit.
            let _ = session.stem_mask.set(
                view.nets()
                    .iter()
                    .map(|old| ca.stem_candidates[old.index()])
                    .collect(),
            );
            // Seed the sub base by slicing the whole base fixpoint — NOT by
            // re-running narrowing on the sub-circuit, which would lose the
            // backward pressure out-of-cone learning constants exert on
            // cone nets through fringe gates.
            let domains: Vec<Signal> = view
                .nets()
                .iter()
                .map(|&old| self.base_store().get(old))
                .collect();
            let _ = session.base.set(SignalStore::from_domains(&domains));
            Arc::new(session)
        })
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
    use ltt_netlist::generators::{carry_skip_adder, false_path_chain, figure1};

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
}
