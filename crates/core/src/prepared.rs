//! Per-circuit analysis cache and check sessions.
//!
//! Every stage of the pipeline leans on analyses that depend only on the
//! circuit, not on the individual check `σ = (ξ, s, δ)`: the static
//! learning table (§4), the SCOAP controllabilities/observabilities that
//! guide the case analysis (§5), the reconvergent-fanout-stem set that
//! seeds stem correlation (§5), arrival times and per-output longest-path
//! distances, and the static timing dominators of each output's critical
//! carrier circuit. Re-deriving them per check is pure overhead once a
//! workload runs more than one check — a delay search probes O(log top)
//! deltas, `verify_all_outputs` visits every output, and the Table 1
//! harness runs whole suites.
//!
//! [`PreparedCircuit`] computes each of these **once per circuit** (lazily,
//! so ablated configurations — and the SAT engine, which reads none of
//! them — pay nothing for stages they skip) and hands shared references to
//! every check. [`CheckSession`] pairs a prepared circuit with one
//! [`VerifyConfig`] and additionally caches the **base fixpoint** — the
//! greatest fixpoint of the input-and-learning constraints *without* any δ
//! constraint — which every narrowing check of the session starts from.
//! Both types are `Sync`: a batch executor
//! ([`BatchRunner`](crate::BatchRunner)) can fan checks out across threads
//! with no per-thread re-preparation, and because each check still runs on
//! its own [`Narrower`], parallel results are identical to serial ones.

use crate::budget::Budget;
use crate::carriers::fixpoint_with_dominators;
use crate::check::{
    run_pipeline, DelayMode, DelaySearch, Engine, LearningMode, PipelineScope, ProfilePoint,
    Verdict, VerifyConfig, VerifyReport,
};
use crate::domain::SignalStore;
use crate::fan::{fill_level, CaseScope};
use crate::learning::ImplicationTable;
use crate::obs::Obs;
use crate::scoap::{Controllability, Observability};
use crate::solver::{FixpointResult, NarrowScope, Narrower};
use ltt_netlist::{Circuit, ConeView, NetId};
use ltt_waveform::{Level, Signal, Time};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How a prepared circuit holds its netlist.
///
/// The classic, allocation-free form borrows the caller's circuit for the
/// scope of a run. The shared form owns an [`Arc`], which is what a
/// long-lived circuit registry (the serving layer) needs: the resulting
/// `PreparedCircuit<'static>` / `CheckSession<'static>` can live in a cache
/// and outlive any one request, and dropping the cache entry frees the
/// circuit — no leaked `'static` borrows.
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

/// Per-output static analyses (computed lazily, cached per output).
#[derive(Clone)]
struct OutputAnalysis {
    /// `longest_to(output)`: max path delay from each net to the output.
    distances: Vec<Option<i64>>,
    /// Timing dominators of the static carrier circuit at δ = arrival —
    /// the nets every critical-length path must cross.
    dominators: Vec<NetId>,
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

/// All check-independent analyses of one circuit, computed at most once.
///
/// The fields are lazy ([`OnceLock`]), so a narrowing-only configuration
/// never pays for SCOAP or the reconvergent-stem mask, and a SAT session
/// never pays for the implication table, while a full pipeline computes
/// each exactly once no matter how many checks run — serially or from many
/// threads at once.
///
/// # Examples
///
/// ```
/// use ltt_core::{LearningMode, PreparedCircuit};
/// use ltt_netlist::generators::figure1;
///
/// let c = figure1(10);
/// let prepared = PreparedCircuit::new(&c, LearningMode::Stems);
/// let s = c.outputs()[0];
/// // Arrival times and the critical-path dominators are cached per output.
/// assert_eq!(prepared.arrival_times()[s.index()], 70);
/// assert!(!prepared.static_dominators(s).is_empty());
/// ```
pub struct PreparedCircuit<'c> {
    circuit: CircuitHandle<'c>,
    learning: LearningMode,
    /// The static-learning table per `learning` (`None` when off).
    table: OnceLock<Option<Arc<ImplicationTable>>>,
    arrival: OnceLock<Vec<i64>>,
    controllability: OnceLock<Controllability>,
    observability: OnceLock<Observability>,
    stem_mask: OnceLock<Vec<bool>>,
    per_output: Vec<OnceLock<OutputAnalysis>>,
    /// Per-output cone analyses (`None` once computed = the cone covers
    /// the whole circuit, where a check runs on the whole circuit).
    cones: Vec<OnceLock<Option<Arc<ConeAnalysis>>>>,
    /// Observability sink for the lazy per-circuit analyses. Disabled by
    /// default; [`CheckSession::with_prepared`] installs the session
    /// config's handle so the one-time derivations show up in traces.
    obs: Obs,
}

impl<'c> PreparedCircuit<'c> {
    /// Prepares a circuit whose implication table is learned per
    /// `learning` on first use.
    pub fn new(circuit: &'c Circuit, learning: LearningMode) -> Self {
        Self::from_handle(CircuitHandle::Borrowed(circuit), learning)
    }

    /// [`PreparedCircuit::new`] with shared ownership: the prepared circuit
    /// owns (a reference count on) its netlist, so it needs no enclosing
    /// borrow scope. This is the registry hook — a circuit cache stores
    /// `PreparedCircuit<'static>` entries and each entry's analyses are
    /// computed once, shared by every request that names the circuit.
    pub fn new_shared(circuit: Arc<Circuit>, learning: LearningMode) -> PreparedCircuit<'static> {
        PreparedCircuit::from_handle(CircuitHandle::Shared(circuit), learning)
    }

    fn from_handle(circuit: CircuitHandle<'c>, learning: LearningMode) -> Self {
        let num_outputs = circuit.get().outputs().len();
        PreparedCircuit {
            circuit,
            learning,
            table: OnceLock::new(),
            arrival: OnceLock::new(),
            controllability: OnceLock::new(),
            observability: OnceLock::new(),
            stem_mask: OnceLock::new(),
            per_output: (0..num_outputs).map(|_| OnceLock::new()).collect(),
            cones: (0..num_outputs).map(|_| OnceLock::new()).collect(),
            obs: Obs::disabled(),
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        self.circuit.get()
    }

    /// The shared static-learning table, if learning is enabled, learned
    /// on first use.
    pub fn implication_table(&self) -> Option<&Arc<ImplicationTable>> {
        self.table
            .get_or_init(|| {
                let span = self.obs.start();
                let table = match self.learning {
                    LearningMode::Off => None,
                    LearningMode::Stems => Some(ImplicationTable::learn_stems(self.circuit())),
                    LearningMode::All => Some(ImplicationTable::learn(self.circuit())),
                };
                self.obs
                    .span("prepare.static_learning", "prepare", span, &[]);
                table.map(Arc::new)
            })
            .as_ref()
    }

    /// Topological arrival times (`max` delay to each net), cached.
    pub fn arrival_times(&self) -> &[i64] {
        self.arrival.get_or_init(|| self.circuit().arrival_times())
    }

    /// SCOAP controllabilities (case-analysis guidance), cached.
    pub fn controllability(&self) -> &Controllability {
        self.controllability
            .get_or_init(|| Controllability::compute(self.circuit()))
    }

    /// SCOAP observabilities, cached.
    pub fn observability(&self) -> &Observability {
        self.observability
            .get_or_init(|| Observability::compute(self.circuit(), self.controllability()))
    }

    /// Per-net mask of reconvergent fanout stems — the stem-correlation
    /// candidate set ([`Circuit::reconvergent_stems`]), cached.
    pub fn stem_candidates(&self) -> &[bool] {
        self.stem_mask
            .get_or_init(|| self.circuit().reconvergent_stems())
    }

    /// Longest-path distances from every net to `output`, cached per
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a primary output (per-output caches exist
    /// for primary outputs only).
    pub fn distances_to(&self, output: NetId) -> &[Option<i64>] {
        &self.output_analysis(output).distances
    }

    /// The static timing dominators of `output`'s critical carrier circuit
    /// (δ = arrival time): the nets that **every** critical-length path to
    /// `output` crosses, ordered from the output towards the inputs.
    /// Cached per output.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a primary output.
    pub fn static_dominators(&self, output: NetId) -> &[NetId] {
        &self.output_analysis(output).dominators
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
                let span = self.obs.start();
                let ca = ConeAnalysis::build(self.circuit(), output, table);
                self.obs.span(
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

    fn output_analysis(&self, output: NetId) -> &OutputAnalysis {
        let pos = self
            .circuit()
            .outputs()
            .iter()
            .position(|&o| o == output)
            .expect("per-output analyses exist for primary outputs only");
        self.per_output[pos].get_or_init(|| {
            let span = self.obs.start();
            let distances = self.circuit().longest_to(output);
            let arrival = self.arrival_times();
            let delta = arrival[output.index()];
            let carriers: Vec<Option<i64>> = self
                .circuit()
                .net_ids()
                .map(|x| match distances[x.index()] {
                    Some(d) if arrival[x.index()] + d >= delta => Some(d),
                    _ => None,
                })
                .collect();
            let dominators = crate::carriers::timing_dominators(self.circuit(), &carriers, output);
            self.obs.span(
                "prepare.dominators",
                "prepare",
                span,
                &[
                    ("output", i64::try_from(output.index()).unwrap_or(i64::MAX)),
                    (
                        "dominators",
                        i64::try_from(dominators.len()).unwrap_or(i64::MAX),
                    ),
                ],
            );
            OutputAnalysis {
                distances,
                dominators,
            }
        })
    }
}

/// One circuit + one configuration + the shared base fixpoint: the entry
/// point of every timing check, whichever [`Engine`] answers it.
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
    prepared: PreparedCircuit<'c>,
    config: VerifyConfig,
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
    /// Opens a session: prepares the circuit per the config's learning
    /// mode. The implication table and the base fixpoint are computed
    /// lazily, on the first narrowing check.
    pub fn new(circuit: &'c Circuit, config: VerifyConfig) -> Self {
        let prepared = PreparedCircuit::new(circuit, config.learning);
        Self::with_prepared(prepared, config)
    }

    /// [`CheckSession::new`] with shared ownership of the circuit: the
    /// session carries its own reference count, so it can live in a
    /// long-lived registry (`CheckSession<'static>`) and be dropped freely.
    pub fn new_shared(circuit: Arc<Circuit>, config: VerifyConfig) -> CheckSession<'static> {
        let prepared = PreparedCircuit::new_shared(circuit, config.learning);
        CheckSession::with_prepared(prepared, config)
    }

    /// Opens a session around an existing [`PreparedCircuit`] (whose table,
    /// not `config.learning`, decides what learning applies). The config's
    /// observability handle is installed on the prepared circuit so its
    /// lazy one-time derivations show up in traces too.
    pub fn with_prepared(mut prepared: PreparedCircuit<'c>, config: VerifyConfig) -> Self {
        prepared.obs = config.obs.clone();
        let num_outputs = prepared.circuit().outputs().len();
        CheckSession {
            prepared,
            config,
            base: OnceLock::new(),
            cone_sessions: (0..num_outputs).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The shared per-circuit analyses.
    pub fn prepared(&self) -> &PreparedCircuit<'c> {
        &self.prepared
    }

    /// The session's pipeline configuration.
    pub fn config(&self) -> &VerifyConfig {
        &self.config
    }

    /// The circuit under check.
    pub fn circuit(&self) -> &Circuit {
        self.prepared.circuit()
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
    /// * SCOAP controllabilities/observabilities and the reconvergent-stem
    ///   candidate set — functions of connectivity only;
    /// * per output, when the output's fanin cone contains **no** dirty net
    ///   *and* no net whose base-fixpoint domain changed
    ///   ([`Self::base_divergence`] — backward narrowing through fringe
    ///   gates can push an out-of-cone delay change into cone-net
    ///   domains): the distance/dominator analysis, the cone analysis, and
    ///   the warmed cone sub-session, wholesale.
    ///
    /// Only what this session has computed so far transfers. A
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
        let mut prepared =
            PreparedCircuit::from_handle(CircuitHandle::Shared(circuit), self.prepared.learning);
        if !structural {
            prepared.table = self.prepared.table.clone();
            prepared.controllability = self.prepared.controllability.clone();
            prepared.observability = self.prepared.observability.clone();
            prepared.stem_mask = self.prepared.stem_mask.clone();
        }
        let session = CheckSession::with_prepared(prepared, self.config.clone());
        if structural {
            return session;
        }
        // Per-output transplants need the base divergence, which forces
        // both base fixpoints — work the new session's first narrowing
        // check pays anyway. Without a cached cone there is nothing to
        // transplant, so a session that never narrowed forces neither.
        let mut stale: Option<Vec<NetId>> = None;
        for pos in 0..self.prepared.cones.len() {
            let ca = match self.prepared.cones[pos].get() {
                None => continue,
                Some(None) => {
                    // "Cone covers the whole circuit" is a connectivity
                    // fact; it survives any delay-only edit.
                    let _ = session.prepared.cones[pos].set(None);
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
            let _ = session.prepared.cones[pos].set(Some(ca.clone()));
            if let Some(oa) = self.prepared.per_output[pos].get() {
                let _ = session.prepared.per_output[pos].set(oa.clone());
            }
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
        let circuit = self.prepared.circuit();
        let mut nw = Narrower::new(circuit);
        if let Some(table) = self.prepared.implication_table() {
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
            let _ = self.prepared.implication_table();
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
        let mut nw = Narrower::from_store(self.prepared.circuit(), self.base_store().clone());
        if let Some(table) = self.prepared.implication_table() {
            nw.set_implications(table.clone());
        }
        nw
    }

    /// Runs one check under an explicit pipeline config (the delay
    /// search's search-free fallback and budgeted checks pass their own;
    /// `config` must agree with the session on `delay_mode` and learning
    /// for the shared base to be sound) along `route`.
    fn run_check(
        &self,
        route: Route,
        output: NetId,
        delta: i64,
        config: &VerifyConfig,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
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
        run_pipeline(&mut nw, &self.prepared, output, delta, config, start, None)
    }

    /// The cone a check may run in, if any. Cone-scoped runs require:
    /// `output` is a primary output (the per-output caches exist for those
    /// only), the cone is a strict subset of the circuit, every assumption
    /// net lies inside it, and the whole-circuit base fixpoint is
    /// consistent — a contradiction on an out-of-cone net refutes *every*
    /// check, but a cone-sized store cannot see it, so such (degenerate)
    /// circuits run on the whole circuit.
    fn cone_target(
        &self,
        output: NetId,
        assumptions: &[(NetId, Level)],
    ) -> Option<(usize, &Arc<ConeAnalysis>)> {
        let pos = self.circuit().outputs().iter().position(|&o| o == output)?;
        let ca = self.prepared.cone(output)?;
        if !assumptions.iter().all(|&(n, _)| ca.view.contains_net(n)) {
            return None;
        }
        if self.base_store().has_contradiction() {
            return None;
        }
        Some((pos, ca))
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
        run_pipeline(
            &mut nw,
            &self.prepared,
            output,
            delta,
            config,
            start,
            Some(&scope),
        )
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
            let prepared = PreparedCircuit::from_handle(
                CircuitHandle::Shared(view.circuit().clone()),
                self.prepared.learning,
            );
            let _ = prepared.table.set(ca.table.clone());
            // The cone's stem mask was computed on this very sub-circuit.
            let _ = prepared.stem_mask.set(
                view.nets()
                    .iter()
                    .map(|old| ca.stem_candidates[old.index()])
                    .collect(),
            );
            let session = CheckSession::with_prepared(prepared, self.config.clone());
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

    /// Runs the timing check `(output, δ)` through the session's engine.
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
        self.verify_budgeted(output, delta, &Budget::unlimited())
    }

    /// [`CheckSession::verify`] under assumptions: each `(net, level)` pins
    /// a net's settling class before propagation (the `set_case_analysis`
    /// idiom: constant mode pins, unused inputs, scan enables).
    ///
    /// # Panics
    ///
    /// Panics if `assumptions` is not empty and the session's engine is
    /// not [`Engine::Narrow`]: the CNF encoder has no notion of pinned
    /// nets, and ignoring the pins could report a witness they rule out.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_core::{CheckSession, VerifyConfig};
    /// use ltt_netlist::generators::figure1;
    /// use ltt_waveform::Level;
    ///
    /// let c = figure1(10);
    /// let s = c.outputs()[0];
    /// let e5 = c.net_by_name("e5").unwrap();
    /// let session = CheckSession::new(&c, VerifyConfig::default());
    /// // Unconstrained, δ = 60 is violated…
    /// assert!(session.verify(s, 60).verdict.is_violation());
    /// // …but pinning e5 = 0 blocks the critical AND g4: no violation.
    /// let r = session.verify_under(s, 60, &[(e5, Level::Zero)]);
    /// assert!(r.verdict.is_no_violation());
    /// ```
    pub fn verify_under(
        &self,
        output: NetId,
        delta: i64,
        assumptions: &[(NetId, Level)],
    ) -> VerifyReport {
        self.check(
            self.config.engine,
            output,
            delta,
            assumptions,
            &Budget::unlimited(),
        )
    }

    /// [`CheckSession::verify`] under an extra [`Budget`] merged
    /// (tightest-wins) with the session config's own — how a batch runner
    /// applies a whole-batch deadline or a fail-fast cancel token to each
    /// check without cloning the session.
    pub fn verify_budgeted(&self, output: NetId, delta: i64, extra: &Budget) -> VerifyReport {
        self.check(self.config.engine, output, delta, &[], extra)
    }

    /// The narrowing pipeline's answer to one check, under `assumptions`
    /// and `extra` merged into the session's budget.
    pub(crate) fn narrow_check(
        &self,
        output: NetId,
        delta: i64,
        assumptions: &[(NetId, Level)],
        extra: &Budget,
    ) -> VerifyReport {
        if extra.is_unlimited() {
            return self.run_check(Route::Cone, output, delta, &self.config, assumptions);
        }
        let config = VerifyConfig {
            budget: self.config.budget.merged(extra),
            ..self.config.clone()
        };
        self.run_check(Route::Cone, output, delta, &config, assumptions)
    }

    /// Finds the exact floating-mode delay of `output` by binary search
    /// over δ in `[0, top + 1]`, sharing every per-circuit analysis (and the
    /// base fixpoint) across probes, with the session's engine.
    ///
    /// Each probe is a full [`CheckSession::verify`] run; `Violation` raises
    /// the lower bound, `NoViolation` lowers the upper bound, and
    /// `Abandoned`/`Possible` ends the bisection with `proven_exact =
    /// false` (see [`CheckSession::exact_delay_budgeted`]). The circuit's
    /// delay — the quantity Table 1 reports — is the maximum over
    /// [`BatchRunner::exact_delays`](crate::BatchRunner::exact_delays).
    pub fn exact_delay(&self, output: NetId) -> DelaySearch {
        self.exact_delay_budgeted(output, &Budget::unlimited())
    }

    /// [`CheckSession::exact_delay`] under an extra [`Budget`] merged with
    /// the session's own. A per-check `wall` window applies to each probe
    /// separately; an absolute `deadline` caps the whole search. When the
    /// budget (or the backtrack cap) cuts the bisection short the result
    /// degrades soundly instead of vanishing: `proven_exact` is `false`
    /// and `[delay, upper_bound]` is a certified interval containing the
    /// exact delay — `delay` from the best *simulated* violating vector
    /// (bisection witnesses, then Monte-Carlo), `upper_bound` from the
    /// tightest completed impossibility proof (at worst the topological
    /// bound). The SAT engine bisects with SAT probes only; the hybrid
    /// engine keeps bisecting an inexact narrowing interval with them.
    pub fn exact_delay_budgeted(&self, output: NetId, extra: &Budget) -> DelaySearch {
        self.search(self.config.engine, output, extra)
    }

    /// The narrowing bisection of [`CheckSession::exact_delay_budgeted`].
    pub(crate) fn narrow_search(&self, output: NetId, extra: &Budget) -> DelaySearch {
        self.delay_search(Route::Cone, output, extra)
    }

    /// The bisection behind [`CheckSession::exact_delay_budgeted`], with
    /// every probe run along `route`.
    fn delay_search(&self, route: Route, output: NetId, extra: &Budget) -> DelaySearch {
        let budget = self.config.budget.merged(extra);
        let config = if budget.is_unlimited() {
            self.config.clone()
        } else {
            VerifyConfig {
                budget: budget.clone(),
                ..self.config.clone()
            }
        };
        let top = self.prepared.arrival_times()[output.index()];
        let mut lo = 0i64; // delay ≥ 0 always (inputs settle at 0)
        let mut hi = top + 1; // check at top+1 must fail
        let mut vector = None;
        let mut probes = Vec::new();
        let mut decided = true;
        // Invariant: violation possible at lo, impossible at hi.
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            let report = self.run_check(route, output, mid, &config, &[]);
            let verdict = report.verdict.clone();
            probes.push(report);
            match verdict {
                crate::Verdict::Violation { vector: v } => {
                    vector = Some(v);
                    lo = mid;
                }
                crate::Verdict::NoViolation { .. } => {
                    hi = mid;
                }
                crate::Verdict::Possible | crate::Verdict::Abandoned => {
                    decided = false;
                    break;
                }
            }
        }
        if !decided {
            // Recover certified bounds around the undecided region.
            //
            // Upper bound: bisect (lo, hi) for the smallest δ that the
            // search-free pipeline (no case analysis) still proves
            // impossible. The same budget applies: once an absolute
            // deadline has passed every fallback probe trips immediately
            // and counts as "not proved", which only leaves the bound
            // looser — never wrong.
            let no_ca = VerifyConfig {
                case_analysis: false,
                ..config.clone()
            };
            let (mut plo, mut phi) = (lo, hi);
            while plo + 1 < phi {
                let mid = plo + (phi - plo) / 2;
                let report = self.run_check(route, output, mid, &no_ca, &[]);
                let proved = report.verdict.is_no_violation();
                probes.push(report);
                if proved {
                    phi = mid;
                } else {
                    plo = mid;
                }
            }
            hi = phi;
            // Lower bound: cheap Monte-Carlo simulation — any vector's
            // floating-mode delay is a certified lower bound. Capped by the
            // budget's wall clock (at least one sample always runs, so the
            // bound stays valid even on an expired deadline).
            let sampled = ltt_sta::sampled_floating_delay_until(
                self.prepared.circuit(),
                output,
                2_000,
                0x5EED,
                budget.absolute_deadline(Instant::now()),
            );
            if sampled.delay > lo {
                lo = sampled.delay;
                vector = Some(sampled.witness);
            }
        }
        DelaySearch {
            delay: lo,
            vector,
            proven_exact: decided,
            upper_bound: hi - 1,
            probes,
        }
    }

    /// Sweeps δ over `deltas` (must be strictly ascending) with one
    /// narrower seeded from the session base, recording per-δ consistency
    /// of narrowing plus (per the session config) dominator implications.
    /// The session's delay mode and learning constants apply; its engine
    /// does not (the profile is a narrowing measure on every engine).
    ///
    /// Because `violation(δ₂) ⊆ violation(δ₁)` for `δ₂ ≥ δ₁`, each step's
    /// constraint refines the previous fixpoint and the whole profile costs
    /// little more than the largest single check. There is no search, so
    /// `possible = false` is a proof and `possible = true` is the stages'
    /// residual pessimism. Once a δ is refuted every later δ is refuted too
    /// (monotonicity), so the sweep stops early and fills the tail.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` is not strictly ascending.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_core::{CheckSession, VerifyConfig};
    /// use ltt_netlist::generators::figure1;
    ///
    /// let c = figure1(10);
    /// let s = c.outputs()[0];
    /// let session = CheckSession::new(&c, VerifyConfig::default());
    /// let profile = session.delay_profile(s, &[40, 60, 61, 70]);
    /// assert!(profile[0].possible);  // δ = 40: yes (true delay is 60)
    /// assert!(profile[1].possible);  // δ = 60: yes
    /// assert!(!profile[2].possible); // δ = 61: refuted
    /// assert!(!profile[3].possible); // δ = 70: refuted (filled by monotonicity)
    /// ```
    pub fn delay_profile(&self, output: NetId, deltas: &[i64]) -> Vec<ProfilePoint> {
        assert!(
            deltas.windows(2).all(|w| w[0] < w[1]),
            "deltas must be strictly ascending"
        );
        self.profile_chunk(output, deltas)
    }

    /// One ascending-δ incremental sweep (no ordering pre-check; used for
    /// the chunks of a parallel profile, where each chunk is ascending).
    pub(crate) fn profile_chunk(&self, output: NetId, deltas: &[i64]) -> Vec<ProfilePoint> {
        let mut nw = self.narrower_at_base();
        let mut profile = Vec::with_capacity(deltas.len());
        let mut refuted = false;
        for &delta in deltas {
            if !refuted {
                nw.narrow_net(output, Signal::violation(Time::new(delta)));
                refuted = fixpoint_with_dominators(&mut nw, output, delta, self.config.dominators)
                    == FixpointResult::Contradiction;
            }
            profile.push(ProfilePoint {
                delta,
                possible: !refuted,
            });
        }
        profile
    }
}

/// Where a check runs. Every public check method takes [`Route::Cone`];
/// the other two are the references the cone path is tested against,
/// reachable only through the test-support methods below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
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
        self.delay_search(Route::Whole, output, &Budget::unlimited())
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
    fn prepared_and_session_are_sync() {
        assert_sync::<PreparedCircuit<'static>>();
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
        let prepared = PreparedCircuit::new(&c, LearningMode::Stems);
        // Pointer identity across calls: the lazy caches hand out the same
        // allocation every time.
        assert!(std::ptr::eq(
            prepared.controllability(),
            prepared.controllability()
        ));
        assert!(std::ptr::eq(
            prepared.stem_candidates().as_ptr(),
            prepared.stem_candidates().as_ptr()
        ));
        let s = c.outputs()[0];
        assert!(std::ptr::eq(
            prepared.distances_to(s).as_ptr(),
            prepared.distances_to(s).as_ptr()
        ));
    }

    #[test]
    fn static_dominators_cover_the_critical_chain() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let prepared = PreparedCircuit::new(&c, LearningMode::Off);
        let names: Vec<&str> = prepared
            .static_dominators(s)
            .iter()
            .map(|&n| c.net(n).name())
            .collect();
        // The unique 70-path is a chain: every net on it dominates.
        assert_eq!(names, vec!["s", "n7", "n6", "n4", "n3", "n2", "n1"]);
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

    #[test]
    fn session_profile_is_monotone() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let session = CheckSession::new(&c, VerifyConfig::default());
        let profile = session.delay_profile(s, &[40, 60, 61, 70]);
        let flags: Vec<bool> = profile.iter().map(|p| p.possible).collect();
        assert_eq!(flags, vec![true, true, false, false]);
    }
}
