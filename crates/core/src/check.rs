//! The timing-check pipeline (Fig. 4): constraint-system construction,
//! narrowing, global implications on timing dominators, stem correlation,
//! and case analysis — with per-stage verdicts matching the columns of the
//! paper's Table 1.
//!
//! This module holds the pipeline and its configuration and report types;
//! checks are run through a [`CheckSession`](crate::CheckSession), the one
//! entry point (fan out with a [`BatchRunner`](crate::BatchRunner)). The
//! session prepares the per-circuit analyses once and runs every check of
//! an output on that output's fanin cone.

use crate::budget::{Budget, TripReason};
use crate::carriers::fixpoint_with_dominators;
use crate::cdcl::CdclStats;
use crate::failpoint;
use crate::fan::{CaseConfig, CaseOutcome, CaseStats};
use crate::obs::{Obs, SpanStart};
use crate::prepared::CheckSession;
use crate::solver::{FixpointResult, Narrower, SolverStats};
use crate::stems::{correlation_stems_masked, stem_correlation, StemStats};
use ltt_netlist::NetId;
use ltt_waveform::{Signal, Time};
use std::ops::{Index, IndexMut};
use std::time::{Duration, Instant};

/// Circuit delay mode: which abstract waveforms are applied to the primary
/// inputs (§1: the framework adapts to delay modes "by a simple change in
/// the abstract waveforms applied to the inputs").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DelayMode {
    /// Floating mode: unknown initial state, vector applied at time 0 —
    /// inputs get `(0|_{−∞}^0, 1|_{−∞}^0)`.
    #[default]
    Floating,
    /// Two-vector transition mode with every input switching at time 0 —
    /// inputs get `(0|_0^0, 1|_0^0)`.
    Transition,
}

/// Static-learning scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LearningMode {
    /// No learning pre-process.
    Off,
    /// Learn from reconvergent fanout stems only (cheap, the default).
    #[default]
    Stems,
}

/// Which verification backend answers a check.
///
/// [`CheckSession`](crate::CheckSession) dispatches every check and delay
/// search on it; a [`BatchRunner`](crate::BatchRunner) may override it per
/// batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Waveform narrowing + FAN case analysis (the paper's method).
    #[default]
    Narrow,
    /// CNF unrolling of the floating-mode semantics, solved by CDCL
    /// ([`sat`](crate::sat)).
    Sat,
    /// Narrowing first; on [`Completeness::BudgetExhausted`] fall back to
    /// SAT to decide the check or tighten the delay interval.
    Hybrid,
}

impl Engine {
    /// Stable lowercase name (CLI flag value / wire `opts.engine`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Narrow => "narrow",
            Engine::Sat => "sat",
            Engine::Hybrid => "hybrid",
        }
    }

    /// Parses a CLI/wire engine name.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "narrow" => Some(Engine::Narrow),
            "sat" => Some(Engine::Sat),
            "hybrid" => Some(Engine::Hybrid),
            _ => None,
        }
    }
}

/// Pipeline configuration. The defaults enable everything, matching the
/// paper's full method.
#[derive(Clone, Debug)]
pub struct VerifyConfig {
    /// Input waveform mode. In floating mode every violating vector the
    /// case analysis reports is certified with the exact floating-mode
    /// simulator.
    pub delay_mode: DelayMode,
    /// Static-learning scope.
    pub learning: LearningMode,
    /// Apply global implications on timing dominators (G.I.T.D., §4).
    pub dominators: bool,
    /// Apply stem correlation before case analysis (§5).
    pub stem_correlation: bool,
    /// Run the case analysis when narrowing is inconclusive (§5).
    pub case_analysis: bool,
    /// Backtrack budget for the case analysis.
    pub max_backtracks: u64,
    /// Resource budget (wall-clock, events, cancellation) for each check.
    /// When it trips the check returns early with
    /// [`Completeness::BudgetExhausted`] instead of hanging; the default is
    /// unlimited.
    pub budget: Budget,
    /// Which backend answers the session's checks.
    pub engine: Engine,
    /// Observability sink. The default is disabled (a no-op handle);
    /// attach a recorder with [`Obs::recording`] to capture per-stage
    /// spans. Recording never changes what the pipeline computes:
    /// instrumented runs produce reports bit-identical to uninstrumented
    /// ones (timing fields exempt).
    pub obs: Obs,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            delay_mode: DelayMode::Floating,
            learning: LearningMode::Stems,
            dominators: true,
            stem_correlation: true,
            case_analysis: true,
            max_backtracks: 100_000,
            budget: Budget::unlimited(),
            engine: Engine::Narrow,
            obs: Obs::disabled(),
        }
    }
}

/// Which stage settled the check, in pipeline order (`Ord`): the four
/// Fig. 4 stages, then the SAT backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Basic waveform narrowing (plus learning, if enabled).
    Narrowing,
    /// Global implications on timing dominators.
    Dominators,
    /// Stem correlation.
    StemCorrelation,
    /// Case analysis.
    CaseAnalysis,
    /// The CNF/CDCL backend ([`Engine::Sat`], or a [`Engine::Hybrid`]
    /// fallback).
    Sat,
}

impl Stage {
    /// Stable lowercase name (the wire's `stage` and `tripped_stage`).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Narrowing => "narrowing",
            Stage::Dominators => "dominators",
            Stage::StemCorrelation => "stem_correlation",
            Stage::CaseAnalysis => "case_analysis",
            Stage::Sat => "sat",
        }
    }
}

/// One value per pipeline stage, indexable by [`Stage`]: the record a
/// check keeps of each stage it ran ([`StageTimes`], [`StageEffort`]),
/// and its saturating sum over a batch.
///
/// # Panics
///
/// Indexing with [`Stage::Sat`] panics: the SAT backend is not a
/// pipeline stage and has no slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerStage<T> {
    /// Basic waveform narrowing (stage 1).
    pub narrowing: T,
    /// Global implications on timing dominators (stage 2).
    pub dominators: T,
    /// Stem correlation (stage 3).
    pub stems: T,
    /// Case analysis (stage 4).
    pub case_analysis: T,
}

/// A per-stage value that sums without panicking.
pub trait StageValue: Copy {
    /// The saturating sum of two values.
    fn saturating_sum(&self, other: &Self) -> Self;
}

impl StageValue for Duration {
    fn saturating_sum(&self, other: &Self) -> Self {
        self.saturating_add(*other)
    }
}

impl StageValue for SolverStats {
    fn saturating_sum(&self, other: &Self) -> Self {
        self.saturating_add(other)
    }
}

impl<T: StageValue> PerStage<T> {
    /// Per-stage saturating sum (aggregation must never panic).
    pub fn saturating_add(&self, other: &PerStage<T>) -> PerStage<T> {
        PerStage {
            narrowing: self.narrowing.saturating_sum(&other.narrowing),
            dominators: self.dominators.saturating_sum(&other.dominators),
            stems: self.stems.saturating_sum(&other.stems),
            case_analysis: self.case_analysis.saturating_sum(&other.case_analysis),
        }
    }

    /// Total across the four stages (saturating).
    pub fn total(&self) -> T {
        self.narrowing
            .saturating_sum(&self.dominators)
            .saturating_sum(&self.stems)
            .saturating_sum(&self.case_analysis)
    }
}

impl<T> Index<Stage> for PerStage<T> {
    type Output = T;

    fn index(&self, stage: Stage) -> &T {
        match stage {
            Stage::Narrowing => &self.narrowing,
            Stage::Dominators => &self.dominators,
            Stage::StemCorrelation => &self.stems,
            Stage::CaseAnalysis => &self.case_analysis,
            Stage::Sat => panic!("the SAT backend is not a pipeline stage"),
        }
    }
}

impl<T> IndexMut<Stage> for PerStage<T> {
    fn index_mut(&mut self, stage: Stage) -> &mut T {
        match stage {
            Stage::Narrowing => &mut self.narrowing,
            Stage::Dominators => &mut self.dominators,
            Stage::StemCorrelation => &mut self.stems,
            Stage::CaseAnalysis => &mut self.case_analysis,
            Stage::Sat => panic!("the SAT backend is not a pipeline stage"),
        }
    }
}

/// Wall-clock spent in each pipeline stage, per check — or, summed with
/// [`PerStage::saturating_add`], per batch (CPU-time-like under
/// parallelism: the sum over concurrent checks exceeds the batch
/// wall-clock).
pub type StageTimes = PerStage<Duration>;

/// Deterministic solver-effort counters attributed to each pipeline
/// stage: the [`SolverStats`] increments accumulated while that stage
/// ran. Unlike [`StageTimes`] these are exact integer deltas, so they are
/// identical across runs, thread counts, and machines — the per-stage
/// breakdown the paper's Table 1 analysis attributes runtime with.
pub type StageEffort = PerStage<SolverStats>;

/// Final verdict of the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No violation is possible; `stage` says which stage proved it.
    NoViolation {
        /// The stage that proved the check safe.
        stage: Stage,
    },
    /// A violating test vector was found (`V` in Table 1).
    Violation {
        /// The primary-input vector, in declaration order.
        vector: Vec<bool>,
    },
    /// Inconclusive: narrowing kept the system consistent and case
    /// analysis was disabled.
    Possible,
    /// A resource budget or the backtrack cap cut the check short (`A` in
    /// Table 1); the report's [`Completeness::BudgetExhausted`] names the
    /// stage and the limit.
    Abandoned,
}

impl Verdict {
    /// Whether the verdict proves the check safe.
    pub fn is_no_violation(&self) -> bool {
        matches!(self, Verdict::NoViolation { .. })
    }

    /// Whether a concrete violation was found.
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violation { .. })
    }
}

/// Whether a check's verdict reflects the full pipeline or a truncated run.
///
/// A budget trip never changes *what* a verdict claims — an interrupted
/// fixpoint leaves domains as a superset of the greatest fixpoint (so no
/// false contradiction is possible), and an interrupted search aborts
/// instead of backtracking — it only makes the verdict *less conclusive*.
/// `BudgetExhausted` and [`Verdict::Abandoned`] therefore always come
/// together, the backtrack cap counting as a limit like any other:
/// `NoViolation` and `Violation` verdicts are exact by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completeness {
    /// Every enabled stage ran to completion; the verdict is as strong as
    /// the configured pipeline can make it.
    Exact,
    /// A resource budget tripped mid-run.
    BudgetExhausted {
        /// The stage that was interrupted (or hit its cap).
        stage: Stage,
        /// Which limit tripped.
        reason: TripReason,
    },
}

impl Completeness {
    /// Whether the configured pipeline ran to completion.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }
}

/// Full report of one timing check, mirroring a Table 1 row.
///
/// Each engine fills only its own counters: the narrowing pipeline writes
/// `stems`, `case`, `stage_times` and `effort`; the CNF/CDCL backend
/// writes `sat`. A hybrid check that SAT upgraded carries both (the
/// narrowing run's counters and the SAT run's). The Table 1 stage columns
/// follow from `verdict` and `completeness`.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The checked output net.
    pub output: NetId,
    /// The checked delay bound δ.
    pub delta: i64,
    /// Final verdict.
    pub verdict: Verdict,
    /// Whether the verdict is exact or budget-truncated.
    pub completeness: Completeness,
    /// Stem-correlation counters.
    pub stems: StemStats,
    /// Case-analysis counters.
    pub case: CaseStats,
    /// CDCL counters of the SAT run (default when SAT did not run).
    pub sat: CdclStats,
    /// Wall-clock per pipeline stage.
    pub stage_times: StageTimes,
    /// Deterministic solver effort per pipeline stage.
    pub effort: StageEffort,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
}

impl VerifyReport {
    /// A report with no stage run yet: verdict `Possible`, every counter
    /// zero.
    pub(crate) fn open(output: NetId, delta: i64) -> VerifyReport {
        VerifyReport {
            output,
            delta,
            verdict: Verdict::Possible,
            completeness: Completeness::Exact,
            stems: StemStats::default(),
            case: CaseStats::default(),
            sat: CdclStats::default(),
            stage_times: StageTimes::default(),
            effort: StageEffort::default(),
            elapsed: Duration::ZERO,
        }
    }

    /// The search effort of the check (Table 1's backtrack column, the
    /// wire's `backtracks`): case-analysis backtracks plus CDCL conflicts.
    pub fn backtracks(&self) -> u64 {
        self.case.backtracks.saturating_add(self.sat.conflicts)
    }
}

/// Clamps a `u64` counter into the `i64` range of a span argument.
fn counter_arg(value: u64) -> i64 {
    i64::try_from(value).unwrap_or(i64::MAX)
}

/// The cone restriction of a masked pipeline run: cone-local stem
/// candidates for stage 3 and the case-analysis scope for stage 4 (stages
/// 1 and 2 are restricted by the narrower's own
/// [`NarrowScope`](crate::solver::NarrowScope)).
pub(crate) struct PipelineScope<'a> {
    /// Reconvergent-stem candidate mask computed on the *sub-circuit*,
    /// mapped back to whole-circuit net ids.
    pub stem_candidates: &'a [bool],
    /// Decision restriction for the case analysis.
    pub case: &'a crate::fan::CaseScope,
}

/// How one stage left the check.
enum StageEnd {
    /// The system is still consistent: the next stage runs.
    Open,
    /// The stage proved the check safe.
    Refuted,
    /// Case analysis found a certified violating vector.
    Vector(Vec<bool>),
    /// The stage was cut short: by the budget when it tripped, otherwise
    /// for the given reason.
    Cut(TripReason),
}

impl From<FixpointResult> for StageEnd {
    fn from(result: FixpointResult) -> Self {
        match result {
            FixpointResult::Fixpoint => StageEnd::Open,
            FixpointResult::Contradiction => StageEnd::Refuted,
            FixpointResult::Interrupted => StageEnd::Cut(TripReason::Deadline),
        }
    }
}

impl From<CaseOutcome> for StageEnd {
    fn from(outcome: CaseOutcome) -> Self {
        match outcome {
            CaseOutcome::Vector(vector) => StageEnd::Vector(vector),
            CaseOutcome::NoViolation => StageEnd::Refuted,
            // The backtrack cap and budget trips land here alike;
            // `Pipeline::step` names the budget's limit when one tripped.
            CaseOutcome::Abandoned => StageEnd::Cut(TripReason::Backtracks),
        }
    }
}

/// The record one check's stages write: the report they fill, the span
/// sink, and the output's name (the failpoint context).
struct StageLog<'p> {
    report: &'p mut VerifyReport,
    obs: &'p Obs,
    output_name: &'p str,
}

impl StageLog<'_> {
    /// Runs one stage: hits its failpoint, times it, records its effort
    /// and span, and settles the verdict when the stage decided the check.
    /// `body` returns how the stage ended and the solver effort it spent.
    /// Returns whether the stage settled the check.
    fn step(
        &mut self,
        stage: Stage,
        body: impl FnOnce(&mut VerifyReport) -> (StageEnd, SolverStats),
    ) -> bool {
        let (site, span_name) = match stage {
            Stage::Narrowing => ("check::narrowing", "check.narrowing"),
            Stage::Dominators => ("check::dominators", "check.dominators"),
            Stage::StemCorrelation => ("check::stems", "check.stems"),
            Stage::CaseAnalysis => ("check::case-analysis", "check.case_analysis"),
            Stage::Sat => unreachable!("the SAT backend is not a pipeline stage"),
        };
        failpoint::hit(site, self.output_name);
        let span = self.obs.start();
        let clock = Instant::now();
        let (end, effort) = body(self.report);
        self.report.stage_times[stage] = clock.elapsed();
        self.report.effort[stage] = effort;
        self.record_span(stage, span_name, span);
        let report = &mut *self.report;
        match end {
            StageEnd::Open => return false,
            StageEnd::Refuted => report.verdict = Verdict::NoViolation { stage },
            StageEnd::Vector(vector) => report.verdict = Verdict::Violation { vector },
            // A trip leaves the verdict `Abandoned` (sound — the domains
            // are a superset of the fixpoint, so nothing was proven); the
            // completeness marker records where and why.
            StageEnd::Cut(reason) => {
                report.verdict = Verdict::Abandoned;
                report.completeness = Completeness::BudgetExhausted { stage, reason };
            }
        }
        true
    }

    /// Closes a stage's span: the output, δ, and the stage's counters.
    fn record_span(&self, stage: Stage, name: &'static str, span: SpanStart) {
        if !self.obs.is_enabled() {
            return;
        }
        let r = &*self.report;
        let effort = &r.effort[stage];
        let counters: &[(&'static str, u64)] = match stage {
            Stage::StemCorrelation => &[
                ("events", effort.events),
                ("stems", r.stems.stems),
                ("effective", r.stems.effective_stems),
                ("dead_branches", r.stems.dead_branches),
            ],
            Stage::CaseAnalysis => &[
                ("events", effort.events),
                ("decisions", r.case.decisions),
                ("backtracks", r.case.backtracks),
                ("decisions_dominator_cones", r.case.decisions_by_phase[0]),
                ("decisions_whole_circuit", r.case.decisions_by_phase[1]),
                ("decisions_backtrace", r.case.decisions_by_phase[2]),
            ],
            _ => &[
                ("events", effort.events),
                ("narrowings", effort.narrowings),
                ("learned", effort.learned_applications),
            ],
        };
        let mut args = [("", 0); 8];
        args[0] = ("output", counter_arg(r.output.index() as u64));
        args[1] = ("delta", r.delta);
        for (slot, &(key, value)) in args[2..].iter_mut().zip(counters) {
            *slot = (key, counter_arg(value));
        }
        self.obs
            .span(name, "stage", span, &args[..2 + counters.len()]);
    }
}

/// One check on its way through the stages: the narrower the stages
/// share and the record they write.
struct Pipeline<'p, 'c> {
    nw: &'p mut Narrower<'c>,
    log: StageLog<'p>,
}

impl<'c> Pipeline<'_, 'c> {
    /// [`StageLog::step`] with the narrower: the stage's effort is the
    /// narrower's counter delta, and a cut names the tripped budget limit
    /// when there is one.
    fn step(
        &mut self,
        stage: Stage,
        body: impl FnOnce(&mut Narrower<'c>, &mut VerifyReport) -> StageEnd,
    ) -> bool {
        let nw = &mut *self.nw;
        self.log.step(stage, |report| {
            let before = nw.stats();
            let end = match body(nw, report) {
                StageEnd::Cut(reason) => StageEnd::Cut(nw.budget_tripped().unwrap_or(reason)),
                end => end,
            };
            (end, nw.stats().since(&before))
        })
    }
}

/// Runs the staged pipeline on a narrower that already carries the input
/// (and assumption) constraints; applies the δ constraint itself. Shared
/// analyses (stem candidates, SCOAP controllabilities) come from
/// `session`; `config` is the check's own (the session's, or one with a
/// merged budget or without case analysis). `scope` masks stages 3–4 to
/// a fanin cone (the narrower's own scope masks stages 1–2).
pub(crate) fn run_pipeline(
    nw: &mut Narrower,
    session: &CheckSession,
    output: NetId,
    delta: i64,
    config: &VerifyConfig,
    start: Instant,
    scope: Option<&PipelineScope<'_>>,
) -> VerifyReport {
    // Arm the budget first: the per-check wall window covers everything
    // below, including the δ-constraint propagation.
    nw.set_budget(&config.budget);
    let output_name = nw.circuit().net(output).name();
    nw.narrow_net(output, Signal::violation(Time::new(delta)));

    let mut report = VerifyReport::open(output, delta);
    let mut p = Pipeline {
        nw,
        log: StageLog {
            report: &mut report,
            obs: &config.obs,
            output_name,
        },
    };
    // Each stage runs only if it is enabled and no earlier one settled
    // the check; with case analysis off an open check stays `Possible`.
    let settled = p.step(Stage::Narrowing, |nw, _| nw.reach_fixpoint().into())
        || (config.dominators
            && p.step(Stage::Dominators, |nw, _| {
                fixpoint_with_dominators(nw, output, delta, true).into()
            }))
        || (config.stem_correlation
            && p.step(Stage::StemCorrelation, |nw, report| {
                let candidates = match scope {
                    Some(scope) => scope.stem_candidates,
                    None => session.stem_candidates(),
                };
                let stems = correlation_stems_masked(nw, output, delta, candidates);
                let dominators = config.dominators;
                stem_correlation(nw, output, delta, &stems, dominators, &mut report.stems).into()
            }))
        || (config.case_analysis
            && p.step(Stage::CaseAnalysis, |nw, report| {
                let case_cfg = CaseConfig {
                    max_backtracks: config.max_backtracks,
                    use_dominators: config.dominators,
                    certify_vectors: config.delay_mode == DelayMode::Floating,
                };
                crate::fan::case_analysis_scoped(
                    nw,
                    output,
                    delta,
                    &case_cfg,
                    &mut report.case,
                    session.controllability(),
                    scope.map(|s| s.case),
                )
                .into()
            }));
    debug_assert!(settled || report.verdict == Verdict::Possible);
    report.elapsed = start.elapsed();
    report
}

/// The report of a check its session's base fixpoint already refutes
/// (DESIGN.md §8): stage 1 settles it with zero effort and no narrower,
/// through the same step — failpoint, stage clock and span — as a
/// pipeline run that contradicts on entry.
pub(crate) fn refuted_at_base(
    output: NetId,
    output_name: &str,
    delta: i64,
    config: &VerifyConfig,
) -> VerifyReport {
    let start = Instant::now();
    let mut report = VerifyReport::open(output, delta);
    StageLog {
        report: &mut report,
        obs: &config.obs,
        output_name,
    }
    .step(Stage::Narrowing, |_| {
        (StageEnd::Refuted, SolverStats::default())
    });
    report.elapsed = start.elapsed();
    report
}

/// Result of an exact-delay search on one output.
#[derive(Clone, Debug)]
pub struct DelaySearch {
    /// Largest δ for which a violation was demonstrated (the exact
    /// floating-mode delay when `proven_exact`).
    pub delay: i64,
    /// A vector achieving `delay`.
    pub vector: Option<Vec<bool>>,
    /// Whether `delay + 1` was *proven* impossible (otherwise `delay` is a
    /// lower bound and `upper_bound` the best upper bound).
    pub proven_exact: bool,
    /// Best proven upper bound (δ values above it are impossible).
    pub upper_bound: i64,
    /// Reports of every probe, in probe order.
    pub probes: Vec<VerifyReport>,
}

impl DelaySearch {
    /// [`VerifyReport::backtracks`] summed (saturating) over every probe.
    pub fn backtracks(&self) -> u64 {
        self.probes
            .iter()
            .fold(0, |sum, p| sum.saturating_add(p.backtracks()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckSession;
    use ltt_netlist::generators::{carry_skip_adder, cascade, false_path_chain, figure1};
    use ltt_netlist::suite::c17;
    use ltt_netlist::GateKind;

    #[test]
    fn figure1_pipeline_brackets_exact_delay() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let session = CheckSession::new(&c, VerifyConfig::default());
        let r61 = session.verify(s, 61);
        assert!(r61.verdict.is_no_violation());
        // Narrowing alone suffices at 61 (Example 2).
        assert_eq!(
            r61.verdict,
            Verdict::NoViolation {
                stage: Stage::Narrowing
            }
        );
        let r60 = session.verify(s, 60);
        match &r60.verdict {
            Verdict::Violation { vector } => {
                assert!(ltt_sta::vector_violates(&c, vector, s, 60));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn exact_delay_search_on_figure1() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let search = CheckSession::new(&c, VerifyConfig::default()).exact_delay(s);
        assert_eq!(search.delay, 60);
        assert!(search.proven_exact);
        assert_eq!(search.upper_bound, 60);
        let v = search.vector.expect("vector found");
        assert!(ltt_sta::vector_violates(&c, &v, s, 60));
    }

    #[test]
    fn exact_delay_matches_oracle_on_small_circuits() {
        for c in [
            cascade(GateKind::And, 5, 10),
            cascade(GateKind::Or, 3, 10),
            false_path_chain(4, 3, 10),
            false_path_chain(5, 2, 10),
            carry_skip_adder(4, 2, 10),
        ] {
            let session = CheckSession::new(&c, VerifyConfig::default());
            for &s in c.outputs() {
                let oracle = ltt_sta::exhaustive_floating_delay(&c, s).expect("small");
                let search = session.exact_delay(s);
                assert!(search.proven_exact, "{} {:?}", c.name(), s);
                assert_eq!(
                    search.delay,
                    oracle.delay,
                    "{} output {}",
                    c.name(),
                    c.net(s).name()
                );
            }
        }
    }

    #[test]
    fn c17_exact_delay_is_topological() {
        let c = c17(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        for &s in c.outputs() {
            let search = session.exact_delay(s);
            assert!(search.proven_exact);
            assert_eq!(search.delay, c.arrival_times()[s.index()]);
        }
    }

    /// The basic method of [Cerny–Zejda 1994]: plain waveform narrowing,
    /// no global implications, no search — the paper's "BEFORE G.I.T.D."
    /// baseline.
    #[test]
    fn basic_narrowing_config_is_sound_but_weaker() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let config = VerifyConfig {
            learning: LearningMode::Off,
            dominators: false,
            stem_correlation: false,
            case_analysis: false,
            ..Default::default()
        };
        let basic = CheckSession::new(&c, config);
        // Sound: it never claims a violation it cannot certify, and at
        // δ = 71 (past topological) even basic narrowing proves safety.
        assert!(basic.verify(s, 71).verdict.is_no_violation());
        // At δ = 61 basic narrowing also succeeds on this small example.
        assert!(basic.verify(s, 61).verdict.is_no_violation());
        // At δ = 60 it must stay inconclusive (case analysis disabled).
        assert_eq!(basic.verify(s, 60).verdict, Verdict::Possible);
    }

    #[test]
    fn transition_mode_runs() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let config = VerifyConfig {
            delay_mode: DelayMode::Transition,
            case_analysis: false,
            ..Default::default()
        };
        // With all inputs switching exactly at 0 the same settle bounds
        // apply; δ past topological is impossible.
        let r = CheckSession::new(&c, config).verify(s, 71);
        assert!(r.verdict.is_no_violation());
    }

    #[test]
    fn batch_over_every_output_covers_each() {
        let c = c17(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let runner = crate::BatchRunner::serial();
        let at = |delta| c.outputs().iter().map(|&o| (o, delta)).collect::<Vec<_>>();
        let reports = runner.run(&session, &at(31)).reports;
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.verdict.is_no_violation()));
        let reports = runner.run(&session, &at(30)).reports;
        assert!(reports.iter().any(|r| r.verdict.is_violation()));
    }

    #[test]
    fn learning_modes_agree_on_verdicts() {
        let c = false_path_chain(4, 3, 10);
        let s = c.outputs()[0];
        let sessions: Vec<CheckSession<'_>> = [LearningMode::Off, LearningMode::Stems]
            .into_iter()
            .map(|learning| {
                let config = VerifyConfig {
                    learning,
                    ..Default::default()
                };
                CheckSession::new(&c, config)
            })
            .collect();
        for delta in [55, 60, 61, 65, 71] {
            let verdicts: Vec<bool> = sessions
                .iter()
                .map(|session| session.verify(s, delta).verdict.is_no_violation())
                .collect();
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "δ = {delta}: {verdicts:?}"
            );
        }
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in [Engine::Narrow, Engine::Sat, Engine::Hybrid] {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
        }
        assert_eq!(Engine::parse("cnf"), None);
        assert_eq!(Engine::parse("narrowing"), None);
    }

    #[test]
    fn report_carries_stage_columns() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let r = CheckSession::new(&c, VerifyConfig::default()).verify(s, 60);
        // No stage before case analysis proved the check: it reached
        // case analysis, which found the vector.
        assert!(r.verdict.is_violation());
        assert_eq!(r.backtracks(), r.case.backtracks);
        // Narrowing never writes the SAT counters.
        assert_eq!(r.sat, CdclStats::default());
        assert!(r.elapsed.as_nanos() > 0);
        // The stage clocks partition a subset of the check's wall-clock.
        assert!(r.stage_times.total() <= r.elapsed);
        // All four stages ran on this check.
        assert!(r.stage_times.case_analysis.as_nanos() > 0);
    }
}

#[cfg(test)]
mod circuit_delay_tests {
    use super::*;
    use crate::{BatchRunner, CheckSession};
    use ltt_netlist::generators::{carry_skip_adder, figure1};
    use ltt_netlist::Circuit;

    /// The exact floating-mode delay of the whole circuit (the quantity
    /// Table 1 reports): the maximum per-output exact delay, and whether
    /// every per-output search was proven exact.
    fn circuit_delay(c: &Circuit) -> (i64, bool, Vec<DelaySearch>) {
        let session = CheckSession::new(c, VerifyConfig::default());
        let searches: Vec<DelaySearch> = BatchRunner::serial()
            .exact_delays(&session, c.outputs())
            .into_iter()
            .map(|s| s.expect("search ran"))
            .collect();
        let delay = searches.iter().map(|s| s.delay).max().unwrap_or(0);
        let proven = searches.iter().all(|s| s.proven_exact);
        (delay, proven, searches)
    }

    #[test]
    fn figure1_circuit_delay_is_60() {
        let (delay, proven, per_output) = circuit_delay(&figure1(10));
        assert_eq!(delay, 60);
        assert!(proven);
        assert_eq!(per_output.len(), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
    fn carry_skip_circuit_delay_covers_all_outputs() {
        let c = carry_skip_adder(8, 4, 10);
        let (delay, proven, per_output) = circuit_delay(&c);
        assert!(proven);
        assert_eq!(per_output.len(), c.outputs().len());
        // The circuit delay dominates every per-output delay.
        assert!(per_output.iter().all(|s| s.delay <= delay));
        // And it matches the exhaustive oracle's circuit delay.
        let oracle = ltt_sta::exhaustive_circuit_delay(&c).unwrap();
        assert_eq!(delay, oracle.delay);
    }
}
