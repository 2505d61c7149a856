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
use crate::failpoint;
use crate::fan::{CaseConfig, CaseOutcome, CaseStats};
use crate::obs::Obs;
use crate::prepared::PreparedCircuit;
use crate::solver::{FixpointResult, Narrower, SolverStats};
use crate::stems::{correlation_stems_masked, stem_correlation, StemStats};
use ltt_netlist::NetId;
use ltt_waveform::{Signal, Time};
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
    /// Learn from every net (quadratic; small circuits only).
    All,
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
            "narrow" | "narrowing" => Some(Engine::Narrow),
            "sat" | "cnf" => Some(Engine::Sat),
            "hybrid" => Some(Engine::Hybrid),
            _ => None,
        }
    }
}

/// Pipeline configuration. The defaults enable everything, matching the
/// paper's full method.
#[derive(Clone, Debug)]
pub struct VerifyConfig {
    /// Input waveform mode.
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
    /// Certify reported vectors with the exact floating-mode simulator.
    pub certify_vectors: bool,
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
            certify_vectors: true,
            budget: Budget::unlimited(),
            engine: Engine::Narrow,
            obs: Obs::disabled(),
        }
    }
}

impl VerifyConfig {
    /// The basic method of [Cerny–Zejda 1994]: plain waveform narrowing,
    /// no global implications, no search — the paper's "BEFORE G.I.T.D."
    /// baseline.
    pub fn narrowing_only() -> Self {
        VerifyConfig {
            learning: LearningMode::Off,
            dominators: false,
            stem_correlation: false,
            case_analysis: false,
            ..Default::default()
        }
    }
}

/// Verdict of one stage (`P` / `N` in Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageVerdict {
    /// `P`: a violation is still possible after this stage.
    Possible,
    /// `N`: no violation of the timing check is possible.
    NoViolation,
}

/// Which stage settled the check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// Wall-clock spent in each pipeline stage, per check — or, summed with
/// [`StageTimes::saturating_add`], per batch (CPU-time-like under
/// parallelism: the sum over concurrent checks exceeds the batch
/// wall-clock).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Basic waveform narrowing (stage 1).
    pub narrowing: Duration,
    /// Global implications on timing dominators (stage 2).
    pub dominators: Duration,
    /// Stem correlation (stage 3).
    pub stems: Duration,
    /// Case analysis (stage 4).
    pub case_analysis: Duration,
}

impl StageTimes {
    /// Per-stage saturating sum (aggregation must never panic).
    pub fn saturating_add(&self, other: &StageTimes) -> StageTimes {
        StageTimes {
            narrowing: self.narrowing.saturating_add(other.narrowing),
            dominators: self.dominators.saturating_add(other.dominators),
            stems: self.stems.saturating_add(other.stems),
            case_analysis: self.case_analysis.saturating_add(other.case_analysis),
        }
    }

    /// Total time across the four stages (saturating).
    pub fn total(&self) -> Duration {
        self.narrowing
            .saturating_add(self.dominators)
            .saturating_add(self.stems)
            .saturating_add(self.case_analysis)
    }
}

/// Deterministic solver-effort counters attributed to each pipeline
/// stage: the [`SolverStats`] increments accumulated while that stage
/// ran. Unlike [`StageTimes`] these are exact integer deltas, so they are
/// identical across runs, thread counts, and machines — the per-stage
/// breakdown the paper's Table 1 analysis attributes runtime with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageEffort {
    /// Basic waveform narrowing (stage 1).
    pub narrowing: SolverStats,
    /// Global implications on timing dominators (stage 2).
    pub dominators: SolverStats,
    /// Stem correlation (stage 3).
    pub stems: SolverStats,
    /// Case analysis (stage 4).
    pub case_analysis: SolverStats,
}

impl StageEffort {
    /// Per-stage saturating sum (aggregation must never panic).
    pub fn saturating_add(&self, other: &StageEffort) -> StageEffort {
        StageEffort {
            narrowing: self.narrowing.saturating_add(&other.narrowing),
            dominators: self.dominators.saturating_add(&other.dominators),
            stems: self.stems.saturating_add(&other.stems),
            case_analysis: self.case_analysis.saturating_add(&other.case_analysis),
        }
    }

    /// Total effort across the four stages (saturating).
    pub fn total(&self) -> SolverStats {
        self.narrowing
            .saturating_add(&self.dominators)
            .saturating_add(&self.stems)
            .saturating_add(&self.case_analysis)
    }
}

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
    /// Case analysis exceeded its backtrack budget (`A` in Table 1).
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
/// `BudgetExhausted` therefore always pairs with [`Verdict::Abandoned`]:
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
    /// Stage verdict before global implications (Table 1 col. 4).
    pub before_gitd: StageVerdict,
    /// Stage verdict after global implications (col. 5; `None` if the
    /// stage did not run).
    pub after_gitd: Option<StageVerdict>,
    /// Stage verdict after stem correlation (col. 6).
    pub after_stems: Option<StageVerdict>,
    /// Backtracks spent in case analysis (col. 7).
    pub backtracks: u64,
    /// Solver effort counters.
    pub solver: SolverStats,
    /// Stem-correlation counters.
    pub stems: StemStats,
    /// Case-analysis counters.
    pub case: CaseStats,
    /// Wall-clock per pipeline stage.
    pub stage_times: StageTimes,
    /// Deterministic solver effort per pipeline stage.
    pub effort: StageEffort,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
}

/// Clamps a `u64` counter into the `i64` range of a span argument.
fn counter_arg(value: u64) -> i64 {
    i64::try_from(value).unwrap_or(i64::MAX)
}

/// A net identifier as a span argument.
fn net_arg(net: NetId) -> i64 {
    i64::try_from(net.index()).unwrap_or(i64::MAX)
}

/// The common span arguments of a solver-driven pipeline stage.
fn stage_span_args(output: NetId, delta: i64, effort: &SolverStats) -> [(&'static str, i64); 5] {
    [
        ("output", net_arg(output)),
        ("delta", delta),
        ("events", counter_arg(effort.events)),
        ("narrowings", counter_arg(effort.narrowings)),
        ("learned", counter_arg(effort.learned_applications)),
    ]
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

/// Runs the staged pipeline on a narrower that already carries the input
/// (and assumption) constraints; applies the δ constraint itself. Shared
/// analyses (stem candidates, SCOAP controllabilities) come from the
/// prepared circuit. `scope` masks stages 3–4 to a fanin cone (the
/// narrower's own scope masks stages 1–2).
pub(crate) fn run_pipeline(
    nw: &mut Narrower,
    prepared: &PreparedCircuit,
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

    let mut report = VerifyReport {
        output,
        delta,
        verdict: Verdict::Possible,
        completeness: Completeness::Exact,
        before_gitd: StageVerdict::Possible,
        after_gitd: None,
        after_stems: None,
        backtracks: 0,
        solver: SolverStats::default(),
        stems: StemStats::default(),
        case: CaseStats::default(),
        stage_times: StageTimes::default(),
        effort: StageEffort::default(),
        elapsed: Duration::ZERO,
    };
    let base_stats = nw.stats();
    let finish = |mut report: VerifyReport, nw: &Narrower, start: Instant| {
        report.solver = nw.stats().since(&base_stats);
        report.elapsed = start.elapsed();
        report
    };

    // A budget trip inside a stage produces the same degraded report
    // everywhere: the verdict stays `Abandoned` (sound — the domains are a
    // superset of the fixpoint, so nothing was proven) and the completeness
    // marker records where and why the run was cut short.
    let exhausted = |stage: Stage, reason: TripReason| {
        (
            Verdict::Abandoned,
            Completeness::BudgetExhausted { stage, reason },
        )
    };

    // Stage 1: basic narrowing.
    failpoint::hit("check::narrowing", output_name);
    let stage_stats = nw.stats();
    let span = config.obs.start();
    let stage = Instant::now();
    let narrowed = nw.reach_fixpoint();
    report.stage_times.narrowing = stage.elapsed();
    report.effort.narrowing = nw.stats().since(&stage_stats);
    config.obs.span(
        "check.narrowing",
        "stage",
        span,
        &stage_span_args(output, delta, &report.effort.narrowing),
    );
    match narrowed {
        FixpointResult::Contradiction => {
            report.before_gitd = StageVerdict::NoViolation;
            report.verdict = Verdict::NoViolation {
                stage: Stage::Narrowing,
            };
            return finish(report, nw, start);
        }
        FixpointResult::Interrupted => {
            let reason = nw.budget_tripped().unwrap_or(TripReason::Deadline);
            (report.verdict, report.completeness) = exhausted(Stage::Narrowing, reason);
            return finish(report, nw, start);
        }
        FixpointResult::Fixpoint => {}
    }

    // Stage 2: global implications on timing dominators.
    if config.dominators {
        failpoint::hit("check::dominators", output_name);
        let stage_stats = nw.stats();
        let span = config.obs.start();
        let stage = Instant::now();
        let implied = fixpoint_with_dominators(nw, output, delta, true);
        report.stage_times.dominators = stage.elapsed();
        report.effort.dominators = nw.stats().since(&stage_stats);
        config.obs.span(
            "check.dominators",
            "stage",
            span,
            &stage_span_args(output, delta, &report.effort.dominators),
        );
        match implied {
            FixpointResult::Contradiction => {
                report.after_gitd = Some(StageVerdict::NoViolation);
                report.verdict = Verdict::NoViolation {
                    stage: Stage::Dominators,
                };
                return finish(report, nw, start);
            }
            FixpointResult::Interrupted => {
                let reason = nw.budget_tripped().unwrap_or(TripReason::Deadline);
                (report.verdict, report.completeness) = exhausted(Stage::Dominators, reason);
                return finish(report, nw, start);
            }
            FixpointResult::Fixpoint => {}
        }
        report.after_gitd = Some(StageVerdict::Possible);
    }

    // Stage 3: stem correlation.
    if config.stem_correlation {
        failpoint::hit("check::stems", output_name);
        let stage_stats = nw.stats();
        let span = config.obs.start();
        let stage = Instant::now();
        let candidates = match scope {
            Some(scope) => scope.stem_candidates,
            None => prepared.stem_candidates(),
        };
        let stems = correlation_stems_masked(nw, output, delta, candidates);
        let correlated = stem_correlation(
            nw,
            output,
            delta,
            &stems,
            config.dominators,
            &mut report.stems,
        );
        report.stage_times.stems = stage.elapsed();
        report.effort.stems = nw.stats().since(&stage_stats);
        config.obs.span(
            "check.stems",
            "stage",
            span,
            &[
                ("output", net_arg(output)),
                ("delta", delta),
                ("events", counter_arg(report.effort.stems.events)),
                ("stems", counter_arg(report.stems.stems)),
                ("effective", counter_arg(report.stems.effective_stems)),
                ("dead_branches", counter_arg(report.stems.dead_branches)),
            ],
        );
        match correlated {
            FixpointResult::Contradiction => {
                report.after_stems = Some(StageVerdict::NoViolation);
                report.verdict = Verdict::NoViolation {
                    stage: Stage::StemCorrelation,
                };
                return finish(report, nw, start);
            }
            FixpointResult::Interrupted => {
                let reason = nw.budget_tripped().unwrap_or(TripReason::Deadline);
                (report.verdict, report.completeness) = exhausted(Stage::StemCorrelation, reason);
                return finish(report, nw, start);
            }
            FixpointResult::Fixpoint => {}
        }
        report.after_stems = Some(StageVerdict::Possible);
    }

    // Stage 4: case analysis.
    if config.case_analysis {
        failpoint::hit("check::case-analysis", output_name);
        let case_cfg = CaseConfig {
            max_backtracks: config.max_backtracks,
            use_dominators: config.dominators,
            certify_vectors: config.certify_vectors && config.delay_mode == DelayMode::Floating,
        };
        let stage_stats = nw.stats();
        let span = config.obs.start();
        let stage = Instant::now();
        let outcome = crate::fan::case_analysis_scoped(
            nw,
            output,
            delta,
            &case_cfg,
            &mut report.case,
            prepared.controllability(),
            scope.map(|s| s.case),
        );
        report.stage_times.case_analysis = stage.elapsed();
        report.effort.case_analysis = nw.stats().since(&stage_stats);
        config.obs.span(
            "check.case_analysis",
            "stage",
            span,
            &[
                ("output", net_arg(output)),
                ("delta", delta),
                ("events", counter_arg(report.effort.case_analysis.events)),
                ("decisions", counter_arg(report.case.decisions)),
                ("backtracks", counter_arg(report.case.backtracks)),
                (
                    "decisions_dominator_cones",
                    counter_arg(report.case.decisions_by_phase[0]),
                ),
                (
                    "decisions_whole_circuit",
                    counter_arg(report.case.decisions_by_phase[1]),
                ),
                (
                    "decisions_backtrace",
                    counter_arg(report.case.decisions_by_phase[2]),
                ),
            ],
        );
        report.backtracks = report.case.backtracks;
        report.verdict = match outcome {
            CaseOutcome::Vector(vector) => Verdict::Violation { vector },
            CaseOutcome::NoViolation => Verdict::NoViolation {
                stage: Stage::CaseAnalysis,
            },
            CaseOutcome::Abandoned => {
                // Classic `A`-row abandonment (backtrack cap) and budget
                // trips land here alike; the completeness marker tells
                // them apart.
                let reason = nw.budget_tripped().unwrap_or(TripReason::Backtracks);
                report.completeness = Completeness::BudgetExhausted {
                    stage: Stage::CaseAnalysis,
                    reason,
                };
                Verdict::Abandoned
            }
        };
        return finish(report, nw, start);
    }

    report.verdict = Verdict::Possible;
    finish(report, nw, start)
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
    /// Total backtracks across all probes.
    pub backtracks: u64,
    /// Reports of every probe, in probe order.
    pub probes: Vec<VerifyReport>,
}

/// The per-δ result of
/// [`CheckSession::delay_profile`](crate::CheckSession::delay_profile).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfilePoint {
    /// The probed δ.
    pub delta: i64,
    /// Whether the (narrowing + dominators) system stayed consistent — a
    /// violation is still *possible* at this δ.
    pub possible: bool,
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
        assert_eq!(r61.before_gitd, StageVerdict::NoViolation);
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

    #[test]
    fn narrowing_only_config_is_sound_but_weaker() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let basic = CheckSession::new(&c, VerifyConfig::narrowing_only());
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
    fn verify_all_outputs_covers_every_output() {
        let c = c17(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let runner = crate::BatchRunner::serial();
        let reports = runner.verify_all_outputs(&session, 31).reports;
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.verdict.is_no_violation()));
        let reports = runner.verify_all_outputs(&session, 30).reports;
        assert!(reports.iter().any(|r| r.verdict.is_violation()));
    }

    #[test]
    fn learning_modes_agree_on_verdicts() {
        let c = false_path_chain(4, 3, 10);
        let s = c.outputs()[0];
        let sessions: Vec<CheckSession<'_>> =
            [LearningMode::Off, LearningMode::Stems, LearningMode::All]
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
    fn report_carries_stage_columns() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let r = CheckSession::new(&c, VerifyConfig::default()).verify(s, 60);
        assert_eq!(r.before_gitd, StageVerdict::Possible);
        assert_eq!(r.after_gitd, Some(StageVerdict::Possible));
        assert_eq!(r.after_stems, Some(StageVerdict::Possible));
        assert!(r.elapsed.as_nanos() > 0);
        // The stage clocks partition a subset of the check's wall-clock.
        assert!(r.stage_times.total() <= r.elapsed);
        // All four stages ran on this check.
        assert!(r.stage_times.case_analysis.as_nanos() > 0);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use crate::CheckSession;
    use ltt_netlist::generators::{cascade, figure1};
    use ltt_netlist::GateKind;

    #[test]
    fn profile_matches_individual_checks() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let deltas: Vec<i64> = (0..=8).map(|k| k * 10 + 1).collect();
        let config = VerifyConfig {
            stem_correlation: false,
            case_analysis: false,
            ..Default::default()
        };
        let session = CheckSession::new(&c, config);
        for p in &session.delay_profile(s, &deltas) {
            let individual = session.verify(s, p.delta);
            assert_eq!(
                p.possible,
                !individual.verdict.is_no_violation(),
                "δ = {}",
                p.delta
            );
        }
    }

    #[test]
    fn profile_is_monotone_and_tight_on_cascade() {
        let c = cascade(GateKind::And, 4, 10);
        let s = c.outputs()[0];
        let session = CheckSession::new(&c, VerifyConfig::default());
        let profile = session.delay_profile(s, &[10, 20, 30, 40, 41, 50]);
        let flips: Vec<bool> = profile.iter().map(|p| p.possible).collect();
        assert_eq!(flips, vec![true, true, true, true, false, false]);
    }

    #[test]
    #[should_panic]
    fn profile_rejects_unsorted_deltas() {
        let c = cascade(GateKind::And, 2, 10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let _ = session.delay_profile(c.outputs()[0], &[20, 10]);
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
        let searches = BatchRunner::serial().exact_delays(&session);
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
