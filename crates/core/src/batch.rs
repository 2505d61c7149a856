//! Deterministic parallel execution of check batches.
//!
//! A timing workload is almost always a *batch*: every output at one δ
//! ([`BatchRunner::run`]), the delay searches of many outputs
//! ([`BatchRunner::exact_delays`]), or a whole benchmark suite.
//! Each check in a batch is a **pure function** of `(circuit, config, output, δ)`
//! once it runs against a shared [`CheckSession`]: the session's prepared
//! analyses and base fixpoint are read-only, every check gets its own
//! [`Narrower`](crate::solver::Narrower), and the greatest fixpoint it
//! computes is unique. Running checks concurrently therefore cannot change
//! any verdict, witness vector, or per-check counter — only the wall-clock.
//!
//! The executor is a work-stealing map over scoped threads: workers pull
//! the next item index from one shared atomic counter (natural load
//! balancing — an expensive case-analysis check occupies one worker while
//! the others drain the cheap checks), tag every result with its input
//! index, and the merged results are sorted back into **input order**, so
//! the output is bit-identical to the serial run regardless of thread
//! count or scheduling.
//!
//! The executor is also **fault-isolated**: each check runs under
//! [`catch_unwind`](std::panic::catch_unwind), so a panicking check becomes
//! a structured [`CheckError`] in its slot of [`BatchCheck::errors`] while
//! every other check completes normally — with reports bit-identical to a
//! batch that never contained the poisoned check. Two opt-in controls trade
//! this determinism for latency: [`BatchRunner::with_fail_fast`] cancels
//! outstanding checks as soon as one violation is found, and
//! [`BatchRunner::with_deadline`] bounds the whole batch's wall-clock
//! (in-flight checks degrade to [`Verdict::Abandoned`] with a
//! [`Completeness::BudgetExhausted`](crate::Completeness) marker; not-yet-
//! started checks become [`CheckError::Skipped`]).

use crate::budget::{Budget, CancelToken};
use crate::cdcl::CdclStats;
use crate::check::{DelaySearch, Engine, StageTimes, Verdict, VerifyReport};
use crate::error::CheckError;
use crate::fan::CaseStats;
use crate::prepared::{CheckSession, Route};
use crate::stems::StemStats;
use ltt_netlist::NetId;
use ltt_waveform::Level;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The number of worker threads `BatchRunner::new(0)` uses: the machine's
/// available parallelism, or 1 if it cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Renders a caught panic payload as a message (the common `String` /
/// `&str` payloads verbatim, anything else a placeholder).
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Work-stealing, fault-isolated parallel map preserving input order.
///
/// Spawns `jobs` scoped workers that pull indices from a shared atomic
/// counter, collects `(index, result)` pairs per worker, and sorts the
/// merged results by index. With `jobs <= 1` (or one item) it degenerates
/// to a plain serial map with no thread machinery at all.
///
/// Every slot is filled: a panicking `f` yields `Err(CheckError::Panicked)`
/// for its own slot only (the panic is caught at the slot boundary, so the
/// other items are mapped exactly as if the poisoned item were absent),
/// and once any token in `cancels` fires, items not yet started yield
/// `Err(CheckError::Skipped)`.
fn run_map_isolated<T, R, F>(
    items: &[T],
    jobs: usize,
    cancels: &[CancelToken],
    f: F,
) -> Vec<Result<R, CheckError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let one = |item: &T| -> Result<R, CheckError> {
        if cancels.iter().any(CancelToken::is_cancelled) {
            return Err(CheckError::Skipped);
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).map_err(|payload| {
            CheckError::Panicked {
                message: payload_message(payload),
            }
        })
    };
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(one).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, Result<R, CheckError>)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        part.push((i, one(item)));
                    }
                    part
                })
            })
            .collect();
        for handle in handles {
            // `one` catches every panic of `f`, so a worker can only fail
            // via a harness bug; that is not recoverable per-slot.
            let part = handle
                .join()
                .expect("batch worker panicked outside the isolation boundary");
            indexed.extend(part);
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Collapsed verdict of a whole batch (the Table 1 row semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Every check proved `N`: no violation on any checked output.
    AllSafe,
    /// At least one check produced a violating vector (`V`).
    Violation,
    /// No violation found, but at least one check stayed inconclusive or
    /// was abandoned (`A`).
    Undecided,
}

/// Saturating aggregate of a batch's per-check reports and failed slots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchSummary {
    /// Checks in the batch (reports plus failed slots).
    pub checks: u64,
    /// Checks proved safe.
    pub no_violation: u64,
    /// Checks with a violating vector.
    pub violations: u64,
    /// Checks left `Possible` or `Abandoned`.
    pub undecided: u64,
    /// Checks that failed (panicked) instead of finishing.
    pub failed: u64,
    /// Checks skipped because the batch was cancelled before they ran.
    pub skipped: u64,
    /// Stem-correlation counters, summed.
    pub stems: StemStats,
    /// Case-analysis counters, summed.
    pub case: CaseStats,
    /// CDCL counters, summed.
    pub sat: CdclStats,
    /// Per-stage wall-clock, summed over checks (CPU-time-like: with N
    /// workers this exceeds the batch wall-clock by up to a factor N);
    /// its `total()` is the checks' summed `elapsed`.
    pub stage_wall: StageTimes,
    /// Deterministic per-stage solver effort, summed over checks — the
    /// batch-level Table 1 breakdown (identical at any worker count).
    pub stage_effort: crate::check::StageEffort,
}

impl BatchSummary {
    /// Aggregates a batch's reports and failed slots with saturating
    /// arithmetic (a batch summary must never panic on pathological
    /// counter values). Every requested check is either a report or an
    /// error, so `checks` counts both.
    pub(crate) fn aggregate(reports: &[VerifyReport], errors: &[BatchError]) -> Self {
        let mut sum = BatchSummary::default();
        for e in errors {
            sum.checks = sum.checks.saturating_add(1);
            match e.error {
                CheckError::Panicked { .. } => sum.failed = sum.failed.saturating_add(1),
                CheckError::Skipped => sum.skipped = sum.skipped.saturating_add(1),
            }
        }
        for r in reports {
            sum.checks = sum.checks.saturating_add(1);
            match &r.verdict {
                Verdict::NoViolation { .. } => {
                    sum.no_violation = sum.no_violation.saturating_add(1);
                }
                Verdict::Violation { .. } => {
                    sum.violations = sum.violations.saturating_add(1);
                }
                Verdict::Possible | Verdict::Abandoned => {
                    sum.undecided = sum.undecided.saturating_add(1);
                }
            }
            sum.stems = sum.stems.saturating_add(&r.stems);
            sum.case = sum.case.saturating_add(&r.case);
            sum.sat = sum.sat.saturating_add(&r.sat);
            sum.stage_wall = sum.stage_wall.saturating_add(&r.stage_times);
            sum.stage_effort = sum.stage_effort.saturating_add(&r.effort);
        }
        sum
    }
}

/// One failed slot of a batch: which check it was and why it produced no
/// report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchError {
    /// Index of the check in the requested batch.
    pub index: usize,
    /// The output the check targeted.
    pub output: NetId,
    /// The δ the check targeted.
    pub delta: i64,
    /// What went wrong.
    pub error: CheckError,
}

/// Result of one batch: per-check reports in **input order** plus the
/// aggregate summary and the batch wall-clock.
#[derive(Clone, Debug)]
pub struct BatchCheck {
    /// One report per *completed* check, in the order requested. A check
    /// that panicked or was skipped appears in [`BatchCheck::errors`]
    /// instead; the surviving reports are bit-identical to a batch run
    /// without the failed checks.
    pub reports: Vec<VerifyReport>,
    /// The failed slots, in request order (empty on a healthy batch).
    pub errors: Vec<BatchError>,
    /// Saturating aggregate over `reports`, with
    /// [`failed`](BatchSummary::failed)/[`skipped`](BatchSummary::skipped)
    /// from `errors`.
    pub summary: BatchSummary,
    /// Wall-clock of the whole batch (the number parallelism improves).
    pub wall: Duration,
}

impl BatchCheck {
    /// The collapsed verdict: `Violation` beats `Undecided` beats
    /// `AllSafe`. Failed or skipped checks count as undecided — the batch
    /// cannot claim `AllSafe` for a check that never finished.
    pub fn outcome(&self) -> BatchOutcome {
        if self.summary.violations > 0 {
            BatchOutcome::Violation
        } else if self.summary.undecided > 0 || !self.errors.is_empty() {
            BatchOutcome::Undecided
        } else {
            BatchOutcome::AllSafe
        }
    }

    /// [`VerifyReport::backtracks`] summed (saturating) over the reports.
    pub fn backtracks(&self) -> u64 {
        self.reports
            .iter()
            .fold(0, |sum, r| sum.saturating_add(r.backtracks()))
    }

    /// Whether every requested check finished and decided (no errors, no
    /// undecided verdicts, every report exact).
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
            && self.summary.undecided == 0
            && self.reports.iter().all(|r| r.completeness.is_exact())
    }
}

/// Fans the checks of a batch out over worker threads, and adds every
/// per-call control a [`CheckSession`] does not carry in its config:
/// worker count, engine override, extra [`Budget`], whole-batch deadline,
/// cancel token, fail-fast and assumption pins.
///
/// Deterministic by construction (see the module docs): any `jobs` value
/// produces the same reports as [`BatchRunner::serial`]. Every engine runs
/// through it, so SAT and hybrid checks get the same per-slot isolation,
/// deadline, fail-fast and worker count as narrowing ones.
///
/// # Examples
///
/// Every primary output at one δ (the Table 1 semantics: `N` only if no
/// output can violate):
///
/// ```
/// use ltt_core::{BatchOutcome, BatchRunner, CheckSession, VerifyConfig};
/// use ltt_netlist::suite::c17;
///
/// let c = c17(10);
/// let session = CheckSession::new(&c, VerifyConfig::default());
/// let runner = BatchRunner::new(0);
/// let at = |delta| c.outputs().iter().map(|&o| (o, delta)).collect::<Vec<_>>();
/// assert_eq!(runner.run(&session, &at(31)).outcome(), BatchOutcome::AllSafe);
/// assert_eq!(runner.run(&session, &at(30)).outcome(), BatchOutcome::Violation);
/// ```
#[derive(Clone, Debug)]
pub struct BatchRunner {
    jobs: usize,
    fail_fast: bool,
    deadline: Option<Duration>,
    /// Extra per-check budget (and external cancellation sources) merged
    /// into every check this runner executes.
    extra: Budget,
    /// The engine answering this runner's checks in place of the
    /// session's own (`None`: the session config's).
    engine: Option<Engine>,
}

impl BatchRunner {
    /// A runner with `jobs` workers; `0` means *auto* (one worker per
    /// available hardware thread).
    pub fn new(jobs: usize) -> Self {
        BatchRunner {
            jobs: if jobs == 0 { available_jobs() } else { jobs },
            fail_fast: false,
            deadline: None,
            extra: Budget::unlimited(),
            engine: None,
        }
    }

    /// The single-threaded runner (no thread machinery at all).
    pub fn serial() -> Self {
        BatchRunner::new(1)
    }

    /// The worker count this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Cancel outstanding checks as soon as one check finds a violation:
    /// in-flight checks abort (degraded `Abandoned` reports), not-yet-
    /// started checks become [`CheckError::Skipped`]. Which checks get cut
    /// off depends on timing, so a fail-fast batch trades the runner's
    /// bit-exact determinism for latency — the violation itself is always
    /// reported.
    pub fn with_fail_fast(mut self, on: bool) -> Self {
        self.fail_fast = on;
        self
    }

    /// Bound the whole batch's wall-clock: past the deadline, in-flight
    /// checks degrade to sound partial results and remaining checks are
    /// skipped. Same determinism caveat as [`BatchRunner::with_fail_fast`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach an **external** cancellation source: when `token` fires,
    /// in-flight checks degrade to sound partial results
    /// ([`Verdict::Abandoned`]) and not-yet-started checks become
    /// [`CheckError::Skipped`]. This is how a serving layer aborts the
    /// batch of a client that disconnected mid-request — cancellation only
    /// ever cuts work short, it never changes a completed check's report.
    pub fn with_cancel(self, token: CancelToken) -> Self {
        self.with_budget(Budget::unlimited().with_cancel(token))
    }

    /// Merge an extra per-check [`Budget`] (tightest-wins) into every check
    /// this runner executes — per-request backtrack caps, wall windows, or
    /// deadlines a caller wants applied on top of the session's own config.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.extra = self.extra.merged(&budget);
        self
    }

    /// Answer every check and delay search of this runner with `engine`
    /// instead of the session config's — how a serving layer applies a
    /// request's engine to a session shared by all requests.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The engine this runner's checks against `session` run on.
    fn engine(&self, session: &CheckSession) -> Engine {
        self.engine.unwrap_or(session.config().engine)
    }

    /// The shared cancel token and extra per-check budget of one batch run,
    /// or `None` when this runner needs neither (keeping the default path
    /// free of any budget machinery).
    fn batch_controls(&self, start: Instant) -> Option<(CancelToken, Budget)> {
        if !self.fail_fast && self.deadline.is_none() && self.extra.is_unlimited() {
            return None;
        }
        let cancel = CancelToken::new();
        let mut extra = self.extra.clone().with_cancel(cancel.clone());
        if let Some(d) = self.deadline {
            extra = extra.with_deadline(start + d);
        }
        Some((cancel, extra))
    }

    /// The tokens whose firing should *skip* not-yet-started items: the
    /// run's internal token (fail-fast / deadline) plus every external
    /// cancellation source attached via [`BatchRunner::with_cancel`].
    fn skip_tokens(&self, internal: Option<&CancelToken>) -> Vec<CancelToken> {
        let mut tokens: Vec<CancelToken> = self.extra.cancel_tokens().to_vec();
        tokens.extend(internal.cloned());
        tokens
    }

    /// Runs the checks `(output, δ)` against the session, in parallel.
    ///
    /// # Panics
    ///
    /// Panics, before any check starts, if the session is in
    /// [`DelayMode::Transition`](crate::DelayMode::Transition) and the
    /// runner's engine is not [`Engine::Narrow`] (the CNF encoder models
    /// floating mode only).
    pub fn run(&self, session: &CheckSession, checks: &[(NetId, i64)]) -> BatchCheck {
        self.run_under(session, checks, &[])
    }

    /// [`BatchRunner::run`] with shared assumptions: every check pins each
    /// `(net, level)`'s settling class before propagation (the
    /// `set_case_analysis` idiom: constant mode pins, unused inputs, scan
    /// enables).
    ///
    /// # Panics
    ///
    /// Panics, before any check starts, if the runner's engine is not
    /// [`Engine::Narrow`] and `assumptions` is not empty or the session is
    /// in [`DelayMode::Transition`](crate::DelayMode::Transition): the CNF
    /// encoder has no notion of pinned nets, and ignoring the pins could
    /// report a witness they rule out.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_core::{BatchRunner, CheckSession, VerifyConfig};
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
    /// let batch = BatchRunner::serial().run_under(&session, &[(s, 60)], &[(e5, Level::Zero)]);
    /// assert!(batch.reports[0].verdict.is_no_violation());
    /// ```
    pub fn run_under(
        &self,
        session: &CheckSession,
        checks: &[(NetId, i64)],
        assumptions: &[(NetId, Level)],
    ) -> BatchCheck {
        let start = Instant::now();
        let engine = self.engine(session);
        crate::engine::require_narrow_for(engine, session.config().delay_mode, assumptions);
        // Force the base fixpoint once before fan-out so workers never race
        // to compute it (OnceLock would serialize them anyway; this keeps
        // the cost out of the parallel region's critical path).
        session.warm_up_for(engine);
        let controls = self.batch_controls(start);
        let (cancel, extra) = match &controls {
            Some((cancel, extra)) => (Some(cancel), extra.clone()),
            None => (None, Budget::unlimited()),
        };
        let skips = self.skip_tokens(cancel);
        let results = run_map_isolated(checks, self.jobs, &skips, |&(output, delta)| {
            let report = session.check(engine, output, delta, assumptions, &extra);
            if self.fail_fast && report.verdict.is_violation() {
                if let Some(cancel) = cancel {
                    cancel.cancel();
                }
            }
            report
        });
        let mut reports = Vec::with_capacity(results.len());
        let mut errors = Vec::new();
        for (index, result) in results.into_iter().enumerate() {
            match result {
                Ok(report) => reports.push(report),
                Err(error) => errors.push(BatchError {
                    index,
                    output: checks[index].0,
                    delta: checks[index].1,
                    error,
                }),
            }
        }
        BatchCheck {
            summary: BatchSummary::aggregate(&reports, &errors),
            reports,
            errors,
            wall: start.elapsed(),
        }
    }

    /// [`BatchRunner::run`] that carries reports over instead of re-running
    /// them: a check for which `known(output, δ)` supplies an
    /// [`Exact`](crate::Completeness::Exact) report is served that report,
    /// every other check runs on this runner. A budget-cut report is never
    /// carried: it depends on the budget it ran under, not only on the
    /// circuit. This is the one merge of carried and re-run reports (the
    /// ECO carry-over pairs it with [`Patch::unaffected`](crate::Patch::unaffected)).
    ///
    /// Returns the merged batch — reports, [`BatchError::index`] and the
    /// summary all over the requested `checks`, in request order — and one
    /// flag per report, `true` where it was carried over.
    pub fn run_reusing(
        &self,
        session: &CheckSession,
        checks: &[(NetId, i64)],
        known: impl Fn(NetId, i64) -> Option<VerifyReport>,
    ) -> (BatchCheck, Vec<bool>) {
        let start = Instant::now();
        let carried: Vec<Option<VerifyReport>> = checks
            .iter()
            .map(|&(output, delta)| known(output, delta).filter(|r| r.completeness.is_exact()))
            .collect();
        // Request positions of the checks that must run.
        let rerun: Vec<usize> = (0..checks.len())
            .filter(|&i| carried[i].is_none())
            .collect();
        let to_run: Vec<(NetId, i64)> = rerun.iter().map(|&i| checks[i]).collect();
        let mut fresh = self.run(session, &to_run);
        for error in &mut fresh.errors {
            error.index = rerun[error.index];
        }
        let mut failed = fresh.errors.iter().map(|e| e.index).peekable();
        let mut fresh_reports = fresh.reports.into_iter();
        let (reports, reused): (Vec<VerifyReport>, Vec<bool>) = (carried.into_iter().enumerate())
            .filter_map(|(i, slot)| match slot {
                Some(report) => Some((report, true)),
                None if failed.next_if_eq(&i).is_some() => None,
                None => Some((
                    fresh_reports.next().expect("one report per clean slot"),
                    false,
                )),
            })
            .unzip();
        let batch = BatchCheck {
            summary: BatchSummary::aggregate(&reports, &fresh.errors),
            reports,
            errors: fresh.errors,
            wall: start.elapsed(),
        };
        (batch, reused)
    }

    /// Runs [`CheckSession::exact_delay`] for each of `outputs`, in
    /// parallel: one `Result` per output, in the order given. Pass
    /// `session.circuit().outputs()` for every primary output.
    ///
    /// The maximum over every output is the circuit's exact floating-mode
    /// delay — the quantity the paper's Table 1 reports ("the value of δ
    /// for which a test vector is found represents the exact floating-mode
    /// delay of the circuit when the constraint system is inconsistent for
    /// (δ + 1) on all outputs").
    ///
    /// The runner's extra [`Budget`] merges with the session's own: a
    /// per-check `wall` window applies to each probe separately, an
    /// absolute `deadline` caps the whole search. When the budget (or the
    /// backtrack cap) cuts the bisection short the result degrades soundly
    /// instead of vanishing: `[delay, upper_bound]` is a proven interval
    /// containing the exact delay — `delay` from the best *simulated*
    /// violating vector (bisection witnesses, then, for a floating-mode
    /// narrowing search, Monte-Carlo), `upper_bound` from the tightest
    /// completed impossibility proof (at worst the output's arrival time)
    /// — and `proven_exact` says whether the two meet. The SAT engine
    /// bisects with SAT probes only; the hybrid engine keeps bisecting an
    /// open narrowing interval with them.
    ///
    /// A panicking search fills only its own slot with
    /// [`CheckError::Panicked`]; under the runner's deadline, searches that
    /// started degrade to such intervals and searches that never started
    /// become [`CheckError::Skipped`]. Fail-fast does not apply (a delay
    /// search has no violation to stop on).
    ///
    /// # Panics
    ///
    /// Panics, before any search starts, if the session is in
    /// [`DelayMode::Transition`](crate::DelayMode::Transition) and the
    /// runner's engine is not [`Engine::Narrow`] (see
    /// [`CheckSession::exact_delay`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_core::{BatchRunner, CheckSession, VerifyConfig};
    /// use ltt_netlist::suite::c17_nor;
    ///
    /// let c = c17_nor(10);
    /// let session = CheckSession::new(&c, VerifyConfig::default());
    /// let searches = BatchRunner::serial().exact_delays(&session, c.outputs());
    /// let searches: Vec<_> = searches.into_iter().map(Result::unwrap).collect();
    /// let delay = searches.iter().map(|s| s.delay).max().unwrap();
    /// assert_eq!(delay, 50);
    /// assert!(searches.iter().all(|s| s.proven_exact));
    /// ```
    pub fn exact_delays(
        &self,
        session: &CheckSession,
        outputs: &[NetId],
    ) -> Vec<Result<DelaySearch, CheckError>> {
        let engine = self.engine(session);
        crate::engine::require_narrow_for(engine, session.config().delay_mode, &[]);
        session.warm_up_for(engine);
        let start = Instant::now();
        let no_fail_fast = BatchRunner {
            fail_fast: false,
            ..self.clone()
        };
        let controls = no_fail_fast.batch_controls(start);
        let (cancel, extra) = match &controls {
            Some((cancel, extra)) => (Some(cancel), extra.clone()),
            None => (None, Budget::unlimited()),
        };
        let skips = no_fail_fast.skip_tokens(cancel);
        run_map_isolated(outputs, self.jobs, &skips, |&o| {
            session.search(engine, Route::Cone, o, &extra)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::VerifyConfig;
    use ltt_netlist::generators::{carry_skip_adder, figure1};
    use ltt_netlist::suite::c17;
    use ltt_netlist::Circuit;

    /// Every primary output of `c` at `delta`.
    fn every_output(c: &Circuit, delta: i64) -> Vec<(NetId, i64)> {
        c.outputs().iter().map(|&o| (o, delta)).collect()
    }

    #[test]
    fn run_map_preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..97).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let out = run_map_isolated(&items, jobs, &[], |&x| x * 2);
            assert_eq!(out, items.iter().map(|&x| Ok(x * 2)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_map_isolated_captures_panics_per_slot() {
        // Regression for the old `resume_unwind` behavior: a panicking
        // item must fill only its own slot, never take down the batch.
        let items: Vec<usize> = (0..23).collect();
        for jobs in [1, 2, 4, 64] {
            let out = run_map_isolated(&items, jobs, &[], |&x| {
                if x % 7 == 3 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    match r {
                        Err(CheckError::Panicked { message }) => {
                            assert!(message.contains(&format!("boom at {i}")));
                        }
                        other => panic!("slot {i}: expected panic capture, got {other:?}"),
                    }
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 2), "jobs = {jobs}");
                }
            }
        }
    }

    #[test]
    fn run_map_isolated_skips_after_cancel() {
        let items: Vec<usize> = (0..8).collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run_map_isolated(&items, 1, std::slice::from_ref(&cancel), |&x| x);
        assert!(out.iter().all(|r| r == &Err(CheckError::Skipped)));
    }

    #[test]
    fn jobs_zero_means_auto() {
        assert_eq!(BatchRunner::new(0).jobs(), available_jobs());
        assert_eq!(BatchRunner::new(3).jobs(), 3);
        assert_eq!(BatchRunner::serial().jobs(), 1);
    }

    #[test]
    fn parallel_batch_matches_serial_reports() {
        let c = c17(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        for delta in [25, 30, 31] {
            let serial = BatchRunner::serial().run(&session, &every_output(&c, delta));
            let par = BatchRunner::new(4).run(&session, &every_output(&c, delta));
            assert_eq!(serial.reports.len(), par.reports.len());
            for (a, b) in serial.reports.iter().zip(&par.reports) {
                assert_eq!(a.output, b.output);
                assert_eq!(a.verdict, b.verdict);
                assert_eq!(a.case, b.case);
                assert_eq!(a.effort, b.effort);
            }
            assert_eq!(serial.outcome(), par.outcome());
        }
    }

    #[test]
    fn summary_counts_add_up() {
        let c = c17(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let batch = BatchRunner::new(2).run(&session, &every_output(&c, 30));
        let s = &batch.summary;
        assert_eq!(s.checks, batch.reports.len() as u64);
        assert_eq!(
            s.checks,
            s.no_violation + s.violations + s.undecided + s.failed + s.skipped
        );
        assert!(s.violations > 0);
        assert!(batch.errors.is_empty());
        let elapsed = batch.reports.iter().map(|r| r.elapsed).sum::<Duration>();
        assert_eq!(s.stage_wall.total(), elapsed);
    }

    /// Carried and re-run slots merge in request order: a budget-cut report
    /// is re-run rather than carried, a re-run slot skipped by the
    /// fail-fast token keeps its request index, and the summary counts the
    /// carried reports too.
    #[test]
    fn run_reusing_merges_carried_and_rerun_slots() {
        use crate::budget::TripReason;
        use crate::check::{Completeness, Stage};
        let c = c17(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let (o22, o23) = (c.outputs()[0], c.outputs()[1]);
        let checks = [(o22, 31), (o22, 30), (o23, 31), (o23, 30)];
        let exact = BatchRunner::serial().run(&session, &checks).reports;
        let cut = VerifyReport {
            verdict: Verdict::Abandoned,
            completeness: Completeness::BudgetExhausted {
                stage: Stage::CaseAnalysis,
                reason: TripReason::Backtracks,
            },
            ..exact[1].clone()
        };
        let known = |o: NetId, d: i64| match (o, d) {
            (o, 31) => exact
                .iter()
                .find(|r| r.output == o && r.delta == 31)
                .cloned(),
            (o, 30) if o == o22 => Some(cut.clone()),
            _ => None,
        };
        // Serial fail-fast: the re-run (22, 30) violates and cancels the
        // batch, so the re-run (23, 30) is skipped.
        let (batch, reused) = BatchRunner::serial()
            .with_fail_fast(true)
            .run_reusing(&session, &checks, known);
        assert_eq!(reused, [true, false, true]);
        let slots: Vec<_> = batch.reports.iter().map(|r| (r.output, r.delta)).collect();
        assert_eq!(slots, [(o22, 31), (o22, 30), (o23, 31)]);
        assert!(batch.reports[1].verdict.is_violation());
        assert!(batch.reports[1].completeness.is_exact());
        assert_eq!(batch.errors.len(), 1);
        assert_eq!(batch.errors[0].index, 3);
        assert_eq!(batch.errors[0].error, CheckError::Skipped);
        assert_eq!((batch.errors[0].output, batch.errors[0].delta), (o23, 30));
        let s = &batch.summary;
        assert_eq!(s, &BatchSummary::aggregate(&batch.reports, &batch.errors));
        assert_eq!(
            (s.checks, s.no_violation, s.violations, s.skipped),
            (4, 2, 1, 1)
        );
    }

    #[test]
    fn fail_fast_still_reports_the_violation() {
        let c = c17(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        for jobs in [1, 4] {
            let batch = BatchRunner::new(jobs)
                .with_fail_fast(true)
                .run(&session, &every_output(&c, 30));
            assert_eq!(batch.outcome(), BatchOutcome::Violation);
            assert!(batch.reports.iter().any(|r| r.verdict.is_violation()));
            // Every slot is accounted for: report or error.
            assert_eq!(batch.reports.len() + batch.errors.len(), c.outputs().len());
        }
    }

    #[test]
    fn expired_deadline_degrades_not_crashes() {
        let c = figure1(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let batch = BatchRunner::serial()
            .with_deadline(Duration::ZERO)
            .run(&session, &every_output(&c, 60));
        // The single check either degraded (Abandoned + BudgetExhausted)
        // or was skipped; either way the batch is undecided, not AllSafe.
        assert_eq!(batch.outcome(), BatchOutcome::Undecided);
        assert!(!batch.is_complete());
        for r in &batch.reports {
            assert_eq!(r.verdict, Verdict::Abandoned);
            assert!(!r.completeness.is_exact());
        }
    }

    #[test]
    fn deadline_zero_delay_searches_stay_sound() {
        let c = figure1(10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let results = BatchRunner::serial()
            .with_deadline(Duration::ZERO)
            .exact_delays(&session, c.outputs());
        assert_eq!(results.len(), 1);
        // Nothing cancels the token (no fail-fast), so the search ran.
        let search = results[0].as_ref().expect("search ran");
        // Exact delay is 60: the degraded interval must contain it.
        assert!(!search.proven_exact);
        assert!(search.delay <= 60, "lower bound {}", search.delay);
        assert!(
            search.upper_bound >= 60,
            "upper bound {}",
            search.upper_bound
        );
    }

    /// The rejection panics in the caller: inside the fan-out it would
    /// only fill each slot with a captured panic.
    #[test]
    #[should_panic(expected = "transition mode needs the narrow engine")]
    fn exact_delays_reject_transition_mode_before_fan_out() {
        let c = c17(10);
        let config = VerifyConfig {
            delay_mode: crate::DelayMode::Transition,
            ..Default::default()
        };
        let session = CheckSession::new(&c, config);
        let _ = BatchRunner::new(2)
            .with_engine(Engine::Hybrid)
            .exact_delays(&session, c.outputs());
    }

    #[test]
    fn parallel_exact_delays_match_serial() {
        let c = carry_skip_adder(4, 2, 10);
        let session = CheckSession::new(&c, VerifyConfig::default());
        let serial = BatchRunner::serial().exact_delays(&session, c.outputs());
        let par = BatchRunner::new(4).exact_delays(&session, c.outputs());
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.delay, b.delay);
            assert_eq!(a.proven_exact, b.proven_exact);
            assert_eq!(a.upper_bound, b.upper_bound);
            assert_eq!(a.vector, b.vector);
            assert_eq!(a.backtracks(), b.backtracks());
        }
    }
}
