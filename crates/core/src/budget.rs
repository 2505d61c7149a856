//! Resource budgets and cooperative cancellation.
//!
//! The case analysis is a branch-and-bound over an NP-complete check, so a
//! pathological instance can blow past any wall-clock expectation — the
//! paper's Table 1 has an `A` (abandoned) column for exactly this reason.
//! A [`Budget`] bounds a check by **wall-clock** (per-check window and/or
//! absolute deadline), **backtracks**, and **narrowing events**, and can be
//! cancelled externally through a shared [`CancelToken`]. The narrower's
//! event loop, the FAN search, and every pipeline stage poll the budget
//! cooperatively; when it trips, the check stops at a safe point and
//! returns a *sound partial result* (see
//! [`Completeness`](crate::Completeness)) instead of hanging or lying.
//!
//! Budgets never affect what a check *claims* — only whether it finishes.
//! An interrupted fixpoint leaves domains **under-narrowed** (a superset of
//! the greatest fixpoint), which can only make the verdict *less*
//! conclusive, never wrongly conclusive; an interrupted search reports
//! [`Verdict::Abandoned`](crate::Verdict::Abandoned) rather than guessing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation flag. Cloning shares the flag: cancelling any
/// clone cancels them all.
///
/// # Examples
///
/// ```
/// use ltt_core::CancelToken;
///
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a budget tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    /// The wall-clock window or absolute deadline expired.
    Deadline,
    /// A [`CancelToken`] was cancelled.
    Cancelled,
    /// The narrowing-event cap was reached.
    Events,
    /// The backtrack cap was reached.
    Backtracks,
    /// The check's exact encoding exceeds a fixed capacity limit (the SAT
    /// engine's settle-grid cap). Unlike the other reasons this is not a
    /// budget: a larger budget would not let the check through.
    GridTooLarge,
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripReason::Deadline => write!(f, "deadline expired"),
            TripReason::Cancelled => write!(f, "cancelled"),
            TripReason::Events => write!(f, "event cap reached"),
            TripReason::Backtracks => write!(f, "backtrack cap reached"),
            TripReason::GridTooLarge => write!(f, "settle grid too large"),
        }
    }
}

/// Resource limits for one check (or, via the absolute deadline, a whole
/// batch). The default budget is unlimited.
///
/// Two wall-clock forms compose: `wall` is a **per-check** window measured
/// from the moment the budget is armed (each check, or each probe of a
/// delay search, gets its own window), while `deadline` is an **absolute**
/// instant shared by everything holding the budget — the form a batch
/// deadline needs.
///
/// # Examples
///
/// ```
/// use ltt_core::{Budget, CheckSession, VerifyConfig};
/// use ltt_netlist::generators::figure1;
/// use std::time::Duration;
///
/// let c = figure1(10);
/// let s = c.outputs()[0];
/// let config = VerifyConfig {
///     budget: Budget::unlimited().with_wall(Duration::from_secs(5)),
///     ..Default::default()
/// };
/// // A generous budget changes nothing on an easy check.
/// let report = CheckSession::new(&c, config).verify(s, 61);
/// assert!(report.verdict.is_no_violation());
/// assert!(report.completeness.is_exact());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Per-check wall-clock window (measured from when the budget is armed).
    wall: Option<Duration>,
    /// Absolute deadline (shared across checks holding this budget).
    deadline: Option<Instant>,
    /// Backtrack cap for the case analysis (combines with
    /// [`VerifyConfig::max_backtracks`](crate::VerifyConfig::max_backtracks)
    /// by minimum).
    max_backtracks: Option<u64>,
    /// Narrowing-event cap across the whole check.
    max_events: Option<u64>,
    /// Cancellation sources (all are polled; any one trips the budget).
    cancels: Vec<CancelToken>,
}

impl Budget {
    /// The unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Whether no limit of any kind is set (polling is free in this case).
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none()
            && self.deadline.is_none()
            && self.max_backtracks.is_none()
            && self.max_events.is_none()
            && self.cancels.is_empty()
    }

    /// Caps each check's wall-clock at `window` (min-combined with any
    /// existing window).
    pub fn with_wall(mut self, window: Duration) -> Self {
        self.wall = Some(self.wall.map_or(window, |w| w.min(window)));
        self
    }

    /// Sets an absolute deadline (min-combined with any existing one).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
        self
    }

    /// Caps case-analysis backtracks (min-combined).
    pub fn with_backtracks(mut self, max: u64) -> Self {
        self.max_backtracks = Some(self.max_backtracks.map_or(max, |m| m.min(max)));
        self
    }

    /// Caps narrowing events across the whole check (min-combined).
    pub fn with_events(mut self, max: u64) -> Self {
        self.max_events = Some(self.max_events.map_or(max, |m| m.min(max)));
        self
    }

    /// Adds a cancellation source.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancels.push(token);
        self
    }

    /// Whether any of this budget's cancellation sources has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancels.iter().any(CancelToken::is_cancelled)
    }

    /// The cancellation sources (the batch runner's skip test polls these
    /// without arming the budget).
    pub(crate) fn cancel_tokens(&self) -> &[CancelToken] {
        &self.cancels
    }

    /// The tightest combination of two budgets: min of every cap, union of
    /// the cancellation sources.
    pub fn merged(&self, other: &Budget) -> Budget {
        let mut out = self.clone();
        if let Some(w) = other.wall {
            out = out.with_wall(w);
        }
        if let Some(d) = other.deadline {
            out = out.with_deadline(d);
        }
        if let Some(b) = other.max_backtracks {
            out = out.with_backtracks(b);
        }
        if let Some(e) = other.max_events {
            out = out.with_events(e);
        }
        out.cancels.extend(other.cancels.iter().cloned());
        out
    }

    /// The backtrack cap, if any.
    pub fn max_backtracks(&self) -> Option<u64> {
        self.max_backtracks
    }

    /// The absolute instant past which this budget's wall-clock limits are
    /// exceeded if armed at `now`: the earlier of the absolute deadline and
    /// `now + wall`. `None` when neither wall-clock limit is set.
    pub fn absolute_deadline(&self, now: Instant) -> Option<Instant> {
        match (self.deadline, self.wall.map(|w| now + w)) {
            (Some(d), Some(w)) => Some(d.min(w)),
            (d, w) => d.or(w),
        }
    }

    /// Arms the budget: fixes the start of the per-check wall window. The
    /// narrowing pipeline and the CNF/CDCL backend poll the same limits
    /// through it.
    pub fn arm(&self) -> ArmedBudget {
        ArmedBudget {
            budget: self.clone(),
            started: Instant::now(),
            poll_countdown: 0,
            tripped: None,
        }
    }
}

/// How many cheap polls elapse between wall-clock reads (`Instant::now` is
/// cheap but not free; an event applies a full gate projection, so reading
/// the clock every 64th event keeps the overhead unmeasurable while
/// bounding deadline overshoot to 64 events).
const CLOCK_STRIDE: u32 = 64;

/// A budget bound to a running check: knows when the check started and
/// remembers the first trip (sticky — once tripped, every later poll
/// reports the same reason so the whole pipeline unwinds promptly).
#[derive(Clone, Debug)]
pub struct ArmedBudget {
    budget: Budget,
    started: Instant,
    poll_countdown: u32,
    tripped: Option<TripReason>,
}

impl ArmedBudget {
    /// An armed unlimited budget (polling returns `None` immediately).
    pub fn unlimited() -> Self {
        Budget::unlimited().arm()
    }

    /// The underlying (unarmed) budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The sticky trip, if the budget has already tripped.
    pub fn tripped(&self) -> Option<TripReason> {
        self.tripped
    }

    /// Polls every limit; `events` is the caller's narrowing-event counter.
    /// Returns the (sticky) trip reason, or `None` while within budget.
    /// Wall-clock is read once per `CLOCK_STRIDE` polls.
    pub fn poll(&mut self, events: u64) -> Option<TripReason> {
        if let Some(reason) = self.tripped {
            return Some(reason);
        }
        if self.budget.is_unlimited() {
            return None;
        }
        if self.budget.cancels.iter().any(CancelToken::is_cancelled) {
            self.tripped = Some(TripReason::Cancelled);
            return self.tripped;
        }
        if let Some(max) = self.budget.max_events {
            if events >= max {
                self.tripped = Some(TripReason::Events);
                return self.tripped;
            }
        }
        if self.budget.wall.is_some() || self.budget.deadline.is_some() {
            if self.poll_countdown == 0 {
                self.poll_countdown = CLOCK_STRIDE;
                let now = Instant::now();
                let wall_hit = self
                    .budget
                    .wall
                    .is_some_and(|w| now.duration_since(self.started) >= w);
                let deadline_hit = self.budget.deadline.is_some_and(|d| now >= d);
                if wall_hit || deadline_hit {
                    self.tripped = Some(TripReason::Deadline);
                    return self.tripped;
                }
            }
            self.poll_countdown -= 1;
        }
        None
    }

    /// Like [`ArmedBudget::poll`] but always reads the clock — for
    /// low-frequency call sites (stage boundaries, per-decision checks)
    /// where stride-skipping would delay the trip.
    pub fn poll_now(&mut self) -> Option<TripReason> {
        self.poll_countdown = 0;
        self.poll(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut armed = Budget::unlimited().arm();
        assert!(armed.budget().is_unlimited());
        for i in 0..10_000 {
            assert_eq!(armed.poll(i), None);
        }
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let mut armed = Budget::unlimited().with_cancel(token.clone()).arm();
        assert_eq!(armed.poll(0), None);
        token.cancel();
        assert_eq!(armed.poll(0), Some(TripReason::Cancelled));
        // Sticky.
        assert_eq!(armed.poll(0), Some(TripReason::Cancelled));
    }

    #[test]
    fn event_cap_trips_at_cap() {
        let mut armed = Budget::unlimited().with_events(100).arm();
        assert_eq!(armed.poll(99), None);
        assert_eq!(armed.poll(100), Some(TripReason::Events));
    }

    #[test]
    fn zero_wall_trips_immediately() {
        let mut armed = Budget::unlimited().with_wall(Duration::ZERO).arm();
        assert_eq!(armed.poll_now(), Some(TripReason::Deadline));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let mut armed = Budget::unlimited()
            .with_deadline(Instant::now() - Duration::from_millis(1))
            .arm();
        assert_eq!(armed.poll_now(), Some(TripReason::Deadline));
    }

    #[test]
    fn merged_takes_the_minimum_of_caps() {
        let a = Budget::unlimited().with_backtracks(10).with_events(500);
        let b = Budget::unlimited().with_backtracks(3);
        let m = a.merged(&b);
        assert_eq!(m.max_backtracks(), Some(3));
        let mut armed = m.arm();
        assert_eq!(armed.poll(499), None);
        assert_eq!(armed.poll(500), Some(TripReason::Events));
    }

    #[test]
    fn merged_unions_cancel_tokens() {
        let ta = CancelToken::new();
        let tb = CancelToken::new();
        let m = Budget::unlimited()
            .with_cancel(ta)
            .merged(&Budget::unlimited().with_cancel(tb.clone()));
        let mut armed = m.arm();
        assert_eq!(armed.poll(0), None);
        tb.cancel();
        assert_eq!(armed.poll(0), Some(TripReason::Cancelled));
    }

    #[test]
    fn trip_reason_displays() {
        assert!(TripReason::Deadline.to_string().contains("deadline"));
        assert!(TripReason::Backtracks.to_string().contains("backtrack"));
    }
}
