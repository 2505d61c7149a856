//! The CNF/CDCL backend's former crate, kept as a facade.
//!
//! The backend now lives in `ltt-core`'s [`sat`](ltt_core::sat) module,
//! and [`CheckSession`] dispatches on [`Engine`] itself (DESIGN.md §15).
//! These names re-export or forward to it for the callers that still
//! import them from here.

use ltt_core::{BatchRunner, Budget, CheckSession, DelaySearch, Engine, VerifyReport};
use ltt_netlist::NetId;

pub use ltt_core::sat::{encode_check, sat_decide, CnfCheck, Encoded, SatVerdict, Solver};

/// [`CheckSession::verify`].
pub fn verify(session: &CheckSession<'_>, output: NetId, delta: i64) -> VerifyReport {
    session.verify(output, delta)
}

/// [`CheckSession::verify_budgeted`].
pub fn verify_budgeted(
    session: &CheckSession<'_>,
    output: NetId,
    delta: i64,
    extra: &Budget,
) -> VerifyReport {
    session.verify_budgeted(output, delta, extra)
}

/// [`CheckSession::exact_delay`].
pub fn exact_delay(session: &CheckSession<'_>, output: NetId) -> DelaySearch {
    session.exact_delay(output)
}

/// [`CheckSession::exact_delay_budgeted`].
pub fn exact_delay_budgeted(
    session: &CheckSession<'_>,
    output: NetId,
    extra: &Budget,
) -> DelaySearch {
    session.exact_delay_budgeted(output, extra)
}

/// [`CheckSession::exact_delay_budgeted`] answered by `engine` instead of
/// the session's own.
///
/// # Panics
///
/// Panics if the search panics.
pub fn exact_delay_with_engine(
    session: &CheckSession<'_>,
    engine: Engine,
    output: NetId,
    extra: &Budget,
) -> DelaySearch {
    let runner = BatchRunner::serial()
        .with_engine(engine)
        .with_budget(extra.clone());
    match runner.exact_delays(session, &[output]).pop() {
        Some(Ok(search)) => search,
        other => panic!("delay search failed: {other:?}"),
    }
}
