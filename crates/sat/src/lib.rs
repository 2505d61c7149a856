//! The CNF/CDCL backend's former crate, kept as a facade.
//!
//! The backend now lives in `ltt-core`'s [`sat`](ltt_core::sat) module,
//! and [`CheckSession`] dispatches on [`Engine`](ltt_core::Engine) itself
//! (DESIGN.md §15). These names re-export or forward to it for the
//! benchmark, which still imports them from here.

use ltt_core::{CheckSession, DelaySearch, VerifyReport};
use ltt_netlist::NetId;

pub use ltt_core::sat::{encode_check, sat_decide, Encoded};

/// [`CheckSession::verify`].
pub fn verify(session: &CheckSession<'_>, output: NetId, delta: i64) -> VerifyReport {
    session.verify(output, delta)
}

/// [`CheckSession::exact_delay`].
pub fn exact_delay(session: &CheckSession<'_>, output: NetId) -> DelaySearch {
    session.exact_delay(output)
}
