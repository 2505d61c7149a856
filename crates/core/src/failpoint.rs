//! Test-only fault injection (the `failpoints` cargo feature).
//!
//! A failpoint is a named site in the pipeline (e.g. `check::narrowing`,
//! `check::case-analysis`) where a test can inject a panic or an artificial
//! stall, so the batch runner's panic isolation and the budget's deadline
//! path are exercised by real faults instead of hand-mocked ones. Without
//! the feature every hook compiles to an empty inline function — zero cost
//! and zero behavior change in production builds.
//!
//! The registry is process-global; tests that configure failpoints must
//! serialize themselves (e.g. behind a shared `Mutex`) and call
//! `clear_all` when done.

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What an armed failpoint does when hit.
    #[derive(Clone, Debug)]
    pub enum FailAction {
        /// Panic with the given message.
        Panic(String),
        /// Sleep for the given duration, then continue normally.
        Stall(Duration),
        /// Signal the site to simulate a failure in a site-specific way
        /// (e.g. the serve layer drops the connection instead of
        /// replying). Only observable through [`hit_flagged`]; plain
        /// [`hit`] sites ignore it.
        Flag,
    }

    #[derive(Clone, Debug)]
    struct Armed {
        /// Only fire when the hit's context (e.g. the checked output's
        /// name) matches; `None` fires on every hit.
        context: Option<String>,
        action: FailAction,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `point` with `action`, optionally filtered to hits whose
    /// context equals `context`. Re-arming replaces the previous action.
    pub fn set(point: &str, context: Option<&str>, action: FailAction) {
        registry().lock().expect("failpoint registry").insert(
            point.to_string(),
            Armed {
                context: context.map(str::to_string),
                action,
            },
        );
    }

    /// Disarms every failpoint.
    pub fn clear_all() {
        registry().lock().expect("failpoint registry").clear();
    }

    /// Looks up the action armed for a `(point, context)` hit, if any.
    fn armed_action(point: &str, context: &str) -> Option<FailAction> {
        let reg = registry().lock().expect("failpoint registry");
        match reg.get(point) {
            Some(armed) if armed.context.as_deref().is_none_or(|c| c == context) => {
                Some(armed.action.clone())
            }
            _ => None,
        }
    }

    /// Called by the pipeline at each instrumented site. A [`Flag`]
    /// action is ignored here — only [`hit_flagged`] sites can act on it.
    ///
    /// [`Flag`]: FailAction::Flag
    pub fn hit(point: &str, context: &str) {
        match armed_action(point, context) {
            Some(FailAction::Panic(message)) => {
                panic!("failpoint {point} ({context}): {message}")
            }
            Some(FailAction::Stall(duration)) => std::thread::sleep(duration),
            Some(FailAction::Flag) | None => {}
        }
    }

    /// Like [`hit`], but additionally reports whether the site was armed
    /// with [`FailAction::Flag`] — the site then simulates a failure in
    /// whatever way is native to it (the serve layer, for example, drops
    /// the connection instead of replying). Panic and stall actions
    /// behave exactly as in [`hit`] and return `false`.
    pub fn hit_flagged(point: &str, context: &str) -> bool {
        match armed_action(point, context) {
            Some(FailAction::Flag) => true,
            Some(FailAction::Panic(message)) => {
                panic!("failpoint {point} ({context}): {message}")
            }
            Some(FailAction::Stall(duration)) => {
                std::thread::sleep(duration);
                false
            }
            None => false,
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{clear_all, hit, hit_flagged, set, FailAction};

/// No-op hook when the `failpoints` feature is off.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit(_point: &str, _context: &str) {}

/// No-op flag query when the `failpoints` feature is off: never armed.
///
/// Exported unconditionally so downstream crates (the serve tier's chaos
/// layer) can instrument sites without growing a feature of their own —
/// the hook is one inlined `false` until something in the build graph
/// turns `ltt-core/failpoints` on.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit_flagged(_point: &str, _context: &str) -> bool {
    false
}
