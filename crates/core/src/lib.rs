//! Waveform-narrowing gate-level timing verification with propagation of
//! last-transition-time constraints.
//!
//! This crate is a from-scratch implementation of Kassab, Cerny, Aourid &
//! Krodel, *"Propagation of Last-Transition-Time Constraints in Gate-Level
//! Timing Analysis"* (DATE 1998). The timing check `σ = (ξ, s, δ)` — *can
//! output `s` of circuit `ξ` transition at or after time `δ`?* — becomes a
//! constraint-satisfaction problem over abstract signals
//! ([`ltt_waveform::Signal`]); the pipeline then applies, in order:
//!
//! 1. **Waveform narrowing** ([`Narrower`], [`projection`]) — event-driven
//!    chaotic iteration of sound per-gate interval projections to the
//!    greatest fixpoint (§3, Fig. 4), optionally boosted by SOCRATES-style
//!    **static learning** ([`ImplicationTable`]);
//! 2. **Global implications on timing dominators** ([`carriers`]) — every
//!    violation-carrying path runs through the dominators of the
//!    (static/dynamic) carrier circuit, so waveforms settling before
//!    `δ − distance` are removed there (§4, Lemma 3 / Theorem 3 /
//!    Corollary 1);
//! 3. **Stem correlation** ([`stems`]) — per-stem class splits whose union
//!    removes waveforms incompatible with both classes (§5);
//! 4. **Case analysis** ([`fan`]) — FAN-adapted, SCOAP-guided waveform
//!    splitting that finds a certified violating test vector or proves no
//!    violation is possible (§5).
//!
//! Every check runs through a [`CheckSession`]: it computes each
//! per-circuit analysis once, on first use, seeds each check from a
//! shared base fixpoint, answers a check that fixpoint already refutes
//! without building anything more, and runs any other check of output
//! `s` on `s`'s fanin cone only. Each check passes through the four stages in order, and
//! each stage's wall-clock and solver effort land in a [`PerStage`]
//! record. Its methods are [`CheckSession::verify`] (one check,
//! with the per-stage verdicts of the paper's Table 1) and
//! [`CheckSession::exact_delay`] (binary search for the exact
//! floating-mode delay). A [`BatchRunner`] fans the checks of a session out over worker threads —
//! all outputs at one δ, every output's delay search — and its parallel
//! results are bit-identical to serial ones by construction.
//!
//! The session also answers with a second, independent decider: the
//! CNF/CDCL backend of the [`sat`] module. The config's [`Engine`] picks
//! narrowing, SAT, or narrowing with a SAT fallback when its budget trips.
//!
//! # Example
//!
//! The paper's running example (Fig. 1 / Example 2): topological delay 70,
//! floating-mode delay 60 because the longest path is false.
//!
//! ```
//! use ltt_core::{CheckSession, VerifyConfig};
//! use ltt_netlist::generators::figure1;
//!
//! let circuit = figure1(10);
//! let s = circuit.outputs()[0];
//! let session = CheckSession::new(&circuit, VerifyConfig::default());
//!
//! // δ = 61: proven impossible (the 70-path cannot propagate).
//! assert!(session.verify(s, 61).verdict.is_no_violation());
//!
//! // Exact delay: 60, with a certified witness vector.
//! let search = session.exact_delay(s);
//! assert_eq!(search.delay, 60);
//! assert!(search.proven_exact);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod budget;
pub mod carriers;
mod cdcl;
mod check;
pub mod domain;
mod encode;
mod engine;
pub mod error;
pub mod explain;
pub mod failpoint;
pub mod fan;
pub mod learning;
pub mod obs;
pub mod prepared;
pub mod projection;
pub mod sat;
pub mod scoap;
pub mod solver;
pub mod stems;

pub use batch::{available_jobs, BatchCheck, BatchError, BatchOutcome, BatchRunner, BatchSummary};
pub use budget::{ArmedBudget, Budget, CancelToken, TripReason};
pub use cdcl::CdclStats;
pub use check::{
    Completeness, DelayMode, DelaySearch, Engine, LearningMode, PerStage, Stage, StageEffort,
    StageTimes, StageValue, Verdict, VerifyConfig, VerifyReport,
};
pub use domain::{Checkpoint, SignalStore};
pub use error::{CheckError, Error};
pub use explain::{explain, Explanation};
pub use fan::{fill_level, CaseConfig, CaseOutcome, CaseScope, CaseStats};
pub use learning::ImplicationTable;
pub use obs::{Obs, Recorder, Span, SpanStart};
pub use prepared::{CheckSession, Cone, Patch};
pub use projection::{project, GateProjection};
pub use solver::{FixpointResult, NarrowScope, Narrower, SolverStats};
pub use stems::StemStats;
