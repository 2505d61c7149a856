//! The second decider: the CNF/CDCL backend.
//!
//! It re-decides the floating-mode timing check σ = (ξ, s, δ) with a
//! method independent of waveform narrowing: the `encode` module unrolls
//! the last-transition-time semantics into CNF over per-net settle grids,
//! and `cdcl` is a clean-room CDCL solver (two-watched literals,
//! first-UIP learning, Luby restarts) that polls the [`Budget`] so it
//! composes with deadlines and cancellation.
//!
//! The backend (this module, `encode` and `cdcl`) imports only the
//! netlist, `ltt_sta`, `budget` and `failpoint` — nothing of the
//! narrowing modules (`solver`, `projection`, `fan`, `carriers`, `stems`,
//! `learning`); a unit test below enforces it. The two engines therefore
//! share only the netlist, which is what makes their agreement (fuzzed in
//! `tests/engine_differential.rs`) evidence against soundness bugs in
//! either. `CheckSession` chooses between them per `Engine` (DESIGN.md
//! §15).

use crate::budget::{Budget, TripReason};
use crate::encode::{encode, SettleBounds};
use ltt_netlist::{Circuit, NetId};
use ltt_sta::vector_violates;

pub use crate::cdcl::{CdclStats, Lit, SatResult, Solver, Var};
pub use crate::encode::{encode_check, CnfCheck, EncodeError, Encoded};

/// Outcome of one SAT decision of a check `(output, δ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatVerdict {
    /// A certified violating vector (its floating-mode delay is ≥ δ).
    Violated(Vec<bool>),
    /// No input vector violates the check.
    Safe,
    /// The budget tripped (or the grid blew past its cap) first.
    Unknown(TripReason),
}

/// A SAT decision plus the solver effort it took.
#[derive(Clone, Debug)]
pub struct SatCheck {
    /// The decision.
    pub verdict: SatVerdict,
    /// CDCL counters (zero when the grid analysis decided outright).
    pub stats: CdclStats,
}

/// Decides the check `(output, δ)` with the CNF/CDCL backend under
/// `budget`. Witness vectors are certified against the exact simulator
/// before being reported; a failed certificate (an encoder bug, never
/// observed) degrades to `Unknown` rather than report a wrong verdict.
pub fn sat_decide(circuit: &Circuit, output: NetId, delta: i64, budget: &Budget) -> SatCheck {
    decide(circuit, output, delta, None, budget)
}

/// [`sat_decide`], given the output's settle `bounds` when the caller has
/// them cached: a check outside them is then decided after one budget
/// poll, without touching the circuit.
pub(crate) fn decide(
    circuit: &Circuit,
    output: NetId,
    delta: i64,
    bounds: Option<SettleBounds>,
    budget: &Budget,
) -> SatCheck {
    let verdict = match encode(circuit, output, delta, bounds, &mut budget.arm()) {
        Err(EncodeError::Budget(reason)) => SatVerdict::Unknown(reason),
        Err(EncodeError::GridTooLarge { .. }) => SatVerdict::Unknown(TripReason::GridTooLarge),
        Ok(Encoded::AlwaysViolated) => SatVerdict::Violated(vec![false; circuit.inputs().len()]),
        Ok(Encoded::NeverViolated) => SatVerdict::Safe,
        Ok(Encoded::Cnf(mut cnf)) => {
            let verdict = match cnf.solver.solve(budget) {
                SatResult::Sat(model) => {
                    let witness = cnf.witness(&model);
                    if vector_violates(circuit, &witness, output, delta) {
                        SatVerdict::Violated(witness)
                    } else {
                        debug_assert!(false, "SAT witness failed certification");
                        SatVerdict::Unknown(TripReason::Events)
                    }
                }
                SatResult::Unsat => SatVerdict::Safe,
                SatResult::Unknown(reason) => SatVerdict::Unknown(reason),
            };
            let stats = cnf.solver.stats;
            return SatCheck { verdict, stats };
        }
    };
    // Decided (or cut short) without a solver run.
    let stats = CdclStats::default();
    SatCheck { verdict, stats }
}

#[cfg(test)]
mod tests {
    /// The modules of the backend may reach into this crate only for the
    /// budget and the failpoints (and each other).
    #[test]
    fn backend_imports_no_narrowing_module() {
        let allowed = ["budget", "failpoint", "cdcl", "encode"];
        let needle = concat!("crate", "::");
        for (file, source) in [
            ("sat.rs", include_str!("sat.rs")),
            ("cdcl.rs", include_str!("cdcl.rs")),
            ("encode.rs", include_str!("encode.rs")),
        ] {
            for (at, _) in source.match_indices(needle) {
                let module: String = source[at + needle.len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                assert!(
                    allowed.contains(&module.as_str()),
                    "{file} imports the {module} module"
                );
            }
        }
    }
}
