//! Engine dispatch: routes checks to narrowing, SAT, or the hybrid
//! fallback according to [`VerifyConfig::engine`].
//!
//! The hybrid contract: run the narrowing pipeline first; when (and only
//! when) it returns [`Completeness::BudgetExhausted`], re-decide the
//! check with the CNF/CDCL backend under the same per-check budget. A
//! SAT decision upgrades the verdict to an exact one; a SAT budget trip
//! leaves the narrowing report untouched. Delay searches tighten the
//! `[lower, upper]` interval the same way — every SAT probe either
//! raises the certified lower bound (a model is a concrete witness
//! vector) or lowers the proven upper bound (UNSAT at δ rules out every
//! δ′ ≥ δ by monotonicity of `settle ≥`), so the hybrid interval is
//! always at least as tight as the narrowing one.

use crate::cdcl::{CdclStats, SatResult};
use crate::encode::{encode_check, EncodeError, Encoded};
use ltt_core::{
    BatchCheck, BatchSummary, Budget, CheckSession, Completeness, DelaySearch, Engine, Stage,
    StageVerdict, TripReason, Verdict, VerifyReport,
};
use ltt_netlist::{Circuit, NetId};
use ltt_sta::{vector_delay, vector_violates};
use std::time::Instant;

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
    match encode_check(circuit, output, delta, budget) {
        Err(EncodeError::Budget(reason)) => SatCheck {
            verdict: SatVerdict::Unknown(reason),
            stats: CdclStats::default(),
        },
        Err(EncodeError::GridTooLarge { .. }) => SatCheck {
            verdict: SatVerdict::Unknown(TripReason::GridTooLarge),
            stats: CdclStats::default(),
        },
        Ok(Encoded::AlwaysViolated) => SatCheck {
            verdict: SatVerdict::Violated(vec![false; circuit.inputs().len()]),
            stats: CdclStats::default(),
        },
        Ok(Encoded::NeverViolated) => SatCheck {
            verdict: SatVerdict::Safe,
            stats: CdclStats::default(),
        },
        Ok(Encoded::Cnf(mut cnf)) => {
            let result = cnf.solver.solve(budget);
            let stats = cnf.solver.stats;
            let verdict = match result {
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
            SatCheck { verdict, stats }
        }
    }
}

/// Builds a [`VerifyReport`] from a SAT decision (stage = [`Stage::Sat`]).
fn sat_report(output: NetId, delta: i64, check: SatCheck, started: Instant) -> VerifyReport {
    let (verdict, completeness) = match check.verdict {
        SatVerdict::Violated(vector) => (Verdict::Violation { vector }, Completeness::Exact),
        SatVerdict::Safe => (
            Verdict::NoViolation { stage: Stage::Sat },
            Completeness::Exact,
        ),
        SatVerdict::Unknown(reason) => (
            Verdict::Abandoned,
            Completeness::BudgetExhausted {
                stage: Stage::Sat,
                reason,
            },
        ),
    };
    // Propagations are the SAT analogue of narrowing events; surfacing
    // them keeps `effort`-style accounting meaningful across engines.
    let solver = ltt_core::SolverStats {
        events: check.stats.propagations,
        ..Default::default()
    };
    VerifyReport {
        output,
        delta,
        verdict,
        completeness,
        before_gitd: StageVerdict::Possible,
        after_gitd: None,
        after_stems: None,
        backtracks: check.stats.conflicts,
        solver,
        stems: Default::default(),
        case: Default::default(),
        stage_times: Default::default(),
        effort: Default::default(),
        elapsed: started.elapsed(),
    }
}

/// Runs the check through the engine selected by the session's config
/// (with `extra` merged into the per-check budget, serve-style).
pub fn verify_budgeted(
    session: &CheckSession<'_>,
    output: NetId,
    delta: i64,
    extra: &Budget,
) -> VerifyReport {
    verify_with_engine(session, session.config().engine, output, delta, extra)
}

/// [`verify_budgeted`] with the engine chosen per call instead of by the
/// session config — the serve daemon shares one registered session across
/// requests that may each ask for a different `opts.engine`.
pub fn verify_with_engine(
    session: &CheckSession<'_>,
    engine: Engine,
    output: NetId,
    delta: i64,
    extra: &Budget,
) -> VerifyReport {
    match engine {
        Engine::Narrow => session.verify_budgeted(output, delta, extra),
        Engine::Sat => {
            let started = Instant::now();
            let budget = session.config().budget.merged(extra);
            let check = sat_decide(session.circuit(), output, delta, &budget);
            sat_report(output, delta, check, started)
        }
        Engine::Hybrid => {
            let report = session.verify_budgeted(output, delta, extra);
            if report.completeness.is_exact() {
                return report;
            }
            // Narrowing exhausted its budget: one SAT attempt under the
            // same per-check limits. A decision replaces the abandoned
            // report; another trip keeps it.
            let started = Instant::now();
            let budget = session.config().budget.merged(extra);
            let check = sat_decide(session.circuit(), output, delta, &budget);
            match check.verdict {
                SatVerdict::Unknown(_) => report,
                decided => {
                    let mut upgraded = sat_report(
                        output,
                        delta,
                        SatCheck {
                            verdict: decided,
                            stats: check.stats,
                        },
                        started,
                    );
                    // Keep the narrowing effort visible in the upgrade.
                    upgraded.backtracks += report.backtracks;
                    upgraded.solver = upgraded.solver.saturating_add(&report.solver);
                    upgraded.elapsed = report.elapsed.saturating_add(upgraded.elapsed);
                    upgraded
                }
            }
        }
    }
}

/// [`verify_budgeted`] with no extra budget.
pub fn verify(session: &CheckSession<'_>, output: NetId, delta: i64) -> VerifyReport {
    verify_budgeted(session, output, delta, &Budget::unlimited())
}

/// Exact-delay search through the configured engine.
///
/// * `Narrow` delegates to the session's bisection.
/// * `Sat` bisects with SAT probes only.
/// * `Hybrid` runs the narrowing search first and, when it comes back
///   inexact, keeps bisecting the remaining `[lower, upper]` gap with SAT
///   probes (each under the per-check budget) — tightening the interval
///   instead of giving up.
pub fn exact_delay_budgeted(
    session: &CheckSession<'_>,
    output: NetId,
    extra: &Budget,
) -> DelaySearch {
    exact_delay_with_engine(session, session.config().engine, output, extra)
}

/// [`exact_delay_budgeted`] with the engine chosen per call (see
/// [`verify_with_engine`]).
pub fn exact_delay_with_engine(
    session: &CheckSession<'_>,
    engine: Engine,
    output: NetId,
    extra: &Budget,
) -> DelaySearch {
    match engine {
        Engine::Narrow => session.exact_delay_budgeted(output, extra),
        Engine::Sat => {
            let budget = session.config().budget.merged(extra);
            let top = session.circuit().topological_delay();
            sat_bisect(
                session.circuit(),
                output,
                &budget,
                DelaySearch {
                    delay: 0,
                    vector: None,
                    proven_exact: false,
                    upper_bound: top,
                    backtracks: 0,
                    probes: Vec::new(),
                },
            )
        }
        Engine::Hybrid => {
            let search = session.exact_delay_budgeted(output, extra);
            if search.proven_exact {
                return search;
            }
            let budget = session.config().budget.merged(extra);
            sat_bisect(session.circuit(), output, &budget, search)
        }
    }
}

/// [`exact_delay_budgeted`] with no extra budget.
pub fn exact_delay(session: &CheckSession<'_>, output: NetId) -> DelaySearch {
    exact_delay_budgeted(session, output, &Budget::unlimited())
}

/// Runs a batch of checks through the configured engine, producing the
/// same [`BatchCheck`] shape as the core batch runner so front-ends
/// (CLI, serve) can swap engines without changing their reporting paths.
/// Checks run serially — the SAT backend is the cross-check/fallback
/// path, not the throughput path.
pub fn run_checks(
    session: &CheckSession<'_>,
    engine: Engine,
    checks: &[(NetId, i64)],
    extra: &Budget,
    fail_fast: bool,
) -> BatchCheck {
    let started = Instant::now();
    let mut reports = Vec::with_capacity(checks.len());
    let mut skipped = 0u64;
    for &(output, delta) in checks {
        let r = verify_with_engine(session, engine, output, delta, extra);
        let violated = matches!(r.verdict, Verdict::Violation { .. });
        reports.push(r);
        if violated && fail_fast {
            skipped = (checks.len() - reports.len()) as u64;
            break;
        }
    }
    let mut summary = BatchSummary::aggregate(&reports);
    summary.skipped = skipped;
    BatchCheck {
        reports,
        errors: Vec::new(),
        summary,
        wall: started.elapsed(),
    }
}

/// Bisects the violation frontier with SAT probes, starting from (and
/// never loosening) the interval carried by `search`: a model at δ is a
/// certified witness raising `delay`, an UNSAT at δ proves every δ′ ≥ δ
/// safe, lowering `upper_bound` to δ − 1. A probe trip stops the search
/// with the interval proven so far.
fn sat_bisect(
    circuit: &Circuit,
    output: NetId,
    budget: &Budget,
    mut search: DelaySearch,
) -> DelaySearch {
    // Invariant: a violation at `lo` is demonstrated (or lo = 0, trivially
    // demonstrated by any vector settling at ≥ 0) and hi = upper_bound + 1
    // is proven violation-free.
    let mut lo = search.delay.max(0);
    let mut hi = search.upper_bound + 1;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        let started = Instant::now();
        let check = sat_decide(circuit, output, mid, budget);
        search.backtracks += check.stats.conflicts;
        match check.verdict.clone() {
            SatVerdict::Violated(vector) => {
                // The witness's true delay can beat the probe point;
                // credit the whole jump.
                lo = lo.max(vector_delay(circuit, &vector, output)).max(mid);
                search.vector = Some(vector);
            }
            SatVerdict::Safe => hi = mid,
            SatVerdict::Unknown(_) => {
                search.probes.push(sat_report(output, mid, check, started));
                break;
            }
        }
        search.probes.push(sat_report(output, mid, check, started));
    }
    search.delay = lo;
    search.upper_bound = hi - 1;
    search.proven_exact = lo + 1 == hi;
    search
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_core::VerifyConfig;
    use ltt_netlist::generators::figure1;

    fn session_with(circuit: &Circuit, engine: Engine) -> CheckSession<'_> {
        let config = VerifyConfig {
            engine,
            ..Default::default()
        };
        CheckSession::new(circuit, config)
    }

    #[test]
    fn sat_engine_matches_narrowing_on_figure1() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let sat = session_with(&c, Engine::Sat);
        let narrow = session_with(&c, Engine::Narrow);
        for delta in [50, 60, 61, 70, 71] {
            let rs = verify(&sat, s, delta);
            let rn = verify(&narrow, s, delta);
            assert_eq!(
                rs.verdict.is_violation(),
                rn.verdict.is_violation(),
                "δ={delta}"
            );
            assert_eq!(
                rs.verdict.is_no_violation(),
                rn.verdict.is_no_violation(),
                "δ={delta}"
            );
        }
    }

    #[test]
    fn sat_exact_delay_is_60_on_figure1() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let session = session_with(&c, Engine::Sat);
        let search = exact_delay(&session, s);
        assert!(search.proven_exact);
        assert_eq!(search.delay, 60);
        assert_eq!(search.upper_bound, 60);
        let w = search.vector.expect("witness");
        assert_eq!(vector_delay(&c, &w, s), 60);
    }

    #[test]
    fn hybrid_without_pressure_equals_narrowing() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let hybrid = session_with(&c, Engine::Hybrid);
        let r = verify(&hybrid, s, 61);
        assert!(r.verdict.is_no_violation());
        assert!(r.completeness.is_exact());
    }

    /// A reconvergent ladder with power-of-two gate delays: stage `k`
    /// joins `x_k` with a copy of itself delayed by `2^k`, so every subset
    /// sum of the delays is a distinct settle time and the settle grid of
    /// `x_k` doubles per stage. Twenty-one stages put the cumulative grid
    /// past the encoder's threshold-variable cap.
    fn power_of_two_ladder(stages: u32) -> Circuit {
        use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
        let mut b = CircuitBuilder::new("pow2_ladder");
        let mut x = b.input("x0");
        for k in 0..stages {
            let p = b.gate(
                format!("p{k}"),
                GateKind::Delay,
                &[x],
                DelayInterval::fixed(1 << k),
            );
            x = b.gate(
                format!("x{}", k + 1),
                GateKind::And,
                &[x, p],
                DelayInterval::fixed(1),
            );
        }
        b.mark_output(x);
        b.build().expect("valid ladder")
    }

    #[test]
    fn grid_cap_is_its_own_reason_and_never_a_verdict() {
        let c = power_of_two_ladder(21);
        let s = c.outputs()[0];
        let top = c.arrival_times()[s.index()];
        for delta in [top / 2, top, top + 1] {
            let check = sat_decide(&c, s, delta, &Budget::unlimited());
            assert_eq!(
                check.verdict,
                SatVerdict::Unknown(TripReason::GridTooLarge),
                "δ={delta}"
            );
        }
        let r = verify(&session_with(&c, Engine::Sat), s, top);
        assert_eq!(r.verdict, Verdict::Abandoned);
        assert_eq!(
            r.completeness,
            Completeness::BudgetExhausted {
                stage: Stage::Sat,
                reason: TripReason::GridTooLarge,
            }
        );
        assert_eq!(
            TripReason::GridTooLarge.to_string(),
            "settle grid too large"
        );
    }

    #[test]
    fn hybrid_decides_when_narrowing_budget_trips() {
        use ltt_netlist::generators::serial_false_path_gadgets;
        // A backtrack budget of 1 exhausts narrowing case analysis almost
        // immediately on the gadget chain; the SAT fallback must still
        // decide the check exactly.
        let c = serial_false_path_gadgets(6, 10);
        let s = c.outputs()[0];
        // Reference: full-budget narrowing bisection (proven exact), which
        // the SAT bisection must independently reproduce.
        let reference = CheckSession::new(&c, VerifyConfig::default()).exact_delay(s);
        assert!(reference.proven_exact);
        let exact = reference.delay;
        let sat_session = session_with(&c, Engine::Sat);
        let sat_search = exact_delay(&sat_session, s);
        assert!(sat_search.proven_exact);
        assert_eq!(sat_search.delay, exact, "SAT vs narrowing exact delay");
        // Strip the §4/§5 stages so the check truly rides on case
        // analysis, then cap it at one backtrack.
        let config = VerifyConfig {
            engine: Engine::Hybrid,
            max_backtracks: 1,
            dominators: false,
            stem_correlation: false,
            learning: ltt_core::LearningMode::Off,
            ..Default::default()
        };
        let session = CheckSession::new(&c, config.clone());
        let r = verify(&session, s, exact + 1);
        assert!(r.verdict.is_no_violation(), "{:?}", r.verdict);
        assert!(r.completeness.is_exact());

        // Narrowing alone abandons the same check.
        let narrow = CheckSession::new(
            &c,
            VerifyConfig {
                engine: Engine::Narrow,
                ..config
            },
        );
        let rn = narrow.verify(s, exact + 1);
        assert!(!rn.completeness.is_exact(), "{:?}", rn.completeness);
    }
}
