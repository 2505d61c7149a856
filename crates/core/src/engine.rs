//! Engine dispatch: [`CheckSession`] answers each check with the engine
//! its config (or a [`BatchRunner`](crate::BatchRunner) override) names.
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

use crate::budget::Budget;
use crate::check::{
    one_stage_check, DelayMode, DelaySearch, Engine, Stage, StageTimes, Verdict, VerifyConfig,
    VerifyReport,
};
use crate::prepared::{CheckSession, Route};
use crate::sat;
use ltt_netlist::NetId;
use ltt_sta::{sampled_floating_delay_until, vector_delay};
use ltt_waveform::Level;
use std::time::Instant;

impl CheckSession<'_> {
    /// Runs the check `(output, δ)` through `engine`, with `extra` merged
    /// into the session's budget.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is not [`Engine::Narrow`] and `assumptions` is
    /// not empty or the session is in [`DelayMode::Transition`] (the CNF
    /// encoder cannot pin nets and models floating mode only).
    pub(crate) fn check(
        &self,
        engine: Engine,
        output: NetId,
        delta: i64,
        assumptions: &[(NetId, Level)],
        extra: &Budget,
    ) -> VerifyReport {
        require_narrow_for(engine, self.config().delay_mode, assumptions);
        // An unlimited `extra` keeps the session's config: no clone on the
        // common path.
        let merged;
        let config = if extra.is_unlimited() {
            self.config()
        } else {
            merged = VerifyConfig {
                budget: self.config().budget.merged(extra),
                ..self.config().clone()
            };
            &merged
        };
        if engine == Engine::Sat {
            return self.sat_check(output, delta, &config.budget);
        }
        let report = self.run_check(Route::Cone, output, delta, config, assumptions);
        if engine == Engine::Narrow || report.completeness.is_exact() {
            return report;
        }
        // Hybrid, and narrowing exhausted its budget: one SAT attempt under
        // the same per-check limits. A decision replaces the abandoned
        // verdict; another trip keeps the narrowing report.
        let sat = self.sat_check(output, delta, &config.budget);
        if !sat.completeness.is_exact() {
            return report;
        }
        // The upgrade keeps the narrowing run's counters and adds the SAT
        // run's.
        VerifyReport {
            verdict: sat.verdict,
            completeness: sat.completeness,
            sat: sat.sat,
            stage_times: StageTimes {
                sat: sat.stage_times.sat,
                ..report.stage_times
            },
            elapsed: report.elapsed.saturating_add(sat.elapsed),
            ..report
        }
    }

    /// The CNF/CDCL answer to one check or search probe: stage 5 alone,
    /// decided with the output's cached settle bounds (a check outside
    /// them needs no encoding).
    fn sat_check(&self, output: NetId, delta: i64, budget: &Budget) -> VerifyReport {
        one_stage_check(self, output, delta, Stage::Sat, |report| {
            let bounds = self.settle_bounds()[output.index()];
            let check = sat::decide(self.circuit(), output, delta, Some(bounds), budget);
            report.sat = check.stats;
            check.verdict.into()
        })
    }

    /// The exact-delay search of `output` through `engine`, with every
    /// narrowing probe run along `route`: the one δ driver behind
    /// [`CheckSession::exact_delay`] and
    /// [`BatchRunner::exact_delays`](crate::BatchRunner::exact_delays).
    ///
    /// Every engine bisects `[0, arrival(output) + 1)` in up to two phases:
    ///
    /// 1. `Narrow` and `Hybrid`: narrowing probes. When a probe comes back
    ///    undecided, a search-free bisection (no case analysis) of the gap
    ///    recovers the upper bound and, in floating mode, Monte-Carlo
    ///    simulation the lower bound.
    /// 2. `Sat` and `Hybrid`: CNF/CDCL probes over whatever gap is left. A
    ///    model is a witness whose simulated delay raises the lower bound;
    ///    UNSAT at δ rules out every δ′ ≥ δ.
    ///
    /// The search is exact when the two bounds meet.
    ///
    /// # Panics
    ///
    /// Panics if the session is in [`DelayMode::Transition`] and `engine`
    /// is not [`Engine::Narrow`].
    pub(crate) fn search(
        &self,
        engine: Engine,
        route: Route,
        output: NetId,
        extra: &Budget,
    ) -> DelaySearch {
        require_narrow_for(engine, self.config().delay_mode, &[]);
        let budget = self.config().budget.merged(extra);
        // Inputs settle at 0, so δ = 0 is violated by any vector.
        let mut lo = 0;
        let mut hi = self.arrival_times()[output.index()] + 1;
        let mut vector = None;
        let mut probes = Vec::new();
        if engine != Engine::Sat {
            let config = VerifyConfig {
                budget: budget.clone(),
                ..self.config().clone()
            };
            let decided;
            (lo, hi, decided) = bisect(lo, hi, |mid| {
                let report = self.run_check(route, output, mid, &config, &[]);
                let step = Step::of(&report, &mut vector, |_| mid);
                probes.push(report);
                step
            });
            if !decided {
                // Upper bound: the smallest δ the search-free pipeline
                // still proves safe. The same budget applies: past an
                // absolute deadline every probe trips and counts as "not
                // proved", which only leaves the bound looser.
                let no_ca = VerifyConfig {
                    case_analysis: false,
                    ..config
                };
                (_, hi, _) = bisect(lo, hi, |mid| {
                    let report = self.run_check(route, output, mid, &no_ca, &[]);
                    let step = if report.verdict.is_no_violation() {
                        Step::Safe
                    } else {
                        Step::Raise(mid)
                    };
                    probes.push(report);
                    step
                });
                // Lower bound: any vector's floating-mode delay, sampled
                // under the budget's wall clock (at least one sample runs).
                if self.config().delay_mode == DelayMode::Floating {
                    let sampled = sampled_floating_delay_until(
                        self.circuit(),
                        output,
                        2_000,
                        0x5EED,
                        budget.absolute_deadline(Instant::now()),
                    );
                    if sampled.delay > lo {
                        lo = sampled.delay;
                        vector = Some(sampled.witness);
                    }
                }
            }
        }
        if engine != Engine::Narrow {
            (lo, hi, _) = bisect(lo, hi, |mid| {
                let report = self.sat_check(output, mid, &budget);
                // The witness's own delay can beat the probe point.
                let step = Step::of(&report, &mut vector, |v| {
                    vector_delay(self.circuit(), v, output)
                });
                probes.push(report);
                step
            });
        }
        DelaySearch {
            delay: lo,
            vector,
            proven_exact: lo + 1 == hi,
            upper_bound: hi - 1,
            probes,
        }
    }
}

/// What one bisection probe at δ showed.
enum Step {
    /// δ is not proven safe: the search goes on above `max(δ, bound)`
    /// (a witness's simulated delay may exceed δ).
    Raise(i64),
    /// δ is proven safe, and with it every δ′ ≥ δ.
    Safe,
    /// Undecided: the bisection stops here.
    Undecided,
}

impl Step {
    /// What a probe's report shows: a violation becomes the search's
    /// witness and raises the search to `raise(vector)`.
    fn of(
        report: &VerifyReport,
        witness: &mut Option<Vec<bool>>,
        raise: impl FnOnce(&[bool]) -> i64,
    ) -> Step {
        match &report.verdict {
            Verdict::Violation { vector } => {
                *witness = Some(vector.clone());
                Step::Raise(raise(vector))
            }
            Verdict::NoViolation { .. } => Step::Safe,
            Verdict::Possible | Verdict::Abandoned => Step::Undecided,
        }
    }
}

/// Bisects `[lo, hi)` with `probe`: `hi` stays proven safe, `lo` rises
/// only as far as a probe shows, and the first undecided probe stops the
/// loop. Returns the final `(lo, hi)` and whether no probe was undecided.
fn bisect(mut lo: i64, mut hi: i64, mut probe: impl FnMut(i64) -> Step) -> (i64, i64, bool) {
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        match probe(mid) {
            Step::Raise(bound) => lo = bound.max(mid),
            Step::Safe => hi = mid,
            Step::Undecided => return (lo, hi, false),
        }
    }
    (lo, hi, true)
}

/// Panics unless `engine` can answer a check under `mode` and
/// `assumptions`: the CNF encoder models floating mode only and has no
/// notion of pinned nets, so it would report verdicts and witnesses of a
/// different question.
pub(crate) fn require_narrow_for(engine: Engine, mode: DelayMode, assumptions: &[(NetId, Level)]) {
    assert!(
        assumptions.is_empty() || engine == Engine::Narrow,
        "assumptions need the narrow engine, not {}",
        engine.name()
    );
    assert!(
        mode == DelayMode::Floating || engine == Engine::Narrow,
        "transition mode needs the narrow engine, not {}",
        engine.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Encoded, SatVerdict};
    use crate::{
        BatchRunner, CdclStats, Completeness, LearningMode, Obs, Recorder, StageEffort, TripReason,
        VerifyConfig,
    };
    use ltt_netlist::generators::{figure1, serial_false_path_gadgets};
    use ltt_netlist::Circuit;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::Duration;

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
            let rs = sat.verify(s, delta);
            let rn = narrow.verify(s, delta);
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
        let search = session.exact_delay(s);
        assert!(search.proven_exact);
        assert_eq!(search.delay, 60);
        assert_eq!(search.upper_bound, 60);
        let w = search.vector.expect("witness");
        assert_eq!(vector_delay(&c, &w, s), 60);
    }

    /// Every entry point of a SAT session answers with the SAT engine, and
    /// a runner's engine override reaches a narrowing session's checks.
    #[test]
    fn sat_session_answers_through_every_entry_point() {
        let c = figure1(10);
        let s = c.outputs()[0];
        // A SAT report carries no narrowing effort; a narrowing one does.
        let by_sat = |r: &VerifyReport| match r.verdict {
            Verdict::NoViolation { stage } => stage == Stage::Sat,
            Verdict::Violation { .. } => r.effort == StageEffort::default(),
            _ => false,
        };
        let session = session_with(&c, Engine::Sat);
        assert_eq!(
            session.verify(s, 61).verdict,
            Verdict::NoViolation { stage: Stage::Sat }
        );
        let batch = BatchRunner::new(2).run(&session, &[(s, 61), (s, 70)]);
        assert!(batch
            .reports
            .iter()
            .all(|r| r.verdict == Verdict::NoViolation { stage: Stage::Sat }));
        let searches = BatchRunner::new(2).exact_delays(&session, c.outputs());
        let search = searches[0].as_ref().expect("search ran");
        assert_eq!(search.delay, 60);
        assert!(search.probes.iter().all(by_sat));
        assert!(search
            .probes
            .iter()
            .any(|p| p.verdict == Verdict::NoViolation { stage: Stage::Sat }));

        let narrow = session_with(&c, Engine::Narrow);
        let batch = BatchRunner::serial()
            .with_engine(Engine::Sat)
            .run(&narrow, &[(s, 61)]);
        assert_eq!(
            batch.reports[0].verdict,
            Verdict::NoViolation { stage: Stage::Sat }
        );
    }

    /// A SAT session never learns the implication table nor computes the
    /// base fixpoint: not when opened, warmed, checked or rebased.
    #[test]
    fn sat_session_prepares_nothing_narrowing_reads() {
        let c = Arc::new(figure1(10));
        let s = c.outputs()[0];
        let recorder = Arc::new(Recorder::new());
        let config = VerifyConfig {
            engine: Engine::Sat,
            obs: Obs::recording(recorder.clone()),
            ..Default::default()
        };
        let session = CheckSession::new_shared(c.clone(), config);
        session.warm_up();
        assert!(session.verify(s, 60).verdict.is_violation());
        assert_eq!(session.exact_delay(s).delay, 60);
        let gate = c.net(s).driver().expect("driven output");
        let delay = c.gate(gate).delay();
        let edit = c
            .apply_edit(&[ltt_netlist::CircuitEdit::SetDelay {
                gate,
                delay: ltt_netlist::DelayInterval::new(delay.min() + 1, delay.max() + 1),
            }])
            .expect("delay edit applies");
        let rebased = session.rebase(Arc::new(edit.circuit), &edit.dirty, edit.structural);
        assert_eq!(rebased.exact_delay(s).delay, 61);
        let prepared: Vec<&str> = recorder
            .spans()
            .iter()
            .map(|span| span.name)
            .filter(|name| *name == "prepare.static_learning" || *name == "prepare.base_fixpoint")
            .collect();
        assert!(prepared.is_empty(), "{prepared:?}");
    }

    /// Every net's full settle grid by brute force: inputs settle at 0, a
    /// gate output at every input settle time plus `dmax`.
    fn full_grids(c: &Circuit) -> Vec<BTreeSet<i64>> {
        let mut grids = vec![BTreeSet::from([0]); c.num_nets()];
        for &gid in c.topo_gates() {
            let gate = c.gate(gid);
            let d = i64::from(gate.dmax());
            let grid: BTreeSet<i64> = gate
                .inputs()
                .iter()
                .flat_map(|n| grids[n.index()].iter().map(move |&t| t + d))
                .collect();
            grids[gate.output().index()] = grid;
        }
        grids
    }

    fn class_name(decided: Option<&Encoded>) -> &'static str {
        match decided {
            Some(Encoded::AlwaysViolated) => "always",
            Some(Encoded::NeverViolated) => "never",
            Some(Encoded::Cnf(_)) | None => "cnf",
        }
    }

    /// `c` with every gate's delay replaced by a pseudo-random interval
    /// `[min, max]`, `min < max`, so bounds taken from `dmin` would differ.
    fn with_delay_intervals(c: &Circuit, seed: u64) -> Circuit {
        use ltt_netlist::{CircuitEdit, DelayInterval};
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let edits: Vec<CircuitEdit> = c
            .topo_gates()
            .iter()
            .map(|&gate| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let max = 2 + (state % 11) as u32;
                let min = (state >> 8) as u32 % max;
                CircuitEdit::SetDelay {
                    gate,
                    delay: DelayInterval::new(min, max),
                }
            })
            .collect();
        c.apply_edit(&edits).expect("delay edits apply").circuit
    }

    /// The session classifies each SAT check against its cached settle
    /// bounds exactly as the encoder's rule does on brute-force full grids,
    /// and as the free `encode_check` does, on both sides of each bound.
    #[test]
    fn session_settle_bounds_classify_like_full_grids() {
        use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
        let mut circuits: Vec<Circuit> = ltt_netlist::suite::iscas85_suite(10)
            .into_iter()
            .filter(|e| e.circuit.num_gates() <= 2_000)
            .map(|e| e.circuit)
            .collect();
        for seed in 0..8 {
            let c = random_circuit(&RandomCircuitConfig {
                num_inputs: 6,
                num_gates: 40,
                num_outputs: 4,
                seed: 0xB0_0D5 + seed,
                ..Default::default()
            });
            circuits.push(with_delay_intervals(&c, seed));
            circuits.push(c);
        }
        let mut open = 0;
        for c in &circuits {
            let session = session_with(c, Engine::Sat);
            let grids = full_grids(c);
            for &s in c.outputs() {
                let grid = &grids[s.index()];
                let (first, last) = (*grid.first().unwrap(), *grid.last().unwrap());
                for delta in [first - 1, first, first + 1, last, last + 1] {
                    let brute = if delta <= first {
                        "always"
                    } else if delta > last {
                        "never"
                    } else {
                        "cnf"
                    };
                    let cached = session.settle_bounds()[s.index()].classify(delta);
                    let free = sat::encode_check(c, s, delta, &Budget::unlimited())
                        .expect("test circuits encode");
                    let at = format!("{} {} δ={delta}", c.name(), c.net(s).name());
                    assert_eq!(class_name(cached.as_ref()), brute, "session, {at}");
                    assert_eq!(class_name(Some(&free)), brute, "encode_check, {at}");
                    open += usize::from(brute == "cnf");
                }
            }
        }
        assert!(open > 0, "no check fell inside a settle span");
    }

    /// A rebase recomputes the settle bounds: a delay edit that moves the
    /// critical output's latest settle time past its old bound leaves a
    /// check there open, not grid-decided from stale bounds.
    #[test]
    fn rebased_sat_session_recomputes_settle_bounds() {
        let c = Arc::new(ltt_netlist::suite::c17(10));
        let s = c.outputs()[0];
        let session = CheckSession::new_shared(
            c.clone(),
            VerifyConfig {
                engine: Engine::Sat,
                ..Default::default()
            },
        );
        let last = session.settle_bounds()[s.index()].last;
        assert!(session.verify(s, last).verdict.is_violation());
        let gate = c.net(s).driver().expect("driven output");
        let delay = c.gate(gate).delay();
        let edit = c
            .apply_edit(&[ltt_netlist::CircuitEdit::SetDelay {
                gate,
                delay: ltt_netlist::DelayInterval::new(delay.min() + 1, delay.max() + 1),
            }])
            .expect("delay edit applies");
        let rebased = session.rebase(Arc::new(edit.circuit), &edit.dirty, edit.structural);
        assert_eq!(
            rebased.settle_bounds(),
            crate::encode::settle_bounds(rebased.circuit())
        );
        assert_eq!(rebased.settle_bounds()[s.index()].last, last + 1);
        assert!(rebased.verify(s, last + 1).verdict.is_violation());
    }

    #[test]
    #[should_panic(expected = "assumptions need the narrow engine")]
    fn sat_session_rejects_assumptions() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let e5 = c.net_by_name("e5").expect("figure1 has e5");
        let session = session_with(&c, Engine::Sat);
        let _ = BatchRunner::serial().run_under(&session, &[(s, 60)], &[(e5, Level::Zero)]);
    }

    #[test]
    #[should_panic(expected = "transition mode needs the narrow engine")]
    fn sat_session_rejects_transition_mode() {
        let c = figure1(10);
        let config = VerifyConfig {
            engine: Engine::Sat,
            delay_mode: DelayMode::Transition,
            ..Default::default()
        };
        let _ = CheckSession::new(&c, config).exact_delay(c.outputs()[0]);
    }

    /// Every engine's search starts from the output's own arrival time,
    /// not the circuit's topological delay.
    #[test]
    fn sat_search_probes_nothing_above_the_output_arrival() {
        let c = ltt_netlist::suite::iscas85_suite(10)
            .into_iter()
            .find(|e| e.name == "s432")
            .expect("s432 in the suite")
            .circuit;
        let session = session_with(&c, Engine::Sat);
        let arrival = session.arrival_times();
        let s = *c
            .outputs()
            .iter()
            .find(|&&o| arrival[o.index()] < c.topological_delay())
            .expect("an s432 output off the critical path");
        let search = session.exact_delay(s);
        assert!(search.proven_exact);
        assert!(search.upper_bound <= arrival[s.index()]);
        assert!(!search.probes.is_empty());
        assert!(search.probes.iter().all(|p| p.delta <= arrival[s.index()]));
    }

    #[test]
    fn hybrid_without_pressure_equals_narrowing() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let hybrid = session_with(&c, Engine::Hybrid);
        let r = hybrid.verify(s, 61);
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
            let check = sat::sat_decide(&c, s, delta, &Budget::unlimited());
            assert_eq!(
                check.verdict,
                SatVerdict::Unknown(TripReason::GridTooLarge),
                "δ={delta}"
            );
        }
        let r = session_with(&c, Engine::Sat).verify(s, top);
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

    /// Every kind of report partitions its wall-clock into its stage
    /// clocks: each stage ends with one clock read, and `elapsed` is the
    /// sum of the stage times.
    #[test]
    fn stage_times_partition_elapsed_on_every_report() {
        let check = |what: &str, r: &VerifyReport| {
            assert_eq!(r.stage_times.total(), r.elapsed, "{what} δ={}", r.delta);
        };
        // c17's output cones are strict subsets, so its checks run sliced.
        let c = ltt_netlist::suite::c17(10);
        let narrow = session_with(&c, Engine::Narrow);
        for &s in c.outputs() {
            check("sliced", &narrow.verify(s, 30));
            check("masked reference", &narrow.verify_masked_reference(s, 30));
            check("whole reference", &narrow.verify_whole_reference(s, 30));
            let refuted = narrow.verify(s, 31);
            assert_eq!(refuted.effort, StageEffort::default());
            check("base-refuted", &refuted);
            for probe in &narrow.exact_delay(s).probes {
                check("narrowing probe", probe);
            }
        }
        let c = figure1(10);
        let s = c.outputs()[0];
        for delta in [60, 61] {
            check(
                "figure1",
                &session_with(&c, Engine::Narrow).verify(s, delta),
            );
        }
        let sat = session_with(&c, Engine::Sat);
        for delta in [0, 60, 61, 71] {
            let r = sat.verify(s, delta);
            assert_eq!(r.elapsed, r.stage_times.sat);
            check("sat", &r);
        }
        for probe in &sat.exact_delay(s).probes {
            check("sat probe", probe);
        }
        // Hybrid upgrades: `hybrid_decides_when_narrowing_budget_trips`.
    }

    #[test]
    fn hybrid_decides_when_narrowing_budget_trips() {
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
        let sat_search = sat_session.exact_delay(s);
        assert!(sat_search.proven_exact);
        assert_eq!(sat_search.delay, exact, "SAT vs narrowing exact delay");
        // Strip the §4/§5 stages so the check truly rides on case
        // analysis, then cap it at one backtrack.
        let config = VerifyConfig {
            engine: Engine::Hybrid,
            max_backtracks: 1,
            dominators: false,
            stem_correlation: false,
            learning: LearningMode::Off,
            ..Default::default()
        };
        let session = CheckSession::new(&c, config.clone());
        let r = session.verify(s, exact + 1);
        assert!(r.verdict.is_no_violation(), "{:?}", r.verdict);
        assert!(r.completeness.is_exact());

        // Narrowing alone abandons the same check.
        let narrow = CheckSession::new(
            &c,
            VerifyConfig {
                engine: Engine::Narrow,
                ..config.clone()
            },
        );
        let rn = narrow.verify(s, exact + 1);
        assert!(!rn.completeness.is_exact(), "{:?}", rn.completeness);
        assert_eq!(rn.sat, CdclStats::default(), "narrowing never writes `sat`");

        // SAT alone decides it and fills nothing but `sat`.
        let sat = CheckSession::new(
            &c,
            VerifyConfig {
                engine: Engine::Sat,
                ..config
            },
        );
        let rs = sat.verify(s, exact + 1);
        assert_eq!(rs.verdict, r.verdict);
        assert_eq!(rs.effort, StageEffort::default());
        assert_eq!(rs.case, Default::default());
        assert_eq!(rs.stems, Default::default());
        let sat_only = StageTimes {
            sat: rs.stage_times.sat,
            ..StageTimes::default()
        };
        assert_eq!(rs.stage_times, sat_only);
        assert!(rs.stage_times.sat > Duration::ZERO);

        // The upgrade keeps the narrowing run's counters and adds the SAT
        // run's: deterministic counters are equal outright, and the stage
        // clocks are narrowing's (the same stages ran) plus SAT's.
        assert_eq!(r.effort, rn.effort);
        assert_eq!(r.case, rn.case);
        assert_eq!(r.stems, rn.stems);
        assert_eq!(r.sat, rs.sat);
        assert_eq!(r.backtracks(), rn.backtracks() + rs.backtracks());
        let ran = |t: &StageTimes| {
            [t.narrowing, t.dominators, t.stems, t.case_analysis].map(|d| d > Duration::ZERO)
        };
        assert_eq!(ran(&r.stage_times), ran(&rn.stage_times));
        assert!(r.stage_times.case_analysis > Duration::ZERO);
        assert!(r.stage_times.sat > Duration::ZERO);
        assert_eq!(r.stage_times.total(), r.elapsed);
    }
}
