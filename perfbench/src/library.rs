//! The library workloads: `table1`, `c6288` and `sat`.
//!
//! Each pass opens a fresh [`CheckSession`] per circuit and runs the
//! circuit's Table 1 row pair, exactly as one `table1` or `ltt delay`
//! invocation does. After the timed pass, ECOs re-check each circuit's
//! critical output on rebased sessions; those are the workload's write
//! operations (`patch_*`).

use crate::report::{median, ms, percentile, ratio, us, Gauge, Metrics, Outcome, Rng};
use ltt_core::{
    CheckSession, DelaySearch, Engine, Obs, Recorder, Span, Stage, Verdict, VerifyConfig,
    VerifyReport,
};
use ltt_netlist::bench_format::{parse_bench, write_bench};
use ltt_netlist::suite::iscas85_suite;
use ltt_netlist::{Circuit, CircuitEdit, DelayInterval, NetId};
use ltt_sat::{encode_check, sat_decide, Encoded};
use ltt_sta::vector_violates;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which library workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The ten suite circuits whose delay search finishes exactly.
    Table1,
    /// The s6288 multiplier, searched under a 2 000-backtrack cap.
    C6288,
    /// The eight circuits of at most 2 000 gates, on the SAT engine.
    Sat,
}

/// Per-gate delay of the suite (the paper's value).
const GATE_DELAY: u32 = 10;
/// Backtrack cap of the `c6288` search (the paper used 20 000).
const C6288_BACKTRACKS: u64 = 2_000;

impl Kind {
    /// The workload name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1 => "table1",
            Kind::C6288 => "c6288",
            Kind::Sat => "sat",
        }
    }

    /// The configuration users get from the CLI and the daemon, plus the
    /// workload's engine and backtrack cap.
    fn config(self, obs: Obs) -> VerifyConfig {
        let mut config = ltt_serve::session_config();
        config.obs = obs;
        match self {
            Kind::Table1 => {}
            Kind::C6288 => config.max_backtracks = C6288_BACKTRACKS,
            Kind::Sat => config.engine = Engine::Sat,
        }
        config
    }

    /// ECOs per circuit and pass. The suite workloads spread about a dozen
    /// over their circuits. s6288 is one circuit whose ECOs all cost the
    /// same, so short swings of the CPU's speed would decide their median;
    /// 48 of them span about 1.5 s per pass and average those out. (Their
    /// cost still varies from process to process; see `README.md`.)
    fn ecos_per_circuit(self) -> i64 {
        match self {
            Kind::Table1 | Kind::Sat => 2,
            Kind::C6288 => 48,
        }
    }

    /// The workload's suite members as `(name, .bench text)`, suite order.
    fn sources(self) -> Vec<(String, String)> {
        iscas85_suite(GATE_DELAY)
            .into_iter()
            .filter(|e| match self {
                Kind::Table1 => e.name != "s6288",
                Kind::C6288 => e.name == "s6288",
                Kind::Sat => e.name != "s6288" && e.circuit.num_gates() <= 2000,
            })
            .map(|e| (e.name.to_string(), write_bench(&e.circuit)))
            .collect()
    }
}

/// Parses each `(name, .bench text)` with the suite's gate delay.
fn parse_all(sources: &[(String, String)]) -> Vec<Circuit> {
    sources
        .iter()
        .map(|(name, text)| {
            parse_bench(name, text, DelayInterval::fixed(GATE_DELAY))
                .expect("generated suite text parses")
        })
        .collect()
}

/// The output with the largest topological arrival: where the circuit's
/// exact delay lives.
pub(crate) fn critical_output(circuit: &Circuit) -> NetId {
    let arrival = circuit.arrival_times();
    circuit
        .outputs()
        .iter()
        .copied()
        .max_by_key(|o| arrival[o.index()])
        .expect("suite circuits have outputs")
}

/// A verdict as it appears in the golden file: `V`, `P`, `A`, or `N:` and
/// the proving stage.
fn verdict_code(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Violation { .. } => "V".into(),
        Verdict::Possible => "P".into(),
        Verdict::Abandoned => "A".into(),
        Verdict::NoViolation { stage } => format!(
            "N:{}",
            match stage {
                Stage::Narrowing => "narrowing",
                Stage::Dominators => "dominators",
                Stage::StemCorrelation => "stems",
                Stage::CaseAnalysis => "case",
                Stage::Sat => "sat",
            }
        ),
    }
}

/// A workload after set-up: the suite text, its parsed circuits and the
/// seeded pass order.
pub struct Library {
    kind: Kind,
    sources: Vec<(String, String)>,
    circuits: Vec<Circuit>,
    order: Vec<usize>,
}

/// A reported witness: `(edited circuit, vector, output, δ)`, where
/// `None` names the workload's own circuit.
type Witness = (Option<Arc<Circuit>>, Vec<bool>, NetId, i64);

/// One circuit's share of a pass.
struct CircuitRun {
    /// Index in suite order.
    index: usize,
    /// Golden-file lines: the search, each checked row, and the ECOs.
    lines: Vec<String>,
    /// Every reported witness.
    witnesses: Vec<Witness>,
    /// Row checks made after the search (the rest of `reports` are its
    /// probes).
    rows: usize,
    /// `CheckSession::new` + `warm_up`.
    prepare_time: Duration,
    /// The delay search call.
    search_time: Duration,
    /// `apply_edit` + `rebase` + re-check of each ECO.
    eco_times: Vec<Duration>,
    /// The search's probe reports followed by the row reports.
    reports: Vec<VerifyReport>,
}

/// One cold pass over the workload.
pub struct Pass {
    /// Wall-clock of the row pairs (ECOs excluded).
    wall: Duration,
    /// Per circuit, in suite order.
    circuits: Vec<CircuitRun>,
    /// Spans recorded during the timed part (traced passes only).
    spans: Vec<Span>,
}

impl Pass {
    /// Golden lines of the whole pass, suite order.
    pub fn lines(&self) -> Vec<String> {
        self.circuits
            .iter()
            .flat_map(|c| c.lines.iter().cloned())
            .collect()
    }

    /// Checks decided in the timed part: search probes plus rows.
    pub fn num_checks(&self) -> usize {
        self.circuits.iter().map(|c| c.reports.len()).sum()
    }
}

impl Library {
    /// Builds and parses the suite text, and fixes the pass order from
    /// `seed`.
    pub fn setup(kind: Kind, seed: u64) -> Library {
        let sources = kind.sources();
        let circuits = parse_all(&sources);
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        Rng::new(seed, 1).shuffle(&mut order);
        Library {
            kind,
            sources,
            circuits,
            order,
        }
    }

    /// Parses the whole suite text once more and returns the time it took:
    /// one sample of `setup_s`. Runs take one before every pass, so the
    /// samples spread over the run instead of sharing its first seconds.
    pub fn time_parse(&self) -> Duration {
        let t0 = Instant::now();
        std::hint::black_box(parse_all(&self.sources));
        t0.elapsed()
    }

    /// Runs one cold pass, recording spans when `traced`.
    pub fn run_pass(&self, traced: bool) -> Pass {
        let recorder = traced.then(|| Arc::new(Recorder::new()));
        let obs = recorder
            .as_ref()
            .map_or_else(Obs::disabled, |r| Obs::recording(r.clone()));
        let config = self.kind.config(obs);
        let t0 = Instant::now();
        let mut open = Vec::with_capacity(self.order.len());
        for &index in &self.order {
            open.push(self.row_pair(index, &config));
        }
        let wall = t0.elapsed();
        let spans = recorder.map(|r| r.spans()).unwrap_or_default();
        let mut circuits: Vec<CircuitRun> = open
            .into_iter()
            .map(|(session, search, mut run)| {
                self.ecos(&session, &search, &mut run);
                run
            })
            .collect();
        circuits.sort_by_key(|c| c.index);
        Pass {
            wall,
            circuits,
            spans,
        }
    }

    /// The Table 1 row pair of one circuit on a fresh session: the delay
    /// search on the critical output, then all outputs at exact + 1 and
    /// the critical output at exact — or, when the search is abandoned,
    /// the critical output at upper bound + 1.
    fn row_pair(
        &self,
        index: usize,
        config: &VerifyConfig,
    ) -> (CheckSession<'_>, DelaySearch, CircuitRun) {
        let circuit = &self.circuits[index];
        let name = &self.sources[index].0;
        let t0 = Instant::now();
        let session = CheckSession::new(circuit, config.clone());
        session.warm_up();
        let prepare_time = t0.elapsed();
        let s = critical_output(circuit);
        let t0 = Instant::now();
        let search = ltt_sat::exact_delay(&session, s);
        let search_time = t0.elapsed();
        let out_name = circuit.net(s).name();
        let mut lines = vec![format!(
            "{name} search {out_name} delay={} ub={} {}",
            search.delay,
            search.upper_bound,
            if search.proven_exact {
                "exact".to_string()
            } else {
                let abandoned = search
                    .probes
                    .iter()
                    .find(|p| matches!(p.verdict, Verdict::Abandoned))
                    .map_or(-1, |p| p.delta);
                format!("abandoned={abandoned}")
            }
        )];
        let rows: Vec<(NetId, i64)> = if search.proven_exact {
            let mut rows: Vec<(NetId, i64)> = circuit
                .outputs()
                .iter()
                .map(|&o| (o, search.delay + 1))
                .collect();
            rows.push((s, search.delay));
            rows
        } else {
            vec![(s, search.upper_bound + 1)]
        };
        let mut witnesses = Vec::new();
        if let Some(v) = &search.vector {
            witnesses.push((None, v.clone(), s, search.delay));
        }
        let mut reports = search.probes.clone();
        for &(output, delta) in &rows {
            let report = ltt_sat::verify(&session, output, delta);
            lines.push(format!(
                "{name} check {} {delta} {}",
                circuit.net(output).name(),
                verdict_code(&report.verdict)
            ));
            if let Verdict::Violation { vector } = &report.verdict {
                witnesses.push((None, vector.clone(), output, delta));
            }
            reports.push(report);
        }
        let run = CircuitRun {
            index,
            lines,
            witnesses,
            rows: rows.len(),
            prepare_time,
            search_time,
            eco_times: Vec::new(),
            reports,
        };
        (session, search, run)
    }

    /// The ECOs of one circuit on the pass's session. ECO `k` puts `k`
    /// more units of delay on the gate driving the critical output, which
    /// shifts every path to it by `k`; it then rebases the session and
    /// re-checks the shifted frontier (a witness at exact + `k` for exact
    /// searches, a proof at upper bound + 1 + `k` for abandoned ones).
    fn ecos(&self, session: &CheckSession<'_>, search: &DelaySearch, run: &mut CircuitRun) {
        let circuit = session.circuit();
        let s = critical_output(circuit);
        let gate = circuit.net(s).driver().expect("an output is driven");
        let d = circuit.gate(gate).delay();
        for k in 1..=self.kind.ecos_per_circuit() {
            let delta = if search.proven_exact {
                search.delay + k
            } else {
                search.upper_bound + 1 + k
            };
            let t0 = Instant::now();
            let extra = k as u32;
            let edit = circuit
                .apply_edit(&[CircuitEdit::SetDelay {
                    gate,
                    delay: DelayInterval::new(d.min() + extra, d.max() + extra),
                }])
                .expect("a delay edit applies");
            let edited = Arc::new(edit.circuit);
            let rebased = session.rebase(edited.clone(), &edit.dirty, edit.structural);
            let report = ltt_sat::verify(&rebased, s, delta);
            run.eco_times.push(t0.elapsed());
            run.lines.push(format!(
                "{} eco+{k} {} {delta} {}",
                self.sources[run.index].0,
                circuit.net(s).name(),
                verdict_code(&report.verdict)
            ));
            if let Verdict::Violation { vector } = report.verdict {
                run.witnesses.push((Some(edited), vector, s, delta));
            }
        }
    }
}

/// Re-certifies every witness of `pass` with the exact simulator.
/// Returns the number that failed and the time of each certification.
fn certify(lib: &Library, pass: &Pass) -> (u64, Vec<Duration>) {
    let mut failed = 0;
    let mut times = Vec::new();
    for c in &pass.circuits {
        for (edited, vector, output, delta) in &c.witnesses {
            let circuit = edited.as_deref().unwrap_or(&lib.circuits[c.index]);
            let t0 = Instant::now();
            let ok = vector_violates(circuit, vector, *output, *delta);
            times.push(t0.elapsed());
            failed += u64::from(!ok);
        }
    }
    (failed, times)
}

/// The golden lines a workload must reproduce. `sat` is held to the
/// `table1` lines of its circuits with the proving stage dropped: the SAT
/// engine must reach the same verdicts and bounds as narrowing.
pub fn golden(kind: Kind) -> Vec<String> {
    let text = match kind {
        Kind::C6288 => include_str!("../golden/c6288.txt"),
        Kind::Table1 | Kind::Sat => include_str!("../golden/table1.txt"),
    };
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if kind == Kind::Sat {
        let keep: Vec<String> = kind.sources().into_iter().map(|(name, _)| name).collect();
        lines.retain(|l| keep.iter().any(|k| l.split(' ').next() == Some(k.as_str())));
        lines = lines.iter().map(|l| engine_neutral(l)).collect();
    }
    lines
}

/// A golden line with the proving stage of an `N` verdict removed.
fn engine_neutral(line: &str) -> String {
    match line.rfind(" N:") {
        Some(at) => format!("{} N", &line[..at]),
        None => line.to_string(),
    }
}

/// Counts the operations of `pass` (searches, rows and ECOs) and how many
/// disagree with `golden` or carry a witness that does not certify.
pub fn check_pass(lib: &Library, pass: &Pass, golden: &[String]) -> (u64, u64, Vec<Duration>) {
    let mut lines = pass.lines();
    if lib.kind == Kind::Sat {
        lines = lines.iter().map(|l| engine_neutral(l)).collect();
    }
    let mut failed = (0..lines.len().max(golden.len()))
        .filter(|&i| lines.get(i) != golden.get(i))
        .count() as u64;
    let (bad_witnesses, certify_times) = certify(lib, pass);
    failed += bad_witnesses;
    (lines.len() as u64, failed, certify_times)
}

/// Per-pass layer totals of a traced pass.
fn layer_metrics(pass: &Pass, certify_times: &[Duration]) -> Metrics {
    let span_ms = |name: &str| -> f64 {
        pass.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e3)
            .sum()
    };
    let reports = || pass.circuits.iter().flat_map(|c| c.reports.iter());
    let stage_ms = |f: fn(&VerifyReport) -> Duration| -> f64 { reports().map(|r| ms(f(r))).sum() };
    let count = |f: fn(&VerifyReport) -> u64| -> f64 { reports().map(f).sum::<u64>() as f64 };
    let case_ms = stage_ms(|r| r.stage_times.case_analysis);
    let backtracks = count(|r| r.case.backtracks);
    let stems = count(|r| r.stems.stems);
    let mut m = Metrics::default();
    m.put(
        "core.prepare_ms",
        pass.circuits.iter().map(|c| ms(c.prepare_time)).sum(),
        "ms",
    );
    m.put(
        "core.static_learning_ms",
        span_ms("prepare.static_learning"),
        "ms",
    );
    m.put(
        "core.base_fixpoint_ms",
        span_ms("prepare.base_fixpoint"),
        "ms",
    );
    m.put(
        "core.narrowing_ms",
        stage_ms(|r| r.stage_times.narrowing),
        "ms",
    );
    m.put(
        "core.dominators_ms",
        stage_ms(|r| r.stage_times.dominators),
        "ms",
    );
    m.put(
        "core.events",
        count(|r| r.effort.narrowing.events + r.effort.dominators.events),
        "count",
    );
    m.put(
        "core.narrowings",
        count(|r| r.effort.narrowing.narrowings + r.effort.dominators.narrowings),
        "count",
    );
    m.put(
        "core.learned_applications",
        count(|r| {
            r.effort.narrowing.learned_applications + r.effort.dominators.learned_applications
        }),
        "count",
    );
    m.put("core.stems_ms", stage_ms(|r| r.stage_times.stems), "ms");
    m.put("core.stems.stems", stems, "count");
    m.put(
        "core.stems.effective_ratio",
        ratio(count(|r| r.stems.effective_stems), stems),
        "ratio",
    );
    m.put(
        "core.stems.dead_branches",
        count(|r| r.stems.dead_branches),
        "count",
    );
    m.put(
        "core.stems.events",
        count(|r| r.effort.stems.events),
        "count",
    );
    m.put("core.case_analysis_ms", case_ms, "ms");
    m.put("core.fan.backtracks", backtracks, "count");
    m.put("core.fan.decisions", count(|r| r.case.decisions), "count");
    m.put(
        "core.fan.us_per_backtrack",
        ratio(case_ms * 1e3, backtracks),
        "us",
    );
    m.put(
        "core.case_analysis.events",
        count(|r| r.effort.case_analysis.events),
        "count",
    );
    m.put(
        "core.delay_search_ms",
        pass.circuits.iter().map(|c| ms(c.search_time)).sum(),
        "ms",
    );
    m.put(
        "core.delay_probes",
        pass.circuits
            .iter()
            .map(|c| c.reports.len() - c.rows)
            .sum::<usize>() as f64,
        "count",
    );
    let certify_us: Vec<f64> = certify_times.iter().map(|&d| us(d)).collect();
    m.put("sta.certify_us", median(&certify_us), "us");
    m
}

/// SAT-layer totals over every check of `pass`: `encode_check` and
/// `sat_decide` called directly, with the CDCL counters of each decision.
fn sat_layer_metrics(lib: &Library, pass: &Pass) -> Metrics {
    let budget = lib.kind.config(Obs::disabled()).budget;
    let (mut encode, mut decide) = (Duration::ZERO, Duration::ZERO);
    let (mut vars, mut conflicts, mut propagations, mut decisions, mut restarts) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for c in &pass.circuits {
        let circuit = &lib.circuits[c.index];
        for &VerifyReport { output, delta, .. } in &c.reports {
            let t0 = Instant::now();
            let encoded = encode_check(circuit, output, delta, &budget);
            encode += t0.elapsed();
            if let Ok(Encoded::Cnf(cnf)) = &encoded {
                vars += u64::from(cnf.solver.num_vars());
            }
            drop(encoded);
            let t0 = Instant::now();
            let check = sat_decide(circuit, output, delta, &budget);
            decide += t0.elapsed();
            conflicts += check.stats.conflicts;
            propagations += check.stats.propagations;
            decisions += check.stats.decisions;
            restarts += check.stats.restarts;
        }
    }
    let mut m = Metrics::default();
    m.put("sat.encode_ms", ms(encode), "ms");
    m.put("sat.decide_ms", ms(decide), "ms");
    m.put("sat.cnf_vars", vars as f64, "count");
    m.put("sat.cdcl.conflicts", conflicts as f64, "count");
    m.put("sat.cdcl.propagations", propagations as f64, "count");
    m.put("sat.cdcl.decisions", decisions as f64, "count");
    m.put("sat.cdcl.restarts", restarts as f64, "count");
    m
}

/// The layer metrics of one traced pass: its layer totals, plus the SAT
/// layer re-run over the pass's checks on the `sat` workload.
pub fn pass_layers(lib: &Library, pass: &Pass, certify_times: &[Duration]) -> Metrics {
    let mut m = layer_metrics(pass, certify_times);
    let sat = if lib.kind == Kind::Sat {
        sat_layer_metrics(lib, pass)
    } else {
        zero_sat_metrics()
    };
    m.0.extend(sat.0);
    m
}

/// Every per-layer metric of a library workload: layer times as the
/// median over traced passes of each pass's total, counters from the
/// first traced pass (they repeat exactly).
fn traced_metrics(
    lib: &Library,
    traced: &[(Pass, Vec<Duration>, f64)],
    untraced: &[f64],
    parse_times: &[Duration],
) -> Metrics {
    let per_pass: Vec<Metrics> = traced
        .iter()
        .map(|(pass, certify_times, factor)| {
            pass_layers(lib, pass, certify_times).scale_times(*factor)
        })
        .collect();
    let mut m = Metrics::default();
    let parse: Vec<f64> = parse_times.iter().map(|&d| ms(d)).collect();
    m.put("netlist.parse_ms", median(&parse), "ms");
    for (i, &(name, first, unit)) in per_pass[0].0.iter().enumerate() {
        let value = if unit == "count" || unit == "ratio" {
            first
        } else {
            median(&per_pass.iter().map(|p| p.0[i].1).collect::<Vec<_>>())
        };
        m.put(name, value, unit);
    }
    m.0.extend(crate::served::absent_serve_metrics().0);
    let traced_walls: Vec<f64> = traced
        .iter()
        .map(|(p, _, factor)| p.wall.as_secs_f64() * factor)
        .collect();
    m.put(
        "trace.overhead_ratio",
        ratio(median(&traced_walls), median(untraced)),
        "ratio",
    );
    m
}

/// The SAT-layer metrics of a workload that never calls the SAT layer.
pub(crate) fn zero_sat_metrics() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in [
        ("sat.encode_ms", "ms"),
        ("sat.decide_ms", "ms"),
        ("sat.cnf_vars", "count"),
        ("sat.cdcl.conflicts", "count"),
        ("sat.cdcl.propagations", "count"),
        ("sat.cdcl.decisions", "count"),
        ("sat.cdcl.restarts", "count"),
    ] {
        m.put(name, 0.0, unit);
    }
    m
}

/// Runs a library workload for `seconds` and returns its result.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let lib = Library::setup(kind, seed);
    let golden = golden(kind);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut traced = Vec::new();
    // Per untraced pass: check p50, check p90, ECO p50, ECO p90 (µs).
    let mut quantiles: Vec<[f64; 4]> = Vec::new();
    let mut checks_per_pass = 0usize;
    let mut parse_times = Vec::new();
    let mut gauge = Gauge::new();
    let started = Instant::now();
    loop {
        let parse = lib.time_parse();
        // A traced run alternates untraced and traced passes, so both
        // see the same machine conditions.
        let traced_pass = trace && walls.len() > traced.len();
        let pass = lib.run_pass(traced_pass);
        // Every time below is reference time (see `Gauge`).
        let factor = gauge.factor();
        parse_times.push(parse.mul_f64(factor));
        let (n, bad, certify_times) = check_pass(&lib, &pass, &golden);
        attempted += n;
        failed += bad;
        if traced_pass {
            traced.push((pass, certify_times, factor));
        } else {
            walls.push(pass.wall.as_secs_f64() * factor);
            checks_per_pass = pass.num_checks();
            let check_us: Vec<f64> = pass
                .circuits
                .iter()
                .flat_map(|c| c.reports.iter().map(|r| us(r.elapsed) * factor))
                .collect();
            let eco_us: Vec<f64> = pass
                .circuits
                .iter()
                .flat_map(|c| c.eco_times.iter().map(|&d| us(d) * factor))
                .collect();
            quantiles.push([
                percentile(&check_us, 0.5),
                percentile(&check_us, 0.9),
                percentile(&eco_us, 0.5),
                percentile(&eco_us, 0.9),
            ]);
        }
        let enough = !trace || !traced.is_empty();
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let metrics = if trace {
        let mut m = traced_metrics(&lib, &traced, &walls, &parse_times);
        m.put("bench.kernel_ms", median(&gauge.kernel_ms), "ms");
        m
    } else {
        let parse: Vec<f64> = parse_times.iter().map(|d| d.as_secs_f64()).collect();
        let mut m = Metrics::default();
        m.put("setup_s", median(&parse), "s");
        m.put("pass_s", median(&walls), "s");
        let rates: Vec<f64> = walls.iter().map(|w| checks_per_pass as f64 / w).collect();
        m.put("req_per_s", median(&rates), "1/s");
        let col = |i: usize| -> Vec<f64> { quantiles.iter().map(|q| q[i]).collect() };
        m.put("check_p50_us", median(&col(0)), "us");
        m.put("check_p90_us", median(&col(1)), "us");
        m.put("patch_p50_us", median(&col(2)), "us");
        m.put("patch_p90_us", median(&col(3)), "us");
        m.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        m
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}
