//! The Table 1 experiment: per-circuit stage verdicts, backtracks and CPU
//! time for the evaluation suite, at the paper's two δ points per circuit
//! (the exact floating-mode delay, and exact + 1 where the pipeline must
//! prove no violation).

use ltt_core::{
    BatchRunner, CheckSession, Engine, Stage, StageEffort, Verdict, VerifyConfig, VerifyReport,
};
use ltt_netlist::suite::SuiteEntry;
use ltt_netlist::{Circuit, NetId};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// The `--quick` suite: the entries of at most this many gates.
pub const QUICK_MAX_GATES: usize = 2000;

/// The case-analysis backtrack cap of the Table 1 runs. The paper abandons
/// c6288 after an excessive number of backtracks; the cap bounds the
/// search the same way. It caps narrowing's case analysis only: the SAT
/// engine reads no backtrack cap, so its checks (and hybrid's SAT
/// fallback) run to a decision unless another budget trips (the serve
/// crate's wire golden pins this with a zero-backtrack s432 check).
pub const MAX_BACKTRACKS: u64 = 20_000;

/// One rendered row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Measured topological delay.
    pub top: i64,
    /// The checked δ.
    pub delta: i64,
    /// Marker: `E` exact delay, `U` upper bound, empty otherwise.
    pub marker: char,
    /// Stage column "BEFORE G.I.T.D.": 'P' or 'N'.
    pub before_gitd: char,
    /// Stage column "AFTER G.I.T.D.": 'P', 'N' or '-'.
    pub after_gitd: char,
    /// Stage column "AFTER STEM C.": 'P', 'N' or '-'.
    pub after_stems: char,
    /// Case-analysis backtracks, or `None` when not needed ('-').
    pub backtracks: Option<u64>,
    /// Case-analysis result: 'V', 'N', 'A' or '-'.
    pub result: char,
    /// Deterministic solver effort per pipeline stage, summed over this
    /// row's checks.
    pub effort: StageEffort,
    /// CPU time of this row's checks.
    pub cpu: Duration,
    /// The paper's reference values `(top, δ_exact, backtracks)` if any.
    pub paper: Option<(i64, Option<i64>, Option<u64>)>,
}

/// The stage at which a no-violation proof landed, as Table 1 columns.
/// Under [`Engine::Sat`] no narrowing stage ran, so the three stage
/// columns read `-`.
fn stage_columns(
    reports: &[VerifyReport],
    engine: Engine,
) -> (char, char, char, Option<u64>, char) {
    // Worst (latest) stage over the outputs that had to be proven. Every
    // verdict but a proof reached case analysis.
    let mut worst = Stage::Narrowing;
    let mut any_violation = false;
    let mut abandoned = false;
    let mut backtracks = 0u64;
    let mut case_ran = false;
    for r in reports {
        backtracks = backtracks.saturating_add(r.backtracks());
        let stage = match &r.verdict {
            Verdict::NoViolation { stage } => {
                case_ran |= *stage == Stage::CaseAnalysis;
                *stage
            }
            Verdict::Violation { .. } => {
                any_violation = true;
                case_ran = true;
                Stage::CaseAnalysis
            }
            Verdict::Abandoned => {
                abandoned = true;
                case_ran = true;
                Stage::CaseAnalysis
            }
            Verdict::Possible => Stage::CaseAnalysis,
        };
        worst = worst.max(stage);
    }
    // A stage column reads `N` where the proofs landed, `P` before that
    // and `-` after.
    let column = |proved_at: Stage| match worst.cmp(&proved_at) {
        Ordering::Less => '-',
        Ordering::Equal => 'N',
        Ordering::Greater => 'P',
    };
    let before = column(Stage::Narrowing);
    let after_gitd = column(Stage::Dominators);
    let after_stems = column(Stage::StemCorrelation);
    let result = if worst <= Stage::StemCorrelation {
        '-'
    } else if abandoned {
        'A'
    } else if any_violation {
        'V'
    } else {
        'N'
    };
    let btr = if case_ran { Some(backtracks) } else { None };
    if engine == Engine::Sat {
        return ('-', '-', '-', btr, result);
    }
    (before, after_gitd, after_stems, btr, result)
}

/// The output with the largest topological arrival (the circuit's critical
/// output, where the exact circuit delay lives).
pub fn critical_output(circuit: &Circuit) -> NetId {
    let arrival = circuit.arrival_times();
    circuit
        .outputs()
        .iter()
        .copied()
        .max_by_key(|o| arrival[o.index()])
        .expect("circuit has outputs")
}

/// Runs the two Table 1 rows for one suite entry, serially. Equivalent to
/// [`run_entry_with`] on [`BatchRunner::serial`].
pub fn run_entry(entry: &SuiteEntry, config: &VerifyConfig) -> Vec<Table1Row> {
    run_entry_with(entry, config, BatchRunner::serial())
}

/// Runs the two Table 1 rows for one suite entry, fanning the per-output
/// checks over `runner`'s workers.
///
/// One [`CheckSession`] is opened per entry, so the learning table, SCOAP
/// measures, stem candidates and base fixpoint are computed once and
/// shared by the delay search and both published rows. The exact
/// floating-mode delay is first determined with the verifier's own delay
/// search on the critical output (certified against the simulator); the
/// published rows are then re-measured: δ = exact + 1 over **all** outputs
/// (must prove `N`), and δ = exact on the critical output (must find `V`).
/// If the search was abandoned (the c6288 pattern), the rows report the
/// proven upper bound and the abandoned probe instead.
///
/// Verdicts and backtrack counts are identical for every `runner` — only
/// the wall-clock (`cpu` column) changes.
pub fn run_entry_with(
    entry: &SuiteEntry,
    config: &VerifyConfig,
    runner: BatchRunner,
) -> Vec<Table1Row> {
    let circuit = &entry.circuit;
    let top = circuit.topological_delay();
    let s = critical_output(circuit);
    let session = CheckSession::new(circuit, config.clone());
    let search = session.exact_delay(s);
    let mut rows = Vec::new();

    let paper = Some((entry.paper_top, entry.paper_exact, entry.paper_backtracks));
    let row = |delta, marker, reports: &[VerifyReport], cpu, paper| {
        let (before_gitd, after_gitd, after_stems, backtracks, result) =
            stage_columns(reports, config.engine);
        Table1Row {
            name: entry.name.to_string(),
            top,
            delta,
            marker,
            before_gitd,
            after_gitd,
            after_stems,
            backtracks,
            result,
            effort: reports.iter().fold(StageEffort::default(), |sum, r| {
                sum.saturating_add(&r.effort)
            }),
            cpu,
            paper,
        }
    };
    let timed = |delta| {
        let t0 = Instant::now();
        let report = session.verify(s, delta);
        (report, t0.elapsed())
    };

    if search.proven_exact {
        let exact = search.delay;
        // Row 1: δ = exact + 1 over all outputs, fanned over the runner.
        let batch = runner.verify_all_outputs(&session, exact + 1);
        rows.push(row(exact + 1, ' ', &batch.reports, batch.wall, None));
        // Row 2: δ = exact on the critical output.
        let (report, cpu) = timed(exact);
        rows.push(row(exact, 'E', std::slice::from_ref(&report), cpu, paper));
    } else {
        // Abandoned search (the c6288 pattern). Row 1: the smallest δ the
        // search-free pipeline proved (= upper bound + 1); row 2: the probe
        // that was abandoned, taken straight from the search's reports.
        let ub = search.upper_bound;
        let (report, cpu) = timed(ub + 1);
        rows.push(row(ub + 1, 'U', std::slice::from_ref(&report), cpu, None));
        if let Some(abandoned) = search
            .probes
            .iter()
            .find(|p| matches!(p.verdict, Verdict::Abandoned))
        {
            let probe = std::slice::from_ref(abandoned);
            rows.push(row(abandoned.delta, ' ', probe, abandoned.elapsed, paper));
        }
    }
    rows
}

/// Renders rows in the paper's column layout, with the paper's reference
/// values appended for side-by-side comparison.
pub fn render_rows(rows: &[Table1Row]) -> String {
    let mut t = crate::render::Table::new(&[
        "CIRCUIT",
        "MAX.TOP",
        "DELTA",
        "",
        "BEFORE G.I.T.D.",
        "AFTER G.I.T.D.",
        "AFTER STEM C.",
        "C.A. #BTRCK",
        "C.A. RESULT",
        "CPU (ms)",
        "PAPER top/exact/btrck",
    ]);
    for r in rows {
        let paper = match r.paper {
            Some((pt, pe, pb)) => format!(
                "{pt}/{}/{}",
                pe.map_or("-".into(), |v| v.to_string()),
                pb.map_or("-".into(), |v| v.to_string())
            ),
            None => String::new(),
        };
        t.row(&[
            r.name.clone(),
            r.top.to_string(),
            r.delta.to_string(),
            r.marker.to_string(),
            r.before_gitd.to_string(),
            r.after_gitd.to_string(),
            r.after_stems.to_string(),
            r.backtracks.map_or("-".into(), |b| b.to_string()),
            r.result.to_string(),
            format!("{:.2}", r.cpu.as_secs_f64() * 1e3),
            paper,
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::suite::c17_nor;

    #[test]
    fn c17_rows_match_paper() {
        let entry = SuiteEntry {
            name: "c17",
            circuit: c17_nor(10),
            paper_top: 50,
            paper_exact: Some(50),
            paper_backtracks: Some(0),
            standin: false,
        };
        let rows = run_entry(&entry, &VerifyConfig::default());
        assert_eq!(rows.len(), 2);
        // δ = 51 proven, δ = 50 vector found.
        assert_eq!(rows[0].delta, 51);
        assert_eq!(rows[1].delta, 50);
        assert_eq!(rows[1].marker, 'E');
        assert_eq!(rows[1].result, 'V');
        assert_eq!(rows[1].top, 50); // the paper's NOR-mapped topological delay
        let rendered = render_rows(&rows);
        assert!(rendered.contains("c17"));
    }

    /// SAT rows leave the narrowing-stage columns empty; hybrid rows keep
    /// them (narrowing ran first).
    #[test]
    fn sat_rows_have_no_narrowing_stage_columns() {
        let entry = SuiteEntry {
            name: "c17",
            circuit: c17_nor(10),
            paper_top: 50,
            paper_exact: Some(50),
            paper_backtracks: Some(0),
            standin: false,
        };
        let config = |engine| VerifyConfig {
            engine,
            ..Default::default()
        };
        let sat = run_entry(&entry, &config(Engine::Sat));
        assert_eq!(sat.len(), 2);
        for row in &sat {
            assert_eq!(
                (row.before_gitd, row.after_gitd, row.after_stems),
                ('-', '-', '-')
            );
        }
        assert_eq!((sat[0].result, sat[1].result), ('N', 'V'));
        let narrow = run_entry(&entry, &config(Engine::Narrow));
        let hybrid = run_entry(&entry, &config(Engine::Hybrid));
        for (h, n) in hybrid.iter().zip(&narrow) {
            assert_eq!(
                (h.before_gitd, h.after_gitd, h.after_stems),
                (n.before_gitd, n.after_gitd, n.after_stems)
            );
        }
        assert_eq!(narrow[0].before_gitd, 'N');
    }

    #[test]
    fn parallel_rows_match_serial_rows() {
        let entry = SuiteEntry {
            name: "c17",
            circuit: c17_nor(10),
            paper_top: 50,
            paper_exact: Some(50),
            paper_backtracks: Some(0),
            standin: false,
        };
        let config = VerifyConfig::default();
        let serial = run_entry_with(&entry, &config, BatchRunner::serial());
        let parallel = run_entry_with(&entry, &config, BatchRunner::new(4));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            // Everything but the wall-clock is identical.
            assert_eq!(a.delta, b.delta);
            assert_eq!(a.marker, b.marker);
            assert_eq!(a.before_gitd, b.before_gitd);
            assert_eq!(a.after_gitd, b.after_gitd);
            assert_eq!(a.after_stems, b.after_stems);
            assert_eq!(a.backtracks, b.backtracks);
            assert_eq!(a.result, b.result);
        }
    }
}
