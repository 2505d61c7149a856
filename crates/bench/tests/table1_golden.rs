//! Golden Table 1: the deterministic columns of every `table1 --quick` row
//! — δ and its marker, the stage verdicts (which also name the deciding
//! stage), backtracks, and the per-stage solver effort — pinned in
//! `tests/golden/table1_quick.txt`. Effort counters are exact integers,
//! identical across runs, job counts and machines, so any drift in the
//! pipeline's behaviour (a backtrack count changing, a stage doing more
//! work) fails here and becomes a reviewed diff of the golden file.
//!
//! The rows past the `--quick` gate limit (s5315, s7552 and the s6288
//! row abandoned after 20 001 backtracks) take minutes in a debug build,
//! so their golden, `tests/golden/table1_full.txt`, is checked by an
//! ignored test that CI runs in release by name:
//!
//! ```text
//! cargo test --release -p ltt-bench --test table1_golden full_suite -- --ignored
//! ```
//!
//! Regenerate both golden files after an intended change with
//!
//! ```text
//! cargo test --release -p ltt-bench --test table1_golden bless -- --ignored
//! ```

use ltt_bench::table1::{run_entry, Table1Row, MAX_BACKTRACKS, QUICK_MAX_GATES};
use ltt_core::{SolverStats, VerifyConfig};
use ltt_netlist::suite::iscas85_suite;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/table1_quick.txt");
const FULL_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/table1_full.txt");

fn stats(s: &SolverStats) -> String {
    format!("{}/{}/{}", s.events, s.narrowings, s.learned_applications)
}

fn golden_line(row: &Table1Row) -> String {
    let backtracks = row
        .backtracks
        .map_or_else(|| "-".to_string(), |b| b.to_string());
    format!(
        "{:<6} top {:>4} delta {:>4}{} cols {}{}{}{} btrck {:>2} effort {} {} {} {}",
        row.name,
        row.top,
        row.delta,
        row.marker,
        row.before_gitd,
        row.after_gitd,
        row.after_stems,
        row.result,
        backtracks,
        stats(&row.effort.narrowing),
        stats(&row.effort.dominators),
        stats(&row.effort.stems),
        stats(&row.effort.case_analysis),
    )
}

/// The golden rows of the suite circuits `keep` selects, under a header
/// naming the columns.
fn rows(title: &str, keep: impl Fn(usize) -> bool) -> String {
    let config = VerifyConfig {
        max_backtracks: MAX_BACKTRACKS,
        ..Default::default()
    };
    let mut out = format!(
        "# {title}: name, top, delta + marker (E exact, U upper bound),\n\
         # columns before-GITD/after-GITD/after-stems/result, backtracks,\n\
         # effort events/narrowings/learned per stage\n\
         # (narrowing, dominators, stems, case analysis).\n",
    );
    for entry in iscas85_suite(10)
        .iter()
        .filter(|e| keep(e.circuit.num_gates()))
    {
        for row in run_entry(entry, &config) {
            out.push_str(&golden_line(&row));
            out.push('\n');
        }
    }
    out
}

/// The rows of `table1 --quick`, in the golden file's format.
fn quick_rows() -> String {
    rows("table1 --quick", |gates| gates <= QUICK_MAX_GATES)
}

/// The rows `table1` adds without `--quick`: the circuits past the quick
/// gate limit.
fn full_rows() -> String {
    rows("table1 (full suite only)", |gates| gates > QUICK_MAX_GATES)
}

/// Fails with a line diff when `actual` differs from the golden file.
fn assert_matches_golden(path: &str, actual: &str) {
    let expected = std::fs::read_to_string(path).expect("golden file present");
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "table1 drifted from {path} ({} vs {} lines):\n{}",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn quick_table1_matches_golden() {
    assert_matches_golden(GOLDEN, &quick_rows());
}

/// The full-suite rows; minutes in debug, so CI runs it in release.
#[test]
#[ignore = "full suite: run in release by name"]
fn full_suite_table1_matches_golden() {
    assert_matches_golden(FULL_GOLDEN, &full_rows());
}

/// Rewrites the quick golden file from the current code.
#[test]
#[ignore = "regenerates the golden file"]
fn bless_quick_table1_golden() {
    std::fs::write(GOLDEN, quick_rows()).expect("write golden file");
}

/// Rewrites the full-suite golden file from the current code.
#[test]
#[ignore = "regenerates the golden file"]
fn bless_full_table1_golden() {
    std::fs::write(FULL_GOLDEN, full_rows()).expect("write golden file");
}
