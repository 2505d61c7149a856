//! Golden Table 1: the deterministic columns of every `table1 --quick` row
//! — δ and its marker, the stage verdicts (which also name the deciding
//! stage), backtracks, and the per-stage solver effort — pinned in
//! `tests/golden/table1_quick.txt`. Effort counters are exact integers,
//! identical across runs, job counts and machines, so any drift in the
//! pipeline's behaviour (a backtrack count changing, a stage doing more
//! work) fails here and becomes a reviewed diff of the golden file.
//!
//! Regenerate the golden file after an intended change with
//!
//! ```text
//! cargo test --release -p ltt-bench --test table1_golden -- --ignored
//! ```

use ltt_bench::table1::{run_entry, Table1Row, MAX_BACKTRACKS, QUICK_MAX_GATES};
use ltt_core::{SolverStats, VerifyConfig};
use ltt_netlist::suite::iscas85_suite;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/table1_quick.txt");

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

/// The rows of `table1 --quick`, in the golden file's format.
fn quick_rows() -> String {
    let config = VerifyConfig {
        max_backtracks: MAX_BACKTRACKS,
        ..Default::default()
    };
    let mut out = String::from(
        "# table1 --quick: name, top, delta + marker (E exact, U upper bound),\n\
         # columns before-GITD/after-GITD/after-stems/result, backtracks,\n\
         # effort events/narrowings/learned per stage\n\
         # (narrowing, dominators, stems, case analysis).\n",
    );
    for entry in iscas85_suite(10)
        .iter()
        .filter(|e| e.circuit.num_gates() <= QUICK_MAX_GATES)
    {
        for row in run_entry(entry, &config) {
            out.push_str(&golden_line(&row));
            out.push('\n');
        }
    }
    out
}

#[test]
fn quick_table1_matches_golden() {
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let actual = quick_rows();
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("- {e}\n+ {a}"))
            .collect();
        panic!(
            "table1 --quick drifted from {GOLDEN} ({} vs {} lines):\n{}",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

/// Rewrites the golden file from the current code.
#[test]
#[ignore = "regenerates the golden file"]
fn bless_quick_table1_golden() {
    std::fs::write(GOLDEN, quick_rows()).expect("write golden file");
}
