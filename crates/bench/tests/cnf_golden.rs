//! Golden CNFs: `Solver::num_vars()`, `Solver::num_clauses()` and
//! `Solver::clause_digest()` of `encode_check` on the critical output of
//! each suite circuit of at most 2 000 gates, at its exact delay and one
//! past it, then on every output of a small circuit whose NOT, BUFFER and
//! DELAY gates read a reconvergent net, pinned in
//! `tests/golden/cnf_vars.txt`. All three are exact on any machine, so an
//! encoder that grows, or that emits other clauses or the same clauses in
//! another order, fails here instead of drifting in wall-clock.
//!
//! s6288 at δ = 1621 (proven safe) and δ = 1529 (still open) is pinned in
//! `tests/golden/cnf_vars_s6288.txt` by an ignored test that CI runs in
//! release by name:
//!
//! ```text
//! cargo test --release -p ltt-bench --test cnf_golden s6288_cnf_vars_match_golden -- --ignored --exact
//! ```
//!
//! Regenerate both golden files after an intended change with
//!
//! ```text
//! cargo test --release -p ltt-bench --test cnf_golden bless -- --ignored
//! ```

use ltt_bench::table1::critical_output;
use ltt_core::sat::{encode_check, Encoded};
use ltt_core::Budget;
use ltt_netlist::suite::{iscas85_suite, SuiteEntry};
use ltt_netlist::{Circuit, CircuitBuilder, DelayInterval, GateKind, NetId};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cnf_vars.txt");
const S6288_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/cnf_vars_s6288.txt"
);

/// The largest suite circuit the tier-1 golden covers.
const MAX_GATES: usize = 2_000;

/// One line: the check, the variables its CNF allocates, its stored
/// clauses and their digest, or the short-circuit that needs none.
fn line(name: &str, c: &Circuit, s: NetId, delta: i64) -> String {
    let size = match encode_check(c, s, delta, &Budget::unlimited()).expect("suite grids fit") {
        Encoded::AlwaysViolated => "always_violated".to_string(),
        Encoded::NeverViolated => "never_violated".to_string(),
        Encoded::Cnf(cnf) => format!(
            "vars={} clauses={} digest={:016x}",
            cnf.solver.num_vars(),
            cnf.solver.num_clauses(),
            cnf.solver.clause_digest()
        ),
    };
    format!("{name} {} delta={delta} {size}\n", c.net(s).name())
}

/// [`line`] for a suite circuit's critical output.
fn suite_line(entry: &SuiteEntry, delta: i64) -> String {
    let c = &entry.circuit;
    line(entry.name, c, critical_output(c), delta)
}

/// Each small suite circuit's critical output at its exact delay (the
/// paper's figure, which the Table 1 goldens pin as exact) and one past it.
fn suite_lines() -> String {
    let mut out = String::new();
    for entry in iscas85_suite(10)
        .iter()
        .filter(|e| e.circuit.num_gates() <= MAX_GATES)
    {
        let exact = entry
            .paper_exact
            .expect("small circuits have an exact delay");
        out.push_str(&suite_line(entry, exact));
        out.push_str(&suite_line(entry, exact + 1));
    }
    out
}

/// A circuit whose unary gates read `y = NAND(b, NOT(a))`, which settles
/// at 10 or 20: NOT, BUFFER and DELAY each drive an output, and a
/// NOT → BUFFER → DELAY chain drives a fourth. Their timing clauses query
/// `settle(y) ≥ x` as a free variable, which no suite circuit's critical
/// cone does (there every such query folds to a constant).
fn unary_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("unary");
    let a = b.input("a");
    let bb = b.input("b");
    let na = b.gate("na", GateKind::Not, &[a], DelayInterval::fixed(10));
    let y = b.gate("y", GateKind::Nand, &[bb, na], DelayInterval::fixed(10));
    for (name, kind, d) in [
        ("not", GateKind::Not, 10),
        ("buf", GateKind::Buffer, 5),
        ("del", GateKind::Delay, 7),
    ] {
        let out = b.gate(name, kind, &[y], DelayInterval::fixed(d));
        b.mark_output(out);
    }
    let c1 = b.gate("c1", GateKind::Not, &[y], DelayInterval::fixed(3));
    let c2 = b.gate("c2", GateKind::Buffer, &[c1], DelayInterval::fixed(4));
    let c3 = b.gate("c3", GateKind::Delay, &[c2], DelayInterval::fixed(6));
    b.mark_output(c3);
    b.build().expect("well-formed unary circuit")
}

/// Every output of [`unary_circuit`] at its longest path, which only
/// inputs settling through `NOT(a)` reach.
fn unary_lines() -> String {
    let c = unary_circuit();
    let arrival = c.arrival_times();
    c.outputs()
        .iter()
        .map(|&o| line("unary", &c, o, arrival[o.index()]))
        .collect()
}

/// The whole tier-1 golden: the suite lines, then the unary lines.
fn golden_lines() -> String {
    suite_lines() + &unary_lines()
}

/// s6288's critical output at the SAT engine's safe bound and at the
/// narrowing engine's open probe.
fn s6288_lines() -> String {
    let suite = iscas85_suite(10);
    let entry = suite
        .iter()
        .find(|e| e.name == "s6288")
        .expect("s6288 in the suite");
    suite_line(entry, 1621) + &suite_line(entry, 1529)
}

fn assert_matches_golden(path: &str, actual: &str) {
    let expected = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(actual, expected, "CNFs drifted from {path}");
}

#[test]
fn suite_cnf_vars_match_golden() {
    assert_matches_golden(GOLDEN, &golden_lines());
}

/// s6288's grids take seconds to build in debug, so CI runs it in release.
#[test]
#[ignore = "s6288: run in release by name"]
fn s6288_cnf_vars_match_golden() {
    assert_matches_golden(S6288_GOLDEN, &s6288_lines());
}

#[test]
#[ignore = "rewrites the golden files"]
fn bless_cnf_vars_goldens() {
    std::fs::write(GOLDEN, golden_lines()).expect("write golden file");
    std::fs::write(S6288_GOLDEN, s6288_lines()).expect("write golden file");
}
