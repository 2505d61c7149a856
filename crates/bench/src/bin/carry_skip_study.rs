//! Regenerates the **carry-skip adder study** (§6, Figures 2–3): the
//! 16-bit carry-skip adder whose full ripple path is false. The paper
//! reports topological delay 2000, floating-mode delay 1000, and 1636
//! backtracks to settle both δ = 1000 (vector) and δ = 1001 (inconsistent).
//!
//! Run with `cargo run --release -p ltt-bench --bin carry_skip_study`.

use ltt_bench::table1::critical_output;
use ltt_core::{CheckSession, Verdict, VerifyConfig};
use ltt_netlist::generators::carry_skip_adder;
use ltt_sta::vector_violates;

fn main() {
    // Delay 50 puts the 16-bit/4-block adder at the paper's scale
    // (top ≈ 2000).
    let c = carry_skip_adder(16, 4, 50);
    let cout = critical_output(&c);
    let top = c.arrival_times()[cout.index()];
    println!(
        "16-bit carry-skip adder (4-bit blocks, delay 50): {} gates, top = {top}",
        c.num_gates()
    );
    println!("(paper: topological delay 2000, floating-mode delay 1000)");

    let t0 = std::time::Instant::now();
    let session = CheckSession::new(&c, VerifyConfig::default());
    let search = session.exact_delay(cout);
    let elapsed = t0.elapsed();
    println!(
        "exact floating-mode delay: {} (proven: {}), {} backtracks total, {:.1} ms",
        search.delay,
        search.proven_exact,
        search.backtracks(),
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "top/floating ratio: {:.2} (paper: {:.2})",
        top as f64 / search.delay as f64,
        2000.0 / 1000.0
    );

    // The two boundary checks of the paper.
    let r_hi = session.verify(cout, search.delay + 1);
    println!(
        "δ = {}: {:?} ({} backtracks)",
        search.delay + 1,
        verdict_name(&r_hi.verdict),
        r_hi.backtracks()
    );
    let r_lo = session.verify(cout, search.delay);
    match &r_lo.verdict {
        Verdict::Violation { vector } => {
            assert!(vector_violates(&c, vector, cout, search.delay));
            println!(
                "δ = {}: test vector found ({} backtracks), certified by the simulator",
                search.delay,
                r_lo.backtracks()
            );
        }
        other => println!("δ = {}: {other:?}", search.delay),
    }
}

fn verdict_name(v: &Verdict) -> String {
    match v {
        Verdict::NoViolation { stage } => format!("NoViolation ({stage:?})"),
        Verdict::Violation { .. } => "Violation".into(),
        Verdict::Possible => "Possible".into(),
        Verdict::Abandoned => "Abandoned".into(),
    }
}
