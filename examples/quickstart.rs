//! Quickstart: build a small circuit, run a timing check, and search for
//! its exact floating-mode delay.
//!
//! Run with `cargo run --release -p ltt-bench --example quickstart`.

use ltt_core::{CheckSession, Verdict, VerifyConfig};
use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
use ltt_sta::describe_vector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny circuit with a false path: the long chain from x is
    // transparent only while `sel` settles 0 (it feeds two OR gates on the
    // chain), but the product gate that would deliver its transitions to y
    // needs `sel` to settle 1 — a conflict, so the topologically longest
    // path can never propagate a transition.
    let d = DelayInterval::fixed(10);
    let mut b = CircuitBuilder::new("quickstart");
    let sel = b.input("sel");
    let a = b.input("a");
    let x = b.input("x");

    // Long chain from x, transparent only while sel settles 0.
    let c1 = b.gate("c1", GateKind::Or, &[x, sel], d);
    let c2 = b.gate("c2", GateKind::And, &[c1, x], d);
    let c3 = b.gate("c3", GateKind::Or, &[c2, sel], d);

    // The two mux products and the output: p0 needs sel = 1 (conflict!).
    let nsel = b.gate("nsel", GateKind::Not, &[sel], d);
    let p0 = b.gate("p0", GateKind::And, &[c3, sel], d);
    let p1 = b.gate("p1", GateKind::And, &[a, nsel], d);
    let y = b.gate("y", GateKind::Or, &[p0, p1], d);
    b.mark_output(y);
    let circuit = b.build()?;

    let top = circuit.topological_delay();
    println!(
        "circuit `{}`: {} gates, topological delay {top}",
        circuit.name(),
        circuit.num_gates()
    );

    // Ask the paper's timing-check question directly: can y still
    // transition at or after δ?
    // A session prepares the per-circuit analyses once for all its checks.
    let session = CheckSession::new(&circuit, VerifyConfig::default());
    for delta in [top, top - 10] {
        let report = session.verify(y, delta);
        match &report.verdict {
            Verdict::NoViolation { stage } => {
                println!("δ = {delta}: impossible (proved by {stage:?})");
            }
            Verdict::Violation { vector } => {
                let pretty: Vec<String> = describe_vector(&circuit, vector)
                    .into_iter()
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect();
                println!("δ = {delta}: violating vector {}", pretty.join(" "));
            }
            other => println!("δ = {delta}: {other:?}"),
        }
    }

    // Or search for the exact floating-mode delay in one call.
    let search = session.exact_delay(y);
    println!(
        "exact floating-mode delay: {} (topological {top}) — the longest path is {}",
        search.delay,
        if search.delay < top { "FALSE" } else { "true" }
    );
    Ok(())
}
