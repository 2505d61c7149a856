//! Runs a compact Table-1-style sweep over the small half of the
//! evaluation suite and prints circuit delays with their paper references.
//!
//! Run with `cargo run --release -p ltt-bench --example iscas_suite`.

use ltt_bench::table1::critical_output;
use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::suite::iscas85_suite;

fn main() {
    let config = VerifyConfig {
        max_backtracks: 10_000,
        ..Default::default()
    };
    println!(
        "{:<8} {:>6} {:>6} {:>7} {:>9}   paper(top/exact)",
        "circuit", "gates", "top", "exact", "backtracks"
    );
    for entry in iscas85_suite(10) {
        if entry.circuit.num_gates() > 1500 {
            continue; // keep the example quick; `table1` runs everything
        }
        let s = critical_output(&entry.circuit);
        let top = entry.circuit.arrival_times()[s.index()];
        let search = CheckSession::new(&entry.circuit, config.clone()).exact_delay(s);
        let exact = if search.proven_exact {
            search.delay.to_string()
        } else {
            format!("<={}", search.upper_bound)
        };
        println!(
            "{:<8} {:>6} {:>6} {:>7} {:>9}   {}/{}",
            entry.name,
            entry.circuit.num_gates(),
            top,
            exact,
            search.backtracks(),
            entry.paper_top,
            entry.paper_exact.map_or("-".to_string(), |e| e.to_string()),
        );
    }
}
