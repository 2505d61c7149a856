//! Checks an ISCAS `.bench` netlist from the command line: parses the
//! file, reports per-output topological and exact floating-mode delays,
//! and flags outputs whose longest path is false.
//!
//! Run with
//! `cargo run --release -p ltt-bench --example bench_file_check -- <file.bench> [gate-delay]`
//! (with no arguments it analyzes the embedded c17).

use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::bench_format::parse_bench;
use ltt_netlist::suite::c17;
use ltt_netlist::{Circuit, DelayInterval};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let delay: u32 = args.get(2).map_or(Ok(10), |s| s.parse())?;
    let circuit: Circuit = match args.get(1) {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            parse_bench(path, &text, DelayInterval::fixed(delay))?
        }
        None => {
            eprintln!("(no file given; analyzing the embedded c17)");
            c17(delay)
        }
    };
    println!(
        "{}: {} gates, {} inputs, {} outputs, topological delay {}",
        circuit.name(),
        circuit.num_gates(),
        circuit.inputs().len(),
        circuit.outputs().len(),
        circuit.topological_delay()
    );

    let config = VerifyConfig {
        max_backtracks: 10_000,
        ..Default::default()
    };
    let session = CheckSession::new(&circuit, config);
    let arrival = circuit.arrival_times();
    for &o in circuit.outputs() {
        let top = arrival[o.index()];
        let search = session.exact_delay(o);
        let label = if !search.proven_exact {
            format!("<= {} (search abandoned)", search.upper_bound)
        } else if search.delay < top {
            format!("{}  ** longest path FALSE **", search.delay)
        } else {
            search.delay.to_string()
        };
        println!(
            "  output {:<12} top {:>6}   exact {label}",
            circuit.net(o).name(),
            top
        );
    }
    Ok(())
}
