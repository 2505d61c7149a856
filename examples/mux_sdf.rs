//! Complex gates + SDF back-annotation: a shared-select MUX chain (the
//! textbook false-path structure) whose delays come from an SDF file.
//!
//! Demonstrates two extensions the paper's conclusion announces:
//! constraint models for complex gates (MUX) and SDF back-annotation.
//!
//! Run with `cargo run --release -p ltt-bench --example mux_sdf`.

use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::generators::shared_select_mux_chain;
use ltt_netlist::sdf::apply_sdf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6-stage MUX chain with one shared select: the full data-chain path
    // alternates between the a- and b-ports, so it would need the select
    // to settle both ways — statically false.
    let chain = shared_select_mux_chain(6, 10);
    println!(
        "6-stage shared-select MUX chain: {} gates, topological delay {}",
        chain.num_gates(),
        chain.topological_delay()
    );

    let config = VerifyConfig::default();
    let s = chain.outputs()[0];
    let search = CheckSession::new(&chain, config.clone()).exact_delay(s);
    println!(
        "uniform delays: exact floating-mode delay {} (a settled select lets\n\
         at most one unstable stage output propagate one further level)",
        search.delay
    );

    // Back-annotate per-stage delays from an SDF file: the middle stages
    // are much slower, as a placed-and-routed netlist might be.
    let sdf = r#"(DELAYFILE
      (SDFVERSION "3.0")
      (DESIGN "mux_chain_6")
      (CELL (CELLTYPE "MUX2") (INSTANCE m0)
        (DELAY (ABSOLUTE (IOPATH sel m0 (8:9:10)))))
      (CELL (CELLTYPE "MUX2") (INSTANCE m1)
        (DELAY (ABSOLUTE (IOPATH sel m1 (38:40:45)))))
      (CELL (CELLTYPE "MUX2") (INSTANCE m2)
        (DELAY (ABSOLUTE (IOPATH sel m2 (55:58:60)))))
      (CELL (CELLTYPE "MUX2") (INSTANCE m3)
        (DELAY (ABSOLUTE (IOPATH sel m3 (18:19:20)))))
      (CELL (CELLTYPE "MUX2") (INSTANCE m4)
        (DELAY (ABSOLUTE (IOPATH sel m4 (9:10:12)))))
      (CELL (CELLTYPE "MUX2") (INSTANCE m5)
        (DELAY (ABSOLUTE (IOPATH sel m5 (14:15:15)))))
    )"#;
    let annotated = apply_sdf(&chain, sdf)?;
    println!(
        "after SDF back-annotation: topological delay {}",
        annotated.topological_delay()
    );
    let search = CheckSession::new(&annotated, config.clone()).exact_delay(annotated.outputs()[0]);
    println!(
        "annotated exact floating-mode delay: {} (proven: {})",
        search.delay, search.proven_exact
    );
    assert!(search.delay < annotated.topological_delay());
    println!("the false chain path is still false under annotated delays ✓");
    Ok(())
}
