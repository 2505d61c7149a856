//! Regenerates **Figure 1 / Example 2**: the Hrapcenko false-path circuit,
//! the narrowing trace outcome at δ = 61, and the exact-delay bracketing.
//!
//! Run with `cargo run --release -p ltt-bench --bin fig1_example2`.

use ltt_core::{CheckSession, Verdict, VerifyConfig};
use ltt_netlist::generators::figure1;
use ltt_sta::{describe_vector, exhaustive_floating_delay, path_analysis};

fn main() {
    let c = figure1(10);
    let s = c.outputs()[0];
    println!(
        "Figure 1 circuit: {} gates, {} inputs",
        c.num_gates(),
        c.inputs().len()
    );
    println!("Topological delay (top): {}", c.topological_delay());

    let oracle = exhaustive_floating_delay(&c, s).expect("7 inputs");
    println!("Exhaustive floating-mode delay (oracle): {}", oracle.delay);

    let session = CheckSession::new(&c, VerifyConfig::default());
    let r61 = session.verify(s, 61);
    println!(
        "verify(ξ, s, 61): {:?} in {:.3} ms",
        r61.verdict,
        r61.elapsed.as_secs_f64() * 1e3
    );
    let r60 = session.verify(s, 60);
    match &r60.verdict {
        Verdict::Violation { vector } => {
            println!("verify(ξ, s, 60): test vector found:");
            for (name, level) in describe_vector(&c, vector) {
                print!("  {name}={level}");
            }
            println!();
        }
        other => println!("verify(ξ, s, 60): {other:?}"),
    }

    let search = session.exact_delay(s);
    println!(
        "exact_delay search: {} (proven: {}), {} backtracks",
        search.delay,
        search.proven_exact,
        search.backtracks()
    );

    // The path-enumeration baseline sees the false path explicitly.
    let paths = path_analysis(&c, s, 100, 10);
    println!(
        "path-enumeration baseline: {} paths examined before a sensitizable one of length {:?}",
        paths.paths_examined, paths.delay_estimate
    );
    assert_eq!(
        search.delay, oracle.delay,
        "verifier must agree with oracle"
    );
    println!("OK: verifier and oracle agree (exact = {}).", search.delay);
}
