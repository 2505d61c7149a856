//! The carry-skip adder walkthrough (paper Figures 2–3): a realistic
//! arithmetic circuit whose *topologically* longest path — the full carry
//! ripple — can never propagate a transition, and how each analysis sees
//! that.
//!
//! Run with `cargo run --release -p ltt-bench --example false_path_adder`.

use ltt_core::{CheckSession, Verdict, VerifyConfig};
use ltt_netlist::generators::carry_skip_adder;
use ltt_sta::{exhaustive_floating_delay, topological_check};

fn main() {
    let width = 8;
    let c = carry_skip_adder(width, 4, 10);
    let cout = c.net_by_name("cout").expect("adder has a carry out");
    let arrival = c.arrival_times();
    let top = arrival[cout.index()];

    println!("{width}-bit carry-skip adder: {} gates", c.num_gates());
    println!("topological delay at cout: {top}");

    // 1. The conservative baseline cannot rule anything out below top.
    assert!(topological_check(&c, cout, top));
    println!("topological STA: a delay of {top} looks possible (conservative)");

    // 2. The exact oracle (exhaustive floating-mode simulation) knows
    //    better: rippling across a block requires every propagate signal to
    //    be 1, which makes the skip multiplexer bypass the block.
    let oracle = exhaustive_floating_delay(&c, cout).expect("small adder");
    println!(
        "exhaustive simulation: true floating-mode delay of cout is {} ({} levels shaved)",
        oracle.delay,
        (top - oracle.delay) / 10
    );

    // 3. The waveform-narrowing verifier proves the same bound without
    //    enumerating 2^17 vectors, and finds a certified witness at the
    //    exact delay.
    let session = CheckSession::new(&c, VerifyConfig::default());
    let search = session.exact_delay(cout);
    println!(
        "waveform narrowing: exact delay {} proven with {} backtracks",
        search.delay,
        search.backtracks()
    );
    assert_eq!(search.delay, oracle.delay);

    let r = session.verify(cout, search.delay + 1);
    match r.verdict {
        Verdict::NoViolation { stage } => println!(
            "δ = {}: proven impossible by the {stage:?} stage in {:.2} ms",
            search.delay + 1,
            r.elapsed.as_secs_f64() * 1e3
        ),
        other => println!("unexpected: {other:?}"),
    }
}
