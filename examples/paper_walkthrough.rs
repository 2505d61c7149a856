//! A guided, printed walkthrough of the paper's two worked examples —
//! Example 1 (one AND-gate projection) and Example 2 (the full narrowing
//! of the Figure 1 circuit at δ = 61) — with the library's values shown
//! next to the paper's.
//!
//! Run with `cargo run --release -p ltt-bench --example paper_walkthrough`.

use ltt_core::{explain, project, CheckSession, Narrower, VerifyConfig};
use ltt_netlist::generators::figure1;
use ltt_netlist::GateKind;
use ltt_waveform::{Aw, Level, Signal, Time};

fn main() {
    // ---- Example 1 -------------------------------------------------------
    println!("== Example 1: projecting one 2-input AND constraint (delay 0) ==");
    let d_i = Signal::new(
        Aw::before(Time::new(33)),
        Aw::new(Time::new(50), Time::new(100)),
    );
    let d_j = Signal::new(Aw::new(Time::new(25), Time::new(75)), Aw::EMPTY);
    let d_s = Signal::new(Aw::new(Time::new(35), Time::new(125)), Aw::EMPTY);
    println!("  inputs : D_i = {d_i}   D_j = {d_j}");
    println!("  output : D_s = {d_s}");
    let p = project(GateKind::And, 0, &[d_i, d_j], d_s);
    println!("  paper  : D_i' = (phi, 1|[50, 100])   D_j' = (0|[35, 75], phi)   D_s' = (0|[35, 75], phi)");
    println!(
        "  ours   : D_i' = {}   D_j' = {}   D_s' = {}",
        p.inputs[0], p.inputs[1], p.output
    );
    assert_eq!(
        p.inputs[0],
        Signal::new(Aw::EMPTY, Aw::new(Time::new(50), Time::new(100)))
    );
    assert_eq!(
        p.inputs[1],
        Signal::new(Aw::new(Time::new(35), Time::new(75)), Aw::EMPTY)
    );
    assert_eq!(
        p.output,
        Signal::new(Aw::new(Time::new(35), Time::new(75)), Aw::EMPTY)
    );
    println!("  (identical)");

    // ---- Example 2 -------------------------------------------------------
    println!();
    println!("== Example 2: the Figure 1 circuit, timing check (ξ, s, 61) ==");
    let c = figure1(10);
    let s = c.outputs()[0];
    println!(
        "  circuit: {} gates of delay 10, top = {}, the 70-path is false",
        c.num_gates(),
        c.topological_delay()
    );

    // Forward pass: settle bounds, exactly the paper's first narrowings.
    let mut nw = Narrower::new(&c);
    for &i in c.inputs() {
        nw.narrow_net(i, Signal::floating_input());
    }
    nw.reach_fixpoint();
    println!("  forward settle bounds (paper: n1 ≤ 10, n2 ≤ 20, …, n7 ≤ 60):");
    for name in ["n1", "n2", "n3", "n4", "n5", "n6", "n7"] {
        let net = c.net_by_name(name).unwrap();
        println!("    {name} settles by {}", nw.domain(net).latest_settle());
    }

    // The check constraint, applied one gate at a time: g8 removes n5's
    // controlling class and pins n7's last-transition interval.
    nw.narrow_net(s, Signal::violation(Time::new(61)));
    let g8 = c.net(s).driver().unwrap();
    nw.apply_gate(g8);
    let n5 = c.net_by_name("n5").unwrap();
    let n7 = c.net_by_name("n7").unwrap();
    println!("  after one application of g8's constraint at δ = 61:");
    println!(
        "    D_n5 = {}   (paper: (0|[-inf, 50], phi) — class 1 removed)",
        nw.domain(n5)
    );
    println!(
        "    D_n7 = {}   (paper: (0|[51, 60], 1|[51, 60]))",
        nw.domain(n7)
    );
    assert!(nw.domain(n5)[Level::One].is_empty());
    assert_eq!(
        nw.domain(n7)[Level::Zero],
        Aw::new(Time::new(51), Time::new(60))
    );

    // Running to the fixpoint reaches the paper's contradiction at e3.
    let result = nw.reach_fixpoint();
    println!("  full fixpoint: {result:?}  (paper: D_e3 = (phi, phi) ⇒ D_s = (phi, phi))");

    // The packaged pipeline agrees, and δ = 60 yields the witness.
    let session = CheckSession::new(&c, VerifyConfig::default());
    assert!(session.verify(s, 61).verdict.is_no_violation());
    let r = session.verify(s, 60);
    println!(
        "  verify(ξ, s, 61): no violation; verify(ξ, s, 60): {:?}",
        r.verdict
    );

    // And the explanation facility names the structures of §4.
    println!();
    println!("== explain(ξ, s, 60) ==");
    print!("{}", explain(&c, s, 60));
}
