//! Regenerates the **c1908 dominator case study** (§6, last paragraph):
//! "the use of timing dominators was very effective on the traditionally
//! difficult c1908 circuit. It proved that output 57_912 (topological delay
//! of 340) cannot have a delay greater than 200 in 0.76 seconds. This
//! particular case has 5 timing dominators, and no narrowing was performed
//! on 3 of them by the original method."
//!
//! On the s1908 stand-in we sweep δ and report, for each check, the number
//! of dynamic timing dominators, whether the dominator narrowing was needed
//! (vs. plain narrowing), and the CPU time.
//!
//! Run with `cargo run --release -p ltt-bench --bin dominator_study`.

use ltt_bench::render::Table;
use ltt_bench::table1::critical_output;
use ltt_core::carriers::{dynamic_carriers, timing_dominators};
use ltt_core::{CheckSession, Narrower, Stage, Verdict, VerifyConfig};
use ltt_netlist::suite::{standin, standin_specs};
use ltt_waveform::{Signal, Time};

fn main() {
    let spec = standin_specs()
        .into_iter()
        .find(|s| s.name == "s1908")
        .expect("s1908 spec exists");
    let c = standin(&spec, 10);
    let s = critical_output(&c);
    let top = c.arrival_times()[s.index()];
    println!(
        "s1908 stand-in: {} gates, critical output top = {top} (paper c1908: 340)",
        c.num_gates()
    );

    let mut table = Table::new(&["delta", "dominators", "verdict", "stage", "cpu (ms)"]);
    for delta in [
        top - 60,
        top - 30,
        top - 29,
        top - 20,
        top - 10,
        top,
        top + 1,
    ] {
        // Count the dynamic timing dominators at the plain-narrowing
        // fixpoint (the state in which the G.I.T.D. stage starts).
        let mut nw = Narrower::new(&c);
        for &i in c.inputs() {
            nw.narrow_net(i, Signal::floating_input());
        }
        nw.narrow_net(s, Signal::violation(Time::new(delta)));
        let doms = if nw.reach_fixpoint() == ltt_core::FixpointResult::Fixpoint {
            let carriers = dynamic_carriers(&c, nw.domains(), s, delta);
            timing_dominators(&c, &carriers, s).len()
        } else {
            0
        };

        let config = VerifyConfig {
            case_analysis: false,
            ..Default::default()
        };
        let r = CheckSession::new(&c, config.clone()).verify(s, delta);
        let (verdict, stage) = match &r.verdict {
            Verdict::NoViolation { stage } => (
                "N",
                match stage {
                    Stage::Narrowing => "narrowing",
                    Stage::Dominators => "dominators",
                    Stage::StemCorrelation => "stems",
                    Stage::CaseAnalysis => "case analysis",
                    Stage::Sat => "sat",
                },
            ),
            _ => ("P", "-"),
        };
        table.row(&[
            delta.to_string(),
            doms.to_string(),
            verdict.to_string(),
            stage.to_string(),
            format!("{:.2}", r.elapsed.as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: 5 timing dominators on the studied check; dominator");
    println!("narrowing proves δ > 200 impossible where plain narrowing cannot)");
}
