//! Development probe: which pipeline stage settles each gadget at
//! δ = exact + 1? Used to tune the suite stand-ins so that each Table 1
//! row exercises the stage the paper reports.

use ltt_core::{CheckSession, Stage, Verdict, VerifyConfig};
use ltt_netlist::generators::{
    array_multiplier, carry_skip_adder, false_path_chain, stem_conflict_circuit,
};
use ltt_netlist::transform::nor_mapping;
use ltt_netlist::{Circuit, CircuitBuilder, DelayInterval, GateKind, NetId};

fn d10() -> DelayInterval {
    DelayInterval::fixed(10)
}

/// Forked false-path chain: the long branch splits into two parallel
/// chains (both falsified by the shared stem) that reconverge before the
/// final OR — ambiguity that stalls local narrowing at the merge.
fn forked_chain(p: usize, q: usize) -> Circuit {
    let mut b = CircuitBuilder::new("forked");
    let x0 = b.input("x0");
    let x1 = b.input("x1");
    let shared = b.input("shared");
    let mut n = b.gate("n1", GateKind::And, &[x0, x1], d10());
    for i in 2..p {
        let side = b.input(format!("p{i}"));
        let kind = if i % 2 == 1 {
            GateKind::Or
        } else {
            GateKind::And
        };
        n = b.gate(format!("n{i}"), kind, &[n, side], d10());
    }
    n = b.gate(format!("n{p}"), GateKind::And, &[n, shared], d10());
    let sb = b.input("sb");
    let short = b.gate("short", GateKind::And, &[n, sb], d10());
    // Two parallel falsified branches of length q−1, merged by an OR.
    let mut arms: Vec<NetId> = Vec::new();
    for arm in ["a", "b"] {
        let mut a = b.gate(format!("{arm}1"), GateKind::Or, &[n, shared], d10());
        for j in 2..q {
            let side = b.input(format!("{arm}side{j}"));
            a = b.gate(format!("{arm}{j}"), GateKind::And, &[a, side], d10());
        }
        arms.push(a);
    }
    let merge = b.gate("merge", GateKind::Or, &[arms[0], arms[1]], d10());
    let s = b.gate("s", GateKind::Or, &[merge, short], d10());
    b.mark_output(s);
    b.build().unwrap()
}

/// Mux-conflict cone: s = OR(AND(y, A), AND(¬y, B)) where the A-chain is
/// transparent only when y settles 0 and the B-chain only when y settles 1.
fn conflict_mux(chain: usize) -> Circuit {
    let mut b = CircuitBuilder::new("mux");
    let y = b.input("y");
    let ny = b.gate("ny", GateKind::Not, &[y], d10());
    let xa = b.input("xa");
    let xb = b.input("xb");
    let mut a = xa;
    let mut bb = xb;
    for j in 0..chain {
        let (ka, kb) = if j % 2 == 0 {
            (GateKind::Or, GateKind::Or)
        } else {
            (GateKind::And, GateKind::And)
        };
        let (sa, sb): (NetId, NetId) = if j % 2 == 0 {
            (y, ny) // OR side: must settle 0 ⇒ A needs y=0, B needs y=1
        } else {
            let fa = b.input(format!("fa{j}"));
            let fb = b.input(format!("fb{j}"));
            (fa, fb)
        };
        a = b.gate(format!("a{j}"), ka, &[a, sa], d10());
        bb = b.gate(format!("b{j}"), kb, &[bb, sb], d10());
    }
    let m1 = b.gate("m1", GateKind::And, &[a, y], d10());
    let m2 = b.gate("m2", GateKind::And, &[bb, ny], d10());
    let s = b.gate("s", GateKind::Or, &[m1, m2], d10());
    b.mark_output(s);
    b.build().unwrap()
}

fn probe(name: &str, c: &Circuit) {
    let s = c.outputs()[0];
    let config = VerifyConfig::default();
    let search = CheckSession::new(c, config.clone()).exact_delay(s);
    let top = c.arrival_times()[s.index()];
    let exact = search.delay;
    // Cross-check with the oracle when feasible.
    let oracle = ltt_sta::exhaustive_floating_delay(c, s).map(|f| f.delay);
    let r = CheckSession::new(c, config.clone()).verify(s, exact + 1);
    let stage = match &r.verdict {
        Verdict::NoViolation { stage } => match stage {
            Stage::Narrowing => "narrowing",
            Stage::Dominators => "dominators",
            Stage::StemCorrelation => "stems",
            Stage::CaseAnalysis => "case-analysis",
            Stage::Sat => "sat",
        },
        other => {
            println!("{name}: UNEXPECTED verdict at exact+1: {other:?}");
            return;
        }
    };
    println!(
        "{name}: top={top} exact={exact} (oracle {oracle:?}, proven={}) stage@exact+1={stage} backtracks={}",
        search.proven_exact, search.backtracks()
    );
}

fn probe_critical(name: &str, c: &Circuit) {
    // Probe using the critical (max-arrival) output.
    let arrival = c.arrival_times();
    let s = c
        .outputs()
        .iter()
        .copied()
        .max_by_key(|o| arrival[o.index()])
        .unwrap();
    let config = ltt_core::VerifyConfig {
        max_backtracks: 20_000,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let search = CheckSession::new(c, config.clone()).exact_delay(s);
    let top = arrival[s.index()];
    if search.proven_exact {
        let r = CheckSession::new(c, config.clone()).verify(s, search.delay + 1);
        let stage = match &r.verdict {
            Verdict::NoViolation { stage } => format!("{stage:?}"),
            other => format!("{other:?}"),
        };
        println!(
            "{name}: top={top} exact={} stage@exact+1={stage} backtracks={} ({} ms)",
            search.delay,
            search.backtracks(),
            t0.elapsed().as_millis()
        );
    } else {
        println!(
            "{name}: top={top} ABANDONED, bounds [{}, {}], backtracks={} ({} ms)",
            search.delay,
            search.upper_bound,
            search.backtracks(),
            t0.elapsed().as_millis()
        );
    }
}

fn main() {
    probe("chain(6,3)", &false_path_chain(6, 3, 10));
    probe("forked(6,3)", &forked_chain(6, 3));
    probe("forked(8,4)", &forked_chain(8, 4));
    probe("forked(12,5)", &forked_chain(12, 5));
    probe("mux(4)", &conflict_mux(4));
    probe("mux(6)", &conflict_mux(6));
    probe("stemlib(8)", &stem_conflict_circuit(8, 10));
    probe("stemlib(12)", &stem_conflict_circuit(12, 10));
    probe_critical("carry_skip(8,4)", &carry_skip_adder(8, 4, 10));
    probe_critical("carry_skip(16,4)x50", &carry_skip_adder(16, 4, 50));
    probe_critical("mul8_nor", &nor_mapping(&array_multiplier(8, 10), 10));
}
