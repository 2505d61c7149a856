//! Golden delay-search probes: for each engine, every probe's δ, verdict,
//! backtracks, FAN decisions (total and per phase) and a digest of its
//! witness vector, and the search's final
//! `(delay, upper_bound, proven_exact, backtracks)`, on figure1's output,
//! both c17 outputs, s432's critical output and a starved gadget chain
//! whose narrowing search gives up after one backtrack.
//!
//! Regenerate after an intended change with
//!
//! ```text
//! cargo test -p ltt-core --test search_golden bless -- --ignored
//! ```

use ltt_core::{CheckSession, Completeness, Engine, LearningMode, Verdict, VerifyConfig};
use ltt_netlist::generators::{figure1, serial_false_path_gadgets};
use ltt_netlist::suite::{c17, iscas85_suite};
use ltt_netlist::{Circuit, NetId};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/search.txt");

const ENGINES: [Engine; 3] = [Engine::Narrow, Engine::Sat, Engine::Hybrid];

/// 64-bit FNV-1a of a witness vector, one byte per input.
fn digest(vector: &[bool]) -> u64 {
    vector.iter().fold(0xcbf2_9ce4_8422_2325, |h, &bit| {
        (h ^ u64::from(bit)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `label engine` block: a line per probe, then the final interval.
fn searched(out: &mut String, label: &str, circuit: &Circuit, output: NetId, base: &VerifyConfig) {
    for engine in ENGINES {
        let config = VerifyConfig {
            engine,
            ..base.clone()
        };
        let search = CheckSession::new(circuit, config).exact_delay(output);
        let tag = format!("{label} {}", engine.name());
        for probe in &search.probes {
            let verdict = match (&probe.verdict, &probe.completeness) {
                (Verdict::Violation { .. }, _) => "violation".to_string(),
                (Verdict::NoViolation { stage }, _) => format!("safe {stage:?}"),
                (Verdict::Possible, _) => "possible".to_string(),
                (Verdict::Abandoned, Completeness::BudgetExhausted { stage, reason }) => {
                    format!("abandoned {stage:?} {reason:?}")
                }
                (Verdict::Abandoned, Completeness::Exact) => "abandoned".to_string(),
            };
            let witness = match &probe.verdict {
                Verdict::Violation { vector } => format!("{:016x}", digest(vector)),
                _ => "-".to_string(),
            };
            let [p1, p2, p3] = probe.case.decisions_by_phase;
            writeln!(
                out,
                "{tag}\tprobe delta={} {verdict} backtracks={} decisions={} phases={p1}/{p2}/{p3} witness={witness}",
                probe.delta,
                probe.backtracks(),
                probe.case.decisions,
            )
            .unwrap();
        }
        writeln!(
            out,
            "{tag}\tresult delay={} upper_bound={} proven_exact={} backtracks={}",
            search.delay,
            search.upper_bound,
            search.proven_exact,
            search.backtracks()
        )
        .unwrap();
    }
}

fn transcript() -> String {
    let default = VerifyConfig::default();
    let mut out = String::new();
    let fig1 = figure1(10);
    searched(&mut out, "figure1", &fig1, fig1.outputs()[0], &default);
    let c17 = c17(10);
    for &o in c17.outputs() {
        let label = format!("c17 {}", c17.net(o).name());
        searched(&mut out, &label, &c17, o, &default);
    }
    let s432 = iscas85_suite(10)
        .into_iter()
        .find(|e| e.name == "s432")
        .expect("s432 in the suite")
        .circuit;
    let s = s432.net_by_name("s").expect("s432 output s");
    assert_eq!(s432.arrival_times()[s.index()], s432.topological_delay());
    searched(&mut out, "s432 s", &s432, s, &default);
    let starved = VerifyConfig {
        max_backtracks: 1,
        dominators: false,
        stem_correlation: false,
        learning: LearningMode::Off,
        ..Default::default()
    };
    let gadgets = serial_false_path_gadgets(4, 10);
    searched(
        &mut out,
        "gadgets4",
        &gadgets,
        gadgets.outputs()[0],
        &starved,
    );
    out
}

#[test]
fn searches_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let actual = transcript();
    for (i, (e, a)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(a, e, "search line {} drifted from the golden file", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "probe count drifted from the golden file"
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn bless_search_golden() {
    std::fs::write(GOLDEN, transcript()).expect("write golden file");
}
