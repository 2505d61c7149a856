//! Golden span surface: every span one traced serial session records for
//! a check that settles at each stage of the Fig. 4 pipeline, one check
//! the base fixpoint refutes before any cone is built, one
//! backtrack-capped trip, one SAT check, and the same capped trip on the
//! hybrid engine, which hands it to SAT. Each line pins a span's name, category and
//! `(key, value)` arguments in recording order; start time, duration and
//! thread id are dropped. The `prepare.*` spans are included: trace
//! consumers read both families by name.
//!
//! Regenerate after an intended change with
//!
//! ```text
//! cargo test -p ltt-core --test span_golden bless -- --ignored
//! ```

use ltt_core::{CheckSession, Engine, Obs, Recorder, VerifyConfig};
use ltt_netlist::generators::{figure1, forked_false_path_chain, stem_conflict_circuit};
use ltt_netlist::suite::iscas85_suite;
use ltt_netlist::{Circuit, NetId};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/spans.txt");

/// The spans of one check `(output, δ)` on a fresh traced session, one
/// `label\tname cat key=value…` line each.
fn traced(out: &mut String, label: &str, circuit: &Circuit, output: NetId, delta: i64, cap: u64) {
    traced_on(out, label, circuit, output, delta, cap, Engine::Narrow);
}

/// [`traced`] on `engine`.
fn traced_on(
    out: &mut String,
    label: &str,
    circuit: &Circuit,
    output: NetId,
    delta: i64,
    cap: u64,
    engine: Engine,
) {
    let recorder = Arc::new(Recorder::new());
    let config = VerifyConfig {
        max_backtracks: cap,
        engine,
        obs: Obs::recording(recorder.clone()),
        ..Default::default()
    };
    let session = CheckSession::new(circuit, config);
    let _ = session.verify(output, delta);
    for span in recorder.spans() {
        write!(out, "{label}\t{} {}", span.name, span.cat).unwrap();
        for (key, value) in &span.args {
            write!(out, " {key}={value}").unwrap();
        }
        out.push('\n');
    }
}

fn transcript() -> String {
    let default_cap = VerifyConfig::default().max_backtracks;
    let s432 = iscas85_suite(10)
        .into_iter()
        .find(|e| e.name == "s432")
        .expect("s432 in the suite")
        .circuit;
    let mut out = String::new();
    let fig1 = figure1(10);
    let s = fig1.outputs()[0];
    traced(&mut out, "figure1 61", &fig1, s, 61, default_cap);
    traced(&mut out, "figure1 60", &fig1, s, 60, default_cap);
    traced(&mut out, "figure1 71", &fig1, s, 71, default_cap);
    let forked = forked_false_path_chain(10, 4, 10);
    let s = forked.outputs()[0];
    traced(&mut out, "forked 121", &forked, s, 121, default_cap);
    let stems = stem_conflict_circuit(12, 10);
    let s = stems.outputs()[0];
    traced(&mut out, "stems 111", &stems, s, 111, default_cap);
    let s = s432.net_by_name("s").expect("s432 output s");
    traced(&mut out, "s432 capped", &s432, s, 190, 0);
    let s = fig1.outputs()[0];
    traced_on(
        &mut out,
        "figure1 60 sat",
        &fig1,
        s,
        60,
        default_cap,
        Engine::Sat,
    );
    let s = s432.net_by_name("s").expect("s432 output s");
    traced_on(&mut out, "s432 hybrid", &s432, s, 190, 0, Engine::Hybrid);
    out
}

#[test]
fn spans_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let actual = transcript();
    for (i, (e, a)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(a, e, "span line {} drifted from the golden file", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "span count drifted from the golden file"
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn bless_spans_golden() {
    std::fs::write(GOLDEN, transcript()).expect("write golden file");
}
