//! Two traced passes of each workload give identical verdicts and
//! identical exact counters, and the verdicts are the golden ones.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the `c6288` pass alone takes about ten seconds).

use ltt_perfbench::library::{check_pass, golden, pass_layers, Kind, Library};
use ltt_perfbench::report::Metrics;
use ltt_perfbench::served::replay;

/// The metrics that must repeat exactly: counts and ratios of counts.
fn exact(m: &Metrics) -> Vec<(&'static str, f64)> {
    m.0.iter()
        .filter(|(_, _, unit)| *unit == "count" || *unit == "ratio")
        .map(|&(name, value, _)| (name, value))
        .collect()
}

fn library_repeats(kind: Kind) {
    let lib = Library::setup(kind, 7);
    let golden = golden(kind);
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let pass = lib.run_pass(true);
            let (attempted, failed, certify_times) = check_pass(&lib, &pass, &golden);
            assert!(attempted > 0);
            assert_eq!(failed, 0, "{} disagrees with its golden file", kind.name());
            let layers = pass_layers(&lib, &pass, &certify_times);
            (pass.lines(), exact(&layers))
        })
        .collect();
    assert_eq!(runs[0].0, runs[1].0);
    assert_eq!(runs[0].1, runs[1].1);
}

#[test]
fn table1_repeats() {
    library_repeats(Kind::Table1);
}

#[test]
fn c6288_repeats() {
    library_repeats(Kind::C6288);
}

#[test]
fn sat_repeats() {
    library_repeats(Kind::Sat);
}

#[test]
fn serve_eco_repeats() {
    let a = replay(11, 1_500).expect("first replay");
    let b = replay(11, 1_500).expect("second replay");
    assert_eq!((a.attempted, a.failed), (1_500, 0));
    assert_eq!((b.attempted, b.failed), (1_500, 0));
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.backtracks, b.backtracks);
    assert_eq!(a.reused, b.reused);
    assert_eq!(a.reregisters, b.reregisters);
}

/// The result line carries exactly the metrics `BENCHMARK.json` names.
#[test]
fn metric_names_match_the_benchmark_file() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = spec
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    };
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let mut want = names(section);
        for workload in ["table1", "sat", "serve_eco"] {
            let outcome = ltt_perfbench::run(workload, 3, 0.01, trace).expect("workload runs");
            let mut got: Vec<String> = outcome.metrics.0.iter().map(|m| m.0.to_string()).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} {section}");
        }
    }
}
