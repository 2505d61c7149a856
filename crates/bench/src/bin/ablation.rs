//! Ablation study: the marginal power of each pipeline stage, quantified
//! over the suite's false-path circuits (the analytic counterpart of the
//! BEFORE/AFTER columns of Table 1).
//!
//! For every circuit with a false longest path we run the `δ = exact + 1`
//! check under four configurations — narrowing only, + dominators, + stem
//! correlation, full (+ case analysis) — and report the verdict and time of
//! each.
//!
//! Run with `cargo run --release -p ltt-bench --bin ablation`.

use ltt_bench::render::Table;
use ltt_bench::table1::critical_output;
use ltt_core::{CheckSession, Verdict, VerifyConfig};
use ltt_netlist::suite::{standin, standin_specs, SpineKind};

fn tag(v: &Verdict) -> &'static str {
    match v {
        Verdict::NoViolation { .. } => "N",
        Verdict::Violation { .. } => "V",
        Verdict::Possible => "P",
        Verdict::Abandoned => "A",
    }
}

fn main() {
    let mut table = Table::new(&[
        "circuit",
        "delta",
        "narrowing",
        "+dominators",
        "+stems",
        "full",
        "full cpu (ms)",
    ]);
    for spec in standin_specs() {
        if spec.exact_levels == spec.levels && spec.kind == SpineKind::Chain {
            continue; // no false path: nothing to ablate
        }
        let c = standin(&spec, 10);
        let s = critical_output(&c);
        let full = VerifyConfig {
            max_backtracks: 20_000,
            ..Default::default()
        };
        let search = CheckSession::new(&c, full.clone()).exact_delay(s);
        if !search.proven_exact {
            eprintln!("[skip] {}: search abandoned", spec.name);
            continue;
        }
        let delta = search.delay + 1;

        let configs = [
            VerifyConfig {
                dominators: false,
                stem_correlation: false,
                case_analysis: false,
                ..full.clone()
            },
            VerifyConfig {
                stem_correlation: false,
                case_analysis: false,
                ..full.clone()
            },
            VerifyConfig {
                case_analysis: false,
                ..full.clone()
            },
            full.clone(),
        ];
        let results: Vec<_> = configs
            .iter()
            .map(|cfg| CheckSession::new(&c, cfg.clone()).verify(s, delta))
            .collect();
        table.row(&[
            spec.name.to_string(),
            delta.to_string(),
            tag(&results[0].verdict).to_string(),
            tag(&results[1].verdict).to_string(),
            tag(&results[2].verdict).to_string(),
            tag(&results[3].verdict).to_string(),
            format!("{:.2}", results[3].elapsed.as_secs_f64() * 1e3),
        ]);
    }
    println!("Ablation: verdict of the δ = exact+1 check per configuration");
    println!("(P = still inconclusive at that configuration, N = proven)");
    println!();
    println!("{}", table.render());
}
