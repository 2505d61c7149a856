//! Integration of the evaluation suite with the verifier: every stand-in's
//! engineered delays must be confirmed by the pipeline itself (the Table 1
//! regeneration in miniature), and the stage structure must match the spec.

use ltt_core::{CheckSession, Stage, Verdict, VerifyConfig};
use ltt_netlist::suite::{standin, standin_specs, SpineKind};

fn critical_output(c: &ltt_netlist::Circuit) -> ltt_netlist::NetId {
    let arrival = c.arrival_times();
    c.outputs()
        .iter()
        .copied()
        .max_by_key(|o| arrival[o.index()])
        .unwrap()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn every_standin_has_the_engineered_exact_delay() {
    let config = VerifyConfig {
        max_backtracks: 10_000,
        ..Default::default()
    };
    for spec in standin_specs() {
        let c = standin(&spec, 10);
        let s = critical_output(&c);
        let search = CheckSession::new(&c, config.clone()).exact_delay(s);
        assert!(search.proven_exact, "{}: search undecided", spec.name);
        assert_eq!(
            search.delay,
            10 * spec.exact_levels as i64,
            "{}: exact delay",
            spec.name
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn standins_settle_at_their_designed_stage() {
    let config = VerifyConfig::default();
    for spec in standin_specs() {
        if spec.exact_levels == spec.levels {
            continue; // no false path: δ = exact + 1 exceeds top
        }
        let c = standin(&spec, 10);
        let s = critical_output(&c);
        let delta = 10 * spec.exact_levels as i64 + 1;
        let r = CheckSession::new(&c, config.clone()).verify(s, delta);
        let Verdict::NoViolation { stage } = r.verdict else {
            panic!("{}: δ = {delta} not proven", spec.name);
        };
        let expected = match spec.kind {
            SpineKind::Chain => Stage::Narrowing,
            SpineKind::Forked => Stage::Dominators,
            SpineKind::StemMux => Stage::StemCorrelation,
        };
        assert_eq!(stage, expected, "{}: wrong deciding stage", spec.name);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn filler_outputs_never_exceed_the_exact_delay() {
    // The stand-in construction promises that no filler path reaches the
    // exact delay; the verifier confirms it output by output.
    let config = VerifyConfig {
        max_backtracks: 2_000,
        ..Default::default()
    };
    for spec in standin_specs().into_iter().take(4) {
        let c = standin(&spec, 10);
        let critical = critical_output(&c);
        let exact = 10 * spec.exact_levels as i64;
        for &o in c.outputs() {
            if o == critical {
                continue;
            }
            let r = CheckSession::new(&c, config.clone()).verify(o, exact);
            assert!(
                r.verdict.is_no_violation(),
                "{}: filler output {} can reach {exact}",
                spec.name,
                c.net(o).name()
            );
        }
    }
}
