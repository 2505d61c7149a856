//! End-to-end integration of the full pipeline: the paper's worked
//! examples, cross-crate, through the public API only.

use ltt_core::{CheckSession, Stage, Verdict, VerifyConfig};
use ltt_netlist::generators::{
    carry_skip_adder, figure1, forked_false_path_chain, stem_conflict_circuit,
};
use ltt_netlist::suite::c17_nor;
use ltt_sta::vector_violates;

#[test]
fn example2_full_pipeline() {
    // Paper Example 2: Figure 1 circuit, δ = 61 impossible, δ = 60 exact.
    let c = figure1(10);
    let s = c.outputs()[0];
    let config = VerifyConfig::default();

    let r = CheckSession::new(&c, config.clone()).verify(s, 61);
    assert_eq!(
        r.verdict,
        Verdict::NoViolation {
            stage: Stage::Narrowing
        },
        "plain narrowing proves δ = 61, as in the paper's trace"
    );

    let r = CheckSession::new(&c, config.clone()).verify(s, 60);
    let Verdict::Violation { vector } = &r.verdict else {
        panic!("expected a violation at δ = 60, got {:?}", r.verdict);
    };
    assert!(vector_violates(&c, vector, s, 60));
}

#[test]
fn c17_exact_is_50_on_nor_netlist() {
    // Table 1 row 1: the NOR-gate implementation of c17 has top = exact = 50.
    let c = c17_nor(10);
    let config = VerifyConfig::default();
    for &o in c.outputs() {
        let search = CheckSession::new(&c, config.clone()).exact_delay(o);
        assert!(search.proven_exact);
        assert_eq!(search.delay, c.arrival_times()[o.index()]);
    }
    assert_eq!(c.topological_delay(), 50);
}

#[test]
fn dominator_gadget_settles_at_the_dominator_stage() {
    let c = forked_false_path_chain(10, 4, 10);
    let s = c.outputs()[0];
    let config = VerifyConfig::default();
    let exact = 10 * (10 + 2);
    let r = CheckSession::new(&c, config.clone()).verify(s, exact + 1);
    assert_eq!(
        r.verdict,
        Verdict::NoViolation {
            stage: Stage::Dominators
        }
    );
    // And the exact δ yields a certified vector.
    let r = CheckSession::new(&c, config.clone()).verify(s, exact);
    assert!(matches!(r.verdict, Verdict::Violation { .. }));
}

#[test]
fn stem_gadget_settles_at_the_stem_stage() {
    let c = stem_conflict_circuit(12, 10);
    let s = c.outputs()[0];
    let config = VerifyConfig::default();
    let r = CheckSession::new(&c, config.clone()).verify(s, 111);
    assert_eq!(
        r.verdict,
        Verdict::NoViolation {
            stage: Stage::StemCorrelation
        }
    );
}

#[test]
fn ablation_stage_order_is_monotone() {
    // Disabling a stage never turns N into V, only into P (soundness of
    // the staging): check all four configurations on the stem gadget.
    let c = stem_conflict_circuit(10, 10);
    let s = c.outputs()[0];
    let delta = 91;
    let mut outcomes = Vec::new();
    for (dom, stems, ca) in [
        (false, false, false),
        (true, false, false),
        (true, true, false),
        (true, true, true),
    ] {
        let config = VerifyConfig {
            dominators: dom,
            stem_correlation: stems,
            case_analysis: ca,
            ..Default::default()
        };
        let r = CheckSession::new(&c, config.clone()).verify(s, delta);
        outcomes.push(r.verdict.is_no_violation());
    }
    // Once a configuration proves it, every stronger one does too.
    for w in outcomes.windows(2) {
        assert!(w[1] >= w[0], "stage power must be monotone: {outcomes:?}");
    }
    assert!(outcomes[3], "the full pipeline decides");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn carry_skip_pipeline_matches_oracle() {
    let c = carry_skip_adder(8, 4, 10);
    let cout = c.net_by_name("cout").unwrap();
    let oracle = ltt_sta::exhaustive_floating_delay(&c, cout).unwrap();
    let search = CheckSession::new(&c, VerifyConfig::default()).exact_delay(cout);
    assert!(search.proven_exact);
    assert_eq!(search.delay, oracle.delay);
    let v = search.vector.unwrap();
    assert!(vector_violates(&c, &v, cout, oracle.delay));
}

#[test]
fn transition_mode_is_sound_wrt_topology() {
    use ltt_core::DelayMode;
    let c = figure1(10);
    let s = c.outputs()[0];
    let config = VerifyConfig {
        delay_mode: DelayMode::Transition,
        case_analysis: false,
        ..Default::default()
    };
    // Beyond the topological delay nothing can transition in any mode.
    assert!(CheckSession::new(&c, config.clone())
        .verify(s, 71)
        .verdict
        .is_no_violation());
    // At small δ the system stays consistent (transitions at 0 exist).
    let r = CheckSession::new(&c, config.clone()).verify(s, 10);
    assert!(!r.verdict.is_no_violation());
}
