//! The central correctness property of the whole system, checked across
//! crates: on every circuit small enough for exhaustive simulation, the
//! verifier's exact-delay search must agree with the floating-mode oracle —
//! for random circuits, classic structures, and every false-path gadget.

use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::generators::{
    array_multiplier, carry_skip_adder, cascade, false_path_chain, figure1,
    forked_false_path_chain, parity_tree, random_circuit, ripple_carry_adder,
    shared_select_mux_chain, stem_conflict_circuit, RandomCircuitConfig,
};
use ltt_netlist::transform::nor_mapping;
use ltt_netlist::{Circuit, GateKind};
use ltt_sta::{exhaustive_floating_delay, vector_violates};

fn assert_agrees(c: &Circuit) {
    let config = VerifyConfig::default();
    for &o in c.outputs() {
        let Some(oracle) = exhaustive_floating_delay(c, o) else {
            continue; // cone too wide for the oracle
        };
        let search = CheckSession::new(c, config.clone()).exact_delay(o);
        assert!(
            search.proven_exact,
            "{} output {}: search not decided",
            c.name(),
            c.net(o).name()
        );
        assert_eq!(
            search.delay,
            oracle.delay,
            "{} output {}: verifier {} vs oracle {}",
            c.name(),
            c.net(o).name(),
            search.delay,
            oracle.delay
        );
        if oracle.delay > 0 {
            let v = search.vector.expect("witness for positive delay");
            assert!(vector_violates(c, &v, o, search.delay));
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn classic_structures_agree() {
    assert_agrees(&figure1(10));
    assert_agrees(&cascade(GateKind::And, 6, 10));
    assert_agrees(&cascade(GateKind::Nor, 5, 10));
    assert_agrees(&parity_tree(8, 10));
    assert_agrees(&ripple_carry_adder(4, 10));
    assert_agrees(&carry_skip_adder(8, 4, 10));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn false_path_gadgets_agree() {
    for (p, q) in [(3, 2), (4, 3), (5, 2), (6, 4), (7, 5)] {
        assert_agrees(&false_path_chain(p, q, 10));
    }
    for (p, q) in [(4, 3), (6, 4), (7, 3)] {
        assert_agrees(&forked_false_path_chain(p, q, 10));
    }
    for depth in [6, 8, 10, 13] {
        assert_agrees(&stem_conflict_circuit(depth, 10));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn small_multiplier_agrees() {
    assert_agrees(&array_multiplier(3, 10));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn mux_chains_agree() {
    for stages in [1usize, 2, 3, 5, 8] {
        assert_agrees(&shared_select_mux_chain(stages, 10));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn nor_mapped_circuits_agree() {
    assert_agrees(&nor_mapping(&figure1(10), 10));
    assert_agrees(&nor_mapping(&carry_skip_adder(4, 2, 10), 10));
    assert_agrees(&nor_mapping(&parity_tree(5, 10), 10));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn random_circuits_agree() {
    for seed in 0..12 {
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 8,
            num_gates: 40,
            num_outputs: 3,
            max_fanin: 3,
            depth_bias: 4,
            delay: 10,
            seed,
        });
        assert_agrees(&c);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn random_deep_circuits_agree() {
    for seed in 100..106 {
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 6,
            num_gates: 60,
            num_outputs: 2,
            max_fanin: 2,
            depth_bias: 8,
            delay: 7, // non-uniform-friendly delay value
            seed,
        });
        assert_agrees(&c);
    }
}

#[test]
fn mixed_delays_agree() {
    // Different delays per gate kind exercise non-unit arithmetic.
    use ltt_netlist::{CircuitBuilder, DelayInterval};
    let mut b = CircuitBuilder::new("mixed_delays");
    let x = b.input("x");
    let y = b.input("y");
    let z = b.input("z");
    let a = b.gate("a", GateKind::And, &[x, y], DelayInterval::fixed(3));
    let o = b.gate("o", GateKind::Or, &[a, z], DelayInterval::fixed(17));
    let n = b.gate("n", GateKind::Not, &[o], DelayInterval::fixed(5));
    let w = b.gate("w", GateKind::Xor, &[n, x], DelayInterval::fixed(11));
    b.mark_output(w);
    assert_agrees(&b.build().unwrap());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn serial_false_path_gadgets_agree() {
    // The `path_blowup` experiment chains Figure-1-style gadgets serially
    // and assumes exact = 60·k; validate that against the oracle for the
    // sizes the window allows.
    use ltt_netlist::{CircuitBuilder, DelayInterval};
    let d = DelayInterval::fixed(10);
    for k in [1usize, 2] {
        let mut b = CircuitBuilder::new(format!("serial{k}"));
        let mut feed = b.input("x0");
        for g in 0..k {
            let x1 = b.input(format!("x1_{g}"));
            let shared = b.input(format!("sh_{g}"));
            let mut n = b.gate(format!("n1_{g}"), GateKind::And, &[feed, x1], d);
            for i in 2..4 {
                let side = b.input(format!("p{i}_{g}"));
                let kind = if i % 2 == 1 {
                    GateKind::Or
                } else {
                    GateKind::And
                };
                n = b.gate(format!("n{i}_{g}"), kind, &[n, side], d);
            }
            n = b.gate(format!("n4_{g}"), GateKind::And, &[n, shared], d);
            let sb = b.input(format!("sb_{g}"));
            let short = b.gate(format!("short_{g}"), GateKind::And, &[n, sb], d);
            let a1 = b.gate(format!("a1_{g}"), GateKind::Or, &[n, shared], d);
            let q2 = b.input(format!("q2_{g}"));
            let a2 = b.gate(format!("a2_{g}"), GateKind::And, &[a1, q2], d);
            feed = b.gate(format!("s_{g}"), GateKind::Or, &[a2, short], d);
        }
        b.mark_output(feed);
        let c = b.build().unwrap();
        let s = c.outputs()[0];
        let oracle = exhaustive_floating_delay(&c, s).expect("small enough");
        assert_eq!(oracle.delay, 60 * k as i64, "serial({k}) oracle");
        let search = CheckSession::new(&c, VerifyConfig::default()).exact_delay(s);
        assert!(search.proven_exact);
        assert_eq!(search.delay, oracle.delay, "serial({k}) verifier");
    }
}
