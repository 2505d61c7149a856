//! Cross-crate property test: every generated circuit survives a
//! `.bench`-format round trip with identical logic function, identical
//! timing analysis, and identical verifier verdicts.

use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::bench_format::{parse_bench, write_bench};
use ltt_netlist::generators::{
    carry_skip_adder, false_path_chain, figure1, random_circuit, RandomCircuitConfig,
};
use ltt_netlist::{Circuit, DelayInterval};
use proptest::prelude::*;

fn roundtrip(c: &Circuit, delay: u32) -> Circuit {
    let text = write_bench(c);
    parse_bench(c.name(), &text, DelayInterval::fixed(delay)).expect("roundtrip parses")
}

fn assert_equivalent(a: &Circuit, b: &Circuit) {
    assert_eq!(a.num_gates(), b.num_gates());
    assert_eq!(a.inputs().len(), b.inputs().len());
    assert_eq!(a.outputs().len(), b.outputs().len());
    assert_eq!(a.topological_delay(), b.topological_delay());
    // Input order may be preserved by name; evaluate both on the same
    // vectors by name mapping.
    let n = a.inputs().len();
    if n <= 16 {
        for v in 0..(1u64 << n) {
            let vec_a: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            let mut vec_b = vec![false; n];
            for (i, &net) in a.inputs().iter().enumerate() {
                let name = a.net(net).name();
                let pos = b
                    .inputs()
                    .iter()
                    .position(|&bn| b.net(bn).name() == name)
                    .expect("same input names");
                vec_b[pos] = vec_a[i];
            }
            let out_a = a.evaluate(&vec_a);
            let out_b = b.evaluate(&vec_b);
            // Outputs may be reordered; match by name.
            for (k, &net) in a.outputs().iter().enumerate() {
                let name = a.net(net).name();
                let pos = b
                    .outputs()
                    .iter()
                    .position(|&bn| b.net(bn).name() == name)
                    .expect("same output names");
                assert_eq!(out_a[k], out_b[pos], "vector {v:b} output {name}");
            }
        }
    }
}

#[test]
fn figure1_roundtrips() {
    let c = figure1(10);
    let r = roundtrip(&c, 10);
    assert_equivalent(&c, &r);
    // Verifier verdicts carry over.
    let config = VerifyConfig::default();
    let s_a = c.outputs()[0];
    let s_b = r.net_by_name(c.net(s_a).name()).unwrap();
    assert_eq!(
        CheckSession::new(&c, config.clone())
            .verify(s_a, 61)
            .verdict
            .is_no_violation(),
        CheckSession::new(&r, config.clone())
            .verify(s_b, 61)
            .verdict
            .is_no_violation()
    );
}

#[test]
fn adders_roundtrip() {
    let c = carry_skip_adder(8, 4, 10);
    let r = roundtrip(&c, 10);
    assert_equivalent(&c, &r);
}

#[test]
fn chains_roundtrip() {
    for (p, q) in [(4, 2), (6, 3)] {
        let c = false_path_chain(p, q, 10);
        let r = roundtrip(&c, 10);
        assert_equivalent(&c, &r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_circuits_roundtrip(seed in 0u64..1000) {
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 6,
            num_gates: 25,
            num_outputs: 2,
            max_fanin: 3,
            depth_bias: 3,
            delay: 10,
            seed,
        });
        let r = roundtrip(&c, 10);
        assert_equivalent(&c, &r);
    }
}
