//! Exact floating-mode delay simulation.
//!
//! *Floating mode* (§2 of the paper): a single input vector is applied at
//! time 0 while the initial state of every net is unknown. A net's value is
//! only guaranteed stable once the gate driving it is forced by stable
//! inputs; the classical stabilization rule (Devadas–Keutzer–Malik) is
//!
//! * if some input settles to the gate's controlling value `c`, the output
//!   is stable `d` after the *earliest* such input;
//! * otherwise the output is stable `d` after the *latest* input.
//!
//! The floating-mode delay of a vector is the stabilization time of the
//! output; the floating-mode delay of the circuit is the maximum over all
//! vectors. For cones of bounded input count this module computes it
//! exactly by enumeration — the ground-truth oracle used to validate the
//! waveform-narrowing verifier and to certify the test vectors found by
//! case analysis.

use ltt_netlist::{Circuit, NetId};
use ltt_waveform::Level;

/// Per-net result of a floating-mode simulation: the settled value and the
/// time after which it is guaranteed stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettleInfo {
    /// Final (settled) value of the net.
    pub value: bool,
    /// Time at or after which the net is guaranteed stable.
    pub time: i64,
}

/// Simulates one vector in floating mode and returns the settled value and
/// stabilization bound of every net (indexed by [`NetId::index`]).
///
/// Primary inputs settle to their vector value at time 0.
///
/// # Panics
///
/// Panics if `vector.len()` differs from the number of primary inputs.
///
/// # Examples
///
/// ```
/// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
/// use ltt_sta::floating_settle;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("and");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate("z", GateKind::And, &[x, y], DelayInterval::fixed(10));
/// b.mark_output(z);
/// let c = b.build()?;
/// // A controlling 0 stabilizes the AND immediately after its own settle.
/// let info = floating_settle(&c, &[false, true]);
/// assert_eq!(info[z.index()].time, 10);
/// // All-non-controlling waits for the latest input.
/// let info = floating_settle(&c, &[true, true]);
/// assert_eq!(info[z.index()].time, 10);
/// # Ok(())
/// # }
/// ```
pub fn floating_settle(circuit: &Circuit, vector: &[bool]) -> Vec<SettleInfo> {
    assert_eq!(
        vector.len(),
        circuit.inputs().len(),
        "input vector length mismatch"
    );
    let mut info = vec![
        SettleInfo {
            value: false,
            time: 0
        };
        circuit.num_nets()
    ];
    for (&net, &v) in circuit.inputs().iter().zip(vector) {
        info[net.index()] = SettleInfo { value: v, time: 0 };
    }
    // One buffer of input values, refilled gate by gate.
    let mut vals: Vec<bool> = Vec::new();
    for &gid in circuit.topo_gates() {
        let gate = circuit.gate(gid);
        let d = i64::from(gate.dmax());
        vals.clear();
        vals.extend(gate.inputs().iter().map(|n| info[n.index()].value));
        let value = gate.kind().eval(&vals);
        let time = if gate.kind() == ltt_netlist::GateKind::Mux {
            // The output is forced once the select and the selected data
            // input are stable; if both data inputs settle to the same
            // value, their stability alone also forces it.
            let t = |k: usize| info[gate.inputs()[k].index()].time;
            let selected = if vals[0] { t(2) } else { t(1) };
            let via_select = t(0).max(selected);
            let via_data = if vals[1] == vals[2] {
                t(1).max(t(2))
            } else {
                i64::MAX - d
            };
            via_select.min(via_data) + d
        } else {
            match gate.kind().controlling_value() {
                Some(c) if vals.contains(&c) => {
                    // Earliest controlling input forces the output.
                    gate.inputs()
                        .iter()
                        .zip(&vals)
                        .filter(|&(_, &v)| v == c)
                        .map(|(n, _)| info[n.index()].time)
                        .min()
                        .expect("some controlling input exists")
                        + d
                }
                _ => {
                    gate.inputs()
                        .iter()
                        .map(|n| info[n.index()].time)
                        .max()
                        .expect("gate has inputs")
                        + d
                }
            }
        };
        info[gate.output().index()] = SettleInfo { value, time };
    }
    info
}

/// The floating-mode delay of `vector` at the given output net.
pub fn vector_delay(circuit: &Circuit, vector: &[bool], output: NetId) -> i64 {
    floating_settle(circuit, vector)[output.index()].time
}

/// Whether the vector still allows a transition on `output` at or after
/// `delta` — i.e. whether it *violates* the timing check `(ξ, output, δ)`.
///
/// This is the exact certificate check applied to every test vector the
/// case analysis reports.
pub fn vector_violates(circuit: &Circuit, vector: &[bool], output: NetId, delta: i64) -> bool {
    vector_delay(circuit, vector, output) >= delta
}

/// The result of an exact floating-delay computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloatingDelay {
    /// The exact floating-mode delay of the output.
    pub delay: i64,
    /// A vector achieving it (over the *full* input list of the circuit;
    /// inputs outside the output's cone are set to `false`).
    pub witness: Vec<bool>,
}

/// Maximum cone-input count accepted by [`exhaustive_floating_delay`].
pub const EXHAUSTIVE_INPUT_LIMIT: usize = 26;

/// Computes the exact floating-mode delay of `output` by enumerating all
/// assignments of the inputs in its fan-in cone (inputs outside the cone
/// cannot affect it and are fixed at 0).
///
/// Returns `None` if the cone has more than [`EXHAUSTIVE_INPUT_LIMIT`]
/// inputs.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::figure1;
/// use ltt_sta::exhaustive_floating_delay;
///
/// let c = figure1(10);
/// let s = c.outputs()[0];
/// let exact = exhaustive_floating_delay(&c, s).expect("7 inputs is small");
/// assert_eq!(exact.delay, 60); // the paper's value: top = 70 is false
/// ```
pub fn exhaustive_floating_delay(circuit: &Circuit, output: NetId) -> Option<FloatingDelay> {
    let cone = circuit.fanin_cone(output);
    let cone_inputs: Vec<usize> = circuit
        .inputs()
        .iter()
        .enumerate()
        .filter(|(_, n)| cone[n.index()])
        .map(|(i, _)| i)
        .collect();
    if cone_inputs.len() > EXHAUSTIVE_INPUT_LIMIT {
        return None;
    }
    let mut best = FloatingDelay {
        delay: i64::MIN,
        witness: vec![false; circuit.inputs().len()],
    };
    let mut vector = vec![false; circuit.inputs().len()];
    for assignment in 0u64..(1u64 << cone_inputs.len()) {
        for (bit, &slot) in cone_inputs.iter().enumerate() {
            vector[slot] = (assignment >> bit) & 1 == 1;
        }
        let t = vector_delay(circuit, &vector, output);
        if t > best.delay {
            best.delay = t;
            best.witness = vector.clone();
        }
    }
    Some(best)
}

/// The exact floating-mode delay of the whole circuit (maximum over all
/// outputs), or `None` if any output cone is too wide for enumeration.
pub fn exhaustive_circuit_delay(circuit: &Circuit) -> Option<FloatingDelay> {
    let mut best: Option<FloatingDelay> = None;
    for &o in circuit.outputs() {
        let fd = exhaustive_floating_delay(circuit, o)?;
        if best.as_ref().is_none_or(|b| fd.delay > b.delay) {
            best = Some(fd);
        }
    }
    best
}

/// Monte-Carlo lower bound on the floating-mode delay of `output`:
/// the best delay over `samples` random vectors. Sound as a lower bound
/// only (the true delay may be higher).
pub fn sampled_floating_delay(
    circuit: &Circuit,
    output: NetId,
    samples: usize,
    seed: u64,
) -> FloatingDelay {
    sampled_floating_delay_until(circuit, output, samples, seed, None)
}

/// [`sampled_floating_delay`] with an optional wall-clock deadline: once
/// `deadline` passes, sampling stops early and the best vector found so
/// far is returned. At least one vector is always simulated, so the result
/// is a valid (if weak) lower bound even with an expired deadline. The
/// clock is read every 32 samples; with the same seed and an un-hit
/// deadline the result is identical to the uncapped call.
pub fn sampled_floating_delay_until(
    circuit: &Circuit,
    output: NetId,
    samples: usize,
    seed: u64,
    deadline: Option<std::time::Instant>,
) -> FloatingDelay {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = FloatingDelay {
        delay: i64::MIN,
        witness: vec![false; circuit.inputs().len()],
    };
    let mut vector = vec![false; circuit.inputs().len()];
    for i in 0..samples.max(1) {
        if i > 0 && i % 32 == 0 {
            if let Some(d) = deadline {
                if std::time::Instant::now() >= d {
                    break;
                }
            }
        }
        for v in vector.iter_mut() {
            *v = rng.gen_bool(0.5);
        }
        let t = vector_delay(circuit, &vector, output);
        if t > best.delay {
            best.delay = t;
            best.witness = vector.clone();
        }
    }
    best
}

/// Converts a witness vector into per-input `(name, Level)` pairs for
/// reporting.
pub fn describe_vector(circuit: &Circuit, vector: &[bool]) -> Vec<(String, Level)> {
    circuit
        .inputs()
        .iter()
        .zip(vector)
        .map(|(&n, &v)| (circuit.net(n).name().to_string(), Level::from_bool(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::generators::{
        carry_skip_adder, cascade, false_path_chain, figure1, forked_false_path_chain, parity_tree,
        ripple_carry_adder, stem_conflict_circuit,
    };
    use ltt_netlist::GateKind;

    #[test]
    fn figure1_floating_delay_is_60() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let exact = exhaustive_floating_delay(&c, s).unwrap();
        assert_eq!(exact.delay, 60);
        assert_eq!(c.topological_delay(), 70);
        // The witness really achieves 60.
        assert_eq!(vector_delay(&c, &exact.witness, s), 60);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn false_path_chain_delay_formula() {
        for (p, q) in [(3, 2), (4, 2), (5, 3), (6, 4), (4, 1)] {
            let c = false_path_chain(p, q, 10);
            let s = c.outputs()[0];
            let exact = exhaustive_floating_delay(&c, s).unwrap();
            assert_eq!(
                exact.delay,
                10 * (p as i64 + 2),
                "false_path_chain({p}, {q})"
            );
            assert_eq!(c.topological_delay(), 10 * (p as i64 + q as i64 + 1));
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn forked_chain_delay_formula() {
        for (p, q) in [(4usize, 3usize), (5, 3), (6, 4)] {
            let c = forked_false_path_chain(p, q, 10);
            let s = c.outputs()[0];
            let exact = exhaustive_floating_delay(&c, s).unwrap();
            assert_eq!(exact.delay, 10 * (p as i64 + 2), "forked({p}, {q})");
            assert_eq!(c.topological_delay(), 10 * (p as i64 + q as i64 + 1));
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn stem_conflict_delay_formula() {
        for depth in [6usize, 7, 8, 9] {
            let c = stem_conflict_circuit(depth, 10);
            let s = c.outputs()[0];
            let exact = exhaustive_floating_delay(&c, s).unwrap();
            assert_eq!(exact.delay, 10 * (depth as i64 - 1), "depth {depth}");
            assert_eq!(c.topological_delay(), 10 * depth as i64);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn mux_chain_longest_path_is_false() {
        use ltt_netlist::generators::shared_select_mux_chain;
        // With two stages every MUX still waits for its selected input, so
        // the conflict creates no slack yet; from three stages on, the
        // chain's alternating select requirements cap the true delay at
        // two MUX levels.
        let c = shared_select_mux_chain(2, 10);
        let exact = exhaustive_floating_delay(&c, c.outputs()[0]).unwrap();
        assert_eq!(exact.delay, 20);
        for stages in [3usize, 4, 6] {
            let c = shared_select_mux_chain(stages, 10);
            let s = c.outputs()[0];
            let exact = exhaustive_floating_delay(&c, s).unwrap();
            assert_eq!(c.topological_delay(), 10 * stages as i64);
            assert_eq!(
                exact.delay, 20,
                "stages {stages}: the chain is capped at two MUX levels"
            );
        }
        // A single stage has no conflict: exact = top.
        let c = shared_select_mux_chain(1, 10);
        let exact = exhaustive_floating_delay(&c, c.outputs()[0]).unwrap();
        assert_eq!(exact.delay, 10);
    }

    #[test]
    fn cascade_delay_equals_topological() {
        let c = cascade(GateKind::And, 6, 10);
        let s = c.outputs()[0];
        let exact = exhaustive_floating_delay(&c, s).unwrap();
        assert_eq!(exact.delay, c.topological_delay());
    }

    #[test]
    fn parity_tree_delay_equals_topological() {
        let c = parity_tree(8, 10);
        let s = c.outputs()[0];
        let exact = exhaustive_floating_delay(&c, s).unwrap();
        assert_eq!(exact.delay, c.topological_delay());
    }

    #[test]
    fn ripple_carry_longest_path_is_true() {
        let c = ripple_carry_adder(4, 10);
        let exact = exhaustive_circuit_delay(&c).unwrap();
        assert_eq!(exact.delay, c.topological_delay());
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn carry_skip_longest_path_is_false() {
        let c = carry_skip_adder(8, 4, 10);
        let exact = exhaustive_circuit_delay(&c).unwrap();
        assert!(
            exact.delay < c.topological_delay(),
            "exact {} !< top {}",
            exact.delay,
            c.topological_delay()
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn small_standin_matches_spec_delays() {
        use ltt_netlist::suite::{standin, SpineKind, StandinSpec};
        for (levels, exact, kind) in [
            (8usize, 6usize, SpineKind::Chain),
            (9, 9, SpineKind::Chain),
            (10, 7, SpineKind::Forked),
            (9, 8, SpineKind::StemMux),
        ] {
            let spec = StandinSpec {
                name: "mini",
                levels,
                exact_levels: exact,
                kind,
                gates: 30,
                inputs: 6,
                outputs: 3,
                seed: 99,
            };
            let c = standin(&spec, 10);
            assert_eq!(c.topological_delay(), 10 * levels as i64);
            let fd = exhaustive_circuit_delay(&c);
            if let Some(fd) = fd {
                assert_eq!(
                    fd.delay,
                    10 * exact as i64,
                    "standin levels={levels} exact={exact}"
                );
            }
        }
    }

    #[test]
    fn sampled_delay_is_a_lower_bound() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let sampled = sampled_floating_delay(&c, s, 200, 42);
        assert!(sampled.delay <= 60);
        assert!(sampled.delay >= 10); // something transitions
    }

    #[test]
    fn vector_violates_matches_delay() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let exact = exhaustive_floating_delay(&c, s).unwrap();
        assert!(vector_violates(&c, &exact.witness, s, 60));
        assert!(!vector_violates(&c, &exact.witness, s, 61));
    }

    #[test]
    fn describe_vector_names_inputs() {
        let c = figure1(10);
        let desc = describe_vector(&c, &[true, false, true, false, true, false, true]);
        assert_eq!(desc.len(), 7);
        assert_eq!(desc[0].0, "e1");
        assert_eq!(desc[0].1, Level::One);
        assert_eq!(desc[1].1, Level::Zero);
    }

    #[test]
    fn not_gate_propagates_settle_time() {
        use ltt_netlist::{CircuitBuilder, DelayInterval};
        let mut b = CircuitBuilder::new("n");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], DelayInterval::fixed(7));
        let y = b.gate("y", GateKind::Not, &[x], DelayInterval::fixed(5));
        b.mark_output(y);
        let c = b.build().unwrap();
        let info = floating_settle(&c, &[true]);
        assert_eq!(
            info[x.index()],
            SettleInfo {
                value: false,
                time: 7
            }
        );
        assert_eq!(
            info[y.index()],
            SettleInfo {
                value: true,
                time: 12
            }
        );
    }

    #[test]
    fn xor_waits_for_latest_input() {
        use ltt_netlist::{CircuitBuilder, DelayInterval};
        let mut b = CircuitBuilder::new("x");
        let a = b.input("a");
        let slow = b.gate("slow", GateKind::Not, &[a], DelayInterval::fixed(100));
        let e = b.input("e");
        let y = b.gate("y", GateKind::Xor, &[slow, e], DelayInterval::fixed(10));
        b.mark_output(y);
        let c = b.build().unwrap();
        for v in [[false, false], [true, true], [true, false], [false, true]] {
            let info = floating_settle(&c, &v);
            assert_eq!(info[y.index()].time, 110);
        }
    }
}
