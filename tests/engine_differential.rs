//! Differential fuzz harness for the two verification backends.
//!
//! The narrowing pipeline and the CNF/CDCL oracle (`ltt_core::sat`)
//! share nothing beyond the netlist: different abstractions
//! (waveform intervals vs boolean threshold variables), different search
//! (case analysis vs clause learning), different code. Agreement between
//! them on hundreds of random circuits — and with the exhaustive
//! floating-mode oracle where cones are small enough to enumerate — is
//! the strongest soundness evidence the repo has for either engine.
//!
//! Also pinned here: the hybrid fallback contract on the `path_blowup`
//! instance — under a budget that exhausts narrowing, `--engine hybrid`
//! must return a `[lower, upper]` interval at least as tight as
//! narrowing's, and strictly tighter when the SAT probes decide.

use ltt_core::{BatchRunner, Budget, CheckSession, Engine, LearningMode, VerifyConfig};
use ltt_netlist::generators::{random_circuit, serial_false_path_gadgets, RandomCircuitConfig};
use ltt_netlist::Circuit;
use ltt_sta::{exhaustive_floating_delay, vector_violates};
use std::time::Duration;

fn session(circuit: &Circuit, engine: Engine) -> CheckSession<'_> {
    CheckSession::new(
        circuit,
        VerifyConfig {
            engine,
            ..Default::default()
        },
    )
}

/// Cross-checks every output of `circuit` between the three deciders:
/// narrowing bisection, SAT bisection, and (where the fanin cone is small
/// enough) the exhaustive floating-mode oracle. Around the agreed exact
/// delay, also cross-checks the verdicts of single checks at δ = exact
/// (must be violated, with certified witnesses) and δ = exact + 1 (must
/// be safe).
fn assert_engines_agree(circuit: &Circuit) {
    let narrow = session(circuit, Engine::Narrow);
    let sat = session(circuit, Engine::Sat);
    for &o in circuit.outputs() {
        let name = circuit.net(o).name();
        let n = narrow.exact_delay(o);
        let s = sat.exact_delay(o);
        assert!(
            n.proven_exact,
            "{}/{name}: narrowing undecided",
            circuit.name()
        );
        assert!(s.proven_exact, "{}/{name}: SAT undecided", circuit.name());
        assert_eq!(
            n.delay,
            s.delay,
            "{}/{name}: narrowing {} vs SAT {}",
            circuit.name(),
            name,
            n.delay
        );
        if let Some(oracle) = exhaustive_floating_delay(circuit, o) {
            assert_eq!(
                s.delay,
                oracle.delay,
                "{}/{name}: engines {} vs exhaustive oracle {}",
                circuit.name(),
                s.delay,
                oracle.delay
            );
        }
        let exact = s.delay;
        if exact > 0 {
            let w = s.vector.as_ref().expect("SAT witness for positive delay");
            assert!(
                vector_violates(circuit, w, o, exact),
                "{}/{name}: SAT witness fails certification",
                circuit.name()
            );
            let rn = narrow.verify(o, exact);
            let rs = sat.verify(o, exact);
            assert!(
                rn.verdict.is_violation(),
                "{}/{name} δ=exact",
                circuit.name()
            );
            assert!(
                rs.verdict.is_violation(),
                "{}/{name} δ=exact",
                circuit.name()
            );
        }
        let rn = narrow.verify(o, exact + 1);
        let rs = sat.verify(o, exact + 1);
        assert!(
            rn.verdict.is_no_violation(),
            "{}/{name} δ=exact+1",
            circuit.name()
        );
        assert!(
            rs.verdict.is_no_violation(),
            "{}/{name} δ=exact+1",
            circuit.name()
        );
    }
}

fn fuzz_config(seed: u64) -> RandomCircuitConfig {
    // Rotate through a few shape profiles so the sweep covers wide/flat,
    // narrow/deep, and MUX-heavy DAGs rather than 500 near-clones.
    let profile = seed % 4;
    RandomCircuitConfig {
        num_inputs: [6, 8, 5, 7][profile as usize],
        num_gates: [20, 28, 36, 24][profile as usize],
        num_outputs: 2,
        max_fanin: [3, 2, 3, 4][profile as usize],
        depth_bias: [2, 6, 8, 4][profile as usize],
        delay: [10, 7, 13, 10][profile as usize],
        seed: 0x5EED_0000 + seed,
    }
}

/// Always-on smoke slice of the sweep (debug builds run this in seconds).
#[test]
fn engines_agree_on_random_circuits_smoke() {
    for seed in 0..20 {
        assert_engines_agree(&random_circuit(&fuzz_config(seed)));
    }
}

/// The full sweep: 500 random circuits (ISSUE acceptance floor), release
/// builds only — the narrowing + SAT + oracle triple per output is too
/// slow unoptimized.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn engines_agree_on_500_random_circuits() {
    for seed in 0..500 {
        assert_engines_agree(&random_circuit(&fuzz_config(seed)));
    }
}

/// Classic structures through the same triple-agreement check.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn engines_agree_on_structured_circuits() {
    use ltt_netlist::generators::{
        carry_skip_adder, cascade, false_path_chain, figure1, parity_tree, ripple_carry_adder,
        shared_select_mux_chain,
    };
    use ltt_netlist::GateKind;
    assert_engines_agree(&figure1(10));
    assert_engines_agree(&cascade(GateKind::Nand, 6, 10));
    assert_engines_agree(&cascade(GateKind::Nor, 5, 10));
    assert_engines_agree(&parity_tree(6, 10));
    assert_engines_agree(&ripple_carry_adder(3, 10));
    assert_engines_agree(&carry_skip_adder(4, 2, 10));
    assert_engines_agree(&false_path_chain(4, 3, 10));
    assert_engines_agree(&shared_select_mux_chain(4, 10));
    for k in [1, 2, 3] {
        assert_engines_agree(&serial_false_path_gadgets(k, 10));
    }
}

/// A config whose narrowing pipeline rides entirely on case analysis and
/// exhausts after one backtrack — the narrowing side of the hybrid
/// strictness tests.
fn starved_config(engine: Engine) -> VerifyConfig {
    VerifyConfig {
        engine,
        max_backtracks: 1,
        dominators: false,
        stem_correlation: false,
        learning: LearningMode::Off,
        ..Default::default()
    }
}

/// Hybrid must return an interval *strictly* tighter than starved
/// narrowing when the SAT probes can decide the remaining gap.
#[test]
fn hybrid_interval_strictly_tighter_when_sat_decides() {
    let c = serial_false_path_gadgets(4, 10);
    let s = c.outputs()[0];
    let narrow = CheckSession::new(&c, starved_config(Engine::Narrow));
    let n = narrow.exact_delay(s);
    assert!(!n.proven_exact, "narrowing should be starved");
    let hybrid = CheckSession::new(&c, starved_config(Engine::Hybrid));
    let h = hybrid.exact_delay(s);
    assert!(h.proven_exact, "SAT fallback decides the gap");
    assert_eq!(h.delay, 240, "4 gadgets × 60 true delay");
    // Strictly tighter: the hybrid interval is a proper subset.
    assert!(h.delay >= n.delay && h.upper_bound <= n.upper_bound);
    assert!(h.upper_bound - h.delay < n.upper_bound - n.delay);
}

/// The ISSUE acceptance instance: `path_blowup` at k = 800. Narrowing
/// exhausts its budget; hybrid must return an interval at least as tight
/// (never looser). The comparison runs under a deterministic backtrack
/// budget: under a wall-clock deadline two *independent* runs trip at
/// slightly different points (observed: [100, 55295] vs [100, 55316]),
/// so a cross-run interval comparison would test scheduler jitter, not
/// the fallback contract. At this size the gadget chain's settle grids
/// blow past the encoder's threshold-variable cap, so the SAT fallback
/// reports `Unknown` and the contract's "or-equally" arm is the one
/// exercised — strict tightening is pinned by
/// `hybrid_interval_strictly_tighter_when_sat_decides` above.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn hybrid_never_looser_on_path_blowup_800() {
    let c = serial_false_path_gadgets(800, 10);
    let s = c.outputs()[0];
    let narrow = CheckSession::new(&c, starved_config(Engine::Narrow));
    let n = narrow.exact_delay(s);
    assert!(!n.proven_exact, "backtrack cap should starve narrowing");
    let hybrid = CheckSession::new(&c, starved_config(Engine::Hybrid));
    let h = hybrid.exact_delay(s);
    assert!(
        h.delay >= n.delay && h.upper_bound <= n.upper_bound,
        "hybrid [{}, {}] looser than narrowing [{}, {}]",
        h.delay,
        h.upper_bound,
        n.delay,
        n.upper_bound
    );
    // Both intervals must bracket the true delay (60 per gadget).
    assert!(n.delay <= 48_000 && n.upper_bound >= 48_000);
    assert!(h.delay <= 48_000 && h.upper_bound >= 48_000);
}

/// Soundness under the ISSUE's 50 ms wall-clock deadline on the same
/// k = 800 instance: each engine separately must degrade to a bracketing
/// interval, never a wrong exact answer. (No cross-engine comparison —
/// see `hybrid_never_looser_on_path_blowup_800` for why.)
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered by `cargo test --release`"
)]
fn engines_stay_sound_on_path_blowup_800_under_deadline() {
    let c = serial_false_path_gadgets(800, 10);
    let s = c.outputs()[0];
    for engine in [Engine::Narrow, Engine::Sat, Engine::Hybrid] {
        let budget = Budget::unlimited().with_wall(Duration::from_millis(50));
        let sess = session(&c, engine);
        let runner = BatchRunner::serial().with_budget(budget);
        let r = match runner.exact_delays(&sess, &[s]).pop() {
            Some(Ok(search)) => search,
            other => panic!("{engine:?}: delay search failed: {other:?}"),
        };
        assert!(
            r.delay <= 48_000 && r.upper_bound >= 48_000,
            "{engine:?}: interval [{}, {}] does not bracket 48000",
            r.delay,
            r.upper_bound
        );
        if r.proven_exact {
            assert_eq!(r.delay, 48_000, "{engine:?} claims a wrong exact delay");
        }
    }
}
