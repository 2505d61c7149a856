//! False-path circuits: the paper's Figure 1 (Hrapcenko's construction) and
//! a generalized false-path chain with a tunable topological/floating delay
//! gap.
//!
//! Hrapcenko [12 in the paper] proved that minimal circuits may have true
//! delays below their topological delays. The Figure 1 circuit is the
//! paper's running example (Example 2): topological delay 70, floating-mode
//! delay 60, because the longest path is statically falsified by a shared
//! side input that would have to settle to 1 (non-controlling for an AND on
//! the path prefix) and to 0 (non-controlling for an OR on the path tail)
//! at the same time.

use crate::{Circuit, CircuitBuilder, DelayInterval, GateKind, NetId};

/// The Figure 1 false-path circuit, reconstructed from the Example 2
/// narrowing trace: 8 gates of delay `d` (the paper uses `d = 10`), inputs
/// `e1…e7`, output `s`.
///
/// Structure (input `e3` is shared between `g2` and `g6` — the false-path
/// mechanism):
///
/// ```text
/// g1 = AND(e1, e2) → n1      g5 = AND(n4, e6) → n5
/// g2 = AND(n1, e3) → n2      g6 = OR (n4, e3) → n6
/// g3 = OR (n2, e4) → n3      g7 = AND(n6, e7) → n7
/// g4 = AND(n3, e5) → n4      g8 = OR (n7, n5) → s
/// ```
///
/// With `d = 10`: topological delay 70; the path
/// `{n1, g2, n2, g3, n3, g4, n4, g6, n6, g7, n7, g8, s}` is false and the
/// floating-mode delay is 60.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::figure1;
///
/// let c = figure1(10);
/// assert_eq!(c.topological_delay(), 70);
/// assert_eq!(c.num_gates(), 8);
/// ```
pub fn figure1(delay: u32) -> Circuit {
    let d = DelayInterval::fixed(delay);
    let mut b = CircuitBuilder::new("figure1");
    let e: Vec<NetId> = (1..=7).map(|i| b.input(format!("e{i}"))).collect();
    let n1 = b.gate("n1", GateKind::And, &[e[0], e[1]], d);
    let n2 = b.gate("n2", GateKind::And, &[n1, e[2]], d);
    let n3 = b.gate("n3", GateKind::Or, &[n2, e[3]], d);
    let n4 = b.gate("n4", GateKind::And, &[n3, e[4]], d);
    let n5 = b.gate("n5", GateKind::And, &[n4, e[5]], d);
    let n6 = b.gate("n6", GateKind::Or, &[n4, e[2]], d);
    let n7 = b.gate("n7", GateKind::And, &[n6, e[6]], d);
    let s = b.gate("s", GateKind::Or, &[n7, n5], d);
    b.mark_output(s);
    b.build().expect("figure1 circuit is structurally valid")
}

/// A generalized Hrapcenko-style false-path chain.
///
/// The circuit is a prefix chain of `prefix` gates feeding two branches
/// that reconverge at a final OR: a long branch of `long_branch` gates and
/// a short branch of one gate. A primary input `shared` is read by both the
/// *last* prefix gate (an AND, requiring it to settle at 1 to carry a late
/// event into the branches) and the first long-branch gate (an OR,
/// requiring it to settle at 0 for the branch to stay transparent), so
/// **every** path through that gate pair — in particular every path longer
/// than the short route — is false.
///
/// Attaching the conflict at the *last* prefix gate matters: it also blocks
/// the late zero-ripple that would otherwise travel from `shared` down the
/// whole chain into the long branch (a 0 entering the last AND settles it
/// immediately via the controlling-input rule, and a 1 there satisfies the
/// OR's controlling input early).
///
/// With per-gate delay `d`:
///
/// * topological delay `top = (prefix + long_branch + 1) · d`;
/// * floating-mode delay `(prefix + 2) · d` (prefix + short branch + final
///   gate), for any `1 ≤ long_branch ≤ prefix + 1`.
///
/// The gap between the two is therefore `(long_branch − 1) · d`, tunable to
/// match a target exact-vs-topological delay difference. (These delays are
/// pinned against the exhaustive floating-mode oracle in `ltt-sta`'s
/// tests.)
///
/// # Panics
///
/// Panics unless `prefix ≥ 2` and `1 ≤ long_branch ≤ prefix + 1`.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::false_path_chain;
///
/// let c = false_path_chain(4, 2, 10);
/// assert_eq!(c.topological_delay(), 70); // floating delay is 60
/// ```
pub fn false_path_chain(prefix: usize, long_branch: usize, delay: u32) -> Circuit {
    assert!(prefix >= 2, "prefix must have at least 2 gates");
    assert!(
        (1..=prefix + 1).contains(&long_branch),
        "long_branch must be in 1..=prefix+1 so the short path stays sensitizable"
    );
    let d = DelayInterval::fixed(delay);
    let mut b = CircuitBuilder::new(format!("false_path_{prefix}_{long_branch}"));

    let x0 = b.input("x0");
    let x1 = b.input("x1");
    let shared = b.input("shared");

    // Prefix chain: n1 = AND(x0, x1); then alternate AND/OR with fresh side
    // inputs; the last prefix gate is an AND reading `shared`.
    let mut n = b.gate("n1", GateKind::And, &[x0, x1], d);
    for i in 2..prefix {
        let side = b.input(format!("p{i}"));
        let kind = if i % 2 == 1 {
            GateKind::Or
        } else {
            GateKind::And
        };
        n = b.gate(format!("n{i}"), kind, &[n, side], d);
    }
    n = b.gate(format!("n{prefix}"), GateKind::And, &[n, shared], d);

    // Short branch: one AND with a fresh side input.
    let sb_side = b.input("sb");
    let short = b.gate("short", GateKind::And, &[n, sb_side], d);

    // Long branch: OR with the shared (conflicting) input, then ANDs.
    // With long_branch = 1 there is no gap to create (top = floating), so
    // the OR takes a fresh, conflict-free side input instead.
    let branch_side = if long_branch >= 2 {
        shared
    } else {
        b.input("q1")
    };
    let mut a = b.gate("a1", GateKind::Or, &[n, branch_side], d);
    for j in 2..=long_branch {
        let side = b.input(format!("q{j}"));
        a = b.gate(format!("a{j}"), GateKind::And, &[a, side], d);
    }

    let s = b.gate("s", GateKind::Or, &[a, short], d);
    b.mark_output(s);
    b.build().expect("false-path chain is structurally valid")
}

/// A *forked* false-path chain: like [`false_path_chain`], but the long
/// branch splits into two parallel, equally long, equally falsified chains
/// that reconverge at an OR before the final gate.
///
/// The reconvergence makes the backward last-transition propagation
/// ambiguous at the merge (either arm could carry the violation), so plain
/// local narrowing stalls — but every long path still runs through the last
/// prefix gate, which is therefore a *timing dominator*; the Corollary 1
/// narrowing there exposes the conflict. This is the gadget that exercises
/// the paper's "global implications on timing dominators" stage (the
/// c1908/c3540 pattern in Table 1).
///
/// With per-gate delay `d`: topological delay `(prefix + long_branch + 1)·d`
/// and floating-mode delay `(prefix + 2)·d` (validated against the
/// exhaustive oracle in `ltt-sta`'s tests), for
/// `3 ≤ long_branch ≤ prefix + 1` (each arm needs at least one masking AND
/// after its falsified OR, hence the lower bound).
///
/// # Panics
///
/// Panics unless `prefix ≥ 2` and `3 ≤ long_branch ≤ prefix + 1`.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::forked_false_path_chain;
///
/// let c = forked_false_path_chain(6, 3, 10);
/// assert_eq!(c.topological_delay(), 100); // floating delay is 80
/// ```
pub fn forked_false_path_chain(prefix: usize, long_branch: usize, delay: u32) -> Circuit {
    assert!(prefix >= 2, "prefix must have at least 2 gates");
    assert!(
        (3..=prefix + 1).contains(&long_branch),
        "long_branch must be in 3..=prefix+1"
    );
    let d = DelayInterval::fixed(delay);
    let mut b = CircuitBuilder::new(format!("forked_false_path_{prefix}_{long_branch}"));
    let x0 = b.input("x0");
    let x1 = b.input("x1");
    let shared = b.input("shared");
    let mut n = b.gate("n1", GateKind::And, &[x0, x1], d);
    for i in 2..prefix {
        let side = b.input(format!("p{i}"));
        let kind = if i % 2 == 1 {
            GateKind::Or
        } else {
            GateKind::And
        };
        n = b.gate(format!("n{i}"), kind, &[n, side], d);
    }
    n = b.gate(format!("n{prefix}"), GateKind::And, &[n, shared], d);
    let sb = b.input("sb");
    let short = b.gate("short", GateKind::And, &[n, sb], d);
    let mut arms = Vec::with_capacity(2);
    for arm in ["a", "b"] {
        let mut a = b.gate(format!("{arm}1"), GateKind::Or, &[n, shared], d);
        for j in 2..long_branch {
            let side = b.input(format!("{arm}side{j}"));
            a = b.gate(format!("{arm}{j}"), GateKind::And, &[a, side], d);
        }
        arms.push(a);
    }
    let merge = b.gate("merge", GateKind::Or, &[arms[0], arms[1]], d);
    let s = b.gate("s", GateKind::Or, &[merge, short], d);
    b.mark_output(s);
    b.build().expect("forked chain is structurally valid")
}

/// A stem-conflict circuit: a multiplexer cone whose two data chains are
/// each transparent only under *opposite* settling values of the select
/// stem `y`, OR-ed with an always-true chain that is one level shorter.
///
/// Every path longer than the true chain runs through the mux cone and
/// needs `y` to settle both ways, but no single net dominates those paths
/// (the two mux arms are disjoint), so neither local narrowing nor the
/// dominator implications can prove the check — only splitting on the
/// reconvergent stem `y` (*stem correlation*) does. This is the gadget for
/// the paper's c2670/c6288 pattern in Table 1.
///
/// With per-gate delay `d`: topological delay `depth·d` and floating-mode
/// delay `(depth − 1)·d`, for `depth ≥ 6`.
///
/// # Panics
///
/// Panics if `depth < 6`.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::stem_conflict_circuit;
///
/// let c = stem_conflict_circuit(8, 10);
/// assert_eq!(c.topological_delay(), 80); // floating delay is 70
/// ```
pub fn stem_conflict_circuit(depth: usize, delay: u32) -> Circuit {
    assert!(depth >= 6, "stem-conflict circuit needs depth >= 6");
    let d = DelayInterval::fixed(delay);
    let mut b = CircuitBuilder::new(format!("stem_conflict_{depth}"));
    let y = b.input("y");
    let ny = b.gate("ny", GateKind::Not, &[y], d);
    let xa = b.input("xa");
    let xb = b.input("xb");
    // Two mux data chains of depth − 3 gates each. The A chain is
    // transparent iff y settles 0 (OR stages read y); the B chain iff y
    // settles 1 (AND stages read y). The inverter ny is only a *side*
    // input of the mux AND, so it adds no path length.
    let chain = depth - 3;
    let mut a = xa;
    let mut bb = xb;
    for j in 0..chain {
        if j % 2 == 0 {
            a = b.gate(format!("a{j}"), GateKind::Or, &[a, y], d);
            bb = b.gate(format!("b{j}"), GateKind::And, &[bb, y], d);
        } else {
            let fa = b.input(format!("fa{j}"));
            let fb = b.input(format!("fb{j}"));
            a = b.gate(format!("a{j}"), GateKind::And, &[a, fa], d);
            bb = b.gate(format!("b{j}"), GateKind::Or, &[bb, fb], d);
        }
    }
    let m1 = b.gate("m1", GateKind::And, &[a, y], d);
    let m2 = b.gate("m2", GateKind::And, &[bb, ny], d);
    let mux = b.gate("mux", GateKind::Or, &[m1, m2], d);
    // The true chain: depth − 2 gates, fully sensitizable.
    let mut t = b.input("t0");
    for i in 1..=depth - 2 {
        let side = b.input(format!("t{i}"));
        let kind = if i % 2 == 1 {
            GateKind::And
        } else {
            GateKind::Or
        };
        t = b.gate(format!("tc{i}"), kind, &[t, side], d);
    }
    let s = b.gate("s", GateKind::Or, &[mux, t], d);
    b.mark_output(s);
    b.build()
        .expect("stem-conflict circuit is structurally valid")
}

/// `k` serial copies of the Figure-1-style false-path gadget — the
/// path-enumeration blow-up workload (the paper's §1 motivation).
///
/// Each gadget is a 4-gate prefix whose last AND reads a `shared` input,
/// followed by a short (1-gate) and a long (2-gate) branch reconverging at
/// an OR; the long branch's first gate is an OR reading the *same*
/// `shared` input, so every path through it is false, exactly as in
/// [`false_path_chain`]. Chaining `k` gadgets multiplies the number of
/// paths longer than the exact delay exponentially, while the exact delay
/// itself stays linear:
///
/// * topological delay `7·k·d`;
/// * floating-mode delay `6·k·d` (validated against the exhaustive oracle
///   for small `k` in the integration tests).
///
/// A path-oriented verifier must refute each long path individually; the
/// waveform narrower settles the `δ = 6·k·d + 1` check with near-linear
/// work. The instance is also the stock stress workload for wall-clock
/// budget tests (`--deadline-ms` smoke runs).
///
/// # Panics
///
/// Panics if `k` is 0.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::serial_false_path_gadgets;
///
/// let c = serial_false_path_gadgets(2, 10);
/// assert_eq!(c.topological_delay(), 140); // floating delay is 120
/// ```
pub fn serial_false_path_gadgets(k: usize, delay: u32) -> Circuit {
    assert!(k > 0, "need at least one gadget");
    let mut b = CircuitBuilder::new(format!("serial{k}"));
    let feed = append_gadget_chain(&mut b, "", k, delay);
    b.mark_output(feed);
    b.build().expect("serial gadget chain is valid")
}

/// Appends one `k`-gadget chain (the [`serial_false_path_gadgets`] body)
/// to `b`, with every net name prefixed by `prefix`, and returns the
/// chain's final net.
fn append_gadget_chain(b: &mut CircuitBuilder, prefix: &str, k: usize, delay: u32) -> NetId {
    let d = DelayInterval::fixed(delay);
    let mut feed = b.input(format!("{prefix}x0"));
    for g in 0..k {
        let x1 = b.input(format!("{prefix}x1_{g}"));
        let shared = b.input(format!("{prefix}sh_{g}"));
        let mut n = b.gate(format!("{prefix}n1_{g}"), GateKind::And, &[feed, x1], d);
        for i in 2..4 {
            let side = b.input(format!("{prefix}p{i}_{g}"));
            let kind = if i % 2 == 1 {
                GateKind::Or
            } else {
                GateKind::And
            };
            n = b.gate(format!("{prefix}n{i}_{g}"), kind, &[n, side], d);
        }
        n = b.gate(format!("{prefix}n4_{g}"), GateKind::And, &[n, shared], d);
        let sb = b.input(format!("{prefix}sb_{g}"));
        let short = b.gate(format!("{prefix}short_{g}"), GateKind::And, &[n, sb], d);
        let a1 = b.gate(format!("{prefix}a1_{g}"), GateKind::Or, &[n, shared], d);
        let q2 = b.input(format!("{prefix}q2_{g}"));
        let a2 = b.gate(format!("{prefix}a2_{g}"), GateKind::And, &[a1, q2], d);
        feed = b.gate(format!("{prefix}s_{g}"), GateKind::Or, &[a2, short], d);
    }
    feed
}

/// `chains` structurally independent copies of the `k`-gadget serial
/// chain, each with its own primary output — the **parallel** blow-up
/// workload. The circuit holds `chains·k` gadgets in total, but any
/// single output's transitive fanin cone is exactly one chain
/// (`1/chains` of the gates): the contrast cone-sliced checking
/// exploits, while a whole-circuit session narrows all the chains for
/// every check.
///
/// Per output: topological delay `7·k·d`, floating-mode delay `6·k·d`
/// (each chain is exactly [`serial_false_path_gadgets`]).
///
/// # Panics
///
/// Panics if `chains` or `k` is 0.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::parallel_false_path_gadgets;
///
/// let c = parallel_false_path_gadgets(4, 2, 10);
/// assert_eq!(c.outputs().len(), 4);
/// assert_eq!(c.topological_delay(), 140); // per chain, same as serial
/// ```
pub fn parallel_false_path_gadgets(chains: usize, k: usize, delay: u32) -> Circuit {
    assert!(chains > 0, "need at least one chain");
    assert!(k > 0, "need at least one gadget");
    let mut b = CircuitBuilder::new(format!("parallel{chains}x{k}"));
    for ch in 0..chains {
        let feed = append_gadget_chain(&mut b, &format!("c{ch}_"), k, delay);
        b.mark_output(feed);
    }
    b.build().expect("parallel gadget chains are valid")
}

/// The classic shared-select multiplexer chain — the textbook false-path
/// structure built from the [`GateKind::Mux`] complex gate.
///
/// `stages` MUX gates share one select `s`; the data chain enters the
/// `a` port (needs `s = 0`) on even stages and the `b` port (needs
/// `s = 1`) on odd stages, so the full chain path requires the select to
/// settle both ways and is statically false whenever `stages ≥ 2`. Every
/// stage's bypass port takes a fresh input. The floating-mode delay is
/// capped at *two* MUX levels for `stages ≥ 2` (a settled select lets at
/// most one not-yet-stable stage output propagate one level further) —
/// pinned against the exhaustive oracle in `ltt-sta`'s tests.
///
/// # Panics
///
/// Panics if `stages` is 0.
///
/// # Examples
///
/// ```
/// use ltt_netlist::generators::shared_select_mux_chain;
///
/// let c = shared_select_mux_chain(4, 10);
/// assert_eq!(c.topological_delay(), 40);
/// ```
pub fn shared_select_mux_chain(stages: usize, delay: u32) -> Circuit {
    assert!(stages > 0, "need at least one mux stage");
    let d = DelayInterval::fixed(delay);
    let mut b = CircuitBuilder::new(format!("mux_chain_{stages}"));
    let sel = b.input("sel");
    let mut chain = b.input("x0");
    for i in 0..stages {
        let bypass = b.input(format!("e{i}"));
        chain = if i % 2 == 0 {
            b.gate(format!("m{i}"), GateKind::Mux, &[sel, chain, bypass], d)
        } else {
            b.gate(format!("m{i}"), GateKind::Mux, &[sel, bypass, chain], d)
        };
    }
    b.mark_output(chain);
    b.build().expect("mux chain is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let c = figure1(10);
        assert_eq!(c.inputs().len(), 7);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.num_gates(), 8);
        assert_eq!(c.topological_delay(), 70);
        assert_eq!(c.depth(), 7);
    }

    #[test]
    fn figure1_function_spot_checks() {
        let c = figure1(10);
        // All inputs 1: n1..n4 = 1, n5 = 1, s = 1.
        assert_eq!(c.evaluate(&[true; 7]), vec![true]);
        // e3 = 0 blocks n2, but n6 = OR(n4, 0) = n4 and n4 needs n3…
        // e4 = 1 keeps n3 = 1, so with e1..e7 = 1 except e3:
        let mut v = [true; 7];
        v[2] = false;
        assert_eq!(c.evaluate(&v), vec![true]);
        // Everything 0: s = 0.
        assert_eq!(c.evaluate(&[false; 7]), vec![false]);
    }

    #[test]
    fn parallel_gadgets_split_into_disjoint_strict_cones() {
        let per_chain = serial_false_path_gadgets(2, 10).num_gates();
        let c = parallel_false_path_gadgets(3, 2, 10);
        assert_eq!(c.outputs().len(), 3);
        assert_eq!(c.num_gates(), 3 * per_chain);
        assert_eq!(c.topological_delay(), 140);
        for &o in c.outputs() {
            let view = crate::ConeView::extract(&c, o);
            assert!(!view.is_complete(), "each cone is a strict subset");
            assert_eq!(
                view.circuit().num_gates(),
                per_chain,
                "each cone is one chain"
            );
        }
    }

    #[test]
    fn chain_has_figure1_dimensions_when_p4_q2() {
        let c = false_path_chain(4, 2, 10);
        assert_eq!(c.num_gates(), 8);
        assert_eq!(c.inputs().len(), 7);
        assert_eq!(c.topological_delay(), 70);
    }

    #[test]
    fn chain_gap_scales_with_long_branch() {
        for q in 1..=5 {
            let c = false_path_chain(6, q, 10);
            assert_eq!(c.topological_delay(), 10 * (6 + q as i64 + 1));
        }
    }

    #[test]
    #[should_panic]
    fn chain_rejects_too_long_branch() {
        let _ = false_path_chain(2, 4, 10);
    }

    #[test]
    fn chain_shared_input_fans_out() {
        let c = false_path_chain(5, 3, 10);
        let shared = c.net_by_name("shared").unwrap();
        assert!(c.net(shared).is_fanout_stem());
        assert!(c.reconvergent_stems()[shared.index()]);
    }
}
