//! The evaluation suite: the real `c17` plus synthetic stand-ins for the
//! other ISCAS'85 circuits of the paper's Table 1.
//!
//! # Substitution note
//!
//! The paper evaluates NOR-gate implementations of the ISCAS'85 benchmarks
//! with a fixed delay of 10 on every gate output. The real netlists (up to
//! ~3.5k gates) are not shipped here except `c17`, whose six NAND gates are
//! public knowledge; a [`.bench` parser](crate::bench_format) is provided
//! so the originals drop in unchanged when available. Each stand-in is
//! generated deterministically with:
//!
//! * the paper's **topological delay** (same depth in gate levels × delay
//!   10 — the depths of the *NOR implementations*, which is why `c17`
//!   itself is used NOR-mapped);
//! * the paper's **exact floating-mode delay**, via an embedded false-path
//!   *spine* whose [`SpineKind`] is chosen so that the `δ = exact + 1`
//!   check is settled by the same pipeline stage the paper reports:
//!   plain-narrowing chains for c5315/c7552-style rows, dominator-requiring
//!   forked chains for c1908/c3540, a stem-correlation-requiring mux
//!   conflict for c2670, and a fully sensitizable spine for the circuits
//!   whose longest path is true (c432, c499, c880, c1355);
//! * a comparable **gate count**, reached with pseudo-random filler cones
//!   that drive the spine's side inputs (each cone output is XOR-mixed with
//!   a dedicated fresh input so every side value stays controllable and the
//!   spine's sensitization status is preserved), under explicit depth
//!   budgets so no filler path can reach the exact delay;
//! * reconvergent fanout both inside the filler and on the conflict stem.
//!
//! The c6288 stand-in is a real 16×16 array multiplier passed through the
//! same [NOR mapping](crate::transform::nor_mapping) the paper applies —
//! structurally faithful to the original (a 16×16 multiplier) and, like it,
//! hard enough that the case analysis abandons.

use crate::generators::array_multiplier;
use crate::transform::nor_mapping;
use crate::{Circuit, CircuitBuilder, DelayInterval, GateKind, NetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One suite circuit together with the paper's reference numbers.
#[derive(Clone, Debug)]
pub struct SuiteEntry {
    /// ISCAS'85 circuit name this entry reproduces or stands in for.
    pub name: &'static str,
    /// The circuit (real for `c17`, synthetic stand-in otherwise).
    pub circuit: Circuit,
    /// The paper's topological delay (Table 1 column 2).
    pub paper_top: i64,
    /// The paper's exact floating-mode delay (`None` for c6288, where the
    /// paper only reports the upper bound 1220).
    pub paper_exact: Option<i64>,
    /// The paper's reported number of backtracks for the exact-δ check.
    pub paper_backtracks: Option<u64>,
    /// Whether this entry is a synthetic stand-in (everything but `c17`).
    pub standin: bool,
}

/// The real ISCAS'85 `c17` netlist (6 NAND gates).
const C17_BENCH: &str = "\
# c17 (ISCAS'85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

/// The real `c17` circuit with the given per-gate delay.
///
/// # Examples
///
/// ```
/// use ltt_netlist::suite::c17;
/// let c = c17(10);
/// assert_eq!(c.num_gates(), 6);
/// assert_eq!(c.topological_delay(), 30);
/// ```
pub fn c17(delay: u32) -> Circuit {
    crate::bench_format::parse_bench("c17", C17_BENCH, DelayInterval::fixed(delay))
        .expect("embedded c17 netlist is valid")
}

/// The paper's *NOR-gate implementation* of `c17`: the real netlist passed
/// through [`nor_mapping`]. Its topological delay at gate delay 10 is 50,
/// matching Table 1.
pub fn c17_nor(delay: u32) -> Circuit {
    nor_mapping(&c17(delay), delay)
}

/// The false-path spine structure of a stand-in, selecting which pipeline
/// stage is needed to prove the `δ = exact + 1` check (see the paper's
/// Table 1 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpineKind {
    /// Single Hrapcenko-style chain: plain narrowing resolves the false
    /// path (Example 2's mechanics; the c5315/c7552 rows). With a gap of
    /// zero this degenerates to a fully sensitizable spine (the
    /// c432/c499/c880/c1355 rows).
    Chain,
    /// Long branch forked into two reconverging falsified arms: local
    /// narrowing stalls at the merge, timing dominators resolve it (the
    /// c1908/c3540 rows). Requires a gap of at least 2 levels.
    Forked,
    /// Mux cone whose arms need opposite settling values of the select
    /// stem: only stem correlation resolves it (the c2670 row). The gap is
    /// fixed at 1 level.
    StemMux,
}

/// Parameters of a synthetic ISCAS'85 stand-in.
#[derive(Clone, Copy, Debug)]
pub struct StandinSpec {
    /// Name of the stand-in.
    pub name: &'static str,
    /// Depth of the spine in gate levels (`paper_top / 10`).
    pub levels: usize,
    /// Exact floating-delay target in gate levels (`paper_exact / 10`).
    /// Equal to `levels` for circuits whose longest path is true.
    pub exact_levels: usize,
    /// Spine structure (which pipeline stage the `exact + 1` check needs).
    pub kind: SpineKind,
    /// Total gate-count target.
    pub gates: usize,
    /// Number of primary inputs to provision in the filler pool.
    pub inputs: usize,
    /// Number of primary outputs to mark (the spine output plus filler
    /// nets; clamped to what the filler provides).
    pub outputs: usize,
    /// RNG seed for the filler logic.
    pub seed: u64,
}

/// Builds a synthetic stand-in circuit from a [`StandinSpec`] with the
/// given per-gate delay.
///
/// Depth bookkeeping guarantees that the topological delay is exactly
/// `levels × delay` (realized by the spine) and that every path longer than
/// `exact_levels × delay` runs through the spine's falsified structure, so
/// the exact floating delay is `exact_levels × delay`, witnessed by the
/// spine's true path. (Validated against the exhaustive oracle on small
/// instances in `ltt-sta`'s tests, and by the verifier itself in the
/// Table 1 harness.)
///
/// # Panics
///
/// Panics on degenerate specs (`exact_levels > levels`, too-shallow
/// spines, or a gap incompatible with the spine kind).
pub fn standin(spec: &StandinSpec, delay: u32) -> Circuit {
    assert!(spec.exact_levels <= spec.levels, "exact cannot exceed top");
    assert!(spec.exact_levels >= 6, "spine needs at least 6 levels");
    let d = DelayInterval::fixed(delay);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = CircuitBuilder::new(spec.name);

    // `level[net] = longest path (in gates) from any input`, tracked
    // manually during construction.
    let mut level: Vec<usize> = Vec::new();
    let track = |level: &mut Vec<usize>, id: NetId, l: usize| {
        if id.index() >= level.len() {
            level.resize(id.index() + 1, 0);
        }
        level[id.index()] = l;
    };
    let pool: Vec<NetId> = (0..spec.inputs.max(4))
        .map(|i| b.input(format!("i{i}")))
        .collect();
    for &p in &pool {
        track(&mut level, p, 0);
    }
    let mut gates_used = 0usize;

    // A small filler cone with depth ≤ `cap`, XOR-mixed with a dedicated
    // fresh input so that the cone output remains fully controllable.
    let mut cone_counter = 0usize;
    let mut build_cone = |b: &mut CircuitBuilder,
                          rng: &mut StdRng,
                          level: &mut Vec<usize>,
                          gates_used: &mut usize,
                          cap: usize,
                          budget_gates: usize|
     -> NetId {
        cone_counter += 1;
        let fresh = b.input(format!("f{cone_counter}"));
        track(level, fresh, 0);
        if cap < 2 || budget_gates == 0 {
            return fresh;
        }
        let mut local: Vec<NetId> = (0..3).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let inner_gates = budget_gates.min(1 + rng.gen_range(0..4));
        let mut out = local[0];
        for k in 0..inner_gates {
            let kind = match rng.gen_range(0..6) {
                0 => GateKind::And,
                1 => GateKind::Or,
                2 => GateKind::Nand,
                3 => GateKind::Nor,
                4 => GateKind::Xor,
                _ => GateKind::Xnor,
            };
            let x = local[rng.gen_range(0..local.len())];
            let y = local[rng.gen_range(0..local.len())];
            if x == y {
                continue;
            }
            let lx = level[x.index()].max(level[y.index()]) + 1;
            if lx + 1 > cap {
                continue; // would violate the depth cap after the XOR mix
            }
            let g = b.gate(format!("c{cone_counter}_{k}"), kind, &[x, y], d);
            *gates_used += 1;
            track(level, g, lx);
            local.push(g);
            out = g;
        }
        if out == local[0] {
            return fresh;
        }
        let mixed = b.gate(
            format!("c{cone_counter}_mix"),
            GateKind::Xor,
            &[out, fresh],
            d,
        );
        *gates_used += 1;
        track(level, mixed, level[out.index()] + 1);
        mixed
    };

    // ---- Spine ----------------------------------------------------------
    let s = match spec.kind {
        SpineKind::Chain | SpineKind::Forked => {
            // prefix p, branch q: top = p + q + 1 levels (Chain) with the
            // forked variant packing its two arms into the same depth.
            let p = spec.exact_levels - 2;
            let q = spec.levels - p - 1;
            match spec.kind {
                SpineKind::Chain => assert!(q >= 1 && q <= p + 1, "{}: bad chain gap", spec.name),
                SpineKind::Forked => assert!(q >= 3 && q <= p + 1, "{}: bad fork gap", spec.name),
                SpineKind::StemMux => unreachable!(),
            }

            let x0 = b.input("x0");
            let x1 = b.input("x1");
            let shared = b.input("shared");
            track(&mut level, x0, 0);
            track(&mut level, x1, 0);
            track(&mut level, shared, 0);

            let mut n = b.gate("sp1", GateKind::And, &[x0, x1], d);
            gates_used += 1;
            track(&mut level, n, 1);
            for i in 2..p {
                // Side-cone budget: filler→side→spine-suffix ≤ exact.
                let cap = i - 1;
                let side = build_cone(&mut b, &mut rng, &mut level, &mut gates_used, cap, 6);
                let kind = if i % 2 == 1 {
                    GateKind::Or
                } else {
                    GateKind::And
                };
                n = b.gate(format!("sp{i}"), kind, &[n, side], d);
                gates_used += 1;
                track(&mut level, n, i);
            }
            // Conflict stem at the last prefix gate (blocks zero-ripples).
            n = b.gate(format!("sp{p}"), GateKind::And, &[n, shared], d);
            gates_used += 1;
            track(&mut level, n, p);

            // Short (true) branch.
            let sb_side = build_cone(&mut b, &mut rng, &mut level, &mut gates_used, p - 1, 6);
            let short = b.gate("short", GateKind::And, &[n, sb_side], d);
            gates_used += 1;
            track(&mut level, short, p + 1);

            match spec.kind {
                SpineKind::Chain => {
                    let branch_side = if q >= 2 {
                        shared
                    } else {
                        let fresh = b.input("q1");
                        track(&mut level, fresh, 0);
                        fresh
                    };
                    let mut a = b.gate("lb1", GateKind::Or, &[n, branch_side], d);
                    gates_used += 1;
                    track(&mut level, a, p + 1);
                    for j in 2..=q {
                        let cap = (p + j).saturating_sub(q).max(1).min(p);
                        let side =
                            build_cone(&mut b, &mut rng, &mut level, &mut gates_used, cap, 4);
                        a = b.gate(format!("lb{j}"), GateKind::And, &[a, side], d);
                        gates_used += 1;
                        track(&mut level, a, p + j);
                    }
                    let s = b.gate("s", GateKind::Or, &[a, short], d);
                    gates_used += 1;
                    track(&mut level, s, p + q + 1);
                    s
                }
                SpineKind::Forked => {
                    let mut arms = Vec::with_capacity(2);
                    for arm in ["fa", "fb"] {
                        let mut a = b.gate(format!("{arm}1"), GateKind::Or, &[n, shared], d);
                        gates_used += 1;
                        track(&mut level, a, p + 1);
                        for j in 2..q {
                            let cap = (p + j).saturating_sub(q).max(1).min(p);
                            let side =
                                build_cone(&mut b, &mut rng, &mut level, &mut gates_used, cap, 4);
                            a = b.gate(format!("{arm}{j}"), GateKind::And, &[a, side], d);
                            gates_used += 1;
                            track(&mut level, a, p + j);
                        }
                        arms.push(a);
                    }
                    let merge = b.gate("merge", GateKind::Or, &[arms[0], arms[1]], d);
                    gates_used += 1;
                    track(&mut level, merge, p + q);
                    let s = b.gate("s", GateKind::Or, &[merge, short], d);
                    gates_used += 1;
                    track(&mut level, s, p + q + 1);
                    s
                }
                SpineKind::StemMux => unreachable!(),
            }
        }
        SpineKind::StemMux => {
            // top = levels, exact = levels − 1 (gap fixed at one level).
            assert_eq!(
                spec.exact_levels + 1,
                spec.levels,
                "{}: StemMux has a fixed gap of one level",
                spec.name
            );
            let depth = spec.levels;
            let y = b.input("y");
            let xa = b.input("xa");
            let xb = b.input("xb");
            track(&mut level, y, 0);
            track(&mut level, xa, 0);
            track(&mut level, xb, 0);
            let ny = b.gate("ny", GateKind::Not, &[y], d);
            gates_used += 1;
            track(&mut level, ny, 1);
            let chain = depth - 3;
            let mut a = xa;
            let mut bb = xb;
            for j in 0..chain {
                if j % 2 == 0 {
                    a = b.gate(format!("ma{j}"), GateKind::Or, &[a, y], d);
                    bb = b.gate(format!("mb{j}"), GateKind::And, &[bb, y], d);
                } else {
                    // Budget: cone→side→stage_j→suffix ≤ exact.
                    let cap = j.max(1);
                    let fa = build_cone(&mut b, &mut rng, &mut level, &mut gates_used, cap, 4);
                    let fb = build_cone(&mut b, &mut rng, &mut level, &mut gates_used, cap, 4);
                    a = b.gate(format!("ma{j}"), GateKind::And, &[a, fa], d);
                    bb = b.gate(format!("mb{j}"), GateKind::Or, &[bb, fb], d);
                }
                gates_used += 2;
                track(&mut level, a, j + 1);
                track(&mut level, bb, j + 1);
            }
            let m1 = b.gate("m1", GateKind::And, &[a, y], d);
            let m2 = b.gate("m2", GateKind::And, &[bb, ny], d);
            let mux = b.gate("mux", GateKind::Or, &[m1, m2], d);
            gates_used += 3;
            track(&mut level, m1, chain + 1);
            track(&mut level, m2, chain + 1);
            track(&mut level, mux, chain + 2);
            // True chain, one level shorter.
            let t0 = b.input("t0");
            track(&mut level, t0, 0);
            let mut t = t0;
            for i in 1..=depth - 2 {
                let cap = i - 1;
                let side = if i == 1 {
                    let fresh = b.input("t1side");
                    track(&mut level, fresh, 0);
                    fresh
                } else {
                    build_cone(&mut b, &mut rng, &mut level, &mut gates_used, cap, 4)
                };
                let kind = if i % 2 == 1 {
                    GateKind::And
                } else {
                    GateKind::Or
                };
                t = b.gate(format!("tc{i}"), kind, &[t, side], d);
                gates_used += 1;
                track(&mut level, t, i);
            }
            let s = b.gate("s", GateKind::Or, &[mux, t], d);
            gates_used += 1;
            track(&mut level, s, depth);
            s
        }
    };
    b.mark_output(s);

    // ---- Free filler ----------------------------------------------------
    let mut filler_nets: Vec<NetId> = pool.clone();
    let depth_cap = spec.exact_levels - 1;
    let mut fill_idx = 0usize;
    while gates_used < spec.gates {
        fill_idx += 1;
        let kind = match rng.gen_range(0..8) {
            0 | 1 => GateKind::Nand,
            2 | 3 => GateKind::Nor,
            4 => GateKind::And,
            5 => GateKind::Or,
            6 => GateKind::Xor,
            _ => GateKind::Not,
        };
        let fanin = if kind == GateKind::Not {
            1
        } else {
            2 + usize::from(rng.gen_bool(0.25))
        };
        let mut inputs = Vec::with_capacity(fanin);
        for _ in 0..fanin {
            let lo = if rng.gen_bool(0.7) {
                filler_nets.len() / 2
            } else {
                0
            };
            let cand = filler_nets[rng.gen_range(lo..filler_nets.len())];
            if level[cand.index()] < depth_cap && !inputs.contains(&cand) {
                inputs.push(cand);
            }
        }
        if inputs.is_empty() || (kind != GateKind::Not && inputs.len() < 2) {
            inputs.clear();
            inputs.push(pool[rng.gen_range(0..pool.len())]);
            if kind != GateKind::Not {
                let mut second = pool[rng.gen_range(0..pool.len())];
                while second == inputs[0] {
                    second = pool[rng.gen_range(0..pool.len())];
                }
                inputs.push(second);
            }
        }
        let lx = inputs.iter().map(|i| level[i.index()]).max().unwrap_or(0) + 1;
        let g = b.gate(format!("fl{fill_idx}"), kind, &inputs, d);
        gates_used += 1;
        track(&mut level, g, lx);
        filler_nets.push(g);
    }
    // Mark filler nets as extra outputs up to the requested output count
    // (deepest-first so the extra checks are non-trivial).
    let want = spec.outputs.saturating_sub(1); // the spine output is one
    let gate_nets: Vec<NetId> = filler_nets
        .iter()
        .copied()
        .filter(|n| n.index() >= pool.len()) // skip primary inputs
        .collect();
    let extra = gate_nets.len().saturating_sub(want);
    for &net in &gate_nets[extra..] {
        b.mark_output(net);
    }

    b.build().expect("stand-in circuit is structurally valid")
}

/// The Table 1 stand-in specifications (delay-10 levels derived from the
/// paper's topological and exact delays; gate/input counts from the
/// published ISCAS'85 statistics; spine kinds chosen to match the stage at
/// which the paper's pipeline settles each circuit).
pub fn standin_specs() -> Vec<StandinSpec> {
    use SpineKind::*;
    vec![
        StandinSpec {
            name: "s432",
            levels: 19,
            exact_levels: 19,
            kind: Chain,
            gates: 160,
            inputs: 36,
            outputs: 7,
            seed: 432,
        },
        StandinSpec {
            name: "s499",
            levels: 25,
            exact_levels: 25,
            kind: Chain,
            gates: 202,
            inputs: 41,
            outputs: 32,
            seed: 499,
        },
        StandinSpec {
            name: "s880",
            levels: 20,
            exact_levels: 20,
            kind: Chain,
            gates: 383,
            inputs: 60,
            outputs: 26,
            seed: 880,
        },
        StandinSpec {
            name: "s1355",
            levels: 27,
            exact_levels: 27,
            kind: Chain,
            gates: 546,
            inputs: 41,
            outputs: 32,
            seed: 1355,
        },
        StandinSpec {
            name: "s1908",
            levels: 34,
            exact_levels: 31,
            kind: Forked,
            gates: 880,
            inputs: 33,
            outputs: 25,
            seed: 1908,
        },
        StandinSpec {
            name: "s2670",
            levels: 25,
            exact_levels: 24,
            kind: StemMux,
            gates: 1193,
            inputs: 157,
            outputs: 140,
            seed: 2670,
        },
        StandinSpec {
            name: "s3540",
            levels: 41,
            exact_levels: 39,
            kind: Forked,
            gates: 1669,
            inputs: 50,
            outputs: 22,
            seed: 3540,
        },
        StandinSpec {
            name: "s5315",
            levels: 46,
            exact_levels: 45,
            kind: Chain,
            gates: 2307,
            inputs: 178,
            outputs: 123,
            seed: 5315,
        },
        StandinSpec {
            name: "s7552",
            levels: 38,
            exact_levels: 37,
            kind: Chain,
            gates: 3512,
            inputs: 207,
            outputs: 108,
            seed: 7552,
        },
    ]
}

/// Builds the full Table 1 suite with the paper's per-gate delay of 10:
/// the NOR-mapped real `c17`, nine structured stand-ins, and the NOR-mapped
/// 16×16 multiplier standing in for c6288.
pub fn iscas85_suite(delay: u32) -> Vec<SuiteEntry> {
    let mut out = Vec::new();
    out.push(SuiteEntry {
        name: "c17",
        circuit: c17_nor(delay),
        paper_top: 50,
        paper_exact: Some(50),
        paper_backtracks: Some(0),
        standin: false,
    });
    let paper: &[(&str, i64, Option<i64>, Option<u64>)] = &[
        ("s432", 190, Some(190), Some(1)),
        ("s499", 250, Some(250), Some(5)),
        ("s880", 200, Some(200), Some(0)),
        ("s1355", 270, Some(270), Some(1)),
        ("s1908", 340, Some(310), Some(5)),
        ("s2670", 250, Some(240), Some(7)),
        ("s3540", 410, Some(390), Some(3)),
        ("s5315", 460, Some(450), Some(16)),
        ("s7552", 380, Some(370), Some(1)),
    ];
    for spec in standin_specs() {
        let (_, top, exact, btr) = paper
            .iter()
            .find(|(n, ..)| *n == spec.name)
            .expect("paper row exists for every spec");
        out.push(SuiteEntry {
            name: spec.name,
            circuit: standin(&spec, delay),
            paper_top: *top,
            paper_exact: *exact,
            paper_backtracks: *btr,
            standin: true,
        });
    }
    out.push(SuiteEntry {
        name: "s6288",
        circuit: nor_mapping(&array_multiplier(16, delay), delay),
        paper_top: 1230,
        paper_exact: None,
        paper_backtracks: None,
        standin: true,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_matches_published_stats() {
        let c = c17(10);
        assert_eq!(c.num_gates(), 6);
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.topological_delay(), 30);
        // The paper evaluates the NOR-gate implementation: top = 50.
        assert_eq!(c17_nor(10).topological_delay(), 50);
    }

    #[test]
    fn standins_hit_paper_topological_delays() {
        for spec in standin_specs() {
            let c = standin(&spec, 10);
            assert_eq!(
                c.topological_delay(),
                10 * spec.levels as i64,
                "{} topological delay",
                spec.name
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn standins_hit_gate_count_targets() {
        for spec in standin_specs() {
            let c = standin(&spec, 10);
            let lo = spec.gates;
            let hi = spec.gates + 8;
            assert!(
                (lo..=hi).contains(&c.num_gates()),
                "{}: {} gates, wanted about {}",
                spec.name,
                c.num_gates(),
                spec.gates
            );
        }
    }

    #[test]
    fn standins_are_deterministic() {
        let spec = standin_specs()[0];
        let a = standin(&spec, 10);
        let b = standin(&spec, 10);
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.topological_delay(), b.topological_delay());
    }

    #[test]
    fn suite_has_eleven_entries() {
        let suite = iscas85_suite(10);
        assert_eq!(suite.len(), 11);
        assert!(suite.iter().any(|e| !e.standin && e.name == "c17"));
        // The NOR-mapped multiplier stand-in is the big one.
        let mul = suite.iter().find(|e| e.name == "s6288").unwrap();
        assert!(mul.circuit.num_gates() > 2000);
    }

    #[test]
    fn conflict_stem_fans_out_in_false_path_standins() {
        let spec = standin_specs()
            .into_iter()
            .find(|s| s.kind == SpineKind::Chain && s.exact_levels < s.levels)
            .unwrap();
        let c = standin(&spec, 10);
        let shared = c.net_by_name("shared").unwrap();
        assert!(c.net(shared).is_fanout_stem());
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; covered by `cargo test --release`"
    )]
    fn small_standins_of_each_kind_match_oracle() {
        // Miniature specs with few inputs: the exhaustive oracle validates
        // both delays for every spine kind.
        for (kind, levels, exact) in [
            (SpineKind::Chain, 10usize, 8usize),
            (SpineKind::Chain, 9, 9),
            (SpineKind::Forked, 11, 8),
            (SpineKind::StemMux, 9, 8),
        ] {
            let spec = StandinSpec {
                name: "mini",
                levels,
                exact_levels: exact,
                kind,
                gates: 26,
                inputs: 5,
                outputs: 3,
                seed: 7,
            };
            let c = standin(&spec, 10);
            assert_eq!(c.topological_delay(), 10 * levels as i64, "{kind:?}");
            if let Some(fd) = ltt_sta_oracle(&c) {
                assert_eq!(fd, 10 * exact as i64, "{kind:?} exact");
            }
        }
    }

    // The netlist crate cannot depend on ltt-sta (which depends on it);
    // approximate the oracle locally with the same floating-mode rule.
    fn ltt_sta_oracle(c: &Circuit) -> Option<i64> {
        let mut best = None;
        for &o in c.outputs() {
            let cone = c.fanin_cone(o);
            let cone_inputs: Vec<usize> = c
                .inputs()
                .iter()
                .enumerate()
                .filter(|(_, n)| cone[n.index()])
                .map(|(i, _)| i)
                .collect();
            if cone_inputs.len() > 18 {
                return None;
            }
            let mut vector = vec![false; c.inputs().len()];
            for assignment in 0u64..(1 << cone_inputs.len()) {
                for (bit, &slot) in cone_inputs.iter().enumerate() {
                    vector[slot] = (assignment >> bit) & 1 == 1;
                }
                let t = floating_delay(c, &vector, o);
                if best.is_none_or(|b| t > b) {
                    best = Some(t);
                }
            }
        }
        best
    }

    fn floating_delay(c: &Circuit, vector: &[bool], output: NetId) -> i64 {
        let mut val = vec![false; c.num_nets()];
        let mut time = vec![0i64; c.num_nets()];
        for (&n, &v) in c.inputs().iter().zip(vector) {
            val[n.index()] = v;
        }
        for &gid in c.topo_gates() {
            let g = c.gate(gid);
            let vals: Vec<bool> = g.inputs().iter().map(|n| val[n.index()]).collect();
            let v = g.kind().eval(&vals);
            let d = i64::from(g.dmax());
            let t = match g.kind().controlling_value() {
                Some(ctrl) if vals.contains(&ctrl) => g
                    .inputs()
                    .iter()
                    .zip(&vals)
                    .filter(|&(_, &x)| x == ctrl)
                    .map(|(n, _)| time[n.index()])
                    .min()
                    .unwrap()
                    .checked_add(d)
                    .unwrap(),
                _ => g
                    .inputs()
                    .iter()
                    .map(|n| time[n.index()])
                    .max()
                    .unwrap()
                    .checked_add(d)
                    .unwrap(),
            };
            val[g.output().index()] = v;
            time[g.output().index()] = t;
        }
        time[output.index()]
    }
}

#[cfg(test)]
mod cone_tests {
    use crate::generators::figure1;
    use crate::ConeView;

    #[test]
    fn figure1_cone_is_whole_circuit() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let view = ConeView::extract(&c, s);
        let cone = view.circuit();
        assert_eq!(cone.num_gates(), c.num_gates());
        assert_eq!(cone.inputs().len(), c.inputs().len());
        assert_eq!(cone.topological_delay(), c.topological_delay());
    }

    #[test]
    fn standin_spine_cone_drops_free_filler() {
        let spec = super::standin_specs()[0];
        let c = super::standin(&spec, 10);
        let s = c.net_by_name("s").unwrap();
        let view = ConeView::extract(&c, s);
        let cone = view.circuit();
        assert!(cone.num_gates() < c.num_gates());
        assert_eq!(cone.topological_delay(), c.topological_delay());
        // Function is preserved on shared inputs: spot check by evaluating
        // the cone with all-ones vs. reading the full circuit.
        let all_ones = vec![true; cone.inputs().len()];
        let _ = cone.evaluate(&all_ones);
    }
}
