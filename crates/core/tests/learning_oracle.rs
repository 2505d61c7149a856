//! Differential tests for circuit preparation: the 64-lane stem mask
//! ([`Circuit::reconvergent_stems`]) and the scratch learning kernel behind
//! [`ImplicationTable::learn`] / [`ImplicationTable::learn_stems`] against
//! straightforward reference implementations kept here as oracles:
//!
//! * a per-stem reconvergence scan over every topological gate, with a
//!   fresh whole-circuit tag vector per stem;
//! * per-assumption class propagation with fresh whole-circuit vectors, a
//!   scan of every net for fixed classes, and a tuple hash set for dedup.
//!
//! The production routines must agree with them exactly: the same mask bit
//! on every net, and the same implication buckets in the same order, the
//! same constants and the same length.

use ltt_core::ImplicationTable;
use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
use ltt_netlist::{Circuit, CircuitBuilder, ConeView, DelayInterval, GateKind, NetId};
use ltt_waveform::Level;
use proptest::prelude::*;
use std::collections::HashSet;

// ---------------------------------------------------------------------
// Oracle: per-stem reconvergence scan.
// ---------------------------------------------------------------------

/// Whether `stem` has at least two readers and two distinct paths from it
/// meet again at some gate (branch sets capped at the first 64 readers).
fn oracle_is_reconvergent_stem(circuit: &Circuit, stem: NetId) -> bool {
    let readers = circuit.net(stem).readers();
    if readers.len() < 2 {
        return false;
    }
    let mut tags = vec![0u64; circuit.num_nets()];
    for (b, &gid) in readers.iter().enumerate().take(64) {
        tags[circuit.gate(gid).output().index()] |= 1u64 << b;
    }
    let mut reconv = false;
    for &gid in circuit.topo_gates() {
        let gate = circuit.gate(gid);
        let mut acc = tags[gate.output().index()];
        let mut arms = 0u32;
        for n in gate.inputs() {
            let t = tags[n.index()];
            if t != 0 {
                arms += 1;
            }
            acc |= t;
        }
        if arms >= 2 && acc.count_ones() >= 2 {
            reconv = true;
        }
        tags[gate.output().index()] |= acc;
    }
    reconv
}

// ---------------------------------------------------------------------
// Oracle: per-assumption class propagation.
// ---------------------------------------------------------------------

const CAN0: u8 = 1;
const CAN1: u8 = 2;
const BOTH: u8 = CAN0 | CAN1;

fn bit(v: Level) -> u8 {
    match v {
        Level::Zero => CAN0,
        Level::One => CAN1,
    }
}

fn forward_classes(kind: GateKind, ins: &[u8]) -> u8 {
    if ins.contains(&0) {
        return 0;
    }
    match kind {
        GateKind::Not => {
            let mut out = 0;
            if ins[0] & CAN0 != 0 {
                out |= CAN1;
            }
            if ins[0] & CAN1 != 0 {
                out |= CAN0;
            }
            out
        }
        GateKind::Buffer | GateKind::Delay => ins[0],
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let c = bit(Level::from_bool(kind.controlling_value().expect("ctrl")));
            let nc = if c == CAN0 { CAN1 } else { CAN0 };
            let out_c = bit(Level::from_bool(kind.controlled_output().expect("ctrl")));
            let out_nc = if out_c == CAN0 { CAN1 } else { CAN0 };
            let mut out = 0;
            if ins.iter().any(|&s| s & c != 0) {
                out |= out_c;
            }
            if ins.iter().all(|&s| s & nc != 0) {
                out |= out_nc;
            }
            out
        }
        GateKind::Mux => {
            let mut out = 0;
            if ins[0] & CAN0 != 0 {
                out |= ins[1];
            }
            if ins[0] & CAN1 != 0 {
                out |= ins[2];
            }
            out
        }
        GateKind::Xor | GateKind::Xnor => {
            let pol = kind == GateKind::Xnor;
            let mut parities = 1u8;
            for &s in ins {
                let mut next = 0u8;
                if s & CAN0 != 0 {
                    next |= parities;
                }
                if s & CAN1 != 0 {
                    next |= ((parities & 1) << 1) | ((parities & 2) >> 1);
                }
                parities = next;
            }
            let mut out = 0;
            if parities & 1 != 0 {
                out |= if pol { CAN1 } else { CAN0 };
            }
            if parities & 2 != 0 {
                out |= if pol { CAN0 } else { CAN1 };
            }
            out
        }
    }
}

fn backward_classes(kind: GateKind, ins: &[u8], out: u8, j: usize) -> u8 {
    if out == 0 || ins.contains(&0) {
        return 0;
    }
    let mut allowed = 0u8;
    for v in Level::BOTH {
        if ins[j] & bit(v) == 0 {
            continue;
        }
        let mut trial: Vec<u8> = ins.to_vec();
        trial[j] = bit(v);
        if forward_classes(kind, &trial) & out != 0 {
            allowed |= bit(v);
        }
    }
    allowed
}

/// Propagates the class assumption `y = v` to a fixpoint. Returns the class
/// sets per net, or `None` if the assumption is contradictory.
fn propagate_assumption(circuit: &Circuit, y: NetId, v: Level) -> Option<Vec<u8>> {
    let mut classes = vec![BOTH; circuit.num_nets()];
    classes[y.index()] = bit(v);
    let mut queue: Vec<_> = {
        let net = circuit.net(y);
        net.driver()
            .into_iter()
            .chain(net.readers().iter().copied())
            .collect()
    };
    let mut queued = vec![false; circuit.num_gates()];
    for &g in &queue {
        queued[g.index()] = true;
    }
    while let Some(gid) = queue.pop() {
        queued[gid.index()] = false;
        let gate = circuit.gate(gid);
        let ins: Vec<u8> = gate.inputs().iter().map(|n| classes[n.index()]).collect();
        let out_net = gate.output();
        let mut changed_nets: Vec<NetId> = Vec::new();
        let out_new = classes[out_net.index()] & forward_classes(gate.kind(), &ins);
        if out_new != classes[out_net.index()] {
            classes[out_net.index()] = out_new;
            if out_new == 0 {
                return None;
            }
            changed_nets.push(out_net);
        }
        for (j, &inp) in gate.inputs().iter().enumerate() {
            let allowed = classes[inp.index()] & backward_classes(gate.kind(), &ins, out_new, j);
            if allowed != classes[inp.index()] {
                classes[inp.index()] = allowed;
                if allowed == 0 {
                    return None;
                }
                changed_nets.push(inp);
            }
        }
        for net in changed_nets {
            let n = circuit.net(net);
            for g in n.driver().into_iter().chain(n.readers().iter().copied()) {
                if !queued[g.index()] {
                    queued[g.index()] = true;
                    queue.push(g);
                }
            }
        }
    }
    Some(classes)
}

/// The oracle table: `(buckets[net][level], constants)`.
type OracleTable = (Vec<[Vec<(NetId, Level)>; 2]>, Vec<(NetId, Level)>);

fn oracle_learn(circuit: &Circuit, sources: &[NetId]) -> OracleTable {
    let mut table: Vec<[Vec<(NetId, Level)>; 2]> = vec![Default::default(); circuit.num_nets()];
    let mut constants = Vec::new();
    let mut seen: HashSet<(usize, usize, usize, usize)> = HashSet::new();
    for &y in sources {
        for v in Level::BOTH {
            let Some(classes) = propagate_assumption(circuit, y, v) else {
                constants.push((y, !v));
                continue;
            };
            for x in circuit.net_ids() {
                if x == y {
                    continue;
                }
                let w = match classes[x.index()] {
                    CAN0 => Level::Zero,
                    CAN1 => Level::One,
                    _ => continue,
                };
                if seen.insert((y.index(), v.index(), x.index(), w.index())) {
                    table[y.index()][v.index()].push((x, w));
                }
                let (cx, cv) = (!w, !v);
                if seen.insert((x.index(), cx.index(), y.index(), cv.index())) {
                    table[x.index()][cx.index()].push((y, cv));
                }
            }
        }
    }
    (table, constants)
}

fn oracle_stems(circuit: &Circuit) -> Vec<bool> {
    circuit
        .net_ids()
        .map(|n| circuit.net(n).is_fanout_stem() && oracle_is_reconvergent_stem(circuit, n))
        .collect()
}

// ---------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------

fn assert_same_table(circuit: &Circuit, table: &ImplicationTable, sources: &[NetId]) {
    let (buckets, constants) = oracle_learn(circuit, sources);
    let mut len = 0;
    for net in circuit.net_ids() {
        for v in Level::BOTH {
            let expected = &buckets[net.index()][v.index()];
            assert_eq!(
                table.implied_by(net, v),
                expected.as_slice(),
                "bucket {}={v}",
                circuit.net(net).name()
            );
            len += expected.len();
        }
    }
    assert_eq!(table.len(), len);
    assert_eq!(table.constants(), constants.as_slice());
}

/// Checks the stem mask and both learning modes against the oracles.
fn assert_matches_oracles(circuit: &Circuit, check_all: bool) {
    let stems = circuit.reconvergent_stems();
    assert_eq!(stems, oracle_stems(circuit), "stem mask");
    let stem_sources: Vec<NetId> = circuit.net_ids().filter(|n| stems[n.index()]).collect();
    assert_same_table(
        circuit,
        &ImplicationTable::learn_stems(circuit),
        &stem_sources,
    );
    if check_all {
        let all: Vec<NetId> = circuit.net_ids().collect();
        assert_same_table(circuit, &ImplicationTable::learn(circuit), &all);
    }
}

/// A small deterministic generator (64-bit LCG) for hand-shaped circuits.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % bound as u64) as usize
    }
}

/// A circuit with a hub input read by `hub_readers` gates (more than the
/// 64 tracked branches) and gates of fan-in up to 70 of every kind.
fn wide_circuit(seed: u64, hub_readers: usize) -> Circuit {
    let d = DelayInterval::fixed(10);
    let mut rng = Lcg(seed);
    let mut b = CircuitBuilder::new(format!("wide_{seed}"));
    let hub = b.input("hub");
    let mut nets: Vec<NetId> = (0..6).map(|i| b.input(format!("x{i}"))).collect();
    for i in 0..hub_readers {
        let kind = [
            GateKind::Not,
            GateKind::Buffer,
            GateKind::Nand,
            GateKind::Xor,
        ][i % 4];
        let ins = match kind {
            GateKind::Not | GateKind::Buffer => vec![hub],
            _ => vec![hub, nets[rng.next(nets.len())]],
        };
        let out = b.gate(format!("h{i}"), kind, &ins, d);
        nets.push(out);
    }
    for g in 0..10 {
        let kind = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
            GateKind::Not,
            GateKind::Delay,
        ][rng.next(9)];
        let fanin = match kind {
            GateKind::Not | GateKind::Delay => 1,
            GateKind::Mux => 3,
            _ => 2 + rng.next(69),
        };
        // Repeats allowed: a gate may read one net several times.
        let ins: Vec<NetId> = (0..fanin).map(|_| nets[rng.next(nets.len())]).collect();
        let out = b.gate(format!("g{g}"), kind, &ins, d);
        nets.push(out);
    }
    for &n in &nets[nets.len() - 4..] {
        b.mark_output(n);
    }
    b.build().expect("valid circuit")
}

/// A random circuit of exactly `nets` nets: four inputs, then gates whose
/// kind and fan-in are drawn from `kinds`, each reading random earlier
/// nets (repeats allowed).
fn shaped_circuit(seed: u64, nets: usize, kinds: &[(GateKind, usize)]) -> Circuit {
    let d = DelayInterval::fixed(10);
    let mut rng = Lcg(seed);
    let mut b = CircuitBuilder::new(format!("shaped_{seed}"));
    let mut ids: Vec<NetId> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
    for g in 0..nets - ids.len() {
        let (kind, fanin) = kinds[rng.next(kinds.len())];
        let ins: Vec<NetId> = (0..fanin).map(|_| ids[rng.next(ids.len())]).collect();
        let out = b.gate(format!("g{g}"), kind, &ins, d);
        ids.push(out);
    }
    for &n in &ids[ids.len() - 3..] {
        b.mark_output(n);
    }
    b.build().expect("valid circuit")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn kernel_matches_oracle_on_random_circuits(seed in 0u64..10_000) {
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 6,
            num_gates: 40,
            num_outputs: 3,
            max_fanin: 4,
            depth_bias: 3,
            delay: 10,
            seed,
        });
        assert_matches_oracles(&c, true);
    }
}

proptest! {
    // Wide gates make every visit quadratic in the fan-in (oracle and
    // kernel alike), so these run few, small cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn kernel_matches_oracle_on_wide_fanin(seed in 0u64..10_000) {
        // Few inputs and fan-in up to 70: stems with more than 64 readers
        // and gates with more than 63 inputs.
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 3,
            num_gates: 30,
            num_outputs: 3,
            max_fanin: 70,
            depth_bias: 0,
            delay: 10,
            seed,
        });
        assert_matches_oracles(&c, true);
    }

    #[test]
    fn kernel_matches_oracle_on_hub_circuits(seed in 0u64..10_000, readers in 65usize..90) {
        let c = wide_circuit(seed, readers);
        assert_matches_oracles(&c, false);
    }
}

#[test]
fn generated_circuits_cover_wide_fanin_and_fanout() {
    // Guards the coverage the wide properties rely on: some random gate
    // reads more than 63 inputs, and every hub has more than 64 readers.
    let wide = (0..6).any(|seed| {
        let c = random_circuit(&RandomCircuitConfig {
            num_inputs: 3,
            num_gates: 30,
            num_outputs: 3,
            max_fanin: 70,
            depth_bias: 0,
            delay: 10,
            seed,
        });
        let widest = c.gate_ids().map(|g| c.gate(g).inputs().len()).max();
        widest > Some(63)
    });
    assert!(wide);
    let hub = wide_circuit(1, 65);
    let stem = hub.net_by_name("hub").unwrap();
    assert!(hub.net(stem).readers().len() > 64);
}

#[test]
fn branches_past_the_64th_reader_are_not_tracked() {
    // `a` has 70 inverter readers and one AND joins two of them. Branch
    // tags cover the first 64 readers only (indices 0..=63), so the stem
    // counts as reconvergent only when both joined branches are tracked.
    for (p, q, expect) in [(65, 66, false), (63, 64, false), (62, 63, true)] {
        let d = DelayInterval::fixed(10);
        let mut b = CircuitBuilder::new("cap");
        let a = b.input("a");
        let branches: Vec<NetId> = (0..70)
            .map(|i| b.gate(format!("n{i}"), GateKind::Not, &[a], d))
            .collect();
        let y = b.gate("y", GateKind::And, &[branches[p], branches[q]], d);
        b.mark_output(y);
        let c = b.build().unwrap();
        assert_eq!(c.reconvergent_stems()[a.index()], expect, "join {p}, {q}");
        assert_matches_oracles(&c, true);
    }
}

#[test]
fn branches_differing_in_one_index_bit_reconverge() {
    // `a` has 64 inverter readers and one AND joins branches b and
    // b ^ 2^k: the join is two distinct branches for every bit k of the
    // 0–63 branch index.
    for k in 0..6 {
        for b0 in [0, 63 ^ (1 << k)] {
            let (p, q) = (b0, b0 ^ (1 << k));
            assert_stem(true, |b| {
                let d = DelayInterval::fixed(10);
                let a = b.input("a");
                let branches: Vec<NetId> = (0..64)
                    .map(|i| b.gate(format!("n{i}"), GateKind::Not, &[a], d))
                    .collect();
                let y = b.gate("y", GateKind::And, &[branches[p], branches[q]], d);
                b.mark_output(y);
                a
            });
        }
    }
}

#[test]
fn suite_circuits_match_the_stem_oracle() {
    for entry in ltt_netlist::suite::iscas85_suite(10)
        .iter()
        .filter(|e| e.circuit.num_gates() <= 1000)
    {
        assert_eq!(
            entry.circuit.reconvergent_stems(),
            oracle_stems(&entry.circuit),
            "{}",
            entry.name
        );
    }
}

/// A circuit with exactly `stems` fanout stems, all primary inputs read
/// by two or three inverters and buffers. The branches then merge at
/// random: each gate consumes two or three unread nets, so no other net
/// gets a second reader. Merges join branches of one stem, and branches
/// of stems far apart in net order, in different lane chunks.
fn stem_pool_circuit(seed: u64, stems: usize) -> Circuit {
    let d = DelayInterval::fixed(10);
    let mut rng = Lcg(seed);
    let mut b = CircuitBuilder::new(format!("pool_{seed}_{stems}"));
    let mut pool: Vec<NetId> = Vec::new();
    for i in 0..stems {
        let s = b.input(format!("s{i}"));
        for k in 0..2 + rng.next(2) {
            let kind = [GateKind::Not, GateKind::Buffer][rng.next(2)];
            pool.push(b.gate(format!("b{i}_{k}"), kind, &[s], d));
        }
    }
    let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand];
    let mut g = 0;
    while pool.len() > 8 {
        let ins: Vec<NetId> = (0..2 + rng.next(2))
            .map(|_| pool.swap_remove(rng.next(pool.len())))
            .collect();
        pool.push(b.gate(format!("m{g}"), kinds[rng.next(4)], &ins, d));
        g += 1;
    }
    for n in pool {
        b.mark_output(n);
    }
    b.build().expect("valid circuit")
}

#[test]
fn stem_chunks_end_before_at_and_after_64_lanes() {
    // 63, 64, 65 and 129 candidate stems: one short or exactly full
    // chunk, then one and two spilled lanes past a full chunk.
    for stems in [63, 64, 65, 129] {
        let mut mixed = false;
        for seed in 0..10 {
            let c = stem_pool_circuit(seed, stems);
            let candidates = c.net_ids().filter(|&n| c.net(n).is_fanout_stem());
            assert_eq!(candidates.count(), stems);
            let mask = c.reconvergent_stems();
            assert_eq!(mask, oracle_stems(&c), "{stems} stems, seed {seed}");
            let found = mask.iter().filter(|&&m| m).count();
            mixed |= found > 0 && found < stems;
        }
        assert!(mixed, "{stems} stems: no seed mixes both answers");
    }
}

/// Builds a circuit with `build`, which returns the stem, and checks the
/// stem's mask bit against `expect` and the whole mask against the oracle.
fn assert_stem(expect: bool, build: impl FnOnce(&mut CircuitBuilder) -> NetId) {
    let mut b = CircuitBuilder::new("stem");
    let stem = build(&mut b);
    let c = b.build().expect("valid circuit");
    let mask = c.reconvergent_stems();
    assert_eq!(mask[stem.index()], expect);
    assert_eq!(mask, oracle_stems(&c));
}

#[test]
fn a_gate_reading_the_stem_twice_starts_with_two_branches() {
    let d = DelayInterval::fixed(10);
    // Its only reader reads `a` twice: two branches, but no arm is tagged.
    assert_stem(false, |b| {
        let a = b.input("a");
        let g = b.gate("g", GateKind::And, &[a, a], d);
        b.mark_output(g);
        a
    });
    // Reading that two-branch output on two arms reconverges.
    assert_stem(true, |b| {
        let a = b.input("a");
        let g = b.gate("g", GateKind::And, &[a, a], d);
        let k = b.gate("k", GateKind::Xor, &[g, g], d);
        b.mark_output(k);
        a
    });
}

#[test]
fn a_reader_fed_by_another_branch_merges_with_one_arm() {
    let d = DelayInterval::fixed(10);
    // g reads `a` and its branch p: the merge at g has one tagged arm, so
    // it alone does not reconverge.
    assert_stem(false, |b| {
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], d);
        let g = b.gate("g", GateKind::And, &[a, p], d);
        b.mark_output(g);
        a
    });
    // Fed twice by p, g has two tagged arms of one branch; its own branch
    // is the second one, so the stem reconverges at g.
    assert_stem(true, |b| {
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], d);
        let g = b.gate("g", GateKind::And, &[a, p, p], d);
        b.mark_output(g);
        a
    });
    // Downstream, g's two branches meet a third one on two arms.
    assert_stem(true, |b| {
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], d);
        let g = b.gate("g", GateKind::And, &[a, p], d);
        let r = b.gate("r", GateKind::Buffer, &[a], d);
        let k = b.gate("k", GateKind::Or, &[g, r], d);
        b.mark_output(k);
        a
    });
}

#[test]
fn duplicate_inputs_count_as_two_arms() {
    let d = DelayInterval::fixed(10);
    // p carries one branch: reading it twice joins nothing new.
    assert_stem(false, |b| {
        let a = b.input("a");
        let p = b.gate("p", GateKind::Not, &[a], d);
        let q = b.gate("q", GateKind::Buffer, &[a], d);
        let g = b.gate("g", GateKind::And, &[p, p], d);
        b.mark_output(g);
        b.mark_output(q);
        a
    });
    // g carries two branches after a one-arm merge: reading it twice is
    // two arms, so the stem reconverges at k and nowhere else.
    for (kind, ins, expect) in [(GateKind::And, 2, true), (GateKind::Not, 1, false)] {
        assert_stem(expect, |b| {
            let a = b.input("a");
            let p = b.gate("p", GateKind::Not, &[a], d);
            let g = b.gate("g", GateKind::And, &[a, p], d);
            let k = b.gate("k", kind, &vec![g; ins], d);
            b.mark_output(k);
            a
        });
    }
}

#[test]
fn chunks_end_at_before_and_after_64_lanes() {
    // Exhaustive learning on 31, 32 and 33 nets runs 62, 64 and 66
    // assumptions: the one chunk is short or exactly full, or two lanes
    // spill into a second chunk.
    let kinds = [
        (GateKind::And, 2),
        (GateKind::Nand, 3),
        (GateKind::Or, 2),
        (GateKind::Nor, 2),
        (GateKind::Xor, 2),
        (GateKind::Not, 1),
        (GateKind::Mux, 3),
    ];
    for nets in [31, 32, 33] {
        for seed in 0..20 {
            let c = shaped_circuit(seed, nets, &kinds);
            assert_eq!(c.num_nets(), nets);
            assert_matches_oracles(&c, true);
        }
    }
}

#[test]
fn one_chunk_mixes_contradictory_and_live_lanes() {
    // Each block holds two constants, AND(a, ¬a) = 0 and OR(a, ¬a) = 1,
    // whose other class is a contradictory assumption, between nets whose
    // assumptions propagate: 31 nets, one chunk of 62 lanes.
    let d = DelayInterval::fixed(10);
    let mut b = CircuitBuilder::new("mixed");
    let mut last = b.input("s");
    for i in 0..5 {
        let a = b.input(format!("a{i}"));
        let na = b.gate(format!("na{i}"), GateKind::Not, &[a], d);
        let k = b.gate(format!("k{i}"), GateKind::And, &[a, na], d);
        let e = b.gate(format!("e{i}"), GateKind::Or, &[a, na], d);
        let z = b.gate(format!("z{i}"), GateKind::Or, &[k, last, na], d);
        last = b.gate(format!("m{i}"), GateKind::Mux, &[a, z, e], d);
    }
    b.mark_output(last);
    let c = b.build().unwrap();
    assert!(c.num_nets() <= 32);
    let table = ImplicationTable::learn(&c);
    assert!(table.constants().len() >= 10, "{:?}", table.constants());
    assert!(!table.is_empty());
    assert_matches_oracles(&c, true);
}

#[test]
fn wide_parity_and_mux_gates_match_oracle() {
    // 3- and 4-input XOR/XNOR gates, then MUX-heavy circuits.
    let parity = [
        (GateKind::Xor, 3),
        (GateKind::Xnor, 3),
        (GateKind::Xor, 4),
        (GateKind::Xnor, 4),
        (GateKind::Nand, 2),
        (GateKind::Not, 1),
    ];
    let mux = [
        (GateKind::Mux, 3),
        (GateKind::Mux, 3),
        (GateKind::And, 2),
        (GateKind::Nor, 2),
        (GateKind::Not, 1),
        (GateKind::Xor, 2),
    ];
    for kinds in [&parity, &mux] {
        for seed in 0..30 {
            assert_matches_oracles(&shaped_circuit(seed, 40, kinds), true);
        }
    }
}

#[test]
#[ignore = "every suite circuit, s6288 included: run in release"]
fn suite_stem_learning_matches_the_oracle() {
    for entry in ltt_netlist::suite::iscas85_suite(10).iter() {
        let c = &entry.circuit;
        let stems = c.reconvergent_stems();
        assert_eq!(stems, oracle_stems(c), "{}", entry.name);
        for &output in c.outputs() {
            let cone = ConeView::extract(c, output);
            let sub = cone.circuit();
            assert_eq!(
                sub.reconvergent_stems(),
                oracle_stems(sub),
                "{} cone of {}",
                entry.name,
                c.net(output).name()
            );
        }
        let sources: Vec<NetId> = c.net_ids().filter(|n| stems[n.index()]).collect();
        assert_same_table(c, &ImplicationTable::learn_stems(c), &sources);
    }
}
