//! Micro benchmarks (experiment M1): the kernels of the method —
//! gate-constraint projection, event-driven fixpoint, dominator
//! computation, SCOAP, and the static-learning pre-process.

use criterion::{criterion_group, criterion_main, Criterion};
use ltt_core::carriers::{dynamic_carriers, static_carriers, timing_dominators};
use ltt_core::scoap::Controllability;
use ltt_core::{project, ImplicationTable, Narrower};
use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
use ltt_netlist::GateKind;
use ltt_waveform::{Aw, Signal, Time};
use std::hint::black_box;

fn projection_kernels(c: &mut Criterion) {
    let a = Signal::new(
        Aw::new(Time::new(0), Time::new(40)),
        Aw::new(Time::new(5), Time::new(50)),
    );
    let b = Signal::new(
        Aw::before(Time::new(30)),
        Aw::new(Time::new(2), Time::new(45)),
    );
    let s = Signal::new(
        Aw::new(Time::new(20), Time::new(90)),
        Aw::before(Time::new(80)),
    );
    let mut group = c.benchmark_group("projection");
    for kind in [GateKind::And, GateKind::Nor, GateKind::Xor] {
        group.bench_function(kind.name(), |bch| {
            bch.iter(|| black_box(project(kind, 10, black_box(&[a, b]), black_box(s))))
        });
    }
    // Wide gate: 8-input NAND.
    let wide = vec![a; 8];
    group.bench_function("NAND8", |bch| {
        bch.iter(|| black_box(project(GateKind::Nand, 10, black_box(&wide), black_box(s))))
    });
    group.finish();
}

fn workload() -> ltt_netlist::Circuit {
    random_circuit(&RandomCircuitConfig {
        num_inputs: 64,
        num_gates: 2_000,
        num_outputs: 8,
        max_fanin: 3,
        depth_bias: 5,
        delay: 10,
        seed: 0xBEEF,
    })
}

fn fixpoint_on_random_dag(c: &mut Criterion) {
    let circuit = workload();
    let s = {
        let arrival = circuit.arrival_times();
        circuit
            .outputs()
            .iter()
            .copied()
            .max_by_key(|o| arrival[o.index()])
            .unwrap()
    };
    let top = circuit.arrival_times()[s.index()];
    c.bench_function("fixpoint_2000_gates", |b| {
        b.iter(|| {
            let mut nw = Narrower::new(&circuit);
            for &i in circuit.inputs() {
                nw.narrow_net(i, Signal::floating_input());
            }
            nw.narrow_net(s, Signal::violation(Time::new(top - 20)));
            black_box(nw.reach_fixpoint())
        })
    });
}

fn graph_kernels(c: &mut Criterion) {
    let circuit = workload();
    let arrival = circuit.arrival_times();
    let s = circuit
        .outputs()
        .iter()
        .copied()
        .max_by_key(|o| arrival[o.index()])
        .unwrap();
    let top = arrival[s.index()];
    c.bench_function("static_carriers_2000", |b| {
        b.iter(|| black_box(static_carriers(&circuit, s, top - 20)))
    });
    let carriers = static_carriers(&circuit, s, top - 20);
    c.bench_function("timing_dominators_2000", |b| {
        b.iter(|| black_box(timing_dominators(&circuit, &carriers, s)))
    });
    let domains = vec![Signal::FULL; circuit.num_nets()];
    c.bench_function("dynamic_carriers_2000", |b| {
        b.iter(|| black_box(dynamic_carriers(&circuit, &domains, s, top - 20)))
    });
    c.bench_function("scoap_2000", |b| {
        b.iter(|| black_box(Controllability::compute(&circuit)))
    });
}

fn learning_preprocess(c: &mut Criterion) {
    let circuit = random_circuit(&RandomCircuitConfig {
        num_inputs: 32,
        num_gates: 400,
        num_outputs: 4,
        max_fanin: 3,
        depth_bias: 5,
        delay: 10,
        seed: 0xFACE,
    });
    let mut group = c.benchmark_group("learning");
    group.sample_size(10);
    group.bench_function("stems_400_gates", |b| {
        b.iter(|| black_box(ImplicationTable::learn_stems(&circuit)))
    });
    group.bench_function("reconvergent_stems", |b| {
        b.iter(|| black_box(circuit.reconvergent_stems()))
    });
    group.finish();
}

criterion_group!(
    benches,
    projection_kernels,
    fixpoint_on_random_dag,
    graph_kernels,
    learning_preprocess
);
criterion_main!(benches);
