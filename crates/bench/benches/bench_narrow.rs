//! Narrowing-core benchmarks (the data-oriented solver rewrite's
//! scoreboard): the event-driven fixpoint on the k=800 `path_blowup`
//! stress instance, the 2-input gate-projection kernels, and the
//! checkpoint/narrow/rollback cycle that the FAN case analysis and stem
//! correlation hammer. Numbers land in EXPERIMENTS.md; the scheduling
//! order of the solver is deterministic, so event counts are identical
//! across implementations and wall-clock ratios are throughput ratios.

use criterion::{criterion_group, criterion_main, Criterion};
use ltt_core::{project, CheckSession, FixpointResult, Narrower, SignalStore, VerifyConfig};
use ltt_netlist::generators::serial_false_path_gadgets;
use ltt_netlist::{Circuit, GateKind};
use ltt_waveform::{Aw, Signal, Time};
use std::hint::black_box;

const K: usize = 800;

fn blowup() -> Circuit {
    serial_false_path_gadgets(K, 10)
}

/// The base fixpoint (floating inputs, no δ) of the blow-up instance, as
/// the store every seeded narrower clones.
fn base_store(c: &Circuit) -> SignalStore {
    let mut nw = Narrower::new(c);
    for &i in c.inputs() {
        nw.narrow_net(i, Signal::floating_input());
    }
    assert_eq!(nw.reach_fixpoint(), FixpointResult::Fixpoint);
    SignalStore::from_domains(nw.domains())
}

fn narrowing_fixpoint(c: &mut Criterion) {
    let circuit = blowup();
    let s = circuit.outputs()[0];
    let exact = 60 * K as i64;
    let base = base_store(&circuit);

    // Report the (implementation-independent) event count once, so the
    // timings below convert to events/second.
    {
        let mut nw = Narrower::from_store(&circuit, base.clone());
        nw.narrow_net(s, Signal::violation(Time::new(exact + 1)));
        nw.reach_fixpoint();
        eprintln!(
            "# narrow_fixpoint/k{K}_delta_check: {} events, {} narrowings per iteration",
            nw.stats().events,
            nw.stats().narrowings
        );
    }

    let mut group = c.benchmark_group("narrow_fixpoint");
    group.sample_size(10);
    // Full base fixpoint from scratch: every gate event at least once.
    group.bench_function(format!("k{K}_base"), |b| {
        b.iter(|| {
            let mut nw = Narrower::new(&circuit);
            for &i in circuit.inputs() {
                nw.narrow_net(i, Signal::floating_input());
            }
            black_box(nw.reach_fixpoint())
        })
    });
    // The δ = exact + 1 check seeded from the base fixpoint — the paper's
    // path-blow-up refutation, dominated by backward narrowing.
    group.bench_function(format!("k{K}_delta_check"), |b| {
        b.iter(|| {
            let mut nw = Narrower::from_store(&circuit, base.clone());
            nw.narrow_net(s, Signal::violation(Time::new(exact + 1)));
            black_box(nw.reach_fixpoint())
        })
    });
    // Seeded construction alone, to separate per-check setup cost (store
    // clone + queue flags) from actual narrowing work above.
    group.bench_function(format!("k{K}_seeded_construction"), |b| {
        b.iter(|| black_box(Narrower::from_store(&circuit, base.clone()).stats()))
    });
    // The same δ through the batch-session API. Narrowing alone cannot
    // refute exact+1 on this instance (the bound is below the topological
    // delay), so this runs the full proof pipeline — dominators, stems,
    // case analysis — i.e. the rewrite's end-to-end effect on a real
    // check, search-stage rollbacks included.
    let session = CheckSession::new(&circuit, VerifyConfig::default());
    session.warm_up();
    group.bench_function(format!("k{K}_session_check"), |b| {
        b.iter(|| black_box(session.verify(s, exact + 1).verdict))
    });
    group.finish();
}

fn projection_kernel(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("projection_kernel");
    // The 2-input AND family — the specialized fast path.
    for kind in [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor] {
        group.bench_function(format!("{}2", kind.name()), |bch| {
            bch.iter(|| black_box(project(kind, 10, black_box(&[a, b]), black_box(s))))
        });
    }
    // A 3-input AND exercises the general path.
    let three = [a, b, a];
    group.bench_function("And3_general", |bch| {
        bch.iter(|| black_box(project(GateKind::And, 10, black_box(&three), black_box(s))))
    });
    group.finish();
}

fn rollback_cycle(c: &mut Criterion) {
    let circuit = blowup();
    let s = circuit.outputs()[0];
    let exact = 60 * K as i64;
    let base = base_store(&circuit);

    // One persistent narrower: checkpoint → δ constraint → fixpoint →
    // rollback, the exact cycle of a FAN backtrack / stem branch.
    let mut group = c.benchmark_group("rollback");
    group.sample_size(10);
    group.bench_function(format!("k{K}_checkpoint_narrow_rollback"), |b| {
        let mut nw = Narrower::from_store(&circuit, base.clone());
        b.iter(|| {
            let mark = nw.checkpoint();
            nw.narrow_net(s, Signal::violation(Time::new(exact + 1)));
            black_box(nw.reach_fixpoint());
            nw.rollback(mark);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    narrowing_fixpoint,
    projection_kernel,
    rollback_cycle
);
criterion_main!(benches);
