//! Cone-sliced checking benches: single-output check cost on a warm
//! session, on the s6288 multiplier stand-in and the k = 800 false-path
//! blow-up split into 8 parallel chains — plus the ECO rebase itself (the
//! fixed cost every incremental re-verification pays before its checks
//! run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ltt_bench::cone::{blowup800, blowup_delta, s6288_standin, smallest_cone_output};
use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::{CircuitEdit, DelayInterval};
use std::sync::Arc;

fn single_output_check(c: &mut Criterion) {
    let s6288 = s6288_standin();
    let (s6288_output, s6288_delta) = smallest_cone_output(&s6288);
    let blowup = blowup800();
    let cases = [
        ("s6288", &s6288, s6288_output, s6288_delta),
        ("blowup800", &blowup, blowup.outputs()[0], blowup_delta()),
    ];
    for (name, circuit, output, delta) in cases {
        let mut group = c.benchmark_group(format!("cone_check_{name}"));
        group.sample_size(10);
        let session = CheckSession::new(circuit, VerifyConfig::default());
        // Warm the session so the bench sees steady-state check cost, not
        // one-time preparation.
        assert!(session.verify(output, delta).verdict.is_no_violation());
        group.bench_with_input(BenchmarkId::from_parameter("auto"), &delta, |b, &d| {
            b.iter(|| {
                let r = session.verify(output, d);
                assert!(r.verdict.is_no_violation());
            })
        });
        group.finish();
    }
}

fn eco_rebase(c: &mut Criterion) {
    // The rebase alone: how cheaply a warm session adopts a delay-edited
    // revision (structural analyses shared, clean cones transplanted).
    let circuit = blowup800();
    let output = circuit.outputs()[0];
    let delta = blowup_delta();
    let session = CheckSession::new(&circuit, VerifyConfig::default());
    assert!(session.verify(output, delta).verdict.is_no_violation());
    let gate = circuit.net(output).driver().expect("gate-driven output");
    let outcome = circuit
        .apply_edit(&[CircuitEdit::SetDelay {
            gate,
            delay: DelayInterval::fixed(12),
        }])
        .expect("delay edit");
    let edited = Arc::new(outcome.circuit);
    let mut group = c.benchmark_group("eco_rebase_blowup800");
    group.sample_size(10);
    group.bench_function("rebase", |b| {
        b.iter(|| session.rebase(edited.clone(), &outcome.dirty, outcome.structural))
    });
    group.bench_function("cold_prepare", |b| {
        b.iter(|| CheckSession::new(&edited, VerifyConfig::default()))
    });
    group.finish();
}

criterion_group!(benches, single_output_check, eco_rebase);
criterion_main!(benches);
