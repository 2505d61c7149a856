//! Scaling benches (extension experiment A2): verifier cost as a function
//! of circuit size — carry-skip adder width, false-path chain depth, and
//! the δ-slack sweep (how much cheaper far-from-critical checks are).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ltt_bench::table1::critical_output;
use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::generators::{carry_skip_adder, false_path_chain};

fn carry_skip_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("carry_skip_width");
    group.sample_size(10);
    for width in [4usize, 8, 16, 24, 32] {
        let circuit = carry_skip_adder(width, 4, 10);
        let cout = critical_output(&circuit);
        let top = circuit.arrival_times()[cout.index()];
        let config = VerifyConfig {
            case_analysis: false,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| {
                // The topological-delay check: always settled without search.
                let r = CheckSession::new(&circuit, config.clone()).verify(cout, top + 1);
                assert!(r.verdict.is_no_violation());
            })
        });
    }
    group.finish();
}

fn chain_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_depth");
    group.sample_size(10);
    for p in [8usize, 16, 32, 64, 128] {
        let circuit = false_path_chain(p, p / 2, 10);
        let s = circuit.outputs()[0];
        let exact = 10 * (p as i64 + 2);
        let config = VerifyConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| {
                let r = CheckSession::new(&circuit, config.clone()).verify(s, exact + 1);
                assert!(r.verdict.is_no_violation());
            })
        });
    }
    group.finish();
}

fn delta_slack(c: &mut Criterion) {
    // How does the proof cost change as δ moves away from the critical
    // region? Far-above-top checks die instantly; checks just above the
    // exact delay need the most narrowing.
    let circuit = false_path_chain(32, 16, 10);
    let s = circuit.outputs()[0];
    let exact = 10 * (32 + 2);
    let config = VerifyConfig::default();
    let mut group = c.benchmark_group("delta_slack");
    group.sample_size(10);
    for (label, delta) in [
        ("exact+1", exact + 1),
        ("exact+50", exact + 50),
        ("top", 10 * (32 + 16 + 1)),
        ("top+100", 10 * (32 + 16 + 1) + 100),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &delta, |b, &d| {
            b.iter(|| {
                let r = CheckSession::new(&circuit, config.clone()).verify(s, d);
                assert!(r.verdict.is_no_violation());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, carry_skip_width, chain_depth, delta_slack);
criterion_main!(benches);
