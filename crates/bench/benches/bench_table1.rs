//! Criterion bench regenerating Table 1 timing points: one benchmark per
//! suite circuit (small half), measuring the δ = exact + 1 proof and the
//! δ = exact vector search — the two CPU columns of the paper's table.

use criterion::{criterion_group, criterion_main, Criterion};
use ltt_bench::table1::critical_output;
use ltt_core::{CheckSession, VerifyConfig};
use ltt_netlist::suite::{iscas85_suite, SuiteEntry};

fn bench_entry(c: &mut Criterion, entry: &SuiteEntry, exact: i64) {
    let circuit = &entry.circuit;
    let s = critical_output(circuit);
    let config = VerifyConfig {
        max_backtracks: 10_000,
        ..Default::default()
    };
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function(format!("{}_proof", entry.name), |b| {
        b.iter(|| {
            let r = CheckSession::new(circuit, config.clone()).verify(s, exact + 1);
            assert!(r.verdict.is_no_violation());
        })
    });
    group.bench_function(format!("{}_vector", entry.name), |b| {
        b.iter(|| {
            let r = CheckSession::new(circuit, config.clone()).verify(s, exact);
            assert!(r.verdict.is_violation());
        })
    });
    group.finish();
}

fn table1_benches(c: &mut Criterion) {
    let suite = iscas85_suite(10);
    // The engineered exact delays (levels × 10); c17 = 50.
    let exacts = [
        ("c17", 50),
        ("s432", 190),
        ("s499", 250),
        ("s880", 200),
        ("s1355", 270),
        ("s1908", 310),
        ("s2670", 240),
        ("s3540", 390),
    ];
    for (name, exact) in exacts {
        let entry = suite.iter().find(|e| e.name == name).expect("entry");
        bench_entry(c, entry, exact);
    }
}

criterion_group!(benches, table1_benches);
criterion_main!(benches);
