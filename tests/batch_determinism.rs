//! Determinism of the parallel batch engine, checked across crates: for
//! any job count, [`BatchRunner`] must produce **bit-identical** reports to
//! the serial run — same verdicts, same witness vectors, same stage
//! columns, same effort counters — on the paper's circuits, the false-path
//! gadgets, carry-skip adders, and property-tested random DAGs, for checks
//! and delay searches on every engine (narrowing, SAT, hybrid). A session
//! reused across checks must also agree with a fresh one-check session,
//! so this doubles as a regression net for the shared-base-fixpoint
//! seeding.

use ltt_core::{
    BatchRunner, CaseStats, CdclStats, CheckError, CheckSession, DelaySearch, Engine, SolverStats,
    StemStats, Verdict, VerifyConfig, VerifyReport,
};
use ltt_netlist::generators::{
    carry_skip_adder, false_path_chain, figure1, random_circuit, RandomCircuitConfig,
};
use ltt_netlist::{Circuit, NetId};
use proptest::prelude::*;

/// Job count for the parallel side (`LTT_TEST_JOBS`, default 8 — more
/// workers than this machine may have cores, which is exactly the point:
/// determinism must not depend on the schedule).
fn test_jobs() -> usize {
    std::env::var("LTT_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// A bounded config so case analysis stays fast in debug builds; the
/// `Abandoned` verdicts a tight budget produces must be deterministic too.
fn config() -> VerifyConfig {
    VerifyConfig {
        max_backtracks: 2_000,
        ..Default::default()
    }
}

/// Everything a check reports except wall-clock. The CDCL counters also
/// show that a solver on reused storage (the serial runner's one thread)
/// searches like one on fresh storage (each parallel worker's first).
type Fingerprint = (
    usize,
    i64,
    Verdict,
    u64,
    SolverStats,
    StemStats,
    CaseStats,
    CdclStats,
);

fn fingerprint(r: &VerifyReport) -> Fingerprint {
    (
        r.output.index(),
        r.delta,
        r.verdict.clone(),
        r.backtracks(),
        r.effort.total(),
        r.stems,
        r.case,
        r.sat,
    )
}

/// Everything a delay search reports except wall-clock.
type SearchFingerprint = (i64, Option<Vec<bool>>, bool, i64, u64, Vec<Fingerprint>);

fn search_fingerprint(r: &Result<DelaySearch, CheckError>) -> SearchFingerprint {
    let s = r.as_ref().expect("no search fails");
    (
        s.delay,
        s.vector.clone(),
        s.proven_exact,
        s.upper_bound,
        s.backtracks(),
        s.probes.iter().map(fingerprint).collect(),
    )
}

/// The δ points worth probing on a circuit: around half, around the
/// topological delay, and past it.
fn probe_deltas(c: &Circuit) -> Vec<i64> {
    let top = c.topological_delay();
    let mut d = vec![top / 2, top - 1, top, top + 1];
    d.sort();
    d.dedup();
    d
}

fn assert_batches_identical(c: &Circuit) {
    let serial = BatchRunner::serial();
    let parallel = BatchRunner::new(test_jobs());
    for engine in [Engine::Narrow, Engine::Sat, Engine::Hybrid] {
        let session = CheckSession::new(c, VerifyConfig { engine, ..config() });
        for delta in probe_deltas(c) {
            let checks: Vec<(NetId, i64)> = c.outputs().iter().map(|&o| (o, delta)).collect();
            let a = serial.run(&session, &checks);
            let b = parallel.run(&session, &checks);
            let fa: Vec<Fingerprint> = a.reports.iter().map(fingerprint).collect();
            let fb: Vec<Fingerprint> = b.reports.iter().map(fingerprint).collect();
            assert_eq!(fa, fb, "{} {engine:?} δ = {delta}", c.name());
            assert_eq!(a.outcome(), b.outcome(), "{} δ = {delta}", c.name());
            // Aggregates are sums of identical parts.
            assert_eq!(a.summary.checks, b.summary.checks);
            assert_eq!(a.summary.violations, b.summary.violations);
            assert_eq!(a.backtracks(), b.backtracks());
            assert_eq!(
                a.summary.stage_effort.total(),
                b.summary.stage_effort.total()
            );
        }
        let sa: Vec<SearchFingerprint> = serial
            .exact_delays(&session, c.outputs())
            .iter()
            .map(search_fingerprint)
            .collect();
        let sb: Vec<SearchFingerprint> = parallel
            .exact_delays(&session, c.outputs())
            .iter()
            .map(search_fingerprint)
            .collect();
        assert_eq!(sa, sb, "{} {engine:?} delay searches", c.name());
    }
}

fn assert_session_matches_legacy(c: &Circuit) {
    let cfg = config();
    let session = CheckSession::new(c, cfg.clone());
    for delta in probe_deltas(c) {
        for &o in c.outputs() {
            let s = session.verify(o, delta);
            let l = CheckSession::new(c, cfg.clone()).verify(o, delta);
            assert_eq!(
                s.verdict,
                l.verdict,
                "{} {} δ = {delta}",
                c.name(),
                o.index()
            );
        }
    }
}

#[test]
fn figure1_batches_are_deterministic() {
    let c = figure1(10);
    assert_batches_identical(&c);
    assert_session_matches_legacy(&c);
}

#[test]
fn false_path_chain_batches_are_deterministic() {
    let c = false_path_chain(4, 3, 10);
    assert_batches_identical(&c);
    assert_session_matches_legacy(&c);
}

#[test]
fn carry_skip_batches_are_deterministic() {
    let c = carry_skip_adder(4, 2, 10);
    assert_batches_identical(&c);
    assert_session_matches_legacy(&c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_dag_batches_are_deterministic(seed in any::<u64>()) {
        let c = random_circuit(&RandomCircuitConfig {
            seed,
            num_inputs: 10,
            num_gates: 60,
            num_outputs: 3,
            ..Default::default()
        });
        assert_batches_identical(&c);
        assert_session_matches_legacy(&c);
    }
}
