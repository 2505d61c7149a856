//! Oracle agreement of the **parallel** batch engine: with more than one
//! worker, [`BatchRunner::exact_delays`] and [`BatchRunner::run`] over
//! every output must still agree with the
//! exhaustive floating-mode simulator on every circuit small enough to
//! enumerate — delays, proofs, and certified witness vectors alike.

use ltt_core::{BatchOutcome, BatchRunner, CheckSession, Verdict, VerifyConfig};
use ltt_netlist::generators::{carry_skip_adder, cascade, false_path_chain, figure1};
use ltt_netlist::{Circuit, GateKind};
use ltt_sta::{exhaustive_floating_delay, vector_violates};

fn suite() -> Vec<Circuit> {
    vec![
        figure1(10),
        cascade(GateKind::And, 5, 10),
        cascade(GateKind::Or, 3, 10),
        false_path_chain(4, 3, 10),
        false_path_chain(5, 2, 10),
        carry_skip_adder(4, 2, 10),
    ]
}

fn runner() -> BatchRunner {
    // Deliberately more workers than outputs: stragglers and idle workers
    // must not perturb anything.
    BatchRunner::new(8)
}

#[test]
fn parallel_exact_delays_match_the_oracle() {
    let config = VerifyConfig::default();
    for c in suite() {
        let session = CheckSession::new(&c, config.clone());
        let searches = runner().exact_delays(&session, c.outputs());
        assert_eq!(searches.len(), c.outputs().len());
        for (&o, search) in c.outputs().iter().zip(&searches) {
            let search = search.as_ref().expect("search ran");
            let oracle = exhaustive_floating_delay(&c, o).expect("small cone");
            assert!(search.proven_exact, "{} {}", c.name(), c.net(o).name());
            assert_eq!(
                search.delay,
                oracle.delay,
                "{} output {}",
                c.name(),
                c.net(o).name()
            );
            if let Some(v) = &search.vector {
                assert!(
                    vector_violates(&c, v, o, search.delay),
                    "{} output {}: witness does not reproduce the delay",
                    c.name(),
                    c.net(o).name()
                );
            }
        }
    }
}

#[test]
fn parallel_output_batches_match_the_oracle() {
    let config = VerifyConfig::default();
    for c in suite() {
        let session = CheckSession::new(&c, config.clone());
        let per_output: Vec<i64> = c
            .outputs()
            .iter()
            .map(|&o| exhaustive_floating_delay(&c, o).expect("small cone").delay)
            .collect();
        let circuit_delay = per_output.iter().copied().max().unwrap();
        let at = |delta| c.outputs().iter().map(|&o| (o, delta)).collect::<Vec<_>>();

        // One past the circuit delay: every output must be proven safe.
        let batch = runner().run(&session, &at(circuit_delay + 1));
        assert_eq!(
            batch.outcome(),
            BatchOutcome::AllSafe,
            "{} δ = {}",
            c.name(),
            circuit_delay + 1
        );

        // At the circuit delay: a certified violation on (at least) every
        // output whose own exact delay reaches it, safety proofs elsewhere.
        let batch = runner().run(&session, &at(circuit_delay));
        assert_eq!(batch.outcome(), BatchOutcome::Violation, "{}", c.name());
        for (r, &exact) in batch.reports.iter().zip(&per_output) {
            match &r.verdict {
                Verdict::Violation { vector } => {
                    assert!(exact >= circuit_delay, "{}: spurious violation", c.name());
                    assert!(vector_violates(&c, vector, r.output, circuit_delay));
                }
                Verdict::NoViolation { .. } => {
                    assert!(exact < circuit_delay, "{}: missed violation", c.name());
                }
                other => panic!("{}: undecided verdict {other:?}", c.name()),
            }
        }
    }
}
