//! Pessimism measurement: how tight is the fixpoint abstraction?
//!
//! The paper's central claim is that waveform narrowing gives a good
//! pessimism/efficiency trade-off and that global implications reduce the
//! remaining slack. This probe quantifies it: on small random circuits the
//! *exact* last-transition envelope of each net (maximum last event over
//! exhaustively simulated two-vector runs) is compared with the settle
//! bound the fixpoint computes — with and without the timing-dominator
//! stage active under a near-critical δ constraint.
//!
//! Run with `cargo run --release -p ltt-bench --bin pessimism_probe`.

use ltt_bench::render::Table;
use ltt_core::carriers::fixpoint_with_dominators;
use ltt_core::{CheckSession, FixpointResult, Narrower, VerifyConfig};
use ltt_netlist::generators::{random_circuit, RandomCircuitConfig};
use ltt_netlist::Circuit;
use ltt_sta::{simulate, WaveformTrace};
use ltt_waveform::{Signal, Time};

/// Exact settle envelope: per net, the latest last-event time over all
/// two-vector simulations (v1 anything, v2 anything) — a lower bound on
/// the floating envelope that is exact for the sampled waveform family.
fn exact_envelope(c: &Circuit) -> Option<Vec<i64>> {
    let n = c.inputs().len();
    if n > 12 {
        return None;
    }
    let mut envelope = vec![0i64; c.num_nets()];
    for a in 0u64..(1 << n) {
        for b in 0u64..(1 << n) {
            let inputs: Vec<WaveformTrace> = (0..n)
                .map(|i| WaveformTrace::new((a >> i) & 1 == 1, vec![(1, (b >> i) & 1 == 1)]))
                .collect();
            let traces = simulate(c, &inputs);
            for (slot, tr) in envelope.iter_mut().zip(&traces) {
                *slot = (*slot).max(tr.last_event().unwrap_or(0));
            }
        }
    }
    Some(envelope)
}

/// Per-net fixpoint bounds under the δ check: `(settle_max, lmin)` where
/// `lmin` is the earliest last transition still allowed (the quantity the
/// Corollary 1 dominator narrowing raises).
fn fixpoint_bounds(c: &Circuit, use_dominators: bool, delta: i64) -> Option<(Vec<i64>, Vec<Time>)> {
    let s = {
        let arrival = c.arrival_times();
        c.outputs()
            .iter()
            .copied()
            .max_by_key(|o| arrival[o.index()])
            .unwrap()
    };
    let mut nw = Narrower::new(c);
    for &i in c.inputs() {
        nw.narrow_net(i, Signal::floating_input());
    }
    nw.narrow_net(s, Signal::violation(Time::new(delta)));
    if fixpoint_with_dominators(&mut nw, s, delta, use_dominators) == FixpointResult::Contradiction
    {
        return None;
    }
    let settle = nw
        .domains()
        .iter()
        .map(|d| d.latest_settle().finite().unwrap_or(i64::MAX))
        .collect();
    let lmin = nw
        .domains()
        .iter()
        .map(|d| d.earliest_last_transition())
        .collect();
    Some((settle, lmin))
}

fn main() {
    let mut table = Table::new(&[
        "circuit",
        "gates",
        "top/exact",
        "mean settle slack",
        "lmin raised (plain)",
        "lmin raised (+dominators)",
    ]);
    let mut workloads: Vec<(String, Circuit)> = [11u64, 23, 37, 41, 59, 67]
        .iter()
        .map(|&seed| {
            (
                format!("rand{seed}"),
                random_circuit(&RandomCircuitConfig {
                    num_inputs: 8,
                    num_gates: 40,
                    num_outputs: 2,
                    max_fanin: 3,
                    depth_bias: 5,
                    delay: 10,
                    seed,
                }),
            )
        })
        .collect();
    // The dominator-requiring gadget, where the lmin localization is
    // visible.
    workloads.push((
        "forked(6,4)".into(),
        ltt_netlist::generators::forked_false_path_chain(6, 4, 10),
    ));
    workloads.push((
        "forked(8,4)".into(),
        ltt_netlist::generators::forked_false_path_chain(8, 4, 10),
    ));
    for (name, c) in workloads {
        let top = c.topological_delay();
        // Probe at the exact floating-mode delay (the tightest consistent
        // check), found by the verifier itself.
        let critical = {
            let arrival = c.arrival_times();
            c.outputs()
                .iter()
                .copied()
                .max_by_key(|o| arrival[o.index()])
                .unwrap()
        };
        let search = CheckSession::new(&c, VerifyConfig::default()).exact_delay(critical);
        if !search.proven_exact {
            continue;
        }
        let delta = search.delay;
        // Probe one past the exact delay when the check at `exact` is
        // trivially satisfiable everywhere — at `exact` the system is
        // consistent, so lmin localization is observable there.
        let envelope = exact_envelope(&c);
        let Some((settle_plain, lmin_plain)) = fixpoint_bounds(&c, false, delta) else {
            continue;
        };
        let Some((_, lmin_dom)) = fixpoint_bounds(&c, true, delta) else {
            continue;
        };
        let mut slack = 0i64;
        let mut counted = 0usize;
        let mut raised_plain = 0usize;
        let mut raised_dom = 0usize;
        for i in 0..c.num_nets() {
            if let Some(env) = &envelope {
                if settle_plain[i] != i64::MAX {
                    counted += 1;
                    slack += settle_plain[i] - env[i];
                }
            }
            if lmin_plain[i] > Time::NEG_INF && lmin_plain[i] < Time::POS_INF {
                raised_plain += 1;
            }
            if lmin_dom[i] > Time::NEG_INF && lmin_dom[i] < Time::POS_INF {
                raised_dom += 1;
            }
        }
        table.row(&[
            name,
            c.num_gates().to_string(),
            format!("{top}/{delta}"),
            if counted == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", slack as f64 / counted as f64)
            },
            raised_plain.to_string(),
            raised_dom.to_string(),
        ]);
    }
    println!("Fixpoint pessimism and dominator localization at δ = exact");
    println!("(settle slack vs. the exact two-vector envelope; `lmin raised`");
    println!("counts nets whose last-transition lower bound became finite —");
    println!("the violation localization the dominator implications add)");
    println!();
    println!("{}", table.render());
}
