//! Human-readable explanations of a timing check: what the narrowing
//! concluded, where the potential violation lives (dynamic carriers), which
//! nets gate it (timing dominators), and which stems the correlation stage
//! would split — the reporting layer on top of the §4 machinery.

use crate::carriers::fixpoint_with_dominators;
use crate::solver::{FixpointResult, Narrower};
use crate::stems::correlation_stems_masked;
use ltt_netlist::{Circuit, NetId};
use ltt_waveform::{Signal, Time};
use std::fmt;

/// A structured explanation of one timing check's narrowing state.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The checked output's name.
    pub output: String,
    /// The checked δ.
    pub delta: i64,
    /// Topological arrival of the output.
    pub topological: i64,
    /// Whether narrowing (with dominators) already proves the check safe.
    pub proved: bool,
    /// Dynamic carriers (name, dynamic distance), deepest first.
    pub carriers: Vec<(String, i64)>,
    /// Timing dominators from the output outwards (name, distance,
    /// implied earliest last transition δ − distance).
    pub dominators: Vec<(String, i64, i64)>,
    /// Reconvergent carrier stems the correlation stage would split.
    pub stems: Vec<String>,
    /// Nets whose last-transition lower bound is finite after narrowing —
    /// the localized violation region.
    pub localized: Vec<(String, i64)>,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "check: can `{}` transition at or after {}? (topological bound {})",
            self.output, self.delta, self.topological
        )?;
        if self.proved {
            writeln!(
                f,
                "verdict: IMPOSSIBLE — narrowing + dominator implications refute it"
            )?;
            return Ok(());
        }
        writeln!(
            f,
            "narrowing is inconclusive; the potential violation is confined to:"
        )?;
        writeln!(f, "  dynamic carriers ({}):", self.carriers.len())?;
        for (name, k) in self.carriers.iter().take(12) {
            writeln!(f, "    {name} (distance {k})")?;
        }
        if self.carriers.len() > 12 {
            writeln!(f, "    … {} more", self.carriers.len() - 12)?;
        }
        writeln!(
            f,
            "  timing dominators (every violating path runs through ALL of these):"
        )?;
        for (name, k, lmin) in self.dominators.iter().take(12) {
            writeln!(
                f,
                "    {name} (distance {k}; must transition at or after {lmin})"
            )?;
        }
        if self.dominators.len() > 12 {
            writeln!(f, "    … {} more", self.dominators.len() - 12)?;
        }
        if !self.stems.is_empty() {
            writeln!(f, "  correlation stems: {}", self.stems.join(", "))?;
        }
        if !self.localized.is_empty() {
            writeln!(f, "  localized last-transition bounds:")?;
            for (name, lmin) in self.localized.iter().take(12) {
                writeln!(f, "    {name} ≥ {lmin}")?;
            }
            if self.localized.len() > 12 {
                writeln!(f, "    … {} more", self.localized.len() - 12)?;
            }
        }
        Ok(())
    }
}

/// Builds the explanation for `(ξ, output, δ)` by running the narrowing
/// (with dominator implications) and reading off the §4 structures.
///
/// # Examples
///
/// ```
/// use ltt_core::explain;
/// use ltt_netlist::generators::figure1;
///
/// let c = figure1(10);
/// let s = c.outputs()[0];
/// // δ = 61 is refuted outright.
/// assert!(explain(&c, s, 61).proved);
/// // δ = 60 is live: the explanation names the carriers and dominators.
/// let e = explain(&c, s, 60);
/// assert!(!e.proved);
/// assert!(e.dominators.iter().any(|(n, _, _)| n == "s"));
/// ```
pub fn explain(circuit: &Circuit, output: NetId, delta: i64) -> Explanation {
    let mut nw = Narrower::new(circuit);
    for &i in circuit.inputs() {
        nw.narrow_net(i, Signal::floating_input());
    }
    nw.narrow_net(output, Signal::violation(Time::new(delta)));
    let proved =
        fixpoint_with_dominators(&mut nw, output, delta, true) == FixpointResult::Contradiction;

    let name = |n: NetId| circuit.net(n).name().to_string();
    let mut explanation = Explanation {
        output: name(output),
        delta,
        topological: circuit.arrival_times()[output.index()],
        proved,
        carriers: Vec::new(),
        dominators: Vec::new(),
        stems: Vec::new(),
        localized: Vec::new(),
    };
    if proved {
        return explanation;
    }

    let kernel = nw.dominator_kernel(output, delta);
    let carriers = kernel.carriers();
    let mut carrier_list: Vec<(String, i64)> = circuit
        .net_ids()
        .filter_map(|n| carriers[n.index()].map(|k| (name(n), k)))
        .collect();
    carrier_list.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    explanation.carriers = carrier_list;

    explanation.dominators = kernel
        .dominators()
        .iter()
        .map(|&d| {
            let k = carriers[d.index()].expect("dominators are carriers");
            (name(d), k, delta - k)
        })
        .collect();

    explanation.stems =
        correlation_stems_masked(&mut nw, output, delta, &circuit.reconvergent_stems())
            .into_iter()
            .map(name)
            .collect();

    let mut localized: Vec<(String, i64)> = circuit
        .net_ids()
        .filter_map(|n| {
            let lmin = nw.domain(n).earliest_last_transition();
            lmin.finite().map(|t| (name(n), t))
        })
        .collect();
    localized.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    explanation.localized = localized;
    explanation
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltt_netlist::generators::{figure1, forked_false_path_chain, stem_conflict_circuit};

    #[test]
    fn figure1_explanation_at_60() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let e = explain(&c, s, 60);
        assert!(!e.proved);
        assert_eq!(e.topological, 70);
        // The violation is localized at the output (both classes must
        // transition at or after 60); n7 appears among the carriers.
        assert!(e.localized.iter().any(|(n, t)| n == "s" && *t == 60));
        assert!(e.carriers.iter().any(|(n, _)| n == "n7"));
        // s is always a dominator of itself.
        assert_eq!(e.dominators.first().map(|(n, ..)| n.as_str()), Some("s"));
        let text = e.to_string();
        assert!(text.contains("dynamic carriers"));
        assert!(text.contains("n7"));
    }

    #[test]
    fn refuted_checks_say_impossible() {
        let c = figure1(10);
        let s = c.outputs()[0];
        let e = explain(&c, s, 61);
        assert!(e.proved);
        assert!(e.to_string().contains("IMPOSSIBLE"));
    }

    #[test]
    fn forked_gadget_reports_the_branch_point_as_dominator() {
        let c = forked_false_path_chain(6, 4, 10);
        let s = c.outputs()[0];
        // At δ = exact the check is live and the last prefix gate (the
        // fork point n6) dominates every long path.
        let e = explain(&c, s, 80);
        assert!(!e.proved);
        assert!(
            e.dominators.iter().any(|(n, ..)| n == "n6"),
            "dominators: {:?}",
            e.dominators
        );
    }

    #[test]
    fn display_truncates_long_dominator_lists() {
        use ltt_netlist::generators::cascade;
        use ltt_netlist::GateKind;
        // A deep chain: every net on it dominates the output, so the
        // dominator list is far longer than the 12-entry display cap.
        let c = cascade(GateKind::And, 20, 10);
        let s = c.outputs()[0];
        let e = explain(&c, s, 200);
        assert!(!e.proved);
        assert!(
            e.dominators.len() > 12,
            "dominators: {}",
            e.dominators.len()
        );
        let text = e.to_string();
        let dominator_lines = text
            .lines()
            .filter(|l| l.contains("must transition at or after"))
            .count();
        assert_eq!(
            dominator_lines, 12,
            "display must cap dominator lines:\n{text}"
        );
        let tail = format!("… {} more", e.dominators.len() - 12);
        assert!(text.contains(&tail), "missing tail marker in:\n{text}");
    }

    #[test]
    fn stem_gadget_reports_the_select_stem() {
        let c = stem_conflict_circuit(10, 10);
        let s = c.outputs()[0];
        let e = explain(&c, s, 90);
        assert!(!e.proved);
        assert!(e.stems.contains(&"y".to_string()), "stems: {:?}", e.stems);
    }
}
