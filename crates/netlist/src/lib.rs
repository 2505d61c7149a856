//! Gate-level netlist substrate for waveform-narrowing timing analysis.
//!
//! This crate provides everything *structural* that the timing verifier of
//! the DATE 1998 paper builds on:
//!
//! * [`Circuit`] / [`CircuitBuilder`] — a validated DAG of gates
//!   ([`GateKind`]) and delayless nets, with per-gate delay intervals
//!   ([`DelayInterval`]); only `d_max` participates in the floating-mode
//!   delay calculation (§2);
//! * topological timing analysis — `top`, `top_n`, `top_{n1→n2}` longest
//!   paths ([`Circuit::topological_delay`], [`Circuit::arrival_times`],
//!   [`Circuit::longest_to`]);
//! * [`dominators`] — single-source DAG dominator computation, the graph
//!   kernel behind the paper's *static* and *dynamic timing dominators*;
//! * [`bench_format`] — the ISCAS `.bench` netlist format (parser and
//!   writer), so the real ISCAS'85 circuits drop in when available;
//! * [`generators`] — the paper's example circuits (Figure 1 false-path
//!   circuit, Figure 2 carry-skip adder), arithmetic structures, and
//!   seeded random DAGs;
//! * [`suite`] — the evaluation suite: the real `c17` plus synthetic
//!   stand-ins for the other ISCAS'85 circuits with matched size, depth and
//!   false-path structure.
//!
//! # Example
//!
//! ```
//! use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new("demo");
//! let a = b.input("a");
//! let c = b.input("b");
//! let y = b.gate("y", GateKind::Nand, &[a, c], DelayInterval::fixed(10));
//! b.mark_output(y);
//! let circuit = b.build()?;
//! assert_eq!(circuit.topological_delay(), 10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
pub mod bench_format;
mod circuit;
mod cone;
pub mod dominators;
mod gate;
pub mod generators;
pub mod sdf;
pub mod suite;
pub mod transform;
pub mod verilog;

pub use circuit::{
    BuildCircuitError, Circuit, CircuitBuilder, CircuitEdit, EditError, EditOutcome, Gate, GateId,
    NamedEdit, Net, NetId,
};
pub use cone::ConeView;
pub use gate::{DelayInterval, GateKind};

/// Parses `source` in the named netlist format, `"bench"` or `"verilog"`,
/// with every gate at `delay` (a `.bench` circuit is called `name`; a
/// Verilog one takes its module's name). `None` when the format is
/// neither.
pub fn parse_netlist(
    format: &str,
    name: &str,
    source: &str,
    delay: DelayInterval,
) -> Option<Result<Circuit, Box<dyn std::error::Error + Send + Sync>>> {
    match format {
        "bench" => Some(bench_format::parse_bench(name, source, delay).map_err(Into::into)),
        "verilog" => Some(verilog::parse_verilog(source, delay).map_err(Into::into)),
        _ => None,
    }
}
