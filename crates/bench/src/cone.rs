//! Shared fixtures for the cone-sliced checking experiments: the two
//! benchmark circuits (the s6288 multiplier stand-in and the k = 800
//! false-path blow-up split into parallel chains) and the output each
//! experiment slices to.

use ltt_netlist::generators::{array_multiplier, parallel_false_path_gadgets};
use ltt_netlist::transform::nor_mapping;
use ltt_netlist::{Circuit, ConeView, NetId};

/// The s6288 stand-in used throughout the suite: the NOR-mapped 16×16
/// array multiplier (the paper's hardest Table 1 row).
pub fn s6288_standin() -> Circuit {
    nor_mapping(&array_multiplier(16, 10), 10)
}

/// The "k = 800" exponential blow-up instance, arranged as 8 parallel
/// chains of 100 serial false-path gadgets each. Same total gadget count
/// as the serial `serial_false_path_gadgets(800, 10)` blow-up, but each
/// primary output's fanin cone is one chain — 1/8 of the circuit — so
/// cone slicing has real structure to exploit.
pub fn blowup800() -> Circuit {
    parallel_false_path_gadgets(8, 100, 10)
}

/// The hard δ for one `blowup800` chain: just above the exact floating
/// delay 6·k·d = 6000 and below the topological bound 7·k·d = 7000, so
/// proving it demands the full false-path narrowing argument on every
/// gadget of the chain (no arrival-time shortcut).
pub fn blowup_delta() -> i64 {
    6 * 100 * 10 + 1
}

/// The primary output with the smallest *strict* fanin cone — the
/// sharpest contrast between whole-circuit and cone-sliced checking —
/// paired with the δ just above its own arrival time (a narrowing proof,
/// no case analysis; deterministic across modes).
///
/// Panics if every output's cone covers the whole circuit (slicing would
/// be the identity and the experiment meaningless).
pub fn smallest_cone_output(circuit: &Circuit) -> (NetId, i64) {
    let arrival = circuit.arrival_times();
    let (output, _) = circuit
        .outputs()
        .iter()
        .filter_map(|&o| {
            let view = ConeView::extract(circuit, o);
            (!view.is_complete()).then(|| (o, view.circuit().num_gates()))
        })
        .min_by_key(|&(_, gates)| gates)
        .expect("an output with a strict fanin cone");
    (output, arrival[output.index()] + 1)
}
