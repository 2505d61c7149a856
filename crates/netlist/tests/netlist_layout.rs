//! Pins the connectivity every analysis walks, through the public API:
//! each net's driver and reader order, each gate's inputs, output and
//! `d_max`, and the topological gate order. The narrower schedules a net's
//! driver and then its readers in reader order and sweeps gates in
//! `topo_gates` order, so its effort counters are a function of exactly
//! these orders; any layout change must leave them byte-identical.
//!
//! Three circuits: one straight from the builder (with a forward
//! reference, a gate reading one net twice and reconvergent fanout), a
//! `ConeView` sub-circuit of it, and an `apply_edit` rewire batch that
//! moves gates from one reader list to the end of another — plus the cone
//! of the rewired circuit, whose reader lists are not in gate-id order.

use ltt_netlist::{Circuit, CircuitBuilder, CircuitEdit, ConeView, DelayInterval, GateKind};
use std::fmt::Write;

/// One line per net (`name: driver -> readers`), one per gate
/// (`gate: inputs -> output / dmax`), then the topological order.
fn dump(c: &Circuit) -> String {
    let mut s = String::new();
    for n in c.net_ids() {
        let net = c.net(n);
        let driver = net.driver().map_or("-".to_string(), |g| g.to_string());
        let readers: Vec<String> = net.readers().iter().map(|g| g.to_string()).collect();
        writeln!(s, "{}: {} -> [{}]", net.name(), driver, readers.join(" ")).unwrap();
    }
    for g in c.gate_ids() {
        let gate = c.gate(g);
        let inputs: Vec<String> = gate.inputs().iter().map(|n| n.to_string()).collect();
        writeln!(
            s,
            "{g}: [{}] -> {} / {}",
            inputs.join(" "),
            gate.output(),
            gate.dmax()
        )
        .unwrap();
    }
    let topo: Vec<String> = c.topo_gates().iter().map(|g| g.to_string()).collect();
    writeln!(s, "topo: {}", topo.join(" ")).unwrap();
    s
}

/// Two outputs over shared logic: `p` is declared before its driver, `q`
/// reads `a` twice, and stem `m` reconverges at `y`.
fn builder_circuit() -> Circuit {
    let d = DelayInterval::fixed;
    let mut b = CircuitBuilder::new("pin");
    let a = b.input("a");
    let c = b.input("c");
    let e = b.input("e");
    let p = b.net("p");
    let m = b.gate("m", GateKind::Nand, &[p, c], d(3));
    b.drive(p, GateKind::Not, &[a], d(2));
    let q = b.gate("q", GateKind::And, &[a, a], d(4));
    let r = b.gate("r", GateKind::Or, &[m, e], d(5));
    let t = b.gate("t", GateKind::Xor, &[m, q], d(6));
    let y = b.gate("y", GateKind::Nor, &[r, t, m], d(7));
    let z = b.gate("z", GateKind::Buffer, &[q], d(1));
    b.mark_output(y);
    b.mark_output(z);
    b.build().unwrap()
}

#[test]
fn builder_layout_is_pinned() {
    let c = builder_circuit();
    assert_eq!(
        dump(&c),
        "\
a: - -> [g1 g2 g2]
c: - -> [g0]
e: - -> [g3]
p: g1 -> [g0]
m: g0 -> [g3 g4 g5]
q: g2 -> [g4 g6]
r: g3 -> [g5]
t: g4 -> [g5]
y: g5 -> []
z: g6 -> []
g0: [n3 n1] -> n4 / 3
g1: [n0] -> n3 / 2
g2: [n0 n0] -> n5 / 4
g3: [n4 n2] -> n6 / 5
g4: [n4 n5] -> n7 / 6
g5: [n6 n7 n4] -> n8 / 7
g6: [n5] -> n9 / 1
topo: g2 g6 g1 g0 g4 g3 g5
"
    );
}

#[test]
fn cone_view_layout_is_pinned() {
    let c = builder_circuit();
    let y = c.net_by_name("y").unwrap();
    let view = ConeView::extract(&c, y);
    assert_eq!(
        dump(view.circuit()),
        "\
a: - -> [g1 g2 g2]
c: - -> [g0]
e: - -> [g3]
p: g1 -> [g0]
m: g0 -> [g3 g4 g5]
q: g2 -> [g4]
r: g3 -> [g5]
t: g4 -> [g5]
y: g5 -> []
g0: [n3 n1] -> n4 / 3
g1: [n0] -> n3 / 2
g2: [n0 n0] -> n5 / 4
g3: [n4 n2] -> n6 / 5
g4: [n4 n5] -> n7 / 6
g5: [n6 n7 n4] -> n8 / 7
topo: g2 g1 g0 g4 g3 g5
"
    );
    let z = c.net_by_name("z").unwrap();
    let view = ConeView::extract(&c, z);
    assert_eq!(
        dump(view.circuit()),
        "\
a: - -> [g0 g0]
q: g0 -> [g1]
z: g1 -> []
g0: [n0 n0] -> n1 / 4
g1: [n1] -> n2 / 1
topo: g0 g1
"
    );
}

#[test]
fn rewire_layout_is_pinned() {
    let c = builder_circuit();
    let net = |name: &str| c.net_by_name(name).unwrap();
    // Gate `r` (g3) stops reading `m`: it leaves `m`'s reader list and is
    // appended to `p`'s. Then gate `m` (g0) reads `e` for `c`: it leaves
    // `c`'s list and, re-attached, follows g3 in both `p`'s and `e`'s.
    let gate = |name: &str| c.net(net(name)).driver().unwrap();
    let edits = [
        CircuitEdit::Rewire {
            gate: gate("r"),
            inputs: vec![net("e"), net("p")],
        },
        CircuitEdit::Rewire {
            gate: gate("m"),
            inputs: vec![net("p"), net("e")],
        },
    ];
    let out = c.apply_edit(&edits).unwrap();
    assert!(out.structural);
    let rewired = out.circuit;
    assert_eq!(
        dump(&rewired),
        "\
a: - -> [g1 g2 g2]
c: - -> []
e: - -> [g3 g0]
p: g1 -> [g3 g0]
m: g0 -> [g4 g5]
q: g2 -> [g4 g6]
r: g3 -> [g5]
t: g4 -> [g5]
y: g5 -> []
z: g6 -> []
g0: [n3 n2] -> n4 / 3
g1: [n0] -> n3 / 2
g2: [n0 n0] -> n5 / 4
g3: [n2 n3] -> n6 / 5
g4: [n4 n5] -> n7 / 6
g5: [n6 n7 n4] -> n8 / 7
g6: [n5] -> n9 / 1
topo: g2 g6 g1 g0 g4 g3 g5
"
    );
    // The cone of `y` in the rewired circuit (which `c` has left) keeps
    // those reader orders, though they are no longer gate-id order.
    let view = ConeView::extract(&rewired, rewired.net_by_name("y").unwrap());
    assert_eq!(
        dump(view.circuit()),
        "\
a: - -> [g1 g2 g2]
e: - -> [g3 g0]
p: g1 -> [g3 g0]
m: g0 -> [g4 g5]
q: g2 -> [g4]
r: g3 -> [g5]
t: g4 -> [g5]
y: g5 -> []
g0: [n2 n1] -> n3 / 3
g1: [n0] -> n2 / 2
g2: [n0 n0] -> n4 / 4
g3: [n1 n2] -> n5 / 5
g4: [n3 n4] -> n6 / 6
g5: [n5 n6 n3] -> n7 / 7
topo: g2 g1 g0 g4 g3 g5
"
    );
}
