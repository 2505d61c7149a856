//! Gate-level circuit representation: a DAG of gates connected by delayless
//! nets (§2 of the paper), plus a builder with validation.
//!
//! A [`Circuit`] is one flat, id-indexed layout that every analysis reads
//! directly: a shared structural part (names, gate kinds and outputs, CSR
//! gate-input and net-touching lists, the topological order) and its own
//! per-gate delays. A delay edit copies only the delays; a rewire or a
//! cone builds a new structural part. [`Gate`] and [`Net`] are borrowed
//! views of one row of those tables.

use crate::{DelayInterval, GateKind};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifier of a net (edge) in a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The dense index of this net (0-based, valid for the owning circuit).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NetId` from a dense index. Only meaningful for indices
    /// obtained from the same circuit.
    pub fn from_index(i: usize) -> NetId {
        NetId(u32::try_from(i).expect("net index fits in u32"))
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate (vertex) in a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The dense index of this gate (0-based, valid for the owning circuit).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `GateId` from a dense index. Only meaningful for indices
    /// obtained from the same circuit.
    pub fn from_index(i: usize) -> GateId {
        GateId(u32::try_from(i).expect("gate index fits in u32"))
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A net of a [`Circuit`], borrowed: a named wire with at most one driving
/// gate and any number of reader gates.
#[derive(Clone, Copy)]
pub struct Net<'c> {
    s: &'c Structure,
    id: NetId,
}

impl<'c> Net<'c> {
    /// The net's name.
    pub fn name(self) -> &'c str {
        &self.s.names[self.id.index()]
    }

    /// The gate driving this net, or `None` for a primary input.
    #[inline]
    pub fn driver(self) -> Option<GateId> {
        self.s.driver[self.id.index()]
    }

    /// The gates reading this net (its fanout), in reader order.
    #[inline]
    pub fn readers(self) -> &'c [GateId] {
        self.s.readers(self.id)
    }

    /// Every gate touching the net: its driver first (if any), then its
    /// readers — the order the narrower schedules constraints in.
    #[inline]
    pub fn touching(self) -> &'c [GateId] {
        self.s.touching.row(self.id.index())
    }

    /// Whether the net fans out to more than one reader — a *fanout stem*.
    pub fn is_fanout_stem(self) -> bool {
        self.readers().len() > 1
    }
}

impl fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name())
            .field("driver", &self.driver())
            .field("readers", &self.readers())
            .finish()
    }
}

/// A gate of a [`Circuit`], borrowed: kind, ordered input nets, single
/// output net, delay.
#[derive(Clone, Copy)]
pub struct Gate<'c> {
    circuit: &'c Circuit,
    id: GateId,
}

impl<'c> Gate<'c> {
    /// The gate's kind.
    #[inline]
    pub fn kind(self) -> GateKind {
        self.circuit.s.kind[self.id.index()]
    }

    /// The gate's input nets, in declaration order.
    #[inline]
    pub fn inputs(self) -> &'c [NetId] {
        self.circuit.s.fanin.row(self.id.index())
    }

    /// The gate's output net.
    #[inline]
    pub fn output(self) -> NetId {
        self.circuit.s.output[self.id.index()]
    }

    /// The gate's delay interval.
    #[inline]
    pub fn delay(self) -> DelayInterval {
        self.circuit.delays[self.id.index()]
    }

    /// The maximum delay `d_max` — the bound used by the floating-mode
    /// delay calculation.
    #[inline]
    pub fn dmax(self) -> u32 {
        self.delay().max()
    }

    /// The gate's position in [`Circuit::topo_gates`].
    #[inline]
    pub fn topo_position(self) -> usize {
        self.circuit.s.pos[self.id.index()] as usize
    }
}

impl fmt::Debug for Gate<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("kind", &self.kind())
            .field("inputs", &self.inputs())
            .field("output", &self.output())
            .field("delay", &self.delay())
            .finish()
    }
}

/// Variable-length rows packed into one array: row `i` is
/// `items[off[i]..off[i + 1]]`.
#[derive(Clone, Debug)]
struct Csr<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            off: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T> Csr<T> {
    fn push(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        let end = u32::try_from(self.items.len()).expect("fewer than 4G list entries");
        self.off.push(end);
    }

    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self.items[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// The structural part of a [`Circuit`]: everything but the delays, shared
/// (via `Arc`) by every delay-edited copy.
#[derive(Clone, Debug, Default)]
pub(crate) struct Structure {
    name: String,
    names: Vec<String>,
    by_name: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    kind: Vec<GateKind>,
    output: Vec<NetId>,
    /// Each gate's input nets.
    fanin: Csr<NetId>,
    /// Each net's driving gate, `None` for a primary input.
    driver: Vec<Option<GateId>>,
    /// Each net's driver first (if any), then its readers in reader order.
    touching: Csr<GateId>,
    topo_gates: Vec<GateId>,
    /// Each gate's position in `topo_gates`.
    pos: Vec<u32>,
    /// Number of nets with at least two readers.
    fanout_stems: usize,
}

impl Structure {
    /// A structure with the given names, inputs and outputs and no gates
    /// yet: push the gates, then connect the nets and order the gates.
    pub(crate) fn new(
        name: String,
        names: Vec<String>,
        by_name: HashMap<String, NetId>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Structure {
        Structure {
            name,
            names,
            by_name,
            inputs,
            outputs,
            ..Structure::default()
        }
    }

    /// Appends the next gate.
    pub(crate) fn push_gate(
        &mut self,
        kind: GateKind,
        inputs: impl IntoIterator<Item = NetId>,
        output: NetId,
    ) {
        self.kind.push(kind);
        self.output.push(output);
        self.fanin.push(inputs);
    }

    /// Records the next net's driver and readers.
    pub(crate) fn connect_net(
        &mut self,
        driver: Option<GateId>,
        readers: impl IntoIterator<Item = GateId>,
    ) {
        let first_reader = self.touching.items.len() + usize::from(driver.is_some());
        self.driver.push(driver);
        self.touching.push(driver.into_iter().chain(readers));
        self.fanout_stems += usize::from(self.touching.items.len() > first_reader + 1);
    }

    /// Takes `order` as the gates' topological order.
    pub(crate) fn set_order(&mut self, order: Vec<GateId>) {
        self.pos = vec![0; order.len()];
        for (i, g) in order.iter().enumerate() {
            self.pos[g.index()] = u32::try_from(i).expect("fewer than 4G gates");
        }
        self.topo_gates = order;
    }

    /// Kahn's sort over the gates, each gate's output readers visited in
    /// reader order and the last gate made ready taken first. On a
    /// combinational cycle, the output net of the first gate left on it.
    fn sort(&mut self) -> Result<(), NetId> {
        let ng = self.kind.len();
        let mut indegree: Vec<usize> = (0..ng)
            .map(|g| {
                let inputs = self.fanin.row(g);
                inputs
                    .iter()
                    .filter(|n| self.driver[n.index()].is_some())
                    .count()
            })
            .collect();
        let mut ready: Vec<GateId> = (0..ng)
            .filter(|&g| indegree[g] == 0)
            .map(GateId::from_index)
            .collect();
        let mut order = Vec::with_capacity(ng);
        while let Some(g) = ready.pop() {
            order.push(g);
            for &reader in self.readers(self.output[g.index()]) {
                indegree[reader.index()] -= 1;
                if indegree[reader.index()] == 0 {
                    ready.push(reader);
                }
            }
        }
        if order.len() != ng {
            let stuck = indegree.iter().position(|&d| d > 0).expect("cycle exists");
            return Err(self.output[stuck]);
        }
        self.set_order(order);
        Ok(())
    }

    #[inline]
    fn readers(&self, n: NetId) -> &[GateId] {
        let touching = self.touching.row(n.index());
        &touching[usize::from(self.driver[n.index()].is_some())..]
    }

    /// The circuit of this structure and per-gate `delays`.
    pub(crate) fn into_circuit(self, delays: Vec<DelayInterval>) -> Circuit {
        Circuit {
            s: Arc::new(self),
            delays,
        }
    }
}

/// Errors detected when finalizing a [`CircuitBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildCircuitError {
    /// The gate graph contains a combinational cycle through the named net.
    Cycle(String),
    /// A net is neither a primary input nor driven by any gate.
    UndrivenNet(String),
    /// A net is driven by two gates.
    MultipleDrivers(String),
    /// A declared primary input is also driven by a gate.
    DrivenInput(String),
    /// The circuit declares no primary output.
    NoOutputs,
    /// A gate was given an invalid number of inputs for its kind.
    BadArity {
        /// The offending gate kind.
        kind: GateKind,
        /// The number of inputs supplied.
        arity: usize,
        /// The gate's output net name.
        output: String,
    },
}

impl fmt::Display for BuildCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCircuitError::Cycle(n) => write!(f, "combinational cycle through net `{n}`"),
            BuildCircuitError::UndrivenNet(n) => {
                write!(f, "net `{n}` is neither an input nor driven by a gate")
            }
            BuildCircuitError::MultipleDrivers(n) => write!(f, "net `{n}` has multiple drivers"),
            BuildCircuitError::DrivenInput(n) => {
                write!(f, "primary input `{n}` is also driven by a gate")
            }
            BuildCircuitError::NoOutputs => write!(f, "circuit declares no primary output"),
            BuildCircuitError::BadArity {
                kind,
                arity,
                output,
            } => write!(
                f,
                "gate {kind} driving `{output}` cannot take {arity} inputs"
            ),
        }
    }
}

impl Error for BuildCircuitError {}

/// An immutable, validated combinational circuit.
///
/// Construct one with [`CircuitBuilder`], the ISCAS
/// [`.bench` parser](crate::bench_format::parse_bench), or one of the
/// [generators](crate::generators). Cloning shares the structure and
/// copies the per-gate delays.
///
/// # Examples
///
/// ```
/// use ltt_netlist::{Circuit, CircuitBuilder, DelayInterval, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("half_adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.gate("sum", GateKind::Xor, &[a, c], DelayInterval::fixed(10));
/// let carry = b.gate("carry", GateKind::And, &[a, c], DelayInterval::fixed(10));
/// b.mark_output(sum);
/// b.mark_output(carry);
/// let circuit: Circuit = b.build()?;
/// assert_eq!(circuit.num_gates(), 2);
/// assert_eq!(circuit.evaluate(&[true, true]), vec![false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Circuit {
    s: Arc<Structure>,
    delays: Vec<DelayInterval>,
}

impl Circuit {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.s.name
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.s.names.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.delays.len()
    }

    /// The net with the given id.
    #[inline]
    pub fn net(&self, id: NetId) -> Net<'_> {
        Net { s: &self.s, id }
    }

    /// The gate with the given id.
    #[inline]
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        Gate { circuit: self, id }
    }

    /// All net ids, in dense order.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.num_nets()).map(NetId::from_index)
    }

    /// All gate ids, in dense order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.num_gates()).map(GateId::from_index)
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.s.inputs
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.s.outputs
    }

    /// Whether the net is a primary input.
    pub fn is_input(&self, id: NetId) -> bool {
        self.s.driver[id.index()].is_none()
    }

    /// Whether the net is a declared primary output.
    pub fn is_output(&self, id: NetId) -> bool {
        self.s.outputs.contains(&id)
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.s.by_name.get(name).copied()
    }

    /// The gates in a topological order (drivers before readers).
    pub fn topo_gates(&self) -> &[GateId] {
        &self.s.topo_gates
    }

    /// Functional (zero-delay) evaluation: applies `vector` to the primary
    /// inputs (in declaration order) and returns the primary output values
    /// (in declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the number of inputs.
    pub fn evaluate(&self, vector: &[bool]) -> Vec<bool> {
        let values = self.evaluate_all(vector);
        self.outputs().iter().map(|&o| values[o.index()]).collect()
    }

    /// Functional (zero-delay) evaluation returning the value of every net,
    /// indexed by [`NetId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the number of inputs.
    pub fn evaluate_all(&self, vector: &[bool]) -> Vec<bool> {
        assert_eq!(
            vector.len(),
            self.inputs().len(),
            "input vector length mismatch"
        );
        let mut values = vec![false; self.num_nets()];
        for (&net, &v) in self.inputs().iter().zip(vector) {
            values[net.index()] = v;
        }
        let mut buf = Vec::new();
        for &gid in self.topo_gates() {
            let gate = self.gate(gid);
            buf.clear();
            buf.extend(gate.inputs().iter().map(|&n| values[n.index()]));
            values[gate.output().index()] = gate.kind().eval(&buf);
        }
        values
    }

    /// Total number of fanout stems (nets with more than one reader).
    pub fn num_fanout_stems(&self) -> usize {
        self.s.fanout_stems
    }
}

/// Incremental builder for [`Circuit`] with support for forward references
/// (needed by netlist parsers).
#[derive(Clone, Debug, Default)]
pub struct CircuitBuilder {
    /// Names, drivers, inputs, outputs and gates so far; the nets are
    /// connected and the gates ordered by [`CircuitBuilder::build`].
    s: Structure,
    delays: Vec<DelayInterval>,
    errors: Vec<BuildCircuitError>,
}

impl CircuitBuilder {
    /// Creates an empty builder for a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        let mut b = CircuitBuilder::default();
        b.s.name = name.into();
        b
    }

    /// Declares (or retrieves) a net by name, without driving it. Useful
    /// for forward references while parsing.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        if let Some(&id) = self.s.by_name.get(&name) {
            return id;
        }
        let id = NetId::from_index(self.s.names.len());
        self.s.by_name.insert(name.clone(), id);
        self.s.names.push(name);
        self.s.driver.push(None);
        id
    }

    /// Declares a primary input net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.net(name);
        if !self.s.inputs.contains(&id) {
            self.s.inputs.push(id);
        }
        id
    }

    /// Adds a gate driving a freshly named (or forward-declared) output net
    /// and returns that net.
    pub fn gate(
        &mut self,
        output: impl Into<String>,
        kind: GateKind,
        inputs: &[NetId],
        delay: DelayInterval,
    ) -> NetId {
        let out = self.net(output);
        self.drive(out, kind, inputs, delay);
        out
    }

    /// Drives an existing net with a gate. Records (rather than panics on)
    /// structural errors; they surface from [`CircuitBuilder::build`].
    pub fn drive(&mut self, output: NetId, kind: GateKind, inputs: &[NetId], delay: DelayInterval) {
        let name = || self.s.names[output.index()].clone();
        if !kind.arity_ok(inputs.len()) {
            let e = BuildCircuitError::BadArity {
                kind,
                arity: inputs.len(),
                output: name(),
            };
            self.errors.push(e);
            return;
        }
        if self.s.driver[output.index()].is_some() {
            self.errors.push(BuildCircuitError::MultipleDrivers(name()));
            return;
        }
        let gid = GateId::from_index(self.delays.len());
        self.s.driver[output.index()] = Some(gid);
        self.s.push_gate(kind, inputs.iter().copied(), output);
        self.delays.push(delay);
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.s.outputs.contains(&net) {
            self.s.outputs.push(net);
        }
    }

    /// Validates and finalizes the circuit.
    ///
    /// # Errors
    ///
    /// Returns the first structural error found: recorded gate errors,
    /// driven inputs, undriven internal nets, missing outputs, or a
    /// combinational cycle.
    pub fn build(self) -> Result<Circuit, BuildCircuitError> {
        let CircuitBuilder {
            mut s,
            delays,
            errors,
        } = self;
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        if s.outputs.is_empty() {
            return Err(BuildCircuitError::NoOutputs);
        }
        for &i in &s.inputs {
            if s.driver[i.index()].is_some() {
                return Err(BuildCircuitError::DrivenInput(s.names[i.index()].clone()));
            }
        }
        for (idx, driver) in s.driver.iter().enumerate() {
            if driver.is_none() && !s.inputs.contains(&NetId::from_index(idx)) {
                return Err(BuildCircuitError::UndrivenNet(s.names[idx].clone()));
            }
        }
        // Each net's readers in gate order, grouped by one counting pass
        // over the packed gate inputs (a gate reading a net twice is
        // listed twice).
        let mut readers = Csr {
            off: vec![0; s.names.len() + 1],
            items: vec![GateId::from_index(0); s.fanin.items.len()],
        };
        for &i in &s.fanin.items {
            readers.off[i.index() + 1] += 1;
        }
        for n in 1..readers.off.len() {
            readers.off[n] += readers.off[n - 1];
        }
        let mut next = readers.off.clone();
        for g in 0..s.kind.len() {
            for &i in s.fanin.row(g) {
                readers.items[next[i.index()] as usize] = GateId::from_index(g);
                next[i.index()] += 1;
            }
        }
        for (n, driver) in std::mem::take(&mut s.driver).into_iter().enumerate() {
            s.connect_net(driver, readers.row(n).iter().copied());
        }
        s.sort()
            .map_err(|n| BuildCircuitError::Cycle(s.names[n.index()].clone()))?;
        Ok(s.into_circuit(delays))
    }
}

/// One local engineering-change-order (ECO) edit applied by
/// [`Circuit::apply_edit`]. Its targets are ids; a [`NamedEdit`] names
/// them instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitEdit<G = GateId, N = NetId> {
    /// Gate resize / SDF re-annotation: replace one gate's delay interval.
    SetDelay {
        /// The gate to re-annotate.
        gate: G,
        /// Its new delay interval.
        delay: DelayInterval,
    },
    /// Local rewire: replace one gate's input list (same kind and output).
    Rewire {
        /// The gate to rewire.
        gate: G,
        /// Its new ordered input nets.
        inputs: Vec<N>,
    },
}

/// A [`CircuitEdit`] addressed the way users write edits: a gate by the
/// name of the net it drives, nets by name. [`Circuit::resolve_edit`]
/// turns it into ids.
pub type NamedEdit<'a> = CircuitEdit<&'a str, &'a str>;

/// The result of [`Circuit::apply_edit`]: the edited circuit plus the
/// invalidation contract the incremental layers key off.
#[derive(Clone, Debug)]
pub struct EditOutcome {
    /// The edited circuit (the original is untouched).
    pub circuit: Circuit,
    /// The *dirty nets*: every net whose driving gate's delay or input
    /// list changed (plus, for a rewire, the nets added to or removed from
    /// that input list). An analysis keyed to a fanin cone stays valid iff
    /// the cone contains none of these nets.
    pub dirty: Vec<NetId>,
    /// Whether any edit changed connectivity (a rewire). Delay-only edit
    /// batches keep every structural analysis — the shared structure,
    /// cones, learned implications, SCOAP — alive.
    pub structural: bool,
}

/// Errors from [`Circuit::apply_edit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// A gate id is out of range.
    NoSuchGate(GateId),
    /// A net id in a rewire is out of range.
    NoSuchNet(NetId),
    /// A rewire changed the gate's input count to something its kind
    /// cannot take.
    BadArity {
        /// The gate kind.
        kind: GateKind,
        /// The attempted input count.
        arity: usize,
    },
    /// A rewire created a combinational cycle through the named net.
    Cycle(String),
    /// A rewire made the gate read its own output net. (Reading a net its
    /// output feeds through other gates is a [`EditError::Cycle`].)
    SelfLoop(GateId),
    /// A [`NamedEdit`] named no net.
    NoSuchName(String),
    /// A [`NamedEdit`] named a primary input as the edited gate.
    PrimaryInput(String),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::NoSuchGate(g) => write!(f, "no such gate: {g}"),
            EditError::NoSuchNet(n) => write!(f, "no such net: {n}"),
            EditError::BadArity { kind, arity } => {
                write!(f, "gate kind {kind} cannot take {arity} inputs")
            }
            EditError::Cycle(n) => write!(f, "rewire creates a cycle through net `{n}`"),
            EditError::SelfLoop(g) => write!(f, "gate {g} cannot read its own output"),
            EditError::NoSuchName(n) => write!(f, "no net named `{n}`"),
            EditError::PrimaryInput(n) => write!(f, "`{n}` is a primary input, not a gate output"),
        }
    }
}

impl Error for EditError {}

impl Circuit {
    /// Resolves a name-addressed edit against this circuit.
    ///
    /// # Errors
    ///
    /// [`EditError::NoSuchName`] or [`EditError::PrimaryInput`]; the ids
    /// are checked by [`Circuit::apply_edit`].
    pub fn resolve_edit(&self, edit: &NamedEdit<'_>) -> Result<CircuitEdit, EditError> {
        let net = |name: &str| {
            self.net_by_name(name)
                .ok_or_else(|| EditError::NoSuchName(name.to_string()))
        };
        let gate = |name: &str| {
            self.net(net(name)?)
                .driver()
                .ok_or_else(|| EditError::PrimaryInput(name.to_string()))
        };
        Ok(match edit {
            CircuitEdit::SetDelay { gate: g, delay } => CircuitEdit::SetDelay {
                gate: gate(g)?,
                delay: *delay,
            },
            CircuitEdit::Rewire { gate: g, inputs } => CircuitEdit::Rewire {
                gate: gate(g)?,
                inputs: inputs.iter().map(|&n| net(n)).collect::<Result<_, _>>()?,
            },
        })
    }

    /// Applies a batch of local ECO edits, returning the edited circuit
    /// together with the dirty net set and a structural flag — the
    /// invalidation contract incremental re-verification builds on (see
    /// DESIGN.md §14).
    ///
    /// A delay-only batch shares this circuit's structure and copies only
    /// the per-gate delays. A rewire detaches the gate from its old input
    /// nets' reader lists and appends it to the new ones', then re-runs the
    /// topological sort; it is rejected if it creates a cycle.
    ///
    /// # Errors
    ///
    /// [`EditError`] on out-of-range ids, arity violations, or a rewire
    /// that creates a combinational cycle. On error the original circuit
    /// is unchanged and no partial edit escapes.
    pub fn apply_edit(&self, edits: &[CircuitEdit]) -> Result<EditOutcome, EditError> {
        let mut delays = self.delays.clone();
        // Every gate's input list and every net's reader list, copied out
        // on the first rewire (which has a gate, so `fanin` is non-empty).
        let mut fanin: Vec<Vec<NetId>> = Vec::new();
        let mut readers: Vec<Vec<GateId>> = Vec::new();
        let mut dirty: Vec<NetId> = Vec::new();
        let mut structural = false;
        for edit in edits {
            match edit {
                CircuitEdit::SetDelay { gate, delay } => {
                    let d = delays
                        .get_mut(gate.index())
                        .ok_or(EditError::NoSuchGate(*gate))?;
                    if *d != *delay {
                        *d = *delay;
                        dirty.push(self.gate(*gate).output());
                    }
                }
                CircuitEdit::Rewire { gate, inputs } => {
                    if gate.index() >= self.num_gates() {
                        return Err(EditError::NoSuchGate(*gate));
                    }
                    let kind = self.gate(*gate).kind();
                    if !kind.arity_ok(inputs.len()) {
                        return Err(EditError::BadArity {
                            kind,
                            arity: inputs.len(),
                        });
                    }
                    if let Some(&n) = inputs.iter().find(|n| n.index() >= self.num_nets()) {
                        return Err(EditError::NoSuchNet(n));
                    }
                    let output = self.gate(*gate).output();
                    if inputs.contains(&output) {
                        return Err(EditError::SelfLoop(*gate));
                    }
                    if fanin.is_empty() {
                        fanin = self
                            .gate_ids()
                            .map(|g| self.gate(g).inputs().to_vec())
                            .collect();
                        readers = self
                            .net_ids()
                            .map(|n| self.net(n).readers().to_vec())
                            .collect();
                    }
                    let old_inputs = &fanin[gate.index()];
                    if old_inputs == inputs {
                        continue;
                    }
                    structural = true;
                    for &n in old_inputs {
                        let readers = &mut readers[n.index()];
                        if let Some(pos) = readers.iter().position(|r| r == gate) {
                            readers.remove(pos);
                        }
                    }
                    for &n in inputs {
                        readers[n.index()].push(*gate);
                    }
                    dirty.push(output);
                    dirty.extend(old_inputs.iter().filter(|n| !inputs.contains(n)));
                    dirty.extend(inputs.iter().filter(|n| !old_inputs.contains(n)));
                    fanin[gate.index()] = inputs.clone();
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        let s = if structural {
            Arc::new(self.rewired(fanin, readers)?)
        } else {
            Arc::clone(&self.s)
        };
        Ok(EditOutcome {
            circuit: Circuit { s, delays },
            dirty,
            structural,
        })
    }

    /// This circuit's structure with each gate's inputs and each net's
    /// readers replaced by `fanin` and `readers`, re-sorted.
    fn rewired(
        &self,
        fanin: Vec<Vec<NetId>>,
        readers: Vec<Vec<GateId>>,
    ) -> Result<Structure, EditError> {
        let s = &self.s;
        let mut next = Structure::new(
            s.name.clone(),
            s.names.clone(),
            s.by_name.clone(),
            s.inputs.clone(),
            s.outputs.clone(),
        );
        for (g, inputs) in fanin.into_iter().enumerate() {
            next.push_gate(s.kind[g], inputs, s.output[g]);
        }
        for (n, readers) in readers.into_iter().enumerate() {
            next.connect_net(s.driver[n], readers);
        }
        next.sort()
            .map_err(|n| EditError::Cycle(next.names[n.index()].clone()))?;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d10() -> DelayInterval {
        DelayInterval::fixed(10)
    }

    #[test]
    fn build_and_query_small_circuit() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let bb = b.input("b");
        let x = b.gate("x", GateKind::Nand, &[a, bb], d10());
        b.mark_output(x);
        let c = b.build().unwrap();
        assert_eq!(c.name(), "c");
        assert_eq!(c.num_nets(), 3);
        assert_eq!(c.num_gates(), 1);
        assert!(c.is_input(a));
        assert!(!c.is_input(x));
        assert!(c.is_output(x));
        assert_eq!(c.net_by_name("x"), Some(x));
        assert_eq!(c.net(x).driver(), Some(GateId::from_index(0)));
        assert_eq!(c.net(a).readers(), &[GateId::from_index(0)]);
        assert_eq!(c.gate(GateId::from_index(0)).kind(), GateKind::Nand);
    }

    #[test]
    fn evaluate_logic() {
        let mut b = CircuitBuilder::new("mux");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("c");
        let ns = b.gate("ns", GateKind::Not, &[s], d10());
        let t0 = b.gate("t0", GateKind::And, &[ns, a], d10());
        let t1 = b.gate("t1", GateKind::And, &[s, c], d10());
        let y = b.gate("y", GateKind::Or, &[t0, t1], d10());
        b.mark_output(y);
        let circuit = b.build().unwrap();
        // y = s ? c : a
        assert_eq!(circuit.evaluate(&[false, true, false]), vec![true]);
        assert_eq!(circuit.evaluate(&[true, true, false]), vec![false]);
        assert_eq!(circuit.evaluate(&[true, false, true]), vec![true]);
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = CircuitBuilder::new("fwd");
        let later = b.net("later");
        let a = b.input("a");
        let y = b.gate("y", GateKind::Buffer, &[later], d10());
        b.drive(later, GateKind::Not, &[a], d10());
        b.mark_output(y);
        let c = b.build().unwrap();
        assert_eq!(c.evaluate(&[false]), vec![true]);
        // Topological order must put the NOT before the BUFFER.
        let topo = c.topo_gates();
        let pos_not = topo
            .iter()
            .position(|&g| c.gate(g).kind() == GateKind::Not)
            .unwrap();
        let pos_buf = topo
            .iter()
            .position(|&g| c.gate(g).kind() == GateKind::Buffer)
            .unwrap();
        assert!(pos_not < pos_buf);
    }

    #[test]
    fn cycle_detected() {
        let mut b = CircuitBuilder::new("cyc");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.gate("y", GateKind::And, &[a, x], d10());
        b.drive(x, GateKind::Buffer, &[y], d10());
        b.mark_output(y);
        assert!(matches!(b.build(), Err(BuildCircuitError::Cycle(_))));
    }

    #[test]
    fn undriven_net_detected() {
        let mut b = CircuitBuilder::new("u");
        let a = b.input("a");
        let ghost = b.net("ghost");
        let y = b.gate("y", GateKind::And, &[a, ghost], d10());
        b.mark_output(y);
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::UndrivenNet(n)) if n == "ghost"
        ));
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut b = CircuitBuilder::new("m");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], d10());
        b.drive(x, GateKind::Buffer, &[a], d10());
        b.mark_output(x);
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::MultipleDrivers(n)) if n == "x"
        ));
    }

    #[test]
    fn bad_arity_detected() {
        let mut b = CircuitBuilder::new("a");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Xor, &[a], d10());
        b.mark_output(x);
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::BadArity { arity: 1, .. })
        ));
    }

    #[test]
    fn no_outputs_detected() {
        let mut b = CircuitBuilder::new("n");
        let a = b.input("a");
        let _ = b.gate("x", GateKind::Not, &[a], d10());
        assert!(matches!(b.build(), Err(BuildCircuitError::NoOutputs)));
    }

    #[test]
    fn driven_input_detected() {
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let x = b.net("x");
        b.input("x"); // also declared as input…
        b.drive(x, GateKind::Not, &[a], d10()); // …and driven
        b.mark_output(x);
        assert!(matches!(
            b.build(),
            Err(BuildCircuitError::DrivenInput(n)) if n == "x"
        ));
    }

    #[test]
    fn fanout_stems_counted() {
        let mut b = CircuitBuilder::new("f");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a], d10());
        let y = b.gate("y", GateKind::Not, &[x], d10());
        let z = b.gate("z", GateKind::Buffer, &[x], d10());
        b.mark_output(y);
        b.mark_output(z);
        let c = b.build().unwrap();
        assert_eq!(c.num_fanout_stems(), 1);
        assert!(c.net(x).is_fanout_stem());
        assert!(!c.net(a).is_fanout_stem());
    }

    #[test]
    fn error_display() {
        let e = BuildCircuitError::Cycle("n".into());
        assert!(e.to_string().contains("cycle"));
        let e = BuildCircuitError::NoOutputs;
        assert!(e.to_string().contains("output"));
    }
}
