//! Gate-level circuit representation: a DAG of gates connected by delayless
//! nets (§2 of the paper), plus a builder with validation.

use crate::topology::Topology;
use crate::{DelayInterval, GateKind};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// A net: a named wire with at most one driving gate and any number of
/// reader gates.
#[derive(Clone, Debug)]
pub struct Net {
    name: String,
    driver: Option<GateId>,
    readers: Vec<GateId>,
}

impl Net {
    /// Assembles a net from parts (cone extraction / editing internals).
    pub(crate) fn from_parts(name: String, driver: Option<GateId>, readers: Vec<GateId>) -> Net {
        Net {
            name,
            driver,
            readers,
        }
    }

    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate driving this net, or `None` for a primary input.
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// The gates reading this net (its fanout).
    pub fn readers(&self) -> &[GateId] {
        &self.readers
    }

    /// Whether the net fans out to more than one reader — a *fanout stem*.
    pub fn is_fanout_stem(&self) -> bool {
        self.readers.len() > 1
    }
}

/// A gate instance: kind, ordered input nets, single output net, delay.
#[derive(Clone, Debug)]
pub struct Gate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
    delay: DelayInterval,
}

impl Gate {
    /// Assembles a gate from parts (cone extraction internals).
    pub(crate) fn from_parts(
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
        delay: DelayInterval,
    ) -> Gate {
        Gate {
            kind,
            inputs,
            output,
            delay,
        }
    }

    /// The gate's kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gate's input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The gate's output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// The gate's delay interval.
    pub fn delay(&self) -> DelayInterval {
        self.delay
    }

    /// The maximum delay `d_max` — the bound used by the floating-mode
    /// delay calculation.
    pub fn dmax(&self) -> u32 {
        self.delay.max()
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
/// [generators](crate::generators).
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
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    topo_gates: Vec<GateId>,
    by_name: HashMap<String, NetId>,
    /// Lazily built flat connectivity tables (see [`Topology`]). Cloning a
    /// circuit shares the cache; anything that edits the circuit after
    /// build ([`Circuit::with_delays`]) must reset it.
    topology: OnceLock<Arc<Topology>>,
}

impl Circuit {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// All net ids, in dense order.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// All gate ids, in dense order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::from_index)
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Whether the net is a primary input.
    pub fn is_input(&self, id: NetId) -> bool {
        self.nets[id.index()].driver.is_none()
    }

    /// Whether the net is a declared primary output.
    pub fn is_output(&self, id: NetId) -> bool {
        self.outputs.contains(&id)
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// The gates in a topological order (drivers before readers).
    pub fn topo_gates(&self) -> &[GateId] {
        &self.topo_gates
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
        self.outputs.iter().map(|&o| values[o.index()]).collect()
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
            self.inputs.len(),
            "input vector length mismatch"
        );
        let mut values = vec![false; self.nets.len()];
        for (&net, &v) in self.inputs.iter().zip(vector) {
            values[net.index()] = v;
        }
        let mut buf = Vec::new();
        for &gid in &self.topo_gates {
            let gate = &self.gates[gid.index()];
            buf.clear();
            buf.extend(gate.inputs.iter().map(|&n| values[n.index()]));
            values[gate.output.index()] = gate.kind.eval(&buf);
        }
        values
    }

    /// Total number of fanout stems (nets with more than one reader).
    pub fn num_fanout_stems(&self) -> usize {
        self.nets.iter().filter(|n| n.is_fanout_stem()).count()
    }

    /// Returns a copy of the circuit with every gate's delay replaced by
    /// `delays(gate_id, gate)` — the hook used by SDF back-annotation.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_netlist::{CircuitBuilder, DelayInterval, GateKind};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = CircuitBuilder::new("c");
    /// let a = b.input("a");
    /// let y = b.gate("y", GateKind::Not, &[a], DelayInterval::fixed(10));
    /// b.mark_output(y);
    /// let c = b.build()?;
    /// let slow = c.with_delays(|_, _| DelayInterval::fixed(25));
    /// assert_eq!(slow.topological_delay(), 25);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_delays(&self, mut delays: impl FnMut(GateId, &Gate) -> DelayInterval) -> Circuit {
        let mut out = self.clone();
        // The clone shares this circuit's cached topology, whose delay
        // table is about to go stale: drop it so the copy rebuilds.
        out.topology = OnceLock::new();
        for (i, gate) in out.gates.iter_mut().enumerate() {
            gate.delay = delays(GateId::from_index(i), gate);
        }
        // Delay edits never change connectivity: if this circuit already
        // built its topology, re-seed the copy's cache with the shared
        // structural Adjacency plane and a fresh delay plane instead of
        // leaving it to rebuild both from scratch.
        if let Some(topo) = self.topology.get() {
            let rebuilt = Topology::with_adjacency(&out, topo.adjacency().clone());
            let _ = out.topology.set(rebuilt);
        }
        out
    }

    /// The circuit's flattened connectivity tables, built lazily at most
    /// once and shared by every caller (the narrower's hot loop runs on
    /// these instead of per-gate heap objects).
    pub fn topology(&self) -> Arc<Topology> {
        self.topology.get_or_init(|| Topology::build(self)).clone()
    }
}

/// Incremental builder for [`Circuit`] with support for forward references
/// (needed by netlist parsers).
#[derive(Clone, Debug, Default)]
pub struct CircuitBuilder {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
    errors: Vec<BuildCircuitError>,
}

impl CircuitBuilder {
    /// Creates an empty builder for a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares (or retrieves) a net by name, without driving it. Useful
    /// for forward references while parsing.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = NetId::from_index(self.nets.len());
        self.by_name.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            driver: None,
            readers: Vec::new(),
        });
        id
    }

    /// Declares a primary input net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.net(name);
        if !self.inputs.contains(&id) {
            self.inputs.push(id);
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
        if !kind.arity_ok(inputs.len()) {
            self.errors.push(BuildCircuitError::BadArity {
                kind,
                arity: inputs.len(),
                output: self.nets[output.index()].name.clone(),
            });
            return;
        }
        if self.nets[output.index()].driver.is_some() {
            self.errors.push(BuildCircuitError::MultipleDrivers(
                self.nets[output.index()].name.clone(),
            ));
            return;
        }
        let gid = GateId::from_index(self.gates.len());
        self.nets[output.index()].driver = Some(gid);
        for &i in inputs {
            self.nets[i.index()].readers.push(gid);
        }
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            delay,
        });
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
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
            name,
            nets,
            gates,
            inputs,
            outputs,
            by_name,
            errors,
        } = self;
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        if outputs.is_empty() {
            return Err(BuildCircuitError::NoOutputs);
        }
        for &i in &inputs {
            if nets[i.index()].driver.is_some() {
                return Err(BuildCircuitError::DrivenInput(nets[i.index()].name.clone()));
            }
        }
        for (idx, net) in nets.iter().enumerate() {
            let id = NetId::from_index(idx);
            if net.driver.is_none() && !inputs.contains(&id) {
                return Err(BuildCircuitError::UndrivenNet(net.name.clone()));
            }
        }
        // Kahn topological sort over gates.
        let mut indegree: Vec<usize> = gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|n| nets[n.index()].driver.is_some())
                    .count()
            })
            .collect();
        let mut ready: Vec<GateId> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| GateId::from_index(i))
            .collect();
        let mut topo_gates = Vec::with_capacity(gates.len());
        while let Some(gid) = ready.pop() {
            topo_gates.push(gid);
            let out = gates[gid.index()].output;
            for &reader in &nets[out.index()].readers {
                indegree[reader.index()] -= 1;
                if indegree[reader.index()] == 0 {
                    ready.push(reader);
                }
            }
        }
        if topo_gates.len() != gates.len() {
            // Some gate is on a cycle; name one of its nets.
            let stuck = indegree.iter().position(|&d| d > 0).expect("cycle exists");
            let net = gates[stuck].output;
            return Err(BuildCircuitError::Cycle(nets[net.index()].name.clone()));
        }
        Ok(Circuit {
            name,
            nets,
            gates,
            inputs,
            outputs,
            topo_gates,
            by_name,
            topology: OnceLock::new(),
        })
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
    /// batches keep every structural analysis — adjacency, cones, learned
    /// implications, SCOAP — alive.
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
    /// A rewire made a primary input drive itself through its own cone…
    /// i.e. tried to read a net that the gate's own output feeds — caught
    /// by the cycle check; this variant flags reading the gate's own
    /// output directly.
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
    /// Assembles a circuit from pre-validated parts (cone extraction).
    /// The caller guarantees consistency: drivers/readers mirror the gate
    /// list, `topo_gates` is a topological order, names are unique.
    pub(crate) fn from_parts(
        name: String,
        nets: Vec<Net>,
        gates: Vec<Gate>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
        topo_gates: Vec<GateId>,
        by_name: HashMap<String, NetId>,
    ) -> Circuit {
        Circuit {
            name,
            nets,
            gates,
            inputs,
            outputs,
            topo_gates,
            by_name,
            topology: OnceLock::new(),
        }
    }

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
    /// Delay-only batches share the cached CSR adjacency with the original
    /// circuit (only the delay plane is rebuilt); rewires re-run the
    /// topological sort and are rejected if they create a cycle.
    ///
    /// # Errors
    ///
    /// [`EditError`] on out-of-range ids, arity violations, or a rewire
    /// that creates a combinational cycle. On error the original circuit
    /// is unchanged and no partial edit escapes.
    pub fn apply_edit(&self, edits: &[CircuitEdit]) -> Result<EditOutcome, EditError> {
        let mut out = self.clone();
        out.topology = OnceLock::new();
        let mut dirty: Vec<NetId> = Vec::new();
        let mut structural = false;
        for edit in edits {
            match edit {
                CircuitEdit::SetDelay { gate, delay } => {
                    let g = out
                        .gates
                        .get_mut(gate.index())
                        .ok_or(EditError::NoSuchGate(*gate))?;
                    if g.delay != *delay {
                        g.delay = *delay;
                        dirty.push(g.output);
                    }
                }
                CircuitEdit::Rewire { gate, inputs } => {
                    let arity_kind = out
                        .gates
                        .get(gate.index())
                        .ok_or(EditError::NoSuchGate(*gate))?
                        .kind;
                    if !arity_kind.arity_ok(inputs.len()) {
                        return Err(EditError::BadArity {
                            kind: arity_kind,
                            arity: inputs.len(),
                        });
                    }
                    for &n in inputs {
                        if n.index() >= out.nets.len() {
                            return Err(EditError::NoSuchNet(n));
                        }
                    }
                    let output = out.gates[gate.index()].output;
                    if inputs.contains(&output) {
                        return Err(EditError::SelfLoop(*gate));
                    }
                    let old_inputs = out.gates[gate.index()].inputs.clone();
                    if old_inputs == *inputs {
                        continue;
                    }
                    structural = true;
                    // Detach from old input nets' reader lists, attach to
                    // the new ones (appended, like the builder does).
                    for &n in &old_inputs {
                        let readers = &mut out.nets[n.index()].readers;
                        if let Some(pos) = readers.iter().position(|r| r == gate) {
                            readers.remove(pos);
                        }
                    }
                    for &n in inputs {
                        out.nets[n.index()].readers.push(*gate);
                    }
                    out.gates[gate.index()].inputs = inputs.clone();
                    dirty.push(output);
                    for &n in &old_inputs {
                        if !inputs.contains(&n) {
                            dirty.push(n);
                        }
                    }
                    for &n in inputs {
                        if !old_inputs.contains(&n) {
                            dirty.push(n);
                        }
                    }
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        if structural {
            // Re-run the Kahn sort: a rewire may reorder dependencies or
            // create a cycle.
            let mut indegree: Vec<usize> = out
                .gates
                .iter()
                .map(|g| {
                    g.inputs
                        .iter()
                        .filter(|n| out.nets[n.index()].driver.is_some())
                        .count()
                })
                .collect();
            let mut ready: Vec<GateId> = indegree
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d == 0)
                .map(|(i, _)| GateId::from_index(i))
                .collect();
            let mut topo_gates = Vec::with_capacity(out.gates.len());
            while let Some(gid) = ready.pop() {
                topo_gates.push(gid);
                let o = out.gates[gid.index()].output;
                for &reader in &out.nets[o.index()].readers {
                    indegree[reader.index()] -= 1;
                    if indegree[reader.index()] == 0 {
                        ready.push(reader);
                    }
                }
            }
            if topo_gates.len() != out.gates.len() {
                let stuck = indegree.iter().position(|&d| d > 0).expect("cycle exists");
                let net = out.gates[stuck].output;
                return Err(EditError::Cycle(out.nets[net.index()].name.clone()));
            }
            out.topo_gates = topo_gates;
        } else if let Some(topo) = self.topology.get() {
            // Delay-only batch: keep the shared CSR adjacency, rebuild the
            // delay plane only (same contract as `with_delays`).
            let rebuilt = Topology::with_adjacency(&out, topo.adjacency().clone());
            let _ = out.topology.set(rebuilt);
        }
        Ok(EditOutcome {
            circuit: out,
            dirty,
            structural,
        })
    }

    /// Extracts the fan-in cone of one output as a standalone circuit:
    /// only the gates and nets that can influence `output` survive, and
    /// `output` becomes the sole primary output. Net names are preserved.
    ///
    /// Useful for shrinking a verification problem to the logic a single
    /// check actually depends on.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a net of this circuit.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltt_netlist::generators::carry_skip_adder;
    ///
    /// let adder = carry_skip_adder(8, 4, 10);
    /// let s0 = adder.net_by_name("s0").unwrap();
    /// let cone = adder.extract_cone(s0);
    /// assert!(cone.num_gates() < adder.num_gates());
    /// assert_eq!(cone.outputs().len(), 1);
    /// // The cone computes the same function of its (fewer) inputs.
    /// ```
    pub fn extract_cone(&self, output: NetId) -> Circuit {
        let cone = self.fanin_cone(output);
        let mut b = CircuitBuilder::new(format!("{}_cone_{}", self.name, self.net(output).name()));
        // Create inputs first (cone inputs keep their declaration order).
        for &i in &self.inputs {
            if cone[i.index()] {
                b.input(self.net(i).name().to_string());
            }
        }
        for &gid in &self.topo_gates {
            let gate = &self.gates[gid.index()];
            if !cone[gate.output.index()] {
                continue;
            }
            let inputs: Vec<NetId> = gate
                .inputs
                .iter()
                .map(|&n| b.net(self.net(n).name().to_string()))
                .collect();
            let out = b.net(self.net(gate.output).name().to_string());
            b.drive(out, gate.kind, &inputs, gate.delay);
        }
        let out = b.net(self.net(output).name().to_string());
        b.mark_output(out);
        b.build().expect("a cone of a valid circuit is valid")
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
