//! The request/response grammar of the serving protocol.
//!
//! One request object per line, one response object per line. Every
//! request has an `"op"` field naming the operation and may carry an
//! `"id"` (any JSON value) that the server echoes back verbatim in the
//! response — the client-side correlation handle for pipelined requests.
//!
//! Operations:
//!
//! ```text
//! {"op":"register","name":N,"format":"bench"|"verilog","source":S,"delay":D?}
//! {"op":"check","circuit":C,"output":O,"delta":δ,"opts":{..}?}
//! {"op":"batch_check","circuit":C,"delta":δ,"opts":{..}?}            # every output
//! {"op":"batch_check","circuit":C,"checks":[{"output":O,"delta":δ},..],"opts":{..}?}
//! {"op":"delay","circuit":C,"output":O?,"opts":{..}?}                # omit O: every output
//! {"op":"patch","circuit":C,"name":N?,"edits":[E,..],"checks":[..]?,"opts":{..}?}
//! {"op":"patch","circuit":C,"name":N?,"edits":[E,..],"delta":δ,"opts":{..}?}
//! {"op":"status"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `circuit` names a registry entry either by the content hash `register`
//! returned or by the `name` it was registered under. The optional
//! `opts` object carries per-request execution controls ([`RunOpts`]).
//!
//! Every response is `{"ok":true,...}` or
//! `{"ok":false,"error":{"code":K,"message":M}}` with `K` one of the
//! [`ErrorCode`] strings. Success payloads embed check reports in the
//! shape produced by [`report_json`] — and because every request runs
//! through the same deterministic batch engine as the CLI, those reports
//! are bit-identical to an in-process serial run.

use crate::wire::Json;
use ltt_core::{
    BatchCheck, BatchOutcome, Completeness, DelaySearch, Engine, Verdict, VerifyReport,
};

/// Machine-readable failure classes of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON or not a valid request shape.
    BadRequest,
    /// `circuit` names no registry entry (never registered, or evicted).
    UnknownCircuit,
    /// `output` names no primary output of the circuit.
    UnknownOutput,
    /// `register` received a netlist that failed to parse.
    InvalidNetlist,
    /// Admission control refused the request: the work queue is full.
    /// Retry later — nothing was enqueued.
    Overloaded,
    /// The server is draining after a `shutdown` request; no new work is
    /// admitted.
    ShuttingDown,
    /// The request line exceeded the server's line-length cap. The rest of
    /// the oversize line is discarded; the connection stays usable.
    TooLarge,
    /// A client-side or router-side timeout expired before the peer
    /// answered.
    Timeout,
    /// The router exhausted every candidate backend (connect refused,
    /// timeouts, open breakers) without obtaining a reply. Nothing may
    /// have executed, or an executed reply was lost — the request is safe
    /// to retry.
    Unavailable,
    /// The server failed internally (a panicking worker, a lost reply).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownCircuit => "unknown_circuit",
            ErrorCode::UnknownOutput => "unknown_output",
            ErrorCode::InvalidNetlist => "invalid_netlist",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured protocol failure (the payload of an `"ok":false` reply).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// A new error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }

    fn bad(message: impl Into<String>) -> Self {
        ProtoError::new(ErrorCode::BadRequest, message)
    }
}

/// Per-request execution controls, all optional on the wire.
///
/// `jobs` defaults to 1: a server interleaves many requests, so the
/// parallelism budget belongs to the worker pool, not to any single
/// request — and `jobs: 1` is the configuration whose reports the
/// determinism contract is stated against (higher values produce the
/// same reports anyway; see [`BatchRunner`](ltt_core::BatchRunner)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOpts {
    /// Worker threads for this one request's batch (default 1).
    pub jobs: usize,
    /// Whole-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Extra case-analysis backtrack cap (min-combined with the session
    /// config's own).
    pub max_backtracks: Option<u64>,
    /// Cancel the rest of the batch once one violation is found.
    pub fail_fast: bool,
    /// Verification backend: `"narrow"` (default), `"sat"`, or
    /// `"hybrid"` (narrowing with SAT fallback on budget exhaustion).
    pub engine: Engine,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            jobs: 1,
            deadline_ms: None,
            max_backtracks: None,
            fail_fast: false,
            engine: Engine::Narrow,
        }
    }
}

impl RunOpts {
    fn parse(json: Option<&Json>) -> Result<RunOpts, ProtoError> {
        let mut opts = RunOpts::default();
        let Some(json) = json else {
            return Ok(opts);
        };
        if !matches!(json, Json::Obj(_)) {
            return Err(ProtoError::bad("`opts` must be an object"));
        }
        if let Some(j) = json.get("jobs") {
            opts.jobs = j
                .as_u64()
                .ok_or_else(|| ProtoError::bad("`opts.jobs` must be a non-negative integer"))?
                .min(256) as usize;
        }
        if let Some(d) = json.get("deadline_ms") {
            opts.deadline_ms = Some(
                d.as_u64()
                    .ok_or_else(|| ProtoError::bad("`opts.deadline_ms` must be non-negative"))?,
            );
        }
        if let Some(b) = json.get("max_backtracks") {
            opts.max_backtracks =
                Some(b.as_u64().ok_or_else(|| {
                    ProtoError::bad("`opts.max_backtracks` must be non-negative")
                })?);
        }
        if let Some(f) = json.get("fail_fast") {
            opts.fail_fast = f
                .as_bool()
                .ok_or_else(|| ProtoError::bad("`opts.fail_fast` must be a boolean"))?;
        }
        if let Some(e) = json.get("engine") {
            let name = e
                .as_str()
                .ok_or_else(|| ProtoError::bad("`opts.engine` must be a string"))?;
            opts.engine = Engine::parse(name).ok_or_else(|| {
                ProtoError::bad("`opts.engine` must be `narrow`, `sat`, or `hybrid`")
            })?;
        }
        Ok(opts)
    }
}

/// One ECO edit inside a `patch` request. Gates are addressed by the name
/// of the net they drive (the `G = NAND(..)` left-hand side); resolution
/// happens at execution time, like output names in [`CheckSet`].
///
/// Wire shapes: `{"gate":G,"delay":D}` or `{"gate":G,"delay":[LO,HI]}`
/// (delay re-annotation) and `{"gate":G,"inputs":[A,B,..]}` (rewire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditSpec {
    /// Re-annotate a gate's delay interval (`min == max` for fixed).
    SetDelay {
        /// Output-net name of the gate to edit.
        gate: String,
        /// New minimum delay.
        min: u32,
        /// New maximum delay (`>= min`, enforced at parse time).
        max: u32,
    },
    /// Reconnect a gate's input list (same arity not required, but the
    /// executor rejects empty lists and unknown nets).
    Rewire {
        /// Output-net name of the gate to edit.
        gate: String,
        /// New input-net names, in order.
        inputs: Vec<String>,
    },
}

impl EditSpec {
    /// Whether this edit changes connectivity (a rewire) rather than just
    /// timing annotations.
    pub fn is_structural(&self) -> bool {
        matches!(self, EditSpec::Rewire { .. })
    }

    /// The canonical wire object for this edit — used by the router to
    /// replay patch chains verbatim onto a failed-over backend.
    pub fn to_json(&self) -> Json {
        match self {
            EditSpec::SetDelay { gate, min, max } => Json::obj([
                ("gate", Json::str(gate.clone())),
                (
                    "delay",
                    if min == max {
                        Json::Int(i64::from(*min))
                    } else {
                        Json::Arr(vec![Json::Int(i64::from(*min)), Json::Int(i64::from(*max))])
                    },
                ),
            ]),
            EditSpec::Rewire { gate, inputs } => Json::obj([
                ("gate", Json::str(gate.clone())),
                (
                    "inputs",
                    Json::Arr(inputs.iter().map(|i| Json::str(i.clone())).collect()),
                ),
            ]),
        }
    }

    fn parse(item: &Json) -> Result<EditSpec, ProtoError> {
        let gate = required_str(item, "gate")?;
        match (item.get("delay"), item.get("inputs")) {
            (Some(d), None) => {
                let small = |j: &Json| j.as_u64().and_then(|v| u32::try_from(v).ok());
                let (min, max) = match d {
                    Json::Arr(pair) if pair.len() == 2 => {
                        let lo = small(&pair[0]);
                        let hi = small(&pair[1]);
                        match (lo, hi) {
                            (Some(lo), Some(hi)) if lo <= hi => (lo, hi),
                            _ => {
                                return Err(ProtoError::bad(
                                    "`delay` interval must be [lo, hi] with 0 <= lo <= hi",
                                ))
                            }
                        }
                    }
                    other => {
                        let d = small(other).ok_or_else(|| {
                            ProtoError::bad("`delay` must be an integer or [lo, hi]")
                        })?;
                        (d, d)
                    }
                };
                Ok(EditSpec::SetDelay { gate, min, max })
            }
            (None, Some(list)) => {
                let items = list
                    .as_array()
                    .ok_or_else(|| ProtoError::bad("`inputs` must be an array of net names"))?;
                let mut inputs = Vec::with_capacity(items.len());
                for i in items {
                    inputs.push(
                        i.as_str()
                            .ok_or_else(|| {
                                ProtoError::bad("`inputs` must be an array of net names")
                            })?
                            .to_string(),
                    );
                }
                if inputs.is_empty() {
                    return Err(ProtoError::bad("`inputs` must not be empty"));
                }
                Ok(EditSpec::Rewire { gate, inputs })
            }
            _ => Err(ProtoError::bad(
                "each edit needs exactly one of `delay` or `inputs`",
            )),
        }
    }
}

/// The work a request names: one `(output, δ)` pair or every output at one
/// δ. Outputs are named; resolution against the circuit happens at
/// execution time (the registry entry is not in scope while parsing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckSet {
    /// Explicit `(output name, δ)` pairs, in request order.
    Explicit(Vec<(String, i64)>),
    /// Every primary output at one δ (the Table 1 semantics).
    AllOutputs(i64),
}

/// A parsed request body.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Upload a netlist into the circuit registry.
    Register {
        /// Name to register under (also a lookup alias).
        name: String,
        /// `"bench"` or `"verilog"`.
        format: String,
        /// The netlist text.
        source: String,
        /// Per-gate delay when the format carries none (default 10).
        delay: u32,
    },
    /// One timing check `(output, δ)`.
    Check {
        /// Registry key (content hash or registered name).
        circuit: String,
        /// Primary-output name.
        output: String,
        /// The delay bound δ.
        delta: i64,
        /// Execution controls.
        opts: RunOpts,
    },
    /// A batch of checks against one circuit.
    BatchCheck {
        /// Registry key.
        circuit: String,
        /// The checks to run.
        checks: CheckSet,
        /// Execution controls.
        opts: RunOpts,
    },
    /// Exact-delay search on one output (or all, when `output` is `None`).
    Delay {
        /// Registry key.
        circuit: String,
        /// Primary-output name; `None` means every output.
        output: Option<String>,
        /// Execution controls.
        opts: RunOpts,
    },
    /// Apply ECO edits to a registered circuit, producing (and
    /// registering) a patched revision whose session is rebased from the
    /// parent's — per-output analyses and cached reports for outputs whose
    /// fanin cone the edit cannot reach are transplanted instead of
    /// recomputed. Optionally runs checks against the patched revision in
    /// the same request.
    Patch {
        /// Registry key of the circuit to edit (content hash or name).
        circuit: String,
        /// Optional alias to register the patched revision under.
        name: Option<String>,
        /// The edits, applied atomically in order.
        edits: Vec<EditSpec>,
        /// Checks to run against the patched revision (optional).
        checks: Option<CheckSet>,
        /// Execution controls.
        opts: RunOpts,
    },
    /// Server counters snapshot.
    Status,
    /// The same counters in Prometheus text exposition format (plus the
    /// request-latency histogram), wrapped in a JSON envelope.
    Metrics,
    /// Begin graceful drain: finish queued and in-flight work, refuse new
    /// work, then exit.
    Shutdown,
}

/// One parsed request: the body plus the client's correlation `id` (echoed
/// verbatim in the response).
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The client's correlation handle, if any.
    pub id: Option<Json>,
    /// The operation.
    pub body: RequestBody,
}

/// The `checks`/`delta` pair shared by `batch_check` and `patch`: an
/// explicit non-empty list of `{output, delta}` pairs, or one δ for every
/// output, or `None` when both are absent. Both present is the error
/// `both`.
fn parse_check_set(json: &Json, both: &str) -> Result<Option<CheckSet>, ProtoError> {
    match (json.get("checks"), json.get("delta")) {
        (None, None) => Ok(None),
        (Some(list), None) => {
            let items = list
                .as_array()
                .ok_or_else(|| ProtoError::bad("`checks` must be an array"))?;
            let mut pairs = Vec::with_capacity(items.len());
            for item in items {
                pairs.push((required_str(item, "output")?, required_i64(item, "delta")?));
            }
            if pairs.is_empty() {
                return Err(ProtoError::bad("`checks` must not be empty"));
            }
            Ok(Some(CheckSet::Explicit(pairs)))
        }
        (None, Some(_)) => Ok(Some(CheckSet::AllOutputs(required_i64(json, "delta")?))),
        (Some(_), Some(_)) => Err(ProtoError::bad(both)),
    }
}

impl Request {
    /// Parses one request line (already decoded to [`Json`]).
    pub fn parse(json: &Json) -> Result<Request, ProtoError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(ProtoError::bad("request must be a JSON object"));
        }
        let id = json.get("id").cloned();
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::bad("missing string field `op`"))?;
        let body = match op {
            "register" => RequestBody::Register {
                name: required_str(json, "name")?,
                format: match json.get("format").map(|f| f.as_str()) {
                    None => "bench".to_string(),
                    Some(Some(f @ ("bench" | "verilog"))) => f.to_string(),
                    Some(_) => {
                        return Err(ProtoError::bad("`format` must be \"bench\" or \"verilog\""))
                    }
                },
                source: required_str(json, "source")?,
                delay: match json.get("delay") {
                    None => 10,
                    Some(d) => d
                        .as_u64()
                        .and_then(|d| u32::try_from(d).ok())
                        .ok_or_else(|| ProtoError::bad("`delay` must be a small integer"))?,
                },
            },
            "check" => RequestBody::Check {
                circuit: required_str(json, "circuit")?,
                output: required_str(json, "output")?,
                delta: required_i64(json, "delta")?,
                opts: RunOpts::parse(json.get("opts"))?,
            },
            "batch_check" => {
                let exactly_one = "`batch_check` needs exactly one of `checks` or `delta`";
                let checks = parse_check_set(json, exactly_one)?
                    .ok_or_else(|| ProtoError::bad(exactly_one))?;
                RequestBody::BatchCheck {
                    circuit: required_str(json, "circuit")?,
                    checks,
                    opts: RunOpts::parse(json.get("opts"))?,
                }
            }
            "delay" => RequestBody::Delay {
                circuit: required_str(json, "circuit")?,
                output: match json.get("output") {
                    None => None,
                    Some(o) => Some(
                        o.as_str()
                            .ok_or_else(|| ProtoError::bad("`output` must be a string"))?
                            .to_string(),
                    ),
                },
                opts: RunOpts::parse(json.get("opts"))?,
            },
            "patch" => {
                let list = json
                    .get("edits")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ProtoError::bad("`patch` needs an `edits` array"))?;
                let mut edits = Vec::with_capacity(list.len());
                for item in list {
                    edits.push(EditSpec::parse(item)?);
                }
                if edits.is_empty() {
                    return Err(ProtoError::bad("`edits` must not be empty"));
                }
                let checks =
                    parse_check_set(json, "`patch` takes at most one of `checks` or `delta`")?;
                RequestBody::Patch {
                    circuit: required_str(json, "circuit")?,
                    name: match json.get("name") {
                        None => None,
                        Some(n) => Some(
                            n.as_str()
                                .ok_or_else(|| ProtoError::bad("`name` must be a string"))?
                                .to_string(),
                        ),
                    },
                    edits,
                    checks,
                    opts: RunOpts::parse(json.get("opts"))?,
                }
            }
            "status" => RequestBody::Status,
            "metrics" => RequestBody::Metrics,
            "shutdown" => RequestBody::Shutdown,
            other => return Err(ProtoError::bad(format!("unknown op `{other}`"))),
        };
        Ok(Request { id, body })
    }
}

fn required_str(json: &Json, field: &str) -> Result<String, ProtoError> {
    json.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::bad(format!("missing string field `{field}`")))
}

fn required_i64(json: &Json, field: &str) -> Result<i64, ProtoError> {
    json.get(field)
        .and_then(Json::as_i64)
        .ok_or_else(|| ProtoError::bad(format!("missing integer field `{field}`")))
}

/// Wraps a success payload: sets `"ok":true`, prepends `"op"`, echoes `id`.
pub fn ok_response(op: &str, id: Option<&Json>, mut fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::str(op)),
    ];
    if let Some(id) = id {
        obj.push(("id".to_string(), id.clone()));
    }
    obj.append(&mut fields);
    Json::Obj(obj)
}

/// An `"ok":false` reply carrying the structured error, echoing `id`.
pub fn error_response(id: Option<&Json>, error: &ProtoError) -> Json {
    let mut obj = vec![("ok".to_string(), Json::Bool(false))];
    if let Some(id) = id {
        obj.push(("id".to_string(), id.clone()));
    }
    obj.push((
        "error".to_string(),
        Json::obj([
            ("code", Json::str(error.code.as_str())),
            ("message", Json::str(error.message.clone())),
        ]),
    ));
    Json::Obj(obj)
}

/// A primary-input vector as a bitstring in input-declaration order
/// (`"10110"`), matching the CLI's `--v1`/`--v2` spelling.
pub fn vector_bits(vector: &[bool]) -> String {
    vector.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Serializes one check report. The verdict spelling matches Table 1's
/// vocabulary: `"no_violation"` (N), `"violation"` (V), `"possible"` (P),
/// `"abandoned"` (A).
pub fn report_json(report: &VerifyReport, output_name: &str) -> Json {
    let mut fields = vec![
        ("output", Json::str(output_name)),
        ("delta", Json::Int(report.delta)),
    ];
    match &report.verdict {
        Verdict::NoViolation { stage } => {
            fields.push(("verdict", Json::str("no_violation")));
            fields.push(("stage", Json::str(stage.name())));
        }
        Verdict::Violation { vector } => {
            fields.push(("verdict", Json::str("violation")));
            fields.push(("vector", Json::str(vector_bits(vector))));
        }
        Verdict::Possible => fields.push(("verdict", Json::str("possible"))),
        Verdict::Abandoned => fields.push(("verdict", Json::str("abandoned"))),
    }
    match &report.completeness {
        Completeness::Exact => fields.push(("exact", Json::Bool(true))),
        Completeness::BudgetExhausted { stage, reason } => {
            fields.push(("exact", Json::Bool(false)));
            fields.push(("tripped_stage", Json::str(stage.name())));
            fields.push(("trip_reason", Json::str(reason.name())));
        }
    }
    fields.push(("backtracks", int_u64(report.backtracks())));
    fields.push(("elapsed_us", int_u64(micros_u64(report.elapsed))));
    let (t, us) = (&report.stage_times, |d| int_u64(micros_u64(d)));
    fields.push((
        "stage_us",
        Json::obj([
            ("narrowing", us(t.narrowing)),
            ("dominators", us(t.dominators)),
            ("stems", us(t.stems)),
            ("case_analysis", us(t.case_analysis)),
            ("sat", us(t.sat)),
        ]),
    ));
    Json::obj(fields)
}

/// Serializes one exact-delay search result.
pub fn delay_json(search: &DelaySearch, output_name: &str) -> Json {
    let mut fields = vec![
        ("output", Json::str(output_name)),
        ("delay", Json::Int(search.delay)),
        ("exact", Json::Bool(search.proven_exact)),
        ("upper_bound", Json::Int(search.upper_bound)),
    ];
    if let Some(vector) = &search.vector {
        fields.push(("vector", Json::str(vector_bits(vector))));
    }
    fields.push(("backtracks", int_u64(search.backtracks())));
    fields.push(("probes", Json::Int(search.probes.len() as i64)));
    Json::obj(fields)
}

/// Serializes a whole batch result: collapsed outcome, per-check reports
/// in request order, failed slots, and the summary counters.
///
/// `check_names` is the output name of every *requested* check, in request
/// order (`reports` covers the completed subset; the failed slots carry
/// their own index, so both sides stay attributable).
///
/// A `patch` reply passes `reused`, one flag per report: each report then
/// ends in a `"reused"` field, `true` for one served from the result cache
/// (bit-identical to a fresh run by the cone contract of DESIGN.md §14),
/// `false` for a freshly executed check.
pub fn batch_json(
    batch: &BatchCheck,
    check_names: &[String],
    reused: Option<&[bool]>,
) -> Vec<(String, Json)> {
    let outcome = match batch.outcome() {
        BatchOutcome::AllSafe => "all_safe",
        BatchOutcome::Violation => "violation",
        BatchOutcome::Undecided => "undecided",
    };
    let failed = |i: usize| batch.errors.iter().any(|e| e.index == i);
    let report_names = check_names
        .iter()
        .enumerate()
        .filter(|&(i, _)| !failed(i))
        .map(|(_, name)| name);
    let reports: Vec<Json> = batch
        .reports
        .iter()
        .zip(report_names)
        .enumerate()
        .map(|(i, (r, name))| {
            let mut json = report_json(r, name);
            if let (Some(reused), Json::Obj(fields)) = (reused, &mut json) {
                fields.push(("reused".to_string(), Json::Bool(reused[i])));
            }
            json
        })
        .collect();
    let errors: Vec<Json> = batch
        .errors
        .iter()
        .map(|e| {
            Json::obj([
                ("index", Json::Int(e.index as i64)),
                (
                    "output",
                    check_names
                        .get(e.index)
                        .map_or(Json::Null, |n| Json::str(n.clone())),
                ),
                ("delta", Json::Int(e.delta)),
                ("error", Json::str(e.error.to_string())),
            ])
        })
        .collect();
    let s = &batch.summary;
    vec![
        ("outcome".to_string(), Json::str(outcome)),
        ("complete".to_string(), Json::Bool(batch.is_complete())),
        ("reports".to_string(), Json::Arr(reports)),
        ("errors".to_string(), Json::Arr(errors)),
        (
            "summary".to_string(),
            Json::obj([
                ("checks", int_u64(s.checks)),
                ("no_violation", int_u64(s.no_violation)),
                ("violations", int_u64(s.violations)),
                ("undecided", int_u64(s.undecided)),
                ("failed", int_u64(s.failed)),
                ("skipped", int_u64(s.skipped)),
                ("backtracks", int_u64(batch.backtracks())),
            ]),
        ),
        ("wall_us".to_string(), int_u64(micros_u64(batch.wall))),
    ]
}

/// A `u64` counter on the wire, exactly: values past `i64::MAX` become
/// [`Json::Uint`] rather than saturating — a content hash or a cumulative
/// `elapsed_us` above 2^63 must round-trip bit-for-bit, not pin to a
/// ceiling (and certainly not degrade through `f64`, which only holds
/// 53 bits).
fn int_u64(value: u64) -> Json {
    Json::uint(value)
}

/// A [`Duration`](std::time::Duration) in whole microseconds, saturating
/// at `u64::MAX` — `as_micros()` yields a `u128`, and a plain `as u64`
/// cast would wrap absurd-but-representable durations into small positive
/// numbers on the wire.
fn micros_u64(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode;

    fn parse(line: &str) -> Result<Request, ProtoError> {
        Request::parse(&decode(line).expect(line))
    }

    #[test]
    fn register_parses_with_defaults() {
        let r = parse(r#"{"op":"register","name":"c17","source":"INPUT(a)"}"#).unwrap();
        assert!(r.id.is_none());
        match r.body {
            RequestBody::Register {
                name,
                format,
                source,
                delay,
            } => {
                assert_eq!(name, "c17");
                assert_eq!(format, "bench");
                assert_eq!(source, "INPUT(a)");
                assert_eq!(delay, 10);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn check_parses_with_opts_and_id() {
        let r = parse(
            r#"{"op":"check","id":7,"circuit":"c17","output":"n22","delta":30,
                "opts":{"jobs":2,"deadline_ms":500,"max_backtracks":10,"fail_fast":true}}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(Json::Int(7)));
        match r.body {
            RequestBody::Check {
                circuit,
                output,
                delta,
                opts,
            } => {
                assert_eq!(
                    (circuit.as_str(), output.as_str(), delta),
                    ("c17", "n22", 30)
                );
                assert_eq!(opts.jobs, 2);
                assert_eq!(opts.deadline_ms, Some(500));
                assert_eq!(opts.max_backtracks, Some(10));
                assert!(opts.fail_fast);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_check_parses_both_shapes() {
        let all = parse(r#"{"op":"batch_check","circuit":"c","delta":30}"#).unwrap();
        assert!(matches!(
            all.body,
            RequestBody::BatchCheck {
                checks: CheckSet::AllOutputs(30),
                ..
            }
        ));
        let explicit = parse(
            r#"{"op":"batch_check","circuit":"c","checks":[{"output":"a","delta":1},{"output":"b","delta":2}]}"#,
        )
        .unwrap();
        match explicit.body {
            RequestBody::BatchCheck {
                checks: CheckSet::Explicit(pairs),
                ..
            } => assert_eq!(pairs, vec![("a".into(), 1), ("b".into(), 2)]),
            other => panic!("{other:?}"),
        }
        // Both or neither of checks/delta is an error.
        assert!(parse(r#"{"op":"batch_check","circuit":"c"}"#).is_err());
        assert!(parse(r#"{"op":"batch_check","circuit":"c","delta":1,"checks":[]}"#).is_err());
        assert!(parse(r#"{"op":"batch_check","circuit":"c","checks":[]}"#).is_err());
    }

    #[test]
    fn delay_output_is_optional() {
        let one = parse(r#"{"op":"delay","circuit":"c","output":"s"}"#).unwrap();
        assert!(matches!(
            one.body,
            RequestBody::Delay {
                output: Some(_),
                ..
            }
        ));
        let all = parse(r#"{"op":"delay","circuit":"c"}"#).unwrap();
        assert!(matches!(all.body, RequestBody::Delay { output: None, .. }));
    }

    #[test]
    fn patch_parses_edit_shapes() {
        let r = parse(
            r#"{"op":"patch","circuit":"c17","name":"c17v2",
                "edits":[{"gate":"n22","delay":35},
                         {"gate":"n23","delay":[3,7]},
                         {"gate":"n16","inputs":["n2","n11"]}],
                "delta":30}"#,
        )
        .unwrap();
        match r.body {
            RequestBody::Patch {
                circuit,
                name,
                edits,
                checks,
                ..
            } => {
                assert_eq!(circuit, "c17");
                assert_eq!(name.as_deref(), Some("c17v2"));
                assert_eq!(
                    edits,
                    vec![
                        EditSpec::SetDelay {
                            gate: "n22".into(),
                            min: 35,
                            max: 35
                        },
                        EditSpec::SetDelay {
                            gate: "n23".into(),
                            min: 3,
                            max: 7
                        },
                        EditSpec::Rewire {
                            gate: "n16".into(),
                            inputs: vec!["n2".into(), "n11".into()]
                        },
                    ]
                );
                assert!(!edits[0].is_structural());
                assert!(edits[2].is_structural());
                assert_eq!(checks, Some(CheckSet::AllOutputs(30)));
            }
            other => panic!("{other:?}"),
        }
        // Checks are optional; explicit list also accepted.
        let bare =
            parse(r#"{"op":"patch","circuit":"c","edits":[{"gate":"g","delay":1}]}"#).unwrap();
        assert!(matches!(
            bare.body,
            RequestBody::Patch {
                checks: None,
                name: None,
                ..
            }
        ));
        let explicit = parse(
            r#"{"op":"patch","circuit":"c","edits":[{"gate":"g","delay":1}],
                "checks":[{"output":"y","delta":9}]}"#,
        )
        .unwrap();
        assert!(matches!(
            explicit.body,
            RequestBody::Patch {
                checks: Some(CheckSet::Explicit(_)),
                ..
            }
        ));
    }

    #[test]
    fn patch_rejects_malformed_edits() {
        for line in [
            // No edits at all / empty edits.
            r#"{"op":"patch","circuit":"c"}"#,
            r#"{"op":"patch","circuit":"c","edits":[]}"#,
            // Both delay and inputs on one edit; neither on another.
            r#"{"op":"patch","circuit":"c","edits":[{"gate":"g","delay":1,"inputs":["a"]}]}"#,
            r#"{"op":"patch","circuit":"c","edits":[{"gate":"g"}]}"#,
            // Bad interval (lo > hi), bad type, empty rewire.
            r#"{"op":"patch","circuit":"c","edits":[{"gate":"g","delay":[7,3]}]}"#,
            r#"{"op":"patch","circuit":"c","edits":[{"gate":"g","delay":"ten"}]}"#,
            r#"{"op":"patch","circuit":"c","edits":[{"gate":"g","inputs":[]}]}"#,
            // Both checks and delta.
            r#"{"op":"patch","circuit":"c","edits":[{"gate":"g","delay":1}],"delta":1,"checks":[{"output":"y","delta":1}]}"#,
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn edit_spec_round_trips_through_its_wire_form() {
        for edit in [
            EditSpec::SetDelay {
                gate: "g1".into(),
                min: 12,
                max: 12,
            },
            EditSpec::SetDelay {
                gate: "g2".into(),
                min: 3,
                max: 9,
            },
            EditSpec::Rewire {
                gate: "g3".into(),
                inputs: vec!["a".into(), "b".into()],
            },
        ] {
            let reparsed = EditSpec::parse(&edit.to_json()).unwrap();
            assert_eq!(reparsed, edit);
        }
    }

    #[test]
    fn bad_requests_are_classified() {
        for line in [
            r#"{"no_op":1}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"check","circuit":"c"}"#,
            r#"{"op":"check","circuit":"c","output":"s","delta":"thirty"}"#,
            r#"{"op":"register","name":"x","source":"s","format":"vhdl"}"#,
            r#"{"op":"check","circuit":"c","output":"s","delta":1,"opts":{"jobs":-1}}"#,
            r#"[1,2]"#,
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn status_and_metrics_parse_bare() {
        assert!(matches!(
            parse(r#"{"op":"status"}"#).unwrap().body,
            RequestBody::Status
        ));
        assert!(matches!(
            parse(r#"{"op":"metrics"}"#).unwrap().body,
            RequestBody::Metrics
        ));
    }

    #[test]
    fn micros_saturate_instead_of_wrapping() {
        use std::time::Duration;
        // u64::MAX seconds is ~5.8e25 µs — far past u64::MAX µs. The old
        // `as_micros() as u64` cast wrapped this into a meaningless small
        // number; the duration pins at the u64 ceiling, and the wire value
        // carries the full u64 exactly (as `Json::Uint`, not a clamped
        // i64 and not a 53-bit-mantissa float).
        let absurd = Duration::from_secs(u64::MAX);
        assert_eq!(micros_u64(absurd), u64::MAX);
        assert_eq!(int_u64(micros_u64(absurd)), Json::Uint(u64::MAX));
        assert_eq!(int_u64(micros_u64(absurd)).as_u64(), Some(u64::MAX));
        // Sane values round-trip unchanged, staying canonical `Int`.
        assert_eq!(micros_u64(Duration::from_micros(1234)), 1234);
        assert_eq!(int_u64(1234), Json::Int(1234));
    }

    #[test]
    fn responses_echo_the_id() {
        let id = Json::str("req-1");
        let ok = ok_response("status", Some(&id), vec![]);
        assert_eq!(ok.get("id"), Some(&id));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        let err = error_response(Some(&id), &ProtoError::new(ErrorCode::Overloaded, "full"));
        assert_eq!(err.get("id"), Some(&id));
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            err.get("error").unwrap().get("code").unwrap().as_str(),
            Some("overloaded")
        );
    }

    #[test]
    fn vector_bits_spelling() {
        assert_eq!(vector_bits(&[true, false, true, true]), "1011");
        assert_eq!(vector_bits(&[]), "");
    }
}
