//! The TCP daemon: the circuit registry and the check, delay and patch
//! jobs, run on the service skeleton (`service.rs`) it shares with the
//! router.
//!
//! Cheap operations (`register`, `status`, `metrics`, `shutdown`, and the
//! edit half of `patch`) execute inline on the connection's reader
//! thread. Check work (`check`, `batch_check`, `delay`, a patch's bundled
//! checks) goes through the skeleton's one bounded queue — the admission
//! point. Each job runs under a [`BatchRunner::with_cancel`] carrying the
//! connection's [`CancelToken`], so when the peer disconnects, in-flight
//! analysis degrades to sound partial results and unstarted checks are
//! skipped — a dead client stops costing CPU within one budget-poll
//! interval.

use crate::proto::{
    batch_json, delay_json, error_response, ok_response, CheckSet, EditSpec, ErrorCode, ProtoError,
    RequestBody, RunOpts,
};
use crate::registry::{CircuitEntry, CircuitRegistry, RegistryStats};
use crate::service::{self, int, Conn, Service, Tier};
use crate::wire::Json;
use ltt_core::{available_jobs, BatchCheck, BatchRunner, Budget, CancelToken, CheckSession};
use ltt_netlist::NetId;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size; `0` means one per available hardware thread.
    pub jobs: usize,
    /// Admission bound: queued (not yet running) requests beyond this are
    /// refused with `overloaded`.
    pub queue_cap: usize,
    /// Maximum circuits resident in the registry (LRU beyond this).
    pub registry_cap: usize,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// answered with a structured `too_large` error and discarded without
    /// ever being buffered whole (default 16 MiB).
    pub max_line_bytes: usize,
}

/// The default request-line cap: generous enough for any realistic
/// netlist upload, small enough that one hostile peer cannot balloon the
/// process.
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            queue_cap: 64,
            registry_cap: 16,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// The daemon's half of the service: the registry and its own counter.
struct Daemon {
    registry: CircuitRegistry,
    /// Checks and delay searches cut short by a deadline, backtrack cap,
    /// or cancellation.
    budget_tripped: AtomicU64,
}

/// A job's result: the reply, and how many of its reports or searches a
/// budget cut short.
type Done = (Json, usize);

impl Tier for Daemon {
    type Work = Box<dyn FnOnce(Option<&Json>) -> Done + Send>;
    const ROLE: &'static str = "server";
    const METRICS_PREFIX: &'static str = "ltt";

    fn handle(svc: &Service<Self>, conn: &Conn, _line: &str, id: Option<Json>, body: RequestBody) {
        let registry = &svc.tier.registry;
        match body {
            RequestBody::Register {
                name,
                format,
                source,
                delay,
            } => match registry.register(&name, &format, &source, delay) {
                Ok((entry, cached)) => {
                    let outputs: Vec<Json> = entry
                        .circuit
                        .outputs()
                        .iter()
                        .map(|&o| Json::str(entry.circuit.net(o).name()))
                        .collect();
                    conn.reply.send(&ok_response(
                        "register",
                        id.as_ref(),
                        vec![
                            ("circuit".to_string(), Json::str(entry.id.clone())),
                            ("name".to_string(), Json::str(name)),
                            ("cached".to_string(), Json::Bool(cached)),
                            (
                                "inputs".to_string(),
                                Json::Int(entry.circuit.inputs().len() as i64),
                            ),
                            ("outputs".to_string(), Json::Arr(outputs)),
                            (
                                "gates".to_string(),
                                Json::Int(entry.circuit.num_gates() as i64),
                            ),
                        ],
                    ));
                }
                Err(e) => conn.reply.send(&error_response(id.as_ref(), &e)),
            },
            RequestBody::Check {
                circuit,
                output,
                delta,
                opts,
            } => submit_checks(
                svc,
                conn,
                id,
                "check",
                &circuit,
                CheckSet::Explicit(vec![(output, delta)]),
                opts,
            ),
            RequestBody::BatchCheck {
                circuit,
                checks,
                opts,
            } => submit_checks(svc, conn, id, "batch_check", &circuit, checks, opts),
            RequestBody::Delay {
                circuit,
                output,
                opts,
            } => submit_delay(svc, conn, id, &circuit, output, opts),
            RequestBody::Patch {
                circuit,
                name,
                edits,
                checks,
                opts,
            } => submit_patch(svc, conn, id, &circuit, name, edits, checks, opts),
            RequestBody::Status | RequestBody::Metrics | RequestBody::Shutdown => {
                unreachable!("control operations are answered by the service skeleton")
            }
        }
    }

    fn work(svc: &Service<Self>, work: Self::Work, id: Option<&Json>) -> String {
        let (reply, tripped) = work(id);
        svc.tier
            .budget_tripped
            .fetch_add(tripped as u64, Ordering::Relaxed);
        reply.encode()
    }

    fn status(
        svc: &Service<Self>,
        fields: &mut Vec<(String, Json)>,
        requests: &mut Vec<(&'static str, Json)>,
    ) {
        let registry = svc.tier.registry.stats();
        fields.push((
            "registry".to_string(),
            Json::obj([
                ("entries", int(registry.entries as u64)),
                ("capacity", int(registry.capacity as u64)),
                ("hits", int(registry.hits)),
                ("misses", int(registry.misses)),
                ("evictions", int(registry.evictions)),
                (
                    "hit_rate",
                    registry.hit_rate().map_or(Json::Null, Json::Float),
                ),
            ]),
        ));
        requests.push((
            "budget_tripped",
            int(svc.tier.budget_tripped.load(Ordering::Relaxed)),
        ));
    }

    fn metrics(svc: &Service<Self>, body: &mut String) {
        use crate::metrics::{render_gauge_f64, render_sample};
        let registry = svc.tier.registry.stats();
        for (name, kind, help, value) in [
            (
                "ltt_requests_budget_tripped_total",
                "counter",
                "checks cut short by a deadline, backtrack cap, or cancellation",
                svc.tier.budget_tripped.load(Ordering::Relaxed),
            ),
            (
                "ltt_registry_entries",
                "gauge",
                "circuits resident in the registry",
                registry.entries as u64,
            ),
            (
                "ltt_registry_capacity",
                "gauge",
                "registry LRU capacity",
                registry.capacity as u64,
            ),
            (
                "ltt_registry_hits_total",
                "counter",
                "registry lookups served from cache",
                registry.hits,
            ),
            (
                "ltt_registry_misses_total",
                "counter",
                "registry lookups that parsed and prepared a circuit",
                registry.misses,
            ),
            (
                "ltt_registry_evictions_total",
                "counter",
                "circuits evicted by the LRU bound",
                registry.evictions,
            ),
        ] {
            render_sample(body, name, kind, help, value);
        }
        if let Some(rate) = registry.hit_rate() {
            render_gauge_f64(
                body,
                "ltt_registry_hit_ratio",
                "hits / (hits + misses); absent before any traffic",
                rate,
            );
        }
    }
}

/// A control handle onto a running server (shutdown from tests or a
/// supervising thread; `status`-style introspection).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Service<Daemon>>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` requested `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain, exactly like a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Kills the server abruptly — the chaos counterpart of
    /// [`shutdown`](ServerHandle::shutdown). Pending and in-flight work is
    /// dropped *unanswered*, every connection is torn down, and no further
    /// reply ever leaves the process, exactly as if the backend crashed.
    /// Peers observe connection resets or timeouts, never a wrong answer.
    pub fn kill(&self) {
        self.shared.kill();
    }

    /// Registry counters (for tests and supervisors; clients use the
    /// `status` request).
    pub fn registry_stats(&self) -> RegistryStats {
        self.shared.tier.registry.stats()
    }
}

/// The daemon. [`Server::bind`] claims the socket; [`Server::run`] serves
/// until a drain completes.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Service<Daemon>>,
    jobs: usize,
}

impl Server {
    /// Binds the listening socket and builds the shared state. No threads
    /// run until [`Server::run`].
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let daemon = Daemon {
            registry: CircuitRegistry::new(config.registry_cap),
            budget_tripped: AtomicU64::new(0),
        };
        let shared = Arc::new(Service::new(
            daemon,
            listener.local_addr()?.to_string(),
            config.queue_cap,
            config.max_line_bytes,
        ));
        Ok(Server {
            listener,
            shared,
            jobs: if config.jobs == 0 {
                available_jobs()
            } else {
                config.jobs
            },
        })
    }

    /// The bound address (the real ephemeral port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
            addr: self
                .listener
                .local_addr()
                .expect("bound listener has an address"),
        }
    }

    /// Serves until a `shutdown` request (or [`ServerHandle::shutdown`])
    /// drains the server: accepts connections, spawns one reader per
    /// connection, runs the worker pool, and returns once every queued and
    /// in-flight job has been answered.
    pub fn run(self) -> std::io::Result<()> {
        service::run(&self.shared, self.listener, self.jobs)
    }
}

/// Runs a daemon with the given config, printing the bound address to
/// stdout (`listening on ADDR`) before serving — the line scripts and the
/// smoke test parse to discover an ephemeral port.
pub fn serve(config: &ServeConfig) -> std::io::Result<()> {
    let server = Server::bind(config)?;
    println!("listening on {}", server.local_addr()?);
    std::io::stdout().flush()?;
    server.run()
}

/// Resolves one output name to its [`NetId`], requiring a primary output.
fn resolve_output(session: &CheckSession<'static>, name: &str) -> Result<NetId, ProtoError> {
    session
        .circuit()
        .net_by_name(name)
        .filter(|n| session.circuit().outputs().contains(n))
        .ok_or_else(|| {
            ProtoError::new(
                ErrorCode::UnknownOutput,
                format!("`{name}` is not a primary output of the circuit"),
            )
        })
}

/// A request's checks resolved against a circuit: the output names (for
/// the reply) and the `(net, δ)` pairs to run, in request order.
type ResolvedChecks = (Vec<String>, Vec<(NetId, i64)>);

/// Resolves a request's checks against `entry`.
fn resolve_checks(entry: &CircuitEntry, checks: CheckSet) -> Result<ResolvedChecks, ProtoError> {
    match checks {
        CheckSet::Explicit(pairs) => pairs
            .into_iter()
            .map(|(name, delta)| {
                let net = resolve_output(&entry.session, &name)?;
                Ok((name, (net, delta)))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(|resolved| resolved.into_iter().unzip()),
        CheckSet::AllOutputs(delta) => Ok(entry
            .circuit
            .outputs()
            .iter()
            .map(|&o| (entry.circuit.net(o).name().to_string(), (o, delta)))
            .unzip()),
    }
}

/// How many reports of `batch` a budget cut short.
fn tripped(batch: &BatchCheck) -> usize {
    batch
        .reports
        .iter()
        .filter(|r| !r.completeness.is_exact())
        .count()
}

/// Builds the per-request batch runner: the connection's cancel token
/// always rides along; the request's opts add the engine, deadline,
/// backtrack cap, and fail-fast on top (the registered session is shared
/// by requests of every engine).
fn build_runner(opts: &RunOpts, cancel: &CancelToken) -> BatchRunner {
    let mut runner = BatchRunner::new(opts.jobs.max(1))
        .with_cancel(cancel.clone())
        .with_engine(opts.engine)
        .with_fail_fast(opts.fail_fast);
    if let Some(ms) = opts.deadline_ms {
        runner = runner.with_deadline(Duration::from_millis(ms));
    }
    if let Some(max) = opts.max_backtracks {
        runner = runner.with_budget(Budget::unlimited().with_backtracks(max));
    }
    runner
}

fn submit_checks(
    svc: &Service<Daemon>,
    conn: &Conn,
    id: Option<Json>,
    op: &'static str,
    circuit_key: &str,
    checks: CheckSet,
    opts: RunOpts,
) {
    // Resolve the registry entry and the outputs inline: lookup failures
    // answer immediately instead of consuming a queue slot.
    let resolved = svc
        .tier
        .registry
        .lookup(circuit_key)
        .and_then(|entry| Ok((resolve_checks(&entry, checks)?, entry)));
    let ((names, checks), entry) = match resolved {
        Ok(resolved) => resolved,
        Err(e) => return conn.reply.send(&error_response(id.as_ref(), &e)),
    };
    let runner = build_runner(&opts, &conn.cancel);
    svc.admit(
        conn,
        id,
        Box::new(move |id| {
            let batch = runner.run(&entry.session, &checks);
            // Feed the entry's result cache: a later `patch` transplants
            // these for outputs its edits cannot reach.
            entry.cache_reports(opts.engine, &batch.reports);
            let reply = ok_response(op, id, batch_json(&batch, &names, None));
            (reply, tripped(&batch))
        }),
    );
}

fn submit_delay(
    svc: &Service<Daemon>,
    conn: &Conn,
    id: Option<Json>,
    circuit_key: &str,
    output: Option<String>,
    opts: RunOpts,
) {
    let resolved = svc.tier.registry.lookup(circuit_key).and_then(|entry| {
        let targets = match &output {
            Some(name) => vec![resolve_output(&entry.session, name)?],
            None => entry.circuit.outputs().to_vec(),
        };
        Ok((entry, targets))
    });
    let (entry, targets) = match resolved {
        Ok(resolved) => resolved,
        Err(e) => return conn.reply.send(&error_response(id.as_ref(), &e)),
    };
    let runner = build_runner(&opts, &conn.cancel);
    svc.admit(
        conn,
        id,
        Box::new(move |id| {
            let searches = runner.exact_delays(&entry.session, &targets);
            let tripped = searches
                .iter()
                .filter(|s| matches!(s, Ok(search) if !search.proven_exact))
                .count();
            let results = targets
                .iter()
                .zip(searches)
                .map(|(&o, result)| {
                    let name = entry.circuit.net(o).name();
                    match result {
                        Ok(search) => delay_json(&search, name),
                        Err(e) => Json::obj([
                            ("output", Json::str(name)),
                            ("error", Json::str(e.to_string())),
                        ]),
                    }
                })
                .collect();
            let reply = ok_response(
                "delay",
                id,
                vec![("results".to_string(), Json::Arr(results))],
            );
            (reply, tripped)
        }),
    );
}

/// Executes a `patch`: applies the edits through the registry (which
/// patches the parent's session and carries over the cached reports of
/// unaffected outputs), then — when the request bundles checks — runs
/// them against the patched entry, serving cached transplanted reports
/// without re-execution.
///
/// The patch itself runs inline on the reader thread, like `register`:
/// that keeps pipelined follow-up requests naming the patched id ordered
/// after its registration. Only the bundled checks go through admission.
#[allow(clippy::too_many_arguments)]
fn submit_patch(
    svc: &Service<Daemon>,
    conn: &Conn,
    id: Option<Json>,
    circuit_key: &str,
    name: Option<String>,
    edits: Vec<EditSpec>,
    checks: Option<CheckSet>,
    opts: RunOpts,
) {
    let outcome = match svc
        .tier
        .registry
        .patch(circuit_key, name.as_deref(), &edits)
    {
        Ok(outcome) => outcome,
        Err(e) => return conn.reply.send(&error_response(id.as_ref(), &e)),
    };
    let entry = outcome.entry.clone();
    let patch_fields = vec![
        ("circuit".to_string(), Json::str(entry.id.clone())),
        ("name".to_string(), Json::str(entry.name.clone())),
        ("cached".to_string(), Json::Bool(outcome.resident)),
        ("structural".to_string(), Json::Bool(outcome.structural)),
        (
            "dirty".to_string(),
            Json::Arr(outcome.dirty.iter().map(|d| Json::str(d.clone())).collect()),
        ),
        (
            "transplanted".to_string(),
            Json::Int(outcome.transplanted as i64),
        ),
    ];
    let Some(checks) = checks else {
        return conn
            .reply
            .send(&ok_response("patch", id.as_ref(), patch_fields));
    };
    let (names, checks) = match resolve_checks(&entry, checks) {
        Ok(resolved) => resolved,
        Err(e) => return conn.reply.send(&error_response(id.as_ref(), &e)),
    };
    let runner = build_runner(&opts, &conn.cancel);
    svc.admit(
        conn,
        id,
        Box::new(move |id| {
            // Serve every check whose exact report from the same engine is
            // cached (transplanted across the patch, or produced by an
            // earlier request); run the rest and cache what they produce.
            let (batch, reused) = runner.run_reusing(&entry.session, &checks, |output, delta| {
                entry.cached_report(opts.engine, output, delta)
            });
            entry.cache_reports(opts.engine, &batch.reports);
            let mut fields = patch_fields;
            fields.append(&mut batch_json(&batch, &names, Some(&reused)));
            (ok_response("patch", id, fields), tripped(&batch))
        }),
    );
}
