//! `ltt-router` — the fault-tolerant front tier of a sharded serve fleet.
//!
//! The router speaks the exact same newline-delimited JSON protocol as a
//! single `ltt-serve` daemon, so clients cannot tell (and need not care)
//! whether they are talking to one process or a fleet. Behind it, N
//! backends each run the full single-daemon stack; the router owns
//! placement, retry, and failure handling:
//!
//! * **Placement** — circuits are consistent-hashed (FNV over virtual
//!   nodes) onto backends by *content id*, so the same circuit always
//!   lands on the same owner and re-registration after a backend death
//!   converges instead of scattering. `register` fans out to the owner
//!   plus `replicas - 1` successors, giving hot circuits more than one
//!   home before anything fails.
//! * **Retry** — check traffic walks the owner's candidate list (the
//!   whole ring, in ring order) with per-backend circuit breakers and
//!   exponential backoff with deterministic jitter between rounds. An
//!   `overloaded` reply moves to the next candidate immediately (the
//!   backend is healthy, just full); a transport failure feeds the
//!   breaker.
//! * **Failover** — a backend that answers `unknown_circuit` (it died
//!   and came back empty, or it never held the circuit) is re-registered
//!   on the spot from the router's registration cache, then retried.
//! * **The exactly-one-reply invariant** — every accepted request line
//!   gets exactly one reply: a backend reply forwarded **verbatim**
//!   (hence bit-identical to a direct [`BatchRunner`](ltt_core::BatchRunner)
//!   run, by the single-daemon contract), or a structured error
//!   (`overloaded` when every live candidate is shedding, `unavailable`
//!   when no candidate could answer at all). Never a hang, never a
//!   wrong answer, never two replies.
//!
//! Health checking reuses the protocol's own `status` op: a background
//! thread probes every backend each interval, flips the health gauge,
//! and — because probes run through the same transport accounting as
//! requests — heals an open breaker as soon as its backend answers
//! again. Graceful drain reuses `shutdown`: the router stops accepting,
//! answers everything admitted, then (for in-process fleets) drains its
//! backends.
//!
//! The connection machinery — accept loop, capped-line readers, the
//! bounded forwarding queue and its worker pool, drain, and the shared
//! `status`/`metrics` counters — is the service skeleton (`service.rs`)
//! the daemon runs on too; this module holds only the ring, the
//! registration cache, forwarding, and health probes.

use crate::backend::{Backend, BackendOpts};
use crate::metrics::{render_family, render_labeled, render_sample};
use crate::proto::{error_response, EditSpec, ErrorCode, ProtoError, RequestBody};
use crate::registry::{content_id, patched_id};
use crate::server::{ServeConfig, Server, ServerHandle, DEFAULT_MAX_LINE_BYTES};
use crate::service::{self, int, Conn, ReplyHandle, Service, Snapshot, Tier, POLL};
use crate::wire::{decode, Json};
use ltt_core::available_jobs;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Virtual nodes per backend on the hash ring. 64 vnodes keep the load
/// split within a few percent of even for small fleets while the ring
/// stays tiny (N × 64 entries).
const VNODES: usize = 64;

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Addresses of externally-managed backends. Ignored when `spawn` is
    /// non-zero.
    pub backends: Vec<String>,
    /// Spawn this many in-process backends on ephemeral ports instead of
    /// connecting to `backends` (the test/bench topology; production
    /// points at external daemons).
    pub spawn: usize,
    /// Worker threads per spawned backend (0 = one per hardware thread).
    pub backend_jobs: usize,
    /// Admission bound per spawned backend.
    pub backend_queue_cap: usize,
    /// Registry capacity per spawned backend.
    pub backend_registry_cap: usize,
    /// Backends each circuit is registered on (owner + successors).
    pub replicas: usize,
    /// Router forwarding threads (0 = one per hardware thread, min 4).
    pub jobs: usize,
    /// Router admission bound: queued forwards beyond this are shed with
    /// `overloaded`.
    pub queue_cap: usize,
    /// Full passes over the candidate list before giving up (the first
    /// pass plus `max_retries` backed-off retry rounds).
    pub max_retries: u32,
    /// First-round retry backoff (doubles per round, jittered).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Bound on backend connection establishment.
    pub connect_timeout: Duration,
    /// Bound on one backend round trip.
    pub rpc_timeout: Duration,
    /// Consecutive transport failures that open a backend's breaker.
    pub breaker_threshold: u32,
    /// Open-breaker cooldown before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Request/reply line-length cap.
    pub max_line_bytes: usize,
    /// Registrations remembered for failover re-registration.
    pub reg_cache_cap: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            spawn: 0,
            backend_jobs: 0,
            backend_queue_cap: 64,
            backend_registry_cap: 16,
            replicas: 2,
            jobs: 0,
            queue_cap: 256,
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(1),
            rpc_timeout: Duration::from_secs(30),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            health_interval: Duration::from_secs(1),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            reg_cache_cap: 64,
        }
    }
}

/// A cached registration: everything needed to replay a circuit — the
/// root `register` plus any chain of `patch` lines — on a backend that
/// answered `unknown_circuit`.
#[derive(Clone)]
struct RegEntry {
    name: String,
    format: String,
    source: String,
    delay: u32,
    /// The *root* content id of this entry's patch chain — the ring
    /// placement key. A patched revision routes where its root lives, so
    /// incremental re-verification lands on the backend already holding
    /// the warm parent session.
    route: String,
    /// Canonical `patch` request lines (no ids, no checks) from the root
    /// to this revision, in application order.
    patches: Vec<String>,
}

impl RegEntry {
    /// The replayable `register` request line (no `id`: the replay is
    /// internal, its reply is consumed by the router).
    fn register_line(&self) -> String {
        Json::obj([
            ("op", Json::str("register")),
            ("name", Json::str(self.name.clone())),
            ("format", Json::str(self.format.clone())),
            ("source", Json::str(self.source.clone())),
            ("delay", Json::Int(i64::from(self.delay))),
        ])
        .encode()
    }

    /// Every line needed to reconstruct this revision from nothing: the
    /// root registration, then the patch chain.
    fn replay_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(1 + self.patches.len());
        lines.push(self.register_line());
        lines.extend(self.patches.iter().cloned());
        lines
    }
}

/// Registration cache: keyed by content id, with registered names as
/// aliases, FIFO-bounded.
#[derive(Default)]
struct RegCache {
    by_id: HashMap<String, Arc<RegEntry>>,
    alias: HashMap<String, String>,
    order: VecDeque<String>,
}

impl RegCache {
    fn insert(&mut self, id: String, entry: RegEntry, cap: usize) {
        self.insert_full(id, entry, Some(true), cap);
    }

    /// Records a patched revision derived from `parent_id`: same netlist
    /// provenance, the parent's patch chain plus `patch_line`, routed at
    /// the parent's root. `alias_name` (the patch's optional new name)
    /// aliases the child when given — a nameless patch must not rebind
    /// the parent's name away from the parent.
    fn insert_patched(
        &mut self,
        parent_id: &str,
        child_id: String,
        alias_name: Option<&str>,
        patch_line: String,
        cap: usize,
    ) {
        let Some(parent) = self.by_id.get(parent_id).cloned() else {
            return;
        };
        let mut child = (*parent).clone();
        child.route = parent.route.clone();
        child.patches.push(patch_line);
        if let Some(name) = alias_name {
            child.name = name.to_string();
        }
        self.insert_full(child_id, child, alias_name.map(|_| true), cap);
    }

    /// The shared insert: `alias` says whether to bind the entry's name
    /// as an alias (`None`/`Some(false)` leaves existing bindings alone).
    fn insert_full(&mut self, id: String, entry: RegEntry, alias: Option<bool>, cap: usize) {
        if !self.by_id.contains_key(&id) {
            self.order.push_back(id.clone());
            while self.order.len() > cap.max(1) {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_id.remove(&evicted);
                    self.alias.retain(|_, v| *v != evicted);
                }
            }
        }
        if alias == Some(true) {
            self.alias.insert(entry.name.clone(), id.clone());
        }
        self.by_id.insert(id, Arc::new(entry));
    }

    /// Resolves a circuit key (content id or registered name) to the
    /// canonical content id plus the cached registration, if known.
    fn resolve(&self, key: &str) -> Option<(String, Arc<RegEntry>)> {
        let id = if self.by_id.contains_key(key) {
            key.to_string()
        } else {
            self.alias.get(key)?.clone()
        };
        let entry = self.by_id.get(&id)?.clone();
        Some((id, entry))
    }
}

/// The router's own monotonic counters (all relaxed; forwarding outcomes
/// are attributed exactly once each). Parsing, admission and completion
/// are counted by the service skeleton.
#[derive(Default)]
struct RouterCounters {
    /// Replies obtained from a backend and forwarded verbatim.
    forwarded_total: AtomicU64,
    /// Requests answered `unavailable` after exhausting every candidate.
    unavailable_total: AtomicU64,
    /// Extra attempts after the first (next candidate or next round).
    retries_total: AtomicU64,
    /// Attempts abandoned because a transport error moved the request to
    /// another backend.
    failovers_total: AtomicU64,
    /// `unknown_circuit` failovers repaired by replaying a cached
    /// registration.
    reregister_total: AtomicU64,
}

/// What the router must record about a `patch` once a backend accepts
/// it — enough to route and replay the patched revision later.
struct PatchMeta {
    /// Canonical content id of the parent revision.
    parent_id: String,
    /// The (router-computed) content id of the patched revision.
    child_id: String,
    /// The optional new alias the patch binds.
    alias: Option<String>,
    /// The canonical replayable patch line (id-addressed, no checks).
    replay_line: String,
}

/// One admitted forward: the raw request line plus routing metadata.
struct Forward {
    /// The raw request text, forwarded to backends byte-for-byte.
    line: String,
    /// The repair key (canonical content id when resolvable): what the
    /// `unknown_circuit` replay resolves in the registration cache.
    key: String,
    /// The ring-placement key: the root id of the circuit's patch chain
    /// (equal to `key` for unpatched circuits), so a whole chain —
    /// parent, patches, and their checks — colocates on one owner set.
    route: String,
    /// Set on `patch` forwards: cached on success so later requests can
    /// route to and replay the patched revision.
    patch: Option<PatchMeta>,
}

/// The router's half of the service: the ring, the registration cache,
/// and the per-backend transport.
struct Fleet {
    backends: Vec<Arc<Backend>>,
    /// Sorted (hash, backend index) ring.
    ring: Vec<(u64, usize)>,
    reg_cache: Mutex<RegCache>,
    counters: RouterCounters,
    /// Monotonic per-request salt for backoff jitter.
    jitter_salt: AtomicU64,
    config: RouterConfig,
}

impl Fleet {
    /// The candidate backends for `key`: every distinct backend, in ring
    /// order starting at the owner. The first `replicas` are the
    /// registration fan-out set; retry walks the whole list.
    fn candidates(&self, key: &str) -> Vec<usize> {
        let point = fnv64(key.as_bytes());
        let start = self
            .ring
            .partition_point(|&(hash, _)| hash < point)
            .checked_rem(self.ring.len())
            .unwrap_or(0);
        let mut seen = vec![false; self.backends.len()];
        let mut order = Vec::with_capacity(self.backends.len());
        for i in 0..self.ring.len() {
            let (_, backend) = self.ring[(start + i) % self.ring.len()];
            if !seen[backend] {
                seen[backend] = true;
                order.push(backend);
                if order.len() == self.backends.len() {
                    break;
                }
            }
        }
        order
    }
}

/// Ring-placement hash: 64-bit FNV-1a (the same function the registry's
/// content ids use) pushed through a murmur-style finalizer. Raw FNV of
/// short, similar keys (`addr#vnode`) leaves the high bits — which drive
/// the ring's sort order — badly clustered; the finalizer's avalanche
/// spreads the vnodes evenly.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// Builds the consistent-hash ring: `VNODES` points per backend, keyed
/// by `addr#vnode`, sorted by hash. Ties (astronomically unlikely) break
/// by backend index, deterministically.
fn build_ring(backends: &[Arc<Backend>]) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(backends.len() * VNODES);
    for (index, backend) in backends.iter().enumerate() {
        for vnode in 0..VNODES {
            let key = format!("{}#{vnode}", backend.addr());
            ring.push((fnv64(key.as_bytes()), index));
        }
    }
    ring.sort_unstable();
    ring
}

/// XorShift64 — deterministic jitter without pulling in a PRNG crate.
fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A control handle onto a running router.
#[derive(Clone)]
pub struct RouterHandle {
    shared: Arc<Service<Fleet>>,
    addr: SocketAddr,
    /// Handles of in-process backends (empty for external fleets) — the
    /// chaos surface: tests kill or drain individual backends through
    /// these.
    spawned: Arc<Vec<ServerHandle>>,
}

impl RouterHandle {
    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain, exactly like a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// The backend addresses, in ring-index order.
    pub fn backend_addrs(&self) -> Vec<String> {
        self.shared
            .tier
            .backends
            .iter()
            .map(|b| b.addr().to_string())
            .collect()
    }

    /// Kills spawned backend `index` abruptly (see [`ServerHandle::kill`]).
    /// Panics for external fleets or an out-of-range index — this is a
    /// chaos-test surface, not production API.
    pub fn kill_backend(&self, index: usize) {
        self.spawned[index].kill();
    }

    /// Control handles of the spawned in-process backends.
    pub fn spawned_backends(&self) -> &[ServerHandle] {
        &self.spawned
    }
}

/// The router daemon. [`Router::bind`] claims sockets (and spawns the
/// in-process fleet when asked); [`Router::run`] serves until a drain
/// completes.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Service<Fleet>>,
    spawned: Arc<Vec<ServerHandle>>,
    backend_threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Router {
    /// Binds the router (and, with `config.spawn > 0`, an in-process
    /// fleet of backends on ephemeral ports). No router threads run
    /// until [`Router::run`].
    pub fn bind(mut config: RouterConfig) -> std::io::Result<Router> {
        let mut spawned = Vec::new();
        let mut backend_threads = Vec::new();
        if config.spawn > 0 {
            config.backends.clear();
            for _ in 0..config.spawn {
                let server = Server::bind(&ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    jobs: config.backend_jobs,
                    queue_cap: config.backend_queue_cap,
                    registry_cap: config.backend_registry_cap,
                    max_line_bytes: config.max_line_bytes,
                })?;
                config.backends.push(server.local_addr()?.to_string());
                spawned.push(server.handle());
                backend_threads.push(std::thread::spawn(move || server.run()));
            }
        }
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one backend (`backends` or `spawn`)",
            ));
        }
        let opts = BackendOpts {
            connect_timeout: config.connect_timeout,
            rpc_timeout: config.rpc_timeout,
            max_line_bytes: config.max_line_bytes,
            breaker_threshold: config.breaker_threshold,
            breaker_cooldown: config.breaker_cooldown,
        };
        let backends: Vec<Arc<Backend>> = config
            .backends
            .iter()
            .map(|addr| Arc::new(Backend::new(addr.clone(), opts)))
            .collect();
        let ring = build_ring(&backends);
        let listener = TcpListener::bind(&config.addr)?;
        let (queue_cap, max_line_bytes) = (config.queue_cap, config.max_line_bytes);
        let fleet = Fleet {
            backends,
            ring,
            reg_cache: Mutex::new(RegCache::default()),
            counters: RouterCounters::default(),
            jitter_salt: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
            config,
        };
        let shared = Arc::new(Service::new(
            fleet,
            listener.local_addr()?.to_string(),
            queue_cap,
            max_line_bytes,
        ));
        Ok(Router {
            listener,
            shared,
            spawned: Arc::new(spawned),
            backend_threads,
        })
    }

    /// The bound address (the real ephemeral port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            shared: self.shared.clone(),
            addr: self
                .listener
                .local_addr()
                .expect("bound listener has an address"),
            spawned: self.spawned.clone(),
        }
    }

    /// Serves until a `shutdown` request (or [`RouterHandle::shutdown`])
    /// drains the router. Every admitted request is answered before this
    /// returns; for in-process fleets the backends are then drained too.
    pub fn run(self) -> std::io::Result<()> {
        let Router {
            listener,
            shared,
            spawned,
            backend_threads,
        } = self;
        let workers = match shared.tier.config.jobs {
            0 => available_jobs().max(4),
            jobs => jobs,
        };
        let health = {
            let shared = shared.clone();
            std::thread::spawn(move || health_loop(&shared))
        };
        let served = service::run(&shared, listener, workers);
        let _ = health.join();
        // The router's own clients are all answered; now drain the
        // in-process fleet (killed backends just return immediately).
        for handle in spawned.iter() {
            handle.shutdown();
        }
        for thread in backend_threads {
            let _ = thread.join();
        }
        served
    }
}

/// Runs a router with the given config, printing `listening on ADDR` and
/// the backend list to stdout before serving.
pub fn route(config: RouterConfig) -> std::io::Result<()> {
    let router = Router::bind(config)?;
    println!("listening on {}", router.local_addr()?);
    for addr in router.handle().backend_addrs() {
        println!("backend {addr}");
    }
    std::io::stdout().flush()?;
    router.run()
}

/// The health thread: probes every backend with a `status` rpc each
/// interval. Probes share the request path's transport accounting, so a
/// recovered backend's first good probe closes its breaker.
fn health_loop(svc: &Service<Fleet>) {
    let fleet = &svc.tier;
    let probe = Json::obj([
        ("op", Json::str("status")),
        ("id", Json::str("__ltt_router_health")),
    ])
    .encode();
    let mut last = Instant::now() - fleet.config.health_interval;
    while !svc.draining() {
        if last.elapsed() < fleet.config.health_interval {
            std::thread::sleep(POLL.min(fleet.config.health_interval));
            continue;
        }
        last = Instant::now();
        for backend in &fleet.backends {
            let healthy = backend.rpc(&probe).is_ok();
            backend.set_healthy(healthy);
            if svc.draining() {
                return;
            }
        }
    }
}

impl Tier for Fleet {
    type Work = Forward;
    const ROLE: &'static str = "router";
    const METRICS_PREFIX: &'static str = "ltt_router";

    /// Routes one request: `register` fanned out inline, everything else
    /// admitted for the forwarding pool.
    fn handle(svc: &Service<Self>, conn: &Conn, line: &str, id: Option<Json>, body: RequestBody) {
        let fleet = &svc.tier;
        let (circuit, patch) = match body {
            RequestBody::Register {
                name,
                format,
                source,
                delay,
            } => {
                return register_fanout(
                    fleet,
                    &conn.reply,
                    id.as_ref(),
                    name,
                    format,
                    source,
                    delay,
                    line,
                )
            }
            RequestBody::Check { circuit, .. }
            | RequestBody::BatchCheck { circuit, .. }
            | RequestBody::Delay { circuit, .. } => (circuit, None),
            RequestBody::Patch {
                circuit,
                name,
                edits,
                ..
            } => (circuit, Some((name, edits))),
            RequestBody::Status | RequestBody::Metrics | RequestBody::Shutdown => {
                unreachable!("control operations are answered by the service skeleton")
            }
        };
        // Canonicalize the routing key: a name known to the cache hashes
        // as its content id, so by-name and by-hash requests for the same
        // circuit land on the same owner — and a patched revision rides
        // its chain's root placement.
        let resolved = fleet
            .reg_cache
            .lock()
            .expect("reg cache lock poisoned")
            .resolve(&circuit);
        let (key, route, patch) = match resolved {
            // A patch routes where its parent lives (the chain's root
            // owner set), so the backend applying it holds the warm
            // session the rebase transplants from. The child id is
            // computed router-side with the same incremental fold the
            // backend uses, so both sides agree before the reply lands.
            Some((canonical, entry)) => {
                let patch = patch.map(|(name, edits)| {
                    let mut fields = vec![
                        ("op", Json::str("patch")),
                        ("circuit", Json::str(canonical.clone())),
                    ];
                    if let Some(n) = &name {
                        fields.push(("name", Json::str(n.clone())));
                    }
                    fields.push((
                        "edits",
                        Json::Arr(edits.iter().map(EditSpec::to_json).collect()),
                    ));
                    PatchMeta {
                        parent_id: canonical.clone(),
                        child_id: patched_id(&canonical, &edits),
                        alias: name,
                        replay_line: Json::obj(fields).encode(),
                    }
                });
                (canonical, entry.route.clone(), patch)
            }
            // Unknown circuit: forward anyway (the backend may still know
            // it); nothing to cache or re-route.
            None => (circuit.clone(), circuit, None),
        };
        let forward = Forward {
            line: line.to_string(),
            key,
            route,
            patch,
        };
        svc.admit(conn, id, forward);
    }

    fn work(svc: &Service<Self>, job: Forward, id: Option<&Json>) -> String {
        let (reply, kind) = forward_with_retry(svc, &job.line, &job.key, &job.route, id);
        // A patch a backend accepted becomes routable and replayable: the
        // cache learns the child id (ring-placed at the chain's root) and
        // the replay chain grows by one line.
        if let (Some(meta), ReplyKind::Ok) = (&job.patch, kind) {
            svc.tier
                .reg_cache
                .lock()
                .expect("reg cache lock poisoned")
                .insert_patched(
                    &meta.parent_id,
                    meta.child_id.clone(),
                    meta.alias.as_deref(),
                    meta.replay_line.clone(),
                    svc.tier.config.reg_cache_cap,
                );
        }
        reply
    }

    fn status(
        svc: &Service<Self>,
        snap: &Snapshot,
        fields: &mut Vec<(String, Json)>,
        requests: &mut Vec<(&'static str, Json)>,
    ) {
        let fleet = &svc.tier;
        let c = &fleet.counters;
        let backends: Vec<Json> = fleet
            .backends
            .iter()
            .map(|b| {
                Json::obj([
                    ("addr", Json::str(b.addr())),
                    ("healthy", Json::Bool(b.is_healthy())),
                    (
                        "breaker",
                        Json::str(match b.breaker().state_code() {
                            0 => "closed",
                            1 => "open",
                            _ => "half_open",
                        }),
                    ),
                    ("breaker_opened", int(b.breaker().opened_total())),
                    ("rpcs", int(b.rpcs_total())),
                    ("errors", int(b.errors_total())),
                ])
            })
            .collect();
        fields.push(("role".to_string(), Json::str("router")));
        fields.push(("backends".to_string(), Json::Arr(backends)));
        requests.extend([
            ("forwarded", int(c.forwarded_total.load(Ordering::Relaxed))),
            (
                "unavailable",
                int(c.unavailable_total.load(Ordering::Relaxed)),
            ),
            // The router's historical name for `overloaded`.
            ("shed", int(snap.overloaded)),
            ("retries", int(c.retries_total.load(Ordering::Relaxed))),
            ("failovers", int(c.failovers_total.load(Ordering::Relaxed))),
            (
                "reregistered",
                int(c.reregister_total.load(Ordering::Relaxed)),
            ),
        ]);
    }

    /// The router's own families: its forwarding counters plus one labeled
    /// series per backend for health, breaker state, transport totals, and
    /// rpc latency.
    fn metrics(svc: &Service<Self>, snap: &Snapshot, body: &mut String) {
        let fleet = &svc.tier;
        let c = &fleet.counters;
        for (name, kind, help, value) in [
            (
                "ltt_router_backends",
                "gauge",
                "backends on the hash ring",
                fleet.backends.len() as u64,
            ),
            (
                "ltt_router_forwarded_total",
                "counter",
                "backend replies forwarded verbatim",
                c.forwarded_total.load(Ordering::Relaxed),
            ),
            (
                "ltt_router_unavailable_total",
                "counter",
                "requests answered `unavailable` after exhausting every candidate",
                c.unavailable_total.load(Ordering::Relaxed),
            ),
            (
                "ltt_router_shed_total",
                "counter",
                "requests shed at the router's own admission queue",
                snap.overloaded,
            ),
            (
                "ltt_router_retries_total",
                "counter",
                "forwarding attempts after the first (other candidates or rounds)",
                c.retries_total.load(Ordering::Relaxed),
            ),
            (
                "ltt_router_failovers_total",
                "counter",
                "attempts abandoned to a transport failure (moved to next backend)",
                c.failovers_total.load(Ordering::Relaxed),
            ),
            (
                "ltt_router_reregister_total",
                "counter",
                "unknown_circuit failovers repaired from the registration cache",
                c.reregister_total.load(Ordering::Relaxed),
            ),
            (
                "ltt_router_too_large_total",
                "counter",
                "request lines refused for exceeding the line-length cap",
                snap.too_large,
            ),
            (
                "ltt_router_bad_request_total",
                "counter",
                "request lines that failed to parse",
                snap.bad_request,
            ),
        ] {
            render_sample(body, name, kind, help, value);
        }
        // Per-backend families: one header each, one labeled series per
        // backend.
        type Read = fn(&Backend) -> u64;
        let families: [(&str, &str, &str, Read); 5] = [
            (
                "ltt_backend_healthy",
                "gauge",
                "1 when the last status probe of this backend succeeded",
                |b| u64::from(b.is_healthy()),
            ),
            (
                "ltt_backend_breaker_state",
                "gauge",
                "circuit-breaker state: 0 closed, 1 open, 2 half-open",
                |b| b.breaker().state_code(),
            ),
            (
                "ltt_backend_breaker_opened_total",
                "counter",
                "times this backend's breaker has opened",
                |b| b.breaker().opened_total(),
            ),
            (
                "ltt_backend_rpcs_total",
                "counter",
                "round trips attempted against this backend",
                Backend::rpcs_total,
            ),
            (
                "ltt_backend_errors_total",
                "counter",
                "round trips that failed at the transport level",
                Backend::errors_total,
            ),
        ];
        for (name, kind, help, read) in families {
            render_family(body, name, kind, help);
            for b in &fleet.backends {
                render_labeled(body, name, &[("backend", b.addr())], read(b));
            }
        }
        render_family(
            body,
            "ltt_backend_rpc_duration_seconds",
            "histogram",
            "round-trip latency of successful rpcs per backend",
        );
        for b in &fleet.backends {
            b.latency().render_series(
                body,
                "ltt_backend_rpc_duration_seconds",
                &[("backend", b.addr())],
            );
        }
    }
}

/// The reply classification a forwarding attempt can produce.
enum Attempt {
    /// A reply to forward verbatim, with its classification.
    Done(String, ReplyKind),
    /// The backend shed the request (`overloaded`) — try elsewhere, and
    /// if everyone sheds, forward the last such reply honestly.
    Overloaded(String),
    /// The transport failed — feed the failover path.
    Failed,
}

/// One rpc to one backend, including the `unknown_circuit` re-register
/// repair.
fn attempt(fleet: &Fleet, backend: &Backend, line: &str, key: &str) -> Attempt {
    match backend.rpc(line) {
        Err(_) => Attempt::Failed,
        Ok(reply) => match classify(&reply) {
            ReplyKind::Overloaded => Attempt::Overloaded(reply),
            kind @ ReplyKind::UnknownCircuit => {
                // The backend is alive but empty-handed (typically: it
                // died and restarted, or it is a fresh failover target).
                // Replay the cached registration — the root `register`
                // plus any patch chain — and retry once, on this same
                // backend.
                let cached = fleet
                    .reg_cache
                    .lock()
                    .expect("reg cache lock poisoned")
                    .resolve(key);
                let Some((_, entry)) = cached else {
                    return Attempt::Done(reply, kind);
                };
                fleet
                    .counters
                    .reregister_total
                    .fetch_add(1, Ordering::Relaxed);
                for replay in entry.replay_lines() {
                    if backend.rpc(&replay).is_err() {
                        return Attempt::Failed;
                    }
                }
                match backend.rpc(line) {
                    Err(_) => Attempt::Failed,
                    Ok(retry) => match classify(&retry) {
                        ReplyKind::Overloaded => Attempt::Overloaded(retry),
                        kind => Attempt::Done(retry, kind),
                    },
                }
            }
            kind => Attempt::Done(reply, kind),
        },
    }
}

/// What a backend reply says, read once per reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReplyKind {
    /// `"ok":true`.
    Ok,
    /// `"ok":false` with error code `overloaded`.
    Overloaded,
    /// `"ok":false` with error code `unknown_circuit`.
    UnknownCircuit,
    /// Any other error, or a line that is not a JSON response.
    Other,
}

/// Inspects a backend reply's `ok` flag and error code without disturbing
/// the raw text (which is what actually gets forwarded).
fn classify(reply: &str) -> ReplyKind {
    let Ok(json) = decode(reply.trim()) else {
        return ReplyKind::Other;
    };
    match json.get("ok").and_then(Json::as_bool) {
        Some(true) => return ReplyKind::Ok,
        Some(false) => {}
        None => return ReplyKind::Other,
    }
    match json
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
    {
        Some("overloaded") => ReplyKind::Overloaded,
        Some("unknown_circuit") => ReplyKind::UnknownCircuit,
        _ => ReplyKind::Other,
    }
}

/// Walks the candidate list with breaker gating, backing off between
/// rounds, until a reply is obtained or every option is exhausted.
/// Always returns exactly one reply line, with its classification. `key`
/// drives the `unknown_circuit` replay; `route` drives ring placement
/// (they differ only for patched revisions, which colocate with their
/// root).
fn forward_with_retry(
    svc: &Service<Fleet>,
    line: &str,
    key: &str,
    route: &str,
    id: Option<&Json>,
) -> (String, ReplyKind) {
    let fleet = &svc.tier;
    let candidates = fleet.candidates(route);
    let config = &fleet.config;
    let mut last_overloaded: Option<String> = None;
    let mut seed = fnv64(line.as_bytes())
        ^ fleet
            .jitter_salt
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    let mut attempts = 0u64;
    for round in 0..=config.max_retries {
        if round > 0 {
            // Exponential backoff with jitter in [base/2, backoff): the
            // deterministic xorshift stream keeps the serve tier free of
            // clock- or PRNG-dependent behavior differences under test.
            let exp = config
                .backoff_base
                .saturating_mul(1u32 << (round - 1).min(16));
            let backoff = exp.min(config.backoff_cap);
            seed = xorshift64(seed);
            let half = backoff / 2;
            let jittered = half + Duration::from_nanos(seed % half.as_nanos().max(1) as u64);
            std::thread::sleep(jittered);
        }
        for &index in &candidates {
            let backend = &fleet.backends[index];
            if !backend.breaker().admit() {
                continue;
            }
            attempts += 1;
            if attempts > 1 {
                fleet.counters.retries_total.fetch_add(1, Ordering::Relaxed);
            }
            match attempt(fleet, backend, line, key) {
                Attempt::Done(reply, kind) => {
                    fleet
                        .counters
                        .forwarded_total
                        .fetch_add(1, Ordering::Relaxed);
                    return (reply, kind);
                }
                Attempt::Overloaded(reply) => {
                    last_overloaded = Some(reply);
                }
                Attempt::Failed => {
                    fleet
                        .counters
                        .failovers_total
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            if svc.draining() && round > 0 {
                // Draining: stop the backoff dance after the current
                // sweep so shutdown is not held up by a dead backend.
                break;
            }
        }
    }
    // Exhausted. If some live backend answered `overloaded`, forward
    // that — it is the truthful state of the fleet and tells the client
    // to retry later. Otherwise nobody answered at all: `unavailable`.
    if let Some(reply) = last_overloaded {
        fleet
            .counters
            .forwarded_total
            .fetch_add(1, Ordering::Relaxed);
        return (reply, ReplyKind::Overloaded);
    }
    fleet
        .counters
        .unavailable_total
        .fetch_add(1, Ordering::Relaxed);
    let reply = error_response(
        id,
        &ProtoError::new(
            ErrorCode::Unavailable,
            format!(
                "no backend could answer after {} round(s) over {} candidate(s)",
                config.max_retries + 1,
                candidates.len()
            ),
        ),
    )
    .encode();
    (reply, ReplyKind::Other)
}

/// `register`: compute the content id router-side (the same FNV the
/// backends use, so ids agree), cache the registration for failover,
/// then register on the owner plus `replicas - 1` successors. The first
/// successful backend reply is forwarded verbatim.
#[allow(clippy::too_many_arguments)]
fn register_fanout(
    fleet: &Fleet,
    reply: &ReplyHandle,
    id: Option<&Json>,
    name: String,
    format: String,
    source: String,
    delay: u32,
    raw_line: &str,
) {
    let cid = content_id(&format, delay, &source);
    fleet
        .reg_cache
        .lock()
        .expect("reg cache lock poisoned")
        .insert(
            cid.clone(),
            RegEntry {
                name,
                format,
                source,
                delay,
                route: cid.clone(),
                patches: Vec::new(),
            },
            fleet.config.reg_cache_cap,
        );
    let candidates = fleet.candidates(&cid);
    let replicas = fleet.config.replicas.clamp(1, candidates.len());
    let mut first_reply: Option<String> = None;
    let mut placed = 0usize;
    for &index in &candidates {
        let backend = &fleet.backends[index];
        if !backend.breaker().admit() {
            continue;
        }
        match backend.rpc(raw_line) {
            Ok(line) => {
                if first_reply.is_none() {
                    first_reply = Some(line);
                }
                placed += 1;
                if placed == replicas {
                    break;
                }
            }
            Err(_) => {
                fleet
                    .counters
                    .failovers_total
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    match first_reply {
        Some(line) => {
            fleet
                .counters
                .forwarded_total
                .fetch_add(1, Ordering::Relaxed);
            reply.send_line(&line);
        }
        None => {
            fleet
                .counters
                .unavailable_total
                .fetch_add(1, Ordering::Relaxed);
            reply.send(&error_response(
                id,
                &ProtoError::new(
                    ErrorCode::Unavailable,
                    "no backend accepted the registration",
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    fn test_backends(addrs: &[&str]) -> Vec<Arc<Backend>> {
        let opts = BackendOpts {
            connect_timeout: Duration::from_millis(100),
            rpc_timeout: Duration::from_millis(100),
            max_line_bytes: 1 << 16,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
        };
        addrs
            .iter()
            .map(|a| Arc::new(Backend::new(a.to_string(), opts)))
            .collect()
    }

    fn test_shared(addrs: &[&str]) -> Fleet {
        let backends = test_backends(addrs);
        let ring = build_ring(&backends);
        Fleet {
            backends,
            ring,
            reg_cache: Mutex::new(RegCache::default()),
            counters: RouterCounters::default(),
            jitter_salt: AtomicU64::new(1),
            config: RouterConfig::default(),
        }
    }

    #[test]
    fn candidates_cover_every_backend_exactly_once() {
        let shared = test_shared(&["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]);
        for key in ["a", "b", "c17", "0123456789abcdef", ""] {
            let order = shared.candidates(key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "key {key:?} covers all backends");
        }
    }

    #[test]
    fn placement_is_deterministic_and_key_dependent() {
        let shared = test_shared(&["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"]);
        let keys: Vec<String> = (0..64).map(|i| format!("circuit-{i}")).collect();
        let first: Vec<usize> = keys.iter().map(|k| shared.candidates(k)[0]).collect();
        let second: Vec<usize> = keys.iter().map(|k| shared.candidates(k)[0]).collect();
        assert_eq!(first, second, "same key, same owner, every time");
        // The 64 keys must not all pile onto one backend.
        let mut load = [0usize; 4];
        for &owner in &first {
            load[owner] += 1;
        }
        assert!(
            load.iter().all(|&n| n > 0),
            "every backend owns something: {load:?}"
        );
    }

    #[test]
    fn ring_is_stable_under_backend_removal() {
        // Consistent hashing's point: keys whose owner survives keep
        // their owner when another backend leaves.
        let four = test_shared(&["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"]);
        let three = test_shared(&["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]);
        let mut moved = 0;
        let mut kept = 0;
        for i in 0..256 {
            let key = format!("net-{i}");
            let owner4 = four.candidates(&key)[0];
            let owner3 = three.candidates(&key)[0];
            if owner4 < 3 {
                if owner3 == owner4 {
                    kept += 1;
                } else {
                    moved += 1;
                }
            }
        }
        assert!(
            kept > moved * 5,
            "surviving owners mostly keep their keys (kept {kept}, moved {moved})"
        );
    }

    /// A root registration entry routed at its own id.
    fn reg(id: &str, name: &str, source: &str) -> RegEntry {
        RegEntry {
            name: name.into(),
            format: "bench".into(),
            source: source.into(),
            delay: 10,
            route: id.into(),
            patches: Vec::new(),
        }
    }

    #[test]
    fn reg_cache_resolves_by_id_and_name_and_evicts_fifo() {
        let mut cache = RegCache::default();
        cache.insert("id-a".into(), reg("id-a", "a", "INPUT(x)"), 2);
        cache.insert("id-b".into(), reg("id-b", "b", "INPUT(y)"), 2);
        assert_eq!(cache.resolve("a").unwrap().0, "id-a");
        assert_eq!(cache.resolve("id-b").unwrap().0, "id-b");
        cache.insert("id-c".into(), reg("id-c", "c", "INPUT(z)"), 2);
        assert!(cache.resolve("id-a").is_none(), "FIFO evicted the oldest");
        assert!(cache.resolve("a").is_none(), "the alias went with it");
        assert!(cache.resolve("b").is_some());
        assert!(cache.resolve("c").is_some());
    }

    #[test]
    fn reg_cache_patch_chains_route_at_the_root_and_replay_in_order() {
        let mut cache = RegCache::default();
        cache.insert("root".into(), reg("root", "c", "INPUT(x)"), 8);
        let p1 = r#"{"op":"patch","circuit":"root","edits":[{"gate":"y","delay":20}]}"#;
        cache.insert_patched("root", "child1".into(), None, p1.into(), 8);
        let (id, entry) = cache.resolve("child1").expect("patched id resolves");
        assert_eq!(id, "child1");
        assert_eq!(entry.route, "root");
        assert_eq!(
            entry.replay_lines().len(),
            2,
            "register + one patch line replay"
        );
        assert!(entry.replay_lines()[1].contains("\"op\":\"patch\""));
        // A nameless patch must not rebind the parent's name alias.
        assert_eq!(cache.resolve("c").unwrap().0, "root");
        // A named patch binds its own alias; the chain keeps growing.
        let p2 = r#"{"op":"patch","circuit":"child1","edits":[{"gate":"y","delay":30}]}"#;
        cache.insert_patched("child1", "child2".into(), Some("c-v2"), p2.into(), 8);
        let (id, entry) = cache.resolve("c-v2").expect("alias resolves");
        assert_eq!(id, "child2");
        assert_eq!(entry.route, "root");
        assert_eq!(entry.replay_lines().len(), 3);
        assert_eq!(cache.resolve("c").unwrap().0, "root", "root alias intact");
        // Patching an unknown parent is a silent no-op (nothing to chain).
        cache.insert_patched("ghost", "childx".into(), None, p1.into(), 8);
        assert!(cache.resolve("childx").is_none());
    }

    #[test]
    fn register_line_round_trips_through_the_parser() {
        let entry = RegEntry {
            delay: 7,
            ..reg("id", "c17", "INPUT(1)\nOUTPUT(2)\n2 = NOT(1)")
        };
        let parsed = Request::parse(&decode(&entry.register_line()).unwrap()).unwrap();
        match parsed.body {
            RequestBody::Register {
                name,
                format,
                source,
                delay,
            } => {
                assert_eq!(name, "c17");
                assert_eq!(format, "bench");
                assert_eq!(source, "INPUT(1)\nOUTPUT(2)\n2 = NOT(1)");
                assert_eq!(delay, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classify_reads_error_codes_without_touching_the_text() {
        assert!(matches!(
            classify(r#"{"ok":false,"error":{"code":"overloaded","message":"m"}}"#),
            ReplyKind::Overloaded
        ));
        assert!(matches!(
            classify(r#"{"ok":false,"error":{"code":"unknown_circuit","message":"m"}}"#),
            ReplyKind::UnknownCircuit
        ));
        assert_eq!(classify(r#"{"ok":true,"op":"check"}"#), ReplyKind::Ok);
        assert_eq!(
            classify(r#"{"ok":true,"op":"patch","id":"abc"}"#),
            ReplyKind::Ok
        );
        assert_eq!(
            classify(r#"{"ok":false,"error":{"code":"bad_request","message":"m"}}"#),
            ReplyKind::Other
        );
        assert_eq!(classify(r#"{"op":"check"}"#), ReplyKind::Other);
        assert_eq!(classify("not json"), ReplyKind::Other);
    }
}
