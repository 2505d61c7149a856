//! The service skeleton both serving tiers run on: accept, read, admit,
//! work, drain, and the counters behind `status` and `metrics`.
//!
//! # Architecture
//!
//! One thread per connection **reads**; a fixed pool of worker threads
//! **works**; replies are written through a shared, mutex-guarded clone of
//! the connection's stream, so workers answer while the reader is already
//! blocked on the next line (requests pipeline naturally).
//!
//! The reader frames lines with a [`CappedLineReader`], answers an
//! oversize line with one `too_large` error, and parses the rest. The
//! control operations (`status`, `metrics`, `shutdown`) are answered here;
//! every other request is refused with `shutting_down` while draining and
//! otherwise handed to the [`Tier`], which answers it inline or
//! [`admit`](Service::admit)s a job into the one bounded queue. A full
//! queue yields an immediate structured `overloaded` reply: the service
//! sheds load explicitly instead of buffering unboundedly.
//!
//! Every connection owns a [`CancelToken`]. When the peer disconnects (EOF
//! or a read error) the token fires; a tier that threads it into its jobs
//! (the daemon does, through [`BatchRunner::with_cancel`]) stops spending
//! CPU on a client that is gone.
//!
//! A `shutdown` request (or a handle's `shutdown`) begins a drain: queued
//! and in-flight work completes and is answered, new connections and new
//! work are refused, and [`run`] returns once the pool is idle. Readers
//! poll the drain flag at their 100 ms read-timeout cadence, so a drain
//! completes promptly even with idle connections open.
//!
//! [`BatchRunner::with_cancel`]: ltt_core::BatchRunner::with_cancel

use crate::lineio::{CappedLineReader, LineRead};
use crate::metrics::{render_gauge_f64, render_sample, Histogram};
use crate::proto::{error_response, ok_response, ErrorCode, ProtoError, Request, RequestBody};
use crate::wire::{decode, Json};
use ltt_core::CancelToken;
use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often blocked readers, idle workers and the accept loop re-check
/// the drain flag.
pub(crate) const POLL: Duration = Duration::from_millis(100);

/// The smallest accepted request-line cap, whatever the configuration
/// asks for: a cap below it would refuse ordinary control requests.
const MIN_LINE_BYTES: usize = 1024;

/// The part of a service that differs between the daemon and the router.
pub(crate) trait Tier: Send + Sync + Sized + 'static {
    /// The payload of one admitted job.
    type Work: Send + 'static;
    /// Names the process in refusals and help text (`server`, `router`).
    const ROLE: &'static str;
    /// Prefix of the shared metric families (`ltt`, `ltt_router`).
    const METRICS_PREFIX: &'static str;

    /// Answers one parsed request other than `status`, `metrics` and
    /// `shutdown`, inline or by [`admit`](Service::admit)ting a job. The
    /// skeleton has already refused it if the service is draining.
    fn handle(svc: &Service<Self>, conn: &Conn, line: &str, id: Option<Json>, body: RequestBody);

    /// Executes one admitted job on a worker; returns the reply line.
    /// `id` is the request's correlation id, for the reply to echo.
    fn work(svc: &Service<Self>, work: Self::Work, id: Option<&Json>) -> String;

    /// Adds the tier's own fields to a `status` reply: `fields` is the top
    /// level, `requests` the `requests` object.
    fn status(
        svc: &Service<Self>,
        snap: &Snapshot,
        fields: &mut Vec<(String, Json)>,
        requests: &mut Vec<(&'static str, Json)>,
    );

    /// Appends the tier's own families to a `metrics` body.
    fn metrics(svc: &Service<Self>, snap: &Snapshot, body: &mut String);
}

/// Monotonic counters exposed by `status` and `metrics`.
///
/// Admission-side counters (`submitted`, `overloaded`) are only ever
/// incremented while the queue lock is held, so a snapshot taken under
/// that lock sees a frozen admission frontier; completion-side counters
/// (`completed_ok`, `panicked`) advance freely but only ever for jobs the
/// frozen frontier already admitted. That makes
/// `submitted == overloaded + queued + in_flight + completed_ok + panicked`
/// an invariant of every snapshot, with `in_flight` derived rather than
/// tracked (a separately-updated atomic could disagree with the others).
#[derive(Debug, Default)]
struct Counters {
    connections_total: AtomicU64,
    connections_open: AtomicU64,
    disconnect_cancels: AtomicU64,
    /// Request lines that parsed (any op).
    requests: AtomicU64,
    /// Requests that reached admission control: enqueued or shed.
    submitted: AtomicU64,
    /// Jobs whose work returned normally (a panicking job counts under
    /// `panicked` only, never here).
    completed_ok: AtomicU64,
    overloaded: AtomicU64,
    panicked: AtomicU64,
    /// Request lines refused (before parsing) for exceeding the line cap.
    /// Never admitted, so outside the accounting identity above.
    too_large: AtomicU64,
    /// Request lines that failed to decode or parse. Never admitted.
    bad_request: AtomicU64,
}

/// A coherent point-in-time view of the counters: taken under the queue
/// lock, so the accounting identity documented on [`Counters`] holds
/// exactly in every snapshot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Snapshot {
    pub requests: u64,
    pub submitted: u64,
    pub completed_ok: u64,
    pub panicked: u64,
    pub overloaded: u64,
    pub queued: u64,
    pub in_flight: u64,
    pub too_large: u64,
    pub bad_request: u64,
    pub connections_total: u64,
    pub connections_open: u64,
    pub disconnect_cancels: u64,
}

/// One unit of admitted work, answered through its connection's writer.
struct Job<W> {
    work: W,
    /// The request's correlation id.
    id: Option<Json>,
    reply: ReplyHandle,
}

/// Chaos-relevant identity and state shared by the [`Service`] and every
/// [`ReplyHandle`] (a separate `Arc` so reply handles sitting in queued
/// jobs never keep the whole service alive).
struct ChaosCtx {
    /// Abrupt-death flag (see [`Service::kill`]): suppress replies, tear
    /// connections down, drop pending work unanswered.
    killed: AtomicBool,
    /// The bound address as a string — the failpoint *context* for this
    /// process's chaos sites, so a test can target one backend of an
    /// in-process fleet.
    self_addr: String,
}

/// A writer half shared between the reader thread and the workers; every
/// reply is one locked `write + flush`, so concurrent replies interleave
/// at line granularity, never within a line.
#[derive(Clone)]
pub(crate) struct ReplyHandle {
    stream: Arc<Mutex<TcpStream>>,
    chaos: Arc<ChaosCtx>,
}

impl ReplyHandle {
    /// Sends one response.
    pub fn send(&self, response: &Json) {
        self.send_line(&response.encode());
    }

    /// Sends one already-encoded response line. Write errors are
    /// swallowed: a reply that cannot be delivered means the client is
    /// gone, and the connection's cancel token (driven by the reader's
    /// EOF) already handles that.
    ///
    /// Two chaos paths simulate a crashed process at the worst possible
    /// moment — *after* the work executed, *instead of* replying: a
    /// [`kill`](Service::kill) in progress, and the `serve::drop_reply`
    /// failpoint (context = this service's address). Both tear the
    /// connection down so the peer sees a reset, never a silent hang and
    /// never a wrong answer.
    pub fn send_line(&self, line: &str) {
        let mut stream = self.stream.lock().expect("reply lock poisoned");
        if self.chaos.killed.load(Ordering::Acquire)
            || ltt_core::failpoint::hit_flagged("serve::drop_reply", &self.chaos.self_addr)
        {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let _ = writeln!(stream, "{line}");
        let _ = stream.flush();
    }
}

/// One client connection as the tier sees it: where replies go, and the
/// token that fires when the peer disconnects.
pub(crate) struct Conn {
    pub reply: ReplyHandle,
    pub cancel: CancelToken,
}

/// State shared by the accept loop, readers, workers, and handles.
pub(crate) struct Service<T: Tier> {
    /// The tier's own state.
    pub tier: T,
    queue: Mutex<VecDeque<Job<T::Work>>>,
    job_ready: Condvar,
    draining: AtomicBool,
    chaos: Arc<ChaosCtx>,
    queue_cap: usize,
    max_line_bytes: usize,
    counters: Counters,
    /// Dequeue-to-reply latency of every finished job.
    latency: Histogram,
    started: Instant,
}

impl<T: Tier> Service<T> {
    /// Builds the shared state for a service bound at `self_addr`.
    pub fn new(tier: T, self_addr: String, queue_cap: usize, max_line_bytes: usize) -> Self {
        Service {
            tier,
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            chaos: Arc::new(ChaosCtx {
                killed: AtomicBool::new(false),
                self_addr,
            }),
            queue_cap: queue_cap.max(1),
            max_line_bytes: max_line_bytes.max(MIN_LINE_BYTES),
            counters: Counters::default(),
            latency: Histogram::new(),
            started: Instant::now(),
        }
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn killed(&self) -> bool {
        self.chaos.killed.load(Ordering::Acquire)
    }

    /// Begins a graceful drain (idempotent).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.job_ready.notify_all();
    }

    /// Kills the service abruptly: pending and in-flight work is dropped
    /// *unanswered*, every connection is torn down, and no further reply
    /// leaves the process, exactly as if it crashed.
    pub fn kill(&self) {
        self.chaos.killed.store(true, Ordering::Release);
        // Reuse the drain machinery to wake blocked workers and stop the
        // accept loop; the killed flag turns that "drain" into a crash.
        self.begin_drain();
    }

    /// Takes a coherent counter snapshot (see [`Counters`] for why the
    /// queue lock makes the accounting identity exact).
    pub fn snapshot(&self) -> Snapshot {
        let queue = self.queue.lock().expect("queue lock poisoned");
        let queued = queue.len() as u64;
        let c = &self.counters;
        let submitted = c.submitted.load(Ordering::Relaxed);
        let overloaded = c.overloaded.load(Ordering::Relaxed);
        let completed_ok = c.completed_ok.load(Ordering::Relaxed);
        let panicked = c.panicked.load(Ordering::Relaxed);
        // Everything admitted but neither queued nor finished is on a
        // worker right now. The saturation is belt-and-braces: with the
        // frontier frozen by the lock the subtraction cannot go negative.
        let in_flight = submitted
            .saturating_sub(overloaded)
            .saturating_sub(queued)
            .saturating_sub(completed_ok)
            .saturating_sub(panicked);
        drop(queue);
        Snapshot {
            requests: c.requests.load(Ordering::Relaxed),
            submitted,
            completed_ok,
            panicked,
            overloaded,
            queued,
            in_flight,
            too_large: c.too_large.load(Ordering::Relaxed),
            bad_request: c.bad_request.load(Ordering::Relaxed),
            connections_total: c.connections_total.load(Ordering::Relaxed),
            connections_open: c.connections_open.load(Ordering::Relaxed),
            disconnect_cancels: c.disconnect_cancels.load(Ordering::Relaxed),
        }
    }

    /// Admission control: enqueue `work` or refuse it with `overloaded`.
    ///
    /// `submitted` and `overloaded` advance while the queue lock is still
    /// held: a snapshot taken under that lock must see the admission
    /// frontier and the queue depth agree (incrementing after
    /// `drop(queue)` opens a window where a shed request is visible in
    /// neither counter nor queue, breaking the accounting identity
    /// documented on [`Counters`]).
    pub fn admit(&self, conn: &Conn, id: Option<Json>, work: T::Work) {
        let mut queue = self.queue.lock().expect("queue lock poisoned");
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if queue.len() >= self.queue_cap {
            self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            drop(queue);
            conn.reply.send(&error_response(
                id.as_ref(),
                &ProtoError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "{} queue is full ({} pending); retry later",
                        T::ROLE,
                        self.queue_cap
                    ),
                ),
            ));
            return;
        }
        queue.push_back(Job {
            work,
            id,
            reply: conn.reply.clone(),
        });
        drop(queue);
        self.job_ready.notify_one();
    }

    /// Blocks until a job is queued (`Some`) or the pool should exit
    /// (`None`): drained and empty, or killed.
    fn next_job(&self) -> Option<Job<T::Work>> {
        let mut queue = self.queue.lock().expect("queue lock poisoned");
        loop {
            if self.killed() {
                // Crash semantics: everything still queued dies unanswered
                // (the peers' connections are being torn down; they will
                // observe resets, not replies).
                queue.clear();
                return None;
            }
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.draining() {
                return None;
            }
            queue = self
                .job_ready
                .wait_timeout(queue, POLL)
                .expect("queue lock poisoned")
                .0;
        }
    }

    fn worker_loop(&self) {
        while let Some(Job { work, id, reply }) = self.next_job() {
            let started = Instant::now();
            // Last-resort isolation: the batch engine already catches
            // per-check panics, so tripping this means a harness bug —
            // count it, answer with a structured internal error, keep the
            // worker alive. A panicked job counts under `panicked` ONLY;
            // `completed_ok` means the work returned normally, and the two
            // partition every job a worker finishes (the accounting
            // identity on `Counters` needs exactly-once attribution).
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Chaos site: a `Stall` here simulates a wedged process
                // (a router's rpc timeout must fire); a `Panic` exercises
                // the internal-error path. Context = this service's
                // address, so one backend of an in-process fleet can be
                // hit.
                ltt_core::failpoint::hit("serve::worker", &self.chaos.self_addr);
                T::work(self, work, id.as_ref())
            }));
            self.latency.observe(started.elapsed());
            // Count before replying: a client that receives the reply and
            // immediately asks for `status` must already see this job.
            let line = match outcome {
                Ok(line) => {
                    self.counters.completed_ok.fetch_add(1, Ordering::Relaxed);
                    line
                }
                Err(_) => {
                    self.counters.panicked.fetch_add(1, Ordering::Relaxed);
                    error_response(
                        id.as_ref(),
                        &ProtoError::new(ErrorCode::Internal, "request handler panicked"),
                    )
                    .encode()
                }
            };
            reply.send_line(&line);
        }
    }

    fn serve_connection(&self, stream: TcpStream) {
        let c = &self.counters;
        c.connections_total.fetch_add(1, Ordering::Relaxed);
        c.connections_open.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        if self.read_loop(stream, &cancel) {
            // The peer vanished: abort everything this connection still
            // has queued or running. (A drain-triggered exit is NOT a
            // disconnect — pending work must complete and be answered.)
            cancel.cancel();
            c.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
        }
        c.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reads and dispatches request lines until EOF, a read error, or a
    /// drain. Returns whether the peer disconnected (as opposed to a drain
    /// exit).
    fn read_loop(&self, stream: TcpStream, cancel: &CancelToken) -> bool {
        if stream.set_read_timeout(Some(POLL)).is_err() {
            return true;
        }
        let conn = match stream.try_clone() {
            Ok(w) => Conn {
                reply: ReplyHandle {
                    stream: Arc::new(Mutex::new(w)),
                    chaos: self.chaos.clone(),
                },
                cancel: cancel.clone(),
            },
            Err(_) => return true,
        };
        let mut reader = CappedLineReader::new(BufReader::new(stream), self.max_line_bytes);
        loop {
            match reader.read_line() {
                Ok(LineRead::Line(text)) => {
                    let text = text.trim();
                    if !text.is_empty() {
                        self.dispatch(text, &conn);
                    }
                }
                Ok(LineRead::TooLarge) => {
                    // The oversize line never parsed, so no correlation id
                    // is recoverable. Its remainder is being discarded
                    // (never buffered); the connection stays usable.
                    self.counters.too_large.fetch_add(1, Ordering::Relaxed);
                    conn.reply.send(&error_response(
                        None,
                        &ProtoError::new(
                            ErrorCode::TooLarge,
                            format!(
                                "request line exceeds the {}-byte limit",
                                self.max_line_bytes
                            ),
                        ),
                    ));
                }
                // Timeout mid-wait: any partial line stays buffered inside
                // the reader; the next call resumes where this one stopped.
                Ok(LineRead::TimedOut) => {
                    if self.killed() {
                        return true;
                    }
                    if self.draining() {
                        return false;
                    }
                }
                Ok(LineRead::Eof) | Err(_) => return true,
            }
        }
    }

    /// Parses one request line; answers the control operations and hands
    /// the rest to the tier.
    fn dispatch(&self, text: &str, conn: &Conn) {
        let refuse = |reply: Json| {
            self.counters.bad_request.fetch_add(1, Ordering::Relaxed);
            conn.reply.send(&reply);
        };
        let json = match decode(text) {
            Ok(json) => json,
            // The line never parsed, so no correlation id is recoverable.
            Err(e) => {
                let error = ProtoError::new(ErrorCode::BadRequest, format!("invalid JSON: {e}"));
                return refuse(error_response(None, &error));
            }
        };
        let request = match Request::parse(&json) {
            Ok(request) => request,
            Err(e) => return refuse(error_response(json.get("id"), &e)),
        };
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let id = request.id;
        match request.body {
            RequestBody::Status => conn.reply.send(&self.status(id.as_ref())),
            RequestBody::Metrics => conn.reply.send(&self.metrics(id.as_ref())),
            RequestBody::Shutdown => {
                self.begin_drain();
                conn.reply
                    .send(&ok_response("shutdown", id.as_ref(), vec![]));
            }
            _ if self.draining() => {
                let op = json.get("op").and_then(Json::as_str).unwrap_or_default();
                conn.reply.send(&error_response(
                    id.as_ref(),
                    &ProtoError::new(
                        ErrorCode::ShuttingDown,
                        format!("{} is draining; `{op}` refused", T::ROLE),
                    ),
                ));
            }
            body => T::handle(self, conn, text, id, body),
        }
    }

    fn status(&self, id: Option<&Json>) -> Json {
        let snap = self.snapshot();
        let mut requests = vec![
            ("total", int(snap.requests)),
            ("submitted", int(snap.submitted)),
            ("completed_ok", int(snap.completed_ok)),
            ("in_flight", int(snap.in_flight)),
            ("overloaded", int(snap.overloaded)),
            ("panicked", int(snap.panicked)),
            ("too_large", int(snap.too_large)),
            ("bad_request", int(snap.bad_request)),
        ];
        let mut fields = vec![
            (
                "uptime_ms".to_string(),
                Json::Int(self.started.elapsed().as_millis().min(i64::MAX as u128) as i64),
            ),
            ("draining".to_string(), Json::Bool(self.draining())),
            (
                "queue".to_string(),
                Json::obj([
                    ("depth", int(snap.queued)),
                    ("capacity", int(self.queue_cap as u64)),
                ]),
            ),
            (
                "connections".to_string(),
                Json::obj([
                    ("total", int(snap.connections_total)),
                    ("open", int(snap.connections_open)),
                    ("disconnect_cancels", int(snap.disconnect_cancels)),
                ]),
            ),
        ];
        T::status(self, &snap, &mut fields, &mut requests);
        fields.push(("requests".to_string(), Json::obj(requests)));
        ok_response("status", id, fields)
    }

    /// The `metrics` reply: the same coherent snapshot as `status`,
    /// rendered in Prometheus text exposition format 0.0.4 inside a JSON
    /// envelope (`content_type` + `body`). Scrapers unwrap `body`.
    fn metrics(&self, id: Option<&Json>) -> Json {
        let snap = self.snapshot();
        let p = T::METRICS_PREFIX;
        let role = T::ROLE;
        let mut body = String::new();
        render_gauge_f64(
            &mut body,
            &format!("{p}_uptime_seconds"),
            &format!("seconds since the {role} started"),
            self.started.elapsed().as_secs_f64(),
        );
        for (name, kind, help, value) in [
            (
                "draining",
                "gauge",
                &format!("1 while the {role} is draining after shutdown") as &str,
                u64::from(self.draining()),
            ),
            (
                "requests_total",
                "counter",
                "request lines parsed (any op)",
                snap.requests,
            ),
            (
                "requests_submitted_total",
                "counter",
                "requests that reached admission control (enqueued or shed)",
                snap.submitted,
            ),
            (
                "requests_completed_total",
                "counter",
                "jobs whose work returned normally",
                snap.completed_ok,
            ),
            (
                "requests_panicked_total",
                "counter",
                "jobs whose work panicked (answered with an internal error)",
                snap.panicked,
            ),
            (
                "requests_shed_total",
                "counter",
                "requests refused at admission because the queue was full",
                snap.overloaded,
            ),
            (
                "requests_in_flight",
                "gauge",
                "jobs currently executing on workers",
                snap.in_flight,
            ),
            (
                "queue_depth",
                "gauge",
                "admitted jobs waiting for a worker",
                snap.queued,
            ),
            (
                "queue_capacity",
                "gauge",
                "admission bound beyond which requests are shed",
                self.queue_cap as u64,
            ),
            (
                "connections_total",
                "counter",
                "connections accepted since start",
                snap.connections_total,
            ),
            (
                "connections_open",
                "gauge",
                "connections currently open",
                snap.connections_open,
            ),
            (
                "disconnect_cancels_total",
                "counter",
                "connections whose peer disconnected, cancelling their work",
                snap.disconnect_cancels,
            ),
        ] {
            render_sample(&mut body, &format!("{p}_{name}"), kind, help, value);
        }
        self.latency.render(
            &mut body,
            &format!("{p}_request_duration_seconds"),
            "latency from dequeue to reply of finished jobs",
        );
        T::metrics(self, &snap, &mut body);
        ok_response(
            "metrics",
            id,
            vec![
                (
                    "content_type".to_string(),
                    Json::str("text/plain; version=0.0.4"),
                ),
                ("body".to_string(), Json::str(body)),
            ],
        )
    }
}

/// A counter as a JSON integer, saturating rather than wrapping negative.
pub(crate) fn int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Serves `svc` on `listener` with `workers` worker threads until a drain
/// completes: accepts connections, spawns one reader per connection, and
/// returns once every queued and in-flight job has been answered and every
/// thread has been joined. An accept error other than `WouldBlock` begins
/// the drain too, so nothing is left running; it is returned after the
/// join.
pub(crate) fn run<T: Tier>(
    svc: &Arc<Service<T>>,
    listener: TcpListener,
    workers: usize,
) -> std::io::Result<()> {
    let workers: Vec<_> = (0..workers.max(1))
        .map(|_| {
            let svc = svc.clone();
            std::thread::spawn(move || svc.worker_loop())
        })
        .collect();
    let mut readers = Vec::new();
    let accepted = listener.set_nonblocking(true).and_then(|()| loop {
        if svc.draining() {
            break Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // One-line replies must leave now, not after Nagle and the
                // peer's delayed ACK agree (a ~40 ms tax per RPC).
                stream.set_nodelay(true).ok();
                let svc = svc.clone();
                readers.push(std::thread::spawn(move || svc.serve_connection(stream)));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => break Err(e),
        }
    });
    svc.begin_drain();
    // Close the listening socket immediately: from here on a connection
    // attempt is refused at the OS level, not parked in a backlog the
    // drain will never answer.
    drop(listener);
    // Workers exit once the queue is empty; readers notice the flag
    // within one read-timeout tick.
    for worker in workers {
        let _ = worker.join();
    }
    for reader in readers {
        let _ = reader.join();
    }
    accepted
}
