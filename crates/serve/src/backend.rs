//! One `ltt-serve` backend as the router sees it: pooled connections,
//! a circuit breaker, a health flag, and transport counters.
//!
//! The unit of work is [`Backend::rpc`] — one raw request line out, one
//! raw reply line back. Replies travel **verbatim**: the router never
//! re-encodes what a backend said, which is what makes the fleet's
//! bit-identity contract (a served reply equals a direct
//! [`BatchRunner`](ltt_core::BatchRunner) run) trivially inherited from
//! the single-daemon contract.
//!
//! A connection is returned to the pool only after a fully successful
//! round trip. Any error — connect, write, read, timeout, oversize reply
//! — drops the connection on the floor: a stream whose framing state is
//! unknown can never be reused, or a stale buffered reply would be
//! mis-correlated with the next request.
//!
//! The [`Breaker`] tracks *transport* outcomes only. A structured
//! `overloaded` reply is a transport **success** (the backend is alive
//! and explicitly shedding); tripping the breaker on it would take a
//! healthy-but-busy backend out of rotation exactly when its load is
//! about to drop.

use crate::lineio::{CappedLineReader, LineRead};
use crate::metrics::Histogram;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Connections kept warm per backend. More than this many concurrent
/// round trips simply dial extra short-lived connections.
const POOL_CAP: usize = 8;

/// Why one [`Backend::rpc`] round trip failed.
#[derive(Debug)]
pub enum RpcError {
    /// Could not establish a connection (refused, unroutable, or the
    /// connect timeout expired).
    Connect(std::io::Error),
    /// The connection died mid-round-trip (write error, read error, or
    /// EOF before a reply line).
    Io(std::io::Error),
    /// The backend stayed silent past the rpc timeout.
    Timeout,
    /// The backend's reply line exceeded the line cap (a protocol bug or
    /// a corrupted stream; never reusable).
    TooLarge,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Connect(e) => write!(f, "connect failed: {e}"),
            RpcError::Io(e) => write!(f, "connection failed: {e}"),
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::TooLarge => write!(f, "reply line exceeded the line cap"),
        }
    }
}

/// Transport tuning shared by every backend of one router.
#[derive(Clone, Copy, Debug)]
pub struct BackendOpts {
    /// Bound on connection establishment.
    pub connect_timeout: Duration,
    /// Bound on one request/reply round trip's silent time.
    pub rpc_timeout: Duration,
    /// Reply-line length cap.
    pub max_line_bytes: usize,
    /// Consecutive transport failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses traffic before half-opening.
    pub breaker_cooldown: Duration,
}

/// One pooled connection: the reader half is capped (a corrupt backend
/// must not balloon the router), the writer half is the same socket.
struct Conn {
    reader: CappedLineReader<BufReader<TcpStream>>,
    writer: TcpStream,
}

/// The circuit-breaker state machine: `Closed` (normal) → `Open` after
/// K consecutive transport failures (all traffic refused for a cooldown)
/// → `HalfOpen` (exactly one probe request through) → `Closed` on probe
/// success, back to `Open` on probe failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    /// When an `Open` breaker may half-open.
    open_until: Instant,
    consecutive_failures: u32,
}

/// A per-backend circuit breaker: `Closed` → `Open` after K consecutive
/// transport failures → `HalfOpen` (one probe) → `Closed` or `Open`.
pub struct Breaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown: Duration,
    opened_total: AtomicU64,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                open_until: Instant::now(),
                consecutive_failures: 0,
            }),
            threshold: threshold.max(1),
            cooldown,
            opened_total: AtomicU64::new(0),
        }
    }

    /// Whether a request may go to this backend right now. An expired
    /// `Open` flips to `HalfOpen` and admits exactly the caller as the
    /// probe; further callers are refused until the probe's outcome is
    /// recorded.
    pub fn admit(&self) -> bool {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if Instant::now() >= inner.open_until {
                    inner.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&self) {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
    }

    fn record_failure(&self) {
        let mut inner = self.inner.lock().expect("breaker lock poisoned");
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = inner.state == BreakerState::HalfOpen
            || (inner.state == BreakerState::Closed
                && inner.consecutive_failures >= self.threshold);
        if trip {
            inner.state = BreakerState::Open;
            inner.open_until = Instant::now() + self.cooldown;
            self.opened_total.fetch_add(1, Ordering::Relaxed);
        } else if inner.state == BreakerState::Open {
            // A failure while already open (e.g. a late health probe)
            // extends the cooldown rather than re-counting a trip.
            inner.open_until = Instant::now() + self.cooldown;
        }
    }

    /// Metric encoding of the state: 0 closed, 1 open, 2 half-open.
    pub fn state_code(&self) -> u64 {
        match self.inner.lock().expect("breaker lock poisoned").state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Times the breaker has transitioned to `Open`.
    pub fn opened_total(&self) -> u64 {
        self.opened_total.load(Ordering::Relaxed)
    }
}

/// A managed backend: address, connection pool, breaker, health flag,
/// and transport counters (all shared-reference friendly; the router
/// holds backends in `Arc`s).
pub struct Backend {
    addr: String,
    opts: BackendOpts,
    pool: Mutex<Vec<Conn>>,
    breaker: Breaker,
    healthy: AtomicBool,
    rpcs_total: AtomicU64,
    errors_total: AtomicU64,
    latency: Histogram,
}

impl Backend {
    /// A new backend at `addr`, starting healthy with a closed breaker.
    pub fn new(addr: impl Into<String>, opts: BackendOpts) -> Backend {
        Backend {
            addr: addr.into(),
            opts,
            pool: Mutex::new(Vec::new()),
            breaker: Breaker::new(opts.breaker_threshold, opts.breaker_cooldown),
            healthy: AtomicBool::new(true),
            rpcs_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }

    /// The backend's address (also its metric label and its failpoint
    /// context in chaos tests).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The breaker (the router gates request traffic on
    /// [`Breaker::admit`]; health probes bypass it so a recovered backend
    /// can heal the breaker).
    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// Last health-probe verdict (written by the router's health thread).
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Records a health-probe verdict.
    pub fn set_healthy(&self, healthy: bool) {
        self.healthy.store(healthy, Ordering::Relaxed);
    }

    /// Round trips completed or failed.
    pub fn rpcs_total(&self) -> u64 {
        self.rpcs_total.load(Ordering::Relaxed)
    }

    /// Round trips that failed at the transport level.
    pub fn errors_total(&self) -> u64 {
        self.errors_total.load(Ordering::Relaxed)
    }

    /// Round-trip latency of successful rpcs.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// One request line out, one reply line back (both without trailing
    /// newline). Records the transport outcome on the breaker and the
    /// counters. A pooled connection that fails is retried once on a
    /// fresh dial before the failure counts — an idle pooled stream may
    /// have been closed by the peer without that saying anything about
    /// the backend's present health.
    pub fn rpc(&self, line: &str) -> Result<String, RpcError> {
        self.rpcs_total.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let mut attempt = 0;
        let result = loop {
            attempt += 1;
            let (conn, pooled) = match self.checkout() {
                Ok(pair) => pair,
                Err(e) => break Err(e),
            };
            match self.round_trip(conn, line) {
                Ok(reply) => break Ok(reply),
                // A dead *pooled* stream gets one fresh-dial retry; a
                // fresh stream's failure is the backend's answer.
                Err(e) => {
                    if !(pooled && attempt == 1) {
                        break Err(e);
                    }
                }
            }
        };
        match &result {
            Ok(_) => {
                self.latency.observe(started.elapsed());
                self.breaker.record_success();
            }
            Err(_) => {
                self.errors_total.fetch_add(1, Ordering::Relaxed);
                self.breaker.record_failure();
            }
        }
        result
    }

    /// A pooled connection if one is warm, else a fresh dial. The bool
    /// says which.
    fn checkout(&self) -> Result<(Conn, bool), RpcError> {
        if let Some(conn) = self.pool.lock().expect("pool lock poisoned").pop() {
            return Ok((conn, true));
        }
        let mut last_err = None;
        let resolved = self
            .addr
            .to_socket_addrs()
            .map_err(RpcError::Connect)?
            .collect::<Vec<_>>();
        for addr in resolved {
            match TcpStream::connect_timeout(&addr, self.opts.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(self.opts.rpc_timeout))
                        .map_err(RpcError::Connect)?;
                    let writer = stream.try_clone().map_err(RpcError::Connect)?;
                    return Ok((
                        Conn {
                            reader: CappedLineReader::new(
                                BufReader::new(stream),
                                self.opts.max_line_bytes,
                            ),
                            writer,
                        },
                        false,
                    ));
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(RpcError::Connect(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })))
    }

    /// Writes the request, reads exactly one reply line, and returns the
    /// connection to the pool — only on full success.
    fn round_trip(&self, mut conn: Conn, line: &str) -> Result<String, RpcError> {
        conn.writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.writer.write_all(b"\n"))
            .and_then(|()| conn.writer.flush())
            .map_err(RpcError::Io)?;
        loop {
            match conn.reader.read_line().map_err(RpcError::Io)? {
                LineRead::Line(reply) => {
                    if reply.trim().is_empty() {
                        continue;
                    }
                    let mut pool = self.pool.lock().expect("pool lock poisoned");
                    if pool.len() < POOL_CAP {
                        pool.push(conn);
                    }
                    return Ok(reply);
                }
                // The socket's read timeout IS the rpc timeout, so one
                // TimedOut here means the backend went silent too long.
                LineRead::TimedOut => return Err(RpcError::Timeout),
                LineRead::TooLarge => return Err(RpcError::TooLarge),
                LineRead::Eof => {
                    return Err(RpcError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "backend closed the connection before replying",
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> Breaker {
        Breaker::new(3, Duration::from_millis(40))
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let b = breaker();
        assert!(b.admit());
        b.record_failure();
        b.record_failure();
        assert!(b.admit(), "below threshold stays closed");
        b.record_failure();
        assert_eq!(b.state_code(), 1);
        assert!(!b.admit(), "open breaker refuses traffic");
        assert_eq!(b.opened_total(), 1);
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = breaker();
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert!(b.admit(), "count restarted after a success");
        assert_eq!(b.opened_total(), 0);
    }

    #[test]
    fn open_breaker_half_opens_once_after_cooldown() {
        let b = breaker();
        for _ in 0..3 {
            b.record_failure();
        }
        assert!(!b.admit());
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.admit(), "cooldown expired: one probe admitted");
        assert_eq!(b.state_code(), 2);
        assert!(!b.admit(), "only one probe until its outcome is known");
        // Probe success closes; the backend is back in rotation.
        b.record_success();
        assert_eq!(b.state_code(), 0);
        assert!(b.admit());
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = breaker();
        for _ in 0..3 {
            b.record_failure();
        }
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.admit());
        b.record_failure();
        assert_eq!(b.state_code(), 1, "failed probe re-opens immediately");
        assert!(!b.admit());
    }

    #[test]
    fn rpc_against_nothing_is_a_connect_error_and_counts() {
        // Bind-then-drop guarantees an unused port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let backend = Backend::new(
            format!("127.0.0.1:{port}"),
            BackendOpts {
                connect_timeout: Duration::from_millis(200),
                rpc_timeout: Duration::from_millis(200),
                max_line_bytes: 1 << 16,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(5),
            },
        );
        assert!(matches!(
            backend.rpc("{\"op\":\"status\"}"),
            Err(RpcError::Connect(_))
        ));
        assert!(matches!(
            backend.rpc("{\"op\":\"status\"}"),
            Err(RpcError::Connect(_))
        ));
        assert_eq!(backend.rpcs_total(), 2);
        assert_eq!(backend.errors_total(), 2);
        assert!(!backend.breaker().admit(), "two failures tripped K=2");
    }
}
