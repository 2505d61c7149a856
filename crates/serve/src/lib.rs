//! `ltt-serve` — a persistent timing-verification service.
//!
//! Every CLI invocation re-parses the netlist and re-derives all
//! per-circuit analyses before answering a single check `σ = (ξ, s, δ)`.
//! A serving workload inverts the ratio: the circuit is uploaded **once**
//! and then queried thousands of times, so the expensive part
//! (implication tables, SCOAP, arrival times, dominators, the base
//! fixpoint — everything a [`ltt_core::CheckSession`] caches) should be
//! paid once per circuit, not once per request.
//!
//! The service is a std-only TCP daemon speaking a **newline-delimited
//! JSON** protocol (one request object per line, one response object per
//! line; see [`wire`] for the hand-rolled encoder/decoder and [`proto`]
//! for the request grammar):
//!
//! * [`registry`] — a content-hashed, LRU-bounded **circuit registry**.
//!   `register` uploads a `.bench`/`.v` netlist; the entry owns a shared
//!   [`CheckSession`](ltt_core::CheckSession) so every later request
//!   reuses the same prepared analyses. Re-registering identical content
//!   is a cache hit (no re-parse, no re-prepare).
//! * `service` — the skeleton both serving tiers run on: the accept
//!   loop, one reader thread per connection, a bounded worker pool with
//!   **admission control** (a full queue yields a structured
//!   `overloaded` reply instead of unbounded buffering), disconnect
//!   cancellation through the [`CancelToken`](ltt_core::CancelToken)
//!   plumbing, graceful drain on `shutdown` (in-flight and queued work
//!   completes, new work is refused), and the shared `status`/`metrics`
//!   counters.
//! * [`server`] — the daemon on that skeleton: registry operations and
//!   the check, delay and patch jobs.
//! * [`client`] — a small blocking client used by `ltt client`, the
//!   `loadgen` load generator, and the integration tests.
//! * [`router`] — a fault-tolerant **sharded-fleet front tier** on the
//!   same skeleton: consistent-hash placement over N backends,
//!   per-backend circuit breakers and health probes, backoff retry with
//!   failover re-registration, and graceful drain — speaking the same wire
//!   protocol, forwarding backend replies verbatim so the bit-identity
//!   contract survives the extra hop ([`backend`] holds the pooled
//!   per-backend transport).
//! * [`metrics`] — Prometheus-text exposition primitives: the lock-free
//!   latency [`Histogram`] behind both tiers' `metrics` operation and
//!   the shared [`percentile`] helper.
//!
//! Verdicts served over the socket are **bit-identical** to running the
//! same checks in-process with [`BatchRunner`](ltt_core::BatchRunner):
//! each request executes on the shared session through the same
//! deterministic batch engine, so serving changes latency and throughput,
//! never answers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod client;
mod lineio;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod router;
pub mod server;
mod service;
pub mod wire;

pub use backend::{Backend, BackendOpts, Breaker, RpcError};
pub use client::{is_timeout, Client};
pub use metrics::{percentile, Histogram};
pub use proto::{CheckSet, EditSpec, ErrorCode, ProtoError, Request, RequestBody, RunOpts};
pub use registry::{
    content_id, patched_id, session_config, CircuitEntry, CircuitRegistry, PatchOutcome,
    RegistryStats,
};
pub use router::{route, Router, RouterConfig, RouterHandle};
pub use server::{serve, ServeConfig, Server, ServerHandle};
pub use wire::{decode, Json, WireError};
