//! `asqp-serve`: the concurrent session front-end for ASQP-RL.
//!
//! The paper's exploration session is single-user and makes one decision
//! per query: answer from the approximation set or fall back to the full
//! database. This crate turns it into a serving tier for many concurrent
//! analysts, with **one** of each moving part:
//!
//! - [`ladder`] — the only request ladder: route → subset |
//!   full-with-retries → degrade, with per-request deadlines,
//!   retry-with-jittered-backoff for transient full-DB errors, and
//!   timeout-then-degrade semantics (a request the full database cannot
//!   answer in time is answered from the approximation set and tagged
//!   [`ServedSource::DegradedSubset`]). It reads no clock and runs no
//!   query itself; each driver below hands it a [`ladder::Seam`].
//! - [`MtServer`] — the only threaded server: tenants striped across
//!   independent shard pools from one tenant directory behind bounded
//!   admission queues ([`ServeError::Overloaded`] backpressure),
//!   copy-on-write approximation-set sharing per tenant group
//!   (`asqp_core::CowSession`), single-flight shared-scan batching
//!   ([`ScanBatcher`]) keyed by the exact query text, and exact
//!   per-tenant accounting. One session is one tenant on one shard; a
//!   backend that panics fails its own request and the worker lives on.
//! - [`FaultPlan`] — seeded, hash-based fault injection (transient
//!   errors, latency spikes, a stalled worker) whose every decision is a
//!   pure function of `(seed, request, attempt)`.
//! - `kernel` — the only discrete-event kernel: a virtual clock and one
//!   `(time, tie)`-ordered heap over per-shard queues and workers, with
//!   fixed virtual service costs. [`run_sim`] is its one-shard scenario
//!   with a full event transcript; [`run_mt_sim`] its N-shard one,
//!   replaying a generated trace of up to ~10⁶ tenants, grouped by their
//!   trace archetype, into a digest-based transcript. Both replay the
//!   ladder's decisions byte-for-byte across runs and machines; neither
//!   models throughput.
//! - [`run_stream`] — the living-data scenario: a [`LiveBackend`] serves
//!   fault-injected queries while seeded ingest batches and in-place
//!   updates mutate the full database, with periodic data-drift
//!   observations re-materialising the serving view and a write ledger
//!   proving zero lost writes.
//!
//! The `asqp-replay <chaos|mt|stream>` binary prints the three
//! transcripts; the CI `replay` job double-runs and byte-compares them.
//!
//! Telemetry: the server emits `serve.*` counters (admitted, rejected,
//! degraded, retries, resolved.{subset,full}, fatal, tenants,
//! scan.{lead,shared}) and a `serve.queue.depth` gauge through
//! `asqp-telemetry`; the living-data backend adds `serve.stream.*`.

pub mod backend;
pub mod backoff;
pub mod batch;
pub mod error;
pub mod event;
pub mod fault;
mod kernel;
pub mod ladder;
pub mod mt_sim;
pub mod multitenant;
pub mod queue;
pub mod sim;
pub mod stream;
pub mod tenant;

pub use backend::{MirrorBackend, RouteDecision, SessionBackend};
pub use backoff::RetryPolicy;
pub use batch::{ScanBatcher, ScanKey, ScanRole};
pub use error::{Answer, ServeError, ServeResult, ServedSource};
pub use event::{EventKind, EventLog, ServerStats};
pub use fault::{FaultDecision, FaultPlan};
pub use mt_sim::{run_mt_sim, MtSimConfig, MtSimReport};
pub use multitenant::{MtConfig, MtServer, Ticket};
pub use queue::AdmissionQueue;
pub use sim::{run_sim, SimConfig, SimReport};
pub use stream::{
    run_stream, stream_fixture, LiveBackend, StreamConfig, StreamReport, StreamStats,
};
pub use tenant::{StripedAllocator, TenantCounters, TenantId, TenantStats};
