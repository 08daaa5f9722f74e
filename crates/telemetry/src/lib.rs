//! # asqp-telemetry — tracing and metrics for the ASQP-RL pipeline
//!
//! A dependency-free (vendored serde/serde_json only) measurement substrate
//! shared by every layer of the workspace: the vectorized executor, the PPO
//! trainer and the §4.4 inference session all emit through the free
//! functions in this crate, and a pluggable [`Recorder`] decides what the
//! emissions cost.
//!
//! ## Design
//!
//! * **Spans** — hierarchical, monotonic wall-clock timings. [`span`]
//!   returns an RAII guard; nested guards on the same thread form a tree
//!   (per-thread span stacks, so shard/rollout worker threads get their own
//!   roots). Aggregated per unique path: one node per `(parent, name)` with
//!   call count, total/min/max nanoseconds.
//! * **Counters** — monotonically increasing `u64` sums ([`counter`]):
//!   rows scanned, morsels pruned, queries routed.
//! * **Gauges** — last-value-wins `f64` with min/max/count ([`gauge`]):
//!   losses, throughputs.
//! * **Histograms** — fixed-bucket latency distributions ([`observe_ns`]):
//!   13 buckets with boundaries at 1·4ⁿ µs (see
//!   [`HISTOGRAM_BOUNDS_NS`]), plus exact min/max and estimated
//!   p50/p90/p99.
//!
//! ## Cost model
//!
//! When no recorder is installed (the default), every free function is a
//! single relaxed atomic load and a branch — no allocation, no clock read,
//! no locking. With the [`MemoryRecorder`] installed, emissions take a
//! mutex; instrumentation in hot code is therefore *coarse* (per query / per
//! scan / per shard), never per row, and the `e2e` benchmark reports what it
//! costs as `telemetry.overhead_share`.
//!
//! ## Usage
//!
//! ```
//! use asqp_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! let rec = Arc::new(telemetry::MemoryRecorder::new());
//! telemetry::scoped(rec.clone(), || {
//!     let _q = telemetry::span("db.execute");
//!     telemetry::counter("db.scan.rows_out", 128);
//!     telemetry::observe_ns("session.latency.subset_ns", 42_000);
//! });
//! let report = rec.report();
//! assert_eq!(report.spans[0].name, "db.execute");
//! assert_eq!(report.counters["db.scan.rows_out"], 128);
//! let json = report.to_json_pretty().unwrap();
//! assert!(json.contains("db.execute"));
//! ```

mod histogram;
mod memory;
mod report;

pub use histogram::{bucket_index, Histogram, HISTOGRAM_BOUNDS_NS, HISTOGRAM_BUCKETS};
pub use memory::MemoryRecorder;
pub use report::{GaugeReport, HistogramReport, SpanReport, TelemetryReport};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Sink for telemetry emissions. Implementations must be cheap and
/// thread-safe: emissions arrive concurrently from executor shards and
/// rollout workers.
pub trait Recorder: Send + Sync {
    /// A span named `name` opened on the calling thread.
    fn span_enter(&self, name: &'static str);
    /// The matching close, with the span's monotonic elapsed time.
    /// Implementations must tolerate an exit without a matching enter
    /// (a recorder installed while a span guard was live).
    fn span_exit(&self, name: &'static str, elapsed_ns: u64);
    /// Add `delta` to the counter `name`.
    fn counter(&self, name: &'static str, delta: u64);
    /// Set the gauge `name` to `value`.
    fn gauge(&self, name: &'static str, value: f64);
    /// Record one latency observation into the histogram `name`.
    fn observe_ns(&self, name: &'static str, ns: u64);
}

/// Discards everything. Installing it is equivalent to (and no cheaper
/// than) installing nothing: the global fast path short-circuits first.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn span_enter(&self, _name: &'static str) {}
    fn span_exit(&self, _name: &'static str, _elapsed_ns: u64) {}
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn observe_ns(&self, _name: &'static str, _ns: u64) {}
}

// The enabled flag is the *only* thing the uninstrumented fast path reads;
// the RwLock is touched exclusively when a recorder is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
/// Serializes [`scoped`] sections so concurrent tests cannot observe each
/// other's recorders.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Whether a recorder is installed. Instrumented code uses this to skip
/// *preparing* emissions (clock reads, sums) when nobody is listening.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    let guard = RECORDER.read().unwrap_or_else(|p| p.into_inner());
    if let Some(r) = guard.as_ref() {
        f(r.as_ref());
    }
}

/// Install a recorder process-wide. Every subsequent emission from any
/// thread flows into it until [`uninstall`].
pub fn install(recorder: Arc<dyn Recorder>) {
    let mut guard = RECORDER.write().unwrap_or_else(|p| p.into_inner());
    *guard = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove the installed recorder; emissions return to the near-zero-cost
/// disabled path.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    let mut guard = RECORDER.write().unwrap_or_else(|p| p.into_inner());
    *guard = None;
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Run `f` with `recorder` installed, uninstalling afterwards (also on
/// panic). Scoped sections are serialized process-wide, so concurrent tests
/// each see only their own emissions.
pub fn scoped<T>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    let _lock = SCOPE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    install(recorder);
    let _uninstall = ScopeGuard;
    f()
}

/// RAII span guard returned by [`span`]. Closes (and times) the span when
/// dropped. Inert — holding no clock value at all — when telemetry was
/// disabled at open time.
#[must_use = "a span measures the scope it is held for"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Elapsed time so far, `None` when the span is inert.
    pub fn elapsed(&self) -> Option<Duration> {
        self.start.map(|s| s.elapsed())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_recorder(|r| r.span_exit(self.name, ns));
        }
    }
}

/// Open a span. Use a named binding (`let _span = ...`) so the guard lives
/// to the end of the scope being measured.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None };
    }
    with_recorder(|r| r.span_enter(name));
    Span {
        name,
        start: Some(Instant::now()),
    }
}

/// Run `f` inside a span named `name`.
#[inline]
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Add `delta` to counter `name`.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    with_recorder(|r| r.counter(name, delta));
}

/// Set gauge `name` to `value`.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    with_recorder(|r| r.gauge(name, value));
}

/// Record one latency observation (nanoseconds) into histogram `name`.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    with_recorder(|r| r.observe_ns(name, ns));
}

/// [`observe_ns`] from a [`Duration`].
#[inline]
pub fn observe_duration(name: &'static str, d: Duration) {
    observe_ns(name, d.as_nanos().min(u64::MAX as u128) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emissions_are_inert() {
        assert!(!enabled());
        let s = span("never.recorded");
        assert!(s.elapsed().is_none());
        drop(s);
        counter("never.recorded", 1);
        gauge("never.recorded", 1.0);
        observe_ns("never.recorded", 1);
    }

    #[test]
    fn scoped_uninstalls_on_exit() {
        let rec = Arc::new(MemoryRecorder::new());
        scoped(rec.clone(), || {
            assert!(enabled());
            counter("scoped.count", 2);
        });
        assert!(!enabled());
        counter("scoped.count", 40); // dropped: no recorder
        assert_eq!(rec.report().counters["scoped.count"], 2);
    }

    #[test]
    fn time_wraps_a_span() {
        let rec = Arc::new(MemoryRecorder::new());
        let out = scoped(rec.clone(), || time("timed.block", || 7));
        assert_eq!(out, 7);
        let report = rec.report();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "timed.block");
        assert_eq!(report.spans[0].count, 1);
    }
}
