//! Deterministic discrete-event chaos simulator.
//!
//! The threaded [`MtServer`](crate::MtServer) proves the concurrency story
//! (no panics, no lost requests) but its event interleaving — and hence
//! which submissions hit a full queue — depends on OS scheduling. This
//! module runs the *same* [`ladder`] behind the same admission control on
//! the `kernel`'s virtual clock, so a chaos run is a pure function of its
//! configuration: same seed ⇒ byte-for-byte identical
//! [`EventLog::render`] output. That is the artifact the chaos suite and
//! the CI `replay` job diff across runs.

use crate::backoff::RetryPolicy;
use crate::event::{EventKind, EventLog, Script, ServerStats};
use crate::fault::{splitmix64, FaultPlan};
use crate::kernel::{self, pct, sim_rows, Clock, Scenario, FULL_SERVICE_NS, SUBSET_SERVICE_NS};
use crate::ladder::{self, Seam};
use asqp_db::DbResult;

/// Configuration of one simulated chaos run. Faults are
/// [`FaultPlan::chaos`] of the seed, retries [`RetryPolicy::chaos`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seeds the fault plan, the routing and the row counts.
    pub seed: u64,
    /// Total client requests injected.
    pub requests: u64,
    pub workers: usize,
    pub queue_depth: usize,
}

/// Percentage (0–100) of requests hash-routed to the subset.
const SUBSET_PCT: u8 = 50;
/// Virtual gap between consecutive arrivals.
const INTER_ARRIVAL_NS: u64 = 30_000;

impl SimConfig {
    /// The reference chaos scenario: 64 clients against a 4-worker pool
    /// under [`FaultPlan::chaos`] — arrivals fast enough to exercise
    /// queueing and (for small depths) admission rejections.
    pub fn chaos(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            requests: 64,
            workers: 4,
            queue_depth: 16,
        }
    }
}

/// Outcome of a simulated run.
#[derive(Debug)]
pub struct SimReport {
    pub stats: ServerStats,
    pub log: EventLog,
    /// Virtual time at which the last request resolved.
    pub makespan_ns: u64,
}

impl SimReport {
    /// Canonical transcript (see [`EventLog::render`]) plus a summary
    /// footer — the unit the chaos suite diffs byte-for-byte.
    pub fn render(&self) -> String {
        let s = &self.stats;
        format!(
            "{}summary admitted={} rejected={} subset={} full={} degraded={} retries={} makespan_ns={}\n",
            self.log.render(),
            s.admitted,
            s.rejected,
            s.resolved_subset,
            s.resolved_full,
            s.degraded,
            s.retries,
            self.makespan_ns
        )
    }
}

/// The one-shard scenario: every request is logged under its own id.
struct Chaos<'a> {
    cfg: &'a SimConfig,
    faults: &'a FaultPlan,
    report: SimReport,
}

impl Chaos<'_> {
    fn script(&mut self, request: u64, seq: u32) -> Script<'_> {
        Script {
            log: &mut self.report.log,
            stats: &mut self.report.stats,
            request,
            seq,
        }
    }
}

impl Scenario for Chaos<'_> {
    type Job = u64;

    fn admit(&mut self, &request: &u64, _: u64) {
        self.script(request, 0).note(EventKind::Admitted);
    }

    fn reject(&mut self, request: u64, _: u64) {
        let depth = self.cfg.queue_depth;
        self.script(request, 0).note(EventKind::Rejected { depth });
    }

    fn serve(&mut self, request: u64, admitted_ns: u64, now: u64) -> u64 {
        let (seed, faults) = (self.cfg.seed, self.faults);
        let mut seam = VirtualRequest {
            clock: Clock::start(admitted_ns, now),
            rows: sim_rows(seed, request),
            script: self.script(request, 1), // seq 0 is the admission
        };
        // Hash routing, like `MirrorBackend`'s but keyed by request id.
        let answerable = pct(splitmix64(seed ^ splitmix64(request ^ 0x5e1f)), SUBSET_PCT);
        // The simulated backend never fails, so neither does the ladder.
        let retry = RetryPolicy::chaos();
        let _ = ladder::serve(&mut seam, &retry, faults, request, answerable);
        let done = seam.clock.now;
        self.report.makespan_ns = self.report.makespan_ns.max(done);
        done
    }
}

/// The ladder's seam on virtual time: work costs the kernel's fixed service
/// time and every note goes to the transcript.
struct VirtualRequest<'a> {
    clock: Clock,
    rows: usize,
    script: Script<'a>,
}

impl Seam for VirtualRequest<'_> {
    type Rows = usize;

    fn remaining_ns(&mut self) -> u64 {
        self.clock.remaining_ns()
    }

    fn pause(&mut self, ns: u64) {
        self.clock.now += ns;
    }

    fn subset(&mut self) -> DbResult<usize> {
        self.clock.now += SUBSET_SERVICE_NS;
        Ok(self.rows)
    }

    fn full(&mut self) -> DbResult<usize> {
        self.clock.now += FULL_SERVICE_NS;
        Ok(self.rows)
    }

    fn row_count(rows: &usize) -> usize {
        *rows
    }

    fn note(&mut self, kind: EventKind) {
        self.script.note(kind);
    }
}

/// Run one simulated chaos scenario. Pure: identical configs produce
/// identical reports.
pub fn run_sim(cfg: &SimConfig) -> SimReport {
    let faults = FaultPlan::chaos(cfg.seed);
    let mut chaos = Chaos {
        cfg,
        faults: &faults,
        report: SimReport {
            stats: ServerStats::default(),
            log: EventLog::new(),
            makespan_ns: 0,
        },
    };
    let arrivals = (0..cfg.requests).map(|r| (r * INTER_ARRIVAL_NS, r));
    let (workers, depth) = (cfg.workers, cfg.queue_depth);
    kernel::run(&mut chaos, 1, workers, depth, &faults, arrivals);
    chaos.report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_renders_identically() {
        let cfg = SimConfig::chaos(1234);
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        assert_eq!(a.render(), b.render());
        assert!(!a.log.is_empty());
    }

    #[test]
    fn different_seeds_render_differently() {
        let a = run_sim(&SimConfig::chaos(1));
        let b = run_sim(&SimConfig::chaos(2));
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn every_admitted_request_resolves() {
        for seed in [0u64, 7, 99, 12345] {
            let r = run_sim(&SimConfig::chaos(seed));
            let s = &r.stats;
            assert_eq!(s.admitted + s.rejected, 64, "seed {seed}");
            assert_eq!(
                s.resolved_subset + s.resolved_full + s.degraded,
                s.admitted,
                "seed {seed}: all admitted requests must resolve"
            );
        }
    }

    #[test]
    fn chaos_actually_degrades_and_retries_somewhere() {
        // Across a handful of seeds the chaos profile must exercise the
        // interesting paths — otherwise the suite tests nothing.
        let mut degraded = 0;
        let mut retries = 0;
        for seed in 0..8u64 {
            let r = run_sim(&SimConfig::chaos(seed));
            degraded += r.stats.degraded;
            retries += r.stats.retries;
        }
        assert!(degraded > 0, "no degradations across seeds");
        assert!(retries > 0, "no retries across seeds");
    }

    #[test]
    fn tiny_queue_rejects_under_burst() {
        // One worker takes longer per full-routed request than the 30 µs
        // between arrivals.
        let cfg = SimConfig {
            queue_depth: 2,
            workers: 1,
            ..SimConfig::chaos(5)
        };
        let r = run_sim(&cfg);
        assert!(
            r.stats.rejected > 0,
            "burst against depth-2 queue must shed load"
        );
    }
}
