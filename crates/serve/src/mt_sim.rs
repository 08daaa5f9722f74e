//! Deterministic multi-tenant ladder replay.
//!
//! Replays a generated trace of up to ~10⁶ simulated tenants — every
//! arrival time, request count, plan shape, archetype and fault a pure
//! hash of the seed — through the same `kernel` and [`ladder`] as the
//! one-shard chaos replay ([`run_sim`](crate::run_sim)), with the
//! multi-tenant serving semantics:
//!
//! - tenants register on first arrival and are dealt across shard pools
//!   by the striped [`StripedAllocator`] policy;
//! - a tenant's COW group is its trace archetype, as the threaded
//!   [`MtServer`](crate::MtServer) takes a group from its caller; every
//!   tenant of a group reads the group's shared approximation set (share
//!   epoch 0) until its own drift streak trips and it forks to a private
//!   set (a unique non-zero epoch) — the virtual-time mirror of
//!   `asqp_core::CowSession`;
//! - concurrent subset scans with equal (group, epoch, shape) coalesce,
//!   crediting followers with `shared_scan_hits` exactly like the
//!   threaded [`ScanBatcher`](crate::ScanBatcher) — a simulated "shape"
//!   id stands for one *exact* query (the replay has no literals),
//!   matching the batcher's full-query-identity key;
//! - admission rejections, retries, degradations and resolutions are
//!   attributed to the owning tenant, and the per-tenant accounting
//!   lines plus an event-stream digest form the transcript the CI
//!   `replay` job diffs byte-for-byte across double runs.
//!
//! Service costs are the `kernel`'s fixed virtual times, not measured
//! ones: the transcript certifies the ladder's decisions, not a
//! throughput.
//!
//! At 10⁵–10⁶ users a full event log would dominate memory, so instead
//! of storing events the replay folds every one of them (with its
//! virtual timestamp) into a single [splitmix64](crate::fault) digest —
//! byte-identical transcripts therefore still certify identical event
//! streams, not just identical totals.

use crate::backoff::RetryPolicy;
use crate::error::ServedSource;
use crate::event::{EventKind, ServerStats};
use crate::fault::{splitmix64, FaultPlan};
use crate::kernel::{self, pct, sim_rows, Clock, Scenario, FULL_SERVICE_NS, SUBSET_SERVICE_NS};
use crate::ladder::{self, Seam};
use crate::tenant::{StripedAllocator, TenantId, TenantStats};
use asqp_db::DbResult;
use std::collections::BTreeMap;

/// Configuration of one simulated multi-tenant run. Faults are
/// [`FaultPlan::chaos`] of the seed, retries [`RetryPolicy::chaos`]; the
/// trace's shape is fixed by the constants below.
#[derive(Debug, Clone)]
pub struct MtSimConfig {
    /// Seeds the trace, the fault plan and every routing decision.
    pub seed: u64,
    /// Simulated tenants (users). The acceptance gate runs ≥ 10⁵.
    pub tenants: u64,
    /// Shard pools tenants are striped across.
    pub shards: usize,
    /// Workers per shard.
    pub workers_per_shard: usize,
    /// Admission-queue depth per shard.
    pub queue_depth: usize,
}

impl MtSimConfig {
    /// The reference multi-tenant scenario: arrival pressure roughly at
    /// pool capacity so queueing, rejections, degradations, shared scans
    /// and forks all occur, at any tenant count.
    pub fn standard(seed: u64, tenants: u64) -> MtSimConfig {
        MtSimConfig {
            seed,
            tenants: tenants.max(1),
            shards: 8,
            workers_per_shard: 4,
            queue_depth: 24,
        }
    }
}

/// Interest archetypes = COW groups.
const GROUPS: u64 = 16;
/// Requests per tenant: `1 + hash % EXTRA_REQUESTS`.
const EXTRA_REQUESTS: u64 = 3;
/// Distinct queries per group's workload. A shape id models one exact
/// query (the threaded batcher keys on full query text).
const SHAPES_PER_GROUP: u64 = 12;
/// Pre-fork percentage (0–100) of (group, shape) pairs the shared set can
/// answer.
const SUBSET_PCT: u8 = 55;
/// Post-fork answerable percentage — forking exists to fix drift, so this
/// is higher.
const FORKED_SUBSET_PCT: u8 = 85;
/// Consecutive confidently-deviating misses before a tenant forks.
const DRIFT_TRIGGER: u32 = 3;
/// Percentage of full-routed requests that count as confident deviations.
const DRIFT_PCT: u8 = 60;
/// Percentage of tenants that depart after their last request.
const DEPART_PCT: u8 = 20;
/// Mean virtual gap between consecutive arrivals across all tenants.
const INTER_ARRIVAL_NS: u64 = 2_000;

/// Aggregate + per-tenant outcome of a simulated multi-tenant run.
#[derive(Debug)]
pub struct MtSimReport {
    pub seed: u64,
    pub tenants: u64,
    pub shards: usize,
    pub groups: usize,
    /// Global totals in the single-tenant [`ServerStats`] shape.
    pub stats: ServerStats,
    pub shared_scan_hits: u64,
    pub forks: u64,
    pub departed: u64,
    /// splitmix64 fold of every event (with virtual timestamps).
    pub digest: u64,
    pub makespan_ns: u64,
    /// Accounting per tenant, indexed by tenant id.
    pub per_tenant: Vec<TenantStats>,
}

impl MtSimReport {
    /// True iff every tenant's admitted requests all resolved — the
    /// zero-lost-requests invariant, held per tenant.
    pub fn lossless(&self) -> bool {
        self.per_tenant.iter().all(|t| t.lossless())
    }

    /// Canonical transcript: header, one accounting line per tenant, the
    /// event-stream digest, and a summary footer. This is the unit the
    /// CI `replay` job diffs byte-for-byte across double runs.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut out = String::with_capacity(self.per_tenant.len() * 96 + 256);
        out.push_str(&format!(
            "mtsim seed={} tenants={} shards={} groups={}\n",
            self.seed, self.tenants, self.shards, self.groups
        ));
        for (tenant, stats) in self.per_tenant.iter().enumerate() {
            out.push_str(&stats.render(tenant as TenantId));
        }
        out.push_str(&format!("digest={:016x}\n", self.digest));
        out.push_str(&format!(
            "summary admitted={} rejected={} subset={} full={} degraded={} retries={} \
             shared={} forks={} departed={} makespan_ns={}\n",
            s.admitted,
            s.rejected,
            s.resolved_subset,
            s.resolved_full,
            s.degraded,
            s.retries,
            self.shared_scan_hits,
            self.forks,
            self.departed,
            self.makespan_ns
        ));
        out
    }
}

// ---------------------------------------------------------------------
// Pure trace generation
// ---------------------------------------------------------------------

const SALT_ARCH: u64 = 0x61c8_8646_80b5_83eb;
const SALT_REQS: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_TIME: u64 = 0xc2b2_ae3d_27d4_eb4f;
const SALT_SHAPE: u64 = 0x2545_f491_4f6c_dd1d;
const SALT_DRIFT: u64 = 0xff51_afd7_ed55_8ccd;
const SALT_FORKROUTE: u64 = 0xd6e8_feb8_6659_fd93;
const SALT_DEPART: u64 = 0x8ebc_6af0_9c88_c6e3;

fn h2(seed: u64, a: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a ^ salt))
}

fn h3(seed: u64, a: u64, b: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a ^ splitmix64(b ^ salt)))
}

/// One request of the generated trace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    tenant: u64,
    rid: u64,
    shape: u64,
}

/// Flat per-tenant account (the simulator-side `TenantCounters`), kept
/// to 44 bytes: at 10⁵–10⁶ tenants touched in arrival order the replay is
/// bound by misses on this table (a `TenantStats`-sized account measured
/// 4 % slower).
#[derive(Default, Clone)]
struct Acct {
    shard: u32,
    group: u32,
    registered: bool,
    admitted: u32,
    rejected: u32,
    subset: u32,
    full: u32,
    degraded: u32,
    retries: u32,
    shared: u32,
    forked: bool,
    /// Requests not yet rejected or resolved.
    remaining: u32,
    /// Consecutive confidently-deviating misses.
    streak: u32,
}

/// The N-shard scenario: tenants, their placement and the event digest.
struct SimState<'a> {
    cfg: &'a MtSimConfig,
    faults: &'a FaultPlan,
    accts: Vec<Acct>,
    alloc: StripedAllocator,
    /// In-flight subset scans: (group, epoch, shape) → finish time.
    inflight: BTreeMap<(u64, u64, u64), u64>,
    digest: u64,
    forks: u64,
    departed: u64,
    shared_hits: u64,
    makespan: u64,
}

// Event codes folded into the digest.
const EV_REGISTER: u64 = 1;
const EV_ADMIT: u64 = 2;
const EV_REJECT: u64 = 3;
const EV_RESOLVE_SUBSET: u64 = 4;
const EV_RESOLVE_FULL: u64 = 5;
const EV_RESOLVE_DEGRADED: u64 = 6;
const EV_RETRY: u64 = 7;
const EV_SHARED_HIT: u64 = 8;
const EV_FORK: u64 = 9;
const EV_DEPART: u64 = 10;

impl<'a> SimState<'a> {
    fn new(cfg: &'a MtSimConfig, faults: &'a FaultPlan) -> SimState<'a> {
        SimState {
            cfg,
            faults,
            accts: vec![Acct::default(); cfg.tenants as usize],
            alloc: StripedAllocator::new(cfg.shards),
            inflight: BTreeMap::new(),
            digest: splitmix64(cfg.seed ^ SALT_ARCH),
            forks: 0,
            departed: 0,
            shared_hits: 0,
            makespan: 0,
        }
    }

    fn fold(&mut self, code: u64, a: u64, b: u64, c: u64) {
        self.digest =
            splitmix64(self.digest ^ splitmix64(code ^ splitmix64(a ^ splitmix64(b ^ c))));
    }

    fn acct_mut(&mut self, tenant: u64) -> Option<&mut Acct> {
        self.accts.get_mut(tenant as usize)
    }

    /// Bookkeeping after a tenant's request leaves the system (resolved
    /// or rejected): when its last request is done, the tenant may
    /// depart, freeing its stripe for later arrivals.
    fn request_done(&mut self, tenant: u64, now: u64) {
        let last = self.acct_mut(tenant).is_some_and(|a| {
            a.remaining = a.remaining.saturating_sub(1);
            a.remaining == 0
        });
        if last
            && pct(h2(self.cfg.seed, tenant, SALT_DEPART), DEPART_PCT)
            && self.alloc.depart(tenant).is_some()
        {
            self.departed += 1;
            self.fold(EV_DEPART, tenant, 0, now);
        }
    }
}

impl Scenario for SimState<'_> {
    type Job = Arrival;

    /// First arrival registers the tenant: striped placement, and the COW
    /// group of its trace archetype.
    fn place(&mut self, job: &Arrival, _: u64) -> usize {
        let tenant = job.tenant;
        if self.accts.get(tenant as usize).map(|a| a.registered) == Some(false) {
            let shard = self.alloc.register(tenant);
            let group = h2(self.cfg.seed, tenant, SALT_ARCH) % GROUPS;
            if let Some(a) = self.acct_mut(tenant) {
                a.registered = true;
                a.shard = shard as u32;
                a.group = group as u32;
            }
            self.fold(EV_REGISTER, tenant, shard as u64, group);
        }
        self.accts
            .get(tenant as usize)
            .map_or(0, |a| a.shard as usize)
    }

    fn admit(&mut self, job: &Arrival, now: u64) {
        if let Some(a) = self.acct_mut(job.tenant) {
            a.admitted += 1;
        }
        self.fold(EV_ADMIT, job.tenant, job.rid, now);
    }

    /// Attributed to the rejecting tenant, not a global counter.
    fn reject(&mut self, job: Arrival, now: u64) {
        if let Some(a) = self.acct_mut(job.tenant) {
            a.rejected += 1;
        }
        self.fold(EV_REJECT, job.tenant, job.rid, now);
        self.request_done(job.tenant, now);
    }

    fn serve(&mut self, job: Arrival, admitted_ns: u64, now: u64) -> u64 {
        let (seed, faults) = (self.cfg.seed, self.faults);
        let Arrival { tenant, rid, shape } = job;
        let (group, forked) = self
            .accts
            .get(tenant as usize)
            .map_or((0, false), |a| (a.group as u64, a.forked));
        let answerable = if forked {
            pct(h3(seed, tenant, shape, SALT_FORKROUTE), FORKED_SUBSET_PCT)
        } else {
            shared_routes_to_subset(seed, group, shape)
        };
        let mut seam = TenantRequest {
            job,
            group,
            // Share epoch: 0 on the group's shared set, unique
            // (tenant+1) once forked — forked tenants never coalesce.
            epoch: if forked { tenant + 1 } else { 0 },
            clock: Clock::start(admitted_ns, now),
            rows: sim_rows(seed, rid),
            st: self,
        };
        // The simulated backend never fails, so neither does the ladder.
        let full_routed = ladder::serve(&mut seam, &RetryPolicy::chaos(), faults, rid, answerable)
            .is_ok_and(|served| served.source != ServedSource::Subset);
        let now = seam.clock.now;

        // Drift: a full-routed request that confidently deviates extends
        // the tenant's streak; at the trigger the tenant forks off the
        // shared set (the COW copy-on-write moment — everyone else's
        // epoch-0 routing is untouched).
        if full_routed && !forked && pct(h3(seed, rid, group, SALT_DRIFT), DRIFT_PCT) {
            let trip = self.acct_mut(tenant).is_some_and(|a| {
                a.streak += 1;
                a.forked = a.streak >= DRIFT_TRIGGER;
                a.forked
            });
            if trip {
                self.forks += 1;
                self.fold(EV_FORK, tenant, group, now);
            }
        }

        self.makespan = self.makespan.max(now);
        self.request_done(tenant, now);
        now
    }
}

/// The ladder's seam for one tenant request. Clock and note-taker are
/// one struct because the digest folds the virtual time of every retry
/// and resolution.
struct TenantRequest<'s, 'c> {
    st: &'s mut SimState<'c>,
    job: Arrival,
    group: u64,
    epoch: u64,
    clock: Clock,
    rows: usize,
}

impl Seam for TenantRequest<'_, '_> {
    type Rows = usize;

    fn remaining_ns(&mut self) -> u64 {
        self.clock.remaining_ns()
    }

    fn pause(&mut self, ns: u64) {
        self.clock.now += ns;
    }

    /// Shared-scan batching: ride an identical in-flight scan when the
    /// group, epoch and exact query (shape id) all match.
    fn subset(&mut self) -> DbResult<usize> {
        let Arrival { tenant, rid, shape } = self.job;
        let now = self.clock.now;
        let key = (self.group, self.epoch, shape);
        let leader_finish = self.st.inflight.get(&key).copied().filter(|&f| f > now);
        self.clock.now = match leader_finish {
            Some(f) => {
                self.st.shared_hits += 1;
                if let Some(a) = self.st.acct_mut(tenant) {
                    a.shared += 1;
                }
                self.st.fold(EV_SHARED_HIT, tenant, rid, f);
                f
            }
            None => {
                let f = now + SUBSET_SERVICE_NS;
                self.st.inflight.insert(key, f);
                f
            }
        };
        Ok(self.rows)
    }

    fn full(&mut self) -> DbResult<usize> {
        self.clock.now += FULL_SERVICE_NS;
        Ok(self.rows)
    }

    fn degraded(&mut self) -> DbResult<usize> {
        self.clock.now += SUBSET_SERVICE_NS;
        Ok(self.rows)
    }

    fn row_count(rows: &usize) -> usize {
        *rows
    }

    fn note(&mut self, kind: EventKind) {
        let Arrival { tenant, rid, .. } = self.job;
        let now = self.clock.now;
        match kind {
            EventKind::TransientError { .. } => {
                if let Some(a) = self.st.acct_mut(tenant) {
                    a.retries += 1;
                }
                self.st.fold(EV_RETRY, tenant, rid, now);
            }
            EventKind::Resolved { source, rows } => {
                let Some(a) = self.st.acct_mut(tenant) else {
                    return;
                };
                let code = match source {
                    ServedSource::Subset => {
                        a.subset += 1;
                        // A confident subset answer resets the tenant's
                        // drift streak (mirrors `CowSession::finish`).
                        a.streak = 0;
                        EV_RESOLVE_SUBSET
                    }
                    ServedSource::Full => {
                        a.full += 1;
                        EV_RESOLVE_FULL
                    }
                    ServedSource::DegradedSubset => {
                        a.degraded += 1;
                        EV_RESOLVE_DEGRADED
                    }
                };
                self.st.fold(code, tenant, rid, now ^ rows as u64);
            }
            _ => {}
        }
    }
}

/// Run one simulated multi-tenant scenario. Pure: identical configs
/// produce identical reports (and identical [`MtSimReport::render`]
/// transcripts).
pub fn run_mt_sim(cfg: &MtSimConfig) -> MtSimReport {
    let seed = cfg.seed;
    let faults = FaultPlan::chaos(seed);
    let mut st = SimState::new(cfg, &faults);

    // ---- Trace generation: every request of every tenant, pure hashes.
    let mut trace: Vec<(u64, u64, u64)> = Vec::new(); // (arrival, tenant, k)
    for t in 0..cfg.tenants {
        let reqs = 1 + h2(seed, t, SALT_REQS) % EXTRA_REQUESTS;
        let horizon = cfg.tenants.max(1) * INTER_ARRIVAL_NS;
        let base = h2(seed, t, SALT_TIME) % horizon.max(1);
        for k in 0..reqs {
            let jitter = h3(seed, t, k, SALT_TIME) % INTER_ARRIVAL_NS;
            let arrival = base + k * 4 * INTER_ARRIVAL_NS + jitter;
            trace.push((arrival, t, k));
        }
        if let Some(a) = st.acct_mut(t) {
            a.remaining = reqs as u32;
        }
    }
    trace.sort_unstable();
    let total_requests = trace.len() as u64;

    let arrivals = trace.into_iter().enumerate().map(|(rid, (at, tenant, k))| {
        let shape = h3(seed, tenant, k, SALT_SHAPE) % SHAPES_PER_GROUP;
        let rid = rid as u64;
        (at, Arrival { tenant, rid, shape })
    });
    let (workers, depth) = (cfg.workers_per_shard, cfg.queue_depth);
    kernel::run(&mut st, cfg.shards, workers, depth, &faults, arrivals);

    let per_tenant: Vec<TenantStats> = st
        .accts
        .iter()
        .map(|a| TenantStats {
            shard: a.shard as usize,
            group: a.group as u64,
            admitted: a.admitted as u64,
            rejected: a.rejected as u64,
            resolved_subset: a.subset as u64,
            resolved_full: a.full as u64,
            degraded: a.degraded as u64,
            retries: a.retries as u64,
            fatal: 0,
            shared_scan_hits: a.shared as u64,
            forked: a.forked,
        })
        .collect();
    let stats: ServerStats = per_tenant.iter().sum();

    debug_assert_eq!(stats.admitted + stats.rejected, total_requests);

    MtSimReport {
        seed,
        tenants: cfg.tenants,
        shards: cfg.shards.max(1),
        groups: GROUPS as usize,
        stats,
        shared_scan_hits: st.shared_hits,
        forks: st.forks,
        departed: st.departed,
        digest: st.digest,
        makespan_ns: st.makespan,
        per_tenant,
    }
}

/// Pre-fork routing is a property of the *shared set*: every epoch-0
/// tenant of a group routes a given shape identically (that is what makes
/// scan sharing sound). Post-fork routing is private to the tenant.
fn shared_routes_to_subset(seed: u64, group: u64, shape: u64) -> bool {
    pct(h3(seed, group, shape, SALT_SHAPE), SUBSET_PCT)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> MtSimConfig {
        MtSimConfig::standard(seed, 2_000)
    }

    #[test]
    fn same_seed_renders_identically() {
        let cfg = small(1234);
        let a = run_mt_sim(&cfg);
        let b = run_mt_sim(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_render_differently() {
        let a = run_mt_sim(&small(1));
        let b = run_mt_sim(&small(2));
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn accounting_is_lossless_per_tenant() {
        for seed in [0u64, 7, 42] {
            let r = run_mt_sim(&small(seed));
            assert!(r.lossless(), "seed {seed}: lost requests");
            let s = &r.stats;
            assert_eq!(
                s.resolved_subset + s.resolved_full + s.degraded,
                s.admitted,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn standard_profile_exercises_all_paths() {
        let r = run_mt_sim(&small(7));
        assert!(r.stats.rejected > 0, "no admission rejections");
        assert!(r.stats.degraded > 0, "no degradations");
        assert!(r.stats.retries > 0, "no retries");
        assert!(r.shared_scan_hits > 0, "no shared scans");
        assert!(r.forks > 0, "no COW forks");
        assert!(r.departed > 0, "no departures");
    }

    /// Two overlapping subset scans of one group and shape: on the shared
    /// set (epoch 0) the second rides the first; once forked (epoch
    /// `tenant + 1`) neither rides the other.
    #[test]
    fn only_shared_epoch_scans_coalesce() {
        let cfg = small(9);
        let faults = FaultPlan::chaos(cfg.seed);
        for forked in [false, true] {
            let mut st = SimState::new(&cfg, &faults);
            for tenant in [3u64, 4] {
                let mut request = TenantRequest {
                    job: Arrival {
                        tenant,
                        rid: tenant,
                        shape: 5,
                    },
                    group: 2,
                    epoch: if forked { tenant + 1 } else { 0 },
                    // The second scan starts while the first is in flight.
                    clock: Clock::start(0, tenant * 1_000),
                    rows: 0,
                    st: &mut st,
                };
                assert_eq!(request.subset().ok(), Some(0));
            }
            assert_eq!(st.shared_hits, u64::from(!forked), "forked={forked}");
        }
    }
}
