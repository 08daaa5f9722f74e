//! Multi-tenant bookkeeping: striped tenant→shard allocation and exact
//! per-tenant accounting.
//!
//! The allocation policy is *striped* in the rpsql `threadgroups` sense:
//! tenants are dealt across shards in registration order, each new tenant
//! landing on the least-loaded stripe (lowest index on ties). That gives
//! three properties the multi-tenant gate asserts:
//!
//! 1. **Deterministic** — the assignment is a pure function of the
//!    register/depart sequence; replaying a trace replays the placement.
//! 2. **Balanced within ±1** — under registrations alone, greedy
//!    least-loaded placement keeps `max(load) − min(load) ≤ 1`.
//! 3. **Stable under departures** — a departing tenant only decrements
//!    its stripe's load; no surviving tenant is ever reassigned (no
//!    consistent-hashing rehash storm), and later arrivals refill the
//!    emptied stripes first.
//!
//! [`TenantRegistry`] wraps the allocator with thread-safe per-tenant
//! counters. Rejections are attributed to the *rejecting tenant* — the
//! fix for the global `AdmissionQueue` rejection counter, which under
//! sharding could not say whose requests were shed — so per-tenant
//! `admitted + rejected` always equals that tenant's submissions and the
//! accounting stays exact no matter how tenants interleave.

use crate::event::ServerStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tenant identity: opaque to the serving layer, dense ids in the
/// simulator.
pub type TenantId = u64;

/// Deterministic striped tenant→shard allocation.
#[derive(Debug, Clone)]
pub struct StripedAllocator {
    assignment: BTreeMap<TenantId, usize>,
    load: Vec<usize>,
}

impl StripedAllocator {
    /// An allocator over `shards` stripes (clamped to ≥ 1).
    pub fn new(shards: usize) -> StripedAllocator {
        StripedAllocator {
            assignment: BTreeMap::new(),
            load: vec![0; shards.max(1)],
        }
    }

    /// Number of stripes.
    pub fn shards(&self) -> usize {
        self.load.len()
    }

    /// Tenants currently registered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The shard `tenant` is assigned to, if registered.
    pub fn shard_of(&self, tenant: TenantId) -> Option<usize> {
        self.assignment.get(&tenant).copied()
    }

    /// Current per-stripe tenant counts.
    pub fn loads(&self) -> &[usize] {
        &self.load
    }

    /// Register `tenant`, returning its stripe. Idempotent: a registered
    /// tenant keeps its stripe. New tenants go to the least-loaded stripe,
    /// lowest index on ties — round-robin striping under sequential
    /// arrivals, gap-filling after departures.
    pub fn register(&mut self, tenant: TenantId) -> usize {
        if let Some(&shard) = self.assignment.get(&tenant) {
            return shard;
        }
        let mut best = 0usize;
        let mut best_load = usize::MAX;
        for (idx, &l) in self.load.iter().enumerate() {
            if l < best_load {
                best = idx;
                best_load = l;
            }
        }
        if let Some(l) = self.load.get_mut(best) {
            *l += 1;
        }
        self.assignment.insert(tenant, best);
        best
    }

    /// Remove `tenant`, returning the stripe it held. Every other
    /// tenant's assignment is untouched.
    pub fn depart(&mut self, tenant: TenantId) -> Option<usize> {
        let shard = self.assignment.remove(&tenant)?;
        if let Some(l) = self.load.get_mut(shard) {
            *l = l.saturating_sub(1);
        }
        Some(shard)
    }

    /// `max(load) − min(load)`: 0 or 1 under arrival-only sequences.
    pub fn imbalance(&self) -> usize {
        let max = self.load.iter().copied().max().unwrap_or(0);
        let min = self.load.iter().copied().min().unwrap_or(0);
        max - min
    }
}

/// Lock-free per-tenant counters (atomics so the threaded server's
/// workers can attribute outcomes without a registry-wide lock).
#[derive(Debug, Default)]
pub struct TenantCounters {
    pub admitted: AtomicU64,
    /// Admission rejections attributed to *this* tenant.
    pub rejected: AtomicU64,
    pub resolved_subset: AtomicU64,
    pub resolved_full: AtomicU64,
    pub degraded: AtomicU64,
    pub retries: AtomicU64,
    pub fatal: AtomicU64,
    /// Subset answers obtained by riding another tenant's shared scan.
    pub shared_scan_hits: AtomicU64,
    /// `1` once the tenant forked off its cluster's shared set.
    pub forked: AtomicU64,
}

/// Snapshot of one tenant's accounting (see [`TenantRegistry::snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    pub shard: usize,
    pub group: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub resolved_subset: u64,
    pub resolved_full: u64,
    pub degraded: u64,
    pub retries: u64,
    pub fatal: u64,
    pub shared_scan_hits: u64,
    pub forked: bool,
}

impl TenantStats {
    /// Every admitted request must land in exactly one resolution bucket.
    pub fn resolved(&self) -> u64 {
        self.resolved_subset + self.resolved_full + self.degraded + self.fatal
    }

    /// Zero lost requests for this tenant.
    pub fn lossless(&self) -> bool {
        self.resolved() == self.admitted
    }

    /// Canonical one-line rendering, the unit of the multi-tenant
    /// transcript diff.
    pub fn render(&self, tenant: TenantId) -> String {
        format!(
            "tenant={} shard={} group={} forked={} admitted={} rejected={} subset={} full={} \
             degraded={} retries={} shared={}\n",
            tenant,
            self.shard,
            self.group,
            u8::from(self.forked),
            self.admitted,
            self.rejected,
            self.resolved_subset,
            self.resolved_full,
            self.degraded,
            self.retries,
            self.shared_scan_hits,
        )
    }
}

/// Aggregate accounting across tenants.
impl<'a> std::iter::Sum<&'a TenantStats> for ServerStats {
    fn sum<I: Iterator<Item = &'a TenantStats>>(tenants: I) -> ServerStats {
        let mut s = ServerStats::default();
        for t in tenants {
            s.admitted += t.admitted;
            s.rejected += t.rejected;
            s.resolved_subset += t.resolved_subset;
            s.resolved_full += t.resolved_full;
            s.degraded += t.degraded;
            s.retries += t.retries;
            s.fatal += t.fatal;
        }
        s
    }
}

struct TenantEntry {
    shard: usize,
    group: u64,
    counters: Arc<TenantCounters>,
}

/// Thread-safe tenant directory: striped placement plus per-tenant
/// accounting, shared between the submit path (admission/rejection
/// attribution) and the shard workers (resolution attribution).
pub struct TenantRegistry {
    alloc: Mutex<StripedAllocator>,
    tenants: Mutex<BTreeMap<TenantId, TenantEntry>>,
}

impl TenantRegistry {
    pub fn new(shards: usize) -> TenantRegistry {
        TenantRegistry {
            alloc: Mutex::new(StripedAllocator::new(shards)),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    fn alloc(&self) -> std::sync::MutexGuard<'_, StripedAllocator> {
        // Poison recovery: the allocator is a map plus a counter vector,
        // valid after any interrupted operation.
        self.alloc.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn tenants(&self) -> std::sync::MutexGuard<'_, BTreeMap<TenantId, TenantEntry>> {
        self.tenants.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register `tenant` under approximation-set cluster `group`; returns
    /// its shard and its counters (the registry's own `Arc`, so callers
    /// can attribute outcomes without a fallible second lookup).
    /// Idempotent for an active tenant; a tenant re-registering after a
    /// departure gets a freshly allocated stripe, and its retained entry
    /// is re-synced to the new shard and group — the counters survive the
    /// round trip, but snapshots always report the actual placement.
    pub fn register(&self, tenant: TenantId, group: u64) -> (usize, Arc<TenantCounters>) {
        let shard = self.alloc().register(tenant);
        let mut tenants = self.tenants();
        let entry = tenants.entry(tenant).or_insert_with(|| TenantEntry {
            shard,
            group,
            counters: Arc::new(TenantCounters::default()),
        });
        entry.shard = shard;
        entry.group = group;
        (shard, Arc::clone(&entry.counters))
    }

    /// Remove `tenant` from placement (its accounting survives so the
    /// final transcript still covers departed tenants).
    pub fn depart(&self, tenant: TenantId) -> Option<usize> {
        self.alloc().depart(tenant)
    }

    /// The shard a registered tenant is placed on.
    pub fn shard_of(&self, tenant: TenantId) -> Option<usize> {
        self.alloc().shard_of(tenant)
    }

    /// This tenant's counters plus its shard and group, if registered.
    pub fn lookup(&self, tenant: TenantId) -> Option<(usize, u64, Arc<TenantCounters>)> {
        self.tenants()
            .get(&tenant)
            .map(|e| (e.shard, e.group, Arc::clone(&e.counters)))
    }

    /// Number of registered (ever-seen) tenants.
    pub fn len(&self) -> usize {
        self.tenants().len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants().is_empty()
    }

    /// Deterministic accounting snapshot, keyed by tenant id.
    pub fn snapshot(&self) -> BTreeMap<TenantId, TenantStats> {
        self.tenants()
            .iter()
            .map(|(&t, e)| {
                let c = &e.counters;
                (
                    t,
                    TenantStats {
                        shard: e.shard,
                        group: e.group,
                        admitted: c.admitted.load(Ordering::Relaxed),
                        rejected: c.rejected.load(Ordering::Relaxed),
                        resolved_subset: c.resolved_subset.load(Ordering::Relaxed),
                        resolved_full: c.resolved_full.load(Ordering::Relaxed),
                        degraded: c.degraded.load(Ordering::Relaxed),
                        retries: c.retries.load(Ordering::Relaxed),
                        fatal: c.fatal.load(Ordering::Relaxed),
                        shared_scan_hits: c.shared_scan_hits.load(Ordering::Relaxed),
                        forked: c.forked.load(Ordering::Relaxed) != 0,
                    },
                )
            })
            .collect()
    }

    /// Canonical per-tenant accounting transcript (one line per tenant in
    /// tenant-id order).
    pub fn render_accounting(&self) -> String {
        let mut out = String::new();
        for (tenant, stats) in self.snapshot() {
            out.push_str(&stats.render(tenant));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_registrations_round_robin() {
        let mut a = StripedAllocator::new(4);
        let shards: Vec<usize> = (0..8).map(|t| a.register(t)).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(a.imbalance(), 0);
    }

    #[test]
    fn register_is_idempotent() {
        let mut a = StripedAllocator::new(3);
        let s = a.register(42);
        assert_eq!(a.register(42), s);
        assert_eq!(a.len(), 1);
        assert_eq!(a.loads().iter().sum::<usize>(), 1);
    }

    #[test]
    fn departures_leave_survivors_alone_and_arrivals_fill_gaps() {
        let mut a = StripedAllocator::new(3);
        for t in 0..6 {
            a.register(t);
        }
        let before: Vec<Option<usize>> = (0..6).map(|t| a.shard_of(t)).collect();
        let freed = a.depart(1).expect("tenant 1 was registered");
        for t in [0u64, 2, 3, 4, 5] {
            assert_eq!(a.shard_of(t), before.get(t as usize).copied().flatten());
        }
        // The next arrival fills the stripe the departure emptied.
        assert_eq!(a.register(100), freed);
        assert_eq!(a.imbalance(), 0);
    }

    /// Regression (REVIEW): after depart + re-register, the retained
    /// entry must report the freshly allocated stripe and group, not the
    /// stale ones — while the counters carry over.
    #[test]
    fn reregistration_after_departure_resyncs_placement() {
        let reg = TenantRegistry::new(2);
        let (s1, c1) = reg.register(1, 10);
        reg.register(2, 10);
        reg.register(3, 10);
        c1.admitted.fetch_add(5, Ordering::Relaxed);
        reg.depart(1);
        // Tenant 4 fills the freed stripe; tenant 1 then lands elsewhere.
        reg.register(4, 10);
        let (s1b, c1b) = reg.register(1, 11);
        assert_ne!(
            s1b, s1,
            "this layout re-places tenant 1 on the other stripe"
        );
        assert!(Arc::ptr_eq(&c1, &c1b), "counters survive the round trip");
        let snap = reg.snapshot();
        let t1 = snap.get(&1).expect("entry retained");
        assert_eq!(
            (t1.shard, t1.group, t1.admitted),
            (s1b, 11, 5),
            "snapshot reports actual placement plus surviving counters"
        );
        assert_eq!(reg.shard_of(1), Some(s1b), "allocator and entry agree");
    }

    #[test]
    fn registry_attributes_counters_per_tenant() {
        let reg = TenantRegistry::new(2);
        reg.register(7, 1);
        reg.register(9, 1);
        let (_, _, c7) = reg.lookup(7).expect("registered");
        c7.admitted.fetch_add(3, Ordering::Relaxed);
        c7.rejected.fetch_add(2, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.get(&7).map(|s| (s.admitted, s.rejected)), Some((3, 2)));
        assert_eq!(snap.get(&9).map(|s| (s.admitted, s.rejected)), Some((0, 0)));
        let txt = reg.render_accounting();
        assert!(txt.contains("tenant=7 shard=0 group=1 forked=0 admitted=3 rejected=2"));
    }
}
