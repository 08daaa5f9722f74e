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
//! [`StripedAllocator`] is the policy with its own tenant map, which is all
//! the multi-tenant simulator needs; the threaded server keeps placement in
//! its one tenant directory and shares only [`least_loaded`]. Per-tenant
//! [`TenantCounters`] attribute rejections to the *rejecting tenant* — the
//! fix for the global `AdmissionQueue` rejection counter, which under
//! sharding could not say whose requests were shed — so per-tenant
//! `admitted + rejected` always equals that tenant's submissions and the
//! accounting stays exact no matter how tenants interleave.

use crate::event::ServerStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tenant identity: opaque to the serving layer, dense ids in the
/// simulator.
pub type TenantId = u64;

/// The striped policy's one decision: the least-loaded stripe, lowest index
/// on ties (`0` for an empty slice).
pub fn least_loaded(loads: &[usize]) -> usize {
    let least = loads.iter().enumerate().min_by_key(|&(_, &load)| load);
    least.map_or(0, |(idx, _)| idx)
}

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
        let best = least_loaded(&self.load);
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

impl TenantCounters {
    /// This tenant's accounting right now, under its placement.
    pub fn snapshot(&self, shard: usize, group: u64) -> TenantStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TenantStats {
            shard,
            group,
            admitted: load(&self.admitted),
            rejected: load(&self.rejected),
            resolved_subset: load(&self.resolved_subset),
            resolved_full: load(&self.resolved_full),
            degraded: load(&self.degraded),
            retries: load(&self.retries),
            fatal: load(&self.fatal),
            shared_scan_hits: load(&self.shared_scan_hits),
            forked: load(&self.forked) != 0,
        }
    }
}

/// Snapshot of one tenant's accounting (see [`TenantCounters::snapshot`]).
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
}
