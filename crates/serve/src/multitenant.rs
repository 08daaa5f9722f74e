//! The threaded server: sharded multi-tenant serving over copy-on-write
//! approximation sets.
//!
//! [`MtServer::submit`] is the front door, rejecting synchronously with
//! [`ServeError::Overloaded`] once the tenant's shard queue is at depth;
//! a fixed pool of workers per shard walks each admitted request through
//! the [`ladder`] on the wall clock. Graceful shutdown closes
//! the queues, drains what was admitted, and joins the pools.
//!
//! - **Sharding** — tenants are dealt across independent shard pools
//!   (own [`AdmissionQueue`], own workers) by the deterministic striped
//!   policy ([`least_loaded`]); one hot shard backs up without
//!   stalling the rest. One session is one tenant on one shard.
//! - **One tenant directory** — placement, group, counters and (while
//!   registered) the backend live in one map entry per tenant behind one
//!   lock, next to the per-shard loads the policy balances.
//! - **COW set sharing** — each tenant registers its *own*
//!   [`SessionBackend`] (typically an `asqp_core::CowSession` over a
//!   cluster-shared base), so memory scales with clusters, not tenants;
//!   a drift-triggered fine-tune forks privately without touching
//!   anyone else's routing.
//! - **Shared scans** — in-flight subset queries with the same COW
//!   group, share epoch and exact query text coalesce through the
//!   single-flight [`ScanBatcher`]; followers count as per-tenant
//!   `shared_scan_hits`.
//! - **Exact per-tenant accounting** — every admission, rejection
//!   (attributed to the *rejecting* tenant), resolution, retry and
//!   degradation lands on the submitting tenant's [`TenantCounters`], so
//!   `admitted == resolved` holds per tenant, not just globally.

use crate::backend::SessionBackend;
use crate::backoff::RetryPolicy;
use crate::batch::{ScanBatcher, ScanKey, ScanRole};
use crate::error::{Answer, ServeError, ServeResult, ServedSource};
use crate::event::{EventKind, ServerStats};
use crate::fault::FaultPlan;
use crate::ladder::{self, Seam};
use crate::queue::AdmissionQueue;
use crate::tenant::{least_loaded, TenantCounters, TenantId, TenantStats};
use asqp_db::{DbError, DbResult, Query, ResultSet};
use asqp_telemetry as telemetry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A pending request: wait on it for the resolution.
pub struct Ticket {
    pub request: u64,
    rx: Receiver<ServeResult>,
}

impl Ticket {
    /// Block until the request resolves.
    pub fn wait(self) -> ServeResult {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// Multi-tenant serving configuration.
#[derive(Debug, Clone)]
pub struct MtConfig {
    /// Independent shard pools tenants are striped across.
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Admission-queue depth per shard.
    pub queue_depth: usize,
    /// Per-request deadline from admission; `0` = none.
    pub deadline_ns: u64,
    pub retry: RetryPolicy,
    /// Fault plan; worker stalls key off the *global* worker index
    /// (`shard * workers_per_shard + local`).
    pub faults: FaultPlan,
}

impl Default for MtConfig {
    fn default() -> Self {
        MtConfig {
            shards: 4,
            workers_per_shard: 2,
            queue_depth: 32,
            deadline_ns: 5_000_000,
            retry: RetryPolicy::default(),
            faults: FaultPlan::disabled(),
        }
    }
}

/// One registered tenant: its backend plus its accounting.
struct TenantSlot<B> {
    group: u64,
    shard: usize,
    backend: B,
    counters: Arc<TenantCounters>,
}

/// A tenant's directory entry: what requests run against while it is
/// registered, and what its accounting needs once it has left.
enum TenantEntry<B> {
    Active(Arc<TenantSlot<B>>),
    Departed {
        shard: usize,
        group: u64,
        counters: Arc<TenantCounters>,
    },
}

impl<B> TenantEntry<B> {
    /// The tenant's accounting under its current (or last) placement.
    fn stats(&self) -> TenantStats {
        match self {
            TenantEntry::Active(slot) => slot.counters.snapshot(slot.shard, slot.group),
            TenantEntry::Departed {
                shard,
                group,
                counters,
            } => counters.snapshot(*shard, *group),
        }
    }
}

/// Every tenant ever registered plus the active tenants per shard, kept in
/// step because nothing can change one without holding the other.
struct Directory<B> {
    tenants: BTreeMap<TenantId, TenantEntry<B>>,
    loads: Vec<usize>,
}

struct MtJob<B> {
    request: u64,
    query: Query,
    admitted_at: Instant,
    reply: SyncSender<ServeResult>,
    slot: Arc<TenantSlot<B>>,
}

struct MtShared<B> {
    config: MtConfig,
    /// One admission queue per shard.
    queues: Vec<AdmissionQueue<MtJob<B>>>,
    batcher: ScanBatcher,
    draining: AtomicBool,
}

/// The sharded multi-tenant front-end.
pub struct MtServer<B: SessionBackend> {
    shared: Arc<MtShared<B>>,
    directory: RwLock<Directory<B>>,
    next_request: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<B: SessionBackend> MtServer<B> {
    /// Spawn `shards × workers_per_shard` workers and start serving.
    pub fn start(config: MtConfig) -> MtServer<B> {
        assert!(
            config.shards > 0 && config.workers_per_shard > 0,
            "multi-tenant server needs at least one shard and one worker"
        );
        let queues = (0..config.shards)
            .map(|_| AdmissionQueue::new(config.queue_depth))
            .collect();
        let shared = Arc::new(MtShared {
            queues,
            batcher: ScanBatcher::new(),
            draining: AtomicBool::new(false),
            config,
        });
        let mut workers = Vec::new();
        for shard in 0..shared.config.shards {
            for local in 0..shared.config.workers_per_shard {
                let global = shard * shared.config.workers_per_shard + local;
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("asqp-mt-{shard}-{local}"))
                    .spawn(move || worker_loop(shard, global, shared))
                    // asqp::allow(panic-path): pool startup, before any request is admitted
                    .expect("spawn mt worker");
                workers.push(handle);
            }
        }
        let directory = RwLock::new(Directory {
            tenants: BTreeMap::new(),
            loads: vec![0; shared.config.shards],
        });
        MtServer {
            shared,
            directory,
            next_request: AtomicU64::new(0),
            workers: Mutex::new(workers),
        }
    }

    // Poison recovery: every write leaves the map and the loads valid.
    fn directory(&self) -> std::sync::RwLockReadGuard<'_, Directory<B>> {
        self.directory.read().unwrap_or_else(|p| p.into_inner())
    }

    fn directory_mut(&self) -> std::sync::RwLockWriteGuard<'_, Directory<B>> {
        self.directory.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Register `tenant` under COW cluster `group` with its own backend
    /// view, returning its shard. `group` asserts that this backend's
    /// subset answers are interchangeable with every same-group backend
    /// at the same [`SessionBackend::share_epoch`] — that is what
    /// licenses shared-scan batching. Re-registering an *active* tenant
    /// is a no-op that keeps its original slot (backend, group,
    /// placement); a tenant that departed and comes back gets a freshly
    /// allocated stripe and the new backend/group, while its lifetime
    /// counters carry over.
    pub fn register_tenant(&self, tenant: TenantId, group: u64, backend: B) -> usize {
        // One write-locked section from the check to the insert, so racing
        // first registrations of one tenant agree on who won.
        let mut dir = self.directory_mut();
        let counters = match dir.tenants.get(&tenant) {
            Some(TenantEntry::Active(slot)) => return slot.shard,
            Some(TenantEntry::Departed { counters, .. }) => Arc::clone(counters),
            None => Arc::default(),
        };
        let shard = least_loaded(&dir.loads);
        if let Some(load) = dir.loads.get_mut(shard) {
            *load += 1;
        }
        telemetry::counter("serve.tenants", 1);
        let slot = TenantSlot {
            group,
            shard,
            backend,
            counters,
        };
        dir.tenants
            .insert(tenant, TenantEntry::Active(Arc::new(slot)));
        shard
    }

    /// Deregister `tenant`: frees its stripe for future arrivals, drops its
    /// backend and refuses new submissions; accounting for its served
    /// requests survives in the directory.
    pub fn depart_tenant(&self, tenant: TenantId) -> Option<usize> {
        let mut dir = self.directory_mut();
        let entry = dir.tenants.get_mut(&tenant)?;
        let TenantEntry::Active(slot) = entry else {
            return None;
        };
        let shard = slot.shard;
        *entry = TenantEntry::Departed {
            shard,
            group: slot.group,
            counters: Arc::clone(&slot.counters),
        };
        if let Some(load) = dir.loads.get_mut(shard) {
            *load = load.saturating_sub(1);
        }
        Some(shard)
    }

    /// Submit a query on behalf of `tenant`. Fails synchronously with
    /// [`ServeError::UnknownTenant`] for unregistered tenants and
    /// [`ServeError::Overloaded`] when the tenant's shard is at depth —
    /// the rejection is attributed to *this* tenant's counters.
    pub fn submit(&self, tenant: TenantId, query: Query) -> Result<Ticket, ServeError> {
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let slot = match self.directory().tenants.get(&tenant) {
            Some(TenantEntry::Active(slot)) => Arc::clone(slot),
            _ => return Err(ServeError::UnknownTenant { tenant }),
        };
        let Some(queue) = self.shared.queues.get(slot.shard) else {
            return Err(ServeError::UnknownTenant { tenant });
        };
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = sync_channel(1);
        let job = MtJob {
            request,
            query,
            admitted_at: Instant::now(),
            reply,
            slot: Arc::clone(&slot),
        };
        match queue.try_push(job) {
            Ok(depth) => {
                slot.counters.admitted.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.admitted", 1);
                telemetry::gauge("serve.queue.depth", depth as f64);
                Ok(Ticket { request, rx })
            }
            Err(e) => {
                if matches!(e, ServeError::Overloaded { .. }) {
                    // The shed request belongs to the tenant that
                    // submitted it.
                    slot.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter("serve.rejected", 1);
                }
                Err(e)
            }
        }
    }

    /// Submit and wait: the synchronous client path.
    pub fn query_blocking(&self, tenant: TenantId, query: Query) -> ServeResult {
        self.submit(tenant, query)?.wait()
    }

    /// Deterministic accounting snapshot of every tenant ever registered,
    /// keyed by tenant id.
    pub fn snapshot(&self) -> BTreeMap<TenantId, TenantStats> {
        let dir = self.directory();
        dir.tenants.iter().map(|(&t, e)| (t, e.stats())).collect()
    }

    /// Accounting snapshot for one tenant.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.directory()
            .tenants
            .get(&tenant)
            .map(TenantEntry::stats)
    }

    /// Aggregate counters across all tenants.
    pub fn stats(&self) -> ServerStats {
        self.snapshot().values().sum()
    }

    /// Subset executions saved by shared-scan batching.
    pub fn shared_scan_hits(&self) -> u64 {
        self.shared.batcher.shared_hits()
    }

    /// Graceful shutdown: stop admitting, drain every shard, join all
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        for queue in &self.shared.queues {
            queue.close();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<B: SessionBackend> Drop for MtServer<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<B: SessionBackend>(shard: usize, global_worker: usize, shared: Arc<MtShared<B>>) {
    if let Some(stall_ns) = shared.config.faults.worker_stall(global_worker) {
        telemetry::counter("serve.worker.stalled", 1);
        std::thread::sleep(Duration::from_nanos(stall_ns));
    }
    let Some(queue) = shared.queues.get(shard) else {
        return;
    };
    while let Some(job) = queue.pop() {
        process(&shared, job);
    }
}

/// The ladder's seam on the wall clock: real sleeps, the tenant's own
/// backend, and notes that only bump its counters.
struct Request<'a, B> {
    shared: &'a MtShared<B>,
    slot: &'a TenantSlot<B>,
    query: &'a Query,
    admitted_at: Instant,
}

impl<B: SessionBackend> Seam for Request<'_, B> {
    type Rows = ResultSet;

    fn remaining_ns(&mut self) -> u64 {
        match self.shared.config.deadline_ns {
            0 => u64::MAX,
            deadline => deadline.saturating_sub(self.admitted_at.elapsed().as_nanos() as u64),
        }
    }

    fn pause(&mut self, ns: u64) {
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }

    /// Answered through the single-flight batcher so identical in-flight
    /// scans from same-group, same-epoch tenants execute once. Epoch and
    /// scan come from one atomic backend snapshot — keying on a
    /// separately-read epoch would let a concurrent fork (another of this
    /// tenant's in-flight requests crossing its drift trigger) slip
    /// between key construction and execution, publishing fork-private
    /// rows to shared-base followers.
    fn subset(&mut self) -> DbResult<ResultSet> {
        let (epoch, scan) = self.slot.backend.pinned_subset_scan(self.query);
        let key = ScanKey::for_query(self.slot.group, epoch, self.query);
        let (outcome, role) = self.shared.batcher.execute(key, scan);
        if role == ScanRole::Follower {
            let hits = &self.slot.counters.shared_scan_hits;
            hits.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    fn full(&mut self) -> DbResult<ResultSet> {
        self.slot.backend.answer_full(self.query)
    }

    fn degraded(&mut self) -> DbResult<ResultSet> {
        self.slot.backend.answer_subset(self.query)
    }

    fn row_count(rows: &ResultSet) -> usize {
        rows.rows.len()
    }

    fn note(&mut self, kind: EventKind) {
        let c = &self.slot.counters;
        let (counter, name) = match kind {
            EventKind::TransientError { .. } => (&c.retries, "serve.retries"),
            EventKind::Failed => (&c.fatal, "serve.fatal"),
            EventKind::Resolved { source, .. } => match source {
                ServedSource::Subset => (&c.resolved_subset, "serve.resolved.subset"),
                ServedSource::Full => (&c.resolved_full, "serve.resolved.full"),
                ServedSource::DegradedSubset => (&c.degraded, "serve.degraded"),
            },
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        telemetry::counter(name, 1);
    }
}

/// Walk one admitted request down the ladder, attributing every outcome
/// to the submitting tenant, and reply.
fn process<B: SessionBackend>(shared: &MtShared<B>, job: MtJob<B>) {
    let MtJob {
        request,
        query,
        admitted_at,
        reply,
        slot,
    } = job;
    // A backend that panics costs its request, not the worker: with one
    // worker per shard a dead thread would admit every later request and
    // answer none. `served` is set once the ladder has counted the
    // resolution, so an unwind is counted exactly when nothing else was.
    let mut served = None;
    let walked = catch_unwind(AssertUnwindSafe(|| {
        let decision = slot.backend.plan(&query);
        let mut seam = Request {
            shared,
            slot: &slot,
            query: &query,
            admitted_at,
        };
        let cfg = &shared.config;
        let outcome = ladder::serve(
            &mut seam,
            &cfg.retry,
            &cfg.faults,
            request,
            decision.answerable,
        );
        if served.insert(outcome).is_ok() {
            let _ = slot.backend.finish(&query, &decision);
            // `finish` may have crossed the tenant's drift trigger and forked
            // its COW session.
            if slot.backend.share_epoch() != 0 {
                slot.counters.forked.store(1, Ordering::Relaxed);
            }
        }
    }));
    let served = served.unwrap_or_else(|| {
        slot.counters.fatal.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("serve.fatal", 1);
        let message = walked.as_ref().err().and_then(|payload| {
            let text = payload.downcast_ref::<&str>().copied();
            text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        });
        let what = message.unwrap_or("opaque payload");
        Err(DbError::Interrupted(format!("backend panicked: {what}")))
    });
    // A dropped receiver means the client gave up waiting; the request
    // still counted as resolved above.
    let _ = reply.send(match served {
        Ok(s) => Ok(Answer {
            request,
            rows: s.rows,
            source: s.source,
            attempts: s.attempts,
        }),
        Err(e) => Err(ServeError::Fatal(e)),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MirrorBackend;
    use std::sync::Barrier;

    /// Two racing first registrations of one tenant under different groups
    /// must agree on who won: both see the winner's shard, the entry carries
    /// one of the two groups, and the tenant is placed exactly once.
    #[test]
    fn racing_first_registrations_agree_on_the_group() {
        const TENANTS: u64 = 2_000;
        let db = Arc::new(asqp_db::Database::new());
        let server = MtServer::start(MtConfig::default());
        let barrier = Barrier::new(2);
        let shards: Vec<Vec<usize>> = std::thread::scope(|s| {
            let racers: Vec<_> = [1u64, 2]
                .into_iter()
                .map(|group| {
                    let (server, barrier, db) = (&server, &barrier, &db);
                    s.spawn(move || {
                        let register = |tenant| {
                            barrier.wait();
                            let backend = MirrorBackend::single(Arc::clone(db), 50);
                            server.register_tenant(tenant, group, backend)
                        };
                        (0..TENANTS).map(register).collect()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(shards[0], shards[1], "both racers see the winner's shard");
        let snapshot = server.snapshot();
        assert_eq!(snapshot.len() as u64, TENANTS);
        for (tenant, stats) in &snapshot {
            assert_eq!(stats.shard, shards[0][*tenant as usize], "tenant {tenant}");
            assert!([1, 2].contains(&stats.group), "tenant {tenant}");
        }
        let loads = server.directory().loads.clone();
        assert_eq!(loads.iter().sum::<usize>() as u64, TENANTS);
    }

    /// After depart + re-register the entry reports the freshly allocated
    /// stripe and group, not the stale ones — while the counters carry over.
    #[test]
    fn reregistration_after_departure_resyncs_placement() {
        let db = Arc::new(asqp_db::Database::new());
        let backend = || MirrorBackend::single(Arc::clone(&db), 50);
        let server = MtServer::start(MtConfig {
            shards: 2,
            ..MtConfig::default()
        });
        let s1 = server.register_tenant(1, 10, backend());
        server.register_tenant(2, 10, backend());
        server.register_tenant(3, 10, backend());
        if let Some(TenantEntry::Active(slot)) = server.directory().tenants.get(&1) {
            slot.counters.admitted.fetch_add(5, Ordering::Relaxed);
        }
        assert_eq!(server.depart_tenant(1), Some(s1));
        assert_eq!(server.depart_tenant(1), None, "already gone");
        let gone = server.tenant_stats(1).expect("entry retained");
        assert_eq!((gone.shard, gone.group, gone.admitted), (s1, 10, 5));
        // Tenant 4 fills the freed stripe; tenant 1 then lands elsewhere.
        server.register_tenant(4, 10, backend());
        let s1b = server.register_tenant(1, 11, backend());
        assert_ne!(
            s1b, s1,
            "this layout re-places tenant 1 on the other stripe"
        );
        let back = server.tenant_stats(1).expect("entry retained");
        assert_eq!((back.shard, back.group, back.admitted), (s1b, 11, 5));
        assert_eq!(server.directory().loads, [2, 2]);
    }
}
