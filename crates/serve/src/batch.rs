//! Single-flight batching of similar in-flight subset queries.
//!
//! Two tenants whose workloads cluster together read the *same* shared
//! approximation set (see `asqp_core::cow`), so identical subset queries
//! arriving close together would run the identical scan twice.
//! [`ScanBatcher`] coalesces them: concurrent executions are keyed by
//! [`ScanKey`] — the tenant's COW group, its share epoch, and the
//! query's **exact** canonical SQL — and only the first arrival (the
//! *leader*) runs the scan; followers block on the leader's flight and
//! clone its result.
//!
//! Safety argument: a key only matches between tenants of the same group
//! with the same share epoch, for the *same query*. Epoch `0` means
//! "still on the shared base set", where subset answers are
//! definitionally identical; a forked tenant carries a process-unique
//! non-zero epoch, so its scans never coalesce with anyone (including
//! other forks of the same group). The query component is the full
//! `Query::to_sql` rendering, literals and LIMIT intact — the plan
//! cache's normalized *shape* key is deliberately NOT used here: a plan
//! transfers between literal instantiations of one template, but rows do
//! not, and coalescing `x = 1` with `x = 2` (or `LIMIT 5` with
//! `LIMIT 90`) would hand a follower another query's result.

use asqp_db::{DbError, Query, ResultSet};
use asqp_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identity of a coalescable subset scan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScanKey {
    /// COW cluster the tenant belongs to.
    pub group: u64,
    /// `CowSession::share_epoch()`: 0 = shared base, unique when forked.
    pub epoch: u64,
    /// Exact canonical SQL (`Query::to_sql`), literals and LIMIT intact —
    /// full query identity, never a normalized shape.
    pub sql: String,
}

impl ScanKey {
    /// Key for `query` issued by a tenant of `group` at `epoch`.
    pub fn for_query(group: u64, epoch: u64, query: &Query) -> ScanKey {
        ScanKey {
            group,
            epoch,
            sql: query.to_sql(),
        }
    }
}

type ScanResult = Result<ResultSet, DbError>;

/// One in-flight scan: the leader publishes into `slot`, followers wait
/// on `cv`.
struct Flight {
    slot: Mutex<Option<ScanResult>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: ScanResult) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> ScanResult {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// How a [`ScanBatcher::execute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanRole {
    /// This call ran the scan.
    Leader,
    /// This call rode a concurrent leader's scan (a shared-scan hit).
    Follower,
}

/// Single-flight coalescer for subset scans across tenants.
pub struct ScanBatcher {
    flights: Mutex<BTreeMap<ScanKey, Arc<Flight>>>,
    leads: AtomicU64,
    hits: AtomicU64,
}

impl Default for ScanBatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanBatcher {
    pub fn new() -> ScanBatcher {
        ScanBatcher {
            flights: Mutex::new(BTreeMap::new()),
            leads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    fn flights(&self) -> std::sync::MutexGuard<'_, BTreeMap<ScanKey, Arc<Flight>>> {
        self.flights.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Execute `run` under single-flight semantics for `key`: if an
    /// identical scan is already in flight, wait for it and clone its
    /// result instead of executing.
    pub fn execute(
        &self,
        key: ScanKey,
        run: impl FnOnce() -> ScanResult,
    ) -> (ScanResult, ScanRole) {
        let (flight, role) = {
            let mut flights = self.flights();
            match flights.get(&key) {
                Some(existing) => (Arc::clone(existing), ScanRole::Follower),
                None => {
                    let flight = Arc::new(Flight::new());
                    flights.insert(key.clone(), Arc::clone(&flight));
                    (flight, ScanRole::Leader)
                }
            }
        };
        match role {
            ScanRole::Leader => {
                let result = run();
                flight.publish(result.clone());
                // Deregister *after* publishing: followers holding the
                // Arc still see the result; later arrivals lead afresh.
                self.flights().remove(&key);
                self.leads.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.scan.lead", 1);
                (result, ScanRole::Leader)
            }
            ScanRole::Follower => {
                let result = flight.wait();
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.scan.shared", 1);
                (result, ScanRole::Follower)
            }
        }
    }

    /// Scans actually executed.
    pub fn leads(&self) -> u64 {
        self.leads.load(Ordering::Relaxed)
    }

    /// Executions saved by riding a concurrent identical scan.
    pub fn shared_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_db::ResultSet;
    use std::sync::atomic::AtomicUsize;

    fn empty_rs() -> ResultSet {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn key(group: u64, epoch: u64, sql: &str) -> ScanKey {
        ScanKey {
            group,
            epoch,
            sql: sql.to_string(),
        }
    }

    /// Regression (REVIEW: high): same template, different literals or
    /// LIMITs must NOT share a key — a follower would be handed rows for
    /// another query. The normalized plan-shape key would collapse all
    /// four of these.
    #[test]
    fn keys_distinguish_literals_and_limits() {
        let parse = |s: &str| asqp_db::sql::parse(s).expect("valid test SQL");
        let a = parse("SELECT t.name FROM title AS t WHERE t.year > 1990 LIMIT 5");
        let b = parse("SELECT t.name FROM title AS t WHERE t.year > 2005 LIMIT 5");
        let c = parse("SELECT t.name FROM title AS t WHERE t.year > 1990 LIMIT 90");
        let d = parse("SELECT t.name FROM title AS t WHERE t.year > 1990");
        let k = |q: &asqp_db::Query| ScanKey::for_query(1, 0, q);
        assert_ne!(k(&a), k(&b), "different literals must not coalesce");
        assert_ne!(k(&a), k(&c), "different LIMITs must not coalesce");
        assert_ne!(k(&a), k(&d), "absent LIMIT must not coalesce");
        assert_eq!(k(&a), ScanKey::for_query(1, 0, &a), "identity is stable");
    }

    #[test]
    fn sequential_executions_each_lead() {
        let b = ScanBatcher::new();
        let (_, r1) = b.execute(key(1, 0, "s"), || Ok(empty_rs()));
        let (_, r2) = b.execute(key(1, 0, "s"), || Ok(empty_rs()));
        assert_eq!(r1, ScanRole::Leader);
        assert_eq!(r2, ScanRole::Leader);
        assert_eq!(b.leads(), 2);
        assert_eq!(b.shared_hits(), 0);
    }

    #[test]
    fn concurrent_identical_scans_coalesce() {
        let b = Arc::new(ScanBatcher::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let b = Arc::clone(&b);
                let executions = Arc::clone(&executions);
                std::thread::spawn(move || {
                    let (result, _) = b.execute(key(3, 0, "shape"), || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open so other threads pile in.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(empty_rs())
                    });
                    assert!(result.is_ok());
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        assert_eq!(b.leads() + b.shared_hits(), threads as u64);
        assert_eq!(b.leads(), executions.load(Ordering::SeqCst) as u64);
        assert!(
            b.shared_hits() > 0,
            "50ms window must coalesce at least one of {threads} concurrent scans"
        );
    }

    #[test]
    fn different_epochs_never_coalesce() {
        let b = Arc::new(ScanBatcher::new());
        let handles: Vec<_> = (0..4u64)
            .map(|epoch| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    // Same group + shape, distinct epochs (forked tenants).
                    let (_, role) = b.execute(key(9, epoch + 1, "shape"), || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok(empty_rs())
                    });
                    role
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().ok(), Some(ScanRole::Leader));
        }
        assert_eq!(b.shared_hits(), 0);
    }
}
