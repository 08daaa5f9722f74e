//! Single-flight batching of similar in-flight subset queries.
//!
//! Two tenants whose workloads cluster together read the *same* shared
//! approximation set (see `asqp_core::CowSession`), so identical subset queries
//! arriving close together would run the identical scan twice.
//! [`ScanBatcher`] coalesces them: concurrent executions are keyed by
//! [`ScanKey`] — the tenant's COW group, its share epoch, and the
//! query's **exact** canonical SQL — and only the first arrival (the
//! *leader*) runs the scan; followers block on the leader's flight and
//! clone its result.
//!
//! Who owns the result: the leader does, and returns it by move. Followers
//! take the flight's `Arc` under the `flights` lock, so the leader
//! deregisters the key under that lock first and then reads from the
//! flight's reference count whether anyone joined. Nobody did (always, with
//! one worker per shard): nothing is published or copied. Somebody did: one
//! copy is published and each follower clones it. A leader that unwinds out
//! of its scan deregisters the key all the same and fails its followers
//! with a transient [`DbError::Interrupted`], so nobody waits on a dead
//! flight and the next identical query leads.
//!
//! Safety argument: a key only matches between tenants of the same group
//! with the same share epoch, for the *same query*. Epoch `0` means
//! "still on the shared base set", where subset answers are
//! definitionally identical; a forked tenant carries a process-unique
//! non-zero epoch, so its scans never coalesce with anyone (including
//! other forks of the same group). The query component is the full
//! `Query::to_sql` rendering, literals and LIMIT intact: two
//! instantiations of one template are two queries with two answers, and
//! coalescing `x = 1` with `x = 2` (or `LIMIT 5` with `LIMIT 90`) would
//! hand a follower another query's result.

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
    /// Exact canonical SQL (`Query::to_sql`), literals and LIMIT intact:
    /// the full identity of the query.
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

type ScanResult<T> = Result<T, DbError>;

/// One in-flight scan: the leader publishes into `slot`, followers wait
/// on `cv`.
struct Flight<T> {
    slot: Mutex<Option<ScanResult<T>>>,
    cv: Condvar,
}

impl<T: Clone> Flight<T> {
    fn new() -> Flight<T> {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: ScanResult<T>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> ScanResult<T> {
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

/// Single-flight coalescer for subset scans across tenants (`T` is the
/// scan's rows; anything but `ResultSet` is a test double).
pub struct ScanBatcher<T = ResultSet> {
    flights: Mutex<BTreeMap<ScanKey, Arc<Flight<T>>>>,
    leads: AtomicU64,
    hits: AtomicU64,
}

impl<T: Clone> Default for ScanBatcher<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The leader's registration of its flight, released when `run` returns
/// or unwinds.
struct Lead<'a, T: Clone> {
    batcher: &'a ScanBatcher<T>,
    key: &'a ScanKey,
    flight: &'a Arc<Flight<T>>,
}

impl<T: Clone> Lead<'_, T> {
    /// Deregister the key, then publish `outcome()` if anyone joined.
    /// Once the key is gone under the `flights` lock no new follower can
    /// take the `Arc`, and a follower drops its own only after a publish,
    /// so the count read here is exact: ours plus one per follower.
    fn release(&self, outcome: impl FnOnce() -> ScanResult<T>) {
        self.batcher.flights().remove(self.key);
        if Arc::strong_count(self.flight) > 1 {
            self.flight.publish(outcome());
        }
    }
}

impl<T: Clone> Drop for Lead<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.release(|| Err(DbError::Interrupted("shared scan leader panicked".into())));
        }
    }
}

impl<T: Clone> ScanBatcher<T> {
    pub fn new() -> ScanBatcher<T> {
        ScanBatcher {
            flights: Mutex::new(BTreeMap::new()),
            leads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    fn flights(&self) -> std::sync::MutexGuard<'_, BTreeMap<ScanKey, Arc<Flight<T>>>> {
        self.flights.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Execute `run` under single-flight semantics for `key`: if an
    /// identical scan is already in flight, wait for it and clone its
    /// result instead of executing.
    pub fn execute(
        &self,
        key: ScanKey,
        run: impl FnOnce() -> ScanResult<T>,
    ) -> (ScanResult<T>, ScanRole) {
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
                let lead = Lead {
                    batcher: self,
                    key: &key,
                    flight: &flight,
                };
                let result = run();
                lead.release(|| result.clone());
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
        ResultSet::default()
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
    /// another query. All four of these are one template.
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

    /// Rows that count how often they are copied, and say whose they are.
    #[derive(Debug)]
    struct Counted {
        copies: Arc<AtomicUsize>,
        owner: usize,
    }

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.copies.fetch_add(1, Ordering::SeqCst);
            Counted {
                copies: Arc::clone(&self.copies),
                owner: self.owner,
            }
        }
    }

    /// Followers currently holding `key`'s flight (beside the map's and the
    /// leader's references).
    fn joined<T: Clone>(b: &ScanBatcher<T>, key: &ScanKey) -> usize {
        b.flights().get(key).map_or(0, |f| Arc::strong_count(f) - 2)
    }

    /// Run one leader and `followers` followers of one key, every follower
    /// joining while the leader is held inside `run` — the latest point a
    /// leader can be held before it deregisters. `leader_run` is the tail of
    /// the leader's scan; every other scan would return its own thread's
    /// rows. Returns each thread's outcome, the leader's first.
    fn fly(
        b: &ScanBatcher<Counted>,
        copies: &Arc<AtomicUsize>,
        followers: usize,
        leader_run: impl FnOnce() -> ScanResult<Counted> + Send,
    ) -> Vec<std::thread::Result<(ScanResult<Counted>, ScanRole)>> {
        let k = key(5, 0, "q");
        let (in_run, leading) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                b.execute(k.clone(), || {
                    in_run.send(()).expect("test thread is waiting");
                    while joined(b, &k) < followers {
                        std::thread::yield_now();
                    }
                    leader_run()
                })
            });
            leading.recv().expect("leader reached its scan");
            let mut threads = vec![leader];
            for owner in 1..=followers {
                let copies = Arc::clone(copies);
                let k = k.clone();
                threads.push(s.spawn(move || b.execute(k, || Ok(Counted { copies, owner }))));
            }
            threads.into_iter().map(|t| t.join()).collect()
        })
    }

    #[test]
    fn unfollowed_leader_returns_its_rows_without_a_copy() {
        let b = ScanBatcher::new();
        let copies = Arc::new(AtomicUsize::new(0));
        let rows = Counted {
            copies: Arc::clone(&copies),
            owner: 0,
        };
        let (result, role) = b.execute(key(5, 0, "q"), || Ok(rows));
        assert_eq!(role, ScanRole::Leader);
        assert_eq!(result.map(|r| r.owner), Ok(0));
        assert_eq!(copies.load(Ordering::SeqCst), 0, "nobody joined: no clone");
        assert!(b.flights().is_empty());
    }

    /// Followers that join before the leader deregisters get the leader's
    /// rows, at the price of one published copy plus one per follower.
    #[test]
    fn followers_joining_before_deregistration_get_the_leaders_rows() {
        let b = ScanBatcher::new();
        let copies = Arc::new(AtomicUsize::new(0));
        let rows = Counted {
            copies: Arc::clone(&copies),
            owner: 0,
        };
        let outcomes = fly(&b, &copies, 3, || Ok(rows));
        let roles: Vec<ScanRole> = outcomes
            .into_iter()
            .map(|o| {
                let (result, role) = o.expect("no thread panicked");
                assert_eq!(result.map(|r| r.owner), Ok(0), "the leader's rows");
                role
            })
            .collect();
        assert_eq!(roles[0], ScanRole::Leader);
        assert_eq!(roles[1..], [ScanRole::Follower; 3]);
        assert_eq!((b.leads(), b.shared_hits()), (1, 3));
        assert_eq!(copies.load(Ordering::SeqCst), 1 + 3);
        assert!(b.flights().is_empty());
    }

    /// Regression: a leader that unwound out of `run` never published and
    /// never deregistered, so its followers waited forever and every later
    /// identical query followed the dead flight.
    #[test]
    fn panicking_leader_fails_its_follower_and_frees_the_key() {
        let b = ScanBatcher::new();
        let copies = Arc::new(AtomicUsize::new(0));
        let mut outcomes = fly(&b, &copies, 1, || panic!("scan blew up"));
        let follower = outcomes
            .pop()
            .expect("two threads")
            .expect("follower returns");
        assert!(
            outcomes.pop().expect("two threads").is_err(),
            "leader unwound"
        );
        assert_eq!(follower.1, ScanRole::Follower);
        let err = follower.0.expect_err("no rows to share");
        assert!(err.is_transient(), "a retry may lead afresh: {err}");
        assert!(b.flights().is_empty());
        let (again, role) = b.execute(key(5, 0, "q"), || Ok(Counted { copies, owner: 9 }));
        assert_eq!(role, ScanRole::Leader);
        assert_eq!(again.map(|r| r.owner), Ok(9));
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
