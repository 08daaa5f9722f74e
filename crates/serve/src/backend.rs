//! What the server serves: a routing backend over subset + full database.
//!
//! [`SessionBackend`] is the seam between the serving layer and the
//! ASQP session logic. The real implementation is
//! [`asqp_core::CowSession`] (one user's estimator-routed, drift-tracked
//! view of a shared approximation set); the [`MirrorBackend`] is a
//! model-free stand-in — hash-routed over two plain databases — so chaos
//! tests and throughput benches can hammer the concurrency machinery
//! without paying for RL training.

use crate::fault::fnv1a;
use asqp_core::{CowSession, RoutePlan};
use asqp_db::{Database, DbResult, Query, ResultSet};
use std::sync::Arc;

/// The backend's routing verdict, opaque to the server beyond
/// `answerable` (it carries the session's interior plan through to
/// [`SessionBackend::finish`]).
#[derive(Debug, Clone, Copy)]
pub struct RouteDecision {
    /// `true` → answer from the approximation set; `false` → full DB.
    pub answerable: bool,
    plan: Option<RoutePlan>,
}

impl RouteDecision {
    /// A bare decision with no session plan attached (for stand-in
    /// backends).
    pub fn bare(answerable: bool) -> RouteDecision {
        RouteDecision {
            answerable,
            plan: None,
        }
    }
}

/// A thread-safe query-answering backend the server fans out over.
pub trait SessionBackend: Send + Sync + 'static {
    /// Decide the route for `q` without executing anything.
    fn plan(&self, q: &Query) -> RouteDecision;
    /// Answer from the approximation set (local, fault-free domain).
    fn answer_subset(&self, q: &Query) -> DbResult<ResultSet>;
    /// Answer from the full database (the faultable domain).
    fn answer_full(&self, q: &Query) -> DbResult<ResultSet>;
    /// Record the outcome of a routed query (statistics, drift tracking).
    fn finish(&self, q: &Query, decision: &RouteDecision) -> DbResult<()> {
        let _ = (q, decision);
        Ok(())
    }
    /// Scan-sharing identity for the multi-tenant batcher. Same-group
    /// backends at the same epoch — **including the default epoch `0`** —
    /// are declared interchangeable: their identical in-flight subset
    /// queries coalesce, and a follower is handed a clone of the
    /// leader's rows. Registering backends that do not answer subset
    /// queries identically under one group is therefore unsound; give
    /// them distinct groups. A [`CowSession`] signals its private fork
    /// with a process-unique non-zero epoch, which takes it out of every
    /// shared flight of its old cluster.
    fn share_epoch(&self) -> u64 {
        0
    }

    /// Atomically observe the share epoch *together with* a subset scan
    /// pinned to the set that epoch describes. The multi-tenant batcher
    /// keys coalescing on the returned epoch and runs the returned
    /// closure as the leader's scan; implementations must guarantee that
    /// a concurrent fork cannot slip in between the two observations
    /// (the default pairing is correct only because a plain backend's
    /// epoch never changes).
    fn pinned_subset_scan<'a>(
        &'a self,
        q: &'a Query,
    ) -> (u64, Box<dyn FnOnce() -> DbResult<ResultSet> + Send + 'a>) {
        (self.share_epoch(), Box::new(move || self.answer_subset(q)))
    }
}

/// Shared backends serve through `Arc` unchanged — a streaming harness
/// keeps one handle for concurrent ingest while the server owns another.
impl<B: SessionBackend> SessionBackend for Arc<B> {
    fn plan(&self, q: &Query) -> RouteDecision {
        (**self).plan(q)
    }

    fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        (**self).answer_subset(q)
    }

    fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        (**self).answer_full(q)
    }

    fn finish(&self, q: &Query, decision: &RouteDecision) -> DbResult<()> {
        (**self).finish(q, decision)
    }

    fn share_epoch(&self) -> u64 {
        (**self).share_epoch()
    }

    fn pinned_subset_scan<'a>(
        &'a self,
        q: &'a Query,
    ) -> (u64, Box<dyn FnOnce() -> DbResult<ResultSet> + Send + 'a>) {
        (**self).pinned_subset_scan(q)
    }
}

impl SessionBackend for CowSession {
    fn plan(&self, q: &Query) -> RouteDecision {
        let plan = CowSession::plan(self, q);
        RouteDecision {
            answerable: plan.answerable,
            plan: Some(plan),
        }
    }

    fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        CowSession::answer_subset(self, q)
    }

    fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        CowSession::answer_full(self, q)
    }

    fn finish(&self, q: &Query, decision: &RouteDecision) -> DbResult<()> {
        if let Some(plan) = &decision.plan {
            CowSession::finish(self, q, plan)?;
        }
        Ok(())
    }

    /// Forked tenants stop coalescing with their old cluster.
    fn share_epoch(&self) -> u64 {
        CowSession::share_epoch(self)
    }

    /// Epoch and session come from one [`CowSession::snapshot`] read, so
    /// a fork racing this request can never produce a scan that executes
    /// against the private fork while keyed at the shared epoch 0.
    fn pinned_subset_scan<'a>(
        &'a self,
        q: &'a Query,
    ) -> (u64, Box<dyn FnOnce() -> DbResult<ResultSet> + Send + 'a>) {
        let (epoch, session) = self.snapshot();
        (epoch, Box::new(move || session.answer_subset(q)))
    }
}

/// Model-free backend: routes by a stable hash of the query text so a
/// fixed fraction of queries takes the subset path, answers both routes
/// from plain databases. Routing is pure — the same query always takes
/// the same route — which keeps chaos runs reproducible.
pub struct MirrorBackend {
    subset: Arc<Database>,
    full: Arc<Database>,
    /// Percentage (0–100) of queries routed to the subset.
    subset_pct: u8,
}

impl MirrorBackend {
    pub fn new(subset: Arc<Database>, full: Arc<Database>, subset_pct: u8) -> MirrorBackend {
        MirrorBackend {
            subset,
            full,
            subset_pct: subset_pct.min(100),
        }
    }

    /// Both routes served by the same database — the cheapest possible
    /// backend for stress tests.
    pub fn single(db: Arc<Database>, subset_pct: u8) -> MirrorBackend {
        MirrorBackend::new(db.clone(), db, subset_pct)
    }

    /// The pure routing rule, exposed so the discrete-event simulator can
    /// reuse it.
    pub fn routes_to_subset(sql: &str, subset_pct: u8) -> bool {
        (fnv1a(sql.as_bytes()) % 100) < subset_pct as u64
    }
}

impl SessionBackend for MirrorBackend {
    fn plan(&self, q: &Query) -> RouteDecision {
        RouteDecision::bare(Self::routes_to_subset(&q.to_sql(), self.subset_pct))
    }

    fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        self.subset.execute(q)
    }

    fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        self.full.execute(q)
    }
}
