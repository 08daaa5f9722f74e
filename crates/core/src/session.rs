//! The inference session (paper §4.4 / Figure 1b), as two types.
//!
//! A [`Session`] is one materialised **approximation set**: the trained
//! model, the subset `S` it selects, the answerability estimator fitted
//! against it, and the full database it falls back to. It routes nothing
//! and tracks no user; any number of users share one behind an `Arc`. Its
//! state has one writer, [`Session::observe_data`], which answers **data
//! drift** (rows appended or updated underneath `S`) with a targeted
//! refresh: `S` is re-materialised and the estimator refit from the
//! **same** model, without retraining. The state records the
//! [`Database::data_fingerprint`] it was built against, so staleness is a
//! single fingerprint comparison.
//!
//! A [`CowSession`] is one user's **view** of a set, and the only thing
//! that routes queries. Each query goes to `S` or to the full database by
//! the estimator ([`CowSession::plan`] / [`CowSession::answer_subset`] /
//! [`CowSession::answer_full`] / [`CowSession::finish`], so a serving layer
//! can put its own deadline and degradation logic between the decision and
//! the answer; [`CowSession::query`] composes them). Confidently-deviating
//! full-database answers accumulate, and at three or more *consecutive*
//! misses trigger **interest-drift** fine-tuning (challenge C5); a
//! confident hit breaks the streak.
//!
//! Views never write their set. A fine-tune **forks**: the view gets a
//! private `Session` built around its drift queries, while the shared set
//! — and every other view still reading it — stays byte-for-byte
//! untouched, so the safety argument is structural, not lock-ordering.
//! Tenants whose workloads cluster hold views of one set (one `S`, one
//! estimator, one model in memory however many tenants); a single user is
//! a view of a set nobody else holds. Fork identity is
//! [`CowSession::share_epoch`]: `0` while on the shared set (views of one
//! set at epoch 0 answer subset queries identically, which lets the
//! serving layer batch their scans), a process-unique non-zero epoch once
//! forked. Data drift forks the same way ([`CowSession::observe_data`]):
//! a view on the shared set gets a private set rebuilt from the set's
//! unchanged model over the new data; a view that already owns a fork
//! refreshes it in place.

use crate::aggregates::approximate_aggregate;
use crate::estimator::{AnswerabilityEstimator, Prediction};
use crate::model::{fine_tune, TrainedModel};
use asqp_db::{Database, DbResult, Query, ResultSet};
use asqp_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnswerSource {
    ApproximationSet,
    FullDatabase,
}

/// Session routing/drift policy (paper defaults: answerability threshold
/// 0.5; drift after 3 deviating queries with confidence ≥ 0.8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Predicted-score threshold below which the full DB is queried.
    pub answer_threshold: f64,
    /// A query "deviates" when its predicted score is below the answer
    /// threshold *and* the deviation confidence exceeds this value. A
    /// subset hit whose estimator confidence reaches the same bar resets
    /// the consecutive-miss counter.
    pub drift_confidence: f64,
    /// Number of consecutive deviating queries that triggers fine-tuning.
    pub drift_trigger: usize,
    /// Disable automatic fine-tuning (drift queries still tracked).
    pub auto_fine_tune: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            answer_threshold: 0.5,
            drift_confidence: 0.8,
            drift_trigger: 3,
            auto_fine_tune: true,
        }
    }
}

/// The model-derived routing state, replaced wholesale by a data refresh.
/// Reached through [`Session::state`].
pub struct SessionState {
    pub model: TrainedModel,
    pub subset: Database,
    pub estimator: AnswerabilityEstimator,
    /// [`Database::data_fingerprint`] of the full database this state was
    /// materialised against; a mismatch with the live database means the
    /// subset and estimator describe stale data.
    pub data_fingerprint: u64,
}

impl SessionState {
    fn build(full_db: &Database, model: TrainedModel) -> DbResult<SessionState> {
        let data_fingerprint = full_db.data_fingerprint();
        let subset = model.materialize(full_db, None)?;
        let estimator =
            AnswerabilityEstimator::fit(&model, full_db, &subset, model.config.metric_params())?;
        Ok(SessionState {
            model,
            subset,
            estimator,
            data_fingerprint,
        })
    }
}

/// The estimator's verdict for one query: the interior routing plan a
/// serving layer acts on (and reports back through [`CowSession::finish`]).
#[derive(Debug, Clone, Copy)]
pub struct RoutePlan {
    pub prediction: Prediction,
    /// `true` → answer from the approximation set.
    pub answerable: bool,
}

/// One materialised approximation set over a full database, shareable
/// across threads and views (`&self` methods throughout).
pub struct Session {
    /// The full database answered against. Behind a lock so a data-drift
    /// refresh ([`Session::observe_data`]) can swap in the new snapshot
    /// together with the rebuilt state.
    full_db: RwLock<Arc<Database>>,
    /// The default config of the views attached to this set.
    pub config: SessionConfig,
    state: RwLock<SessionState>,
}

impl Session {
    /// Materialise the approximation set and fit the estimator.
    pub fn new(
        full_db: Arc<Database>,
        model: TrainedModel,
        config: SessionConfig,
    ) -> DbResult<Self> {
        let state = SessionState::build(&full_db, model)?;
        Ok(Session {
            full_db: RwLock::new(full_db),
            config,
            state: RwLock::new(state),
        })
    }

    /// The full database this set currently falls back to (a cheap `Arc`
    /// snapshot; [`Session::observe_data`] may swap it later).
    pub fn full_db(&self) -> Arc<Database> {
        Arc::clone(&self.full_db.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Fingerprint of the data the current state was built on.
    pub fn data_fingerprint(&self) -> u64 {
        self.state().data_fingerprint
    }

    /// Read access to the model-derived state (estimator, subset, model).
    /// The guard blocks a data refresh while held — keep it short-lived.
    pub fn state(&self) -> RwLockReadGuard<'_, SessionState> {
        self.state.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Answer `q` from the approximation set. Aggregates are
    /// scale-corrected against the full database (§6.4).
    pub fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        let state = self.state();
        if q.is_aggregate() {
            approximate_aggregate(&self.full_db(), &state.subset, q)
        } else {
            state.subset.execute(q)
        }
    }

    /// Answer `q` from the full database.
    pub fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        self.full_db().execute(q)
    }

    /// Observe the live database for **data drift**: rows appended or
    /// updated since this set's state was materialised. A fingerprint
    /// match returns `false` immediately (the cheap steady state). On a
    /// mismatch the set runs a *targeted refresh* — `S` is
    /// re-materialised and the estimator refit from the **same** trained
    /// model over the new snapshot (no retraining; the users' interest
    /// region did not move, the data under it did) — and the new database
    /// replaces the old one for full-DB fallbacks. Returns `true` when a
    /// refresh ran.
    ///
    /// The rebuild happens outside the state lock, so concurrent readers
    /// keep routing against the old (internally consistent) state until
    /// the swap; a concurrent refresh to the same fingerprint is detected
    /// under the write lock and skipped.
    pub fn observe_data(&self, live: &Arc<Database>) -> DbResult<bool> {
        let live_fp = live.data_fingerprint();
        if live_fp == self.state().data_fingerprint {
            return Ok(false);
        }
        telemetry::counter("session.data_drift.detected", 1);
        let _refresh_span = telemetry::span("session.data_refresh");
        let model = self.state().model.clone();
        let new_state = SessionState::build(live, model)?;
        {
            // Lock order: state before full_db, matching `answer_subset`
            // (which reads full_db while holding the state guard).
            let mut state_guard = self.state.write().unwrap_or_else(|p| p.into_inner());
            if state_guard.data_fingerprint == live_fp {
                // Another thread refreshed to this snapshot while we were
                // building; ours is byte-identical, so drop it.
                return Ok(false);
            }
            let mut db_guard = self.full_db.write().unwrap_or_else(|p| p.into_inner());
            *db_guard = Arc::clone(live);
            *state_guard = new_state;
        }
        telemetry::counter("session.data_refresh.runs", 1);
        Ok(true)
    }
}

/// The private fork: epoch and session are published *together* under
/// the fork lock, so a reader can never observe the fork at epoch 0 (or
/// the epoch without the fork) — see [`CowSession::snapshot`].
struct ForkState {
    epoch: u64,
    session: Arc<Session>,
}

/// Process-wide fork-epoch allocator: forked sessions need *unique*
/// epochs (so two forked tenants never batch together), not reproducible
/// ones — the epoch value never reaches scores or transcripts.
static NEXT_FORK_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Point-in-time statistics of one view (see [`CowSession::stats`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CowStats {
    pub queries: usize,
    pub subset_answers: usize,
    pub full_db_answers: usize,
    /// Interest-drift fine-tunes (each one a fork or a re-fork).
    pub fine_tunes: usize,
    /// `true` once this view has forked off the shared set.
    pub forked: bool,
}

#[derive(Default)]
struct Counters {
    queries: AtomicUsize,
    subset_answers: AtomicUsize,
    full_db_answers: AtomicUsize,
    fine_tunes: AtomicUsize,
}

/// One user's copy-on-write view of an approximation set: the router and
/// drift tracker of the session.
///
/// Cheap to create (two `Arc` clones); the expensive work — materialising
/// a private set — happens only on the first fine-tune or data fork.
pub struct CowSession {
    base: Arc<Session>,
    config: SessionConfig,
    /// The private fork (epoch + session), present only after the first
    /// fork.
    fork: RwLock<Option<ForkState>>,
    /// Consecutive confidently-deviating queries since the last confident
    /// hit or fine-tune.
    drift: Mutex<Vec<Query>>,
    counters: Counters,
}

impl CowSession {
    /// Attach a view to a set. `config` governs this view's own routing
    /// thresholds and drift policy (it may differ from the set's) and
    /// becomes the config of its private fork.
    pub fn new(base: Arc<Session>, config: SessionConfig) -> CowSession {
        CowSession {
            base,
            config,
            fork: RwLock::new(None),
            drift: Mutex::new(Vec::new()),
            counters: Counters::default(),
        }
    }

    /// Atomically observe `(share_epoch, routing session)`: `(0, base)`
    /// while shared, `(unique epoch, fork)` once forked. Both come from
    /// one read of the fork lock, so a concurrent fork can never be seen
    /// half-published — this is the snapshot the serving layer must key
    /// shared-scan batching on.
    pub fn snapshot(&self) -> (u64, Arc<Session>) {
        let guard = self.fork.read().unwrap_or_else(|p| p.into_inner());
        match guard.as_ref() {
            Some(fork) => (fork.epoch, Arc::clone(&fork.session)),
            None => (0, Arc::clone(&self.base)),
        }
    }

    /// The set this view currently routes against.
    fn active(&self) -> Arc<Session> {
        self.snapshot().1
    }

    /// Scan-sharing identity: `0` while on the shared set, unique and
    /// non-zero after forking. To key work on the epoch *and* execute
    /// against the matching set, use [`CowSession::snapshot`].
    pub fn share_epoch(&self) -> u64 {
        self.snapshot().0
    }

    /// Deviating queries accumulated towards this view's fine-tune.
    pub fn pending_drift(&self) -> usize {
        self.drift.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Snapshot of this view's statistics.
    pub fn stats(&self) -> CowStats {
        CowStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            subset_answers: self.counters.subset_answers.load(Ordering::Relaxed),
            full_db_answers: self.counters.full_db_answers.load(Ordering::Relaxed),
            fine_tunes: self.counters.fine_tunes.load(Ordering::Relaxed),
            forked: self.share_epoch() != 0,
        }
    }

    /// Consult the active set's estimator and decide the route for `q`
    /// under this view's threshold (pure: no statistics or drift
    /// bookkeeping — that happens in [`CowSession::finish`]).
    pub fn plan(&self, q: &Query) -> RoutePlan {
        let prediction = self.active().state().estimator.predict(q);
        RoutePlan {
            prediction,
            answerable: prediction.score >= self.config.answer_threshold,
        }
    }

    /// Answer from the active approximation set.
    pub fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        self.active().answer_subset(q)
    }

    /// Answer from the active set's full database.
    pub fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        self.active().answer_full(q)
    }

    /// Record the outcome of one routed query: statistics, the
    /// consecutive-miss drift counter (a miss with deviation certainty
    /// ≥ `drift_confidence` extends the streak; an answerable query whose
    /// estimator confidence reaches the same bar resets it), and — at
    /// `drift_trigger` consecutive misses — automatic fine-tuning.
    /// Returns `true` when a fine-tune was triggered.
    pub fn finish(&self, q: &Query, plan: &RoutePlan) -> DbResult<bool> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("session.queries", 1);

        if plan.answerable {
            self.counters.subset_answers.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("session.route.subset", 1);
            // A confident hit breaks the miss streak: the estimator still
            // recognises the user's interest region, so the accumulated
            // deviations were noise, not drift.
            if plan.prediction.confidence >= self.config.drift_confidence {
                let mut drift = self.drift.lock().unwrap_or_else(|p| p.into_inner());
                if !drift.is_empty() {
                    telemetry::counter("session.drift.reset", 1);
                    drift.clear();
                }
            }
            return Ok(false);
        }

        self.counters
            .full_db_answers
            .fetch_add(1, Ordering::Relaxed);
        telemetry::counter("session.route.full_db", 1);

        // Deviation: low predicted score. High confidence means the query
        // is *similar* to training yet predicted unanswerable — a genuine
        // gap; low confidence means it is simply far from the workload.
        // Both are drift signals; the paper gates on confidence ≥ 0.8,
        // which we read as deviation certainty (1 − predicted score).
        let deviation_certainty = 1.0 - plan.prediction.score;
        let mut should_fine_tune = false;
        if deviation_certainty >= self.config.drift_confidence {
            let mut drift = self.drift.lock().unwrap_or_else(|p| p.into_inner());
            drift.push(q.clone());
            telemetry::counter("session.drift.detected", 1);
            should_fine_tune =
                self.config.auto_fine_tune && drift.len() >= self.config.drift_trigger;
        }
        if should_fine_tune {
            self.fork_fine_tune()?;
        }
        Ok(should_fine_tune)
    }

    /// Answer a query (Figure 1b): consult the estimator, route, and track
    /// drift. Aggregates answered from the subset are scale-corrected.
    /// With a telemetry recorder installed, each call emits the predicted
    /// score and a subset-vs-full-DB latency observation.
    pub fn query(&self, q: &Query) -> DbResult<(ResultSet, AnswerSource)> {
        let _query_span = telemetry::span("session.query");
        let t0 = telemetry::enabled().then(Instant::now);
        let plan = self.plan(q);
        telemetry::gauge("session.predicted_score", plan.prediction.score);
        let (rs, source, latency) = if plan.answerable {
            let rs = self.answer_subset(q)?;
            (
                rs,
                AnswerSource::ApproximationSet,
                "session.latency.subset_ns",
            )
        } else {
            let rs = self.answer_full(q)?;
            (rs, AnswerSource::FullDatabase, "session.latency.full_db_ns")
        };
        self.finish(q, &plan)?;
        if let Some(t0) = t0 {
            telemetry::observe_duration(latency, t0.elapsed());
        }
        Ok((rs, source))
    }

    /// Fine-tune on the accumulated drift queries. The active set is read
    /// (model clone) but never written: the view's routing switches to a
    /// private set built around the drift queries — on the first call a
    /// fork at a new epoch, later a replacement of the fork, which is
    /// exclusively ours.
    fn fork_fine_tune(&self) -> DbResult<()> {
        // Taking the queries up front serialises concurrent callers: the
        // loser sees an empty drift set and returns immediately.
        let drift = {
            let mut guard = self.drift.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        if drift.is_empty() {
            return Ok(());
        }
        let _ft_span = telemetry::span("session.fine_tune");
        telemetry::counter("session.fine_tune.runs", 1);
        let active = self.active();
        let old_model = active.state().model.clone();
        let full_db = active.full_db();
        // Boost each drift query to the weight mass of the average original.
        let boost = 1.0 / old_model.train_workload.len().max(1) as f64;
        let new_model = fine_tune(&full_db, &old_model, &drift, boost)?;
        let forked = Arc::new(Session::new(full_db, new_model, self.config.clone())?);
        let mut guard = self.fork.write().unwrap_or_else(|p| p.into_inner());
        match guard.as_mut() {
            Some(fork) => {
                // Post-fork refinement: the epoch (already unique) stays.
                fork.session = forked;
                telemetry::counter("session.cow.refine", 1);
            }
            None => {
                // First fork: epoch and session become visible in the
                // same store, so no reader can key a scan at epoch 0 and
                // then execute it against the fork.
                let epoch = NEXT_FORK_EPOCH.fetch_add(1, Ordering::Relaxed);
                *guard = Some(ForkState {
                    epoch,
                    session: forked,
                });
                telemetry::counter("session.cow.fork", 1);
            }
        }
        self.counters.fine_tunes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Observe the live database for **data drift** — the view-side
    /// counterpart of [`Session::observe_data`]. While this view still
    /// shares its set, a stale fingerprint **forks**: the view gets a
    /// private set built from the shared set's unchanged model over `live`
    /// (a data refresh, not interest retraining — the drift streak is
    /// untouched); the shared set and its other views are never written.
    /// A view that already owns a fork refreshes it in place. Returns
    /// `true` when a fork or refresh happened.
    pub fn observe_data(&self, live: &Arc<Database>) -> DbResult<bool> {
        let (epoch, active) = self.snapshot();
        if live.data_fingerprint() == active.data_fingerprint() {
            return Ok(false);
        }
        if epoch != 0 {
            // The fork is exclusively ours: refresh it in place.
            telemetry::counter("session.cow.data_refresh", 1);
            return active.observe_data(live);
        }
        telemetry::counter("session.data_drift.detected", 1);
        let model = active.state().model.clone();
        let refreshed = Arc::new(Session::new(Arc::clone(live), model, self.config.clone())?);
        let mut guard = self.fork.write().unwrap_or_else(|p| p.into_inner());
        if let Some(fork) = guard.as_ref() {
            // Lost a fork race: another thread published a private set
            // (with a possibly fine-tuned model) between our snapshot and
            // this lock. Its model supersedes the shared one — refresh it
            // rather than overwrite it.
            let session = Arc::clone(&fork.session);
            drop(guard);
            return session.observe_data(live);
        }
        let epoch = NEXT_FORK_EPOCH.fetch_add(1, Ordering::Relaxed);
        *guard = Some(ForkState {
            epoch,
            session: refreshed,
        });
        telemetry::counter("session.cow.data_fork", 1);
        Ok(true)
    }
}
