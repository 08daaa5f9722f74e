//! Living-data streaming scenario: serving while the database grows.
//!
//! The chaos simulator ([`run_sim`](crate::run_sim)) proves the serving
//! [`ladder`] on a *frozen* database. This module closes the remaining
//! gap to the paper's exploration story: the full database keeps receiving
//! rows while analysts query it, and the approximation-set view must
//! follow the data without ever serving from a torn or silently stale
//! state.
//!
//! Two pieces:
//!
//! * [`LiveBackend`] — a [`SessionBackend`] over a **mutable** full
//!   database plus an immutable serving *view* (the approximation-set
//!   stand-in: a deterministic row sample, like the `MirrorBackend` is a
//!   model-free stand-in for a trained session). Ingest goes through
//!   [`LiveBackend::append`] / [`LiveBackend::update`]; queries read a
//!   point-in-time `Arc` snapshot of the view, so a refresh never tears
//!   an in-flight answer. Staleness is a *version* property:
//!   [`LiveBackend::observe_data`] compares the live
//!   [`data_fingerprint`](asqp_db::Database::data_fingerprint) with the
//!   view's inherited one (subsets snapshot their parent's data
//!   versions) and re-materialises only on drift — the serving-tier
//!   mirror of `asqp_core::Session::observe_data`.
//! * [`run_stream`] — a deterministic interleaving of ingest batches,
//!   in-place updates, fault-injected queries, and periodic drift
//!   observations, driven entirely by splitmix64 hashes of
//!   `(seed, op)`. Same seed ⇒ byte-identical [`StreamReport::render`]
//!   transcript (including every real row count the live database
//!   returned), plus a write ledger whose `lost_writes=0` footer line is
//!   what the CI `replay` job greps for.

use crate::backend::{MirrorBackend, RouteDecision, SessionBackend};
use crate::backoff::RetryPolicy;
use crate::event::{EventKind, EventLog, Script, ServerStats};
use crate::fault::{splitmix64, FaultPlan};
use crate::ladder::{self, Seam};
use asqp_db::{sql, Database, DbResult, Query, ResultSet, Row, Schema, Value, ValueType};
use asqp_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// A serving backend over a live, growing database.
///
/// Writers mutate the full database under an exclusive lock; readers
/// answer subset-routed queries from an `Arc` snapshot of the last
/// materialised view and full-routed queries from the live database
/// under a shared lock. The view deliberately lags ingest until a drift
/// observation refreshes it — exactly the approximation-set lifecycle,
/// with the fingerprint check standing in for the session's.
pub struct LiveBackend {
    live: RwLock<Database>,
    view: RwLock<Arc<Database>>,
    /// Percentage (0–100) of queries hash-routed to the view.
    subset_pct: u8,
    /// View sampling stride: every `stride`-th row per table.
    stride: usize,
}

impl LiveBackend {
    pub fn new(db: Database, subset_pct: u8, stride: usize) -> DbResult<LiveBackend> {
        let stride = stride.max(1);
        let view = Arc::new(materialize_view(&db, stride)?);
        Ok(LiveBackend {
            live: RwLock::new(db),
            view: RwLock::new(view),
            subset_pct: subset_pct.min(100),
            stride,
        })
    }

    fn read_live(&self) -> RwLockReadGuard<'_, Database> {
        self.live.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Append `rows` to `table` in the live database. Returns the number
    /// of rows acknowledged — the caller's write ledger counts these.
    pub fn append(&self, table: &str, rows: &[Row]) -> DbResult<usize> {
        let n = self
            .live
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .append_rows(table, rows)?;
        telemetry::counter("serve.stream.appended_rows", n as u64);
        Ok(n)
    }

    /// Overwrite rows of `table` in place.
    pub fn update(&self, table: &str, updates: &[(usize, Row)]) -> DbResult<usize> {
        let n = self
            .live
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .update_rows(table, updates)?;
        telemetry::counter("serve.stream.updated_rows", n as u64);
        Ok(n)
    }

    /// Current row count of `table` in the live database (0 if absent).
    pub fn row_count(&self, table: &str) -> usize {
        self.read_live()
            .table(table)
            .map(|t| t.row_count())
            .unwrap_or(0)
    }

    /// Data fingerprint of the live database.
    pub fn data_fingerprint(&self) -> u64 {
        self.read_live().data_fingerprint()
    }

    /// Point-in-time snapshot of the serving view.
    pub fn view(&self) -> Arc<Database> {
        Arc::clone(&self.view.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Data fingerprint the current view was materialised at (subsets
    /// inherit their parent tables' data versions).
    pub fn view_fingerprint(&self) -> u64 {
        self.view().data_fingerprint()
    }

    /// Observe the live database for data drift and re-materialise the
    /// serving view if it is stale. Returns `true` when a refresh ran.
    /// In-flight queries keep their old `Arc` snapshot — the swap can
    /// never tear an answer.
    pub fn observe_data(&self) -> DbResult<bool> {
        let fresh = {
            let live = self.read_live();
            if live.data_fingerprint() == self.view_fingerprint() {
                return Ok(false);
            }
            telemetry::counter("serve.stream.data_drift", 1);
            // Materialised under the same read guard that saw the drift,
            // so the new view is a consistent snapshot of one version.
            materialize_view(&live, self.stride)?
        };
        *self.view.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(fresh);
        telemetry::counter("serve.stream.refresh", 1);
        Ok(true)
    }
}

impl SessionBackend for LiveBackend {
    fn plan(&self, q: &Query) -> RouteDecision {
        RouteDecision::bare(MirrorBackend::routes_to_subset(
            &q.to_sql(),
            self.subset_pct,
        ))
    }

    fn answer_subset(&self, q: &Query) -> DbResult<ResultSet> {
        self.view().execute(q)
    }

    fn answer_full(&self, q: &Query) -> DbResult<ResultSet> {
        self.read_live().execute(q)
    }
}

/// Deterministic row sample: every `stride`-th row of every table.
fn materialize_view(db: &Database, stride: usize) -> DbResult<Database> {
    let mut sel: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for t in db.tables() {
        sel.insert(
            t.name().to_string(),
            (0..t.row_count()).step_by(stride.max(1)).collect(),
        );
    }
    db.subset(&sel)
}

/// Configuration of one streaming chaos run. Full-database query attempts
/// run under [`FaultPlan::chaos`] of the seed with [`RetryPolicy::chaos`];
/// the operation mix is fixed by the constants below.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Seeds the fault plan, the operation mix, batch contents and query
    /// generation.
    pub seed: u64,
    /// Total interleaved operations (ingest batches, updates, queries).
    pub ops: u64,
}

impl StreamConfig {
    /// The reference streaming scenario: 96 operations (≈ a third of
    /// them writes) against a 256-row fixture under [`FaultPlan::chaos`],
    /// observing for drift every 8 operations.
    pub fn chaos(seed: u64) -> StreamConfig {
        StreamConfig { seed, ops: 96 }
    }
}

/// Percentage (0–100) of operations that are ingest batches.
const APPEND_PCT: u8 = 25;
/// Percentage (0–100) of operations that are in-place update batches.
const UPDATE_PCT: u8 = 15;
/// Maximum ingest batch size.
const BATCH_MAX: u64 = 24;
/// Maximum rows per update batch.
const UPDATE_MAX: u64 = 6;
/// Run a data-drift observation after every N operations.
const OBSERVE_EVERY: u64 = 8;
/// Percentage (0–100) of queries hash-routed to the view.
const SUBSET_PCT: u8 = 50;
/// View sampling stride.
const STRIDE: usize = 4;
/// Rows in the seed fixture before streaming starts.
const SEED_ROWS: usize = 256;

/// Counters of one streaming run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub ops: u64,
    pub appends: u64,
    pub appended_rows: u64,
    pub updates: u64,
    pub updated_rows: u64,
    pub queries: u64,
    pub resolved_subset: u64,
    pub resolved_full: u64,
    pub degraded: u64,
    pub retries: u64,
    /// Drift observations that found the view stale and refreshed it.
    pub refreshes: u64,
    /// Ledger mismatch: |rows acknowledged − rows present| at the end.
    /// Anything but 0 means ingest lost (or invented) writes.
    pub lost_writes: u64,
}

/// Outcome of a streaming run.
#[derive(Debug)]
pub struct StreamReport {
    pub stats: StreamStats,
    pub log: EventLog,
    /// Data fingerprint of the live database after the run.
    pub final_fingerprint: u64,
}

impl StreamReport {
    /// Canonical transcript plus a summary footer. The last line is
    /// always `lost_writes=<n>` — the CI `replay` job double-runs,
    /// byte-compares two renders, and greps for `^lost_writes=0$`.
    pub fn render(&self) -> String {
        let s = &self.stats;
        format!(
            "{}summary ops={} appends={} appended_rows={} updates={} updated_rows={} \
             queries={} subset={} full={} degraded={} retries={} refreshes={} \
             fingerprint={:#018x}\nlost_writes={}\n",
            self.log.render(),
            s.ops,
            s.appends,
            s.appended_rows,
            s.updates,
            s.updated_rows,
            s.queries,
            s.resolved_subset,
            s.resolved_full,
            s.degraded,
            s.retries,
            s.refreshes,
            self.final_fingerprint,
            s.lost_writes
        )
    }
}

/// Seeded streaming fixture: one `events(id, bucket, score)` table.
pub fn stream_fixture(seed: u64, rows: usize) -> DbResult<Database> {
    let mut db = Database::new();
    let t = db.create_table(
        "events",
        Schema::build(&[
            ("id", ValueType::Int),
            ("bucket", ValueType::Int),
            ("score", ValueType::Float),
        ]),
    )?;
    for i in 0..rows {
        t.push_row(&gen_event_row(seed, i as u64))?;
    }
    Ok(db)
}

/// One deterministic event row.
fn gen_event_row(seed: u64, n: u64) -> Row {
    let h = splitmix64(seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    vec![
        Value::Int(n as i64),
        Value::Int((h % 16) as i64),
        Value::Float(((h >> 16) % 1000) as f64 / 10.0),
    ]
}

/// One deterministic query over the events table; `id_bound` keeps range
/// predicates inside (or just past) the ingested id space.
fn gen_stream_query(h: u64, id_bound: u64) -> DbResult<Query> {
    let text = match h % 3 {
        0 => format!(
            "SELECT e.id FROM events e WHERE e.bucket = {}",
            splitmix64(h ^ 0xB0) % 16
        ),
        1 => {
            let a = splitmix64(h ^ 0xA1) % id_bound.max(1);
            let k = 1 + splitmix64(h ^ 0xA2) % 64;
            format!(
                "SELECT e.id FROM events e WHERE e.id >= {a} AND e.id < {}",
                a + k
            )
        }
        _ => format!(
            "SELECT COUNT(*) FROM events e WHERE e.bucket < {}",
            1 + splitmix64(h ^ 0xC0) % 15
        ),
    };
    sql::parse(&text)
}

/// Run one streaming chaos scenario: a pure function of the config. The
/// transcript records every real row count the live data produced, so a
/// byte-identical double run certifies the whole ingest + maintenance +
/// serving pipeline, not just the scheduler.
pub fn run_stream(cfg: &StreamConfig) -> DbResult<StreamReport> {
    let seed = cfg.seed;
    let faults = FaultPlan::chaos(seed);
    let backend = LiveBackend::new(stream_fixture(seed, SEED_ROWS)?, SUBSET_PCT, STRIDE)?;
    let mut log = EventLog::new();
    let mut stats = StreamStats::default();
    let mut served = ServerStats::default();
    // The no-lost-writes ledger: every acknowledged append adds here, and
    // the final row count must match exactly.
    let mut ledger_rows = SEED_ROWS as u64;
    let mut next_id = SEED_ROWS as u64;

    for op in 0..cfg.ops {
        let h = splitmix64(seed ^ op.wrapping_mul(0xA076_1D64_78BD_642F));
        let roll = (h % 100) as u8;
        if roll < APPEND_PCT {
            let batch_len = 1 + (splitmix64(h ^ 0xB10C) % BATCH_MAX) as usize;
            let rows: Vec<Row> = (0..batch_len)
                .map(|i| gen_event_row(seed ^ 0xFEED, next_id + i as u64))
                .collect();
            let n = backend.append("events", &rows)?;
            next_id += n as u64;
            ledger_rows += n as u64;
            stats.appends += 1;
            stats.appended_rows += n as u64;
            log.push(
                op,
                0,
                EventKind::Appended {
                    rows: n,
                    total: backend.row_count("events"),
                },
            );
        } else if roll < APPEND_PCT + UPDATE_PCT {
            let live_rows = backend.row_count("events") as u64;
            let k = 1 + (splitmix64(h ^ 0x0DD5) % UPDATE_MAX) as usize;
            let updates: Vec<(usize, Row)> = (0..k)
                .map(|i| {
                    let rid = (splitmix64(h ^ ((i as u64) << 8)) % live_rows.max(1)) as usize;
                    let mut row = gen_event_row(seed ^ 0xD00D, splitmix64(h) ^ i as u64);
                    if let Some(cell) = row.get_mut(0) {
                        *cell = Value::Int(rid as i64);
                    }
                    (rid, row)
                })
                .collect();
            let n = backend.update("events", &updates)?;
            stats.updates += 1;
            stats.updated_rows += n as u64;
            log.push(op, 0, EventKind::Updated { rows: n });
        } else {
            let query = gen_stream_query(h, next_id)?;
            let answerable = backend.plan(&query).answerable;
            let mut seam = LiveQuery {
                backend: &backend,
                query: &query,
                script: Script {
                    log: &mut log,
                    stats: &mut served,
                    request: op,
                    seq: 0,
                },
            };
            ladder::serve(&mut seam, &RetryPolicy::chaos(), &faults, op, answerable)?;
            stats.queries += 1;
        }
        if (op + 1) % OBSERVE_EVERY == 0 {
            let refreshed = backend.observe_data()?;
            if refreshed {
                stats.refreshes += 1;
            }
            // seq 16 sorts after any query ladder of the same op.
            log.push(op, 16, EventKind::DataDrift { refreshed });
        }
    }

    // Final reconciliation: one last observation, then settle the ledger.
    if backend.observe_data()? {
        stats.refreshes += 1;
    }
    let actual = backend.row_count("events") as u64;
    stats.lost_writes = ledger_rows.abs_diff(actual);
    stats.ops = cfg.ops;
    stats.resolved_subset = served.resolved_subset;
    stats.resolved_full = served.resolved_full;
    stats.degraded = served.degraded;
    stats.retries = served.retries;
    Ok(StreamReport {
        final_fingerprint: backend.data_fingerprint(),
        stats,
        log,
    })
}

/// The ladder's seam over the live backend: real executions, no
/// deadline, and backoff that takes no time — the driver is
/// single-threaded, so there is nobody to wait for.
struct LiveQuery<'a> {
    backend: &'a LiveBackend,
    query: &'a Query,
    script: Script<'a>,
}

impl Seam for LiveQuery<'_> {
    type Rows = ResultSet;

    fn remaining_ns(&mut self) -> u64 {
        u64::MAX
    }

    fn pause(&mut self, _: u64) {}

    fn subset(&mut self) -> DbResult<ResultSet> {
        self.backend.answer_subset(self.query)
    }

    fn full(&mut self) -> DbResult<ResultSet> {
        self.backend.answer_full(self.query)
    }

    fn row_count(rows: &ResultSet) -> usize {
        rows.rows.len()
    }

    fn note(&mut self, kind: EventKind) {
        self.script.note(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_renders_identically() {
        let cfg = StreamConfig::chaos(0xFEED);
        let a = run_stream(&cfg).unwrap();
        let b = run_stream(&cfg).unwrap();
        assert_eq!(a.render(), b.render());
        assert!(!a.log.is_empty());
        assert_eq!(a.stats.lost_writes, 0);
    }

    #[test]
    fn different_seeds_render_differently() {
        let a = run_stream(&StreamConfig::chaos(1)).unwrap();
        let b = run_stream(&StreamConfig::chaos(2)).unwrap();
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn view_lags_then_catches_up() {
        let backend = LiveBackend::new(stream_fixture(7, 64).unwrap(), 50, 4).unwrap();
        let fp0 = backend.view_fingerprint();
        assert_eq!(fp0, backend.data_fingerprint(), "fresh view matches");
        assert!(!backend.observe_data().unwrap());

        let rows: Vec<Row> = (0..10).map(|i| gen_event_row(7, 64 + i)).collect();
        backend.append("events", &rows).unwrap();
        assert_ne!(backend.view_fingerprint(), backend.data_fingerprint());
        assert!(backend.observe_data().unwrap());
        assert_eq!(backend.view_fingerprint(), backend.data_fingerprint());
        assert!(!backend.observe_data().unwrap(), "refresh is idempotent");
    }

    #[test]
    fn view_snapshot_survives_refresh() {
        let backend = LiveBackend::new(stream_fixture(3, 32).unwrap(), 50, 2).unwrap();
        let pinned = backend.view();
        let before = pinned.table("events").unwrap().row_count();
        let rows: Vec<Row> = (0..40).map(|i| gen_event_row(3, 32 + i)).collect();
        backend.append("events", &rows).unwrap();
        backend.observe_data().unwrap();
        assert_eq!(
            pinned.table("events").unwrap().row_count(),
            before,
            "an in-flight snapshot must not observe the refresh"
        );
        assert!(backend.view().table("events").unwrap().row_count() > before);
    }
}
