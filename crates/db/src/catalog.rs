//! The database catalog: a set of named tables plus convenience entry points
//! for executing queries.

use crate::error::{DbError, DbResult};
use crate::exec::{
    count_rows, execute_with_options, plan_and_execute, ExecOptions, QueryOutput, ResultSet,
};
use crate::query::Query;
use crate::schema::Schema;
use crate::sql;
use crate::stats::{StatsAccum, TableStats};
use crate::table::Table;
use crate::value::Row;
use asqp_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};

/// Memoised full-database result cardinalities (`|q(D)|` in the paper's
/// Eq. 1), keyed by each query's canonical SQL. Every entry records the
/// *data fingerprint* of the query's FROM tables at compute time; a lookup
/// whose fingerprint no longer matches is treated as a miss, so a stale
/// cardinality can never be served after an append or update. A clone of
/// the database gets its own copy of the entries — it holds the same data at
/// the same versions, and whichever side changes a table afterwards stops
/// matching that table's entries on its own. Deserialising starts empty, and
/// the wholesale mutation entry points (`table_mut`, `add_table`,
/// `drop_table`) still clear it outright.
#[derive(Debug, Default)]
struct CountCache(RwLock<HashMap<String, (u64, usize)>>);

impl CountCache {
    /// Version-checked lookup: a hit requires the stored data fingerprint
    /// to equal `fingerprint`.
    fn get(&self, key: &str, fingerprint: u64) -> Option<usize> {
        match self
            .0
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .copied()
        {
            Some((fp, n)) if fp == fingerprint => {
                telemetry::counter("db.count_cache.hit", 1);
                Some(n)
            }
            Some(_) => {
                telemetry::counter("db.count_cache.stale", 1);
                None
            }
            None => None,
        }
    }

    fn put(&self, key: String, fingerprint: u64, n: usize) {
        self.0
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, (fingerprint, n));
    }

    fn clear(&self) {
        self.0.write().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

impl Clone for CountCache {
    fn clone(&self) -> Self {
        CountCache(RwLock::new(
            self.0.read().unwrap_or_else(|e| e.into_inner()).clone(),
        ))
    }
}

/// One table's memoised statistics state: the order-insensitive accumulator
/// pinned to the data version it reflects, plus the (lazily) derived
/// [`TableStats`]. Keeping the accumulator lets an append absorb just the
/// new rows instead of rescanning the table; keeping derivation lazy means
/// a burst of appends pays one O(distinct) derive at the next read, not one
/// per batch.
#[derive(Debug)]
struct StatsEntry {
    version: u64,
    accum: StatsAccum,
    derived: Option<Arc<TableStats>>,
}

/// Memoised per-table statistics. Derived state: cloning or deserialising
/// starts empty (unlike [`CountCache`], whose entries are two words each, a
/// copy here would be a deep copy of every column's accumulator), wholesale
/// mutation entry points clear it, and the incremental entry points
/// ([`Database::append_rows`] / [`Database::update_rows`]) maintain live
/// entries in place.
#[derive(Debug, Default)]
struct StatsCache(RwLock<HashMap<String, StatsEntry>>);

impl StatsCache {
    /// Stats for `table` at its current version: served from the entry when
    /// fresh, derived from the cached accumulator when only derivation is
    /// missing, recomputed from scratch otherwise.
    ///
    /// Every binding of every planned query comes through here, from every
    /// worker sharing the database, so the fresh case takes only the read
    /// lock. Whoever then takes the write lock looks again: another thread
    /// may have derived or rebuilt the entry between the two locks, and all
    /// of them must leave with that one `Arc`.
    fn get_or_compute(&self, table: &Table) -> Arc<TableStats> {
        let version = table.data_version();
        let map = self.0.read().unwrap_or_else(|e| e.into_inner());
        let fresh = map.get(table.name()).filter(|e| e.version == version);
        if let Some(d) = fresh.and_then(|e| e.derived.clone()) {
            return d;
        }
        drop(map);
        let mut map = self.0.write().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(table.name()) {
            Some(e) if e.version == version => {
                if let Some(d) = &e.derived {
                    return Arc::clone(d);
                }
                let d = Arc::new(e.accum.derive(table.name(), table.schema()));
                e.derived = Some(Arc::clone(&d));
                d
            }
            _ => {
                let accum = StatsAccum::from_table(table);
                let d = Arc::new(accum.derive(table.name(), table.schema()));
                map.insert(
                    table.name().to_string(),
                    StatsEntry {
                        version,
                        accum,
                        derived: Some(Arc::clone(&d)),
                    },
                );
                d
            }
        }
    }

    /// Absorb an append into the cached accumulator, if the entry was
    /// current at `old_version`. A stale entry is dropped (the next read
    /// recomputes from scratch); a missing entry stays missing (lazy).
    fn absorb_append(&self, table: &Table, old_rows: usize, old_version: u64) {
        let mut map = self.0.write().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = map.get_mut(table.name()) {
            if e.version == old_version {
                telemetry::counter("db.stats.incremental", 1);
                e.accum.absorb_rows(table, old_rows);
                e.version = table.data_version();
                e.derived = None;
            } else {
                map.remove(table.name());
            }
        }
    }

    /// Apply in-place row overwrites to the cached accumulator, mirroring
    /// [`StatsCache::absorb_append`]'s version discipline.
    fn absorb_update(&self, table: &Table, old_version: u64, changes: &[(Row, &Row)]) {
        let mut map = self.0.write().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = map.get_mut(table.name()) {
            if e.version == old_version {
                telemetry::counter("db.stats.incremental", 1);
                for (old_row, new_row) in changes {
                    e.accum.apply_update(old_row, new_row);
                }
                e.version = table.data_version();
                e.derived = None;
            } else {
                map.remove(table.name());
            }
        }
    }

    fn clear(&self) {
        self.0.write().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

impl Clone for StatsCache {
    fn clone(&self) -> Self {
        StatsCache::default()
    }
}

/// An in-memory database: named tables in deterministic (sorted) order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    #[serde(skip)]
    count_cache: CountCache,
    #[serde(skip)]
    stats_cache: StatsCache,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a table; the table's own name is the catalog key.
    pub fn add_table(&mut self, table: Table) -> DbResult<()> {
        if self.tables.contains_key(table.name()) {
            return Err(DbError::Duplicate(table.name().to_string()));
        }
        self.count_cache.clear();
        self.stats_cache.clear();
        self.tables.insert(table.name().to_string(), table);
        Ok(())
    }

    /// Create an empty table with the given schema and register it.
    // asqp::panic-free-audited: the `.expect("just inserted")` looks up the key
    // `add_table` inserted on the line before; `?` has already returned on failure
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<&mut Table> {
        self.add_table(Table::new(name, schema))?;
        Ok(self.tables.get_mut(name).expect("just inserted"))
    }

    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        // Handing out mutable table access may change any cached count or
        // statistic.
        self.count_cache.clear();
        self.stats_cache.clear();
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Append a batch of rows to `name` through the incremental maintenance
    /// path: the batch is validated atomically, the table's zone maps are
    /// extended rather than rebuilt, cached statistics absorb just the new
    /// rows, and the version-fingerprinted cardinality cache invalidates
    /// itself lazily on next use — nothing is wholesale-cleared. Returns
    /// the number of rows appended.
    pub fn append_rows(&mut self, name: &str, rows: &[Row]) -> DbResult<usize> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        let old_rows = table.row_count();
        let old_version = table.data_version();
        let n = table.append_rows(rows)?;
        if n > 0 {
            let table = &self.tables[name];
            self.stats_cache.absorb_append(table, old_rows, old_version);
        }
        Ok(n)
    }

    /// Overwrite existing rows of `name` in place (row id → replacement
    /// row), with the same incremental cache maintenance as
    /// [`Database::append_rows`]. Returns the number of rows updated.
    pub fn update_rows(&mut self, name: &str, updates: &[(usize, Row)]) -> DbResult<usize> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        let old_version = table.data_version();
        // Pair each update with the value it actually overwrites: when one
        // batch touches the same row twice, the second overwrite retracts
        // the first one's row, not the pre-batch original.
        let mut overwritten: HashMap<usize, Row> = HashMap::new();
        let mut changes: Vec<(Row, &Row)> = Vec::with_capacity(updates.len());
        for (rid, new_row) in updates {
            if *rid >= table.row_count() {
                break; // update_rows below rejects the whole batch
            }
            let old = overwritten
                .get(rid)
                .cloned()
                .unwrap_or_else(|| table.row(*rid));
            changes.push((old, new_row));
            overwritten.insert(*rid, new_row.clone());
        }
        let n = table.update_rows(updates)?;
        if n > 0 {
            let table = &self.tables[name];
            self.stats_cache.absorb_update(table, old_version, &changes);
        }
        Ok(n)
    }

    /// FNV-1a fingerprint of every table's (name, data version) pair — a
    /// cheap summary of *what data the database holds*. Moves whenever any
    /// table's contents change; used by sessions to detect data drift.
    pub fn data_fingerprint(&self) -> u64 {
        fnv_fold(self.tables.values().map(|t| (t.name(), t.data_version())))
    }

    /// Data fingerprint restricted to a query's FROM tables (missing tables
    /// fold a sentinel). This is what keys the cardinality cache: an append
    /// to an unrelated table must not invalidate this query's count.
    fn query_data_fingerprint(&self, query: &Query) -> u64 {
        fnv_fold(query.from.iter().map(|tref| {
            (
                tref.table.as_str(),
                self.tables
                    .get(&tref.table)
                    .map(|t| t.data_version())
                    .unwrap_or(u64::MAX),
            )
        }))
    }

    /// Remove a table from the catalog, returning it.
    pub fn drop_table(&mut self, name: &str) -> DbResult<Table> {
        self.count_cache.clear();
        self.stats_cache.clear();
        self.tables
            .remove(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Total number of stored tuples across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Execute a query AST. Builds no lineage; ask
    /// [`Database::execute_with_lineage`] for that.
    pub fn execute(&self, query: &Query) -> DbResult<ResultSet> {
        let shards = ExecOptions::default().shards;
        Ok(plan_and_execute(self, query, shards, false)?.result)
    }

    /// Execute and also report, per result row, which base-table rows
    /// produced it (the provenance ASQP-RL uses to build its action space).
    pub fn execute_with_lineage(&self, query: &Query) -> DbResult<QueryOutput> {
        execute_with_options(self, query, ExecOptions::default())
    }

    /// Result cardinality `|q(D)|`, memoised across calls keyed by the
    /// query's canonical SQL. The Eq.-1 metric normalises every per-query
    /// fraction by this count, so scoring many candidate approximation sets
    /// against one workload re-uses each full-database execution. Entries
    /// are pinned to the FROM tables' data fingerprint: after an append or
    /// update the fingerprint moves and the count is recomputed.
    ///
    /// Counting is not executing: a miss runs the scans, joins and residual
    /// filters and counts the joined tuples under the LIMIT; nothing is
    /// sorted or projected. Only DISTINCT and aggregate queries, whose row
    /// count the output stage decides, run it. The count is always what
    /// `self.execute(query)?.rows.len()` would be.
    pub fn cached_row_count(&self, query: &Query) -> DbResult<usize> {
        let key = query.to_sql();
        let fingerprint = self.query_data_fingerprint(query);
        if let Some(n) = self.count_cache.get(&key, fingerprint) {
            return Ok(n);
        }
        let n = count_rows(self, query, ExecOptions::default().shards)?;
        self.count_cache.put(key, fingerprint, n);
        Ok(n)
    }

    /// Parse and execute SQL text.
    pub fn sql(&self, text: &str) -> DbResult<ResultSet> {
        let q = sql::parse(text)?;
        self.execute(&q)
    }

    /// Statistics for one table, memoised until the table's data version
    /// moves. The optimizer's cost model calls this per query; without
    /// memoisation every `explain()`/plan recomputed an O(rows × columns)
    /// pass. After [`Database::append_rows`] / [`Database::update_rows`]
    /// the cached accumulator is already up to date and only the cheap
    /// O(distinct) derivation runs here.
    pub fn table_stats(&self, name: &str) -> DbResult<Arc<TableStats>> {
        Ok(self.stats_cache.get_or_compute(self.table(name)?))
    }

    /// Build a sub-database holding only the listed row ids per table.
    /// Tables absent from `selection` are created *empty* (schema kept), so
    /// every query valid on `self` remains valid on the subset — this is the
    /// approximation-set materialisation used throughout ASQP-RL.
    ///
    /// The subset shares with `self` the bytes of its strings and the data
    /// versions its tables inherit, nothing else: its queries are planned from
    /// its own statistics, built lazily by the first plan that reads them. Scoring
    /// 84 queries once on a fresh 1 352-row subset of the 135 K-row IMDB
    /// fixture costs 2.7–3.1 ms with those statistics included, which is
    /// what it cost while subsets replayed their parent's plans; a
    /// one-shot score of a subset five times that size read up to a tenth
    /// slower (DESIGN §11).
    pub fn subset(&self, selection: &BTreeMap<String, Vec<usize>>) -> DbResult<Database> {
        let mut out = Database::new();
        for (name, table) in &self.tables {
            let sub = match selection.get(name) {
                Some(ids) => table.subset(ids)?,
                None => table.empty_like(),
            };
            out.add_table(sub)?;
        }
        Ok(out)
    }
}

/// FNV-1a fold over (name, version) pairs, shared by the whole-database and
/// per-query data fingerprints.
fn fnv_fold<'a>(pairs: impl Iterator<Item = (&'a str, u64)>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for (name, version) in pairs {
        eat(name.as_bytes());
        eat(&[0xff]);
        eat(&version.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Value, ValueType};

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::build(&[("id", ValueType::Int)]))
            .unwrap();
        for i in 0..5 {
            t.push_row(&[Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn add_and_lookup() {
        let db = db();
        assert!(db.has_table("t"));
        assert!(db.table("missing").is_err());
        assert_eq!(db.total_rows(), 5);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        assert!(matches!(
            db.create_table("t", Schema::build(&[("x", ValueType::Int)])),
            Err(DbError::Duplicate(_))
        ));
    }

    #[test]
    fn table_stats_computed_once_per_table() {
        // Memoisation is observed through the shared `Arc`, not through the
        // `db.stats.computes` counter: the recorder is process-wide, and
        // tests planning queries on other threads emit that counter too.
        let mut db = db();
        let u = db
            .create_table("u", Schema::build(&[("y", ValueType::Int)]))
            .unwrap();
        u.push_row(&[Value::Int(7)]).unwrap();

        let (t0, u0) = (db.table_stats("t").unwrap(), db.table_stats("u").unwrap());
        for _ in 0..4 {
            assert!(Arc::ptr_eq(&t0, &db.table_stats("t").unwrap()));
            assert!(Arc::ptr_eq(&u0, &db.table_stats("u").unwrap()));
        }

        // Mutation invalidates; the next call recomputes exactly once.
        db.table_mut("t")
            .unwrap()
            .push_row(&[Value::Int(99)])
            .unwrap();
        let t1 = db.table_stats("t").unwrap();
        assert!(!Arc::ptr_eq(&t0, &t1));
        assert_eq!(t1.row_count, 6);
        assert!(Arc::ptr_eq(&t1, &db.table_stats("t").unwrap()));
    }

    #[test]
    fn cardinality_cache_rejects_stale_counts() {
        use crate::sql::parse;
        use asqp_telemetry as telemetry;
        use std::sync::Arc as StdArc;

        let mut db = db();
        let q = parse("SELECT t.id FROM t AS t WHERE t.id >= 0").unwrap();
        assert_eq!(db.cached_row_count(&q).unwrap(), 5);

        let rec = StdArc::new(telemetry::MemoryRecorder::new());
        telemetry::scoped(rec.clone(), || {
            assert_eq!(db.cached_row_count(&q).unwrap(), 5, "served from cache");
        });
        assert_eq!(rec.report().counters["db.count_cache.hit"], 1);

        // Append through the incremental path: no wholesale clear happens,
        // yet the fingerprint mismatch forces a recount.
        db.append_rows("t", &[vec![Value::Int(5)], vec![Value::Int(6)]])
            .unwrap();
        let rec2 = StdArc::new(telemetry::MemoryRecorder::new());
        telemetry::scoped(rec2.clone(), || {
            assert_eq!(db.cached_row_count(&q).unwrap(), 7, "stale count rejected");
        });
        assert_eq!(rec2.report().counters["db.count_cache.stale"], 1);
        assert!(!rec2.report().counters.contains_key("db.count_cache.hit"));

        // A clone owns a copy of the entries: appending to `t` in the clone
        // leaves its count on `u` a hit, recounts `t`, and touches nothing
        // of the original's.
        db.create_table("u", Schema::build(&[("y", ValueType::Int)]))
            .unwrap();
        let qu = parse("SELECT u.y FROM u AS u").unwrap();
        assert_eq!(db.cached_row_count(&q).unwrap(), 7);
        assert_eq!(db.cached_row_count(&qu).unwrap(), 0);
        let mut fork = db.clone();
        fork.append_rows("t", &[vec![Value::Int(7)]]).unwrap();
        let counters = |db: &Database, want_t: usize| {
            let rec = StdArc::new(telemetry::MemoryRecorder::new());
            telemetry::scoped(rec.clone(), || {
                assert_eq!(db.cached_row_count(&qu).unwrap(), 0);
                assert_eq!(db.cached_row_count(&q).unwrap(), want_t);
            });
            rec.report().counters
        };
        let forked = counters(&fork, 8);
        assert_eq!(forked["db.count_cache.hit"], 1, "u is untouched");
        assert_eq!(forked["db.count_cache.stale"], 1, "t is recounted");
        let original = counters(&db, 7);
        assert_eq!(original["db.count_cache.hit"], 2);
        assert!(!original.contains_key("db.count_cache.stale"));
    }

    #[test]
    fn append_rows_absorbs_into_cached_stats() {
        use asqp_telemetry as telemetry;
        use std::sync::Arc as StdArc;

        let mut db = db();
        db.table_stats("t").unwrap(); // warm the accumulator

        let rec = StdArc::new(telemetry::MemoryRecorder::new());
        telemetry::scoped(rec.clone(), || {
            db.append_rows("t", &[vec![Value::Int(100)]]).unwrap();
            let s = db.table_stats("t").unwrap();
            assert_eq!(s.row_count, 6);
            assert_eq!(s.columns[0].max, Some(Value::Int(100)));
        });
        let counters = &rec.report().counters;
        assert_eq!(counters["db.stats.incremental"], 1);
        assert!(
            !counters.contains_key("db.stats.computes"),
            "append must not trigger a full stats recompute"
        );

        // The maintained stats equal a from-scratch compute byte for byte.
        let fresh = TableStats::compute(db.table("t").unwrap());
        assert_eq!(*db.table_stats("t").unwrap(), fresh);
    }

    #[test]
    fn update_rows_maintains_stats_and_counts() {
        let mut db = db();
        db.table_stats("t").unwrap();
        db.update_rows("t", &[(0, vec![Value::Int(-50)])]).unwrap();
        let s = db.table_stats("t").unwrap();
        assert_eq!(s.row_count, 5);
        assert_eq!(s.columns[0].min, Some(Value::Int(-50)));
        assert_eq!(*s, TableStats::compute(db.table("t").unwrap()));
        assert!(db.update_rows("t", &[(99, vec![Value::Null])]).is_err());
        assert!(db.update_rows("missing", &[]).is_err());
    }

    #[test]
    fn data_fingerprint_moves_with_data() {
        let mut db = db();
        let fp0 = db.data_fingerprint();
        db.append_rows("t", &[vec![Value::Int(9)]]).unwrap();
        let fp1 = db.data_fingerprint();
        assert_ne!(fp0, fp1);
        // Subsets snapshot the parent's versions, so their fingerprint
        // matches the parent's at materialisation time.
        let sub = db.subset(&BTreeMap::new()).unwrap();
        assert_eq!(sub.data_fingerprint(), fp1);
    }

    #[test]
    fn subset_keeps_missing_tables_empty() {
        let db = db();
        let mut sel = BTreeMap::new();
        sel.insert("t".to_string(), vec![1usize, 3]);
        let sub = db.subset(&sel).unwrap();
        assert_eq!(sub.table("t").unwrap().row_count(), 2);

        let empty = db.subset(&BTreeMap::new()).unwrap();
        assert_eq!(empty.table("t").unwrap().row_count(), 0);
        assert_eq!(empty.table("t").unwrap().schema().len(), 1);
    }
}
