//! The database catalog: a set of named tables plus convenience entry points
//! for executing queries.

use crate::error::{DbError, DbResult};
use crate::exec::{count_rows, hardware_threads, plan_and_execute, QueryOutput, ResultSet};
use crate::query::Query;
use crate::schema::Schema;
use crate::sql;
use crate::stats::TableStats;
use crate::table::Table;
use crate::value::Row;
use asqp_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};

/// Memoised full-database result cardinalities (`|q(D)|` in the paper's
/// Eq. 1), keyed by each query's canonical SQL. Every entry records the data
/// version and row count of each of the query's FROM tables at compute
/// time; an entry whose tables have moved is never served as it is, so a
/// stale cardinality cannot be read after an append or update. When the
/// only move is an append to one FROM table, [`Database::cached_row_count`]
/// carries the entry forward by counting just the tuples that use an
/// appended row. A clone of the database gets its own copy of the entries —
/// it holds the same data at the same versions, and whichever side changes
/// a table afterwards stops matching that table's entries on its own.
/// Deserialising starts empty, and adding or dropping a table clears it
/// outright.
#[derive(Debug, Default)]
struct CountCache(RwLock<HashMap<String, CountEntry>>);

/// One memoised count and the state of the FROM tables it was taken at.
#[derive(Debug, Clone)]
struct CountEntry {
    /// (data version, row count) per FROM entry, in FROM order.
    tables: Vec<(u64, usize)>,
    count: usize,
}

impl CountCache {
    /// The count for `key` when its FROM tables are still at `tables`,
    /// compared under the read lock so that a hit copies nothing; else a
    /// copy of the outdated entry, if there is one.
    fn lookup(&self, key: &str, tables: &[(u64, usize)]) -> Result<usize, Option<CountEntry>> {
        match self.0.read().unwrap_or_else(|e| e.into_inner()).get(key) {
            Some(e) if e.tables == tables => Ok(e.count),
            outdated => Err(outdated.cloned()),
        }
    }

    fn put(&self, key: String, entry: CountEntry) {
        self.0
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, entry);
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

/// An in-memory database: named tables in deterministic (sorted) order.
/// What is derived from one table's rows (statistics, zone maps) is kept by
/// that [`Table`]; the database keeps only the counts that span tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    #[serde(skip)]
    count_cache: CountCache,
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

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Append a batch of rows to `name` ([`Table::append_rows`]: validated
    /// atomically, the table's statistics and zone maps carried forward).
    /// The cardinality cache needs nothing: its entries are pinned to table
    /// versions, and a count on the grown table adds just the appended
    /// rows' tuples at its next read. Returns the number of rows appended.
    pub fn append_rows(&mut self, name: &str, rows: &[Row]) -> DbResult<usize> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?
            .append_rows(rows)
    }

    /// Overwrite existing rows of `name` in place (row id → replacement
    /// row; [`Table::update_rows`]). Returns the number of rows updated.
    pub fn update_rows(&mut self, name: &str, updates: &[(usize, Row)]) -> DbResult<usize> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?
            .update_rows(updates)
    }

    /// FNV-1a fingerprint of every table's (name, data version) pair — a
    /// cheap summary of *what data the database holds*. Moves whenever any
    /// table's contents change; used by sessions to detect data drift.
    pub fn data_fingerprint(&self) -> u64 {
        fnv_fold(self.tables.values().map(|t| (t.name(), t.data_version())))
    }

    /// (data version, row count) of each FROM table of `query`; a missing
    /// table reads `(u64::MAX, 0)` (counting it fails before anything is
    /// stored). This is what keys the cardinality cache: an append to an
    /// unrelated table must not invalidate this query's count.
    fn query_tables(&self, query: &Query) -> Vec<(u64, usize)> {
        query
            .from
            .iter()
            .map(|tref| {
                self.tables
                    .get(&tref.table)
                    .map_or((u64::MAX, 0), |t| (t.data_version(), t.row_count()))
            })
            .collect()
    }

    /// The table and first row id of an append that carries a count taken
    /// with the FROM tables at `then` to `now`, if one does: the query's
    /// count must be a sum over its joined tuples (no DISTINCT, aggregate or
    /// LIMIT), exactly one FROM entry may have moved (a table named twice
    /// moves twice), and that table must have only grown since. Then the
    /// count at `now` is the count at `then` plus the tuples that use a row
    /// past the old row count.
    fn appended_to<'q>(
        &self,
        query: &'q Query,
        then: &[(u64, usize)],
        now: &[(u64, usize)],
    ) -> Option<(&'q str, usize)> {
        if query.distinct || query.is_aggregate() || query.limit.is_some() {
            return None;
        }
        let mut moved = query
            .from
            .iter()
            .zip(then.iter().zip(now))
            .filter(|(_, (a, b))| a != b);
        let (tref, (&(version, rows), _)) = moved.next()?;
        let grown = self.tables.get(&tref.table)?.appends_only_since() <= version;
        (grown && moved.next().is_none()).then_some((tref.table.as_str(), rows))
    }

    /// Remove a table from the catalog, returning it.
    pub fn drop_table(&mut self, name: &str) -> DbResult<Table> {
        self.count_cache.clear();
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
        Ok(plan_and_execute(self, query, hardware_threads(), false)?.result)
    }

    /// Execute and also report, per result row, which base-table rows
    /// produced it (the provenance ASQP-RL uses to build its action space).
    pub fn execute_with_lineage(&self, query: &Query) -> DbResult<QueryOutput> {
        plan_and_execute(self, query, hardware_threads(), true)
    }

    /// Result cardinality `|q(D)|`, memoised across calls keyed by the
    /// query's canonical SQL. The Eq.-1 metric normalises every per-query
    /// fraction by this count, so scoring many candidate approximation sets
    /// against one workload re-uses each full-database execution. Entries
    /// are pinned to the FROM tables' data versions: after an update the
    /// count is recomputed, and after an append to one FROM table of a
    /// plain SPJ query only the tuples that use an appended row are
    /// counted and added (`db.count_cache.appended`).
    ///
    /// Counting is not executing: a miss runs the scans, joins and residual
    /// filters and counts the joined tuples under the LIMIT; nothing is
    /// sorted or projected. Only DISTINCT and aggregate queries, whose row
    /// count the output stage decides, run it. The count is always what
    /// `self.execute(query)?.rows.len()` would be.
    pub fn cached_row_count(&self, query: &Query) -> DbResult<usize> {
        let key = query.to_sql();
        let tables = self.query_tables(query);
        let shards = hardware_threads();
        let count = match self.count_cache.lookup(&key, &tables) {
            Ok(count) => {
                telemetry::counter("db.count_cache.hit", 1);
                return Ok(count);
            }
            Err(Some(e)) => match self.appended_to(query, &e.tables, &tables) {
                Some(added) => {
                    telemetry::counter("db.count_cache.appended", 1);
                    e.count + count_rows(self, query, shards, Some(added))?.0
                }
                None => {
                    telemetry::counter("db.count_cache.stale", 1);
                    count_rows(self, query, shards, None)?.0
                }
            },
            Err(None) => count_rows(self, query, shards, None)?.0,
        };
        self.count_cache.put(key, CountEntry { tables, count });
        Ok(count)
    }

    /// Parse and execute SQL text.
    pub fn sql(&self, text: &str) -> DbResult<ResultSet> {
        let q = sql::parse(text)?;
        self.execute(&q)
    }

    /// Statistics for one table ([`Table::stats`]).
    pub fn table_stats(&self, name: &str) -> DbResult<Arc<TableStats>> {
        Ok(self.table(name)?.stats())
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
        db.append_rows("t", &[vec![Value::Int(99)]]).unwrap();
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
        // and the old count is never served; the appended rows are counted
        // and added. An in-place update forces a full recount.
        db.append_rows("t", &[vec![Value::Int(5)], vec![Value::Int(6)]])
            .unwrap();
        let recount = |db: &Database, want: usize| {
            let rec = StdArc::new(telemetry::MemoryRecorder::new());
            telemetry::scoped(rec.clone(), || {
                assert_eq!(db.cached_row_count(&q).unwrap(), want);
            });
            let counters = rec.report().counters;
            assert!(!counters.contains_key("db.count_cache.hit"));
            counters
        };
        assert_eq!(recount(&db, 7)["db.count_cache.appended"], 1);
        db.update_rows("t", &[(0, vec![Value::Int(-1)])]).unwrap();
        assert_eq!(recount(&db, 6)["db.count_cache.stale"], 1);
        db.update_rows("t", &[(0, vec![Value::Int(0)])]).unwrap();
        assert_eq!(recount(&db, 7)["db.count_cache.stale"], 1);

        // A clone owns a copy of the entries: appending to `t` in the clone
        // leaves its count on `u` a hit, counts `t`'s new row, and touches
        // nothing of the original's.
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
        assert_eq!(forked["db.count_cache.appended"], 1, "t's new row");
        let original = counters(&db, 7);
        assert_eq!(original["db.count_cache.hit"], 2);
        assert!(!original.contains_key("db.count_cache.appended"));

        // Not a test of its own: the recorder is process-wide, so its
        // `db.count_cache.*` counters would land in the scopes above.
        appended_counts_equal_full_counts();
    }

    fn appended_counts_equal_full_counts() {
        use crate::sql::parse;

        let mut db = db();
        let s = db
            .create_table("s", Schema::build(&[("id", ValueType::Int)]))
            .unwrap();
        for i in [1, 1, 3, 8] {
            s.push_row(&[Value::Int(i)]).unwrap();
        }
        let queries: Vec<Query> = [
            "SELECT t.id FROM t AS t, s AS s WHERE t.id = s.id",
            "SELECT t.id FROM t AS t, s AS s WHERE t.id < s.id AND t.id > 0",
            "SELECT a.id FROM s AS a, s AS b WHERE a.id = b.id",
            "SELECT DISTINCT s.id FROM s AS s",
            "SELECT s.id FROM s AS s LIMIT 5",
            "SELECT COUNT(*) FROM t AS t, s AS s WHERE t.id = s.id",
        ]
        .iter()
        .map(|q| parse(q).unwrap())
        .collect();
        let check = |db: &Database| {
            for q in &queries {
                let want = db.execute(q).unwrap().rows.len();
                assert_eq!(db.cached_row_count(q).unwrap(), want, "{}", q.to_sql());
            }
        };
        check(&db);
        for batch in [vec![1, 4, 9], vec![3], vec![1, 1, 2]] {
            let rows: Vec<Row> = batch.into_iter().map(|i| vec![Value::Int(i)]).collect();
            db.append_rows("s", &rows).unwrap();
            check(&db);
            db.append_rows("t", &rows).unwrap();
            check(&db);
        }
        db.update_rows("s", &[(0, vec![Value::Int(4)])]).unwrap();
        check(&db);
        db.append_rows("s", &[vec![Value::Int(4)]]).unwrap();
        check(&db);
    }

    #[test]
    fn clone_shares_stats_until_either_side_changes() {
        // Sharing is observed through the `Arc`s, not through counters: the
        // recorder is process-wide (see above).
        let mut db = db();
        db.create_table("u", Schema::build(&[("y", ValueType::Int)]))
            .unwrap();
        let (t0, u0) = (db.table_stats("t").unwrap(), db.table_stats("u").unwrap());
        let mut fork = db.clone();
        assert!(Arc::ptr_eq(&t0, &fork.table_stats("t").unwrap()));
        assert!(Arc::ptr_eq(&u0, &fork.table_stats("u").unwrap()));
        fork.append_rows("t", &[vec![Value::Int(100)]]).unwrap();
        let t1 = fork.table_stats("t").unwrap();
        assert_eq!(t1.row_count, 6);
        assert_eq!(*t1, TableStats::compute(fork.table("t").unwrap()));
        assert!(Arc::ptr_eq(&u0, &fork.table_stats("u").unwrap()));

        // The original's entry was copied before the clone absorbed the
        // append, so it still describes the original's rows, and a change
        // on the original leaves the clone's alone.
        assert!(Arc::ptr_eq(&t0, &db.table_stats("t").unwrap()));
        db.update_rows("t", &[(0, vec![Value::Int(-7)])]).unwrap();
        assert_eq!(
            *db.table_stats("t").unwrap(),
            TableStats::compute(db.table("t").unwrap())
        );
        assert_eq!(
            *fork.table_stats("t").unwrap(),
            TableStats::compute(fork.table("t").unwrap())
        );
        fork.update_rows("t", &[(1, vec![Value::Null])]).unwrap();
        assert_eq!(fork.table_stats("t").unwrap().columns[0].null_count, 1);
        assert_eq!(db.table_stats("t").unwrap().columns[0].null_count, 0);
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
