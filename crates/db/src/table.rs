//! A named, schema-checked, columnar table.

use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::exec::join::Chains;
use crate::schema::Schema;
use crate::stats::{StatsAccum, TableStats};
use crate::value::{Row, Value};
use crate::zonemap::{TableZones, MORSEL_ROWS};
use asqp_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock, RwLock};

/// In-memory table: one [`Column`] per schema column, all equal length.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Shared by clones of the table until one of them mutates: every
    /// mutation entry point copies the columns first if another clone
    /// still holds them (`Arc::make_mut`).
    columns: Arc<Vec<Column>>,
    row_count: usize,
    /// Monotonically increasing data version, bumped by every mutation
    /// entry point (once per batch for the bulk paths). What is derived
    /// from the table outside it — cached cardinalities, a set's data
    /// fingerprint — records the version it was computed at and revalidates
    /// against it, so a stale read after an append or update is
    /// structurally impossible.
    #[serde(default)]
    data_version: u64,
    /// Since this data version the table has only grown: every row it held
    /// at a version at or after this one still holds the same values, so
    /// what a later version added is exactly the rows past that version's
    /// row count. An in-place update moves it to the version it creates.
    /// Derived caches consult it only for entries computed on this very
    /// table, so deserialising may start it at 0.
    #[serde(skip)]
    appends_only_since: u64,
    /// Zone maps, the statistics accumulator and the statistics derived
    /// from it: each built on first read, shared by a clone and carried
    /// across a batch append or update (see [`Derived`]). Deserialising
    /// starts them unbuilt.
    #[serde(skip)]
    zones: Derived<TableZones>,
    #[serde(skip)]
    accum: Derived<StatsAccum>,
    #[serde(skip)]
    stats: Derived<TableStats>,
    /// Per column, the join index: [`Chains::over`] all its rows, built by
    /// the first join that probes it. Shared by a clone like the cells
    /// above; every mutation drops it.
    #[serde(skip)]
    index: Derived<Vec<OnceLock<Arc<Chains>>>>,
}

/// A value derived from a table's rows, built on the first read and cached.
/// A clone of the table holds the same rows, so it shares the built value;
/// a mutation replaces its own table's slot through `&mut` (no lock is
/// taken), never the shared value. Readers on many threads take only the
/// read lock once the value is built.
struct Derived<T>(RwLock<Option<Arc<T>>>);

impl<T> Derived<T> {
    /// The built value, building it with `build` if there is none yet.
    /// Whoever takes the write lock looks again: another thread may have
    /// built it between the two locks, and all of them leave with that one
    /// `Arc`.
    fn get_or_build(&self, build: impl FnOnce() -> T) -> Arc<T> {
        if let Some(v) = self.0.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
            return Arc::clone(v);
        }
        let mut slot = self.0.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(slot.get_or_insert_with(|| Arc::new(build())))
    }

    /// Remove and return the built value, if any.
    fn take(&mut self) -> Option<Arc<T>> {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Install a value (which must describe the table's current rows).
    fn set(&mut self, value: Option<Arc<T>>) {
        *self.0.get_mut().unwrap_or_else(|e| e.into_inner()) = value;
    }
}

impl<T> Default for Derived<T> {
    fn default() -> Self {
        Derived(RwLock::new(None))
    }
}

impl<T> Clone for Derived<T> {
    fn clone(&self) -> Self {
        Derived(RwLock::new(
            self.0.read().unwrap_or_else(|e| e.into_inner()).clone(),
        ))
    }
}

impl<T> std::fmt::Debug for Derived<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let built = self.0.read().unwrap_or_else(|e| e.into_inner()).is_some();
        write!(f, "Derived {{ built: {built} }}")
    }
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table::with_capacity(name, schema, 0)
    }

    pub fn with_capacity(name: impl Into<String>, schema: Schema, cap: usize) -> Self {
        let columns = Arc::new(
            schema
                .columns()
                .iter()
                .map(|c| Column::with_capacity(c.ty, cap))
                .collect(),
        );
        Table {
            name: name.into(),
            schema,
            columns,
            row_count: 0,
            data_version: 0,
            appends_only_since: 0,
            zones: Derived::default(),
            accum: Derived::default(),
            stats: Derived::default(),
            index: Derived::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Current data version (see the field docs). Starts at 0 for an empty
    /// table; a [`Table::subset`] snapshot inherits its parent's version.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// The version since which this table has only grown (see the field
    /// docs).
    pub(crate) fn appends_only_since(&self) -> u64 {
        self.appends_only_since
    }

    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The columns, as a clone of the table would share them: a holder
    /// keeps reading them as they are now whatever the table does next.
    pub(crate) fn shared_columns(&self) -> &Arc<Vec<Column>> {
        &self.columns
    }

    /// Append a row after validating it against the schema. This is a
    /// loader's path, a row at a time, so the derived values are dropped
    /// and rebuilt once at the next read rather than carried forward per
    /// row ([`Table::append_rows`] carries them).
    pub fn push_row(&mut self, row: &[Value]) -> DbResult<()> {
        self.schema.check_row(row)?;
        for (col, v) in Arc::make_mut(&mut self.columns).iter_mut().zip(row) {
            col.push(v)?;
        }
        self.row_count += 1;
        self.data_version += 1;
        self.zones.set(None);
        self.accum.set(None);
        self.stats.set(None);
        self.index.set(None);
        Ok(())
    }

    /// Append a batch of rows atomically: every row is validated before any
    /// row is stored, so a bad batch leaves the table untouched. Bumps the
    /// data version once for the whole batch. Built zone maps are
    /// *extended* (only the trailing partial chunk and the new rows are
    /// scanned), a built accumulator absorbs the new rows (copied first if
    /// a clone still shares it), and the derived statistics are dropped,
    /// so a burst of appends pays one derivation at the next read.
    pub fn append_rows(&mut self, rows: &[Row]) -> DbResult<usize> {
        for row in rows {
            self.schema.check_row(row)?;
        }
        if rows.is_empty() {
            return Ok(0);
        }
        let old_rows = self.row_count;
        self.stats.set(None);
        self.index.set(None);
        let (zones, mut accum) = (self.zones.take(), self.accum.take());
        let columns = Arc::make_mut(&mut self.columns);
        for row in rows {
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v)?;
            }
            self.row_count += 1;
        }
        self.data_version += 1;
        self.zones
            .set(zones.map(|z| Arc::new(z.extended(self, old_rows))));
        if let Some(acc) = accum.as_mut() {
            telemetry::counter("db.stats.incremental", 1);
            Arc::make_mut(acc).absorb_rows(self, old_rows);
        }
        self.accum.set(accum);
        Ok(rows.len())
    }

    /// Overwrite existing rows in place; `updates` pairs row ids with full
    /// replacement rows. All ids and rows are validated before any write.
    /// Bumps the data version once. Built zone maps are refreshed by
    /// recomputing only the touched chunks; a built accumulator retracts
    /// each overwritten row as it stands just before its write (so a row
    /// the batch touches twice is retracted as the first write left it)
    /// and absorbs the replacement.
    pub fn update_rows(&mut self, updates: &[(usize, Row)]) -> DbResult<usize> {
        for (rid, row) in updates {
            if *rid >= self.row_count {
                return Err(DbError::ShapeMismatch(format!(
                    "row id {rid} out of range for table {} ({} rows)",
                    self.name, self.row_count
                )));
            }
            self.schema.check_row(row)?;
        }
        if updates.is_empty() {
            return Ok(0);
        }
        self.stats.set(None);
        self.index.set(None);
        let (zones, mut accum) = (self.zones.take(), self.accum.take());
        let mut acc = accum.as_mut().map(|acc| {
            telemetry::counter("db.stats.incremental", 1);
            Arc::make_mut(acc)
        });
        let columns = Arc::make_mut(&mut self.columns);
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for (rid, row) in updates {
            if let Some(acc) = acc.as_mut() {
                acc.step_row(columns, *rid, false);
            }
            for (col, v) in columns.iter_mut().zip(row) {
                col.set(*rid, v)?;
            }
            if let Some(acc) = acc.as_mut() {
                acc.step_row(columns, *rid, true);
            }
            dirty.insert(*rid / MORSEL_ROWS);
        }
        self.accum.set(accum);
        self.data_version += 1;
        self.appends_only_since = self.data_version;
        self.zones.set(zones.map(|z| {
            let dirty: Vec<usize> = dirty.into_iter().collect();
            Arc::new(z.refreshed(self, &dirty))
        }));
        Ok(updates.len())
    }

    /// Zone maps for this table, built on first use and carried across a
    /// batch append or update. Used by the vectorized executor to skip morsels.
    pub fn zone_maps(&self) -> Arc<TableZones> {
        self.zones.get_or_build(|| TableZones::build(self))
    }

    /// Statistics for this table. The optimizer's cost model reads them for
    /// every binding of every planned query, so they are derived once per
    /// data version from an accumulator that is itself built once, by the
    /// first read: after an append or update only the O(distinct)
    /// derivation runs here.
    pub fn stats(&self) -> Arc<TableStats> {
        self.stats.get_or_build(|| {
            let accum = self.accum.get_or_build(|| StatsAccum::from_table(self));
            accum.derive(self)
        })
    }

    /// The join index of column `col` (see the field docs).
    pub(crate) fn join_index(&self, col: usize) -> Arc<Chains> {
        let cells =
            (self.index).get_or_build(|| self.columns.iter().map(|_| OnceLock::new()).collect());
        let build = || Arc::new(Chains::over(self, col, 0..self.row_count));
        Arc::clone(cells[col].get_or_init(build))
    }

    /// Materialise a full row.
    pub fn row(&self, idx: usize) -> Row {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Build a new table containing only `row_ids` (in the given order),
    /// gathered column by column. This is how approximation-set
    /// sub-databases are materialised.
    pub fn subset(&self, row_ids: &[usize]) -> DbResult<Table> {
        if let Some(rid) = row_ids.iter().find(|&&rid| rid >= self.row_count) {
            return Err(DbError::ShapeMismatch(format!(
                "row id {rid} out of range for table {} ({} rows)",
                self.name, self.row_count
            )));
        }
        // A subset is a snapshot of its parent *at the parent's current
        // version*: it inherits that version, so its data fingerprint names
        // the state of the parent it was cut from until either side mutates.
        let mut t = self.empty_like();
        t.columns = Arc::new(self.columns.iter().map(|c| c.gather(row_ids)).collect());
        t.row_count = row_ids.len();
        Ok(t)
    }

    /// An empty table with this table's name, schema, and data version —
    /// the "no rows selected" case of approximation-set materialisation.
    pub fn empty_like(&self) -> Table {
        let mut t = Table::new(self.name.clone(), self.schema.clone());
        t.data_version = self.data_version;
        t
    }

    /// Iterate row indices (mostly for readability at call sites).
    pub fn row_ids(&self) -> std::ops::Range<usize> {
        0..self.row_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn movies() -> Table {
        let schema = Schema::build(&[
            ("id", ValueType::Int),
            ("title", ValueType::Str),
            ("year", ValueType::Int),
        ]);
        let mut t = Table::new("movies", schema);
        t.push_row(&[Value::Int(1), "Alien".into(), Value::Int(1979)])
            .unwrap();
        t.push_row(&[Value::Int(2), "Arrival".into(), Value::Int(2016)])
            .unwrap();
        t.push_row(&[Value::Int(3), Value::Null, Value::Int(2020)])
            .unwrap();
        t
    }

    #[test]
    fn push_and_read() {
        let t = movies();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.value(0, 1), Value::Str("Alien".into()));
        assert_eq!(t.row(2), vec![Value::Int(3), Value::Null, Value::Int(2020)]);
    }

    #[test]
    fn schema_violation_rejected() {
        let mut t = movies();
        let err = t.push_row(&[Value::Str("oops".into()), Value::Null, Value::Null]);
        assert!(err.is_err());
        assert_eq!(t.row_count(), 3);
    }

    #[test]
    fn subset_preserves_order_and_content() {
        let t = movies();
        let s = t.subset(&[2, 0]).unwrap();
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.value(0, 0), Value::Int(3));
        assert_eq!(s.value(1, 0), Value::Int(1));
        assert_eq!(s.name(), "movies");
    }

    #[test]
    fn subset_out_of_range() {
        let t = movies();
        assert!(t.subset(&[99]).is_err());
    }

    #[test]
    fn append_rows_is_atomic_and_bumps_version_once() {
        let mut t = movies();
        let v0 = t.data_version();
        let bad = vec![
            vec![Value::Int(4), "Dune".into(), Value::Int(2021)],
            vec![Value::Str("oops".into()), Value::Null, Value::Null],
        ];
        assert!(t.append_rows(&bad).is_err());
        assert_eq!(t.row_count(), 3, "bad batch leaves the table untouched");
        assert_eq!(t.data_version(), v0);

        let good = vec![
            vec![Value::Int(4), "Dune".into(), Value::Int(2021)],
            vec![Value::Int(5), "Solaris".into(), Value::Int(1972)],
        ];
        assert_eq!(t.append_rows(&good).unwrap(), 2);
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.data_version(), v0 + 1, "one bump per batch");
        assert_eq!(t.value(4, 2), Value::Int(1972));
    }

    #[test]
    fn append_rows_absorbs_into_cached_stats() {
        // Seen in the table's own cells, not a process-wide counter: an
        // absorb keeps the unshared accumulator's allocation, a rebuild not.
        let accum = |t: &Table| t.accum.0.read().unwrap().as_ref().map(Arc::as_ptr);
        let mut t = movies();
        t.stats(); // warm the accumulator
        let built = accum(&t).expect("warm");
        let row = vec![Value::Int(4), "Dune".into(), Value::Int(2100)];
        t.append_rows(&[row]).unwrap();
        assert_eq!(accum(&t), Some(built), "absorbed, not dropped or rebuilt");
        assert!(t.stats.0.read().unwrap().is_none(), "derived when read");
        assert_eq!(*t.stats(), TableStats::compute(&t), "maintained = computed");
    }

    #[test]
    fn append_keeps_warm_zone_maps_exact() {
        let mut t = movies();
        let before = t.zone_maps();
        assert!(before.columns[2].is_some());
        t.append_rows(&[vec![Value::Int(4), "Dune".into(), Value::Int(1902)]])
            .unwrap();
        let after = t.zone_maps();
        assert_eq!(*after, TableZones::build(&t), "extended ≡ rebuilt");
        assert_ne!(*after, *before);
    }

    #[test]
    fn clone_shares_columns_and_zone_maps_until_it_mutates() {
        let t = movies();
        let built = t.zone_maps();
        let mut copy = t.clone();
        assert!(std::ptr::eq(t.column(1), copy.column(1)));
        assert!(Arc::ptr_eq(&built, &copy.zone_maps()));
        copy.append_rows(&[vec![Value::Int(4), "Dune".into(), Value::Int(1902)]])
            .unwrap();
        copy.update_rows(&[(0, vec![Value::Int(1), "Aliens".into(), Value::Int(1986)])])
            .unwrap();
        assert!(!std::ptr::eq(t.column(1), copy.column(1)));
        assert_eq!(*copy.zone_maps(), TableZones::build(&copy));
        assert!(
            Arc::ptr_eq(&built, &t.zone_maps()),
            "the original keeps its maps"
        );
        assert_eq!((t.row_count(), t.value(0, 1)), (3, "Alien".into()));
        assert_eq!((copy.row_count(), copy.value(0, 1)), (4, "Aliens".into()));
    }

    #[test]
    fn every_mutation_drops_the_join_index_a_clone_shares() {
        // Seen in the table's own cells, not through a process-wide counter.
        let cell = |t: &Table| t.index.0.read().unwrap().clone();
        let t = movies();
        let (index, built) = (t.join_index(0), cell(&t).expect("built"));
        let mutations: [fn(&mut Table, Row); 3] = [
            |t, row| t.push_row(&row).unwrap(),
            |t, row| assert_eq!(t.append_rows(&[row]).unwrap(), 1),
            |t, row| assert_eq!(t.update_rows(&[(0, row)]).unwrap(), 1),
        ];
        for mutate in mutations {
            let mut copy = t.clone();
            assert!(Arc::ptr_eq(&built, &cell(&copy).expect("shared")));
            assert!(Arc::ptr_eq(&index, &copy.join_index(0)));
            mutate(&mut copy, vec![Value::Int(4), "Dune".into(), Value::Null]);
            assert!(cell(&copy).is_none(), "the mutated clone dropped it");
            assert!(!Arc::ptr_eq(&index, &copy.join_index(0)), "built anew");
            assert!(
                Arc::ptr_eq(&index, &t.join_index(0)),
                "the original keeps it"
            );
        }
    }

    #[test]
    fn update_rows_overwrites_in_place() {
        let mut t = movies();
        let v0 = t.data_version();
        let _warm = t.zone_maps();
        t.update_rows(&[(1, vec![Value::Int(2), "Arrival".into(), Value::Int(1800)])])
            .unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.value(1, 2), Value::Int(1800));
        assert_eq!(t.data_version(), v0 + 1);
        assert_eq!(*t.zone_maps(), TableZones::build(&t));

        assert!(t.update_rows(&[(99, vec![Value::Null; 3])]).is_err());
        assert_eq!(t.data_version(), v0 + 1, "failed update does not bump");
    }

    #[test]
    fn subset_and_empty_like_inherit_version() {
        let mut t = movies();
        t.append_rows(&[vec![Value::Int(4), "Dune".into(), Value::Int(2021)]])
            .unwrap();
        let s = t.subset(&[0, 2]).unwrap();
        assert_eq!(s.data_version(), t.data_version());
        let e = t.empty_like();
        assert_eq!(e.data_version(), t.data_version());
        assert_eq!(e.row_count(), 0);
    }
}
