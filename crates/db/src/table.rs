//! A named, schema-checked, columnar table.

use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::{Row, Value};
use crate::zonemap::{TableZones, ZoneCache, MORSEL_ROWS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// In-memory table: one [`Column`] per schema column, all equal length.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    row_count: usize,
    /// Monotonically increasing data version, bumped by every mutation
    /// entry point (once per batch for the bulk paths). Derived caches —
    /// plans, cardinalities, statistics — record the version they were
    /// computed at and revalidate against it, so a stale read after an
    /// append or update is structurally impossible.
    #[serde(default)]
    data_version: u64,
    /// Lazily built zone maps (derived state; reset on clone/deserialize).
    #[serde(skip)]
    zones: ZoneCache,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema.columns().iter().map(|c| Column::new(c.ty)).collect();
        Table {
            name: name.into(),
            schema,
            columns,
            row_count: 0,
            data_version: 0,
            zones: ZoneCache::default(),
        }
    }

    pub fn with_capacity(name: impl Into<String>, schema: Schema, cap: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::with_capacity(c.ty, cap))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            row_count: 0,
            data_version: 0,
            zones: ZoneCache::default(),
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

    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Append a row after validating it against the schema.
    pub fn push_row(&mut self, row: &[Value]) -> DbResult<()> {
        self.schema.check_row(row)?;
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v)?;
        }
        self.row_count += 1;
        self.data_version += 1;
        self.zones.invalidate();
        Ok(())
    }

    /// Append a batch of rows atomically: every row is validated before any
    /// row is stored, so a bad batch leaves the table untouched. Bumps the
    /// data version once for the whole batch, and when zone maps are
    /// already built they are *extended* (only the trailing partial chunk
    /// plus the new rows are scanned) instead of being invalidated.
    pub fn append_rows(&mut self, rows: &[Row]) -> DbResult<usize> {
        for row in rows {
            self.schema.check_row(row)?;
        }
        if rows.is_empty() {
            return Ok(0);
        }
        let old_rows = self.row_count;
        let prior = self.zones.take_built();
        for row in rows {
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.push(v)?;
            }
            self.row_count += 1;
        }
        self.data_version += 1;
        if let Some(z) = prior {
            self.zones.set(Arc::new(z.extended(self, old_rows)));
        }
        Ok(rows.len())
    }

    /// Overwrite existing rows in place; `updates` pairs row ids with full
    /// replacement rows. All ids and rows are validated before any write.
    /// Bumps the data version once; built zone maps are refreshed by
    /// recomputing only the touched chunks.
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
        let prior = self.zones.take_built();
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for (rid, row) in updates {
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.set(*rid, v)?;
            }
            dirty.insert(*rid / MORSEL_ROWS);
        }
        self.data_version += 1;
        if let Some(z) = prior {
            let dirty: Vec<usize> = dirty.into_iter().collect();
            self.zones.set(Arc::new(z.refreshed(self, &dirty)));
        }
        Ok(updates.len())
    }

    /// Zone maps for this table, built on first use and cached until the
    /// next mutation. Used by the vectorized executor to skip morsels.
    pub fn zone_maps(&self) -> Arc<TableZones> {
        self.zones.get_or_build(|| TableZones::build(self))
    }

    /// Materialise a full row.
    pub fn row(&self, idx: usize) -> Row {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Build a new table containing only `row_ids` (in the given order).
    /// This is how approximation-set sub-databases are materialised.
    pub fn subset(&self, row_ids: &[usize]) -> DbResult<Table> {
        let mut t = Table::with_capacity(self.name.clone(), self.schema.clone(), row_ids.len());
        for &rid in row_ids {
            if rid >= self.row_count {
                return Err(DbError::ShapeMismatch(format!(
                    "row id {rid} out of range for table {} ({} rows)",
                    self.name, self.row_count
                )));
            }
            let row = self.row(rid);
            t.push_row(&row)?;
        }
        // A subset is a snapshot of its parent *at the parent's current
        // version*: it inherits that version (overwriting the bumps from the
        // build loop above), so its data fingerprint names the state of the
        // parent it was cut from until either side mutates.
        t.data_version = self.data_version;
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
