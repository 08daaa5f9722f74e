//! Zone maps: exact per-chunk and whole-column min/max bounds for numeric
//! columns, used by the vectorized executor to skip morsels (and whole
//! tables) that cannot satisfy a range predicate.
//!
//! Bounds are kept *typed* — `i64` for integer columns, `f64` for float
//! columns — so pruning decisions use the same comparison semantics as
//! [`crate::value::Value::sql_cmp`] and never misprune from lossy
//! `i64 → f64` conversion. The maps are built lazily on first use and kept
//! by the table beside its statistics: an append extends them, an update
//! refreshes the chunks it touched, and a clone of the table shares them
//! until either side mutates ([`Table::zone_maps`]).

use crate::column::ColumnData;
use crate::table::Table;

/// Rows per execution morsel; zone-map chunks are aligned to this.
pub const MORSEL_ROWS: usize = 2048;

/// Exact min/max for one chunk of one numeric column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZoneBounds {
    Int { min: i64, max: i64 },
    Float { min: f64, max: f64 },
}

/// Summary of one chunk: bounds over non-null values (`None` when the chunk
/// is entirely NULL) plus a null-presence flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    pub bounds: Option<ZoneBounds>,
    pub has_nulls: bool,
}

/// Zone maps for one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZones {
    /// One entry per [`MORSEL_ROWS`]-aligned chunk, in row order.
    pub chunks: Vec<Zone>,
    /// Bounds over the whole column (fold of `chunks`).
    pub whole: Zone,
}

/// Zone maps for every column of a table; `None` for non-numeric columns.
#[derive(Debug, PartialEq)]
pub struct TableZones {
    pub columns: Vec<Option<ColumnZones>>,
}

impl TableZones {
    pub fn build(table: &Table) -> TableZones {
        Self::build_with(table, None, &|_| false)
    }

    /// Zone maps for `table` after rows were appended, reusing `self`'s
    /// chunks for every chunk that was already *complete* at `old_rows`.
    /// Only the trailing partial chunk and the appended rows are rescanned,
    /// so the result is chunk-for-chunk identical to a full [`build`](Self::build).
    pub fn extended(&self, table: &Table, old_rows: usize) -> TableZones {
        let complete = old_rows / MORSEL_ROWS;
        Self::build_with(table, Some(self), &|chunk| chunk < complete)
    }

    /// Zone maps for `table` after in-place row updates, recomputing only
    /// the chunks listed (sorted) in `dirty` and reusing the rest of
    /// `self`'s chunks. Row count must be unchanged.
    pub fn refreshed(&self, table: &Table, dirty: &[usize]) -> TableZones {
        Self::build_with(table, Some(self), &|chunk| {
            dirty.binary_search(&chunk).is_err()
        })
    }

    /// Shared builder: per chunk, either reuse the prior map's entry (when
    /// `reusable(chunk)` holds and the prior has one) or rescan the rows.
    /// Exactness is preserved because every reused chunk covers rows that
    /// did not change.
    fn build_with(
        table: &Table,
        prior: Option<&TableZones>,
        reusable: &dyn Fn(usize) -> bool,
    ) -> TableZones {
        let n = table.row_count();
        let columns = (0..table.schema().len())
            .map(|ci| {
                let col = table.column(ci);
                let prior_col = prior
                    .and_then(|z| z.columns.get(ci))
                    .and_then(|c| c.as_ref());
                match col.data() {
                    ColumnData::Int(d) => Some(build_zones(
                        d,
                        col.validity(),
                        n,
                        prior_col,
                        reusable,
                        int_bounds,
                    )),
                    ColumnData::Float(d) => Some(build_zones(
                        d,
                        col.validity(),
                        n,
                        prior_col,
                        reusable,
                        float_bounds,
                    )),
                    _ => None,
                }
            })
            .collect();
        TableZones { columns }
    }
}

fn int_bounds(vals: &[i64]) -> ZoneBounds {
    ZoneBounds::Int {
        min: *vals.iter().min().unwrap_or(&0),
        max: *vals.iter().max().unwrap_or(&0),
    }
}

fn float_bounds(vals: &[f64]) -> ZoneBounds {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in vals {
        // NaN widens the zone to "anything" so pruning
        // stays conservative for NaN-laden chunks.
        if v.is_nan() {
            return ZoneBounds::Float {
                min: f64::NEG_INFINITY,
                max: f64::INFINITY,
            };
        }
        min = min.min(v);
        max = max.max(v);
    }
    ZoneBounds::Float { min, max }
}

fn build_zones<T: Copy>(
    data: &[T],
    validity: &[bool],
    n: usize,
    prior: Option<&ColumnZones>,
    reusable: &dyn Fn(usize) -> bool,
    bounds_of: impl Fn(&[T]) -> ZoneBounds,
) -> ColumnZones {
    let mut chunks = Vec::with_capacity(n.div_ceil(MORSEL_ROWS).max(1));
    let mut start = 0;
    let mut scratch: Vec<T> = Vec::with_capacity(MORSEL_ROWS);
    while start < n {
        let end = (start + MORSEL_ROWS).min(n);
        let chunk = start / MORSEL_ROWS;
        if let Some(p) = prior {
            if reusable(chunk) {
                if let Some(z) = p.chunks.get(chunk) {
                    chunks.push(*z);
                    start = end;
                    continue;
                }
            }
        }
        scratch.clear();
        let mut has_nulls = false;
        for i in start..end {
            if validity[i] {
                scratch.push(data[i]);
            } else {
                has_nulls = true;
            }
        }
        let bounds = if scratch.is_empty() {
            None
        } else {
            Some(bounds_of(&scratch))
        };
        chunks.push(Zone { bounds, has_nulls });
        start = end;
    }
    let whole = chunks.iter().fold(
        Zone {
            bounds: None,
            has_nulls: false,
        },
        |acc, z| Zone {
            bounds: merge_bounds(acc.bounds, z.bounds),
            has_nulls: acc.has_nulls || z.has_nulls,
        },
    );
    ColumnZones { chunks, whole }
}

fn merge_bounds(a: Option<ZoneBounds>, b: Option<ZoneBounds>) -> Option<ZoneBounds> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (
            Some(ZoneBounds::Int { min: a0, max: a1 }),
            Some(ZoneBounds::Int { min: b0, max: b1 }),
        ) => Some(ZoneBounds::Int {
            min: a0.min(b0),
            max: a1.max(b1),
        }),
        (
            Some(ZoneBounds::Float { min: a0, max: a1 }),
            Some(ZoneBounds::Float { min: b0, max: b1 }),
        ) => Some(ZoneBounds::Float {
            min: a0.min(b0),
            max: a1.max(b1),
        }),
        // Mixed bounds cannot occur within one column; widen to "anything".
        _ => Some(ZoneBounds::Float {
            min: f64::NEG_INFINITY,
            max: f64::INFINITY,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    fn table_with_ints(vals: &[Option<i64>]) -> Table {
        let mut t = Table::new("t", Schema::build(&[("x", ValueType::Int)]));
        for v in vals {
            let row = [v.map(Value::Int).unwrap_or(Value::Null)];
            t.push_row(&row).unwrap();
        }
        t
    }

    #[test]
    fn int_bounds_are_exact() {
        let t = table_with_ints(&[Some(5), Some(-3), None, Some(9)]);
        let z = TableZones::build(&t);
        let cz = z.columns[0].as_ref().unwrap();
        assert_eq!(cz.chunks.len(), 1);
        assert_eq!(cz.whole.bounds, Some(ZoneBounds::Int { min: -3, max: 9 }));
        assert!(cz.whole.has_nulls);
    }

    #[test]
    fn all_null_chunk_has_no_bounds() {
        let t = table_with_ints(&[None, None]);
        let z = TableZones::build(&t);
        let cz = z.columns[0].as_ref().unwrap();
        assert!(cz.whole.bounds.is_none());
        assert!(cz.whole.has_nulls);
    }

    #[test]
    fn chunks_align_to_morsels() {
        let vals: Vec<Option<i64>> = (0..(MORSEL_ROWS as i64 * 2 + 10)).map(Some).collect();
        let t = table_with_ints(&vals);
        let z = TableZones::build(&t);
        let cz = z.columns[0].as_ref().unwrap();
        assert_eq!(cz.chunks.len(), 3);
        assert_eq!(
            cz.chunks[0].bounds,
            Some(ZoneBounds::Int {
                min: 0,
                max: MORSEL_ROWS as i64 - 1
            })
        );
        assert_eq!(
            cz.chunks[2].bounds,
            Some(ZoneBounds::Int {
                min: MORSEL_ROWS as i64 * 2,
                max: MORSEL_ROWS as i64 * 2 + 9
            })
        );
    }

    #[test]
    fn string_columns_have_no_zones() {
        let mut t = Table::new("s", Schema::build(&[("n", ValueType::Str)]));
        t.push_row(&[Value::Str("a".into())]).unwrap();
        let z = TableZones::build(&t);
        assert!(z.columns[0].is_none());
    }

    #[test]
    fn extended_matches_full_rebuild() {
        let vals: Vec<Option<i64>> = (0..(MORSEL_ROWS as i64 + 100)).map(Some).collect();
        let mut t = table_with_ints(&vals);
        let old = TableZones::build(&t);
        let old_rows = t.row_count();
        for i in 0..(MORSEL_ROWS as i64) {
            t.push_row(&[Value::Int(-i)]).unwrap();
        }
        let inc = old.extended(&t, old_rows);
        let full = TableZones::build(&t);
        assert_eq!(inc, full, "incremental extension must equal a rebuild");
    }

    #[test]
    fn refreshed_matches_full_rebuild() {
        let mut vals: Vec<Option<i64>> = (0..(MORSEL_ROWS as i64 * 3)).map(Some).collect();
        let t = table_with_ints(&vals);
        let old = TableZones::build(&t);
        // Shrink the min of chunk 1: a refresh must not keep the old bound.
        vals[MORSEL_ROWS + 5] = Some(-777);
        let t = table_with_ints(&vals);
        let inc = old.refreshed(&t, &[1]);
        let full = TableZones::build(&t);
        assert_eq!(inc, full);
        let cz = inc.columns[0].as_ref().unwrap();
        assert_eq!(
            cz.chunks[1].bounds,
            Some(ZoneBounds::Int {
                min: -777,
                max: MORSEL_ROWS as i64 * 2 - 1
            })
        );
    }

    #[test]
    fn cache_invalidates_on_push_and_resets_on_clone() {
        let mut t = table_with_ints(&[Some(1)]);
        let z1 = t.zone_maps();
        assert_eq!(
            z1.columns[0].as_ref().unwrap().whole.bounds,
            Some(ZoneBounds::Int { min: 1, max: 1 })
        );
        t.push_row(&[Value::Int(100)]).unwrap();
        let z2 = t.zone_maps();
        assert_eq!(
            z2.columns[0].as_ref().unwrap().whole.bounds,
            Some(ZoneBounds::Int { min: 1, max: 100 })
        );
        let c = t.clone();
        let z3 = c.zone_maps();
        assert_eq!(
            z3.columns[0].as_ref().unwrap().whole.bounds,
            z2.columns[0].as_ref().unwrap().whole.bounds
        );
    }
}
