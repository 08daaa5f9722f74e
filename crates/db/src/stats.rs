//! Table and column statistics.
//!
//! ASQP-RL's *unknown workload* mode (paper §4.5) synthesises queries from
//! "statistical information collected from the tables, such as the mean and
//! standard deviation of numerical columns, a sampled set of categorical
//! columns (with repetition to account for popularity)". This module
//! computes exactly that, plus histograms used by the QuickR-style baseline.
//!
//! Statistics are produced in two stages so they can be maintained
//! *incrementally* under appends and in-place updates:
//!
//! 1. [`StatsAccum`] — an order-insensitive accumulator (per-column value
//!    counts in a `BTreeMap`). Absorbing rows one batch at a time converges
//!    to exactly the accumulator a from-scratch pass would build.
//! 2. [`StatsAccum::derive`] — a pure, value-ordered walk of the
//!    accumulator producing [`TableStats`]. Because derivation never sees
//!    arrival order, incrementally maintained statistics are byte-identical
//!    to rebuilt-from-scratch ones (the `incremental_equivalence` suite
//!    asserts this).

use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Value, ValueType};
use asqp_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of most-frequent values retained per column.
pub const TOP_K: usize = 16;
/// Equi-width histogram bucket count for numeric columns.
pub const HIST_BUCKETS: usize = 20;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    pub name: String,
    pub ty: ValueType,
    pub null_count: usize,
    pub distinct: usize,
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Numeric mean/std (None for non-numeric columns or all-null).
    pub mean: Option<f64>,
    pub std: Option<f64>,
    /// Most frequent values with their counts, descending.
    pub top_values: Vec<(Value, usize)>,
    /// Equi-width histogram over `[min, max]` for numeric columns.
    pub histogram: Vec<usize>,
}

impl ColumnStats {
    /// Fraction of non-null rows falling in `[lo, hi]`, estimated from the
    /// histogram (numeric columns only).
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        let (Some(minv), Some(maxv)) = (&self.min, &self.max) else {
            return 0.0;
        };
        let (Some(minf), Some(maxf)) = (minv.as_f64(), maxv.as_f64()) else {
            return 0.0;
        };
        let total: usize = self.histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        if maxf <= minf {
            return if lo <= minf && minf <= hi { 1.0 } else { 0.0 };
        }
        let width = (maxf - minf) / self.histogram.len() as f64;
        let mut hits = 0.0;
        for (i, &c) in self.histogram.iter().enumerate() {
            let b_lo = minf + i as f64 * width;
            let b_hi = b_lo + width;
            let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0);
            if overlap > 0.0 {
                hits += c as f64 * (overlap / width).min(1.0);
            }
        }
        (hits / total as f64).clamp(0.0, 1.0)
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    pub table: String,
    pub row_count: usize,
    pub columns: Vec<ColumnStats>,
}

/// Order-insensitive per-column accumulator: exact value counts plus a null
/// count. Two accumulators that saw the same multiset of rows are equal,
/// whatever the arrival order or batching.
#[derive(Debug, Clone, Default, PartialEq)]
struct ColumnAccum {
    counts: BTreeMap<Value, usize>,
    null_count: usize,
}

impl ColumnAccum {
    fn add(&mut self, v: Value) {
        if v.is_null() {
            self.null_count += 1;
        } else {
            *self.counts.entry(v).or_insert(0) += 1;
        }
    }

    fn remove(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count = self.null_count.saturating_sub(1);
        } else if let Some(c) = self.counts.get_mut(v) {
            *c -= 1;
            if *c == 0 {
                self.counts.remove(v);
            }
        }
    }
}

/// Incrementally maintainable statistics state for one table (see the
/// module docs for the two-stage design).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsAccum {
    row_count: usize,
    columns: Vec<ColumnAccum>,
}

impl StatsAccum {
    /// Full O(rows × columns) pass over a table. This is the expensive
    /// stage; per-query callers should go through [`Table::stats`]: the
    /// table builds its accumulator once and carries it across appends and
    /// updates. The counter below is what the memoisation regression test
    /// asserts on.
    pub fn from_table(table: &Table) -> StatsAccum {
        telemetry::counter("db.stats.computes", 1);
        let mut acc = StatsAccum {
            row_count: 0,
            columns: vec![ColumnAccum::default(); table.schema().len()],
        };
        acc.absorb_rows(table, 0);
        acc
    }

    /// Fold rows `[from_row, table.row_count())` into the accumulator — the
    /// incremental append path. Absorbing a batch costs O(batch × columns),
    /// independent of how large the table already is.
    pub fn absorb_rows(&mut self, table: &Table, from_row: usize) {
        let n = table.row_count();
        for (ci, acc) in self.columns.iter_mut().enumerate() {
            let col = table.column(ci);
            for rid in from_row..n {
                acc.add(col.get(rid));
            }
        }
        self.row_count = n;
    }

    /// Apply an in-place row overwrite: retract the old row's values and
    /// absorb the new row's. Row count is unchanged.
    pub fn apply_update(&mut self, old_row: &[Value], new_row: &[Value]) {
        for (ci, acc) in self.columns.iter_mut().enumerate() {
            if let (Some(old), Some(new)) = (old_row.get(ci), new_row.get(ci)) {
                acc.remove(old);
                acc.add(new.clone());
            }
        }
    }

    /// Derive [`TableStats`] from the accumulator: a pure walk in value
    /// order (distinct counts, BTreeMap endpoints for min/max, count-
    /// weighted sums for mean/std, per-value histogram bucketing, top-K by
    /// count-then-value). Costs O(distinct × columns).
    pub fn derive(&self, table_name: &str, schema: &Schema) -> TableStats {
        let columns = schema
            .columns()
            .iter()
            .zip(&self.columns)
            .map(|(cdef, acc)| {
                let distinct = acc.counts.len();
                let min = acc.counts.keys().next().cloned();
                let max = acc.counts.keys().next_back().cloned();

                let mut sum = 0.0f64;
                let mut sum_sq = 0.0f64;
                let mut numeric_n = 0usize;
                for (v, &c) in &acc.counts {
                    if let Some(f) = v.as_f64() {
                        sum += f * c as f64;
                        sum_sq += f * f * c as f64;
                        numeric_n += c;
                    }
                }
                let (mean, std) = if numeric_n > 0 {
                    let m = sum / numeric_n as f64;
                    let var = (sum_sq / numeric_n as f64 - m * m).max(0.0);
                    (Some(m), Some(var.sqrt()))
                } else {
                    (None, None)
                };

                // Count descending, then value: a total order, since the
                // values are distinct keys. Selecting the first TOP_K and
                // sorting only those gives what sorting all of them would.
                let by_count = |a: &(&Value, usize), b: &(&Value, usize)| {
                    b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
                };
                let mut top: Vec<(&Value, usize)> =
                    acc.counts.iter().map(|(v, &c)| (v, c)).collect();
                if top.len() > TOP_K {
                    top.select_nth_unstable_by(TOP_K - 1, by_count);
                    top.truncate(TOP_K);
                }
                top.sort_unstable_by(by_count);
                let top = top.into_iter().map(|(v, c)| (v.clone(), c)).collect();

                let mut histogram = vec![0usize; 0];
                if numeric_n > 0 {
                    let minf = min.as_ref().and_then(Value::as_f64).unwrap_or(0.0);
                    let maxf = max.as_ref().and_then(Value::as_f64).unwrap_or(0.0);
                    histogram = vec![0usize; HIST_BUCKETS];
                    let width = ((maxf - minf) / HIST_BUCKETS as f64).max(f64::MIN_POSITIVE);
                    for (v, &c) in &acc.counts {
                        if let Some(f) = v.as_f64() {
                            let b = (((f - minf) / width) as usize).min(HIST_BUCKETS - 1);
                            histogram[b] += c;
                        }
                    }
                }

                ColumnStats {
                    name: cdef.name.clone(),
                    ty: cdef.ty,
                    null_count: acc.null_count,
                    distinct,
                    min,
                    max,
                    mean,
                    std,
                    top_values: top,
                    histogram,
                }
            })
            .collect();
        TableStats {
            table: table_name.to_string(),
            row_count: self.row_count,
            columns,
        }
    }
}

impl TableStats {
    /// Compute statistics from scratch (accumulate, then derive).
    pub fn compute(table: &Table) -> TableStats {
        StatsAccum::from_table(table).derive(table.name(), table.schema())
    }

    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::build(&[("x", ValueType::Int), ("s", ValueType::Str)]),
        );
        for i in 0..100 {
            let s = if i % 10 == 0 { "common" } else { "rare" };
            let x = if i == 50 { Value::Null } else { Value::Int(i) };
            t.push_row(&[x, Value::Str(s.into())]).unwrap();
        }
        t
    }

    #[test]
    fn basic_stats() {
        let s = TableStats::compute(&table());
        assert_eq!(s.row_count, 100);
        let x = s.column("x").unwrap();
        assert_eq!(x.null_count, 1);
        assert_eq!(x.distinct, 99);
        assert_eq!(x.min, Some(Value::Int(0)));
        assert_eq!(x.max, Some(Value::Int(99)));
        let mean = x.mean.unwrap();
        assert!((mean - (4950.0 - 50.0) / 99.0).abs() < 1e-9);

        let str_col = s.column("s").unwrap();
        assert_eq!(str_col.distinct, 2);
        assert_eq!(str_col.top_values[0].0, Value::Str("rare".into()));
        assert_eq!(str_col.top_values[0].1, 90);
        assert!(str_col.mean.is_none());
        assert!(str_col.histogram.is_empty());
    }

    #[test]
    fn range_selectivity_sane() {
        let s = TableStats::compute(&table());
        let x = s.column("x").unwrap();
        let all = x.range_selectivity(0.0, 99.0);
        assert!(
            (all - 1.0).abs() < 1e-9,
            "full range covers everything: {all}"
        );
        let half = x.range_selectivity(0.0, 49.0);
        assert!(half > 0.3 && half < 0.7, "half range ~ half: {half}");
        assert_eq!(x.range_selectivity(1000.0, 2000.0), 0.0);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("e", Schema::build(&[("x", ValueType::Int)]));
        let s = TableStats::compute(&t);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].distinct, 0);
        assert!(s.columns[0].min.is_none());
        assert!(s.columns[0].mean.is_none());
    }

    #[test]
    fn top_values_are_the_head_of_a_full_sort() {
        // 40 values in 5 count classes: ties in count are broken by value.
        let mut t = Table::new("t", Schema::build(&[("x", ValueType::Int)]));
        for v in 0..40i64 {
            for _ in 0..=(v * 7 % 5) {
                t.push_row(&[Value::Int(v)]).unwrap();
            }
        }
        let mut want: Vec<(Value, usize)> = (0..40i64)
            .map(|v| (Value::Int(v), (v * 7 % 5) as usize + 1))
            .collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        want.truncate(TOP_K);
        assert_eq!(TableStats::compute(&t).columns[0].top_values, want);
    }

    #[test]
    fn absorb_converges_to_from_scratch() {
        let full = table();
        let mut staged = Table::new(
            "t",
            Schema::build(&[("x", ValueType::Int), ("s", ValueType::Str)]),
        );
        for rid in 0..40 {
            staged.push_row(&full.row(rid)).unwrap();
        }
        let mut acc = StatsAccum::from_table(&staged);
        for rid in 40..full.row_count() {
            staged.push_row(&full.row(rid)).unwrap();
        }
        acc.absorb_rows(&staged, 40);
        assert_eq!(acc, StatsAccum::from_table(&full));
        assert_eq!(
            acc.derive("t", full.schema()),
            TableStats::compute(&full),
            "incremental derive ≡ from-scratch compute"
        );
    }

    #[test]
    fn apply_update_retracts_and_absorbs() {
        let mut t = table();
        let mut acc = StatsAccum::from_table(&t);
        let old = t.row(3);
        let new = vec![Value::Int(500), Value::Str("common".into())];
        t.update_rows(&[(3, new.clone())]).unwrap();
        acc.apply_update(&old, &new);
        assert_eq!(acc, StatsAccum::from_table(&t));
        assert_eq!(acc.derive("t", t.schema()), TableStats::compute(&t));
    }
}
