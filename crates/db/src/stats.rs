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
//! 1. [`StatsAccum`] — an order-insensitive accumulator: per column, each
//!    distinct value's count in the cheapest exact form the type allows (a
//!    `u32` per dictionary code for text, a `BTreeMap` from the 8-byte int
//!    or float to a `u32` for numbers, two counters for booleans). Absorbing
//!    rows one batch at a time converges to exactly the accumulator a
//!    from-scratch pass would build.
//! 2. [`StatsAccum::derive`] — a pure walk of the accumulator, numbers in
//!    value order, producing [`TableStats`]. Because derivation never sees
//!    arrival order, incrementally maintained statistics are byte-identical
//!    to rebuilt-from-scratch ones (the `incremental_equivalence` suite
//!    asserts this; `stats_oracle` holds them to the value-keyed
//!    accumulator this one replaced, [`crate::testkit::ValueCounts`]).

use crate::column::{Column, ColumnData};
use crate::schema::ColumnDef;
use crate::table::Table;
use crate::value::{cmp_floats, Value, ValueType};
use asqp_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Range;
use std::sync::Arc;

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

/// Order-insensitive per-column accumulator: the exact count of every
/// distinct value plus a null count. Two accumulators that saw the same
/// multiset of rows derive the same statistics, whatever the arrival order
/// or batching.
#[derive(Debug, Clone, PartialEq)]
struct ColumnAccum {
    counts: Counts,
    null_count: u32,
}

/// A column's value counts in the cheapest exact form its type allows.
#[derive(Debug, Clone, PartialEq)]
enum Counts {
    /// Text: one count per dictionary code (a code no row holds counts 0).
    Codes(Vec<u32>),
    /// Numbers: one entry per distinct value. Where several values compare
    /// equal (`-0.0` and `0.0`, NaNs) the key is the first seen in row order.
    Ints(BTreeMap<i64, u32>),
    Floats(BTreeMap<FloatKey, u32>),
    /// `[false, true]`.
    Bools([u32; 2]),
}

/// A float ordered as [`Value`] orders numbers: NaN greatest, `-0.0 == 0.0`.
#[derive(Debug, Clone, Copy)]
struct FloatKey(f64);

impl Ord for FloatKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_floats(self.0, other.0)
    }
}

impl PartialOrd for FloatKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for FloatKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for FloatKey {}

impl ColumnAccum {
    fn new(col: &Column) -> ColumnAccum {
        let counts = match col.data() {
            ColumnData::Str { .. } => Counts::Codes(Vec::new()),
            ColumnData::Int(_) => Counts::Ints(BTreeMap::new()),
            ColumnData::Float(_) => Counts::Floats(BTreeMap::new()),
            ColumnData::Bool(_) => Counts::Bools([0; 2]),
        };
        let null_count = 0;
        ColumnAccum { counts, null_count }
    }

    /// Count `rows` of `col` in: an increment per cell, numbers a sorted
    /// batch at a time.
    fn absorb(&mut self, col: &Column, rows: Range<usize>) {
        self.null_count += rows.clone().filter(|&r| col.is_null(r)).count() as u32;
        let live = rows.filter(|&r| !col.is_null(r));
        match (&mut self.counts, col.data()) {
            (Counts::Codes(counts), ColumnData::Str { codes, dict }) => {
                counts.resize(dict.len(), 0);
                live.for_each(|r| counts[codes[r] as usize] += 1);
            }
            (Counts::Ints(map), ColumnData::Int(d)) => absorb_keys(map, live.map(|r| d[r])),
            (Counts::Floats(map), ColumnData::Float(d)) => {
                absorb_keys(map, live.map(|r| FloatKey(d[r])))
            }
            (Counts::Bools(counts), ColumnData::Bool(d)) => {
                live.for_each(|r| counts[usize::from(d[r])] += 1)
            }
            _ => {}
        }
    }

    /// Count the cell at `rid` in (`admit`) or out.
    fn step(&mut self, col: &Column, rid: usize, admit: bool) {
        let bump = |c: &mut u32| *c = if admit { *c + 1 } else { c.saturating_sub(1) };
        if col.is_null(rid) {
            return bump(&mut self.null_count);
        }
        match (&mut self.counts, col.data()) {
            (Counts::Codes(counts), ColumnData::Str { codes, dict }) => {
                counts.resize(dict.len(), 0);
                bump(&mut counts[codes[rid] as usize]);
            }
            (Counts::Ints(map), ColumnData::Int(d)) => step_key(map, d[rid], admit),
            (Counts::Floats(map), ColumnData::Float(d)) => step_key(map, FloatKey(d[rid]), admit),
            (Counts::Bools(counts), ColumnData::Bool(d)) => bump(&mut counts[usize::from(d[rid])]),
            _ => {}
        }
    }
}

/// Count `keys` into `map`, an existing entry keeping its key. The keys
/// are sorted first, stably, so equal keys stay in row order and each run's
/// first is the first seen: an empty map is built from the runs in one
/// pass, a built one takes a run per entry, in key order.
fn absorb_keys<K: Ord + Copy>(map: &mut BTreeMap<K, u32>, keys: impl Iterator<Item = K>) {
    let mut keys: Vec<K> = keys.collect();
    keys.sort();
    let runs = keys
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32));
    if map.is_empty() {
        *map = runs.collect();
    } else {
        runs.for_each(|(k, n)| *map.entry(k).or_insert(0) += n);
    }
}

/// Count one `key` in (`admit`) or out; an entry whose count reaches 0 goes.
fn step_key<K: Ord>(map: &mut BTreeMap<K, u32>, key: K, admit: bool) {
    if admit {
        *map.entry(key).or_insert(0) += 1;
    } else if let Entry::Occupied(mut e) = map.entry(key) {
        *e.get_mut() -= 1;
        if *e.get() == 0 {
            e.remove();
        }
    }
}

/// One column's statistics from its distinct values and their counts.
/// `entries` yields each distinct value once, numbers in value order, so
/// the mean, std and histogram sums run in that order; text comes in
/// dictionary order, which only its min, max and top-K read, and those do
/// not depend on it.
fn column_stats(
    cdef: &ColumnDef,
    null_count: usize,
    entries: impl Iterator<Item = (Value, u32)> + Clone,
) -> ColumnStats {
    let distinct = entries.clone().count();
    let min = entries.clone().map(|e| e.0).min();
    let max = entries.clone().map(|e| e.0).max();

    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut numeric_n = 0usize;
    for (v, c) in entries.clone() {
        if let Some(f) = v.as_f64() {
            sum += f * c as f64;
            sum_sq += f * f * c as f64;
            numeric_n += c as usize;
        }
    }
    let (mean, std) = if numeric_n > 0 {
        let m = sum / numeric_n as f64;
        let var = (sum_sq / numeric_n as f64 - m * m).max(0.0);
        (Some(m), Some(var.sqrt()))
    } else {
        (None, None)
    };

    // Count descending, then value: a total order, since the values are
    // distinct. Keeping the first TOP_K in order as they stream past gives
    // the head of a full sort.
    let by_count = |a: &(Value, u32), b: &(Value, u32)| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0));
    let mut top: Vec<(Value, u32)> = Vec::with_capacity(TOP_K + 1);
    for e in entries.clone() {
        if top.len() == TOP_K && by_count(&top[TOP_K - 1], &e).is_lt() {
            continue;
        }
        let at = top.partition_point(|t| by_count(t, &e).is_lt());
        top.insert(at, e);
        top.truncate(TOP_K);
    }

    let mut histogram = vec![0usize; 0];
    if numeric_n > 0 {
        let minf = min.as_ref().and_then(Value::as_f64).unwrap_or(0.0);
        let maxf = max.as_ref().and_then(Value::as_f64).unwrap_or(0.0);
        histogram = vec![0usize; HIST_BUCKETS];
        let width = ((maxf - minf) / HIST_BUCKETS as f64).max(f64::MIN_POSITIVE);
        for (v, c) in entries {
            if let Some(f) = v.as_f64() {
                let b = (((f - minf) / width) as usize).min(HIST_BUCKETS - 1);
                histogram[b] += c as usize;
            }
        }
    }

    ColumnStats {
        name: cdef.name.clone(),
        ty: cdef.ty,
        null_count,
        distinct,
        min,
        max,
        mean,
        std,
        top_values: top.into_iter().map(|(v, c)| (v, c as usize)).collect(),
        histogram,
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
            columns: (0..table.schema().len())
                .map(|ci| ColumnAccum::new(table.column(ci)))
                .collect(),
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
            acc.absorb(table.column(ci), from_row..n);
        }
        self.row_count = n;
    }

    /// Count row `rid` of `columns` out (`admit == false`, just before an
    /// in-place write) or back in (just after it). Row count is unchanged.
    pub(crate) fn step_row(&mut self, columns: &[Column], rid: usize, admit: bool) {
        for (acc, col) in self.columns.iter_mut().zip(columns) {
            acc.step(col, rid, admit);
        }
    }

    /// Derive [`TableStats`] for `table`, whose rows this accumulator
    /// counts, reading text values from its dictionaries. Costs
    /// O(distinct × columns), plus the dictionary length of a text column.
    pub fn derive(&self, table: &Table) -> TableStats {
        let columns = table
            .schema()
            .columns()
            .iter()
            .zip(&self.columns)
            .enumerate()
            .map(|(ci, (cdef, acc))| {
                let nulls = acc.null_count as usize;
                match &acc.counts {
                    Counts::Codes(counts) => {
                        let dict: &[Arc<str>] = match table.column(ci).data() {
                            ColumnData::Str { dict, .. } => dict,
                            _ => &[],
                        };
                        let live = dict.iter().zip(counts).filter(|e| *e.1 > 0);
                        column_stats(cdef, nulls, live.map(|(s, &c)| (Value::Str(s.clone()), c)))
                    }
                    Counts::Ints(map) => {
                        column_stats(cdef, nulls, map.iter().map(|(&k, &c)| (Value::Int(k), c)))
                    }
                    Counts::Floats(map) => column_stats(
                        cdef,
                        nulls,
                        map.iter().map(|(k, &c)| (Value::Float(k.0), c)),
                    ),
                    Counts::Bools(counts) => {
                        let live = [false, true].into_iter().zip(*counts).filter(|e| e.1 > 0);
                        column_stats(cdef, nulls, live.map(|(b, c)| (Value::Bool(b), c)))
                    }
                }
            })
            .collect();
        TableStats {
            table: table.name().to_string(),
            row_count: self.row_count,
            columns,
        }
    }
}

impl TableStats {
    /// Compute statistics from scratch (accumulate, then derive).
    pub fn compute(table: &Table) -> TableStats {
        StatsAccum::from_table(table).derive(table)
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
            acc.derive(&full),
            TableStats::compute(&full),
            "incremental derive ≡ from-scratch compute"
        );
    }

    #[test]
    fn update_retracts_and_admits() {
        let mut t = table();
        let before = t.stats();
        let new = vec![Value::Int(500), Value::Str("new".into())];
        t.update_rows(&[(3, new), (50, vec![Value::Null, Value::Null])])
            .unwrap();
        assert_ne!(*t.stats(), *before);
        assert_eq!(*t.stats(), TableStats::compute(&t));
    }
}
