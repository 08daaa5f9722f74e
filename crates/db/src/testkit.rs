//! Test support shared by this crate's tests, example and benches: the
//! reference executor every oracle compares the engine against, the
//! value-keyed statistics accumulator and the `Vec<char>` LIKE matcher the
//! maintained statistics and `like_match` are compared against, and the
//! star-schema fixture the EXPLAIN goldens print.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::exec::{aggregate, count_rows, ExecTrace, QueryOutput, ResultSet, Rows};
use crate::expr::Expr;
use crate::plan::{bind, Output};
use crate::query::Query;
use crate::schema::Schema;
use crate::stats::{ColumnStats, TableStats, HIST_BUCKETS, TOP_K};
use crate::table::Table;
use crate::value::{Row, Value, ValueType};
use std::collections::{BTreeMap, HashSet};

/// What [`Database::cached_row_count`] runs on a miss, on one shard: with
/// `added = Some((table, from_row))` the count of the tuples that use a
/// row of `table` at or past `from_row` (what an append added), else the
/// whole count; and the trace of that execution.
pub fn count(
    db: &Database,
    query: &Query,
    added: Option<(&str, usize)>,
) -> DbResult<(usize, ExecTrace)> {
    count_rows(db, query, 1, added)
}

/// Reference executor: nested loops over the *unfiltered* tables, nesting
/// the bindings in `order` (outermost first), with the whole predicate —
/// join equalities and WHERE, bound as one expression — applied to each
/// combination. It shares name resolution and the aggregation arithmetic
/// with the engine and nothing else: no conjunct classification, pushdown,
/// kernels, zone maps, hashing or sharding.
///
/// Before ORDER BY / DISTINCT / LIMIT the engine's output is lexicographic
/// in base row ids taken in join order (ascending scans, build lists in
/// scan order, in-order shard concatenation), which is exactly the order
/// these loops enumerate. So given the join order an execution reports, the
/// reference reproduces its rows, their order and their lineage bit for
/// bit, LIMIT included. Exponentially slow: test-sized tables only.
pub fn reference(db: &Database, query: &Query, order: &[usize]) -> DbResult<QueryOutput> {
    let bound = bind(db, query)?;
    let layout = &bound.layout;
    let mut conjuncts = Vec::new();
    for j in &query.joins {
        conjuncts.push(Expr::eq(
            Expr::Slot(layout.resolve(&j.left)?),
            Expr::Slot(layout.resolve(&j.right)?),
        ));
    }
    if let Some(p) = &query.predicate {
        conjuncts.push(p.bind(&|c| layout.resolve(c))?);
    }
    let pred = Expr::conjunction(conjuncts);
    let slots = pred.as_ref().map(Expr::slots).unwrap_or_default();

    let sizes: Vec<usize> = layout
        .bindings
        .iter()
        .map(|b| b.table.row_count())
        .collect();
    let mut kept: Vec<Vec<usize>> = Vec::new();
    let mut ids = vec![0usize; sizes.len()];
    let mut flat: Row = vec![Value::Null; layout.total_slots()];
    let mut more = sizes.iter().all(|&n| n > 0);
    while more {
        for &s in &slots {
            flat[s] = layout.fetch(&ids, s);
        }
        if pred.as_ref().map_or(Ok(true), |p| p.matches(&flat))? {
            kept.push(ids.clone());
        }
        // Odometer step: the last binding in `order` spins fastest.
        more = false;
        for &b in order.iter().rev() {
            ids[b] += 1;
            if ids[b] < sizes[b] {
                more = true;
                break;
            }
            ids[b] = 0;
        }
    }

    let binding_tables = layout
        .bindings
        .iter()
        .map(|b| b.table.name().to_string())
        .collect();
    let trace = ExecTrace {
        join_order: order.to_vec(),
        ..ExecTrace::default()
    };
    let limit = query.limit.unwrap_or(usize::MAX);
    let (proj, names, keys) = match &bound.output {
        Output::Groups(groups) => {
            return Ok(QueryOutput {
                result: aggregate::aggregate(layout, kept.iter().map(Vec::as_slice), groups, limit),
                binding_tables,
                lineage: Vec::new(),
                trace,
            })
        }
        Output::Rows { proj, names, order } => (proj, names, order),
    };
    // Stable, like the engine's sort: ties keep enumeration order.
    kept.sort_by(|a, b| {
        keys.iter()
            .map(|&(s, desc)| {
                let ord = layout.fetch(a, s).cmp(&layout.fetch(b, s));
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut rows = Rows::with_capacity(proj.len(), 0);
    let mut lineage = Vec::new();
    let mut seen: HashSet<Row> = HashSet::new();
    for t in kept {
        if rows.len() >= limit {
            break;
        }
        let row: Row = proj.iter().map(|&s| layout.fetch(&t, s)).collect();
        if query.distinct && !seen.insert(row.clone()) {
            continue;
        }
        rows.push(row);
        lineage.push(t);
    }
    Ok(QueryOutput {
        result: ResultSet {
            columns: names.clone(),
            rows,
        },
        binding_tables,
        lineage,
        trace,
    })
}

/// One column of [`ValueCounts`]: each distinct value's count, and the
/// nulls.
#[derive(Debug, Clone, Default, PartialEq)]
struct ColumnCounts {
    counts: BTreeMap<Value, usize>,
    null_count: usize,
}

impl ColumnCounts {
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

/// The statistics accumulator [`Table::stats`] kept until it counted by
/// dictionary code and typed key: a `BTreeMap` from each distinct value to
/// its count, per column, derived by a walk in value order. The oracle the
/// maintained statistics are checked against: driven through the same
/// appends and updates as a table, it derives the same [`TableStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueCounts {
    row_count: usize,
    columns: Vec<ColumnCounts>,
}

impl ValueCounts {
    /// Count every row of `table`.
    pub fn from_table(table: &Table) -> ValueCounts {
        let mut acc = ValueCounts {
            row_count: 0,
            columns: vec![ColumnCounts::default(); table.schema().len()],
        };
        acc.absorb_rows(table, 0);
        acc
    }

    /// Count rows `[from_row, table.row_count())` in.
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

    /// Derive [`TableStats`]: a walk in value order (distinct counts, map
    /// endpoints for min/max, count-weighted sums for mean/std, per-value
    /// histogram bucketing, top-K by count-then-value).
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

/// Reference LIKE matcher, a two-pointer walk over `Vec<char>`s with `%` and
/// `_` tested before a literal; [`crate::expr::like_match`] must agree.
pub fn like_match_chars(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if p.get(pi) == Some(&'%') {
            (star_p, star_s) = (pi, si);
            pi += 1;
        } else if p.get(pi).is_some_and(|&c| c == '_' || c == s[si]) {
            (si, pi) = (si + 1, pi + 1);
        } else if star_p != usize::MAX {
            (pi, star_s) = (star_p + 1, star_s + 1);
            si = star_s;
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == '%')
}

/// The star schema of `examples/explain.rs` and the EXPLAIN goldens:
/// `events(id, user_id, qty)` with 10 000 rows fanning into
/// `users(id, age)` with 500.
pub fn star_db() -> Database {
    let mut db = Database::new();
    let events = db
        .create_table(
            "events",
            Schema::build(&[
                ("id", ValueType::Int),
                ("user_id", ValueType::Int),
                ("qty", ValueType::Int),
            ]),
        )
        .expect("fresh database");
    for i in 0..10_000i64 {
        events
            .push_row(&[Value::Int(i), Value::Int(i % 500), Value::Int(i % 100)])
            .expect("row matches schema");
    }
    let users = db
        .create_table(
            "users",
            Schema::build(&[("id", ValueType::Int), ("age", ValueType::Int)]),
        )
        .expect("fresh database");
    for i in 0..500i64 {
        users
            .push_row(&[Value::Int(i), Value::Int(18 + (i * 7) % 72)])
            .expect("row matches schema");
    }
    db
}
