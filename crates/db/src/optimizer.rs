//! Cost-based query optimizer.
//!
//! [`plan_query`] is the one way a query becomes a [`Plan`]: it binds the
//! query ([`crate::plan::bind`]), a [`CostModel`] fed from the executing
//! database's memoised [`TableStats`] histograms and zone-map bounds
//! estimates every filtered scan and join, and [`cost_order`] picks the
//! join order. Nothing is remembered between queries, so a plan follows its
//! own literals and its own database: the same template with other
//! constants, or on a subset, is costed as what it is.
//!
//! Everything here is deterministic: cost ties break toward the lowest
//! binding index and estimates are pure functions of table statistics — the
//! same query against the same data always yields the same plan, which the
//! determinism harness (fig02 double runs) relies on.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::expr::{CmpOp, Expr};
use crate::plan::{bind, Bound, BoundJoin, Conjunct, Plan};
use crate::query::Query;
use crate::stats::TableStats;
use crate::table::Table;
use crate::value::Value;
use crate::zonemap::{TableZones, ZoneBounds};
use asqp_telemetry as telemetry;
use std::sync::Arc;

/// Plan a query for execution: bind it, estimate every filtered scan and
/// every join condition from `db`'s statistics, then order the joins by
/// cost.
pub fn plan_query<'a>(db: &'a Database, query: &'a Query) -> DbResult<Plan<'a>> {
    plan_counting(db, query, None)
}

/// [`plan_query`] for a count of the tuples that use a row of table
/// `added.0` at or past row `added.1` ([`crate::exec::count_rows`]): that
/// binding is estimated over those rows alone, so the plan starts from an
/// appended batch. A count does not depend on join order.
pub(crate) fn plan_counting<'a>(
    db: &'a Database,
    query: &'a Query,
    added: Option<(&str, usize)>,
) -> DbResult<Plan<'a>> {
    let bound = bind(db, query)?;
    let _s = telemetry::span("db.optimize");
    let model = CostModel::new(db, &bound)?;
    let est_scan_rows: Vec<f64> = (bound.layout.bindings.iter().zip(&bound.pushed))
        .enumerate()
        .map(|(b, (binding, filters))| {
            let (table, rows) = (binding.table, binding.table.row_count());
            let appended = added.filter(|&(name, _)| table.name() == name);
            let past = appended.map_or(rows, |(_, from)| rows.saturating_sub(from));
            // `past == rows` multiplies by exactly 1.
            model.scan_rows(b, filters) * (past as f64 / rows.max(1) as f64)
        })
        .collect();
    let conds: Vec<(usize, usize, f64)> = bound
        .joins
        .iter()
        .map(|j| (j.left_binding, j.right_binding, model.join_selectivity(j)))
        .collect();
    let (join_order, est_join_rows) = cost_order(&est_scan_rows, &conds);
    Ok(Plan {
        scan_limit: bound.query.limit.filter(|_| bound.limit_pushable()),
        bound,
        join_order,
        est_scan_rows,
        est_join_rows,
    })
}

/// Selectivity and cardinality estimates for one query's bindings, built on
/// memoised table statistics and zone-map whole-column bounds.
pub struct CostModel<'a> {
    stats: Vec<Arc<TableStats>>,
    zones: Vec<Arc<TableZones>>,
    tables: Vec<&'a Table>,
}

impl<'a> CostModel<'a> {
    pub fn new(db: &Database, bound: &Bound<'a>) -> DbResult<CostModel<'a>> {
        let tables: Vec<&Table> = bound.layout.bindings.iter().map(|b| b.table).collect();
        let mut stats = Vec::with_capacity(tables.len());
        for t in &tables {
            stats.push(db.table_stats(t.name())?);
        }
        Ok(CostModel {
            stats,
            zones: tables.iter().map(|t| t.zone_maps()).collect(),
            tables,
        })
    }

    /// Estimated rows surviving a binding's pushed-down filters.
    pub fn scan_rows(&self, binding: usize, filters: &[Conjunct]) -> f64 {
        let rows = self.stats[binding].row_count as f64;
        filters.iter().fold(rows, |acc, f| {
            acc * self.conjunct_selectivity(binding, &f.named)
        })
    }

    /// Equi-join selectivity: `1 / max(distinct_left, distinct_right, 1)`,
    /// the textbook containment assumption.
    pub fn join_selectivity(&self, join: &BoundJoin) -> f64 {
        let distinct = |binding: usize, column: &str| {
            self.stats[binding]
                .column(column)
                .map_or(0, |cs| cs.distinct)
        };
        let dl = distinct(join.left_binding, &join.cond.left.column);
        let dr = distinct(join.right_binding, &join.cond.right.column);
        1.0 / dl.max(dr).max(1) as f64
    }

    /// Zone-map whole-column numeric bounds for a column, if tracked.
    fn zone_bounds(&self, binding: usize, column: &str) -> Option<(f64, f64)> {
        let ci = self.tables[binding].schema().index_of(column)?;
        let zones = self.zones[binding].columns.get(ci)?.as_ref()?;
        match zones.whole.bounds? {
            ZoneBounds::Int { min, max } => Some((min as f64, max as f64)),
            ZoneBounds::Float { min, max } => Some((min, max)),
        }
    }

    /// Selectivity of a single-binding conjunct. Histogram overlap for
    /// ranges, top-value frequencies (falling back to `1/distinct`) for
    /// equality, null fractions for IS NULL; zone-map bounds prove empty
    /// ranges outright. Unknown shapes estimate 0.5.
    pub fn conjunct_selectivity(&self, binding: usize, e: &Expr) -> f64 {
        let stats = &self.stats[binding];
        let rows = stats.row_count as f64;
        if rows == 0.0 {
            return 0.0;
        }
        let flip = |s: f64, negated: bool| {
            if negated {
                (1.0 - s).clamp(0.0, 1.0)
            } else {
                s
            }
        };
        match e {
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) =
                    (&**expr, &**low, &**high)
                else {
                    return 0.5;
                };
                let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) else {
                    return 0.5;
                };
                flip(self.range_sel(binding, &c.column, lo, hi), *negated)
            }
            Expr::Cmp { op, lhs, rhs } => {
                // Normalise to column-op-literal, flipping when reversed.
                let (c, op, lit) = match (&**lhs, &**rhs) {
                    (Expr::Column(c), Expr::Literal(v)) => (c, *op, v),
                    (Expr::Literal(v), Expr::Column(c)) => (c, op.flip(), v),
                    _ => return 0.5,
                };
                match op {
                    CmpOp::Eq => self.eq_sel(binding, &c.column, lit),
                    CmpOp::Ne => flip(self.eq_sel(binding, &c.column, lit), true),
                    CmpOp::Lt | CmpOp::Le => match lit.as_f64() {
                        Some(f) => self.range_sel(binding, &c.column, f64::NEG_INFINITY, f),
                        None => 0.5,
                    },
                    CmpOp::Gt | CmpOp::Ge => match lit.as_f64() {
                        Some(f) => self.range_sel(binding, &c.column, f, f64::INFINITY),
                        None => 0.5,
                    },
                }
            }
            Expr::In {
                expr,
                list,
                negated,
            } => {
                let Expr::Column(c) = &**expr else { return 0.5 };
                let s: f64 = list
                    .iter()
                    .map(|v| self.eq_sel(binding, &c.column, v))
                    .sum();
                flip(s.min(1.0), *negated)
            }
            Expr::IsNull { expr, negated } => {
                let Expr::Column(c) = &**expr else { return 0.5 };
                let s = stats
                    .column(&c.column)
                    .map_or(0.0, |cs| cs.null_count as f64 / rows);
                flip(s, *negated)
            }
            Expr::Like { negated, .. } => flip(0.25, *negated),
            _ => 0.5,
        }
    }

    fn range_sel(&self, binding: usize, column: &str, lo: f64, hi: f64) -> f64 {
        if let Some((zmin, zmax)) = self.zone_bounds(binding, column) {
            if hi < zmin || lo > zmax {
                return 0.0; // zone maps prove the range empty
            }
        }
        self.stats[binding]
            .column(column)
            .map_or(0.5, |cs| cs.range_selectivity(lo, hi))
    }

    fn eq_sel(&self, binding: usize, column: &str, v: &Value) -> f64 {
        if let (Some(f), Some((zmin, zmax))) = (v.as_f64(), self.zone_bounds(binding, column)) {
            if f < zmin || f > zmax {
                return 0.0;
            }
        }
        let rows = self.stats[binding].row_count as f64;
        let Some(cs) = self.stats[binding].column(column) else {
            return 0.5;
        };
        if let Some((_, cnt)) = cs.top_values.iter().find(|(tv, _)| tv == v) {
            return *cnt as f64 / rows;
        }
        if cs.distinct == 0 {
            0.0
        } else {
            1.0 / cs.distinct as f64
        }
    }
}

/// Greedy cost-based join ordering: start at the binding with the smallest
/// estimated filtered scan, then repeatedly join the binding with the
/// smallest estimated intermediate — preferring bindings *connected* to the
/// joined set by an unused join condition (cartesian products only as a
/// last resort). Ties break toward the lowest binding index, so plan choice
/// is deterministic.
///
/// Returns the order and the estimated intermediate size after each step.
pub fn cost_order(ests: &[f64], conds: &[(usize, usize, f64)]) -> (Vec<usize>, Vec<f64>) {
    let nb = ests.len();
    let mut start = 0usize;
    for (b, &e) in ests.iter().enumerate().skip(1) {
        if e < ests[start] {
            start = b;
        }
    }
    let mut order = vec![start];
    let mut est_join_rows = Vec::with_capacity(nb.saturating_sub(1));
    let mut joined = vec![false; nb];
    joined[start] = true;
    let mut used = vec![false; conds.len()];
    let mut cur = ests[start];
    while order.len() < nb {
        // (connected, est, binding) — connected beats unconnected, then
        // lowest estimate, then lowest binding index (strict `<` below).
        let mut best: Option<(bool, f64, usize)> = None;
        for (b, &scan_est) in ests.iter().enumerate() {
            if joined[b] {
                continue;
            }
            let mut sel = 1.0;
            let mut connected = false;
            for (ci, &(lb, rb, s)) in conds.iter().enumerate() {
                if !used[ci] && ((joined[lb] && rb == b) || (joined[rb] && lb == b)) {
                    connected = true;
                    sel *= s;
                }
            }
            let est = cur * scan_est * sel;
            let wins = match best {
                None => true,
                Some((bc, be, _)) => (connected && !bc) || (connected == bc && est < be),
            };
            if wins {
                best = Some((connected, est, b));
            }
        }
        let (_, est, b) = best.expect("at least one unjoined binding remains");
        joined[b] = true;
        order.push(b);
        cur = est;
        est_join_rows.push(est);
        for (ci, &(lb, rb, _)) in conds.iter().enumerate() {
            if !used[ci] && joined[lb] && joined[rb] {
                used[ci] = true;
            }
        }
    }
    (order, est_join_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::sql::parse;
    use crate::value::ValueType;

    /// fact(10_000 rows) joins dim(100) and tiny(5); a filter on dim leaves
    /// ~3 rows, so the cost-based order must start at dim, not at tiny.
    fn db() -> Database {
        let mut db = Database::new();
        let fact = db
            .create_table(
                "fact",
                Schema::build(&[
                    ("id", ValueType::Int),
                    ("dim_id", ValueType::Int),
                    ("tiny_id", ValueType::Int),
                ]),
            )
            .unwrap();
        for i in 0..10_000i64 {
            fact.push_row(&[Value::Int(i), Value::Int(i % 100), Value::Int(i % 5)])
                .unwrap();
        }
        let dim = db
            .create_table(
                "dim",
                Schema::build(&[("id", ValueType::Int), ("x", ValueType::Int)]),
            )
            .unwrap();
        for i in 0..100i64 {
            dim.push_row(&[Value::Int(i), Value::Int(i)]).unwrap();
        }
        let tiny = db
            .create_table("tiny", Schema::build(&[("id", ValueType::Int)]))
            .unwrap();
        for i in 0..5i64 {
            tiny.push_row(&[Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn reorder_starts_at_most_selective_binding() {
        let db = db();
        let q = parse(
            "SELECT f.id FROM fact AS f, dim AS d, tiny AS y \
             WHERE f.dim_id = d.id AND f.tiny_id = y.id AND d.x < 3",
        )
        .unwrap();
        let plan = plan_query(&db, &q).unwrap();
        // Bindings: f=0, d=1, y=2. The filtered dim scan (~3 rows) beats
        // tiny (5 rows) and starts; fact joins next (connected), tiny last.
        assert_eq!(plan.join_order, vec![1, 0, 2]);
        assert!(plan.est_scan_rows[1] < 5.0);
        assert_eq!(plan.est_join_rows.len(), 2);
        assert_eq!(plan.join_steps(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn connected_bindings_preferred_over_cartesian() {
        // ests: a=10, b=1000, c=2; a-b joined by a selective cond, c isolated.
        // Pure min would pick c second (cartesian); connected-first picks b.
        let (order, _) = cost_order(&[10.0, 1000.0, 2.0], &[(0, 1, 0.001)]);
        assert_eq!(order, vec![2, 0, 1], "start min, then stay connected");

        let (order, _) = cost_order(&[10.0, 1000.0, 2.0], &[]);
        assert_eq!(order, vec![2, 0, 1], "no conds: ascending size");
    }

    #[test]
    fn zone_bounds_prove_empty_ranges() {
        let db = db();
        let q = parse("SELECT d.id FROM dim AS d WHERE d.x > 5000").unwrap();
        assert_eq!(plan_query(&db, &q).unwrap().est_scan_rows, vec![0.0]);
    }

    /// Planning reads statistics once per binding per query, from every
    /// worker sharing the database. Whichever thread builds a table's
    /// statistics first, all of them cost with that one build: a second
    /// build would hand its thread a second `Arc`. (This shows the shared
    /// read path under contention. It cannot force the one interleaving
    /// the second look under the write lock exists for, two misses within
    /// the few nanoseconds between a planner's two locks; that is the
    /// schedule explorer's job, ROADMAP item 3.)
    #[test]
    fn concurrent_planners_share_one_statistics_build() {
        let db = db();
        let q = parse("SELECT f.id FROM fact AS f, dim AS d WHERE f.dim_id = d.id").unwrap();
        let start = std::sync::Barrier::new(8);
        let seen: Vec<Vec<Arc<TableStats>>> = std::thread::scope(|s| {
            let planners: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let bound = bind(&db, &q).unwrap();
                        CostModel::new(&db, &bound).unwrap().stats
                    })
                })
                .collect();
            planners.into_iter().map(|p| p.join().unwrap()).collect()
        });
        for stats in &seen {
            assert_eq!(stats.len(), 2);
            for (mine, first) in stats.iter().zip(&seen[0]) {
                assert!(Arc::ptr_eq(mine, first), "{}", mine.table);
            }
        }
    }
}
