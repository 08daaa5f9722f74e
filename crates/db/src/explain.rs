//! Plan printer: renders a [`Plan`] with estimated (and, for `EXPLAIN
//! ANALYZE`, actual) cardinalities.
//!
//! [`explain`] plans the query and prints the plan; [`explain_analyze`]
//! plans it the same way, executes *that plan* and prints it with the trace
//! of that execution. A plan is a function of the database's statistics and
//! the query alone, so both print the plan any execution of the query runs.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::exec::{execute, hardware_threads, ExecTrace};
use crate::expr::Expr;
use crate::optimizer::plan_query;
use crate::plan::{Bound, Output, Plan};
use crate::query::{Query, SelectItem};
use std::fmt::Write as _;

/// Render the plan `query` gets on `db`, without executing it.
pub fn explain(db: &Database, query: &Query) -> DbResult<String> {
    Ok(render(&plan_query(db, query)?, None))
}

/// Plan `query`, execute that plan on every hardware thread, and render it
/// with actual cardinalities next to its estimates.
pub fn explain_analyze(db: &Database, query: &Query) -> DbResult<String> {
    let plan = plan_query(db, query)?;
    let output = execute(&plan, hardware_threads())?;
    let mut out = render(&plan, Some(&output.trace));
    let _ = writeln!(out, "rows returned: {}", output.result.len());
    Ok(out)
}

fn list<T: ToString>(items: impl Iterator<Item = T>, sep: &str) -> String {
    items.map(|i| i.to_string()).collect::<Vec<_>>().join(sep)
}

fn render(plan: &Plan, trace: Option<&ExecTrace>) -> String {
    let bound = &plan.bound;
    let query = bound.query;
    let mut out = String::new();
    let _ = writeln!(out, "QUERY: {}", query.to_sql());
    let _ = writeln!(out, "PLAN (cost-based):");

    // The fixed operator chain above the joins, outermost first.
    let mut chain: Vec<String> = Vec::new();
    chain.extend(query.limit.map(|n| format!("Limit {n}")));
    let sort = (!query.order_by.is_empty()).then(|| {
        let keys = query
            .order_by
            .iter()
            .map(|k| format!("{}{}", k.column, if k.desc { " DESC" } else { "" }));
        format!("Sort [{}]", list(keys, ", "))
    });
    if query.is_aggregate() {
        // Groups are sorted after aggregation; rows before projection.
        chain.extend(sort);
        let aggs = query
            .select
            .iter()
            .filter(|s| matches!(s, SelectItem::Aggregate(_)));
        chain.push(format!(
            "Aggregate [{}] group by [{}]",
            list(aggs, ", "),
            list(query.group_by.iter(), ", ")
        ));
    } else {
        chain.extend(query.distinct.then(|| "Distinct".to_string()));
        chain.push(format!("Project [{}]", list(query.select.iter(), ", ")));
        chain.extend(sort);
    }
    let residual = bound
        .residual
        .iter()
        .map(|(c, _)| c.named.clone())
        .collect();
    chain.extend(Expr::conjunction(residual).map(|p| format!("Filter {p}  [residual]")));
    for (depth, line) in chain.iter().enumerate() {
        let _ = writeln!(out, "{}{line}", "  ".repeat(depth + 1));
    }

    // The left-deep join tree: join step `n` has steps `..n` as its left
    // input and the scan of `join_order[n]` as its right, so the driving
    // scan prints deepest and first.
    let steps = plan.join_steps();
    let cols = referenced_columns(bound);
    let pad = |depth: usize| "  ".repeat(chain.len() + 1 + depth);
    for (depth, (step, conds)) in steps.iter().enumerate().rev().enumerate() {
        let on = if conds.is_empty() {
            "(cartesian)".to_string()
        } else {
            let conds = conds.iter().map(|&j| &bound.joins[j].cond);
            format!("ON {}", list(conds, " AND "))
        };
        let actual = trace.and_then(|t| t.join_rows.get(step));
        let est = card(plan.est_join_rows.get(step), "", actual);
        let _ = writeln!(out, "{}Join {on}  ({est})", pad(depth));
    }
    for (i, &b) in plan.join_order.iter().enumerate() {
        let binding = &bound.layout.bindings[b];
        let name = match binding.table.name() {
            table if table == binding.name => table.to_string(),
            table => format!("{table} AS {}", binding.name),
        };
        // A binding the execution probed through its join index prints as
        // `Index probe`, with the matches the index returned.
        let probed = trace.and_then(|t| t.probed.get(b).copied().flatten());
        let candidates = probed.map_or(String::new(), |n| format!(", candidates {n}"));
        let actual = trace.and_then(|t| t.scan_rows.get(b));
        let est = card(plan.est_scan_rows.get(b), &candidates, actual);
        let access = ["Scan", "Index probe"][usize::from(probed.is_some())];
        // Scan `i` hangs under join step `i - 1`; the first two are siblings.
        let depth = steps.len() - i.saturating_sub(1);
        let _ = write!(out, "{}{access} {name}  ({est})", pad(depth));
        if !bound.pushed[b].is_empty() {
            let filters = bound.pushed[b].iter().map(|f| &f.named);
            let _ = write!(out, "  [pushed: {}]", list(filters, " AND "));
        }
        if let Some(needed) = &cols {
            let columns = binding.table.schema().columns().iter();
            let read = columns
                .zip(&needed[binding.offset..])
                .filter(|(_, &n)| n)
                .map(|(c, _)| &c.name);
            let _ = write!(out, "  [cols: {}]", list(read, ", "));
        }
        if let Some(n) = plan.scan_limit {
            let _ = write!(out, "  [limit {n}]");
        }
        let _ = writeln!(out);
    }
    out
}

/// Which flat slots the query reads anywhere — output, filters, join keys —
/// or `None` under `SELECT *` (nothing to prune).
fn referenced_columns(bound: &Bound) -> Option<Vec<bool>> {
    let layout = &bound.layout;
    let mut slots: Vec<usize> = Vec::new();
    match &bound.output {
        Output::Rows { proj, order, .. } => {
            if bound.query.select.contains(&SelectItem::Star) {
                return None;
            }
            slots.extend(proj);
            slots.extend(order.iter().map(|&(s, _)| s));
        }
        Output::Groups(g) => {
            slots.extend(&g.keys);
            slots.extend(g.aggs.iter().filter_map(|&(_, arg)| arg));
        }
    }
    for (b, pushed) in layout.bindings.iter().zip(&bound.pushed) {
        for c in pushed {
            slots.extend(c.bound.slots().iter().map(|s| b.offset + s));
        }
    }
    for (c, _) in &bound.residual {
        slots.extend(c.bound.slots());
    }
    slots.extend(bound.joins.iter().flat_map(|j| [j.left_slot, j.right_slot]));
    let mut needed = vec![false; layout.total_slots()];
    for s in slots {
        needed[s] = true;
    }
    Some(needed)
}

/// `est ~N rows`, then `extra`, then `, actual M` when an execution trace
/// exists.
fn card(est: Option<&f64>, extra: &str, actual: Option<&usize>) -> String {
    let mut s = match est {
        Some(e) => format!("est ~{} rows{extra}", e.round().max(0.0) as u64),
        None => format!("est ? rows{extra}"),
    };
    if let Some(a) = actual {
        let _ = write!(s, ", actual {a}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
    use crate::{Schema, Value, ValueType};

    fn db() -> Database {
        let mut db = Database::new();
        let big = db
            .create_table(
                "big",
                Schema::build(&[("id", ValueType::Int), ("x", ValueType::Int)]),
            )
            .unwrap();
        for i in 0..1000 {
            big.push_row(&[Value::Int(i), Value::Int(i % 100)]).unwrap();
        }
        let small = db
            .create_table("small", Schema::build(&[("id", ValueType::Int)]))
            .unwrap();
        for i in 0..10 {
            small.push_row(&[Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn explains_join_order_smallest_first() {
        let db = db();
        let q = parse("SELECT * FROM big b, small s WHERE b.id = s.id").unwrap();
        let plan = explain(&db, &q).unwrap();
        // The driving (first-joined) scan is the deepest *left* leaf, so the
        // cheap side prints before the big side in the rendered tree.
        let small_at = plan.find("Scan small AS s").expect("small scan shown");
        let big_at = plan.find("Scan big AS b").expect("big scan shown");
        assert!(small_at < big_at, "small side drives the join:\n{plan}");
        assert!(plan.contains("Join ON b.id = s.id"), "{plan}");
    }

    #[test]
    fn selectivity_shown_for_pushed_filters() {
        let db = db();
        let q = parse("SELECT b.id FROM big b WHERE b.x BETWEEN 0 AND 9").unwrap();
        let plan = explain(&db, &q).unwrap();
        // ~10% of 1000 rows.
        let est: usize = plan
            .split('~')
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(
            (60..=160).contains(&est),
            "estimate {est} out of range\n{plan}"
        );
        assert!(plan.contains("[pushed:"), "{plan}");
        assert!(plan.contains("[cols: id, x]"), "pruned column set:\n{plan}");
    }

    #[test]
    fn aggregate_sort_and_limit_nodes() {
        let db = db();
        let q = parse("SELECT b.x, COUNT(*) FROM big b GROUP BY b.x ORDER BY b.x LIMIT 5").unwrap();
        let plan = explain(&db, &q).unwrap();
        assert!(plan.contains("Aggregate"), "{plan}");
        assert!(plan.contains("Limit 5"), "{plan}");
        assert!(plan.contains("Sort [b.x]"), "{plan}");
    }

    #[test]
    fn analyze_reports_estimated_and_actual() {
        let db = db();
        let q = parse("SELECT b.id FROM big b, small s WHERE b.id = s.id AND b.x < 50").unwrap();
        let plan = explain_analyze(&db, &q).unwrap();
        assert!(plan.contains("actual"), "{plan}");
        assert!(plan.contains("rows returned:"), "{plan}");
        // Scan actuals are attached per binding: small is unfiltered.
        assert!(plan.contains("actual 10"), "{plan}");
    }

    #[test]
    fn limit_pushdown_annotated() {
        let db = db();
        let q = parse("SELECT b.id FROM big b WHERE b.x >= 0 LIMIT 3").unwrap();
        let plan = explain(&db, &q).unwrap();
        assert!(plan.contains("[limit 3]"), "scan-level limit:\n{plan}");
    }
}
