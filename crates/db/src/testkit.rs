//! Test support shared by this crate's unit tests, integration tests,
//! example and benches: the reference executor every oracle compares the
//! engine against, and the star-schema fixture the EXPLAIN goldens print.

use crate::catalog::Database;
use crate::error::DbResult;
use crate::exec::{aggregate, ExecTrace, QueryOutput, ResultSet, Rows};
use crate::expr::Expr;
use crate::plan::{bind, Output};
use crate::query::Query;
use crate::schema::Schema;
use crate::value::{Row, Value, ValueType};
use std::collections::HashSet;

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
