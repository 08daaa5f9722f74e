//! Plan-cache effectiveness on the RL inner loop.
//!
//! Reward evaluation (`score_with_counts`) executes the same templated
//! workload against every candidate approximation set, and candidate
//! subsets share their parent database's plan cache. After the first
//! evaluation warms one entry per query *template* (literals are
//! parameterized out of the cache key), every subsequent execution should
//! hit — the acceptance bar is a > 90% hit rate over a Fig. 2-style sweep,
//! proven from the optimizer's own telemetry counters.

use asqp_core::metric::{score_with_counts, FullCounts, MetricParams};
use asqp_db::sql::parse;
use asqp_db::{Database, Query, Schema, Value, ValueType, Workload};
use asqp_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;

fn build_db() -> Database {
    let mut db = Database::new();
    let fact = db
        .create_table(
            "fact",
            Schema::build(&[
                ("id", ValueType::Int),
                ("region", ValueType::Int),
                ("amount", ValueType::Float),
            ]),
        )
        .unwrap();
    for i in 0..2_000i64 {
        fact.push_row(&[
            Value::Int(i),
            Value::Int(i % 8),
            Value::Float((i % 100) as f64 + 0.5),
        ])
        .unwrap();
    }
    let dim = db
        .create_table(
            "dim",
            Schema::build(&[("id", ValueType::Int), ("label", ValueType::Str)]),
        )
        .unwrap();
    for i in 0..50i64 {
        dim.push_row(&[Value::Int(i), Value::Str(format!("d{}", i % 5))])
            .unwrap();
    }
    db
}

/// The RL workload shape: a handful of query *templates* instantiated with
/// many different literals — exactly what the plan cache parameterizes.
fn templated_workload() -> Workload {
    let mut queries: Vec<Query> = Vec::new();
    for k in 0..12i64 {
        queries.push(
            parse(&format!(
                "SELECT f.id FROM fact AS f WHERE f.region = {}",
                k % 8
            ))
            .unwrap(),
        );
        queries.push(
            parse(&format!(
                "SELECT f.id, f.amount FROM fact AS f WHERE f.amount < {}.5 LIMIT {}",
                10 + 7 * k,
                5 + k
            ))
            .unwrap(),
        );
        queries.push(
            parse(&format!(
                "SELECT f.id FROM fact AS f, dim AS d \
                 WHERE f.region = d.id AND f.id < {}",
                100 + 50 * k
            ))
            .unwrap(),
        );
        queries.push(
            parse(&format!(
                "SELECT f.region, COUNT(*) FROM fact AS f \
                 WHERE f.amount > {}.5 GROUP BY f.region ORDER BY f.region",
                k
            ))
            .unwrap(),
        );
    }
    Workload::uniform(queries)
}

#[test]
fn reward_loop_hit_rate_exceeds_90_percent() {
    let db = build_db();
    let workload = templated_workload();

    // Five candidate approximation sets, as an RL sweep would materialise.
    let subsets: Vec<Database> = (0..5usize)
        .map(|s| {
            let mut selection = BTreeMap::new();
            selection.insert(
                "fact".to_string(),
                (0..2_000).filter(|i| i % (s + 2) == 0).collect::<Vec<_>>(),
            );
            selection.insert("dim".to_string(), (0..50).collect::<Vec<_>>());
            db.subset(&selection).unwrap()
        })
        .collect();

    let rec = Arc::new(telemetry::MemoryRecorder::new());
    let scores = telemetry::scoped(rec.clone(), || {
        let full = FullCounts::compute(&db, &workload).unwrap();
        subsets
            .iter()
            .map(|s| score_with_counts(s, &workload, &full, MetricParams::default()).unwrap())
            .collect::<Vec<_>>()
    });
    assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));

    let report = rec.report();
    let hits = report
        .counters
        .get("db.plan_cache.hit")
        .copied()
        .unwrap_or(0);
    let misses = report
        .counters
        .get("db.plan_cache.miss")
        .copied()
        .unwrap_or(0);
    assert!(
        hits + misses > 0,
        "reward loop must route through the cost-based planner"
    );
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(
        rate > 0.9,
        "plan-cache hit rate {rate:.3} ({hits} hits / {misses} misses) below 90%"
    );
    // One miss per template, not per literal instance or per subset.
    assert_eq!(misses, 4, "misses must equal the number of templates");
}
