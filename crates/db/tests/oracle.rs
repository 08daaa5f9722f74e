//! The executor oracle: on random databases and random queries, the engine
//! must return exactly what the reference executor
//! ([`asqp_db::testkit::reference`]) returns when it nests its loops in the
//! join order the engine reports — same columns, same rows in the same
//! order, same lineage, LIMIT included — whatever the shard count,
//! whether or not another literal instantiation of the same template ran
//! on the database first, and whether the caller asked for lineage
//! (`execute_with_lineage`), only for rows (`execute`) or only for their
//! number (`cached_row_count`, which leaves the executor before the output
//! stage).
//!
//! Two query generators feed it: a typed one over random schemas that
//! spans every scan-kernel class plus the generic fallback (this file), and
//! the canonical-AST generator of the SQL round-trip suite
//! (`common::gen_query_upto`) over a fixed fixture, which adds aggregates,
//! OR/NOT trees and missing join conditions. Fixed pushdown-adversarial
//! shapes follow.

mod common;

use asqp_db::testkit::reference;
use asqp_db::{
    exec, plan_query, ColRef, Database, Expr, JoinCond, OrderKey, Query, QueryOutput, Schema,
    SelectItem, TableRef, Value, ValueType,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Another instantiation of `q`'s template: every literal moved within its
/// type (BETWEEN bounds keep their order), and the LIMIT too.
fn other_literals(q: &Query) -> Query {
    fn moved(v: &Value) -> Value {
        match v {
            Value::Int(i) => Value::Int(i + 7),
            Value::Float(f) => Value::Float(f + 3.5),
            Value::Str(s) => Value::from(format!("{s}a")),
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
        }
    }
    fn rewrite(e: &Expr) -> Expr {
        match e {
            Expr::Literal(v) => Expr::Literal(moved(v)),
            Expr::In {
                expr,
                list,
                negated,
            } => Expr::In {
                expr: Box::new(rewrite(expr)),
                list: list.iter().map(moved).collect(),
                negated: *negated,
            },
            other => other
                .map_children(&mut |c| Ok::<_, Infallible>(rewrite(c)))
                .unwrap_or_else(|never| match never {}),
        }
    }
    Query {
        predicate: q.predicate.as_ref().map(rewrite),
        limit: q.limit.map(|n| n + 3),
        ..q.clone()
    }
}

/// The whole contract on one (db, query) pair. Returns the engine's output.
fn check(db: &Database, q: &Query) -> QueryOutput {
    let sql = q.to_sql();
    let run = |shards| exec::execute(&plan_query(db, q).expect(&sql), shards).expect(&sql);
    let first = run(4);
    db.execute(&other_literals(q)).expect(&sql);
    let again = run(1);
    assert_eq!(first.trace.join_order, again.trace.join_order, "{sql}");
    // Both runs equal the reference bit for bit, hence each other: sharding
    // and what the database executed in between change nothing.
    let want = reference(db, q, &first.trace.join_order).expect(&sql);
    // So do the catalog's two entry points at the default shard count: the
    // rows-only one runs the same executor and skips only the lineage.
    let with_lineage = db.execute_with_lineage(q).expect(&sql);
    for got in [&first, &again, &with_lineage] {
        assert_eq!(got.result, want.result, "{sql}");
        assert_eq!(got.lineage, want.lineage, "lineage: {sql}");
    }
    // The engine gathers its columns, the reference pushes `Value` rows:
    // both hash and print alike.
    let hash = |out: &QueryOutput| {
        let mut h = DefaultHasher::new();
        out.result.rows.hash(&mut h);
        h.finish()
    };
    assert_eq!(hash(&first), hash(&want), "hash: {sql}");
    let debug = |out: &QueryOutput| format!("{:?}", out.result.rows);
    assert_eq!(debug(&first), debug(&want), "debug: {sql}");
    assert_eq!(db.execute(q).expect(&sql), want.result, "rows only: {sql}");
    // Nothing here counts on `db`, so a clone's cardinality cache is empty
    // and the count is computed, not remembered.
    let count = db.clone().cached_row_count(q).expect(&sql);
    assert_eq!(count, want.result.len(), "count only: {sql}");
    first
}

const STR_POOL: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "", "50% off", "a_b", "Amélie",
];
const LIKE_PATTERNS: &[&str] = &[
    "%a%", "a%", "%ta", "_e%", "%", "ga__a", "%z%", "50%", "%é%", "_b%",
];

/// Ints a float cannot hold and the ends of `i64`, drawn at a small rate.
const EDGE_INTS: [i64; 6] = [
    (1 << 53) + 1,
    (1 << 53) - 1,
    -(1 << 53) - 1,
    -(1 << 53) + 1,
    i64::MIN,
    i64::MAX,
];

fn random_value(rng: &mut StdRng, ty: ValueType) -> Value {
    if rng.random_bool(0.12) {
        return Value::Null;
    }
    let edge = rng.random_bool(0.04);
    match ty {
        ValueType::Int if edge => Value::Int(EDGE_INTS[rng.random_range(0..EDGE_INTS.len())]),
        ValueType::Int => Value::Int(rng.random_range(-20i64..50)),
        // NaN equals nothing, not even NaN; -0.0 equals 0.0.
        ValueType::Float if edge => {
            Value::Float(if rng.random_bool(0.5) { f64::NAN } else { -0.0 })
        }
        // Quantized floats so equality predicates and joins actually hit.
        ValueType::Float => Value::Float(rng.random_range(-10i64..10) as f64 * 0.5),
        ValueType::Str => Value::from(STR_POOL[rng.random_range(0..STR_POOL.len())]),
        ValueType::Bool => Value::Bool(rng.random_bool(0.5)),
    }
}

/// A table with a joinable dense-ish `id` column plus 2–4 random columns.
fn add_random_table(db: &mut Database, rng: &mut StdRng, name: &str, rows: usize) {
    let ntypes = [
        ValueType::Int,
        ValueType::Float,
        ValueType::Str,
        ValueType::Bool,
    ];
    let extra = rng.random_range(2usize..=4);
    let names: Vec<String> = (0..extra).map(|i| format!("c{i}")).collect();
    let mut cols: Vec<(&str, ValueType)> = vec![("id", ValueType::Int)];
    let tys: Vec<ValueType> = (0..extra)
        .map(|_| ntypes[rng.random_range(0..ntypes.len())])
        .collect();
    for (n, t) in names.iter().zip(&tys) {
        cols.push((n.as_str(), *t));
    }
    let t = db.create_table(name, Schema::build(&cols)).unwrap();
    for _ in 0..rows {
        t.push_row(&random_row(rng, t.schema(), rows)).unwrap();
    }
}

/// A row for `schema`, whose first column is the `id` of a table of about
/// `rows` rows (ids in `0..rows / 2`).
fn random_row(rng: &mut StdRng, schema: &Schema, rows: usize) -> Vec<Value> {
    let mut row = vec![Value::Int(rng.random_range(0..(rows as i64 / 2).max(1)))];
    for c in &schema.columns()[1..] {
        row.push(random_value(rng, c.ty));
    }
    row
}

/// One random single-column (occasionally multi-column) conjunct over a
/// binding, spanning every kernel class plus the generic fallback.
fn random_conjunct(rng: &mut StdRng, binding: &str, cols: &[(String, ValueType)]) -> Expr {
    let (name, ty) = &cols[rng.random_range(0..cols.len())];
    let col = || Expr::Column(ColRef::new(binding, name.clone()));
    let cmp_ops = [
        asqp_db::CmpOp::Eq,
        asqp_db::CmpOp::Ne,
        asqp_db::CmpOp::Lt,
        asqp_db::CmpOp::Le,
        asqp_db::CmpOp::Gt,
        asqp_db::CmpOp::Ge,
    ];
    let op = cmp_ops[rng.random_range(0..cmp_ops.len())];
    match ty {
        ValueType::Int | ValueType::Float => {
            let lit = |rng: &mut StdRng| {
                if rng.random_bool(0.5) {
                    Value::Int(rng.random_range(-25i64..55))
                } else {
                    Value::Float(rng.random_range(-12i64..12) as f64 * 0.5)
                }
            };
            match rng.random_range(0u8..6) {
                0 => Expr::cmp(op, col(), Expr::Literal(lit(rng))),
                // Flipped operand order exercises CmpOp::flip in the compiler.
                1 => Expr::cmp(op, Expr::Literal(lit(rng)), col()),
                2 => {
                    let a = rng.random_range(-20i64..40);
                    let b = a + rng.random_range(0i64..25);
                    Expr::Between {
                        expr: Box::new(col()),
                        low: Box::new(Expr::lit(a)),
                        high: Box::new(Expr::lit(b)),
                        negated: rng.random_bool(0.3),
                    }
                }
                3 => {
                    let n = rng.random_range(1usize..4);
                    let mut list: Vec<Value> = (0..n).map(|_| lit(rng)).collect();
                    if rng.random_bool(0.15) {
                        list.push(Value::Null);
                    }
                    Expr::In {
                        expr: Box::new(col()),
                        list,
                        negated: rng.random_bool(0.3),
                    }
                }
                4 => Expr::IsNull {
                    expr: Box::new(col()),
                    negated: rng.random_bool(0.5),
                },
                // Arithmetic forces the generic (narrow-fetch) fallback.
                _ => Expr::cmp(
                    op,
                    Expr::Arith {
                        op: asqp_db::ArithOp::Add,
                        lhs: Box::new(col()),
                        rhs: Box::new(Expr::lit(1)),
                    },
                    Expr::Literal(lit(rng)),
                ),
            }
        }
        ValueType::Str => {
            let pool_lit = |rng: &mut StdRng| {
                if rng.random_bool(0.15) {
                    Value::Str("omega".into()) // never in the dictionary
                } else {
                    Value::Str(STR_POOL[rng.random_range(0..STR_POOL.len())].into())
                }
            };
            match rng.random_range(0u8..4) {
                0 => Expr::cmp(op, col(), Expr::Literal(pool_lit(rng))),
                1 => Expr::Like {
                    expr: Box::new(col()),
                    pattern: LIKE_PATTERNS[rng.random_range(0..LIKE_PATTERNS.len())].into(),
                    negated: rng.random_bool(0.3),
                },
                2 => {
                    let n = rng.random_range(1usize..4);
                    Expr::In {
                        expr: Box::new(col()),
                        list: (0..n).map(|_| pool_lit(rng)).collect(),
                        negated: rng.random_bool(0.3),
                    }
                }
                _ => Expr::IsNull {
                    expr: Box::new(col()),
                    negated: rng.random_bool(0.5),
                },
            }
        }
        ValueType::Bool => match rng.random_range(0u8..3) {
            0 => Expr::eq(col(), Expr::lit(rng.random_bool(0.5))),
            1 => Expr::cmp(asqp_db::CmpOp::Ne, col(), Expr::lit(rng.random_bool(0.5))),
            _ => Expr::IsNull {
                expr: Box::new(col()),
                negated: rng.random_bool(0.5),
            },
        },
    }
}

fn column_list(db: &Database, table: &str) -> Vec<(String, ValueType)> {
    db.table(table)
        .unwrap()
        .schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect()
}

/// An equi-join condition between bindings `l` and `r`: the `id` = `id`
/// link that keeps cardinalities useful, or a column of one type class on
/// each side — numeric (Int = Float included), string, boolean — or any
/// column against any. A side without a column of the class offers any of
/// its columns, so mismatched-type keys (which join nothing) come up too,
/// and every non-`id` column holds NULLs.
fn random_link(
    rng: &mut StdRng,
    cols: &[Vec<(String, ValueType)>],
    l: usize,
    r: usize,
) -> JoinCond {
    let class: fn(ValueType) -> bool = match rng.random_range(0u8..10) {
        0..=3 => {
            return JoinCond::new(
                ColRef::new(format!("a{l}"), "id"),
                ColRef::new(format!("a{r}"), "id"),
            )
        }
        4..=5 => |t| matches!(t, ValueType::Int | ValueType::Float),
        6..=7 => |t| t == ValueType::Str,
        8 => |t| t == ValueType::Bool,
        _ => |_| true,
    };
    let mut side = |b: usize| {
        let of_class: Vec<&String> = cols[b]
            .iter()
            .filter(|(_, t)| class(*t))
            .map(|(n, _)| n)
            .collect();
        let name = if of_class.is_empty() {
            &cols[b][rng.random_range(0..cols[b].len())].0
        } else {
            of_class[rng.random_range(0..of_class.len())]
        };
        ColRef::new(format!("a{b}"), name.clone())
    };
    JoinCond::new(side(l), side(r))
}

/// Build a random SPJ query over `ntables` aliased bindings.
fn random_query(rng: &mut StdRng, db: &Database, ntables: usize) -> Query {
    let from: Vec<TableRef> = (0..ntables)
        .map(|i| TableRef::aliased(format!("t{i}"), format!("a{i}")))
        .collect();
    let cols: Vec<Vec<(String, ValueType)>> = (0..ntables)
        .map(|i| column_list(db, &format!("t{i}")))
        .collect();

    // Chain equi-joins; sometimes add an extra condition (multi-column
    // link) or a same-binding condition (pushed filter).
    let mut joins = Vec::new();
    for i in 1..ntables {
        joins.push(random_link(rng, &cols, i - 1, i));
    }
    if ntables == 3 && rng.random_bool(0.3) {
        joins.push(random_link(rng, &cols, 0, 2));
    }
    if rng.random_bool(0.1) {
        joins.push(JoinCond::new(
            ColRef::new("a0", "id"),
            ColRef::new("a0", "id"),
        ));
    }

    let nconj = rng.random_range(0usize..=3);
    let mut conjs: Vec<Expr> = (0..nconj)
        .map(|_| {
            let b = rng.random_range(0..ntables);
            random_conjunct(rng, &format!("a{b}"), &cols[b])
        })
        .collect();
    // Filters on two bindings at once, so that a filtered start often
    // feeds a filtered binding few enough tuples for it to be probed
    // through its join index and then filtered, not only scanned or
    // probed bare.
    if ntables > 1 && rng.random_bool(0.5) {
        for b in [0, rng.random_range(1..ntables)] {
            conjs.push(random_conjunct(rng, &format!("a{b}"), &cols[b]));
        }
    }

    let select = if rng.random_bool(0.5) {
        vec![SelectItem::Star]
    } else {
        (0..rng.random_range(1usize..=3))
            .map(|_| {
                let b = rng.random_range(0..ntables);
                let (n, _) = &cols[b][rng.random_range(0..cols[b].len())];
                SelectItem::Column(ColRef::new(format!("a{b}"), n.clone()))
            })
            .collect()
    };

    let order_by = if rng.random_bool(0.3) {
        (0..rng.random_range(1usize..=2))
            .map(|_| {
                let b = rng.random_range(0..ntables);
                let (n, _) = &cols[b][rng.random_range(0..cols[b].len())];
                OrderKey {
                    column: ColRef::new(format!("a{b}"), n.clone()),
                    desc: rng.random_bool(0.5),
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    Query {
        select,
        distinct: rng.random_bool(0.25),
        from,
        joins,
        predicate: Expr::conjunction(conjs),
        group_by: Vec::new(),
        order_by,
        limit: if rng.random_bool(0.2) {
            Some(rng.random_range(0usize..30))
        } else {
            None
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single tables large enough to span several morsels, so zone pruning,
    /// chunk boundaries and sharding all engage.
    #[test]
    fn single_table_scans_agree(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        let rows = rng.random_range(0usize..2600);
        add_random_table(&mut db, &mut rng, "t0", rows);
        for _ in 0..3 {
            let q = random_query(&mut rng, &db, 1);
            check(&db, &q);
        }
    }

    /// Multi-table joins (hash + occasional cartesian residue).
    #[test]
    fn join_pipelines_agree(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, ntables) = random_join_db(&mut rng);
        for _ in 0..2 {
            let q = random_query(&mut rng, &db, ntables);
            check(&db, &q);
        }
    }
}

/// Two or three random tables `t0`, `t1`, … of 5–44 rows each.
fn random_join_db(rng: &mut StdRng) -> (Database, usize) {
    let ntables = rng.random_range(2usize..=3);
    let mut db = Database::new();
    for i in 0..ntables {
        let rows = rng.random_range(5usize..45);
        add_random_table(&mut db, rng, &format!("t{i}"), rows);
    }
    (db, ntables)
}

/// How each binding after the first was reached in `out`: 0 probed through
/// its join index with nothing to filter, 1 probed and then filtered, 2
/// scanned (and built on, or crossed).
fn access_paths(db: &Database, q: &Query, out: &QueryOutput) -> Vec<usize> {
    let plan = plan_query(db, q).unwrap();
    let later = out.trace.join_order[1..].iter();
    later
        .map(|&b| match out.trace.probed[b] {
            Some(_) if plan.bound.pushed[b].is_empty() => 0,
            Some(_) => 1,
            None => 2,
        })
        .collect()
}

/// The random join queries draw every access path of a later binding, each
/// checked against the reference.
#[test]
fn random_joins_draw_every_access_path() {
    let mut drawn = [0usize; 3];
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, ntables) = random_join_db(&mut rng);
        for _ in 0..2 {
            let q = random_query(&mut rng, &db, ntables);
            for path in access_paths(&db, &q, &check(&db, &q)) {
                drawn[path] += 1;
            }
        }
    }
    assert!(drawn.iter().all(|&n| n >= 20), "{drawn:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A join index never outlives the rows it indexes: between two runs of
    /// one join query a bound table grows by a few rows or has one row
    /// overwritten, and both runs equal the reference, on the mutated
    /// database and on a clone taken before the change, which shares the
    /// indexes the first run built.
    #[test]
    fn join_indexes_follow_appends_and_updates(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut db, ntables) = random_join_db(&mut rng);
        let q = random_query(&mut rng, &db, ntables);
        check(&db, &q);
        for _ in 0..3 {
            let before = db.clone();
            let name = format!("t{}", rng.random_range(0..ntables));
            let t = db.table(&name).unwrap();
            let (schema, n) = (t.schema().clone(), t.row_count());
            if rng.random_bool(0.5) {
                let rows: Vec<Vec<Value>> = (0..rng.random_range(1..6))
                    .map(|_| random_row(&mut rng, &schema, n))
                    .collect();
                db.append_rows(&name, &rows).unwrap();
            } else {
                let row = random_row(&mut rng, &schema, n);
                db.update_rows(&name, &[(rng.random_range(0..n), row)]).unwrap();
            }
            check(&db, &q);
            check(&before, &q);
        }
    }

    /// After random appends to random tables a count carried across them
    /// (`db.count_cache.appended`, planned from the appended rows) is the
    /// number of rows the query returns.
    #[test]
    fn appended_counts_equal_row_counts(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut db, ntables) = random_join_db(&mut rng);
        let queries: Vec<Query> = (0..4)
            .map(|i| {
                let q = random_query(&mut rng, &db, ntables);
                // Half are counted by adding what an append added.
                Query { distinct: q.distinct && i % 2 == 0, limit: q.limit.filter(|_| i % 2 == 0), ..q }
            })
            .collect();
        for round in 0..4 {
            for q in &queries {
                let want = db.execute(q).unwrap().rows.len();
                prop_assert_eq!(db.cached_row_count(q).unwrap(), want, "{} (round {})", q.to_sql(), round);
            }
            let name = format!("t{}", rng.random_range(0..ntables));
            let t = db.table(&name).unwrap();
            let (schema, n) = (t.schema().clone(), t.row_count());
            let rows: Vec<Vec<Value>> = (0..rng.random_range(1..8))
                .map(|_| random_row(&mut rng, &schema, n))
                .collect();
            db.append_rows(&name, &rows).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Canonical-AST queries over the fixture: up to three bindings, joins
    /// present or missing, OR/NOT trees, aggregates, ORDER BY, LIMIT.
    #[test]
    fn canonical_queries_agree(seed in any::<u64>()) {
        let db = common::fixture_db();
        let mut rng = StdRng::seed_from_u64(seed);
        check(&db, &common::gen_query_upto(&mut rng, 3));
    }
}

/// Deterministic spot-check: a selective range over a clustered column must
/// prune most chunks yet return exactly the reference answer.
#[test]
fn zone_pruning_preserves_results() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t0",
            Schema::build(&[("id", ValueType::Int), ("c0", ValueType::Int)]),
        )
        .unwrap();
    for i in 0..10_000i64 {
        t.push_row(&[Value::Int(i), Value::Int(i % 97)]).unwrap();
    }
    let q =
        asqp_db::sql::parse("SELECT a.id FROM t0 a WHERE a.id BETWEEN 4000 AND 4100 AND a.c0 < 50")
            .unwrap();
    assert!(!check(&db, &q).result.is_empty());
}

// --- Fixed pushdown-adversarial shapes ----------------------------------

fn check_sql(db: &Database, sql: &str) -> QueryOutput {
    check(db, &asqp_db::sql::parse(sql).unwrap())
}

/// Cross-binding comparison in WHERE stays a residual filter above the join;
/// pushing it into either scan would drop rows.
#[test]
fn cross_binding_residual_filter_survives() {
    let got = check_sql(
        &common::fixture_db(),
        "SELECT t.id, p.year FROM title AS t, person AS p \
         WHERE t.id = p.id AND t.year < p.year",
    );
    assert!(!got.result.is_empty(), "fixture must exercise the residual");
}

/// LIMIT under ORDER BY must not truncate the scan: the top-k by sort key,
/// ties included, has to match the reference exactly.
#[test]
fn limit_under_order_by_sorts_before_truncating() {
    let db = common::fixture_db();
    let got = check_sql(
        &db,
        "SELECT t.year FROM title AS t ORDER BY t.year DESC LIMIT 5",
    );
    assert_eq!(got.result.len(), 5);
    assert_eq!(got.trace.scan_rows, [120], "the scan is not cut short");
}

/// LIMIT above DISTINCT counts distinct rows, not scanned rows.
#[test]
fn limit_above_distinct_counts_distinct_rows() {
    let db = common::fixture_db();
    let all = check_sql(&db, "SELECT DISTINCT t.kind FROM title AS t");
    let got = check_sql(&db, "SELECT DISTINCT t.kind FROM title AS t LIMIT 2");
    assert_eq!(got.result.rows.to_vecs(), all.result.rows.to_vecs()[..2]);
}

#[test]
fn aggregate_over_join_matches_reference() {
    let got = check_sql(
        &common::fixture_db(),
        "SELECT t.kind, COUNT(*), AVG(t.score) FROM title AS t, movie_cast AS mc \
         WHERE t.id = mc.id GROUP BY t.kind ORDER BY t.kind",
    );
    assert!(got.result.len() > 1);
}

/// Single-binding LIMIT pushdown truncates the scan without changing the
/// answer: scan order is table order, which is the reference's order.
#[test]
fn single_table_limit_pushdown_is_exact() {
    let db = common::fixture_db();
    let got = check_sql(
        &db,
        "SELECT t.id FROM title AS t WHERE t.year > 100 LIMIT 4",
    );
    assert_eq!(got.trace.scan_rows, [4], "the scan stopped at the limit");
}

/// NULL semantics under negation: `NOT (x < k)` must not resurrect NULL
/// rows.
#[test]
fn negated_predicates_keep_null_semantics() {
    let db = common::fixture_db();
    let got = check_sql(&db, "SELECT t.id FROM title AS t WHERE NOT (t.year < 250)");
    let nulls = check_sql(&db, "SELECT t.id FROM title AS t WHERE t.year IS NULL");
    let rest = check_sql(&db, "SELECT t.id FROM title AS t WHERE t.year < 250");
    assert!(!nulls.result.is_empty(), "fixture must have NULL years");
    assert_eq!(
        got.result.len() + rest.result.len() + nulls.result.len(),
        120
    );
}

/// Every key kind probed by several shards. Probes stay sequential under
/// 4 096 tuples, more than two of the random tables above can join into, so
/// this builds the tuples on purpose: `a` (the smallest scan, where the plan
/// starts) joins `b` on a two-valued key into 4 750 tuples, which then
/// probe `c` on a string key, an Int = Float key, both at once, and a
/// string-vs-int key.
#[test]
fn sharded_probes_agree_on_every_key_kind() {
    let mut db = Database::new();
    let abc = [("a", 95i64), ("b", 100), ("c", 110)];
    for (name, rows) in abc {
        let t = db
            .create_table(
                name,
                Schema::build(&[
                    ("id", ValueType::Int),
                    ("g", ValueType::Int),
                    ("s", ValueType::Str),
                    ("f", ValueType::Float),
                ]),
            )
            .unwrap();
        for i in 0..rows {
            let s = if i % 9 == 4 {
                Value::Null
            } else {
                Value::from(format!("s{}", (i * 7) % 120))
            };
            t.push_row(&[Value::Int(i), Value::Int(i % 2), s, Value::Float(i as f64)])
                .unwrap();
        }
    }
    for (last_link, joins_something) in [
        ("b.s = c.s", true),
        ("b.id = c.f", true),
        ("b.s = c.s AND b.id = c.f", true),
        ("b.s = c.id", false),
    ] {
        let got = check_sql(
            &db,
            &format!("SELECT a.id, b.s, c.id FROM a, b, c WHERE a.g = b.g AND {last_link}"),
        );
        assert_eq!(got.trace.join_order, [0, 1, 2], "{last_link}");
        assert_eq!(got.trace.join_rows[0], 4750, "{last_link}");
        assert_eq!(!got.result.is_empty(), joins_something, "{last_link}");
    }
}

/// Strings across dictionaries that disagree (ROADMAP item 2). `s` is a
/// reversed every-other-row `Table::subset` of `t` under its own name, so it
/// holds `t`'s strings under other codes; an append gives `s` entries `t`
/// lacks; overwrites leave `t` entries no row uses and its own allocation of
/// a text `s` holds too. The engine joins on codes and must still agree with
/// the reference, which compares text.
#[test]
fn strings_across_rebuilt_dictionaries() {
    use std::hash::{BuildHasher, RandomState};
    let schema = || Schema::build(&[("id", ValueType::Int), ("s", ValueType::Str)]);
    let text_at = |v: &Value| v.as_str().map(str::as_ptr);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        let n = rng.random_range(24usize..60);
        let t = db.create_table("t", schema()).unwrap();
        for i in 0..n {
            let s = random_value(&mut rng, ValueType::Str);
            t.push_row(&[Value::Int(i as i64), s]).unwrap();
        }
        let ids: Vec<usize> = (0..n).rev().step_by(2).collect();
        let cut = t.subset(&ids).unwrap();
        let mut rows: Vec<_> = cut.row_ids().map(|i| cut.row(i)).collect();
        for (row, &rid) in rows.iter().zip(&ids) {
            assert_eq!(text_at(&row[1]), text_at(&t.value(rid, 1)), "shared");
        }
        rows.push(vec![Value::Int(-1), "omega".into()]);
        rows.push(vec![Value::Int(-2), "alpha".into()]);
        let s = db.create_table("s", schema()).unwrap();
        s.append_rows(&rows).unwrap();
        let in_s = s.value(ids.len(), 1);
        for text in ["stale", "omega"] {
            let row = vec![Value::Int(0), text.into()];
            db.update_rows("t", &[(0, row), (1, vec![Value::Int(1), Value::Null])])
                .unwrap();
        }
        let in_t = db.table("t").unwrap().value(0, 1);
        assert_ne!(text_at(&in_t), text_at(&in_s), "two allocations");
        assert!(in_t == in_s && in_t.sql_cmp(&in_s).is_some_and(|o| o.is_eq()));
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&in_t), hasher.hash_one(&in_s));
        for sql in [
            "SELECT t.id, s.id FROM t, s WHERE t.s = s.s",
            "SELECT DISTINCT t.s FROM t, s WHERE t.s = s.s AND s.s >= 'beta' ORDER BY t.s DESC",
            "SELECT s.id, t.s FROM s, t WHERE s.s = t.s AND t.s LIKE '%a%' LIMIT 7",
            "SELECT s.s, COUNT(*), MAX(t.s) FROM s, t WHERE s.s = t.s \
             AND t.s IN ('omega', 'stale', 'alpha', '') GROUP BY s.s",
            "SELECT t.id FROM t WHERE t.s = 'stale' OR t.s = 'omega'",
        ] {
            check_sql(&db, sql);
        }
    }
}

/// Ints beyond ±2⁵³ against float literals and a float column compare
/// exactly in every scan kernel, in zone pruning, in an int-to-float join
/// and in the reference executor: `2⁵³ + 1` is not `2⁵³` as a float.
#[test]
fn ints_beyond_two_to_the_53_against_floats_are_exact() {
    let p53 = 1i64 << 53;
    let mut db = Database::new();
    let schema = [
        ("id", ValueType::Int),
        ("x", ValueType::Int),
        ("f", ValueType::Float),
    ];
    let t = db.create_table("t", Schema::build(&schema)).unwrap();
    // `f` is `x` rounded to a float: exact in rows 0, 1, 4 and 5.
    let xs = [p53 - 1, p53, p53 + 1, -p53 - 1, -p53, -p53 + 1];
    for (id, x) in (0..).zip(xs) {
        let row = [Value::Int(id), Value::Int(x), Value::Float(x as f64)];
        t.push_row(&row).unwrap();
    }
    let big = "9007199254740992.0";
    for (pred, rows) in [
        (format!("t.x = {big}"), 1),
        (format!("t.x > {big}"), 1),
        (format!("{big} <= t.x"), 2),
        (format!("t.x < -{big}"), 1),
        (format!("t.x BETWEEN {big} AND 9007199254740994.0"), 2),
        (format!("t.x NOT BETWEEN -{big} AND {big}"), 2),
        (format!("t.x IN ({big}, -{big})"), 2),
        (format!("t.x NOT IN ({big}, -{big})"), 4),
        ("t.x = t.f".into(), 4),
        ("t.f = 9007199254740993".into(), 0),
        ("t.f < 9007199254740993".into(), 6),
        ("t.f IN (9007199254740993, 9007199254740991)".into(), 1),
        (
            "t.f BETWEEN -9007199254740993 AND -9007199254740991".into(),
            3,
        ),
    ] {
        let got = check_sql(&db, &format!("SELECT t.id FROM t WHERE {pred}"));
        assert_eq!(got.result.len(), rows, "{pred}");
    }
    let join = check_sql(&db, "SELECT a.id, b.id FROM t a, t b WHERE a.x = b.f");
    assert_eq!(join.result.len(), 6);
}

/// NaN keys equi-join nothing, NaN included, on the word path (two float
/// columns) and on the `Value`-keyed path (an int against a float, and two
/// conditions); -0.0 joins 0.0. `sql_cmp` decides both, in the engine as
/// in the reference.
#[test]
fn nan_keys_join_nothing_and_signed_zeros_join() {
    let mut db = Database::new();
    let schema = [("id", ValueType::Int), ("x", ValueType::Float)];
    for (name, xs) in [
        ("a", [f64::NAN, -0.0, 0.0, 1.5]),
        ("b", [f64::NAN, 0.0, 2.0, -0.0]),
    ] {
        let t = db.create_table(name, Schema::build(&schema)).unwrap();
        for (id, x) in (0..).zip(xs) {
            t.push_row(&[Value::Int(id), Value::Float(x)]).unwrap();
        }
    }
    for (sql, rows) in [
        ("SELECT a.x, b.x FROM a, b WHERE a.x = b.x", 4),
        ("SELECT a.id, b.id FROM a, b WHERE a.id = b.x", 3),
        ("SELECT a.id FROM a, b WHERE a.x = b.x AND a.id = b.id", 1),
        ("SELECT a.id FROM a, b WHERE a.x = b.x AND a.id < b.id", 2),
    ] {
        assert_eq!(check_sql(&db, sql).result.len(), rows, "{sql}");
    }
}

/// Keys a join index must get right, each probed through the index (the
/// later binding has no filter): an all-NULL int key, an empty build
/// table, NaN and −0.0 float keys, and the ends of `i64`, which span more
/// than a dense index holds.
#[test]
fn index_probes_on_edge_keys() {
    let mut db = Database::new();
    let schema = [("k", ValueType::Int), ("f", ValueType::Float)];
    let null = Value::Null;
    let (min, max) = (Value::Int(i64::MIN), Value::Int(i64::MAX));
    let nan = Value::Float(f64::NAN);
    let tables: [(&str, Vec<[Value; 2]>); 5] = [
        (
            "a",
            vec![
                [min.clone(), nan.clone()],
                [max.clone(), Value::Float(-0.0)],
            ],
        ),
        (
            "b",
            vec![
                [max, Value::Float(0.0)],
                [Value::Int(0), nan.clone()],
                [min, Value::Float(-0.0)],
                [Value::Int(7), nan],
                [Value::Int(0), Value::Float(1.0)],
            ],
        ),
        ("n", vec![[null.clone(), null.clone()]; 6]),
        ("e", vec![]),
        ("e2", vec![]),
    ];
    for (name, rows) in tables {
        let t = db.create_table(name, Schema::build(&schema)).unwrap();
        for row in rows {
            t.push_row(&row).unwrap();
        }
    }
    for (sql, rows) in [
        ("SELECT a.k, b.k FROM a, b WHERE a.k = b.k", 2),
        ("SELECT a.f, b.f FROM a, b WHERE a.f = b.f", 2),
        ("SELECT a.k FROM a, b WHERE a.k = b.k AND b.f >= 0.0", 2),
        ("SELECT a.k FROM a, n WHERE a.k = n.k", 0),
        ("SELECT a.f FROM a, n WHERE a.f = n.f", 0),
        ("SELECT e.k FROM e, e2 WHERE e.k = e2.k", 0),
    ] {
        let got = check_sql(&db, sql);
        assert_eq!(got.result.len(), rows, "{sql}");
        assert!(got.trace.probed[1].is_some(), "{sql}: {:?}", got.trace);
    }
}

/// An appended count of a three-table join starts from the appended rows
/// and reaches both other tables through their join indexes, scanning
/// neither; what it adds is what the append added to the count.
#[test]
fn appended_three_table_count_probes_both_indexes() {
    let mut db = Database::new();
    let tables = [("title", "id", "year"), ("person", "id", "gender")];
    for (name, key, attr) in tables {
        let t = db
            .create_table(
                name,
                Schema::build(&[(key, ValueType::Int), (attr, ValueType::Int)]),
            )
            .unwrap();
        for i in 0..400i64 {
            t.push_row(&[Value::Int(i), Value::Int(i % 7)]).unwrap();
        }
    }
    let cast = db
        .create_table(
            "cast_info",
            Schema::build(&[("movie_id", ValueType::Int), ("person_id", ValueType::Int)]),
        )
        .unwrap();
    for i in 0..2000i64 {
        cast.push_row(&[Value::Int(i % 400), Value::Int(i * 7 % 400)])
            .unwrap();
    }
    let q = asqp_db::sql::parse(
        "SELECT t.id, p.id FROM title AS t, cast_info AS c, person AS p \
         WHERE t.id = c.movie_id AND c.person_id = p.id AND p.gender = 1 AND t.year > 2",
    )
    .unwrap();
    let before = db.cached_row_count(&q).unwrap();
    let batch: Vec<Vec<Value>> = (0..20i64)
        .map(|i| vec![Value::Int(i * 19 % 400), Value::Int(i * 3 % 400)])
        .collect();
    db.append_rows("cast_info", &batch).unwrap();
    let added = Some(("cast_info", 2000));
    let (added, trace) = asqp_db::testkit::count(&db, &q, added).unwrap();
    assert_eq!(trace.join_order[0], 1, "starts from the batch: {trace:?}");
    assert_eq!(trace.scan_rows[1], 20);
    assert!(
        trace.probed[0].is_some() && trace.probed[2].is_some(),
        "{trace:?}"
    );
    assert_eq!(before + added, db.execute(&q).unwrap().rows.len());
    assert_eq!(db.cached_row_count(&q).unwrap(), before + added);
}

/// A subset gathered column by column stores what pushing its rows one by
/// one stores: payloads, NULLs, dictionary codes in first-seen order, and
/// so the same statistics and zone maps.
#[test]
fn subset_gathers_what_pushing_rows_stores() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        let rows = rng.random_range(0usize..300);
        add_random_table(&mut db, &mut rng, "t", rows);
        let t = db.table("t").unwrap();
        let n = t.row_count();
        let ids: Vec<usize> = (0..rng.random_range(0..2 * n + 1))
            .map(|_| rng.random_range(0..n.max(1)))
            .filter(|_| n > 0)
            .collect();
        let got = t.subset(&ids).unwrap();
        let mut want = asqp_db::Table::new("t", t.schema().clone());
        for &rid in &ids {
            want.push_row(&t.row(rid)).unwrap();
        }
        assert_eq!(got.row_count(), want.row_count());
        for c in 0..t.schema().len() {
            let (g, w) = (got.column(c), want.column(c));
            assert_eq!(
                format!("{:?}", g.data()),
                format!("{:?}", w.data()),
                "seed {seed}"
            );
            assert_eq!(g.validity(), w.validity());
        }
        // As text: a NaN among the floats is unequal to itself.
        let text = |t: &asqp_db::Table| format!("{:?} {:?}", t.stats(), t.zone_maps());
        assert_eq!(text(&got), text(&want), "seed {seed}");
        assert_eq!(got.data_version(), t.data_version());
    }
}
