//! Shared property-test infrastructure: the canonical-AST query generator
//! (used by the SQL round-trip suite and the optimizer oracle) and a fixture
//! database whose schema matches the generator's table/column vocabulary.
//!
//! Queries are generated directly as ASTs in *canonical form* — the shape
//! the rest of the system builds (joins in `Query::joins`, the predicate a
//! left-fold `AND` spine with no cross-binding `col = col` conjuncts) — for
//! which `parse(q.to_sql()) == q` holds exactly.
#![allow(dead_code)]

use asqp_db::expr::{CmpOp, ColRef, Expr};
use asqp_db::query::{AggExpr, AggFunc, JoinCond, OrderKey, Query, SelectItem, TableRef};
use asqp_db::{Database, Schema, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const TABLES: &[(&str, &str)] = &[
    ("title", "t"),
    ("person", "p"),
    ("movie_cast", "mc"),
    ("company", "c"),
];
pub const COLUMNS: &[&str] = &["id", "name", "year", "kind", "score", "note"];
pub const WORDS: &[&str] = &["drama", "comedy", "alpha", "beta2", "x"];
pub const PATTERNS: &[&str] = &["a%", "%ing", "_b%", "abc", "%x_"];

pub fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

pub fn col(rng: &mut StdRng, bindings: &[&str]) -> ColRef {
    ColRef::new(pick(rng, bindings), pick(rng, COLUMNS))
}

/// Whether a generator column holds text in the fixture schema. Atoms pair
/// string columns with string operations and numeric columns with numeric
/// literals, so generated queries both round-trip *and* execute against
/// [`fixture_db`] without type errors.
pub fn is_text_column(name: &str) -> bool {
    matches!(name, "name" | "kind" | "note")
}

pub fn literal(rng: &mut StdRng, text: bool) -> Value {
    if text {
        return Value::from(pick(rng, WORDS));
    }
    if rng.random_bool(0.5) {
        Value::Int(rng.random_range(0..10_000i64))
    } else {
        // Forced fraction: a float that printed without a dot ("2") would
        // re-parse as an Int and break the round-trip.
        Value::Float(rng.random_range(0..2_000i64) as f64 + 0.5)
    }
}

/// A predicate atom: never a bare `col = col` (the parser would lift a
/// cross-binding one into `joins`, changing the AST shape).
pub fn atom(rng: &mut StdRng, bindings: &[&str]) -> Expr {
    let cr = col(rng, bindings);
    let text = is_text_column(&cr.column);
    let c = Expr::Column(cr);
    let choice = if text {
        // Between over integer bounds only applies to numeric columns.
        pick(rng, &[0u8, 2, 3, 4])
    } else {
        rng.random_range(0..5u8)
    };
    match choice {
        0 => {
            let op = pick(
                rng,
                &[
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ],
            );
            Expr::cmp(op, c, Expr::Literal(literal(rng, text)))
        }
        1 => {
            let lo = rng.random_range(0..500i64);
            let hi = lo + rng.random_range(0..500i64);
            Expr::Between {
                expr: Box::new(c),
                low: Box::new(Expr::lit(lo)),
                high: Box::new(Expr::lit(hi)),
                negated: rng.random_bool(0.3),
            }
        }
        2 => {
            let n = rng.random_range(1..4usize);
            let list = if text {
                (0..n).map(|_| Value::from(pick(rng, WORDS))).collect()
            } else {
                (0..n)
                    .map(|_| Value::Int(rng.random_range(0..100)))
                    .collect()
            };
            Expr::In {
                expr: Box::new(c),
                list,
                negated: rng.random_bool(0.3),
            }
        }
        3 if text => Expr::Like {
            expr: Box::new(c),
            pattern: pick(rng, PATTERNS).to_string(),
            negated: rng.random_bool(0.3),
        },
        _ => Expr::IsNull {
            expr: Box::new(c),
            negated: rng.random_bool(0.5),
        },
    }
}

/// Expression strictly inside an OR/NOT subtree: protected from conjunct
/// splitting, so any And/Or/Not shape round-trips.
pub fn inner(rng: &mut StdRng, bindings: &[&str], depth: u8) -> Expr {
    if depth == 0 {
        return atom(rng, bindings);
    }
    match rng.random_range(0..4u8) {
        0 => Expr::and(
            inner(rng, bindings, depth - 1),
            inner(rng, bindings, depth - 1),
        ),
        1 => Expr::or(
            inner(rng, bindings, depth - 1),
            inner(rng, bindings, depth - 1),
        ),
        2 => Expr::Not(Box::new(inner(rng, bindings, depth - 1))),
        _ => atom(rng, bindings),
    }
}

/// One element of the top-level conjunction spine: an atom, or an OR/NOT
/// subtree — never an AND, which would flatten into the spine and get
/// rebuilt left-deep.
pub fn conjunct(rng: &mut StdRng, bindings: &[&str]) -> Expr {
    match rng.random_range(0..4u8) {
        0 => Expr::or(inner(rng, bindings, 2), inner(rng, bindings, 2)),
        1 => Expr::Not(Box::new(inner(rng, bindings, 1))),
        _ => atom(rng, bindings),
    }
}

/// Generate a canonical-form query over up to `max_tables` of the fixture
/// tables (join conditions on `id = id` between adjacent bindings).
pub fn gen_query_upto(rng: &mut StdRng, max_tables: usize) -> Query {
    let n_tables = rng.random_range(1..=max_tables.clamp(1, TABLES.len()));
    let mut from = Vec::new();
    let mut bindings: Vec<&str> = Vec::new();
    for &(table, alias) in TABLES.iter().take(n_tables) {
        if rng.random_bool(0.7) {
            from.push(TableRef::aliased(table, alias));
            bindings.push(alias);
        } else {
            from.push(TableRef::new(table));
            bindings.push(table);
        }
    }

    let mut joins = Vec::new();
    for i in 1..n_tables {
        if rng.random_bool(0.7) {
            joins.push(JoinCond::new(
                ColRef::new(bindings[i - 1], "id"),
                ColRef::new(bindings[i], "id"),
            ));
        }
    }

    let n_conj = rng.random_range(0..4usize);
    let predicate = Expr::conjunction((0..n_conj).map(|_| conjunct(rng, &bindings)).collect());

    let aggregate = rng.random_bool(0.3);
    let (select, distinct, group_by, order_by) = if aggregate {
        let n_group = rng.random_range(0..3usize);
        let group_by: Vec<ColRef> = (0..n_group).map(|_| col(rng, &bindings)).collect();
        let mut select: Vec<SelectItem> =
            group_by.iter().cloned().map(SelectItem::Column).collect();
        for _ in 0..rng.random_range(1..3usize) {
            let func = pick(
                rng,
                &[
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Min,
                    AggFunc::Max,
                ],
            );
            // SUM/AVG need a numeric argument against the fixture schema.
            let numeric = matches!(func, AggFunc::Sum | AggFunc::Avg);
            let arg = (func != AggFunc::Count || rng.random_bool(0.5)).then(|| loop {
                let c = col(rng, &bindings);
                if !numeric || !is_text_column(&c.column) {
                    break c;
                }
            });
            select.push(SelectItem::Aggregate(AggExpr { func, arg }));
        }
        let mut order_by = Vec::new();
        for c in &group_by {
            if rng.random_bool(0.3) {
                order_by.push(OrderKey {
                    column: c.clone(),
                    desc: rng.random_bool(0.5),
                });
            }
        }
        (select, false, group_by, order_by)
    } else {
        let select = if rng.random_bool(0.25) {
            vec![SelectItem::Star]
        } else {
            (0..rng.random_range(1..4usize))
                .map(|_| SelectItem::Column(col(rng, &bindings)))
                .collect()
        };
        let order_by = (0..rng.random_range(0..3usize))
            .map(|_| OrderKey {
                column: col(rng, &bindings),
                desc: rng.random_bool(0.5),
            })
            .collect();
        (select, rng.random_bool(0.2), Vec::new(), order_by)
    };

    Query {
        select,
        distinct,
        from,
        joins,
        predicate,
        group_by,
        order_by,
        limit: rng.random_bool(0.3).then(|| rng.random_range(1..100usize)),
    }
}

/// The historical two-table generator shape used by the round-trip suite.
pub fn gen_query(rng: &mut StdRng) -> Query {
    gen_query_upto(rng, 2)
}

/// Fixture database matching the generator's vocabulary: every table carries
/// all six generator columns, `id` domains overlap across tables (so `id =
/// id` joins produce rows), string columns draw from [`WORDS`], and ~8% of
/// non-key cells are NULL.
pub fn fixture_db() -> Database {
    let mut db = Database::new();
    let mut rng = StdRng::seed_from_u64(0x07AC1E);
    let sizes: &[(&str, usize)] = &[
        ("title", 120),
        ("person", 80),
        ("movie_cast", 200),
        ("company", 15),
    ];
    for &(name, rows) in sizes {
        let schema = Schema::build(&[
            ("id", ValueType::Int),
            ("name", ValueType::Str),
            ("year", ValueType::Int),
            ("kind", ValueType::Str),
            ("score", ValueType::Float),
            ("note", ValueType::Str),
        ]);
        let table = db.create_table(name, schema).unwrap();
        for i in 0..rows {
            let id = (i as i64 * 3) % 90; // overlaps across all tables
            let mut row = vec![
                Value::Int(id),
                Value::from(pick(&mut rng, WORDS)),
                Value::Int((i as i64 * 13) % 500),
                Value::from(pick(&mut rng, WORDS)),
                Value::Float((i % 50) as f64 / 2.0 + 0.5),
                Value::from(pick(&mut rng, WORDS)),
            ];
            for cell in row.iter_mut().skip(1) {
                if rng.random_bool(0.08) {
                    *cell = Value::Null;
                }
            }
            table.push_row(&row).unwrap();
        }
    }
    db
}
