//! Property test: SQL parse → display → re-parse round-trips.
//!
//! Queries are generated directly as ASTs in *canonical form* — the shape
//! the rest of the system builds (joins in `Query::joins`, the predicate a
//! left-fold `AND` spine with no cross-binding `col = col` conjuncts) —
//! for which `parse(q.to_sql()) == q` holds exactly. On top of the strict
//! round-trip, every query must also be a display fixpoint: one
//! parse/display cycle reaches text that re-parses to itself, which is the
//! contract callers rely on when they persist query text.

mod common;

use asqp_db::expr::ColRef;
use asqp_db::query::JoinCond;
use asqp_db::sql::parse;
use asqp_db::{parse_statement, Expr, Statement, Value};
use common::gen_query;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Heads that carry random text past each grammar's first keyword.
const PREFIXES: [&str; 6] = [
    "",
    "SELECT ",
    "SELECT * FROM t WHERE t.a = '",
    "DROP ",
    "CREATE TABLE t (x ",
    "INSERT INTO t VALUES (",
];

/// A value of kind `kind % 6` drawn from `bits` and `text`: any `Int`
/// (MIN and MAX on their own), a finite `Float` that is not integral or
/// lies outside the `i64` range, a `Str` with a quote, a `Bool`, NULL.
/// An integral float an `i64` can hold prints as that `Int`; that hazard
/// is `fractional_float_literals_survive_roundtrip`'s, so a draw of one
/// (or of a non-finite float) becomes `0.5`.
fn literal(kind: u8, bits: u64, text: &str) -> Value {
    match kind % 6 {
        0 => Value::Int((bits as i64) >> (bits % 64)),
        1 => Value::Int(if bits & 1 == 0 { i64::MIN } else { i64::MAX }),
        2 => {
            let f = f64::from_bits(bits);
            let int_like = f.fract() == 0.0 && (i64::MIN as f64..-(i64::MIN as f64)).contains(&f);
            Value::Float(if f.is_finite() && !int_like { f } else { 0.5 })
        }
        3 => Value::Str(format!("{text}'{text}").into()),
        4 => Value::Bool(bits & 1 == 0),
        _ => Value::Null,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One dialect for literals: a value's display reads back as that
    /// value, variant and bits, in an INSERT row and in a WHERE clause.
    #[test]
    fn literals_read_back_alike_in_insert_and_where(
        kind in any::<u8>(),
        bits in any::<u64>(),
        text in any::<String>(),
    ) {
        let v = literal(kind, bits, &text);
        let insert = parse_statement(&format!("INSERT INTO t VALUES ({v})"));
        let want = Statement::Insert { table: "t".into(), rows: vec![vec![v.clone()]] };
        // `Value`'s `==` is numeric (`1 == 1.0`): compare variants and bits.
        prop_assert_eq!(format!("{insert:?}"), format!("Ok({want:?})"));
        let sql = format!("SELECT * FROM t WHERE t.x = {v}");
        let predicate = parse(&sql).map(|q| q.predicate);
        let Ok(Some(Expr::Cmp { rhs, .. })) = predicate else {
            panic!("{sql}: {predicate:?}")
        };
        prop_assert_eq!(format!("{rhs:?}"), format!("{:?}", Expr::Literal(v)));
    }

    /// Strict round-trip on canonical ASTs, plus the display fixpoint.
    #[test]
    fn parse_display_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = gen_query(&mut rng);
        let sql1 = q.to_sql();

        let q1 = match parse(&sql1) {
            Ok(q1) => q1,
            Err(e) => panic!("generated SQL failed to parse: {e}\n  sql: {sql1}"),
        };
        prop_assert_eq!(&q1, &q, "parse(display(q)) != q\n  sql: {}", sql1);

        let sql2 = q1.to_sql();
        prop_assert_eq!(&sql2, &sql1, "display not a fixpoint");
        let q2 = parse(&sql2).expect("fixpoint SQL must re-parse");
        prop_assert_eq!(&q2, &q1, "second round-trip diverged\n  sql: {}", sql2);
    }

    /// Aggregate-specific slice: the aggregate → SPJ rewrite must itself
    /// produce SQL that round-trips (it feeds the training pipeline).
    #[test]
    fn strip_aggregates_output_roundtrips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA66);
        let q = gen_query(&mut rng).strip_aggregates();
        let sql = q.to_sql();
        let q1 = parse(&sql).expect("stripped query must parse");
        prop_assert_eq!(&q1, &q, "stripped query round-trip\n  sql: {}", sql);
    }

    /// No SQL text makes either parser panic: every input, multi-byte
    /// characters included, parses or returns a typed error.
    #[test]
    fn sql_text_never_panics(prefix in 0..PREFIXES.len(), text in any::<String>()) {
        let text = format!("{}{text}", PREFIXES[prefix]);
        let _ = parse(&text);
        let _ = parse_statement(&text);
    }
}

/// Join lifting is part of the round-trip contract: a cross-binding
/// equality written in WHERE comes back as a `Query::joins` entry, and the
/// next display/parse cycle is stable.
#[test]
fn where_join_conjuncts_lift_and_stay_stable() {
    let q = parse(
        "SELECT t.name FROM title AS t, person AS p \
         WHERE t.id = p.id AND t.year > 1990",
    )
    .unwrap();
    assert_eq!(q.joins.len(), 1);
    assert_eq!(
        q.joins[0],
        JoinCond::new(ColRef::new("t", "id"), ColRef::new("p", "id"))
    );
    let again = parse(&q.to_sql()).unwrap();
    assert_eq!(again, q);
}

/// The classic display hazard: a float literal with no fractional part
/// prints like an integer. The engine's display keeps `Value::Float(2.5)`
/// parseable as a float; this pins the behaviour the generator relies on.
#[test]
fn fractional_float_literals_survive_roundtrip() {
    let q = parse("SELECT t.name FROM title AS t WHERE t.score > 2.5").unwrap();
    let again = parse(&q.to_sql()).unwrap();
    assert_eq!(again, q);
    assert!(q.to_sql().contains("2.5"));
}
