//! Executor integration tests: hash-join pipeline vs the reference executor,
//! lineage correctness, aggregates, ordering and limits.

use asqp_db::testkit::reference;
use asqp_db::{CmpOp, Database, Expr, Query, ResultSet, Schema, Value, ValueType};

/// Execute `q` and require rows, order and lineage to equal the reference
/// executor's under the join order the engine chose.
fn checked(db: &Database, q: &Query) -> ResultSet {
    let got = db.execute_with_lineage(q).unwrap();
    let want = reference(db, q, &got.trace.join_order).unwrap();
    assert_eq!(got.result, want.result, "{}", q.to_sql());
    assert_eq!(got.lineage, want.lineage, "{}", q.to_sql());
    got.result
}

/// A small movie database with referential structure.
fn movie_db() -> Database {
    let mut db = Database::new();
    let movies = db
        .create_table(
            "movies",
            Schema::build(&[
                ("id", ValueType::Int),
                ("title", ValueType::Str),
                ("year", ValueType::Int),
                ("rating", ValueType::Float),
            ]),
        )
        .unwrap();
    let data: Vec<(i64, &str, i64, f64)> = vec![
        (1, "Alien", 1979, 8.5),
        (2, "Aliens", 1986, 8.4),
        (3, "Arrival", 2016, 7.9),
        (4, "Blade Runner", 1982, 8.1),
        (5, "Dune", 2021, 8.0),
        (6, "Her", 2013, 8.0),
    ];
    for (id, title, year, rating) in data {
        movies
            .push_row(&[
                Value::Int(id),
                title.into(),
                Value::Int(year),
                Value::Float(rating),
            ])
            .unwrap();
    }
    let cast = db
        .create_table(
            "cast_info",
            Schema::build(&[
                ("movie_id", ValueType::Int),
                ("person", ValueType::Str),
                ("role", ValueType::Str),
            ]),
        )
        .unwrap();
    let cdata: Vec<(i64, &str, &str)> = vec![
        (1, "Weaver", "actor"),
        (2, "Weaver", "actor"),
        (3, "Adams", "actor"),
        (4, "Ford", "actor"),
        (4, "Young", "actor"),
        (5, "Chalamet", "actor"),
        (99, "Ghost", "actor"), // dangling FK: never joins
    ];
    for (mid, person, role) in cdata {
        cast.push_row(&[Value::Int(mid), person.into(), role.into()])
            .unwrap();
    }
    db
}

#[test]
fn filter_scan_matches_oracle() {
    let db = movie_db();
    let q = asqp_db::sql::parse("SELECT m.title FROM movies m WHERE m.year > 2000").unwrap();
    assert_eq!(checked(&db, &q).rows.len(), 3);
}

#[test]
fn hash_join_matches_oracle() {
    let db = movie_db();
    let q = asqp_db::sql::parse(
        "SELECT m.title, c.person FROM movies m, cast_info c \
         WHERE m.id = c.movie_id AND m.rating >= 8.0",
    )
    .unwrap();
    // Weaver x2, Ford, Young, Chalamet (Dune 8.0), Her has no cast.
    assert_eq!(checked(&db, &q).rows.len(), 5);
}

#[test]
fn dangling_foreign_key_never_joins() {
    let db = movie_db();
    let q =
        asqp_db::sql::parse("SELECT c.person FROM cast_info c JOIN movies m ON c.movie_id = m.id")
            .unwrap();
    let r = db.execute(&q).unwrap();
    assert!(r
        .rows
        .iter()
        .all(|row| row[0] != Value::Str("Ghost".into())));
}

#[test]
fn lineage_identifies_base_rows() {
    let db = movie_db();
    let q = asqp_db::sql::parse(
        "SELECT m.title, c.person FROM movies m, cast_info c WHERE m.id = c.movie_id",
    )
    .unwrap();
    let out = db.execute_with_lineage(&q).unwrap();
    assert_eq!(out.binding_tables, vec!["movies", "cast_info"]);
    assert_eq!(out.lineage.len(), out.result.rows.len());
    // Check every lineage entry reproduces its result row.
    let movies = db.table("movies").unwrap();
    let cast = db.table("cast_info").unwrap();
    for (row, lin) in out.result.rows.iter().zip(&out.lineage) {
        let title = movies.value(lin[0], 1);
        let person = cast.value(lin[1], 1);
        assert_eq!(row[0], title);
        assert_eq!(row[1], person);
    }
}

#[test]
fn subset_execution_returns_subset_of_full_result() {
    let db = movie_db();
    let mut sel = std::collections::BTreeMap::new();
    sel.insert("movies".to_string(), vec![0usize, 2, 4]);
    sel.insert("cast_info".to_string(), vec![0usize, 2, 5]);
    let sub = db.subset(&sel).unwrap();
    let q = asqp_db::sql::parse(
        "SELECT m.title, c.person FROM movies m, cast_info c WHERE m.id = c.movie_id",
    )
    .unwrap();
    let full: std::collections::BTreeSet<_> =
        db.execute(&q).unwrap().rows.to_vecs().into_iter().collect();
    let part = sub.execute(&q).unwrap().rows;
    assert!(!part.is_empty());
    for row in &part {
        assert!(
            full.contains(&row),
            "subset produced a row not in the full answer"
        );
    }
}

#[test]
fn aggregates_with_group_by() {
    let db = movie_db();
    let q = asqp_db::sql::parse(
        "SELECT c.person, COUNT(*) FROM cast_info c JOIN movies m ON c.movie_id = m.id \
         GROUP BY c.person ORDER BY c.person",
    )
    .unwrap();
    let r = db.execute(&q).unwrap();
    let weaver = r
        .rows
        .iter()
        .find(|row| row[0] == Value::Str("Weaver".into()))
        .unwrap();
    assert_eq!(weaver[1], Value::Int(2));
    // Sorted by person ascending.
    let names: Vec<_> = r.rows.iter().map(|r| r[0].clone()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

#[test]
fn global_aggregates() {
    let db = movie_db();
    let r = db
        .sql("SELECT COUNT(*), AVG(m.rating), MIN(m.year), MAX(m.year), SUM(m.id) FROM movies m")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows.get(0, 0), Value::Int(6));
    let avg = r.rows.get(0, 1).as_f64().unwrap();
    assert!((avg - 8.15).abs() < 1e-9);
    assert_eq!(r.rows.get(0, 2), Value::Int(1979));
    assert_eq!(r.rows.get(0, 3), Value::Int(2021));
    assert_eq!(r.rows.get(0, 4), Value::Int(21));
}

#[test]
fn global_aggregate_over_empty_input() {
    let db = movie_db();
    let r = db
        .sql("SELECT COUNT(*), SUM(m.id), AVG(m.rating) FROM movies m WHERE m.year > 3000")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows.get(0, 0), Value::Int(0));
    assert_eq!(r.rows.get(0, 1), Value::Null);
    assert_eq!(r.rows.get(0, 2), Value::Null);
}

#[test]
fn order_by_desc_and_limit() {
    let db = movie_db();
    let r = db
        .sql("SELECT m.title FROM movies m ORDER BY m.rating DESC, m.title LIMIT 2")
        .unwrap();
    assert_eq!(
        r.rows.to_vecs(),
        vec![
            vec![Value::Str("Alien".into())],
            vec![Value::Str("Aliens".into())]
        ]
    );
}

#[test]
fn distinct_dedups() {
    let db = movie_db();
    let r = db.sql("SELECT DISTINCT c.role FROM cast_info c").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn cartesian_product_when_no_join_condition() {
    let db = movie_db();
    let r = db
        .sql("SELECT m.id, c.person FROM movies m, cast_info c LIMIT 1000")
        .unwrap();
    assert_eq!(r.rows.len(), 6 * 7);
}

#[test]
fn three_way_join() {
    let mut db = movie_db();
    let genres = db
        .create_table(
            "genres",
            Schema::build(&[("movie_id", ValueType::Int), ("genre", ValueType::Str)]),
        )
        .unwrap();
    for (mid, g) in [(1i64, "scifi"), (2, "scifi"), (3, "scifi"), (6, "drama")] {
        genres.push_row(&[Value::Int(mid), g.into()]).unwrap();
    }
    let q = asqp_db::sql::parse(
        "SELECT m.title, c.person, g.genre FROM movies m, cast_info c, genres g \
         WHERE m.id = c.movie_id AND m.id = g.movie_id AND g.genre = 'scifi'",
    )
    .unwrap();
    assert_eq!(checked(&db, &q).rows.len(), 3); // Alien, Aliens, Arrival each one cast row
}

#[test]
fn residual_cross_table_predicate() {
    let db = movie_db();
    // Non-equi cross-table condition must be applied as a residual filter.
    let q = Query::builder()
        .select_col("m", "title")
        .select_col("c", "person")
        .from_as("movies", "m")
        .from_as("cast_info", "c")
        .join_on("m", "id", "c", "movie_id")
        .filter(Expr::cmp(
            CmpOp::Lt,
            Expr::col("m", "year"),
            Expr::lit(1985),
        ))
        .build();
    assert!(!checked(&db, &q).rows.is_empty());
}

#[test]
fn null_join_keys_do_not_match() {
    let mut db = Database::new();
    let l = db
        .create_table("l", Schema::build(&[("k", ValueType::Int)]))
        .unwrap();
    l.push_row(&[Value::Null]).unwrap();
    l.push_row(&[Value::Int(1)]).unwrap();
    let r = db
        .create_table("r", Schema::build(&[("k", ValueType::Int)]))
        .unwrap();
    r.push_row(&[Value::Null]).unwrap();
    r.push_row(&[Value::Int(1)]).unwrap();
    let res = db.sql("SELECT * FROM l, r WHERE l.k = r.k").unwrap();
    assert_eq!(res.rows.len(), 1, "NULL = NULL must not join");
}

/// A string key joins on dictionary codes, and the two columns' codes are
/// unrelated: "Weaver" is code 0 of `cast_info.person` and code 2 of
/// `awards.person`, "Ford" is code 2 of the one and 0 of the other.
#[test]
fn string_key_join_translates_between_dictionaries() {
    let mut db = movie_db();
    let awards = db
        .create_table(
            "awards",
            Schema::build(&[("person", ValueType::Str), ("prize", ValueType::Str)]),
        )
        .unwrap();
    for (person, prize) in [
        (Value::from("Ford"), "saturn"),
        (Value::from("Nobody"), "razzie"),
        (Value::from("Weaver"), "bafta"),
        (Value::Null, "lost"),
        (Value::from("Weaver"), "saturn"),
    ] {
        awards.push_row(&[person, prize.into()]).unwrap();
    }
    let q = asqp_db::sql::parse(
        "SELECT c.movie_id, c.person, a.prize FROM cast_info c, awards a \
         WHERE c.person = a.person",
    )
    .unwrap();
    let mut rows = checked(&db, &q).rows.to_vecs();
    rows.sort();
    let row = |id: i64, person: &str, prize: &str| -> Vec<Value> {
        vec![Value::Int(id), person.into(), prize.into()]
    };
    assert_eq!(
        rows,
        [
            row(1, "Weaver", "bafta"),
            row(1, "Weaver", "saturn"),
            row(2, "Weaver", "bafta"),
            row(2, "Weaver", "saturn"),
            row(4, "Ford", "saturn"),
        ]
    );
}

/// A string never equals an integer, whatever either spells.
#[test]
fn string_key_never_joins_an_integer_key() {
    let mut db = movie_db();
    let ids = db
        .create_table("ids", Schema::build(&[("n", ValueType::Str)]))
        .unwrap();
    for n in ["1", "2", "99"] {
        ids.push_row(&[n.into()]).unwrap();
    }
    let q = asqp_db::sql::parse("SELECT * FROM cast_info c, ids i WHERE c.movie_id = i.n").unwrap();
    assert!(checked(&db, &q).rows.is_empty());
}

#[test]
fn ambiguous_bare_column_errors() {
    let db = movie_db();
    // `movie_id` exists only in cast_info → fine unqualified.
    assert!(db
        .sql("SELECT * FROM movies, cast_info WHERE movie_id = 1")
        .is_ok());
    // `id` is unique too; but a column present in both tables must error.
    let mut db2 = Database::new();
    db2.create_table("a", Schema::build(&[("x", ValueType::Int)]))
        .unwrap();
    db2.create_table("b", Schema::build(&[("x", ValueType::Int)]))
        .unwrap();
    assert!(db2.sql("SELECT * FROM a, b WHERE x = 1").is_err());
}

#[test]
fn select_star_output_columns_qualified() {
    let db = movie_db();
    let r = db.sql("SELECT * FROM movies m LIMIT 1").unwrap();
    assert_eq!(r.columns, vec!["m.id", "m.title", "m.year", "m.rating"]);
}

#[test]
fn aggregate_after_strip_runs_as_spj() {
    let db = movie_db();
    let agg = asqp_db::sql::parse("SELECT m.year, COUNT(*) FROM movies m GROUP BY m.year").unwrap();
    let spj = agg.strip_aggregates();
    let r = db.execute(&spj).unwrap();
    assert_eq!(r.rows.len(), 6); // one per movie: projected year only
    assert_eq!(r.columns, vec!["m.year"]);
}

#[test]
fn like_and_in_execution() {
    let db = movie_db();
    let r = db
        .sql("SELECT m.title FROM movies m WHERE m.title LIKE 'Ali%'")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = db
        .sql("SELECT m.title FROM movies m WHERE m.year IN (1979, 2021)")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn sum_int_stays_int_avg_is_float() {
    let db = movie_db();
    let r = db.sql("SELECT SUM(m.year) FROM movies m").unwrap();
    assert!(matches!(r.rows.get(0, 0), Value::Int(_)));
    let r = db.sql("SELECT AVG(m.year) FROM movies m").unwrap();
    assert!(matches!(r.rows.get(0, 0), Value::Float(_)));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Build a small random two-table database and a random SPJ query; the
    /// hash-join pipeline and the reference executor must agree.
    fn arb_db(rows_a: Vec<(i64, i64)>, rows_b: Vec<(i64, i64)>) -> Database {
        let mut db = Database::new();
        let a = db
            .create_table(
                "a",
                Schema::build(&[("id", ValueType::Int), ("v", ValueType::Int)]),
            )
            .unwrap();
        for (id, v) in rows_a {
            a.push_row(&[Value::Int(id), Value::Int(v)]).unwrap();
        }
        let b = db
            .create_table(
                "b",
                Schema::build(&[("fk", ValueType::Int), ("w", ValueType::Int)]),
            )
            .unwrap();
        for (fk, w) in rows_b {
            b.push_row(&[Value::Int(fk), Value::Int(w)]).unwrap();
        }
        db
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn join_agrees_with_oracle(
            rows_a in prop::collection::vec((0i64..8, 0i64..20), 0..12),
            rows_b in prop::collection::vec((0i64..8, 0i64..20), 0..12),
            threshold in 0i64..20,
        ) {
            let db = arb_db(rows_a, rows_b);
            let q = Query::builder()
                .select_col("a", "id").select_col("b", "w")
                .from("a").from("b")
                .join_on("a", "id", "b", "fk")
                .filter(Expr::cmp(CmpOp::Ge, Expr::col("a", "v"), Expr::lit(threshold)))
                .build();
            checked(&db, &q);
        }

        #[test]
        fn distinct_never_repeats(
            rows_a in prop::collection::vec((0i64..4, 0i64..4), 0..20),
        ) {
            let db = arb_db(rows_a, vec![]);
            let r = db.sql("SELECT DISTINCT a.id FROM a").unwrap();
            let mut seen = std::collections::HashSet::new();
            for row in &r.rows {
                prop_assert!(seen.insert(row.to_vec()));
            }
        }

        #[test]
        fn limit_respected(
            rows_a in prop::collection::vec((0i64..100, 0i64..100), 0..30),
            limit in 0usize..10,
        ) {
            let db = arb_db(rows_a.clone(), vec![]);
            let q = Query::builder().select_star().from("a").limit(limit).build();
            let r = db.execute(&q).unwrap();
            prop_assert_eq!(r.rows.len(), limit.min(rows_a.len()));
        }

        #[test]
        fn count_star_equals_row_count(
            rows_a in prop::collection::vec((0i64..50, 0i64..50), 0..30),
        ) {
            let db = arb_db(rows_a.clone(), vec![]);
            let r = db.sql("SELECT COUNT(*) FROM a").unwrap();
            prop_assert_eq!(r.rows.get(0, 0), Value::Int(rows_a.len() as i64));
        }

        #[test]
        fn parser_roundtrip_on_generated_queries(
            threshold in -100i64..100,
            limit in proptest::option::of(0usize..50),
            desc in any::<bool>(),
        ) {
            let mut b = Query::builder()
                .select_col("a", "id")
                .from_as("a", "x")
                .filter(Expr::cmp(CmpOp::Le, Expr::col("x", "v"), Expr::lit(threshold)))
                .order_by("x", "id", desc);
            if let Some(l) = limit { b = b.limit(l); }
            let q = b.build();
            let reparsed = asqp_db::sql::parse(&q.to_sql()).unwrap();
            prop_assert_eq!(q, reparsed);
        }
    }
}

/// Numbers compare exactly — an int against a float is never rounded — and
/// the order stays total: over a pool of edge values every pair is
/// antisymmetric and every triple transitive.
#[test]
fn numbers_compare_exactly_and_totally() {
    let p53 = 1i64 << 53;
    let two_63 = 9_223_372_036_854_775_808.0;
    assert!(Value::Int(p53) < Value::Int(p53 + 1));
    assert!(Value::Int(p53 + 1) > Value::Float(p53 as f64));
    assert_eq!(Value::Int(p53), Value::Float(p53 as f64));
    assert_eq!(Value::Int(0), Value::Float(-0.0));
    assert!(Value::Int(-2) < Value::Float(-1.5) && Value::Int(-1) > Value::Float(-1.5));
    assert!(Value::Int(i64::MAX) < Value::Float(two_63));
    assert_eq!(Value::Int(i64::MIN), Value::Float(-two_63));
    assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
    assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));

    let ints = [
        i64::MIN,
        i64::MAX,
        -p53 - 1,
        p53 - 1,
        p53,
        p53 + 1,
        p53 + 2,
        -1,
        0,
        1,
    ];
    let floats = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        two_63,
        -two_63,
        p53 as f64,
        p53 as f64 + 2.0,
        -0.0,
        0.0,
        0.5,
        -1.5,
        5e-324,
        1e300,
    ];
    let pool: Vec<Value> = ints
        .map(Value::Int)
        .into_iter()
        .chain(floats.map(Value::Float))
        .collect();
    for a in &pool {
        for b in &pool {
            assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} {b:?}");
            for c in pool.iter().filter(|c| a <= b && b <= *c) {
                assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
            }
        }
    }
}

/// Ints beyond ±2⁵³ are distinct values everywhere, not only in WHERE:
/// DISTINCT, GROUP BY, ORDER BY and the statistics tell 2⁵³ from 2⁵³ + 1.
#[test]
fn ints_beyond_two_to_the_53_stay_distinct() {
    let p53 = 1i64 << 53;
    let mut db = Database::new();
    let t = db
        .create_table("t", Schema::build(&[("x", ValueType::Int)]))
        .unwrap();
    for x in [p53, p53 + 1, p53 + 1] {
        t.push_row(&[Value::Int(x)]).unwrap();
    }
    let ints = |rs: ResultSet| -> Vec<Vec<i64>> {
        let rows = rs.rows.to_vecs();
        rows.iter()
            .map(|r| r.iter().map(|v| v.as_i64().unwrap()).collect())
            .collect()
    };
    let distinct = db.sql("SELECT DISTINCT x FROM t ORDER BY x").unwrap();
    assert_eq!(ints(distinct), [[p53], [p53 + 1]]);
    let groups = db
        .sql("SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x")
        .unwrap();
    assert_eq!(ints(groups), [[p53, 1], [p53 + 1, 2]]);
    let desc = db.sql("SELECT x FROM t ORDER BY x DESC").unwrap();
    assert_eq!(ints(desc), [[p53 + 1], [p53 + 1], [p53]]);
    let stats = db.table_stats("t").unwrap();
    assert_eq!(stats.columns[0].distinct, 2);
}

/// An equi-join of two int columns tells 2⁵³ from 2⁵³ + 1, as WHERE does.
#[test]
fn joins_on_ints_beyond_two_to_the_53_are_exact() {
    let p53 = 1i64 << 53;
    let mut db = Database::new();
    for name in ["a", "b"] {
        let schema = Schema::build(&[("x", ValueType::Int)]);
        let t = db.create_table(name, schema).unwrap();
        for x in [p53, p53 + 1, p53 + 2] {
            t.push_row(&[Value::Int(x)]).unwrap();
        }
    }
    let q = asqp_db::sql::parse("SELECT a.x FROM a, b WHERE a.x = b.x").unwrap();
    assert_eq!(checked(&db, &q).len(), 3);
}

/// A result holds text as dictionary codes: gathering 12 000 text cells
/// takes a handful of references to the table's dictionary (one per
/// projected column), not one per cell.
#[test]
fn a_result_takes_no_reference_per_text_cell() {
    use asqp_db::ColumnData;
    use std::sync::Arc;
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::build(&[("id", ValueType::Int), ("s", ValueType::Str)]),
        )
        .unwrap();
    for i in 0..12_000i64 {
        t.push_row(&[Value::Int(i), format!("s{}", i % 3).into()])
            .unwrap();
    }
    let first_entry = |db: &Database| match db.table("t").unwrap().column(1).data() {
        ColumnData::Str { dict, .. } => Arc::strong_count(&dict[0]),
        _ => unreachable!("s is a text column"),
    };
    let sql = "SELECT t.s, t.id, t.s FROM t";
    db.sql(sql).unwrap(); // statistics are built once, and keep their own
    let before = first_entry(&db);
    let rs = db.sql(sql).unwrap();
    assert_eq!(rs.len(), 12_000);
    assert!(
        first_entry(&db) <= before + 4,
        "{before} references before, {} while the result is held",
        first_entry(&db)
    );
    assert_eq!(rs.rows.get(3, 0), Value::from("s0"));
    drop(rs);
    assert_eq!(first_entry(&db), before);
}

/// A result is a snapshot: appending to and updating its table through
/// `&mut Database` leaves it reading the rows it was built from, and the
/// next result reads the new ones.
#[test]
fn a_result_outlives_changes_to_its_table() {
    let mut db = movie_db();
    let sql = "SELECT m.id, m.title, m.rating FROM movies m WHERE m.year < 1990";
    let before = db.sql(sql).unwrap();
    let held = before.rows.to_vecs();
    let rows = |rs: &ResultSet| rs.rows.to_vecs();
    db.append_rows(
        "movies",
        &[vec![
            Value::Int(7),
            "Solaris".into(),
            Value::Int(1972),
            Value::Float(8.1),
        ]],
    )
    .unwrap();
    db.update_rows(
        "movies",
        &[(
            0,
            vec![
                Value::Int(1),
                "Alien³".into(),
                Value::Int(1979),
                Value::Null,
            ],
        )],
    )
    .unwrap();
    assert_eq!(rows(&before), held, "the held result did not move");
    assert_eq!(before.rows.get(0, 1), Value::from("Alien"));
    let after = db.sql(sql).unwrap();
    assert_eq!(after.len(), before.len() + 1);
    assert_eq!(
        after.rows.row(0),
        vec![Value::Int(1), "Alien³".into(), Value::Null]
    );
    assert_eq!(after.rows.get(after.len() - 1, 1), Value::from("Solaris"));
}
