//! EXPLAIN goldens over the star schema of `examples/explain.rs`, plus the
//! tests that a plan depends on nothing but the query and the database it
//! runs on: not on what ran before, not on the database it was cut from.
//!
//! Each golden is the transcript of a few steps against a fresh database:
//! `explain` prints the plan, `analyze` executes it and prints it with the
//! actuals. Together the files cover every node and annotation the printer
//! has. To re-record one, paste the `actual` the failing test prints.

use asqp_db::sql::parse;
use asqp_db::testkit::star_db;
use asqp_db::{explain, explain_analyze, plan_query, Database};

fn transcript(steps: &[(&str, &str)]) -> String {
    let db = star_db();
    let mut out = String::new();
    for &(verb, sql) in steps {
        let q = parse(sql).unwrap();
        out.push_str(&format!("-- {verb}\n"));
        match verb {
            "explain" => out.push_str(&explain(&db, &q).unwrap()),
            "analyze" => out.push_str(&explain_analyze(&db, &q).unwrap()),
            _ => unreachable!("unknown step {verb}"),
        }
    }
    out
}

macro_rules! golden {
    ($($name:ident: [$(($verb:literal, $sql:expr)),+ $(,)?];)+) => {$(
        #[test]
        fn $name() {
            let got = transcript(&[$(($verb, $sql)),+]);
            let want = include_str!(concat!("golden/explain_", stringify!($name), ".txt"));
            assert!(got == want, "golden/explain_{}.txt differs; actual:\n{got}", stringify!($name));
        }
    )+};
}

const STAR_JOIN: &str = "SELECT e.id FROM events AS e, users AS u \
     WHERE e.user_id = u.id AND u.age < 25 AND e.qty < 10 LIMIT 20";
const SCAN: &str = "SELECT e.id FROM events AS e \
     WHERE e.qty < 10 AND e.user_id BETWEEN 100 AND 200 LIMIT 5";
const RESIDUAL: &str = "SELECT e.id, u.age FROM events AS e, users AS u \
     WHERE e.user_id = u.id AND e.qty < u.age AND u.age < 30";
const CARTESIAN: &str = "SELECT u.id, v.id FROM users AS u, users AS v \
     WHERE u.age < 20 AND v.age > 85 LIMIT 10";
const THREE_WAY: &str = "SELECT e.id, v.age FROM events AS e, users AS u, users AS v \
     WHERE e.user_id = u.id AND e.qty = v.id AND u.age < 25 AND v.age > 50";
// Conditions written out of binding order: they print (and their
// selectivities multiply) in the order their later binding joins.
const TRIANGLE: &str = "SELECT e.id FROM events AS e, users AS u, users AS v \
     WHERE e.qty = v.id AND e.user_id = u.id AND u.age = v.age AND e.qty = u.age AND v.id < 90";
const SELF_COND: &str = "SELECT e.id FROM events AS e JOIN users AS u ON e.id = e.qty \
     WHERE e.user_id = u.id AND u.age < 40";
const AGGREGATE: &str = "SELECT u.age, COUNT(*), AVG(e.qty) FROM events AS e, users AS u \
     WHERE e.user_id = u.id GROUP BY u.age ORDER BY u.age DESC LIMIT 5";
const DISTINCT: &str = "SELECT DISTINCT e.qty FROM events AS e \
     WHERE e.user_id < 50 ORDER BY e.qty DESC LIMIT 7";
const STAR_SELECT: &str = "SELECT * FROM users AS u WHERE u.age IN (20, 30) AND u.id IS NOT NULL";
const CONSTANT: &str = "SELECT u.id FROM users AS u WHERE 1 = 0 AND u.age > 30 LIMIT 3";
const UNQUALIFIED: &str = "SELECT qty FROM events, users WHERE user_id = users.id AND age < 25";

golden! {
    // The same plan before, after and with an execution; LIMIT above a join (not pushed).
    star_join: [("explain", STAR_JOIN), ("analyze", STAR_JOIN), ("explain", STAR_JOIN), ("analyze", STAR_JOIN)];
    // [pushed], [cols], [limit n] on a single scan.
    scan: [("explain", SCAN), ("analyze", SCAN)];
    residual: [("explain", RESIDUAL), ("analyze", RESIDUAL)];
    cartesian: [("explain", CARTESIAN), ("analyze", CARTESIAN)];
    three_way: [("explain", THREE_WAY), ("analyze", THREE_WAY)];
    triangle: [("explain", TRIANGLE), ("analyze", TRIANGLE)];
    // A join condition within one binding prints as that scan's first pushed filter.
    self_cond: [("explain", SELF_COND), ("analyze", SELF_COND)];
    aggregate: [("explain", AGGREGATE), ("analyze", AGGREGATE)];
    distinct: [("explain", DISTINCT), ("analyze", DISTINCT)];
    // SELECT * prints no [cols].
    star_select: [("explain", STAR_SELECT), ("analyze", STAR_SELECT)];
    // A constant conjunct is residual, which also blocks limit pushdown.
    constant: [("explain", CONSTANT), ("analyze", CONSTANT)];
    unqualified: [("explain", UNQUALIFIED), ("analyze", UNQUALIFIED)];
}

const WARM_TINY_USERS: &str = "SELECT e.id FROM events AS e, users AS u \
     WHERE e.user_id = u.id AND u.age < 19 AND e.qty < 99";
const LIVE_TINY_EVENTS: &str = "SELECT e.id FROM events AS e, users AS u \
     WHERE e.user_id = u.id AND u.age < 89 AND e.qty < 1";

/// History cannot change a plan: after another instantiation of its
/// template ran — one whose literals pick the opposite join order — a query
/// gets the join order, rows, row order, lineage and printed estimates it
/// gets on a database that never saw the first one.
#[test]
fn history_cannot_change_a_plan() {
    let (warm, live) = (
        parse(WARM_TINY_USERS).unwrap(),
        parse(LIVE_TINY_EVENTS).unwrap(),
    );
    let fresh = star_db().execute_with_lineage(&live).unwrap();

    let db = star_db();
    let warm_order = db.execute_with_lineage(&warm).unwrap().trace.join_order;
    assert_ne!(
        warm_order, fresh.trace.join_order,
        "the literals must flip cost_order"
    );
    let ran = db.execute_with_lineage(&live).unwrap();
    assert_eq!(ran.trace.join_order, fresh.trace.join_order);
    assert_eq!(ran.result, fresh.result);
    assert_eq!(ran.lineage, fresh.lineage);

    let text = explain_analyze(&db, &live).unwrap();
    assert_eq!(text, explain_analyze(&star_db(), &live).unwrap());
    // The estimates are the live literals': 1 % of events, all but a few
    // users, which the 100 events rows probe through the users index.
    assert!(
        text.contains("Scan events AS e  (est ~101 rows, actual 100)"),
        "{text}"
    );
    assert!(
        text.contains("Index probe users AS u  (est ~500 rows, candidates 100, actual 100)"),
        "{text}"
    );
}

/// Every hundredth row of every table.
fn one_percent(db: &Database) -> Database {
    let selection = db
        .tables()
        .map(|t| {
            let ids = (0..t.row_count()).step_by(100).collect();
            (t.name().to_string(), ids)
        })
        .collect();
    db.subset(&selection).unwrap()
}

/// A subset is planned as what it is, whichever of the two databases saw
/// the template first. On the full database `LIVE_TINY_EVENTS` keeps 100
/// events rows and nearly all users; in the subset every events row has
/// qty 0, so its five users rows drive instead.
#[test]
fn a_subset_is_planned_from_its_own_statistics() {
    let q = parse(LIVE_TINY_EVENTS).unwrap();
    let fresh_order = plan_query(&star_db(), &q).unwrap().join_order;

    let full = star_db();
    let sub = one_percent(&full);
    full.execute(&q).unwrap();
    let plan = plan_query(&sub, &q).unwrap();
    for (binding, est) in plan.bound.layout.bindings.iter().zip(&plan.est_scan_rows) {
        let rows = binding.table.row_count();
        assert!(*est <= rows as f64, "{}: {est} of {rows}", binding.name);
    }
    assert_ne!(
        plan.join_order, fresh_order,
        "the subset orders its own way"
    );

    let full = star_db();
    one_percent(&full).execute(&q).unwrap();
    assert_eq!(plan_query(&full, &q).unwrap().join_order, fresh_order);
}
