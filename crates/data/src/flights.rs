//! FLIGHTS-shaped synthetic dataset (US flight delays, IDEBench-style) plus
//! both SPJ and **aggregate** workloads — the aggregate workload drives the
//! paper's §6.4 AQP comparison (Fig. 12).

use crate::common::{normal, zipf_index, Scale};
use asqp_db::{AggFunc, CmpOp, ColRef, Database, Expr, Query, Schema, Value, ValueType, Workload};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

pub const CARRIERS: &[&str] = &["AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9"];
pub const AIRPORTS: &[&str] = &[
    "ATL", "LAX", "ORD", "DFW", "DEN", "JFK", "SFO", "SEA", "MIA", "BOS", "PHX", "LAS",
];

/// Generate the FLIGHTS database. Deterministic in `seed`.
pub fn generate(scale: Scale, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf11);
    let f = scale.factor();
    let n_flights = 1500 * f;

    let mut db = Database::new();

    let carriers = db
        .create_table(
            "carriers",
            Schema::build(&[("code", ValueType::Str), ("name", ValueType::Str)]),
        )
        .expect("fresh database");
    for c in CARRIERS {
        carriers
            .push_row(&[Value::from(*c), Value::from(format!("{c} airlines"))])
            .expect("row matches schema");
    }

    let airports = db
        .create_table(
            "airports",
            Schema::build(&[
                ("code", ValueType::Str),
                ("city", ValueType::Str),
                ("state", ValueType::Str),
            ]),
        )
        .expect("fresh database");
    const STATES: &[&str] = &[
        "GA", "CA", "IL", "TX", "CO", "NY", "CA", "WA", "FL", "MA", "AZ", "NV",
    ];
    for (i, a) in AIRPORTS.iter().enumerate() {
        airports
            .push_row(&[
                Value::from(*a),
                Value::from(format!("{} city", a.to_lowercase())),
                Value::from(STATES[i]),
            ])
            .expect("row matches schema");
    }

    let flights = db
        .create_table(
            "flights",
            Schema::build(&[
                ("id", ValueType::Int),
                ("carrier", ValueType::Str),
                ("origin", ValueType::Str),
                ("dest", ValueType::Str),
                ("month", ValueType::Int),
                ("day_of_week", ValueType::Int),
                ("dep_delay", ValueType::Float),
                ("arr_delay", ValueType::Float),
                ("distance", ValueType::Float),
            ]),
        )
        .expect("fresh database");
    for id in 0..n_flights {
        let carrier = CARRIERS[zipf_index(CARRIERS.len(), 1.1, &mut rng)];
        let oi = zipf_index(AIRPORTS.len(), 1.05, &mut rng);
        let mut di = zipf_index(AIRPORTS.len(), 1.05, &mut rng);
        if di == oi {
            di = (di + 1) % AIRPORTS.len();
        }
        let origin = AIRPORTS[oi];
        let dest = AIRPORTS[di];
        // Delay distribution: mostly early/on-time, heavy right tail.
        let base = normal(-2.0, 12.0, &mut rng);
        let dep_delay = if rng.random_range(0.0..1.0) < 0.12 {
            base + rng.random_range(30.0..240.0)
        } else {
            base
        };
        let arr_delay = dep_delay + normal(0.0, 8.0, &mut rng);
        let distance = rng.random_range(150.0..2800.0f64).round();
        flights
            .push_row(&[
                Value::Int(id as i64),
                Value::from(carrier),
                Value::from(origin),
                Value::from(dest),
                Value::Int(rng.random_range(1..13)),
                Value::Int(rng.random_range(1..8)),
                Value::Float((dep_delay * 10.0).round() / 10.0),
                Value::Float((arr_delay * 10.0).round() / 10.0),
                Value::Float(distance),
            ])
            .expect("row matches schema");
    }

    db
}

/// `n` SPJ queries over FLIGHTS (delay thresholds, carrier/airport filters,
/// joins to the dimension tables).
pub fn workload(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfe11);
    let mut queries = Vec::with_capacity(n);
    for i in 0..n {
        let q = match i % 4 {
            0 => {
                let min_delay = rng.random_range(15..120);
                let carrier = CARRIERS[zipf_index(CARRIERS.len(), 1.1, &mut rng)];
                Query::builder()
                    .select_col("f", "origin")
                    .select_col("f", "dest")
                    .select_col("f", "dep_delay")
                    .from_as("flights", "f")
                    .filter(Expr::and(
                        Expr::cmp(
                            CmpOp::Ge,
                            Expr::col("f", "dep_delay"),
                            Expr::lit(min_delay as f64),
                        ),
                        Expr::eq(Expr::col("f", "carrier"), Expr::lit(carrier)),
                    ))
                    .build()
            }
            1 => {
                let origin = AIRPORTS[zipf_index(AIRPORTS.len(), 1.05, &mut rng)];
                let month = rng.random_range(1..13);
                Query::builder()
                    .select_col("f", "carrier")
                    .select_col("f", "dest")
                    .select_col("f", "arr_delay")
                    .from_as("flights", "f")
                    .filter(Expr::and(
                        Expr::eq(Expr::col("f", "origin"), Expr::lit(origin)),
                        Expr::eq(Expr::col("f", "month"), Expr::lit(month)),
                    ))
                    .build()
            }
            2 => {
                let min_dist = rng.random_range(500..2000);
                Query::builder()
                    .select_col("f", "origin")
                    .select_col("f", "distance")
                    .select_col("c", "name")
                    .from_as("flights", "f")
                    .from_as("carriers", "c")
                    .join_on("f", "carrier", "c", "code")
                    .filter(Expr::cmp(
                        CmpOp::Ge,
                        Expr::col("f", "distance"),
                        Expr::lit(min_dist as f64),
                    ))
                    .build()
            }
            _ => {
                let dow = rng.random_range(1..8);
                let max_delay = rng.random_range(-5..10);
                Query::builder()
                    .select_col("f", "carrier")
                    .select_col("f", "origin")
                    .select_col("a", "state")
                    .from_as("flights", "f")
                    .from_as("airports", "a")
                    .join_on("f", "origin", "a", "code")
                    .filter(Expr::and(
                        Expr::eq(Expr::col("f", "day_of_week"), Expr::lit(dow)),
                        Expr::cmp(
                            CmpOp::Le,
                            Expr::col("f", "dep_delay"),
                            Expr::lit(max_delay as f64),
                        ),
                    ))
                    .build()
            }
        };
        queries.push(q);
    }
    Workload::uniform(queries)
}

/// `n` **aggregate** queries (IDEBench-style) across the six operator
/// classes of Fig. 12: {COUNT, SUM, AVG} × {global, GROUP BY}.
pub fn aggregate_workload(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa66);
    const GROUP_COLS: &[&str] = &["carrier", "origin", "month", "day_of_week"];
    const NUM_COLS: &[&str] = &["dep_delay", "arr_delay", "distance"];
    let mut queries = Vec::with_capacity(n);
    for i in 0..n {
        let func = match i % 3 {
            0 => AggFunc::Count,
            1 => AggFunc::Sum,
            _ => AggFunc::Avg,
        };
        let grouped = (i / 3) % 2 == 0;
        let arg = if func == AggFunc::Count {
            None
        } else {
            Some(ColRef::new(
                "f",
                NUM_COLS[rng.random_range(0..NUM_COLS.len())],
            ))
        };
        // Mild selection so aggregates differ from full-table constants.
        let pred = match rng.random_range(0..3) {
            0 => Expr::cmp(
                CmpOp::Ge,
                Expr::col("f", "distance"),
                Expr::lit(rng.random_range(200..1500) as f64),
            ),
            1 => Expr::eq(Expr::col("f", "month"), Expr::lit(rng.random_range(1..13))),
            _ => Expr::cmp(
                CmpOp::Ge,
                Expr::col("f", "dep_delay"),
                Expr::lit(rng.random_range(-5..40) as f64),
            ),
        };
        let mut b = Query::builder().from_as("flights", "f").filter(pred);
        if grouped {
            let g = GROUP_COLS[rng.random_range(0..GROUP_COLS.len())];
            b = b.select_col("f", g).group_by("f", g);
        }
        b = b.select_agg(func, arg);
        queries.push(b.build());
    }
    Workload::uniform(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let db = generate(Scale::Tiny, 1);
        assert_eq!(db.table("flights").unwrap().row_count(), 1500);
        assert_eq!(db.table("carriers").unwrap().row_count(), CARRIERS.len());
        assert_eq!(db.table("airports").unwrap().row_count(), AIRPORTS.len());
    }

    #[test]
    fn delays_have_heavy_tail() {
        let db = generate(Scale::Tiny, 1);
        let late = db
            .sql("SELECT COUNT(*) FROM flights f WHERE f.dep_delay > 60")
            .unwrap();
        let n = late.rows.get(0, 0).as_i64().unwrap();
        assert!(n > 20 && n < 600, "tail count = {n}");
    }

    #[test]
    fn spj_workload_executes_nonempty() {
        let db = generate(Scale::Tiny, 1);
        let w = workload(16, 1);
        let mut nonempty = 0;
        for (q, _) in w.iter() {
            if !db.execute(q).unwrap().rows.is_empty() {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 12, "nonempty = {nonempty}");
    }

    #[test]
    fn aggregate_workload_covers_all_classes() {
        let w = aggregate_workload(18, 1);
        let db = generate(Scale::Tiny, 1);
        let mut grouped = 0;
        let mut funcs = std::collections::HashSet::new();
        for (q, _) in w.iter() {
            assert!(q.is_aggregate());
            if !q.group_by.is_empty() {
                grouped += 1;
            }
            for s in &q.select {
                if let asqp_db::SelectItem::Aggregate(a) = s {
                    funcs.insert(format!("{}", a.func));
                }
            }
            db.execute(q).expect("aggregate executes");
        }
        assert_eq!(grouped, 9);
        assert_eq!(funcs.len(), 3);
    }

    #[test]
    fn origin_never_equals_dest() {
        let db = generate(Scale::Tiny, 5);
        let r = db
            .sql("SELECT COUNT(*) FROM flights f WHERE f.origin = f.dest")
            .unwrap();
        assert_eq!(r.rows.get(0, 0), Value::Int(0));
    }
}
