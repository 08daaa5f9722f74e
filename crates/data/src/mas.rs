//! MAS-shaped synthetic dataset (Microsoft Academic Search: researchers and
//! publications) and its SPJ workload.

use crate::common::{zipf_index, Scale, WordPool};
use asqp_db::{CmpOp, Database, Expr, Query, Schema, Value, ValueType, Workload};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const FIELDS: &[&str] = &[
    "databases",
    "machine_learning",
    "systems",
    "theory",
    "hci",
    "security",
    "vision",
];

/// Generate the MAS-shaped database. Deterministic in `seed`.
pub fn generate(scale: Scale, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa5);
    let f = scale.factor();
    let n_authors = 150 * f;
    let n_venues = 15 + f;
    let n_pubs = 350 * f;
    let n_writes = 700 * f;

    let names = WordPool::new(500, 1.05, &mut rng);
    let title_words = WordPool::new(400, 1.1, &mut rng);
    let affil_words = WordPool::new(60, 1.2, &mut rng);

    let mut db = Database::new();

    let author = db
        .create_table(
            "author",
            Schema::build(&[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("affiliation", ValueType::Str),
            ]),
        )
        .expect("fresh database");
    for id in 0..n_authors {
        author
            .push_row(&[
                Value::Int(id as i64),
                Value::from(names.phrase(2, &mut rng)),
                Value::from(format!("{} university", affil_words.sample(&mut rng))),
            ])
            .expect("row matches schema");
    }

    let venue = db
        .create_table(
            "venue",
            Schema::build(&[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("field", ValueType::Str),
            ]),
        )
        .expect("fresh database");
    for id in 0..n_venues {
        venue
            .push_row(&[
                Value::Int(id as i64),
                Value::from(names.phrase(1, &mut rng).to_uppercase()),
                Value::from(FIELDS[zipf_index(FIELDS.len(), 1.1, &mut rng)]),
            ])
            .expect("row matches schema");
    }

    let publication = db
        .create_table(
            "publication",
            Schema::build(&[
                ("id", ValueType::Int),
                ("title", ValueType::Str),
                ("year", ValueType::Int),
                ("venue_id", ValueType::Int),
                ("citations", ValueType::Int),
            ]),
        )
        .expect("fresh database");
    for id in 0..n_pubs {
        let year = 2024 - zipf_index(35, 1.1, &mut rng) as i64;
        // Citation counts are famously heavy-tailed.
        let citations = (zipf_index(5000, 1.4, &mut rng)) as i64;
        publication
            .push_row(&[
                Value::Int(id as i64),
                Value::from(title_words.phrase(rng.random_range(3..7), &mut rng)),
                Value::Int(year),
                Value::Int(zipf_index(n_venues, 1.15, &mut rng) as i64),
                Value::Int(citations),
            ])
            .expect("row matches schema");
    }

    let writes = db
        .create_table(
            "writes",
            Schema::build(&[("author_id", ValueType::Int), ("pub_id", ValueType::Int)]),
        )
        .expect("fresh database");
    for _ in 0..n_writes {
        writes
            .push_row(&[
                Value::Int(zipf_index(n_authors, 1.1, &mut rng) as i64),
                Value::Int(zipf_index(n_pubs, 1.05, &mut rng) as i64),
            ])
            .expect("row matches schema");
    }

    db
}

/// Generate `n` SPJ queries over the MAS schema (LearnShapley-style query
/// log: publications by year/venue/field, author–publication joins,
/// citation thresholds).
pub fn workload(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77aa);
    let mut queries = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for i in 0..n {
        let q = match i % 5 {
            // Publications in a year range.
            0 => {
                let lo = rng.random_range(1995..2020);
                let hi = lo + rng.random_range(1..8);
                Query::builder()
                    .select_col("p", "title")
                    .select_col("p", "year")
                    .from_as("publication", "p")
                    .filter(Expr::Between {
                        expr: Box::new(Expr::col("p", "year")),
                        low: Box::new(Expr::lit(lo)),
                        high: Box::new(Expr::lit(hi)),
                        negated: false,
                    })
                    .build()
            }
            // Highly-cited publications.
            1 => {
                let min_c = rng.random_range(50..800);
                Query::builder()
                    .select_col("p", "title")
                    .select_col("p", "citations")
                    .from_as("publication", "p")
                    .filter(Expr::cmp(
                        CmpOp::Ge,
                        Expr::col("p", "citations"),
                        Expr::lit(min_c),
                    ))
                    .build()
            }
            // Publications in a field (join venue).
            2 => {
                let field = FIELDS[zipf_index(FIELDS.len(), 1.1, &mut rng)];
                Query::builder()
                    .select_col("p", "title")
                    .select_col("v", "name")
                    .from_as("publication", "p")
                    .from_as("venue", "v")
                    .join_on("p", "venue_id", "v", "id")
                    .filter(Expr::eq(Expr::col("v", "field"), Expr::lit(field)))
                    .build()
            }
            // Author names for recent publications (3-way join).
            3 => {
                let year = rng.random_range(2010..2022);
                Query::builder()
                    .select_col("a", "name")
                    .select_col("p", "title")
                    .from_as("author", "a")
                    .from_as("writes", "w")
                    .from_as("publication", "p")
                    .join_on("a", "id", "w", "author_id")
                    .join_on("w", "pub_id", "p", "id")
                    .filter(Expr::cmp(
                        CmpOp::Ge,
                        Expr::col("p", "year"),
                        Expr::lit(year),
                    ))
                    .build()
            }
            // Authors by affiliation pattern.
            _ => {
                let letter = (b'a' + rng.random_range(0..6u8)) as char;
                Query::builder()
                    .select_col("a", "name")
                    .select_col("a", "affiliation")
                    .from_as("author", "a")
                    .filter(Expr::Like {
                        expr: Box::new(Expr::col("a", "affiliation")),
                        pattern: format!("{letter}%"),
                        negated: false,
                    })
                    .build()
            }
        };
        queries.push(q);
        weights.push(1.0 / (1.0 + zipf_index(8, 1.1, &mut rng) as f64));
    }
    Workload::weighted(queries, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let db = generate(Scale::Tiny, 3);
        assert_eq!(db.table("author").unwrap().row_count(), 150);
        assert_eq!(db.table("publication").unwrap().row_count(), 350);
        assert_eq!(db.table("writes").unwrap().row_count(), 700);
        let db2 = generate(Scale::Tiny, 3);
        assert_eq!(
            db.table("publication").unwrap().row(5),
            db2.table("publication").unwrap().row(5)
        );
    }

    #[test]
    fn workload_executes() {
        let db = generate(Scale::Tiny, 3);
        let w = workload(20, 3);
        let mut nonempty = 0;
        for (q, _) in w.iter() {
            if !db.execute(q).unwrap().rows.is_empty() {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 14, "nonempty = {nonempty}");
    }

    #[test]
    fn joins_resolve() {
        let db = generate(Scale::Tiny, 3);
        let r = db
            .sql("SELECT COUNT(*) FROM writes w JOIN author a ON w.author_id = a.id")
            .unwrap();
        assert_eq!(r.rows.get(0, 0), Value::Int(700));
    }
}
