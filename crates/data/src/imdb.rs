//! IMDB-JOB-shaped synthetic dataset and SPJ workload.
//!
//! Mirrors the join structure exercised by the Join Order Benchmark
//! (Leis et al., VLDB 2015) that the paper evaluates on: a fact table of
//! titles with satellite person / company tables linked through junction
//! tables, Zipf-skewed text values and a recency-skewed year distribution.

use crate::common::{normal, zipf_index, Scale, WordPool};
use asqp_db::{CmpOp, ColRef, Database, Expr, Query, Schema, Value, ValueType, Workload};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const KINDS: &[&str] = &["movie", "tv_series", "short", "video", "documentary"];
const COUNTRIES: &[&str] = &["us", "uk", "fr", "de", "jp", "in", "it", "ca"];
const ROLES: &[&str] = &["actor", "actress", "director", "producer", "writer"];
const GENDERS: &[&str] = &["m", "f"];

/// Generate the IMDB-shaped database. Deterministic in `seed`.
pub fn generate(scale: Scale, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = scale.factor();
    let n_titles = 300 * f;
    let n_people = 200 * f;
    let n_companies = 20 + 2 * f;
    let n_cast = 900 * f;
    let n_movie_companies = 400 * f;

    let title_words = WordPool::new(400, 1.1, &mut rng);
    let name_words = WordPool::new(600, 1.05, &mut rng);

    let mut db = Database::new();

    // --- title -----------------------------------------------------------
    let title = db
        .create_table(
            "title",
            Schema::build(&[
                ("id", ValueType::Int),
                ("title", ValueType::Str),
                ("production_year", ValueType::Int),
                ("kind", ValueType::Str),
                ("rating", ValueType::Float),
            ]),
        )
        .expect("fresh database");
    for id in 0..n_titles {
        // Recency skew: most titles are recent.
        let year = 2025 - zipf_index(100, 1.2, &mut rng) as i64;
        let kind = KINDS[zipf_index(KINDS.len(), 1.3, &mut rng)];
        let rating = normal(6.5, 1.2, &mut rng).clamp(1.0, 10.0);
        title
            .push_row(&[
                Value::Int(id as i64),
                Value::from(title_words.phrase(rng.random_range(1..4), &mut rng)),
                Value::Int(year),
                Value::from(kind),
                Value::Float((rating * 10.0).round() / 10.0),
            ])
            .expect("row matches schema");
    }

    // --- person ----------------------------------------------------------
    let person = db
        .create_table(
            "person",
            Schema::build(&[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("gender", ValueType::Str),
            ]),
        )
        .expect("fresh database");
    for id in 0..n_people {
        person
            .push_row(&[
                Value::Int(id as i64),
                Value::from(name_words.phrase(2, &mut rng)),
                Value::from(GENDERS[rng.random_range(0..GENDERS.len())]),
            ])
            .expect("row matches schema");
    }

    // --- company ---------------------------------------------------------
    let company = db
        .create_table(
            "company",
            Schema::build(&[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("country", ValueType::Str),
            ]),
        )
        .expect("fresh database");
    for id in 0..n_companies {
        company
            .push_row(&[
                Value::Int(id as i64),
                Value::from(name_words.phrase(1, &mut rng)),
                Value::from(COUNTRIES[zipf_index(COUNTRIES.len(), 1.1, &mut rng)]),
            ])
            .expect("row matches schema");
    }

    // --- cast_info (skewed: popular titles/people get more rows) ----------
    let cast = db
        .create_table(
            "cast_info",
            Schema::build(&[
                ("movie_id", ValueType::Int),
                ("person_id", ValueType::Int),
                ("role", ValueType::Str),
            ]),
        )
        .expect("fresh database");
    for _ in 0..n_cast {
        cast.push_row(&[
            Value::Int(zipf_index(n_titles, 1.05, &mut rng) as i64),
            Value::Int(zipf_index(n_people, 1.05, &mut rng) as i64),
            Value::from(ROLES[zipf_index(ROLES.len(), 1.2, &mut rng)]),
        ])
        .expect("row matches schema");
    }

    // --- movie_companies ---------------------------------------------------
    let mc = db
        .create_table(
            "movie_companies",
            Schema::build(&[("movie_id", ValueType::Int), ("company_id", ValueType::Int)]),
        )
        .expect("fresh database");
    for _ in 0..n_movie_companies {
        mc.push_row(&[
            Value::Int(zipf_index(n_titles, 1.05, &mut rng) as i64),
            Value::Int(zipf_index(n_companies, 1.2, &mut rng) as i64),
        ])
        .expect("row matches schema");
    }

    db
}

/// Generate `n` SPJ queries over the IMDB schema, JOB-style: year ranges,
/// kind/country/role/gender equality filters, LIKE on titles, 2- and 3-way
/// joins. Weights are Zipf-ish (a few queries dominate the workload).
pub fn workload(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1b9d);
    let title_like_words = ["a%", "b%", "s%", "%a", "%r%", "t%", "%s"];
    let mut queries = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);

    for i in 0..n {
        let template = i % 6;
        let q = match template {
            // T1: year-range scan over titles.
            0 => {
                let lo = rng.random_range(1930..2020);
                let hi = lo + rng.random_range(2..25);
                Query::builder()
                    .select_col("t", "title")
                    .select_col("t", "production_year")
                    .from_as("title", "t")
                    .filter(Expr::Between {
                        expr: Box::new(Expr::col("t", "production_year")),
                        low: Box::new(Expr::lit(lo)),
                        high: Box::new(Expr::lit(hi)),
                        negated: false,
                    })
                    .build()
            }
            // T2: kind + rating filter.
            1 => {
                let kind = KINDS[rng.random_range(0..KINDS.len())];
                let min_rating = rng.random_range(40..90) as f64 / 10.0;
                Query::builder()
                    .select_col("t", "title")
                    .select_col("t", "rating")
                    .from_as("title", "t")
                    .filter(Expr::and(
                        Expr::eq(Expr::col("t", "kind"), Expr::lit(kind)),
                        Expr::cmp(CmpOp::Ge, Expr::col("t", "rating"), Expr::lit(min_rating)),
                    ))
                    .build()
            }
            // T3: title ⋈ cast_info ⋈ person with gender + year filters.
            2 => {
                let gender = GENDERS[rng.random_range(0..GENDERS.len())];
                let year = rng.random_range(1950..2022);
                Query::builder()
                    .select_col("t", "title")
                    .select_col("p", "name")
                    .from_as("title", "t")
                    .from_as("cast_info", "c")
                    .from_as("person", "p")
                    .join_on("t", "id", "c", "movie_id")
                    .join_on("c", "person_id", "p", "id")
                    .filter(Expr::and(
                        Expr::eq(Expr::col("p", "gender"), Expr::lit(gender)),
                        Expr::cmp(
                            CmpOp::Gt,
                            Expr::col("t", "production_year"),
                            Expr::lit(year),
                        ),
                    ))
                    .build()
            }
            // T4: title ⋈ movie_companies ⋈ company with country filter.
            3 => {
                let country = COUNTRIES[rng.random_range(0..COUNTRIES.len())];
                Query::builder()
                    .select_col("t", "title")
                    .select_col("co", "name")
                    .from_as("title", "t")
                    .from_as("movie_companies", "mc")
                    .from_as("company", "co")
                    .join_on("t", "id", "mc", "movie_id")
                    .join_on("mc", "company_id", "co", "id")
                    .filter(Expr::eq(Expr::col("co", "country"), Expr::lit(country)))
                    .build()
            }
            // T5: LIKE pattern on titles.
            4 => {
                let pat = title_like_words[rng.random_range(0..title_like_words.len())];
                Query::builder()
                    .select_col("t", "title")
                    .from_as("title", "t")
                    .filter(Expr::Like {
                        expr: Box::new(Expr::col("t", "title")),
                        pattern: pat.to_string(),
                        negated: false,
                    })
                    .build()
            }
            // T6: role-filtered join.
            _ => {
                let role = ROLES[rng.random_range(0..ROLES.len())];
                let year = rng.random_range(1975..2022);
                Query::builder()
                    .select_col("t", "title")
                    .select_col("c", "role")
                    .from_as("title", "t")
                    .from_as("cast_info", "c")
                    .join_on("t", "id", "c", "movie_id")
                    .filter(Expr::and(
                        Expr::eq(Expr::col("c", "role"), Expr::lit(role)),
                        Expr::cmp(
                            CmpOp::Ge,
                            Expr::col("t", "production_year"),
                            Expr::lit(year),
                        ),
                    ))
                    .build()
            }
        };
        queries.push(q);
        weights.push(1.0 / (1.0 + zipf_index(10, 1.1, &mut rng) as f64));
    }
    let _ = ColRef::bare("unused"); // keep import rooted if templates change
    Workload::weighted(queries, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_db_has_expected_shape() {
        let db = generate(Scale::Tiny, 1);
        assert_eq!(db.table("title").unwrap().row_count(), 300);
        assert_eq!(db.table("person").unwrap().row_count(), 200);
        assert_eq!(db.table("cast_info").unwrap().row_count(), 900);
        assert!(db.has_table("company") && db.has_table("movie_companies"));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(Scale::Tiny, 9);
        let b = generate(Scale::Tiny, 9);
        assert_eq!(
            a.table("title").unwrap().row(7),
            b.table("title").unwrap().row(7)
        );
    }

    #[test]
    fn workload_queries_execute_with_results() {
        let db = generate(Scale::Tiny, 1);
        let w = workload(24, 1);
        assert_eq!(w.len(), 24);
        let mut nonempty = 0;
        for (q, _) in w.iter() {
            let r = db.execute(q).expect("query must execute");
            if !r.rows.is_empty() {
                nonempty += 1;
            }
        }
        assert!(
            nonempty >= 18,
            "most workload queries should be non-empty: {nonempty}/24"
        );
    }

    #[test]
    fn weights_normalised() {
        let w = workload(10, 3);
        assert!((w.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn foreign_keys_in_range() {
        let db = generate(Scale::Tiny, 2);
        let r = db
            .sql(
                "SELECT COUNT(*) FROM cast_info c JOIN title t ON c.movie_id = t.id \
                 JOIN person p ON c.person_id = p.id",
            )
            .unwrap();
        // Every cast row joins (ids generated within range).
        assert_eq!(r.rows.get(0, 0), Value::Int(900));
    }
}
