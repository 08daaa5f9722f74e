//! Result-diversity measurement (paper §6.2 "Diversity Comparison"): the
//! standard pairwise-Jaccard-distance metric over query answers.

use asqp_db::{Database, DbResult, Query, Rows, Value, Workload};
// Ordered sets: token iteration stays deterministic (iter-order invariant).
use std::collections::BTreeSet;

/// Token set of one result row (string values tokenize; others stringify).
fn row_tokens(row: &[Value]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for v in row {
        match v {
            Value::Str(s) => {
                for t in asqp_embed::tokenize(s) {
                    set.insert(t);
                }
            }
            other => {
                set.insert(other.to_string());
            }
        }
    }
    set
}

/// Jaccard distance between two rows' token sets.
fn jaccard_distance(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.union(b).count();
    if union == 0 {
        0.0
    } else {
        1.0 - inter as f64 / union as f64
    }
}

/// Mean pairwise Jaccard distance over a result's rows. Results with fewer
/// than two rows have no pairs and score 0. Row count should be bounded by
/// the caller (the paper uses `LIMIT 100`).
pub fn result_diversity(rows: &Rows) -> f64 {
    if rows.len() < 2 {
        return 0.0;
    }
    let tokens: Vec<BTreeSet<String>> = rows.iter().map(|row| row_tokens(&row)).collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..tokens.len() {
        for j in (i + 1)..tokens.len() {
            total += jaccard_distance(&tokens[i], &tokens[j]);
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Average diversity of a workload's answers on a database, each query
/// executed with `LIMIT limit` (paper: 100). Queries with empty answers are
/// skipped.
pub fn workload_diversity(db: &Database, workload: &Workload, limit: usize) -> DbResult<f64> {
    let mut total = 0.0;
    let mut counted = 0usize;
    for q in &workload.queries {
        let mut q: Query = q.clone();
        q.limit = Some(limit.min(q.limit.unwrap_or(usize::MAX)));
        let rows = db.execute(&q)?.rows;
        if rows.len() >= 2 {
            total += result_diversity(&rows);
            counted += 1;
        }
    }
    Ok(if counted == 0 {
        0.0
    } else {
        total / counted as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two one-column rows.
    fn texts(rows: [&str; 2]) -> Rows {
        rows.into_iter().map(|text| [Value::from(text)]).collect()
    }

    #[test]
    fn identical_rows_have_zero_diversity() {
        assert_eq!(result_diversity(&texts(["same words", "same words"])), 0.0);
    }

    #[test]
    fn disjoint_rows_have_full_diversity() {
        let rows = texts(["alpha beta", "gamma delta"]);
        assert!((result_diversity(&rows) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_in_between() {
        let d = result_diversity(&texts(["alpha beta", "beta gamma"]));
        assert!(d > 0.0 && d < 1.0, "d = {d}");
    }

    #[test]
    fn single_row_scores_zero() {
        let one: Rows = [[Value::Int(1)]].into_iter().collect();
        assert_eq!(result_diversity(&one), 0.0);
        assert_eq!(result_diversity(&Rows::default()), 0.0);
    }

    #[test]
    fn workload_diversity_on_dataset() {
        use asqp_data::{imdb, Scale};
        let db = imdb::generate(Scale::Tiny, 1);
        let w = imdb::workload(8, 1);
        let d = workload_diversity(&db, &w, 50).unwrap();
        assert!(d > 0.2 && d <= 1.0, "IMDB answers should be diverse: {d}");
    }
}
