//! The approximation-quality metric (paper Eq. 1).
//!
//! ```text
//! score(S) = Σ_q  w(q) · min(1, |q(S)| / min(F, |q(T)|))
//! ```
//!
//! with `Σ w(q) = 1`. (The paper's formula carries an extra `1/|Q|` factor
//! in front; with normalised weights that factor would bound every score by
//! `1/|Q|`, while all scores reported in §6 lie in `[0, 1]` — so the factor
//! is evidently the weight normalisation itself, and we implement it as
//! such.) A query whose full answer is empty contributes its full weight:
//! the empty subset answers it perfectly.

use asqp_db::{Database, DbResult, Workload};
use serde::{Deserialize, Serialize};

/// Metric parameters: the frame size `F` (how many tuples a user can
/// cognitively process; 10–500 in practice, 50 by default per §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricParams {
    pub frame_size: usize,
}

impl Default for MetricParams {
    fn default() -> Self {
        MetricParams { frame_size: 50 }
    }
}

impl MetricParams {
    pub fn new(frame_size: usize) -> Self {
        MetricParams { frame_size }
    }

    /// The denominator cap for one query: `min(F, |q(T)|)`.
    pub fn cap(&self, full_count: usize) -> usize {
        self.frame_size.min(full_count)
    }

    /// Per-query score contribution `min(1, |q(S)| / min(F, |q(T)|))`.
    pub fn query_fraction(&self, subset_count: usize, full_count: usize) -> f64 {
        let cap = self.cap(full_count);
        if cap == 0 {
            return 1.0; // empty truth is perfectly approximated
        }
        (subset_count as f64 / cap as f64).min(1.0)
    }
}

/// Result counts of a workload against the *full* database — computed once
/// and reused, since `|q(T)|` is the expensive half of the metric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullCounts {
    pub counts: Vec<usize>,
}

impl FullCounts {
    /// `|q(T)|` per workload query, via the database's memoised cardinality
    /// cache — repeated scoring runs against one full database (Fig. 2-style
    /// baseline sweeps) execute each distinct query only once. A count that
    /// is not remembered joins the query's row-id tuples and counts them;
    /// it sorts and projects nothing (`Database::cached_row_count`).
    pub fn compute(db: &Database, workload: &Workload) -> DbResult<FullCounts> {
        let counts = workload
            .queries
            .iter()
            .map(|q| db.cached_row_count(q))
            .collect::<DbResult<Vec<_>>>()?;
        Ok(FullCounts { counts })
    }
}

/// Score a materialised approximation set against a workload, given
/// precomputed full counts (Eq. 1).
pub fn score_with_counts(
    subset: &Database,
    workload: &Workload,
    full: &FullCounts,
    params: MetricParams,
) -> DbResult<f64> {
    assert_eq!(
        workload.len(),
        full.counts.len(),
        "full counts must align with the workload"
    );
    let mut total = 0.0;
    for ((q, w), &full_count) in workload.iter().zip(&full.counts) {
        let sub_count = subset.execute(q)?.rows.len();
        total += w * params.query_fraction(sub_count, full_count);
    }
    Ok(total)
}

/// Convenience wrapper that computes full counts internally.
pub fn score(
    db: &Database,
    subset: &Database,
    workload: &Workload,
    params: MetricParams,
) -> DbResult<f64> {
    let full = FullCounts::compute(db, workload)?;
    score_with_counts(subset, workload, &full, params)
}

/// Per-query fractions (used by the estimator's ground truth and Fig. 5).
pub fn per_query_fractions(
    subset: &Database,
    workload: &Workload,
    full: &FullCounts,
    params: MetricParams,
) -> DbResult<Vec<f64>> {
    workload
        .queries
        .iter()
        .zip(&full.counts)
        .map(|(q, &fc)| Ok(params.query_fraction(subset.execute(q)?.rows.len(), fc)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_db::{Query, Schema, Value, ValueType};
    use std::collections::BTreeMap;

    fn db_with_range(n: i64) -> Database {
        let mut db = Database::new();
        let t = db
            .create_table("t", Schema::build(&[("x", ValueType::Int)]))
            .unwrap();
        for i in 0..n {
            t.push_row(&[Value::Int(i)]).unwrap();
        }
        db
    }

    fn workload_lt(bounds: &[i64]) -> Workload {
        Workload::uniform(
            bounds
                .iter()
                .map(|&b| {
                    asqp_db::sql::parse(&format!("SELECT t.x FROM t WHERE t.x < {b}")).unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn perfect_subset_scores_one() {
        let db = db_with_range(100);
        let w = workload_lt(&[10, 20]);
        let s = score(&db, &db, &w, MetricParams::new(50)).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_subset_scores_zero_when_queries_nonempty() {
        let db = db_with_range(100);
        let sub = db.subset(&BTreeMap::new()).unwrap();
        let w = workload_lt(&[10, 20]);
        let s = score(&db, &sub, &w, MetricParams::new(50)).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn frame_size_caps_needed_tuples() {
        let db = db_with_range(1000);
        // Subset containing just x in [0, 50).
        let mut sel = BTreeMap::new();
        sel.insert("t".to_string(), (0..50usize).collect::<Vec<_>>());
        let sub = db.subset(&sel).unwrap();
        // Query returns 500 rows on the full DB, 50 on the subset. With
        // F = 50 the cap is 50, so the subset is perfect.
        let w = workload_lt(&[500]);
        let s = score(&db, &sub, &w, MetricParams::new(50)).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        // With F = 100 the cap is 100, so the subset covers half.
        let s = score(&db, &sub, &w, MetricParams::new(100)).unwrap();
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn small_results_weight_each_tuple_heavily() {
        let db = db_with_range(100);
        let w = workload_lt(&[2]); // full result: {0, 1}
        let mut sel = BTreeMap::new();
        sel.insert("t".to_string(), vec![0usize]);
        let sub = db.subset(&sel).unwrap();
        let s = score(&db, &sub, &w, MetricParams::new(50)).unwrap();
        assert!((s - 0.5).abs() < 1e-12, "one of two result tuples = 0.5");
    }

    #[test]
    fn weights_respected() {
        let db = db_with_range(100);
        let q1 = asqp_db::sql::parse("SELECT t.x FROM t WHERE t.x < 2").unwrap();
        let q2 = asqp_db::sql::parse("SELECT t.x FROM t WHERE t.x >= 50").unwrap();
        let w = Workload::weighted(vec![q1, q2], vec![0.9, 0.1]);
        // Subset answers q1 fully, q2 not at all.
        let mut sel = BTreeMap::new();
        sel.insert("t".to_string(), vec![0usize, 1]);
        let sub = db.subset(&sel).unwrap();
        let s = score(&db, &sub, &w, MetricParams::new(50)).unwrap();
        assert!((s - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_truth_counts_as_answered() {
        let db = db_with_range(10);
        let w = workload_lt(&[-5]); // empty result on the full DB
        let sub = db.subset(&BTreeMap::new()).unwrap();
        let s = score(&db, &sub, &w, MetricParams::new(50)).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_subset() {
        let db = db_with_range(200);
        let w = workload_lt(&[40, 120, 77]);
        let params = MetricParams::new(30);
        let mut last = -1.0;
        for take in [0usize, 10, 50, 100, 200] {
            let mut sel = BTreeMap::new();
            sel.insert("t".to_string(), (0..take).collect::<Vec<_>>());
            let sub = db.subset(&sel).unwrap();
            let s = score(&db, &sub, &w, params).unwrap();
            assert!(s >= last - 1e-12, "score must grow with the subset");
            last = s;
        }
        assert!((last - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_align() {
        let db = db_with_range(100);
        let w = workload_lt(&[2, 200]);
        let full = FullCounts::compute(&db, &w).unwrap();
        assert_eq!(full.counts, vec![2, 100]);
        let mut sel = BTreeMap::new();
        sel.insert("t".to_string(), vec![0usize]);
        let sub = db.subset(&sel).unwrap();
        let fr = per_query_fractions(&sub, &w, &full, MetricParams::new(50)).unwrap();
        assert!((fr[0] - 0.5).abs() < 1e-12);
        assert!((fr[1] - 0.02).abs() < 1e-12);
        let _ = Query::scan("t");
    }
}
