//! The answerability estimator (paper §4.4): given a user query, predict
//! whether the approximation set can answer it, from (a) the query's
//! embedding-space closeness to the training workload and (b) the model's
//! measured per-query quality on that workload.

use crate::metric::{per_query_fractions, FullCounts, MetricParams};
use crate::model::TrainedModel;
use asqp_db::{Database, DbResult, Query};
use asqp_embed::{cosine_with_norms, norm, Embedder};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Prediction for one query.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted Eq.-1 fraction in `[0, 1]`.
    pub score: f64,
    /// Confidence: similarity to the nearest training query in `[0, 1]`.
    pub confidence: f64,
}

impl Prediction {
    pub fn answerable(&self, threshold: f64) -> bool {
        self.score >= threshold
    }
}

/// k-NN regressor over query embeddings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnswerabilityEstimator {
    embedder: Embedder,
    train_points: Vec<Vec<f32>>,
    /// `norm` of each training point, filled on the first `predict`; derived
    /// from `train_points`, so never serialised.
    #[serde(skip)]
    train_norms: OnceLock<Vec<f32>>,
    /// Measured Eq.-1 fraction of each training query on the approximation
    /// set (the "existing model's performance on the training workload").
    train_scores: Vec<f64>,
    pub k_neighbors: usize,
    /// A query scoring at least this is considered answerable (paper: 0.5).
    pub threshold: f64,
}

impl AnswerabilityEstimator {
    /// Fit the estimator: evaluate the training workload on the materialised
    /// approximation set and remember (embedding, achieved fraction) pairs.
    pub fn fit(
        model: &TrainedModel,
        db: &Database,
        subset: &Database,
        params: MetricParams,
    ) -> DbResult<Self> {
        let full = FullCounts::compute(db, &model.train_workload)?;
        let fractions = per_query_fractions(subset, &model.train_workload, &full, params)?;
        Ok(AnswerabilityEstimator {
            embedder: model.embedder.clone(),
            train_points: model.train_embeddings.clone(),
            train_norms: OnceLock::new(),
            train_scores: fractions,
            k_neighbors: 5,
            threshold: 0.5,
        })
    }

    /// Construct directly from (embedding, score) pairs — used in tests and
    /// by the no-workload mode.
    pub fn from_points(
        embedder: Embedder,
        train_points: Vec<Vec<f32>>,
        train_scores: Vec<f64>,
    ) -> Self {
        assert_eq!(train_points.len(), train_scores.len());
        AnswerabilityEstimator {
            embedder,
            train_points,
            train_norms: OnceLock::new(),
            train_scores,
            k_neighbors: 5,
            threshold: 0.5,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.train_points.is_empty()
    }

    /// Predict the achievable fraction for a query: similarity-weighted
    /// average over the k nearest training queries. Aggregates are rewritten
    /// to SPJ first, exactly as at answer time.
    // asqp::panic-free-audited: the only index is `top.insert` at a
    // `partition_point` of `top`, which is at most its length
    pub fn predict(&self, q: &Query) -> Prediction {
        if self.train_points.is_empty() {
            return Prediction {
                score: 0.0,
                confidence: 0.0,
            };
        }
        let stripped;
        let q = if q.is_aggregate() {
            stripped = q.strip_aggregates();
            &stripped
        } else {
            q
        };
        let v = self.embedder.embed_query(q);
        let nv = norm(&v);
        let norms = self
            .train_norms
            .get_or_init(|| self.train_points.iter().map(|p| norm(p)).collect());
        // The k most similar, most similar first and ties in training
        // order — what a stable descending sort of all points would put
        // first; the weighted sums below are order-sensitive in floating
        // point, so the order is part of the result.
        let k = self.k_neighbors.min(self.train_points.len());
        let mut top: Vec<(f64, f64)> = Vec::with_capacity(k + 1);
        for ((p, &np), &s) in self.train_points.iter().zip(norms).zip(&self.train_scores) {
            let sim = cosine_with_norms(p, np, &v, nv).max(0.0) as f64;
            if top.len() == k && top.last().is_none_or(|t| sim <= t.0) {
                continue;
            }
            top.insert(top.partition_point(|t| t.0 >= sim), (sim, s));
            top.truncate(k);
        }
        let confidence = top.first().map(|t| t.0).unwrap_or(0.0);
        // Sharpened similarity weights (sim^8): an (almost-)exact training
        // match dominates its neighbourhood instead of being smoothed away,
        // while genuinely-new queries still average their nearest cluster.
        let wsum: f64 = top.iter().map(|t| t.0.powi(8)).sum();
        let score = if wsum > 1e-9 {
            top.iter().map(|(w, s)| w.powi(8) * s).sum::<f64>() / wsum
        } else {
            0.0 // nothing similar in the training workload
        };
        // Far-away queries are discounted: similarity gates the prediction.
        let gated = score * confidence.sqrt();
        Prediction {
            score: gated.clamp(0.0, 1.0),
            confidence,
        }
    }

    /// Classification quality against measured ground truth:
    /// `(precision, recall)` of the "answerable" label at the configured
    /// threshold (the Fig. 5 measurement).
    pub fn precision_recall(&self, queries: &[Query], true_fractions: &[f64]) -> (f64, f64) {
        assert_eq!(queries.len(), true_fractions.len());
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fnn = 0usize;
        for (q, &truth) in queries.iter().zip(true_fractions) {
            let pred = self.predict(q).answerable(self.threshold);
            let real = truth >= self.threshold;
            match (pred, real) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fnn += 1,
                (false, false) => {}
            }
        }
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fnn == 0 {
            1.0
        } else {
            tp as f64 / (tp + fnn) as f64
        };
        (precision, recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_db::sql::parse;

    fn estimator() -> AnswerabilityEstimator {
        let e = Embedder::new(128);
        let q_good = parse("SELECT t.title FROM title t WHERE t.production_year > 2000").unwrap();
        let q_good2 = parse("SELECT t.title FROM title t WHERE t.production_year > 2005").unwrap();
        let q_bad = parse("SELECT f.origin FROM flights f WHERE f.dep_delay > 30").unwrap();
        let pts = vec![
            e.embed_query(&q_good),
            e.embed_query(&q_good2),
            e.embed_query(&q_bad),
        ];
        AnswerabilityEstimator::from_points(e, pts, vec![0.9, 0.85, 0.05])
    }

    #[test]
    fn similar_query_predicted_answerable() {
        let est = estimator();
        let q = parse("SELECT t.title FROM title t WHERE t.production_year > 2010").unwrap();
        let p = est.predict(&q);
        assert!(p.confidence > 0.5, "confidence = {}", p.confidence);
        assert!(p.answerable(0.5), "score = {}", p.score);
    }

    #[test]
    fn dissimilar_query_predicted_unanswerable() {
        let est = estimator();
        let q = parse("SELECT a.name FROM author a WHERE a.affiliation LIKE 'x%'").unwrap();
        let p = est.predict(&q);
        assert!(!p.answerable(0.5), "score = {}", p.score);
    }

    #[test]
    fn flight_query_maps_to_low_scoring_neighbor() {
        let est = estimator();
        let q = parse("SELECT f.origin FROM flights f WHERE f.dep_delay > 45").unwrap();
        let p = est.predict(&q);
        assert!(p.confidence > 0.5, "close to a training query");
        assert!(p.score < 0.5, "but that query scored poorly: {}", p.score);
    }

    #[test]
    fn empty_estimator_says_unanswerable() {
        let e = Embedder::new(32);
        let est = AnswerabilityEstimator::from_points(e, vec![], vec![]);
        let q = parse("SELECT t.x FROM t").unwrap();
        let p = est.predict(&q);
        assert_eq!(p.score, 0.0);
        assert_eq!(p.confidence, 0.0);
        assert!(est.is_empty());
    }

    #[test]
    fn precision_recall_on_known_labels() {
        let est = estimator();
        let queries = vec![
            parse("SELECT t.title FROM title t WHERE t.production_year > 2008").unwrap(),
            parse("SELECT f.origin FROM flights f WHERE f.dep_delay > 60").unwrap(),
        ];
        let truths = vec![0.88, 0.02];
        let (p, r) = est.precision_recall(&queries, &truths);
        assert_eq!(p, 1.0);
        assert_eq!(r, 1.0);
    }

    /// `predict` as it was before the norms were cached and the sort became
    /// a top-k selection: three passes per training point, a full stable
    /// sort. The contract is bit equality with this.
    fn predict_reference(est: &AnswerabilityEstimator, q: &Query) -> Prediction {
        fn cosine(a: &[f32], b: &[f32]) -> f32 {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                (dot / (na * nb)).clamp(-1.0, 1.0)
            }
        }
        if est.train_points.is_empty() {
            return Prediction {
                score: 0.0,
                confidence: 0.0,
            };
        }
        let v = est.embedder.embed_query(&q.strip_aggregates());
        let mut sims: Vec<(f64, f64)> = est
            .train_points
            .iter()
            .zip(&est.train_scores)
            .map(|(p, &s)| (cosine(p, &v).max(0.0) as f64, s))
            .collect();
        sims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let top = &sims[..est.k_neighbors.min(sims.len())];
        let confidence = top.first().map(|t| t.0).unwrap_or(0.0);
        let wsum: f64 = top.iter().map(|t| t.0.powi(8)).sum();
        let score = if wsum > 1e-9 {
            top.iter().map(|(w, s)| w.powi(8) * s).sum::<f64>() / wsum
        } else {
            0.0
        };
        Prediction {
            score: (score * confidence.sqrt()).clamp(0.0, 1.0),
            confidence,
        }
    }

    fn assert_same_bits(est: &AnswerabilityEstimator, q: &Query) {
        let (got, want) = (est.predict(q), predict_reference(est, q));
        let bits = |p: Prediction| (p.score.to_bits(), p.confidence.to_bits());
        assert_eq!(
            bits(got),
            bits(want),
            "{got:?} vs {want:?} on {}",
            q.to_sql()
        );
    }

    #[test]
    fn predictions_are_bit_identical_to_the_reference_on_fitted_estimators() {
        use crate::model::{train, AsqpConfig};
        use asqp_data::{flights, imdb, mas, Scale};
        let mut cfg = AsqpConfig::full(60, 20);
        cfg.preprocess.n_representatives = 6;
        cfg.preprocess.max_actions = 64;
        cfg.preprocess.per_query_cap = 40;
        cfg.trainer.steps_per_worker = 32;
        cfg.trainer.hidden = vec![16];
        cfg.iterations = 2;
        type Dataset = (
            fn(Scale, u64) -> Database,
            fn(usize, u64) -> asqp_db::Workload,
        );
        let datasets: [Dataset; 3] = [
            (imdb::generate, imdb::workload),
            (mas::generate, mas::workload),
            (flights::generate, flights::workload),
        ];
        for (generate, workload) in datasets {
            let db = generate(Scale::Tiny, 7);
            let model = train(&db, &workload(40, 7), &cfg).unwrap();
            let subset = model.materialize(&db, None).unwrap();
            let est =
                AnswerabilityEstimator::fit(&model, &db, &subset, cfg.metric_params()).unwrap();
            assert!(!est.is_empty());
            for q in &workload(240, 1007).queries {
                assert_same_bits(&est, q);
            }
        }
    }

    /// Ties must come out in training order (the weighted sum is
    /// order-sensitive), a zero vector has similarity 0, and `k_neighbors`
    /// past the point count or at 0 changes nothing else.
    #[test]
    fn predictions_are_bit_identical_on_ties_and_zero_vectors() {
        let e = Embedder::new(64);
        let q = parse("SELECT t.title FROM title t WHERE t.production_year > 2000").unwrap();
        let other = parse("SELECT t.title FROM title t WHERE t.rating > 7").unwrap();
        let (v, w) = (e.embed_query(&q), e.embed_query(&other));
        let zero = vec![0.0f32; v.len()];
        // Seven points, three distinct similarities; the tied ones carry
        // scores whose sum depends on the order they are added in.
        let points = vec![
            w.clone(),
            v.clone(),
            zero.clone(),
            w.clone(),
            v.clone(),
            w,
            v,
        ];
        let scores = vec![0.1, 0.3, 0.9, 1e-17, 0.7, 0.2, 1e-16];
        for k in [0, 1, 2, 3, 5, 7, 50] {
            let mut est =
                AnswerabilityEstimator::from_points(e.clone(), points.clone(), scores.clone());
            est.k_neighbors = k;
            for query in [&q, &other] {
                assert_same_bits(&est, query);
            }
        }
        let all_zero =
            AnswerabilityEstimator::from_points(e, vec![zero.clone(), zero], vec![0.5, 0.6]);
        assert_same_bits(&all_zero, &q);
        assert_eq!(all_zero.predict(&q).score, 0.0);
    }

    #[test]
    fn aggregate_queries_rewritten_before_prediction() {
        let est = estimator();
        let agg = parse(
            "SELECT t.production_year, COUNT(*) FROM title t \
             WHERE t.production_year > 2003 GROUP BY t.production_year",
        )
        .unwrap();
        let p = est.predict(&agg);
        assert!(
            p.confidence > 0.3,
            "SPJ rewrite should match training: {}",
            p.confidence
        );
    }
}
