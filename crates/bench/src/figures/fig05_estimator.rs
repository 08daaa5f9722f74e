//! **Fig. 5 — Answers-estimation quality**: the answerability estimator's
//! precision and recall as the share of training queries shrinks
//! {100%, 75%, 50%}, plus the paper's two full-system fallback variants
//! (query the DB when the prediction falls below 0.6 / 0.8).

use super::{heading, FigResult};
use crate::*;
use asqp_core::{per_query_fractions, AnswerabilityEstimator};
use asqp_db::{Database, DbResult, Workload};
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct EstimatorRow {
    train_share: f64,
    precision: f64,
    recall: f64,
}

#[derive(Serialize)]
struct FallbackRow {
    threshold: f64,
    avg_score: f64,
    query_avg_secs: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 5 — estimator quality", env)?;

    let fx = Fixture::load(Dataset::Imdb, 60, env)?;
    let cfg = scaled_config(env, fx.k, 50);
    let params = cfg.metric_params();
    // Train on `train_w`; return the set, its estimator and the true
    // per-test-query fractions the estimator is judged against.
    let fit = |train_w: &Workload| -> DbResult<(Database, AnswerabilityEstimator, Vec<f64>)> {
        let model = asqp_core::train(&fx.db, train_w, &cfg)?;
        let sub = model.materialize(&fx.db, None)?;
        let est = AnswerabilityEstimator::fit(&model, &fx.db, &sub, params)?;
        let truths = per_query_fractions(&sub, &fx.test, &fx.counts, params)?;
        Ok((sub, est, truths))
    };

    // Part 1: precision/recall vs share of training queries used.
    let mut table = ReportTable::new(
        "Fig. 5 — estimator precision/recall vs training share",
        &["train share", "precision", "recall"],
    );
    let mut rows = Vec::new();
    for share in [1.0f64, 0.75, 0.5] {
        let (_, est, truths) = fit(&fx.train.truncate_frac(share))?;
        let (precision, recall) = est.precision_recall(&fx.test.queries, &truths);
        writeln!(
            out,
            "  share {share:.2}: precision {precision:.2} recall {recall:.2}"
        )?;
        table.row(vec![
            format!("{:.0}%", share * 100.0),
            format!("{precision:.2}"),
            format!("{recall:.2}"),
        ]);
        rows.push(EstimatorRow {
            train_share: share,
            precision,
            recall,
        });
    }
    print_table(out, &table)?;

    // Part 2: full-system fallback — query the real DB whenever the
    // estimator predicts below the threshold; report average achieved
    // score and the time to answer 10 queries.
    let (sub, est, truths) = fit(&fx.train)?;
    let mut table2 = ReportTable::new(
        "Fig. 5 — DB-fallback variants",
        &["fallback below", "avg score", "QueryAvg(10q)"],
    );
    let mut fb_rows = Vec::new();
    for threshold in [0.0f64, 0.6, 0.8] {
        // Queries routed to the DB achieve a perfect score, at DB cost.
        let (total_score, secs) = timed(|| {
            let mut total_score = 0.0;
            for (qi, q) in fx.test.queries.iter().enumerate() {
                let routed_to_db = est.predict(q).score < threshold;
                total_score += if routed_to_db { 1.0 } else { truths[qi] };
                if qi < 10 {
                    if routed_to_db { &fx.db } else { &sub }.execute(q)?;
                }
            }
            DbResult::Ok(total_score)
        });
        let avg_score = total_score? / fx.test.len() as f64;
        writeln!(
            out,
            "  threshold {threshold:.1}: avg score {avg_score:.3}, 10 queries in {}",
            fmt_secs(secs)
        )?;
        table2.row(vec![
            format!("{threshold:.1}"),
            format!("{avg_score:.3}"),
            fmt_secs(secs),
        ]);
        fb_rows.push(FallbackRow {
            threshold,
            avg_score,
            query_avg_secs: secs,
        });
    }
    print_table(out, &table2)?;
    Ok(serde_json::to_string_pretty(&(rows, fb_rows))?)
}
