//! **§6.2 diversity comparison**: mean pairwise-Jaccard diversity of query
//! answers (each query run with LIMIT 100) on the full database, the
//! ASQP-RL approximation set, and every fast baseline's subset. The paper
//! reports DB ≈ 58%, ASQP ≈ 52%, and ASQP ≥ 14% above any baseline while
//! staying close to RAN.

use super::{heading, FigResult};
use crate::*;
use asqp_core::{score_with_counts, workload_diversity};
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct DiversityRow {
    method: String,
    diversity: f64,
    score: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "§6.2 — answer diversity", env)?;

    let fx = Fixture::load(Dataset::Imdb, 40, env)?;
    let cfg = scaled_config(env, fx.k, 50);
    let params = cfg.metric_params();

    let mut table = ReportTable::new(
        "§6.2 — diversity (pairwise Jaccard, LIMIT 100) and score",
        &["method", "diversity", "score"],
    );
    let mut rows = Vec::new();
    let mut record = |method: &str, diversity: f64, score: f64| {
        table.row(vec![
            method.into(),
            format!("{diversity:.3}"),
            format!("{score:.3}"),
        ]);
        rows.push(DiversityRow {
            method: method.into(),
            diversity,
            score,
        });
    };

    // Reference: the full database.
    let db_div = workload_diversity(&fx.db, &fx.test, 100)?;
    writeln!(out, "  full DB   diversity {db_div:.3}")?;
    record("full DB", db_div, 1.0);

    // ASQP-RL.
    let (m, model) = fx.asqp(&fx.train, &cfg, "ASQP-RL")?;
    let sub = model.materialize(&fx.db, None)?;
    let asqp_div = workload_diversity(&sub, &fx.test, 100)?;
    writeln!(
        out,
        "  ASQP-RL   diversity {asqp_div:.3}  score {:.3}",
        m.score
    )?;
    record("ASQP-RL", asqp_div, m.score);

    for mut b in fast_roster(env) {
        let bsub = b
            .build(&fx.db, &fx.train, fx.k, params)?
            .materialize(&fx.db)?;
        let d = workload_diversity(&bsub, &fx.test, 100)?;
        let s = score_with_counts(&bsub, &fx.test, &fx.counts, params)?;
        writeln!(out, "  {:<8}  diversity {d:.3}  score {s:.3}", b.name())?;
        record(b.name(), d, s);
    }
    print_table(out, &table)?;

    writeln!(
        out,
        "\nASQP diversity {asqp_div:.3} vs full DB {db_div:.3} ({})",
        if asqp_div >= db_div * 0.7 {
            "close to the DB's natural diversity ✓"
        } else {
            "lower than the paper's ratio"
        }
    )?;
    Ok(serde_json::to_string_pretty(&rows)?)
}
