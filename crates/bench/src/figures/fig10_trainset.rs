//! **Fig. 10 — effect of the training-set size**: (a) score and (b) setup
//! time as the share of training queries actually executed shrinks
//! {100%, 75%, 50%, 25%}.

use super::{heading, FigResult};
use crate::*;
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct TrainsetPoint {
    share: f64,
    score: f64,
    setup_secs: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 10 — score & time vs training-set share", env)?;

    let fx = Fixture::load(Dataset::Imdb, 60, env)?;
    let cfg = scaled_config(env, fx.k, 50);

    let mut table = ReportTable::new(
        "Fig. 10 — ASQP-RL vs training share",
        &["train share", "score", "setup"],
    );
    let mut points = Vec::new();
    for share in [1.0f64, 0.75, 0.5, 0.25] {
        let train_w = fx.train.truncate_frac(share);
        let (m, _) = fx.asqp(&train_w, &cfg, "ASQP-RL")?;
        writeln!(
            out,
            "  share {share:.2} ({} queries): score {:.3}, setup {}",
            train_w.len(),
            m.score,
            fmt_secs(m.setup_secs)
        )?;
        table.row(vec![
            format!("{:.0}%", share * 100.0),
            format!("{:.3}", m.score),
            fmt_secs(m.setup_secs),
        ]);
        points.push(TrainsetPoint {
            share,
            score: m.score,
            setup_secs: m.setup_secs,
        });
    }
    print_table(out, &table)?;

    let (full, quarter) = (&points[0], &points[3]);
    writeln!(
        out,
        "\n25% of the training queries keeps {:.0}% of the quality at {:.0}% of the time",
        100.0 * quarter.score / full.score.max(1e-9),
        100.0 * quarter.setup_secs / full.setup_secs.max(1e-9)
    )?;
    Ok(serde_json::to_string_pretty(&points)?)
}
