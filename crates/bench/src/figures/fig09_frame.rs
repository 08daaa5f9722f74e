//! **Fig. 9 — effect of the frame size F**: score as F sweeps over
//! {25, 50, 75, 100} with the memory budget fixed. Larger frames demand
//! more tuples per query, so every method degrades; ASQP-RL should stay on
//! top throughout.

use super::{heading, sweep, FigResult};
use crate::*;
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct SweepPoint {
    method: String,
    frame: usize,
    score: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 9 — score vs frame size F", env)?;

    let fx = Fixture::load(Dataset::Imdb, 40, env)?;
    let frames = [25usize, 50, 75, 100];

    let columns = frames.map(|f| (format!("F={f}"), fx.k, f));
    let rows = sweep(env, &fx, "Fig. 9 — score vs F (k fixed)", &columns, out)?;
    let mut points = Vec::new();
    for (method, scores) in &rows {
        points.extend(
            frames
                .iter()
                .zip(scores)
                .map(|(&frame, &score)| SweepPoint {
                    method: method.clone(),
                    frame,
                    score,
                }),
        );
    }

    // Shape: scores weakly decrease in F for ASQP (harder problem).
    let dec = rows[0].1.windows(2).filter(|w| w[1] <= w[0] + 0.03).count();
    writeln!(
        out,
        "\nASQP monotonicity in F: {dec}/3 steps non-increasing ({})",
        if dec >= 2 {
            "expected shape ✓"
        } else {
            "noisy"
        }
    )?;
    Ok(serde_json::to_string_pretty(&points)?)
}
