//! **Fig. 8 — effect of the memory budget k**: score of every method as k
//! sweeps across four budgets (the paper's 1k / 5k / 10k / 15k, scaled to
//! the dataset so the largest budget is a few percent of the data).

use super::{heading, sweep, FigResult};
use crate::*;
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct SweepPoint {
    method: String,
    k: usize,
    score: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 8 — score vs memory budget k", env)?;

    let fx = Fixture::load(Dataset::Imdb, 40, env)?;

    // k sweep: paper's 1k..15k mapped proportionally (base = ~0.3% of data).
    let base = (fx.db.total_rows() / 300).max(30);
    let ks = [base, base * 5, base * 10, base * 15];
    writeln!(
        out,
        "k values: {ks:?} ({} tuples total)",
        fx.db.total_rows()
    )?;

    let columns = ks.map(|k| (format!("k={k}"), k, 50));
    let rows = sweep(env, &fx, "Fig. 8 — score vs k", &columns, out)?;
    let mut points = Vec::new();
    for (method, scores) in &rows {
        points.extend(ks.iter().zip(scores).map(|(&k, &score)| SweepPoint {
            method: method.clone(),
            k,
            score,
        }));
    }

    // Shape check: ASQP leads at the largest k.
    let at_max = |row: &(String, Vec<f64>)| row.1[3];
    let asqp = at_max(&rows[0]);
    let best_other = rows[1..]
        .iter()
        .map(at_max)
        .fold(f64::NEG_INFINITY, f64::max);
    writeln!(
        out,
        "\nat k={}: ASQP {asqp:.3} vs best baseline {best_other:.3} ({})",
        ks[3],
        if asqp > best_other {
            "ASQP leads ✓"
        } else {
            "ordering differs"
        }
    )?;
    Ok(serde_json::to_string_pretty(&points)?)
}
