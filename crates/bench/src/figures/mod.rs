//! The paper's evaluation as one table: every figure is a function from the
//! experiment environment to what it prints and the JSON it saves, so the
//! runner, the goldens test and CI all drive the same twelve entries.
//!
//! ```sh
//! cargo run --release -p asqp-bench -- fig list
//! cargo run --release -p asqp-bench -- fig fig02_overall
//! ASQP_SCALE=tiny cargo run --release -p asqp-bench -- fig all
//! ```

use crate::report::{print_table, save_json, Table};
use crate::{fast_roster, scaled_config, timed, BenchEnv, Dataset, Fixture};
use asqp_core::MetricParams;
use std::error::Error;
use std::io::{self, Write};
use std::time::Duration;

mod fig02_overall;
mod fig03_ablation;
mod fig04_motivation;
mod fig05_estimator;
mod fig06_no_workload;
mod fig07_drift;
mod fig08_memory;
mod fig09_frame;
mod fig10_trainset;
mod fig11_hyper;
mod fig12_aggregates;
mod fig_diversity;

/// The two datasets Figs. 2 and 3 compare on.
const IMDB_AND_MAS: [Dataset; 2] = [Dataset::Imdb, Dataset::Mas];

/// What a figure returns: the pretty-printed JSON of its rows.
pub type FigResult = Result<String, Box<dyn Error>>;

/// One entry of the evaluation: `id` names `results/<id>.json` and the
/// goldens, `run` prints the figure onto the given stream.
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    pub run: fn(&BenchEnv, &mut dyn Write) -> FigResult,
}

// A figure's entry point is `<id>::figure`, not `run`: `asqp-analyze` resolves
// bare calls by name, and the serve request path calls a closure named `run`.
macro_rules! figures {
    ($($id:ident: $title:literal,)*) => {
        [$(Figure { id: stringify!($id), title: $title, run: $id::figure }),*]
    };
}

/// Every table and figure of the paper's §6, in the order `fig all` runs them.
pub static FIGURES: [Figure; 12] = figures! {
    fig02_overall: "Fig. 2 — quality and running time, ASQP-RL vs ten baselines (IMDB, MAS)",
    fig03_ablation: "Fig. 3 — RL ablation: environments × agents (IMDB, MAS)",
    fig04_motivation: "Fig. 4 — direct-query cost as the database grows",
    fig05_estimator: "Fig. 5 — answerability estimator and DB-fallback variants",
    fig06_no_workload: "Fig. 6 — no-workload mode on FLIGHTS, five rounds",
    fig07_drift: "Fig. 7 — fine-tuning under interest drift",
    fig08_memory: "Fig. 8 — score vs memory budget k",
    fig09_frame: "Fig. 9 — score vs frame size F",
    fig10_trainset: "Fig. 10 — score and setup time vs training-set share",
    fig11_hyper: "Fig. 11 — hyper-parameter sweeps",
    fig12_aggregates: "Fig. 12 — aggregate relative error vs gAQP and DeepDB (FLIGHTS)",
    fig_diversity: "§6.2 — answer diversity",
};

pub fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// Run one figure onto `out` and save its JSON under `results/`.
pub fn run_one(fig: &Figure, env: &BenchEnv, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    save_json(fig.id, &(fig.run)(env, out)?);
    Ok(())
}

/// Run `figures` in order in this process; a figure that returns an error is
/// reported and the rest still run. Returns the ids that failed. A figure
/// that *panics* takes the suite with it (the figures run in this process,
/// not as children): rerun the ones after it by id.
pub fn run_all(
    figures: &'static [Figure],
    env: &BenchEnv,
    out: &mut dyn Write,
) -> io::Result<Vec<&'static str>> {
    let mut failures = Vec::new();
    let mut total = 0.0;
    for fig in figures {
        writeln!(out, "\n################ {} ################", fig.id)?;
        let (outcome, secs) = timed(|| run_one(fig, env, out));
        total += secs;
        let took = Duration::from_secs_f64(secs);
        writeln!(out, "[{} finished in {took:.1?}]", fig.id)?;
        if let Err(e) = outcome {
            eprintln!("!! {} failed: {e}", fig.id);
            failures.push(fig.id);
        }
    }
    writeln!(
        out,
        "\n================ suite done in {:.1?}; {}/{} experiments succeeded ================",
        Duration::from_secs_f64(total),
        figures.len() - failures.len(),
        figures.len()
    )?;
    Ok(failures)
}

/// The line every figure but Fig. 4 (which fixes its own scales) opens with.
fn heading(out: &mut dyn Write, what: &str, env: &BenchEnv) -> io::Result<()> {
    writeln!(out, "{what} (scale {:?}, seed {})", env.scale, env.seed)
}

/// One sweep row: a method and its score at each point.
type SweepRow = (String, Vec<f64>);

/// The body Figs. 8 and 9 share: for each `(column label, k, F)` point
/// train and score ASQP-RL, then every [`fast_roster`] baseline; print one
/// line per method and the table, and return the rows, ASQP-RL first.
fn sweep(
    env: &BenchEnv,
    fx: &Fixture,
    title: &str,
    points: &[(String, usize, usize)],
    out: &mut dyn Write,
) -> Result<Vec<SweepRow>, Box<dyn Error>> {
    let mut asqp = Vec::new();
    for &(_, k, frame) in points {
        let cfg = scaled_config(env, k, frame);
        asqp.push(fx.asqp(&fx.train, &cfg, "ASQP-RL")?.0.score);
    }
    writeln!(out, "  ASQP-RL: {asqp:?}")?;
    let mut rows = vec![("ASQP-RL".to_string(), asqp)];
    for mut b in fast_roster(env) {
        let mut scores = Vec::new();
        for &(_, k, frame) in points {
            let params = MetricParams::new(frame);
            scores.push(fx.baseline(k, params, b.as_mut())?.score);
        }
        writeln!(out, "  {:<5}: {scores:?}", b.name())?;
        rows.push((b.name().to_string(), scores));
    }

    let headers = std::iter::once("method").chain(points.iter().map(|p| p.0.as_str()));
    let mut table = Table::new(title, &headers.collect::<Vec<_>>());
    for (method, scores) in &rows {
        let scores = scores.iter().map(|s| format!("{s:.3}"));
        table.row(std::iter::once(method.clone()).chain(scores).collect());
    }
    print_table(out, &table)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_found() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(std::ptr::eq(find(f.id).unwrap(), f), "{} is shadowed", f.id);
            assert!(FIGURES[..i].iter().all(|g| g.title != f.title));
        }
        assert!(find("fig01").is_none());
    }
}
