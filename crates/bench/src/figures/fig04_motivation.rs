//! **Fig. 4 — Problem justification**: cumulative average direct-query time
//! as a workload executes against increasingly large versions of the IMDB
//! database (the paper blows the data up and shows the wait becoming
//! impractical). No approximation set is involved, so the fixture is the
//! bare dataset: nothing may warm the caches before the timed queries.

use super::FigResult;
use crate::*;
use asqp_data::Scale;
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct Point {
    factor: u32,
    tuples: usize,
    queries_executed: usize,
    cumulative_avg_secs: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    writeln!(
        out,
        "Fig. 4 — direct-query cost vs database size (seed {})",
        env.seed
    )?;

    let base = match env.scale {
        Scale::Tiny => 1u32,
        Scale::Medium => 50,
        _ => 10,
    };
    let factors = [base, base * 2, base * 4, base * 8];
    let workload = Dataset::Imdb.workload(12, env.seed);

    let mut table = ReportTable::new(
        "Fig. 4 — cumulative avg query time (s) by #queries",
        &["DB tuples", "q1", "q4", "q8", "q12"],
    );
    let mut points: Vec<Point> = Vec::new();
    for factor in factors {
        let db = Dataset::Imdb.generate(Scale::Factor(factor), env.seed);
        let mut cumulative = 0.0f64;
        let mut marks = Vec::new();
        for (i, q) in workload.queries.iter().enumerate() {
            let (answer, secs) = timed(|| db.execute(q));
            answer?;
            cumulative += secs;
            let avg = cumulative / (i + 1) as f64;
            if [0, 3, 7, 11].contains(&i) {
                marks.push(avg);
            }
            points.push(Point {
                factor,
                tuples: db.total_rows(),
                queries_executed: i + 1,
                cumulative_avg_secs: avg,
            });
        }
        writeln!(
            out,
            "  x{factor}: {} tuples, avg after 12 queries = {}",
            db.total_rows(),
            fmt_secs(marks[3])
        )?;
        table.row(
            std::iter::once(db.total_rows().to_string())
                .chain(marks.iter().map(|m| format!("{m:.4}")))
                .collect(),
        );
    }
    print_table(out, &table)?;

    // Shape check: cost grows with database size.
    let last_avg = |f: u32| {
        points
            .iter()
            .find(|p| p.factor == f && p.queries_executed == 12)
            .map(|p| p.cumulative_avg_secs)
            .unwrap()
    };
    let small = last_avg(factors[0]);
    let big = last_avg(factors[3]);
    writeln!(
        out,
        "\n8x data -> {:.1}x slower queries ({})",
        big / small.max(1e-12),
        if big > small * 3.0 {
            "superlinear pain confirmed ✓"
        } else {
            "weaker than expected"
        }
    )?;
    Ok(serde_json::to_string_pretty(&points)?)
}
