//! **Fig. 2 — Quality and Running time**: Score, setup time and per-10-query
//! answer time for ASQP-RL, ASQP-Light and all ten baselines, on the IMDB
//! and MAS datasets.

use super::{heading, FigResult, IMDB_AND_MAS};
use crate::*;
use asqp_core::AsqpConfig;
use std::io::Write;

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 2 — overall comparison", env)?;

    let mut all_rows = Vec::new();
    for dataset in IMDB_AND_MAS {
        let name = dataset.name();
        let fx = Fixture::load(dataset, 40, env)?;
        let k = fx.k;
        let cfg = scaled_config(env, k, 50);
        let params = cfg.metric_params();
        writeln!(
            out,
            "\n[{name}] {} tuples, k = {k}, {} train / {} test queries",
            fx.db.total_rows(),
            fx.train.len(),
            fx.test.len()
        )?;

        let mut table = ReportTable::new(
            format!("Fig. 2 — {name}"),
            &["Baseline", "Score", "setup", "QueryAvg(10q)", "tuples"],
        );
        let mut push = |m: Measured, out: &mut dyn Write| {
            writeln!(
                out,
                "  {:<11} score {:.3}  setup {}",
                m.name,
                m.score,
                fmt_secs(m.setup_secs)
            )?;
            table.row(vec![
                m.name.clone(),
                format!("{:.3}", m.score),
                fmt_secs(m.setup_secs),
                fmt_secs(m.query_avg_secs),
                m.tuples.to_string(),
            ]);
            all_rows.push((name.to_string(), m));
            std::io::Result::Ok(())
        };

        // ASQP-RL (full) and ASQP-Light.
        push(fx.asqp(&fx.train, &cfg, "ASQP-RL")?.0, out)?;
        let mut light = AsqpConfig::light(k, 50).with_seed(env.seed);
        light.preprocess.max_actions = cfg.preprocess.max_actions / 2;
        push(fx.asqp(&fx.train, &light, "ASQP-Light")?.0, out)?;

        // Every baseline.
        for mut b in baseline_roster(env) {
            push(fx.baseline(k, params, b.as_mut())?, out)?;
        }
        print_table(out, &table)?;
    }

    // The paper's headline check: ASQP-RL on top per dataset.
    for name in IMDB_AND_MAS.map(Dataset::name) {
        let rows = || all_rows.iter().filter(|(d, _)| d == name);
        let asqp = rows().find(|(_, m)| m.name == "ASQP-RL").unwrap();
        let best_other = rows()
            .filter(|(_, m)| !m.name.starts_with("ASQP"))
            .map(|(_, m)| m.score)
            .fold(f64::NEG_INFINITY, f64::max);
        writeln!(
            out,
            "[{name}] ASQP-RL {:.3} vs best baseline {:.3} ({})",
            asqp.1.score,
            best_other,
            if asqp.1.score > best_other {
                "ASQP wins ✓"
            } else {
                "ASQP does NOT win ✗"
            }
        )?;
    }
    Ok(serde_json::to_string_pretty(&all_rows)?)
}
