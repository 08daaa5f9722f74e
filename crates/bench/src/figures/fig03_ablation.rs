//! **Fig. 3 — RL ablation study**: environments {GSL, DRP, DRP+GSL} ×
//! agents {ASQP-RL, −ppo (A2C), −ppo −ac (REINFORCE)} on IMDB and MAS.

use super::{heading, FigResult, IMDB_AND_MAS};
use crate::*;
use asqp_core::EnvKind;
use asqp_rl::AgentKind;
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct AblationRow {
    dataset: String,
    environment: &'static str,
    agent: &'static str,
    score: f64,
    total_secs: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 3 — RL ablation", env)?;

    let envs = [
        (EnvKind::Gsl, "GSL"),
        (EnvKind::Drp, "DRP"),
        (EnvKind::DrpGsl, "DRP+GSL"),
    ];
    let agents = [
        (AgentKind::Ppo, "ASQP-RL"),
        (AgentKind::A2c, "ASQP-RL -ppo"),
        (AgentKind::Reinforce, "ASQP-RL -ppo -ac"),
    ];

    let mut results: Vec<AblationRow> = Vec::new();
    for dataset in IMDB_AND_MAS {
        let fx = Fixture::load(dataset, 40, env)?;
        let dataset = dataset.name();
        let mut table = ReportTable::new(
            format!("Fig. 3 — {dataset}"),
            &["Environment", "Agent", "Score", "Total Time"],
        );
        for (env_kind, env_name) in envs {
            for (agent, agent_name) in agents {
                let mut cfg = scaled_config(env, fx.k, 50);
                cfg.env_kind = env_kind;
                cfg.trainer.agent = agent;
                let (m, _) = fx.asqp(&fx.train, &cfg, agent_name)?;
                writeln!(
                    out,
                    "  [{dataset}] {env_name:<8} {agent_name:<18} score {:.3}  time {}",
                    m.score,
                    fmt_secs(m.setup_secs)
                )?;
                table.row(vec![
                    env_name.to_string(),
                    agent_name.to_string(),
                    format!("{:.3}", m.score),
                    fmt_secs(m.setup_secs),
                ]);
                results.push(AblationRow {
                    dataset: dataset.to_string(),
                    environment: env_name,
                    agent: agent_name,
                    score: m.score,
                    total_secs: m.setup_secs,
                });
            }
        }
        print_table(out, &table)?;
    }

    // Paper conclusion check: GSL with the full agent is the best cell.
    for dataset in IMDB_AND_MAS.map(Dataset::name) {
        let rows = || results.iter().filter(|r| r.dataset == dataset);
        let full = rows()
            .find(|r| r.environment == "GSL" && r.agent == "ASQP-RL")
            .unwrap();
        let best = rows().map(|r| r.score).fold(f64::NEG_INFINITY, f64::max);
        writeln!(
            out,
            "[{dataset}] GSL/full = {:.3}, best cell = {:.3} ({})",
            full.score,
            best,
            if (full.score - best).abs() < 1e-9 {
                "GSL/full on top ✓"
            } else {
                "GSL/full not on top"
            }
        )?;
    }
    Ok(serde_json::to_string_pretty(&results)?)
}
