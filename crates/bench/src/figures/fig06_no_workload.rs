//! **Fig. 6 — no-workload use case**: the system starts on FLIGHTS with no
//! query workload, synthesises one from table statistics, and improves as
//! the user contributes 5 queries per round (fine-tuning each round).
//! Compared against RAN and QRD, the two baselines that also run without a
//! workload. There is no workload to split, so the fixture is the bare
//! dataset.

use super::{heading, FigResult};
use crate::*;
use asqp_baselines::{Baseline, QueryResultDiversification, RandomSampling};
use asqp_core::{fine_tune, score, synthesize_workload};
use asqp_db::Workload;
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct Round {
    round: usize,
    asqp: f64,
    ran: f64,
    qrd: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 6 — unknown workload mode", env)?;

    let db = Dataset::Flights.generate(env.scale, env.seed);
    let k = env.default_k(&db);
    let cfg = scaled_config(env, k, 50);
    let params = cfg.metric_params();

    // The user's true interest, revealed 5 queries at a time.
    let user = Dataset::Flights.workload(25, env.seed ^ 0x515);

    // RAN and QRD build once (they cannot adapt to queries they never see).
    let nothing = Workload::uniform(vec![]);
    let ran_sub = RandomSampling { seed: env.seed }
        .build(&db, &nothing, k, params)?
        .materialize(&db)?;
    let qrd_sub = QueryResultDiversification {
        seed: env.seed,
        sample_per_table: 1500,
    }
    .build(&db, &nothing, k, params)?
    .materialize(&db)?;

    // ASQP round 0: trained purely on statistics-synthesised queries.
    let synthetic = synthesize_workload(&db, 30, env.seed);
    let mut model = asqp_core::train(&db, &synthetic, &cfg)?;

    let mut table = ReportTable::new(
        "Fig. 6 — quality on the user's queries per round",
        &["round", "ASQP-RL", "RAN", "QRD"],
    );
    let mut rounds = Vec::new();
    for round in 0..5 {
        // Evaluate on the queries the user has issued so far.
        let seen = Workload::uniform(user.queries[..(round + 1) * 5].to_vec());
        let asqp_sub = model.materialize(&db, None)?;
        let a = score(&db, &asqp_sub, &seen, params)?;
        let r = score(&db, &ran_sub, &seen, params)?;
        let q = score(&db, &qrd_sub, &seen, params)?;
        writeln!(out, "  round {round}: ASQP {a:.3}  RAN {r:.3}  QRD {q:.3}")?;
        table.row(vec![
            round.to_string(),
            format!("{a:.3}"),
            format!("{r:.3}"),
            format!("{q:.3}"),
        ]);
        rounds.push(Round {
            round,
            asqp: a,
            ran: r,
            qrd: q,
        });

        // Fold the new batch of user queries in.
        if round < 4 {
            let batch = &user.queries[round * 5..(round + 1) * 5];
            model = fine_tune(&db, &model, batch, 0.05)?;
        }
    }
    print_table(out, &table)?;

    let (first, last) = (&rounds[0], &rounds[4]);
    writeln!(
        out,
        "\nASQP improves {:.3} -> {:.3} across rounds; final vs QRD {:.3} ({})",
        first.asqp,
        last.asqp,
        last.qrd,
        if last.asqp > last.qrd && last.asqp > last.ran {
            "ASQP on top ✓"
        } else {
            "ordering differs"
        }
    )?;
    Ok(serde_json::to_string_pretty(&rounds)?)
}
