//! **Fig. 12 — aggregate-query evaluation (§6.4)**: relative error per
//! operator class {CNT, SUM, AVG} × {global, GROUP BY} on FLIGHTS, for
//! ASQP-RL (scale-corrected answers from the approximation set), gAQP
//! (aggregates over VAE-generated data) and DeepDB (Sum–Product Network
//! estimates). ASQP uses 1% memory, matching the paper's setting; the
//! workload is the aggregate one, scored by relative error rather than
//! Eq. 1, so only the split is shared with the other figures.

use super::{heading, FigResult};
use crate::*;
use asqp_baselines::{Baseline, BaselineOutput, GenerativeVae, Spn};
use asqp_core::{approximate_aggregate, operator_class, result_relative_error};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;

#[derive(Serialize)]
struct ClassErrors {
    class: String,
    asqp: f64,
    gaqp_vae: f64,
    deepdb_spn: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 12 — aggregate relative error", env)?;

    let db = Dataset::Flights.generate(env.scale, env.seed);
    let n_queries = match env.scale {
        asqp_data::Scale::Tiny => 60,
        _ => 120,
    };
    let aggregates = asqp_data::flights::aggregate_workload(n_queries, env.seed);
    let (train_w, test_w) = split(&aggregates, env.seed);
    let k = db.total_rows() / 100; // paper: 1% memory
    writeln!(
        out,
        "FLIGHTS {} tuples, k = {k}, {} train / {} test aggregate queries",
        db.total_rows(),
        train_w.len(),
        test_w.len()
    )?;

    // --- ASQP-RL: train on the SPJ rewrites, answer with scale-up. -------
    let cfg = scaled_config(env, k, 50);
    let model = asqp_core::train(&db, &train_w, &cfg)?;
    let asqp_sub = model.materialize(&db, None)?;

    // --- gAQP: VAE-generated database of the same size. -------------------
    let mut vae = GenerativeVae {
        seed: env.seed,
        epochs: 25,
        train_cap: 3000,
        ..GenerativeVae::default()
    };
    let vae_out = vae.build(&db, &train_w, k, cfg.metric_params())?;
    let BaselineOutput::Synthetic(vae_db) = &vae_out else {
        unreachable!("VAE is generative")
    };

    // --- DeepDB: SPN over the fact table. ---------------------------------
    let spn = Spn::learn(db.table("flights")?);

    // Evaluate all three on the held-out aggregates.
    type ErrAccum = (Vec<f64>, Vec<f64>, Vec<f64>);
    let mut per_class: BTreeMap<String, ErrAccum> = BTreeMap::new();
    let mut skipped_spn = 0usize;
    for q in &test_w.queries {
        let truth = db.execute(q)?;
        let class = operator_class(q).to_string();
        let slot = per_class.entry(class).or_default();

        let asqp_ans = approximate_aggregate(&db, &asqp_sub, q)?;
        slot.0.push(result_relative_error(q, &asqp_ans, &truth));

        // gAQP answers on generated data, scale-corrected the same way.
        let vae_ans = approximate_aggregate(&db, vae_db, q)?;
        slot.1.push(result_relative_error(q, &vae_ans, &truth));

        match spn.estimate(q) {
            Some(spn_ans) => slot.2.push(result_relative_error(q, &spn_ans, &truth)),
            None => skipped_spn += 1,
        }
    }
    if skipped_spn > 0 {
        writeln!(out, "(SPN declined {skipped_spn} unsupported query shapes)")?;
    }

    let mut table = ReportTable::new(
        "Fig. 12 — mean relative error by operator class",
        &["class", "ASQP-RL", "gAQP(VAE)", "DeepDB(SPN)"],
    );
    let avg = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let mut rows = Vec::new();
    let mut asqp_wins = 0usize;
    for (class, (a, g, s)) in &per_class {
        let (ea, eg, es) = (avg(a), avg(g), avg(s));
        writeln!(out, "  {class:<6} ASQP {ea:.3}  gAQP {eg:.3}  SPN {es:.3}")?;
        table.row(vec![
            class.clone(),
            format!("{ea:.3}"),
            format!("{eg:.3}"),
            format!("{es:.3}"),
        ]);
        rows.push(ClassErrors {
            class: class.clone(),
            asqp: ea,
            gaqp_vae: eg,
            deepdb_spn: es,
        });
        if ea <= eg && (es.is_nan() || ea <= es) {
            asqp_wins += 1;
        }
    }
    print_table(out, &table)?;

    // The paper's claim: no approach dominates everywhere; ASQP is lowest
    // in about half the classes and competitive elsewhere.
    let classes = rows.len();
    let beats_vae = rows.iter().filter(|r| r.asqp <= r.gaqp_vae).count();
    writeln!(
        out,
        "\nASQP lowest in {asqp_wins}/{classes} classes; beats gAQP in {beats_vae}/{classes} ({})",
        if beats_vae * 2 >= classes {
            "competitive as reported ✓"
        } else {
            "weaker than reported"
        }
    )?;
    Ok(serde_json::to_string_pretty(&rows)?)
}
