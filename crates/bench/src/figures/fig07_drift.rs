//! **Fig. 7 — fine-tuning under interest drift**: the workload is split
//! into three interest clusters (k-means on query embeddings); the model
//! trains on cluster 1 only, the "user" then walks through test queries of
//! clusters 1 → 2 → 3, and fine-tuning on each newly-revealed cluster's
//! training queries restores quality. The split is per cluster, so the
//! fixture is the bare dataset.

use super::{heading, FigResult};
use crate::*;
use asqp_core::{fine_tune, score};
use asqp_db::Workload;
use asqp_embed::{kmeans, Embedder};
use rand::SeedableRng;
use serde::Serialize;
use std::io::Write;

#[derive(Serialize)]
struct DriftStep {
    step: usize,
    cluster: usize,
    fine_tuned: bool,
    score_on_current_cluster: f64,
}

pub fn figure(env: &BenchEnv, out: &mut dyn Write) -> FigResult {
    heading(out, "Fig. 7 — interest-drift fine-tuning", env)?;

    let db = Dataset::Imdb.generate(env.scale, env.seed);
    let workload = Dataset::Imdb.workload(60, env.seed);

    // Cluster the workload into three interests (paper: clustering on the
    // embedded queries so new clusters induce genuine drift).
    let embedder = Embedder::new(128);
    let points: Vec<Vec<f32>> = workload
        .queries
        .iter()
        .map(|q| embedder.embed_query(q))
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(env.seed);
    let clustering = kmeans(&points, 3, 40, &mut rng);

    // Train/test split inside each cluster (every 4th *of the cluster* is
    // held out, so every cluster gets test queries).
    let mut cluster_train: Vec<Vec<asqp_db::Query>> = vec![Vec::new(); 3];
    let mut cluster_test: Vec<Vec<asqp_db::Query>> = vec![Vec::new(); 3];
    let mut seen = [0usize; 3];
    for (qi, q) in workload.queries.iter().enumerate() {
        let c = clustering.assignment[qi];
        if seen[c] % 4 == 0 {
            cluster_test[c].push(q.clone());
        } else {
            cluster_train[c].push(q.clone());
        }
        seen[c] += 1;
    }
    for c in 0..3 {
        writeln!(
            out,
            "  cluster {c}: {} train / {} test queries",
            cluster_train[c].len(),
            cluster_test[c].len()
        )?;
    }

    let k = env.default_k(&db);
    let cfg = scaled_config(env, k, 50);
    let params = cfg.metric_params();

    // Initial model: cluster 1 only.
    let mut model = asqp_core::train(&db, &Workload::uniform(cluster_train[0].clone()), &cfg)?;

    let mut table = ReportTable::new(
        "Fig. 7 — score on the active cluster's test queries",
        &["step", "active cluster", "fine-tuned?", "score"],
    );
    let mut steps: Vec<DriftStep> = Vec::new();
    let mut record = |cluster: usize, fine_tuned: bool, score: f64| {
        table.row(vec![
            steps.len().to_string(),
            (cluster + 1).to_string(),
            if fine_tuned { "yes" } else { "no" }.into(),
            format!("{score:.3}"),
        ]);
        steps.push(DriftStep {
            step: steps.len(),
            cluster: cluster + 1,
            fine_tuned,
            score_on_current_cluster: score,
        });
    };
    for cluster in 0..3 {
        let test_w = Workload::uniform(cluster_test[cluster].clone());
        if test_w.is_empty() {
            continue;
        }

        // Before fine-tuning on this cluster (drift moment for clusters 1+).
        let sub = model.materialize(&db, None)?;
        let before = score(&db, &sub, &test_w, params)?;
        record(cluster, false, before);

        if cluster > 0 {
            // The estimator flags the drift; fine-tune on the new cluster's
            // training queries (paper: triggered by ≥3 confident misses).
            model = fine_tune(&db, &model, &cluster_train[cluster], 0.1)?;
            let sub = model.materialize(&db, None)?;
            let after = score(&db, &sub, &test_w, params)?;
            writeln!(
                out,
                "  cluster {}: {before:.3} -> {after:.3} after fine-tuning",
                cluster + 1
            )?;
            record(cluster, true, after);
        } else {
            writeln!(out, "  cluster 1 (trained): {before:.3}")?;
        }
    }
    print_table(out, &table)?;

    // Shape check: fine-tuning improves drifted clusters.
    let improvements: Vec<(f64, f64)> = steps
        .windows(2)
        .filter(|w| !w[0].fine_tuned && w[1].fine_tuned && w[0].cluster == w[1].cluster)
        .map(|w| (w[0].score_on_current_cluster, w[1].score_on_current_cluster))
        .collect();
    let improved = improvements.iter().filter(|(b, a)| a > b).count();
    writeln!(
        out,
        "\nfine-tuning improved {}/{} drifted clusters ({})",
        improved,
        improvements.len(),
        if improved == improvements.len() {
            "✓"
        } else {
            "partial"
        }
    )?;
    Ok(serde_json::to_string_pretty(&steps)?)
}
