//! The common set-up: three generated datasets, each trained by the real
//! pipeline into one base `Session`, with a hit and a miss query pool.
//!
//! The fixture is built from [`FIXTURE_SEED`], not from `--seed`: like a
//! checked-in dataset it is the same for every run, so runs with different
//! seeds differ in their request trace and not in which queries the
//! approximation set happens to cover.

use asqp_bench::{scaled_config, BenchEnv};
use asqp_core::{MetricParams, Session, SessionConfig};
use asqp_data::Scale;
use asqp_db::{Database, Query, Workload};
use std::sync::Arc;
use std::time::Instant;

pub const FIXTURE_SEED: u64 = 7;
/// Frame size `F` of Eq. 1.
pub const FRAME: usize = 50;

pub struct DatasetSpec {
    pub name: &'static str,
    generate: fn(Scale, u64) -> Database,
    workload: fn(usize, u64) -> Workload,
    /// Query `i` of a generated workload is template `i % templates`.
    templates: usize,
}

pub const DATASETS: [DatasetSpec; 3] = [
    DatasetSpec {
        name: "imdb",
        generate: asqp_data::imdb::generate,
        workload: asqp_data::imdb::workload,
        templates: 6,
    },
    DatasetSpec {
        name: "mas",
        generate: asqp_data::mas::generate,
        workload: asqp_data::mas::workload,
        templates: 5,
    },
    DatasetSpec {
        name: "flights",
        generate: asqp_data::flights::generate,
        workload: asqp_data::flights::workload,
        templates: 4,
    },
];

/// Sizes of one benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub scale: Scale,
    pub train_queries: usize,
    pub pool_queries: usize,
    pub iterations: usize,
}

impl Profile {
    /// Half of `Scale::Medium` (about 340 K rows over the three datasets).
    /// With `k` = 1 % of rows this is the smallest scale at which the
    /// hit trace stays ≥ 85 % subset-routed, and a full-database answer
    /// (6–19 ms) is cheap enough for the miss trace to fit several blocks
    /// into a ten-second run. Eight RL iterations instead of
    /// `scaled_config`'s forty keep three set-ups inside one run; the work
    /// per iteration is unchanged.
    pub const BENCH: Profile = Profile {
        scale: Scale::Factor(75),
        train_queries: 80,
        pool_queries: 240,
        iterations: 8,
    };

    pub const SMOKE: Profile = Profile {
        scale: Scale::Tiny,
        train_queries: 24,
        pool_queries: 48,
        iterations: 2,
    };
}

#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub generate_s: f64,
    pub train_s: f64,
    pub session_s: f64,
}

pub struct Group {
    pub name: &'static str,
    /// The database as generated (the session's own handle moves on ingest).
    pub db: Arc<Database>,
    pub base: Arc<Session>,
    /// Seen templates with unseen constants.
    pub hit: Vec<Query>,
    /// Held-out templates.
    pub miss: Vec<Query>,
    pub times: BuildTimes,
    pub actions: usize,
    pub iterations_run: usize,
    pub env_steps: usize,
}

fn by_template(w: &Workload, templates: usize, seen: bool) -> Vec<Query> {
    w.queries
        .iter()
        .enumerate()
        .filter(|(i, _)| ((i % templates) < templates / 2) == seen)
        .map(|(_, q)| q.clone())
        .collect()
}

pub fn build_group(spec: &DatasetSpec, profile: Profile) -> Group {
    let seed = FIXTURE_SEED;
    let t0 = Instant::now();
    let db = Arc::new((spec.generate)(profile.scale, seed));
    let generate_s = t0.elapsed().as_secs_f64();

    let train_w = Workload::uniform(by_template(
        &(spec.workload)(profile.train_queries, seed),
        spec.templates,
        true,
    ));
    let env = BenchEnv {
        scale: profile.scale,
        seed,
    };
    let mut cfg = scaled_config(&env, env.default_k(&db), FRAME);
    // Fixed, so that quality numbers do not depend on the core count.
    cfg.trainer.num_workers = 2;
    cfg.iterations = profile.iterations;

    let t0 = Instant::now();
    let model = asqp_core::train(&db, &train_w, &cfg).expect("training on generated data");
    let train_s = t0.elapsed().as_secs_f64();
    let actions = model.space.len();
    let iterations_run = model.history.len();
    let env_steps = model.history.iter().map(|h| h.steps).sum();

    // A fine-tune would run inside the worker's `finish` call and turn a
    // latency workload into a training workload.
    let session_cfg = SessionConfig {
        auto_fine_tune: false,
        ..SessionConfig::default()
    };
    let t0 = Instant::now();
    let base =
        Arc::new(Session::new(Arc::clone(&db), model, session_cfg).expect("materialising the set"));
    let session_s = t0.elapsed().as_secs_f64();

    let pool = (spec.workload)(profile.pool_queries, seed + 1000);
    Group {
        name: spec.name,
        db,
        base,
        hit: by_template(&pool, spec.templates, true),
        miss: by_template(&pool, spec.templates, false),
        times: BuildTimes {
            generate_s,
            train_s,
            session_s,
        },
        actions,
        iterations_run,
        env_steps,
    }
}

pub fn build(profile: Profile) -> Vec<Group> {
    DATASETS.iter().map(|d| build_group(d, profile)).collect()
}

/// Eq. 1 score of each group's approximation set on the head of its hit
/// pool, averaged over groups.
pub fn score_eq1(groups: &[Group]) -> f64 {
    let scores: Vec<f64> = groups
        .iter()
        .map(|g| {
            let head: Vec<Query> = g.hit.iter().take(40).cloned().collect();
            asqp_core::score(
                &g.db,
                &g.base.state().subset,
                &Workload::uniform(head),
                MetricParams::new(FRAME),
            )
            .expect("scoring generated queries")
        })
        .collect();
    crate::stats::mean(&scores)
}
