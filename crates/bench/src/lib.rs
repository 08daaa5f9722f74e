//! # asqp-bench — experiment harness for the ASQP-RL paper
//!
//! One binary, two verbs (DESIGN.md §4): `asqp-bench fig <id>|all|list`
//! runs the paper's tables and figures from the one table in [`figures`];
//! `asqp-bench ratios` is the in-process A/B perf check in [`ratios`].
//! Absolute performance is reported by the `e2e/` package alone. Shared
//! plumbing lives here: scale/seed selection from the environment, the
//! [`Fixture`] the figures start from, the paper's Score / setup /
//! QueryAvg measurement protocol, ASCII tables, and JSON result dumps
//! under `results/` (the source of EXPERIMENTS.md).
//!
//! Every figure honours three environment variables:
//!
//! * `ASQP_SCALE` — `tiny` | `small` (default) | `medium` | an integer factor
//! * `ASQP_SEED`  — experiment seed (default 7)
//! * `ASQP_ZERO_TIMINGS` — `1` zeroes every reported wall-clock ([`timed`])

use asqp_baselines::Baseline;
use asqp_core::{score_with_counts, AsqpConfig, FullCounts, MetricParams, TrainedModel};
use asqp_data::Scale;
use asqp_db::{Database, DbResult, Workload};
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

pub mod figures;
pub mod ratios;
pub mod report;

pub use report::{print_table, save_json, Table as ReportTable};

/// Experiment environment: scale + seed, read once per binary.
#[derive(Debug, Clone, Copy)]
pub struct BenchEnv {
    pub scale: Scale,
    pub seed: u64,
}

/// When `ASQP_ZERO_TIMINGS=1`, every wall-clock a figure reports is zeroed.
/// Scores, tuple counts and rankings are already deterministic, so this
/// makes each figure's stdout and JSON byte-identical across runs and
/// machines — CI re-derives the tiny-scale goldens in `goldens/` under it
/// and `cmp`s them.
pub fn zero_timings() -> bool {
    std::env::var("ASQP_ZERO_TIMINGS").map(|v| v == "1") == Ok(true)
}

/// Run `f`; return its value and the wall-clock seconds it took (`0.0`
/// under [`zero_timings`]). The only clock a figure may read.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    let secs = t0.elapsed().as_secs_f64();
    (value, if zero_timings() { 0.0 } else { secs })
}

impl BenchEnv {
    pub fn from_env() -> BenchEnv {
        let scale = match std::env::var("ASQP_SCALE").unwrap_or_default().as_str() {
            "tiny" => Scale::Tiny,
            "medium" => Scale::Medium,
            "" | "small" => Scale::Small,
            other => match other.parse::<u32>() {
                Ok(f) => Scale::Factor(f),
                Err(_) => {
                    eprintln!("unknown ASQP_SCALE '{other}', using small");
                    Scale::Small
                }
            },
        };
        let seed = std::env::var("ASQP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        BenchEnv { scale, seed }
    }

    /// Default tuple budget at this scale (~1% of the dataset).
    pub fn default_k(&self, db: &Database) -> usize {
        (db.total_rows() / 100).max(100)
    }
}

/// The three generated datasets of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Imdb,
    Mas,
    Flights,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Imdb => "IMDB",
            Dataset::Mas => "MAS",
            Dataset::Flights => "FLIGHTS",
        }
    }

    pub fn generate(self, scale: Scale, seed: u64) -> Database {
        match self {
            Dataset::Imdb => asqp_data::imdb::generate(scale, seed),
            Dataset::Mas => asqp_data::mas::generate(scale, seed),
            Dataset::Flights => asqp_data::flights::generate(scale, seed),
        }
    }

    pub fn workload(self, n_queries: usize, seed: u64) -> Workload {
        match self {
            Dataset::Imdb => asqp_data::imdb::workload(n_queries, seed),
            Dataset::Mas => asqp_data::mas::workload(n_queries, seed),
            Dataset::Flights => asqp_data::flights::workload(n_queries, seed),
        }
    }
}

/// The 70/30 train/test split of a workload, seeded by the experiment seed.
pub fn split(workload: &Workload, seed: u64) -> (Workload, Workload) {
    workload.split(0.7, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// What a figure starts from: the generated database, the train/test split
/// of its workload, `|q(T)|` for the test queries, and the default budget.
/// The four figures with no such preamble (4, 6, 7, 12) take only the
/// [`Dataset`] and say why.
pub struct Fixture {
    pub db: Database,
    pub train: Workload,
    pub test: Workload,
    pub counts: FullCounts,
    pub k: usize,
}

impl Fixture {
    pub fn load(dataset: Dataset, n_queries: usize, env: &BenchEnv) -> DbResult<Fixture> {
        let db = dataset.generate(env.scale, env.seed);
        let (train, test) = split(&dataset.workload(n_queries, env.seed), env.seed);
        let counts = FullCounts::compute(&db, &test)?;
        let k = env.default_k(&db);
        Ok(Fixture {
            db,
            train,
            test,
            counts,
            k,
        })
    }

    /// [`measure_asqp`] trained on `train` (the fixture's own split or a
    /// truncation of it), scored on the fixture's test queries.
    pub fn asqp(
        &self,
        train: &Workload,
        cfg: &AsqpConfig,
        name: &str,
    ) -> DbResult<(Measured, TrainedModel)> {
        measure_asqp(&self.db, train, &self.test, &self.counts, cfg, name)
    }

    /// [`measure_baseline`] on this fixture's split.
    pub fn baseline(
        &self,
        k: usize,
        params: MetricParams,
        baseline: &mut dyn Baseline,
    ) -> DbResult<Measured> {
        let (train, test) = (&self.train, &self.test);
        measure_baseline(&self.db, train, test, &self.counts, k, params, baseline)
    }
}

/// One measured row of the Fig. 2 table.
#[derive(Debug, Clone, Serialize)]
pub struct Measured {
    pub name: String,
    /// Eq.-1 score on the held-out test workload.
    pub score: f64,
    /// Time to produce a queryable approximation, in seconds.
    pub setup_secs: f64,
    /// Time to answer 10 test queries on the approximation, in seconds.
    pub query_avg_secs: f64,
    /// Tuples in the approximation.
    pub tuples: usize,
}

/// Run one baseline under the paper's measurement protocol.
pub fn measure_baseline(
    db: &Database,
    train_w: &Workload,
    test_w: &Workload,
    test_counts: &FullCounts,
    k: usize,
    params: MetricParams,
    baseline: &mut dyn Baseline,
) -> DbResult<Measured> {
    let (built, setup_secs) = timed(|| {
        let output = baseline.build(db, train_w, k, params)?;
        let approx = output.materialize(db)?;
        DbResult::Ok((output, approx))
    });
    let (output, approx) = built?;

    let score = score_with_counts(&approx, test_w, test_counts, params)?;
    let query_avg_secs = time_ten_queries(&approx, test_w)?;
    Ok(Measured {
        name: baseline.name().to_string(),
        score,
        setup_secs,
        query_avg_secs,
        tuples: output.tuple_count(),
    })
}

/// Train ASQP-RL and measure it under the same protocol.
pub fn measure_asqp(
    db: &Database,
    train_w: &Workload,
    test_w: &Workload,
    test_counts: &FullCounts,
    cfg: &AsqpConfig,
    name: &str,
) -> DbResult<(Measured, TrainedModel)> {
    let (built, setup_secs) = timed(|| {
        let model = asqp_core::train(db, train_w, cfg)?;
        let approx = model.materialize(db, None)?;
        DbResult::Ok((model, approx))
    });
    let (model, approx) = built?;

    let params = cfg.metric_params();
    let score = score_with_counts(&approx, test_w, test_counts, params)?;
    let query_avg_secs = time_ten_queries(&approx, test_w)?;
    Ok((
        Measured {
            name: name.to_string(),
            score,
            setup_secs,
            query_avg_secs,
            tuples: approx.total_rows(),
        },
        model,
    ))
}

/// The paper's "QueryAvg" column: wall-clock to answer 10 workload queries.
pub fn time_ten_queries(approx: &Database, w: &Workload) -> DbResult<f64> {
    if w.is_empty() {
        return Ok(0.0);
    }
    let mut ten = w.queries.iter().cycle().take(10);
    let (ran, secs) = timed(|| ten.try_for_each(|q| approx.execute(q).map(drop)));
    ran.map(|()| secs)
}

/// An ASQP config tuned to finish the full experiment suite at `scale` in
/// minutes rather than hours, while keeping the paper's §6.1 hyper-parameter
/// *ratios* (entropy 0.001, KL 0.2, PPO) intact.
pub fn scaled_config(env: &BenchEnv, k: usize, frame: usize) -> AsqpConfig {
    let mut cfg = AsqpConfig::full(k, frame).with_seed(env.seed);
    // The action-space pool must comfortably exceed the tuple budget or
    // even an oracle selection cannot reach a good score; ~4 tuples per
    // action means max_actions ≳ k covers the budget several times over.
    match env.scale {
        Scale::Tiny => {
            cfg.preprocess.n_representatives = 12;
            cfg.preprocess.max_actions = (3 * k).clamp(256, 768);
            cfg.preprocess.per_query_cap = 120;
            cfg.iterations = 25;
            cfg.trainer.num_workers = 2;
        }
        _ => {
            cfg.preprocess.n_representatives = 16;
            cfg.preprocess.max_actions = (2 * k).clamp(512, 1024);
            cfg.preprocess.per_query_cap = 250;
            cfg.iterations = 40;
            cfg.trainer.num_workers = 4;
            cfg.trainer.steps_per_worker = 192;
        }
    }
    cfg
}

/// The full Fig. 2 baseline roster (selection + generative baselines).
/// BRT and GRE get work budgets — the paper's 48-hour caps scaled to the
/// harness; both always exhaust them, exactly as in the paper — counted in
/// candidate evaluations, not wall-clock, so every figure is byte-identical
/// across runs and machines.
pub fn baseline_roster(env: &BenchEnv) -> Vec<Box<dyn Baseline>> {
    use asqp_baselines::*;
    let seed = env.seed;
    let (draws, max_evals) = match env.scale {
        Scale::Tiny => (120, 6_000),
        _ => (60, 12_000),
    };
    vec![
        Box::new(GenerativeVae {
            seed,
            epochs: 15,
            train_cap: 1000,
            ..GenerativeVae::default()
        }),
        Box::new(LruCache { seed }),
        Box::new(RandomSampling { seed }),
        Box::new(QuickR { seed }),
        Box::new(Verdict { seed }),
        Box::new(Skyline),
        Box::new(BruteForce { seed, draws }),
        Box::new(QueryResultDiversification {
            seed,
            sample_per_table: 1500,
        }),
        Box::new(TopQueried { seed }),
        Box::new(Greedy { max_evals }),
    ]
}

/// The fast subset used by the sweep figures (8/9), where GRE/BRT/VAE
/// would dominate wall-clock without changing the story.
pub fn fast_roster(env: &BenchEnv) -> Vec<Box<dyn Baseline>> {
    use asqp_baselines::*;
    let seed = env.seed;
    vec![
        Box::new(RandomSampling { seed }),
        Box::new(TopQueried { seed }),
        Box::new(LruCache { seed }),
        Box::new(Verdict { seed }),
        Box::new(QuickR { seed }),
        Box::new(Skyline),
        Box::new(QueryResultDiversification {
            seed,
            sample_per_table: 1000,
        }),
    ]
}

/// Pretty seconds → the paper's minutes-style column.
pub fn fmt_secs(s: f64) -> String {
    if s >= 60.0 {
        format!("{:.1}m", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_baselines::RandomSampling;

    #[test]
    fn measurement_protocol_runs() {
        let env = BenchEnv {
            scale: Scale::Tiny,
            seed: 1,
        };
        let fx = Fixture::load(Dataset::Imdb, 12, &env).unwrap();
        assert_eq!((fx.train.len(), fx.test.len()), (8, 4));
        let mut ran = RandomSampling { seed: 1 };
        let m = fx.baseline(60, MetricParams::new(20), &mut ran).unwrap();
        assert_eq!(m.name, "RAN");
        assert!(m.setup_secs >= 0.0);
        assert!((0.0..=1.0).contains(&m.score));
        assert!(m.tuples <= 60);
    }

    #[test]
    fn rosters_have_expected_names() {
        let env = BenchEnv {
            scale: Scale::Tiny,
            seed: 1,
        };
        let names: Vec<&str> = baseline_roster(&env).iter().map(|b| b.name()).collect();
        for expected in [
            "VAE", "CACH", "RAN", "QUIK", "VERD", "SKY", "BRT", "QRD", "TOP", "GRE",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.5), "500ms");
        assert_eq!(fmt_secs(5.0), "5.0s");
        assert_eq!(fmt_secs(90.0), "1.5m");
    }
}
