//! Criterion micro-benchmarks for the performance-critical paths called
//! out in DESIGN.md §5: query execution (full DB vs approximation set),
//! hash joins, embeddings, the incremental reward tracker, PPO iterations
//! and SPN estimation.

use asqp_baselines::Spn;
use asqp_bench::workloads;
use asqp_core::{preprocess, CoverageTracker, PreprocessConfig};
use asqp_data::Scale;
use asqp_db::{execute_with_options, Database, ExecOptions, Query};
use asqp_embed::Embedder;
use asqp_rl::{AgentKind, Environment, ToyCoverageEnv, Trainer, TrainerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_query_execution(c: &mut Criterion) {
    let db = asqp_data::imdb::generate(Scale::Small, 1);
    let workload = asqp_data::imdb::workload(12, 1);
    let join_q = asqp_db::sql::parse(
        "SELECT t.title, p.name FROM title t, cast_info ci, person p \
         WHERE t.id = ci.movie_id AND ci.person_id = p.id AND t.production_year > 2000",
    )
    .unwrap();
    let scan_q = asqp_db::sql::parse(
        "SELECT t.title FROM title t WHERE t.production_year BETWEEN 1990 AND 2005",
    )
    .unwrap();

    // Approximation set: a 1% random subset for a stable comparison target.
    let mut ran = asqp_baselines::RandomSampling { seed: 1 };
    use asqp_baselines::Baseline;
    let out = ran
        .build(
            &db,
            &workload,
            db.total_rows() / 100,
            asqp_core::MetricParams::new(50),
        )
        .unwrap();
    let sub = out.materialize(&db).unwrap();

    let mut g = c.benchmark_group("query_execution");
    g.sample_size(20);
    g.bench_function("filter_scan_full_db", |b| {
        b.iter(|| black_box(db.execute(&scan_q).unwrap().rows.len()))
    });
    g.bench_function("three_way_join_full_db", |b| {
        b.iter(|| black_box(db.execute(&join_q).unwrap().rows.len()))
    });
    g.bench_function("three_way_join_approx_set", |b| {
        b.iter(|| black_box(sub.execute(&join_q).unwrap().rows.len()))
    });
    g.finish();
}

fn run_opts(db: &Database, q: &Query, opts: ExecOptions) -> usize {
    execute_with_options(db, q, opts).unwrap().result.rows.len()
}

/// The executor on the paths DESIGN.md §5 entry 6 names: selective scans,
/// zone-map pruning and the sharded join probe.
fn bench_vectorized_exec(c: &mut Criterion) {
    let db = workloads::star_db(100_000);
    let vec_opts = ExecOptions::default();
    let vec_seq = ExecOptions { shards: 1 };
    let vec_sharded = ExecOptions { shards: 4 };

    // Selective conjunctive scan over the 100K-row fact table (~3% pass).
    let scan_q = workloads::scan_query();
    let mut g = c.benchmark_group("scan");
    g.sample_size(20);
    g.bench_function("vectorized_vs_row/vectorized", |b| {
        b.iter(|| black_box(run_opts(&db, &scan_q, vec_opts)))
    });

    // Zone-map pruning: the same narrow range over the clustered `id`
    // column skips ~98% of morsels; over the shuffled `qty`-correlated
    // `amount` column nothing can be skipped.
    let clustered_q = workloads::clustered_query(100_000);
    let unclustered_q = workloads::unclustered_query();
    g.bench_function("zonemap_prune/clustered", |b| {
        b.iter(|| black_box(run_opts(&db, &clustered_q, vec_opts)))
    });
    g.bench_function("zonemap_prune/unclustered", |b| {
        b.iter(|| black_box(run_opts(&db, &unclustered_q, vec_opts)))
    });
    g.finish();

    // Three-table star join with a 100K-row probe side.
    let join_q = workloads::join_query();
    let mut g = c.benchmark_group("join");
    g.sample_size(15);
    g.bench_function("parallel_probe/vectorized_sharded", |b| {
        b.iter(|| black_box(run_opts(&db, &join_q, vec_sharded)))
    });
    g.bench_function("parallel_probe/vectorized_sequential", |b| {
        b.iter(|| black_box(run_opts(&db, &join_q, vec_seq)))
    });
    g.finish();
}

fn bench_embeddings(c: &mut Criterion) {
    let embedder = Embedder::new(128);
    let q = asqp_db::sql::parse(
        "SELECT t.title FROM title t, cast_info ci WHERE t.id = ci.movie_id \
         AND t.production_year > 1995 AND t.kind = 'movie'",
    )
    .unwrap();
    let db = asqp_data::imdb::generate(Scale::Tiny, 1);
    let table = db.table("title").unwrap();
    let row = table.row(0);

    let mut g = c.benchmark_group("embeddings");
    g.bench_function("embed_query", |b| {
        b.iter(|| black_box(embedder.embed_query(&q)))
    });
    g.bench_function("embed_tuple", |b| {
        b.iter(|| black_box(embedder.embed_tuple(table.schema(), &row)))
    });
    g.finish();
}

fn bench_reward_tracker(c: &mut Criterion) {
    let db = asqp_data::imdb::generate(Scale::Small, 1);
    let w = asqp_data::imdb::workload(28, 1);
    let cfg = PreprocessConfig {
        max_actions: 512,
        ..PreprocessConfig::default()
    };
    let space = Arc::new(preprocess(&db, &w, &cfg).unwrap().action_space);
    let n = space.len();

    let mut g = c.benchmark_group("reward");
    g.bench_function("incremental_apply_retract", |b| {
        let mut tracker = CoverageTracker::new(Arc::clone(&space));
        tracker.set_full_batch();
        let mut i = 0usize;
        b.iter(|| {
            let a = i % n;
            i += 1;
            let (d, _) = tracker.apply(a, 1);
            tracker.apply(a, -1);
            black_box(d)
        })
    });
    g.bench_function("episode_of_64_actions", |b| {
        let mut tracker = CoverageTracker::new(Arc::clone(&space));
        tracker.set_full_batch();
        b.iter(|| {
            tracker.reset_coverage();
            let mut total = 0.0;
            for a in 0..64.min(n) {
                total += tracker.apply(a, 1).0;
            }
            black_box(total)
        })
    });
    g.finish();
}

fn bench_ppo(c: &mut Criterion) {
    let env = ToyCoverageEnv::new(vec![0.5; 64], 8);
    let cfg = TrainerConfig {
        agent: AgentKind::Ppo,
        num_workers: 1,
        steps_per_worker: 64,
        minibatch_size: 32,
        update_epochs: 2,
        hidden: vec![64],
        ..TrainerConfig::default()
    };
    let mut g = c.benchmark_group("rl");
    g.sample_size(10);
    g.bench_function("ppo_train_iteration_64steps", |b| {
        let mut trainer = Trainer::new(cfg.clone(), env.state_dim(), env.action_count());
        b.iter(|| black_box(trainer.train_iteration(&env).mean_episode_reward))
    });
    g.finish();
}

fn bench_spn(c: &mut Criterion) {
    let db = asqp_data::flights::generate(Scale::Small, 1);
    let q = asqp_db::sql::parse(
        "SELECT f.carrier, COUNT(*) FROM flights f WHERE f.distance >= 800 GROUP BY f.carrier",
    )
    .unwrap();
    let mut g = c.benchmark_group("spn");
    g.sample_size(10);
    g.bench_function("learn_30k_rows", |b| {
        b.iter(|| black_box(Spn::learn(db.table("flights").unwrap()).n_rows))
    });
    let spn = Spn::learn(db.table("flights").unwrap());
    g.bench_function("estimate_grouped_count", |b| {
        b.iter(|| black_box(spn.estimate(&q).unwrap().rows.len()))
    });
    // Reference: exact execution of the same aggregate.
    g.bench_function("exact_grouped_count", |b| {
        b.iter(|| black_box(db.execute(&q).unwrap().rows.len()))
    });
    g.finish();
}

fn bench_preprocess(c: &mut Criterion) {
    let db = asqp_data::imdb::generate(Scale::Tiny, 1);
    let w = asqp_data::imdb::workload(16, 1);
    let cfg = PreprocessConfig::default();
    let mut g = c.benchmark_group("preprocess");
    g.sample_size(10);
    g.bench_function("full_pipeline_tiny", |b| {
        b.iter(|| black_box(preprocess(&db, &w, &cfg).unwrap().action_space.len()))
    });
    g.finish();
}

fn bench_sql(c: &mut Criterion) {
    let text = "SELECT t.title, p.name FROM title AS t, cast_info AS c, person AS p \
                WHERE t.id = c.movie_id AND c.person_id = p.id AND t.production_year \
                BETWEEN 1990 AND 2005 AND p.gender = 'f' ORDER BY t.title LIMIT 100";
    let mut g = c.benchmark_group("sql");
    g.bench_function("parse_three_way_join", |b| {
        b.iter(|| black_box(asqp_db::sql::parse(text).unwrap().from.len()))
    });
    let _ = Database::new();
    g.finish();
}

criterion_group!(
    benches,
    bench_query_execution,
    bench_vectorized_exec,
    bench_embeddings,
    bench_reward_tracker,
    bench_ppo,
    bench_spn,
    bench_preprocess,
    bench_sql
);
criterion_main!(benches);
