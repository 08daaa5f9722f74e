//! `bench_report` — the CI perf-regression harness.
//!
//! Runs the gated executor benches (scan / zone-map / join), plus
//! informational RL, session and preprocess benches, with a
//! [`MemoryRecorder`] installed so the
//! report carries telemetry counters (morsels pruned, routing mix, rollout
//! throughput) next to the medians. Output is machine-readable JSON,
//! diffable against a checked-in baseline:
//!
//! ```text
//! bench_report [--reduced] [--baseline <path>] [--tolerance <x>] [--out <path>]
//! ```
//!
//! * `--reduced`    CI-sized dataset (20K-row fact table, fewer samples)
//! * `--baseline`   compare against this report; exit 1 on regression
//! * `--tolerance`  gate multiplier (default 1.5 = fail above 1.5×)
//! * `--out`        where to write the report (default `results/bench_report.json`)

use asqp_bench::gate::{compare, BenchReport, SCHEMA_VERSION};
use asqp_bench::measure::{calibration_ns, measure, BenchResult};
use asqp_bench::workloads;
use asqp_core::{preprocess, AsqpConfig, PreprocessConfig, Session, SessionConfig};
use asqp_db::zonemap::TableZones;
use asqp_db::{execute_with_options, plan_query, Database, ExecOptions, Query, StatsAccum};
use asqp_rl::{AgentKind, Environment, ToyCoverageEnv, Trainer, TrainerConfig};
use asqp_serve::{
    run_mt_sim, run_sim, run_stream, FaultPlan, MirrorBackend, MtConfig, MtServer, MtSimConfig,
    RetryPolicy, SimConfig, StreamConfig,
};
use asqp_telemetry::MemoryRecorder;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    reduced: bool,
    baseline: Option<String>,
    tolerance: f64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        reduced: false,
        baseline: None,
        tolerance: 1.5,
        out: "results/bench_report.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reduced" => args.reduced = true,
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a path")?);
            }
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                args.tolerance = v.parse().map_err(|_| format!("invalid tolerance '{v}'"))?;
            }
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--help" | "-h" => {
                return Err("usage: bench_report [--reduced] [--baseline <path>] \
                     [--tolerance <x>] [--out <path>]"
                    .into())
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn run_exec(db: &Database, q: &Query, opts: ExecOptions) -> usize {
    execute_with_options(db, q, opts).unwrap().result.rows.len()
}

fn exec_benches(fact_rows: usize, samples: usize, out: &mut Vec<BenchResult>) {
    let db = workloads::star_db(fact_rows);
    let vec_opts = ExecOptions::default();
    let vec_seq = ExecOptions { shards: 1 };
    let vec_sharded = ExecOptions { shards: 4 };

    let scan_q = workloads::scan_query();
    let clustered_q = workloads::clustered_query(fact_rows);
    let unclustered_q = workloads::unclustered_query();
    let join_q = workloads::join_query();
    let warmup = (samples / 4).max(2);

    out.push(measure("scan/vectorized", warmup, samples, || {
        run_exec(&db, &scan_q, vec_opts)
    }));
    out.push(measure("zonemap/clustered", warmup, samples, || {
        run_exec(&db, &clustered_q, vec_opts)
    }));
    out.push(measure("zonemap/unclustered", warmup, samples, || {
        run_exec(&db, &unclustered_q, vec_opts)
    }));
    out.push(measure("join/sharded", warmup, samples, || {
        run_exec(&db, &join_q, vec_sharded)
    }));
    out.push(measure("join/sequential", warmup, samples, || {
        run_exec(&db, &join_q, vec_seq)
    }));
}

/// Gated optimizer and plan-cache benches.
///
/// * `db/optimizer/reorder_cost` — the selective star join, whose
///   cost-based order starts at the filtered dimension.
/// * `db/optimizer/limit_pushdown` — a selective scan with `LIMIT`, stopped
///   at the scan by limit pushdown.
/// * `db/plan_cache/{hit,miss}` — planning one query with a warm cache vs.
///   a cache cleared before every call (bind + cost from scratch).
/// * `db/plan_cache/rl_loop_on` — a reward-evaluation-shaped templated
///   query mix over an approximation subset, every plan a cache hit: the
///   inner-loop iteration time.
fn optimizer_benches(fact_rows: usize, samples: usize, out: &mut Vec<BenchResult>) {
    let db = workloads::star_db(fact_rows);
    let opts = ExecOptions::default();
    let warmup = (samples / 4).max(2);

    let join_q = workloads::selective_join_query();
    out.push(measure(
        "db/optimizer/reorder_cost",
        warmup,
        samples,
        || run_exec(&db, &join_q, opts),
    ));

    let limit_q = workloads::limited_scan_query();
    out.push(measure(
        "db/optimizer/limit_pushdown",
        warmup,
        samples,
        || run_exec(&db, &limit_q, opts),
    ));

    // Planning cost in isolation: a warm cache attaches memoised decisions
    // to the bound query, a cleared one also estimates every scan and join
    // and orders the joins.
    plan_query(&db, &join_q).unwrap(); // warm the entry
    out.push(measure("db/plan_cache/hit", warmup, samples, || {
        plan_query(&db, &join_q).unwrap().join_order.len()
    }));
    out.push(measure("db/plan_cache/miss", warmup, samples, || {
        db.plan_cache().clear();
        plan_query(&db, &join_q).unwrap().join_order.len()
    }));

    // The RL inner loop: score one candidate subset against a templated
    // workload (literals vary, shapes repeat), as `score_with_counts` does
    // per reward evaluation. Approximation sets are *small* (that is the
    // paper's point), so per-query planning is a real fraction of reward
    // evaluation — the cache has to amortise it across the sweep.
    let mix = workloads::rl_loop_queries(if fact_rows >= 50_000 { 24 } else { 12 });
    let selection: std::collections::BTreeMap<String, Vec<usize>> = [
        (
            "events".to_string(),
            (0..fact_rows).step_by(40).collect::<Vec<_>>(),
        ),
        (
            "users".to_string(),
            (0..(fact_rows / 100).max(8)).collect::<Vec<_>>(),
        ),
        (
            "items".to_string(),
            (0..(fact_rows / 50).max(8)).collect::<Vec<_>>(),
        ),
    ]
    .into_iter()
    .collect();
    let subset = db.subset(&selection).expect("subset of the star schema");
    out.push(measure("db/plan_cache/rl_loop_on", warmup, samples, || {
        mix.iter()
            .map(|q| run_exec(&subset, q, opts))
            .sum::<usize>()
    }));
}

/// Gated NN-kernel and PPO-update benches (see `workloads::nn_matmul_inputs`
/// / `workloads::ppo_update_fixture`): `nn_matmul/square` tracks the raw
/// GEMM the training loop leans on, `ppo_update/minibatches` the sharded
/// minibatch update path with rollout collection hoisted out of the timer.
fn nn_benches(reduced: bool, gemm_samples: usize, slow_samples: usize, out: &mut Vec<BenchResult>) {
    let dim = if reduced { 128 } else { 256 };
    let (a, b) = workloads::nn_matmul_inputs(dim);
    let warmup = (gemm_samples / 4).max(2);
    out.push(measure("nn_matmul/square", warmup, gemm_samples, || {
        a.matmul(&b).at(0, 0)
    }));

    let (mut trainer, buf) = workloads::ppo_update_fixture(reduced);
    out.push(measure("ppo_update/minibatches", 1, slow_samples, || {
        trainer.update(&buf).0
    }));
}

fn rl_bench(samples: usize, out: &mut Vec<BenchResult>) {
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
    let mut trainer = Trainer::new(cfg, env.state_dim(), env.action_count());
    out.push(measure("rl/ppo_iteration", 1, samples, || {
        trainer.train_iteration(&env).mean_episode_reward
    }));
}

fn quick_asqp_config() -> AsqpConfig {
    let mut cfg = AsqpConfig::full(60, 20);
    cfg.preprocess.n_representatives = 6;
    cfg.preprocess.max_actions = 64;
    cfg.preprocess.per_query_cap = 40;
    cfg.trainer.num_workers = 2;
    cfg.trainer.steps_per_worker = 64;
    cfg.trainer.hidden = vec![32];
    cfg.iterations = 6;
    cfg
}

fn session_bench(samples: usize, out: &mut Vec<BenchResult>) {
    let db = asqp_data::imdb::generate(asqp_data::Scale::Tiny, 1);
    let w = asqp_data::imdb::workload(12, 1);
    let model = asqp_core::train(&db, &w, &quick_asqp_config()).expect("training succeeds");
    let cfg = SessionConfig {
        answer_threshold: 0.25,
        auto_fine_tune: false,
        ..SessionConfig::default()
    };
    let session = Session::new(Arc::new(db), model, cfg).expect("session builds");
    out.push(measure("session/query_mix", 1, samples, || {
        let mut rows = 0usize;
        for q in &w.queries {
            rows += session.query(q).unwrap().0.rows.len();
        }
        rows
    }));
}

/// Gated serving benches. `serve/throughput` pushes a 64-request mix
/// through a one-shard `MtServer` with fault injection disabled — it
/// tracks the cost of admission, routing, dispatch and reply plumbing on
/// top of raw execution. `serve/sim_chaos` runs the deterministic
/// discrete-event chaos simulation (virtual clock, no sleeps): pure
/// compute, so it gates the chaos machinery itself.
fn serve_benches(reduced: bool, samples: usize, out: &mut Vec<BenchResult>) {
    let fact_rows = if reduced { 5_000 } else { 20_000 };
    let db = Arc::new(workloads::star_db(fact_rows));
    let server = MtServer::start(MtConfig {
        shards: 1,
        workers_per_shard: 4,
        queue_depth: 256,
        deadline_ns: 0,
        retry: RetryPolicy::default(),
        faults: FaultPlan::disabled(),
    });
    server.register_tenant(0, 0, MirrorBackend::single(db, 50));
    let mix: Vec<Query> = [
        workloads::scan_query(),
        workloads::clustered_query(fact_rows),
        workloads::unclustered_query(),
    ]
    .into_iter()
    .cycle()
    .take(64)
    .collect();
    let warmup = (samples / 4).max(1);
    out.push(measure("serve/throughput", warmup, samples, || {
        let tickets: Vec<_> = mix
            .iter()
            .map(|q| {
                server
                    .submit(0, q.clone())
                    .expect("queue depth is above the burst")
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("no faults injected").rows.rows.len())
            .sum::<usize>()
    }));
    server.shutdown();

    let sim_cfg = SimConfig {
        requests: if reduced { 256 } else { 1024 },
        ..SimConfig::chaos(7)
    };
    out.push(measure("serve/sim_chaos", warmup, samples, || {
        run_sim(&sim_cfg).log.len()
    }));

    // Multi-tenant replay: trace generation + kmeans clustering + the
    // sharded event loop with COW forking and shared-scan batching, all
    // on the virtual clock — deterministic, hence gateable. The reported
    // median is the wall cost of simulating the whole population.
    let mt_cfg = MtSimConfig::standard(7, if reduced { 5_000 } else { 20_000 });
    out.push(measure("serve/multitenant", warmup, samples, || {
        let r = run_mt_sim(&mt_cfg);
        assert!(r.lossless(), "multi-tenant sim lost requests");
        r.stats.resolved() as usize
    }));
}

/// Gated living-data benches: the cost of keeping statistics and zone
/// maps current across a 1% ingest batch, maintained vs. rebuilt from
/// scratch on the grown table, plus the deterministic streaming driver
/// end to end.
///
/// Maintenance and rebuild are compared at the accumulator / zone-map
/// level: deriving `TableStats` from an accumulator costs the same on
/// either path, so including it would only dilute the asymmetry the
/// acceptance bar is about — absorbing a batch is O(batch × columns)
/// while a rebuild pass is O(rows × columns).
fn incremental_benches(
    reduced: bool,
    fact_rows: usize,
    samples: usize,
    out: &mut Vec<BenchResult>,
) {
    let old = workloads::star_db(fact_rows);
    let batch = workloads::ingest_batch(fact_rows, 1);
    let mut grown = old.clone();
    grown
        .append_rows("events", &batch)
        .expect("batch matches the fact schema");
    let t_old = old.table("events").expect("fixture table");
    let t_new = grown.table("events").expect("fixture table");
    let old_rows = t_old.row_count();
    let warmup = (samples / 4).max(2);

    // Re-absorbing the same batch inflates the value counts but touches
    // exactly the same map entries, so the timing stays representative.
    let mut acc = StatsAccum::from_table(t_old);
    out.push(measure(
        "db/incremental/stats_maintain",
        warmup,
        samples,
        || {
            acc.absorb_rows(t_new, old_rows);
            t_new.row_count() - old_rows
        },
    ));
    out.push(measure(
        "db/incremental/stats_rebuild",
        warmup,
        samples,
        || {
            let _ = StatsAccum::from_table(t_new);
            t_new.row_count()
        },
    ));

    let zones_old = TableZones::build(t_old);
    out.push(measure(
        "db/incremental/zonemap_extend",
        warmup,
        samples,
        || zones_old.extended(t_new, old_rows),
    ));
    out.push(measure(
        "db/incremental/zonemap_rebuild",
        warmup,
        samples,
        || TableZones::build(t_new),
    ));

    // The whole living-data pipeline: seeded ingest + in-place updates +
    // fault-injected serving + periodic view refreshes, no sleeps.
    let mut stream_cfg = StreamConfig::chaos(7);
    if reduced {
        stream_cfg.ops = 48;
    }
    out.push(measure("serve/streaming", warmup, samples, || {
        run_stream(&stream_cfg).expect("stream run").log.len()
    }));
}

fn preprocess_bench(samples: usize, out: &mut Vec<BenchResult>) {
    let db = asqp_data::imdb::generate(asqp_data::Scale::Tiny, 1);
    let w = asqp_data::imdb::workload(16, 1);
    let cfg = PreprocessConfig::default();
    out.push(measure("preprocess/tiny", 1, samples, || {
        preprocess(&db, &w, &cfg).unwrap().action_space.len()
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let recorder = Arc::new(MemoryRecorder::new());
    asqp_telemetry::install(recorder.clone());

    let (fact_rows, exec_samples, slow_samples) = if args.reduced {
        (20_000, 15, 3)
    } else {
        (100_000, 25, 5)
    };

    eprintln!(
        "bench_report: fact_rows={fact_rows} samples={exec_samples} reduced={}",
        args.reduced
    );
    let calibration = calibration_ns();
    let mut benches: Vec<BenchResult> = Vec::new();
    exec_benches(fact_rows, exec_samples, &mut benches);
    optimizer_benches(fact_rows, exec_samples, &mut benches);
    nn_benches(args.reduced, exec_samples, slow_samples, &mut benches);
    rl_bench(slow_samples, &mut benches);
    session_bench(slow_samples, &mut benches);
    serve_benches(args.reduced, exec_samples, &mut benches);
    incremental_benches(args.reduced, fact_rows, exec_samples, &mut benches);
    preprocess_bench(slow_samples, &mut benches);

    asqp_telemetry::uninstall();
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        reduced: args.reduced,
        calibration_ns: calibration,
        benches: benches.into_iter().map(Into::into).collect(),
        telemetry: recorder.report(),
    };

    for b in &report.benches {
        eprintln!(
            "  {:<24} median {:>12} ns  ({} samples)",
            b.name, b.median_ns, b.samples
        );
    }

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&args.out, report.to_json_pretty()) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("[saved {}]", args.out);

    if let Some(path) = &args.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        match compare(&baseline, &report, args.tolerance) {
            Ok(outcome) => {
                for l in &outcome.lines {
                    eprintln!(
                        "  gate {:<24} {:>6.2}x {}",
                        l.name,
                        l.ratio,
                        if l.regressed {
                            "REGRESSED"
                        } else if l.gated {
                            "ok"
                        } else {
                            "(info)"
                        }
                    );
                }
                if !outcome.passed() {
                    eprintln!("perf gate FAILED (tolerance {:.2}x):", args.tolerance);
                    for f in outcome.failures() {
                        eprintln!("  {f}");
                    }
                    return ExitCode::FAILURE;
                }
                eprintln!("perf gate passed (tolerance {:.2}x)", args.tolerance);
            }
            Err(e) => {
                eprintln!("cannot compare reports: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
