//! Chaos suite for the serving layer: seeded fault plans against both the
//! threaded server (liveness: zero panics, no lost requests) and the
//! discrete-event simulator (determinism: byte-identical transcripts for
//! identical seeds).

use asqp_data::{imdb, Scale};
use asqp_db::Query;
use asqp_serve::{
    run_sim, FaultPlan, MirrorBackend, MtConfig, MtServer, RetryPolicy, ServeError, ServeResult,
    SimConfig,
};
use asqp_telemetry as telemetry;
use std::sync::Arc;

fn test_backend() -> MirrorBackend {
    let db = Arc::new(imdb::generate(Scale::Tiny, 1));
    MirrorBackend::single(db, 50)
}

fn test_queries(n: usize) -> Vec<Query> {
    let w = imdb::workload(12, 1);
    (0..n)
        .map(|i| w.queries[i % w.queries.len()].clone())
        .collect()
}

/// One session behind the threaded server: tenant 0 on one shard.
fn start(config: MtConfig) -> MtServer<MirrorBackend> {
    let server = MtServer::start(config);
    server.register_tenant(0, 0, test_backend());
    server
}

/// The telemetry recorder is process-wide and `scoped` sections are
/// serialized: every test that runs a server takes one, so the accounting
/// test below sees only its own emissions.
fn isolated<T>(f: impl FnOnce() -> T) -> T {
    telemetry::scoped(Arc::new(telemetry::MemoryRecorder::new()), f)
}

fn chaos_config(seed: u64) -> MtConfig {
    MtConfig {
        shards: 1,
        workers_per_shard: 4,
        queue_depth: 64,
        deadline_ns: 300_000,
        retry: RetryPolicy::chaos(),
        faults: FaultPlan::chaos(seed),
    }
}

/// Determinism: over a matrix of seeds, two sim runs of the same seed
/// render byte-identical transcripts, and every request is accounted for.
#[test]
fn sim_seed_matrix_is_deterministic_and_lossless() {
    for seed in [0u64, 1, 7, 42, 1234, 0xDEAD_BEEF] {
        let cfg = SimConfig::chaos(seed);
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        assert_eq!(
            a.render(),
            b.render(),
            "seed {seed}: same-seed chaos runs must produce identical logs"
        );
        let s = &a.stats;
        assert_eq!(s.admitted + s.rejected, cfg.requests, "seed {seed}");
        assert_eq!(
            s.resolved_subset + s.resolved_full + s.degraded,
            s.admitted,
            "seed {seed}: every admitted request must resolve"
        );
    }
}

/// Distinct seeds must actually produce distinct schedules — otherwise the
/// matrix above is vacuous.
#[test]
fn sim_seeds_decorrelate() {
    let a = run_sim(&SimConfig::chaos(10));
    let b = run_sim(&SimConfig::chaos(11));
    assert_ne!(a.render(), b.render());
}

/// Regression: `workers: 0` used to admit up to the queue depth and then
/// return with those requests never served. The kernel clamps to one.
#[test]
fn sim_with_zero_workers_strands_nothing() {
    let r = run_sim(&SimConfig {
        workers: 0,
        ..SimConfig::chaos(7)
    });
    assert!(r.stats.admitted > 0);
    assert_eq!(r.stats.admitted, r.stats.resolved());
}

/// The acceptance scenario: 64 concurrent clients against the threaded
/// server under an injected fault plan (≥5% error rate, latency spikes,
/// one stalled worker). Zero panics, and every submission resolves to
/// Ok(answer) or a typed rejection — nothing is lost. Telemetry counters
/// must account for every request.
#[test]
fn threaded_chaos_loses_no_requests() {
    let recorder = Arc::new(telemetry::MemoryRecorder::new());
    let report = telemetry::scoped(recorder.clone(), || {
        let server = Arc::new(start(chaos_config(0xC0FFEE)));
        let queries = test_queries(64);

        let results: Vec<ServeResult> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .into_iter()
                .map(|q| {
                    let server = Arc::clone(&server);
                    s.spawn(move || server.query_blocking(0, q))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect()
        });

        assert_eq!(results.len(), 64);
        let mut ok = 0u64;
        let mut overloaded = 0u64;
        for r in &results {
            match r {
                Ok(answer) => {
                    ok += 1;
                    assert!(answer.attempts <= 4);
                }
                Err(ServeError::Overloaded { depth }) => {
                    overloaded += 1;
                    assert_eq!(*depth, 64);
                }
                Err(e) => panic!("request lost to unexpected error: {e}"),
            }
        }
        assert_eq!(ok + overloaded, 64);

        let stats = server.stats();
        assert_eq!(stats.admitted + stats.rejected, 64);
        assert_eq!(
            stats.resolved(),
            stats.admitted,
            "no admitted request may vanish"
        );
        assert_eq!(stats.fatal, 0, "workload queries must never be fatal");

        server.shutdown();
        recorder.report()
    });

    // The same accounting must be visible through telemetry.
    let c = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    assert_eq!(c("serve.admitted") + c("serve.rejected"), 64);
    assert_eq!(
        c("serve.resolved.subset") + c("serve.resolved.full") + c("serve.degraded"),
        c("serve.admitted")
    );
}

/// Graceful shutdown drains what was admitted: every ticket held at
/// shutdown time still resolves, and new submissions are refused.
#[test]
fn shutdown_drains_inflight_requests() {
    isolated(|| {
        let server = start(MtConfig {
            shards: 1,
            workers_per_shard: 2,
            queue_depth: 32,
            deadline_ns: 0, // no deadline: exercise the drain itself
            retry: RetryPolicy::default(),
            faults: FaultPlan {
                base_latency_ns: 200_000, // slow the workers so a backlog forms
                ..FaultPlan::disabled()
            },
        });
        let tickets: Vec<_> = test_queries(16)
            .into_iter()
            .map(|q| server.submit(0, q).expect("queue depth not reached"))
            .collect();

        server.shutdown();
        assert!(matches!(
            server.submit(0, test_queries(1).remove(0)),
            Err(ServeError::ShuttingDown)
        ));
        for t in tickets {
            t.wait()
                .expect("admitted request must survive shutdown drain");
        }
        assert_eq!(server.stats().resolved(), 16);
    })
}

/// Backpressure: with the only worker stalled, submissions past the queue
/// depth fail fast with `Overloaded` and the admitted ones still resolve.
#[test]
fn admission_control_rejects_past_depth() {
    isolated(|| {
        let server = start(MtConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_depth: 2,
            deadline_ns: 0,
            retry: RetryPolicy::default(),
            faults: FaultPlan {
                stalled_worker: Some(0),
                stall_ns: 50_000_000, // hold the worker 50ms so the queue fills
                ..FaultPlan::disabled()
            },
        });
        let queries = test_queries(10);
        let mut tickets = Vec::new();
        let mut rejected = 0;
        for q in queries {
            match server.submit(0, q) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { depth }) => {
                    assert_eq!(depth, 2);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(tickets.len(), 2, "only the queue depth may be admitted");
        assert_eq!(rejected, 8);
        for t in tickets {
            t.wait().expect("admitted requests resolve after the stall");
        }
        server.shutdown();
    })
}

/// Degradation ladder end to end: a deadline the full-DB route can never
/// meet must still answer every request — from the subset, tagged.
#[test]
fn impossible_deadline_degrades_instead_of_failing() {
    isolated(|| {
        let server = start(MtConfig {
            shards: 1,
            workers_per_shard: 2,
            queue_depth: 32,
            deadline_ns: 1, // nothing fits in 1ns
            retry: RetryPolicy::default(),
            faults: FaultPlan::disabled(),
        });
        let mut degraded = 0;
        for q in test_queries(12) {
            let answer = server.query_blocking(0, q).expect("must resolve");
            if answer.degraded() {
                degraded += 1;
            }
        }
        // Hash-routing sends ~half the queries to the full path; all of those
        // must have degraded.
        let stats = server.stats();
        assert_eq!(stats.degraded, degraded);
        assert_eq!(stats.resolved_full, 0, "no full answer fits a 1ns deadline");
        assert_eq!(stats.resolved(), 12);
        assert!(degraded > 0, "the workload must exercise the full route");
        server.shutdown();
    })
}
