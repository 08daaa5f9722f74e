//! Streaming chaos suite: the living-data scenario end to end.
//!
//! Two complementary harnesses, mirroring the frozen-data chaos suite:
//!
//! * the deterministic driver ([`run_stream`]) proves *replayability* —
//!   over a seed matrix, two runs of the same interleaved
//!   ingest/update/query/observe schedule render byte-identical
//!   transcripts (real row counts included) and settle their write
//!   ledger at `lost_writes=0`;
//! * the threaded harness proves *liveness under real concurrency* —
//!   writer threads ingest into a shared [`LiveBackend`] while the
//!   threaded [`MtServer`] answers fault-injected queries from it, and
//!   at the end every acknowledged row is present, the serving view has
//!   converged to the live fingerprint, and no request was lost.

use asqp_db::{sql, Query, Row, Value};
use asqp_serve::{
    run_stream, stream_fixture, FaultPlan, LiveBackend, MtConfig, MtServer, RetryPolicy,
    ServeResult, StreamConfig,
};
use asqp_telemetry as telemetry;
use std::sync::Arc;

/// Determinism: over a matrix of seeds, two streaming runs of the same
/// seed render byte-identical transcripts, the ledger closes at zero
/// lost writes, and every operation is accounted for.
#[test]
fn stream_seed_matrix_is_deterministic_and_lossless() {
    for seed in [0u64, 1, 7, 42, 1234, 0xFEED_2024] {
        let cfg = StreamConfig::chaos(seed);
        let a = run_stream(&cfg).expect("stream run");
        let b = run_stream(&cfg).expect("stream run");
        assert_eq!(
            a.render(),
            b.render(),
            "seed {seed}: same-seed streaming runs must replay byte-identically"
        );
        assert_eq!(a.final_fingerprint, b.final_fingerprint, "seed {seed}");

        let s = &a.stats;
        assert_eq!(s.lost_writes, 0, "seed {seed}: the write ledger must close");
        assert_eq!(
            s.appends + s.updates + s.queries,
            cfg.ops,
            "seed {seed}: every operation must be an append, update, or query"
        );
        assert_eq!(
            s.resolved_subset + s.resolved_full + s.degraded,
            s.queries,
            "seed {seed}: every query must resolve"
        );
        assert!(s.appends > 0, "seed {seed}: the mix must exercise ingest");
        assert!(s.updates > 0, "seed {seed}: the mix must exercise updates");
        assert!(
            s.refreshes > 0,
            "seed {seed}: ingest must trigger at least one view refresh"
        );
        let footer = format!("lost_writes={}\n", s.lost_writes);
        assert!(
            a.render().ends_with(&footer),
            "seed {seed}: transcript must end with the ledger line"
        );
    }
}

/// Distinct seeds must produce distinct interleavings — otherwise the
/// matrix above proves nothing.
#[test]
fn stream_seeds_decorrelate() {
    let a = run_stream(&StreamConfig::chaos(10)).expect("stream run");
    let b = run_stream(&StreamConfig::chaos(11)).expect("stream run");
    assert_ne!(a.render(), b.render());
}

fn stream_queries(n: usize) -> Vec<Query> {
    let texts = [
        "SELECT e.id FROM events e WHERE e.bucket = 3",
        "SELECT e.id FROM events e WHERE e.bucket = 7",
        "SELECT e.id FROM events e WHERE e.id >= 10 AND e.id < 60",
        "SELECT COUNT(*) FROM events e WHERE e.bucket < 9",
        "SELECT e.score FROM events e WHERE e.bucket = 12",
    ];
    (0..n)
        .map(|i| sql::parse(texts[i % texts.len()]).expect("fixture query parses"))
        .collect()
}

/// One deterministic ingest row for writer thread `w`, batch `b`, row `i`.
fn writer_row(w: u64, b: u64, i: u64) -> Row {
    let id = 1_000_000 + w * 100_000 + b * 1_000 + i;
    vec![
        Value::Int(id as i64),
        Value::Int((id % 16) as i64),
        Value::Float((id % 1000) as f64 / 10.0),
    ]
}

/// The acceptance scenario: writer threads ingest while the threaded
/// server answers under an injected fault plan. No panics, no lost
/// requests, and — the living-data contract — no lost writes: after the
/// final drift observation, every acknowledged row is in the live
/// database and the serving view has converged to its fingerprint.
#[test]
fn threaded_ingest_loses_no_writes_and_no_requests() {
    const WRITERS: u64 = 3;
    const BATCHES: u64 = 8;
    const CLIENTS: usize = 48;

    let recorder = Arc::new(telemetry::MemoryRecorder::new());
    let report = telemetry::scoped(recorder.clone(), || {
        let seed_rows = 128usize;
        let backend = Arc::new(
            LiveBackend::new(stream_fixture(9, seed_rows).expect("fixture"), 50, 4)
                .expect("backend"),
        );
        let server = Arc::new(MtServer::start(MtConfig {
            shards: 1,
            workers_per_shard: 4,
            queue_depth: 256,
            deadline_ns: 0,
            retry: RetryPolicy {
                max_retries: 3,
                base_ns: 20_000,
                cap_ns: 200_000,
            },
            faults: FaultPlan::chaos(0xBEE5),
        }));
        server.register_tenant(0, 0, Arc::clone(&backend));

        let (acked, results): (u64, Vec<ServeResult>) = std::thread::scope(|s| {
            // Writers: seeded append + update batches, counting acked rows.
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let backend = Arc::clone(&backend);
                    s.spawn(move || {
                        let mut acked = 0u64;
                        for b in 0..BATCHES {
                            let rows: Vec<Row> =
                                (0..4 + (w + b) % 5).map(|i| writer_row(w, b, i)).collect();
                            acked += backend.append("events", &rows).expect("append") as u64;
                            // In-place rewrite of a seed row: bumps the data
                            // version without changing the row population.
                            let rid = ((w * 31 + b * 7) % seed_rows as u64) as usize;
                            backend
                                .update("events", &[(rid, writer_row(w, b, 99))])
                                .expect("update");
                            if b % 3 == 0 {
                                backend.observe_data().expect("observe");
                            }
                        }
                        acked
                    })
                })
                .collect();

            // Clients: fault-injected queries racing the writers.
            let clients: Vec<_> = stream_queries(CLIENTS)
                .into_iter()
                .map(|q| {
                    let server = Arc::clone(&server);
                    s.spawn(move || server.query_blocking(0, q))
                })
                .collect();

            let acked = writers
                .into_iter()
                .map(|h| h.join().expect("writer panicked"))
                .sum();
            let results = clients
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect();
            (acked, results)
        });

        // Every request resolves (queue depth 256 > 48 clients, so nothing
        // is even rejected), and none fatally.
        assert_eq!(results.len(), CLIENTS);
        for r in &results {
            let answer = r.as_ref().expect("no request may be lost");
            assert!(answer.attempts <= 4);
        }
        let stats = server.stats();
        assert_eq!(stats.admitted, CLIENTS as u64);
        assert_eq!(stats.rejected, 0);
        assert_eq!(
            stats.resolved(),
            stats.admitted,
            "no admitted request may vanish"
        );
        assert_eq!(stats.fatal, 0);
        server.shutdown();

        // The living-data contract: the ledger closes exactly.
        backend.observe_data().expect("final observation");
        assert_eq!(
            backend.row_count("events") as u64,
            seed_rows as u64 + acked,
            "every acknowledged append must be present — zero lost writes"
        );
        assert_eq!(
            backend.view_fingerprint(),
            backend.data_fingerprint(),
            "after the final observation the serving view must be current"
        );
        recorder.report()
    });

    // Telemetry must agree with the ledger.
    let c = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    assert_eq!(c("serve.admitted"), CLIENTS as u64);
    assert_eq!(
        c("serve.resolved.subset") + c("serve.resolved.full") + c("serve.degraded"),
        c("serve.admitted")
    );
    assert!(c("serve.stream.appended_rows") > 0);
    assert!(c("serve.stream.updated_rows") > 0);
    assert!(
        c("serve.stream.refresh") > 0,
        "concurrent ingest must force at least one view refresh"
    );
}

/// A refresh mid-flight must not tear an answer: a query that pinned the
/// old view keeps it, while new queries see the refreshed one.
#[test]
fn refresh_never_tears_an_inflight_snapshot() {
    let backend = LiveBackend::new(stream_fixture(5, 64).expect("fixture"), 100, 2).expect("ok");
    let q = sql::parse("SELECT COUNT(*) FROM events e WHERE e.id >= 0").expect("parse");

    let pinned = backend.view();
    let before = pinned.execute(&q).expect("count");
    let rows: Vec<Row> = (0..50).map(|i| writer_row(9, 9, i)).collect();
    backend.append("events", &rows).expect("append");
    assert!(backend.observe_data().expect("observe"));

    assert_eq!(
        pinned.execute(&q).expect("count").rows,
        before.rows,
        "the pinned snapshot must answer exactly as before the refresh"
    );
    assert_ne!(
        backend.view().execute(&q).expect("count").rows,
        before.rows,
        "fresh snapshots must see the refreshed view"
    );
}
