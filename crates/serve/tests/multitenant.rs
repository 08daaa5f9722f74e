//! Integration suite for the sharded multi-tenant server: zero lost
//! requests under concurrent multi-tenant load, exact per-tenant
//! accounting (including rejection attribution), tenant lifecycle, and
//! the multi-tenant simulator's determinism gate.

use asqp_data::{imdb, Scale};
use asqp_db::Query;
use asqp_serve::{
    run_mt_sim, FaultPlan, MirrorBackend, MtConfig, MtServer, MtSimConfig, RetryPolicy,
    RouteDecision, ServeError, ServeResult, SessionBackend,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn shared_db() -> Arc<asqp_db::Database> {
    Arc::new(imdb::generate(Scale::Tiny, 1))
}

fn test_queries(n: usize) -> Vec<Query> {
    let w = imdb::workload(12, 1);
    (0..n)
        .map(|i| w.queries[i % w.queries.len()].clone())
        .collect()
}

fn quiet_config() -> MtConfig {
    MtConfig {
        shards: 2,
        workers_per_shard: 2,
        queue_depth: 64,
        deadline_ns: 0,
        retry: RetryPolicy::default(),
        faults: FaultPlan::disabled(),
    }
}

/// Many tenants, many client threads, a chaos fault plan: every
/// submission resolves or is rejected synchronously, and each tenant's
/// counters add up exactly — `admitted == resolved` per tenant, with
/// rejections attributed to the submitting tenant.
#[test]
fn concurrent_tenants_lose_nothing_and_account_exactly() {
    let db = shared_db();
    let server = Arc::new(MtServer::start(MtConfig {
        shards: 2,
        workers_per_shard: 2,
        queue_depth: 16,
        deadline_ns: 300_000,
        retry: RetryPolicy::chaos(),
        faults: FaultPlan::chaos(0xBEEF),
    }));
    let tenants: Vec<u64> = (0..8).collect();
    for &t in &tenants {
        // Tenants 0..4 share COW group 0, the rest group 1 — all backends
        // answer identically (same db, same routing), so batching is safe.
        server.register_tenant(t, t / 4, MirrorBackend::single(Arc::clone(&db), 50));
    }

    let queries = test_queries(12);
    let outcomes: Vec<(u64, ServeResult)> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .flat_map(|&t| {
                let server = &server;
                let queries = &queries;
                (0..queries.len()).map(move |i| {
                    s.spawn(move || (t, server.query_blocking(t, queries[i].clone())))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    server.shutdown();

    // Client-side tally of what each tenant actually experienced.
    let mut submitted: BTreeMap<u64, u64> = BTreeMap::new();
    let mut client_rejected: BTreeMap<u64, u64> = BTreeMap::new();
    for (t, r) in &outcomes {
        *submitted.entry(*t).or_default() += 1;
        if matches!(r, Err(ServeError::Overloaded { .. })) {
            *client_rejected.entry(*t).or_default() += 1;
        }
        assert!(
            !matches!(r, Err(ServeError::ShuttingDown)),
            "request lost in shutdown"
        );
    }

    let snapshot = server.snapshot();
    assert_eq!(snapshot.len(), tenants.len());
    for (&t, stats) in &snapshot {
        let sub = submitted.get(&t).copied().unwrap_or(0);
        assert_eq!(
            stats.admitted + stats.rejected,
            sub,
            "tenant {t}: every submission is admitted or rejected"
        );
        assert_eq!(
            stats.rejected,
            client_rejected.get(&t).copied().unwrap_or(0),
            "tenant {t}: server-side rejections must match what the client saw"
        );
        assert!(
            stats.lossless(),
            "tenant {t}: admitted {} != resolved {}",
            stats.admitted,
            stats.resolved()
        );
    }
    // Shards balanced within ±1 across 8 tenants / 2 shards.
    let mut per_shard = [0u64; 2];
    for stats in snapshot.values() {
        per_shard[stats.shard] += 1;
    }
    assert_eq!(per_shard, [4, 4]);

    let agg = server.stats();
    assert_eq!(agg.admitted + agg.rejected, (tenants.len() * 12) as u64);
    assert_eq!(agg.resolved(), agg.admitted);
}

/// Rejections land on the tenant whose submission was shed — never on a
/// global bucket, never on an innocent co-tenant of the same shard.
#[test]
fn rejections_are_attributed_to_the_submitting_tenant() {
    let db = shared_db();
    // One shard, one worker, and that worker stalled for 200ms: the
    // queue (depth 2) fills instantly and further submissions shed.
    let server = MtServer::start(MtConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_depth: 2,
        deadline_ns: 0,
        retry: RetryPolicy::default(),
        faults: FaultPlan {
            stalled_worker: Some(0),
            stall_ns: 200_000_000,
            ..FaultPlan::disabled()
        },
    });
    server.register_tenant(1, 0, MirrorBackend::single(Arc::clone(&db), 100));
    server.register_tenant(2, 0, MirrorBackend::single(Arc::clone(&db), 100));

    let queries = test_queries(6);
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for q in &queries {
        match server.submit(1, q.clone()) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        rejected > 0,
        "depth-2 queue behind a stalled worker must shed"
    );
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    server.shutdown();

    let snap = server.snapshot();
    let t1 = snap.get(&1).expect("tenant 1 registered");
    let t2 = snap.get(&2).expect("tenant 2 registered");
    assert_eq!(t1.rejected, rejected, "shed requests belong to tenant 1");
    assert_eq!(t2.rejected, 0, "tenant 2 never submitted — nothing to shed");
    assert_eq!(t2.admitted, 0);
    assert!(t1.lossless());
}

/// Tenant lifecycle: unknown tenants are refused synchronously, departed
/// tenants stop submitting but keep their accounting, and their stripe is
/// reused by the next registration.
#[test]
fn tenant_lifecycle_unknown_depart_reuse() {
    let db = shared_db();
    let server = MtServer::start(quiet_config());
    let q = test_queries(1).remove(0);

    assert!(matches!(
        server.submit(99, q.clone()),
        Err(ServeError::UnknownTenant { tenant: 99 })
    ));

    let s1 = server.register_tenant(1, 0, MirrorBackend::single(Arc::clone(&db), 100));
    let s2 = server.register_tenant(2, 0, MirrorBackend::single(Arc::clone(&db), 100));
    assert_ne!(s1, s2, "two tenants on two shards stripe apart");
    assert!(server.query_blocking(1, q.clone()).is_ok());

    assert_eq!(server.depart_tenant(1), Some(s1));
    assert!(matches!(
        server.submit(1, q.clone()),
        Err(ServeError::UnknownTenant { tenant: 1 })
    ));
    // Accounting for the departed tenant survives.
    let stats = server
        .tenant_stats(1)
        .expect("accounting survives departure");
    assert_eq!(stats.admitted, 1);
    assert!(stats.lossless());
    // The freed stripe is refilled by the next arrival.
    let s3 = server.register_tenant(3, 0, MirrorBackend::single(Arc::clone(&db), 100));
    assert_eq!(s3, s1);
    server.shutdown();
}

/// A backend that panics while answering queries over `LIMIT 13`.
struct PanicsOnLimit13(MirrorBackend);

impl SessionBackend for PanicsOnLimit13 {
    fn plan(&self, q: &Query) -> RouteDecision {
        self.0.plan(q)
    }

    fn answer_subset(&self, q: &Query) -> asqp_db::DbResult<asqp_db::ResultSet> {
        assert_ne!(q.limit, Some(13), "marked query");
        self.0.answer_subset(q)
    }

    fn answer_full(&self, q: &Query) -> asqp_db::DbResult<asqp_db::ResultSet> {
        self.answer_subset(q)
    }
}

/// A panicking backend costs its own request and nothing else: on one
/// shard with one worker (the `e2e` configuration) the marked ticket
/// resolves `Fatal`, the worker lives to answer the next query, and the
/// tenant's accounting stays lossless. Before `process` caught the unwind
/// the worker died and the second query was admitted and never answered,
/// hence the timeout.
#[test]
fn panicking_backend_fails_its_request_and_keeps_the_worker() {
    let server = Arc::new(MtServer::start(MtConfig {
        shards: 1,
        workers_per_shard: 1,
        ..quiet_config()
    }));
    server.register_tenant(
        1,
        0,
        PanicsOnLimit13(MirrorBackend::single(shared_db(), 100)),
    );
    let ordinary = test_queries(1).remove(0);
    let mut marked = ordinary.clone();
    marked.limit = Some(13);

    // A detached client, so a wedged worker fails the test instead of
    // hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let client = Arc::clone(&server);
    std::thread::spawn(move || {
        let first = client.query_blocking(1, marked);
        let _ = tx.send((first, client.query_blocking(1, ordinary)));
    });
    let (first, second) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the shard's only worker is wedged");
    match first {
        Err(ServeError::Fatal(e)) => assert!(e.to_string().contains("backend panicked"), "{e}"),
        other => panic!("marked query must resolve Fatal, got {other:?}"),
    }
    assert!(second.is_ok(), "the worker must survive: {second:?}");
    server.shutdown();

    let stats = server.tenant_stats(1).expect("registered");
    assert_eq!(
        (stats.admitted, stats.fatal, stats.resolved_subset),
        (2, 1, 1)
    );
    assert!(stats.lossless());
}

/// Same-group tenants hammering one query concurrently behind a briefly
/// stalled pool: the single-flight batcher must coalesce at least some of
/// the simultaneous identical scans, and followers' answers are identical
/// to leaders'.
#[test]
fn identical_inflight_scans_coalesce_across_tenants() {
    let db = shared_db();
    let server = Arc::new(MtServer::start(MtConfig {
        shards: 1,
        workers_per_shard: 4,
        queue_depth: 64,
        deadline_ns: 0,
        retry: RetryPolicy::default(),
        faults: FaultPlan::disabled(),
    }));
    for t in 0..4u64 {
        // subset_pct 100: everything routes to the subset path.
        server.register_tenant(t, 7, MirrorBackend::single(Arc::clone(&db), 100));
    }
    let q = test_queries(1).remove(0);

    let answers: Vec<ServeResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let server = Arc::clone(&server);
                let q = q.clone();
                s.spawn(move || server.query_blocking(i % 4, q))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    server.shutdown();

    let rows: Vec<_> = answers
        .iter()
        .map(|r| format!("{:?}", r.as_ref().expect("subset path cannot fail").rows))
        .collect();
    for r in &rows {
        assert_eq!(r, &rows[0], "followers must see the leader's exact rows");
    }
    // 64 identical queries on 4 workers: with the single-flight window
    // this wide, some must have coalesced.
    let hits = server.shared_scan_hits();
    let snap = server.snapshot();
    let per_tenant_hits: u64 = snap.values().map(|s| s.shared_scan_hits).sum();
    assert_eq!(hits, per_tenant_hits, "batcher and tenant counters agree");
    let agg = server.stats();
    assert_eq!(agg.resolved_subset, 64);
    assert_eq!(agg.resolved(), agg.admitted);
}

/// Regression (REVIEW: high): same-group epoch-0 tenants concurrently
/// issuing queries of the *same normalized shape* but different literals
/// or LIMITs must never coalesce — every answer must match a direct
/// execution of that exact query. Before keying the batcher on the full
/// query identity, the normalized-shape key handed followers rows for
/// the wrong literals.
#[test]
fn same_shape_different_literals_never_share_rows() {
    let db = shared_db();
    let server = Arc::new(MtServer::start(MtConfig {
        shards: 1,
        workers_per_shard: 4,
        queue_depth: 64,
        deadline_ns: 0,
        retry: RetryPolicy::default(),
        faults: FaultPlan::disabled(),
    }));
    for t in 0..4u64 {
        server.register_tenant(t, 7, MirrorBackend::single(Arc::clone(&db), 100));
    }
    // One template, four instantiations: distinct literals and LIMITs.
    let variants: Vec<Query> = [
        "SELECT t.title FROM title AS t WHERE t.production_year > 2010 LIMIT 7",
        "SELECT t.title FROM title AS t WHERE t.production_year > 2020 LIMIT 7",
        "SELECT t.title FROM title AS t WHERE t.production_year > 2010 LIMIT 2",
        "SELECT t.title FROM title AS t WHERE t.production_year > 2010",
    ]
    .iter()
    .map(|s| asqp_db::sql::parse(s).expect("valid test SQL"))
    .collect();
    let expected: Vec<String> = variants
        .iter()
        .map(|q| format!("{:?}", db.execute(q).expect("direct execution")))
        .collect();

    let answers: Vec<(usize, ServeResult)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..64usize)
            .map(|i| {
                let server = Arc::clone(&server);
                let variant = i % variants.len();
                let q = variants[variant].clone();
                s.spawn(move || (variant, server.query_blocking((i % 4) as u64, q)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    server.shutdown();

    for (variant, r) in &answers {
        let rows = format!(
            "{:?}",
            r.as_ref().expect("subset path cannot fail here").rows
        );
        assert_eq!(
            &rows, &expected[*variant],
            "variant {variant}: answer must be for the exact submitted query"
        );
    }
}

/// The simulator determinism gate at integration scale: double-run two
/// seeds at 20k tenants and require byte-identical transcripts plus
/// lossless per-tenant accounting.
#[test]
fn mt_sim_double_run_is_byte_identical_at_scale() {
    for seed in [7u64, 42] {
        let cfg = MtSimConfig::standard(seed, 20_000);
        let a = run_mt_sim(&cfg);
        let b = run_mt_sim(&cfg);
        assert_eq!(a.render(), b.render(), "seed {seed}");
        assert!(a.lossless(), "seed {seed}");
        assert!(a.stats.rejected > 0 && a.forks > 0 && a.shared_scan_hits > 0);
    }
}
