//! End-to-end integration: the full ASQP-RL pipeline against its problem
//! statement — train, materialise, score, route, fine-tune.

use asqp::core::{per_query_fractions, AnswerabilityEstimator, FullCounts};
use asqp::prelude::*;
use std::collections::BTreeMap;

fn quick_cfg(k: usize, f: usize, seed: u64) -> AsqpConfig {
    let mut cfg = AsqpConfig::full(k, f).with_seed(seed);
    cfg.preprocess.n_representatives = 8;
    cfg.preprocess.max_actions = 128;
    cfg.preprocess.per_query_cap = 60;
    cfg.trainer.num_workers = 2;
    cfg.trainer.steps_per_worker = 96;
    cfg.iterations = 15;
    cfg
}

#[test]
fn asqp_beats_random_sampling_on_imdb() {
    let db = asqp::data::imdb::generate(Scale::Tiny, 1);
    let workload = asqp::data::imdb::workload(16, 1);
    let params = MetricParams::new(20);
    let k = 80;

    let model = train(&db, &workload, &quick_cfg(k, 20, 1)).unwrap();
    let asqp_sub = model.materialize(&db, None).unwrap();
    let asqp_score = score(&db, &asqp_sub, &workload, params).unwrap();

    // Average random score over 3 seeds for a fair comparison.
    let mut ran_total = 0.0;
    for seed in 0..3 {
        let mut ran = asqp::baselines::RandomSampling { seed };
        let out = ran.build(&db, &workload, k, params).unwrap();
        let sub = out.materialize(&db).unwrap();
        ran_total += score(&db, &sub, &workload, params).unwrap();
    }
    let ran_score = ran_total / 3.0;
    assert!(
        asqp_score > ran_score * 1.5,
        "ASQP ({asqp_score:.3}) must clearly beat RAN ({ran_score:.3})"
    );
}

#[test]
fn train_test_split_generalization() {
    // The paper evaluates on held-out queries: the trained subset must
    // score reasonably on queries it never saw (thanks to relaxation and
    // exploration).
    let db = asqp::data::imdb::generate(Scale::Tiny, 2);
    let workload = asqp::data::imdb::workload(24, 2);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let (train_w, test_w) = workload.split(0.7, &mut rng);

    let model = train(&db, &train_w, &quick_cfg(100, 20, 2)).unwrap();
    let sub = model.materialize(&db, None).unwrap();
    let params = MetricParams::new(20);
    let test_score = score(&db, &sub, &test_w, params).unwrap();
    let empty = db.subset(&BTreeMap::new()).unwrap();
    let zero = score(&db, &empty, &test_w, params).unwrap();
    assert!(
        test_score > zero + 0.1,
        "held-out score {test_score:.3} must exceed the empty-set floor {zero:.3}"
    );
}

#[test]
fn estimator_separates_answerable_from_not() {
    let db = asqp::data::imdb::generate(Scale::Tiny, 3);
    let workload = asqp::data::imdb::workload(16, 3);
    let params = MetricParams::new(20);
    let model = train(&db, &workload, &quick_cfg(100, 20, 3)).unwrap();
    let sub = model.materialize(&db, None).unwrap();
    let est = AnswerabilityEstimator::fit(&model, &db, &sub, params).unwrap();

    // Ground truth on the training queries themselves.
    let full = FullCounts::compute(&db, &workload).unwrap();
    let truths = per_query_fractions(&sub, &workload, &full, params).unwrap();
    let (precision, recall) = est.precision_recall(&workload.queries, &truths);
    // On its own training workload the estimator should be strong (the
    // paper reports 0.95/0.90 on held-out queries at full scale).
    assert!(
        precision >= 0.6 && recall >= 0.6,
        "precision {precision:.2} recall {recall:.2}"
    );
}

#[test]
fn session_end_to_end_with_fine_tune() {
    let db = std::sync::Arc::new(asqp::data::imdb::generate(Scale::Tiny, 4));
    let workload = asqp::data::imdb::workload(12, 4);
    let model = train(&db, &workload, &quick_cfg(80, 20, 4)).unwrap();
    let cfg = SessionConfig {
        drift_confidence: 0.5,
        drift_trigger: 2,
        ..SessionConfig::default()
    };
    let set = Session::new(db.clone(), model, cfg.clone()).unwrap();
    let session = CowSession::new(std::sync::Arc::new(set), cfg);

    for q in &workload.queries {
        let (rs, src) = session.query(q).unwrap();
        // Subset answers must be subsets of the truth for SPJ queries.
        if src == AnswerSource::ApproximationSet {
            let truth: std::collections::BTreeSet<_> =
                db.execute(q).unwrap().rows.to_vecs().into_iter().collect();
            for row in &rs.rows {
                assert!(truth.contains(&row), "approximate answers must be sound");
            }
        }
    }
    assert_eq!(session.stats().queries, 12);
}

#[test]
fn concurrent_server_over_trained_session() {
    use asqp::serve::{FaultPlan, MtConfig, MtServer, ServedSource};

    let db = std::sync::Arc::new(asqp::data::imdb::generate(Scale::Tiny, 8));
    let workload = asqp::data::imdb::workload(12, 8);
    let model = train(&db, &workload, &quick_cfg(80, 20, 8)).unwrap();
    let set = Session::new(db.clone(), model, SessionConfig::default()).unwrap();
    let session = CowSession::new(std::sync::Arc::new(set), SessionConfig::default());

    // One view is one tenant on one shard.
    let server = MtServer::start(MtConfig {
        shards: 1,
        workers_per_shard: 3,
        queue_depth: 64,
        faults: FaultPlan::chaos(8),
        ..MtConfig::default()
    });
    server.register_tenant(0, 0, session);
    let clients = 4usize;
    std::thread::scope(|s| {
        for _ in 0..clients {
            let server = &server;
            let queries = &workload.queries;
            let db = db.clone();
            s.spawn(move || {
                for q in queries {
                    let answer = server
                        .submit(0, q.clone())
                        .expect("queue depth exceeds the burst")
                        .wait()
                        .expect("chaos faults are transient, never fatal");
                    if answer.source != ServedSource::Full {
                        // Subset and degraded answers must be sound.
                        let truth: std::collections::BTreeSet<_> =
                            db.execute(q).unwrap().rows.to_vecs().into_iter().collect();
                        for row in &answer.rows.rows {
                            assert!(truth.contains(&row), "approximate answers must be sound");
                        }
                    }
                }
            });
        }
    });

    let expected = (clients * workload.queries.len()) as u64;
    let stats = server.stats();
    assert_eq!(stats.admitted, expected);
    assert_eq!(
        stats.resolved(),
        expected,
        "every admitted request resolves"
    );
    assert_eq!(stats.fatal, 0);
    server.shutdown();
}

#[test]
fn budget_is_respected_across_scales() {
    let db = asqp::data::imdb::generate(Scale::Tiny, 5);
    let workload = asqp::data::imdb::workload(12, 5);
    for k in [30usize, 100, 300] {
        let model = train(&db, &workload, &quick_cfg(k, 20, 5)).unwrap();
        let total: usize = model.selection(None).values().map(Vec::len).sum();
        assert!(total <= k, "selection of {total} tuples exceeds budget {k}");
    }
}

#[test]
fn score_monotone_in_k() {
    let db = asqp::data::imdb::generate(Scale::Tiny, 6);
    let workload = asqp::data::imdb::workload(12, 6);
    let params = MetricParams::new(20);
    let model = train(&db, &workload, &quick_cfg(300, 20, 6)).unwrap();
    let mut last = -1.0;
    for req in [30usize, 100, 300] {
        let sub = model.materialize(&db, Some(req)).unwrap();
        let s = score(&db, &sub, &workload, params).unwrap();
        assert!(
            s >= last - 0.05,
            "score should roughly grow with the budget: {last:.3} -> {s:.3} at k={req}"
        );
        last = s;
    }
}
