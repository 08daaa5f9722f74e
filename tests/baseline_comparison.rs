//! Cross-crate integration: the Fig. 2 comparison in miniature — every
//! baseline builds under the same budget, and the orderings the paper
//! reports hold on a seeded instance.

use asqp::baselines::*;
use asqp::prelude::*;

fn all_selection_baselines(seed: u64) -> Vec<Box<dyn Baseline>> {
    vec![
        Box::new(RandomSampling { seed }),
        Box::new(BruteForce { seed, draws: 30 }),
        Box::new(TopQueried { seed }),
        Box::new(LruCache { seed }),
        Box::new(QueryResultDiversification {
            seed,
            sample_per_table: 400,
        }),
        Box::new(Skyline),
        Box::new(Verdict { seed }),
        Box::new(QuickR { seed }),
    ]
}

#[test]
fn every_baseline_builds_and_scores() {
    let db = asqp::data::imdb::generate(Scale::Tiny, 1);
    let w = asqp::data::imdb::workload(12, 1);
    let params = MetricParams::new(20);
    let k = 80;

    for mut b in all_selection_baselines(1) {
        let out = b.build(&db, &w, k, params).unwrap();
        assert!(
            out.tuple_count() <= k + 8,
            "{} exceeded budget: {}",
            b.name(),
            out.tuple_count()
        );
        let sub = out.materialize(&db).unwrap();
        let s = score(&db, &sub, &w, params).unwrap();
        assert!((0.0..=1.0).contains(&s), "{}: score {s}", b.name());
    }
}

#[test]
fn asqp_outranks_every_baseline_on_seeded_instance() {
    let db = asqp::data::imdb::generate(Scale::Tiny, 2);
    let w = asqp::data::imdb::workload(16, 2);
    let params = MetricParams::new(20);
    let k = 80;

    let mut cfg = AsqpConfig::full(k, 20).with_seed(2);
    cfg.preprocess.n_representatives = 8;
    cfg.preprocess.max_actions = 128;
    cfg.trainer.num_workers = 2;
    cfg.iterations = 20;
    let model = train(&db, &w, &cfg).unwrap();
    let asqp_score = score(&db, &model.materialize(&db, None).unwrap(), &w, params).unwrap();

    // Workload-agnostic baselines — ASQP should dominate all of them
    // (the paper's headline: +30% over the best baseline).
    for mut b in [
        Box::new(RandomSampling { seed: 2 }) as Box<dyn Baseline>,
        Box::new(Skyline),
        Box::new(QueryResultDiversification {
            seed: 2,
            sample_per_table: 400,
        }),
        Box::new(Verdict { seed: 2 }),
        Box::new(QuickR { seed: 2 }),
    ] {
        let out = b.build(&db, &w, k, params).unwrap();
        let s = score(&db, &out.materialize(&db).unwrap(), &w, params).unwrap();
        assert!(
            asqp_score > s,
            "ASQP ({asqp_score:.3}) must beat {} ({s:.3})",
            b.name()
        );
    }
}

#[test]
fn vae_generates_but_scores_poorly_on_selections() {
    // The paper's key negative result for generative AQP: synthetic tuples
    // rarely satisfy selection predicates exactly, so the VAE baseline's
    // Eq.-1 score collapses.
    let db = asqp::data::imdb::generate(Scale::Tiny, 6);
    let w = asqp::data::imdb::workload(12, 6);
    let params = MetricParams::new(20);
    let mut vae = GenerativeVae {
        seed: 6,
        epochs: 8,
        train_cap: 300,
        ..GenerativeVae::default()
    };
    let out = vae.build(&db, &w, 80, params).unwrap();
    let synth = out.materialize(&db).unwrap();
    let vae_score = score(&db, &synth, &w, params).unwrap();

    let mut ran = RandomSampling { seed: 6 };
    let rout = ran.build(&db, &w, 80, params).unwrap();
    let ran_score = score(&db, &rout.materialize(&db).unwrap(), &w, params).unwrap();
    assert!(
        vae_score <= ran_score + 0.05,
        "VAE ({vae_score:.3}) must not outperform even RAN ({ran_score:.3}) on exact selections"
    );
}

#[test]
fn spn_beats_subset_counting_on_full_table_aggregates() {
    use asqp::baselines::Spn;
    use asqp::core::relative_error;
    let db = asqp::data::flights::generate(Scale::Tiny, 4);
    let spn = Spn::learn(db.table("flights").unwrap());
    let q = asqp::db::sql::parse("SELECT COUNT(*) FROM flights f WHERE f.distance >= 800").unwrap();
    let truth = db.execute(&q).unwrap().rows.get(0, 0).as_i64().unwrap() as f64;
    let est = spn.estimate(&q).unwrap().rows.get(0, 0).as_f64().unwrap();
    assert!(relative_error(est, truth) < 0.2);
}
