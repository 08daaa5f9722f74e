//! The session: a shared approximation set (`Session`) and the views that
//! route over it (`CowSession`). Routing and the consecutive-miss drift
//! rule, data refresh of a set, and COW safety — views of one set stay
//! interchangeable until one of them forks, and a fork leaves the set and
//! every other view byte-identical.

use asqp_core::{train, AnswerSource, AsqpConfig, CowSession, RoutePlan, Session};
use asqp_core::{Prediction, SessionConfig};
use asqp_data::{imdb, Scale};
use asqp_db::{sql, Database, Query, Value, Workload};
use asqp_telemetry as telemetry;
use std::collections::BTreeSet;
use std::sync::Arc;

fn quick_config() -> AsqpConfig {
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

/// A set trained on `imdb::workload(n, seed)` over the tiny IMDB (seed 1).
fn trained_set(n: usize, seed: u64) -> (Arc<Database>, Workload, Arc<Session>) {
    let db = Arc::new(imdb::generate(Scale::Tiny, 1));
    let w = imdb::workload(n, seed);
    let model = train(&db, &w, &quick_config()).unwrap();
    let set = Arc::new(Session::new(Arc::clone(&db), model, SessionConfig::default()).unwrap());
    (db, w, set)
}

fn view(set: &Arc<Session>, config: SessionConfig) -> CowSession {
    CowSession::new(Arc::clone(set), config)
}

/// Queries far from the trained workload (drift fuel).
fn alien_queries() -> Vec<Query> {
    [
        "SELECT p.name FROM person p WHERE p.gender = 'f' AND p.name LIKE 'q%'",
        "SELECT p.name FROM person p WHERE p.gender = 'm' AND p.name LIKE 'w%'",
        "SELECT p.name FROM person p WHERE p.name LIKE 'e%'",
        "SELECT p.name FROM person p WHERE p.name LIKE 'zzz%' AND p.gender = 'f'",
        "SELECT p.name FROM person p WHERE p.gender = 'f' AND p.name LIKE 'x%'",
    ]
    .iter()
    .map(|t| sql::parse(t).unwrap())
    .collect()
}

/// A routing plan representing a confidently-deviating full-DB answer —
/// the exact condition `CowSession::finish` turns into drift.
fn deviating_plan() -> RoutePlan {
    RoutePlan {
        prediction: Prediction {
            score: 0.0,
            confidence: 0.0,
        },
        answerable: false,
    }
}

/// Byte-level fingerprint of one view: every probe query's prediction
/// (exact f64 bits) plus its subset answer's debug rendering.
fn view_fingerprint(tenant: &CowSession, probes: &[Query]) -> Vec<(u64, u64, String)> {
    probes
        .iter()
        .map(|q| {
            let plan = tenant.plan(q);
            let answer = tenant
                .answer_subset(q)
                .map(|rs| format!("{rs:?}"))
                .unwrap_or_else(|e| format!("err:{e}"));
            (
                plan.prediction.score.to_bits(),
                plan.prediction.confidence.to_bits(),
                answer,
            )
        })
        .collect()
}

/// What a fine-tune would change in a set: its model's training workload
/// (a fine-tune merges the drift queries into it) and its estimator's
/// exact scores.
fn model_fingerprint(set: &Session, probes: &[Query]) -> (usize, Vec<u64>) {
    let state = set.state();
    let scores = probes
        .iter()
        .map(|q| state.estimator.predict(q).score.to_bits())
        .collect();
    (state.model.train_workload.len(), scores)
}

#[test]
fn session_routes_known_queries_to_subset() {
    let (_, w, set) = trained_set(12, 1);
    // The unit-test budget (k=60 across 12 queries) yields fractions
    // around 0.3, so route with a threshold matched to that scale.
    let cfg = SessionConfig {
        answer_threshold: 0.25,
        ..SessionConfig::default()
    };
    let session = view(&set, cfg);

    let mut subset_hits = 0;
    for q in &w.queries {
        let (_, src) = session.query(q).unwrap();
        if src == AnswerSource::ApproximationSet {
            subset_hits += 1;
        }
    }
    assert!(
        subset_hits > 0,
        "some training queries must be answered from the subset"
    );
    assert_eq!(session.stats().queries, 12);
}

#[test]
fn unknown_queries_fall_back_to_full_db_and_accumulate_drift() {
    let (_, _, set) = trained_set(8, 1);
    let cfg = SessionConfig {
        auto_fine_tune: false,
        ..SessionConfig::default()
    };
    let session = view(&set, cfg);

    // A MAS-style query the IMDB model has never seen (unknown tables
    // would fail execution, so use an IMDB table with an alien shape).
    let alien =
        sql::parse("SELECT p.name FROM person p WHERE p.name LIKE 'zzz%' AND p.gender = 'f'")
            .unwrap();
    let (_, src) = session.query(&alien).unwrap();
    assert_eq!(src, AnswerSource::FullDatabase);
    assert!(session.stats().full_db_answers >= 1);
}

#[test]
fn fine_tune_triggers_after_drift_trigger_queries() {
    let (_, _, set) = trained_set(8, 2);
    let cfg = SessionConfig {
        drift_trigger: 2,
        ..SessionConfig::default()
    };
    let session = view(&set, cfg);

    for q in alien_queries().iter().take(3) {
        session.query(q).unwrap();
    }
    assert!(
        session.stats().fine_tunes >= 1 || session.pending_drift() < 2,
        "drift accumulation must trigger fine-tuning: {:?}",
        session.stats()
    );
}

/// Regression for the consecutive-miss semantics: a confident hit in
/// the middle of a miss streak resets the counter, so the ≥3-miss
/// fine-tune trigger only fires on three *consecutive* misses.
#[test]
fn confident_hit_resets_consecutive_miss_counter() {
    let (_, w, set) = trained_set(12, 1);
    // drift_confidence 0.0: every miss extends the streak and every
    // hit (training queries have estimator confidence 1.0) resets it,
    // making the boundary deterministic.
    let cfg = SessionConfig {
        answer_threshold: 0.25,
        drift_confidence: 0.0,
        drift_trigger: 3,
        auto_fine_tune: true,
    };
    let session = view(&set, cfg);

    let hit = w
        .queries
        .iter()
        .find(|q| session.plan(q).answerable)
        .expect("at least one training query routes to the subset")
        .clone();
    let aliens: Vec<Query> = alien_queries()
        .into_iter()
        .filter(|q| !session.plan(q).answerable)
        .collect();
    assert!(
        aliens.len() >= 3,
        "need ≥3 missing queries for the boundary"
    );

    // Two misses, then a confident hit: streak resets, no fine-tune.
    for q in aliens.iter().take(2) {
        session.query(q).unwrap();
    }
    assert_eq!(session.pending_drift(), 2);
    session.query(&hit).unwrap();
    assert_eq!(
        session.pending_drift(),
        0,
        "a confident hit must reset the consecutive-miss counter"
    );

    // Two more misses stay under the trigger (would have fired at 3
    // and 4 without the reset)...
    for q in aliens.iter().take(2) {
        session.query(q).unwrap();
    }
    assert_eq!(session.stats().fine_tunes, 0);
    assert_eq!(session.pending_drift(), 2);

    // ...and the third consecutive miss fires exactly at the boundary.
    session.query(&aliens[2]).unwrap();
    assert_eq!(session.stats().fine_tunes, 1);
    assert_eq!(session.pending_drift(), 0, "fine-tune consumes the streak");
}

/// Data drift (the database moved) must trigger a targeted refresh of
/// the set — same model, new materialisation — never a retrain.
#[test]
fn data_drift_refreshes_without_retraining() {
    let (db, w, set) = trained_set(12, 1);
    let before = set.data_fingerprint();
    let trained = model_fingerprint(&set, &[]);

    let rec = Arc::new(telemetry::MemoryRecorder::new());
    let refreshes = || {
        let report = rec.report();
        report.counters.get("session.data_refresh.runs").copied()
    };
    let live = telemetry::scoped(rec.clone(), || {
        // Same snapshot → steady-state no-op.
        assert!(!set.observe_data(&db).unwrap());
        assert_eq!(refreshes(), None);

        // Rewrite one row in place: contents identical, but the data
        // version moved, so the state is provably stale.
        let mut live = (*db).clone();
        let row = live.table("title").unwrap().row(0);
        live.update_rows("title", &[(0, row)]).unwrap();
        let live = Arc::new(live);
        assert_ne!(live.data_fingerprint(), before);

        assert!(set.observe_data(&live).unwrap());
        assert_eq!(refreshes(), Some(1));
        assert_eq!(
            model_fingerprint(&set, &[]),
            trained,
            "refresh must not retrain"
        );
        assert_eq!(set.data_fingerprint(), live.data_fingerprint());
        assert!(
            Arc::ptr_eq(&set.full_db(), &live),
            "full-DB fallbacks must move to the new snapshot"
        );

        // Observing the same snapshot again is a no-op.
        assert!(!set.observe_data(&live).unwrap());
        assert_eq!(refreshes(), Some(1));
        live
    });
    assert_eq!(set.data_fingerprint(), live.data_fingerprint());
    // Queries still route against the refreshed state.
    let cfg = SessionConfig {
        answer_threshold: 0.25,
        ..SessionConfig::default()
    };
    view(&set, cfg).query(&w.queries[0]).unwrap();
}

/// A refresh keeps the set's selection and only re-cuts it from the new
/// data: what it serves is bit-for-bit what a set built from scratch over
/// the same snapshot, policy rollout included, would serve.
#[test]
fn data_refresh_keeps_the_selection_and_equals_a_fresh_build() {
    let (db, w, set) = trained_set(12, 1);
    let selection = set.state().selection.clone();
    assert_eq!(selection, set.state().model.selection(None));

    // Append to one table and rewrite a selected row of another, so a
    // subset that was not re-cut would hold stale values.
    let mut live = (*db).clone();
    let ci = live.table("cast_info").unwrap();
    let rows: Vec<_> = (0..ci.row_count()).step_by(3).map(|i| ci.row(i)).collect();
    live.append_rows("cast_info", &rows).unwrap();
    let rid = selection["title"][0];
    let mut row = live.table("title").unwrap().row(rid);
    row[2] = Value::Int(row[2].as_i64().unwrap() + 1);
    live.update_rows("title", &[(rid, row)]).unwrap();
    let live = Arc::new(live);
    // Scoped to a recorder of its own, so that its refresh counter does not
    // land in a neighbouring test's scope.
    let rec = Arc::new(telemetry::MemoryRecorder::new());
    assert!(telemetry::scoped(rec, || set.observe_data(&live)).unwrap());
    assert_eq!(set.state().selection, selection);

    let model = set.state().model.clone();
    let fresh = Arc::new(Session::new(Arc::clone(&live), model, SessionConfig::default()).unwrap());
    assert_eq!(fresh.state().selection, selection);
    for name in live.table_names() {
        let rows = |s: &Session| {
            let t = s.state().subset.table(name).unwrap().clone();
            t.row_ids().map(|i| t.row(i)).collect::<Vec<_>>()
        };
        assert_eq!(rows(&set), rows(&fresh), "{name}");
    }
    let cfg = SessionConfig {
        answer_threshold: 0.0,
        ..SessionConfig::default()
    };
    assert_eq!(
        view_fingerprint(&view(&set, cfg.clone()), &w.queries),
        view_fingerprint(&view(&fresh, cfg), &w.queries)
    );
}

#[test]
fn aggregates_answered_from_subset_are_scaled() {
    let (db, _, set) = trained_set(12, 1);
    let cfg = SessionConfig {
        answer_threshold: 0.0, // force subset answering
        ..SessionConfig::default()
    };
    let session = view(&set, cfg);
    let agg = sql::parse("SELECT COUNT(*) FROM title t WHERE t.production_year > 1900").unwrap();
    let (rs, src) = session.query(&agg).unwrap();
    assert_eq!(src, AnswerSource::ApproximationSet);
    // Scaled count should be in the order of the true count, not the
    // raw subset count.
    let truth = db.execute(&agg).unwrap().rows.get(0, 0).as_i64().unwrap() as f64;
    let pred = rs.rows.get(0, 0).as_f64().unwrap();
    assert!(pred > 0.0 && pred <= truth * 20.0);
}

#[test]
fn session_is_shareable_across_threads() {
    let (_, w, set) = trained_set(12, 1);
    let cfg = SessionConfig {
        answer_threshold: 0.25,
        auto_fine_tune: false,
        ..SessionConfig::default()
    };
    let session = view(&set, cfg);

    std::thread::scope(|s| {
        for t in 0..4 {
            let session = &session;
            let queries = &w.queries;
            s.spawn(move || {
                for q in queries.iter().skip(t).step_by(4) {
                    session.query(q).unwrap();
                }
            });
        }
    });
    assert_eq!(session.stats().queries, 12);
    assert_eq!(
        session.stats().subset_answers + session.stats().full_db_answers,
        12
    );
}

/// A single user is a view of a set nobody else holds: its fine-tune
/// forks, so the set's model and data fingerprint stay as they were and
/// the view routes on the fork's estimator.
#[test]
fn single_user_fine_tune_forks_and_leaves_the_set_untouched() {
    let (_, w, set) = trained_set(12, 1);
    let probes = w.queries;
    let before = (set.data_fingerprint(), model_fingerprint(&set, &probes));
    let trained = set.state().model.train_workload.len();
    let user = view(&set, SessionConfig::default());

    let mut forked = false;
    for q in alien_queries().iter().take(3) {
        forked = user.finish(q, &deviating_plan()).unwrap();
    }
    assert!(forked, "third consecutive confident miss must fine-tune");
    assert_eq!(user.stats().fine_tunes, 1);

    assert_eq!(
        (set.data_fingerprint(), model_fingerprint(&set, &probes)),
        before,
        "a fine-tune must not write the set's state"
    );
    let (epoch, fork) = user.snapshot();
    assert_ne!(epoch, 0);
    assert!(!Arc::ptr_eq(&fork, &set));
    assert_eq!(
        fork.state().model.train_workload.len(),
        trained + 3,
        "the fork's model is fine-tuned on the three drift queries"
    );
    for q in &probes {
        let routed = user.plan(q).prediction.score.to_bits();
        let on_fork = fork.state().estimator.predict(q).score.to_bits();
        assert_eq!(routed, on_fork, "the view routes on the fork");
    }
}

/// The telemetry names a view emits, pinned: routing, the drift streak,
/// the fine-tune it triggers and the fork it publishes.
#[test]
fn view_emits_the_session_telemetry_names() {
    let (db, w, set) = trained_set(12, 1);
    let cfg = SessionConfig {
        answer_threshold: 0.25,
        drift_confidence: 0.0,
        ..SessionConfig::default()
    };
    let user = view(&set, cfg.clone());
    let hit = w
        .queries
        .iter()
        .find(|q| user.plan(q).answerable)
        .expect("a training query routes to the subset")
        .clone();
    let aliens: Vec<Query> = alien_queries()
        .into_iter()
        .filter(|q| !user.plan(q).answerable)
        .take(3)
        .collect();
    assert_eq!(aliens.len(), 3);
    let mut live = (*db).clone();
    let row = live.table("title").unwrap().row(0);
    live.update_rows("title", &[(0, row)]).unwrap();
    let live = Arc::new(live);

    let rec = Arc::new(telemetry::MemoryRecorder::new());
    telemetry::scoped(rec.clone(), || {
        // miss, hit (resets the streak), then three misses: a fork.
        user.query(&aliens[0]).unwrap();
        user.query(&hit).unwrap();
        for q in &aliens {
            user.query(q).unwrap();
        }
        // A sibling still on the set forks on data drift.
        assert!(view(&set, cfg).observe_data(&live).unwrap());
    });
    assert_eq!(user.stats().fine_tunes, 1);

    let report = rec.report();
    let session_names = |names: Vec<&String>| -> BTreeSet<String> {
        names
            .into_iter()
            .filter(|n| n.starts_with("session."))
            .cloned()
            .collect()
    };
    let set_of =
        |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| n.to_string()).collect() };
    assert_eq!(
        session_names(report.counters.keys().collect()),
        set_of(&[
            "session.cow.data_fork",
            "session.cow.fork",
            "session.data_drift.detected",
            "session.drift.detected",
            "session.drift.reset",
            "session.fine_tune.runs",
            "session.queries",
            "session.route.full_db",
            "session.route.subset",
        ])
    );
    assert_eq!(
        session_names(report.histograms.keys().collect()),
        set_of(&["session.latency.full_db_ns", "session.latency.subset_ns"])
    );
    assert_eq!(
        session_names(report.gauges.keys().collect()),
        set_of(&["session.predicted_score"])
    );
    // Other tests of this binary may emit into the recorder while it is
    // installed, so names are pinned, counts are not.
    assert!(report.find_span("session.query").is_some());
    assert!(report.find_span("session.fine_tune").is_some());
}

#[test]
fn fork_leaves_the_other_tenant_byte_identical() {
    let (_, workload, base) = trained_set(12, 1);

    // Two clustered tenants attach to the same shared set: one session in
    // memory, two views.
    let tenant_a = view(&base, SessionConfig::default());
    let tenant_b = view(&base, SessionConfig::default());
    assert!(Arc::ptr_eq(&tenant_a.snapshot().1, &base));
    assert!(Arc::ptr_eq(&tenant_b.snapshot().1, &base));
    assert_eq!(tenant_a.share_epoch(), 0);
    assert_eq!(tenant_b.share_epoch(), 0);
    let (epoch, session) = tenant_a.snapshot();
    assert_eq!(epoch, 0);
    assert!(
        Arc::ptr_eq(&session, &base),
        "pre-fork snapshot is the base"
    );

    let probes = workload.queries;
    let b_before = view_fingerprint(&tenant_b, &probes);
    let base_model_before = model_fingerprint(&base, &probes);

    // Tenant A drifts: three consecutive confidently-deviating misses
    // trip its private trigger and fork a private session.
    let mut forked = false;
    for q in alien_queries().iter().take(3) {
        forked = tenant_a.finish(q, &deviating_plan()).unwrap();
    }
    assert!(forked, "third consecutive confident miss must fork");
    assert!(tenant_a.stats().forked);
    assert_ne!(tenant_a.share_epoch(), 0);
    assert!(
        !Arc::ptr_eq(&tenant_a.snapshot().1, &base),
        "the fork must be a private session"
    );
    // Epoch and session are published together: one snapshot read can
    // never pair the shared epoch 0 with the private fork (the TOCTOU
    // the serving layer's batching safety relies on).
    let (epoch, session) = tenant_a.snapshot();
    assert_ne!(epoch, 0);
    assert_eq!(epoch, tenant_a.share_epoch());
    assert!(
        !Arc::ptr_eq(&session, &base),
        "post-fork snapshot is the private session, atomically with its epoch"
    );

    // Tenant B is untouched: same shared session, epoch still 0, and its
    // scores and subset answers are byte-identical to before the fork.
    assert!(!tenant_b.stats().forked);
    assert_eq!(tenant_b.share_epoch(), 0);
    assert!(Arc::ptr_eq(&tenant_b.snapshot().1, &base));
    let b_after = view_fingerprint(&tenant_b, &probes);
    assert_eq!(
        b_before, b_after,
        "fork of tenant A must not perturb tenant B's view by a single bit"
    );

    // The shared base was never fine-tuned — COW read the model, it did
    // not write it.
    assert_eq!(model_fingerprint(&base, &probes), base_model_before);

    let a_stats = tenant_a.stats();
    assert!(a_stats.forked);
    assert_eq!(tenant_a.pending_drift(), 0, "fork consumes the drift set");
}

/// Data drift forks exactly like interest drift — privately. When the
/// live database moves underneath a shared base, the observing tenant
/// gets a fresh private session over the new data (same model, no
/// fine-tune) while the base and every sibling stay byte-identical.
#[test]
fn data_drift_forks_privately_and_leaves_siblings_byte_identical() {
    let (db, workload, base) = trained_set(12, 1);

    let tenant_a = view(&base, SessionConfig::default());
    let tenant_b = view(&base, SessionConfig::default());
    let probes = workload.queries;
    let b_before = view_fingerprint(&tenant_b, &probes);

    // Fresh data, unchanged fingerprint → nothing happens.
    assert!(!tenant_a.observe_data(&db).unwrap());
    assert!(!tenant_a.stats().forked);

    // The live database moves (an in-place rewrite bumps the version even
    // though the bytes match — staleness is a version property).
    let mut live = (*db).clone();
    let row = live.table("title").unwrap().row(0);
    live.update_rows("title", &[(0, row)]).unwrap();
    let live = Arc::new(live);

    // Tenant A observes the drift and forks deterministically.
    assert!(tenant_a.observe_data(&live).unwrap());
    assert!(tenant_a.stats().forked);
    assert_ne!(tenant_a.share_epoch(), 0);
    let fork = tenant_a.snapshot().1;
    assert!(!Arc::ptr_eq(&fork, &base));
    assert_eq!(fork.data_fingerprint(), live.data_fingerprint());
    assert_eq!(
        (
            tenant_a.stats().fine_tunes,
            fork.state().model.train_workload.len()
        ),
        (0, base.state().model.train_workload.len()),
        "a data fork re-materialises; it must not retrain"
    );
    assert_eq!(
        tenant_a.pending_drift(),
        0,
        "data drift must not touch the interest-drift streak"
    );
    assert_eq!(
        fork.state().selection,
        base.state().selection,
        "a data fork re-cuts the base's selection"
    );
    // Observing the same snapshot again is a no-op on the private fork.
    assert!(!tenant_a.observe_data(&live).unwrap());

    // Tenant B and the base never moved: still epoch 0, still routing
    // against the original snapshot, answers bit-for-bit unchanged.
    assert!(!tenant_b.stats().forked);
    assert!(Arc::ptr_eq(&tenant_b.snapshot().1, &base));
    assert_eq!(base.data_fingerprint(), db.data_fingerprint());
    let b_after = view_fingerprint(&tenant_b, &probes);
    assert_eq!(
        b_before, b_after,
        "a sibling's data fork must not perturb tenant B's view by a single bit"
    );
}

#[test]
fn epoch_zero_views_of_one_base_are_interchangeable() {
    let (_, workload, base) = trained_set(8, 3);

    let tenants: Vec<CowSession> = (0..3)
        .map(|_| view(&base, SessionConfig::default()))
        .collect();
    let fingerprints: Vec<_> = tenants
        .iter()
        .map(|t| view_fingerprint(t, &workload.queries))
        .collect();
    for fp in &fingerprints {
        assert_eq!(
            fp, &fingerprints[0],
            "same base + epoch 0 must answer identically — the scan-batching contract"
        );
    }
}
