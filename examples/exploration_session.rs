//! A scripted data-exploration session (paper Figure 1b): the estimator
//! routes each query to the approximation set or the full database, and a
//! drift in user interest triggers fine-tuning.
//!
//! ```sh
//! cargo run --release --example exploration_session
//! ```

use asqp::prelude::*;

fn main() {
    let db = std::sync::Arc::new(asqp::data::imdb::generate(Scale::Small, 3));

    // The user's past workload is movie-centric: years, ratings, kinds.
    let history = asqp::data::imdb::workload(30, 3);
    let cfg = AsqpConfig::full(500, 50).with_seed(3);
    let model = train(&db, &history, &cfg).expect("training succeeds");

    // Person queries share join edges with the movie workload, so their
    // deviation certainty is moderate — lower the drift gate accordingly
    // (the paper's 0.8 default suits fully-alien workloads).
    let session_cfg = SessionConfig {
        drift_confidence: 0.55,
        ..SessionConfig::default()
    };
    let set = Session::new(db.clone(), model, session_cfg.clone())
        .expect("session materialises the approximation set");
    println!(
        "session ready: approximation set holds {} tuples\n",
        set.state().subset.total_rows()
    );
    // The user's view of the set routes their queries and tracks their
    // drift; its fine-tune forks a private set.
    let session = CowSession::new(std::sync::Arc::new(set), session_cfg);

    // Phase 1 — queries close to the training workload: mostly answered
    // from the approximation set, instantly.
    println!("--- phase 1: familiar movie queries ---");
    let familiar = asqp::data::imdb::workload(36, 3);
    for q in familiar.queries.iter().skip(30) {
        route_and_report(&session, q);
    }

    // Phase 2 — the user drifts to person-centric exploration the model
    // never saw. The estimator sends these to the full database, and after
    // three confident deviations the model fine-tunes itself.
    println!("\n--- phase 2: interest drifts to people ---");
    let drift = [
        "SELECT p.name FROM person p WHERE p.gender = 'f' AND p.name LIKE 'a%'",
        "SELECT p.name FROM person p WHERE p.gender = 'm' AND p.name LIKE 'b%'",
        "SELECT p.name, c.role FROM person p, cast_info c \
         WHERE p.id = c.person_id AND c.role = 'director'",
        "SELECT p.name FROM person p WHERE p.name LIKE 'c%'",
    ];
    for text in drift {
        let q = asqp::db::sql::parse(text).expect("valid SQL");
        route_and_report(&session, &q);
    }

    println!("\nsession stats: {:?}", session.stats());
    if session.stats().fine_tunes > 0 {
        println!("the model fine-tuned itself after detecting interest drift");
        // Phase 3: person queries now hit the refreshed approximation set.
        println!("\n--- phase 3: drifted queries after fine-tuning ---");
        let q = asqp::db::sql::parse(
            "SELECT p.name FROM person p WHERE p.gender = 'f' AND p.name LIKE 'd%'",
        )
        .expect("valid SQL");
        route_and_report(&session, &q);
    }
}

fn route_and_report(session: &CowSession, q: &Query) {
    let preview: String = q.to_sql().chars().take(72).collect();
    let (result, source) = session.query(q).expect("query executes");
    let tag = match source {
        AnswerSource::ApproximationSet => "approx",
        AnswerSource::FullDatabase => "FULL DB",
    };
    println!("[{tag:>7}] {:>5} rows  {preview}...", result.rows.len());
}
