//! # asqp — ASQP-RL: Learning Approximation Sets for Exploratory Queries
//!
//! Facade crate re-exporting the full ASQP-RL reproduction:
//!
//! * [`db`] — in-memory relational engine (SQL subset, hash joins, lineage)
//! * [`data`] — seeded IMDB- / MAS- / FLIGHTS-shaped datasets + workloads
//! * [`embed`] — feature-hashing query/tuple embeddings + clustering
//! * [`nn`] — from-scratch MLPs, Adam, VAE
//! * [`rl`] — PPO / A2C / REINFORCE with action masking
//! * [`core`] — the ASQP-RL system itself (metric, preprocessing, GSL/DRP
//!   environments, training, inference, estimator, drift, aggregates)
//! * [`baselines`] — every comparator from the paper's evaluation
//! * [`serve`] — concurrent session server (admission control, deadlines
//!   with degrade-to-subset, seeded fault injection, chaos simulator)
//!
//! ```
//! use asqp::prelude::*;
//!
//! let db = asqp::data::imdb::generate(Scale::Tiny, 1);
//! let workload = asqp::data::imdb::workload(12, 1);
//! let mut cfg = AsqpConfig::full(60, 20);
//! cfg.iterations = 3; // doc-test budget
//! cfg.trainer.num_workers = 1;
//! let model = train(&db, &workload, &cfg).unwrap();
//! let subset = model.materialize(&db, None).unwrap();
//! assert!(subset.total_rows() > 0);
//! ```

pub use asqp_baselines as baselines;
pub use asqp_core as core;
pub use asqp_data as data;
pub use asqp_db as db;
pub use asqp_embed as embed;
pub use asqp_nn as nn;
pub use asqp_rl as rl;
pub use asqp_serve as serve;

/// The most common imports in one place.
pub mod prelude {
    pub use asqp_baselines::{Baseline, BaselineOutput};
    pub use asqp_core::{
        fine_tune, score, train, AnswerSource, AsqpConfig, CowSession, MetricParams, Session,
        SessionConfig, TrainedModel,
    };
    pub use asqp_data::Scale;
    pub use asqp_db::{Database, Query, Value, Workload};
}
