//! # asqp-core — ASQP-RL: Learning Approximation Sets for Exploratory Queries
//!
//! The paper's primary contribution, end to end:
//!
//! * [`metric`] — the approximation-quality score (Eq. 1)
//! * [`anaqp`] — the ANAQP problem, exact/greedy solvers, and the
//!   max-k-vertex-cover NP-hardness reduction (§3)
//! * [`mod@preprocess`] — query relaxation, representative selection, lineage
//!   subsampling and action-space construction (§4.2, Algorithm 1)
//! * [`envs`] — the GSL / DRP / hybrid tabular RL environments with
//!   incremental Δscore rewards (§5.2)
//! * [`model`] — training (Algorithm 1), inference (Algorithm 2), and the
//!   full / ASQP-Light / adaptive configurations (§4.5)
//! * [`estimator`] — the answerability estimator (§4.4)
//! * [`session`] — the shared approximation set (`Session`, refreshed on
//!   data drift) and the per-user copy-on-write view that routes queries,
//!   detects interest drift and fine-tunes into a private fork
//!   (`CowSession`, §4.4)
//! * [`aggregates`] — scale-corrected approximate aggregates + relative
//!   error (§6.4)
//! * [`workload_synth`] — the unknown-workload mode (§4.5)
//! * [`diversity`] — pairwise-Jaccard answer diversity (§6.2)
//!
//! ## Quickstart
//!
//! ```
//! use asqp_core::{train, AsqpConfig};
//! use asqp_data::{imdb, Scale};
//!
//! let db = imdb::generate(Scale::Tiny, 1);
//! let workload = imdb::workload(12, 1);
//! let mut cfg = AsqpConfig::full(60, 20);
//! cfg.iterations = 5; // doc-test budget
//! cfg.trainer.num_workers = 1;
//! let model = train(&db, &workload, &cfg).unwrap();
//! let subset = model.materialize(&db, None).unwrap();
//! assert!(subset.total_rows() > 0);
//! ```

pub mod aggregates;
pub mod anaqp;
pub mod diversity;
pub mod envs;
pub mod estimator;
pub mod metric;
pub mod model;
pub mod preprocess;
pub mod session;
pub mod workload_synth;

pub use aggregates::{
    approximate_aggregate, operator_class, relative_error, result_relative_error,
};
pub use anaqp::{AnaqpInstance, MaxKVertexCover, Selection};
pub use diversity::{result_diversity, workload_diversity};
pub use envs::{AsqpEnv, CoverageTracker, EnvConfig, EnvKind};
pub use estimator::{AnswerabilityEstimator, Prediction};
pub use metric::{per_query_fractions, score, score_with_counts, FullCounts, MetricParams};
pub use model::{fine_tune, train, AsqpConfig, ModelSnapshot, SnapshotError, TrainedModel};
pub use preprocess::{
    preprocess, relax_query, Action, ActionSpace, PreprocessConfig, Preprocessed,
};
pub use session::{
    AnswerSource, CowSession, CowStats, RoutePlan, Session, SessionConfig, SessionState,
};
pub use workload_synth::{detect_joins, synthesize_workload, JoinEdge};
