//! # asqp-embed — query & tuple embeddings for ASQP-RL
//!
//! Deterministic substitute for the paper's modified sentence-BERT models:
//!
//! * [`Embedder`] — signed feature-hashing into unit vectors, with a query
//!   mode (structure + bucketed literals) and a tuple mode (column names as
//!   tokens, per the paper's tabular adaptation)
//! * [`cosine`] / [`sq_dist`] — similarity primitives
//! * [`kmeans`] / [`kmedoids`] — representative selection, drift clustering
//!   and the QRD baseline's medoid step
//!
//! See DESIGN.md §2 for why feature hashing preserves the two signals the
//! paper actually uses embeddings for.

pub mod cluster;
pub mod embedder;
pub mod tokenize;

pub use cluster::{kmeans, kmedoids, Clustering};
pub use embedder::{cosine, cosine_with_norms, l2_normalize, norm, sq_dist, Embedder};
pub use tokenize::{numeric_bucket, tokenize, with_bigrams};
