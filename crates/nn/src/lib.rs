//! # asqp-nn — minimal dense neural-network library
//!
//! From-scratch substrate replacing PyTorch in the ASQP-RL reproduction:
//!
//! * [`Matrix`] — row-major f32 matrices with the handful of ops backprop
//!   needs (`matmul`, transpose-fused variants, broadcasts)
//! * [`kernels`] — the compute layer under `Matrix`: cache-blocked,
//!   register-tiled GEMM with runtime AVX2/AVX-512 dispatch, a fused
//!   linear+bias+activation epilogue, and bit-exact naive references
//! * [`Mlp`] / [`Linear`] — fully-connected stacks with manual
//!   backpropagation (gradient-checked against finite differences)
//! * [`Adam`] — Adam with global-norm gradient clipping
//! * [`func`] — stable softmax, masked categorical sampling, entropy
//! * [`Vae`] — variational autoencoder used by the generative-model baseline
//!
//! Everything is deterministic given a seeded `rand::Rng`.

pub mod func;
pub mod kernels;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod vae;

pub use func::{
    argmax, entropy, log_softmax, mask_logits, sample_categorical, softmax_in_place, softmax_rows,
};
pub use matrix::{Matrix, SetBits};
pub use mlp::{
    reduce_in_order, Activation, LayerGrads, LayerInput, Linear, Mlp, MlpTape, TransposedWeights,
};
pub use optim::Adam;
pub use vae::{randn, Vae, VaeConfig};
