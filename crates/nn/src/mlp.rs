//! Multi-layer perceptrons with manual backpropagation.
//!
//! The paper's actor and critic are "an input layer matching the action
//! space's size, followed by smaller fully-connected layers" (§5.1); this
//! module provides exactly that, plus the gradients PPO needs.

use crate::kernels::{self, EpilogueAct};
use crate::matrix::Matrix;
use asqp_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Activation applied after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    Relu,
    Tanh,
    Identity,
}

impl Activation {
    fn epilogue(self) -> EpilogueAct {
        match self {
            Activation::Relu => EpilogueAct::Relu,
            Activation::Tanh => EpilogueAct::Tanh,
            Activation::Identity => EpilogueAct::Identity,
        }
    }

    /// dL/dx given dL/dy and the *activated output* y.
    fn backward(self, dy: &Matrix, y: &Matrix) -> Matrix {
        match self {
            Activation::Relu => dy.zip_map(y, |g, out| if out > 0.0 { g } else { 0.0 }),
            Activation::Tanh => dy.zip_map(y, |g, out| g * (1.0 - out * out)),
            Activation::Identity => dy.clone(),
        }
    }
}

/// Per-layer saved activations from a forward pass
/// ([`Mlp::forward_tape`]): the chain of layer inputs/outputs needed by
/// [`Mlp::backward_tape`]. The caller owns the tape and the model stays
/// `&self`, which is what lets several threads compute gradients against
/// one shared `&Mlp` concurrently.
#[derive(Debug, Clone)]
pub struct MlpTape {
    /// `acts[0]` is the network input, `acts[i + 1]` the activated output
    /// of layer `i`.
    acts: Vec<Matrix>,
}

impl MlpTape {
    /// The forward pass's final output.
    pub fn output(&self) -> &Matrix {
        self.acts.last().expect("tape always holds the input")
    }
}

/// Gradients for one [`Linear`] layer, produced by [`Mlp::backward_tape`].
#[derive(Debug, Clone)]
pub struct LayerGrads {
    pub gw: Matrix,
    pub gb: Matrix,
}

impl LayerGrads {
    /// Elementwise accumulate `other` into `self`. Callers that reduce
    /// shard gradients must invoke this in a fixed shard order — f32
    /// addition is not associative, and byte-determinism of the sharded
    /// PPO update rests on this ordering.
    pub fn accumulate(&mut self, other: &LayerGrads) {
        debug_assert_eq!(self.gw.shape(), other.gw.shape());
        debug_assert_eq!(self.gb.shape(), other.gb.shape());
        for (a, b) in self.gw.data_mut().iter_mut().zip(other.gw.data()) {
            *a += b;
        }
        for (a, b) in self.gb.data_mut().iter_mut().zip(other.gb.data()) {
            *a += b;
        }
    }
}

/// One fully-connected layer `y = act(x W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    pub w: Matrix,
    pub b: Matrix,
    pub act: Activation,
}

impl Linear {
    pub fn new(inputs: usize, outputs: usize, act: Activation, rng: &mut impl rand::Rng) -> Self {
        Linear {
            w: Matrix::kaiming(inputs, outputs, rng),
            b: Matrix::zeros(1, outputs),
            act,
        }
    }

    /// `act(x W + b)` through the fused kernel: one GEMM + one epilogue
    /// sweep, a single output allocation, no intermediate matrices.
    fn fused_out(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.w.rows(),
            "layer input width {} != weight rows {}",
            x.cols(),
            self.w.rows()
        );
        let mut out = Matrix::zeros(x.rows(), self.w.cols());
        kernels::fused_linear_into(
            x.rows(),
            x.cols(),
            self.w.cols(),
            x.data(),
            self.w.data(),
            Some(self.b.data()),
            self.act.epilogue(),
            out.data_mut(),
        );
        out
    }

    /// `act(x W + b)` on a batch (rows = samples).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        self.fused_out(x)
    }

    /// Single-row inference fast path: `out = act(x W + b)` written straight
    /// into a reusable buffer — no `Matrix` wrappers, no per-layer
    /// allocations once `out`'s capacity has warmed up. Bit-identical to
    /// [`Linear::infer`] on a 1-row matrix (same kernel, same order).
    pub fn infer_row_into(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.w.rows(), "row width != weight rows");
        out.clear();
        out.resize(self.w.cols(), 0.0);
        kernels::fused_linear_into(
            1,
            x.len(),
            self.w.cols(),
            x,
            self.w.data(),
            Some(self.b.data()),
            self.act.epilogue(),
            out,
        );
    }

    pub fn param_count(&self) -> usize {
        self.w.data().len() + self.b.data().len()
    }
}

/// A stack of [`Linear`] layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    pub layers: Vec<Linear>,
}

impl Mlp {
    /// `sizes = [in, h1, ..., out]`; hidden layers use `hidden_act`, the
    /// output layer is linear (softmax/MSE heads live outside the MLP).
    // asqp::panic-free-audited: `sizes[i]`/`sizes[i + 1]` iterate `i` up to
    // `sizes.len() - 2`; the `len >= 2` assert is a constructor contract every
    // in-tree caller satisfies with literal size lists
    pub fn new(sizes: &[usize], hidden_act: Activation, rng: &mut impl rand::Rng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i + 2 == sizes.len() {
                Activation::Identity
            } else {
                hidden_act
            };
            layers.push(Linear::new(sizes[i], sizes[i + 1], act, rng));
        }
        Mlp { layers }
    }

    pub fn infer(&self, x: &Matrix) -> Matrix {
        let t = telemetry::enabled().then(Instant::now);
        let mut h = x.clone();
        for l in &self.layers {
            h = l.infer(&h);
        }
        if let Some(t) = t {
            telemetry::observe_duration("nn.forward_ns", t.elapsed());
        }
        h
    }

    /// Single-row inference fast path: runs the whole stack on one state
    /// vector through [`Linear::infer_row_into`] with two ping-pong
    /// buffers — no `Matrix` allocation per layer. Bit-identical to
    /// [`Mlp::infer`] on a 1-row matrix.
    ///
    /// Deliberately untimed: this is the rollout hot path, called once per
    /// environment step, and even a branch-on-disabled telemetry probe is
    /// measurable there.
    pub fn infer_row(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for l in &self.layers {
            l.infer_row_into(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Forward pass that records the activation chain needed for
    /// [`Mlp::backward_tape`]. It takes `&self`, so many threads can run
    /// tapes against one shared model — the basis of the sharded PPO
    /// update.
    pub fn forward_tape(&self, x: &Matrix) -> MlpTape {
        let t = telemetry::enabled().then(Instant::now);
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for l in &self.layers {
            let y = l.infer(acts.last().expect("acts starts non-empty"));
            acts.push(y);
        }
        if let Some(t) = t {
            telemetry::observe_duration("nn.forward_ns", t.elapsed());
        }
        MlpTape { acts }
    }

    /// Backprop against a tape from [`Mlp::forward_tape`]; returns one
    /// [`LayerGrads`] per layer (same order as `self.layers`). The model is
    /// not touched, so concurrent calls on `&self` are safe. The gradient
    /// with respect to the network input is not computed: the trainer has
    /// no use for it, and for the actor it is a GEMM over the widest layer.
    pub fn backward_tape(&self, tape: &MlpTape, dy: &Matrix) -> Vec<LayerGrads> {
        self.backprop(tape, dy, false).0
    }

    /// [`Mlp::backward_tape`] plus dL/dX of the network input, for a caller
    /// that backpropagates into whatever produced that input (the VAE's
    /// decoder into its encoder).
    pub fn backward_tape_dx(&self, tape: &MlpTape, dy: &Matrix) -> (Vec<LayerGrads>, Matrix) {
        self.backprop(tape, dy, true)
    }

    /// The second value is dL/dX of layer 0 when `input_grad`, and layer
    /// 0's incoming gradient otherwise.
    fn backprop(&self, tape: &MlpTape, dy: &Matrix, input_grad: bool) -> (Vec<LayerGrads>, Matrix) {
        let t = telemetry::enabled().then(Instant::now);
        assert_eq!(
            tape.acts.len(),
            self.layers.len() + 1,
            "tape does not match this model"
        );
        let mut rev_grads = Vec::with_capacity(self.layers.len());
        let mut g = dy.clone();
        for (i, l) in self.layers.iter().enumerate().rev() {
            let x = &tape.acts[i];
            let y = &tape.acts[i + 1];
            let dz = l.act.backward(&g, y);
            let gw = x.t_matmul(&dz);
            let gb = dz.sum_rows();
            if i > 0 || input_grad {
                g = dz.matmul_t(&l.w);
            }
            rev_grads.push(LayerGrads { gw, gb });
        }
        rev_grads.reverse();
        if let Some(t) = t {
            telemetry::observe_duration("nn.backward_ns", t.elapsed());
        }
        (rev_grads, g)
    }

    /// (parameter, gradient) pairs for [`crate::Adam`], built from tape
    /// gradients (reduced across shards by the caller where it shards).
    pub fn params_with_grads(&mut self, grads: &[LayerGrads]) -> Vec<(&mut [f32], Vec<f32>)> {
        assert_eq!(grads.len(), self.layers.len(), "one LayerGrads per layer");
        self.layers
            .iter_mut()
            .zip(grads)
            .flat_map(|(l, g)| {
                [
                    (l.w.data_mut(), g.gw.data().to_vec()),
                    (l.b.data_mut(), g.gb.data().to_vec()),
                ]
            })
            .collect()
    }

    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check on a scalar loss L = sum(mlp(x)).
    #[test]
    fn gradient_check_against_finite_differences() {
        let mut rng = StdRng::seed_from_u64(42);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);

        // Analytic gradients: dL/dy = ones.
        let tape = mlp.forward_tape(&x);
        let y = tape.output();
        let dy = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let analytic: Vec<Vec<f32>> = mlp
            .backward_tape(&tape, &dy)
            .iter()
            .flat_map(|g| [g.gw.data().to_vec(), g.gb.data().to_vec()])
            .collect();

        // Numeric gradients: central differences on cloned models.
        let eps = 1e-3f32;
        let loss = |m: &Mlp, x: &Matrix| -> f32 { m.infer(x).data().iter().sum() };
        let base = mlp.clone();
        let mut num_grads: Vec<Vec<f32>> = Vec::new();
        for li in 0..base.layers.len() {
            for which in 0..2 {
                let len = if which == 0 {
                    base.layers[li].w.data().len()
                } else {
                    base.layers[li].b.data().len()
                };
                let mut g = vec![0.0f32; len];
                for i in 0..len {
                    let mut plus = base.clone();
                    let mut minus = base.clone();
                    {
                        let p = if which == 0 {
                            plus.layers[li].w.data_mut()
                        } else {
                            plus.layers[li].b.data_mut()
                        };
                        p[i] += eps;
                        let m = if which == 0 {
                            minus.layers[li].w.data_mut()
                        } else {
                            minus.layers[li].b.data_mut()
                        };
                        m[i] -= eps;
                    }
                    g[i] = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * eps);
                }
                num_grads.push(g);
            }
        }

        for (a, n) in analytic.iter().zip(&num_grads) {
            for (&ga, &gn) in a.iter().zip(n) {
                assert!(
                    (ga - gn).abs() < 2e-2,
                    "analytic {ga} vs numeric {gn} differ"
                );
            }
        }
    }

    #[test]
    fn relu_kills_negative_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(1, 1, Activation::Relu, &mut rng);
        // Force a negative pre-activation.
        l.w.data_mut()[0] = 1.0;
        l.b.data_mut()[0] = -5.0;
        let mlp = Mlp { layers: vec![l] };
        let tape = mlp.forward_tape(&Matrix::from_vec(1, 1, vec![1.0]));
        assert_eq!(tape.output().data(), &[0.0]);
        let (grads, dx) = mlp.backward_tape_dx(&tape, &Matrix::from_vec(1, 1, vec![1.0]));
        assert_eq!(dx.data(), &[0.0]);
        assert_eq!(grads[0].gw.data(), &[0.0]);
    }

    #[test]
    fn forward_and_infer_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let x = Matrix::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.0]);
        assert_eq!(mlp.forward_tape(&x).output(), &mlp.infer(&x));
    }

    #[test]
    fn infer_row_matches_infer() {
        let mut rng = StdRng::seed_from_u64(11);
        let mlp = Mlp::new(&[6, 16, 9, 4], Activation::Tanh, &mut rng);
        let x = vec![0.3, -0.7, 1.4, 0.0, -2.2, 0.9];
        let full = mlp.infer(&Matrix::from_row(&x));
        let row = mlp.infer_row(&x);
        assert_eq!(full.data(), row.as_slice());
    }

    #[test]
    fn layer_grads_accumulate_elementwise() {
        let mut a = LayerGrads {
            gw: Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            gb: Matrix::from_vec(1, 2, vec![0.5, -0.5]),
        };
        let b = LayerGrads {
            gw: Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]),
            gb: Matrix::from_vec(1, 2, vec![1.0, 1.0]),
        };
        a.accumulate(&b);
        assert_eq!(a.gw.data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(a.gb.data(), &[1.5, 0.5]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[10, 5, 2], Activation::Relu, &mut rng);
        assert_eq!(mlp.param_count(), 10 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn grads_of_two_passes_accumulate_to_twice_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(&[2, 2], Activation::Identity, &mut rng);
        let tape = mlp.forward_tape(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let dy = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let one = mlp.backward_tape(&tape, &dy).remove(0);
        let mut two = one.clone();
        two.accumulate(&mlp.backward_tape(&tape, &dy)[0]);
        let (g1, g2): (f32, f32) = (one.gw.data().iter().sum(), two.gw.data().iter().sum());
        assert!(g1 != 0.0 && (g2 - 2.0 * g1).abs() < 1e-5, "g1={g1} g2={g2}");
    }
}
