//! Multi-layer perceptrons with manual backpropagation.
//!
//! The paper's actor and critic are "an input layer matching the action
//! space's size, followed by smaller fully-connected layers" (§5.1); this
//! module provides exactly that, plus the gradients PPO needs.

use crate::kernels::{self, EpilogueAct};
use crate::matrix::{Matrix, SetBits};
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

    /// dL/dz of the pre-activation given dL/dy and the *activated output*
    /// y: `dy` itself for the identity, and otherwise written to `dz`.
    fn backward_into<'a>(self, dy: &'a Matrix, y: &Matrix, dz: &'a mut Matrix) -> &'a Matrix {
        match self {
            Activation::Relu => dy.zip_map_into(y, dz, |g, out| if out > 0.0 { g } else { 0.0 }),
            Activation::Tanh => dy.zip_map_into(y, dz, |g, out| g * (1.0 - out * out)),
            Activation::Identity => return dy,
        }
        dz
    }
}

/// Everything one forward and backward pass of one [`Mlp`] writes: the
/// activated output of every layer ([`Mlp::forward_tape`]), the gradients
/// ([`Mlp::backward_tape`]) and the temporaries between them. The caller
/// owns the tape and the model stays `&self`, which is what lets several
/// threads compute gradients against one shared `&Mlp` concurrently; a tape
/// that is passed in again is overwritten in place, so a caller that keeps
/// it allocates nothing from its second pass on. The network input is not
/// copied in: the backward pass is handed it again.
#[derive(Debug, Clone, Default)]
pub struct MlpTape {
    /// `acts[i]` is the activated output of layer `i`.
    acts: Vec<Matrix>,
    grads: Vec<LayerGrads>,
    /// dL/dz of the layer in hand, where its activation is not the identity.
    dz: Matrix,
    /// The gradient coming into the layer in hand, and the one it passes on.
    g_in: Matrix,
    g_out: Matrix,
    /// Transpose of the layer's input, for `gw = x^T dz`.
    xt: Matrix,
}

impl MlpTape {
    /// The forward pass's final output.
    pub fn output(&self) -> &Matrix {
        self.acts
            .last()
            .expect("no forward pass has run on this tape")
    }

    /// The backward pass's gradients, one per layer in layer order.
    pub fn grads(&self) -> &[LayerGrads] {
        &self.grads
    }

    /// [`MlpTape::grads`] as the accumulator of [`reduce_in_order`].
    pub fn grads_mut(&mut self) -> &mut [LayerGrads] {
        &mut self.grads
    }

    /// dL/dX of the network input, after a backward pass whose
    /// [`TransposedWeights`] asked for it.
    pub fn input_grad(&self) -> &Matrix {
        &self.g_in
    }
}

/// Gradients for one [`Linear`] layer, produced by [`Mlp::backward_tape`].
#[derive(Debug, Clone, Default)]
pub struct LayerGrads {
    pub gw: Matrix,
    pub gb: Matrix,
}

/// `W^T` of every layer whose incoming gradient the backward pass hands on
/// to the layer below: all but the first, and the first too when the
/// gradient of the network input is wanted. Made by
/// [`Mlp::transpose_weights_into`] and valid until the weights change: a
/// caller that runs several backward passes between two optimiser steps
/// (the trainer's gradient shards) transposes once for all of them. It is
/// the caller's to keep and to refresh, not a cache on [`Linear`], which
/// could go stale unseen.
#[derive(Debug, Clone, Default)]
pub struct TransposedWeights {
    wt: Vec<Matrix>,
    input_grad: bool,
}

/// Add the gradients in `rest` to `acc` element by element in the order
/// given — `((acc + rest[0]) + rest[1]) + …`; f32 addition is not
/// associative, and byte-determinism of the sharded PPO update rests on
/// this order — and return the sum of the squares of the result, added up
/// serially in [`Mlp::params_with_grads`]'s order from `+0.0`: the number
/// [`crate::Adam::step`] would compute from the reduced gradients in a pass
/// of its own, here under the latency of the same pass.
pub fn reduce_in_order<'a>(
    acc: &mut [LayerGrads],
    rest: impl Iterator<Item = &'a [LayerGrads]> + Clone,
) -> f32 {
    /// Elements reduced at a time: the additions run over a block that
    /// stays in L1 and vectorise, the serial chain of squares follows.
    const BLOCK: usize = 256;
    fn reduce_group<'a>(
        acc: &mut [f32],
        rest: impl Iterator<Item = &'a Matrix> + Clone,
        mut sum_squares: f32,
    ) -> f32 {
        for part in rest.clone() {
            assert_eq!(part.data().len(), acc.len(), "gradient layout");
        }
        for (block, sums) in acc.chunks_mut(BLOCK).enumerate() {
            let span = block * BLOCK..block * BLOCK + sums.len();
            for part in rest.clone() {
                for (s, &x) in sums.iter_mut().zip(&part.data()[span.clone()]) {
                    *s += x;
                }
            }
            for &s in sums.iter() {
                sum_squares += s * s;
            }
        }
        sum_squares
    }

    let mut sum_squares = 0.0;
    for (layer, a) in acc.iter_mut().enumerate() {
        let gw = rest.clone().map(|r| &r[layer].gw);
        sum_squares = reduce_group(a.gw.data_mut(), gw, sum_squares);
        let gb = rest.clone().map(|r| &r[layer].gb);
        sum_squares = reduce_group(a.gb.data_mut(), gb, sum_squares);
    }
    sum_squares
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

    /// `act(x W + b)` on a batch (rows = samples) through the fused kernel:
    /// one GEMM + one epilogue sweep into a reused output, no intermediate
    /// matrices.
    fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.w.rows(),
            "layer input width {} != weight rows {}",
            x.cols(),
            self.w.rows()
        );
        out.reshape_for_overwrite(x.rows(), self.w.cols());
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
    }

    pub fn param_count(&self) -> usize {
        self.w.data().len() + self.b.data().len()
    }
}

/// What the first layer of an [`Mlp`] reads: a dense batch, or the
/// [`SetBits`] of one. The layers after it read the dense output of the
/// layer before.
pub trait LayerInput {
    /// `act(self W + b)` of layer `l`, into `out`.
    fn linear_into(&self, l: &Linear, out: &mut Matrix);
    /// `self^T dz`, the weight gradient, into `gw`; `t` is scratch.
    fn weight_grad_into(&self, dz: &Matrix, t: &mut Matrix, gw: &mut Matrix);
}

impl LayerInput for Matrix {
    fn linear_into(&self, l: &Linear, out: &mut Matrix) {
        l.forward_into(self, out);
    }
    fn weight_grad_into(&self, dz: &Matrix, t: &mut Matrix, gw: &mut Matrix) {
        self.t_matmul_into(dz, t, gw);
    }
}

impl LayerInput for SetBits {
    /// The dense rows' bits from their set bits (see [`crate::kernels`]).
    fn linear_into(&self, l: &Linear, out: &mut Matrix) {
        let n = l.w.cols();
        out.reshape_for_overwrite(self.ends.len(), n);
        kernels::gather_rows(self, l.w.data(), n, out.data_mut());
        kernels::epilogue(n, Some(l.b.data()), l.act.epilogue(), out.data_mut());
    }
    /// `gw[c]` gathers the rows of `dz` whose row of `self` sets column `c`,
    /// in ascending order. A `dz` holding a NaN or an infinity, where a
    /// left-out `fma(0, inf, acc)` would not be `acc`, takes the dense path.
    fn weight_grad_into(&self, dz: &Matrix, t: &mut Matrix, gw: &mut Matrix) {
        if !dz.data().iter().all(|v| v.is_finite()) {
            return self.to_dense().t_matmul_into(dz, t, gw);
        }
        assert_eq!(dz.rows(), self.ends.len(), "t_matmul shape mismatch");
        gw.reshape_for_overwrite(self.width, dz.cols());
        kernels::gather_rows(&self.transposed(), dz.data(), dz.cols(), gw.data_mut());
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

    /// The stack on `x`: the first layer reads `x`, every later one the
    /// dense output of the layer before.
    fn infer_untimed(&self, x: &impl LayerInput) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("an Mlp has a layer");
        let (mut h, mut next) = (Matrix::default(), Matrix::default());
        x.linear_into(first, &mut h);
        for l in rest {
            l.forward_into(&h, &mut next);
            std::mem::swap(&mut h, &mut next);
        }
        h
    }

    pub fn infer(&self, x: &Matrix) -> Matrix {
        let t = telemetry::enabled().then(Instant::now);
        let h = self.infer_untimed(x);
        if let Some(t) = t {
            telemetry::observe_duration("nn.forward_ns", t.elapsed());
        }
        h
    }

    /// Single-row inference on the set bits of one state vector.
    /// Bit-identical to [`Mlp::infer`] on the dense row.
    ///
    /// Deliberately untimed: this is the rollout hot path, called once per
    /// environment step, and even a branch-on-disabled telemetry probe is
    /// measurable there.
    pub fn infer_row(&self, x: &SetBits) -> Vec<f32> {
        assert_eq!(x.ends.len(), 1, "one row");
        self.infer_untimed(x).into_data()
    }

    /// Forward pass that records on `tape` the activation chain needed for
    /// [`Mlp::backward_tape`]. It takes `&self`, so many threads can run
    /// tapes against one shared model — the basis of the sharded PPO
    /// update.
    pub fn forward_tape(&self, x: &impl LayerInput, tape: &mut MlpTape) {
        let t = telemetry::enabled().then(Instant::now);
        tape.acts.resize_with(self.layers.len(), Matrix::default);
        let mut input = None;
        for (l, out) in self.layers.iter().zip(&mut tape.acts) {
            match input {
                None => x.linear_into(l, out),
                Some(h) => l.forward_into(h, out),
            }
            input = Some(&*out);
        }
        if let Some(t) = t {
            telemetry::observe_duration("nn.forward_ns", t.elapsed());
        }
    }

    /// `W^T` of the layers a backward pass multiplies by, for
    /// [`Mlp::backward_tape`]. `input_grad` asks that pass for dL/dX of the
    /// network input too, for a caller that backpropagates into whatever
    /// produced that input (the VAE's decoder into its encoder); the
    /// trainer has no use for it, and for the actor it is a GEMM over the
    /// widest layer.
    pub fn transpose_weights_into(&self, input_grad: bool, out: &mut TransposedWeights) {
        out.input_grad = input_grad;
        out.wt.resize_with(self.layers.len(), Matrix::default);
        for (i, (l, wt)) in self.layers.iter().zip(&mut out.wt).enumerate() {
            if i > 0 || input_grad {
                l.w.transpose_into(wt);
            }
        }
    }

    /// Backprop of `dy` against the forward pass of `x` that `tape` holds,
    /// with `wt` the transposes of this model's weights as they are now.
    /// Leaves one [`LayerGrads`] per layer in [`MlpTape::grads`] (same order
    /// as `self.layers`) and, where `wt` asks for it, dL/dX in
    /// [`MlpTape::input_grad`]. The model is not touched, so concurrent
    /// calls on `&self` are safe.
    pub fn backward_tape(
        &self,
        x: &impl LayerInput,
        dy: &Matrix,
        wt: &TransposedWeights,
        tape: &mut MlpTape,
    ) {
        let t = telemetry::enabled().then(Instant::now);
        let n = self.layers.len();
        assert_eq!(tape.acts.len(), n, "tape does not match this model");
        assert_eq!(wt.wt.len(), n, "transposed weights do not match this model");
        tape.grads.resize_with(n, LayerGrads::default);
        let MlpTape {
            acts,
            grads,
            dz,
            g_in,
            g_out,
            xt,
        } = tape;
        for (i, l) in self.layers.iter().enumerate().rev() {
            let g = if i + 1 == n { dy } else { &*g_in };
            let dz = l.act.backward_into(g, &acts[i], &mut *dz);
            match i {
                0 => x.weight_grad_into(dz, xt, &mut grads[i].gw),
                _ => acts[i - 1].t_matmul_into(dz, xt, &mut grads[i].gw),
            }
            dz.sum_rows_into(&mut grads[i].gb);
            if i > 0 || wt.input_grad {
                assert_eq!(
                    wt.wt[i].shape(),
                    (l.w.cols(), l.w.rows()),
                    "transposed weights do not match this model"
                );
                dz.matmul_into(&wt.wt[i], g_out);
                std::mem::swap(g_in, g_out);
            }
        }
        if let Some(t) = t {
            telemetry::observe_duration("nn.backward_ns", t.elapsed());
        }
    }

    /// (parameter, gradient) pairs for [`crate::Adam`], built from tape
    /// gradients (reduced across shards by the caller where it shards):
    /// layer 0's `w`, then its `b`, then layer 1's.
    pub fn params_with_grads<'a>(
        &'a mut self,
        grads: &'a [LayerGrads],
    ) -> Vec<(&'a mut [f32], &'a [f32])> {
        assert_eq!(grads.len(), self.layers.len(), "one LayerGrads per layer");
        self.layers
            .iter_mut()
            .zip(grads)
            .flat_map(|(l, g)| [(l.w.data_mut(), g.gw.data()), (l.b.data_mut(), g.gb.data())])
            .collect()
    }

    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// `(inputs, outputs)`, or `None` for a stack that does not hold
    /// together, as a deserialized one may not: a matrix whose data is not
    /// its shape, a bias that is not one row of outputs, or a layer that
    /// does not read what the one before writes.
    pub fn widths(&self) -> Option<(usize, usize)> {
        let ls = &self.layers;
        let whole = |m: &Matrix| m.data().len() == m.rows() * m.cols();
        let sound = |l: &Linear| whole(&l.w) && whole(&l.b) && l.b.shape() == (1, l.w.cols());
        let chained = ls.windows(2).all(|p| p[0].w.cols() == p[1].w.rows());
        let (first, last) = (ls.first()?, ls.last()?);
        (chained && ls.iter().all(sound)).then(|| (first.w.rows(), last.w.cols()))
    }

    /// Whether every weight and bias is finite.
    pub fn is_finite(&self) -> bool {
        let finite = |m: &Matrix| m.data().iter().all(|v| v.is_finite());
        self.layers.iter().all(|l| finite(&l.w) && finite(&l.b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// Forward and backward on a fresh tape.
    fn pass(mlp: &Mlp, x: &Matrix, dy: &Matrix, input_grad: bool) -> MlpTape {
        let mut tape = MlpTape::default();
        mlp.forward_tape(x, &mut tape);
        let mut wt = TransposedWeights::default();
        mlp.transpose_weights_into(input_grad, &mut wt);
        mlp.backward_tape(x, dy, &wt, &mut tape);
        tape
    }

    fn flat(grads: &[LayerGrads]) -> Vec<Vec<f32>> {
        grads
            .iter()
            .flat_map(|g| [g.gw.data().to_vec(), g.gb.data().to_vec()])
            .collect()
    }

    /// Finite-difference gradient check on a scalar loss L = sum(mlp(x)).
    #[test]
    fn gradient_check_against_finite_differences() {
        let mut rng = StdRng::seed_from_u64(42);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);

        // Analytic gradients: dL/dy = ones.
        let dy = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let analytic = flat(pass(&mlp, &x, &dy, false).grads());

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
        let one = Matrix::from_vec(1, 1, vec![1.0]);
        let tape = pass(&mlp, &one, &one, true);
        assert_eq!(tape.output().data(), &[0.0]);
        assert_eq!(tape.input_grad().data(), &[0.0]);
        assert_eq!(tape.grads()[0].gw.data(), &[0.0]);
    }

    #[test]
    fn forward_and_infer_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let x = Matrix::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.0]);
        let mut tape = MlpTape::default();
        mlp.forward_tape(&x, &mut tape);
        assert_eq!(tape.output(), &mlp.infer(&x));
    }

    #[test]
    fn infer_row_matches_infer() {
        let mut rng = StdRng::seed_from_u64(11);
        let mlp = Mlp::new(&[6, 16, 9, 4], Activation::Tanh, &mut rng);
        let x = vec![0.3, -0.7, 1.4, 0.0, -2.2, 0.9];
        let full = mlp.infer(&Matrix::from_row(&x));
        let row = mlp.infer_row(&SetBits::of_row(&x));
        assert_eq!(full.data(), row.as_slice());
    }

    /// A tape that has held a larger batch, another model's layers and an
    /// input gradient gives, when it is passed in again, what a fresh tape
    /// gives.
    #[test]
    fn a_reused_tape_gives_what_a_fresh_one_does() {
        let mut rng = StdRng::seed_from_u64(21);
        let big = Mlp::new(&[5, 9, 7, 6], Activation::Tanh, &mut rng);
        let small = Mlp::new(&[4, 3, 2], Activation::Relu, &mut rng);
        let batch = |rows: usize, cols: usize, rng: &mut StdRng| {
            let data = (0..rows * cols).map(|_| rng.random_range(-1.0f32..1.0));
            Matrix::from_vec(rows, cols, data.collect())
        };
        let (x_big, dy_big) = (batch(6, 5, &mut rng), batch(6, 6, &mut rng));
        let (x_small, dy_small) = (batch(2, 4, &mut rng), batch(2, 2, &mut rng));

        let mut reused = pass(&big, &x_big, &dy_big, true);
        let mut wt = TransposedWeights::default();
        for input_grad in [false, true] {
            small.forward_tape(&x_small, &mut reused);
            small.transpose_weights_into(input_grad, &mut wt);
            small.backward_tape(&x_small, &dy_small, &wt, &mut reused);
            let fresh = pass(&small, &x_small, &dy_small, input_grad);
            assert_eq!(reused.output(), fresh.output());
            assert_eq!(flat(reused.grads()), flat(fresh.grads()));
            if input_grad {
                assert_eq!(reused.input_grad(), fresh.input_grad());
            }
        }
    }

    #[test]
    #[should_panic(expected = "transposed weights do not match this model")]
    fn another_models_transposes_are_refused() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, &mut rng);
        let other = Mlp::new(&[3, 5, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        let mut tape = MlpTape::default();
        mlp.forward_tape(&x, &mut tape);
        let mut wt = TransposedWeights::default();
        other.transpose_weights_into(false, &mut wt);
        mlp.backward_tape(&x, &Matrix::from_vec(1, 2, vec![1.0, 1.0]), &wt, &mut tape);
    }

    /// `((a + b) + c) + d` element by element, whatever the block
    /// boundaries, and the sum of squares that `Adam::step`'s own chain
    /// gives for the result.
    #[test]
    fn reduce_in_order_adds_in_order_and_returns_adams_sum_of_squares() {
        let mut rng = StdRng::seed_from_u64(8);
        // 3 * 200 = 600 weights: two whole blocks of 256 and a tail.
        let shard = |rng: &mut StdRng| -> Vec<LayerGrads> {
            let mut m = |rows: usize, cols: usize| {
                let data = (0..rows * cols).map(|_| rng.random_range(-1.0f32..1.0) * 1e-3);
                Matrix::from_vec(rows, cols, data.collect())
            };
            vec![
                LayerGrads {
                    gw: m(3, 200),
                    gb: m(1, 200),
                },
                LayerGrads {
                    gw: m(200, 1),
                    gb: m(1, 1),
                },
            ]
        };
        let shards: Vec<Vec<LayerGrads>> = (0..4).map(|_| shard(&mut rng)).collect();

        let mut want = flat(&shards[0]);
        for s in &shards[1..] {
            for (w, g) in want.iter_mut().zip(flat(s)) {
                for (a, b) in w.iter_mut().zip(g) {
                    *a += b;
                }
            }
        }
        let want_squares: f32 = want.iter().flat_map(|g| g.iter().map(|x| x * x)).sum();

        let mut acc = shards[0].clone();
        let squares = reduce_in_order(&mut acc, shards[1..].iter().map(Vec::as_slice));
        let bits = |g: &[Vec<f32>]| -> Vec<Vec<u32>> {
            g.iter()
                .map(|g| g.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&flat(&acc)), bits(&want));
        assert_eq!(squares.to_bits(), want_squares.to_bits());

        // Nothing to add: the gradients stay, the squares are still summed.
        let mut alone = shards[0].clone();
        let own_squares: f32 = flat(&alone).iter().flatten().map(|x| x * x).sum();
        let none = std::iter::empty::<&[LayerGrads]>();
        assert_eq!(
            reduce_in_order(&mut alone, none).to_bits(),
            own_squares.to_bits()
        );
        assert_eq!(bits(&flat(&alone)), bits(&flat(&shards[0])));
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[10, 5, 2], Activation::Relu, &mut rng);
        assert_eq!(mlp.param_count(), 10 * 5 + 5 + 5 * 2 + 2);
    }
}
