//! Adam optimiser with optional global-norm gradient clipping.

use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba 2015) over a fixed flat parameter layout.
///
/// The optimiser is created lazily on the first `step`: moment buffers are
/// sized from the gradients it sees, and the parameter layout must stay
/// identical across steps (it always does — models never change shape).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// When set, gradients are rescaled so their global L2 norm is at most
    /// this value (standard PPO practice).
    pub max_grad_norm: Option<f32>,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            max_grad_norm: Some(0.5),
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    pub fn with_max_grad_norm(mut self, norm: Option<f32>) -> Self {
        self.max_grad_norm = norm;
        self
    }

    pub fn steps_taken(&self) -> u64 {
        self.t
    }

    /// Apply one update to `(param, grad)` pairs (as produced by
    /// [`crate::Mlp::params_with_grads`]). The gradients are borrowed and
    /// left as they are: the clip is a factor inside the update pass, not a
    /// rescaled copy.
    pub fn step(&mut self, params: Vec<(&mut [f32], &[f32])>) {
        // One serial f32 chain over every gradient in layout order: the
        // order is part of the result.
        let sum_squares = match self.max_grad_norm {
            Some(_) => params
                .iter()
                .flat_map(|(_, g)| g.iter().map(|x| x * x))
                .sum(),
            None => 0.0,
        };
        self.step_with_sum_squares(params, sum_squares);
    }

    /// [`Adam::step`] for a caller that has the sum of the squares of all
    /// gradients already, added up as `step` adds them — one f32 chain in
    /// layout order — by the pass that made the gradients
    /// ([`crate::reduce_in_order`]).
    pub fn step_with_sum_squares(&mut self, params: Vec<(&mut [f32], &[f32])>, sum_squares: f32) {
        if self.m.is_empty() {
            self.m = params.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "parameter layout changed");
        for (((p, g), m), v) in params.iter().zip(&self.m).zip(&self.v) {
            assert!(
                [g.len(), m.len(), v.len()] == [p.len(); 3],
                "parameter layout changed"
            );
        }

        // Global-norm clip.
        let mut clip = 1.0;
        if let Some(max) = self.max_grad_norm {
            let norm = sum_squares.sqrt();
            if norm > max && norm > 0.0 {
                clip = max / norm;
            }
        }

        self.t += 1;
        let k = PassConsts {
            clip,
            beta1: self.beta1,
            beta2: self.beta2,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
        };
        for (((p, g), m), v) in params.into_iter().zip(&mut self.m).zip(&mut self.v) {
            crate::kernels::adam_update_pass(p, m, v, g, &k);
        }
    }
}

/// What [`update_pass`] reads besides its four slices.
pub(crate) struct PassConsts {
    /// `max_grad_norm / norm` when the global norm exceeds the maximum, and
    /// `1.0` otherwise, where `g * 1.0` is `g` bit for bit.
    clip: f32,
    beta1: f32,
    beta2: f32,
    /// Bias corrections `1 - beta^t`.
    b1t: f32,
    b2t: f32,
    lr: f32,
    eps: f32,
}

/// One Adam update over one parameter group: four equal-length slices and
/// no branch, so the compiler vectorises it. Every operation is one of
/// `+ - * / sqrt` on the operands the scalar loop used, each exactly rounded
/// at any vector width, so the results are the scalar loop's bit for bit;
/// it runs at the widest width the CPU has, through the kernels' ISA
/// dispatch ([`crate::kernels::adam_update_pass`]).
///
/// The guard against a non-finite gradient (an exploding batch) keeps the
/// element's old `m`, `v` and `p`. It is a blend on the bit patterns because
/// the compiler turns `if finite { new } else { old }` back into the branch
/// around the divisions, and the loop then stays scalar (read from the
/// assembly: one `divss`/`sqrtss` per parameter). It is inlined only into
/// the dispatcher's per-ISA functions, whose four slices are known not to
/// overlap.
#[inline(always)]
pub(crate) fn update_pass(p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], k: &PassConsts) {
    let blend = |keep: u32, old: f32, new: f32| {
        f32::from_bits((old.to_bits() & keep) | (new.to_bits() & !keep))
    };
    let n = p.len();
    let (m, v, g) = (&mut m[..n], &mut v[..n], &g[..n]);
    for i in 0..n {
        let gi = g[i] * k.clip;
        let keep = u32::from(!gi.is_finite()).wrapping_neg();
        let mi = k.beta1 * m[i] + (1.0 - k.beta1) * gi;
        let vi = k.beta2 * v[i] + (1.0 - k.beta2) * gi * gi;
        let mhat = mi / k.b1t;
        let vhat = vi / k.b2t;
        let pi = p[i] - k.lr * mhat / (vhat.sqrt() + k.eps);
        m[i] = blend(keep, m[i], mi);
        v[i] = blend(keep, v[i], vi);
        p[i] = blend(keep, p[i], pi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    impl Adam {
        /// `step` as it was before the one-pass rewrite (PR 20), kept as the
        /// oracle of `one_pass_step_is_the_scalar_step_bit_for_bit`: owned
        /// gradients rescaled in a pass of their own, then a scalar loop
        /// that skips a non-finite gradient.
        fn step_reference(&mut self, mut params: Vec<(&mut [f32], Vec<f32>)>) {
            if self.m.is_empty() {
                self.m = params.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
                self.v = params.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
            }
            assert_eq!(self.m.len(), params.len(), "parameter layout changed");
            if let Some(max) = self.max_grad_norm {
                let norm: f32 = params
                    .iter()
                    .flat_map(|(_, g)| g.iter().map(|x| x * x))
                    .sum::<f32>()
                    .sqrt();
                if norm > max && norm > 0.0 {
                    let s = max / norm;
                    for (_, g) in params.iter_mut() {
                        for x in g.iter_mut() {
                            *x *= s;
                        }
                    }
                }
            }
            self.t += 1;
            let b1t = 1.0 - self.beta1.powi(self.t as i32);
            let b2t = 1.0 - self.beta2.powi(self.t as i32);
            for (idx, (p, g)) in params.into_iter().enumerate() {
                let m = &mut self.m[idx];
                let v = &mut self.v[idx];
                for i in 0..p.len() {
                    let gi = g[i];
                    if !gi.is_finite() {
                        continue;
                    }
                    m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * gi;
                    v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * gi * gi;
                    let mhat = m[i] / b1t;
                    let vhat = v[i] / b2t;
                    p[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
                }
            }
        }
    }

    fn bits(groups: &[Vec<f32>]) -> Vec<Vec<u32>> {
        groups
            .iter()
            .map(|g| g.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Group lengths that are no multiple of any vector width, so the
    /// vectorised body and its scalar tail both run.
    const GROUP_LENS: [usize; 4] = [1, 7, 33, 915 * 3 + 5];
    /// `(group, index, value)`: a gradient planted over a drawn one.
    type Planted = (usize, usize, f32);

    /// Where a poisoned case plants non-finite gradients. With a NaN among
    /// them the norm is NaN and nothing is clipped; with infinities alone
    /// the norm is +inf, the clip factor 0, and every finite gradient
    /// enters the update as a signed zero.
    const NAN_AND_INF: [Planted; 4] = [
        (1, 3, f32::NAN),
        (2, 32, f32::INFINITY),
        (3, 0, f32::NEG_INFINITY),
        (3, 2_749, f32::NAN),
    ];
    const INF_ONLY: [Planted; 2] = [(2, 32, f32::INFINITY), (3, 0, f32::NEG_INFINITY)];

    #[test]
    fn one_pass_step_is_the_scalar_step_bit_for_bit() {
        // (name, clip, gradient magnitude, planted non-finite values)
        let cases: [(&str, Option<f32>, f32, &[Planted]); 7] = [
            ("no clip", None, 1.0, &[]),
            ("clip never reached", Some(1e6), 1.0, &[]),
            ("clip reached", Some(0.5), 1.0, &[]),
            ("norm exactly 0", Some(0.5), 0.0, &[]),
            ("NaN norm", Some(0.5), 1.0, &NAN_AND_INF),
            ("infinite norm", Some(0.5), 1.0, &INF_ONLY),
            ("non-finite, no clip", None, 1.0, &NAN_AND_INF),
        ];
        for (name, clip, magnitude, poison) in cases {
            let mut rng = StdRng::seed_from_u64(20);
            let mut new_p: Vec<Vec<f32>> = GROUP_LENS
                .iter()
                .map(|&n| (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect())
                .collect();
            let mut old_p = new_p.clone();
            let mut new_opt = Adam::new(3e-3).with_max_grad_norm(clip);
            let mut old_opt = new_opt.clone();
            for step in 0..5 {
                let mut grads: Vec<Vec<f32>> = GROUP_LENS
                    .iter()
                    .map(|&n| {
                        (0..n)
                            .map(|_| magnitude * rng.random_range(-1.0f32..1.0))
                            .collect()
                    })
                    .collect();
                for &(group, i, value) in poison {
                    grads[group][i] = value;
                }
                let before = (bits(&new_p), bits(&new_opt.m), bits(&new_opt.v));
                new_opt.step(
                    new_p
                        .iter_mut()
                        .map(Vec::as_mut_slice)
                        .zip(grads.iter().map(Vec::as_slice))
                        .collect(),
                );
                old_opt.step_reference(
                    old_p
                        .iter_mut()
                        .map(Vec::as_mut_slice)
                        .zip(grads.iter().cloned())
                        .collect(),
                );
                assert_eq!(
                    bits(&new_p),
                    bits(&old_p),
                    "{name}: parameters, step {step}"
                );
                assert_eq!(bits(&new_opt.m), bits(&old_opt.m), "{name}: m, step {step}");
                assert_eq!(bits(&new_opt.v), bits(&old_opt.v), "{name}: v, step {step}");
                assert_eq!(new_opt.t, old_opt.t);
                if !poison.is_empty() && step > 0 {
                    // A skipped element keeps all three of its values; its
                    // neighbours move.
                    let after = (bits(&new_p), bits(&new_opt.m), bits(&new_opt.v));
                    for &(group, i, _) in poison {
                        assert_eq!(after.0[group][i], before.0[group][i], "{name}: p kept");
                        assert_eq!(after.1[group][i], before.1[group][i], "{name}: m kept");
                        assert_eq!(after.2[group][i], before.2[group][i], "{name}: v kept");
                    }
                    // (Under an infinite norm the rest see a zero gradient
                    // from step 0 on and stay where they are.)
                    if poison.iter().any(|(_, _, value)| value.is_nan()) {
                        assert_ne!(after.0[3][1], before.0[3][1], "{name}: the rest move");
                    }
                }
            }
        }
    }

    /// Minimise f(x) = (x - 3)^2 — Adam should converge to 3.
    #[test]
    fn converges_on_quadratic() {
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.1).with_max_grad_norm(None);
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(vec![(&mut x, &g)]);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn grad_clipping_limits_update() {
        let mut a = vec![0.0f32];
        let mut opt_clip = Adam::new(0.1).with_max_grad_norm(Some(0.001));
        opt_clip.step(vec![(&mut a, &[1000.0])]);
        // Clipped gradient is tiny, but Adam normalises by sqrt(v), so the
        // step is ~lr in magnitude either way. The real check: internal
        // moments reflect the clipped gradient, not 1000.
        assert!(opt_clip.m[0][0].abs() <= 0.001 * (1.0 - 0.9) + 1e-6);
    }

    #[test]
    fn non_finite_gradients_skipped() {
        let mut x = vec![1.0f32];
        let mut opt = Adam::new(0.1);
        opt.step(vec![(&mut x, &[f32::NAN])]);
        assert_eq!(x[0], 1.0);
        assert!(x[0].is_finite());
    }

    #[test]
    fn step_counter_advances() {
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.steps_taken(), 0);
        opt.step(vec![(&mut x, &[1.0])]);
        opt.step(vec![(&mut x, &[1.0])]);
        assert_eq!(opt.steps_taken(), 2);
    }

    #[test]
    #[should_panic(expected = "parameter layout changed")]
    fn layout_change_panics() {
        let mut x = vec![0.0f32];
        let mut y = vec![0.0f32, 0.0];
        let mut opt = Adam::new(0.01);
        opt.step(vec![(&mut x, &[1.0])]);
        opt.step(vec![(&mut x, &[1.0]), (&mut y, &[1.0, 1.0])]);
    }

    /// The same number of groups with another length would index past the
    /// moment vectors, or leave a tail of them stale.
    #[test]
    #[should_panic(expected = "parameter layout changed")]
    fn same_count_different_length_panics() {
        let mut x = vec![0.0f32];
        let mut y = vec![0.0f32, 0.0];
        let mut opt = Adam::new(0.01);
        opt.step(vec![(&mut x, &[1.0])]);
        opt.step(vec![(&mut y, &[1.0, 1.0])]);
    }
}
