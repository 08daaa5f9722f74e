//! Property tests: the tiled/vectorized kernels are **bit-identical** to the
//! retained naive references across randomized shapes.
//!
//! This is the kernel layer's numerics contract (see `kernels` module docs):
//! every output element is an `f32::mul_add` chain in ascending
//! shared-dimension order seeded at +0.0, and vectorization only
//! parallelizes *independent* elements. So no tolerance is needed — results
//! are compared with `assert_eq!` on the raw f32 bits, including signed
//! zeros and edge tiles. Random shapes span 0..70, which straddles every
//! tile boundary (MR = 4, NR = 64, NR_EDGE = 8) and includes empty
//! matrices; a curated grid below pins the exact boundary shapes that
//! random draws might miss.

use asqp_nn::kernels::{self, reference, EpilogueAct};
use asqp_nn::{Activation, LayerInput, Linear, Matrix, SetBits};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random f32s with varied magnitudes (exact ±0.0, tiny, and moderate
/// values) so rounding behaviour, not just happy-path data, is exercised.
fn rand_vals(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.random_range(0..8u32) {
            0 => 0.0f32,
            1 => -0.0f32,
            2 => rng.random_range(-1e-6f32..1e-6),
            _ => rng.random_range(-8.0f32..8.0),
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_gemm(m: usize, k: usize, n: usize, rng: &mut StdRng) {
    let a = rand_vals(rng, m * k);
    let b = rand_vals(rng, k * n);
    let mut fast = vec![0.0f32; m * n];
    let mut naive = vec![0.0f32; m * n];
    kernels::gemm_raw(m, k, n, &a, &b, &mut fast);
    reference::matmul(m, k, n, &a, &b, &mut naive);
    assert_eq!(bits(&fast), bits(&naive), "gemm ({m},{k},{n})");
}

fn check_fused(m: usize, k: usize, n: usize, which: usize, rng: &mut StdRng) {
    let a = rand_vals(rng, m * k);
    let w = rand_vals(rng, k * n);
    let bias_vals = rand_vals(rng, n);
    let bias = (which != 0).then_some(bias_vals.as_slice());
    let act = match which {
        0 => EpilogueAct::Identity,
        1 => EpilogueAct::Relu,
        _ => EpilogueAct::Tanh,
    };
    let mut fast = vec![0.0f32; m * n];
    let mut naive = vec![0.0f32; m * n];
    kernels::fused_linear_into(m, k, n, &a, &w, bias, act, &mut fast);
    reference::fused_linear(m, k, n, &a, &w, bias, act, &mut naive);
    assert_eq!(bits(&fast), bits(&naive), "fused ({m},{k},{n}) act {which}");
}

/// `m` rows `k` wide whose entries are set with probability `density`, to
/// `+0.0`, `-0.0`, `1.0` or a finite value of [`rand_vals`]'s kinds; every
/// third row is empty. Zero otherwise.
fn set_rows(rng: &mut StdRng, m: usize, k: usize, density: f64) -> Vec<f32> {
    (0..m * k)
        .map(|i| {
            let set = (i / k) % 3 != 1 && rng.random_range(0.0..1.0) < density;
            match rng.random_range(0..4u32) {
                _ if !set => 0.0,
                0 => 0.0,
                1 => -0.0,
                2 => 1.0,
                _ => rand_vals(rng, 1)[0],
            }
        })
        .collect()
}

/// The set bits of `x`'s rows, `k` wide.
fn set_bits_of(x: &[f32], m: usize, k: usize) -> SetBits {
    let mut set = SetBits::default();
    set.clear(k);
    (0..m).for_each(|r| set.push_row(&x[r * k..(r + 1) * k]));
    set
}

/// The first layer on the set bits of `m × k` rows against the naive
/// references on the dense rows: forward (`act(x W + b)`) and the weight
/// gradient `x^T dz`, bit for bit; and with NaN and ±inf planted in `dz`,
/// the dense path's bits (and, NaN for NaN, the reference's values).
fn check_set_bits(m: usize, k: usize, n: usize, density: f64, rng: &mut StdRng) {
    let x = set_rows(rng, m, k, density);
    let set = set_bits_of(&x, m, k);
    let act = [Activation::Identity, Activation::Relu, Activation::Tanh][rng.random_range(0..3)];
    let w = Matrix::from_vec(k, n, rand_vals(rng, k * n));
    let b = Matrix::from_vec(1, n, rand_vals(rng, n));
    let layer = Linear {
        w: w.clone(),
        b: b.clone(),
        act,
    };
    let epilogue = match act {
        Activation::Identity => EpilogueAct::Identity,
        Activation::Relu => EpilogueAct::Relu,
        Activation::Tanh => EpilogueAct::Tanh,
    };
    let mut out = Matrix::default();
    set.linear_into(&layer, &mut out);
    let mut naive = vec![0.0f32; m * n];
    reference::fused_linear(m, k, n, &x, w.data(), Some(b.data()), epilogue, &mut naive);
    let shape = format!("({m},{k},{n}) density {density}");
    assert_eq!(bits(out.data()), bits(&naive), "forward {shape}");

    let mut dz = rand_vals(rng, m * n);
    let (mut t, mut gw) = (Matrix::default(), Matrix::default());
    set.weight_grad_into(&Matrix::from_vec(m, n, dz.clone()), &mut t, &mut gw);
    let mut naive = vec![0.0f32; k * n];
    reference::t_matmul(m, k, n, &x, &dz, &mut naive);
    assert_eq!(bits(gw.data()), bits(&naive), "gw {shape}");

    for (i, poison) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        if let Some(v) = dz.get_mut((i * 7919) % (m * n).max(1)) {
            *v = poison;
        }
    }
    let dz = Matrix::from_vec(m, n, dz);
    set.weight_grad_into(&dz, &mut t, &mut gw);
    let mut dense = Matrix::default();
    Matrix::from_vec(m, k, x.clone()).weight_grad_into(&dz, &mut t, &mut dense);
    assert_eq!(bits(gw.data()), bits(dense.data()), "poisoned gw {shape}");
    reference::t_matmul(m, k, n, &x, dz.data(), &mut naive);
    let nan_for_nan = |v: &[f32]| -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    };
    assert_eq!(
        nan_for_nan(gw.data()),
        nan_for_nan(&naive),
        "poisoned gw {shape}"
    );
}

/// The densities of [`check_set_bits`]' rows: none, sparse, the policy's
/// ~10 %, and every entry.
const DENSITIES: [f64; 4] = [0.0, 0.01, 0.1, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn set_bit_layer_bit_identical_to_reference(
        (m, k, n) in (0usize..20, 0usize..90, 0usize..140),
        density in 0usize..4,
        seed in any::<u64>(),
    ) {
        check_set_bits(m, k, n, DENSITIES[density], &mut StdRng::seed_from_u64(seed));
    }

    #[test]
    fn gemm_bit_identical_to_reference(
        (m, k, n) in (0usize..70, 0usize..70, 0usize..70),
        seed in any::<u64>(),
    ) {
        check_gemm(m, k, n, &mut StdRng::seed_from_u64(seed));
    }

    #[test]
    fn fused_linear_bit_identical_to_reference(
        (m, k, n) in (0usize..70, 0usize..70, 0usize..70),
        which in 0usize..3,
        seed in any::<u64>(),
    ) {
        check_fused(m, k, n, which, &mut StdRng::seed_from_u64(seed));
    }

    /// `Matrix::t_matmul` (transpose + blocked GEMM) vs the transpose-free
    /// naive r-order loop.
    #[test]
    fn t_matmul_bit_identical_to_reference(
        (r, m, n) in (0usize..70, 0usize..70, 0usize..70),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_vals(&mut rng, r * m);
        let b = rand_vals(&mut rng, r * n);
        let fast = Matrix::from_vec(r, m, a.clone()).t_matmul(&Matrix::from_vec(r, n, b.clone()));
        let mut naive = vec![0.0f32; m * n];
        reference::t_matmul(r, m, n, &a, &b, &mut naive);
        prop_assert_eq!(bits(fast.data()), bits(&naive), "t_matmul ({},{},{})", r, m, n);
    }

    /// `Matrix::matmul_t` (transpose RHS + blocked GEMM) vs the naive
    /// k-ordered dot products.
    #[test]
    fn matmul_t_bit_identical_to_reference(
        (m, k, n) in (0usize..70, 0usize..70, 0usize..70),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_vals(&mut rng, m * k);
        let b = rand_vals(&mut rng, n * k);
        let fast = Matrix::from_vec(m, k, a.clone()).matmul_t(&Matrix::from_vec(n, k, b.clone()));
        let mut naive = vec![0.0f32; m * n];
        reference::matmul_t(m, k, n, &a, &b, &mut naive);
        prop_assert_eq!(bits(fast.data()), bits(&naive), "matmul_t ({},{},{})", m, k, n);
    }

    #[test]
    fn transpose_round_trips(
        (r, c) in (0usize..70, 0usize..70),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_vals(&mut rng, r * c);
        let back = Matrix::from_vec(r, c, a.clone()).transpose().transpose();
        prop_assert_eq!(bits(back.data()), bits(&a), "transpose ({},{})", r, c);
    }
}

/// Exact tile-boundary shapes (±1 around MR = 4, NR_EDGE = 8, NR = 64) that
/// uniform random draws are unlikely to all hit in one run.
#[test]
fn gemm_pinned_tile_boundaries() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    for &m in &[1usize, 3, 4, 5, 17] {
        for &k in &[1usize, 7, 31] {
            for &n in &[1usize, 7, 8, 9, 63, 64, 65, 127, 128, 129] {
                check_gemm(m, k, n, &mut rng);
                check_fused(m, k, n, (m + n) % 3, &mut rng);
            }
        }
    }
}

/// The set-bit layer at widths around every panel edge (`NR = 64`,
/// `NR_EDGE = 8`), at each density, and at the policy's shard shape.
#[test]
fn set_bit_layer_pinned_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5B);
    for density in DENSITIES {
        for n in [1, 7, 8, 9, 63, 64, 65, 127, 128, 129] {
            check_set_bits(5, 33, n, density, &mut rng);
        }
        check_set_bits(16, 1026, 128, density, &mut rng);
    }
}

/// Explicit empty-matrix cases (random draws may or may not produce them).
#[test]
fn empty_dims_are_noops() {
    for (m, k, n) in [(0, 5, 5), (5, 0, 5), (5, 5, 0), (0, 0, 0)] {
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut fast = vec![f32::NAN; m * n];
        let mut naive = vec![f32::NAN; m * n];
        kernels::gemm_raw(m, k, n, &a, &b, &mut fast);
        reference::matmul(m, k, n, &a, &b, &mut naive);
        assert_eq!(bits(&fast), bits(&naive), "({m},{k},{n})");
        // k = 0 must still zero the output, not leave NaNs behind.
        assert!(fast.iter().all(|x| *x == 0.0), "({m},{k},{n})");
    }
}
