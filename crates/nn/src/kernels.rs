//! Cache-blocked, register-tiled f32 GEMM kernels, and the set-bit gather
//! of a layer whose input is mostly zeros, with runtime ISA dispatch.
//!
//! Each kernel body (`gemm_raw_body`, `gather_rows_body` and Adam's update
//! pass) is plain safe Rust that LLVM autovectorizes, compiled three times
//! by `dispatched!`: at the build's baseline ISA, under `avx2,fma` and
//! under `avx512f`. The widest variant the CPU supports is picked at
//! runtime (detection is cached in an atomic).
//!
//! ## Numerics contract
//!
//! Every kernel — tiled, vectorized, scalar edge, and the retained
//! [`mod@reference`] implementations — computes each output element as
//!
//! ```text
//! out[i][j] = fma(a[i][0], b[0][j], fma(a[i][1], b[1][j], ... fma(..., 0.0)))
//! ```
//!
//! i.e. a fused-multiply-add chain in ascending contraction order, seeded at
//! `+0.0`. `f32::mul_add` is exactly rounded on every platform (hardware FMA
//! where available, libm's `fmaf` otherwise), so results are **bit-identical**
//! across ISAs, across tile shapes, and between the optimized kernels and the
//! naive references. Vectorization only runs independent output elements in
//! parallel; it never reassociates a single element's chain. The property
//! tests in `tests/kernel_props.rs` assert exact bit equality.
//!
//! The set-bit gather (behind [`crate::LayerInput`] for [`SetBits`]) runs
//! the same chain with its zero links left out. A zero link `fma(±0, b,
//! acc)` is `±0 + acc` when `b` is finite, which is `acc` unless `acc` is
//! `-0.0`; and a chain seeded at `+0.0` reaches `-0.0` only by underflow,
//! from a product with bits below 2⁻¹⁴⁹ (never when a factor is `1.0` or
//! both exceed 2⁻⁵⁰). DESIGN §8 has the argument in full.
//!
//! ## Tiling scheme
//!
//! Column panels of [`NR`] = 64 floats (four AVX-512 vectors), register
//! tiles of [`MR`] = 4 rows: each tile holds a 4×64 f32 accumulator block in
//! registers (16 zmm) and streams the shared `b` panel row once per `k`,
//! giving `MR×NR = 256` FLOP-pairs per 4 panel loads + 4 broadcasts — the
//! measured sweet spot on AVX-512 (wider`×`shorter tiles balance the two
//! load ports against the two FMA ports better than tall`×`narrow ones).
//! Edges cascade to 8-wide panels and finally scalar columns, all
//! preserving the accumulation order.
//! No explicit k-blocking: the matrices this workspace multiplies
//! (`batch × state_dim × hidden`, ≤ a few hundred per side) fit the panel
//! working set in L2 comfortably.

use crate::matrix::SetBits;

/// Rows per register tile.
pub const MR: usize = 4;
/// Columns per register tile (four 512-bit vectors of f32).
pub const NR: usize = 64;
/// Narrow fallback panel width for column remainders.
pub const NR_EDGE: usize = 8;

/// Activation fused into [`fused_linear_into`]'s epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpilogueAct {
    Identity,
    Relu,
    Tanh,
}

impl EpilogueAct {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        match self {
            EpilogueAct::Identity => v,
            EpilogueAct::Relu => v.max(0.0),
            EpilogueAct::Tanh => tanh_approx(v),
        }
    }
}

/// Branchless rational `tanh` approximation: odd 13th/6th-degree `P(x²)/Q(x²)`
/// on the clamped range `|x| ≤ 7.998…` (the classic single-precision fit
/// used by vectorized math libraries), accurate to a few ulps and
/// saturating to ±(1 − 2.4e-7) beyond the clamp.
///
/// libm's `tanhf` is a per-lane function call that blocks vectorization of
/// the activation sweep — at ~10⁶ hidden-unit activations per PPO iteration
/// it dominated the forward pass. This version is straight-line mul/add/div,
/// so LLVM vectorizes the sweep, and because every operation is exactly
/// rounded (no FMA contraction — kept as plain ops on purpose) the result is
/// bit-identical on every ISA, keeping the kernel determinism contract.
#[inline(always)]
#[allow(clippy::excessive_precision)] // coefficients kept verbatim from the published fit
pub fn tanh_approx(x: f32) -> f32 {
    const CLAMP: f32 = 7.998_811_7;
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297_1e-8;
    const A9: f32 = -8.604_671_5e-11;
    const A11: f32 = 2.000_187_9e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525_2e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let p = ((((((A13 * x2 + A11) * x2 + A9) * x2 + A7) * x2 + A5) * x2 + A3) * x2 + A1) * x;
    let q = ((B6 * x2 + B4) * x2 + B2) * x2 + B0;
    p / q
}

/// One `MR_×W` register tile: accumulate over the full contraction depth
/// `k`, then store raw sums. `a` is `m×k` row-major starting at row `i0`,
/// `b` is `k×n` row-major, the tile covers columns `j0..j0+W`.
#[inline(always)]
fn tile<const MR_: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    // Per-row input slices let LLVM elide the bounds checks in the hot loop.
    let arows: [&[f32]; MR_] = std::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r) * k + k]);
    let mut acc = [[0.0f32; W]; MR_];
    for p in 0..k {
        let brow = &b[p * n + j0..p * n + j0 + W];
        for r in 0..MR_ {
            let av = arows[r][p];
            for c in 0..W {
                acc[r][c] = av.mul_add(brow[c], acc[r][c]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..(i0 + r) * n + j0 + W].copy_from_slice(accr);
    }
}

/// All row tiles of one `W`-wide column panel.
#[inline(always)]
fn panel<const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    j0: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        tile::<MR, W>(a, b, out, i, j0, k, n);
        i += MR;
    }
    while i < m {
        tile::<1, W>(a, b, out, i, j0, k, n);
        i += 1;
    }
}

/// `out = a @ b` (raw sums, no epilogue). `a: m×k`, `b: k×n`, `out: m×n`,
/// all row-major; `out` is fully overwritten.
#[inline(always)]
fn gemm_raw_body(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm a length");
    assert_eq!(b.len(), k * n, "gemm b length");
    assert_eq!(out.len(), m * n, "gemm out length");
    let mut j = 0;
    while j + NR <= n {
        panel::<NR>(a, b, out, j, m, k, n);
        j += NR;
    }
    while j + NR_EDGE <= n {
        panel::<NR_EDGE>(a, b, out, j, m, k, n);
        j += NR_EDGE;
    }
    // Scalar column remainder (< NR_EDGE columns): same fma chain per element.
    for jj in j..n {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (p, &av) in arow.iter().enumerate() {
                acc = av.mul_add(b[p * n + jj], acc);
            }
            out[i * n + jj] = acc;
        }
    }
}

/// Which compiled variant of a kernel body to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Generic = 0,
    Avx2Fma = 1,
    Avx512 = 2,
}

#[cfg(target_arch = "x86_64")]
fn detect_isa() -> Isa {
    use std::sync::atomic::{AtomicU8, Ordering};
    static CACHED: AtomicU8 = AtomicU8::new(u8::MAX);
    let v = CACHED.load(Ordering::Relaxed);
    if v != u8::MAX {
        return match v {
            2 => Isa::Avx512,
            1 => Isa::Avx2Fma,
            _ => Isa::Generic,
        };
    }
    let isa = if std::arch::is_x86_feature_detected!("avx512f") {
        Isa::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        Isa::Avx2Fma
    } else {
        Isa::Generic
    };
    CACHED.store(isa as u8, Ordering::Relaxed);
    isa
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_isa() -> Isa {
    // Non-x86 targets (e.g. aarch64 NEON) vectorize the baseline build of
    // the kernel body; `mul_add` lowers to a native fused instruction there.
    Isa::Generic
}

/// `$vis fn $name(args)`: `$body(args)` compiled three times — at the
/// build's baseline ISA, under `avx2,fma` and under `avx512f` (which
/// implies both in LLVM's feature lattice) — and run in the widest variant
/// the CPU supports. `$body` is `#[inline(always)]`, so each variant is the
/// whole body at that vector width.
///
/// The workspace denies `unsafe_code`; the dispatchers this macro writes
/// are the one sanctioned exception: `#[target_feature]` requires an
/// `unsafe fn`, and each call is guarded by the runtime feature check.
macro_rules! dispatched {
    ($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) => $body:path;) => {
        $(#[$doc])*
        #[allow(unsafe_code)]
        $vis fn $name($($arg: $ty),*) {
            /// # Safety
            /// The CPU must support AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            /// # Safety
            /// The CPU must support AVX-512F.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512($($arg: $ty),*) {
                $body($($arg),*)
            }
            match detect_isa() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `detect_isa` verified the feature at runtime.
                Isa::Avx512 => unsafe { avx512($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `detect_isa` verified the features at runtime.
                Isa::Avx2Fma => unsafe { avx2($($arg),*) },
                _ => $body($($arg),*),
            }
        }
    };
}

dispatched! {
    /// `out = a @ b`. Bit-identical results on every ISA.
    pub fn gemm_raw(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) => gemm_raw_body;
}

/// `out[r] = x[r] @ w` over row `r`'s set bits only: per element, the
/// dense chain of [`gemm_raw`] without its zero links (`w: x.width × n`).
/// Column panels as in [`gemm_raw_body`], the accumulators in registers.
#[inline(always)]
fn gather_rows_body(x: &SetBits, w: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(w.len(), x.width * n, "gather w length");
    assert_eq!(out.len(), x.ends.len() * n, "gather out length");
    for (orow, bits) in out.chunks_exact_mut(n.max(1)).zip(x.rows()) {
        let mut j = 0;
        while j < n {
            j += match n - j {
                NR.. => gather_panel::<NR>(bits, w, n, j, orow),
                NR_EDGE.. => gather_panel::<NR_EDGE>(bits, w, n, j, orow),
                _ => gather_panel::<1>(bits, w, n, j, orow),
            };
        }
    }
}

/// Columns `j..j + W` of one row of [`gather_rows_body`]; returns `W`.
#[inline(always)]
fn gather_panel<const W: usize>(
    x: &[(usize, f32)],
    w: &[f32],
    n: usize,
    j: usize,
    o: &mut [f32],
) -> usize {
    let mut acc = [0.0f32; W];
    for &(c, v) in x {
        for (a, &wv) in acc.iter_mut().zip(&w[c * n + j..c * n + j + W]) {
            *a = v.mul_add(wv, *a);
        }
    }
    o[j..j + W].copy_from_slice(&acc);
    W
}

dispatched! {
    pub(crate) fn gather_rows(x: &SetBits, w: &[f32], n: usize, out: &mut [f32]) => gather_rows_body;
}

dispatched! {
    /// [`crate::optim`]'s Adam update pass at the widest vector width: its
    /// `+ - * / sqrt` are exactly rounded at any width.
    pub(crate) fn adam_update_pass(
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        k: &crate::optim::PassConsts,
    ) => crate::optim::update_pass;
}

/// Fused linear layer: `out = act(a @ w + bias)` in one kernel invocation —
/// a GEMM into `out` followed by a single bias+activation sweep, with no
/// intermediate allocations. `bias` is length `n` (`None` skips the add,
/// preserving raw sums bit-for-bit, signed zeros included).
#[allow(clippy::too_many_arguments)] // mirrors the BLAS-style (m, k, n, a, w, …) calling convention
pub fn fused_linear_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    act: EpilogueAct,
    out: &mut [f32],
) {
    gemm_raw(m, k, n, a, w, out);
    epilogue(n, bias, act, out);
}

/// `out = act(out + bias)`, row by row.
pub(crate) fn epilogue(n: usize, bias: Option<&[f32]>, act: EpilogueAct, out: &mut [f32]) {
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias length");
        for row in out.chunks_exact_mut(n.max(1)) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
    match act {
        EpilogueAct::Identity => {}
        EpilogueAct::Relu => out.iter_mut().for_each(|v| *v = v.max(0.0)),
        EpilogueAct::Tanh => out.iter_mut().for_each(|v| *v = tanh_approx(*v)),
    }
}

/// Blocked out-of-place transpose: `out[j][i] = a[i][j]`. 32×32 blocks keep
/// both the read and write streams cache-resident.
pub fn transpose_into(rows: usize, cols: usize, a: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), rows * cols, "transpose input length");
    assert_eq!(out.len(), rows * cols, "transpose output length");
    const B: usize = 32;
    let mut i0 = 0;
    while i0 < rows {
        let imax = (i0 + B).min(rows);
        let mut j0 = 0;
        while j0 < cols {
            let jmax = (j0 + B).min(cols);
            for i in i0..imax {
                for j in j0..jmax {
                    out[j * rows + i] = a[i * cols + j];
                }
            }
            j0 += B;
        }
        i0 += B;
    }
}

/// Naive scalar implementations retained as the bit-exact oracle for the
/// tiled kernels (property tests) and as the "before" side of
/// `asqp-bench ratios`' tiled-vs-naive pair. Same fma-chain numerics, no
/// tiling, no dispatch.
pub mod reference {
    use super::EpilogueAct;

    /// `out = a @ b`, scalar ikj triple loop.
    pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), m * n);
        out.fill(0.0);
        for i in 0..m {
            for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }

    /// `out = a^T @ b` without materialising the transpose (`a: r×m`,
    /// `b: r×n`, `out: m×n`), accumulating in ascending `r` order.
    pub fn t_matmul(r_dim: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), m * n);
        out.fill(0.0);
        for r in 0..r_dim {
            let arow = &a[r * m..(r + 1) * m];
            let brow = &b[r * n..(r + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }

    /// `out = a @ b^T` without materialising the transpose (`a: m×k`,
    /// `b: n×k`, `out: m×n`), each element a `k`-ordered dot product.
    pub fn matmul_t(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), m * n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc = av.mul_add(bv, acc);
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// Scalar fused linear layer: matmul, then bias, then activation — the
    /// exact epilogue order of [`super::fused_linear_into`].
    #[allow(clippy::too_many_arguments)] // same signature as the tiled kernel it mirrors
    pub fn fused_linear(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        act: EpilogueAct,
        out: &mut [f32],
    ) {
        matmul(m, k, n, a, w, out);
        if let Some(b) = bias {
            for row in out.chunks_exact_mut(n.max(1)) {
                for (o, &bv) in row.iter_mut().zip(b) {
                    *o += bv;
                }
            }
        }
        for v in out.iter_mut() {
            *v = act.apply(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37 - 1.3) * scale).collect()
    }

    #[test]
    fn gemm_matches_reference_on_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (8, 32, 32), (9, 33, 41), (17, 64, 3)] {
            let a = seq(m * k, 0.01);
            let b = seq(k * n, 0.02);
            let mut out = vec![f32::NAN; m * n];
            let mut want = vec![f32::NAN; m * n];
            gemm_raw(m, k, n, &a, &b, &mut out);
            reference::matmul(m, k, n, &a, &b, &mut want);
            assert_eq!(out, want, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let mut out = vec![];
        gemm_raw(0, 3, 4, &[], &seq(12, 1.0), &mut out);
        let mut out = vec![1.0f32; 6];
        gemm_raw(2, 0, 3, &[], &[], &mut out);
        assert_eq!(out, vec![0.0; 6], "k = 0 must produce exact zeros");
    }

    #[test]
    fn fused_linear_applies_bias_then_activation() {
        let a = vec![1.0f32, 2.0];
        let w = vec![1.0f32, -1.0, 0.5, -0.5];
        let bias = vec![0.25f32, -10.0];
        let mut out = vec![0.0f32; 2];
        fused_linear_into(1, 2, 2, &a, &w, Some(&bias), EpilogueAct::Relu, &mut out);
        // raw = [2.0, -2.0]; +bias = [2.25, -12.0]; relu = [2.25, 0.0]
        assert_eq!(out, vec![2.25, 0.0]);
    }

    #[test]
    fn tanh_approx_tracks_libm_and_saturates() {
        // Dense sweep across the active range: absolute error vs libm tanhf
        // stays within a few ulps of the true value.
        let mut worst = 0.0f32;
        let mut x = -9.0f32;
        while x <= 9.0 {
            let err = (tanh_approx(x) - x.tanh()).abs();
            worst = worst.max(err);
            x += 0.001;
        }
        assert!(worst < 2e-6, "worst tanh error {worst}");
        // Odd symmetry (clamp and polynomial are both odd in x).
        for x in [0.017f32, 0.9, 3.3, 25.0] {
            assert_eq!(tanh_approx(-x).to_bits(), (-tanh_approx(x)).to_bits());
        }
        // Saturation: huge inputs stay bounded and monotone-consistent.
        assert!(tanh_approx(100.0) > 0.999_999);
        assert!(tanh_approx(100.0) <= 1.0);
        assert_eq!(tanh_approx(0.0), 0.0);
    }

    #[test]
    fn transpose_round_trips() {
        let a = seq(7 * 43, 1.0);
        let mut t = vec![0.0f32; 7 * 43];
        let mut back = vec![0.0f32; 7 * 43];
        transpose_into(7, 43, &a, &mut t);
        transpose_into(43, 7, &t, &mut back);
        assert_eq!(a, back);
    }
}
