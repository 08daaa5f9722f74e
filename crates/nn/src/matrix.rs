//! Dense row-major f32 matrices — the only tensor type the NN stack needs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Row-major 2-D array of `f32`. The default is the empty 0×0 matrix, what
/// a reusable output buffer starts as.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)
    }
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// One row as a matrix view copy (used for single-state forward passes).
    pub fn from_row(row: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Kaiming-uniform initialisation, deterministic in `rng`.
    pub fn kaiming(rows: usize, cols: usize, rng: &mut impl rand::Rng) -> Self {
        let bound = (6.0 / rows as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Give the matrix this shape, keeping its allocation. What it holds
    /// afterwards is unspecified: this is for an output buffer that the
    /// caller overwrites whole, as every `_into` method below does.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self @ other` — cache-blocked, register-tiled, vectorized GEMM
    /// (see [`crate::kernels`] for the tiling scheme and the bit-exactness
    /// contract with the retained naive reference).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a reused output.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        out.reshape_for_overwrite(self.rows, other.cols);
        crate::kernels::gemm_raw(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    /// `self^T @ other`. Materialises the (cheap, O(rows·cols)) transpose
    /// and runs the blocked GEMM; per-element accumulation stays in
    /// ascending shared-dimension order, so the result is bit-identical to
    /// the transpose-free naive loop.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let (mut t, mut out) = (Matrix::default(), Matrix::default());
        self.t_matmul_into(other, &mut t, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into a reused output, with `t` as the reused
    /// home of `self^T`.
    pub fn t_matmul_into(&self, other: &Matrix, t: &mut Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        self.transpose_into(t);
        t.matmul_into(other, out);
    }

    /// `self @ other^T`. Same strategy as [`Matrix::t_matmul`]: transpose
    /// the (small) right-hand side, then run the blocked GEMM.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        self.matmul(&other.transpose())
    }

    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a reused output.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape_for_overwrite(self.cols, self.rows);
        crate::kernels::transpose_into(self.rows, self.cols, &self.data, &mut out.data);
    }

    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let mut out = Matrix::default();
        self.zip_map_into(other, &mut out, f);
        out
    }

    /// [`Matrix::zip_map`] into a reused output.
    pub fn zip_map_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        out.reshape_for_overwrite(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Add a 1xC bias row to every row.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Column-wise sum into a 1xC matrix (bias gradients).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] into a reused output: each column is summed
    /// from `+0.0` in ascending row order.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.reshape_for_overwrite(1, self.cols);
        out.data.fill(0.0);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_matmuls_agree() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::kaiming(4, 3, &mut rng);
        let b = Matrix::kaiming(4, 5, &mut rng);
        let via_t = a.transpose().matmul(&b);
        let direct = a.t_matmul(&b);
        for (x, y) in via_t.data().iter().zip(direct.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Matrix::kaiming(6, 3, &mut rng);
        let via_t2 = a.matmul(&c.transpose());
        let direct2 = a.matmul_t(&c);
        for (x, y) in via_t2.data().iter().zip(direct2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn broadcast_and_sum() {
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(1, 2, vec![10., 20.]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11., 22., 13., 24.]);
        assert_eq!(y.sum_rows().data(), &[24., 46.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn kaiming_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::kaiming(100, 10, &mut rng);
        let bound = (6.0f32 / 100.0).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= bound));
        assert!(m.data().iter().any(|&x| x != 0.0));
    }
}
