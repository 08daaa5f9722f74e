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

    pub fn into_data(self) -> Vec<f32> {
        self.data
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

    /// Column-wise sum into a 1xC matrix (bias gradients), into a reused
    /// output: each column is summed from `+0.0` in ascending row order.
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

/// The set bits of a batch of rows: each row's nonzero `(column, value)`
/// pairs in ascending column order, the input of a layer that mostly reads
/// zeros (the policy's indicator state). [`crate::kernels`] multiplies by
/// it as by the dense rows, with the zero links of each fma chain left out.
#[derive(Debug, Clone, Default)]
pub struct SetBits {
    pub(crate) width: usize,
    /// `ends[r]` is one past row `r`'s last entry in `bits`.
    pub(crate) ends: Vec<usize>,
    bits: Vec<(usize, f32)>,
}

impl SetBits {
    /// One dense row's set bits.
    pub fn of_row(row: &[f32]) -> Self {
        let mut x = SetBits::default();
        x.clear(row.len());
        x.push_row(row);
        x
    }

    /// No rows, of this width; the allocations stay.
    pub fn clear(&mut self, width: usize) {
        self.width = width;
        self.ends.clear();
        self.bits.clear();
    }

    /// Append the entries of one dense row that are not `±0.0`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row width");
        // Sixteen entries at a time: a mask of the nonzero ones, then one
        // step per set bit of the mask.
        for (base, chunk) in (0..).step_by(16).zip(row.chunks(16)) {
            let nonzero = |m: u32, (i, &v): (usize, &f32)| m | u32::from(v != 0.0) << i;
            let mut mask = chunk.iter().enumerate().fold(0, nonzero);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                self.bits.push((base + i, chunk[i]));
                mask &= mask - 1;
            }
        }
        self.ends.push(self.bits.len());
    }

    /// Each row's set bits.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[(usize, f32)]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.bits[s..e])
    }

    /// The set bits of the transpose: row `c` lists the rows of `self` that
    /// set column `c`, in ascending order.
    pub(crate) fn transposed(&self) -> SetBits {
        // Count each column's entries, start each column's run where the
        // one before ends, and deal the entries out row by row.
        let mut next = vec![0; self.width];
        self.bits.iter().for_each(|&(c, _)| next[c] += 1);
        let mut total = 0;
        for n in &mut next {
            (*n, total) = (total, total + *n);
        }
        let mut bits = vec![(0, 0.0); total];
        for (r, row) in self.rows().enumerate() {
            for &(c, v) in row {
                bits[next[c]] = (r, v);
                next[c] += 1;
            }
        }
        let width = self.ends.len();
        SetBits {
            width,
            ends: next,
            bits,
        }
    }

    /// The dense rows, with `+0.0` where no bit is set.
    pub(crate) fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.ends.len(), self.width);
        for (r, row) in self.rows().enumerate() {
            row.iter().for_each(|&(c, v)| *out.at_mut(r, c) = v);
        }
        out
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
