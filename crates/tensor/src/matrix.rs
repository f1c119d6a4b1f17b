//! Dense row-major `f32` matrices and the kernels the autograd layer builds on.
//!
//! The three matmul variants route products above [`crate::gemm`]'s FLOP
//! floor through the cache-blocked, panel-packed microkernels of that
//! module; `A·B` with fewer than [`gemm::NR`] output columns runs that
//! module's row-interleaved narrow kernel, and other small or degenerate
//! shapes keep the historical naive loops (`ikj`-ordered, contiguous SAXPY
//! inner loop). All paths are **bit-identical** for finite inputs — each
//! accumulates every output element with a single accumulator in
//! ascending-`k` order — so the dispatch is purely a performance choice.
//!
//! Every output-row-partitioned kernel (the matmul variants and the large
//! elementwise/broadcast ops) dispatches through
//! [`crate::parallel::parallel_for_rows`]: inputs big enough to clear the
//! FLOP threshold split their output rows across scoped threads, while small
//! inputs keep the serial fast path. Each thread runs the same per-row loop
//! in the same order, so results are bit-identical at any thread count.
//!
//! Hot ops come in pairs: the allocating form (`matmul`, `add`, …) and an
//! `*_into` form writing into a caller-owned buffer. The allocating forms
//! delegate to the `*_into` forms, so there is exactly one implementation of
//! each kernel and the compiled inference plan ([`crate::plan`]) replaying
//! into reused buffers computes bit-identical values to the autograd tape.

use crate::{gemm, parallel};
use std::fmt;

/// Per-element cost of an arithmetic map (`relu`, a derivative mask, a
/// polynomial), in the GEMM-FLOP units [`Matrix::map`] charges against
/// [`parallel::SERIAL_FLOP_THRESHOLD`].
pub const CHEAP_MAP_FLOPS: usize = 8;

/// Per-element cost of `f32::tanh` in GEMM-FLOP units. Measured on one core
/// of a 2-core x86-64 host: ~20 ns per element against ~13 GFLOP/s for the
/// blocked GEMM, so one `tanh` costs about 256 multiply-adds. A 16-row
/// training batch (`16 x 256`, ~1 M) stays serial; a 300-row attention
/// replay (~20 M) splits across workers.
pub const TANH_FLOPS: usize = 256;

/// Per-element cost of the logistic sigmoid (`1 / (1 + e^-v)`), measured
/// like [`TANH_FLOPS`]: ~6 ns per element.
pub const SIGMOID_FLOPS: usize = 64;

/// A dense, row-major matrix of `f32` values.
///
/// Shapes are `rows x cols`; element `(i, j)` lives at `data[i * cols + j]`.
/// All shape mismatches are programming errors and panic with a message that
/// names the operation, matching the conventions of numeric libraries where
/// silent broadcasting would hide bugs.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the placeholder `std::mem::take` swaps in
    /// when plan buffers are staged.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer of {} elements cannot be {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested rows; handy in tests.
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged input");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// A 1x1 matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access. Panics on out-of-bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "Matrix::get out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element assignment. Panics on out-of-bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "Matrix::set out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of one row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "Matrix::row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "Matrix::row_mut out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The value of a 1x1 matrix. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "Matrix::item requires a 1x1 matrix");
        self.data[0]
    }

    /// Reshapes in place to `rows x cols`, reusing the allocation. Contents
    /// are unspecified afterwards; every `*_into` kernel fully overwrites
    /// (or explicitly zeroes) the buffer before reading it.
    pub(crate) fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if self.data.len() != len {
            self.data.resize(len, 0.0);
        }
    }

    /// Matrix product `self * other`; shapes `(n,k) x (k,m) -> (n,m)`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`matmul`](Self::matmul) into a caller-owned buffer (reshaped to fit).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "Matrix::matmul: {}x{} * {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        out.reset_shape(n, m);
        if gemm::use_blocked(n, k, m) {
            let a = gemm::Operand { data: &self.data, rs: k, cs: 1 };
            let b = gemm::Operand { data: &other.data, rs: m, cs: 1 };
            gemm::gemm(n, k, m, &a, &b, &mut out.data);
            return;
        }
        if m < gemm::NR {
            gemm::gemm_narrow(n, k, m, &self.data, &other.data, &mut out.data);
            return;
        }
        out.fill_zero();
        parallel::parallel_for_rows(&mut out.data, m, 2 * k * m, |i, out_row| {
            let a_row = &self.data[i * k..(i + 1) * k];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * m..(p + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b;
                }
            }
        });
    }

    /// [`matmul_into`](Self::matmul_into) against a right operand packed
    /// ahead of time: `(n,k) x packed (k,m) -> (n,m)`. Always runs the
    /// blocked kernel (bit-identical to every other path), so callers keep
    /// it for shapes where [`gemm::use_blocked`] holds and reuse one pack
    /// across many products — the compiled plan does this for weights.
    pub fn matmul_prepacked_into(&self, other: &gemm::PackedB, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows(),
            "Matrix::matmul_prepacked: {}x{} * packed {}x{} shape mismatch",
            self.rows,
            self.cols,
            other.rows(),
            other.cols()
        );
        let (n, k) = (self.rows, self.cols);
        out.reset_shape(n, other.cols());
        let a = gemm::Operand { data: &self.data, rs: k, cs: 1 };
        gemm::gemm_prepacked(n, &a, other, &mut out.data);
    }

    /// `selfᵀ * other`; shapes `(k,n)ᵀ x (k,m) -> (n,m)`. Used by backward
    /// passes so gradients never materialize an explicit transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::matmul_tn: {}x{}ᵀ * {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, m);
        if gemm::use_blocked(n, k, m) {
            // The transpose is expressed purely through pack-time strides:
            // logical A[i][p] = self.data[p * n + i].
            let a = gemm::Operand { data: &self.data, rs: 1, cs: n };
            let b = gemm::Operand { data: &other.data, rs: m, cs: 1 };
            gemm::gemm(n, k, m, &a, &b, &mut out.data);
            return out;
        }
        // Per-output-row loop (rather than the k-outer order a transposed
        // product suggests) so rows can split across threads; each (i, j)
        // still accumulates over p in ascending order, keeping results
        // bit-identical to the historical serial kernel.
        parallel::parallel_for_rows(&mut out.data, m, 2 * k * m, |i, out_row| {
            for p in 0..k {
                let a = self.data[p * n + i];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * m..(p + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// `self * otherᵀ`; shapes `(n,k) x (m,k)ᵀ -> (n,m)`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "Matrix::matmul_nt: {}x{} * {}x{}ᵀ shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(n, m);
        if gemm::use_blocked(n, k, m) {
            let a = gemm::Operand { data: &self.data, rs: k, cs: 1 };
            // Logical B[p][j] = other.data[j * k + p].
            let b = gemm::Operand { data: &other.data, rs: 1, cs: k };
            gemm::gemm(n, k, m, &a, &b, &mut out.data);
            return out;
        }
        parallel::parallel_for_rows(&mut out.data, m, 2 * k * m, |i, out_row| {
            let a_row = &self.data[i * k..(i + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        });
        out
    }

    /// Explicit transpose; used rarely (analysis code), not in hot loops.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise sum of two equally-shaped matrices.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.add_into(other, &mut out);
        out
    }

    /// [`add`](Self::add) into a caller-owned buffer (reshaped to fit).
    pub fn add_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::add shape mismatch");
        out.reset_shape(self.rows, self.cols);
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a + b;
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "Matrix::sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.mul_into(other, &mut out);
        out
    }

    /// [`mul`](Self::mul) into a caller-owned buffer (reshaped to fit).
    pub fn mul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::mul shape mismatch");
        out.reset_shape(self.rows, self.cols);
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a * b;
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.scale_into(s, &mut out);
        out
    }

    /// [`scale`](Self::scale) into a caller-owned buffer (reshaped to fit).
    pub fn scale_into(&self, s: f32, out: &mut Matrix) {
        out.reset_shape(self.rows, self.cols);
        for (o, a) in out.data.iter_mut().zip(&self.data) {
            *o = a * s;
        }
    }

    /// In-place `self += other * s` (axpy); the workhorse of gradient
    /// accumulation.
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.shape(), other.shape(), "Matrix::add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Adds a `1 x cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.add_row_broadcast_into(row, &mut out);
        out
    }

    /// [`add_row_broadcast`](Self::add_row_broadcast) into a caller-owned
    /// buffer (reshaped to fit).
    pub fn add_row_broadcast_into(&self, row: &Matrix, out: &mut Matrix) {
        assert_eq!(row.rows, 1, "Matrix::add_row_broadcast: rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "Matrix::add_row_broadcast shape mismatch");
        out.reset_shape(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        let cols = self.cols;
        parallel::parallel_for_rows(&mut out.data, cols, cols, |_i, r| {
            for (o, &b) in r.iter_mut().zip(&row.data) {
                *o += b;
            }
        });
    }

    /// Scales each row `i` by the scalar in `col[i]` (an `n x 1` column).
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.mul_col_broadcast_into(col, &mut out);
        out
    }

    /// [`mul_col_broadcast`](Self::mul_col_broadcast) into a caller-owned
    /// buffer (reshaped to fit).
    pub fn mul_col_broadcast_into(&self, col: &Matrix, out: &mut Matrix) {
        assert_eq!(col.cols, 1, "Matrix::mul_col_broadcast: rhs must be a column vector");
        assert_eq!(col.rows, self.rows, "Matrix::mul_col_broadcast shape mismatch");
        out.reset_shape(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        let cols = self.cols;
        parallel::parallel_for_rows(&mut out.data, cols, cols, |i, r| {
            let s = col.data[i];
            for v in r {
                *v *= s;
            }
        });
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise mean, producing a `1 x cols` row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j] += self.data[i * self.cols + j];
            }
        }
        let inv = 1.0 / self.rows as f32;
        out.data.iter_mut().for_each(|v| *v *= inv);
        out
    }

    /// Column-wise sum over each row, producing an `n x 1` column vector.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for i in 0..self.rows {
            out.data[i] = self.row(i).iter().sum();
        }
        out
    }

    /// Row-wise softmax; each row becomes a probability distribution.
    ///
    /// Uses the max-subtraction trick for numerical stability.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.softmax_rows_into(&mut out);
        out
    }

    /// [`softmax_rows`](Self::softmax_rows) into a caller-owned buffer
    /// (reshaped to fit).
    pub fn softmax_rows_into(&self, out: &mut Matrix) {
        out.reset_shape(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        let cols = self.cols;
        // ~4 flops per element plus an exp; 16 is a conservative estimate.
        parallel::parallel_for_rows(&mut out.data, cols, 16 * cols, |_i, row| {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        });
    }

    /// Elementwise map costing `flops_per_element` (in the GEMM-FLOP units
    /// of [`parallel::SERIAL_FLOP_THRESHOLD`]: [`CHEAP_MAP_FLOPS`],
    /// [`TANH_FLOPS`], [`SIGMOID_FLOPS`]). `f` must be `Sync`: rows of
    /// matrices whose total cost clears the dispatch policy are mapped on
    /// scoped worker threads, each row by the same loop, so the output is
    /// the same at any thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync, flops_per_element: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.map_into(f, flops_per_element, &mut out);
        out
    }

    /// [`map`](Self::map) into a caller-owned buffer (reshaped to fit).
    pub fn map_into(
        &self,
        f: impl Fn(f32) -> f32 + Sync,
        flops_per_element: usize,
        out: &mut Matrix,
    ) {
        out.reset_shape(self.rows, self.cols);
        let cols = self.cols;
        parallel::parallel_for_rows(&mut out.data, cols, flops_per_element * cols, |i, row| {
            let src = &self.data[i * cols..(i + 1) * cols];
            for (o, &v) in row.iter_mut().zip(src) {
                *o = f(v);
            }
        });
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        Matrix::concat_cols_into(parts, &mut out);
        out
    }

    /// [`concat_cols`](Self::concat_cols) into a caller-owned buffer
    /// (reshaped to fit).
    pub fn concat_cols_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty(), "Matrix::concat_cols: empty input");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "Matrix::concat_cols: row count mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        out.reset_shape(rows, cols);
        for i in 0..rows {
            let dst = &mut out.data[i * cols..(i + 1) * cols];
            let mut offset = 0;
            for p in parts {
                dst[offset..offset + p.cols].copy_from_slice(p.row(i));
                offset += p.cols;
            }
        }
    }

    /// Vertical concatenation of matrices with equal column counts.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "Matrix::concat_rows: empty input");
        let cols = parts[0].cols;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(p.cols, cols, "Matrix::concat_rows: column count mismatch");
            data.extend_from_slice(&p.data);
        }
        let rows = data.len() / cols.max(1);
        Matrix { rows, cols, data }
    }

    /// Copies a contiguous column block `[start, start + width)`.
    pub fn slice_cols(&self, start: usize, width: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.slice_cols_into(start, width, &mut out);
        out
    }

    /// [`slice_cols`](Self::slice_cols) into a caller-owned buffer (reshaped
    /// to fit).
    pub fn slice_cols_into(&self, start: usize, width: usize, out: &mut Matrix) {
        assert!(start + width <= self.cols, "Matrix::slice_cols out of bounds");
        out.reset_shape(self.rows, width);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..start + width]);
        }
    }

    /// Copies rows `[start, start + count)` of `src` into `self` (reshaped
    /// to fit) — the allocation-free counterpart of
    /// [`slice_rows`](Self::slice_rows) the inference plan uses to stage
    /// each chunk of a batch.
    pub fn assign_rows_from(&mut self, src: &Matrix, start: usize, count: usize) {
        assert!(start + count <= src.rows, "Matrix::assign_rows_from out of bounds");
        self.reset_shape(count, src.cols);
        self.data.copy_from_slice(&src.data[start * src.cols..(start + count) * src.cols]);
    }

    /// Copies a contiguous row block `[start, start + count)`; cheap
    /// (one `memcpy`) because storage is row-major. Chunked batch inference
    /// uses this to hand each worker its block of encoded pairs.
    pub fn slice_rows(&self, start: usize, count: usize) -> Matrix {
        assert!(start + count <= self.rows, "Matrix::slice_rows out of bounds");
        let data = self.data[start * self.cols..(start + count) * self.cols].to_vec();
        Matrix { rows: count, cols: self.cols, data }
    }

    /// Copies a subset of rows (in the given order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Euclidean distance between two equally shaped matrices.
    pub fn distance(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "Matrix::distance shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt()
    }

    /// True if all elements are finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let id =
            Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.5], vec![-1.0, 2.0], vec![0.0, 3.0]]);
        let via_t = a.transpose().matmul(&b);
        let fused = a.matmul_tn(&b);
        assert_eq!(via_t.shape(), fused.shape());
        for (x, y) in via_t.as_slice().iter().zip(fused.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.5, 1.5, -1.0]]);
        let via_t = a.matmul(&b.transpose());
        let fused = a.matmul_nt(&b);
        for (x, y) in via_t.as_slice().iter().zip(fused.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let m = Matrix::from_rows(&[vec![1000.0, 1000.0, 1000.0], vec![-5.0, 0.0, 5.0]]);
        let s = m.softmax_rows();
        assert!(s.is_finite());
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!(approx(sum, 1.0));
        }
        assert!(approx(s.get(0, 0), 1.0 / 3.0));
        assert!(s.get(1, 2) > s.get(1, 1));
    }

    #[test]
    fn broadcast_ops() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let bias = Matrix::from_rows(&[vec![10.0, 20.0]]);
        let out = m.add_row_broadcast(&bias);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);

        let col = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        let out = m.mul_col_broadcast(&col);
        assert_eq!(out.as_slice(), &[2.0, 4.0, -3.0, -4.0]);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0], vec![3.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 5.0], vec![4.0, 6.0]]);
        let cat = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        assert_eq!(cat.slice_cols(0, 1), a);
        assert_eq!(cat.slice_cols(1, 2), b);
    }

    #[test]
    fn mean_rows_and_select() {
        let m = Matrix::from_rows(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        let mu = m.mean_rows();
        assert_eq!(mu.as_slice(), &[2.0, 4.0]);
        let sel = m.select_rows(&[1]);
        assert_eq!(sel.as_slice(), &[3.0, 5.0]);
    }

    #[test]
    fn distance_matches_hand_computation() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!(approx(a.distance(&b), 5.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = a.add(&b);
    }

    #[test]
    fn empty_mean_is_zero() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.mean_rows().as_slice(), &[0.0, 0.0, 0.0]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn concat_rows_stacks_vertically() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let cat = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 2));
        assert_eq!(cat.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn concat_rows_rejects_mismatched_widths() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        let _ = Matrix::concat_rows(&[&a, &b]);
    }

    #[test]
    fn sum_cols_reduces_each_row() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]);
        let s = m.sum_cols();
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s.as_slice(), &[6.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_cols_bounds_checked() {
        let m = Matrix::zeros(2, 3);
        let _ = m.slice_cols(2, 2);
    }

    #[test]
    fn scalar_and_item_round_trip() {
        assert_eq!(Matrix::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "1x1")]
    fn item_rejects_non_scalar() {
        let _ = Matrix::zeros(2, 1).item();
    }

    #[test]
    fn map_and_scale_agree() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0]]);
        assert_eq!(m.scale(2.0), m.map(|v| v * 2.0, CHEAP_MAP_FLOPS));
    }

    #[test]
    fn add_scaled_assign_is_axpy() {
        let mut a = Matrix::full(1, 3, 1.0);
        let b = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        a.add_scaled_assign(&b, -0.5);
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.is_finite());
        m.set(0, 0, f32::INFINITY);
        assert!(!m.is_finite());
    }
}
