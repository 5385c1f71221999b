//! Dense row-major `f32` matrices with the small set of BLAS-like operations
//! the LSTM / dense layers need.
//!
//! The matrix type is deliberately minimal: it is an internal numeric engine,
//! not a general linear-algebra library. All operations validate shapes and
//! panic with a descriptive message on mismatch (these are programmer errors,
//! not runtime conditions).

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::rngs::StdRng;
use rand::Rng;

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use ml::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let max_cols = 8.min(self.cols);
            let vals: Vec<String> = (0..max_cols)
                .map(|c| format!("{:9.4}", self[(r, c)]))
                .collect();
            let ellipsis = if self.cols > max_cols { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", vals.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            // cold-init: `zeros` is the one blessed dense allocator; hot
            // paths resize pre-sized buffers instead of constructing.
            // lint: allow(A1)
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut m = Matrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows in from_rows");
            m.data[r * cols..(r + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Builds a matrix with entries drawn uniformly from `[-limit, limit]`.
    pub fn uniform(rows: usize, cols: usize, limit: f32, rng: &mut StdRng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
    }

    /// Xavier/Glorot uniform initialization for a weight matrix mapping
    /// `cols` inputs to `rows` outputs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::uniform(rows, cols, limit, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements (never true: dimensions are
    /// validated as non-zero at construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing storage (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow one row.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "set_row length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Reshapes in place to `rows` x `cols` and zero-fills, reusing the
    /// existing allocation whenever its capacity suffices. This is the
    /// workhorse of the training [`crate::workspace::Workspace`]: buffers are
    /// resized per example instead of reallocated.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into `self`, adopting its shape, without reallocating
    /// when capacity allows.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the register-tiled microkernel (see [`TILE_M`]/[`TILE_N`])
    /// parallelized over output-row blocks for large products. The `k`
    /// summation order per output element is globally ascending — the same
    /// order as the naive triple loop — so the result is bitwise equal to
    /// [`Matrix::matmul_naive`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.matmul_into(other, &mut out);
        out
    }

    /// In-place variant of [`Matrix::matmul`]: writes the product into `out`,
    /// resizing it (allocation-free once capacity is warm). Bitwise identical
    /// to the allocating path — same kernel, same summation order.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_zeroed(self.rows, other.cols);
        run_row_blocks(
            &mut out.data,
            self.rows,
            other.cols,
            self.cols,
            |r0, buf| {
                gemm_block(&self.data, self.cols, &other.data, other.cols, r0, buf);
            },
        );
    }

    /// Reference `self * other`: the plain i-k-j triple loop. Kept as the
    /// ground truth the blocked/parallel [`Matrix::matmul`] must match
    /// bitwise (property-tested).
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self^T * other`, parallelized over output-row blocks.
    /// Per output element the `k` order is ascending, matching
    /// [`Matrix::t_matmul_naive`] bitwise.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// In-place variant of [`Matrix::t_matmul`]: writes `self^T * other` into
    /// `out`, resizing it. Bitwise identical to the allocating path.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_zeroed(self.cols, other.cols);
        run_row_blocks(
            &mut out.data,
            self.cols,
            other.cols,
            self.rows,
            |i0, buf| {
                gemm_t_block(
                    &self.data,
                    self.cols,
                    self.rows,
                    &other.data,
                    other.cols,
                    i0,
                    buf,
                );
            },
        );
    }

    /// Reference `self^T * other`: the plain k-i-j triple loop.
    pub fn t_matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Writes the transpose of `self` into `out`, resizing it
    /// (allocation-free once capacity is warm).
    pub fn transposed_into(&self, out: &mut Matrix) {
        out.resize_zeroed(self.cols, self.rows);
        for r in 0..self.rows {
            let src = self.row(r);
            for (c, &v) in src.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    pub fn zip_with(&self, other: &Matrix, mut f: impl FnMut(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "zip_with shape mismatch"
        );
        let mut out = self.clone();
        for (a, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        for v in out.data.iter_mut() {
            *v = f(*v);
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({}, {}) out of bounds for {}x{}",
            r,
            c,
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({}, {}) out of bounds for {}x{}",
            r,
            c,
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Row height of the register-tiled GEMM microkernel: each inner iteration
/// updates a [`TILE_M`] x [`TILE_N`] accumulator block held in locals.
pub const TILE_M: usize = 4;

/// Column width of the register-tiled GEMM microkernel accumulator block.
pub const TILE_N: usize = 8;

use crate::par::thresholds::MIN_PARALLEL_GEMM_FLOPS;

/// Register-tiled `A * B` over a strip of output rows starting at `r0`.
///
/// Walks [`TILE_M`] x [`TILE_N`] output tiles with the `k` loop innermost
/// and ascending: every output element still accumulates its products in
/// exactly the naive triple-loop order, so the result is bitwise equal to
/// [`Matrix::matmul_naive`] — the tiling only changes *which* elements are
/// in flight together, never the per-element summation chain. Edge rows and
/// columns that do not fill a tile fall back to scalar ascending-`k`
/// accumulation into the zero-initialized `buf`.
///
/// Full tiles dispatch to [`crate::simd::gemm_tile_4x8`], which runs the
/// same accumulation across AVX2 lanes when available — each of the
/// [`TILE_N`] output columns is an independent ascending-`k` chain, so the
/// vector path is bitwise identical to the scalar one (property-tested at
/// lane-boundary shapes in this module).
fn gemm_block(a: &[f32], k_dim: usize, b: &[f32], n: usize, r0: usize, buf: &mut [f32]) {
    let use_simd = crate::simd::enabled();
    let rows = buf.len() / n;
    let mut di = 0;
    while di + TILE_M <= rows {
        let a_rows: [&[f32]; TILE_M] = std::array::from_fn(|t| {
            let i = r0 + di + t;
            &a[i * k_dim..(i + 1) * k_dim]
        });
        let mut j = 0;
        while j + TILE_N <= n {
            let mut acc = [[0.0f32; TILE_N]; TILE_M];
            crate::simd::gemm_tile_4x8(&a_rows, b, n, j, k_dim, &mut acc, use_simd);
            for (t, acc_row) in acc.iter().enumerate() {
                buf[(di + t) * n + j..(di + t) * n + j + TILE_N].copy_from_slice(acc_row);
            }
            j += TILE_N;
        }
        for jr in j..n {
            for (t, a_row) in a_rows.iter().enumerate() {
                let mut acc = 0.0f32;
                for (k, &av) in a_row.iter().enumerate() {
                    acc += av * b[k * n + jr];
                }
                buf[(di + t) * n + jr] = acc;
            }
        }
        di += TILE_M;
    }
    for dr in di..rows {
        let i = r0 + dr;
        let a_row = &a[i * k_dim..(i + 1) * k_dim];
        let out_row = &mut buf[dr * n..(dr + 1) * n];
        for (k, &av) in a_row.iter().enumerate() {
            let b_row = &b[k * n..(k + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Register-tiled `A^T * B` over a strip of output rows starting at `i0`.
///
/// Same accumulation-order contract as [`gemm_block`]: the `k` loop is
/// innermost and ascending for every output element, so the result matches
/// [`Matrix::t_matmul_naive`] bitwise. Here the [`TILE_M`]-wide strip of `A`
/// values at a given `k` is contiguous (`A[k][i..i + TILE_M]`), which is what
/// makes the transposed product tile-friendly without materializing `A^T`.
fn gemm_t_block(
    a: &[f32],
    a_cols: usize,
    k_dim: usize,
    b: &[f32],
    n: usize,
    i0: usize,
    buf: &mut [f32],
) {
    let use_simd = crate::simd::enabled();
    let rows = buf.len() / n;
    let mut di = 0;
    while di + TILE_M <= rows {
        let i = i0 + di;
        let mut j = 0;
        while j + TILE_N <= n {
            let mut acc = [[0.0f32; TILE_N]; TILE_M];
            crate::simd::gemm_t_tile_4x8(a, a_cols, i, b, n, j, k_dim, &mut acc, use_simd);
            for (t, acc_row) in acc.iter().enumerate() {
                buf[(di + t) * n + j..(di + t) * n + j + TILE_N].copy_from_slice(acc_row);
            }
            j += TILE_N;
        }
        for jr in j..n {
            for t in 0..TILE_M {
                let mut acc = 0.0f32;
                for k in 0..k_dim {
                    acc += a[k * a_cols + i + t] * b[k * n + jr];
                }
                buf[(di + t) * n + jr] = acc;
            }
        }
        di += TILE_M;
    }
    for dr in di..rows {
        let i = i0 + dr;
        let out_row = &mut buf[dr * n..(dr + 1) * n];
        for k in 0..k_dim {
            let av = a[k * a_cols + i];
            let b_row = &b[k * n..(k + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Runs `kernel` over blocks of output rows, in parallel when the product is
/// large enough. `kernel(r0, buf)` must fill `buf` (zero-initialized,
/// row-major, `buf.len() / out_cols` rows) with output rows starting at
/// `r0`. Each output element is written by exactly one worker, so the result
/// is identical for any worker count.
fn run_row_blocks(
    out: &mut [f32],
    rows: usize,
    out_cols: usize,
    inner_dim: usize,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    let workers = crate::par::threads();
    if workers <= 1 || rows < 2 || rows * out_cols * inner_dim < MIN_PARALLEL_GEMM_FLOPS {
        kernel(0, out);
        return;
    }
    // A few blocks per worker for load balancing; block boundaries do not
    // affect the result, only the schedule.
    let n_blocks = (workers * 4).min(rows);
    let block = rows.div_ceil(n_blocks);
    // Parallel scatter set-up: one range list and one per-block buffer per
    // round, amortized over the block GEMM — the same blessing as
    // ml::par::par_map's own result collection (DESIGN.md §9).
    let ranges: Vec<(usize, usize)> = (0..rows)
        .step_by(block)
        .map(|r0| (r0, (r0 + block).min(rows)))
        .collect(); // lint: allow(A1)
    let parts = crate::par::par_map(&ranges, |_, &(r0, r1)| {
        let mut buf = vec![0.0f32; (r1 - r0) * out_cols]; // lint: allow(A1)
        kernel(r0, &mut buf);
        buf
    });
    for (&(r0, _), part) in ranges.iter().zip(parts.iter()) {
        out[r0 * out_cols..r0 * out_cols + part.len()].copy_from_slice(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert_eq!(z.sum(), 0.0);
        let i = Matrix::identity(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn transpose_products_agree_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::uniform(4, 3, 1.0, &mut rng);
        let b = Matrix::uniform(4, 5, 1.0, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = a.transposed().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// Generator for GEMM shapes `(m, k, n)`. Dimensions deliberately straddle
    /// every special case in the tiled kernels: 1 (degenerate), values off the
    /// `TILE_M`/`TILE_N` microkernel grid, and products on both sides of the
    /// `MIN_PARALLEL_GEMM_FLOPS` fan-out threshold (ml::par::thresholds).
    fn gemm_shape() -> testkit::Gen<(usize, usize, usize)> {
        testkit::gen::zip3(
            testkit::gen::usize_in(1, 96),
            testkit::gen::usize_in(1, 96),
            testkit::gen::usize_in(1, 300),
        )
    }

    /// Matrix contents derived from the shape alone, so a shrunk
    /// counterexample is fully reproducible from the printed tuple.
    fn shape_rng(tag: u64, (m, k, n): (usize, usize, usize)) -> StdRng {
        StdRng::seed_from_u64(tag ^ ((m as u64) << 40 | (k as u64) << 20 | n as u64))
    }

    #[test]
    fn blocked_products_match_naive_bitwise_across_thread_counts() {
        testkit::check("gemm_blocked_vs_naive", &gemm_shape(), |&(m, k, n)| {
            let mut rng = shape_rng(0xb10c, (m, k, n));
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let reference = a.matmul_naive(&b);
            let at = Matrix::uniform(k, m, 1.0, &mut rng);
            let t_reference = at.t_matmul_naive(&b);
            for threads in [1usize, 2, 5] {
                let (fast, t_fast) =
                    crate::par::with_threads(threads, || (a.matmul(&b), at.t_matmul(&b)));
                testkit::prop::holds(
                    fast == reference,
                    format!("matmul {m}x{k}x{n} @ {threads} threads"),
                )?;
                testkit::prop::holds(
                    t_fast == t_reference,
                    format!("t_matmul {m}x{k}x{n} @ {threads} threads"),
                )?;
            }
            Ok(())
        });
    }

    /// Dimensions that sit exactly on, just inside, and just outside the
    /// microkernel tile grid, plus primes that never align with it.
    fn tile_boundary_dim() -> testkit::Gen<usize> {
        testkit::gen::choice(vec![
            1,
            TILE_M - 1,
            TILE_M,
            TILE_M + 1,
            TILE_N - 1,
            TILE_N,
            TILE_N + 1,
            2 * TILE_N + 1,
            13,
            31,
        ])
    }

    #[test]
    fn microkernel_matches_naive_bitwise_on_tile_boundary_shapes() {
        let shape = testkit::gen::zip3(
            tile_boundary_dim(),
            tile_boundary_dim(),
            tile_boundary_dim(),
        );
        testkit::check("gemm_microkernel_tile_boundaries", &shape, |&(m, k, n)| {
            let mut rng = shape_rng(0x711e, (m, k, n));
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let reference = a.matmul_naive(&b);
            let at = Matrix::uniform(k, m, 1.0, &mut rng);
            let t_reference = at.t_matmul_naive(&b);
            for threads in [1usize, 2, 8] {
                let (fast, t_fast) =
                    crate::par::with_threads(threads, || (a.matmul(&b), at.t_matmul(&b)));
                testkit::prop::holds(
                    fast == reference,
                    format!("microkernel matmul {m}x{k}x{n} @ {threads} threads"),
                )?;
                testkit::prop::holds(
                    t_fast == t_reference,
                    format!("microkernel t_matmul {m}x{k}x{n} @ {threads} threads"),
                )?;
            }
            Ok(())
        });
    }

    /// `k` values covering every residue class mod [`TILE_N`] — the SIMD
    /// kernel's lane width — on both sides of one and two full lane strips.
    fn lane_boundary_k() -> testkit::Gen<usize> {
        testkit::gen::choice((1..=2 * TILE_N).chain([31, 40]).collect())
    }

    #[test]
    fn simd_and_scalar_gemm_match_naive_bitwise_on_lane_boundary_shapes() {
        // The tentpole contract: with the AVX2 lane kernel dispatched (when
        // the host supports it) and with it forced off, every product is
        // bitwise equal to the naive triple loop, for every k % 8 residue
        // and at every worker count. On hosts without AVX2 both arms are
        // the scalar path and the sweep degenerates to the PR 5 property.
        let _simd = crate::simd::test_lock();
        let shape = testkit::gen::zip3(tile_boundary_dim(), lane_boundary_k(), tile_boundary_dim());
        testkit::check("gemm_simd_lane_boundaries", &shape, |&(m, k, n)| {
            let mut rng = shape_rng(0x51d0, (m, k, n));
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let reference = a.matmul_naive(&b);
            let at = Matrix::uniform(k, m, 1.0, &mut rng);
            let t_reference = at.t_matmul_naive(&b);
            for simd in [false, true] {
                for threads in [1usize, 2, 8] {
                    let (fast, t_fast) = crate::simd::with_simd(simd, || {
                        crate::par::with_threads(threads, || (a.matmul(&b), at.t_matmul(&b)))
                    });
                    testkit::prop::holds(
                        fast == reference,
                        format!("matmul {m}x{k}x{n} @ {threads} threads, simd={simd}"),
                    )?;
                    testkit::prop::holds(
                        t_fast == t_reference,
                        format!("t_matmul {m}x{k}x{n} @ {threads} threads, simd={simd}"),
                    )?;
                }
            }
            Ok(())
        });
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(16, 8, &mut rng);
        let limit = (6.0 / 24.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit + 1e-6));
        // Not all entries identical.
        assert!(m.as_slice().iter().any(|&v| v != m[(0, 0)]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_access_and_set() {
        let mut m = Matrix::zeros(2, 2);
        m.set_row(1, &[5.0, 6.0]);
        assert_eq!(m.row(1), &[5.0, 6.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn into_kernels_reuse_buffers_and_match_allocating_paths() {
        testkit::check("gemm_into_vs_allocating", &gemm_shape(), |&(m, k, n)| {
            let mut rng = shape_rng(0x17_70, (m, k, n));
            // Warm capacity with stale contents: `_into` must fully overwrite.
            let mut out = Matrix::filled(200, 200, 7.5);
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            a.matmul_into(&b, &mut out);
            testkit::prop::holds(out == a.matmul_naive(&b), "matmul_into != naive")?;

            let at = Matrix::uniform(k, m, 1.0, &mut rng);
            at.t_matmul_into(&b, &mut out);
            testkit::prop::holds(out == at.t_matmul_naive(&b), "t_matmul_into != naive")
        });
    }

    #[test]
    fn resize_and_copy_from() {
        let mut m = Matrix::filled(3, 3, 2.0);
        m.resize_zeroed(2, 5);
        assert_eq!((m.rows(), m.cols()), (2, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.copy_from(&src);
        assert_eq!(m, src);
    }

    #[test]
    fn map_is_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = a.map(f32::abs);
        assert_eq!(b.row(0), &[1.0, 2.0]);
    }
}
