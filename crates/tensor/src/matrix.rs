//! Row-major `f32` matrix and the kernels GNN layers are made of.
//!
//! Shapes are validated eagerly with panics in debug-style constructors and
//! `Result`-returning variants where the caller may feed untrusted data.
//! The segment kernels (`segment_sum` and friends) are the vectorised form of
//! the paper's Gather stage: `index[i]` assigns edge-row `i` to its
//! destination node, exactly like the `dst_index` of Fig. 3.

use inferturbo_common::par::{par_chunks_mut, par_map, Parallelism};
use inferturbo_common::{Error, Result};

/// Rows per parallel task in the GEMM/segment kernels. Fixed (never derived
/// from the thread budget) so that chunk boundaries — and therefore any
/// conceivable accumulation grouping — are identical for every
/// `Parallelism` setting.
const ROW_BLOCK: usize = 64;

/// Inner k-blocking of the dense GEMM: keeps a `KC x n` panel of the
/// right-hand matrix hot in L1/L2 while a row block streams over it.
const KC: usize = 256;

/// Minimum number of f32 elements in the output (or input, for reductions)
/// before a kernel bothers spawning threads.
const PAR_MIN_ELEMS: usize = 1 << 14;

/// Minimum `rows × cols` input work before the segment kernels take the
/// parallel-over-segments path. Much higher than [`PAR_MIN_ELEMS`]: the
/// grouped path pays a counting sort over the rows *and* trades the serial
/// sweep's streaming reads for random row gathers (~2.5× the per-element
/// cost), so breakeven against a handful of real cores sits in the
/// low-millions of elements regardless of host. Below the cutoff the
/// serial loop wins (or ties) even with a full thread budget; above it
/// the grouped path is bit-identical, so the cutoff only moves work
/// between equivalent paths.
const PAR_SEG_MIN_ELEMS: usize = 1 << 22;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a flat row-major vector. Panics on size mismatch — this is
    /// the constructor used with compile-time-known shapes in tests/layers.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: {} elements for {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Fallible variant of [`Matrix::from_vec`] for untrusted input.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::ShapeMismatch(format!(
                "{} elements for {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Single-row matrix from a slice.
    pub fn row_vector(v: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
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

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — the workhorse GEMM.
    ///
    /// Cache-blocked and parallel: row blocks of the output run as
    /// independent fork-join tasks under the global [`Parallelism`] budget,
    /// and within a block the kernel walks `other` in `KC`-row panels so a
    /// panel stays hot in cache while the whole block streams over it.
    /// Dense rows take a branch-free inner loop (the old per-element
    /// `a == 0.0` skip mispredicts badly on dense inputs); rows that are at
    /// least 7/8 zero — ReLU activations, one-hot features — keep the
    /// skipping loop. Every output element accumulates over `k` in
    /// ascending order regardless of blocking, sparsity path, or thread
    /// count, so results match the serial kernel exactly for finite inputs
    /// (up to `+0.0` vs `-0.0` signs, which compare equal). Caveat: where
    /// the old kernel skipped *every* zero, the dense path now computes
    /// `0.0 * b`, so a non-finite `b` entry (`inf`/`NaN`) opposite a zero
    /// yields `NaN` instead of being masked — only layers that have
    /// already overflowed can observe this.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        if n == 0 || self.rows == 0 || self.cols == 0 {
            return out;
        }
        let k_total = self.cols;
        let a = &self.data;
        let b = &other.data;
        // Small outputs run as one inline chunk — thread spawn would cost
        // more than the compute. The chunk size depends only on the data
        // shape, never the thread budget, so results stay identical.
        let chunk_rows = if self.rows * n < PAR_MIN_ELEMS {
            self.rows
        } else {
            ROW_BLOCK
        };
        par_chunks_mut(&mut out.data, chunk_rows * n, |bi, out_block| {
            let row0 = bi * chunk_rows;
            let rows_here = out_block.len() / n;
            let a_block = &a[row0 * k_total..(row0 + rows_here) * k_total];
            matmul_row_block(a_block, k_total, b, n, out_block);
        });
        out
    }

    /// `self^T @ other` without materialising the transpose
    /// (needed by GEMM backward).
    ///
    /// Parallel over blocks of *output* rows (= columns of `self`); each
    /// task replays the full `r` sweep for its column range, so per-element
    /// accumulation order is the serial one and results are exact.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        if n == 0 || self.cols == 0 || self.rows == 0 {
            return out;
        }
        let k = self.cols;
        let a = &self.data;
        let b = &other.data;
        // Output rows = model widths (often small); a finer block than the
        // GEMM's keeps a few tasks available for mid-sized layers. Small
        // outputs run as one inline chunk (see matmul).
        const TN_BLOCK: usize = 16;
        let chunk_rows = if self.cols * n < PAR_MIN_ELEMS {
            self.cols
        } else {
            TN_BLOCK
        };
        par_chunks_mut(&mut out.data, chunk_rows * n, |bi, out_block| {
            let i0 = bi * chunk_rows;
            let i_cnt = out_block.len() / n;
            for r in 0..self.rows {
                let a_row = &a[r * k..(r + 1) * k];
                let b_row = &b[r * n..(r + 1) * n];
                for ii in 0..i_cnt {
                    let av = a_row[i0 + ii];
                    if av == 0.0 {
                        continue;
                    }
                    let out_row = &mut out_block[ii * n..(ii + 1) * n];
                    for j in 0..n {
                        out_row[j] += av * b_row[j];
                    }
                }
            }
        });
        out
    }

    /// `self @ other^T` without materialising the transpose
    /// (the other half of GEMM backward). Each output element is an
    /// independent dot product, so row blocks parallelise exactly.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        let n = other.rows;
        if n == 0 || self.rows == 0 {
            return out;
        }
        let k = self.cols;
        let a = &self.data;
        let b = &other.data;
        // Small outputs run as one inline chunk (see matmul).
        let chunk_rows = if self.rows * n < PAR_MIN_ELEMS {
            self.rows
        } else {
            ROW_BLOCK
        };
        par_chunks_mut(&mut out.data, chunk_rows * n, |bi, out_block| {
            let row0 = bi * chunk_rows;
            let rows_here = out_block.len() / n;
            for ii in 0..rows_here {
                let a_row = &a[(row0 + ii) * k..(row0 + ii + 1) * k];
                let out_row = &mut out_block[ii * n..(ii + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a_row[kk] * b_row[kk];
                    }
                    *o = acc;
                }
            }
        });
        out
    }

    /// Materialised transpose (rarely needed; the `_tn`/`_nt` GEMM variants
    /// cover the hot paths).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Add a `1 x cols` bias row to every row.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width");
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            for (x, b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols rows");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Row gather: `out[i] = self[idx[i]]` — the vectorised edge lookup.
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &src) in idx.iter().enumerate() {
            let src = src as usize;
            assert!(
                src < self.rows,
                "gather_rows: index {src} out of {}",
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Segment sum: `out[seg[i]] += self[i]`, `out` has `n_segments` rows.
    /// This is the vectorised commutative/associative Gather of the paper.
    ///
    /// Large inputs run the parallel-over-segments variant: rows are
    /// grouped by segment with a counting sort, contiguous segment ranges
    /// are handed to fork-join tasks, and each segment accumulates its rows
    /// in ascending input order — the exact order of the serial loop, so
    /// results are bit-identical for every thread count.
    pub fn segment_sum(&self, seg: &[u32], n_segments: usize) -> Matrix {
        assert_eq!(seg.len(), self.rows, "segment_sum index length");
        if self.use_serial_segments(n_segments) {
            let mut out = Matrix::zeros(n_segments, self.cols);
            for (i, &s) in seg.iter().enumerate() {
                let s = s as usize;
                assert!(
                    s < n_segments,
                    "segment_sum: segment {s} out of {n_segments}"
                );
                let row = self.row(i);
                let out_row = &mut out.data[s * self.cols..(s + 1) * self.cols];
                for (o, x) in out_row.iter_mut().zip(row) {
                    *o += x;
                }
            }
            return out;
        }
        for &s in seg {
            assert!(
                (s as usize) < n_segments,
                "segment_sum: segment {s} out of {n_segments}"
            );
        }
        let mut out = Matrix::zeros(n_segments, self.cols);
        let cols = self.cols;
        with_segment_groups(seg, n_segments, |order, offsets| {
            let tasks = split_rows_by_segments(&mut out.data, offsets, cols);
            par_map(tasks, |_, (lo, hi, out_slice)| {
                for s in lo..hi {
                    let out_row = &mut out_slice[(s - lo) * cols..(s - lo + 1) * cols];
                    for &i in &order[offsets[s] as usize..offsets[s + 1] as usize] {
                        let row = self.row(i as usize);
                        for (o, x) in out_row.iter_mut().zip(row) {
                            *o += x;
                        }
                    }
                }
            });
        });
        out
    }

    /// True when the input is too small (or the budget too low) for the
    /// grouped parallel segment kernels to pay for their counting sort and
    /// random row gathers (see [`PAR_SEG_MIN_ELEMS`]).
    fn use_serial_segments(&self, n_segments: usize) -> bool {
        Parallelism::get() <= 1
            || n_segments < 2
            || self.rows * self.cols.max(1) < PAR_SEG_MIN_ELEMS
    }

    /// Segment mean; empty segments yield zero rows.
    pub fn segment_mean(&self, seg: &[u32], n_segments: usize) -> Matrix {
        let mut out = self.segment_sum(seg, n_segments);
        let counts = segment_counts(seg, n_segments);
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 {
                let inv = 1.0 / c as f32;
                for x in out.row_mut(s) {
                    *x *= inv;
                }
            }
        }
        out
    }

    /// Segment max; empty segments yield zero rows (matching the paper's
    /// behaviour of emitting a zero aggregate for isolated nodes). Also
    /// returns the winning input-row index per (segment, column) for
    /// backward.
    ///
    /// Parallelises over segment ranges like [`Matrix::segment_sum`]; each
    /// segment scans its rows in ascending input order, so the winner (and
    /// the first-strict-max tie-breaking) matches the serial kernel
    /// exactly.
    pub fn segment_max(&self, seg: &[u32], n_segments: usize) -> (Matrix, Vec<u32>) {
        assert_eq!(seg.len(), self.rows, "segment_max index length");
        if self.use_serial_segments(n_segments) {
            let mut out = Matrix::full(n_segments, self.cols, f32::NEG_INFINITY);
            let mut argmax = vec![u32::MAX; n_segments * self.cols];
            for (i, &s) in seg.iter().enumerate() {
                let s = s as usize;
                assert!(s < n_segments);
                let row = self.row(i);
                for (c, &x) in row.iter().enumerate() {
                    let o = &mut out.data[s * self.cols + c];
                    if x > *o {
                        *o = x;
                        argmax[s * self.cols + c] = i as u32;
                    }
                }
            }
            // Empty segments: replace -inf with 0.
            for v in &mut out.data {
                if *v == f32::NEG_INFINITY {
                    *v = 0.0;
                }
            }
            return (out, argmax);
        }
        for &s in seg {
            assert!((s as usize) < n_segments);
        }
        let mut out = Matrix::full(n_segments, self.cols, f32::NEG_INFINITY);
        let mut argmax = vec![u32::MAX; n_segments * self.cols];
        let cols = self.cols;
        with_segment_groups(seg, n_segments, |order, offsets| {
            let ranges = balanced_segment_ranges(offsets, Parallelism::get());
            // Hand each task its disjoint (out, argmax) row range.
            let mut tasks = Vec::with_capacity(ranges.len());
            let mut out_rest: &mut [f32] = &mut out.data;
            let mut arg_rest: &mut [u32] = &mut argmax;
            for (lo, hi) in ranges {
                let (out_head, out_tail) = out_rest.split_at_mut((hi - lo) * cols);
                let (arg_head, arg_tail) = arg_rest.split_at_mut((hi - lo) * cols);
                tasks.push((lo, hi, out_head, arg_head));
                out_rest = out_tail;
                arg_rest = arg_tail;
            }
            par_map(tasks, |_, (lo, hi, out_slice, arg_slice)| {
                for s in lo..hi {
                    let base = (s - lo) * cols;
                    for &i in &order[offsets[s] as usize..offsets[s + 1] as usize] {
                        let row = self.row(i as usize);
                        for (c, &x) in row.iter().enumerate() {
                            let o = &mut out_slice[base + c];
                            if x > *o {
                                *o = x;
                                arg_slice[base + c] = i;
                            }
                        }
                    }
                    for v in &mut out_slice[base..base + cols] {
                        if *v == f32::NEG_INFINITY {
                            *v = 0.0;
                        }
                    }
                }
            });
        });
        (out, argmax)
    }

    /// Per-segment softmax along rows: for every segment `s` and column `c`,
    /// `out[i][c] = exp(x[i][c]) / Σ_{j: seg[j]=s} exp(x[j][c])`.
    /// This is GAT's attention normalisation over each node's in-edges.
    pub fn segment_softmax(&self, seg: &[u32], n_segments: usize) -> Matrix {
        assert_eq!(seg.len(), self.rows, "segment_softmax index length");
        // max per (segment, col) for numerical stability
        let mut seg_max = vec![f32::NEG_INFINITY; n_segments * self.cols];
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            for (c, &x) in self.row(i).iter().enumerate() {
                let m = &mut seg_max[s * self.cols + c];
                if x > *m {
                    *m = x;
                }
            }
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut seg_sum = vec![0.0f32; n_segments * self.cols];
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            for (c, &x) in self.row(i).iter().enumerate() {
                let e = (x - seg_max[s * self.cols + c]).exp();
                out.data[i * self.cols + c] = e;
                seg_sum[s * self.cols + c] += e;
            }
        }
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            for c in 0..self.cols {
                let denom = seg_sum[s * self.cols + c];
                if denom > 0.0 {
                    out.data[i * self.cols + c] /= denom;
                }
            }
        }
        out
    }

    /// Frobenius-norm squared (used by gradient-clipping and tests).
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Row-wise argmax — prediction extraction for single-label tasks.
    pub fn argmax_rows(&self) -> Vec<u32> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                for (c, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = c;
                    }
                }
                best as u32
            })
            .collect()
    }
}

/// Number of rows assigned to each segment.
pub fn segment_counts(seg: &[u32], n_segments: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n_segments];
    for &s in seg {
        counts[s as usize] += 1;
    }
    counts
}

/// One GEMM row block: `out_block += a_block @ b`.
///
/// Rows are classified once: a row that is at least 7/8 zeros keeps the
/// old skipping loop (exact, since skipped terms contribute `+0.0`); dense
/// rows go through the `KC`-panel blocked loop with a branch-free inner
/// kernel. Accumulation over `k` is ascending on both paths.
fn matmul_row_block(a_block: &[f32], k_total: usize, b: &[f32], n: usize, out_block: &mut [f32]) {
    let rows = out_block.len() / n;
    let max_nonzero = k_total / 8;
    let mut dense_rows: Vec<usize> = Vec::with_capacity(rows);
    for i in 0..rows {
        let a_row = &a_block[i * k_total..(i + 1) * k_total];
        // Early-exit probe: stop as soon as the row cannot be 7/8 zero.
        let mut nonzero = 0usize;
        for &x in a_row {
            if x != 0.0 {
                nonzero += 1;
                if nonzero > max_nonzero {
                    break;
                }
            }
        }
        if nonzero > max_nonzero {
            dense_rows.push(i);
        } else {
            let out_row = &mut out_block[i * n..(i + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for j in 0..n {
                    out_row[j] += av * b_row[j];
                }
            }
        }
    }
    for kb in (0..k_total).step_by(KC) {
        let k_hi = (kb + KC).min(k_total);
        for &i in &dense_rows {
            let a_row = &a_block[i * k_total..(i + 1) * k_total];
            let out_row = &mut out_block[i * n..(i + 1) * n];
            for kk in kb..k_hi {
                let av = a_row[kk];
                let b_row = &b[kk * n..(kk + 1) * n];
                for j in 0..n {
                    out_row[j] += av * b_row[j];
                }
            }
        }
    }
}

std::thread_local! {
    /// Grouping scratch reused across segment-kernel calls: the counting
    /// sort's `(order, offsets)` buffers are the kernels' only per-call
    /// allocations besides the output, and the hot engines call these
    /// kernels every layer of every run.
    static SEG_SCRATCH: std::cell::RefCell<(Vec<u32>, Vec<u32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Counting-sort grouping of rows by segment, run against the thread-local
/// scratch: `order[offsets[s]..offsets[s+1]]` lists the input rows of
/// segment `s` in ascending input order — the same order the serial
/// accumulation loop visits them. `f` runs while the scratch borrow is
/// held; the kernels' fork-join tasks only *read* the grouping, so sharing
/// the borrow across the scope is sound.
fn with_segment_groups<R>(
    seg: &[u32],
    n_segments: usize,
    f: impl FnOnce(&[u32], &[u32]) -> R,
) -> R {
    SEG_SCRATCH.with(|cell| {
        let (order, offsets) = &mut *cell.borrow_mut();
        inferturbo_common::group::group_by_key_into(seg, n_segments, order, offsets);
        f(order, offsets)
    })
}

/// `acc[i] += alpha * x[i]`, 8-wide unrolled. The accumulate kernel of the
/// fused scatter-aggregation path (sum/mean pooling): lanes are
/// independent, so the unroll vectorises without a reduction dependency
/// and the result is bit-identical to the scalar loop.
#[inline]
pub fn row_axpy(acc: &mut [f32], x: &[f32], alpha: f32) {
    assert_eq!(acc.len(), x.len(), "row_axpy length mismatch");
    let n8 = acc.len() & !7;
    let (a_main, a_tail) = acc.split_at_mut(n8);
    let (x_main, x_tail) = x.split_at(n8);
    for (ac, xc) in a_main.chunks_exact_mut(8).zip(x_main.chunks_exact(8)) {
        for i in 0..8 {
            ac[i] += alpha * xc[i];
        }
    }
    for (a, &b) in a_tail.iter_mut().zip(x_tail) {
        *a += alpha * b;
    }
}

/// Bit pattern of `-0.0f32`.
const NEG_ZERO: u32 = 0x8000_0000;

/// `out[j] += Σᵢ (alpha·x[i])·w[i][j]` for one row `x`; `w` is
/// `[len(x), len(out)]`. The per-vertex dense transform of the inference
/// path, register-blocked over output lanes.
///
/// Defined, bit for bit, by the scalar loop it replaced: for `i`
/// ascending, `v = alpha·x[i]`, and when `v != 0.0` every lane takes
/// `out[j] += v·w[i][j]` (`scalar_matvec_acc` in this file's tests is that
/// loop; the kernel is held to it over every shape up to 70×70). That
/// loop re-loaded and re-stored all of `out` once per input lane and took
/// a zero-skip branch that mispredicts on every ReLU output. Here a block
/// of output lanes — 32, then 16 / 8 / 4 / 1 for what is left, so a 64→4
/// head and odd widths take the same function — stays in registers
/// across the whole input loop and is written back once; per lane the
/// sequence of additions is unchanged. Measured per call (ns, best of
/// nine rounds over 4096 different rows, one core of the 2.1 GHz build
/// host, baseline x86-64 so SSE2; the scalar loop's zero-skip is what
/// loses the half-zero row):
///
/// | `w`                      | scalar | blocked |
/// |--------------------------|-------:|--------:|
/// | 64×64, half the `x` zero |    520 |     270 |
/// | 64×64, dense             |    410 |     245 |
/// | 16×64, dense             |    105 |      67 |
/// | 64×4 (the head), dense   |    170 |      40 |
///
/// The blocked loop does not skip zero lanes: it adds their `±0.0`
/// products, which leaves every accumulator as it was except one that is
/// exactly `-0.0` (`-0.0 + +0.0 = +0.0`). An accumulator is `-0.0` only
/// while nothing but `-0.0` has reached a lane that started there, so the
/// one case is checked when `out` brings a `-0.0` in and the sign is put
/// back. (Compacting the non-zero lanes first instead cost ~100 ns per 64
/// lanes, a per-lane skip inside the block more than the scalar loop.)
/// `w` is taken to be finite: a zero lane times a non-finite weight is
/// NaN, which the scalar loop's skip never formed.
///
/// `alpha` is the aggregate's scale applied as the lane is read (mean
/// pooling's `1/count`): `(alpha·x)·w` rounds exactly as scaling `x`
/// first did, and `1.0` is the identity.
pub fn row_matvec_acc(w: &Matrix, x: &[f32], alpha: f32, out: &mut [f32]) {
    assert_eq!(w.rows, x.len(), "matvec fan-in");
    assert_eq!(w.cols, out.len(), "matvec fan-out");
    if out.is_empty() {
        return;
    }
    let neg_zero_in = out
        .iter()
        .fold(false, |any, o| any | (o.to_bits() == NEG_ZERO));
    let neg_zero_lanes: Vec<usize> = if neg_zero_in {
        (0..out.len())
            .filter(|&j| out[j].to_bits() == NEG_ZERO)
            .collect()
    } else {
        Vec::new()
    };

    let j = matvec_blocks::<32>(w, x, alpha, out, 0);
    let j = matvec_blocks::<16>(w, x, alpha, out, j);
    let j = matvec_blocks::<8>(w, x, alpha, out, j);
    let j = matvec_blocks::<4>(w, x, alpha, out, j);
    matvec_blocks::<1>(w, x, alpha, out, j);

    for j in neg_zero_lanes {
        let only_neg_zeros = || {
            x.iter().zip(w.data.chunks_exact(w.cols)).all(|(&xi, row)| {
                let v = alpha * xi;
                v == 0.0 || (v * row[j]).to_bits() == NEG_ZERO
            })
        };
        if out[j].to_bits() == 0 && only_neg_zeros() {
            out[j] = -0.0;
        }
    }
}

/// Output lanes `from..` of [`row_matvec_acc`] in blocks of `B`, as many
/// as fit; returns the first lane not covered.
#[inline(always)]
fn matvec_blocks<const B: usize>(
    w: &Matrix,
    x: &[f32],
    alpha: f32,
    out: &mut [f32],
    from: usize,
) -> usize {
    let mut j = from;
    while j + B <= out.len() {
        let mut acc = [0.0f32; B];
        acc.copy_from_slice(&out[j..j + B]);
        for (&xi, row) in x.iter().zip(w.data.chunks_exact(w.cols)) {
            let v = alpha * xi;
            for (a, &wv) in acc.iter_mut().zip(&row[j..j + B]) {
                *a += v * wv;
            }
        }
        out[j..j + B].copy_from_slice(&acc);
        j += B;
    }
    j
}

/// `acc[i] = max(acc[i], x[i])`, 8-wide unrolled, keeping `acc` on ties
/// and on NaN inputs (`x[i] > acc[i]` comparison) — the exact semantics of
/// the serial pooled max fold, so fused max aggregation stays bit-identical
/// to the materialized path.
#[inline]
pub fn row_max(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "row_max length mismatch");
    let n8 = acc.len() & !7;
    let (a_main, a_tail) = acc.split_at_mut(n8);
    let (x_main, x_tail) = x.split_at(n8);
    for (ac, xc) in a_main.chunks_exact_mut(8).zip(x_main.chunks_exact(8)) {
        for i in 0..8 {
            if xc[i] > ac[i] {
                ac[i] = xc[i];
            }
        }
    }
    for (a, &b) in a_tail.iter_mut().zip(x_tail) {
        if b > *a {
            *a = b;
        }
    }
}

/// Carve a segment-major output buffer into one disjoint `&mut` slice per
/// balanced segment range (see [`balanced_segment_ranges`]).
fn split_rows_by_segments<'a>(
    data: &'a mut [f32],
    offsets: &[u32],
    cols: usize,
) -> Vec<(usize, usize, &'a mut [f32])> {
    let ranges = balanced_segment_ranges(offsets, Parallelism::get());
    let mut tasks = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for (lo, hi) in ranges {
        let (head, tail) = rest.split_at_mut((hi - lo) * cols);
        tasks.push((lo, hi, head));
        rest = tail;
    }
    tasks
}

/// Split `0..n_segments` into up to `tasks` contiguous ranges of roughly
/// equal *row* (edge) weight, using the grouped offsets. Boundaries only
/// affect scheduling: every segment is reduced wholly inside one task, so
/// results are independent of the split.
fn balanced_segment_ranges(offsets: &[u32], tasks: usize) -> Vec<(usize, usize)> {
    let n_segments = offsets.len() - 1;
    let total = offsets[n_segments] as usize;
    let per_task = total.div_ceil(tasks.max(1)).max(1);
    let mut ranges = Vec::with_capacity(tasks);
    let mut lo = 0usize;
    while lo < n_segments {
        let target = (offsets[lo] as usize + per_task) as u32;
        let mut hi = lo + 1;
        while hi < n_segments && offsets[hi] < target {
            hi += 1;
        }
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_common::Xoshiro256;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).data(), a.data());
        assert_eq!(i.matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let got = a.matmul_tn(&b);
        let want = a.transpose().matmul(&b);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let got = a.matmul_nt(&b);
        let want = a.matmul(&b.transpose());
        assert_eq!(got.data(), want.data());
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn try_from_vec_rejects_bad_len() {
        assert!(Matrix::try_from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::try_from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn bias_broadcast() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = Matrix::row_vector(&[10., 20.]);
        assert_eq!(a.add_row_broadcast(&b).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 1, &[9., 8.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1., 2., 9., 3., 4., 8.]);
    }

    #[test]
    fn gather_rows_basic() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn segment_sum_and_counts() {
        let a = m(4, 2, &[1., 1., 2., 2., 3., 3., 4., 4.]);
        let seg = [0u32, 1, 0, 1];
        let s = a.segment_sum(&seg, 3);
        assert_eq!(s.data(), &[4., 4., 6., 6., 0., 0.]);
        assert_eq!(segment_counts(&seg, 3), vec![2, 2, 0]);
    }

    #[test]
    fn segment_mean_handles_empty_segment() {
        let a = m(2, 1, &[4., 8.]);
        let seg = [1u32, 1];
        let s = a.segment_mean(&seg, 2);
        assert_eq!(s.data(), &[0., 6.]);
    }

    #[test]
    fn segment_max_with_argmax() {
        let a = m(3, 2, &[1., 9., 5., 2., 3., 4.]);
        let seg = [0u32, 0, 1];
        let (mx, arg) = a.segment_max(&seg, 2);
        assert_eq!(mx.data(), &[5., 9., 3., 4.]);
        assert_eq!(arg, vec![1, 0, 2, 2]);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let a = m(4, 1, &[0.1, 2.0, -1.0, 0.5]);
        let seg = [0u32, 0, 0, 1];
        let sm = a.segment_softmax(&seg, 2);
        let s0: f32 = (0..3).map(|i| sm.get(i, 0)).sum();
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((sm.get(3, 0) - 1.0).abs() < 1e-6);
        // Larger logits get larger probabilities.
        assert!(sm.get(1, 0) > sm.get(0, 0));
        assert!(sm.get(0, 0) > sm.get(2, 0));
    }

    #[test]
    fn segment_softmax_is_stable_for_large_logits() {
        let a = m(2, 1, &[1000.0, 1001.0]);
        let sm = a.segment_softmax(&[0, 0], 1);
        assert!(sm.data().iter().all(|x| x.is_finite()));
        assert!((sm.get(0, 0) + sm.get(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_basic() {
        let a = m(2, 3, &[1., 5., 2., 9., 0., 3.]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    /// Naive triple-loop reference GEMM, the pre-blocking semantics.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(i, k);
                for j in 0..b.cols() {
                    let v = out.get(i, j) + av * b.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    fn pseudo_random(rows: usize, cols: usize, salt: u32, zero_every: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(salt);
            if zero_every > 0 && (x as usize).is_multiple_of(zero_every) {
                0.0
            } else {
                ((x % 1000) as f32 - 500.0) / 250.0
            }
        })
    }

    #[test]
    fn blocked_matmul_matches_reference_beyond_block_sizes() {
        // Spans several ROW_BLOCK chunks and several KC panels, mixes dense
        // and mostly-zero rows so both inner paths run.
        let mut a = pseudo_random(150, 300, 1, 3);
        for r in (0..150).step_by(7) {
            // make row mostly zero: keep every 16th entry
            for c in 0..300 {
                if c % 16 != 0 {
                    a.set(r, c, 0.0);
                }
            }
        }
        let b = pseudo_random(300, 70, 2, 0);
        let got = a.matmul(&b);
        let want = matmul_reference(&a, &b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!((x - y).abs() <= 1e-5 * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_gemm_bit_identical_across_thread_counts() {
        // Outputs exceed PAR_MIN_ELEMS so the parallel chunking engages.
        let a = pseudo_random(300, 140, 3, 5);
        let b = pseudo_random(140, 130, 4, 0);
        let c = pseudo_random(300, 130, 5, 6);
        let d = pseudo_random(70, 140, 6, 0);
        let serial = Parallelism::with(1, || (a.matmul(&b), a.matmul_tn(&c), a.matmul_nt(&d)));
        let parallel = Parallelism::with(4, || (a.matmul(&b), a.matmul_tn(&c), a.matmul_nt(&d)));
        assert_eq!(serial.0.data(), parallel.0.data());
        assert_eq!(serial.1.data(), parallel.1.data());
        assert_eq!(serial.2.data(), parallel.2.data());
    }

    #[test]
    fn parallel_segment_kernels_bit_identical() {
        // Big enough to clear PAR_SEG_MIN_ELEMS so the grouped path engages.
        let e = 530_000usize;
        let n = 180usize;
        let msgs = pseudo_random(e, 8, 9, 4);
        let seg: Vec<u32> = (0..e)
            .map(|i| (i as u32).wrapping_mul(2246822519) % n as u32)
            .collect();
        let serial = Parallelism::with(1, || {
            (
                msgs.segment_sum(&seg, n),
                msgs.segment_mean(&seg, n),
                msgs.segment_max(&seg, n),
            )
        });
        let parallel = Parallelism::with(4, || {
            (
                msgs.segment_sum(&seg, n),
                msgs.segment_mean(&seg, n),
                msgs.segment_max(&seg, n),
            )
        });
        assert_eq!(serial.0.data(), parallel.0.data());
        assert_eq!(serial.1.data(), parallel.1.data());
        assert_eq!(serial.2 .0.data(), parallel.2 .0.data());
        assert_eq!(serial.2 .1, parallel.2 .1);
    }

    #[test]
    fn grouped_segment_max_handles_empty_segments() {
        // Force the grouped path with a large input where one segment in
        // three stays empty; empty rows must come back zeroed.
        let e = 1_100_000usize;
        let n = 90usize;
        let msgs = Matrix::full(e, 4, 1.5);
        let seg: Vec<u32> = (0..e).map(|i| ((i % 30) * 3) as u32).collect();
        let (mx, _) = Parallelism::with(4, || msgs.segment_max(&seg, n));
        for s in 0..n {
            let want = if s % 3 == 0 { 1.5 } else { 0.0 };
            assert_eq!(mx.get(s, 0), want, "segment {s}");
        }
    }

    #[test]
    fn small_segment_inputs_stay_on_the_serial_path() {
        // Below the work cutoff the grouped path must not engage even with
        // a generous thread budget — and results are identical anyway.
        let msgs = pseudo_random(5000, 8, 11, 3);
        let seg: Vec<u32> = (0..5000).map(|i| (i % 97) as u32).collect();
        let serial = Parallelism::with(1, || msgs.segment_sum(&seg, 97));
        let budget = Parallelism::with(8, || msgs.segment_sum(&seg, 97));
        assert_eq!(serial.data(), budget.data());
    }

    #[test]
    fn row_axpy_matches_scalar_and_handles_tails() {
        for len in [0usize, 1, 7, 8, 9, 16, 37] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin()).collect();
            let mut acc: Vec<f32> = (0..len).map(|i| (i as f32 * 1.3).cos()).collect();
            let mut want = acc.clone();
            for (a, &b) in want.iter_mut().zip(&x) {
                *a += 2.5 * b;
            }
            row_axpy(&mut acc, &x, 2.5);
            assert_eq!(acc, want, "len {len}");
        }
    }

    /// The definition [`row_matvec_acc`] is held to: the loop it replaced.
    fn scalar_matvec_acc(w: &Matrix, x: &[f32], alpha: f32, out: &mut [f32]) {
        for (i, &xi) in x.iter().enumerate() {
            let v = alpha * xi;
            if v == 0.0 {
                continue;
            }
            for (o, &wv) in out.iter_mut().zip(w.row(i)) {
                *o += v * wv;
            }
        }
    }

    /// Exact zeros of both signs, subnormals, unit scale and 1e±30, so
    /// zero lanes, `-0.0` accumulators, underflowing products and rounding
    /// at every magnitude all occur (and no sum overflows: 70 · 1e30 · 1
    /// is finite, the weights stay at unit scale or below).
    fn awkward(rng: &mut Xoshiro256, wide: bool) -> f32 {
        let unit = rng.next_f32() * 2.0 - 1.0;
        match rng.below(if wide { 8 } else { 6 }) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(rng.below(1 << 23) as u32 | (rng.below(2) as u32) << 31),
            3 => unit * 1e-30,
            6 | 7 => unit * 1e30,
            _ => unit,
        }
    }

    #[test]
    fn blocked_matvec_is_the_scalar_loop_bit_for_bit() {
        let mut rng = Xoshiro256::seed_from_u64(0x24);
        let mut neg_zero_kept = 0;
        for rows in 0..=70usize {
            for cols in 0..=70usize {
                let w = Matrix::from_fn(rows, cols, |_, _| awkward(&mut rng, false));
                let x: Vec<f32> = (0..rows).map(|_| awkward(&mut rng, true)).collect();
                let bias: Vec<f32> = (0..cols).map(|_| awkward(&mut rng, false)).collect();
                let alpha = [1.0, 1.0 / 3.0, 1e-30][(rows + cols) % 3];
                let (mut got, mut want) = (bias.clone(), bias);
                row_matvec_acc(&w, &x, alpha, &mut got);
                scalar_matvec_acc(&w, &x, alpha, &mut want);
                assert!(want.iter().all(|v| v.is_finite()), "{rows}x{cols}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols} alpha {alpha}");
                neg_zero_kept += want.iter().filter(|v| v.to_bits() == NEG_ZERO).count();
            }
        }
        // The one case the blocked loop has to put back did occur.
        assert!(neg_zero_kept > 100, "{neg_zero_kept} lanes ended at -0.0");
    }

    #[test]
    fn a_negative_zero_lane_keeps_its_sign_past_zero_inputs() {
        // -0.0 + (0.0 · w) is +0.0; the scalar loop skipped the lane.
        let w = m(2, 2, &[1.0, 1.0, -1e-30, 1e-30]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = vec![-0.0f32, -0.0];
        row_matvec_acc(&w, &[0.0, 0.0], 1.0, &mut out);
        assert_eq!(bits(&out), [NEG_ZERO; 2]);
        // A non-zero lane whose product underflows is not skipped: its
        // -0.0 keeps the sign, its +0.0 flips it — in both loops.
        let mut out = vec![-0.0f32, -0.0];
        row_matvec_acc(&w, &[0.0, 1e-30], 1.0, &mut out);
        assert_eq!(bits(&out), [NEG_ZERO, 0]);
    }

    #[test]
    #[should_panic(expected = "matvec fan-in")]
    fn matvec_rejects_a_short_input_row() {
        row_matvec_acc(&Matrix::zeros(3, 2), &[1.0, 2.0], 1.0, &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "matvec fan-out")]
    fn matvec_rejects_a_short_output_row() {
        row_matvec_acc(&Matrix::zeros(3, 2), &[1.0, 2.0, 3.0], 1.0, &mut [0.0; 1]);
    }

    #[test]
    fn row_max_keeps_acc_on_ties_and_nan() {
        let mut acc = vec![1.0, 5.0, 2.0, 2.0, -1.0, 0.0, 3.0, 4.0, 9.0];
        let x = vec![2.0, 1.0, 2.0, f32::NAN, 0.0, -0.0, 3.5, 4.0, 10.0];
        row_max(&mut acc, &x);
        assert_eq!(acc, vec![2.0, 5.0, 2.0, 2.0, 0.0, 0.0, 3.5, 4.0, 10.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[1., 1., 1.]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3., 4., 5.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.5, 2., 2.5]);
    }
}
