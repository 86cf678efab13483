//! Row-major `f32` matrix with the handful of operations the network
//! needs. Dot products are written as plain slice loops with fixed-width
//! inner bodies so LLVM can auto-vectorize them.
//!
//! The matmul kernels are blocked into `ROW_BLOCK`-row bands with the
//! ReLU clamp fused into the store (a const-generic flag, so the unfused
//! instantiation carries no branch); each band cell is one [`dot`] plus
//! bias. The bands run on the deterministic `lpa-par` pool when the
//! product is big enough to amortize thread spawning — single-band and
//! one-thread products skip the pool's task bookkeeping entirely. Every
//! output cell is an independent `dot(...) + bias` — no cross-thread or
//! cross-row accumulation — so the result is bit-identical for any
//! `LPA_THREADS` value, any blocking factor, and identical to the
//! unblocked serial loop (see [`crate::reference`] for the oracle and
//! DESIGN.md §12 for the summation-order doctrine).
//!
//! Register blocking (four batch rows per weight-row stream, a `dot4`
//! kernel) and per-row output-unit banding were both built and measured
//! during development: on the target (single core, SSE baseline and
//! `target-cpu=native` alike) every 4-way variant ran 0.4–0.7x of the
//! plain 8-lane [`dot`], which LLVM already auto-vectorizes cleanly —
//! the multi-slice forms defeat bounds-check elision and vectorize
//! across the wrong dimension — and unit banding only added loop
//! overhead once the quad kernel was gone. See EXPERIMENTS.md; the band
//! kernel therefore stays per-cell.
//!
//! Callers on the hot path resolve the ambient pool once (per train step
//! or committee tick) and pass it down; [`route_pool`] then only compares
//! the work size against [`PAR_MIN_FLOPS`] — no per-matmul environment
//! lookup.

use lpa_par::Pool;
use std::cell::Cell;

/// Dense row-major matrix. `Default` is the empty 0×0 matrix — the
/// unwarmed state of scratch buffers.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Build from row slices.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols);
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
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

    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data.get(r * self.cols + c).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        if let Some(slot) = self.data.get_mut(r * self.cols + c) {
            *slot = v;
        }
    }

    /// Reshape in place, reusing the allocation. Existing contents are
    /// unspecified afterwards — only for destinations whose every cell is
    /// overwritten (matmul outputs).
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape in place and zero-fill, reusing the allocation — for
    /// destinations that accumulate (gradients) or that encoders fill
    /// sparsely, where the old `Matrix::zeros` contents are part of the
    /// contract.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }
}

/// Rows of `x` processed per parallel task in the matmul kernels. Part of
/// the blocked loop structure, not the determinism contract — every output
/// cell is computed independently, so any block size gives the same bits.
pub const ROW_BLOCK: usize = 16;

/// Fused multiply-adds below which spawning threads costs more than the
/// matmul itself; smaller products run inline on the calling thread.
const PAR_MIN_FLOPS: usize = 1 << 21;

/// Route between the caller's ambient pool and inline serial execution by
/// work size (fused multiply-adds). Result bits do not depend on the
/// choice. Callers resolve `Pool::current()` once per train step or
/// committee tick and pass it through this — the routing itself never
/// touches the environment.
pub fn route_pool(ambient: Pool, work: usize) -> Pool {
    if work >= PAR_MIN_FLOPS {
        ambient
    } else {
        Pool::with_threads(1)
    }
}

/// The pool sized for `work` fused ops, resolving the ambient pool
/// lazily — kept for entry points without a hoisted pool (the compat
/// wrappers); hot paths use [`route_pool`] with a caller-resolved pool.
pub(crate) fn pool_for(work: usize) -> Pool {
    if work >= PAR_MIN_FLOPS {
        Pool::current()
    } else {
        Pool::with_threads(1)
    }
}

thread_local! {
    /// Scoped switch forcing the serial naive kernels (unblocked triple
    /// loop, unfused ReLU) instead of the blocked/fused fast path.
    static FORCE_NAIVE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every matmul in this thread forced onto the naive serial
/// path (unblocked triple loop, ReLU as a separate pass). The differential
/// harness runs whole training loops under both paths and compares trained
/// weights down to the bits; the fast kernels keep the naive path's
/// per-cell summation order, so the comparison must be exact.
pub fn with_naive_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_NAIVE.with(|c| c.set(self.0));
        }
    }
    let prev = FORCE_NAIVE.with(|c| c.replace(true));
    let _reset = Reset(prev);
    f()
}

/// Whether [`with_naive_kernels`] is active on this thread.
pub fn naive_kernels_forced() -> bool {
    FORCE_NAIVE.with(Cell::get)
}

/// `out[b] = x[b] · w[o] + bias` for every batch row and output unit:
/// `x` is batch×in, `w` is out×in (each row one unit's weights), the result
/// is batch×out. Writing the inner loop over the shared `in` dimension
/// keeps both operands sequential in memory.
///
/// Compat entry point that resolves the pool itself; hot paths use
/// [`matmul_wt_pool`] with a caller-hoisted pool.
pub fn matmul_wt(x: &Matrix, w: &Matrix, bias: &[f32], out: &mut Matrix) {
    let pool = pool_for(x.rows() * w.rows() * w.cols().max(1));
    matmul_driver(pool, x, w, bias, out, false);
}

/// [`matmul_wt`] with an explicit ambient pool (routed against the work
/// size by [`route_pool`] internally).
pub fn matmul_wt_pool(ambient: Pool, x: &Matrix, w: &Matrix, bias: &[f32], out: &mut Matrix) {
    let pool = route_pool(ambient, x.rows() * w.rows() * w.cols().max(1));
    matmul_driver(pool, x, w, bias, out, false);
}

/// [`matmul_wt_pool`] with ReLU fused into the store: `out = max(0, x·wᵀ +
/// b)` cell-wise. Bit-identical to the unfused matmul followed by
/// [`relu_inplace`] — the clamp compares the exact same `dot + bias` value
/// the unfused path would have stored (`-0.0` and NaN behave identically:
/// neither satisfies `v < 0.0`, so both pass through unchanged).
pub fn matmul_wt_relu_pool(ambient: Pool, x: &Matrix, w: &Matrix, bias: &[f32], out: &mut Matrix) {
    let pool = route_pool(ambient, x.rows() * w.rows() * w.cols().max(1));
    matmul_driver(pool, x, w, bias, out, true);
}

/// Shared driver: `ROW_BLOCK`-row bands over the pool, each band through
/// [`matmul_band`]. Under [`with_naive_kernels`] it degrades to the serial
/// unblocked triple loop (plus a separate ReLU pass when fused was asked
/// for) — the oracle the fast path is differentially tested against.
fn matmul_driver(pool: Pool, x: &Matrix, w: &Matrix, bias: &[f32], out: &mut Matrix, relu: bool) {
    assert_eq!(x.cols(), w.cols(), "inner dimensions");
    assert_eq!(w.rows(), bias.len());
    assert_eq!(out.rows(), x.rows());
    assert_eq!(out.cols(), w.rows());
    let out_cols = out.cols();
    if out_cols == 0 || out.rows() == 0 {
        return;
    }
    if naive_kernels_forced() {
        for b in 0..x.rows() {
            for (o, &bo) in bias.iter().enumerate() {
                out.set(b, o, dot(x.row(b), w.row(o)) + bo);
            }
        }
        if relu {
            relu_inplace(out);
        }
        return;
    }
    let band_len = ROW_BLOCK * out_cols;
    if pool.threads() == 1 || out.rows() <= ROW_BLOCK {
        // Serial fast path: same band walk in band order, without the
        // pool's per-call task bookkeeping — most hot-path matmuls are a
        // single band (replay minibatches, coalesced inference batches).
        for (band, band_data) in out.data_mut().chunks_mut(band_len).enumerate() {
            if relu {
                matmul_band::<true>(x, w, bias, band * ROW_BLOCK, band_data, out_cols);
            } else {
                matmul_band::<false>(x, w, bias, band * ROW_BLOCK, band_data, out_cols);
            }
        }
        return;
    }
    pool.par_chunks_mut(out.data_mut(), band_len, |band, band_data| {
        if relu {
            matmul_band::<true>(x, w, bias, band * ROW_BLOCK, band_data, out_cols);
        } else {
            matmul_band::<false>(x, w, bias, band * ROW_BLOCK, band_data, out_cols);
        }
    });
}

/// One `ROW_BLOCK`-row band of the output: per row, store `dot + bias`
/// for every output unit, with the ReLU clamp fused into the store when
/// `RELU` (a compile-time flag, so the unfused instantiation carries no
/// branch at all). Every cell's bits are identical to the naive triple
/// loop, and the fused clamp compares the exact value the unfused path
/// would have stored.
fn matmul_band<const RELU: bool>(
    x: &Matrix,
    w: &Matrix,
    bias: &[f32],
    b0: usize,
    band_data: &mut [f32],
    out_cols: usize,
) {
    let rows = band_data.len() / out_cols;
    // Output units outer, band rows inner: the band's slice of `x` (at
    // most `ROW_BLOCK` rows) stays L1-resident while each weight row is
    // streamed exactly once per band instead of once per x-row. The
    // interchange only reorders whole-cell computations — each cell is
    // still one `dot + bias` — so the bits cannot move.
    for (o, &bo) in bias.iter().enumerate() {
        let wr = w.row(o);
        for bi in 0..rows {
            let y = dot(x.row(b0 + bi), wr) + bo;
            // Checked store (L001/L009: library code stays panic-free);
            // one predictable branch amortized over a whole dot product.
            if let Some(slot) = band_data.get_mut(bi * out_cols + o) {
                *slot = if RELU && y < 0.0 { 0.0 } else { y };
            }
        }
    }
}

/// Dot product with eight independent accumulators so LLVM can vectorize
/// and pipeline despite floating-point non-associativity.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let ai = &a[i * 8..i * 8 + 8];
        let bi = &b[i * 8..i * 8 + 8];
        for k in 0..8 {
            acc[k] += ai[k] * bi[k];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..a.len() {
        tail += a[i] * b[i];
    }
    acc.iter().sum::<f32>() + tail
}

/// ReLU in place; a mask of active units is not needed — backward uses the
/// activation values themselves.
pub fn relu_inplace(m: &mut Matrix) {
    for v in m.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{naive_matmul_wt, naive_matmul_wt_relu};

    #[test]
    fn matmul_against_hand_computed() {
        // x = [[1,2],[3,4]], w = [[1,0],[0,1],[1,1]], bias = [0.5, 0, -1]
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let w = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let bias = [0.5, 0.0, -1.0];
        let mut out = Matrix::zeros(2, 3);
        matmul_wt(&x, &w, &bias, &mut out);
        assert_eq!(out.row(0), &[1.5, 2.0, 2.0]);
        assert_eq!(out.row(1), &[3.5, 4.0, 6.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        relu_inplace(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn resize_reuses_and_zeroes_as_specified() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.resize_zeroed(3, 2);
        assert_eq!(m.rows(), 3);
        assert!(m.data().iter().all(|v| *v == 0.0));
        let mut n = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        n.resize_for_overwrite(1, 4);
        assert_eq!((n.rows(), n.cols()), (1, 4));
        assert_eq!(n.data().len(), 4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let x = Matrix::zeros(1, 3);
        let w = Matrix::zeros(2, 2);
        let mut out = Matrix::zeros(1, 2);
        matmul_wt(&x, &w, &[0.0, 0.0], &mut out);
    }

    fn random_matrix(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Matrix {
        use rand::Rng;
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-2.0f64..2.0) as f32)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matmul_equals_naive_triple_loop_on_random_shapes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Shapes straddling the block sizes, including edge rows/cols that
        // are not multiples of ROW_BLOCK or the 8-lane dot split, and
        // degenerate dims.
        let shapes = [
            (1, 1, 1),
            (3, 2, 5),
            (ROW_BLOCK, 7, 64),
            (ROW_BLOCK + 1, 9, 65),
            (2 * ROW_BLOCK + 5, 33, 63),
            (47, 13, 131),
            (1, 40, 3),
            (63, 1, 17),
            (5, 8, 2),
            (3, 17, 64),
        ];
        for (case, &(rows, inner, units)) in shapes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xB10C + case as u64);
            let x = random_matrix(&mut rng, rows, inner);
            let w = random_matrix(&mut rng, units, inner);
            let bias: Vec<f32> = (0..units)
                .map(|_| rng.gen_range(-1.0f64..1.0) as f32)
                .collect();
            let expect = naive_matmul_wt(&x, &w, &bias);
            let mut got = Matrix::zeros(rows, units);
            matmul_wt(&x, &w, &bias, &mut got);
            assert_eq!(got, expect, "shape {rows}x{inner}x{units}");
            let expect_relu = naive_matmul_wt_relu(&x, &w, &bias);
            let mut got_relu = Matrix::zeros(rows, units);
            matmul_wt_relu_pool(Pool::with_threads(1), &x, &w, &bias, &mut got_relu);
            assert_eq!(got_relu, expect_relu, "relu shape {rows}x{inner}x{units}");
        }
    }

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Big enough to cross PAR_MIN_FLOPS so the pool actually engages.
        let mut rng = StdRng::seed_from_u64(77);
        let x = random_matrix(&mut rng, 160, 128);
        let w = random_matrix(&mut rng, 128, 128);
        let bias = vec![0.125f32; 128];
        let run = |threads: usize| {
            lpa_par::with_threads(threads, || {
                let mut out = Matrix::zeros(x.rows(), w.rows());
                matmul_wt(&x, &w, &bias, &mut out);
                out
            })
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn dot_handles_empty_and_odd_length_slices() {
        use crate::reference::naive_dot;
        assert_eq!(dot(&[], &[]), 0.0);
        // Lengths around the 8-lane unrolling boundary; the shared oracle
        // spells out the lane structure (8 accumulators then tail) by hand.
        for len in [1usize, 3, 7, 8, 9, 15, 17] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.3).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos()).collect();
            assert_eq!(dot(&a, &b), naive_dot(&a, &b), "len={len}");
        }
    }

    #[test]
    fn fused_relu_matches_unfused_including_negative_zero() {
        // A weight row that produces -0.0 (0 * -1 summed with -0.0 stays
        // -0.0) must survive the fused clamp exactly like the unfused one:
        // -0.0 < 0.0 is false, so both keep the sign bit.
        let x = Matrix::from_vec(1, 2, vec![0.0, -0.0]);
        let w = Matrix::from_vec(2, 2, vec![-1.0, 0.5, 1.0, 1.0]);
        let bias = [0.0f32, -0.0];
        let mut fused = Matrix::zeros(1, 2);
        matmul_wt_relu_pool(Pool::with_threads(1), &x, &w, &bias, &mut fused);
        let mut unfused = Matrix::zeros(1, 2);
        matmul_wt(&x, &w, &bias, &mut unfused);
        relu_inplace(&mut unfused);
        for (f, u) in fused.data().iter().zip(unfused.data()) {
            assert_eq!(f.to_bits(), u.to_bits());
        }
    }

    #[test]
    fn route_pool_keeps_small_work_serial() {
        // Below the threshold the ambient pool must be ignored even when it
        // is wide; above it the ambient pool passes through.
        lpa_par::with_threads(8, || {
            let ambient = Pool::current();
            assert_eq!(route_pool(ambient, 0).threads(), 1);
            assert_eq!(route_pool(ambient, 1 << 20).threads(), 1);
            assert_eq!(route_pool(ambient, 1 << 21).threads(), 8);
        });
    }

    #[test]
    fn naive_kernel_scope_forces_and_restores() {
        assert!(!naive_kernels_forced());
        let x = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.25, 4.0, -1.0]);
        let w = Matrix::from_vec(2, 3, vec![0.5, 1.0, -1.0, 2.0, 0.0, 1.0]);
        let bias = [0.1f32, -0.2];
        let mut fast = Matrix::zeros(2, 2);
        matmul_wt(&x, &w, &bias, &mut fast);
        let naive = with_naive_kernels(|| {
            assert!(naive_kernels_forced());
            let mut out = Matrix::zeros(2, 2);
            matmul_wt(&x, &w, &bias, &mut out);
            out
        });
        assert!(!naive_kernels_forced());
        assert_eq!(fast, naive);
    }
}
