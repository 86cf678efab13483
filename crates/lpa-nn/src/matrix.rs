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
//! The first layer of an action-set batch has its own kernel,
//! [`matmul_shared_prefix`]: rows that share a state prefix share the
//! per-lane partial sums of that prefix, and exact-zero inputs are
//! skipped — the same flops per cell in the same order, so still the same
//! bits (DESIGN.md §12).
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
        // single band (replay minibatches, one state's action set).
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

/// Accumulators per cell in [`dot`]: eight chunk lanes and the scalar tail.
const LANES: usize = 9;

/// Row groups of a batch whose members agree on their first `prefix`
/// inputs — an action set scored at one state, encoded `state ‖ action`.
/// `ranges` are `(lo, hi)` row ranges that tile the batch in order (empty
/// ranges allowed); within a range every row's first `prefix` values must
/// equal the first row's bit for bit. [`matmul_shared_prefix`] checks the
/// tiling always and the prefixes in debug builds.
#[derive(Clone, Copy, Debug)]
pub struct RowGroups<'a> {
    pub prefix: usize,
    pub ranges: &'a [(usize, usize)],
}

/// Write the in×out transpose of the out×in weight matrix `w` into `wt`,
/// reusing its allocation — the layout [`matmul_shared_prefix`] streams,
/// where one input's weights for every unit are contiguous.
pub fn transpose_into(w: &Matrix, wt: &mut Matrix) {
    let (units, in_dim) = (w.rows(), w.cols());
    wt.resize_for_overwrite(in_dim, units);
    if units == 0 {
        return;
    }
    // Sequential writes, strided reads: the other way round the writes
    // stride by `units` floats, a power of two for the usual widths, and
    // thrash a few cache sets (measured 3x slower at 128×139).
    for (j, trow) in wt.data_mut().chunks_exact_mut(units).enumerate() {
        for (slot, &v) in trow.iter_mut().zip(w.data().iter().skip(j).step_by(in_dim)) {
            *slot = v;
        }
    }
}

/// `lane += x * w` across units — one term of every unit's [`dot`] at once.
#[inline]
fn axpy(lane: &mut [f32], x: f32, w: &[f32]) {
    for (l, &wv) in lane.iter_mut().zip(w) {
        *l += x * wv;
    }
}

/// `out[r] = x[r] · wᵀ + bias` (ReLU-clamped when `RELU`) for a batch whose
/// rows come in [`RowGroups`], from the transposed weights `wt` (in×out,
/// see [`transpose_into`]). Every cell equals `dot(x_row, w_row) + bias`
/// bit for bit, provided the weights are finite:
///
/// * `dot` puts term `j` in lane `j % 8` (or the tail past the last full
///   chunk) and adds a lane's terms in increasing `j`. The kernel keeps
///   that assignment and order, but holds each lane as a vector over units
///   so a term is one contiguous [`axpy`] — and a row's prefix terms come
///   before its other terms in every lane, so the nine lane vectors after
///   the prefix are computed once per group and copied per row.
/// * A term whose input is exactly `±0.0` is skipped. With a finite weight
///   that term is `±0.0`, and a lane starts at `+0.0` and can never become
///   `-0.0` (a sum is `-0.0` only when both operands are), so adding it
///   would not have changed the lane. A non-finite weight breaks this:
///   dense `0 · inf` is NaN, the skipped term is not.
///
/// `lanes` is scratch (grown on demand, contents irrelevant).
pub fn matmul_shared_prefix<const RELU: bool>(
    x: &Matrix,
    groups: RowGroups<'_>,
    wt: &Matrix,
    bias: &[f32],
    lanes: &mut Vec<f32>,
    out: &mut Matrix,
) {
    let (in_dim, units) = (wt.rows(), wt.cols());
    let prefix = groups.prefix;
    assert_eq!(x.cols(), in_dim, "inner dimensions");
    assert_eq!(units, bias.len());
    assert_eq!((out.rows(), out.cols()), (x.rows(), units));
    assert!(prefix <= in_dim, "prefix longer than a row");
    let mut next = 0;
    for &(lo, hi) in groups.ranges {
        assert!(lo == next && lo <= hi, "groups must tile the rows in order");
        next = hi;
    }
    assert_eq!(next, x.rows(), "groups must tile the rows in order");
    if units == 0 {
        return;
    }
    // No clearing: `shared` is zeroed per group, `own` lanes are written
    // before they are read.
    lanes.resize(2 * LANES * units, 0.0);
    let (shared, own) = lanes.split_at_mut(LANES * units);
    let chunked = in_dim / 8 * 8;
    let lane_of = |j: usize| if j < chunked { j % 8 } else { 8 };
    let wt_rows = |from: usize| wt.data()[from * units..].chunks_exact(units);
    for &(lo, hi) in groups.ranges {
        if lo == hi {
            continue;
        }
        shared.fill(0.0);
        let head = &x.row(lo)[..prefix];
        for (j, (&xj, wrow)) in head.iter().zip(wt_rows(0)).enumerate() {
            if xj != 0.0 {
                let k = lane_of(j);
                axpy(&mut shared[k * units..(k + 1) * units], xj, wrow);
            }
        }
        for r in lo..hi {
            let row = x.row(r);
            debug_assert!(
                row[..prefix]
                    .iter()
                    .zip(head)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "row {r} does not share its group's prefix"
            );
            // A lane the row adds to is first copied out of the group's
            // (bit `k` of `copied`); the others are read in place.
            let mut copied = 0u16;
            for (j, (&xj, wrow)) in (prefix..).zip(row[prefix..].iter().zip(wt_rows(prefix))) {
                if xj == 0.0 {
                    continue;
                }
                let k = lane_of(j);
                let lane = &mut own[k * units..(k + 1) * units];
                if copied & (1 << k) == 0 {
                    copied |= 1 << k;
                    lane.copy_from_slice(&shared[k * units..(k + 1) * units]);
                }
                axpy(lane, xj, wrow);
            }
            let l: [&[f32]; LANES] = std::array::from_fn(|k| {
                let from = if copied & (1 << k) == 0 {
                    &*shared
                } else {
                    &*own
                };
                &from[k * units..(k + 1) * units]
            });
            // Lanes 0..8 left to right, then the tail, then the bias:
            // `dot`'s reduction, across units.
            for (u, (o, &b)) in out.row_mut(r).iter_mut().zip(bias).enumerate() {
                let y = l[1..].iter().fold(l[0][u], |sum, lane| sum + lane[u]) + b;
                *o = if RELU && y < 0.0 { 0.0 } else { y };
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

    /// `dot`-by-definition reference for the grouped kernel: every cell one
    /// `naive_dot + bias`, clamped when `relu`.
    fn expect_bits(x: &Matrix, w: &Matrix, bias: &[f32], relu: bool) -> Vec<u32> {
        use crate::reference::naive_dot;
        let mut bits = Vec::with_capacity(x.rows() * w.rows());
        for r in 0..x.rows() {
            for (o, &b) in bias.iter().enumerate() {
                let y = naive_dot(x.row(r), w.row(o)) + b;
                bits.push(if relu && y < 0.0 { 0.0 } else { y }.to_bits());
            }
        }
        bits
    }

    fn shared_prefix_bits(
        x: &Matrix,
        groups: RowGroups<'_>,
        w: &Matrix,
        bias: &[f32],
        relu: bool,
    ) -> Vec<u32> {
        let mut wt = Matrix::default();
        transpose_into(w, &mut wt);
        // Dirty scratch and output: neither may leak into the result.
        let mut lanes = vec![f32::NAN; 7];
        let mut out = Matrix::from_vec(x.rows(), w.rows(), vec![f32::NAN; x.rows() * w.rows()]);
        if relu {
            matmul_shared_prefix::<true>(x, groups, &wt, bias, &mut lanes, &mut out);
        } else {
            matmul_shared_prefix::<false>(x, groups, &wt, bias, &mut lanes, &mut out);
        }
        out.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn transpose_round_trips_and_survives_degenerate_shapes() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut wt = Matrix::from_vec(1, 1, vec![9.0]);
        transpose_into(&w, &mut wt);
        assert_eq!(
            wt,
            Matrix::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0])
        );
        let mut back = Matrix::default();
        transpose_into(&wt, &mut back);
        assert_eq!(back, w);
        for (rows, cols) in [(0, 4), (4, 0), (0, 0)] {
            transpose_into(&Matrix::zeros(rows, cols), &mut wt);
            assert_eq!((wt.rows(), wt.cols()), (cols, rows));
        }
    }

    #[test]
    fn shared_prefix_kernel_equals_dot_plus_bias_by_bits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Group layouts: one group, single-row groups, empty groups at the
        // edges and in the middle, uneven sizes.
        let layouts: [&[usize]; 5] = [&[6], &[1, 1, 1], &[0, 4, 0, 0, 3, 0], &[1, 7, 2], &[]];
        // Input fill: one-hot-like (mostly exact zeros), no zero at all,
        // and zeros of both signs.
        #[derive(Clone, Copy, Debug)]
        enum Fill {
            Sparse,
            Dense,
            SignedZeros,
        }
        let fills = [Fill::Sparse, Fill::Dense, Fill::SignedZeros];
        // Weight scale: ordinary, subnormal, and large enough for the
        // lanes to overflow.
        let scales = [1.0f32, 1e-41, 1e38];
        let mut case = 0u64;
        for in_dim in [1usize, 7, 8, 9, 56, 139] {
            for units in [1usize, 16, 128] {
                // 5: inside the first chunk; 8: on a chunk boundary; 38:
                // straddling one; 97: the TPC-CH state width; `in_dim`: no
                // suffix at all (and, for 9 and 139, reaching the tail).
                for prefix in [0usize, 5, 8, 38, 97, in_dim] {
                    if prefix > in_dim {
                        continue;
                    }
                    for layout in layouts {
                        // 5 layouts against 3 fills and 3 scales: every
                        // pairing comes up as `case` runs on.
                        case += 1;
                        let mut rng = StdRng::seed_from_u64(0x6A0 + case);
                        let fill = fills[(case % 3) as usize];
                        let scale = scales[(case / 3 % 3) as usize];
                        let rows: usize = layout.iter().sum();
                        let mut x = Matrix::zeros(rows, in_dim);
                        for v in x.data_mut() {
                            *v = match fill {
                                Fill::Dense => rng.gen_range(0.25f32..2.0),
                                Fill::Sparse if rng.gen_range(0..4) > 0 => 0.0,
                                Fill::SignedZeros if rng.gen_range(0..2) > 0 => {
                                    if rng.gen() {
                                        -0.0
                                    } else {
                                        0.0
                                    }
                                }
                                _ => rng.gen_range(-2.0f32..2.0),
                            };
                        }
                        let mut ranges = Vec::new();
                        let mut lo = 0;
                        for &len in layout {
                            ranges.push((lo, lo + len));
                            for r in lo + 1..lo + len {
                                let head = x.row(lo)[..prefix].to_vec();
                                x.row_mut(r)[..prefix].copy_from_slice(&head);
                            }
                            lo += len;
                        }
                        let mut w = random_matrix(&mut rng, units, in_dim);
                        for v in w.data_mut() {
                            *v *= scale;
                        }
                        let bias: Vec<f32> =
                            (0..units).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                        let groups = RowGroups {
                            prefix,
                            ranges: &ranges,
                        };
                        for relu in [false, true] {
                            assert_eq!(
                                shared_prefix_bits(&x, groups, &w, &bias, relu),
                                expect_bits(&x, &w, &bias, relu),
                                "in {in_dim} units {units} prefix {prefix} layout {layout:?} \
                                 {fill:?} scale {scale} relu {relu}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The doctrine's precondition, pinned: with a non-finite weight the
    /// dense cell is `0 · inf = NaN`, the zero-skipping cell is not.
    #[test]
    fn non_finite_weight_is_where_zero_skipping_departs_from_dense() {
        let x = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let w = Matrix::from_vec(1, 2, vec![f32::INFINITY, 2.0]);
        let groups = RowGroups {
            prefix: 1,
            ranges: &[(0, 1)],
        };
        assert!(f32::from_bits(expect_bits(&x, &w, &[0.5], false)[0]).is_nan());
        assert_eq!(
            shared_prefix_bits(&x, groups, &w, &[0.5], false),
            [2.5f32.to_bits()]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not share its group's prefix")]
    fn a_row_that_breaks_its_groups_prefix_is_caught() {
        // Row 1 differs from the head only in the sign of a zero — equal
        // as floats, unequal as bits.
        let x = Matrix::from_vec(2, 3, vec![0.0, 1.0, 5.0, -0.0, 1.0, 6.0]);
        let w = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let groups = RowGroups {
            prefix: 2,
            ranges: &[(0, 2)],
        };
        shared_prefix_bits(&x, groups, &w, &[0.0], false);
    }

    #[test]
    #[should_panic(expected = "groups must tile the rows in order")]
    fn groups_that_skip_a_row_are_rejected() {
        let x = Matrix::zeros(3, 2);
        let w = Matrix::zeros(1, 2);
        let groups = RowGroups {
            prefix: 0,
            ranges: &[(0, 1), (2, 3)],
        };
        shared_prefix_bits(&x, groups, &w, &[0.0], false);
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
