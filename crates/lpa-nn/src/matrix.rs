//! Row-major `f32` matrix with the handful of operations the network
//! needs, and the two forward kernels.
//!
//! Every output cell is `dot(x_row, w_row) + bias`, where `dot` is the
//! frozen per-cell flop sequence [`crate::reference::naive_dot`] spells
//! out: eight lanes over the 8-wide chunks, a sequential tail, the lanes
//! folded left to right, then the tail (DESIGN.md §12). The kernels change
//! how many cells advance together and where the weights sit, never the
//! flops inside a cell, so their bits equal the naive serial triple loop
//! for any `LPA_THREADS` value and any blocking factor.
//!
//! [`matmul_wt_pool`] (and its ReLU-fused twin) is the dense kernel. It
//! reads a layer's weights as [`Panels`] — in×[`PANEL`] slices, one per
//! block of 16 output units (one unit wide for a one-unit layer) — and
//! computes a row's 16 cells of a block at once: the nine accumulators of
//! each cell become nine `[f32; 16]` arrays, which stay in vector
//! registers across the whole input, and one input's term for all 16
//! cells is one contiguous load. Bands of `ROW_BLOCK` rows run on the
//! deterministic `lpa-par` pool when the product is big enough to amortize
//! thread spawning. Blocking across *rows* lost (a `dot4` kernel, four
//! batch rows per weight row, measured 0.4–0.7x of the per-cell `dot`);
//! blocking across *units* in the transposed layout wins: the 128 → 64
//! layer over half-zero rows, one thread, `target-cpu=native` on an
//! AVX-512 Xeon, went from 619–729 to 298–351 ns a row. It skips nothing:
//! a ReLU layer hands on about half zeros, and branching on them in the
//! same kernel read 1 252–1 295 ns a row. See EXPERIMENTS.md.
//!
//! The first layer has its own kernel, [`matmul_shared_prefix`]: rows
//! that share a state prefix share the per-lane partial sums of that
//! prefix, and exact-zero inputs are skipped — the same flops per cell in
//! the same order, so still the same bits for finite weights (DESIGN.md
//! §12).
//!
//! Callers on the hot path resolve the ambient pool once (per train step
//! or committee tick) and pass it down; [`route_pool`] then only compares
//! the work size against [`PAR_MIN_FLOPS`] — no per-matmul environment
//! lookup.

use lpa_par::Pool;

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
    #[expect(clippy::indexing_slicing, reason = "rows is asserted non-empty")]
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

    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: r < rows and data holds rows * cols values"
    )]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: r < rows and data holds rows * cols values"
    )]
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

/// Output units per panel: [`matmul_wt_pool`] computes this many cells of
/// a row at once, each with its own nine accumulators. A one-unit layer
/// (the scalar head) packs into panels one unit wide instead — sixteen
/// wide, fifteen of its cells would be padding.
pub const PANEL: usize = 16;

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

/// A dense layer's out×in weights packed for [`matmul_wt_pool`]: one
/// in×`width` panel per block of `width` output units, in block order,
/// where `width` is [`PANEL`] (1 for a one-unit layer). Row `j` of a panel
/// holds input `j`'s weights for the block's units, so one input's term
/// for all of them is one contiguous load; the last block is zero-padded.
/// Derived state: packed from the weights, never serialised. `Default` is
/// the packing of a 0×0 matrix.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Panels {
    units: usize,
    in_dim: usize,
    width: usize,
    data: Vec<f32>,
}

impl Panels {
    pub fn new(w: &Matrix) -> Self {
        let mut panels = Self::default();
        panels.pack(w);
        panels
    }

    /// Repack from the out×in weights `w`, reusing the allocation.
    pub(crate) fn pack(&mut self, w: &Matrix) {
        let (units, in_dim) = (w.rows(), w.cols());
        let width = if units == 1 { 1 } else { PANEL };
        self.units = units;
        self.in_dim = in_dim;
        self.width = width;
        self.data.clear();
        self.data
            .resize(units.div_ceil(width) * in_dim * width, 0.0);
        if in_dim == 0 {
            return;
        }
        for (u, wrow) in w.data().chunks_exact(in_dim).enumerate() {
            self.put_row(u, wrow);
        }
    }

    /// Store unit `u`'s weights `wrow` (one out×in row) in its panel:
    /// sequential reads, writes strided by one panel row.
    pub(crate) fn put_row(&mut self, u: usize, wrow: &[f32]) {
        let (width, panel_len) = (self.width, self.in_dim * self.width);
        let panel = u / width * panel_len;
        let Some(panel) = self.data.get_mut(panel..panel + panel_len) else {
            return;
        };
        for (prow, &v) in panel.chunks_exact_mut(width).zip(wrow) {
            if let Some(slot) = prow.get_mut(u % width) {
                *slot = v;
            }
        }
    }

    pub(crate) fn units(&self) -> usize {
        self.units
    }

    pub(crate) fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The packed values, padding included — for elementwise updates that
    /// commute with packing (a soft update maps the zero padding to zero).
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }
}

/// `out[b] = x[b] · w[o] + bias` for every batch row and output unit: `x`
/// is batch×in, `w` the packed out×in weights, the result batch×out.
/// `ambient` is the caller's hoisted pool, routed against the work size by
/// [`route_pool`]. [`crate::reference::naive_matmul_wt`] is the oracle.
pub fn matmul_wt_pool(ambient: Pool, x: &Matrix, w: &Panels, bias: &[f32], out: &mut Matrix) {
    let pool = route_pool(ambient, x.rows() * w.units() * w.in_dim().max(1));
    matmul_driver::<false>(pool, x, w, bias, out);
}

/// [`matmul_wt_pool`] with ReLU fused into the store: `out = max(0, x·wᵀ +
/// b)` cell-wise. Bit-identical to the unfused matmul followed by
/// [`relu_inplace`] — the clamp compares the exact same `dot + bias` value
/// the unfused path would have stored (`-0.0` and NaN behave identically:
/// neither satisfies `v < 0.0`, so both pass through unchanged).
pub fn matmul_wt_relu_pool(ambient: Pool, x: &Matrix, w: &Panels, bias: &[f32], out: &mut Matrix) {
    let pool = route_pool(ambient, x.rows() * w.units() * w.in_dim().max(1));
    matmul_driver::<true>(pool, x, w, bias, out);
}

/// Shared driver: `ROW_BLOCK`-row bands over the pool (a one-thread pool
/// walks them in order on the calling thread), each through
/// [`panel_band`].
fn matmul_driver<const RELU: bool>(
    pool: Pool,
    x: &Matrix,
    w: &Panels,
    bias: &[f32],
    out: &mut Matrix,
) {
    assert_eq!(x.cols(), w.in_dim(), "inner dimensions");
    assert_eq!(w.units(), bias.len());
    assert_eq!((out.rows(), out.cols()), (x.rows(), w.units()));
    let units = w.units();
    if units == 0 || x.rows() == 0 {
        return;
    }
    pool.par_chunks_mut(out.data_mut(), ROW_BLOCK * units, |band, band_data| {
        let b0 = band * ROW_BLOCK;
        if w.width == 1 {
            panel_band::<RELU, 1>(x, w, bias, b0, band_data);
        } else {
            panel_band::<RELU, PANEL>(x, w, bias, b0, band_data);
        }
    });
}

/// One `ROW_BLOCK`-row band of the output, panel by panel: the panel
/// (in×`W` weights, `W` the packing's width) stays in L1 while the band's
/// rows stream past it, and each row's `W` cells come out of
/// [`panel_dots`] plus bias, with the ReLU clamp fused into the store
/// when `RELU`.
fn panel_band<const RELU: bool, const W: usize>(
    x: &Matrix,
    w: &Panels,
    bias: &[f32],
    b0: usize,
    band_data: &mut [f32],
) {
    let (units, panel_len) = (w.units(), w.in_dim() * W);
    for (b, bias) in bias.chunks(W).enumerate() {
        // Empty for a zero-width input: every cell is then `+0.0 + bias`.
        let panel = w
            .data()
            .get(b * panel_len..(b + 1) * panel_len)
            .unwrap_or(&[]);
        let u0 = b * W;
        for (r, out_row) in band_data.chunks_exact_mut(units).enumerate() {
            let cells = panel_dots::<W>(x.row(b0 + r), panel);
            for ((o, &c), &b) in out_row.iter_mut().skip(u0).zip(&cells).zip(bias) {
                let y = c + b;
                *o = if RELU && y < 0.0 { 0.0 } else { y };
            }
        }
    }
}

/// `dot(x, w_u)` for the `W` units `u` of one panel, without the bias —
/// `dot`'s flops, `W` cells abreast. Lane `k` of every cell adds the
/// terms `j ≡ k (mod 8)` of the full 8-wide chunks in increasing `j`, from
/// `+0.0`; the tail adds the rest in increasing `j`; the cell is lanes
/// 0..7 folded left to right, then the tail.
///
/// The eight lanes and the tail are nine separate `[f32; W]` locals, not
/// one array of lanes: that way each is a value LLVM keeps in a vector
/// register for the whole row. Held in an array, the lanes stayed in
/// memory out of line, and LLVM vectorised across the chunk loop with
/// gathers and scatters (20x slower).
#[inline]
fn panel_dots<const W: usize>(x: &[f32], panel: &[f32]) -> [f32; W] {
    let zero = [0.0f32; W];
    let (mut l0, mut l1, mut l2, mut l3) = (zero, zero, zero, zero);
    let (mut l4, mut l5, mut l6, mut l7) = (zero, zero, zero, zero);
    let mut tail = zero;
    let (x8, x_tail) = x.as_chunks::<8>();
    let (rows, _) = panel.as_chunks::<W>();
    let (rows8, rows_tail) = rows.as_chunks::<8>();
    for ([x0, x1, x2, x3, x4, x5, x6, x7], [w0, w1, w2, w3, w4, w5, w6, w7]) in x8.iter().zip(rows8)
    {
        axpy_cells(&mut l0, *x0, w0);
        axpy_cells(&mut l1, *x1, w1);
        axpy_cells(&mut l2, *x2, w2);
        axpy_cells(&mut l3, *x3, w3);
        axpy_cells(&mut l4, *x4, w4);
        axpy_cells(&mut l5, *x5, w5);
        axpy_cells(&mut l6, *x6, w6);
        axpy_cells(&mut l7, *x7, w7);
    }
    for (&xj, wj) in x_tail.iter().zip(rows_tail) {
        axpy_cells(&mut tail, xj, wj);
    }
    // `dot` sums its lanes from `Sum`'s identity, not from lane 0; a lane
    // is never `-0.0` (DESIGN.md §12), so adding it to `±0.0` gives it back
    // bit for bit and starting from lane 0 is the same fold.
    for lane in [l1, l2, l3, l4, l5, l6, l7, tail] {
        for (s, l) in l0.iter_mut().zip(lane) {
            *s += l;
        }
    }
    l0
}

/// `acc[u] += x * w[u]`: one term of `W` cells.
#[inline(always)]
fn axpy_cells<const W: usize>(acc: &mut [f32; W], x: f32, w: &[f32; W]) {
    for (a, &wv) in acc.iter_mut().zip(w) {
        *a += x * wv;
    }
}

/// Accumulators per cell of `dot`: eight chunk lanes and the scalar tail.
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
    wt.resize_for_overwrite(w.cols(), w.rows());
    transpose_rows(w.data(), w.cols(), wt.data_mut());
}

/// Write into `t` the transpose of `m`, read as a row-major matrix of
/// `cols` columns; `t` is as long as `m`.
pub(crate) fn transpose_rows(m: &[f32], cols: usize, t: &mut [f32]) {
    let rows = m.len() / cols.max(1);
    if rows == 0 {
        return;
    }
    // Sequential writes, strided reads: the other way round the writes
    // stride by `rows` floats, a power of two for the usual widths, and
    // thrash a few cache sets (measured 3x slower at 128×139).
    for (j, trow) in t.chunks_exact_mut(rows).enumerate() {
        for (slot, &v) in trow.iter_mut().zip(m.iter().skip(j).step_by(cols)) {
            *slot = v;
        }
    }
}

/// `lane += x * w` across units — one term of every unit's `dot` at once.
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
#[expect(
    clippy::indexing_slicing,
    reason = "hot kernel: prefix <= cols and every lane slice lies in a buffer of units * lanes values"
)]
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
        matmul_wt_pool(Pool::with_threads(1), &x, &Panels::new(&w), &bias, &mut out);
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
        matmul_wt_pool(
            Pool::with_threads(1),
            &x,
            &Panels::new(&w),
            &[0.0, 0.0],
            &mut out,
        );
    }

    fn random_matrix(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Matrix {
        use rand::Rng;
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-2.0f64..2.0) as f32)
            .collect();
        Matrix::from_vec(rows, cols, data)
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
        let panels = Panels::new(&w);
        let run = |threads: usize| {
            let mut out = Matrix::zeros(x.rows(), w.rows());
            matmul_wt_pool(Pool::with_threads(threads), &x, &panels, &bias, &mut out);
            out
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    /// The panel kernel against the naive triple loop, by bits: unit
    /// counts below, at and across a panel, input widths below, at and
    /// past an 8-wide chunk, row counts around a band and across three,
    /// through the driver itself on one and on eight threads (so a batch
    /// of more than one band runs its bands on the pool whatever its
    /// size). Weights carry `±inf` and NaN and inputs carry zeros of both
    /// signs: the panel kernel skips nothing, so `0 · inf = NaN` and every
    /// NaN propagate exactly as in `dot`. Which NaN comes out is the one
    /// thing compared loosely: where two NaNs meet in an add, Rust leaves
    /// the result's sign and payload open and LLVM may commute the
    /// operands, so a NaN cell only has to be NaN.
    #[test]
    fn panel_kernel_equals_naive_matmul_by_bits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let bits = |m: &Matrix| {
            m.data()
                .iter()
                .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
                .collect::<Vec<_>>()
        };
        let mut case = 0u64;
        for units in [1usize, 8, 16, 17, 64, 128] {
            for in_dim in [1usize, 7, 8, 9, 139] {
                for rows in [0usize, 1, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5] {
                    for non_finite in [false, true] {
                        case += 1;
                        let mut rng = StdRng::seed_from_u64(0x9A4E + case);
                        let mut x = random_matrix(&mut rng, rows, in_dim);
                        for v in x.data_mut() {
                            match rng.gen_range(0..4) {
                                0 => *v = 0.0,
                                1 => *v = -0.0,
                                _ => {}
                            }
                        }
                        let mut w = random_matrix(&mut rng, units, in_dim);
                        if non_finite {
                            for v in w.data_mut() {
                                match rng.gen_range(0..40) {
                                    0 => *v = f32::INFINITY,
                                    1 => *v = f32::NEG_INFINITY,
                                    2 => *v = f32::NAN,
                                    _ => {}
                                }
                            }
                        }
                        let bias: Vec<f32> =
                            (0..units).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                        let panels = Panels::new(&w);
                        let expect = bits(&naive_matmul_wt(&x, &w, &bias));
                        let expect_relu = bits(&naive_matmul_wt_relu(&x, &w, &bias));
                        for threads in [1, 8] {
                            let pool = Pool::with_threads(threads);
                            let at = format!(
                                "{rows}x{in_dim} · {units}x{in_dim}, non-finite {non_finite}, \
                                 threads {threads}"
                            );
                            // Dirty outputs: every cell must be written.
                            let dirty = vec![f32::NAN; rows * units];
                            let mut got = Matrix::from_vec(rows, units, dirty.clone());
                            matmul_driver::<false>(pool, &x, &panels, &bias, &mut got);
                            assert_eq!(bits(&got), expect, "{at}");
                            let mut got = Matrix::from_vec(rows, units, dirty);
                            matmul_driver::<true>(pool, &x, &panels, &bias, &mut got);
                            assert_eq!(bits(&got), expect_relu, "relu {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn panels_pack_by_block_with_zero_padding() {
        // Three units of two inputs in panels of PANEL: one block, units
        // 3..PANEL zero.
        let w = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut p = Panels::new(&w);
        assert_eq!((p.units(), p.in_dim(), p.data().len()), (3, 2, 2 * PANEL));
        assert_eq!(&p.data()[..4], &[1.0, 3.0, 5.0, 0.0]);
        assert_eq!(&p.data()[PANEL..PANEL + 4], &[2.0, 4.0, 6.0, 0.0]);
        assert!(p.data()[3..PANEL].iter().all(|v| v.to_bits() == 0));
        // Repacking reuses the buffer and forgets the old shape.
        let wide = Matrix::from_vec(PANEL + 1, 1, (0..=PANEL).map(|v| v as f32).collect());
        p.pack(&wide);
        assert_eq!(p, Panels::new(&wide));
        assert_eq!(p.data().len(), 2 * PANEL);
        assert_eq!(p.data()[PANEL], PANEL as f32);
        // A one-unit layer is its own single panel, one unit wide.
        let head = Matrix::from_vec(1, 3, vec![7.0, 8.0, 9.0]);
        p.pack(&head);
        assert_eq!(p.data(), head.data());
        for (rows, cols) in [(0, 4), (4, 0), (0, 0)] {
            p.pack(&Matrix::zeros(rows, cols));
            assert_eq!((p.units(), p.in_dim()), (rows, cols));
            assert!(p.data().is_empty());
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
        let w = Panels::new(&w);
        let mut fused = Matrix::zeros(1, 2);
        matmul_wt_relu_pool(Pool::with_threads(1), &x, &w, &bias, &mut fused);
        let mut unfused = Matrix::zeros(1, 2);
        matmul_wt_pool(Pool::with_threads(1), &x, &w, &bias, &mut unfused);
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
}
