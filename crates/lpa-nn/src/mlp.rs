//! The multi-layer perceptron: ReLU hidden layers, linear output, MSE
//! training, target-network soft updates.
//!
//! The hot entry points (`*_into` / `*_with`) take the caller's ambient
//! [`Pool`] (resolved once per train step) and an [`MlpScratch`] so a
//! training loop performs no per-call allocations: forward activations,
//! deltas and gradients all live in reusable buffers. The legacy
//! allocating API (`forward`, `predict_batch`, `train_mse`, …) wraps the
//! same kernels. Both paths produce bit-identical results — the scratch
//! reuse and the fused matmul+ReLU forward keep the naive path's per-cell
//! summation order exactly (DESIGN.md §12).
//!
//! Every forward runs the first layer through [`matmul_shared_prefix`]
//! (an ungrouped batch is one group with an empty prefix) and every later
//! layer through the panel kernel [`matmul_wt_pool`]. The first reads its
//! weights in×out, the layout the network keeps that layer in; the panel
//! kernel reads packed panels, which the network keeps beside the
//! out×in weights of every later layer.

use crate::adam::Adam;
use crate::dense::{soft_update, Dense};
use crate::matrix::{
    matmul_shared_prefix, matmul_wt_pool, matmul_wt_relu_pool, route_pool, transpose_into, Matrix,
    Panels, RowGroups,
};
use lpa_par::Pool;
use rand::Rng;

/// Reusable buffers for MLP forward/backward passes: per-layer activation
/// matrices, the backward deltas and the per-layer gradient buffers. One
/// scratch serves any number of sequential calls (and any network depth —
/// buffers grow on demand and are reshaped per call); it carries no state
/// between calls that affects results.
#[derive(Debug, Default)]
pub struct MlpScratch {
    /// Per-layer outputs of the most recent forward pass (`outs[i]` is the
    /// post-activation output of layer `i`).
    outs: Vec<Matrix>,
    delta: Matrix,
    prev_delta: Matrix,
    dw: Matrix,
    db: Vec<f32>,
    /// Lane vectors of the grouped first-layer kernel.
    lanes: Vec<f32>,
}

impl MlpScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Feed-forward network. The paper's Q-network is `Mlp::new(&[input, 128,
/// 64, 1], rng)` — ReLU on hidden layers, linear scalar output (Table 1).
#[derive(Clone, Debug)]
pub struct Mlp {
    /// The layers, every weight matrix out×in but layer 0's, which is held
    /// in×out: the layout the grouped first-layer kernel streams, and the
    /// only one that layer needs, since it computes no previous delta.
    /// Its gradient and Adam moments are kept in×out too; [`Mlp::layers`]
    /// and the checkpoint see it out×in.
    layers: Vec<Dense>,
    /// `panels[i]` is `layers[i + 1].w` packed for the panel kernel.
    /// Derived state: repacked wherever the weights change, never
    /// serialised.
    panels: Vec<Panels>,
}

/// `f(k, v)` for each `(k, (keep, v))` of `items.enumerate()` with `keep`,
/// in increasing `k`. The kept items are first gathered into a list on the
/// stack, a block at a time, without a branch on `keep`: the backward's
/// zero patterns change every step (ReLU zeroes about half its deltas),
/// so a branch on each would often be mispredicted.
#[expect(
    clippy::indexing_slicing,
    reason = "n < LIST: the list is flushed the moment it fills"
)]
#[inline]
fn for_each_kept<T: Copy + Default>(
    items: impl Iterator<Item = (bool, T)>,
    mut f: impl FnMut(usize, T),
) {
    const LIST: usize = 64;
    let mut list = [(0usize, T::default()); LIST];
    let mut n = 0;
    for (k, (keep, v)) in items.enumerate() {
        list[n] = (k, v);
        n += usize::from(keep);
        if n == LIST {
            list.iter().for_each(|&(k, v)| f(k, v));
            n = 0;
        }
    }
    list[..n].iter().for_each(|&(k, v)| f(k, v));
}

impl Mlp {
    /// `dims` = `[input, hidden…, output]`.
    #[expect(
        clippy::indexing_slicing,
        reason = "windows(2) yields two-element slices"
    )]
    pub fn new<R: Rng>(dims: &[usize], rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Self::from_layers(layers)
    }

    /// `(input, output)` dims of layer `i`.
    #[expect(clippy::indexing_slicing, reason = "callers pass i < layers.len()")]
    fn dims(&self, i: usize) -> (usize, usize) {
        let w = &self.layers[i].w;
        match i {
            0 => (w.rows(), w.cols()),
            _ => (w.cols(), w.rows()),
        }
    }

    pub fn input_dim(&self) -> usize {
        self.dims(0).0
    }

    pub fn output_dim(&self) -> usize {
        self.dims(self.layers.len() - 1).1
    }

    /// `(input, output)` dims of every layer: the shapes of
    /// [`Mlp::layers`], without the copy.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        (0..self.layers.len()).map(|i| self.dims(i)).collect()
    }

    /// The layers, every weight matrix out×in (layer 0's transposed back
    /// from the layout the network keeps it in). A copy: for checkpoints,
    /// shape checks and oracles, not for hot paths.
    pub fn layers(&self) -> Vec<Dense> {
        let out_by_in = |(i, l): (usize, &Dense)| match i {
            0 => {
                let mut w = Matrix::default();
                transpose_into(&l.w, &mut w);
                Dense { w, b: l.b.clone() }
            }
            _ => l.clone(),
        };
        self.layers.iter().enumerate().map(out_by_in).collect()
    }

    /// Rebuild a network from out×in layers, as [`Mlp::layers`] gives them
    /// (weights restored bit-exactly; consecutive layer dims must chain).
    #[expect(
        clippy::indexing_slicing,
        reason = "windows(2) yields two-element slices; a network has at least one layer"
    )]
    pub fn from_layers(mut layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_dim(),
                pair[1].input_dim(),
                "layer dims must chain"
            );
        }
        let panels = layers[1..].iter().map(|l| Panels::new(&l.w)).collect();
        let mut w0_t = Matrix::default();
        transpose_into(&layers[0].w, &mut w0_t);
        layers[0].w = w0_t;
        Self { layers, panels }
    }

    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass into the scratch's activation buffers; returns the
    /// output matrix (borrowed from the scratch). Hidden layers fuse the
    /// ReLU into the store; nothing is allocated after the scratch has
    /// warmed up.
    pub fn forward_into<'s>(
        &self,
        pool: Pool,
        x: &Matrix,
        scratch: &'s mut MlpScratch,
    ) -> &'s Matrix {
        self.forward_layers(pool, x, None, scratch)
    }

    /// The forward pass. The first layer runs [`matmul_shared_prefix`]
    /// over `groups` (rows in runs sharing a prefix: an action set per
    /// state), or over the whole batch as one group with an empty prefix —
    /// bit-identical to the dense cells for finite weights. The other
    /// layers run the panel kernel.
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: outs holds one matrix per layer, panels one per layer after the first"
    )]
    fn forward_layers<'s>(
        &self,
        pool: Pool,
        x: &Matrix,
        groups: Option<RowGroups<'_>>,
        scratch: &'s mut MlpScratch,
    ) -> &'s Matrix {
        let MlpScratch { outs, lanes, .. } = scratch;
        let n = self.layers.len();
        if outs.len() < n {
            outs.resize_with(n, || Matrix::zeros(0, 0));
        }
        let last = n - 1;
        let whole = [(0, x.rows())];
        let groups = groups.unwrap_or(RowGroups {
            prefix: 0,
            ranges: &whole,
        });
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = outs.split_at_mut(i);
            let Some(cur) = rest.first_mut() else { break };
            let input = done.last().unwrap_or(x);
            cur.resize_for_overwrite(input.rows(), self.dims(i).1);
            match i {
                0 if i == last => {
                    matmul_shared_prefix::<false>(x, groups, &layer.w, &layer.b, lanes, cur)
                }
                0 => matmul_shared_prefix::<true>(x, groups, &layer.w, &layer.b, lanes, cur),
                _ if i == last => matmul_wt_pool(pool, input, &self.panels[i - 1], &layer.b, cur),
                _ => matmul_wt_relu_pool(pool, input, &self.panels[i - 1], &layer.b, cur),
            }
        }
        &outs[last]
    }

    /// Forward pass over a batch; returns a freshly allocated output
    /// matrix. Compat wrapper over [`Mlp::forward_into`].
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut scratch = MlpScratch::new();
        self.forward_into(Pool::current(), x, &mut scratch).clone()
    }

    /// Scalar prediction for a single input (output dim must be 1).
    pub fn predict_scalar(&self, x: &[f32]) -> f32 {
        assert_eq!(self.output_dim(), 1);
        let m = Matrix::from_rows(&[x]);
        self.forward(&m).get(0, 0)
    }

    /// Scalar predictions for a batch into a reusable vector (output dim
    /// must be 1). The allocation-free hot path for replay-minibatch
    /// target evaluation and batched committee inference.
    pub fn predict_batch_into(
        &self,
        pool: Pool,
        x: &Matrix,
        scratch: &mut MlpScratch,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(self.output_dim(), 1);
        let last = self.forward_into(pool, x, scratch);
        out.clear();
        // Output dim is 1, so the data vector *is* the prediction column.
        out.extend_from_slice(last.data());
    }

    /// [`Mlp::predict_batch_into`] for a batch whose rows come in
    /// [`RowGroups`] — how the agent scores action sets: each group's
    /// shared prefix goes through the first layer once.
    pub fn predict_grouped_into(
        &self,
        pool: Pool,
        x: &Matrix,
        groups: RowGroups<'_>,
        scratch: &mut MlpScratch,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(self.output_dim(), 1);
        let last = self.forward_layers(pool, x, Some(groups), scratch);
        out.clear();
        out.extend_from_slice(last.data());
    }

    /// Scalar predictions for a batch (output dim must be 1). Compat
    /// wrapper over [`Mlp::predict_batch_into`].
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f32> {
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        self.predict_batch_into(Pool::current(), x, &mut scratch, &mut out);
        out
    }

    /// One SGD step minimizing MSE between the scalar outputs and
    /// `targets`; returns the batch loss. This is the paper's squared-error
    /// Q-update (Algorithm 1, line 11).
    pub fn train_mse(&mut self, x: &Matrix, targets: &[f32], opt: &mut Adam) -> f32 {
        let mut scratch = MlpScratch::new();
        self.train_mse_with(Pool::current(), x, targets, opt, &mut scratch)
    }

    /// [`Mlp::train_mse`] with a caller-hoisted pool and scratch — the
    /// allocation-free train-step path.
    ///
    /// The backward computes what [`crate::reference::naive_train_mse`]
    /// spells out, bit for bit, without a branch on any data-dependent zero
    /// (DESIGN.md §12). Each gradient cell accumulates over the batch, and
    /// each previous-delta cell over the units, in index order on exactly
    /// one thread, so distributing the outer loops over the lpa-par pool
    /// cannot change the bits, and neither can reusing the gradient buffers
    /// (they are re-zeroed each layer).
    #[expect(
        clippy::indexing_slicing,
        reason = "hot kernel: i enumerates layers; outs holds one matrix per layer, panels one per layer after the first"
    )]
    pub fn train_mse_with(
        &mut self,
        pool: Pool,
        x: &Matrix,
        targets: &[f32],
        opt: &mut Adam,
        scratch: &mut MlpScratch,
    ) -> f32 {
        assert_eq!(self.output_dim(), 1);
        assert_eq!(x.rows(), targets.len());
        let batch = x.rows();
        let n = self.layers.len();

        // Forward with cached activations (fused ReLU on hidden layers;
        // fusing clamps the identical `dot + bias` value the unfused path
        // would have stored, so the cached activations are bit-equal).
        self.forward_into(pool, x, scratch);
        let MlpScratch {
            outs,
            delta,
            prev_delta,
            dw,
            db,
            ..
        } = scratch;

        // Loss and output delta.
        let mut loss = 0.0f32;
        delta.resize_for_overwrite(batch, 1);
        {
            let preds = &outs[n - 1];
            for (b, &target) in targets.iter().enumerate().take(batch) {
                let err = preds.get(b, 0) - target;
                loss += err * err;
                delta.set(b, 0, 2.0 * err / batch as f32);
            }
        }
        loss /= batch as f32;

        opt.begin_step();
        for i in (1..n).rev() {
            let (in_dim, out_dim) = self.dims(i);
            let lpool = route_pool(pool, batch * out_dim * in_dim.max(1));
            let a_prev = &outs[i - 1];
            column_sums(delta, db);
            // dW = deltaᵀ · a_prev (out×in): per unit, the rows whose delta
            // is not zero.
            dw.resize_zeroed(out_dim, in_dim);
            if in_dim > 0 {
                lpool.par_chunks_mut(dw.data_mut(), in_dim, |o, wrow| {
                    let column = delta.data().iter().skip(o).step_by(out_dim);
                    for_each_kept(column.map(|&d| (d != 0.0, d)), |b, d| {
                        for (wi, a) in wrow.iter_mut().zip(a_prev.row(b)) {
                            *wi += d * a;
                        }
                    });
                });
            }
            // The previous layer's delta (before the update): per row, the
            // units whose delta is not zero; then ReLU's derivative, zero
            // where the activation was clamped.
            let layer_w = &self.layers[i].w;
            prev_delta.resize_zeroed(batch, in_dim);
            lpool.par_chunks_mut(prev_delta.data_mut(), in_dim.max(1), |b, prow| {
                for_each_kept(delta.row(b).iter().map(|&d| (d != 0.0, d)), |o, d| {
                    for (p, w) in prow.iter_mut().zip(layer_w.row(o)) {
                        *p += d * w;
                    }
                });
                for (p, a) in prow.iter_mut().zip(a_prev.row(b)) {
                    if *a <= 0.0 {
                        *p = 0.0;
                    }
                }
            });
            let panels = &mut self.panels[i - 1];
            opt.step_layer(i, &mut self.layers[i], dw, db, |o, w| panels.put_row(o, w));
            std::mem::swap(delta, prev_delta);
        }

        // Layer 0: dW in×out, the layout its weights and moments are kept
        // in, one row of the batch at a time. A zero input adds `d · 0 =
        // ±0.0` to every cell of a row whose deltas are all finite, which
        // changes no sum, so only a row with a non-finite delta keeps its
        // zero inputs. A zero delta's term is selected away, never
        // multiplied by a mask. The inputs are split into one run per
        // thread: one run, the whole matrix, on one thread.
        let (in_dim, out_dim) = self.dims(0);
        let lpool = route_pool(pool, batch * out_dim * in_dim.max(1));
        column_sums(delta, db);
        dw.resize_zeroed(in_dim, out_dim);
        let run = in_dim.div_ceil(lpool.threads()).max(1);
        lpool.par_chunks_mut(dw.data_mut(), run * out_dim, |c, rows| {
            for b in 0..batch {
                let drow = delta.row(b);
                let finite = drow.iter().fold(true, |ok, d| ok & d.is_finite());
                let inputs = x.row(b).iter().skip(c * run).take(run);
                for_each_kept(inputs.map(|&a| (a != 0.0 || !finite, a)), |j, a| {
                    for (wi, &d) in rows[j * out_dim..][..out_dim].iter_mut().zip(drow) {
                        let t = d * a;
                        *wi += if d == 0.0 { 0.0 } else { t };
                    }
                });
            }
        });
        opt.step_layer(0, &mut self.layers[0], dw, db, |_, _| {});
        loss
    }

    /// Target-network tracking `θ' ← (1-τ)·θ' + τ·θ` (Algorithm 1, l. 13).
    pub fn soft_update_from(&mut self, src: &Mlp, tau: f32) {
        assert_eq!(self.layers.len(), src.layers.len());
        for (t, s) in self.layers.iter_mut().zip(&src.layers) {
            t.soft_update_from(s, tau);
        }
        // The update is elementwise, so applying it to the panels gives the
        // panels of the updated weights, bit for bit, without packing them
        // again (the zero padding stays `+0.0`).
        for (t, s) in self.panels.iter_mut().zip(&src.panels) {
            soft_update(t.data_mut(), s.data(), tau);
        }
    }
}

/// `db` = the column sums of `delta`, each from `+0.0` in row order. No
/// zero is skipped: a sum from `+0.0` is never `-0.0` (an add gives `-0.0`
/// only from two of them), so adding `±0.0` leaves it as it was.
fn column_sums(delta: &Matrix, db: &mut Vec<f32>) {
    db.clear();
    db.resize(delta.cols(), 0.0);
    for b in 0..delta.rows() {
        for (s, d) in db.iter_mut().zip(delta.row(b)) {
            *s += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fits_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = Mlp::new(&[2, 16, 1], &mut rng);
        let mut opt = Adam::new(0.01, net.layers());
        // y = 3x0 - 2x1 + 1
        let f = |x: &[f32]| 3.0 * x[0] - 2.0 * x[1] + 1.0;
        let mut last_loss = f32::MAX;
        for it in 0..2000 {
            let mut rows = Vec::new();
            for b in 0..16 {
                let v = (it * 16 + b) as f32;
                rows.push(vec![(v * 0.37).sin(), (v * 0.61).cos()]);
            }
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let x = Matrix::from_rows(&refs);
            let targets: Vec<f32> = rows.iter().map(|r| f(r)).collect();
            last_loss = net.train_mse(&x, &targets, &mut opt);
        }
        assert!(last_loss < 1e-3, "loss {last_loss}");
        let pred = net.predict_scalar(&[0.5, -0.5]);
        assert!((pred - f(&[0.5, -0.5])).abs() < 0.1, "pred {pred}");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        // One scratch carried across many heterogeneous calls (different
        // batch sizes, predict interleaved with training) must give exactly
        // the results of fresh allocations each time.
        let mut rng = StdRng::seed_from_u64(33);
        let mut reused = Mlp::new(&[5, 12, 6, 1], &mut rng);
        let mut fresh = reused.clone();
        let mut opt_reused = Adam::new(2e-3, reused.layers());
        let mut opt_fresh = opt_reused.clone();
        let pool = Pool::with_threads(1);
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        for step in 0..20 {
            let batch = 1 + (step * 7) % 13;
            let rows: Vec<Vec<f32>> = (0..batch)
                .map(|b| {
                    (0..5)
                        .map(|i| ((step * 31 + b * 5 + i) as f32 * 0.17).sin())
                        .collect()
                })
                .collect();
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let x = Matrix::from_rows(&refs);
            let targets: Vec<f32> = (0..batch)
                .map(|b| ((step + b) as f32 * 0.4).cos())
                .collect();
            let l1 = reused.train_mse_with(pool, &x, &targets, &mut opt_reused, &mut scratch);
            let l2 = fresh.train_mse(&x, &targets, &mut opt_fresh);
            assert_eq!(l1.to_bits(), l2.to_bits(), "step {step}");
            reused.predict_batch_into(pool, &x, &mut scratch, &mut out);
            let expect = fresh.predict_batch(&x);
            assert_eq!(out.len(), expect.len());
            for (a, b) in out.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}");
            }
        }
        let a = crate::reference::mlp_bits(&reused);
        let b = crate::reference::mlp_bits(&fresh);
        assert_eq!(a, b);
    }

    /// Rows in `groups`-sized runs sharing their first `prefix` values,
    /// three quarters of all values exact zeros.
    fn grouped_batch(groups: &[usize], prefix: usize, dim: usize) -> (Matrix, Vec<(usize, usize)>) {
        let rows: usize = groups.iter().sum();
        let mut x = Matrix::zeros(rows, dim);
        let mut ranges = Vec::new();
        let mut lo = 0;
        for &len in groups {
            ranges.push((lo, lo + len));
            for r in lo..lo + len {
                for (j, v) in x.row_mut(r).iter_mut().enumerate() {
                    let of = if j < prefix { lo } else { r };
                    if (of * 7 + j * 3) % 4 == 0 {
                        *v = ((of * 31 + j) as f32 * 0.37).sin();
                    }
                }
            }
            lo += len;
        }
        (x, ranges)
    }

    #[test]
    fn grouped_forward_matches_dense_forward_by_bits() {
        // With hidden layers (fused ReLU on the grouped layer) and without
        // (the grouped layer is the linear head); a prefix of 0 shares
        // nothing, as for an environment without a state prefix.
        for dims in [&[11usize, 9, 4, 1][..], &[11, 1]] {
            let net = Mlp::new(dims, &mut StdRng::seed_from_u64(61));
            for prefix in [0, 6] {
                let (x, ranges) = grouped_batch(&[3, 0, 1, 5], prefix, 11);
                let groups = RowGroups {
                    prefix,
                    ranges: &ranges,
                };
                let dense = crate::reference::naive_forward(&net, &x);
                for threads in [1, 8] {
                    let pool = Pool::with_threads(threads);
                    let mut grouped = Vec::new();
                    net.predict_grouped_into(
                        pool,
                        &x,
                        groups,
                        &mut MlpScratch::new(),
                        &mut grouped,
                    );
                    assert_eq!(grouped.len(), dense.data().len());
                    for (g, d) in grouped.iter().zip(dense.data()) {
                        assert_eq!(
                            g.to_bits(),
                            d.to_bits(),
                            "dims {dims:?} prefix {prefix} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    /// Every later layer's panels, as packed afresh from its weights.
    fn derived(net: &Mlp) -> Vec<Panels> {
        net.layers[1..].iter().map(|l| Panels::new(&l.w)).collect()
    }

    #[test]
    fn panels_track_every_weight_change() {
        // 6 → 5 → 17 → 1: a one-unit panel, one padded to two blocks and
        // the head's.
        let dims = [6, 5, 17, 1];
        let mut rng = StdRng::seed_from_u64(17);
        let mut net = Mlp::new(&dims, &mut rng);
        let mut target = Mlp::new(&dims, &mut rng);
        assert_eq!(net.panels.len(), 2);
        assert_eq!(net.panels, derived(&net));
        let mut opt = Adam::new(1e-2, net.layers());
        let (x, _) = grouped_batch(&[4], 0, 6);
        for step in 0..3 {
            let before = net.panels.clone();
            net.train_mse(&x, &[0.5, -1.0, 2.0, 0.0], &mut opt);
            assert_ne!(net.panels, before, "train step {step} moved no weight");
            assert_eq!(net.panels, derived(&net), "after train step {step}");
            target.soft_update_from(&net, 0.3);
            assert_eq!(target.panels, derived(&target), "after soft update {step}");
        }
        let restored = Mlp::from_layers(net.layers());
        assert_eq!(restored.panels, net.panels);
        assert_eq!(restored.layers[0].w, net.layers[0].w);
    }

    /// Bits of a network and its optimizer, every NaN one NaN: where two
    /// NaNs meet in an add, which comes out is left open.
    fn state_bits(net: &Mlp, opt: &Adam) -> Vec<u32> {
        let mut bits: Vec<u32> = net
            .layers()
            .iter()
            .flat_map(|l| l.w.data().iter().chain(&l.b).map(canon).collect::<Vec<_>>())
            .collect();
        for (mw, vw, mb, vb) in opt.layer_moments() {
            for m in [&*mw, &*vw, mb, vb] {
                bits.extend(m.iter().map(canon));
            }
        }
        bits.push(opt.step_count() as u32);
        bits
    }

    fn canon(v: &f32) -> u32 {
        if v.is_nan() { f32::NAN } else { *v }.to_bits()
    }

    fn panel_bits(panels: &[Panels]) -> Vec<u32> {
        panels
            .iter()
            .flat_map(|p| p.data().iter().map(canon))
            .collect()
    }

    #[test]
    fn train_step_matches_the_naive_oracle_by_bits() {
        use rand::Rng;
        /// An edit to a network's out×in layers.
        type Bend<'a> = &'a dyn Fn(&mut [Dense]);
        // Input widths off the 8- and 16-wide boundaries; a network that is
        // only its one-unit head, a one-unit hidden layer, and two large
        // enough for their first and their hidden layer to run on the pool.
        let nets: [&[usize]; 6] = [
            &[7, 1],
            &[9, 1, 1],
            &[17, 13, 1],
            &[23, 33, 5, 1],
            &[523, 130, 1],
            &[20, 300, 250, 1],
        ];
        for (case, dims) in nets.into_iter().enumerate() {
            for batch in [1usize, 31, 33] {
                let mut rng = StdRng::seed_from_u64(0xBAC + case as u64 * 8 + batch as u64);
                let mut x = Matrix::zeros(batch, dims[0]);
                for v in x.data_mut() {
                    *v = match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-2.0f32..2.0),
                    };
                }
                let targets: Vec<f32> = (0..batch).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let start = Mlp::new(dims, &mut rng);
                // Three non-finite last steps, each from the finite state.
                // An infinite target: row 0's deltas are non-finite down to
                // layer 0, where that row's zero inputs must not be skipped.
                // An infinite input whose weights leave only unit 0 of layer
                // 0 infinite (the others clamp to zero): behind it zero
                // deltas meet infinite activations, and their terms must be
                // left out of dW, not added as `0 · inf = NaN`. An infinite
                // weight in layer 1: zero deltas meet it in the previous
                // delta.
                let mut inf_targets = targets.clone();
                inf_targets[0] = f32::INFINITY;
                let mut inf_x = x.clone();
                inf_x.set(batch - 1, 0, f32::INFINITY);
                let keep = |_: &mut [Dense]| {};
                let lead_unit = |l: &mut [Dense]| {
                    for (u, w) in l[0].w.data_mut().chunks_mut(dims[0]).enumerate() {
                        w[0] = if u == 0 { w[0].abs() } else { -w[0].abs() };
                    }
                };
                let inf_weight = |l: &mut [Dense]| {
                    if let Some(d) = l.get_mut(1) {
                        d.w.set(0, 0, f32::NEG_INFINITY);
                    }
                };
                let last: [(&Matrix, &[f32], Bend); 3] = [
                    (&x, &inf_targets, &keep),
                    (&inf_x, &targets, &lead_unit),
                    (&x, &targets, &inf_weight),
                ];
                let bend = |net: &Mlp, f: Bend| {
                    let mut layers = net.layers();
                    f(&mut layers);
                    Mlp::from_layers(layers)
                };
                for threads in [1, 8] {
                    let pool = Pool::with_threads(threads);
                    let mut scratch = MlpScratch::new();
                    let mut fast = (start.clone(), Adam::new(1e-2, start.layers()));
                    let mut naive = fast.clone();
                    let mut step = |fast: &mut (Mlp, Adam),
                                    naive: &mut (Mlp, Adam),
                                    x,
                                    targets,
                                    at| {
                        let (net, opt) = fast;
                        let loss = net.train_mse_with(pool, x, targets, opt, &mut scratch);
                        let (want, n, o) =
                            crate::reference::naive_train_mse(&naive.0, &naive.1, x, targets);
                        *naive = (n, o);
                        let at = format!("{dims:?} batch {batch} threads {threads} {at}");
                        assert_eq!(canon(&loss), canon(&want), "loss, {at}");
                        assert_eq!(state_bits(net, opt), state_bits(&naive.0, &naive.1), "{at}");
                        assert_eq!(panel_bits(&net.panels), panel_bits(&derived(net)), "{at}");
                    };
                    for k in 0..3 {
                        step(&mut fast, &mut naive, &x, &targets, format!("step {k}"));
                    }
                    for (k, (x, targets, f)) in last.into_iter().enumerate() {
                        let mut fast = (bend(&fast.0, f), fast.1.clone());
                        let mut naive = (bend(&naive.0, f), naive.1.clone());
                        step(&mut fast, &mut naive, x, targets, format!("non-finite {k}"));
                    }
                }
            }
        }
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerically verify dL/dw for a tiny net by comparing the loss
        // drop from one Adam-free manual SGD step... simpler: compare
        // analytic gradient (via a fresh copy trained with tiny lr) to the
        // finite-difference gradient of the loss.
        let mut rng = StdRng::seed_from_u64(9);
        let net = Mlp::new(&[3, 4, 1], &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 0.2], &[1.0, 0.5, -0.4]]);
        let targets = [0.7f32, -0.3];
        let loss_of = |n: &Mlp| {
            let p = n.predict_batch(&x);
            p.iter()
                .zip(&targets)
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f32>()
                / targets.len() as f32
        };
        // Analytic gradient via backprop with SGD-like probe: clone and
        // capture dw through a single train step with Adam replaced by
        // numeric comparison of directional derivative.
        let eps = 1e-3f32;
        // Pick a few weights and compare finite differences to the
        // backprop direction implied by one training step with tiny lr.
        let mut trained = net.clone();
        let mut opt = Adam::new(1e-6, trained.layers());
        trained.train_mse(&x, &targets, &mut opt);
        for (li, (orig, new)) in net.layers().iter().zip(trained.layers()).enumerate() {
            for wi in [0usize, 3, 7] {
                if wi >= orig.w.data().len() {
                    continue;
                }
                let moved = new.w.data()[wi] - orig.w.data()[wi];
                if moved == 0.0 {
                    continue; // dead ReLU path
                }
                // Finite-difference gradient.
                let mut plus = net.clone();
                plus.layers_mut_for_test(li, wi, eps);
                let mut minus = net.clone();
                minus.layers_mut_for_test(li, wi, -eps);
                let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
                // Adam normalizes magnitude, but the *sign* of the update
                // must oppose the gradient.
                assert!(
                    (fd > 0.0) == (moved < 0.0),
                    "layer {li} w{wi}: fd {fd} vs move {moved}"
                );
            }
        }
    }

    impl Mlp {
        fn layers_mut_for_test(&mut self, layer: usize, wi: usize, delta: f32) {
            let mut layers = self.layers();
            layers[layer].w.data_mut()[wi] += delta;
            *self = Mlp::from_layers(layers);
        }
    }

    #[test]
    fn soft_update_moves_towards_source() {
        let mut rng = StdRng::seed_from_u64(2);
        let src = Mlp::new(&[4, 8, 1], &mut rng);
        let mut tgt = Mlp::new(&[4, 8, 1], &mut rng);
        let d0 = param_distance(&src, &tgt);
        tgt.soft_update_from(&src, 0.5);
        let d1 = param_distance(&src, &tgt);
        assert!(d1 < d0 * 0.6);
    }

    fn param_distance(a: &Mlp, b: &Mlp) -> f32 {
        a.layers()
            .iter()
            .zip(b.layers())
            .map(|(x, y)| {
                x.w.data()
                    .iter()
                    .zip(y.w.data())
                    .map(|(p, q)| (p - q) * (p - q))
                    .sum::<f32>()
            })
            .sum()
    }

    #[test]
    fn paper_network_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[134, 128, 64, 1], &mut rng);
        assert_eq!(net.input_dim(), 134);
        assert_eq!(net.output_dim(), 1);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.param_count(), 134 * 128 + 128 + 128 * 64 + 64 + 64 + 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Mlp::new(&[3, 5, 1], &mut StdRng::seed_from_u64(7));
        let b = Mlp::new(&[3, 5, 1], &mut StdRng::seed_from_u64(7));
        assert_eq!(
            a.predict_scalar(&[0.1, 0.2, 0.3]),
            b.predict_scalar(&[0.1, 0.2, 0.3])
        );
    }
}
