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

use crate::adam::Adam;
use crate::dense::{soft_update, Dense};
use crate::matrix::{
    matmul_shared_prefix, naive_kernels_forced, route_pool, transpose_into, Matrix, RowGroups,
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
    layers: Vec<Dense>,
    /// In×out transpose of `layers[0].w`, the layout the grouped first
    /// -layer kernel streams. Derived state: rebuilt wherever layer 0's
    /// weights change, never serialised.
    w0_t: Matrix,
}

impl Mlp {
    /// `dims` = `[input, hidden…, output]`.
    pub fn new<R: Rng>(dims: &[usize], rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Self::from_layers(layers)
    }

    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::output_dim)
    }

    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Rebuild a network from checkpointed layers (weights restored
    /// bit-exactly; consecutive layer dims must chain).
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_dim(),
                pair[1].input_dim(),
                "layer dims must chain"
            );
        }
        let mut w0_t = Matrix::default();
        transpose_into(&layers[0].w, &mut w0_t);
        Self { layers, w0_t }
    }

    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass into the scratch's activation buffers; returns the
    /// output matrix (borrowed from the scratch). Hidden layers run the
    /// fused matmul+ReLU kernel; nothing is allocated after the scratch
    /// has warmed up.
    pub fn forward_into<'s>(
        &self,
        pool: Pool,
        x: &Matrix,
        scratch: &'s mut MlpScratch,
    ) -> &'s Matrix {
        self.forward_layers(pool, x, None, scratch)
    }

    /// The forward pass. With `groups` (rows in runs sharing a prefix: an
    /// action set per state) the first layer runs [`matmul_shared_prefix`]
    /// instead of the dense kernel — bit-identical for finite weights, and
    /// under [`crate::with_naive_kernels`] every layer is the dense naive
    /// triple loop regardless.
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
        let groups = groups.filter(|_| !naive_kernels_forced());
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = outs.split_at_mut(i);
            let Some(cur) = rest.first_mut() else { break };
            let input = done.last().unwrap_or(x);
            cur.resize_for_overwrite(input.rows(), layer.output_dim());
            match groups {
                Some(g) if i == 0 && i == last => {
                    matmul_shared_prefix::<false>(x, g, &self.w0_t, &layer.b, lanes, cur)
                }
                Some(g) if i == 0 => {
                    matmul_shared_prefix::<true>(x, g, &self.w0_t, &layer.b, lanes, cur)
                }
                _ if i == last => layer.forward_pool(pool, input, cur),
                _ => layer.forward_relu_pool(pool, input, cur),
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
        self.train_scalar(Pool::current(), x, targets, opt, None, &mut scratch)
    }

    /// [`Mlp::train_mse`] with a caller-hoisted pool and scratch — the
    /// allocation-free train-step path.
    pub fn train_mse_with(
        &mut self,
        pool: Pool,
        x: &Matrix,
        targets: &[f32],
        opt: &mut Adam,
        scratch: &mut MlpScratch,
    ) -> f32 {
        self.train_scalar(pool, x, targets, opt, None, scratch)
    }

    /// One SGD step minimizing the Huber loss with threshold `delta` — the
    /// standard DQN stabilization against exploding TD errors (an optional
    /// extension over the paper's plain squared loss).
    pub fn train_huber(&mut self, x: &Matrix, targets: &[f32], opt: &mut Adam, delta: f32) -> f32 {
        assert!(delta > 0.0);
        let mut scratch = MlpScratch::new();
        self.train_scalar(Pool::current(), x, targets, opt, Some(delta), &mut scratch)
    }

    /// [`Mlp::train_huber`] with a caller-hoisted pool and scratch.
    pub fn train_huber_with(
        &mut self,
        pool: Pool,
        x: &Matrix,
        targets: &[f32],
        opt: &mut Adam,
        delta: f32,
        scratch: &mut MlpScratch,
    ) -> f32 {
        assert!(delta > 0.0);
        self.train_scalar(pool, x, targets, opt, Some(delta), scratch)
    }

    fn train_scalar(
        &mut self,
        pool: Pool,
        x: &Matrix,
        targets: &[f32],
        opt: &mut Adam,
        huber_delta: Option<f32>,
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
                match huber_delta {
                    None => {
                        loss += err * err;
                        delta.set(b, 0, 2.0 * err / batch as f32);
                    }
                    Some(d) => {
                        if err.abs() <= d {
                            loss += 0.5 * err * err;
                            delta.set(b, 0, err / batch as f32);
                        } else {
                            loss += d * (err.abs() - 0.5 * d);
                            delta.set(b, 0, d * err.signum() / batch as f32);
                        }
                    }
                }
            }
        }
        loss /= batch as f32;

        // Backward, reusing the forward activations in place. The gradient
        // loops are written unit-outer (dW) and row-outer (previous delta)
        // so each output cell accumulates over the batch in index order on
        // exactly one thread — distributing the outer loop over the
        // lpa-par pool cannot change the bits, and neither can reusing the
        // gradient buffers (they are re-zeroed each layer).
        opt.begin_step();
        for i in (0..n).rev() {
            let out_dim = self.layers[i].output_dim();
            let in_dim = self.layers[i].input_dim();
            let lpool = route_pool(pool, batch * out_dim * in_dim.max(1));
            let a_prev: &Matrix = if i == 0 { x } else { &outs[i - 1] };
            // dW = deltaᵀ · a_prev  (out×in); db = column sums of delta.
            dw.resize_zeroed(out_dim, in_dim);
            if in_dim > 0 {
                lpool.par_chunks_mut(dw.data_mut(), in_dim, |o, wrow| {
                    for b in 0..batch {
                        let d = delta.row(b)[o];
                        if d == 0.0 {
                            continue;
                        }
                        for (wi, a) in wrow.iter_mut().zip(a_prev.row(b)) {
                            *wi += d * a;
                        }
                    }
                });
            }
            db.clear();
            db.resize(out_dim, 0.0);
            for b in 0..batch {
                for (o, d) in delta.row(b).iter().enumerate() {
                    if *d == 0.0 {
                        continue;
                    }
                    db[o] += d;
                }
            }
            // delta for the previous layer (before applying the update).
            if i > 0 {
                let layer_w = &self.layers[i].w;
                prev_delta.resize_zeroed(batch, in_dim);
                lpool.par_chunks_mut(prev_delta.data_mut(), in_dim.max(1), |b, prow| {
                    let drow = delta.row(b);
                    for (o, d) in drow.iter().enumerate() {
                        if *d == 0.0 {
                            continue;
                        }
                        for (p, w) in prow.iter_mut().zip(layer_w.row(o)) {
                            *p += d * w;
                        }
                    }
                    // ReLU derivative: zero where the activation was
                    // clamped.
                    for (p, a) in prow.iter_mut().zip(outs[i - 1].row(b)) {
                        if *a <= 0.0 {
                            *p = 0.0;
                        }
                    }
                });
                opt.step_layer(i, &mut self.layers[i], dw, db);
                std::mem::swap(delta, prev_delta);
            } else {
                opt.step_layer(i, &mut self.layers[i], dw, db);
                transpose_into(&self.layers[0].w, &mut self.w0_t);
            }
        }
        loss
    }

    /// Target-network tracking `θ' ← (1-τ)·θ' + τ·θ` (Algorithm 1, l. 13).
    pub fn soft_update_from(&mut self, src: &Mlp, tau: f32) {
        assert_eq!(self.layers.len(), src.layers.len());
        for (t, s) in self.layers.iter_mut().zip(&src.layers) {
            t.soft_update_from(s, tau);
        }
        // The update is elementwise, so applying it to the transposed
        // copies gives the transpose of the updated weights, bit for bit,
        // at a tenth of the cost of transposing again.
        soft_update(self.w0_t.data_mut(), src.w0_t.data(), tau);
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
        // (the grouped layer is the linear head).
        for dims in [&[11usize, 9, 4, 1][..], &[11, 1]] {
            let net = Mlp::new(dims, &mut StdRng::seed_from_u64(61));
            let (x, ranges) = grouped_batch(&[3, 0, 1, 5], 6, 11);
            let groups = RowGroups {
                prefix: 6,
                ranges: &ranges,
            };
            let pool = Pool::with_threads(1);
            let mut grouped = Vec::new();
            net.predict_grouped_into(pool, &x, groups, &mut MlpScratch::new(), &mut grouped);
            let dense = crate::reference::naive_forward(&net, &x);
            assert_eq!(grouped.len(), dense.data().len());
            for (g, d) in grouped.iter().zip(dense.data()) {
                assert_eq!(g.to_bits(), d.to_bits(), "dims {dims:?}");
            }
            // The naive scope takes the grouped entry point to the dense
            // triple loop: a prefix the rows do not share goes unnoticed.
            let lie = RowGroups {
                prefix: 11,
                ranges: &ranges,
            };
            let mut naive = Vec::new();
            crate::with_naive_kernels(|| {
                net.predict_grouped_into(pool, &x, lie, &mut MlpScratch::new(), &mut naive)
            });
            assert_eq!(naive, grouped);
        }
    }

    #[test]
    fn transposed_first_layer_tracks_every_weight_change() {
        let transposed = |net: &Mlp| {
            let mut wt = Matrix::default();
            transpose_into(&net.layers[0].w, &mut wt);
            wt
        };
        let mut rng = StdRng::seed_from_u64(17);
        let mut net = Mlp::new(&[6, 5, 1], &mut rng);
        let mut target = Mlp::new(&[6, 5, 1], &mut rng);
        assert_eq!(net.w0_t, transposed(&net));
        let mut opt = Adam::new(1e-2, net.layers());
        let (x, _) = grouped_batch(&[4], 0, 6);
        for step in 0..3 {
            net.train_mse(&x, &[0.5, -1.0, 2.0, 0.0], &mut opt);
            assert_eq!(net.w0_t, transposed(&net), "after train step {step}");
            target.soft_update_from(&net, 0.3);
            assert_eq!(target.w0_t, transposed(&target), "after soft update {step}");
        }
        let restored = Mlp::from_layers(net.layers().to_vec());
        assert_eq!(restored.w0_t, net.w0_t);
    }

    #[test]
    fn huber_scratch_path_matches_compat_path() {
        let mut rng = StdRng::seed_from_u64(91);
        let mut with_scratch = Mlp::new(&[3, 8, 1], &mut rng);
        let mut compat = with_scratch.clone();
        let mut opt_a = Adam::new(1e-3, with_scratch.layers());
        let mut opt_b = opt_a.clone();
        let mut scratch = MlpScratch::new();
        let x = Matrix::from_rows(&[&[0.4, -0.9, 1.2], &[2.0, 0.3, -0.5]]);
        let targets = [5.0f32, -4.0];
        for _ in 0..10 {
            let la = with_scratch.train_huber_with(
                Pool::with_threads(1),
                &x,
                &targets,
                &mut opt_a,
                1.0,
                &mut scratch,
            );
            let lb = compat.train_huber(&x, &targets, &mut opt_b, 1.0);
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(
            crate::reference::mlp_bits(&with_scratch),
            crate::reference::mlp_bits(&compat)
        );
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
            self.layers[layer].w.data_mut()[wi] += delta;
            transpose_into(&self.layers[0].w, &mut self.w0_t);
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

#[cfg(test)]
mod huber_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn huber_also_fits_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Mlp::new(&[2, 16, 1], &mut rng);
        let mut opt = Adam::new(0.01, net.layers());
        let f = |x: &[f32]| 0.5 * x[0] + 0.25 * x[1];
        for it in 0..1500 {
            let mut rows = Vec::new();
            for b in 0..16 {
                let v = (it * 16 + b) as f32;
                rows.push(vec![(v * 0.37).sin(), (v * 0.61).cos()]);
            }
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let x = Matrix::from_rows(&refs);
            let targets: Vec<f32> = rows.iter().map(|r| f(r)).collect();
            net.train_huber(&x, &targets, &mut opt, 1.0);
        }
        let pred = net.predict_scalar(&[0.3, -0.2]);
        assert!((pred - f(&[0.3, -0.2])).abs() < 0.05, "pred {pred}");
    }

    #[test]
    fn huber_gradient_is_clipped_for_outliers() {
        // With a huge target error the Huber update must move weights less
        // than the MSE update would.
        let mut rng = StdRng::seed_from_u64(5);
        let base = Mlp::new(&[1, 4, 1], &mut rng);
        let x = Matrix::from_rows(&[&[1.0f32]]);
        let target = [1000.0f32];
        let move_of = |huber: bool| {
            let mut net = base.clone();
            let mut opt = Adam::new(1e-3, net.layers());
            if huber {
                net.train_huber(&x, &target, &mut opt, 1.0);
            } else {
                net.train_mse(&x, &target, &mut opt);
            }
            net.layers()[0]
                .w
                .data()
                .iter()
                .zip(base.layers()[0].w.data())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
        };
        // Adam normalizes step sizes, so compare the raw loss magnitudes
        // instead: Huber loss grows linearly, MSE quadratically.
        let mut net_h = base.clone();
        let mut opt_h = Adam::new(1e-3, net_h.layers());
        let huber_loss = net_h.train_huber(&x, &target, &mut opt_h, 1.0);
        let mut net_m = base.clone();
        let mut opt_m = Adam::new(1e-3, net_m.layers());
        let mse_loss = net_m.train_mse(&x, &target, &mut opt_m);
        assert!(huber_loss < mse_loss / 100.0, "{huber_loss} vs {mse_loss}");
        let _ = move_of; // step-size comparison is Adam-normalized; unused
    }
}
