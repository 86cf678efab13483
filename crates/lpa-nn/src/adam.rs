//! The Adam optimizer (Kingma & Ba), per-layer moment state.

use crate::dense::Dense;
use crate::matrix::{transpose_rows, Matrix};
use std::borrow::Cow;

/// Per-layer first/second moment estimates.
#[derive(Clone, Debug, Default)]
struct LayerState {
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

/// Adam optimizer over the layers of an [`crate::Mlp`].
///
/// Each layer's moments are kept in the layout the network keeps that
/// layer's weights in: in×out for layer 0, out×in after it. The update is
/// elementwise, so the layout changes no bit. [`Adam::layer_moments`] and
/// [`Adam::from_raw_state`] speak out×in for every layer, the checkpoint's
/// order.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    state: Vec<LayerState>,
}

impl Adam {
    /// Paper setting: learning rate 5·10⁻⁴ (Table 1), default betas. Reads
    /// only the layers' sizes.
    pub fn new(lr: f32, layers: impl AsRef<[Dense]>) -> Self {
        let state = layers
            .as_ref()
            .iter()
            .map(|l| LayerState {
                mw: vec![0.0; l.w.data().len()],
                vw: vec![0.0; l.w.data().len()],
                mb: vec![0.0; l.b.len()],
                vb: vec![0.0; l.b.len()],
            })
            .collect();
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state,
        }
    }

    /// Advance the shared step counter; call once per `step_layer` sweep.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Shared Adam step counter `t` (number of `begin_step` calls so far).
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Per-layer moment vectors `(mw, vw, mb, vb)`, in layer order, the
    /// weight moments out×in (layer 0's are transposed back from the layout
    /// they are kept in). Exposed for checkpointing: the optimizer cannot
    /// be resumed bit-identically without its moments.
    #[expect(
        clippy::type_complexity,
        reason = "the four moment slices of a layer, named in the doc; a struct would exist only for checkpoint capture"
    )]
    pub fn layer_moments(&self) -> Vec<(Cow<'_, [f32]>, Cow<'_, [f32]>, &[f32], &[f32])> {
        self.state
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let units = s.mb.len();
                let w = |m| match i {
                    0 => Cow::Owned(transposed(m, units)),
                    _ => Cow::Borrowed(m),
                };
                (w(&s.mw), w(&s.vw), s.mb.as_slice(), s.vb.as_slice())
            })
            .collect()
    }

    /// Rebuild an optimizer from checkpointed state. `moments` holds one
    /// `(mw, vw, mb, vb)` tuple per layer, exactly as captured by
    /// [`Adam::layer_moments`]; `t` is [`Adam::step_count`].
    #[expect(
        clippy::type_complexity,
        reason = "the inverse of `layer_moments`: one owned (mw, vw, mb, vb) tuple per layer"
    )]
    pub fn from_raw_state(
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
        moments: Vec<(Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>)>,
    ) -> Self {
        let state = moments
            .into_iter()
            .enumerate()
            .map(|(i, (mw, vw, mb, vb))| {
                // Layer 0's weight moments are kept in×out.
                let in_dim = mw.len().checked_div(mb.len()).unwrap_or(0);
                let (mw, vw) = match i {
                    0 => (transposed(&mw, in_dim), transposed(&vw, in_dim)),
                    _ => (mw, vw),
                };
                LayerState { mw, vw, mb, vb }
            })
            .collect();
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t,
            state,
        }
    }

    /// Apply gradients to one layer, whose weights, `dw` and moments share
    /// one layout. The weights are updated one row at a time, and
    /// `on_row(r, row)` sees row `r` as soon as it holds its new values —
    /// while it is still in cache, for a copy kept in another layout.
    pub(crate) fn step_layer(
        &mut self,
        idx: usize,
        layer: &mut Dense,
        dw: &Matrix,
        db: &[f32],
        mut on_row: impl FnMut(usize, &[f32]),
    ) {
        assert!(self.t > 0, "call begin_step first");
        debug_assert!(idx < self.state.len(), "unknown layer index");
        let Some(s) = self.state.get_mut(idx) else {
            return;
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // Elementwise, so updating by rows changes no bit.
        let cols = layer.w.cols().max(1);
        let rows = layer
            .w
            .data_mut()
            .chunks_mut(cols)
            .zip(dw.data().chunks(cols))
            .zip(s.mw.chunks_mut(cols).zip(s.vw.chunks_mut(cols)));
        for (r, ((p, g), (m, v))) in rows.enumerate() {
            update(
                p, g, m, v, self.lr, self.beta1, self.beta2, self.eps, bc1, bc2,
            );
            on_row(r, p);
        }
        update(
            &mut layer.b,
            db,
            &mut s.mb,
            &mut s.vb,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            bc1,
            bc2,
        );
    }
}

/// The transpose of `m` read as a matrix of `cols` columns. A length that
/// is not a whole number of rows is no layer's shape: it comes back as is,
/// for the caller's shape check to reject.
fn transposed(m: &[f32], cols: usize) -> Vec<f32> {
    if cols == 0 || !m.len().is_multiple_of(cols) {
        return m.to_vec();
    }
    let mut t = vec![0.0; m.len()];
    transpose_rows(m, cols, &mut t);
    t
}

/// Elementwise Adam update. Written as one zipped iterator chain so LLVM
/// drops the bounds checks and vectorizes; each element's operations are
/// unchanged and elements never interact, so the bits are identical to
/// the indexed loop for any chunking the autovectorizer picks.
#[expect(
    clippy::too_many_arguments,
    reason = "a private kernel over four slices and the step's six scalars, called for weights and biases alike"
)]
fn update(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    for (((p, &g), mi), vi) in params
        .iter_mut()
        .zip(grads)
        .zip(m.iter_mut())
        .zip(v.iter_mut())
    {
        *mi = b1 * *mi + (1.0 - b1) * g;
        *vi = b2 * *vi + (1.0 - b2) * g * g;
        let mhat = *mi / bc1;
        let vhat = *vi / bc2;
        *p -= lr * mhat / (vhat.sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn minimizes_a_quadratic() {
        // Treat a 1x1 layer as a scalar parameter; minimize (w-3)^2.
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(1, 1, &mut rng);
        let mut opt = Adam::new(0.05, std::slice::from_ref(&layer));
        for _ in 0..2000 {
            let w = layer.w.get(0, 0);
            let grad = 2.0 * (w - 3.0);
            let dw = Matrix::from_vec(1, 1, vec![grad]);
            opt.begin_step();
            opt.step_layer(0, &mut layer, &dw, &[0.0], |_, _| {});
        }
        assert!((layer.w.get(0, 0) - 3.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn step_without_begin_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(1, 1, &mut rng);
        let mut opt = Adam::new(0.05, std::slice::from_ref(&layer));
        let dw = Matrix::zeros(1, 1);
        opt.step_layer(0, &mut layer, &dw, &[0.0], |_, _| {});
    }
}
