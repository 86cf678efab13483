//! The Adam optimizer (Kingma & Ba), per-layer moment state.

use crate::dense::Dense;
use crate::matrix::Matrix;

/// Per-layer first/second moment estimates.
#[derive(Clone, Debug, Default)]
struct LayerState {
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

/// Adam optimizer over a stack of [`Dense`] layers.
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
    /// Paper setting: learning rate 5·10⁻⁴ (Table 1), default betas.
    pub fn new(lr: f32, layers: &[Dense]) -> Self {
        let state = layers
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

    /// Per-layer moment vectors `(mw, vw, mb, vb)`, in layer order. Exposed
    /// for checkpointing: the optimizer cannot be resumed bit-identically
    /// without its moments.
    #[allow(clippy::type_complexity)]
    pub fn layer_moments(&self) -> Vec<(&[f32], &[f32], &[f32], &[f32])> {
        self.state
            .iter()
            .map(|s| {
                (
                    s.mw.as_slice(),
                    s.vw.as_slice(),
                    s.mb.as_slice(),
                    s.vb.as_slice(),
                )
            })
            .collect()
    }

    /// Rebuild an optimizer from checkpointed state. `moments` holds one
    /// `(mw, vw, mb, vb)` tuple per layer, exactly as captured by
    /// [`Adam::layer_moments`]; `t` is [`Adam::step_count`].
    #[allow(clippy::type_complexity)]
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
            .map(|(mw, vw, mb, vb)| LayerState { mw, vw, mb, vb })
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

    /// Apply gradients to one layer.
    pub fn step_layer(&mut self, idx: usize, layer: &mut Dense, dw: &Matrix, db: &[f32]) {
        assert!(self.t > 0, "call begin_step first");
        debug_assert!(idx < self.state.len(), "unknown layer index");
        let Some(s) = self.state.get_mut(idx) else {
            return;
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        update(
            layer.w.data_mut(),
            dw.data(),
            &mut s.mw,
            &mut s.vw,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            bc1,
            bc2,
        );
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

/// Elementwise Adam update. Written as one zipped iterator chain so LLVM
/// drops the bounds checks and vectorizes; each element's operations are
/// unchanged and elements never interact, so the bits are identical to
/// the indexed loop for any chunking the autovectorizer picks.
#[allow(clippy::too_many_arguments)]
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
            opt.step_layer(0, &mut layer, &dw, &[0.0]);
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
        opt.step_layer(0, &mut layer, &dw, &[0.0]);
    }
}
