//! One fully-connected layer with He-initialized weights.

use crate::matrix::Matrix;
use rand::Rng;

/// Dense layer `y = x·Wᵀ + b`.
///
/// `w` is stored out×in (unit-major — each row is one output unit's
/// weight vector, i.e. `Wᵀ` relative to the math convention `y = xW + b`):
/// the parameters as the optimizer, soft updates, the backward pass and
/// the checkpoint codec see them. The forward kernels read layouts derived
/// from it, which [`crate::Mlp`] keeps beside its layers.
#[derive(Clone, Debug)]
pub struct Dense {
    pub w: Matrix,
    pub b: Vec<f32>,
}

impl Dense {
    /// He-normal initialization (suits ReLU nets).
    pub fn new<R: Rng>(input: usize, output: usize, rng: &mut R) -> Self {
        let std = (2.0 / input as f64).sqrt();
        let mut w = Matrix::zeros(output, input);
        for v in w.data_mut() {
            *v = (gaussian(rng) * std) as f32;
        }
        Self {
            w,
            b: vec![0.0; output],
        }
    }

    pub fn input_dim(&self) -> usize {
        self.w.cols()
    }

    pub fn output_dim(&self) -> usize {
        self.w.rows()
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Soft update `θ ← (1-τ)·θ + τ·θ_src` (target-network tracking).
    pub fn soft_update_from(&mut self, src: &Dense, tau: f32) {
        soft_update(self.w.data_mut(), src.w.data(), tau);
        soft_update(&mut self.b, &src.b, tau);
    }
}

/// Elementwise `θ ← (1-τ)·θ + τ·θ_src`.
pub(crate) fn soft_update(dst: &mut [f32], src: &[f32], tau: f32) {
    for (t, s) in dst.iter_mut().zip(src) {
        *t = (1.0 - tau) * *t + tau * s;
    }
}

/// Box–Muller standard normal from a uniform RNG.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initialization_statistics() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = Dense::new(100, 400, &mut rng);
        let data = d.w.data();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / data.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        let expected = 2.0 / 100.0;
        assert!(
            (var - expected).abs() < expected * 0.2,
            "var {var} vs {expected}"
        );
        assert!(d.b.iter().all(|v| *v == 0.0));
        assert_eq!(d.param_count(), 100 * 400 + 400);
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut rng = StdRng::seed_from_u64(3);
        let src = Dense::new(4, 2, &mut rng);
        let mut tgt = Dense::new(4, 2, &mut rng);
        for _ in 0..2000 {
            tgt.soft_update_from(&src, 0.01);
        }
        for (t, s) in tgt.w.data().iter().zip(src.w.data()) {
            assert!((t - s).abs() < 1e-4);
        }
    }

    #[test]
    fn tau_one_copies() {
        let mut rng = StdRng::seed_from_u64(5);
        let src = Dense::new(3, 3, &mut rng);
        let mut tgt = Dense::new(3, 3, &mut rng);
        tgt.soft_update_from(&src, 1.0);
        assert_eq!(tgt.w, src.w);
        assert_eq!(tgt.b, src.b);
    }
}
