//! The naive oracle kernels and bit-fingerprint helpers shared by the
//! differential test harness.
//!
//! This module is *not* `#[cfg(test)]`: the workspace-level suites
//! (`tests/determinism.rs`, `tests/property_based.rs`, `tests/resume.rs`,
//! …) and the `lpa-nn` unit tests all import the same oracle, so the
//! fast/naive reference cannot drift between test layers. Nothing here is
//! called on a hot path.
//!
//! The determinism doctrine (DESIGN.md §12): every output cell of a
//! matmul is `dot(x_row, w_row) + bias`, where `dot` accumulates in eight
//! fixed lanes followed by a sequential tail. The fast kernels may
//! re-block, fuse or parallelize *around* that per-cell computation but
//! never reorder the operations *within* it — which is why the oracles
//! below, written as the plainest possible loops over that same per-cell
//! kernel, must match the fast path bit-for-bit.

use crate::adam::Adam;
use crate::matrix::{relu_inplace, Matrix};
use crate::mlp::Mlp;

/// `dot`, spelled out: eight accumulator lanes walked in index order,
/// then the sequential tail, then the lane sum. This is the *definition*
/// of the per-cell summation order every kernel keeps.
#[expect(
    clippy::indexing_slicing,
    reason = "c * 8 + k < len over the unrolled chunks; the tail runs below len"
)]
pub fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        for k in 0..8 {
            lanes[k] += a[c * 8 + k] * b[c * 8 + k];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..a.len() {
        tail += a[i] * b[i];
    }
    lanes.iter().sum::<f32>() + tail
}

/// The unblocked serial triple loop the blocked kernels must match
/// bit-for-bit: every cell one [`naive_dot`] plus bias, rows then units,
/// no banding, no register blocking, no threads.
pub fn naive_matmul_wt(x: &Matrix, w: &Matrix, bias: &[f32]) -> Matrix {
    assert_eq!(x.cols(), w.cols(), "inner dimensions");
    assert_eq!(w.rows(), bias.len());
    let mut out = Matrix::zeros(x.rows(), w.rows());
    for b in 0..x.rows() {
        for (o, &bo) in bias.iter().enumerate() {
            out.set(b, o, naive_dot(x.row(b), w.row(o)) + bo);
        }
    }
    out
}

/// [`naive_matmul_wt`] followed by an *unfused* ReLU pass — the oracle for
/// the fused matmul+ReLU kernel.
pub fn naive_matmul_wt_relu(x: &Matrix, w: &Matrix, bias: &[f32]) -> Matrix {
    let mut out = naive_matmul_wt(x, w, bias);
    relu_inplace(&mut out);
    out
}

/// Forward pass through an MLP entirely on the naive kernels: per-layer
/// unblocked matmul, ReLU as a separate pass on hidden layers, fresh
/// allocations everywhere. The oracle for the fused, scratch-reusing fast
/// forward.
pub fn naive_forward(mlp: &Mlp, x: &Matrix) -> Matrix {
    let layers = mlp.layers();
    let last = layers.len().saturating_sub(1);
    let mut cur = x.clone();
    for (i, layer) in layers.iter().enumerate() {
        let mut next = naive_matmul_wt(&cur, &layer.w, &layer.b);
        if i != last {
            relu_inplace(&mut next);
        }
        cur = next;
    }
    cur
}

/// One [`Mlp::train_mse`] step as plain loops on fresh copies: the naive
/// forward keeping every activation, then the backward with a branch on
/// every zero delta (a zero delta adds no term to dW, db or the previous
/// delta), then Adam, element by element, every matrix out×in. Returns the
/// loss and the stepped network and optimizer. The oracle for the
/// branch-free backward on the kernels' layouts.
#[expect(
    clippy::indexing_slicing,
    reason = "acts holds one matrix per layer plus the input; moments one tuple per layer"
)]
pub fn naive_train_mse(mlp: &Mlp, opt: &Adam, x: &Matrix, targets: &[f32]) -> (f32, Mlp, Adam) {
    let mut layers = mlp.layers();
    let n = layers.len();
    let batch = x.rows();
    let mut acts = vec![x.clone()];
    for (i, layer) in layers.iter().enumerate() {
        let mut next = naive_matmul_wt(&acts[i], &layer.w, &layer.b);
        if i + 1 != n {
            relu_inplace(&mut next);
        }
        acts.push(next);
    }
    let mut loss = 0.0f32;
    let mut delta = Matrix::zeros(batch, 1);
    for (b, &target) in targets.iter().enumerate() {
        let err = acts[n].get(b, 0) - target;
        loss += err * err;
        delta.set(b, 0, 2.0 * err / batch as f32);
    }
    loss /= batch as f32;

    let t = opt.step_count() + 1;
    let (lr, b1, b2, eps) = (opt.lr, opt.beta1, opt.beta2, opt.eps);
    let (bc1, bc2) = (1.0 - b1.powi(t as i32), 1.0 - b2.powi(t as i32));
    let adam = |p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]| {
        for k in 0..p.len() {
            m[k] = b1 * m[k] + (1.0 - b1) * g[k];
            v[k] = b2 * v[k] + (1.0 - b2) * g[k] * g[k];
            let mhat = m[k] / bc1;
            let vhat = v[k] / bc2;
            p[k] -= lr * mhat / (vhat.sqrt() + eps);
        }
    };
    let mut moments: Vec<_> = opt
        .layer_moments()
        .into_iter()
        .map(|(mw, vw, mb, vb)| (mw.into_owned(), vw.into_owned(), mb.to_vec(), vb.to_vec()))
        .collect();
    for i in (0..n).rev() {
        let w = &layers[i].w;
        let (out_dim, in_dim) = (w.rows(), w.cols());
        let a_prev = &acts[i];
        let mut dw = Matrix::zeros(out_dim, in_dim);
        let mut db = vec![0.0f32; out_dim];
        let mut prev = Matrix::zeros(batch, in_dim);
        for b in 0..batch {
            for (o, sum) in db.iter_mut().enumerate() {
                let d = delta.get(b, o);
                if d == 0.0 {
                    continue;
                }
                *sum += d;
                for j in 0..in_dim {
                    dw.set(o, j, dw.get(o, j) + d * a_prev.get(b, j));
                    prev.set(b, j, prev.get(b, j) + d * w.get(o, j));
                }
            }
            for j in 0..in_dim {
                if a_prev.get(b, j) <= 0.0 {
                    prev.set(b, j, 0.0);
                }
            }
        }
        let (mw, vw, mb, vb) = &mut moments[i];
        adam(layers[i].w.data_mut(), dw.data(), mw, vw);
        adam(&mut layers[i].b, &db, mb, vb);
        delta = prev;
    }
    let opt = Adam::from_raw_state(lr, b1, b2, eps, t, moments);
    (loss, Mlp::from_layers(layers), opt)
}

/// Every parameter of the network as raw `f32` bit patterns, in layer
/// order (weights row-major, then biases). Two networks are *the same
/// trained artifact* iff these vectors are equal — the comparison the
/// whole differential harness reduces to.
pub fn mlp_bits(mlp: &Mlp) -> Vec<u32> {
    let mut bits = Vec::new();
    for layer in mlp.layers() {
        bits.extend(layer.w.data().iter().map(|v| v.to_bits()));
        bits.extend(layer.b.iter().map(|v| v.to_bits()));
    }
    bits
}

/// FNV-1a over [`mlp_bits`] (little-endian bytes) — a stable 64-bit
/// fingerprint of the trained weights for golden fixtures and logs.
pub fn mlp_fingerprint(mlp: &Mlp) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in mlp_bits(mlp) {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fingerprint_tracks_bits() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Mlp::new(&[3, 5, 1], &mut rng);
        let b = a.clone();
        assert_eq!(mlp_bits(&a), mlp_bits(&b));
        assert_eq!(mlp_fingerprint(&a), mlp_fingerprint(&b));
        // Flip one weight bit; the fingerprint must move.
        let mut layers = a.layers().to_vec();
        let d = layers[0].w.get(0, 0);
        layers[0].w.set(0, 0, f32::from_bits(d.to_bits() ^ 1));
        let c = Mlp::from_layers(layers);
        assert_ne!(mlp_fingerprint(&a), mlp_fingerprint(&c));
    }

    #[test]
    fn naive_forward_matches_fast_forward() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = Mlp::new(&[7, 12, 5, 1], &mut rng);
        let x = Matrix::from_rows(&[
            &[0.3, -0.7, 0.2, 1.1, -0.4, 0.9, -1.3],
            &[1.0, 0.5, -0.4, 0.0, 0.25, -0.75, 2.0],
            &[-0.1, 0.1, 0.6, -0.6, 1.5, -1.5, 0.0],
        ]);
        let fast = net.forward(&x);
        let naive = naive_forward(&net, &x);
        assert_eq!(fast.data().len(), naive.data().len());
        for (f, n) in fast.data().iter().zip(naive.data()) {
            assert_eq!(f.to_bits(), n.to_bits());
        }
    }
}
