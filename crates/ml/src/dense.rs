//! A fully-connected projection layer, applied independently per timestep.
//! Used as the classification head on top of the LSTM (Table III: `FC` +
//! `Softmax`).

use rand::rngs::StdRng;

use crate::matrix::{dot, Matrix};

/// Linear layer `y = W x + b` with `W`: O×I.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, O x I.
    pub w: Matrix,
    /// Bias, length O.
    pub b: Vec<f32>,
}

/// Gradients for a [`Dense`] layer.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// d/dW, O x I.
    pub w: Matrix,
    /// d/db, length O.
    pub b: Vec<f32>,
}

impl Dense {
    /// Creates a Xavier-initialized dense layer mapping `input` features to
    /// `output` logits.
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        Dense {
            w: Matrix::xavier(output, input, rng),
            b: vec![0.0; output],
        }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Applies the layer to one feature vector.
    pub fn forward_one(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.w.cols(), "dense input width mismatch");
        (0..self.w.rows())
            .map(|o| dot(self.w.row(o), x) + self.b[o])
            .collect()
    }

    /// Applies the layer to every row of `xs` (T x I) producing T x O logits.
    pub fn forward(&self, xs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.forward_into(xs, &mut out);
        out
    }

    /// In-place variant of [`Dense::forward`]: writes the logits into `out`,
    /// resizing it (allocation-free once warm). Bitwise identical to the
    /// allocating path — per element the same `dot + b` in the same order.
    pub fn forward_into(&self, xs: &Matrix, out: &mut Matrix) {
        assert_eq!(xs.cols(), self.w.cols(), "dense input width mismatch");
        out.resize_zeroed(xs.rows(), self.w.rows());
        for t in 0..xs.rows() {
            let x = xs.row(t);
            for (o, slot) in out.row_mut(t).iter_mut().enumerate() {
                *slot = dot(self.w.row(o), x) + self.b[o];
            }
        }
    }

    /// Backward pass: given inputs `xs` (T x I) and upstream logit gradients
    /// `dlogits` (T x O), returns parameter grads and `dxs` (T x I).
    pub fn backward(&self, xs: &Matrix, dlogits: &Matrix) -> (DenseGrads, Matrix) {
        assert_eq!(
            xs.rows(),
            dlogits.rows(),
            "dense backward timestep mismatch"
        );
        assert_eq!(
            dlogits.cols(),
            self.w.rows(),
            "dense backward width mismatch"
        );
        // dW = dlogits^T * xs ; db = column sums of dlogits ; dx = dlogits * W
        let mut grads = DenseGrads::empty();
        self.param_grads_into(xs, dlogits, &mut grads);
        (grads, dlogits.matmul(&self.w))
    }

    /// Parameter gradients only: `dW = dlogits^T * xs` (ascending-`t` row
    /// scan) and `db` as ascending-`t` column sums. Shared with
    /// [`Dense::backward`] so the batch-packed training path can compute
    /// per-example head gradients from matrices extracted out of packed
    /// tensors in the exact accumulation order of the reference pass.
    pub fn param_grads_into(&self, xs: &Matrix, dlogits: &Matrix, grads: &mut DenseGrads) {
        dlogits.t_matmul_into(xs, &mut grads.w);
        grads.b.clear();
        grads.b.resize(self.w.rows(), 0.0);
        for t in 0..dlogits.rows() {
            for (bg, &d) in grads.b.iter_mut().zip(dlogits.row(t)) {
                *bg += d;
            }
        }
    }
}

impl DenseGrads {
    /// A placeholder gradient set ready to be shaped by
    /// [`Dense::param_grads_into`].
    pub fn empty() -> Self {
        DenseGrads {
            w: Matrix::zeros(1, 1),
            // cold-init: shaped once by param_grads_into, then reused. lint: allow(A1)
            b: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        d.b = vec![0.5, -0.5];
        let y = d.forward_one(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dense::new(3, 2, &mut rng);
        let xs = Matrix::from_rows(&[&[0.2, -0.4, 0.6], &[0.9, 0.1, -0.3]]);
        // Objective: sum of all logits => dlogits = 1.
        let dl = Matrix::filled(2, 2, 1.0);
        let (grads, dxs) = d.backward(&xs, &dl);
        let obj = |d: &Dense| d.forward(&xs).sum();
        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (1, 2)] {
            let mut dp = d.clone();
            dp.w[(r, c)] += eps;
            let mut dm = d.clone();
            dm.w[(r, c)] -= eps;
            let fd = (obj(&dp) - obj(&dm)) / (2.0 * eps);
            assert!((grads.w[(r, c)] - fd).abs() < 1e-2);
        }
        for j in 0..2 {
            let mut dp = d.clone();
            dp.b[j] += eps;
            let mut dm = d.clone();
            dm.b[j] -= eps;
            let fd = (obj(&dp) - obj(&dm)) / (2.0 * eps);
            assert!((grads.b[j] - fd).abs() < 1e-2);
        }
        // dx check
        for &(t, c) in &[(0usize, 1usize), (1, 0)] {
            let mut xp = xs.clone();
            xp[(t, c)] += eps;
            let mut xm = xs.clone();
            xm[(t, c)] -= eps;
            let fd = (d.forward(&xp).sum() - d.forward(&xm).sum()) / (2.0 * eps);
            assert!((dxs[(t, c)] - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = Dense::new(4, 3, &mut rng);
        assert_eq!(d.param_count(), 12 + 3);
    }
}
