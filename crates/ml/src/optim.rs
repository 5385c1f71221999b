//! The optimizer that trains the inference models: Adam with bias
//! correction, plus global-norm gradient clipping.

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates an Adam updater for a parameter buffer of length `len`.
    pub fn new(len: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Applies one update step to `params`, the buffer this state was
    /// created for.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()` or the length differs from the
    /// one the optimizer was constructed with.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "adam buffer length mismatch");
        assert_eq!(params.len(), self.m.len(), "adam state length mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// Clips the gradient buffer to a global L2 norm of at most `max_norm`.
///
/// Returns the pre-clip norm. BPTT through long traces makes this necessary.
pub fn clip_global_norm(grads: &mut [&mut [f32]], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for g in grads.iter() {
        for &v in g.iter() {
            sq += (v as f64) * (v as f64);
        }
    }
    let norm = (sq as f32).sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            for v in g.iter_mut() {
                *v *= scale;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 and checks convergence.
    fn converges(opt: &mut Adam, start: f32, steps: usize) -> f32 {
        let mut x = [start];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(1, 0.1);
        let x = converges(&mut opt, 0.0, 500);
        assert!((x - 3.0).abs() < 1e-2, "got {}", x);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut opt = Adam::new(1, 0.01);
        let mut x = [0.0f32];
        opt.step(&mut x, &[5.0]);
        assert!((x[0].abs() - 0.01).abs() < 1e-4, "got {}", x[0]);
    }

    #[test]
    fn clip_reduces_large_norm_and_keeps_small() {
        let mut a = vec![3.0f32, 4.0];
        {
            let mut bufs: Vec<&mut [f32]> = vec![&mut a];
            let pre = clip_global_norm(&mut bufs, 1.0);
            assert!((pre - 5.0).abs() < 1e-5);
        }
        let norm: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);

        let mut b = vec![0.3f32, 0.4];
        let mut bufs: Vec<&mut [f32]> = vec![&mut b];
        clip_global_norm(&mut bufs, 1.0);
        assert_eq!(b, vec![0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_buffers_panic() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = [0.0f32; 2];
        opt.step(&mut p, &[1.0]);
    }
}
