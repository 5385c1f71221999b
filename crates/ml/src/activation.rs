//! Scalar activation functions and their derivatives, plus a numerically
//! stable softmax.

/// Logistic sigmoid `1 / (1 + e^-x)`.
///
/// # Examples
///
/// ```
/// assert!((ml::activation::sigmoid(0.0) - 0.5).abs() < 1e-6);
/// ```
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        // Rearranged to avoid overflow of exp for very negative x.
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Derivative of sigmoid expressed in terms of its output `y = sigmoid(x)`.
pub fn sigmoid_deriv_from_output(y: f32) -> f32 {
    y * (1.0 - y)
}

/// Hyperbolic tangent.
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Derivative of tanh expressed in terms of its output `y = tanh(x)`.
pub fn tanh_deriv_from_output(y: f32) -> f32 {
    1.0 - y * y
}

/// Numerically stable softmax over a slice, written into a fresh `Vec`.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    softmax_into(logits, &mut out);
    out
}

/// In-place variant of [`softmax`]: clears `out` and writes the
/// probabilities into it, reusing its allocation. Bitwise identical to
/// [`softmax`] (same operations in the same order).
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax_into(logits: &[f32], out: &mut Vec<f32>) {
    assert!(!logits.is_empty(), "softmax over empty slice");
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    out.clear();
    out.extend(logits.iter().map(|&l| (l - max).exp()));
    let sum: f32 = out.iter().sum();
    for v in out.iter_mut() {
        *v /= sum;
    }
}

/// Index of the maximum element (first occurrence).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax over empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0).is_finite());
    }

    #[test]
    fn sigmoid_symmetry() {
        for x in [-3.0f32, -1.0, 0.5, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1001.0, 999.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(p[1] > p[0] && p[0] > p[2]);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let p = softmax(&[2.0, 2.0, 2.0, 2.0]);
        for v in p {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for x in [-1.5f32, -0.2, 0.0, 0.7, 2.1] {
            let fd = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            assert!((sigmoid_deriv_from_output(sigmoid(x)) - fd).abs() < 1e-3);
            let fd = (tanh(x + eps) - tanh(x - eps)) / (2.0 * eps);
            assert!((tanh_deriv_from_output(tanh(x)) - fd).abs() < 1e-3);
        }
    }
}
