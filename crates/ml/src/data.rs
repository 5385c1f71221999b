//! Sequence datasets for the per-timestep classifiers, plus one-hot
//! encoding.

/// One labeled sequence: per-timestep feature vectors, target classes, and a
/// loss mask (`true` = this timestep contributes to the training loss).
///
/// The mask implements the paper's `Mop` trick of neglecting the loss of
/// samples irrelevant to `OtherOp` while still feeding them forward.
#[derive(Debug, Clone)]
pub struct SeqExample {
    /// T feature vectors, all of equal width.
    pub features: Vec<Vec<f32>>,
    /// T class labels.
    pub labels: Vec<usize>,
    /// T loss-mask flags.
    pub mask: Vec<bool>,
}

impl SeqExample {
    /// Creates an example with every timestep unmasked.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, the sequence is empty, or feature widths are
    /// ragged.
    pub fn new(features: Vec<Vec<f32>>, labels: Vec<usize>) -> Self {
        let mask = vec![true; labels.len()];
        Self::with_mask(features, labels, mask)
    }

    /// Creates an example with an explicit loss mask.
    pub fn with_mask(features: Vec<Vec<f32>>, labels: Vec<usize>, mask: Vec<bool>) -> Self {
        assert!(!features.is_empty(), "empty sequence");
        assert_eq!(
            features.len(),
            labels.len(),
            "features/labels length mismatch"
        );
        assert_eq!(features.len(), mask.len(), "features/mask length mismatch");
        let width = features[0].len();
        assert!(
            features.iter().all(|f| f.len() == width),
            "ragged feature rows"
        );
        SeqExample {
            features,
            labels,
            mask,
        }
    }

    /// Sequence length in timesteps.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the sequence is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.features[0].len()
    }
}

/// One-hot encodes `label` into a vector of length `classes`.
///
/// # Panics
///
/// Panics if `label >= classes`.
pub fn one_hot(label: usize, classes: usize) -> Vec<f32> {
    assert!(
        label < classes,
        "one_hot label {} out of range {}",
        label,
        classes
    );
    let mut v = vec![0.0; classes];
    v[label] = 1.0;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_encoding() {
        assert_eq!(one_hot(2, 4), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_out_of_range_panics() {
        one_hot(4, 4);
    }

    #[test]
    fn example_validates_shapes() {
        let ex = SeqExample::new(vec![vec![1.0, 2.0]; 3], vec![0, 1, 0]);
        assert_eq!(ex.len(), 3);
        assert_eq!(ex.width(), 2);
        assert!(!ex.is_empty());
        assert!(ex.mask.iter().all(|&m| m));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_labels_panic() {
        let _ = SeqExample::new(vec![vec![1.0]; 3], vec![0, 1]);
    }
}
