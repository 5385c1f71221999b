//! `Vlong` / `Vop` — the LSTM voting models (§IV-B).
//!
//! Training takes many iterations, so the same OpSeq is observed repeatedly;
//! the voting models consume `n` iterations' per-sample predictions (as
//! stacked one-hot vectors) and emit a corrected sequence. Following the
//! paper, the sequences are **not aligned** beforehand — the first
//! iteration's timeline is the base and the LSTM memorizes offsets.

use ml::data::one_hot;
use ml::seq::{SeqClassifierConfig, SequenceClassifier};
use ml::SeqExample;
use serde::{Deserialize, Serialize};

use crate::long_ops::LstmTrainConfig;

/// One voting training example: `n` prediction sequences plus the ground
/// truth aligned to the first sequence's timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VotingExample {
    /// Per-iteration predicted class indices (first = base timeline).
    pub iterations: Vec<Vec<usize>>,
    /// Ground-truth class indices for the base timeline.
    pub truth: Vec<usize>,
    /// Loss mask for the base timeline (`Vop` only counts OtherOp losses).
    pub mask: Vec<bool>,
}

impl VotingExample {
    /// Validates shape invariants.
    ///
    /// # Panics
    ///
    /// Panics if there are no iterations or the truth length differs from
    /// the base iteration's.
    pub fn new(iterations: Vec<Vec<usize>>, truth: Vec<usize>) -> Self {
        let mask = vec![true; truth.len()];
        Self::with_mask(iterations, truth, mask)
    }

    /// Creates an example with an explicit loss mask.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn with_mask(iterations: Vec<Vec<usize>>, truth: Vec<usize>, mask: Vec<bool>) -> Self {
        assert!(
            !iterations.is_empty(),
            "voting needs at least one iteration"
        );
        assert_eq!(
            iterations[0].len(),
            truth.len(),
            "truth must align with the base iteration"
        );
        assert_eq!(truth.len(), mask.len(), "mask must align with the truth");
        VotingExample {
            iterations,
            truth,
            mask,
        }
    }
}

/// Builds the stacked-one-hot feature matrix for a group of iteration
/// predictions: timestep `t` concatenates each iteration's one-hot at `t`
/// (all-zeros where an iteration is shorter than the base).
fn stack_features(iterations: &[Vec<usize>], n: usize, classes: usize) -> Vec<Vec<f32>> {
    let base_len = iterations[0].len();
    (0..base_len)
        .map(|t| {
            let mut row = Vec::with_capacity(n * classes);
            for i in 0..n {
                match iterations.get(i).and_then(|seq| seq.get(t)) {
                    Some(&c) => row.extend(one_hot(c, classes)),
                    None => row.extend(std::iter::repeat_n(0.0, classes)),
                }
            }
            row
        })
        .collect()
}

/// An LSTM that fuses `n` iterations' predictions into one sequence.
#[derive(Debug, Clone)]
pub struct VotingModel {
    clf: SequenceClassifier,
    classes: usize,
    n_iterations: usize,
}

impl VotingModel {
    /// Trains a voting model for `classes`-way predictions over groups of
    /// `n_iterations` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or shapes are inconsistent.
    pub fn train(
        examples: &[VotingExample],
        classes: usize,
        n_iterations: usize,
        config: &LstmTrainConfig,
    ) -> Self {
        assert!(!examples.is_empty(), "voting model needs training examples");
        let seqs: Vec<SeqExample> = examples
            .iter()
            .map(|ex| {
                let features = stack_features(&ex.iterations, n_iterations, classes);
                SeqExample::with_mask(features, ex.truth.clone(), ex.mask.clone())
            })
            .collect();
        let mut cfg = SeqClassifierConfig::new(n_iterations * classes, config.hidden, classes);
        cfg.epochs = config.epochs;
        cfg.learning_rate = config.learning_rate;
        cfg.seed = config.seed ^ 0x0516;
        cfg.batch_size = config.batch_size;
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&seqs);
        VotingModel {
            clf,
            classes,
            n_iterations,
        }
    }

    /// Fuses a group of prediction sequences into one corrected sequence on
    /// the first sequence's timeline. Extra iterations beyond the trained
    /// `n` are ignored; missing ones appear as all-zero inputs.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is empty.
    pub fn fuse(&self, iterations: &[Vec<usize>]) -> Vec<usize> {
        assert!(!iterations.is_empty(), "fuse needs at least one iteration");
        let features = stack_features(iterations, self.n_iterations, self.classes);
        self.clf.predict(&features)
    }
}

/// Plain per-timestep majority vote over prediction sequences (the
/// non-learned baseline the LSTM voting models are compared against in the
/// ablation bench). Ties go to the earliest iteration's prediction.
pub fn majority_vote(iterations: &[Vec<usize>], classes: usize) -> Vec<usize> {
    assert!(!iterations.is_empty(), "majority vote needs input");
    let base_len = iterations[0].len();
    (0..base_len)
        .map(|t| {
            let mut counts = vec![0usize; classes];
            for seq in iterations {
                if let Some(&c) = seq.get(t) {
                    counts[c] += 1;
                }
            }
            let mut best = iterations[0][t];
            for (c, &n) in counts.iter().enumerate() {
                if n > counts[best] {
                    best = c;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_copies(
        truth: &[usize],
        classes: usize,
        n: usize,
        flip_every: usize,
    ) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                truth
                    .iter()
                    .enumerate()
                    .map(|(t, &c)| {
                        if (t + i) % flip_every == 0 {
                            (c + 1) % classes
                        } else {
                            c
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn stacked_features_have_expected_shape() {
        let iters = vec![vec![0, 1, 2], vec![2, 0]];
        let f = stack_features(&iters, 3, 3);
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].len(), 9);
        // Second timestep: iteration 0 -> class 1, iteration 1 -> class 0,
        // iteration 2 absent (zeros).
        assert_eq!(f[1], vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Third timestep: iteration 1 exhausted -> zeros.
        assert_eq!(&f[2][3..6], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn voting_corrects_independent_errors() {
        // Truth is a repeating pattern; each iteration flips a different
        // subset of positions. Voting should recover the truth better than
        // any single iteration.
        let truth: Vec<usize> = (0..24).map(|t| (t / 4) % 3).collect();
        let mut examples = Vec::new();
        for g in 0..6 {
            let iters = noisy_copies(&truth, 3, 5, 5 + g % 3);
            examples.push(VotingExample::new(iters, truth.clone()));
        }
        let cfg = LstmTrainConfig {
            hidden: 16,
            epochs: 30,
            ..LstmTrainConfig::default()
        };
        let model = VotingModel::train(&examples, 3, 5, &cfg);
        let test_iters = noisy_copies(&truth, 3, 5, 6);
        let fused = model.fuse(&test_iters);
        let fused_acc = fused.iter().zip(&truth).filter(|(a, b)| a == b).count();
        let single_acc = test_iters[0]
            .iter()
            .zip(&truth)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            fused_acc >= single_acc,
            "voting made things worse: {} vs {}",
            fused_acc,
            single_acc
        );
        assert!(fused_acc as f64 / truth.len() as f64 > 0.85);
    }

    #[test]
    fn majority_vote_basics() {
        let iters = vec![vec![0, 1, 1], vec![0, 1, 0], vec![1, 1, 0]];
        assert_eq!(majority_vote(&iters, 2), vec![0, 1, 0]);
    }

    #[test]
    fn majority_vote_handles_short_iterations() {
        let iters = vec![vec![0, 1, 1, 1], vec![0, 1], vec![0, 0]];
        let v = majority_vote(&iters, 2);
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], 0);
        assert_eq!(v[3], 1);
    }

    #[test]
    #[should_panic(expected = "truth must align")]
    fn misaligned_truth_panics() {
        let _ = VotingExample::new(vec![vec![0, 1]], vec![0]);
    }
}
