//! `Mlong` — the long-op classifier (§IV-B).
//!
//! An LSTM labels every sample of an iteration as `conv`, `MatMul`,
//! `OtherOp` or `NOP`. Convolutions and matrix multiplications dominate the
//! sample stream (they run longest), so the loss uses inverse-frequency
//! class weights — the paper's "weighted softmax and customized
//! cross-entropy loss to compensate for the imbalanced data".

use dnn_sim::OpClass;
use ml::loss::inverse_frequency_weights;
use ml::seq::{SeqClassifierConfig, SequenceClassifier};
use ml::{MinMaxScaler, SeqExample};
use serde::{Deserialize, Serialize};

use crate::dataset::{with_lookahead, LabeledTrace};

/// The four `Mlong` classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LongClass {
    /// Convolution (forward or backprop).
    Conv,
    /// Matrix multiplication.
    MatMul,
    /// Any other op.
    Other,
    /// No victim activity.
    Nop,
}

impl LongClass {
    /// All classes in model output order.
    pub const ALL: [LongClass; 4] = [
        LongClass::Conv,
        LongClass::MatMul,
        LongClass::Other,
        LongClass::Nop,
    ];

    /// Maps a ground-truth op class into the `Mlong` alphabet.
    pub fn of(class: OpClass) -> LongClass {
        match class {
            OpClass::Conv => LongClass::Conv,
            OpClass::MatMul => LongClass::MatMul,
            OpClass::Nop => LongClass::Nop,
            _ => LongClass::Other,
        }
    }

    /// Model output index: the position in [`Self::ALL`], which lists the
    /// variants in declaration order (pinned by the round-trip test).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Class from a model output index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> LongClass {
        Self::ALL[index]
    }
}

/// Hyper-parameters shared by the LSTM inference models. The paper uses
/// LSTM-256 (Table III); the default here is smaller because the simulated
/// counter space is lower-dimensional than real hardware — both sizes are
/// supported.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LstmTrainConfig {
    /// Hidden units.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
    /// Minibatch size: examples whose averaged gradient feeds one Adam step
    /// (see [`ml::seq::SeqClassifierConfig::batch_size`]). Averaging damps
    /// the per-example step noise that otherwise destabilizes training on
    /// the heavily class-imbalanced iteration traces.
    pub batch_size: usize,
}

impl Default for LstmTrainConfig {
    fn default() -> Self {
        LstmTrainConfig {
            hidden: 64,
            epochs: 30,
            learning_rate: 0.01,
            seed: 0x10_57,
            batch_size: 4,
        }
    }
}

impl LstmTrainConfig {
    /// The paper's Table III geometry (LSTM-256).
    pub fn paper() -> Self {
        LstmTrainConfig {
            hidden: 256,
            ..Self::default()
        }
    }
}

/// The trained `Mlong` model.
#[derive(Debug, Clone)]
pub struct LongOpModel {
    clf: SequenceClassifier,
}

impl LongOpModel {
    /// Trains on `(trace, iteration ranges)` pairs from the profiling phase.
    ///
    /// # Panics
    ///
    /// Panics if no iterations are provided.
    pub fn train(
        data: &[(&LabeledTrace, &[std::ops::Range<usize>])],
        scaler: &MinMaxScaler,
        config: &LstmTrainConfig,
    ) -> Self {
        let mut examples = Vec::new();
        for (trace, ranges) in data {
            for r in ranges.iter() {
                let labels = trace.samples[r.clone()]
                    .iter()
                    .map(|s| LongClass::of(s.class).index())
                    .collect();
                examples.push(SeqExample::new(trace.prepared(r.clone(), scaler), labels));
            }
        }
        assert!(!examples.is_empty(), "Mlong needs at least one iteration");
        let weights =
            inverse_frequency_weights(examples.iter().flat_map(|e| e.labels.iter().copied()), 4);
        let mut cfg = SeqClassifierConfig::new(2 * crate::dataset::FEATURE_WIDTH, config.hidden, 4);
        cfg.epochs = config.epochs;
        cfg.learning_rate = config.learning_rate;
        cfg.seed = config.seed;
        cfg.batch_size = config.batch_size;
        cfg.class_weights = Some(weights);
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&examples);
        LongOpModel { clf }
    }

    /// Classifies the raw samples of several iterations in one call:
    /// equal-length iterations share fused batched GEMMs (see
    /// [`SequenceClassifier::predict_proba_batch`]), bitwise identical to
    /// classifying each iteration on its own.
    pub fn predict_batch(
        &self,
        iterations: &[&[Vec<f32>]],
        scaler: &MinMaxScaler,
    ) -> Vec<Vec<LongClass>> {
        let prepared: Vec<Vec<Vec<f32>>> = iterations
            .iter()
            .map(|feats| with_lookahead(&scaler.transform(feats)))
            .collect();
        let refs: Vec<&[Vec<f32>]> = prepared.iter().map(Vec::as_slice).collect();
        self.clf
            .predict_batch(&refs)
            .into_iter()
            .map(|seq| seq.into_iter().map(LongClass::from_index).collect())
            .collect()
    }

    /// The underlying sequence classifier — the streaming engine
    /// ([`crate::stream`]) drives it directly with stateful chunked
    /// inference over prepared (scaled + lookahead) rows.
    pub fn classifier(&self) -> &SequenceClassifier {
        &self.clf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping() {
        assert_eq!(LongClass::of(OpClass::Conv), LongClass::Conv);
        assert_eq!(LongClass::of(OpClass::MatMul), LongClass::MatMul);
        assert_eq!(LongClass::of(OpClass::Relu), LongClass::Other);
        assert_eq!(LongClass::of(OpClass::Optimizer), LongClass::Other);
        assert_eq!(LongClass::of(OpClass::Nop), LongClass::Nop);
        for c in LongClass::ALL {
            assert_eq!(LongClass::from_index(c.index()), c);
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = LstmTrainConfig::default();
        assert!(c.hidden > 0 && c.epochs > 0);
        assert_eq!(LstmTrainConfig::paper().hidden, 256);
    }
}
