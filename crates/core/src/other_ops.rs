//! `Mop` — the OtherOp classifier (§IV-B).
//!
//! Classifies the non-long ops: `BiasAdd`, the activations, pooling and the
//! optimizer's apply ops. The paper's loss customization is reproduced
//! exactly: samples whose ground truth is a long op or NOP are fed forward
//! (the LSTM keeps its memory of them) but contribute **no loss** — "the
//! loss resulted from Conv2D, Conv2DBackprop and NOP samples are all
//! neglected".

use dnn_sim::OpClass;
use ml::loss::inverse_frequency_weights;
use ml::seq::{SeqClassifierConfig, SequenceClassifier};
use ml::{MinMaxScaler, SeqExample};
use serde::{Deserialize, Serialize};

use crate::dataset::{with_lookahead, LabeledTrace};
use crate::long_ops::LstmTrainConfig;

/// Which `Mop` label space an attacker trains and serves with.
///
/// `Classic` is the paper's six-class alphabet and is the default, and its
/// training/inference paths are bitwise-identical to the pre-zoo pipeline.
/// `Zoo` appends the model-zoo classes (`Add`, `Softmax`, `LayerNorm`,
/// `Depthwise`), growing the LSTM output layer — a different model, so a
/// deliberate opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OpVocab {
    /// The paper's Table VII alphabet (6 `Mop` classes).
    #[default]
    Classic,
    /// Classic plus the model-zoo classes (10 `Mop` classes).
    Zoo,
}

impl OpVocab {
    /// Number of `Mop` output classes under this vocabulary.
    pub fn other_classes(self) -> usize {
        match self {
            OpVocab::Classic => 6,
            OpVocab::Zoo => OtherClass::ALL.len(),
        }
    }
}

/// The `Mop` output alphabet (classic classes first so classic model output
/// indices never move when the zoo classes are appended).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OtherClass {
    /// Bias addition (forward or gradient).
    BiasAdd,
    /// ReLU (forward or gradient).
    Relu,
    /// Tanh (forward or gradient).
    Tanh,
    /// Sigmoid (forward or gradient).
    Sigmoid,
    /// Max pooling (forward or gradient).
    Pool,
    /// Optimizer apply op.
    Optimizer,
    /// Two-input add (residual skip connections).
    Add,
    /// Softmax (forward or gradient).
    Softmax,
    /// Layer normalization (forward or gradient).
    LayerNorm,
    /// Depthwise convolution (forward or backprops) — short enough to sit in
    /// the `Mop` alphabet rather than `Mlong`'s.
    Depthwise,
}

impl OtherClass {
    /// All classes in model output order ([`OpVocab::Classic`] uses the
    /// first six, [`OpVocab::Zoo`] all of them).
    pub const ALL: [OtherClass; 10] = [
        OtherClass::BiasAdd,
        OtherClass::Relu,
        OtherClass::Tanh,
        OtherClass::Sigmoid,
        OtherClass::Pool,
        OtherClass::Optimizer,
        OtherClass::Add,
        OtherClass::Softmax,
        OtherClass::LayerNorm,
        OtherClass::Depthwise,
    ];

    /// Maps an op class into the `Mop` alphabet; `None` for long ops / NOP.
    pub fn of(class: OpClass) -> Option<OtherClass> {
        match class {
            OpClass::BiasAdd => Some(OtherClass::BiasAdd),
            OpClass::Relu => Some(OtherClass::Relu),
            OpClass::Tanh => Some(OtherClass::Tanh),
            OpClass::Sigmoid => Some(OtherClass::Sigmoid),
            OpClass::Pool => Some(OtherClass::Pool),
            OpClass::Optimizer => Some(OtherClass::Optimizer),
            OpClass::Add => Some(OtherClass::Add),
            OpClass::Softmax => Some(OtherClass::Softmax),
            OpClass::LayerNorm => Some(OtherClass::LayerNorm),
            OpClass::Depthwise => Some(OtherClass::Depthwise),
            OpClass::Conv | OpClass::MatMul | OpClass::Nop => None,
        }
    }

    /// Back to the shared [`OpClass`] alphabet.
    pub fn op_class(self) -> OpClass {
        match self {
            OtherClass::BiasAdd => OpClass::BiasAdd,
            OtherClass::Relu => OpClass::Relu,
            OtherClass::Tanh => OpClass::Tanh,
            OtherClass::Sigmoid => OpClass::Sigmoid,
            OtherClass::Pool => OpClass::Pool,
            OtherClass::Optimizer => OpClass::Optimizer,
            OtherClass::Add => OpClass::Add,
            OtherClass::Softmax => OpClass::Softmax,
            OtherClass::LayerNorm => OpClass::LayerNorm,
            OtherClass::Depthwise => OpClass::Depthwise,
        }
    }

    /// Model output index: the position in [`Self::ALL`], which lists the
    /// variants in declaration order (pinned by the round-trip test).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Class from a model output index.
    ///
    /// An out-of-range index degrades to [`OtherClass::BiasAdd`] (class 0)
    /// in release builds — this sits on the fleet-serving path, where one
    /// malformed prediction must not abort the process — and trips a
    /// `debug_assert!` in debug builds.
    pub fn from_index(index: usize) -> OtherClass {
        match Self::ALL.get(index) {
            Some(&c) => c,
            None => {
                debug_assert!(false, "OtherClass index {} out of range", index);
                OtherClass::BiasAdd
            }
        }
    }
}

/// The trained `Mop` model.
#[derive(Debug, Clone)]
pub struct OtherOpModel {
    clf: SequenceClassifier,
}

impl OtherOpModel {
    /// Trains on profiling iterations, masking long-op and NOP losses.
    ///
    /// `vocab` sizes the output layer: under [`OpVocab::Classic`] any sample
    /// whose label falls outside the six classic classes is additionally
    /// loss-masked (a no-op on classic profiling data, which never contains
    /// zoo ops — the classic path stays bitwise-identical).
    ///
    /// # Panics
    ///
    /// Panics if no iterations are provided.
    pub fn train(
        data: &[(&LabeledTrace, &[std::ops::Range<usize>])],
        scaler: &MinMaxScaler,
        config: &LstmTrainConfig,
        vocab: OpVocab,
    ) -> Self {
        let n_classes = vocab.other_classes();
        let mut examples = Vec::new();
        for (trace, ranges) in data {
            for r in ranges.iter() {
                let samples = &trace.samples[r.clone()];
                let features = trace.prepared(r.clone(), scaler);
                let mut labels = Vec::with_capacity(samples.len());
                let mut mask = Vec::with_capacity(samples.len());
                for s in samples {
                    match OtherClass::of(s.class) {
                        Some(c) if c.index() < n_classes => {
                            labels.push(c.index());
                            mask.push(true);
                        }
                        _ => {
                            labels.push(0);
                            mask.push(false);
                        }
                    }
                }
                examples.push(SeqExample::with_mask(features, labels, mask));
            }
        }
        assert!(!examples.is_empty(), "Mop needs at least one iteration");
        let weights = inverse_frequency_weights(
            examples.iter().flat_map(|e| {
                e.labels
                    .iter()
                    .zip(&e.mask)
                    .filter(|(_, &m)| m)
                    .map(|(&l, _)| l)
            }),
            n_classes,
        );
        let mut cfg =
            SeqClassifierConfig::new(2 * crate::dataset::FEATURE_WIDTH, config.hidden, n_classes);
        cfg.epochs = config.epochs;
        cfg.learning_rate = config.learning_rate;
        cfg.seed = config.seed ^ 0x0707;
        cfg.batch_size = config.batch_size;
        cfg.class_weights = Some(weights);
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&examples);
        OtherOpModel { clf }
    }

    /// Classifies every sample of several iterations in one call
    /// (predictions at long-op positions exist but are only *used* where
    /// `Mlong` said OtherOp — the paper notes they still feed the LSTM
    /// state). Equal-length iterations share fused batched GEMMs (see
    /// [`SequenceClassifier::predict_proba_batch`]), bitwise identical to
    /// classifying each iteration on its own.
    pub fn predict_batch(
        &self,
        iterations: &[&[Vec<f32>]],
        scaler: &MinMaxScaler,
    ) -> Vec<Vec<OtherClass>> {
        let prepared: Vec<Vec<Vec<f32>>> = iterations
            .iter()
            .map(|feats| with_lookahead(&scaler.transform(feats)))
            .collect();
        let refs: Vec<&[Vec<f32>]> = prepared.iter().map(Vec::as_slice).collect();
        self.clf
            .predict_batch(&refs)
            .into_iter()
            .map(|seq| seq.into_iter().map(OtherClass::from_index).collect())
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
    fn class_mapping_round_trips() {
        for c in OtherClass::ALL {
            assert_eq!(OtherClass::from_index(c.index()), c);
            assert_eq!(OtherClass::of(c.op_class()), Some(c));
        }
        assert_eq!(OtherClass::of(OpClass::Conv), None);
        assert_eq!(OtherClass::of(OpClass::MatMul), None);
        assert_eq!(OtherClass::of(OpClass::Nop), None);
    }
}
