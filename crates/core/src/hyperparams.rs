//! `Mhp` — hyper-parameter inference (§IV-C).
//!
//! One LSTM per hyper-parameter kind (filters, filter size, neurons, stride,
//! optimizer), LSTM-128 in the paper's Table III. Labels are attached to the
//! **last sample of each layer** ("it encourages Mhp to make full use of the
//! information from all the samples related to the layer"); everything else
//! is loss-masked. The optimizer, a model-level hyper-parameter, is labeled
//! on the optimizer-apply samples at the iteration tail.

use dnn_sim::{Layer, Model, OpClass, Optimizer};
use ml::seq::{SeqClassifierConfig, SequenceClassifier};
use ml::{MinMaxScaler, SeqExample};
use serde::{Deserialize, Serialize};

use crate::dataset::{with_lookahead, LabeledTrace};
use crate::long_ops::LstmTrainConfig;

/// Which hyper-parameter a model head predicts (paper Table VIII:
/// HP1 = filters, HP2 = filter size, HP3 = neurons, HP4 = stride,
/// HP5 = optimizer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HpKind {
    /// Number of convolution filters (64..4096, powers of two).
    Filters,
    /// Convolution filter side (1, 3, ..., 13).
    FilterSize,
    /// Dense-layer neuron count (64..16384, powers of two).
    Neurons,
    /// Convolution stride (1..4).
    Stride,
    /// Training optimizer (GD / Adam / Adagrad).
    Optimizer,
}

impl HpKind {
    /// All kinds in Table VIII order.
    pub const ALL: [HpKind; 5] = [
        HpKind::Filters,
        HpKind::FilterSize,
        HpKind::Neurons,
        HpKind::Stride,
        HpKind::Optimizer,
    ];

    /// Position in [`HpKind::ALL`], which lists the kinds in declaration
    /// order (pinned by a test).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of classes in this kind's label space.
    pub fn classes(self) -> usize {
        match self {
            HpKind::Filters => 7,    // 2^6 .. 2^12
            HpKind::FilterSize => 7, // 1, 3, 5, 7, 9, 11, 13
            HpKind::Neurons => 9,    // 2^6 .. 2^14
            HpKind::Stride => 4,     // 1..4
            HpKind::Optimizer => 3,  // GD, Adam, Adagrad
        }
    }

    /// Encodes a hyper-parameter value as a class index; `None` when the
    /// value is outside the profiled space.
    pub fn encode(self, value: usize) -> Option<usize> {
        match self {
            HpKind::Filters => {
                let log = value.checked_ilog2()? as usize;
                (value.is_power_of_two() && (6..=12).contains(&log)).then(|| log - 6)
            }
            HpKind::Neurons => {
                let log = value.checked_ilog2()? as usize;
                (value.is_power_of_two() && (6..=14).contains(&log)).then(|| log - 6)
            }
            HpKind::FilterSize => {
                (value % 2 == 1 && (1..=13).contains(&value)).then(|| (value - 1) / 2)
            }
            HpKind::Stride => (1..=4).contains(&value).then(|| value - 1),
            HpKind::Optimizer => (value < 3).then_some(value),
        }
    }

    /// Decodes a class index back into the hyper-parameter value.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range for the kind.
    pub fn decode(self, class: usize) -> usize {
        assert!(
            class < self.classes(),
            "class {} out of range for {:?}",
            class,
            self
        );
        match self {
            HpKind::Filters => 1 << (class + 6),
            HpKind::Neurons => 1 << (class + 6),
            HpKind::FilterSize => 2 * class + 1,
            HpKind::Stride => class + 1,
            HpKind::Optimizer => class,
        }
    }

    /// Optimizer ↔ class index mapping.
    pub fn optimizer_class(optimizer: Optimizer) -> usize {
        match optimizer {
            Optimizer::Gd => 0,
            Optimizer::Adam => 1,
            Optimizer::Adagrad => 2,
        }
    }

    /// Inverse of [`HpKind::optimizer_class`].
    ///
    /// An out-of-range class degrades to [`Optimizer::Gd`] (class 0) in
    /// release builds — this sits on the fleet-serving path, where one
    /// malformed prediction must not abort the process — and trips a
    /// `debug_assert!` in debug builds.
    pub fn class_optimizer(class: usize) -> Optimizer {
        match class {
            0 => Optimizer::Gd,
            1 => Optimizer::Adam,
            2 => Optimizer::Adagrad,
            _ => {
                debug_assert!(false, "optimizer class {} out of range", class);
                Optimizer::Gd
            }
        }
    }

    /// Ground-truth label for layer `layer` of `model`, if this kind applies.
    pub fn label_for_layer(self, model: &Model, layer: usize) -> Option<usize> {
        match (self, model.layers.get(layer)?) {
            (HpKind::Filters, Layer::Conv2D { filters, .. }) => self.encode(*filters),
            (HpKind::FilterSize, Layer::Conv2D { filter_size, .. }) => self.encode(*filter_size),
            (HpKind::Stride, Layer::Conv2D { stride, .. }) => self.encode(*stride),
            (HpKind::Neurons, Layer::Dense { units, .. }) => self.encode(*units),
            (HpKind::Filters, Layer::Residual { filters, .. }) => self.encode(*filters),
            (HpKind::FilterSize, Layer::Residual { filter_size, .. }) => self.encode(*filter_size),
            (HpKind::Filters, Layer::SeparableConv2D { filters, .. }) => self.encode(*filters),
            (HpKind::FilterSize, Layer::SeparableConv2D { filter_size, .. }) => {
                self.encode(*filter_size)
            }
            (HpKind::Stride, Layer::SeparableConv2D { stride, .. }) => self.encode(*stride),
            // The attention width lives in the neuron space (powers of two).
            (HpKind::Neurons, Layer::Attention { dim }) => self.encode(*dim),
            _ => None,
        }
    }
}

/// Index of the last sample of layer `layer`'s forward region: the end of
/// the first run of the layer's samples, tolerating short interruptions by
/// unlabeled (NOP) samples.
pub fn forward_last_sample(
    layer_indices: impl IntoIterator<Item = Option<usize>>,
    layer: usize,
) -> Option<usize> {
    let mut last = None;
    let mut interruptions = 0usize;
    for (i, li) in layer_indices.into_iter().enumerate() {
        match li {
            Some(l) if l == layer => {
                last = Some(i);
                interruptions = 0;
            }
            None if last.is_some() => {
                interruptions += 1;
                if interruptions > 2 {
                    break;
                }
            }
            Some(_) if last.is_some() => break,
            _ => {}
        }
    }
    last
}

/// The trained `Mhp` head for one hyper-parameter kind.
#[derive(Debug, Clone)]
pub struct HpModel {
    kind: HpKind,
    clf: SequenceClassifier,
}

impl HpModel {
    /// Trains a head on `(trace, model, iteration ranges)` triples.
    ///
    /// For per-layer kinds, the label goes on the *last sample* of each
    /// applicable layer within an iteration; for the optimizer kind, on the
    /// optimizer-apply samples. Everything else is masked.
    ///
    /// # Panics
    ///
    /// Panics if no labeled sample exists in the training data.
    pub fn train(
        kind: HpKind,
        data: &[(&LabeledTrace, &Model, &[std::ops::Range<usize>])],
        scaler: &MinMaxScaler,
        config: &LstmTrainConfig,
    ) -> Self {
        let mut examples = Vec::new();
        let mut labeled = 0usize;
        for (trace, model, ranges) in data {
            for r in ranges.iter() {
                let samples = &trace.samples[r.clone()];
                let features = trace.prepared(r.clone(), scaler);
                let mut labels = vec![0usize; samples.len()];
                let mut mask = vec![false; samples.len()];
                match kind {
                    HpKind::Optimizer => {
                        let class = HpKind::optimizer_class(model.optimizer);
                        for (i, s) in samples.iter().enumerate() {
                            if s.class == OpClass::Optimizer {
                                labels[i] = class;
                                mask[i] = true;
                                labeled += 1;
                            }
                        }
                    }
                    _ => {
                        // Last sample of each layer's *forward* region (the
                        // first contiguous run of the layer's samples); the
                        // attack queries the parser's forward positions, so
                        // training labels must sit there too, not at the
                        // layer's back-propagation tail.
                        for (layer_idx, _) in model.layers.iter().enumerate() {
                            let Some(class) = kind.label_for_layer(model, layer_idx) else {
                                continue;
                            };
                            if let Some(last) = forward_last_sample(
                                samples.iter().map(|s| s.layer_index),
                                layer_idx,
                            ) {
                                labels[last] = class;
                                mask[last] = true;
                                labeled += 1;
                            }
                        }
                    }
                }
                examples.push(SeqExample::with_mask(features, labels, mask));
            }
        }
        assert!(labeled > 0, "no labeled samples for {:?}", kind);
        let mut cfg = SeqClassifierConfig::new(
            2 * crate::dataset::FEATURE_WIDTH,
            config.hidden,
            kind.classes(),
        );
        cfg.epochs = config.epochs;
        cfg.learning_rate = config.learning_rate;
        cfg.seed = config.seed ^ (kind as u64).wrapping_mul(0x9e37);
        cfg.batch_size = config.batch_size;
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&examples);
        HpModel { kind, clf }
    }

    /// The hyper-parameter kind this head predicts.
    pub fn kind(&self) -> HpKind {
        self.kind
    }

    /// Predicts classes for the whole iteration (callers pick positions).
    pub fn predict(&self, features: &[Vec<f32>], scaler: &MinMaxScaler) -> Vec<usize> {
        self.clf
            .predict(&with_lookahead(&scaler.transform(features)))
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
    fn index_is_position_in_all() {
        for (i, k) in HpKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{:?}", k);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for k in HpKind::ALL {
            for c in 0..k.classes() {
                let v = k.decode(c);
                assert_eq!(k.encode(v), Some(c), "{:?} class {}", k, c);
            }
        }
    }

    #[test]
    fn encode_rejects_out_of_space_values() {
        assert_eq!(HpKind::Filters.encode(100), None); // not a power of two
        assert_eq!(HpKind::Filters.encode(32), None); // below range
        assert_eq!(HpKind::Neurons.encode(32768), None); // above range
        assert_eq!(HpKind::FilterSize.encode(4), None); // even
        assert_eq!(HpKind::FilterSize.encode(15), None); // too large
        assert_eq!(HpKind::Stride.encode(0), None);
        assert_eq!(HpKind::Stride.encode(5), None);
    }

    #[test]
    fn paper_hp_spaces() {
        assert_eq!(HpKind::Filters.decode(0), 64);
        assert_eq!(HpKind::Filters.decode(6), 4096);
        assert_eq!(HpKind::Neurons.decode(8), 16384);
        assert_eq!(HpKind::FilterSize.decode(6), 13);
        assert_eq!(HpKind::Stride.decode(3), 4);
    }

    #[test]
    fn optimizer_class_round_trip() {
        for o in Optimizer::ALL {
            assert_eq!(HpKind::class_optimizer(HpKind::optimizer_class(o)), o);
        }
    }

    #[test]
    fn label_for_layer_respects_kind() {
        let model = dnn_sim::zoo::alexnet();
        // Layer 0 is conv(11, 96, 4) — but 96 is not a power of two, so the
        // filters label is None (outside the profiled space), while filter
        // size and stride encode fine.
        assert_eq!(HpKind::FilterSize.label_for_layer(&model, 0), Some(5));
        assert_eq!(HpKind::Stride.label_for_layer(&model, 0), Some(3));
        assert_eq!(HpKind::Filters.label_for_layer(&model, 0), None);
        assert_eq!(HpKind::Neurons.label_for_layer(&model, 0), None);
        // Layer 8 is dense(4096).
        assert_eq!(HpKind::Neurons.label_for_layer(&model, 8), Some(6));
    }
}
