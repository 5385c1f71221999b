//! Labeled datasets: aligning spy samples with the victim's ground-truth
//! timeline (profiling phase, §V-A), scaling features, and slicing sample
//! streams into iterations.

use dnn_sim::{parse_op_tag, OpClass, OpKind};
use gpu_sim::dominant_tag;
use ml::MinMaxScaler;
use serde::{Deserialize, Serialize};

use crate::stream::SegmentSplitter;
use crate::trace::RawTrace;

/// Width of the model feature vectors produced by [`counter_features`].
pub const FEATURE_WIDTH: usize = 13;

/// Converts a raw 10-counter vector into model features: `ln(1 + x)` per
/// counter, plus three scale-invariant ratios (texture/read, write/read and
/// L2-write/L2-read shares). The counters are heavy-tailed (idle-drain
/// windows reach 10^5 sectors while element-wise penalties sit around 10^2);
/// without the log, MinMax scaling crushes everything informative into a
/// sliver near zero, and the ratios expose op *type* independently of layer
/// *size*.
pub fn counter_features(raw: &[f32]) -> Vec<f32> {
    assert_eq!(raw.len(), 10, "expected the 10 Table IV counters");
    let mut out: Vec<f32> = raw.iter().map(|&v| (1.0 + v.max(0.0)).ln()).collect();
    let tex = raw[0] + raw[1];
    let rd = raw[2] + raw[3];
    let wr = raw[4] + raw[5];
    let l2r = raw[6] + raw[7];
    let l2w = raw[8] + raw[9];
    out.push(tex / (rd + 1.0));
    out.push(wr / (rd + 1.0));
    out.push(l2w / (l2r + 1.0));
    debug_assert_eq!(out.len(), FEATURE_WIDTH);
    out
}

/// One spy sample with ground-truth annotation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledSample {
    /// Log-scaled 10-dimensional counter vector (see [`counter_features`]).
    pub features: Vec<f32>,
    /// Ground-truth op class (`Nop` when no victim op overlapped).
    pub class: OpClass,
    /// Ground-truth op kind, when an op overlapped.
    pub kind: Option<OpKind>,
    /// Model layer the dominant op belonged to.
    pub layer_index: Option<usize>,
    /// Window start (microseconds) — kept for iteration slicing.
    pub start_us: f64,
}

/// A fully labeled trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabeledTrace {
    /// Samples in time order.
    pub samples: Vec<LabeledSample>,
    /// Name of the victim model (for bookkeeping).
    pub model_name: String,
}

impl LabeledTrace {
    /// Labels every sample of a raw trace against its victim timeline using
    /// the paper's largest-overlap rule.
    pub fn from_raw(raw: &RawTrace, model_name: impl Into<String>) -> Self {
        let samples = raw
            .samples
            .iter()
            .map(|s| {
                let tag = dominant_tag(&raw.victim_log, s.start_us, s.end_us);
                let (class, kind, layer_index) = match tag {
                    Some(t) => {
                        let (name, layer) = parse_op_tag(t);
                        match OpKind::from_op_name(name) {
                            Some(k) => (k.class(), Some(k), layer),
                            None => (OpClass::Nop, None, None),
                        }
                    }
                    None => (OpClass::Nop, None, None),
                };
                LabeledSample {
                    features: counter_features(&s.to_features()),
                    class,
                    kind,
                    layer_index,
                    start_us: s.start_us,
                }
            })
            .collect();
        LabeledTrace {
            samples,
            model_name: model_name.into(),
        }
    }

    /// Splits the trace into iterations using the **ground-truth** NOP
    /// labels (available to the adversary in the profiling phase; the attack
    /// phase uses `Mgap` instead). An iteration boundary is a run of at
    /// least `th_gap` consecutive NOP samples.
    pub fn split_iterations_ground_truth(&self, th_gap: usize) -> Vec<std::ops::Range<usize>> {
        SegmentSplitter::segments(self.samples.iter().map(|s| s.class == OpClass::Nop), th_gap)
    }

    /// The op models' input rows for the samples in `range`: each sample
    /// MinMax-scaled, then extended with its successor
    /// ([`with_lookahead`]).
    pub fn prepared(&self, range: std::ops::Range<usize>, scaler: &MinMaxScaler) -> Vec<Vec<f32>> {
        let scaled: Vec<Vec<f32>> = self.samples[range]
            .iter()
            .map(|s| scaler.transform_row(&s.features))
            .collect();
        with_lookahead(&scaled)
    }

    /// Per-class sample counts (diagnostics and Table VI denominators).
    pub fn class_counts(&self) -> Vec<(OpClass, usize)> {
        OpClass::ALL
            .iter()
            .map(|&c| (c, self.samples.iter().filter(|s| s.class == c).count()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

/// Drops segments whose length is outside `[r_min, r_max]` times the
/// typical segment length — the paper's incomplete-iteration filter (§IV-A).
/// We use the median rather than the paper's average: a single truncated
/// segment otherwise drags the reference down far enough to reject every
/// complete iteration.
pub fn filter_valid_iterations(
    segments: Vec<std::ops::Range<usize>>,
    r_min: f64,
    r_max: f64,
) -> Vec<std::ops::Range<usize>> {
    if segments.is_empty() {
        return segments;
    }
    let mut lens: Vec<usize> = segments.iter().map(|s| s.len()).collect();
    lens.sort_unstable();
    let median = lens[lens.len() / 2] as f64;
    segments
        .into_iter()
        .filter(|s| {
            let l = s.len() as f64;
            l >= median * r_min && l <= median * r_max
        })
        .collect()
}

/// Augments each scaled feature row with the next row (one-step lookahead):
/// the op classifiers' LSTM is unidirectional, and the sample *after* an op
/// boundary often carries the op's penalty readings. The final row repeats
/// itself as its own lookahead.
pub fn with_lookahead(scaled: &[Vec<f32>]) -> Vec<Vec<f32>> {
    scaled
        .iter()
        .enumerate()
        .map(|(i, cur)| lookahead_row(cur, scaled.get(i + 1).unwrap_or(cur)))
        .collect()
}

/// One prepared row: a scaled sample followed by its lookahead neighbour.
/// Every prepared row, batch or streamed, is built here.
pub(crate) fn lookahead_row(cur: &[f32], next: &[f32]) -> Vec<f32> {
    let mut row = Vec::with_capacity(cur.len() + next.len());
    row.extend_from_slice(cur);
    row.extend_from_slice(next);
    row
}

/// Fits the MinMax scaler over every sample of the given traces (§IV-A
/// pre-processing).
pub fn fit_scaler(traces: &[&LabeledTrace]) -> MinMaxScaler {
    let rows: Vec<Vec<f32>> = traces
        .iter()
        .flat_map(|t| t.samples.iter().map(|s| s.features.clone()))
        .collect();
    MinMaxScaler::fit(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_valid_iterations_drops_outliers() {
        let segs = vec![0..10, 10..20, 20..23, 23..33];
        // Median length = 10; the truncated 3-sample segment is dropped.
        let kept = filter_valid_iterations(segs, 0.8, 1.2);
        assert_eq!(kept, vec![0..10, 10..20, 23..33]);
    }

    #[test]
    fn filter_empty_is_empty() {
        assert!(filter_valid_iterations(vec![], 0.8, 1.2).is_empty());
    }

    #[test]
    fn labeled_trace_from_tiny_run() {
        use crate::trace::{collect_trace, CollectionConfig};
        use dnn_sim::{TrainingConfig, TrainingSession};
        let model = dnn_sim::Model::new(
            "t",
            dnn_sim::InputSpec::Image {
                height: 16,
                width: 16,
                channels: 3,
            },
            vec![dnn_sim::Layer::dense(32, dnn_sim::Activation::Relu)],
            dnn_sim::Optimizer::Gd,
        );
        let session = TrainingSession::new(model, TrainingConfig::new(4, 2));
        let raw = collect_trace(
            &session,
            &CollectionConfig::paper(),
            &gpu_sim::GpuConfig::gtx_1080_ti(),
        );
        let labeled = LabeledTrace::from_raw(&raw, "t");
        assert_eq!(labeled.samples.len(), raw.samples.len());
        // Both busy and NOP samples must exist.
        assert!(labeled.samples.iter().any(|s| s.class == OpClass::Nop));
        assert!(labeled.samples.iter().any(|s| s.class == OpClass::MatMul));
        // Ground-truth iteration splitting finds the two iterations.
        let iters = labeled.split_iterations_ground_truth(6);
        assert_eq!(iters.len(), 2, "{:?}", iters);
        // Scaler fits without panicking and produces unit-range features.
        let scaler = fit_scaler(&[&labeled]);
        let t = scaler.transform_row(&labeled.samples[0].features);
        assert!(t.iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
