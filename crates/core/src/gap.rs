//! `Mgap` — iteration splitting (§IV-A).
//!
//! A LightGBM-style GBDT classifies each MinMax-scaled sample into `NOP` or
//! `BUSY`; iterations are split wherever at least `TH_gap` consecutive `NOP`
//! samples occur, and iterations whose sample count falls outside
//! `[R_min, R_max]` x the median are discarded as incomplete.

use dnn_sim::OpClass;
use ml::gbdt::{GbdtBinaryClassifier, GbdtConfig};
use ml::MinMaxScaler;
use serde::{Deserialize, Serialize};

use crate::dataset::{filter_valid_iterations, LabeledTrace};
use crate::stream::SegmentSplitter;

/// Splitting parameters (§V-A: `TH_gap = 6`, `R_min = 0.8`, `R_max = 1.2`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapConfig {
    /// Minimum consecutive NOP samples that constitute an iteration gap.
    pub th_gap: usize,
    /// Minimum iteration length as a ratio of the median.
    pub r_min: f64,
    /// Maximum iteration length as a ratio of the median.
    pub r_max: f64,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            th_gap: 6,
            r_min: 0.8,
            r_max: 1.2,
        }
    }
}

/// Per-class evaluation of the splitter (Table VI rows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapEvaluation {
    /// Ground-truth NOP sample count.
    pub nop_total: usize,
    /// Correctly identified NOP samples.
    pub nop_correct: usize,
    /// Ground-truth BUSY sample count.
    pub busy_total: usize,
    /// Correctly identified BUSY samples.
    pub busy_correct: usize,
}

impl GapEvaluation {
    /// NOP recall.
    pub fn nop_accuracy(&self) -> f64 {
        if self.nop_total == 0 {
            0.0
        } else {
            self.nop_correct as f64 / self.nop_total as f64
        }
    }

    /// BUSY recall.
    pub fn busy_accuracy(&self) -> f64 {
        if self.busy_total == 0 {
            0.0
        } else {
            self.busy_correct as f64 / self.busy_total as f64
        }
    }
}

/// The trained gap detector.
#[derive(Debug, Clone)]
pub struct GapModel {
    gbdt: GbdtBinaryClassifier,
    config: GapConfig,
}

/// The context-augmented feature row of one scaled sample: its previous
/// neighbour, itself and its next neighbour (`None` = stream edge,
/// zero-padded). An iteration gap is a *run* of quiet samples, so the
/// neighbourhood carries most of the discriminating power, and one sample of
/// lookahead is all the incremental splitter needs to evaluate it.
fn context_row(prev: Option<&[f32]>, cur: &[f32], next: Option<&[f32]>) -> Vec<f32> {
    let width = cur.len();
    let mut row = Vec::with_capacity(3 * width);
    match prev {
        Some(prev) => row.extend_from_slice(prev),
        None => row.extend(std::iter::repeat_n(0.0, width)),
    }
    row.extend_from_slice(cur);
    match next {
        Some(next) => row.extend_from_slice(next),
        None => row.extend(std::iter::repeat_n(0.0, width)),
    }
    row
}

/// Every row of a whole scaled stream with its [`context_row`] neighbours.
fn neighbourhoods(
    scaled: &[Vec<f32>],
) -> impl Iterator<Item = (Option<&[f32]>, &[f32], Option<&[f32]>)> {
    scaled.iter().enumerate().map(|(i, cur)| {
        let prev = i.checked_sub(1).and_then(|j| scaled.get(j));
        (
            prev.map(Vec::as_slice),
            cur.as_slice(),
            scaled.get(i + 1).map(Vec::as_slice),
        )
    })
}

impl GapModel {
    /// Trains on labeled profiling traces (true = NOP).
    ///
    /// # Panics
    ///
    /// Panics if the traces contain no samples.
    pub fn train(traces: &[&LabeledTrace], scaler: &MinMaxScaler, config: GapConfig) -> Self {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for t in traces {
            let scaled: Vec<Vec<f32>> = t
                .samples
                .iter()
                .map(|s| scaler.transform_row(&s.features))
                .collect();
            rows.extend(neighbourhoods(&scaled).map(|(p, c, n)| context_row(p, c, n)));
            labels.extend(t.samples.iter().map(|s| s.class == OpClass::Nop));
        }
        let gbdt = GbdtBinaryClassifier::fit(
            &rows,
            &labels,
            &GbdtConfig {
                rounds: 40,
                ..GbdtConfig::default()
            },
        );
        GapModel { gbdt, config }
    }

    /// The splitting parameters.
    pub fn config(&self) -> GapConfig {
        self.config
    }

    /// Predicts the NOP flag for one position given its already-scaled
    /// neighbourhood (`None` = stream edge). The batch flags evaluate it at
    /// every position of a whole trace, and the streaming splitter decides
    /// each sample with one sample of lookahead (see [`crate::stream`]).
    pub fn predict_nop_scaled(
        &self,
        prev: Option<&[f32]>,
        cur: &[f32],
        next: Option<&[f32]>,
    ) -> bool {
        self.gbdt.predict(&context_row(prev, cur, next))
    }

    /// The NOP flag of every row of a whole scaled stream.
    fn nop_flags<'s>(&'s self, scaled: &'s [Vec<f32>]) -> impl Iterator<Item = bool> + 's {
        neighbourhoods(scaled).map(|(prev, cur, next)| self.predict_nop_scaled(prev, cur, next))
    }

    /// Splits a raw (unscaled) sample stream into valid iterations: predict
    /// NOPs, split on `TH_gap` runs, drop out-of-band segments.
    pub fn split_iterations(
        &self,
        features: &[Vec<f32>],
        scaler: &MinMaxScaler,
    ) -> Vec<std::ops::Range<usize>> {
        self.split_scaled(&scaler.transform(features))
    }

    /// [`GapModel::split_iterations`] over rows the caller already scaled.
    pub(crate) fn split_scaled(&self, scaled: &[Vec<f32>]) -> Vec<std::ops::Range<usize>> {
        let segments = SegmentSplitter::segments(self.nop_flags(scaled), self.config.th_gap);
        filter_valid_iterations(segments, self.config.r_min, self.config.r_max)
    }

    /// Evaluates NOP/BUSY recall against ground truth (Table VI).
    pub fn evaluate(&self, trace: &LabeledTrace, scaler: &MinMaxScaler) -> GapEvaluation {
        let mut eval = GapEvaluation {
            nop_total: 0,
            nop_correct: 0,
            busy_total: 0,
            busy_correct: 0,
        };
        let scaled: Vec<Vec<f32>> = trace
            .samples
            .iter()
            .map(|s| scaler.transform_row(&s.features))
            .collect();
        for (s, pred_nop) in trace.samples.iter().zip(self.nop_flags(&scaled)) {
            if s.class == OpClass::Nop {
                eval.nop_total += 1;
                if pred_nop {
                    eval.nop_correct += 1;
                }
            } else {
                eval.busy_total += 1;
                if !pred_nop {
                    eval.busy_correct += 1;
                }
            }
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::fit_scaler;
    use crate::trace::{collect_trace, CollectionConfig};
    use dnn_sim::{
        Activation, InputSpec, Layer, Model, Optimizer, TrainingConfig, TrainingSession,
    };
    use gpu_sim::GpuConfig;

    fn mlp_trace(units: usize, iterations: usize, seed: u64) -> LabeledTrace {
        let model = Model::new(
            format!("mlp{}", units),
            InputSpec::Image {
                height: 16,
                width: 16,
                channels: 3,
            },
            vec![
                Layer::dense(units, Activation::Relu),
                Layer::dense(units / 2, Activation::Tanh),
            ],
            Optimizer::Gd,
        );
        let session = TrainingSession::new(model, TrainingConfig::new(32, iterations));
        let raw = collect_trace(
            &session,
            &CollectionConfig::paper().with_seed(seed),
            &GpuConfig::gtx_1080_ti(),
        );
        LabeledTrace::from_raw(&raw, format!("mlp{}", units))
    }

    #[test]
    fn gap_model_splits_iterations_accurately() {
        let train = mlp_trace(768, 4, 11);
        let test = mlp_trace(1024, 4, 77);
        let scaler = fit_scaler(&[&train]);
        let model = GapModel::train(&[&train], &scaler, GapConfig::default());

        // Table VI: both NOP and BUSY recall should be high.
        let eval = model.evaluate(&test, &scaler);
        assert!(eval.nop_total > 0 && eval.busy_total > 0);
        assert!(
            eval.nop_accuracy() > 0.85,
            "NOP recall {}",
            eval.nop_accuracy()
        );
        assert!(
            eval.busy_accuracy() > 0.80,
            "BUSY recall {}",
            eval.busy_accuracy()
        );

        // And it should find the right number of iterations.
        let features: Vec<Vec<f32>> = test.samples.iter().map(|s| s.features.clone()).collect();
        let iters = model.split_iterations(&features, &scaler);
        assert!(
            (3..=4).contains(&iters.len()),
            "expected ~4 iterations, got {:?}",
            iters.len()
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = GapConfig::default();
        assert_eq!(c.th_gap, 6);
        assert_eq!(c.r_min, 0.8);
        assert_eq!(c.r_max, 1.2);
    }
}
