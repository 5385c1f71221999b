//! OpSeq assembly and layer reconstruction.
//!
//! Merges `Mlong`/`Mop` per-sample predictions into a single class stream,
//! collapses consecutive identical predictions (§IV-B "Collapsing ops"), and
//! parses the *forward-pass prefix* into layers: a `conv` followed by
//! `BiasAdd` and an activation is a convolutional layer, a `MatMul` group is
//! a fully-connected layer, `Pool` stands alone (§IV "combinations of
//! consecutive ops can be deterministically mapped to layers"). One grammar,
//! [`parse_forward_layers_zoo`], serves every vocabulary: parsing stops at
//! the estimated start of back-propagation ([`forward_boundary`]) and skips
//! stray runs that cannot start a layer.

use dnn_sim::{Activation, OpClass};
use serde::{Deserialize, Serialize};

use crate::long_ops::LongClass;
use crate::other_ops::OtherClass;

/// Merges the two classifiers: long classes pass through, `Other` positions
/// take `Mop`'s refined prediction.
///
/// # Panics
///
/// Panics if the sequences have different lengths.
pub fn merge_predictions(long: &[LongClass], other: &[OtherClass]) -> Vec<OpClass> {
    assert_eq!(long.len(), other.len(), "prediction length mismatch");
    long.iter()
        .zip(other)
        .map(|(&l, &o)| match l {
            LongClass::Conv => OpClass::Conv,
            LongClass::MatMul => OpClass::MatMul,
            LongClass::Nop => OpClass::Nop,
            LongClass::Other => o.op_class(),
        })
        .collect()
}

/// A collapsed run of identical predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRun {
    /// The class of the run.
    pub class: OpClass,
    /// First sample index (inclusive).
    pub start: usize,
    /// Last sample index (inclusive).
    pub end: usize,
}

/// Collapses consecutive identical classes into runs, dropping NOP runs
/// (short NOPs occur inside iterations, §IV-A).
pub fn collapse(classes: &[OpClass]) -> Vec<OpRun> {
    let mut runs: Vec<OpRun> = Vec::new();
    for (i, &c) in classes.iter().enumerate() {
        if c == OpClass::Nop {
            continue;
        }
        // A run continues when only NOPs separate this sample from the
        // previous same-class sample.
        if let Some(last) = runs.last_mut() {
            if last.class == c && classes[last.end + 1..i].iter().all(|&x| x == OpClass::Nop) {
                last.end = i;
                continue;
            }
        }
        runs.push(OpRun {
            class: c,
            start: i,
            end: i,
        });
    }
    runs
}

/// The kind of a recovered layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveredKind {
    /// Convolutional layer.
    Conv,
    /// Fully-connected layer.
    Dense,
    /// Pooling layer.
    Pool,
    /// Depthwise-separable convolution (depthwise + pointwise pair).
    Separable,
    /// Attention block (MatMul–Softmax–MatMul with LayerNorm).
    Attention,
}

impl RecoveredKind {
    /// Single-letter code (Table IX).
    pub fn letter(self) -> char {
        match self {
            RecoveredKind::Conv => 'C',
            RecoveredKind::Dense => 'M',
            RecoveredKind::Pool => 'P',
            RecoveredKind::Separable => 'D',
            RecoveredKind::Attention => 'A',
        }
    }
}

/// One recovered layer with optional hyper-parameters (filled in by the
/// hyper-parameter stage and the syntax corrector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveredLayer {
    /// Layer kind.
    pub kind: RecoveredKind,
    /// Recovered activation (`None` renders as the paper's red `X`).
    pub activation: Option<Activation>,
    /// Last sample index of the layer's forward region (where `Mhp` reads
    /// its prediction).
    pub last_sample: usize,
    /// Filter side (conv) — from `Mhp`.
    pub filter_size: Option<usize>,
    /// Filter count (conv) — from `Mhp`.
    pub filters: Option<usize>,
    /// Stride (conv) — from `Mhp`.
    pub stride: Option<usize>,
    /// Neuron count (dense) — from `Mhp`.
    pub units: Option<usize>,
}

impl RecoveredLayer {
    fn new(kind: RecoveredKind, activation: Option<Activation>, last_sample: usize) -> Self {
        RecoveredLayer {
            kind,
            activation,
            last_sample,
            filter_size: None,
            filters: None,
            stride: None,
            units: None,
        }
    }

    /// The Table IX structure fragment, with `X` for unknown values.
    pub fn structure_fragment(&self) -> String {
        let act = self.activation.map(|a| a.letter()).unwrap_or('X');
        let num = |v: Option<usize>| v.map(|x| x.to_string()).unwrap_or_else(|| "X".to_owned());
        match self.kind {
            RecoveredKind::Conv => format!(
                "C{},{},{},{}",
                num(self.filter_size),
                num(self.filters),
                num(self.stride),
                act
            ),
            RecoveredKind::Dense => format!("M{},{}", num(self.units), act),
            RecoveredKind::Pool => "P".to_owned(),
            RecoveredKind::Separable => format!(
                "D{},{},{},{}",
                num(self.filter_size),
                num(self.filters),
                num(self.stride),
                act
            ),
            RecoveredKind::Attention => format!("A{}", num(self.units)),
        }
    }
}

fn act_of(class: OpClass) -> Option<Activation> {
    match class {
        OpClass::Relu => Some(Activation::Relu),
        OpClass::Tanh => Some(Activation::Tanh),
        OpClass::Sigmoid => Some(Activation::Sigmoid),
        _ => None,
    }
}

/// Estimates the sample index where back-propagation begins.
///
/// Every trainable layer's backward pass re-runs its long op with roughly
/// twice the forward cost (weight + input gradients), so the forward pass
/// owns about one third of all long-op samples; the boundary is where the
/// cumulative long count crosses that, extended through the current run and
/// the layer's trailing `BiasAdd`/activation samples.
pub fn forward_boundary(classes: &[OpClass]) -> usize {
    let total_long = classes.iter().filter(|c| c.is_long()).count();
    if total_long == 0 {
        return classes.len();
    }
    let target = ((total_long as f64) / 3.0).round().max(1.0) as usize;
    let mut seen = 0usize;
    let mut i = 0;
    while i < classes.len() {
        if classes[i].is_long() {
            seen += 1;
            if seen >= target {
                break;
            }
        }
        i += 1;
    }
    // Finish the current long run, then consume trailing BiasAdd/activation
    // (and interleaved NOP) samples belonging to the last forward layer.
    while i < classes.len() && classes[i].is_long() {
        i += 1;
    }
    // The zoo classes (`Add`/`Softmax`/`LayerNorm`) also trail a forward
    // layer — a residual merge or attention tail; classic traces never
    // contain them, so the classic boundary is unchanged.
    while i < classes.len()
        && matches!(
            classes[i],
            OpClass::BiasAdd
                | OpClass::Relu
                | OpClass::Tanh
                | OpClass::Sigmoid
                | OpClass::Nop
                | OpClass::Add
                | OpClass::Softmax
                | OpClass::LayerNorm
        )
    {
        i += 1;
    }
    i
}

/// A recovered skip connection: layers `from..=to` sit on a residual
/// branch whose input (the output of layer `from - 1`, or the model input
/// when `from == 0`) is element-wise added to the output of layer `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Skip {
    /// First layer index on the branch (inclusive).
    pub from: usize,
    /// Last layer index on the branch (inclusive) — the merge point.
    pub to: usize,
}

/// Recovered structure in graph form: the layer chain plus any skip edges.
/// Classic parses produce no skips, in which case the graph is exactly the
/// old linear chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveredGraph {
    /// The recovered layers in execution order.
    pub layers: Vec<RecoveredLayer>,
    /// Skip edges over `layers` (empty for linear chains).
    pub skips: Vec<Skip>,
}

impl RecoveredGraph {
    /// Wraps a linear chain (no skip edges).
    pub fn linear(layers: Vec<RecoveredLayer>) -> Self {
        RecoveredGraph {
            layers,
            skips: Vec::new(),
        }
    }
}

/// Forward parse of a collapsed run sequence, in graph form.
///
/// Only runs that start before `boundary` (from [`forward_boundary`]) are
/// parsed, and a run that cannot start a layer is skipped rather than
/// ending the parse — a single misclassified sample does not truncate the
/// structure. Grammar (greedy):
///
/// - `Conv [BiasAdd] [act]` → conv layer; `MatMul [BiasAdd] [act]` → dense
///   layer; `Pool` → pooling layer;
/// - `MatMul Softmax [MatMul] [LayerNorm]` → one attention layer;
/// - `Depthwise [Conv] [BiasAdd] [act]` → one separable-conv layer (the
///   pointwise `Conv` is part of the layer, not a layer of its own);
/// - an `Add` run closes a residual branch: the trailing activation-less
///   conv layers (plus the activated conv that opened the block) become the
///   branch of a [`Skip`] edge, and the post-merge activation attaches to
///   the merge-point layer.
///
/// A classic trace (no `Add`, `Softmax`, `LayerNorm` or `Depthwise` run)
/// yields only conv, dense and pooling layers and no skip edges.
pub fn parse_forward_layers_zoo(runs: &[OpRun], boundary: usize) -> RecoveredGraph {
    let mut layers: Vec<RecoveredLayer> = Vec::new();
    let mut skips = Vec::new();
    let mut i = 0;
    while i < runs.len() && runs[i].start < boundary {
        match runs[i].class {
            OpClass::MatMul
                if i + 1 < runs.len()
                    && runs[i + 1].start < boundary
                    && runs[i + 1].class == OpClass::Softmax =>
            {
                // Attention block: scores MatMul, Softmax, values MatMul,
                // LayerNorm (the tail ops tolerate dropout under faults).
                let mut last = runs[i + 1].end;
                i += 2;
                if i < runs.len() && runs[i].start < boundary && runs[i].class == OpClass::MatMul {
                    last = runs[i].end;
                    i += 1;
                }
                if i < runs.len() && runs[i].start < boundary && runs[i].class == OpClass::LayerNorm
                {
                    last = runs[i].end;
                    i += 1;
                }
                layers.push(RecoveredLayer::new(RecoveredKind::Attention, None, last));
            }
            OpClass::Conv | OpClass::MatMul => {
                let kind = if runs[i].class == OpClass::Conv {
                    RecoveredKind::Conv
                } else {
                    RecoveredKind::Dense
                };
                let mut last = runs[i].end;
                i += 1;
                if i < runs.len() && runs[i].start < boundary && runs[i].class == OpClass::BiasAdd {
                    last = runs[i].end;
                    i += 1;
                }
                let mut activation = None;
                if i < runs.len() && runs[i].start < boundary {
                    if let Some(a) = act_of(runs[i].class) {
                        activation = Some(a);
                        last = runs[i].end;
                        i += 1;
                    }
                }
                layers.push(RecoveredLayer::new(kind, activation, last));
            }
            OpClass::Depthwise => {
                // Separable conv: depthwise, then the pointwise 1x1 conv,
                // bias and activation all belong to the same layer.
                let mut last = runs[i].end;
                i += 1;
                if i < runs.len() && runs[i].start < boundary && runs[i].class == OpClass::Conv {
                    last = runs[i].end;
                    i += 1;
                }
                if i < runs.len() && runs[i].start < boundary && runs[i].class == OpClass::BiasAdd {
                    last = runs[i].end;
                    i += 1;
                }
                let mut activation = None;
                if i < runs.len() && runs[i].start < boundary {
                    if let Some(a) = act_of(runs[i].class) {
                        activation = Some(a);
                        last = runs[i].end;
                        i += 1;
                    }
                }
                layers.push(RecoveredLayer::new(
                    RecoveredKind::Separable,
                    activation,
                    last,
                ));
            }
            OpClass::Pool => {
                layers.push(RecoveredLayer::new(RecoveredKind::Pool, None, runs[i].end));
                i += 1;
            }
            OpClass::Add => {
                let mut last = runs[i].end;
                i += 1;
                // The residual's final activation runs after the merge.
                let mut activation = None;
                if i < runs.len() && runs[i].start < boundary {
                    if let Some(a) = act_of(runs[i].class) {
                        activation = Some(a);
                        last = runs[i].end;
                        i += 1;
                    }
                }
                if let Some(to) = layers.len().checked_sub(1) {
                    if layers[to].kind == RecoveredKind::Conv {
                        // Walk back over the branch: its inner convs carry
                        // no post-activation (it runs after the merge);
                        // the activated conv before them opened the block.
                        let mut from = to;
                        while from > 0
                            && layers[from].kind == RecoveredKind::Conv
                            && layers[from].activation.is_none()
                            && layers[from - 1].kind == RecoveredKind::Conv
                        {
                            from -= 1;
                            if layers[from].activation.is_some() {
                                break;
                            }
                        }
                        skips.push(Skip { from, to });
                        if let Some(a) = activation {
                            layers[to].activation = Some(a);
                            layers[to].last_sample = last;
                        }
                    }
                }
            }
            _ => i += 1, // skip a stray run instead of aborting
        }
    }
    RecoveredGraph { layers, skips }
}

/// The layers of [`parse_forward_layers_zoo`], without the skip edges.
///
/// Kept only because the benchmark's bitwise replica of the attack path
/// imports it; new code should call [`parse_forward_layers_zoo`].
pub fn parse_forward_layers_lenient(runs: &[OpRun], boundary: usize) -> Vec<RecoveredLayer> {
    parse_forward_layers_zoo(runs, boundary).layers
}

/// Formats a recovered structure as the paper's Table IX strings, e.g.
/// `C3,64,1,R-P-M4096,X-OptimizerAdam`.
pub fn structure_string(
    layers: &[RecoveredLayer],
    optimizer: Option<dnn_sim::Optimizer>,
) -> String {
    let mut parts: Vec<String> = layers
        .iter()
        .map(RecoveredLayer::structure_fragment)
        .collect();
    parts.push(match optimizer {
        Some(o) => format!("Optimizer{}", o.name()),
        None => "OptimizerX".to_owned(),
    });
    parts.join("-")
}

#[cfg(test)]
mod tests {
    use super::*;
    use OpClass::{BiasAdd, Conv, MatMul, Nop, Pool, Relu, Sigmoid, Tanh};

    #[test]
    fn merge_takes_refined_other_classes() {
        let long = vec![
            LongClass::Conv,
            LongClass::Other,
            LongClass::Nop,
            LongClass::Other,
        ];
        let other = vec![
            OtherClass::Pool, // ignored: long says Conv
            OtherClass::BiasAdd,
            OtherClass::Relu, // ignored: long says Nop
            OtherClass::Tanh,
        ];
        assert_eq!(
            merge_predictions(&long, &other),
            vec![Conv, BiasAdd, Nop, Tanh]
        );
    }

    #[test]
    fn collapse_merges_runs_and_drops_nops() {
        let classes = vec![Conv, Conv, Nop, Conv, BiasAdd, Relu, Relu, Nop, Nop, MatMul];
        let runs = collapse(&classes);
        let summary: Vec<(OpClass, usize, usize)> =
            runs.iter().map(|r| (r.class, r.start, r.end)).collect();
        // The Conv run continues across the single interleaved NOP.
        assert_eq!(
            summary,
            vec![(Conv, 0, 3), (BiasAdd, 4, 4), (Relu, 5, 6), (MatMul, 9, 9)]
        );
    }

    #[test]
    fn collapse_restarts_run_after_other_class() {
        let classes = vec![Conv, BiasAdd, Conv];
        let runs = collapse(&classes);
        assert_eq!(runs.len(), 3);
        assert_eq!(
            runs[2],
            OpRun {
                class: Conv,
                start: 2,
                end: 2
            }
        );
    }

    #[test]
    fn parse_stops_at_backward_boundary() {
        // Forward: C B R | P | M B R — then backward begins with ReLU's
        // grad collapsed into the forward R, so the next run is B.
        let classes = vec![
            Conv, BiasAdd, Relu, Pool, MatMul, BiasAdd,
            Relu, // forward (last R merges w/ grad)
            BiasAdd, MatMul, MatMul, Pool, Relu, BiasAdd, Conv, // backward
        ];
        let runs = collapse(&classes);
        let layers = parse_forward_layers_zoo(&runs, 7).layers;
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0].kind, RecoveredKind::Conv);
        assert_eq!(layers[0].activation, Some(Activation::Relu));
        assert_eq!(layers[1].kind, RecoveredKind::Pool);
        assert_eq!(layers[2].kind, RecoveredKind::Dense);
        // Layer boundaries carry the last forward sample index.
        assert_eq!(layers[0].last_sample, 2);
        assert_eq!(layers[2].last_sample, 6);
        // The boundary is what ends the parse: without it the backward
        // runs parse as further layers.
        assert!(parse_forward_layers_zoo(&runs, usize::MAX).layers.len() > 3);
    }

    #[test]
    fn parse_tolerates_missing_bias_or_activation() {
        let classes = vec![Conv, Relu, MatMul, BiasAdd, Tanh];
        let layers = parse_forward_layers_zoo(&collapse(&classes), classes.len()).layers;
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].activation, Some(Activation::Relu));
        assert_eq!(layers[1].activation, Some(Activation::Tanh));
        assert_eq!(layers[1].last_sample, 4);
    }

    #[test]
    fn parse_keeps_first_bare_dense_layer() {
        // VGG-style: convs then a bare MatMul whose BiasAdd/act were too
        // short to sample — the dense layer is kept without an activation.
        let classes = vec![Conv, BiasAdd, Relu, Pool, MatMul, MatMul];
        let layers = parse_forward_layers_zoo(&collapse(&classes), classes.len()).layers;
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[2].kind, RecoveredKind::Dense);
        assert_eq!(layers[2].activation, None);
        assert_eq!(layers[2].last_sample, 5);
    }

    #[test]
    fn mlp_parse() {
        let classes = vec![
            MatMul, BiasAdd, Relu, MatMul, BiasAdd, Tanh, MatMul, BiasAdd, Sigmoid,
            // backward
            BiasAdd, MatMul, MatMul,
        ];
        let layers = parse_forward_layers_zoo(&collapse(&classes), 9).layers;
        assert_eq!(layers.len(), 3);
        assert!(layers.iter().all(|l| l.kind == RecoveredKind::Dense));
        let acts: Vec<_> = layers.iter().map(|l| l.activation).collect();
        assert_eq!(
            acts,
            vec![
                Some(Activation::Relu),
                Some(Activation::Tanh),
                Some(Activation::Sigmoid)
            ]
        );
    }

    #[test]
    fn zoo_parse_recovers_residual_block_as_skip_edge() {
        use OpClass::Add;
        // Stem conv, then a residual block: conv1 (activated), conv2, merge
        // Add, post-merge activation.
        let classes = vec![
            Conv, BiasAdd, Relu, // stem
            Conv, BiasAdd, Relu, // block conv1
            Conv, BiasAdd, // block conv2 (no act before the merge)
            Add, Relu, // merge + block activation
        ];
        let runs = collapse(&classes);
        let graph = parse_forward_layers_zoo(&runs, classes.len());
        let kinds: Vec<RecoveredKind> = graph.layers.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecoveredKind::Conv,
                RecoveredKind::Conv,
                RecoveredKind::Conv
            ]
        );
        assert_eq!(graph.skips, vec![Skip { from: 1, to: 2 }]);
        // The post-merge activation attaches to the merge-point conv.
        assert_eq!(graph.layers[2].activation, Some(Activation::Relu));
        assert_eq!(graph.layers[2].last_sample, 9);
    }

    #[test]
    fn zoo_parse_folds_separable_into_one_layer() {
        use OpClass::Depthwise;
        let classes = vec![
            Depthwise, Conv, BiasAdd, Relu, Pool, MatMul, BiasAdd, Sigmoid,
        ];
        let runs = collapse(&classes);
        let graph = parse_forward_layers_zoo(&runs, classes.len());
        let kinds: Vec<RecoveredKind> = graph.layers.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecoveredKind::Separable,
                RecoveredKind::Pool,
                RecoveredKind::Dense
            ]
        );
        assert_eq!(graph.layers[0].activation, Some(Activation::Relu));
        assert_eq!(graph.layers[0].last_sample, 3);
        assert!(graph.skips.is_empty());
    }

    #[test]
    fn zoo_parse_folds_attention_block() {
        use OpClass::{LayerNorm, Softmax};
        let classes = vec![
            MatMul, Softmax, MatMul, LayerNorm, // attention
            MatMul, BiasAdd, Relu, // dense head
        ];
        let runs = collapse(&classes);
        let graph = parse_forward_layers_zoo(&runs, classes.len());
        let kinds: Vec<RecoveredKind> = graph.layers.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec![RecoveredKind::Attention, RecoveredKind::Dense]);
        assert_eq!(graph.layers[0].last_sample, 3);
        assert!(graph.skips.is_empty());
    }

    #[test]
    fn zoo_fragments_render() {
        let mut sep = RecoveredLayer::new(RecoveredKind::Separable, Some(Activation::Tanh), 0);
        sep.filter_size = Some(5);
        sep.filters = Some(128);
        sep.stride = Some(1);
        assert_eq!(sep.structure_fragment(), "D5,128,1,T");
        let mut att = RecoveredLayer::new(RecoveredKind::Attention, None, 0);
        att.units = Some(256);
        assert_eq!(att.structure_fragment(), "A256");
    }

    #[test]
    fn structure_string_renders_unknowns_as_x() {
        let mut conv = RecoveredLayer::new(RecoveredKind::Conv, Some(Activation::Relu), 0);
        conv.filter_size = Some(3);
        conv.filters = Some(64);
        conv.stride = Some(1);
        let dense = RecoveredLayer::new(RecoveredKind::Dense, None, 5);
        let s = structure_string(&[conv, dense], Some(dnn_sim::Optimizer::Adam));
        assert_eq!(s, "C3,64,1,R-MX,X-OptimizerAdam");
        let s = structure_string(&[], None);
        assert_eq!(s, "OptimizerX");
    }
}
