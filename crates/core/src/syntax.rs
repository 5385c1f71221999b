//! DNN-syntax correction (§IV-D).
//!
//! After op inference, the recovered structure still contains errors; the
//! paper corrects them with heuristics every ML practitioner knows:
//!
//! 1. a conv/MatMul is always followed by `BiasAdd` + an activation (the
//!    parser already inserts the layer; here we repair missing activations);
//! 2. a model usually uses a single activation type, so a clear majority
//!    overrides stragglers — applied separately to the conv stack and the
//!    dense head, and only when a 2/3 majority exists (the profiled MLP
//!    legitimately mixes activations);
//! 3. pooling presupposes a preceding convolution: leading pools and pools
//!    directly after dense layers are artifacts and are dropped;
//! 4. filter/neuron counts come out of `Mhp`'s power-of-two label space by
//!    construction, implementing the paper's "set to the power of two" rule.

use dnn_sim::Activation;
use serde::{Deserialize, Serialize};

use crate::opseq::{RecoveredGraph, RecoveredKind, RecoveredLayer};

/// The corrector's configuration. It has no fields: every rule always
/// runs. The type stays because `leaky_bench/src/replica.rs` passes
/// `&AttackConfig::syntax` to [`correct_graph`]; it goes when that replica
/// does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyntaxConfig {}

fn majority_activation(layers: &[&RecoveredLayer]) -> Option<(Activation, usize, usize)> {
    let mut counts = [0usize; 3];
    let mut total = 0usize;
    for l in layers {
        if let Some(a) = l.activation {
            let idx = match a {
                Activation::Relu => 0,
                Activation::Tanh => 1,
                Activation::Sigmoid => 2,
            };
            counts[idx] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return None;
    }
    // Last maximum wins, matching Iterator::max_by_key's tie rule, without
    // an Option to unwrap on the serving path.
    let mut best = 0usize;
    for i in 1..3 {
        if counts[i] >= counts[best] {
            best = i;
        }
    }
    let act = [Activation::Relu, Activation::Tanh, Activation::Sigmoid][best];
    Some((act, counts[best], total))
}

/// Applies the syntax corrections in place, returning the number of edits
/// (§IV-D, extended to the model zoo). Correct a bare layer chain by
/// wrapping it in [`RecoveredGraph::linear`].
///
/// A graph without skip edges is corrected by the chain rules. With skip
/// edges:
///
/// - the drop rules run with *in-branch protection*: a layer on a residual
///   branch is structural (the skip edge proves it executed) and is never
///   dropped; surviving indices remap the skip edges;
/// - *merge-point shape agreement*: the element-wise `Add` at a skip's
///   merge requires every conv on the branch to produce the block's width,
///   so branch conv filter counts are set to the merge-point conv's
///   (per-path dimension chaining; the power-of-two rule already holds by
///   `Mhp` label-space construction);
/// - the activation fill/harmonize rules are unchanged (branch and trunk
///   share the block's activation by construction).
pub fn correct_graph(graph: &mut RecoveredGraph, _config: &SyntaxConfig) -> usize {
    if graph.skips.is_empty() {
        return correct_chain(&mut graph.layers);
    }
    let mut edits = 0usize;
    let n = graph.layers.len();
    let protected: std::collections::HashSet<usize> = graph
        .skips
        .iter()
        .flat_map(|s| s.from..=s.to.min(n.saturating_sub(1)))
        .collect();
    let mut keep = vec![true; n];

    // Conv layers after the dense head begins: sequential CNNs never
    // interleave convolutions into the classifier head.
    let mut seen_dense = false;
    for (i, l) in graph.layers.iter().enumerate() {
        match l.kind {
            RecoveredKind::Dense | RecoveredKind::Attention => seen_dense = true,
            RecoveredKind::Conv | RecoveredKind::Separable
                if seen_dense && !protected.contains(&i) =>
            {
                keep[i] = false;
            }
            _ => {}
        }
    }

    // Pools that no conv layer precedes.
    let mut seen_conv = false;
    for (i, l) in graph.layers.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        match l.kind {
            RecoveredKind::Conv | RecoveredKind::Separable => seen_conv = true,
            RecoveredKind::Dense | RecoveredKind::Attention => seen_conv = false,
            RecoveredKind::Pool => {
                if !seen_conv && !protected.contains(&i) {
                    keep[i] = false;
                }
            }
        }
    }

    // Rebuild the chain and remap the skip edges onto surviving indices
    // (branch endpoints are protected, so the remap is total on them).
    if keep.iter().any(|&k| !k) {
        let mut remap = vec![usize::MAX; n];
        let mut survivors = Vec::with_capacity(n);
        for (i, l) in graph.layers.iter().enumerate() {
            if keep[i] {
                remap[i] = survivors.len();
                survivors.push(*l);
            }
        }
        edits += n - survivors.len();
        graph.layers = survivors;
        for s in graph.skips.iter_mut() {
            s.from = remap[s.from];
            s.to = remap[s.to];
        }
    }

    // Merge-point shape agreement per skip edge.
    for s in &graph.skips {
        let Some(target) = graph.layers.get(s.to).and_then(|l| l.filters) else {
            continue;
        };
        for i in s.from..s.to.min(graph.layers.len()) {
            let l = &mut graph.layers[i];
            if matches!(l.kind, RecoveredKind::Conv | RecoveredKind::Separable)
                && l.filters != Some(target)
            {
                l.filters = Some(target);
                edits += 1;
            }
        }
    }

    edits + activation_pass(&mut graph.layers)
}

/// The chain rules [`correct_graph`] applies to a graph without skip edges.
fn correct_chain(layers: &mut Vec<RecoveredLayer>) -> usize {
    let before = layers.len();
    // Sequential models never interleave the two stacks: either the dense
    // predictions ahead of the first conv are artifacts (a CNN) or the conv
    // predictions are (an MLP). Decide by majority: whichever side is
    // smaller is the misclassification.
    let conv_total = layers
        .iter()
        .filter(|l| l.kind == RecoveredKind::Conv)
        .count();
    if let Some(first_conv) = layers.iter().position(|l| l.kind == RecoveredKind::Conv) {
        let dense_before = layers[..first_conv]
            .iter()
            .filter(|l| l.kind == RecoveredKind::Dense)
            .count();
        if conv_total > dense_before && dense_before > 0 {
            // CNN with stray leading denses: drop them so the conv stack
            // survives the conv-after-dense rule below.
            let mut idx = 0;
            layers.retain(|l| {
                let keep = !(l.kind == RecoveredKind::Dense && idx < first_conv);
                idx += 1;
                keep
            });
        }
    }
    let mut seen_dense = false;
    layers.retain(|l| match l.kind {
        RecoveredKind::Dense | RecoveredKind::Attention => {
            seen_dense = true;
            true
        }
        RecoveredKind::Conv | RecoveredKind::Separable => !seen_dense,
        RecoveredKind::Pool => true,
    });
    // A lone leading conv in an otherwise all-dense model (no pooling) is
    // an artifact: MLPs flatten immediately.
    let conv_count = layers
        .iter()
        .filter(|l| l.kind == RecoveredKind::Conv)
        .count();
    let pool_count = layers
        .iter()
        .filter(|l| l.kind == RecoveredKind::Pool)
        .count();
    let dense_count = layers
        .iter()
        .filter(|l| l.kind == RecoveredKind::Dense)
        .count();
    if conv_count == 1 && pool_count == 0 && dense_count >= 2 {
        layers.retain(|l| l.kind != RecoveredKind::Conv);
    }

    // Pools that no conv layer precedes.
    let mut seen_conv = false;
    layers.retain(|l| match l.kind {
        RecoveredKind::Conv | RecoveredKind::Separable => {
            seen_conv = true;
            true
        }
        RecoveredKind::Dense | RecoveredKind::Attention => {
            // A dense layer ends the conv stack; later pools are bogus.
            seen_conv = false;
            true
        }
        RecoveredKind::Pool => seen_conv,
    });

    before - layers.len() + activation_pass(layers)
}

/// The activation fill/harmonize rules, applied per group (the conv stack —
/// including separable convs — and the dense head). Shared verbatim by the
/// chain and graph correctors.
fn activation_pass(layers: &mut [RecoveredLayer]) -> usize {
    let mut edits = 0usize;
    for group_kind in [RecoveredKind::Conv, RecoveredKind::Dense] {
        let in_group = |k: RecoveredKind| match group_kind {
            RecoveredKind::Conv => matches!(k, RecoveredKind::Conv | RecoveredKind::Separable),
            _ => k == group_kind,
        };
        let group: Vec<&RecoveredLayer> = layers.iter().filter(|l| in_group(l.kind)).collect();
        let Some((majority, votes, total)) = majority_activation(&group) else {
            continue;
        };
        let strong_majority = 3 * votes >= 2 * total;
        for l in layers.iter_mut().filter(|l| in_group(l.kind)) {
            match l.activation {
                None => {
                    l.activation = Some(majority);
                    edits += 1;
                }
                Some(a) if strong_majority && total >= 3 && a != majority => {
                    l.activation = Some(majority);
                    edits += 1;
                }
                _ => {}
            }
        }
    }
    edits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(act: Option<Activation>) -> RecoveredLayer {
        RecoveredLayer {
            kind: RecoveredKind::Conv,
            activation: act,
            last_sample: 0,
            filter_size: Some(3),
            filters: Some(64),
            stride: Some(1),
            units: None,
        }
    }

    fn dense(act: Option<Activation>) -> RecoveredLayer {
        RecoveredLayer {
            kind: RecoveredKind::Dense,
            activation: act,
            last_sample: 0,
            filter_size: None,
            filters: None,
            stride: None,
            units: Some(4096),
        }
    }

    fn pool() -> RecoveredLayer {
        RecoveredLayer {
            kind: RecoveredKind::Pool,
            activation: None,
            last_sample: 0,
            filter_size: None,
            filters: None,
            stride: None,
            units: None,
        }
    }

    #[test]
    fn fills_missing_activation_with_majority() {
        let mut graph = RecoveredGraph::linear(vec![
            conv(Some(Activation::Relu)),
            conv(Some(Activation::Relu)),
            conv(None),
        ]);
        let edits = correct_graph(&mut graph, &SyntaxConfig::default());
        assert_eq!(edits, 1);
        assert_eq!(graph.layers[2].activation, Some(Activation::Relu));
    }

    #[test]
    fn harmonizes_clear_majority_but_not_mixed_mlps() {
        // Conv stack: 4 ReLU + 1 Tanh → harmonized.
        let mut graph = RecoveredGraph::linear(vec![
            conv(Some(Activation::Relu)),
            conv(Some(Activation::Relu)),
            conv(Some(Activation::Relu)),
            conv(Some(Activation::Relu)),
            conv(Some(Activation::Tanh)),
        ]);
        correct_graph(&mut graph, &SyntaxConfig::default());
        assert!(graph
            .layers
            .iter()
            .all(|l| l.activation == Some(Activation::Relu)));

        // Balanced MLP activations (no 2/3 majority) stay untouched.
        let before = vec![
            dense(Some(Activation::Relu)),
            dense(Some(Activation::Tanh)),
            dense(Some(Activation::Sigmoid)),
            dense(Some(Activation::Relu)),
            dense(Some(Activation::Tanh)),
        ];
        let mut graph = RecoveredGraph::linear(before.clone());
        correct_graph(&mut graph, &SyntaxConfig::default());
        assert_eq!(graph.layers, before);
    }

    #[test]
    fn leading_dense_misclassifications_do_not_delete_the_conv_stack() {
        // Regression: a stray dense prediction ahead of the conv stack used
        // to set `seen_dense` and wipe every conv layer.
        let mut graph = RecoveredGraph::linear(vec![
            dense(Some(Activation::Relu)), // artifact
            conv(Some(Activation::Relu)),
            conv(Some(Activation::Relu)),
            pool(),
            dense(Some(Activation::Relu)), // the real head
        ]);
        correct_graph(&mut graph, &SyntaxConfig::default());
        let kinds: Vec<RecoveredKind> = graph.layers.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecoveredKind::Conv,
                RecoveredKind::Conv,
                RecoveredKind::Pool,
                RecoveredKind::Dense
            ]
        );
    }

    #[test]
    fn drops_orphan_pools() {
        let mut graph = RecoveredGraph::linear(vec![
            pool(), // leading pool: artifact
            conv(Some(Activation::Relu)),
            pool(), // legitimate
            dense(Some(Activation::Relu)),
            pool(), // after dense: artifact
        ]);
        let edits = correct_graph(&mut graph, &SyntaxConfig::default());
        assert_eq!(edits, 2);
        let kinds: Vec<RecoveredKind> = graph.layers.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecoveredKind::Conv,
                RecoveredKind::Pool,
                RecoveredKind::Dense
            ]
        );
    }

    #[test]
    fn merge_point_shape_agreement_chains_branch_filters() {
        let mut c1 = conv(Some(Activation::Relu));
        c1.filters = Some(64); // misread: the merge proves 128
        let mut c2 = conv(Some(Activation::Relu));
        c2.filters = Some(128);
        let mut graph = RecoveredGraph {
            layers: vec![conv(Some(Activation::Relu)), c1, c2],
            skips: vec![crate::opseq::Skip { from: 1, to: 2 }],
        };
        let edits = correct_graph(&mut graph, &SyntaxConfig::default());
        assert_eq!(edits, 1);
        assert_eq!(graph.layers[1].filters, Some(128));
        // The trunk conv ahead of the branch is untouched.
        assert_eq!(graph.layers[0].filters, Some(64));
    }

    #[test]
    fn dag_correction_beats_linear_on_residual_structures() {
        use crate::report::score_structure;
        use dnn_sim::{InputSpec, Layer, Model, Optimizer};
        let truth = Model::new(
            "res",
            InputSpec::Image {
                height: 32,
                width: 32,
                channels: 3,
            },
            vec![
                Layer::conv(3, 64, 1),
                Layer::Residual {
                    filter_size: 3,
                    filters: 128,
                    activation: Activation::Relu,
                },
                Layer::dense(4096, Activation::Relu),
            ],
            Optimizer::Adam,
        );
        // Recovered: stem + the block's two convs + head. `Mhp` misread the
        // first branch conv's filter count; only the skip edge carries the
        // evidence that the merge forces it to 128.
        let recovered = || {
            let mut c1 = conv(Some(Activation::Relu));
            c1.filters = Some(64);
            let mut c2 = conv(Some(Activation::Relu));
            c2.filters = Some(128);
            vec![
                conv(Some(Activation::Relu)),
                c1,
                c2,
                dense(Some(Activation::Relu)),
            ]
        };
        let mut chain = RecoveredGraph::linear(recovered());
        correct_graph(&mut chain, &SyntaxConfig::default());
        let chain_score = score_structure(&truth, &chain.layers, Some(Optimizer::Adam));

        let mut graph = RecoveredGraph {
            layers: recovered(),
            skips: vec![crate::opseq::Skip { from: 1, to: 2 }],
        };
        correct_graph(&mut graph, &SyntaxConfig::default());
        let graph_score = score_structure(&truth, &graph.layers, Some(Optimizer::Adam));

        assert!(
            graph_score.hp_correct > chain_score.hp_correct,
            "DAG correction must fix the branch filters: chain {} vs graph {}",
            chain_score.hp_correct,
            graph_score.hp_correct
        );
    }

    #[test]
    fn skip_branch_layers_survive_drop_rules() {
        // Two stray leading denses would normally wipe the conv stack
        // (conv-after-dense rule); the skip edge proves the convs executed.
        let mut graph = RecoveredGraph {
            layers: vec![
                dense(Some(Activation::Relu)),
                dense(Some(Activation::Relu)),
                conv(Some(Activation::Relu)),
                conv(Some(Activation::Relu)),
                dense(Some(Activation::Relu)),
            ],
            skips: vec![crate::opseq::Skip { from: 2, to: 3 }],
        };
        correct_graph(&mut graph, &SyntaxConfig::default());
        assert_eq!(graph.layers.len(), 5, "branch layers are protected");

        // Without the skip, the same chain loses its convs.
        let mut chain = RecoveredGraph::linear(vec![
            dense(Some(Activation::Relu)),
            dense(Some(Activation::Relu)),
            conv(Some(Activation::Relu)),
            conv(Some(Activation::Relu)),
            dense(Some(Activation::Relu)),
        ]);
        correct_graph(&mut chain, &SyntaxConfig::default());
        assert_eq!(chain.layers.len(), 3);
    }

    #[test]
    fn drop_rules_remap_skip_edges() {
        let mut graph = RecoveredGraph {
            layers: vec![
                pool(), // orphan leading pool: dropped
                conv(Some(Activation::Relu)),
                conv(Some(Activation::Relu)),
                conv(Some(Activation::Relu)),
                dense(Some(Activation::Relu)),
            ],
            skips: vec![crate::opseq::Skip { from: 2, to: 3 }],
        };
        correct_graph(&mut graph, &SyntaxConfig::default());
        assert_eq!(graph.layers.len(), 4);
        assert_eq!(graph.skips, vec![crate::opseq::Skip { from: 1, to: 2 }]);
    }
}
