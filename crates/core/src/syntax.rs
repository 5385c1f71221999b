//! DNN-syntax correction (§IV-D).
//!
//! After op inference, the recovered structure still contains errors; the
//! paper corrects them with heuristics every ML practitioner knows.
//! [`correct_graph`] applies them as one list of rules, the same for a
//! chain as for a graph with skip edges, and its doc lists each rule. The
//! paper's "set to the power of two" rule needs no code: filter and neuron
//! counts come out of `Mhp`'s power-of-two label space by construction.

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
/// The drop rules run in this order, each over the layers still kept:
///
/// 1. *leading denses in a CNN*: sequential models never interleave the
///    two stacks, so when the convs outnumber the denses ahead of the first
///    conv, those denses are artifacts and are dropped;
/// 2. *convs after the dense head*: convs and separable convs after the
///    first dense or attention layer are dropped;
/// 3. *a lone conv in an MLP*: with no pool and at least two denses, the
///    one conv is dropped (MLPs flatten immediately);
/// 4. *orphan pools*: pooling presupposes a convolution, so a pool that no
///    conv or separable conv precedes since the last dense or attention
///    layer is dropped.
///
/// No rule drops a layer a skip edge covers: the edge proves the layer
/// executed. Surviving indices remap the skip edges. Then:
///
/// - *merge-point shape agreement*: the element-wise `Add` at a skip's
///   merge requires every conv on the branch to produce the block's width,
///   so branch conv filter counts are set to the merge-point conv's;
/// - *activations*, per group (the conv stack with its separable convs, and
///   the dense head): a conv or MatMul is always followed by an activation,
///   so a missing one takes the group's majority; and a model usually uses
///   one activation type, so a 2/3 majority of at least three layers
///   overrides stragglers (the profiled MLPs legitimately mix them).
pub fn correct_graph(graph: &mut RecoveredGraph, _config: &SyntaxConfig) -> usize {
    use RecoveredKind::{Attention, Conv, Dense, Pool, Separable};
    let n = graph.layers.len();
    let skips = &graph.skips;
    let protected = |i: usize| skips.iter().any(|s| s.from <= i && i <= s.to);
    let layers = &graph.layers;
    let mut keep = vec![true; n];

    // 1. Leading denses in a CNN; the majority decides which stack is real.
    let conv_total = count_kept(layers, &keep, Conv);
    if let Some(first_conv) = layers.iter().position(|l| l.kind == Conv) {
        let dense_before = count_kept(&layers[..first_conv], &keep, Dense);
        if conv_total > dense_before && dense_before > 0 {
            for (i, l) in layers[..first_conv].iter().enumerate() {
                if l.kind == Dense && !protected(i) {
                    keep[i] = false;
                }
            }
        }
    }

    // 2. Convs after the dense head.
    let mut seen_dense = false;
    for (i, l) in layers.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        match l.kind {
            Dense | Attention => seen_dense = true,
            Conv | Separable if seen_dense && !protected(i) => keep[i] = false,
            _ => {}
        }
    }

    // 3. A lone conv in an MLP.
    if count_kept(layers, &keep, Conv) == 1
        && count_kept(layers, &keep, Pool) == 0
        && count_kept(layers, &keep, Dense) >= 2
    {
        for (i, l) in layers.iter().enumerate() {
            if l.kind == Conv && !protected(i) {
                keep[i] = false;
            }
        }
    }

    // 4. Orphan pools.
    let mut seen_conv = false;
    for (i, l) in layers.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        match l.kind {
            Conv | Separable => seen_conv = true,
            Dense | Attention => seen_conv = false,
            Pool if !seen_conv && !protected(i) => keep[i] = false,
            Pool => {}
        }
    }

    // Rebuild the chain and remap the skip edges onto surviving indices
    // (branch endpoints are protected, so the remap is total on them).
    let mut edits = 0usize;
    if keep.contains(&false) {
        let mut remap = vec![usize::MAX; n];
        let mut survivors = Vec::with_capacity(n);
        for (i, l) in layers.iter().enumerate() {
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
            if matches!(l.kind, Conv | Separable) && l.filters != Some(target) {
                l.filters = Some(target);
                edits += 1;
            }
        }
    }

    edits + activation_pass(&mut graph.layers)
}

/// The layers of `kind` among `layers` that `keep` still keeps.
fn count_kept(layers: &[RecoveredLayer], keep: &[bool], kind: RecoveredKind) -> usize {
    layers
        .iter()
        .zip(keep)
        .filter(|&(l, &k)| k && l.kind == kind)
        .count()
}

/// The activation rules of [`correct_graph`], applied per group (the conv
/// stack — including separable convs — and the dense head).
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
    fn stray_leading_dense_spares_the_trunk_of_a_skip_graph() {
        // The leading-dense rule runs on skip graphs too: the stray dense
        // goes, so it no longer wipes the unprotected stem conv.
        let mut graph = RecoveredGraph {
            layers: vec![
                dense(Some(Activation::Relu)), // artifact
                conv(Some(Activation::Relu)),
                conv(None),
                conv(Some(Activation::Relu)),
                dense(Some(Activation::Relu)),
            ],
            skips: vec![crate::opseq::Skip { from: 2, to: 3 }],
        };
        correct_graph(&mut graph, &SyntaxConfig::default());
        let kinds: Vec<RecoveredKind> = graph.layers.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecoveredKind::Conv,
                RecoveredKind::Conv,
                RecoveredKind::Conv,
                RecoveredKind::Dense
            ]
        );
        assert_eq!(graph.skips, vec![crate::opseq::Skip { from: 1, to: 2 }]);
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
