//! Property-based coverage of the model zoo: a `testkit` generator for
//! random valid zoo models with shrinking, plus the metamorphic properties
//! of the zoo grammar and its behaviour on classic traces.
//!
//! The properties run on the planner's ground-truth class sequences (plan →
//! classes → collapse → parse), not on trained LSTMs — they pin the
//! *grammar*, deterministically and fast, for hundreds of generated models.

use dnn_sim::{
    plan_iteration_mode, Activation, ExecutionMode, InputSpec, Layer, Model, OpClass, Optimizer,
};
use moscons::opseq::collapse;
use moscons::{parse_forward_layers_zoo, RecoveredGraph, RecoveredKind, RecoveredLayer, Skip};
use testkit::gen::{choice, usize_in, vec_of, zip2, zip3, zip4, Gen};

const ACTS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Sigmoid];

fn input() -> InputSpec {
    InputSpec::Image {
        height: 32,
        width: 32,
        channels: 3,
    }
}

/// One conv-section item: `(kind, filter_size index, filters log2, act
/// index)` with kind 0 = plain conv, 1 = residual block, 2 = separable.
type ConvItem = ((usize, usize), (usize, usize));

/// One head item: `((kind, units log2), act index)` with kind 0 = dense,
/// 1 = attention.
type DenseItem = ((usize, usize), usize);

/// A generated zoo model in field form: conv-section items, head items, and
/// two free draws (used by the metamorphic test for the insertion point and
/// the inserted block's activation). Kept as the raw tuple so `vec_of`'s
/// and `usize_in`'s shrinkers stay live — `build_layers` is the one-way
/// constructor.
type ZooModelFields = (Vec<ConvItem>, Vec<DenseItem>, usize, usize);

fn zoo_model_gen() -> Gen<ZooModelFields> {
    let conv_item = zip2(
        zip2(usize_in(0, 2), usize_in(0, 2)),
        zip2(usize_in(6, 8), usize_in(0, 2)),
    );
    let dense_item = zip2(zip2(usize_in(0, 1), usize_in(6, 9)), usize_in(0, 2));
    zip4(
        vec_of(conv_item, 1, 3),
        vec_of(dense_item, 1, 2),
        usize_in(0, 16),
        usize_in(0, 2),
    )
}

/// Builds the conv section (each item followed by a pooling layer) and the
/// dense head. Returns the layers plus the conv-section length in layers.
fn build_layers(items: &[ConvItem], denses: &[DenseItem]) -> (Vec<Layer>, usize) {
    let mut layers = Vec::new();
    for &((kind, fs_idx), (f_log, act_idx)) in items {
        let filter_size = 2 * fs_idx + 1;
        let filters = 1usize << f_log;
        let activation = ACTS[act_idx];
        layers.push(match kind {
            0 => Layer::Conv2D {
                filter_size,
                filters,
                stride: 1,
                activation,
            },
            1 => Layer::Residual {
                filter_size,
                filters,
                activation,
            },
            _ => Layer::SeparableConv2D {
                filter_size,
                filters,
                stride: 1,
                activation,
            },
        });
        layers.push(Layer::MaxPool);
    }
    let conv_len = layers.len();
    for &((kind, u_log), act_idx) in denses {
        layers.push(if kind == 0 {
            Layer::dense(1usize << u_log, ACTS[act_idx])
        } else {
            Layer::attention(1usize << u_log)
        });
    }
    (layers, conv_len)
}

/// Ground-truth forward parse of a model: planned classes, collapsed and
/// run through the zoo grammar.
fn ground_truth_graph(model: &Model) -> RecoveredGraph {
    let classes: Vec<OpClass> = plan_iteration_mode(model, 8, ExecutionMode::Inference)
        .iter()
        .map(|op| op.kind.class())
        .collect();
    parse_forward_layers_zoo(&collapse(&classes), usize::MAX)
}

/// Channel count flowing out of `layers[..pos]` (the zoo conv families all
/// preserve channels except where `filters` resets them).
fn channels_at(layers: &[Layer], pos: usize) -> usize {
    let mut channels = 3;
    for layer in &layers[..pos] {
        match *layer {
            Layer::Conv2D { filters, .. }
            | Layer::Residual { filters, .. }
            | Layer::SeparableConv2D { filters, .. } => channels = filters,
            _ => {}
        }
    }
    channels
}

/// Recovered layers contributed by `layers[..pos]` — residual blocks
/// expand to two convs, plus a projection conv when they change the
/// channel count.
fn recovered_prefix_len(layers: &[Layer], pos: usize) -> usize {
    let mut channels = 3;
    let mut count = 0;
    for layer in &layers[..pos] {
        match *layer {
            Layer::Residual { filters, .. } => {
                count += if channels == filters { 2 } else { 3 };
                channels = filters;
            }
            Layer::Conv2D { filters, .. } | Layer::SeparableConv2D { filters, .. } => {
                count += 1;
                channels = filters;
            }
            _ => count += 1,
        }
    }
    count
}

#[test]
fn generated_zoo_models_are_valid_and_plan_in_both_modes() {
    testkit::check(
        "zoo_models_valid",
        &zoo_model_gen(),
        |(items, denses, _, _)| {
            let (layers, _) = build_layers(items, denses);
            // `Model::new` runs layer validation; planning must succeed in
            // both modes with the inference plan a prefix of the training
            // plan.
            let model = Model::new("prop zoo", input(), layers, Optimizer::Adam);
            let train = plan_iteration_mode(&model, 8, ExecutionMode::Training);
            let infer = plan_iteration_mode(&model, 8, ExecutionMode::Inference);
            testkit::prop::holds(
                !infer.is_empty() && infer.len() < train.len() && train[..infer.len()] == infer[..],
                "inference plan is not a proper forward prefix",
            )
        },
    );
}

#[test]
fn identity_skip_never_changes_layers_outside_the_branch() {
    // Metamorphic: wrapping an identity residual block (filters == incoming
    // channels) around any point of the conv section adds exactly two conv
    // layers and one skip edge there — every layer recovered *outside* the
    // branch, and every pre-existing skip edge, is unchanged.
    testkit::check(
        "identity_skip_outside_invariance",
        &zoo_model_gen(),
        |(items, denses, pos_raw, act_idx)| {
            let (base_layers, conv_len) = build_layers(items, denses);
            let pos = pos_raw % (conv_len + 1);
            let channels = channels_at(&base_layers, pos);

            let mut wrapped_layers = base_layers.clone();
            wrapped_layers.insert(
                pos,
                Layer::Residual {
                    filter_size: 3,
                    filters: channels,
                    activation: ACTS[*act_idx],
                },
            );

            let base = ground_truth_graph(&Model::new(
                "base",
                input(),
                base_layers.clone(),
                Optimizer::Adam,
            ));
            let wrapped = ground_truth_graph(&Model::new(
                "wrapped",
                input(),
                wrapped_layers,
                Optimizer::Gd,
            ));

            // The block lands at recovered index `p` and contributes two
            // convs (identity skip: no projection).
            let p = recovered_prefix_len(&base_layers, pos);
            if wrapped.layers.len() != base.layers.len() + 2 {
                return testkit::prop::holds(
                    false,
                    format!(
                        "expected {} layers, recovered {}",
                        base.layers.len() + 2,
                        wrapped.layers.len()
                    ),
                );
            }
            // Outside the branch: identical kinds and activations, in order.
            let outside_ok = |got: &RecoveredLayer, want: &RecoveredLayer| {
                got.kind == want.kind && got.activation == want.activation
            };
            for (i, want) in base.layers.iter().enumerate() {
                let j = if i < p { i } else { i + 2 };
                if !outside_ok(&wrapped.layers[j], want) {
                    return testkit::prop::holds(
                        false,
                        format!("layer {i} changed outside the inserted branch"),
                    );
                }
            }
            // The new skip edge covers exactly the inserted block; previous
            // skips shift by two past the insertion point.
            let mut want_skips: Vec<Skip> = base
                .skips
                .iter()
                .map(|s| {
                    if s.from >= p {
                        Skip {
                            from: s.from + 2,
                            to: s.to + 2,
                        }
                    } else {
                        *s
                    }
                })
                .collect();
            want_skips.push(Skip { from: p, to: p + 1 });
            want_skips.sort_by_key(|s| (s.from, s.to));
            let mut got_skips = wrapped.skips.clone();
            got_skips.sort_by_key(|s| (s.from, s.to));
            testkit::prop::holds(
                got_skips == want_skips,
                format!("skips {got_skips:?} != expected {want_skips:?}"),
            )
        },
    );
}

#[test]
fn zoo_grammar_yields_a_classic_chain_on_classic_sequences() {
    // The classic `Mop` alphabet never emits a zoo class, so on its traces
    // the zoo grammar must recover only conv, dense and pooling layers and
    // never invent a skip edge.
    let classic = choice(vec![
        OpClass::Conv,
        OpClass::MatMul,
        OpClass::BiasAdd,
        OpClass::Relu,
        OpClass::Tanh,
        OpClass::Sigmoid,
        OpClass::Pool,
        OpClass::Optimizer,
        OpClass::Nop,
    ]);
    let cases = zip3(vec_of(classic, 0, 48), usize_in(0, 48), usize_in(0, 1));
    testkit::check(
        "zoo_parse_classic_chain",
        &cases,
        |(classes, boundary_raw, unbounded)| {
            let boundary = if *unbounded == 1 {
                usize::MAX
            } else {
                *boundary_raw
            };
            let graph = parse_forward_layers_zoo(&collapse(classes), boundary);
            testkit::prop::holds(graph.skips.is_empty(), "skip edge on a classic trace")?;
            testkit::prop::holds(
                graph.layers.iter().all(|l| {
                    matches!(
                        l.kind,
                        RecoveredKind::Conv | RecoveredKind::Dense | RecoveredKind::Pool
                    )
                }),
                "zoo layer kind on a classic trace",
            )
        },
    );
}
