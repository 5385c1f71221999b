//! The training-step planner: lowers a [`Model`] into the serialized op
//! sequence one training iteration executes on the compute stream
//! (forward pass, then back-propagation in reverse layer order, then the
//! optimizer's apply ops), exactly the structure §IV-B describes:
//!
//! > "a convolutional layer sequentially invokes conv, BiasAdd and an
//! > activation op [...] During back-propagation, it calculates the gradient
//! > in a reverse order [...] ReLUgrad, BiasAddGrad and Conv2DBackprop".

use serde::{Deserialize, Serialize};

use crate::layer::{Activation, Layer};
use crate::model::Model;
use crate::ops::{Op, OpKind};
use crate::tensor::{conv_out_size, TensorShape};

/// Whether an iteration is a full training step or a forward-only inference
/// pass (the zoo's inference workloads plan no gradient or apply ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Forward pass, back-propagation and optimizer applies.
    #[default]
    Training,
    /// Forward pass only.
    Inference,
}

fn act_kind(a: Activation) -> OpKind {
    match a {
        Activation::Relu => OpKind::Relu,
        Activation::Tanh => OpKind::Tanh,
        Activation::Sigmoid => OpKind::Sigmoid,
    }
}

fn act_grad_kind(a: Activation) -> OpKind {
    match a {
        Activation::Relu => OpKind::ReluGrad,
        Activation::Tanh => OpKind::TanhGrad,
        Activation::Sigmoid => OpKind::SigmoidGrad,
    }
}

/// Per-layer shape information resolved during the forward walk.
#[derive(Debug, Clone)]
pub(crate) struct LayerShapes {
    input: TensorShape,
    output: TensorShape,
    /// Weight elements, without the per-output-channel biases (attention's
    /// LayerNorm gain and bias are included).
    pub(crate) weight_elems: usize,
}

/// Plans the op sequence of one training iteration
/// ([`ExecutionMode::Training`]).
///
/// # Panics
///
/// Panics if a convolutional or pooling layer appears after the activations
/// have been flattened by a dense layer.
pub fn plan_iteration(model: &Model, batch: usize) -> Vec<Op> {
    plan_iteration_mode(model, batch, ExecutionMode::Training)
}

/// Plans the op sequence of one iteration in the given execution mode:
/// forward pass always; back-propagation and optimizer applies only under
/// [`ExecutionMode::Training`].
///
/// # Panics
///
/// Panics if a convolutional or pooling layer appears after the activations
/// have been flattened by a dense layer.
pub fn plan_iteration_mode(model: &Model, batch: usize, mode: ExecutionMode) -> Vec<Op> {
    assert!(batch > 0, "batch size must be positive");
    let shapes = layer_shapes(model, batch);
    let mut ops = Vec::new();

    // Forward pass.
    for (i, layer) in model.layers.iter().enumerate() {
        let s = &shapes[i];
        let in_e = s.input.num_elements();
        let out_e = s.output.num_elements();
        match *layer {
            Layer::Conv2D {
                filter_size,
                activation,
                ..
            } => {
                let flops = 2.0
                    * (filter_size * filter_size) as f64
                    * channels_of(&s.input) as f64
                    * out_e as f64;
                ops.push(Op {
                    kind: OpKind::Conv2D,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: out_e,
                    weight_elems: s.weight_elems,
                    flops,
                });
                push_bias_and_act(&mut ops, i, out_e, activation, false);
            }
            Layer::Dense { activation, .. } => {
                // flops = 2 * batch * in_features * units = 2 * in_e/batch...
                let in_features = s.input.elements_per_item();
                let units = s.output.elements_per_item();
                let flops = 2.0 * batch as f64 * in_features as f64 * units as f64;
                ops.push(Op {
                    kind: OpKind::MatMul,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: out_e,
                    weight_elems: s.weight_elems,
                    flops,
                });
                push_bias_and_act(&mut ops, i, out_e, activation, false);
            }
            Layer::MaxPool => {
                ops.push(Op {
                    kind: OpKind::MaxPool,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: in_e as f64,
                });
            }
            Layer::Residual {
                filter_size,
                filters,
                activation,
            } => {
                let c = channels_of(&s.input);
                let fs2 = filter_size * filter_size;
                let conv1_flops = 2.0 * fs2 as f64 * c as f64 * out_e as f64;
                ops.push(Op {
                    kind: OpKind::Conv2D,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: out_e,
                    weight_elems: fs2 * c * filters,
                    flops: conv1_flops,
                });
                push_bias_and_act(&mut ops, i, out_e, activation, false);
                let conv2_flops = 2.0 * fs2 as f64 * filters as f64 * out_e as f64;
                ops.push(Op {
                    kind: OpKind::Conv2D,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: fs2 * filters * filters,
                    flops: conv2_flops,
                });
                ops.push(Op {
                    kind: OpKind::BiasAdd,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: out_e as f64,
                });
                if c != filters {
                    // 1x1 projection so the skip path matches channels.
                    ops.push(Op {
                        kind: OpKind::Conv2D,
                        layer_index: Some(i),
                        in_elems: in_e,
                        out_elems: out_e,
                        weight_elems: c * filters,
                        flops: 2.0 * c as f64 * out_e as f64,
                    });
                }
                ops.push(Op {
                    kind: OpKind::Add,
                    layer_index: Some(i),
                    in_elems: 2 * out_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: out_e as f64,
                });
                ops.push(Op {
                    kind: act_kind(activation),
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: out_e as f64 * 2.0,
                });
            }
            Layer::SeparableConv2D {
                filter_size,
                filters,
                activation,
                ..
            } => {
                let c = channels_of(&s.input);
                let fs2 = filter_size * filter_size;
                // Same spatial dims as the output, channel count preserved.
                let dw_out = out_e / filters * c;
                ops.push(Op {
                    kind: OpKind::DepthwiseConv2dNative,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: dw_out,
                    weight_elems: fs2 * c,
                    flops: 2.0 * fs2 as f64 * dw_out as f64,
                });
                ops.push(Op {
                    kind: OpKind::Conv2D,
                    layer_index: Some(i),
                    in_elems: dw_out,
                    out_elems: out_e,
                    weight_elems: c * filters,
                    flops: 2.0 * c as f64 * out_e as f64,
                });
                push_bias_and_act(&mut ops, i, out_e, activation, false);
            }
            Layer::Attention { dim } => {
                let in_features = s.input.elements_per_item();
                let proj_w = in_features * dim;
                let mm_flops = 2.0 * batch as f64 * in_features as f64 * dim as f64;
                ops.push(Op {
                    kind: OpKind::MatMul,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: out_e,
                    weight_elems: proj_w,
                    flops: mm_flops,
                });
                ops.push(Op {
                    kind: OpKind::Softmax,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: out_e as f64 * 5.0,
                });
                ops.push(Op {
                    kind: OpKind::MatMul,
                    layer_index: Some(i),
                    in_elems: in_e + out_e,
                    out_elems: out_e,
                    weight_elems: proj_w,
                    flops: mm_flops,
                });
                ops.push(Op {
                    kind: OpKind::LayerNorm,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: 2 * dim,
                    flops: out_e as f64 * 8.0,
                });
            }
        }
    }

    if mode == ExecutionMode::Inference {
        return ops;
    }

    // Backward pass, reverse layer order.
    for (i, layer) in model.layers.iter().enumerate().rev() {
        let s = &shapes[i];
        let in_e = s.input.num_elements();
        let out_e = s.output.num_elements();
        match *layer {
            Layer::Conv2D {
                filter_size,
                activation,
                ..
            } => {
                push_bias_and_act(&mut ops, i, out_e, activation, true);
                let flops = 2.0
                    * (filter_size * filter_size) as f64
                    * channels_of(&s.input) as f64
                    * out_e as f64;
                ops.push(Op {
                    kind: OpKind::Conv2DBackpropFilter,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: out_e,
                    weight_elems: s.weight_elems,
                    flops,
                });
                if i > 0 {
                    ops.push(Op {
                        kind: OpKind::Conv2DBackpropInput,
                        layer_index: Some(i),
                        in_elems: out_e,
                        out_elems: in_e,
                        weight_elems: s.weight_elems,
                        flops,
                    });
                }
            }
            Layer::Dense { activation, .. } => {
                push_bias_and_act(&mut ops, i, out_e, activation, true);
                let in_features = s.input.elements_per_item();
                let units = s.output.elements_per_item();
                let flops = 2.0 * batch as f64 * in_features as f64 * units as f64;
                // Weight gradient (x^T * dy).
                ops.push(Op {
                    kind: OpKind::MatMul,
                    layer_index: Some(i),
                    in_elems: in_e + out_e,
                    out_elems: s.weight_elems,
                    weight_elems: s.weight_elems,
                    flops,
                });
                // Input gradient (dy * W^T).
                if i > 0 {
                    ops.push(Op {
                        kind: OpKind::MatMul,
                        layer_index: Some(i),
                        in_elems: out_e,
                        out_elems: in_e,
                        weight_elems: s.weight_elems,
                        flops,
                    });
                }
            }
            Layer::MaxPool => {
                ops.push(Op {
                    kind: OpKind::MaxPoolGrad,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: in_e,
                    weight_elems: 0,
                    flops: in_e as f64,
                });
            }
            Layer::Residual {
                filter_size,
                filters,
                activation,
            } => {
                let c = channels_of(&s.input);
                let fs2 = filter_size * filter_size;
                let conv1_flops = 2.0 * fs2 as f64 * c as f64 * out_e as f64;
                let conv2_flops = 2.0 * fs2 as f64 * filters as f64 * out_e as f64;
                // Final activation, then the skip-add accumulates the branch
                // gradients back together.
                ops.push(Op {
                    kind: act_grad_kind(activation),
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: out_e as f64 * 2.0,
                });
                ops.push(Op {
                    kind: OpKind::Add,
                    layer_index: Some(i),
                    in_elems: 2 * out_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: out_e as f64,
                });
                if c != filters {
                    ops.push(Op {
                        kind: OpKind::Conv2DBackpropFilter,
                        layer_index: Some(i),
                        in_elems: in_e,
                        out_elems: out_e,
                        weight_elems: c * filters,
                        flops: 2.0 * c as f64 * out_e as f64,
                    });
                }
                ops.push(Op {
                    kind: OpKind::BiasAddGrad,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: 0,
                    weight_elems: 0,
                    flops: out_e as f64,
                });
                ops.push(Op {
                    kind: OpKind::Conv2DBackpropFilter,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: fs2 * filters * filters,
                    flops: conv2_flops,
                });
                // conv2 always needs its input gradient: it feeds conv1
                // inside the block.
                ops.push(Op {
                    kind: OpKind::Conv2DBackpropInput,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: fs2 * filters * filters,
                    flops: conv2_flops,
                });
                push_bias_and_act(&mut ops, i, out_e, activation, true);
                ops.push(Op {
                    kind: OpKind::Conv2DBackpropFilter,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: out_e,
                    weight_elems: fs2 * c * filters,
                    flops: conv1_flops,
                });
                if i > 0 {
                    ops.push(Op {
                        kind: OpKind::Conv2DBackpropInput,
                        layer_index: Some(i),
                        in_elems: out_e,
                        out_elems: in_e,
                        weight_elems: fs2 * c * filters,
                        flops: conv1_flops,
                    });
                }
            }
            Layer::SeparableConv2D {
                filter_size,
                filters,
                activation,
                ..
            } => {
                let c = channels_of(&s.input);
                let fs2 = filter_size * filter_size;
                let dw_out = out_e / filters * c;
                push_bias_and_act(&mut ops, i, out_e, activation, true);
                ops.push(Op {
                    kind: OpKind::Conv2DBackpropFilter,
                    layer_index: Some(i),
                    in_elems: dw_out,
                    out_elems: out_e,
                    weight_elems: c * filters,
                    flops: 2.0 * c as f64 * out_e as f64,
                });
                // The pointwise conv always needs its input gradient: it
                // feeds the depthwise pass inside the layer.
                ops.push(Op {
                    kind: OpKind::Conv2DBackpropInput,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: dw_out,
                    weight_elems: c * filters,
                    flops: 2.0 * c as f64 * out_e as f64,
                });
                ops.push(Op {
                    kind: OpKind::DepthwiseConv2dNativeBackpropFilter,
                    layer_index: Some(i),
                    in_elems: in_e,
                    out_elems: dw_out,
                    weight_elems: fs2 * c,
                    flops: 2.0 * fs2 as f64 * dw_out as f64,
                });
                if i > 0 {
                    ops.push(Op {
                        kind: OpKind::DepthwiseConv2dNativeBackpropInput,
                        layer_index: Some(i),
                        in_elems: dw_out,
                        out_elems: in_e,
                        weight_elems: fs2 * c,
                        flops: 2.0 * fs2 as f64 * dw_out as f64,
                    });
                }
            }
            Layer::Attention { dim } => {
                let in_features = s.input.elements_per_item();
                let proj_w = in_features * dim;
                let mm_flops = 2.0 * batch as f64 * in_features as f64 * dim as f64;
                ops.push(Op {
                    kind: OpKind::LayerNormGrad,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: 2 * dim,
                    flops: out_e as f64 * 8.0,
                });
                // Values-projection weight gradient.
                ops.push(Op {
                    kind: OpKind::MatMul,
                    layer_index: Some(i),
                    in_elems: in_e + out_e,
                    out_elems: proj_w,
                    weight_elems: proj_w,
                    flops: mm_flops,
                });
                ops.push(Op {
                    kind: OpKind::SoftmaxGrad,
                    layer_index: Some(i),
                    in_elems: out_e,
                    out_elems: out_e,
                    weight_elems: 0,
                    flops: out_e as f64 * 5.0,
                });
                // Scores-projection weight gradient.
                ops.push(Op {
                    kind: OpKind::MatMul,
                    layer_index: Some(i),
                    in_elems: in_e + out_e,
                    out_elems: proj_w,
                    weight_elems: proj_w,
                    flops: mm_flops,
                });
                if i > 0 {
                    ops.push(Op {
                        kind: OpKind::MatMul,
                        layer_index: Some(i),
                        in_elems: out_e,
                        out_elems: in_e,
                        weight_elems: proj_w,
                        flops: mm_flops,
                    });
                }
            }
        }
    }

    // Optimizer apply ops: one per trainable variable (weights and biases of
    // each trainable layer, shallow-to-deep as TF serializes them).
    let apply_kind = OpKind::apply_of(model.optimizer);
    let state = model.optimizer.state_slots() as f64;
    for (i, layer) in model.layers.iter().enumerate() {
        if !layer.trainable() {
            continue;
        }
        let s = &shapes[i];
        let bias_elems = s.output.elements_per_item();
        for var_elems in [s.weight_elems, bias_elems] {
            ops.push(Op {
                kind: apply_kind,
                layer_index: Some(i),
                in_elems: var_elems,
                out_elems: var_elems,
                weight_elems: var_elems,
                flops: var_elems as f64 * (2.0 + 3.0 * state),
            });
        }
    }

    ops
}

/// Resolves every layer's input and output shapes and weight count, in
/// layer order: the one forward shape walk behind both the planner and
/// [`Model::parameter_count`].
///
/// # Panics
///
/// Panics if a convolutional or pooling layer appears after the activations
/// have been flattened by a dense layer.
pub(crate) fn layer_shapes(model: &Model, batch: usize) -> Vec<LayerShapes> {
    let mut shapes: Vec<LayerShapes> = Vec::with_capacity(model.layers.len());
    let mut shape = model.input.shape(batch);
    for (i, layer) in model.layers.iter().enumerate() {
        match *layer {
            Layer::Conv2D {
                filter_size,
                filters,
                stride,
                ..
            } => {
                let (h, w, c) = match shape {
                    TensorShape::Nhwc {
                        height,
                        width,
                        channels,
                        ..
                    } => (height, width, channels),
                    TensorShape::Flat { .. } => panic!("layer {}: conv after flatten", i),
                };
                let out = TensorShape::nhwc(
                    batch,
                    conv_out_size(h, stride),
                    conv_out_size(w, stride),
                    filters,
                );
                shapes.push(LayerShapes {
                    input: shape,
                    output: out,
                    weight_elems: filter_size * filter_size * c * filters,
                });
                shape = out;
            }
            Layer::Dense { units, .. } => {
                let flat = shape.flattened();
                let in_features = flat.elements_per_item();
                let out = TensorShape::flat(batch, units);
                shapes.push(LayerShapes {
                    input: flat,
                    output: out,
                    weight_elems: in_features * units,
                });
                shape = out;
            }
            Layer::MaxPool => {
                let (h, w, c) = match shape {
                    TensorShape::Nhwc {
                        height,
                        width,
                        channels,
                        ..
                    } => (height, width, channels),
                    TensorShape::Flat { .. } => panic!("layer {}: pool after flatten", i),
                };
                let out = TensorShape::nhwc(batch, h.div_ceil(2), w.div_ceil(2), c);
                shapes.push(LayerShapes {
                    input: shape,
                    output: out,
                    weight_elems: 0,
                });
                shape = out;
            }
            Layer::Residual {
                filter_size,
                filters,
                ..
            } => {
                let (h, w, c) = match shape {
                    TensorShape::Nhwc {
                        height,
                        width,
                        channels,
                        ..
                    } => (height, width, channels),
                    TensorShape::Flat { .. } => panic!("layer {}: residual after flatten", i),
                };
                // Stride-1 SAME on both convs keeps the spatial dims, so the
                // skip path needs no resampling — only a 1x1 projection when
                // the channel count changes.
                let out = TensorShape::nhwc(batch, h, w, filters);
                let mut weight_elems = filter_size * filter_size * c * filters
                    + filter_size * filter_size * filters * filters;
                if c != filters {
                    weight_elems += c * filters;
                }
                shapes.push(LayerShapes {
                    input: shape,
                    output: out,
                    weight_elems,
                });
                shape = out;
            }
            Layer::SeparableConv2D {
                filter_size,
                filters,
                stride,
                ..
            } => {
                let (h, w, c) = match shape {
                    TensorShape::Nhwc {
                        height,
                        width,
                        channels,
                        ..
                    } => (height, width, channels),
                    TensorShape::Flat { .. } => panic!("layer {}: separable after flatten", i),
                };
                let out = TensorShape::nhwc(
                    batch,
                    conv_out_size(h, stride),
                    conv_out_size(w, stride),
                    filters,
                );
                shapes.push(LayerShapes {
                    input: shape,
                    output: out,
                    // Depthwise filters (one per input channel) plus the 1x1
                    // pointwise mixing weights.
                    weight_elems: filter_size * filter_size * c + c * filters,
                });
                shape = out;
            }
            Layer::Attention { dim } => {
                let flat = shape.flattened();
                let in_features = flat.elements_per_item();
                let out = TensorShape::flat(batch, dim);
                shapes.push(LayerShapes {
                    input: flat,
                    output: out,
                    // Two projection matrices (scores and values) plus the
                    // LayerNorm gain and bias.
                    weight_elems: 2 * in_features * dim + 2 * dim,
                });
                shape = out;
            }
        }
    }
    shapes
}

fn channels_of(shape: &TensorShape) -> usize {
    match *shape {
        TensorShape::Nhwc { channels, .. } => channels,
        TensorShape::Flat { features, .. } => features,
    }
}

fn push_bias_and_act(
    ops: &mut Vec<Op>,
    layer: usize,
    out_e: usize,
    activation: Activation,
    grad: bool,
) {
    if grad {
        // Reverse order on the backward pass: activation grad, then bias grad.
        ops.push(Op {
            kind: act_grad_kind(activation),
            layer_index: Some(layer),
            in_elems: out_e,
            out_elems: out_e,
            weight_elems: 0,
            flops: out_e as f64 * 2.0,
        });
        ops.push(Op {
            kind: OpKind::BiasAddGrad,
            layer_index: Some(layer),
            in_elems: out_e,
            out_elems: 0,
            weight_elems: 0,
            flops: out_e as f64,
        });
    } else {
        ops.push(Op {
            kind: OpKind::BiasAdd,
            layer_index: Some(layer),
            in_elems: out_e,
            out_elems: out_e,
            weight_elems: 0,
            flops: out_e as f64,
        });
        ops.push(Op {
            kind: act_kind(activation),
            layer_index: Some(layer),
            in_elems: out_e,
            out_elems: out_e,
            weight_elems: 0,
            flops: out_e as f64 * 2.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Optimizer;
    use crate::model::{zoo, InputSpec, Model};
    use crate::ops::OpClass;

    fn tiny_cnn() -> Model {
        Model::new(
            "tiny",
            InputSpec::Image {
                height: 8,
                width: 8,
                channels: 3,
            },
            vec![
                Layer::conv(3, 4, 1),
                Layer::MaxPool,
                Layer::dense(10, Activation::Relu),
            ],
            Optimizer::Gd,
        )
    }

    #[test]
    fn forward_order_matches_paper() {
        let ops = plan_iteration(&tiny_cnn(), 2);
        let names: Vec<&str> = ops.iter().map(|o| o.kind.op_name()).collect();
        // Forward: Conv2D, BiasAdd, Relu, MaxPool, MatMul, BiasAdd, Relu.
        assert_eq!(
            &names[..7],
            &["Conv2D", "BiasAdd", "Relu", "MaxPool", "MatMul", "BiasAdd", "Relu"]
        );
    }

    #[test]
    fn backward_is_reverse_order_with_grads() {
        let ops = plan_iteration(&tiny_cnn(), 2);
        let names: Vec<&str> = ops.iter().map(|o| o.kind.op_name()).collect();
        // Backward starts right after forward (index 7): dense grads first.
        assert_eq!(names[7], "ReluGrad");
        assert_eq!(names[8], "BiasAddGrad");
        assert_eq!(names[9], "MatMul"); // weight grad
        assert_eq!(names[10], "MatMul"); // input grad
        assert_eq!(names[11], "MaxPoolGrad");
        assert_eq!(names[12], "ReluGrad");
        assert_eq!(names[13], "BiasAddGrad");
        assert_eq!(names[14], "Conv2DBackpropFilter");
        // First layer: no input gradient.
        assert!(!names[15..].contains(&"Conv2DBackpropInput"));
    }

    #[test]
    fn apply_ops_count_matches_trainable_vars() {
        let ops = plan_iteration(&tiny_cnn(), 2);
        let applies = ops
            .iter()
            .filter(|o| o.class() == OpClass::Optimizer)
            .count();
        // 2 trainable layers x (weights + bias).
        assert_eq!(applies, 4);
        assert!(ops
            .iter()
            .filter(|o| o.class() == OpClass::Optimizer)
            .all(|o| o.kind.op_name() == "ApplyGradientDescent"));
    }

    #[test]
    fn vgg16_iteration_has_about_130_ops() {
        // §V-E: "a VGG16 training iteration [...] consisting of 130 ops".
        // Ours plans 153 (TF 1.x fuses a few element-wise pairs we keep
        // separate); same order of magnitude.
        let ops = plan_iteration(&zoo::vgg16(), 64);
        assert!(
            (110..=170).contains(&ops.len()),
            "VGG16 iteration has {} ops",
            ops.len()
        );
    }

    #[test]
    fn deeper_mlp_layers_have_larger_matmuls() {
        let ops = plan_iteration(&zoo::profiled_mlp(), 128);
        let matmul_flops: Vec<f64> = ops
            .iter()
            .take_while(|o| o.class() != OpClass::Optimizer)
            .filter(|o| o.kind == OpKind::MatMul)
            .map(|o| o.flops)
            .collect();
        // Forward matmuls grow with the neuron doubling (except the first,
        // which is huge because of the flattened image input).
        let fwd = &matmul_flops[..9];
        assert!(fwd[8] > fwd[4], "{:?}", fwd);
        assert!(fwd[4] > fwd[2], "{:?}", fwd);
    }

    #[test]
    fn stride_reduces_conv_cost() {
        let mk = |stride| {
            Model::new(
                "s",
                InputSpec::Image {
                    height: 32,
                    width: 32,
                    channels: 3,
                },
                vec![Layer::conv(3, 8, stride)],
                Optimizer::Gd,
            )
        };
        let f1 = plan_iteration(&mk(1), 4)[0].flops;
        let f2 = plan_iteration(&mk(2), 4)[0].flops;
        assert!(
            (f1 / f2 - 4.0).abs() < 0.5,
            "stride-2 conv should be ~4x cheaper: {} vs {}",
            f1,
            f2
        );
    }

    #[test]
    fn every_op_has_layer_index() {
        let ops = plan_iteration(&zoo::tested_mlp(), 8);
        assert!(ops.iter().all(|o| o.layer_index.is_some()));
    }

    fn tiny_image() -> InputSpec {
        InputSpec::Image {
            height: 8,
            width: 8,
            channels: 3,
        }
    }

    #[test]
    fn residual_block_plans_two_convs_projection_and_skip_add() {
        let model = Model::new(
            "res",
            tiny_image(),
            vec![Layer::residual(3, 8)],
            Optimizer::Gd,
        );
        let ops = plan_iteration(&model, 2);
        let names: Vec<&str> = ops.iter().map(|o| o.kind.op_name()).collect();
        // 3 input channels != 8 filters, so the skip path gets a projection.
        assert_eq!(
            &names[..8],
            &["Conv2D", "BiasAdd", "Relu", "Conv2D", "BiasAdd", "Conv2D", "Add", "Relu"]
        );
        // Backward mirrors: final act grad, skip-add gradient accumulation,
        // then the conv grads (conv2 always emits its input gradient).
        assert_eq!(names[8], "ReluGrad");
        assert_eq!(names[9], "Add");
        assert!(names[10..].contains(&"Conv2DBackpropFilter"));
        assert!(names[10..].contains(&"Conv2DBackpropInput"));
    }

    #[test]
    fn residual_without_channel_change_skips_projection() {
        let model = Model::new(
            "res",
            tiny_image(),
            vec![Layer::conv(3, 8, 1), Layer::residual(3, 8)],
            Optimizer::Gd,
        );
        let ops = plan_iteration(&model, 2);
        let forward_convs = ops
            .iter()
            .take_while(|o| o.kind != OpKind::ReluGrad)
            .filter(|o| o.kind == OpKind::Conv2D && o.layer_index == Some(1))
            .count();
        assert_eq!(forward_convs, 2, "no 1x1 projection when channels agree");
    }

    #[test]
    fn separable_plans_depthwise_then_pointwise() {
        let model = Model::new(
            "sep",
            tiny_image(),
            vec![Layer::separable(3, 8, 1)],
            Optimizer::Gd,
        );
        let ops = plan_iteration(&model, 2);
        let names: Vec<&str> = ops.iter().map(|o| o.kind.op_name()).collect();
        assert_eq!(
            &names[..4],
            &["DepthwiseConv2dNative", "Conv2D", "BiasAdd", "Relu"]
        );
        assert!(names.contains(&"DepthwiseConv2dNativeBackpropFilter"));
        // Depthwise weights are per-channel only: far fewer than pointwise.
        assert_eq!(ops[0].weight_elems, 3 * 3 * 3);
        assert_eq!(ops[1].weight_elems, 3 * 8);
    }

    #[test]
    fn attention_plans_matmul_softmax_matmul_layernorm() {
        let model = Model::new(
            "attn",
            tiny_image(),
            vec![Layer::attention(64)],
            Optimizer::Gd,
        );
        let ops = plan_iteration(&model, 2);
        let names: Vec<&str> = ops.iter().map(|o| o.kind.op_name()).collect();
        assert_eq!(&names[..4], &["MatMul", "Softmax", "MatMul", "LayerNorm"]);
        assert_eq!(names[4], "LayerNormGrad");
        assert!(names.contains(&"SoftmaxGrad"));
    }

    #[test]
    fn inference_mode_plans_forward_only() {
        for model in [
            tiny_cnn(),
            Model::new(
                "mix",
                tiny_image(),
                vec![
                    Layer::residual(3, 8),
                    Layer::separable(3, 16, 1),
                    Layer::attention(64),
                ],
                Optimizer::Adam,
            ),
        ] {
            let train = plan_iteration_mode(&model, 2, ExecutionMode::Training);
            let infer = plan_iteration_mode(&model, 2, ExecutionMode::Inference);
            assert!(infer.len() < train.len());
            // The inference plan is exactly the training plan's forward
            // prefix.
            assert_eq!(&train[..infer.len()], &infer[..]);
            assert!(infer.iter().all(|o| {
                !o.kind.op_name().contains("Grad")
                    && !o.kind.op_name().contains("Backprop")
                    && !o.kind.op_name().starts_with("Apply")
            }));
        }
    }
}
