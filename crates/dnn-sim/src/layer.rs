//! Layers, activations and optimizers — the model-structure vocabulary whose
//! secrecy the paper attacks (§II-A: layer sequence plus, per layer, the
//! activation function, neuron count, filter size, filter count and stride;
//! plus the optimizer as a model hyper-parameter).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Non-linear activation applied after a convolutional or dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit (paper letter `R`).
    Relu,
    /// Hyperbolic tangent (paper letter `T`).
    Tanh,
    /// Logistic sigmoid (paper letter `S`).
    Sigmoid,
}

impl Activation {
    /// The paper's single-letter code (Table V/VII/IX subscripts).
    pub fn letter(self) -> char {
        match self {
            Activation::Relu => 'R',
            Activation::Tanh => 'T',
            Activation::Sigmoid => 'S',
        }
    }

    /// TensorFlow op name of the forward activation.
    pub fn op_name(self) -> &'static str {
        match self {
            Activation::Relu => "Relu",
            Activation::Tanh => "Tanh",
            Activation::Sigmoid => "Sigmoid",
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.op_name())
    }
}

/// Gradient-descent optimizer (the paper profiles Adagrad, Adam and GD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Optimizer {
    /// Plain gradient descent.
    Gd,
    /// Adam.
    Adam,
    /// Adagrad.
    Adagrad,
}

impl Optimizer {
    /// Display name matching the paper's `Optimizer_X` subscripts.
    pub fn name(self) -> &'static str {
        match self {
            Optimizer::Gd => "GD",
            Optimizer::Adam => "Adam",
            Optimizer::Adagrad => "Adagrad",
        }
    }

    /// Number of auxiliary state tensors per variable (drives the apply-op
    /// traffic signature the attack keys on).
    pub fn state_slots(self) -> usize {
        match self {
            Optimizer::Gd => 0,
            Optimizer::Adam => 2,
            Optimizer::Adagrad => 1,
        }
    }

    /// All modelled optimizers.
    pub const ALL: [Optimizer; 3] = [Optimizer::Gd, Optimizer::Adam, Optimizer::Adagrad];
}

impl fmt::Display for Optimizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One layer of a sequential CNN/MLP model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layer {
    /// 2-D convolution, SAME padding.
    Conv2D {
        /// Square filter side (1, 3, 5, ... 13 in the paper's sweeps).
        filter_size: usize,
        /// Number of output filters.
        filters: usize,
        /// Spatial stride.
        stride: usize,
        /// Post-conv activation.
        activation: Activation,
    },
    /// Fully-connected layer.
    Dense {
        /// Number of output neurons.
        units: usize,
        /// Post-matmul activation.
        activation: Activation,
    },
    /// 2x2 stride-2 max pooling (the configuration all profiled models use).
    MaxPool,
    /// ResNet-style residual block: two stride-1 SAME convolutions with a
    /// skip connection added back before the final activation (plus a 1x1
    /// projection convolution when the channel count changes).
    Residual {
        /// Square filter side of both convolutions.
        filter_size: usize,
        /// Number of output filters.
        filters: usize,
        /// Activation after each convolution and after the skip-add.
        activation: Activation,
    },
    /// Depthwise-separable convolution: a depthwise pass (one filter per
    /// input channel) followed by a 1x1 pointwise convolution.
    SeparableConv2D {
        /// Square filter side of the depthwise pass.
        filter_size: usize,
        /// Number of output filters of the pointwise pass.
        filters: usize,
        /// Spatial stride of the depthwise pass.
        stride: usize,
        /// Post-pointwise activation.
        activation: Activation,
    },
    /// Transformer-style attention block over the flattened input:
    /// MatMul (scores) - Softmax - MatMul (values) followed by LayerNorm.
    Attention {
        /// Model dimension (per-token width of the projections).
        dim: usize,
    },
}

impl Layer {
    /// Convenience constructor for a ReLU conv layer.
    pub fn conv(filter_size: usize, filters: usize, stride: usize) -> Self {
        Layer::Conv2D {
            filter_size,
            filters,
            stride,
            activation: Activation::Relu,
        }
    }

    /// Convenience constructor for a dense layer.
    pub fn dense(units: usize, activation: Activation) -> Self {
        Layer::Dense { units, activation }
    }

    /// Convenience constructor for a ReLU residual block.
    pub fn residual(filter_size: usize, filters: usize) -> Self {
        Layer::Residual {
            filter_size,
            filters,
            activation: Activation::Relu,
        }
    }

    /// Convenience constructor for a ReLU depthwise-separable convolution.
    pub fn separable(filter_size: usize, filters: usize, stride: usize) -> Self {
        Layer::SeparableConv2D {
            filter_size,
            filters,
            stride,
            activation: Activation::Relu,
        }
    }

    /// Convenience constructor for an attention block.
    pub fn attention(dim: usize) -> Self {
        Layer::Attention { dim }
    }

    /// Whether the layer has trainable parameters.
    pub fn trainable(&self) -> bool {
        !matches!(self, Layer::MaxPool)
    }

    /// The paper's structure-string fragment for this layer, e.g.
    /// `C3,64,1,R`, `M4096,R` or `P`.
    pub fn structure_fragment(&self) -> String {
        match *self {
            Layer::Conv2D {
                filter_size,
                filters,
                stride,
                activation,
            } => format!(
                "C{},{},{},{}",
                filter_size,
                filters,
                stride,
                activation.letter()
            ),
            Layer::Dense { units, activation } => format!("M{},{}", units, activation.letter()),
            Layer::MaxPool => "P".to_owned(),
            Layer::Residual {
                filter_size,
                filters,
                activation,
            } => format!("E{},{},{}", filter_size, filters, activation.letter()),
            Layer::SeparableConv2D {
                filter_size,
                filters,
                stride,
                activation,
            } => format!(
                "D{},{},{},{}",
                filter_size,
                filters,
                stride,
                activation.letter()
            ),
            Layer::Attention { dim } => format!("A{}", dim),
        }
    }

    /// Validates hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Layer::Conv2D {
                filter_size,
                filters,
                stride,
                ..
            } => {
                if filter_size == 0 || filter_size % 2 == 0 {
                    return Err(format!(
                        "filter size must be odd and positive: {}",
                        filter_size
                    ));
                }
                if filters == 0 {
                    return Err("filters must be positive".into());
                }
                if stride == 0 {
                    return Err("stride must be positive".into());
                }
                Ok(())
            }
            Layer::Dense { units, .. } => {
                if units == 0 {
                    Err("units must be positive".into())
                } else {
                    Ok(())
                }
            }
            Layer::MaxPool => Ok(()),
            Layer::Residual {
                filter_size,
                filters,
                ..
            } => {
                if filter_size == 0 || filter_size % 2 == 0 {
                    return Err(format!(
                        "filter size must be odd and positive: {}",
                        filter_size
                    ));
                }
                if filters == 0 {
                    return Err("filters must be positive".into());
                }
                Ok(())
            }
            Layer::SeparableConv2D {
                filter_size,
                filters,
                stride,
                ..
            } => {
                if filter_size == 0 || filter_size % 2 == 0 {
                    return Err(format!(
                        "filter size must be odd and positive: {}",
                        filter_size
                    ));
                }
                if filters == 0 {
                    return Err("filters must be positive".into());
                }
                if stride == 0 {
                    return Err("stride must be positive".into());
                }
                Ok(())
            }
            Layer::Attention { dim } => {
                if dim == 0 {
                    Err("attention dim must be positive".into())
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_letters_match_paper() {
        assert_eq!(Activation::Relu.letter(), 'R');
        assert_eq!(Activation::Tanh.letter(), 'T');
        assert_eq!(Activation::Sigmoid.letter(), 'S');
    }

    #[test]
    fn structure_fragments_match_table_v_format() {
        assert_eq!(Layer::conv(11, 96, 4).structure_fragment(), "C11,96,4,R");
        assert_eq!(
            Layer::dense(4096, Activation::Relu).structure_fragment(),
            "M4096,R"
        );
        assert_eq!(Layer::MaxPool.structure_fragment(), "P");
        assert_eq!(
            Layer::dense(128, Activation::Tanh).structure_fragment(),
            "M128,T"
        );
    }

    #[test]
    fn optimizer_state_slots() {
        assert_eq!(Optimizer::Gd.state_slots(), 0);
        assert_eq!(Optimizer::Adagrad.state_slots(), 1);
        assert_eq!(Optimizer::Adam.state_slots(), 2);
    }

    #[test]
    fn zoo_structure_fragments() {
        assert_eq!(Layer::residual(3, 64).structure_fragment(), "E3,64,R");
        assert_eq!(
            Layer::separable(3, 128, 1).structure_fragment(),
            "D3,128,1,R"
        );
        assert_eq!(Layer::attention(256).structure_fragment(), "A256");
    }

    #[test]
    fn zoo_layer_validation() {
        assert!(Layer::residual(3, 64).validate().is_ok());
        assert!(Layer::residual(4, 64).validate().is_err()); // even filter
        assert!(Layer::residual(3, 0).validate().is_err());
        assert!(Layer::separable(5, 128, 2).validate().is_ok());
        assert!(Layer::separable(2, 128, 1).validate().is_err());
        assert!(Layer::separable(3, 0, 1).validate().is_err());
        assert!(Layer::separable(3, 128, 0).validate().is_err());
        assert!(Layer::attention(256).validate().is_ok());
        assert!(Layer::attention(0).validate().is_err());
        assert!(Layer::residual(3, 64).trainable());
        assert!(Layer::separable(3, 64, 1).trainable());
        assert!(Layer::attention(64).trainable());
    }

    #[test]
    fn layer_validation() {
        assert!(Layer::conv(3, 64, 1).validate().is_ok());
        assert!(Layer::conv(4, 64, 1).validate().is_err()); // even filter
        assert!(Layer::conv(3, 0, 1).validate().is_err());
        assert!(Layer::conv(3, 64, 0).validate().is_err());
        assert!(Layer::dense(0, Activation::Relu).validate().is_err());
        assert!(Layer::MaxPool.validate().is_ok());
        assert!(!Layer::MaxPool.trainable());
        assert!(Layer::conv(3, 8, 1).trainable());
    }
}
