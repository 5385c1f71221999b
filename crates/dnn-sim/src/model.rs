//! Sequential models and the paper's model zoo.
//!
//! Table V defines the three models the adversary *profiles* (customized
//! 9-layer MLP, AlexNet, customized VGG19) and Table IX the three models she
//! *attacks* (customized 5-layer MLP, ZFNet, VGG16) — chosen to test transfer
//! within a family (VGG19 → VGG16) and across families (AlexNet → ZFNet).

use serde::{Deserialize, Serialize};

use crate::layer::{Activation, Layer, Optimizer};
use crate::planner::layer_shapes;
use crate::tensor::TensorShape;

/// Input specification of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputSpec {
    /// Image input `height` x `width` x `channels` (fed to conv stacks, or
    /// flattened for MLPs).
    Image {
        /// Height in pixels.
        height: usize,
        /// Width in pixels.
        width: usize,
        /// Channels.
        channels: usize,
    },
}

impl InputSpec {
    /// Standard ImageNet-preprocessed input (the paper resizes 64x64 images
    /// to 224x224, §V-A).
    pub fn imagenet() -> Self {
        InputSpec::Image {
            height: 224,
            width: 224,
            channels: 3,
        }
    }

    /// The activation shape for a given batch size.
    pub fn shape(&self, batch: usize) -> TensorShape {
        match *self {
            InputSpec::Image {
                height,
                width,
                channels,
            } => TensorShape::nhwc(batch, height, width, channels),
        }
    }
}

/// A sequential DNN model: the structural secret the attack targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// Model name.
    pub name: String,
    /// Input specification.
    pub input: InputSpec,
    /// Layer stack.
    pub layers: Vec<Layer>,
    /// Training optimizer.
    pub optimizer: Optimizer,
}

impl Model {
    /// Creates a model, validating every layer.
    ///
    /// # Panics
    ///
    /// Panics if any layer is invalid or the stack is empty.
    pub fn new(
        name: impl Into<String>,
        input: InputSpec,
        layers: Vec<Layer>,
        optimizer: Optimizer,
    ) -> Self {
        assert!(!layers.is_empty(), "model needs at least one layer");
        for (i, l) in layers.iter().enumerate() {
            if let Err(e) = l.validate() {
                panic!("layer {}: {}", i, e);
            }
        }
        Model {
            name: name.into(),
            input,
            layers,
            optimizer,
        }
    }

    /// Returns the model with a different input specification (used to run
    /// the zoo at reduced image sizes — the paper's §V-B notes batch and
    /// image size barely affect the attack, which our scaled runs exploit).
    pub fn with_input(mut self, input: InputSpec) -> Self {
        self.input = input;
        self
    }

    /// The paper's structure string, e.g.
    /// `C3,64,1,R-P-M4096,R-OptimizerAdam`.
    pub fn structure_string(&self) -> String {
        let mut parts: Vec<String> = self.layers.iter().map(Layer::structure_fragment).collect();
        parts.push(format!("Optimizer{}", self.optimizer.name()));
        parts.join("-")
    }

    /// Total trainable parameters given the input spec (weights + biases),
    /// summed over the planner's forward shape walk.
    ///
    /// # Panics
    ///
    /// Panics if a convolutional or pooling layer appears after the
    /// activations have been flattened by a dense layer.
    pub fn parameter_count(&self, batch: usize) -> usize {
        self.layers
            .iter()
            .zip(layer_shapes(self, batch))
            .map(|(layer, s)| {
                let biases = match *layer {
                    Layer::Conv2D { filters, .. } | Layer::SeparableConv2D { filters, .. } => {
                        filters
                    }
                    Layer::Residual { filters, .. } => 2 * filters,
                    Layer::Dense { units, .. } => units,
                    Layer::Attention { .. } | Layer::MaxPool => 0,
                };
                s.weight_elems + biases
            })
            .sum()
    }
}

/// The model zoo: every structure from Table V (profiled) and Table IX
/// (tested ground truth).
pub mod zoo {
    use super::*;
    use Activation::{Relu, Sigmoid, Tanh};

    /// Customized 9-layer MLP the adversary profiles (Table V).
    pub fn profiled_mlp() -> Model {
        Model::new(
            "Cust. MLP (profiled)",
            InputSpec::imagenet(),
            vec![
                Layer::dense(64, Relu),
                Layer::dense(128, Tanh),
                Layer::dense(256, Sigmoid),
                Layer::dense(512, Relu),
                Layer::dense(1024, Tanh),
                Layer::dense(2048, Sigmoid),
                Layer::dense(4096, Relu),
                Layer::dense(8192, Relu),
                Layer::dense(16384, Sigmoid),
            ],
            Optimizer::Adagrad,
        )
    }

    /// AlexNet as profiled (Table V).
    pub fn alexnet() -> Model {
        Model::new(
            "AlexNet",
            InputSpec::imagenet(),
            vec![
                Layer::conv(11, 96, 4),
                Layer::MaxPool,
                Layer::conv(5, 256, 1),
                Layer::MaxPool,
                Layer::conv(3, 384, 1),
                Layer::conv(3, 384, 1),
                Layer::conv(3, 256, 1),
                Layer::MaxPool,
                Layer::dense(4096, Relu),
                Layer::dense(4096, Relu),
                Layer::dense(1000, Relu),
            ],
            Optimizer::Adam,
        )
    }

    /// The customized VGG19 of Table V (non-standard filter sizes/counts).
    pub fn profiled_vgg19() -> Model {
        Model::new(
            "Cust. VGG19",
            InputSpec::imagenet(),
            vec![
                Layer::conv(13, 64, 1),
                Layer::conv(13, 64, 1),
                Layer::MaxPool,
                Layer::conv(11, 192, 1),
                Layer::conv(9, 256, 1),
                Layer::MaxPool,
                Layer::conv(7, 256, 1),
                Layer::conv(5, 256, 1),
                Layer::conv(3, 256, 1),
                Layer::conv(1, 256, 1),
                Layer::MaxPool,
                Layer::conv(3, 512, 1),
                Layer::conv(3, 512, 1),
                Layer::conv(3, 512, 1),
                Layer::conv(3, 512, 1),
                Layer::MaxPool,
                Layer::conv(1, 512, 1),
                Layer::conv(1, 1024, 1),
                Layer::conv(1, 2048, 1),
                Layer::conv(1, 4096, 1),
                Layer::MaxPool,
                Layer::dense(4096, Relu),
                Layer::dense(4096, Relu),
                Layer::dense(1000, Relu),
            ],
            Optimizer::Gd,
        )
    }

    /// Customized 5-layer MLP the adversary attacks (Table IX ground truth).
    pub fn tested_mlp() -> Model {
        Model::new(
            "Cust. MLP (tested)",
            InputSpec::imagenet(),
            vec![
                Layer::dense(64, Relu),
                Layer::dense(512, Tanh),
                Layer::dense(1024, Sigmoid),
                Layer::dense(2048, Relu),
                Layer::dense(8192, Tanh),
            ],
            Optimizer::Gd,
        )
    }

    /// ZFNet as attacked (Table IX ground truth).
    pub fn zfnet() -> Model {
        Model::new(
            "ZFNet",
            InputSpec::imagenet(),
            vec![
                Layer::conv(7, 96, 2),
                Layer::MaxPool,
                Layer::conv(5, 256, 2),
                Layer::MaxPool,
                Layer::conv(3, 512, 1),
                Layer::conv(3, 1024, 1),
                Layer::conv(3, 512, 1),
                Layer::MaxPool,
                Layer::dense(4096, Relu),
                Layer::dense(4096, Relu),
                Layer::dense(1000, Relu),
            ],
            Optimizer::Adam,
        )
    }

    /// VGG16 as attacked (Table IX ground truth).
    pub fn vgg16() -> Model {
        Model::new(
            "VGG16",
            InputSpec::imagenet(),
            vec![
                Layer::conv(3, 64, 1),
                Layer::conv(3, 64, 1),
                Layer::MaxPool,
                Layer::conv(3, 128, 1),
                Layer::conv(3, 128, 1),
                Layer::MaxPool,
                Layer::conv(3, 256, 1),
                Layer::conv(3, 256, 1),
                Layer::conv(3, 256, 1),
                Layer::MaxPool,
                Layer::conv(3, 512, 1),
                Layer::conv(3, 512, 1),
                Layer::conv(3, 512, 1),
                Layer::MaxPool,
                Layer::conv(3, 512, 1),
                Layer::conv(3, 512, 1),
                Layer::conv(3, 512, 1),
                Layer::MaxPool,
                Layer::dense(4096, Relu),
                Layer::dense(4096, Relu),
                Layer::dense(1000, Relu),
            ],
            Optimizer::Adam,
        )
    }

    /// The three profiled models (attack training set).
    pub fn profiled_models() -> Vec<Model> {
        vec![profiled_mlp(), alexnet(), profiled_vgg19()]
    }

    /// The three tested models (attack targets).
    pub fn tested_models() -> Vec<Model> {
        vec![tested_mlp(), zfnet(), vgg16()]
    }

    /// Family tags of the victim-zoo conformance matrix. The `inference`
    /// family reuses the linear CNN under forward-only execution
    /// ([`crate::ExecutionMode::Inference`]), so [`family_model`] maps it to
    /// the same structure as `linear`.
    pub const FAMILIES: [&str; 5] = ["linear", "residual", "separable", "attention", "inference"];

    /// Small linear-chain CNN: the classic Table V/IX shape at zoo scale.
    pub fn linear_cnn() -> Model {
        Model::new(
            "Linear CNN (zoo)",
            InputSpec::imagenet(),
            vec![
                Layer::conv(3, 64, 1),
                Layer::MaxPool,
                Layer::conv(5, 128, 1),
                Layer::MaxPool,
                Layer::dense(1024, Relu),
                Layer::dense(256, Relu),
            ],
            Optimizer::Adam,
        )
    }

    /// ResNet-style victim: conv stem, two residual blocks, dense head.
    pub fn residual_cnn() -> Model {
        Model::new(
            "Residual CNN (zoo)",
            InputSpec::imagenet(),
            vec![
                Layer::conv(3, 64, 1),
                Layer::MaxPool,
                Layer::residual(3, 64),
                Layer::residual(3, 128),
                Layer::MaxPool,
                Layer::dense(512, Relu),
                Layer::dense(128, Relu),
            ],
            Optimizer::Adam,
        )
    }

    /// MobileNet-style victim built from depthwise-separable convolutions.
    pub fn separable_cnn() -> Model {
        Model::new(
            "Separable CNN (zoo)",
            InputSpec::imagenet(),
            vec![
                Layer::separable(3, 64, 1),
                Layer::MaxPool,
                Layer::separable(5, 128, 1),
                Layer::MaxPool,
                Layer::dense(1024, Relu),
                Layer::dense(256, Relu),
            ],
            Optimizer::Adagrad,
        )
    }

    /// Transformer-style victim: stacked attention blocks and a dense head.
    pub fn attention_net() -> Model {
        Model::new(
            "Attention net (zoo)",
            InputSpec::imagenet(),
            vec![
                Layer::attention(256),
                Layer::attention(128),
                Layer::dense(512, Relu),
                Layer::dense(64, Relu),
            ],
            Optimizer::Gd,
        )
    }

    /// The victim model of a conformance family ([`FAMILIES`]); `None` for
    /// unknown tags.
    pub fn family_model(family: &str) -> Option<Model> {
        match family {
            "linear" | "inference" => Some(linear_cnn()),
            "residual" => Some(residual_cnn()),
            "separable" => Some(separable_cnn()),
            "attention" => Some(attention_net()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::zoo::*;
    use super::*;

    #[test]
    fn structure_strings_match_table_v() {
        assert_eq!(
            profiled_mlp().structure_string(),
            "M64,R-M128,T-M256,S-M512,R-M1024,T-M2048,S-M4096,R-M8192,R-M16384,S-OptimizerAdagrad"
        );
        assert!(alexnet()
            .structure_string()
            .starts_with("C11,96,4,R-P-C5,256,1,R-P-"));
        assert!(alexnet()
            .structure_string()
            .ends_with("M1000,R-OptimizerAdam"));
    }

    #[test]
    fn structure_strings_match_table_ix() {
        assert_eq!(
            tested_mlp().structure_string(),
            "M64,R-M512,T-M1024,S-M2048,R-M8192,T-OptimizerGD"
        );
        assert!(zfnet()
            .structure_string()
            .starts_with("C7,96,2,R-P-C5,256,2,R-P-C3,512,1,R-C3,1024,1,R-C3,512,1,R-P-"));
        let vgg = vgg16().structure_string();
        assert_eq!(vgg.matches("C3,").count(), 13, "VGG16 has 13 conv layers");
        assert_eq!(vgg.matches('P').count(), 5);
    }

    #[test]
    fn layer_counts() {
        assert_eq!(profiled_mlp().layers.len(), 9);
        assert_eq!(tested_mlp().layers.len(), 5);
        assert_eq!(vgg16().layers.len(), 13 + 5 + 3);
        assert_eq!(profiled_vgg19().layers.len(), 16 + 5 + 3);
        assert_eq!(
            zfnet().layers.iter().filter(|l| l.trainable()).count(),
            5 + 3
        );
    }

    #[test]
    fn vgg16_parameter_count_is_plausible() {
        // Real VGG16 has ~138M parameters.
        let p = vgg16().parameter_count(1);
        assert!(
            (120_000_000..160_000_000).contains(&p),
            "unexpected parameter count {}",
            p
        );
    }

    #[test]
    fn alexnet_shapes_flow() {
        // Parameter counting exercises the full shape propagation; a panic
        // here would mean the conv/pool arithmetic broke.
        let p = alexnet().parameter_count(1);
        assert!(p > 10_000_000, "{}", p);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_panics() {
        let _ = Model::new("x", InputSpec::imagenet(), vec![], Optimizer::Gd);
    }

    #[test]
    fn zoo_groups() {
        assert_eq!(profiled_models().len(), 3);
        assert_eq!(tested_models().len(), 3);
    }

    #[test]
    fn family_models_cover_every_tag() {
        for family in FAMILIES {
            let m = family_model(family).unwrap_or_else(|| panic!("no model for {family}"));
            assert!(m.parameter_count(1) > 0);
        }
        assert_eq!(family_model("linear"), family_model("inference"));
        assert!(family_model("nope").is_none());
    }

    #[test]
    fn zoo_family_parameter_counts_flow() {
        // Exercises the residual/separable/attention shape propagation.
        let res = residual_cnn().parameter_count(1);
        let sep = separable_cnn().parameter_count(1);
        let attn = attention_net().parameter_count(1);
        assert!(res > 0 && sep > 0 && attn > 0);
        // A separable conv has far fewer parameters than its dense
        // counterpart would: depthwise 3x3x64 + pointwise 64x128 vs
        // 3x3x64x128.
        let sep_layer = Layer::separable(3, 128, 1);
        let conv_layer = Layer::conv(3, 128, 1);
        let mk = |l| {
            Model::new(
                "p",
                InputSpec::Image {
                    height: 16,
                    width: 16,
                    channels: 64,
                },
                vec![l],
                Optimizer::Gd,
            )
            .parameter_count(1)
        };
        assert!(mk(sep_layer) < mk(conv_layer) / 4);
    }

    #[test]
    fn parameter_count_matches_hand_counts_per_layer_kind() {
        let count = |layers: Vec<Layer>| {
            let input = InputSpec::Image {
                height: 16,
                width: 16,
                channels: 8,
            };
            Model::new("p", input, layers, Optimizer::Gd).parameter_count(1)
        };
        assert_eq!(count(vec![Layer::conv(3, 16, 1)]), 3 * 3 * 8 * 16 + 16);
        // Two convs with biases, plus the bias-free 1x1 projection the
        // channel change (8 -> 32) adds to the skip path.
        assert_eq!(
            count(vec![Layer::residual(3, 32)]),
            3 * 3 * 8 * 32 + 32 + 3 * 3 * 32 * 32 + 32 + 8 * 32
        );
        // Depthwise filters, pointwise weights, one bias per output channel.
        assert_eq!(
            count(vec![Layer::separable(3, 64, 2)]),
            3 * 3 * 8 + 8 * 64 + 64
        );
        // Two projections over the flattened input plus LayerNorm gain and
        // bias.
        assert_eq!(
            count(vec![Layer::attention(128)]),
            2 * (16 * 16 * 8) * 128 + 2 * 128
        );
        assert_eq!(
            count(vec![Layer::MaxPool, Layer::dense(10, Activation::Relu)]),
            8 * 8 * 8 * 10 + 10
        );
    }

    #[test]
    fn zoo_family_structure_strings() {
        assert!(residual_cnn().structure_string().contains("E3,64,R"));
        assert!(separable_cnn().structure_string().contains("D5,128,1,R"));
        assert!(attention_net().structure_string().starts_with("A256-A128-"));
    }
}
