//! # `dnn-sim` — TensorFlow-style training substrate for `leaky-dnn`
//!
//! Models the victim's side of the paper: sequential CNN/MLP models
//! ([`model`], with the full Table V / Table IX zoo), the per-iteration op
//! sequence a training step executes ([`planner`]), the lowering of each op
//! to a GPU kernel with a shape-derived footprint ([`kernels`]), and the
//! host-side training loop with inter-iteration gaps ([`trainer`]). Each
//! lowered kernel carries its op's ground-truth tag ([`op_tag`]), and
//! [`gpu_sim::dominant_tag`] labels profiling samples from those tags in the
//! kernel log (§V-A).
//!
//! # Examples
//!
//! ```
//! use dnn_sim::model::zoo;
//! use dnn_sim::planner::plan_iteration;
//! use dnn_sim::ops::OpClass;
//!
//! let ops = plan_iteration(&zoo::vgg16(), 64);
//! // §V-E: a VGG16 iteration runs about 130 ops.
//! assert!(ops.len() > 100);
//! assert!(ops.iter().any(|o| o.class() == OpClass::Conv));
//! ```

// Enforced statically here and by leaky-lint rule D5: this crate's
// determinism contract is easier to audit with zero unsafe code.
#![forbid(unsafe_code)]

pub mod kernels;
pub mod layer;
pub mod model;
pub mod ops;
pub mod planner;
pub mod tensor;
pub mod trainer;

pub use kernels::{lower_op, op_tag, parse_op_tag};
pub use layer::{Activation, Layer, Optimizer};
pub use model::{zoo, InputSpec, Model};
pub use ops::{Op, OpClass, OpKind};
pub use planner::{plan_iteration, plan_iteration_mode, ExecutionMode};
pub use tensor::TensorShape;
pub use trainer::{TrainingConfig, TrainingSession};
