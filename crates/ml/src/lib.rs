//! # `ml` — from-scratch machine-learning substrate for `leaky-dnn`
//!
//! The MoSConS attack (Leaky DNN, DSN 2020) trains six inference models:
//! a LightGBM gap detector (`Mgap`) and five LSTM models
//! (`Mlong`/`Mop`/`Mhp`/`Vlong`/`Vop`, paper Table III). This crate provides
//! everything those models need, implemented from scratch:
//!
//! * [`matrix`] — dense row-major `f32` matrices;
//! * [`lstm`] — an LSTM layer with full backpropagation-through-time;
//! * [`dense`] — a per-timestep fully-connected head;
//! * [`loss`] — weighted and maskable softmax cross-entropy (the paper's two
//!   loss customizations);
//! * [`seq`] — the assembled per-timestep [`seq::SequenceClassifier`];
//! * [`tree`] / [`gbdt`] — histogram gradient-boosted trees (the LightGBM
//!   stand-in);
//! * [`optim`] — Adam and gradient clipping;
//! * [`par`] — persistent deterministic worker pool used by the
//!   data-parallel training and inference paths;
//! * [`simd`] — explicit-lane AVX2 kernels behind runtime dispatch, bitwise
//!   pinned to the scalar microkernel (the only `core::arch` user, lint D8);
//! * [`workspace`] — caller-owned, reusable training buffers behind the
//!   allocation-free epoch loop;
//! * [`scale`] — MinMax scaling (§IV-A pre-processing);
//! * [`metrics`] — `mean(σ)` summaries;
//! * [`data`] — sequence datasets and one-hot encoding.
//!
//! # Examples
//!
//! ```
//! use ml::gbdt::{GbdtBinaryClassifier, GbdtConfig};
//!
//! let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32]).collect();
//! let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
//! let model = GbdtBinaryClassifier::fit(&rows, &labels, &GbdtConfig::default());
//! assert!(model.predict(&[33.0]));
//! ```

pub mod activation;
pub mod data;
pub mod dense;
pub mod gbdt;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod metrics;
pub mod optim;
pub mod par;
pub mod scale;
pub mod seq;
pub mod simd;
pub mod tree;
pub mod workspace;

pub use data::SeqExample;
pub use gbdt::{GbdtBinaryClassifier, GbdtConfig};
pub use matrix::Matrix;
pub use metrics::MeanStd;
pub use scale::MinMaxScaler;
pub use seq::{SeqClassifierConfig, SequenceClassifier, StreamState};
