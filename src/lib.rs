//! # `leaky-dnn`
//!
//! A from-scratch Rust reproduction of **Leaky DNN: Stealing Deep-learning
//! Model Secret with GPU Context-switching Side-channel** (Wei, Zhang, Zhou,
//! Li, Al Faruque — DSN 2020).
//!
//! The paper shows that when an adversary and a victim share a GPU with MPS
//! disabled, the time-sliced scheduler's context-switching penalties leak the
//! victim DNN's structural secret — its layer sequence and hyper-parameters —
//! to a spy process reading CUPTI performance counters around its own probe
//! kernels. The MoSConS attack recovers structures such as VGG16's with a
//! pipeline of learned models (a GBDT iteration splitter, LSTM op
//! classifiers, LSTM voting, hyper-parameter heads) plus DNN-syntax
//! correction.
//!
//! This workspace rebuilds every layer of that system in Rust:
//!
//! | crate | role |
//! |---|---|
//! | [`gpu_sim`] | discrete-event GPU: SMs, contexts, time-sliced + MPS schedulers, L2 occupancy/eviction, DRAM sub-partitions, performance counters |
//! | [`cupti_sim`] | CUPTI events/groups (Table IV), sampling sessions, driver-version gating + the §II-D downgrade bypass |
//! | [`dnn_sim`] | TensorFlow-style substrate: the Table V/IX model zoo, training-step op planner, op→kernel lowering with per-op ground-truth tags |
//! | [`ml`] | from-scratch LSTM (BPTT), GBDT, losses, optimizers, metrics |
//! | [`moscons`] | the attack: spy kernels, slow-down, Mgap/Mlong/Mop/Mhp, voting, syntax correction, end-to-end orchestration |
//!
//! # Quickstart
//!
//! ```no_run
//! use leaky_dnn::prelude::*;
//!
//! // The adversary profiles her own models on the shared GPU...
//! let input = InputSpec::Image { height: 64, width: 64, channels: 3 };
//! let profiled: Vec<TrainingSession> = random_profiling_models(6, input, 7)
//!     .into_iter()
//!     .map(|m| TrainingSession::new(m, TrainingConfig::new(16, 6)))
//!     .collect();
//! let moscons = Moscons::profile(&profiled, AttackConfig::default());
//!
//! // ...then extracts the victim's structure from counter samples alone.
//! let victim = TrainingSession::new(zoo::vgg16().with_input(input), TrainingConfig::new(16, 6));
//! let (extraction, _) = moscons.attack(&victim, 99);
//! println!("recovered structure: {}", extraction.structure);
//! ```

pub use cupti_sim;
pub use dnn_sim;
pub use gpu_sim;
pub use ml;
pub use moscons;

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use cupti_sim::{table_iv_groups, CuptiSession, DriverVersion, VmInstance};
    pub use dnn_sim::{
        plan_iteration, zoo, Activation, InputSpec, Layer, Model, OpClass, Optimizer,
        TrainingConfig, TrainingSession,
    };
    pub use gpu_sim::{Gpu, GpuConfig, KernelDesc, KernelFootprint, SchedulerMode};
    pub use moscons::{
        attack::{AttackConfig, Extraction, Moscons},
        random_profiling_models, score_structure, CollectionConfig, GapConfig, HpKind,
        LabeledTrace, SlowdownConfig, SpyKernelKind,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        let cfg = GpuConfig::gtx_1080_ti();
        assert_eq!(cfg.num_sms, 28);
        let m = zoo::vgg16();
        assert_eq!(m.layers.len(), 21);
        let _ = AttackConfig::default();
    }
}
