//! # `moscons` — Model Secret Extraction with GPU Context Switching
//!
//! The attack contributed by *Leaky DNN: Stealing Deep-learning Model Secret
//! with GPU Context-switching Side-channel* (DSN 2020), reproduced on the
//! workspace's simulated substrate:
//!
//! * [`spy`] — the probe kernels of Table I (4 blocks x 32 threads; Conv200
//!   is the paper's choice);
//! * [`slowdown`] — the §IV slow-down attack (8 hog kernels in 4 groups);
//! * [`trace`] — collection runs wiring victim + sampler + hogs + CUPTI;
//! * [`cache`] — in-process, content-addressed memoization of collection
//!   runs and feature matrices;
//! * [`dataset`] — timeline alignment (largest-overlap labeling, §V-A),
//!   MinMax scaling, iteration slicing;
//! * [`gap`] — `Mgap`, the GBDT NOP/BUSY splitter (`TH_gap`/`R_min`/`R_max`);
//! * [`long_ops`] / [`other_ops`] — `Mlong` and `Mop`, the LSTM op
//!   classifiers with the paper's weighted / masked losses;
//! * [`voting`] — `Vlong`/`Vop`, LSTM voting across iterations;
//! * [`hyperparams`] — `Mhp`, per-hyper-parameter LSTM heads;
//! * [`opseq`] — collapsing and forward-prefix layer parsing;
//! * [`syntax`] — DNN-syntax correction (§IV-D);
//! * [`attack`] — the end-to-end [`attack::Moscons`] orchestration;
//! * [`stream`] — the streaming attack engine: incremental gap splitting +
//!   stateful `Mlong`/`Mop` inference, labels with bounded latency, and a
//!   final extraction bitwise equal to the batch attack;
//! * [`fleet`] — the sharded orchestrator multiplexing N concurrent spy
//!   sessions over the worker pool with bounded queues and back-pressure;
//! * [`report`] — `AccuracyL` / `AccuracyHP` / per-class scoring.
//!
//! # Examples
//!
//! ```no_run
//! use dnn_sim::{zoo, TrainingConfig, TrainingSession};
//! use moscons::attack::{AttackConfig, Moscons};
//!
//! // Profile the adversary's own models...
//! let profiled: Vec<TrainingSession> = zoo::profiled_models()
//!     .into_iter()
//!     .map(|m| TrainingSession::new(m, TrainingConfig::new(16, 8)))
//!     .collect();
//! let moscons = Moscons::profile(&profiled, AttackConfig::default());
//! // ...then attack the victim.
//! let victim = TrainingSession::new(zoo::vgg16(), TrainingConfig::new(16, 8));
//! let (extraction, _trace) = moscons.attack(&victim, 42);
//! println!("recovered: {}", extraction.structure);
//! ```

// Enforced statically here and by leaky-lint rule D5: this crate's
// determinism contract is easier to audit with zero unsafe code.
#![forbid(unsafe_code)]

pub mod attack;
pub mod cache;
pub mod dataset;
pub mod fleet;
pub mod gap;
pub mod hyperparams;
pub mod long_ops;
pub mod opseq;
pub mod other_ops;
pub mod profiling;
pub mod report;
pub mod slowdown;
pub mod spy;
pub mod stream;
pub mod syntax;
pub mod trace;
pub mod voting;

pub use attack::{AttackConfig, Extraction, Moscons};
pub use dataset::LabeledTrace;
pub use fleet::{
    run_fleet, FleetConfig, FleetOutcome, OverflowPolicy, SessionOutcome, SessionSpec,
};
pub use gap::{GapConfig, GapModel};
pub use hyperparams::{HpKind, HpModel};
pub use long_ops::{LongClass, LongOpModel, LstmTrainConfig};
pub use opseq::{
    forward_boundary, parse_forward_layers_lenient, parse_forward_layers_zoo, RecoveredGraph,
    RecoveredKind, RecoveredLayer, Skip,
};
pub use other_ops::{OpVocab, OtherClass, OtherOpModel};
pub use profiling::{hp_sweep_variants, random_profiling_models, random_zoo_profiling_models};
pub use report::{score_structure, AttackReport, StructureAccuracy};
pub use slowdown::SlowdownConfig;
pub use spy::{sampler_retry_policy, SpyKernelKind};
pub use stream::{
    AttackStream, GapStream, SegmentSplitter, SplitEvent, StreamLabel, StreamOutcome,
};
pub use syntax::{correct_graph, SyntaxConfig};
pub use trace::{collect_trace, CollectionConfig, RawTrace};
pub use voting::{majority_vote, VotingModel};
