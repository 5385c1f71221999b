//! # `gpu-sim` — discrete-event GPU substrate for `leaky-dnn`
//!
//! A behavioural model of the hardware the paper's attack runs on (an Nvidia
//! GTX 1080 Ti): streaming multiprocessors, CUDA contexts with FIFO kernel
//! streams, a **time-sliced scheduler** (MPS off) and an **MPS leftover
//! scheduler**, a sliced L2 occupancy model with cross-context eviction, DRAM
//! sub-partitions, a texture path and the ten per-context performance
//! counters the paper selects (Table IV).
//!
//! The model's purpose is to reproduce the *context-switching side-channel*:
//! when a victim kernel runs between two slices of a spy kernel, it evicts
//! the spy's L2 residency; the spy then pays re-fetch reads and write-backs
//! that are measurable through its own counters. See `DESIGN.md` §3 for the
//! exact mechanisms and their mapping to the paper's observations.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::{Gpu, GpuConfig, KernelDesc, KernelFootprint, SchedulerMode};
//!
//! let mut gpu = Gpu::new(GpuConfig::gtx_1080_ti(), SchedulerMode::TimeSliced);
//! let victim = gpu.add_context("victim");
//! let fp = KernelFootprint {
//!     flops: 1e6,
//!     read_bytes: 1e5,
//!     write_bytes: 1e4,
//!     tex_read_bytes: 0.0,
//!     working_set: 1e5,
//!     tex_working_set: 0.0,
//! };
//! gpu.enqueue(victim, KernelDesc::new("MatMul", 56, 1024, fp).with_tag("MatMul"));
//! gpu.run_until_queues_drain();
//! assert_eq!(gpu.kernels_completed(victim), 1);
//! ```

// Enforced statically here and by leaky-lint rule D5: this crate's
// determinism contract is easier to audit with zero unsafe code.
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod sm;
pub mod timeline;

pub use cache::{CtxOccupancy, OccupancyL2, SetAssocCache};
pub use config::GpuConfig;
pub use counters::{CounterId, CounterValues};
pub use engine::{ContextId, Gpu, SchedulerMode};
pub use fault::{FaultPlan, RetryPolicy};
pub use kernel::{KernelDesc, KernelFootprint};
pub use sm::Occupancy;
pub use timeline::{dominant_tag, CounterSlice, KernelRecord};
