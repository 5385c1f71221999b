//! # `cupti-sim` — CUPTI-style profiling substrate for `leaky-dnn`
//!
//! Mirrors the pieces of Nvidia's CUDA Profiling Tools Interface the paper's
//! attack depends on:
//!
//! * [`events`] — the counter catalog and the three event groups of the
//!   paper's Table IV, with the group-count ⇒ replay-overhead trade-off;
//! * [`session`] — per-context sampling sessions (event groups, poll
//!   period, precision);
//! * [`stream`] — the sampler: it aggregates the GPU engine's counter trace
//!   into fixed-period samples as the engine runs, and
//!   [`CuptiSession::collect`] drains it over a finished run;
//! * [`driver`] — driver versions, the post-418.40.04 CUPTI restriction and
//!   the root-in-your-own-VM downgrade bypass of §II-D.
//!
//! # Examples
//!
//! ```
//! use cupti_sim::{CuptiSession, VmInstance, table_iv_groups};
//! use gpu_sim::ContextId;
//!
//! // A fresh cloud VM ships the patched driver: CUPTI is blocked...
//! let mut vm = VmInstance::fresh_cloud_instance("spy-vm");
//! let ctx = ContextId::test_value(0);
//! assert!(CuptiSession::open(&vm, ctx, table_iv_groups(), 4000.0).is_err());
//! // ...until the tenant downgrades the driver in their own VM.
//! vm.downgrade_driver()?;
//! let session = CuptiSession::open(&vm, ctx, table_iv_groups(), 4000.0)?;
//! assert_eq!(session.groups().len(), 3);
//! # Ok::<(), cupti_sim::DriverError>(())
//! ```

// Enforced statically here and by leaky-lint rule D5: this crate's
// determinism contract is easier to audit with zero unsafe code.
#![forbid(unsafe_code)]

pub mod driver;
pub mod events;
pub mod session;
pub mod stream;

pub use driver::{DriverError, DriverVersion, VmInstance};
pub use events::{counters_of, replay_factor, table_iv_groups, EventGroup, GROUP_REPLAY_OVERHEAD};
pub use session::{session_fingerprint, CuptiSample, CuptiSession};
pub use stream::CuptiStream;
