//! CUDA kernel descriptions: launch geometry (grid/block) plus an abstract
//! memory/compute footprint from which the engine derives durations, cache
//! pressure and counter activity.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::config::GpuConfig;
use crate::sm::Occupancy;

/// Abstract resource footprint of one kernel launch.
///
/// Byte quantities are totals for the whole launch:
///
/// * `read_bytes` — compulsory/streaming reads that always reach DRAM;
/// * `write_bytes` — bytes written (they create *dirty* L2 occupancy and only
///   reach DRAM via eviction or idle drain — this is the write-back channel
///   the spy observes);
/// * `tex_read_bytes` — reads routed through the texture units (counted by
///   `texX_cache_sector_queries`);
/// * `working_set` — global-memory reuse set the kernel benefits from keeping
///   resident in L2; lost residency must be re-fetched after a context switch
///   (the *context-switching penalty*);
/// * `tex_working_set` — texture-tagged reuse set (convolutions are tex-heavy,
///   which is what distinguishes them from GEMM in the side-channel).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelFootprint {
    /// Total floating-point operations.
    pub flops: f64,
    /// Streaming DRAM read bytes.
    pub read_bytes: f64,
    /// Bytes written (dirty-generation).
    pub write_bytes: f64,
    /// Texture-path streaming read bytes.
    pub tex_read_bytes: f64,
    /// Global-memory L2 reuse set, bytes.
    pub working_set: f64,
    /// Texture-tagged L2 reuse set, bytes.
    pub tex_working_set: f64,
}

impl KernelFootprint {
    /// A footprint with everything zero (a no-op kernel).
    pub fn empty() -> Self {
        KernelFootprint {
            flops: 0.0,
            read_bytes: 0.0,
            write_bytes: 0.0,
            tex_read_bytes: 0.0,
            working_set: 0.0,
            tex_working_set: 0.0,
        }
    }

    /// Total bytes moved while streaming (excludes refetch penalties).
    pub fn stream_bytes(&self) -> f64 {
        self.read_bytes + self.write_bytes + self.tex_read_bytes
    }

    /// Total reuse set (global + texture).
    pub fn total_working_set(&self) -> f64 {
        self.working_set + self.tex_working_set
    }

    /// Checks all quantities are finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("flops", self.flops),
            ("read_bytes", self.read_bytes),
            ("write_bytes", self.write_bytes),
            ("tex_read_bytes", self.tex_read_bytes),
            ("working_set", self.working_set),
            ("tex_working_set", self.tex_working_set),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("footprint field {} invalid: {}", name, v));
            }
        }
        Ok(())
    }
}

/// A kernel ready to be enqueued on a context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Kernel name (e.g. a cuDNN entry point). Interned: cloning a
    /// description (the engine clones one per auto-repeat launch) bumps a
    /// refcount instead of copying a heap string.
    pub name: Arc<str>,
    /// Ground-truth operation tag attached by the framework layer (e.g.
    /// `"Conv2D"`); this is what the TensorFlow-timeline profiler exposes and
    /// what the attack's training phase aligns against.
    pub op_tag: Option<Arc<str>>,
    /// Grid size in blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Resource footprint.
    pub footprint: KernelFootprint,
}

impl KernelDesc {
    /// Creates a kernel description.
    ///
    /// # Panics
    ///
    /// Panics if the launch geometry is zero or the footprint is invalid.
    pub fn new(
        name: impl Into<Arc<str>>,
        blocks: u32,
        threads_per_block: u32,
        footprint: KernelFootprint,
    ) -> Self {
        assert!(blocks > 0, "kernel needs at least one block");
        assert!(
            threads_per_block > 0,
            "kernel needs at least one thread per block"
        );
        footprint.validate().expect("valid footprint");
        KernelDesc {
            name: name.into(),
            op_tag: None,
            blocks,
            threads_per_block,
            footprint,
        }
    }

    /// Attaches a ground-truth operation tag (builder style).
    pub fn with_tag(mut self, tag: impl Into<Arc<str>>) -> Self {
        self.op_tag = Some(tag.into());
        self
    }

    /// SM occupancy of this launch on the given device.
    pub fn occupancy(&self, config: &GpuConfig) -> Occupancy {
        Occupancy::of_launch(self.blocks, self.threads_per_block, config)
    }

    /// Execution time in microseconds when running alone with a warm cache:
    /// the max of the compute-bound and memory-bound estimates.
    pub fn nominal_duration_us(&self, config: &GpuConfig) -> f64 {
        let occ = self.occupancy(config).fraction().max(1e-3);
        let compute_us = self.footprint.flops / (config.compute_throughput * occ);
        let memory_us = self.footprint.stream_bytes() / config.mem_bandwidth;
        compute_us.max(memory_us).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(flops: f64, bytes: f64) -> KernelFootprint {
        KernelFootprint {
            flops,
            read_bytes: bytes,
            write_bytes: 0.0,
            tex_read_bytes: 0.0,
            working_set: 0.0,
            tex_working_set: 0.0,
        }
    }

    #[test]
    fn duration_is_max_of_compute_and_memory() {
        let cfg = GpuConfig::gtx_1080_ti();
        // Fully occupying launch.
        let blocks = cfg.num_sms as u32 * 2;
        let tpb = 1024;
        let compute_bound =
            KernelDesc::new("c", blocks, tpb, fp(cfg.compute_throughput * 100.0, 1.0));
        let memory_bound = KernelDesc::new("m", blocks, tpb, fp(1.0, cfg.mem_bandwidth * 100.0));
        assert!((compute_bound.nominal_duration_us(&cfg) - 100.0).abs() < 5.0);
        assert!((memory_bound.nominal_duration_us(&cfg) - 100.0).abs() < 5.0);
    }

    #[test]
    fn low_occupancy_slows_compute_bound_kernels() {
        let cfg = GpuConfig::gtx_1080_ti();
        let full = KernelDesc::new("f", cfg.num_sms as u32 * 2, 1024, fp(1e9, 0.0));
        let tiny = KernelDesc::new("t", 4, 32, fp(1e9, 0.0));
        assert!(tiny.nominal_duration_us(&cfg) > 10.0 * full.nominal_duration_us(&cfg));
    }

    #[test]
    fn duration_has_floor() {
        let cfg = GpuConfig::gtx_1080_ti();
        let k = KernelDesc::new("nop", 1, 32, KernelFootprint::empty());
        assert!(k.nominal_duration_us(&cfg) >= 1.0);
    }

    #[test]
    fn tag_builder() {
        let k = KernelDesc::new("conv", 28, 256, KernelFootprint::empty()).with_tag("Conv2D");
        assert_eq!(k.op_tag.as_deref(), Some("Conv2D"));
    }

    #[test]
    fn footprint_helpers() {
        let f = KernelFootprint {
            flops: 1.0,
            read_bytes: 10.0,
            write_bytes: 20.0,
            tex_read_bytes: 5.0,
            working_set: 100.0,
            tex_working_set: 50.0,
        };
        assert_eq!(f.stream_bytes(), 35.0);
        assert_eq!(f.total_working_set(), 150.0);
        assert!(f.validate().is_ok());
        let mut bad = f;
        bad.flops = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = KernelDesc::new("x", 0, 32, KernelFootprint::empty());
    }
}
