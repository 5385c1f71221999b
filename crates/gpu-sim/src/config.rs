//! GPU hardware configuration. Defaults approximate the paper's testbed
//! (Nvidia GeForce GTX 1080 Ti, Pascal): 28 SMs, a ~2.75 MiB sliced L2,
//! two DRAM sub-partitions, 32-byte sectors.
//!
//! All times are in abstract microseconds; all capacities in bytes.

use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;

/// Static hardware + scheduler parameters for a simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident threads per SM (occupancy denominator).
    pub threads_per_sm: u32,
    /// Total L2 capacity in bytes.
    pub l2_bytes: f64,
    /// Sector size in bytes (CUPTI sector counters count these).
    pub sector_bytes: f64,
    /// Aggregate DRAM bandwidth, bytes per microsecond.
    pub mem_bandwidth: f64,
    /// Aggregate compute throughput, FLOPs per microsecond (whole device).
    pub compute_throughput: f64,
    /// Nominal time-slice length in microseconds for the time-sliced
    /// (MPS-off) scheduler.
    pub time_slice_us: f64,
    /// Relative jitter applied to each slice (uniform ±fraction).
    pub slice_jitter: f64,
    /// Context-switch overhead per preemption, microseconds.
    pub context_switch_us: f64,
    /// Host-side relaunch latency for auto-repeating kernels, microseconds.
    pub relaunch_latency_us: f64,
    /// Multiplicative log-normal-ish noise σ applied to counter deltas.
    pub counter_noise: f64,
    /// Idle write-drain rate, bytes per microsecond: when a context is the
    /// only runnable one, the memory subsystem opportunistically writes its
    /// dirty L2 sectors back to DRAM (see DESIGN.md §3, mechanism for the
    /// paper's Table II `NOP` row).
    pub idle_drain_rate: f64,
    /// RNG seed for all stochastic components of the engine.
    pub seed: u64,
    /// Deterministic fault injection (see [`crate::fault`]). The plan rides
    /// in the config so it participates in trace-cache keys and so one value
    /// fully determines a run; [`FaultPlan::none`] is the clean path and
    /// draws nothing from the dedicated fault stream.
    pub faults: FaultPlan,
}

impl GpuConfig {
    /// Configuration approximating the paper's GTX 1080 Ti testbed.
    pub fn gtx_1080_ti() -> Self {
        GpuConfig {
            name: "GeForce GTX 1080 Ti (simulated)".to_owned(),
            num_sms: 28,
            threads_per_sm: 2048,
            l2_bytes: 2816.0 * 1024.0,
            sector_bytes: 32.0,
            // ~484 GB/s peak at ~60% achievable ≈ 290e3 bytes/us.
            mem_bandwidth: 290_000.0,
            // ~11.3 TFLOP/s peak at ~60% achievable ≈ 7e6 FLOP/us; calibrated
            // so a batch-64 VGG16 training iteration lands near the paper's
            // 431 ms baseline (§V-F).
            compute_throughput: 7_000_000.0,
            time_slice_us: 150.0,
            slice_jitter: 0.06,
            context_switch_us: 25.0,
            relaunch_latency_us: 30.0,
            counter_noise: 0.05,
            idle_drain_rate: 4_000.0,
            seed: 0x0010_8071,
            faults: FaultPlan::none(),
        }
    }

    /// Returns the same configuration with another RNG seed (useful for
    /// repeated trials / noise studies).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the same configuration with the given fault plan installed.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("num_sms must be positive".into());
        }
        if not_positive(self.l2_bytes) {
            return Err("l2_bytes must be positive".into());
        }
        if not_positive(self.sector_bytes) {
            return Err("sector_bytes must be positive".into());
        }
        if not_positive(self.mem_bandwidth) || not_positive(self.compute_throughput) {
            return Err("bandwidth/throughput must be positive".into());
        }
        if not_positive(self.time_slice_us) {
            return Err("time_slice_us must be positive".into());
        }
        if !(0.0..1.0).contains(&self.slice_jitter) {
            return Err("slice_jitter must be in [0, 1)".into());
        }
        if self.counter_noise < 0.0 || self.counter_noise >= 1.0 {
            return Err("counter_noise must be in [0, 1)".into());
        }
        self.faults.validate()?;
        Ok(())
    }

    /// Maximum resident threads on the whole device.
    pub fn max_resident_threads(&self) -> u32 {
        self.num_sms as u32 * self.threads_per_sm
    }
}

/// `true` unless `x` compares strictly greater than zero (NaN included —
/// the point of spelling this with `partial_cmp` in the validators).
fn not_positive(x: f64) -> bool {
    x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::gtx_1080_ti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(GpuConfig::default().validate().is_ok());
        assert_eq!(GpuConfig::gtx_1080_ti().num_sms, 28);
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let a = GpuConfig::gtx_1080_ti();
        let b = a.clone().with_seed(99);
        assert_eq!(a.num_sms, b.num_sms);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = GpuConfig::gtx_1080_ti();
        c.num_sms = 0;
        assert!(c.validate().is_err());

        let mut c = GpuConfig::gtx_1080_ti();
        c.l2_bytes = 0.0;
        assert!(c.validate().is_err());

        let mut c = GpuConfig::gtx_1080_ti();
        c.slice_jitter = 1.5;
        assert!(c.validate().is_err());

        let mut c = GpuConfig::gtx_1080_ti();
        c.counter_noise = 1.0;
        assert!(c.validate().is_err());

        let mut c = GpuConfig::gtx_1080_ti();
        c.faults.launch_fail_prob = 2.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_faults_are_none() {
        assert!(!GpuConfig::gtx_1080_ti().faults.is_active());
        let c = GpuConfig::gtx_1080_ti().with_faults(FaultPlan::uniform(0.2, 7));
        assert!(c.faults.is_active());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn max_resident_threads() {
        let c = GpuConfig::gtx_1080_ti();
        assert_eq!(c.max_resident_threads(), 28 * 2048);
    }
}
