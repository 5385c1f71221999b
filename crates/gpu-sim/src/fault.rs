//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes the ragged-substrate failure modes the paper's
//! pipeline must absorb (§IV–V): counter-read jitter, dropped/duplicated
//! CUPTI samples, failed spy-kernel launches, watchdog-preemption bursts and
//! missed host polls. Every fault is drawn from a **dedicated** RNG stream
//! seeded by `FaultPlan::seed`, so:
//!
//! * the same plan yields a bitwise-identical simulation (and, one layer up,
//!   a bitwise-identical `AttackReport`) — faults are reproducible, never
//!   flaky;
//! * [`FaultPlan::none`] performs **zero** RNG draws, leaving the engine's
//!   main stream untouched — the clean path stays bitwise identical to a
//!   build without fault injection at all.
//!
//! The first four fault kinds are injected by the engine
//! ([`crate::engine::Gpu`]); `poll_miss_prob` is consumed by `cupti-sim`,
//! which models the host-side poll loop.

use serde::{Deserialize, Serialize};

/// Probabilities and magnitudes for the injected fault kinds. All
/// probabilities are per-opportunity (per counter slice, per auto launch,
/// per scheduler slice, per poll window).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Extra multiplicative jitter σ on counter-slice deltas, on top of the
    /// substrate's own `counter_noise` (a misbehaving counter mux).
    pub counter_jitter: f64,
    /// Probability a monitored counter slice is silently dropped before the
    /// CUPTI layer sees it.
    pub drop_slice_prob: f64,
    /// Probability a monitored counter slice is recorded twice (a re-read
    /// race in the counter ring buffer).
    pub dup_slice_prob: f64,
    /// Probability an auto-repeat (spy/hog) launch fails at the driver and
    /// must be retried; see [`RetryPolicy`].
    pub launch_fail_prob: f64,
    /// Probability a granted scheduler slice is forfeited to a
    /// watchdog-preemption burst (display watchdog, ECC scrub, …).
    pub preempt_prob: f64,
    /// Duration of one preemption burst, microseconds.
    pub preempt_us: f64,
    /// Probability the CUPTI host thread misses a poll deadline; the next
    /// poll then covers two windows (consumed by `cupti-sim`).
    pub poll_miss_prob: f64,
    /// Seed of the dedicated fault stream.
    pub seed: u64,
}

impl FaultPlan {
    /// No faults: the clean path. Performs zero fault-RNG draws.
    pub fn none() -> Self {
        FaultPlan {
            counter_jitter: 0.0,
            drop_slice_prob: 0.0,
            dup_slice_prob: 0.0,
            launch_fail_prob: 0.0,
            preempt_prob: 0.0,
            preempt_us: 0.0,
            poll_miss_prob: 0.0,
            seed: 0,
        }
    }

    /// A one-knob plan: every fault kind scaled from a single `rate` in
    /// `[0, 1)`. This is the axis the fault sweep of the `eval_all` bench
    /// bin sweeps.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        FaultPlan {
            counter_jitter: 0.25 * rate,
            drop_slice_prob: 0.5 * rate,
            dup_slice_prob: 0.25 * rate,
            launch_fail_prob: 0.5 * rate,
            preempt_prob: 0.25 * rate,
            preempt_us: 400.0,
            poll_miss_prob: 0.5 * rate,
            seed,
        }
    }

    /// Same plan with another fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether any fault kind can fire. The engine consults this before
    /// every fault draw so an inactive plan consumes no randomness.
    pub fn is_active(&self) -> bool {
        self.counter_jitter > 0.0
            || self.drop_slice_prob > 0.0
            || self.dup_slice_prob > 0.0
            || self.launch_fail_prob > 0.0
            || self.preempt_prob > 0.0
            || self.poll_miss_prob > 0.0
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_slice_prob", self.drop_slice_prob),
            ("dup_slice_prob", self.dup_slice_prob),
            ("launch_fail_prob", self.launch_fail_prob),
            ("preempt_prob", self.preempt_prob),
            ("poll_miss_prob", self.poll_miss_prob),
        ] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1)"));
            }
        }
        if !(0.0..1.0).contains(&self.counter_jitter) {
            return Err("counter_jitter must be in [0, 1)".into());
        }
        if !self.preempt_us.is_finite() || self.preempt_us < 0.0 {
            return Err("preempt_us must be finite and non-negative".into());
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Bounded-exponential retry backoff for failed auto-repeat launches. With
/// no policy installed the engine falls back to the plain relaunch latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Backoff before the first retry, microseconds.
    pub base_us: f64,
    /// Multiplicative growth per consecutive failure.
    pub factor: f64,
    /// Upper bound on the backoff, microseconds.
    pub cap_us: f64,
}

impl RetryPolicy {
    /// Fixed-delay retries (no growth).
    pub fn fixed(us: f64) -> Self {
        RetryPolicy {
            base_us: us,
            factor: 1.0,
            cap_us: us,
        }
    }

    /// Backoff after `consecutive_failures` (>= 1) failed launches:
    /// `min(base * factor^(n-1), cap)`.
    pub fn backoff_us(&self, consecutive_failures: u32) -> f64 {
        let n = consecutive_failures.max(1) - 1;
        // Iterative: powi on an i32 exponent would overflow the cap's
        // purpose long before n grows large.
        let mut backoff = self.base_us;
        for _ in 0..n {
            backoff *= self.factor;
            if backoff >= self.cap_us {
                return self.cap_us;
            }
        }
        backoff.min(self.cap_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(p.validate().is_ok());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn uniform_scales_with_rate() {
        let lo = FaultPlan::uniform(0.1, 1);
        let hi = FaultPlan::uniform(0.4, 1);
        assert!(hi.drop_slice_prob > lo.drop_slice_prob);
        assert!(hi.launch_fail_prob > lo.launch_fail_prob);
        assert!(lo.is_active() && hi.is_active());
        assert!(lo.validate().is_ok() && hi.validate().is_ok());
        assert!(!FaultPlan::uniform(0.0, 1).is_active());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut p = FaultPlan::none();
        p.drop_slice_prob = 1.0;
        assert!(p.validate().is_err());

        let mut p = FaultPlan::none();
        p.counter_jitter = -0.1;
        assert!(p.validate().is_err());

        let mut p = FaultPlan::none();
        p.preempt_us = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let r = RetryPolicy {
            base_us: 30.0,
            factor: 2.0,
            cap_us: 500.0,
        };
        assert_eq!(r.backoff_us(1), 30.0);
        assert_eq!(r.backoff_us(2), 60.0);
        assert_eq!(r.backoff_us(3), 120.0);
        assert_eq!(r.backoff_us(10), 500.0, "capped");
        assert_eq!(r.backoff_us(1000), 500.0, "no overflow at large counts");
        assert_eq!(RetryPolicy::fixed(25.0).backoff_us(7), 25.0);
    }
}
