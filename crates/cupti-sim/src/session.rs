//! CUPTI sampling sessions.
//!
//! A session is attached to one CUDA context (the spy's) with a set of
//! enabled event groups and a host-side poll period. The engine records
//! per-slice counter deltas for monitored contexts; [`CuptiSession::collect`]
//! aggregates those deltas into fixed-period samples — the sample stream the
//! MoSConS inference models consume.
//!
//! Fixed-period host polling is also what produces the paper's Table II
//! `NOP` signature: while the victim idles, many back-to-back spy launches
//! (plus the idle write-drain) aggregate into one very large sample.

use gpu_sim::{ContextId, CounterId, CounterSlice, CounterValues, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::driver::{DriverError, VmInstance};
use crate::events::{replay_factor, EventGroup};

/// One aggregated counter sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuptiSample {
    /// Window start, microseconds.
    pub start_us: f64,
    /// Window end, microseconds.
    pub end_us: f64,
    /// Counter deltas within the window (only enabled counters; the rest are
    /// zero, like a real session that never enabled their group).
    pub counters: CounterValues,
}

impl CuptiSample {
    /// The sample as a 10-dimensional feature vector in catalog order.
    pub fn to_features(&self) -> Vec<f32> {
        self.counters.to_features()
    }
}

/// A profiling session bound to one context.
#[derive(Debug, Clone)]
pub struct CuptiSession {
    ctx: ContextId,
    groups: Vec<EventGroup>,
    poll_period_us: f64,
    quantization: f64,
}

impl CuptiSession {
    /// Opens a session for `ctx` with the given groups and poll period,
    /// enforcing the driver access policy of `vm`.
    ///
    /// # Errors
    ///
    /// [`DriverError::CuptiRestricted`] if the VM's driver gates counters
    /// (paper §II-D — downgrade the driver first).
    ///
    /// # Panics
    ///
    /// Panics if `poll_period_us` is not positive or `groups` is empty.
    pub fn open(
        vm: &VmInstance,
        ctx: ContextId,
        groups: Vec<EventGroup>,
        poll_period_us: f64,
    ) -> Result<Self, DriverError> {
        assert!(poll_period_us > 0.0, "poll period must be positive");
        assert!(!groups.is_empty(), "enable at least one event group");
        vm.check_cupti_access()?;
        Ok(CuptiSession {
            ctx,
            groups,
            poll_period_us,
            quantization: 1.0,
        })
    }

    /// Reduces counter precision: every reading is rounded to a multiple of
    /// `sectors`. This models the paper's §VI defense proposal ("reducing
    /// the precision of CUPTI can interfere with the spy"); the defense
    /// table of the `eval_all` bench bin measures how much the attack
    /// degrades.
    ///
    /// # Panics
    ///
    /// Panics if `sectors < 1`.
    pub fn with_quantization(mut self, sectors: f64) -> Self {
        assert!(sectors >= 1.0, "quantization step must be >= 1 sector");
        self.quantization = sectors;
        self
    }

    /// The configured precision step in sectors (1 = full precision).
    pub fn quantization(&self) -> f64 {
        self.quantization
    }

    /// The monitored context.
    pub fn context(&self) -> ContextId {
        self.ctx
    }

    /// Enabled groups.
    pub fn groups(&self) -> &[EventGroup] {
        &self.groups
    }

    /// Host poll period.
    pub fn poll_period_us(&self) -> f64 {
        self.poll_period_us
    }

    /// Kernel-duration replay factor implied by the enabled group count; the
    /// spy applies this to its kernel so that enabling more groups costs
    /// sampling rate, as in the paper.
    pub fn replay_factor(&self) -> f64 {
        replay_factor(self.groups.len())
    }

    /// Stable fingerprint of everything about this session that shapes the
    /// sample stream: enabled groups, poll period and quantization step. Two
    /// sessions with equal fingerprints replay a recorded counter trace into
    /// identical samples, which is what makes cached traces reusable across
    /// runs (`moscons::cache`).
    pub fn fingerprint(&self) -> String {
        session_fingerprint(&self.groups, self.poll_period_us, self.quantization)
    }

    /// Aggregates an engine counter trace into fixed-period samples over
    /// `[t_start, t_end)`. Slices belonging to other contexts are ignored;
    /// counters whose group is not enabled are zeroed. Windows with no
    /// activity yield all-zero samples (they are meaningful: a starved or
    /// idle spy).
    pub fn collect(&self, trace: &[CounterSlice], t_start: f64, t_end: f64) -> Vec<CuptiSample> {
        assert!(t_end >= t_start, "collect window is inverted");
        let n = ((t_end - t_start) / self.poll_period_us).ceil() as usize;
        let mut samples: Vec<CuptiSample> = (0..n)
            .map(|i| CuptiSample {
                start_us: t_start + i as f64 * self.poll_period_us,
                end_us: (t_start + (i + 1) as f64 * self.poll_period_us).min(t_end),
                counters: CounterValues::zero(),
            })
            .collect();
        if samples.is_empty() {
            return samples;
        }
        let enabled: Vec<CounterId> = CounterId::ALL
            .iter()
            .copied()
            .filter(|c| self.groups.iter().any(|g| g.counters.contains(c)))
            .collect();
        for slice in trace {
            if slice.ctx != self.ctx || slice.end_us <= t_start || slice.start_us >= t_end {
                continue;
            }
            // Attribute the slice to the window containing its end (the
            // moment the host read would observe it).
            let t = slice.end_us.min(t_end - 1e-9).max(t_start);
            let idx = (((t - t_start) / self.poll_period_us) as usize).min(samples.len() - 1);
            for &c in &enabled {
                samples[idx].counters.add_to(c, slice.delta.get(c));
            }
        }
        if self.quantization > 1.0 {
            for s in samples.iter_mut() {
                let mut q = CounterValues::zero();
                for c in CounterId::ALL {
                    let v = s.counters.get(c);
                    q.add_to(c, (v / self.quantization).round() * self.quantization);
                }
                s.counters = q;
            }
        }
        samples
    }

    /// Like [`CuptiSession::collect`], but applies the host-poll fault of
    /// `plan`: each poll boundary is missed with `poll_miss_prob`, merging
    /// the window into its successor (the next host read covers both, so
    /// sample *timestamps* go missing while counter mass is conserved —
    /// exactly what the gap detector's bridging tolerance absorbs,
    /// `moscons::gap`). Deterministic in `plan.seed`; with
    /// `poll_miss_prob == 0` this is `collect` exactly, with zero fault
    /// draws.
    pub fn collect_faulted(
        &self,
        trace: &[CounterSlice],
        t_start: f64,
        t_end: f64,
        plan: &FaultPlan,
    ) -> Vec<CuptiSample> {
        let samples = self.collect(trace, t_start, t_end);
        if plan.poll_miss_prob <= 0.0 || samples.len() < 2 {
            return samples;
        }
        // Domain-separated from the engine's fault stream: both derive from
        // the plan seed but must not replay each other's draws.
        let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x9011_c0de);
        let mut out: Vec<CuptiSample> = Vec::with_capacity(samples.len());
        let mut carry: Option<CuptiSample> = None;
        let last = samples.len() - 1;
        for (i, mut s) in samples.into_iter().enumerate() {
            if let Some(missed) = carry.take() {
                s.start_us = missed.start_us;
                s.counters += missed.counters;
            }
            // The final window is always read (session teardown flushes it).
            if i < last && rng.gen_bool(plan.poll_miss_prob) {
                carry = Some(s);
            } else {
                out.push(s);
            }
        }
        out
    }
}

/// Free-function form of [`CuptiSession::fingerprint`], usable before a
/// session (and the context it binds to) exists. The format is versioned:
/// any change to sample semantics must bump the leading tag so persisted
/// caches keyed on the fingerprint invalidate.
pub fn session_fingerprint(
    groups: &[EventGroup],
    poll_period_us: f64,
    quantization: f64,
) -> String {
    use std::fmt::Write;
    let mut out = String::from("cupti-v1");
    for g in groups {
        write!(out, ";g{}[", g.id).expect("write to string");
        for c in &g.counters {
            write!(out, "{},", c.event_name()).expect("write to string");
        }
        out.push(']');
    }
    write!(
        out,
        ";poll={:016x};quant={:016x}",
        poll_period_us.to_bits(),
        quantization.to_bits()
    )
    .expect("write to string");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverVersion;
    use crate::events::table_iv_groups;

    fn vm() -> VmInstance {
        VmInstance::new("spy", DriverVersion::UNPATCHED, true)
    }

    fn slice(ctx: usize, t0: f64, t1: f64, reads: f64) -> CounterSlice {
        let mut delta = CounterValues::zero();
        delta.add_to(CounterId::FbSubp0ReadSectors, reads);
        delta.add_to(CounterId::Tex0CacheSectorQueries, reads / 2.0);
        CounterSlice {
            ctx: ContextId::test_value(ctx),
            start_us: t0,
            end_us: t1,
            delta,
        }
    }

    #[test]
    fn open_requires_cupti_access() {
        let locked = VmInstance::new("x", DriverVersion::CUPTI_RESTRICTED_SINCE, true);
        let err = CuptiSession::open(&locked, ContextId::test_value(0), table_iv_groups(), 100.0);
        assert!(err.is_err());
        assert!(
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 100.0).is_ok()
        );
    }

    #[test]
    fn collect_bins_by_poll_period() {
        let s =
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 100.0).unwrap();
        let trace = vec![
            slice(0, 0.0, 10.0, 5.0),
            slice(0, 50.0, 90.0, 7.0),
            slice(0, 140.0, 160.0, 11.0),
            slice(1, 0.0, 10.0, 999.0), // other context: ignored
        ];
        let samples = s.collect(&trace, 0.0, 200.0);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].counters.get(CounterId::FbSubp0ReadSectors), 12.0);
        assert_eq!(samples[1].counters.get(CounterId::FbSubp0ReadSectors), 11.0);
    }

    #[test]
    fn disabled_groups_read_zero() {
        let groups = vec![table_iv_groups()[1].clone()]; // FB group only
        let s = CuptiSession::open(&vm(), ContextId::test_value(0), groups, 100.0).unwrap();
        let samples = s.collect(&[slice(0, 0.0, 10.0, 8.0)], 0.0, 100.0);
        assert_eq!(samples[0].counters.get(CounterId::FbSubp0ReadSectors), 8.0);
        assert_eq!(
            samples[0].counters.get(CounterId::Tex0CacheSectorQueries),
            0.0
        );
    }

    #[test]
    fn empty_windows_are_emitted_as_zero_samples() {
        let s =
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 50.0).unwrap();
        let samples = s.collect(&[], 0.0, 200.0);
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|x| x.counters.total() == 0.0));
        // Window boundaries are contiguous.
        for w in samples.windows(2) {
            assert!((w[0].end_us - w[1].start_us).abs() < 1e-9);
        }
    }

    #[test]
    fn replay_factor_reflects_group_count() {
        let s1 = CuptiSession::open(
            &vm(),
            ContextId::test_value(0),
            vec![table_iv_groups()[0].clone()],
            10.0,
        )
        .unwrap();
        let s3 =
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 10.0).unwrap();
        assert!(s3.replay_factor() > s1.replay_factor());
    }

    #[test]
    fn quantization_rounds_counters() {
        let s = CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 100.0)
            .unwrap()
            .with_quantization(1000.0);
        assert_eq!(s.quantization(), 1000.0);
        let samples = s.collect(&[slice(0, 0.0, 10.0, 1499.0)], 0.0, 100.0);
        assert_eq!(
            samples[0].counters.get(CounterId::FbSubp0ReadSectors),
            1000.0
        );
        let samples = s.collect(&[slice(0, 0.0, 10.0, 1501.0)], 0.0, 100.0);
        assert_eq!(
            samples[0].counters.get(CounterId::FbSubp0ReadSectors),
            2000.0
        );
    }

    #[test]
    fn fingerprint_tracks_every_session_knob() {
        let base =
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 100.0).unwrap();
        // Identical sessions fingerprint identically, regardless of context.
        let other_ctx =
            CuptiSession::open(&vm(), ContextId::test_value(3), table_iv_groups(), 100.0).unwrap();
        assert_eq!(base.fingerprint(), other_ctx.fingerprint());
        // Any knob change produces a different fingerprint.
        let fewer_groups = CuptiSession::open(
            &vm(),
            ContextId::test_value(0),
            table_iv_groups()[..2].to_vec(),
            100.0,
        )
        .unwrap();
        let other_poll =
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 250.0).unwrap();
        let quantized = base.clone().with_quantization(1000.0);
        for s in [&fewer_groups, &other_poll, &quantized] {
            assert_ne!(base.fingerprint(), s.fingerprint());
        }
    }

    #[test]
    fn collect_faulted_merges_missed_polls_conserving_mass() {
        let s =
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 50.0).unwrap();
        let trace: Vec<CounterSlice> = (0..20)
            .map(|i| slice(0, i as f64 * 50.0, i as f64 * 50.0 + 10.0, 5.0))
            .collect();
        let clean = s.collect(&trace, 0.0, 1000.0);

        let mut plan = FaultPlan::none();
        plan.poll_miss_prob = 0.4;
        plan.seed = 17;
        let faulted = s.collect_faulted(&trace, 0.0, 1000.0, &plan);
        assert!(faulted.len() < clean.len(), "misses must drop samples");
        let mass = |ss: &[CuptiSample]| -> f64 { ss.iter().map(|x| x.counters.total()).sum() };
        assert!(
            (mass(&clean) - mass(&faulted)).abs() < 1e-9,
            "mass conserved"
        );
        // Windows stay contiguous: a merged sample spans the missed polls.
        for w in faulted.windows(2) {
            assert!((w[0].end_us - w[1].start_us).abs() < 1e-9);
        }
        // Determinism and the zero-prob identity.
        let again = s.collect_faulted(&trace, 0.0, 1000.0, &plan);
        assert_eq!(faulted, again);
        assert_eq!(
            s.collect_faulted(&trace, 0.0, 1000.0, &FaultPlan::none()),
            clean
        );
    }

    #[test]
    fn feature_vector_has_ten_dims() {
        let s =
            CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), 100.0).unwrap();
        let samples = s.collect(&[slice(0, 0.0, 10.0, 3.0)], 0.0, 100.0);
        assert_eq!(samples[0].to_features().len(), 10);
    }
}
