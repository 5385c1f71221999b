//! Incremental CUPTI sampling — the one sampler behind every sample the
//! spy reads.
//!
//! A [`CuptiStream`] consumes the engine's counter slices *as they are
//! produced* (between [`gpu_sim::Gpu::step_once`] calls) and emits each
//! fixed-period sample as soon as it can no longer change, instead of
//! requiring the whole run's slice log up front. [`CuptiSession::collect`]
//! is the same stream given the whole log in one push: its watermark of
//! `t_start` finalizes no window, so [`CuptiStream::finish`] builds every
//! sample. Draining a stream over any interleaving of pushes is **bitwise
//! identical** to that one-push drain: interior windows emitted early and
//! the windows `finish` builds share the window arithmetic, per-window
//! summation order, quantization and poll-miss fault draws, evaluated in
//! the same order.
//!
//! # Why emission can be early
//!
//! `finish` attributes a slice to the window containing its end, the moment
//! the host read would observe it (clamped into the final window near
//! `t_end`). Two facts make incremental emission sound:
//!
//! 1. *Causality*: the caller's watermark is a lower bound on every future
//!    slice's end time (for the GPU engine, `now_us()` after the step that
//!    produced the drained slices — slices never end in the past).
//! 2. *Interior windows take no clamp*: once the watermark strictly exceeds
//!    a window's right boundary (plus `finish`'s `1e-9` guard band), the
//!    final `t_end` — whatever it turns out to be — is beyond that boundary
//!    too, so neither the `min(t_end - 1e-9)` clamp nor the `min(n-1)`
//!    index clamp can ever pull a slice back into the window.
//!
//! The poll-miss fault stage ("each boundary missed with `poll_miss_prob`,
//! the final window is always read") needs one sample of lookahead: the
//! draw for sample *i* happens only once sample *i+1* exists, because the
//! last sample takes no draw. The stream therefore holds back one ready
//! sample, which bounds its added latency at one poll period.

use gpu_sim::{CounterId, CounterSlice, CounterValues, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::counters_of;
use crate::session::{CuptiSample, CuptiSession};

/// Streaming sample aggregation over one session (see module docs).
#[derive(Debug, Clone)]
pub struct CuptiStream {
    session: CuptiSession,
    plan: FaultPlan,
    t_start: f64,
    /// Counters enabled by the session's groups, in catalog order (the
    /// per-window summation order).
    enabled: Vec<CounterId>,
    /// Fault rng, created iff the plan can miss polls; one draw per sample
    /// except the last, in sample order.
    rng: Option<StdRng>,
    /// Relevant slices not yet attributed to an emitted window, in arrival
    /// (= trace) order. Bounded: only slices at or beyond the emission
    /// frontier stay here, roughly two poll windows' worth.
    pending: Vec<CounterSlice>,
    /// Index of the next unemitted window.
    next_window: usize,
    /// Highest watermark observed so far.
    watermark: f64,
    /// The one ready sample held back for the poll-miss lookahead.
    held: Option<CuptiSample>,
    /// A missed sample waiting to merge into its successor.
    carry: Option<CuptiSample>,
}

impl CuptiStream {
    /// Opens a stream over `session` sampling from `t_start` under `plan`.
    /// The collection window's start is fixed here; its end is only decided
    /// by [`CuptiStream::finish`].
    pub fn open(session: CuptiSession, t_start: f64, plan: FaultPlan) -> Self {
        let enabled = counters_of(session.groups());
        // Domain-separated from the engine's fault stream: both derive from
        // the plan seed but must not replay each other's draws.
        let rng =
            (plan.poll_miss_prob > 0.0).then(|| StdRng::seed_from_u64(plan.seed ^ 0x9011_c0de));
        CuptiStream {
            session,
            plan,
            t_start,
            enabled,
            rng,
            pending: Vec::new(),
            next_window: 0,
            watermark: t_start,
            held: None,
            carry: None,
        }
    }

    /// Slices currently buffered awaiting window completion (diagnostics —
    /// stays O(poll period), never the whole run).
    pub fn pending_slices(&self) -> usize {
        self.pending.len()
    }

    /// Feeds newly produced slices and advances the watermark; returns every
    /// sample that became final. `watermark_us` must be a lower bound on all
    /// future slices' end times (for the GPU engine: `now_us()` after the
    /// step that produced `slices`); it may advance with empty `slices`.
    pub fn push(&mut self, slices: &[CounterSlice], watermark_us: f64) -> Vec<CuptiSample> {
        let ctx = self.session.context();
        for s in slices {
            // The relevance filter, minus the `start_us >= t_end` half —
            // t_end is unknown until finish, and such slices can only sit
            // at the run's extreme tail where they stay pending until
            // finish applies the full filter.
            if s.ctx != ctx || s.end_us <= self.t_start {
                continue;
            }
            self.pending.push(s.clone());
        }
        self.watermark = self.watermark.max(watermark_us);
        let mut out = Vec::new();
        self.advance(&mut out);
        out
    }

    /// Emits every window whose right boundary the watermark has strictly
    /// cleared (with `finish`'s guard band).
    fn advance(&mut self, out: &mut Vec<CuptiSample>) {
        let poll = self.session.poll_period_us();
        loop {
            let k = self.next_window;
            let win_end = self.t_start + (k + 1) as f64 * poll;
            if self.watermark <= win_end + 1e-9 {
                break;
            }
            // Interior window: no clamp can apply (module docs), so
            // `finish`'s attribution reduces to a plain floor on the slice
            // end.
            let mut counters = CounterValues::zero();
            let mut i = 0;
            while i < self.pending.len() {
                let t = self.pending[i].end_us;
                let idx = ((t - self.t_start) / poll) as usize;
                debug_assert!(idx >= k, "slice arrived behind the emission frontier");
                if idx == k {
                    let s = self.pending.remove(i);
                    for &c in &self.enabled {
                        counters.add_to(c, s.delta.get(c));
                    }
                } else {
                    i += 1;
                }
            }
            let sample = CuptiSample {
                start_us: self.t_start + k as f64 * poll,
                end_us: win_end,
                counters,
            };
            self.next_window = k + 1;
            self.push_ready(self.quantized(sample), out);
        }
    }

    /// Applies the session's precision step: every aggregated reading is
    /// rounded to a multiple of it.
    fn quantized(&self, mut sample: CuptiSample) -> CuptiSample {
        if self.session.quantization() > 1.0 {
            let mut q = CounterValues::zero();
            for c in CounterId::ALL {
                let v = sample.counters.get(c);
                q.add_to(
                    c,
                    (v / self.session.quantization()).round() * self.session.quantization(),
                );
            }
            sample.counters = q;
        }
        sample
    }

    /// The poll-miss fault stage with one sample of lookahead: deciding the
    /// previous sample only now that a successor exists keeps the rule that
    /// the final window is always read — and fixes the rng draw sequence at
    /// one draw per sample except the last, in order.
    fn push_ready(&mut self, mut sample: CuptiSample, out: &mut Vec<CuptiSample>) {
        let Some(rng) = self.rng.as_mut() else {
            out.push(sample);
            return;
        };
        if let Some(prev) = self.held.take() {
            if rng.gen_bool(self.plan.poll_miss_prob) {
                self.carry = Some(prev);
            } else {
                out.push(prev);
            }
        }
        if let Some(missed) = self.carry.take() {
            sample.start_us = missed.start_us;
            sample.counters += missed.counters;
        }
        self.held = Some(sample);
    }

    /// Ends the collection window at `t_end` and drains everything left:
    /// the remaining windows (including the clamped final one) and the
    /// held-back sample. The full output of the stream — every `push`
    /// return value followed by this one — equals
    /// `session.collect(&all_slices, t_start, t_end, &plan)`, the drain
    /// whose one push leaves every window to this function, bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` is before `t_start` or behind the watermark.
    pub fn finish(mut self, t_end: f64) -> Vec<CuptiSample> {
        assert!(t_end >= self.t_start, "collect window is inverted");
        assert!(
            t_end + 1e-9 >= self.watermark,
            "finish time behind the slice watermark"
        );
        let poll = self.session.poll_period_us();
        let n = ((t_end - self.t_start) / poll).ceil() as usize;
        let mut out = Vec::new();
        if n > 0 {
            // Remaining windows take the full attribution — clamps and
            // all — because the final window is now known.
            let mut tail: Vec<CuptiSample> = (self.next_window..n)
                .map(|k| CuptiSample {
                    start_us: self.t_start + k as f64 * poll,
                    end_us: (self.t_start + (k + 1) as f64 * poll).min(t_end),
                    counters: CounterValues::zero(),
                })
                .collect();
            for s in std::mem::take(&mut self.pending) {
                if s.start_us >= t_end {
                    continue;
                }
                let t = s.end_us.min(t_end - 1e-9).max(self.t_start);
                let idx = (((t - self.t_start) / poll) as usize).min(n - 1);
                debug_assert!(
                    idx >= self.next_window,
                    "slice arrived behind the emission frontier"
                );
                for &c in &self.enabled {
                    tail[idx - self.next_window]
                        .counters
                        .add_to(c, s.delta.get(c));
                }
            }
            for sample in tail {
                let q = self.quantized(sample);
                self.push_ready(q, &mut out);
            }
        }
        if let Some(last) = self.held.take() {
            out.push(last);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverVersion;
    use crate::driver::VmInstance;
    use crate::events::table_iv_groups;
    use gpu_sim::ContextId;

    fn vm() -> VmInstance {
        VmInstance::new("spy", DriverVersion::UNPATCHED, true)
    }

    fn session(poll: f64) -> CuptiSession {
        CuptiSession::open(&vm(), ContextId::test_value(0), table_iv_groups(), poll).unwrap()
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

    /// A pseudo-random trace with boundary-hugging and foreign-context
    /// slices, plus the end time of the run.
    fn random_trace(seed: u64, poll: f64) -> (Vec<CounterSlice>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0f64;
        let mut trace = Vec::new();
        for i in 0..120 {
            let len = if rng.gen_bool(0.2) {
                // Land exactly on a window boundary now and then.
                (poll - now.rem_euclid(poll)).max(0.05)
            } else {
                rng.gen_range(0.05..poll * 0.7)
            };
            let ctx = if rng.gen_bool(0.15) { 1 } else { 0 };
            trace.push(slice(ctx, now, now + len, 1.0 + i as f64));
            now += len;
        }
        (trace, now)
    }

    /// Streams `trace` into `stream` in pseudo-random chunks, with the
    /// watermark at each push set to the last pushed slice's end (a valid
    /// lower bound on future ends for this monotone trace).
    fn drain_in_chunks(
        mut stream: CuptiStream,
        trace: &[CounterSlice],
        t_end: f64,
        chunk_seed: u64,
    ) -> Vec<CuptiSample> {
        let mut rng = StdRng::seed_from_u64(chunk_seed);
        let mut out = Vec::new();
        let mut i = 0;
        while i < trace.len() {
            let n = rng.gen_range(1..=7usize).min(trace.len() - i);
            let chunk = &trace[i..i + n];
            let watermark = chunk.last().unwrap().end_us;
            out.extend(stream.push(chunk, watermark));
            i += n;
        }
        out.extend(stream.finish(t_end));
        out
    }

    /// Chunked pushes emit interior windows from `advance`; the one-push
    /// drain of `CuptiSession::collect` builds every window in `finish`.
    #[test]
    fn streamed_samples_equal_batch_collect_over_any_chunking() {
        for seed in [1u64, 7, 42] {
            for poll in [50.0, 130.0] {
                let s = session(poll);
                let (trace, t_end) = random_trace(seed, poll);
                let drained = s.collect(&trace, 0.0, t_end, &FaultPlan::none());
                for chunk_seed in [3u64, 9, 27] {
                    let stream = CuptiStream::open(s.clone(), 0.0, FaultPlan::none());
                    let streamed = drain_in_chunks(stream, &trace, t_end, chunk_seed);
                    assert_eq!(
                        streamed, drained,
                        "seed {} poll {} chunks {}",
                        seed, poll, chunk_seed
                    );
                }
            }
        }
    }

    /// Poll misses with and without quantization: a step of 50 sectors puts
    /// the random traces' window sums across steps, so rounding and the
    /// merge of missed windows both act on every run.
    #[test]
    fn streamed_poll_miss_faults_equal_batch_collect_faulted() {
        let mut plan = FaultPlan::none();
        plan.poll_miss_prob = 0.35;
        plan.seed = 17;
        for s in [session(50.0), session(50.0).with_quantization(50.0)] {
            for seed in [1u64, 5, 23] {
                let (trace, t_end) = random_trace(seed, 50.0);
                let drained = s.collect(&trace, 0.0, t_end, &plan);
                for chunk_seed in [2u64, 11] {
                    let stream = CuptiStream::open(s.clone(), 0.0, plan);
                    let streamed = drain_in_chunks(stream, &trace, t_end, chunk_seed);
                    assert_eq!(
                        streamed,
                        drained,
                        "quant {} seed {} chunks {}",
                        s.quantization(),
                        seed,
                        chunk_seed
                    );
                }
            }
        }
    }

    #[test]
    fn single_window_run_is_never_fault_dropped() {
        // One sample: no successor ever arrives, so no draw, in the
        // one-push drain and in the chunked stream alike.
        let mut plan = FaultPlan::none();
        plan.poll_miss_prob = 1.0;
        plan.seed = 3;
        let s = session(100.0);
        let trace = vec![slice(0, 0.0, 30.0, 5.0)];
        let drained = s.collect(&trace, 0.0, 80.0, &plan);
        assert_eq!(drained.len(), 1);
        let mut stream = CuptiStream::open(s, 0.0, plan);
        let mut out = stream.push(&trace, 30.0);
        out.extend(stream.finish(80.0));
        assert_eq!(out, drained);
    }

    #[test]
    fn empty_run_yields_no_samples() {
        let s = session(100.0);
        let stream = CuptiStream::open(s.clone(), 0.0, FaultPlan::none());
        assert!(stream.finish(0.0).is_empty());
        assert!(s.collect(&[], 0.0, 0.0, &FaultPlan::none()).is_empty());
    }

    #[test]
    fn quantized_stream_matches_quantized_batch() {
        let s = session(100.0).with_quantization(1000.0);
        let trace = vec![
            slice(0, 0.0, 10.0, 1499.0),
            slice(0, 120.0, 180.0, 1501.0),
            slice(0, 250.0, 260.0, 700.0),
        ];
        let drained = s.collect(&trace, 0.0, 300.0, &FaultPlan::none());
        let mut stream = CuptiStream::open(s, 0.0, FaultPlan::none());
        let mut out = Vec::new();
        for sl in &trace {
            out.extend(stream.push(std::slice::from_ref(sl), sl.end_us));
        }
        out.extend(stream.finish(300.0));
        assert_eq!(out, drained);
    }

    #[test]
    fn pending_buffer_stays_bounded() {
        let s = session(50.0);
        let (trace, _) = random_trace(2, 50.0);
        let mut stream = CuptiStream::open(s, 0.0, FaultPlan::none());
        let mut max_pending = 0;
        let mut emitted = 0;
        for sl in &trace {
            emitted += stream.push(std::slice::from_ref(sl), sl.end_us).len();
            max_pending = max_pending.max(stream.pending_slices());
        }
        // The frontier trails the watermark by at most ~2 windows of slices.
        assert!(max_pending < 60, "pending grew to {}", max_pending);
        assert!(emitted > 0);
    }
}
