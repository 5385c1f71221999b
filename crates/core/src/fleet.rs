//! Fleet orchestrator: N concurrent spy sessions multiplexed over the
//! worker pool.
//!
//! Each [`SessionSpec`] gets its own seeded [`crate::trace::SpySession`]
//! (one simulated GPU + victim each, with a per-session
//! [`gpu_sim::FaultPlan`] riding in its [`GpuConfig`]) and a
//! **fixed-capacity ring buffer** (`VecDeque`) of feature rows between the
//! ingestion stage and the classification stage. The orchestrator runs
//! deterministic lockstep rounds:
//!
//! 1. **poll** — every live session advances its engine by a fixed step
//!    budget and drains newly attributable CUPTI samples
//!    ([`ml::par::par_map_mut`]: sessions are mutually independent, so the
//!    fan-out is bitwise identical to a serial sweep at any worker count);
//! 2. **ingest** — samples become feature rows and enter the session's
//!    bounded queue. Back-pressure is explicit: [`OverflowPolicy::Stall`]
//!    pauses a session's polling while its queue is full (lossless — the
//!    agreement-bench mode), [`OverflowPolicy::DropOldest`] evicts the
//!    oldest undrained rows onto a *counted* overflow path. The queue is
//!    bounded either way;
//! 3. **classify** — each session drains at most `drain_per_round` rows
//!    into its own [`crate::stream::AttackStream`] (stateful streaming
//!    LSTMs, labels with bounded latency, final extraction bitwise equal to
//!    the batch attack).
//!
//! Determinism: rounds are a pure function of the specs and the config —
//! worker count, scheduling and session completion order never feed back
//! into any session's inputs (see `tests/determinism.rs`).

use std::collections::VecDeque;

use cupti_sim::CuptiSample;
use dnn_sim::TrainingSession;
use gpu_sim::GpuConfig;

use crate::attack::{Extraction, Moscons};
use crate::dataset::counter_features;
use crate::stream::AttackStream;
use crate::trace::SpySession;

/// What happens when a session's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Pause the session's polling until the consumer catches up. Lossless:
    /// every sample reaches the classifier, so the streamed extraction
    /// stays bitwise equal to the batch attack.
    Stall,
    /// Keep polling; evict the oldest undrained rows and count them in
    /// [`SessionOutcome::overflow_dropped`]. Lossy but never unbounded.
    DropOldest,
}

/// Fleet sizing and scheduling knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Ring-buffer capacity (feature rows) per session. Polling may
    /// momentarily overshoot by one poll's yield under
    /// [`OverflowPolicy::Stall`]; eviction keeps the queue at capacity
    /// under [`OverflowPolicy::DropOldest`].
    pub queue_capacity: usize,
    /// Back-pressure policy for full queues.
    pub overflow: OverflowPolicy,
    /// Engine events each live session advances per poll round.
    pub poll_steps: usize,
    /// Maximum rows a session drains from its queue per classify round.
    pub drain_per_round: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            queue_capacity: 256,
            overflow: OverflowPolicy::Stall,
            poll_steps: 256,
            drain_per_round: 64,
        }
    }
}

/// One victim to attack: seed and GPU (faults included) are per-session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The victim's training session.
    pub victim: TrainingSession,
    /// Collection seed (same meaning as [`Moscons::attack`]'s `seed`).
    pub seed: u64,
    /// Simulated GPU for this session, carrying its
    /// [`gpu_sim::FaultPlan`].
    pub gpu: GpuConfig,
}

/// Per-session result of a fleet run.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The extraction: bitwise equal to [`Moscons::attack_on`] on the same
    /// victim/seed/GPU (when lossless).
    pub extraction: Extraction,
    /// Label emission latency, in samples, for every streamed label
    /// (distance between a sample entering the classifier and its label
    /// coming out).
    pub label_latencies: Vec<usize>,
    /// Rows evicted by [`OverflowPolicy::DropOldest`] (always 0 under
    /// [`OverflowPolicy::Stall`]).
    pub overflow_dropped: usize,
    /// CUPTI samples the session streamed in total.
    pub samples_streamed: usize,
}

/// The whole fleet's result.
#[derive(Debug)]
pub struct FleetOutcome {
    /// One outcome per input spec, in spec order.
    pub sessions: Vec<SessionOutcome>,
    /// Lockstep rounds the fleet ran.
    pub rounds: usize,
}

#[derive(Debug)]
struct SessionState<'a> {
    /// `Some` until the run (incl. the trailing-gap tail) has been drained.
    spy: Option<SpySession>,
    queue: VecDeque<Vec<f32>>,
    overflow_dropped: usize,
    samples_streamed: usize,
    /// `Some` until [`AttackStream::finish`] turns it into `extraction`.
    stream: Option<AttackStream<'a>>,
    label_latencies: Vec<usize>,
    extraction: Option<Extraction>,
}

impl<'a> SessionState<'a> {
    fn start(moscons: &'a Moscons, spec: &SessionSpec) -> Self {
        let collection = moscons.config().collection.with_seed(spec.seed);
        let spy = SpySession::start(&spec.victim, &collection, &spec.gpu);
        SessionState {
            spy: Some(spy),
            queue: VecDeque::new(),
            overflow_dropped: 0,
            samples_streamed: 0,
            stream: Some(AttackStream::new(moscons)),
            label_latencies: Vec::new(),
            extraction: None,
        }
    }

    fn finalized(&self) -> bool {
        self.extraction.is_some()
    }

    /// Poll phase: advance the engine unless back-pressure says wait.
    fn poll_round(&mut self, config: &FleetConfig) -> Vec<CuptiSample> {
        if config.overflow == OverflowPolicy::Stall && self.queue.len() >= config.queue_capacity {
            // Back-pressure: the consumer is behind, pause the producer.
            return Vec::new();
        }
        let Some(spy) = self.spy.as_mut() else {
            return Vec::new();
        };
        if !spy.is_done() {
            return spy.poll(config.poll_steps);
        }
        // Run complete: release the held-back tail and retire the session.
        match self.spy.take() {
            Some(spy) => spy.finish().samples,
            None => Vec::new(),
        }
    }

    /// Ingest phase: samples become queued feature rows, bounded.
    fn ingest(&mut self, samples: Vec<CuptiSample>, config: &FleetConfig) {
        for s in samples {
            self.samples_streamed += 1;
            self.queue.push_back(counter_features(&s.to_features()));
            if config.overflow == OverflowPolicy::DropOldest {
                while self.queue.len() > config.queue_capacity {
                    self.queue.pop_front();
                    self.overflow_dropped += 1;
                }
            }
        }
    }

    /// Classify phase: feed the session's streaming attack path.
    fn drain(&mut self, config: &FleetConfig) {
        if self.finalized() {
            return;
        }
        let Some(live) = self.stream.as_mut() else {
            // Stream already consumed: nothing left to classify.
            debug_assert!(false, "stream alive until finalize");
            return;
        };
        for _ in 0..config.drain_per_round {
            let Some(row) = self.queue.pop_front() else {
                break;
            };
            let now = live.samples_pushed(); // index this row gets
            for label in live.push(&row) {
                self.label_latencies.push(now - label.sample);
            }
        }
        if self.spy.is_none() && self.queue.is_empty() {
            let total = live.samples_pushed();
            let Some(finished) = self.stream.take() else {
                debug_assert!(false, "finalize once");
                return;
            };
            let outcome = finished.finish();
            let now = total.saturating_sub(1);
            for label in &outcome.labels {
                self.label_latencies.push(now - label.sample);
            }
            self.extraction = Some(outcome.extraction);
        }
    }

    fn into_outcome(self) -> SessionOutcome {
        let extraction = self.extraction.unwrap_or_else(|| {
            debug_assert!(false, "run_fleet finalizes every session");
            Moscons::empty_extraction(Vec::new())
        });
        SessionOutcome {
            extraction,
            label_latencies: self.label_latencies,
            overflow_dropped: self.overflow_dropped,
            samples_streamed: self.samples_streamed,
        }
    }
}

/// Runs every session to completion and returns per-session outcomes in
/// spec order. See the module docs for the round structure and the
/// determinism contract.
///
/// # Panics
///
/// Panics if any sizing knob is zero.
pub fn run_fleet(moscons: &Moscons, specs: &[SessionSpec], config: &FleetConfig) -> FleetOutcome {
    assert!(config.queue_capacity > 0, "queue_capacity must be positive");
    assert!(config.poll_steps > 0, "poll_steps must be positive");
    assert!(
        config.drain_per_round > 0,
        "drain_per_round must be positive"
    );
    let mut states: Vec<SessionState> = specs
        .iter()
        .map(|spec| SessionState::start(moscons, spec))
        .collect();
    let mut rounds = 0usize;
    while states.iter().any(|s| !s.finalized()) {
        rounds += 1;
        // Poll: independent engines, order-free fan-out.
        let polled: Vec<Vec<CuptiSample>> =
            ml::par::par_map_mut(&mut states, |_, st| st.poll_round(config));
        // Ingest: sequential, bounded.
        for (st, samples) in states.iter_mut().zip(polled) {
            st.ingest(samples, config);
        }
        // Classify.
        ml::par::par_map_mut(&mut states, |_, st| st.drain(config));
    }
    FleetOutcome {
        sessions: states.into_iter().map(SessionState::into_outcome).collect(),
        rounds,
    }
}
