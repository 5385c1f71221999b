//! The discrete-event GPU engine.
//!
//! Contexts own FIFO streams of kernels (optionally separated by host-side
//! gaps); the scheduler interleaves them either with **time slicing** (MPS
//! off — the paper's attack setting) or with the **MPS leftover policy**
//! (victim-priority, spy starved until iteration gaps — the setting the paper
//! shows is useless for fine-grained sampling, Figures 2/3).
//!
//! During each slice the running context:
//!
//! 1. pays pending **write-backs** (its dirty sectors evicted by other
//!    contexts since it last ran),
//! 2. **re-fetches** working-set bytes it lost to other contexts (the
//!    context-switching penalty at the heart of the side-channel),
//! 3. makes forward **progress**, streaming reads/writes/texture traffic and
//!    (re)establishing its L2 occupancy, evicting others.
//!
//! When a context is the *only* runnable one, the memory subsystem
//! opportunistically drains its dirty sectors to DRAM (idle write-drain),
//! which is what makes idle-gap samples an order of magnitude larger than
//! busy samples (paper Table II, `NOP` row).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cache::{InsertKind, OccupancyL2};
use crate::config::GpuConfig;
use crate::counters::{CounterId, CounterValues};
use crate::fault::RetryPolicy;
use crate::kernel::KernelDesc;
use crate::timeline::{CounterSlice, KernelRecord};

/// Handle to a CUDA context created on a [`Gpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ContextId(usize);

impl ContextId {
    /// Index into the engine's context table.
    pub fn index(self) -> usize {
        self.0
    }

    /// Constructs an arbitrary id for tests.
    #[doc(hidden)]
    pub fn test_value(i: usize) -> Self {
        ContextId(i)
    }
}

/// Scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerMode {
    /// Preemptive round-robin time slicing between contexts (MPS disabled —
    /// the default on real hardware and the paper's attack setting).
    TimeSliced,
    /// MPS leftover policy: the earliest-created runnable context (the
    /// victim, in our experiments) monopolizes the SMs; later contexts only
    /// progress while it is idle.
    Mps,
}

#[derive(Debug, Clone)]
enum WorkItem {
    Kernel(KernelDesc),
    HostGap(f64),
}

#[derive(Debug, Clone)]
struct Running {
    desc: KernelDesc,
    remaining_us: f64,
    nominal_us: f64,
    started_at: f64,
}

#[derive(Debug)]
struct Context {
    name: String,
    queue: VecDeque<WorkItem>,
    auto: Option<KernelDesc>,
    next_auto_launch_at: f64,
    gap_until: Option<f64>,
    running: Option<Running>,
    counters: CounterValues,
    pending_writeback_bytes: f64,
    monitored: bool,
    kernels_completed: u64,
    /// Name of the most recently started kernel; peak occupancy persists
    /// across launches of the same kernel (an auto-repeating spy reuses its
    /// buffers), and resets when a different kernel starts. Compared by
    /// value (not pointer): two interned copies of the same name must keep
    /// the peak, two different names sharing an allocation cannot exist.
    last_kernel_name: Option<std::sync::Arc<str>>,
    /// Highest global/tex occupancy reached by the current kernel; refetch
    /// restores residency only up to this level (a fresh kernel's compulsory
    /// traffic is part of its footprint instead).
    peak_global: f64,
    peak_tex: f64,
    /// End the context's slice whenever a kernel completes (models the
    /// host-side launch turnaround of op-by-op frameworks like TensorFlow;
    /// with a co-runner this quantizes every op, however short, to at least
    /// one scheduling round — the granularity the spy samples at).
    yield_on_completion: bool,
    /// Backoff schedule for failed auto-repeat launches (fault injection);
    /// `None` falls back to the plain relaunch latency.
    retry: Option<RetryPolicy>,
    /// Consecutive failed auto-repeat launches (resets on success; drives
    /// the retry backoff).
    consecutive_failures: u32,
    /// Total failed auto-repeat launches (diagnostics).
    launch_failures: u64,
}

impl Context {
    /// Work that must finish before the queues are considered drained.
    /// Auto-repeat contexts relaunch forever, so their current launch does
    /// not count — only explicitly enqueued items do.
    fn has_queued_work(&self) -> bool {
        if !self.queue.is_empty() || self.gap_until.is_some() {
            return true;
        }
        self.auto.is_none() && self.running.is_some()
    }
}

/// Maximum fraction of L2 a single context's refetch targets.
const MAX_L2_SHARE: f64 = 0.95;
/// Fraction of streaming traffic that transiently occupies L2 (per slice).
/// Kept small so that op-type differences in streaming volume translate into
/// *graded* eviction pressure instead of all ops saturating the cache.
const STREAM_OCCUPANCY_FRAC: f64 = 0.05;
/// Cap on transient streaming occupancy inserted per slice, bytes.
const STREAM_OCCUPANCY_CAP: f64 = 1.8 * 1024.0 * 1024.0;
/// Dirty-pool cap as a fraction of L2 capacity.
const DIRTY_CAP_FRAC: f64 = 0.4;
/// Extra L2-miss factor relative to DRAM sectors (misses that coalesce).
const L2_MISS_FACTOR: f64 = 1.02;
/// Slice-weight floor for low-occupancy kernels.
const SLICE_WEIGHT_FLOOR: f64 = 0.25;

/// The simulated GPU.
pub struct Gpu {
    config: GpuConfig,
    mode: SchedulerMode,
    contexts: Vec<Context>,
    l2: OccupancyL2,
    now_us: f64,
    rng: StdRng,
    /// Dedicated stream for fault injection: an inactive [`FaultPlan`] draws
    /// nothing, so the clean path's `rng` sequence is independent of whether
    /// fault injection exists at all.
    ///
    /// [`FaultPlan`]: crate::fault::FaultPlan
    fault_rng: StdRng,
    last_ran: Option<usize>,
    rr_next: usize,
    kernel_log: Vec<KernelRecord>,
    counter_trace: Vec<CounterSlice>,
    /// The dirty bytes the last L2 insert evicted, `(owner, bytes)` in
    /// eviction order. One buffer serves every insert, so a step allocates
    /// nothing once it has grown to the largest eviction.
    evicted: Vec<(usize, f64)>,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("name", &self.config.name)
            .field("mode", &self.mode)
            .field("contexts", &self.contexts.len())
            .field("now_us", &self.now_us)
            .finish()
    }
}

impl Gpu {
    /// Creates a GPU with the given configuration and scheduler mode.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: GpuConfig, mode: SchedulerMode) -> Self {
        config.validate().expect("valid GpuConfig");
        let seed = config.seed;
        let fault_seed = config.faults.seed;
        let l2 = OccupancyL2::new(config.l2_bytes);
        Gpu {
            config,
            mode,
            contexts: Vec::new(),
            l2,
            now_us: 0.0,
            rng: StdRng::seed_from_u64(seed),
            fault_rng: StdRng::seed_from_u64(fault_seed),
            last_ran: None,
            rr_next: 0,
            kernel_log: Vec::new(),
            counter_trace: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The scheduler mode.
    pub fn mode(&self) -> SchedulerMode {
        self.mode
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Creates a CUDA context. Creation order is the MPS priority order.
    pub fn add_context(&mut self, name: impl Into<String>) -> ContextId {
        let idx = self.l2.add_context();
        debug_assert_eq!(idx, self.contexts.len());
        self.contexts.push(Context {
            name: name.into(),
            queue: VecDeque::new(),
            auto: None,
            next_auto_launch_at: 0.0,
            gap_until: None,
            running: None,
            counters: CounterValues::zero(),
            pending_writeback_bytes: 0.0,
            monitored: false,
            kernels_completed: 0,
            last_kernel_name: None,
            peak_global: 0.0,
            peak_tex: 0.0,
            yield_on_completion: false,
            retry: None,
            consecutive_failures: 0,
            launch_failures: 0,
        });
        ContextId(idx)
    }

    /// Name of a context.
    pub fn context_name(&self, ctx: ContextId) -> &str {
        &self.contexts[ctx.0].name
    }

    /// Enables per-slice counter tracing for a context (the CUPTI layer
    /// consumes the trace).
    pub fn monitor(&mut self, ctx: ContextId) {
        self.contexts[ctx.0].monitored = true;
    }

    /// Makes the context yield its remaining slice each time a kernel
    /// completes, modeling the host-side launch turnaround of op-by-op
    /// frameworks (TensorFlow 1.x). Victim contexts should enable this.
    pub fn set_yield_on_completion(&mut self, ctx: ContextId, yield_on_completion: bool) {
        self.contexts[ctx.0].yield_on_completion = yield_on_completion;
    }

    /// Enqueues a kernel on a context's stream.
    pub fn enqueue(&mut self, ctx: ContextId, kernel: KernelDesc) {
        self.contexts[ctx.0]
            .queue
            .push_back(WorkItem::Kernel(kernel));
    }

    /// Enqueues a host-side stall of `us` microseconds (e.g. input-batch
    /// loading between training iterations). The context is not runnable
    /// while the stall is at the head of its stream.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or non-finite.
    pub fn enqueue_host_gap(&mut self, ctx: ContextId, us: f64) {
        assert!(us.is_finite() && us >= 0.0, "invalid host gap {}", us);
        self.contexts[ctx.0].queue.push_back(WorkItem::HostGap(us));
    }

    /// Makes the context relaunch `kernel` forever (with the configured
    /// relaunch latency) whenever its queue is empty — the spy's sampling
    /// loop.
    pub fn set_auto_repeat(&mut self, ctx: ContextId, kernel: KernelDesc) {
        let c = &mut self.contexts[ctx.0];
        c.auto = Some(kernel);
        c.next_auto_launch_at = self.now_us;
    }

    /// Stops auto-relaunching on the context (the running launch finishes).
    pub fn stop_auto_repeat(&mut self, ctx: ContextId) {
        self.contexts[ctx.0].auto = None;
    }

    /// Installs a retry-backoff schedule for the context's failed
    /// auto-repeat launches (only reachable under an active fault plan with
    /// `launch_fail_prob > 0`). Without a policy, failed launches retry
    /// after the plain relaunch latency.
    pub fn set_launch_retry(&mut self, ctx: ContextId, policy: RetryPolicy) {
        self.contexts[ctx.0].retry = Some(policy);
    }

    /// Total failed auto-repeat launches on the context (diagnostics).
    pub fn launch_failures(&self, ctx: ContextId) -> u64 {
        self.contexts[ctx.0].launch_failures
    }

    /// Cumulative counters of a context.
    pub fn context_counters(&self, ctx: ContextId) -> CounterValues {
        self.contexts[ctx.0].counters
    }

    /// Number of kernel launches the context has completed.
    pub fn kernels_completed(&self, ctx: ContextId) -> u64 {
        self.contexts[ctx.0].kernels_completed
    }

    /// Completed-launch records, ordered by start time.
    pub fn kernel_log(&self) -> &[KernelRecord] {
        &self.kernel_log
    }

    /// Per-slice counter deltas of monitored contexts, in time order.
    pub fn counter_trace(&self) -> &[CounterSlice] {
        &self.counter_trace
    }

    /// Takes ownership of the logs, leaving them empty (bounded memory for
    /// long runs).
    pub fn take_logs(&mut self) -> (Vec<KernelRecord>, Vec<CounterSlice>) {
        (
            std::mem::take(&mut self.kernel_log),
            std::mem::take(&mut self.counter_trace),
        )
    }

    /// Whether any context still has queued (non-auto-repeat) work.
    pub fn has_pending_work(&self) -> bool {
        self.contexts.iter().any(Context::has_queued_work)
    }

    /// Runs the simulation until `deadline_us` (absolute simulated time).
    pub fn run_until(&mut self, deadline_us: f64) {
        while self.now_us < deadline_us {
            if !self.step(deadline_us) {
                break;
            }
        }
    }

    /// Runs for `us` more microseconds of simulated time.
    pub fn run_for(&mut self, us: f64) {
        let deadline = self.now_us + us;
        self.run_until(deadline);
    }

    /// Runs until every queued (non-auto-repeat) work item has completed.
    /// Auto-repeat contexts keep sampling while queued work exists.
    pub fn run_until_queues_drain(&mut self) {
        while self.has_pending_work() {
            if !self.step(f64::INFINITY) {
                break;
            }
        }
    }

    /// Advances the simulation by exactly one unbounded scheduling decision —
    /// the same `step(∞)` that [`Gpu::run_until_queues_drain`] loops on.
    /// Time-sliced budgets are *not* clamped to any deadline, so a caller
    /// that interleaves its own work between steps replays the drain loop's
    /// exact slice boundaries (a bounded `run_until` would clamp slices and
    /// change the simulation). Returns `false` when nothing can ever run
    /// again.
    pub fn step_once(&mut self) -> bool {
        self.step(f64::INFINITY)
    }

    /// Drains the counter-slice log in production order, leaving the kernel
    /// log in place. Incremental consumers (the streaming CUPTI session)
    /// call this between steps; the concatenation of every drain equals the
    /// slice half of [`Gpu::take_logs`] over the same run.
    pub fn drain_counter_slices(&mut self) -> Vec<CounterSlice> {
        std::mem::take(&mut self.counter_trace)
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn poll_host_at(&mut self, idx: usize, now: f64) {
        let c = &mut self.contexts[idx];
        if let Some(t) = c.gap_until {
            if now + 1e-9 >= t {
                c.gap_until = None;
            }
        }
        while c.gap_until.is_none() && c.running.is_none() {
            match c.queue.front() {
                Some(WorkItem::HostGap(d)) => {
                    let d = *d;
                    c.queue.pop_front();
                    if d > 0.0 {
                        c.gap_until = Some(now + d);
                    }
                }
                _ => break,
            }
        }
    }

    fn is_runnable(&self, idx: usize) -> bool {
        let c = &self.contexts[idx];
        if c.gap_until.is_some() {
            return false;
        }
        if c.running.is_some() {
            return true;
        }
        if matches!(c.queue.front(), Some(WorkItem::Kernel(_))) {
            return true;
        }
        c.auto.is_some() && c.queue.is_empty() && self.now_us + 1e-9 >= c.next_auto_launch_at
    }

    /// Earliest future time at which a currently non-runnable context could
    /// become runnable.
    fn next_wake(&self) -> Option<f64> {
        let mut wake: Option<f64> = None;
        for c in &self.contexts {
            let relaunch_at = (c.auto.is_some()
                && c.running.is_none()
                && c.queue.is_empty()
                && c.gap_until.is_none())
            .then_some(c.next_auto_launch_at);
            for t in [c.gap_until, relaunch_at].into_iter().flatten() {
                if t > self.now_us {
                    wake = Some(wake.map_or(t, |w: f64| w.min(t)));
                }
            }
        }
        wake
    }

    /// Advances the simulation by one scheduling decision. Returns false when
    /// nothing can ever run again before the deadline.
    fn step(&mut self, deadline_us: f64) -> bool {
        for i in 0..self.contexts.len() {
            self.poll_host_at(i, self.now_us);
        }
        // One pass: how many contexts can run, the first of them, and the
        // first at or after the round-robin cursor.
        let mut runnable = 0usize;
        let mut first = None;
        let mut first_from_cursor = None;
        for i in 0..self.contexts.len() {
            if self.is_runnable(i) {
                runnable += 1;
                first.get_or_insert(i);
                if i >= self.rr_next {
                    first_from_cursor.get_or_insert(i);
                }
            }
        }
        let Some(first) = first else {
            return match self.next_wake() {
                Some(t) if t < deadline_us => {
                    self.now_us = t;
                    true
                }
                Some(_) => {
                    self.now_us = deadline_us;
                    false
                }
                None => false,
            };
        };

        let (idx, budget) = match self.mode {
            SchedulerMode::TimeSliced => {
                // Round-robin: first runnable context at or after rr_next.
                let idx = first_from_cursor.unwrap_or(first);
                self.rr_next = idx + 1;
                if self.rr_next >= self.contexts.len() {
                    self.rr_next = 0;
                }
                let weight = self.slice_weight(idx);
                let jitter = 1.0
                    + self
                        .rng
                        .gen_range(-self.config.slice_jitter..=self.config.slice_jitter);
                let slice = self.config.time_slice_us * weight * jitter;
                (idx, slice.min(deadline_us - self.now_us))
            }
            SchedulerMode::Mps => {
                // Leftover policy: earliest-created runnable context wins and
                // runs until a higher-priority context wakes.
                let idx = first;
                let mut budget = deadline_us - self.now_us;
                if let Some(wake) = self.next_wake() {
                    // Only yield to higher-priority contexts.
                    if self.contexts.iter().take(idx).any(|c| {
                        c.gap_until.is_some() || (c.auto.is_some() && !c.has_queued_work())
                    }) {
                        budget = budget.min(wake - self.now_us);
                    }
                }
                (idx, budget.max(1.0))
            }
        };

        let sole_runner = runnable == 1;
        let used = self.execute_slice(idx, budget.max(1.0), sole_runner);
        self.now_us += used.max(0.05);
        true
    }

    fn slice_weight(&self, idx: usize) -> f64 {
        let c = &self.contexts[idx];
        let desc = c
            .running
            .as_ref()
            .map(|r| &r.desc)
            .or(match c.queue.front() {
                Some(WorkItem::Kernel(k)) => Some(k),
                _ => None,
            })
            .or(c.auto.as_ref());
        match desc {
            Some(k) => {
                // Slice grants scale with how many SMs the launch covers and
                // saturate at full coverage — the mechanism behind the
                // slow-down attack's block-count saturation.
                let coverage = k.blocks as f64 / self.config.num_sms as f64;
                SLICE_WEIGHT_FLOOR + (1.0 - SLICE_WEIGHT_FLOOR) * coverage.min(1.0)
            }
            None => SLICE_WEIGHT_FLOOR,
        }
    }

    fn start_next_kernel(&mut self, idx: usize, at: f64) -> bool {
        self.poll_host_at(idx, at);
        let c = &mut self.contexts[idx];
        if c.running.is_some() || c.gap_until.is_some() {
            return c.running.is_some();
        }
        let (desc, from_auto) = match c.queue.front() {
            Some(WorkItem::Kernel(_)) => match c.queue.pop_front() {
                Some(WorkItem::Kernel(k)) => (k, false),
                // The front was a kernel a line above.
                _ => return false,
            },
            None => match &c.auto {
                // A refcount bump: the running launch owns its description,
                // because `stop_auto_repeat` may clear `auto` mid-launch.
                // lint: allow(A1)
                Some(k) if at + 1e-9 >= c.next_auto_launch_at => (k.clone(), true),
                _ => return false,
            },
            Some(WorkItem::HostGap(_)) => return false,
        };
        // Fault: the driver rejects an auto-repeat (spy/hog) launch; back off
        // and retry. Queued victim kernels are never failed — their launch
        // sequence is the ground-truth label stream.
        let fail_prob = self.config.faults.launch_fail_prob;
        if from_auto && fail_prob > 0.0 && self.fault_rng.gen_bool(fail_prob) {
            let c = &mut self.contexts[idx];
            c.consecutive_failures += 1;
            c.launch_failures += 1;
            let backoff = match c.retry {
                Some(policy) => policy.backoff_us(c.consecutive_failures),
                None => self.config.relaunch_latency_us,
            };
            c.next_auto_launch_at = at + backoff;
            return false;
        }
        let nominal = desc.nominal_duration_us(&self.config);
        let c = &mut self.contexts[idx];
        if from_auto {
            c.consecutive_failures = 0;
        }
        if c.last_kernel_name.as_deref() != Some(&*desc.name) {
            let occ = self.l2.occupancy(idx);
            c.peak_global = occ.global();
            c.peak_tex = occ.tex;
            // A refcount bump: the name outlives the launch to compare with
            // the next one. lint: allow(A1)
            c.last_kernel_name = Some(desc.name.clone());
        }
        c.running = Some(Running {
            remaining_us: nominal,
            nominal_us: nominal,
            started_at: at,
            desc,
        });
        true
    }

    /// Runs context `idx` for up to `budget` microseconds; returns time used.
    fn execute_slice(&mut self, idx: usize, budget: f64, sole_runner: bool) -> f64 {
        let bw = self.config.mem_bandwidth;
        let mut used = 0.0f64;
        let mut delta = CounterValues::zero();
        let slice_start = self.now_us;

        // Context-switch overhead on a real preemption.
        if self.last_ran != Some(idx) && self.last_ran.is_some() {
            used += self.config.context_switch_us.min(budget);
        }
        self.last_ran = Some(idx);

        // Fault: a watchdog-preemption burst forfeits the slice before any
        // kernel work happens — time passes, no counters accumulate. The
        // burst may overrun the granted slice (the watchdog does not respect
        // the scheduler).
        let faults = self.config.faults;
        if faults.preempt_prob > 0.0 && self.fault_rng.gen_bool(faults.preempt_prob) {
            return used + faults.preempt_us;
        }

        while used < budget {
            if !self.start_next_kernel(idx, slice_start + used) {
                break;
            }
            // Phases 1 and 2 never touch the running launch, so one read
            // serves the whole turn.
            let Some(r) = self.contexts[idx].running.as_ref() else {
                break;
            };
            let (fp, nominal_us, remaining_us) = (r.desc.footprint, r.nominal_us, r.remaining_us);

            // Phase 1: pending write-backs (dirty sectors other contexts
            // evicted since we last ran).
            let pending = self.contexts[idx].pending_writeback_bytes;
            if pending > 0.0 {
                let affordable = (budget - used) * bw;
                let wb = pending.min(affordable);
                self.count_writes(&mut delta, wb);
                self.contexts[idx].pending_writeback_bytes -= wb;
                used += wb / bw;
                if used >= budget {
                    break;
                }
            }

            // Phase 2: refetch lost working-set residency (the
            // context-switching penalty).
            let (ws_target, tex_target) = {
                let c = &self.contexts[idx];
                let cap = self.l2.capacity() * MAX_L2_SHARE;
                (
                    fp.working_set.min(cap).min(c.peak_global),
                    fp.tex_working_set.min(cap).min(c.peak_tex),
                )
            };
            let occ = self.l2.occupancy(idx);
            let lost_global = (ws_target - occ.global()).max(0.0);
            let lost_tex = (tex_target - occ.tex).max(0.0);
            if lost_global + lost_tex > 0.0 {
                let affordable = (budget - used) * bw;
                let scale = (affordable / (lost_global + lost_tex)).min(1.0);
                let rg = lost_global * scale;
                let rt = lost_tex * scale;
                if rg > 0.0 {
                    self.count_reads(&mut delta, rg);
                    self.l2_insert(idx, InsertKind::GlobalClean, rg, &mut delta);
                }
                if rt > 0.0 {
                    self.count_tex(&mut delta, rt);
                    self.count_reads(&mut delta, rt);
                    self.l2_insert(idx, InsertKind::Tex, rt, &mut delta);
                }
                used += (rg + rt) / bw;
                if used >= budget {
                    break;
                }
            }

            // Phase 3: forward progress.
            let dt = remaining_us.min(budget - used);
            let finished = dt + 1e-9 >= remaining_us;
            if dt > 0.0 {
                let frac = dt / nominal_us;
                let dirty_cap = fp.write_bytes.min(self.l2.capacity() * DIRTY_CAP_FRAC);
                let reads = fp.read_bytes * frac;
                let writes = fp.write_bytes * frac;
                let tex = fp.tex_read_bytes * frac;

                self.count_reads(&mut delta, reads);
                self.count_tex(&mut delta, tex);
                // Writes do NOT reach DRAM here: they create dirty occupancy.

                // Establish / refresh occupancy.
                let occ = self.l2.occupancy(idx);
                let grow_global = (fp.working_set.min(self.l2.capacity() * MAX_L2_SHARE)
                    - occ.global())
                .max(0.0)
                .min(reads);
                if grow_global > 0.0 {
                    self.l2_insert(idx, InsertKind::GlobalClean, grow_global, &mut delta);
                }
                let grow_tex = (fp.tex_working_set.min(self.l2.capacity() * MAX_L2_SHARE)
                    - occ.tex)
                    .max(0.0)
                    .min(tex);
                if grow_tex > 0.0 {
                    self.l2_insert(idx, InsertKind::Tex, grow_tex, &mut delta);
                }
                // Transient streaming occupancy (flows through L2).
                let stream_excess = (reads - grow_global).max(0.0) + (tex - grow_tex).max(0.0);
                let transient = (stream_excess * STREAM_OCCUPANCY_FRAC).min(STREAM_OCCUPANCY_CAP);
                if transient > 0.0 {
                    self.l2_insert(idx, InsertKind::GlobalClean, transient, &mut delta);
                }
                // Dirty generation (bounded by the in-place output buffer).
                let occ = self.l2.occupancy(idx);
                let grow_dirty = (dirty_cap - occ.global_dirty).max(0.0).min(writes);
                if grow_dirty > 0.0 {
                    self.l2_insert(idx, InsertKind::GlobalDirty, grow_dirty, &mut delta);
                }

                if let Some(r) = self.contexts[idx].running.as_mut() {
                    r.remaining_us -= dt;
                }
                used += dt;
            }

            // Track peak occupancy for refetch accounting.
            {
                let occ = self.l2.occupancy(idx);
                let c = &mut self.contexts[idx];
                c.peak_global = c.peak_global.max(occ.global());
                c.peak_tex = c.peak_tex.max(occ.tex);
            }

            if finished {
                let now = slice_start + used;
                let c = &mut self.contexts[idx];
                let Some(r) = c.running.take() else {
                    break;
                };
                c.kernels_completed += 1;
                self.kernel_log.push(KernelRecord {
                    ctx: ContextId(idx),
                    name: r.desc.name,
                    op_tag: r.desc.op_tag,
                    start_us: r.started_at,
                    end_us: now,
                });
                if c.queue.is_empty() && c.auto.is_some() {
                    c.next_auto_launch_at = now + self.config.relaunch_latency_us;
                    // The relaunch latency ends this slice for the context.
                    break;
                }
                if c.yield_on_completion {
                    break;
                }
            } else {
                break;
            }
        }

        // Idle write-drain: only when nothing else wants the memory system.
        if sole_runner && used > 0.0 {
            let drained = self.l2.drain_dirty(idx, self.config.idle_drain_rate * used);
            if drained > 0.0 {
                self.count_writes(&mut delta, drained);
            }
        }

        // Counter noise and commit.
        self.apply_noise(&mut delta);
        self.apply_fault_jitter(&mut delta);
        self.contexts[idx].counters += delta;
        if self.contexts[idx].monitored && delta.total() > 0.0 {
            let mut copies = 1usize;
            if faults.drop_slice_prob > 0.0 && self.fault_rng.gen_bool(faults.drop_slice_prob) {
                copies = 0; // the counter ring buffer loses the record
            } else if faults.dup_slice_prob > 0.0 && self.fault_rng.gen_bool(faults.dup_slice_prob)
            {
                copies = 2; // a re-read race records it twice
            }
            for _ in 0..copies {
                self.counter_trace.push(CounterSlice {
                    ctx: ContextId(idx),
                    start_us: slice_start,
                    end_us: slice_start + used,
                    delta,
                });
            }
        }
        used
    }

    /// Inserts `bytes` into context `actor`'s L2 pool `kind` and books the
    /// dirty bytes the insert evicted, in eviction order: other owners owe
    /// them as pending write-backs, and the actor's own pay now.
    fn l2_insert(&mut self, actor: usize, kind: InsertKind, bytes: f64, delta: &mut CounterValues) {
        // Taken out and put back, so the loop can borrow `self` mutably;
        // the empty Vec left in its place holds no heap.
        let mut evicted = std::mem::take(&mut self.evicted);
        self.l2.insert(actor, kind, bytes, &mut evicted);
        for &(owner, bytes) in &evicted {
            if owner == actor {
                // Self-eviction writes back immediately on our own account.
                self.count_writes(delta, bytes);
            } else {
                self.contexts[owner].pending_writeback_bytes += bytes;
            }
        }
        self.evicted = evicted;
    }

    fn subp_frac(&mut self) -> f64 {
        0.5 + self.rng.gen_range(-0.03..0.03)
    }

    fn count_reads(&mut self, delta: &mut CounterValues, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        let sectors = bytes / self.config.sector_bytes;
        let f = self.subp_frac();
        delta.add_to(CounterId::FbSubp0ReadSectors, sectors * f);
        delta.add_to(CounterId::FbSubp1ReadSectors, sectors * (1.0 - f));
        let misses = sectors * L2_MISS_FACTOR;
        let f = self.subp_frac();
        delta.add_to(CounterId::L2Subp0ReadSectorMisses, misses * f);
        delta.add_to(CounterId::L2Subp1ReadSectorMisses, misses * (1.0 - f));
    }

    fn count_writes(&mut self, delta: &mut CounterValues, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        let sectors = bytes / self.config.sector_bytes;
        let f = self.subp_frac();
        delta.add_to(CounterId::FbSubp0WriteSectors, sectors * f);
        delta.add_to(CounterId::FbSubp1WriteSectors, sectors * (1.0 - f));
        let misses = sectors * L2_MISS_FACTOR;
        let f = self.subp_frac();
        delta.add_to(CounterId::L2Subp0WriteSectorMisses, misses * f);
        delta.add_to(CounterId::L2Subp1WriteSectorMisses, misses * (1.0 - f));
    }

    fn count_tex(&mut self, delta: &mut CounterValues, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        let sectors = bytes / self.config.sector_bytes;
        let f = self.subp_frac();
        delta.add_to(CounterId::Tex0CacheSectorQueries, sectors * f);
        delta.add_to(CounterId::Tex1CacheSectorQueries, sectors * (1.0 - f));
    }

    fn apply_noise(&mut self, delta: &mut CounterValues) {
        if self.config.counter_noise <= 0.0 {
            return;
        }
        let sigma = self.config.counter_noise;
        let mut noisy = CounterValues::zero();
        for id in CounterId::ALL {
            let v = delta.get(id);
            if v > 0.0 {
                // Two-uniform approximation of a Gaussian factor.
                let g: f64 = self.rng.gen_range(-1.0..1.0) + self.rng.gen_range(-1.0..1.0);
                noisy.add_to(id, (v * (1.0 + sigma * g)).max(0.0));
            }
        }
        *delta = noisy;
    }

    /// Fault: extra multiplicative counter-read jitter, drawn from the
    /// dedicated fault stream (a misbehaving counter mux on top of the
    /// substrate's own noise).
    fn apply_fault_jitter(&mut self, delta: &mut CounterValues) {
        let sigma = self.config.faults.counter_jitter;
        if sigma <= 0.0 {
            return;
        }
        let mut noisy = CounterValues::zero();
        for id in CounterId::ALL {
            let v = delta.get(id);
            if v > 0.0 {
                let g: f64 =
                    self.fault_rng.gen_range(-1.0..1.0) + self.fault_rng.gen_range(-1.0..1.0);
                noisy.add_to(id, (v * (1.0 + sigma * g)).max(0.0));
            }
        }
        *delta = noisy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFootprint;

    fn cfg() -> GpuConfig {
        let mut c = GpuConfig::gtx_1080_ti();
        c.counter_noise = 0.0;
        c.slice_jitter = 0.0;
        c
    }

    fn compute_kernel(name: &str, us: f64) -> KernelDesc {
        let c = cfg();
        let fp = KernelFootprint {
            flops: c.compute_throughput * us,
            ..KernelFootprint::empty()
        };
        KernelDesc::new(name, c.num_sms as u32 * 2, 1024, fp)
    }

    /// A kernel lasting ~`us` microseconds (compute-bound) that also moves
    /// the given memory traffic and holds the given working set.
    fn mixed_kernel(name: &str, us: f64, read: f64, write: f64, ws: f64) -> KernelDesc {
        let c = cfg();
        let fp = KernelFootprint {
            flops: c.compute_throughput * us,
            read_bytes: read,
            write_bytes: write,
            tex_read_bytes: 0.0,
            working_set: ws,
            tex_working_set: 0.0,
        };
        KernelDesc::new(name, 56, 1024, fp)
    }

    #[test]
    fn single_kernel_runs_to_completion() {
        let mut gpu = Gpu::new(cfg(), SchedulerMode::TimeSliced);
        let ctx = gpu.add_context("victim");
        gpu.enqueue(ctx, compute_kernel("k", 2500.0).with_tag("MatMul"));
        gpu.run_until_queues_drain();
        assert_eq!(gpu.kernels_completed(ctx), 1);
        let log = gpu.kernel_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].op_tag.as_deref(), Some("MatMul"));
        assert!(
            (log[0].duration_us() - 2500.0).abs() < 50.0,
            "{}",
            log[0].duration_us()
        );
    }

    #[test]
    fn time_slicing_interleaves_and_stretches() {
        // Alone: 5000us. With a competing context: ~2x wall time.
        let mut alone = Gpu::new(cfg(), SchedulerMode::TimeSliced);
        let v = alone.add_context("victim");
        alone.enqueue(v, compute_kernel("work", 5000.0));
        alone.run_until_queues_drain();
        let t_alone = alone.kernel_log()[0].duration_us();

        let mut shared = Gpu::new(cfg(), SchedulerMode::TimeSliced);
        let v = shared.add_context("victim");
        let s = shared.add_context("spy");
        shared.enqueue(v, compute_kernel("work", 5000.0));
        shared.set_auto_repeat(s, compute_kernel("spy", 1500.0));
        shared.run_until_queues_drain();
        let t_shared = shared
            .kernel_log()
            .iter()
            .find(|r| &*r.name == "work")
            .unwrap()
            .duration_us();
        assert!(
            t_shared > 1.6 * t_alone,
            "expected slow-down: alone {} vs shared {}",
            t_alone,
            t_shared
        );
    }

    #[test]
    fn host_gaps_stall_the_stream() {
        let mut gpu = Gpu::new(cfg(), SchedulerMode::TimeSliced);
        let ctx = gpu.add_context("victim");
        gpu.enqueue(ctx, compute_kernel("a", 100.0));
        gpu.enqueue_host_gap(ctx, 5000.0);
        gpu.enqueue(ctx, compute_kernel("b", 100.0));
        gpu.run_until_queues_drain();
        let log = gpu.kernel_log();
        assert_eq!(log.len(), 2);
        assert!(
            log[1].start_us - log[0].end_us >= 4999.0,
            "gap was {}",
            log[1].start_us - log[0].end_us
        );
    }

    #[test]
    fn auto_repeat_keeps_launching() {
        let mut gpu = Gpu::new(cfg(), SchedulerMode::TimeSliced);
        let spy = gpu.add_context("spy");
        gpu.set_auto_repeat(spy, compute_kernel("spy", 500.0));
        gpu.run_for(10_000.0);
        let n = gpu.kernels_completed(spy);
        assert!(n >= 15, "only {} launches", n);
        gpu.stop_auto_repeat(spy);
        let before = gpu.kernels_completed(spy);
        gpu.run_for(5_000.0);
        assert!(gpu.kernels_completed(spy) <= before + 1);
    }

    #[test]
    fn victim_eviction_shows_in_spy_reads() {
        // Spy working set resident; a memory-heavy victim evicts it; the
        // spy's refetch shows up as DRAM reads.
        let c = cfg();
        let mut gpu = Gpu::new(c.clone(), SchedulerMode::TimeSliced);
        let victim = gpu.add_context("victim");
        let spy = gpu.add_context("spy");
        gpu.monitor(spy);
        let spy_kernel = mixed_kernel("spy", 400.0, 64.0 * 1024.0, 0.0, 512.0 * 1024.0);
        gpu.set_auto_repeat(spy, spy_kernel);
        // Warm up the spy alone.
        gpu.run_for(20_000.0);
        let warm = gpu.context_counters(spy);
        gpu.run_for(20_000.0);
        let warm2 = gpu.context_counters(spy);
        let idle_rate = (warm2.dram_reads() - warm.dram_reads()) / 20_000.0;

        // Now a big victim runs: ~1 ms ops streaming 64 MiB each.
        for _ in 0..40 {
            gpu.enqueue(
                victim,
                mixed_kernel(
                    "victim",
                    1000.0,
                    64.0 * 1024.0 * 1024.0,
                    0.0,
                    2.0 * 1024.0 * 1024.0,
                ),
            );
        }
        let before = gpu.context_counters(spy);
        let t0 = gpu.now_us();
        gpu.run_until_queues_drain();
        let busy_rate =
            (gpu.context_counters(spy).dram_reads() - before.dram_reads()) / (gpu.now_us() - t0);
        assert!(
            busy_rate > 2.0 * idle_rate,
            "refetch signal missing: idle {} vs busy {}",
            idle_rate,
            busy_rate
        );
    }

    #[test]
    fn dirty_eviction_creates_spy_writebacks() {
        let c = cfg();
        let mut gpu = Gpu::new(c, SchedulerMode::TimeSliced);
        let victim = gpu.add_context("victim");
        let spy = gpu.add_context("spy");
        gpu.monitor(spy);
        // Spy writes a 256 KiB in-place buffer.
        gpu.set_auto_repeat(
            spy,
            mixed_kernel("spy", 400.0, 32.0 * 1024.0, 256.0 * 1024.0, 256.0 * 1024.0),
        );
        gpu.run_for(10_000.0);
        let before = gpu.context_counters(spy).dram_writes();
        // Victim with a huge working set evicts the spy's dirty buffer.
        for _ in 0..20 {
            gpu.enqueue(
                victim,
                mixed_kernel(
                    "victim",
                    1000.0,
                    64.0 * 1024.0 * 1024.0,
                    0.0,
                    2.6 * 1024.0 * 1024.0,
                ),
            );
        }
        gpu.run_until_queues_drain();
        let after = gpu.context_counters(spy).dram_writes();
        assert!(
            after - before > 1000.0,
            "no write-back signal: {} -> {}",
            before,
            after
        );
    }

    #[test]
    fn idle_drain_only_when_sole_runner() {
        let c = cfg();
        // Spy writes dirty data; while alone, drain turns it into DRAM writes.
        let mut gpu = Gpu::new(c, SchedulerMode::TimeSliced);
        let _victim = gpu.add_context("victim"); // exists but idle
        let spy = gpu.add_context("spy");
        gpu.set_auto_repeat(
            spy,
            mixed_kernel("spy", 400.0, 32.0 * 1024.0, 128.0 * 1024.0, 128.0 * 1024.0),
        );
        gpu.run_for(30_000.0);
        let writes = gpu.context_counters(spy).dram_writes();
        assert!(writes > 3000.0, "idle drain produced no writes: {}", writes);
    }

    #[test]
    fn mps_starves_spy_until_victim_gap() {
        let c = cfg();
        let mut gpu = Gpu::new(c, SchedulerMode::Mps);
        let victim = gpu.add_context("victim"); // priority 0
        let spy = gpu.add_context("spy");
        // Victim: two long kernels with a gap.
        gpu.enqueue(victim, compute_kernel("iter1", 20_000.0));
        gpu.enqueue_host_gap(victim, 3_000.0);
        gpu.enqueue(victim, compute_kernel("iter2", 20_000.0));
        gpu.set_auto_repeat(spy, compute_kernel("spy", 400.0));
        gpu.run_until_queues_drain();
        let spy_launches: Vec<&KernelRecord> = gpu
            .kernel_log()
            .iter()
            .filter(|r| &*r.name == "spy")
            .collect();
        // Spy only completes kernels inside the single 3 ms gap (plus the
        // trailing idle period, which run_until_queues_drain cuts short).
        let victim_iter1_end = gpu
            .kernel_log()
            .iter()
            .find(|r| &*r.name == "iter1")
            .unwrap()
            .end_us;
        let during_iter1 = spy_launches
            .iter()
            .filter(|r| r.end_us < victim_iter1_end - 1.0)
            .count();
        assert_eq!(
            during_iter1, 0,
            "spy completed {} launches while victim iteration 1 ran",
            during_iter1
        );
        assert!(!spy_launches.is_empty(), "spy never ran in the gap");
    }

    #[test]
    fn monitored_context_produces_counter_trace() {
        let mut gpu = Gpu::new(cfg(), SchedulerMode::TimeSliced);
        let spy = gpu.add_context("spy");
        gpu.monitor(spy);
        gpu.set_auto_repeat(
            spy,
            mixed_kernel("spy", 300.0, 64.0 * 1024.0, 0.0, 64.0 * 1024.0),
        );
        gpu.run_for(5_000.0);
        assert!(!gpu.counter_trace().is_empty());
        for s in gpu.counter_trace() {
            assert_eq!(s.ctx.index(), spy.index());
            assert!(s.end_us >= s.start_us);
        }
    }

    #[test]
    fn take_logs_leaves_engine_reusable() {
        let mut gpu = Gpu::new(cfg(), SchedulerMode::TimeSliced);
        let ctx = gpu.add_context("a");
        gpu.enqueue(ctx, compute_kernel("k", 100.0));
        gpu.run_until_queues_drain();
        let (kernels, _slices) = gpu.take_logs();
        assert_eq!(kernels.len(), 1);
        assert!(gpu.kernel_log().is_empty());
        gpu.enqueue(ctx, compute_kernel("k2", 100.0));
        gpu.run_until_queues_drain();
        assert_eq!(gpu.kernel_log().len(), 1);
    }

    #[test]
    fn fault_plan_is_deterministic_and_perturbing() {
        use crate::fault::FaultPlan;
        let run = |faults: FaultPlan| {
            let mut gpu = Gpu::new(
                cfg().with_seed(42).with_faults(faults),
                SchedulerMode::TimeSliced,
            );
            let v = gpu.add_context("v");
            let s = gpu.add_context("s");
            gpu.monitor(s);
            for _ in 0..5 {
                gpu.enqueue(v, mixed_kernel("op", 2000.0, 1e6, 1e5, 1e6));
            }
            gpu.set_auto_repeat(
                s,
                mixed_kernel("spy", 400.0, 64.0 * 1024.0, 32.0 * 1024.0, 256.0 * 1024.0),
            );
            gpu.run_until_queues_drain();
            let (_, slices) = gpu.take_logs();
            slices
                .iter()
                .map(|s| (s.start_us.to_bits(), s.delta.total().to_bits()))
                .collect::<Vec<_>>()
        };
        let plan = FaultPlan::uniform(0.2, 7);
        let clean = run(FaultPlan::none());
        let a = run(plan);
        let b = run(plan);
        assert_eq!(a, b, "same plan seed => bitwise-identical trace");
        assert_ne!(a, clean, "active plan perturbs the trace");
        assert_ne!(
            run(plan.with_seed(8)),
            a,
            "different fault seed => different trace"
        );
    }

    #[test]
    fn launch_failures_back_off_and_reduce_sampling() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let run = |fail_prob: f64| {
            let mut faults = FaultPlan::none();
            faults.launch_fail_prob = fail_prob;
            faults.seed = 3;
            let mut gpu = Gpu::new(cfg().with_faults(faults), SchedulerMode::TimeSliced);
            let s = gpu.add_context("s");
            gpu.set_launch_retry(
                s,
                RetryPolicy {
                    base_us: 30.0,
                    factor: 2.0,
                    cap_us: 2000.0,
                },
            );
            gpu.set_auto_repeat(s, compute_kernel("spy", 400.0));
            gpu.run_for(100_000.0);
            (gpu.kernels_completed(s), gpu.launch_failures(s))
        };
        let (clean_n, clean_fails) = run(0.0);
        let (faulty_n, faulty_fails) = run(0.4);
        assert_eq!(clean_fails, 0);
        assert!(faulty_fails > 0, "failures must occur at 40% rate");
        assert!(
            faulty_n < clean_n,
            "failed launches cost samples: {faulty_n} vs {clean_n}"
        );
        assert!(faulty_n > 0, "retries keep the spy alive");
    }

    #[test]
    fn preemption_bursts_slow_the_victim() {
        use crate::fault::FaultPlan;
        let run = |preempt_prob: f64| {
            let mut faults = FaultPlan::none();
            faults.preempt_prob = preempt_prob;
            faults.preempt_us = 500.0;
            faults.seed = 5;
            let mut gpu = Gpu::new(cfg().with_faults(faults), SchedulerMode::TimeSliced);
            let v = gpu.add_context("v");
            gpu.enqueue(v, compute_kernel("work", 5000.0));
            gpu.run_until_queues_drain();
            gpu.kernel_log()[0].duration_us()
        };
        assert!(run(0.5) > 1.2 * run(0.0), "bursts must stretch wall time");
    }

    #[test]
    fn drop_and_dup_change_slice_counts() {
        use crate::fault::FaultPlan;
        let run = |drop: f64, dup: f64| {
            let mut faults = FaultPlan::none();
            faults.drop_slice_prob = drop;
            faults.dup_slice_prob = dup;
            faults.seed = 11;
            let mut gpu = Gpu::new(cfg().with_faults(faults), SchedulerMode::TimeSliced);
            let s = gpu.add_context("s");
            gpu.monitor(s);
            gpu.set_auto_repeat(
                s,
                mixed_kernel("spy", 300.0, 64.0 * 1024.0, 0.0, 64.0 * 1024.0),
            );
            gpu.run_for(50_000.0);
            gpu.counter_trace().len()
        };
        let base = run(0.0, 0.0);
        assert!(run(0.4, 0.0) < base, "drops lose records");
        assert!(run(0.0, 0.4) > base, "dups add records");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut gpu = Gpu::new(cfg().with_seed(42), SchedulerMode::TimeSliced);
            let v = gpu.add_context("v");
            let s = gpu.add_context("s");
            gpu.monitor(s);
            gpu.enqueue(v, mixed_kernel("op", 2000.0, 1e6, 1e5, 1e6));
            gpu.set_auto_repeat(
                s,
                mixed_kernel("spy", 400.0, 64.0 * 1024.0, 32.0 * 1024.0, 256.0 * 1024.0),
            );
            gpu.run_until_queues_drain();
            gpu.context_counters(s)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn step_once_with_incremental_drains_replays_the_batch_drain_loop() {
        let build = || {
            let mut gpu = Gpu::new(cfg().with_seed(42), SchedulerMode::TimeSliced);
            let v = gpu.add_context("v");
            let s = gpu.add_context("s");
            gpu.monitor(s);
            for i in 0..4 {
                gpu.enqueue(v, mixed_kernel(&format!("op{}", i), 2000.0, 1e6, 1e5, 1e6));
            }
            gpu.set_auto_repeat(
                s,
                mixed_kernel("spy", 400.0, 64.0 * 1024.0, 32.0 * 1024.0, 256.0 * 1024.0),
            );
            gpu
        };

        let mut batch = build();
        batch.run_until_queues_drain();
        let batch_end = batch.now_us();
        let (batch_kernels, batch_slices) = batch.take_logs();

        // Same run, one unbounded step at a time, draining slices as we go.
        let mut inc = build();
        let mut slices = Vec::new();
        while inc.has_pending_work() {
            if !inc.step_once() {
                break;
            }
            slices.extend(inc.drain_counter_slices());
        }
        assert_eq!(inc.now_us(), batch_end, "stepped clock diverged");
        let (inc_kernels, tail_slices) = inc.take_logs();
        slices.extend(tail_slices);
        assert_eq!(inc_kernels, batch_kernels, "kernel log diverged");
        assert_eq!(slices, batch_slices, "drained slices diverged");
    }
}
