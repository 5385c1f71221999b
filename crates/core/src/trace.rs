//! Side-channel trace collection: wires together the victim's training
//! session, the spy sampler, the slow-down hogs and the CUPTI session, and
//! returns the sample stream plus (in the profiling phase) the victim's
//! ground-truth timeline.

use cupti_sim::{table_iv_groups, CuptiSample, CuptiSession, CuptiStream, VmInstance};
use dnn_sim::trainer::mean_iteration_us;
use dnn_sim::TrainingSession;
use gpu_sim::{ContextId, Gpu, GpuConfig, KernelDesc, KernelRecord, SchedulerMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::slowdown::SlowdownConfig;
use crate::spy::SpyKernelKind;

/// Configuration of one collection run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Which probe kernel the sampler runs.
    pub spy_kernel: SpyKernelKind,
    /// Slow-down attack setting.
    pub slowdown: SlowdownConfig,
    /// Host poll period for CUPTI reads, microseconds.
    pub poll_period_us: f64,
    /// Seed for host-side randomness (gaps, stalls) and the engine.
    pub seed: u64,
}

impl CollectionConfig {
    /// The paper's attack setting: Conv200 sampler, 8-kernel slow-down.
    pub fn paper() -> Self {
        CollectionConfig {
            spy_kernel: SpyKernelKind::Conv200,
            slowdown: SlowdownConfig::paper(),
            poll_period_us: 1_000.0,
            seed: 0xCAFE,
        }
    }

    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The raw product of one collection run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RawTrace {
    /// CUPTI samples in time order.
    pub samples: Vec<CuptiSample>,
    /// The victim's kernel records (ground truth — used for labeling in the
    /// profiling phase; at attack time the adversary must not look at it).
    pub victim_log: Vec<KernelRecord>,
    /// The collection configuration used.
    pub collection: CollectionConfig,
    /// Mean wall time of one victim iteration during the run, microseconds.
    pub mean_iteration_us: f64,
}

/// Collects a trace of a full training run (victim + sampler + hogs, MPS
/// off). Works for both the profiling phase (keep `victim_log`) and the
/// attack phase (ignore it).
///
/// The simulation is deterministic in its inputs, so results are memoized
/// in-process through [`crate::cache`]; a hit is bitwise identical to a
/// fresh collection.
///
/// # Panics
///
/// Panics if the CUPTI session cannot be opened — construct the spy VM via
/// [`spy_vm`] which performs the §II-D driver downgrade first.
pub fn collect_trace(
    session: &TrainingSession,
    collection: &CollectionConfig,
    gpu_config: &GpuConfig,
) -> RawTrace {
    let fingerprint = cupti_sim::session_fingerprint(
        &table_iv_groups(),
        collection.poll_period_us,
        1.0, // `CuptiSession::open` default; `with_quantization` is not used here
    );
    let key = crate::cache::trace_key(
        session,
        collection,
        &collection_gpu(collection, gpu_config),
        &fingerprint,
    );
    crate::cache::trace_for(key, || {
        collect_trace_uncached(session, collection, gpu_config)
    })
}

/// The simulated GPU a collection runs on: `gpu_config` reseeded from the
/// collection seed. [`collect_trace`]'s key hashes this config, so the key
/// always describes the GPU that [`SpySession::start`] builds.
fn collection_gpu(collection: &CollectionConfig, gpu_config: &GpuConfig) -> GpuConfig {
    gpu_config.clone().with_seed(collection.seed ^ 0x5119)
}

/// The actual collection run behind [`collect_trace`], always simulating
/// from scratch: a [`SpySession`] driven to completion, accumulating the
/// samples its [`cupti_sim::CuptiStream`] emits as the engine runs.
fn collect_trace_uncached(
    session: &TrainingSession,
    collection: &CollectionConfig,
    gpu_config: &GpuConfig,
) -> RawTrace {
    let mut spy = SpySession::start(session, collection, gpu_config);
    let mut samples = Vec::new();
    while !spy.is_done() {
        samples.extend(spy.poll(1024));
    }
    let tail = spy.finish();
    samples.extend(tail.samples);
    RawTrace {
        samples,
        victim_log: tail.victim_log,
        collection: *collection,
        mean_iteration_us: tail.mean_iteration_us,
    }
}

/// A live collection run: the victim trains on the simulated GPU while the
/// adversary polls CUPTI samples out incrementally — the ingestion stage of
/// the streaming attack engine ([`crate::stream`]) and the unit the fleet
/// orchestrator ([`crate::fleet`]) multiplexes.
///
/// The GPU side is [`spy_rig`]'s, on the collection's seeded GPU, and
/// [`collect_trace`] is one session driven to completion: concatenating a
/// session's [`SpySession::poll`] outputs and its [`SessionTail`] samples
/// reproduces that [`RawTrace`] bitwise.
#[derive(Debug)]
pub struct SpySession {
    gpu: Gpu,
    victim: ContextId,
    /// Incremental CUPTI attribution; [`SpySession::finish`] flushes it.
    stream: CuptiStream,
    poll_period_us: f64,
    /// Victim ops per training iteration (for the mean-iteration stat).
    per_iter: usize,
    done: bool,
}

/// What a finished [`SpySession`] hands back besides the streamed samples.
#[derive(Debug)]
pub struct SessionTail {
    /// Samples unlocked by the end of the run (held-back windows and the
    /// trailing gap).
    pub samples: Vec<CuptiSample>,
    /// The victim's kernel records (profiling-phase ground truth).
    pub victim_log: Vec<KernelRecord>,
    /// Mean wall time of one victim iteration, microseconds.
    pub mean_iteration_us: f64,
}

impl SpySession {
    /// Builds the [`spy_rig`] for `collection` on its seeded GPU and
    /// enqueues the victim's training run, without stepping the engine.
    ///
    /// # Panics
    ///
    /// Panics if the CUPTI session cannot be opened (see [`spy_rig`]).
    pub fn start(
        session: &TrainingSession,
        collection: &CollectionConfig,
        gpu_config: &GpuConfig,
    ) -> SpySession {
        let (mut gpu, victim, cupti) = spy_rig(
            collection_gpu(collection, gpu_config),
            collection.spy_kernel,
            collection.slowdown,
            collection.poll_period_us,
        );
        let mut rng = StdRng::seed_from_u64(collection.seed);
        session.enqueue(&mut gpu, victim, &mut rng);

        let faults = gpu.config().faults;
        let stream = CuptiStream::open(cupti, 0.0, faults);
        SpySession {
            gpu,
            victim,
            stream,
            poll_period_us: collection.poll_period_us,
            per_iter: session.ops().len(),
            done: false,
        }
    }

    /// Whether the victim's run (plus the trailing-gap tail) has completed.
    /// A done session emits nothing further from [`SpySession::poll`];
    /// [`SpySession::finish`] releases the held-back remainder.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Advances the simulation by up to `max_steps` engine events and
    /// returns the CUPTI samples that became attributable. When the queues
    /// drain, one final `2 x poll_period` tail run lets the sampler observe
    /// the trailing inter-iteration gap (exactly the batch path's epilogue)
    /// and the session becomes done.
    ///
    /// The step budget only controls poll granularity: the engine's event
    /// sequence — and therefore every emitted sample — is independent of
    /// how the budget slices it.
    pub fn poll(&mut self, max_steps: usize) -> Vec<CuptiSample> {
        if self.done {
            return Vec::new();
        }
        let mut steps = 0usize;
        while steps < max_steps {
            if self.gpu.has_pending_work() && self.gpu.step_once() {
                steps += 1;
            } else {
                // Queues drained: sample the trailing gap in one run, like
                // the batch path.
                let tail = self.gpu.now_us() + 2.0 * self.poll_period_us;
                self.gpu.run_until(tail);
                self.done = true;
                break;
            }
        }
        let slices = self.gpu.drain_counter_slices();
        self.stream.push(&slices, self.gpu.now_us())
    }

    /// Ends the run: flushes held-back windows and returns the tail.
    ///
    /// # Panics
    ///
    /// Panics if the session is not [`SpySession::is_done`] yet.
    pub fn finish(self) -> SessionTail {
        let SpySession {
            mut gpu,
            victim,
            mut stream,
            per_iter,
            done,
            ..
        } = self;
        assert!(done, "drive the session with poll() until done");
        let end = gpu.now_us();
        let (kernels, slices) = gpu.take_logs();
        let mut samples = stream.push(&slices, end);
        samples.extend(stream.finish(end));
        let victim_log: Vec<KernelRecord> =
            kernels.into_iter().filter(|r| r.ctx == victim).collect();
        SessionTail {
            samples,
            mean_iteration_us: mean_iteration_us(&victim_log, per_iter),
            victim_log,
        }
    }
}

/// A spy VM ready for CUPTI: freshly rented (patched driver), then
/// downgraded with the tenant's root privilege — the paper's §II-D bypass.
pub fn spy_vm() -> VmInstance {
    let mut vm = VmInstance::fresh_cloud_instance("spy-vm");
    vm.downgrade_driver()
        // The simulated downgrade is infallible on a fresh rented instance
        // (the tenant has root — the paper's §II-D bypass); failure would
        // be a sim-harness bug, not a serving condition. lint: allow(A2)
        .expect("tenant has root in their own VM");
    vm
}

/// The spy's side of the GPU, the same for every collection: a time-sliced
/// [`Gpu`] with the `"victim"` context, then the monitored `"spy_sampler"`
/// context, then `slowdown`'s hogs. The sampler auto-repeats `spy`,
/// stretched by the Table IV replay factor, and retries faulted launches
/// under [`crate::spy::sampler_retry_policy`]. Returns the GPU, the victim
/// context (the caller adds its work) and the Table IV session on the
/// sampler, opened on [`spy_vm`].
///
/// # Panics
///
/// Panics if the CUPTI session cannot be opened, which [`spy_vm`]'s driver
/// downgrade rules out.
pub fn spy_rig(
    gpu_config: GpuConfig,
    spy: SpyKernelKind,
    slowdown: SlowdownConfig,
    poll_period_us: f64,
) -> (Gpu, ContextId, CuptiSession) {
    let vm = spy_vm();
    let mut gpu = Gpu::new(gpu_config, SchedulerMode::TimeSliced);
    // Context creation order: victim first (it is the MPS-priority
    // context in the comparison experiments; irrelevant under time
    // slicing).
    let victim = gpu.add_context("victim");
    let sampler = gpu.add_context("spy_sampler");
    gpu.monitor(sampler);
    slowdown.launch(&mut gpu);
    let cupti = CuptiSession::open(&vm, sampler, table_iv_groups(), poll_period_us)
        // Simulated CUPTI open cannot fail after spy_vm()'s driver
        // downgrade; a failure here is a sim-harness bug worth a loud
        // stop, not a serving condition. lint: allow(A2)
        .expect("CUPTI accessible after driver downgrade");
    gpu.set_auto_repeat(sampler, spy.kernel(cupti.replay_factor(), gpu.config()));
    // Bounded-backoff retries for faulted spy launches; inert on the
    // clean path (launches only fail under an active FaultPlan).
    gpu.set_launch_retry(sampler, crate::spy::sampler_retry_policy());
    (gpu, victim, cupti)
}

/// Collects samples while the victim runs one fixed kernel in a loop (or
/// idles, when `victim_kernel` is `None`) — the micro-benchmark harness
/// behind Tables I and II. No slow-down hogs; one spy, one victim.
pub fn collect_microbench(
    victim_kernel: Option<KernelDesc>,
    spy: SpyKernelKind,
    duration_us: f64,
    poll_period_us: f64,
    gpu_config: &GpuConfig,
    seed: u64,
) -> Vec<CuptiSample> {
    let (mut gpu, victim, cupti) = spy_rig(
        gpu_config.clone().with_seed(seed),
        spy,
        SlowdownConfig::off(),
        poll_period_us,
    );
    if let Some(k) = victim_kernel {
        gpu.set_auto_repeat(victim, k);
    }
    gpu.run_until(duration_us);
    let faults = gpu.config().faults;
    let (_, slices) = gpu.take_logs();
    // Discard a warm-up prefix so steady-state statistics dominate.
    let warmup = duration_us * 0.2;
    cupti.collect(&slices, warmup, duration_us, &faults)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dnn_sim::{zoo, Activation, InputSpec, Layer, Model, Optimizer, TrainingConfig};

    pub(crate) fn tiny_model() -> Model {
        Model::new(
            "tiny",
            InputSpec::Image {
                height: 16,
                width: 16,
                channels: 3,
            },
            vec![
                Layer::conv(3, 8, 1),
                Layer::MaxPool,
                Layer::dense(32, Activation::Relu),
            ],
            Optimizer::Gd,
        )
    }

    #[test]
    fn collect_trace_produces_samples_and_log() {
        let session = TrainingSession::new(tiny_model(), TrainingConfig::new(4, 2));
        let cfg = CollectionConfig {
            slowdown: SlowdownConfig { kernels: 2 },
            ..CollectionConfig::paper()
        };
        let trace = collect_trace(&session, &cfg, &GpuConfig::gtx_1080_ti());
        assert!(!trace.samples.is_empty());
        assert_eq!(trace.victim_log.len(), session.ops().len() * 2);
        assert!(trace.mean_iteration_us > 0.0);
        // Samples are contiguous, ordered windows.
        for w in trace.samples.windows(2) {
            assert!(w[1].start_us >= w[0].start_us);
        }
    }

    #[test]
    fn slowdown_stretches_iterations() {
        let session = TrainingSession::new(tiny_model(), TrainingConfig::new(4, 2));
        let slow = collect_trace(
            &session,
            &CollectionConfig::paper(),
            &GpuConfig::gtx_1080_ti(),
        );
        let fast = collect_trace(
            &session,
            &CollectionConfig {
                slowdown: SlowdownConfig::off(),
                ..CollectionConfig::paper()
            },
            &GpuConfig::gtx_1080_ti(),
        );
        assert!(
            slow.mean_iteration_us > 2.0 * fast.mean_iteration_us,
            "slow {} vs fast {}",
            slow.mean_iteration_us,
            fast.mean_iteration_us
        );
    }

    #[test]
    fn faulted_collection_is_deterministic_and_perturbed() {
        use gpu_sim::FaultPlan;
        let _memo = crate::cache::test_lock();
        let session = TrainingSession::new(tiny_model(), TrainingConfig::new(4, 2));
        let cfg = CollectionConfig {
            slowdown: SlowdownConfig { kernels: 2 },
            ..CollectionConfig::paper()
        };
        let clean_gpu = GpuConfig::gtx_1080_ti();
        let faulty_gpu = clean_gpu.clone().with_faults(FaultPlan::uniform(0.2, 9));

        let clean = collect_trace(&session, &cfg, &clean_gpu);
        let a = collect_trace(&session, &cfg, &faulty_gpu);
        // Defeat the memoization layer so the second run actually simulates.
        crate::cache::clear_memory();
        let b = collect_trace(&session, &cfg, &faulty_gpu);
        assert_eq!(a.samples, b.samples, "same plan => bitwise-identical");
        assert_eq!(a.victim_log.len(), b.victim_log.len());
        assert_ne!(a.samples, clean.samples, "active plan perturbs the trace");
        // The victim's op stream itself is never faulted: labels stay whole.
        assert_eq!(a.victim_log.len(), session.ops().len() * 2);
    }

    #[test]
    fn microbench_idle_vs_busy_differ() {
        let gpu_cfg = GpuConfig::gtx_1080_ti();
        let idle = collect_microbench(
            None,
            SpyKernelKind::Conv200,
            200_000.0,
            4_000.0,
            &gpu_cfg,
            1,
        );
        let ops = dnn_sim::plan_iteration(&zoo::vgg16(), 64);
        let conv = ops
            .iter()
            .find(|o| o.kind == dnn_sim::OpKind::Conv2D)
            .unwrap();
        let conv_kernel = dnn_sim::lower_op(conv, 0, &gpu_cfg);
        let busy = collect_microbench(
            Some(conv_kernel),
            SpyKernelKind::Conv200,
            200_000.0,
            4_000.0,
            &gpu_cfg,
            1,
        );
        let mean = |s: &[cupti_sim::CuptiSample]| {
            s.iter().map(|x| x.counters.dram_reads()).sum::<f64>() / s.len() as f64
        };
        let mi = mean(&idle);
        let mb = mean(&busy);
        assert!(mi != mb, "idle and busy identical: {} vs {}", mi, mb);
    }
}
