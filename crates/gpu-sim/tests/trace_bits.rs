//! Pins the exact bits the simulator produces for the attack's rig.
//!
//! The goldens hash class labels, which survive a counter that moves by one
//! ulp, and the benchmark digests that would see it run only through the
//! benchmark harness. This test builds the rig's shape from `gpu_sim` calls
//! alone (a victim with mixed kernels and host gaps, a monitored
//! auto-repeat sampler with a retry policy, and eight auto-repeat hogs),
//! drains it three ways, and hashes the bits of every counter slice, the
//! kernel log and the final clock. Reordering a float operation or an RNG
//! draw anywhere on the engine's step path moves a digest.

use gpu_sim::{
    CounterSlice, FaultPlan, Gpu, GpuConfig, KernelDesc, KernelFootprint, KernelRecord, Occupancy,
    RetryPolicy, SchedulerMode,
};

/// Digest of the time-sliced rig on the clean path, recorded on x86-64 Linux.
const TIME_SLICED_BITS: u64 = 0x57aa_7211_3f82_6793;
/// Digest of the time-sliced rig under `FaultPlan::uniform(0.2, 7)`.
const FAULTED_BITS: u64 = 0x1f9d_f696_497c_e9dd;
/// Digest of the rig under the MPS leftover scheduler.
const MPS_BITS: u64 = 0x5359_8eaa_5cb8_c9fe;

const KIB: f64 = 1024.0;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn slice(&mut self, s: &CounterSlice) {
        self.u64(s.ctx.index() as u64);
        self.f64(s.start_us);
        self.f64(s.end_us);
        for v in s.delta.as_array() {
            self.f64(v);
        }
    }

    fn record(&mut self, r: &KernelRecord) {
        self.u64(r.ctx.index() as u64);
        self.str(&r.name);
        match r.op_tag.as_deref() {
            Some(tag) => {
                self.u64(1);
                self.str(tag);
            }
            None => self.u64(0),
        }
        self.f64(r.start_us);
        self.f64(r.end_us);
    }
}

/// A kernel of `blocks` blocks of 32 threads that computes for about `us`
/// microseconds at its occupancy and moves the given traffic.
fn kernel(cfg: &GpuConfig, name: &str, blocks: u32, us: f64, traffic: [f64; 5]) -> KernelDesc {
    let occ = Occupancy::of_launch(blocks, 32, cfg).fraction().max(1e-3);
    let [read_bytes, write_bytes, tex_read_bytes, working_set, tex_working_set] = traffic;
    let fp = KernelFootprint {
        flops: cfg.compute_throughput * occ * us,
        read_bytes,
        write_bytes,
        tex_read_bytes,
        working_set,
        tex_working_set,
    };
    KernelDesc::new(name, blocks, 32, fp)
}

/// Builds the rig on a fresh GPU, drains the victim's queue and hashes
/// every counter slice, the kernel log and the final clock.
fn rig_digest(mode: SchedulerMode, faults: FaultPlan) -> u64 {
    let cfg = GpuConfig::gtx_1080_ti()
        .with_seed(0x7ace)
        .with_faults(faults);
    let mut gpu = Gpu::new(cfg.clone(), mode);

    let victim = gpu.add_context("victim");
    gpu.set_yield_on_completion(victim, true);
    let sampler = gpu.add_context("sampler");
    gpu.monitor(sampler);
    for i in 0..8u32 {
        let hog = gpu.add_context(format!("hog_{i}"));
        let blocks = 4 << (i / 2);
        let traffic = [8.0 * KIB, 0.0, 0.0, 8.0 * KIB, 0.0];
        let k = kernel(
            &cfg,
            &format!("hog_{i}"),
            blocks,
            3.0 * cfg.time_slice_us,
            traffic,
        );
        gpu.set_auto_repeat(hog, k);
    }
    let spy = kernel(
        &cfg,
        "spy",
        4,
        120.0,
        [
            160.0 * KIB,
            256.0 * KIB,
            96.0 * KIB,
            512.0 * KIB,
            256.0 * KIB,
        ],
    );
    gpu.set_auto_repeat(sampler, spy);
    gpu.set_launch_retry(
        sampler,
        RetryPolicy {
            base_us: 30.0,
            factor: 2.0,
            cap_us: 480.0,
        },
    );

    // Eight iterations of a tex-heavy convolution, a GEMM and two short
    // element-wise ops, separated by host gaps (one of them empty).
    let conv = [
        2048.0 * KIB,
        512.0 * KIB,
        1024.0 * KIB,
        1536.0 * KIB,
        768.0 * KIB,
    ];
    let gemm = [1024.0 * KIB, 256.0 * KIB, 0.0, 1024.0 * KIB, 0.0];
    let relu = [256.0 * KIB, 256.0 * KIB, 0.0, 256.0 * KIB, 0.0];
    let bias = [64.0 * KIB, 64.0 * KIB, 0.0, 64.0 * KIB, 0.0];
    for iter in 0..8 {
        gpu.enqueue(
            victim,
            kernel(&cfg, "conv", 112, 3000.0, conv).with_tag("Conv2D"),
        );
        gpu.enqueue(
            victim,
            kernel(&cfg, "relu", 56, 200.0, relu).with_tag("Relu"),
        );
        gpu.enqueue(
            victim,
            kernel(&cfg, "gemm", 28, 2000.0, gemm).with_tag("MatMul"),
        );
        gpu.enqueue(
            victim,
            kernel(&cfg, "bias", 14, 100.0, bias).with_tag("BiasAdd"),
        );
        gpu.enqueue_host_gap(victim, if iter == 1 { 0.0 } else { 800.0 });
    }
    gpu.run_until_queues_drain();

    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let (kernels, slices) = gpu.take_logs();
    hash.u64(slices.len() as u64);
    for s in &slices {
        hash.slice(s);
    }
    hash.u64(kernels.len() as u64);
    for r in &kernels {
        hash.record(r);
    }
    hash.f64(gpu.now_us());
    hash.0
}

fn check(name: &str, digest: u64, recorded: u64) {
    assert_eq!(
        digest, recorded,
        "{name} trace bits moved: digest {digest:#018x}, recorded {recorded:#018x}"
    );
}

#[test]
fn time_sliced_rig_matches_the_recorded_digest() {
    let digest = rig_digest(SchedulerMode::TimeSliced, FaultPlan::none());
    check("time-sliced", digest, TIME_SLICED_BITS);
}

#[test]
fn faulted_rig_matches_the_recorded_digest() {
    let digest = rig_digest(SchedulerMode::TimeSliced, FaultPlan::uniform(0.2, 7));
    check("faulted", digest, FAULTED_BITS);
}

#[test]
fn mps_rig_matches_the_recorded_digest() {
    let digest = rig_digest(SchedulerMode::Mps, FaultPlan::none());
    check("MPS", digest, MPS_BITS);
}
