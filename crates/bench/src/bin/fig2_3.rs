//! Figures 2 & 3: spy sampling granularity with MPS **on** (Figure 2: the
//! spy completes about one kernel per victim training iteration — useless
//! for structure recovery) versus MPS **off** / time-sliced (Figure 3: the
//! spy samples at fine grain inside each iteration).

use bench::Scale;
use dnn_sim::trainer::iteration_spans;
use dnn_sim::zoo;
use gpu_sim::{Gpu, GpuConfig, SchedulerMode};
use moscons::SpyKernelKind;
use rand::SeedableRng;

struct Series {
    spy_per_iteration: Vec<usize>,
    spy_durations_us: Vec<f64>,
}

fn run(mode: SchedulerMode) -> Series {
    let scale = Scale::from_env();
    let mut session = scale.session(zoo::alexnet());
    // Disable host-side stalls so intra-iteration idle time is zero: the
    // figure isolates scheduler behaviour (the paper's traces show the same).
    {
        let model = session.model().clone();
        let mut cfg = dnn_sim::TrainingConfig::new(scale.batch_for(&model), scale.iterations);
        cfg.intra_stall_prob = 0.0;
        session = dnn_sim::TrainingSession::new(model, cfg);
    }
    let gpu_cfg = GpuConfig::gtx_1080_ti();
    let mut gpu = Gpu::new(gpu_cfg.clone(), mode);
    let victim = gpu.add_context("victim");
    let spy = gpu.add_context("spy");
    gpu.set_auto_repeat(spy, SpyKernelKind::Conv200.kernel(1.24, &gpu_cfg));
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    session.enqueue(&mut gpu, victim, &mut rng);
    gpu.run_until_queues_drain();

    // Victim iteration boundaries from the kernel log.
    let per_iter = session.ops().len();
    let victim_log: Vec<_> = gpu
        .kernel_log()
        .iter()
        .filter(|r| r.ctx == victim)
        .cloned()
        .collect();
    let spy_log: Vec<_> = gpu
        .kernel_log()
        .iter()
        .filter(|r| r.ctx == spy)
        .cloned()
        .collect();
    // Completions while the victim is actually computing (the gaps between
    // iterations are excluded — both schedulers sample freely there).
    let spy_per_iteration = iteration_spans(&victim_log, per_iter)
        .map(|(start, end)| {
            spy_log
                .iter()
                .filter(|r| r.end_us >= start && r.end_us <= end)
                .count()
        })
        .collect();
    Series {
        spy_per_iteration,
        spy_durations_us: spy_log.iter().map(|r| r.duration_us()).collect(),
    }
}

fn main() {
    println!("victim: AlexNet training; spy: Conv200 auto-repeat (no slow-down hogs)\n");
    let mps = run(SchedulerMode::Mps);
    let sliced = run(SchedulerMode::TimeSliced);

    println!("=== Figure 2 — MPS enabled (leftover policy) ===");
    println!(
        "spy kernels completed inside each victim iteration: {:?}",
        mps.spy_per_iteration
    );
    let max_mps = mps.spy_durations_us.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "longest spy launch: {:.1} ms (stretched across the victim's computation)",
        max_mps / 1000.0
    );

    println!("\n=== Figure 3 — MPS disabled (time-sliced) ===");
    println!(
        "spy kernels completed inside each victim iteration: {:?}",
        sliced.spy_per_iteration
    );
    let max_ts = sliced
        .spy_durations_us
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    let mean_ts = mean(&sliced.spy_durations_us);
    println!(
        "longest spy launch: {:.1} ms, mean {:.1} ms",
        max_ts / 1000.0,
        mean_ts / 1000.0
    );

    let mps_rate = mean_usize(&mps.spy_per_iteration);
    let ts_rate = mean_usize(&sliced.spy_per_iteration);
    println!("\nshape checks vs paper:");
    println!(
        "  MPS: at most ~1 sample per iteration:         {} (mean {:.1})",
        mps_rate <= 1.5,
        mps_rate
    );
    println!(
        "  time-sliced samples at fine grain:            {} (mean {:.1} per iteration)",
        ts_rate >= 5.0,
        ts_rate
    );
    println!(
        "  MPS stretches in-flight spy launches:         {} (max {:.1} ms vs {:.1} ms)",
        max_mps > 2.0 * max_ts,
        max_mps / 1000.0,
        max_ts / 1000.0
    );
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn mean_usize(v: &[usize]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<usize>() as f64 / v.len() as f64
    }
}
