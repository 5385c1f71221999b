//! Fleet orchestrator bench: N concurrent streaming spy sessions.
//!
//! Runs [`moscons::run_fleet`] twice over the same session specs:
//!
//! * **f32 + Stall** — the lossless streaming attack path. Every session's
//!   final extraction is compared bitwise (via [`moscons::AttackReport`])
//!   against the batch [`moscons::Moscons::attack_on`] on the same
//!   victim/seed/GPU; `streaming_vs_batch_agreement` is the fraction of
//!   sessions that match and CI gates it at exactly 1.0.
//! * **int8 + Stall** — incremental gap detection per session with closed
//!   segments batched *across* sessions into the quantized serving path
//!   (one `predict_batch` per op model per round).
//!
//! Label latency is measured in *samples* (distance between a row entering
//! the classifier and its label being emitted) — a deterministic quantity.
//! Throughput numbers (`sessions_per_sec`, `labels_per_sec`) are host
//! wall-clock and vary run to run.
//!
//! A third pass runs one streamed session per model-zoo conformance family
//! (`dnn_sim::zoo::FAMILIES`) under the zoo op vocabulary and scores each
//! against ground truth; the per-family rows land under `fleet.families`
//! and CI gates `op_accuracy > 0` and `streaming_agreement == 1.0` on every
//! row.
//!
//! Merges a `fleet` section into `BENCH_pipeline.json` without touching the
//! other binaries' sections.
//!
//! Run: `cargo run -p bench --release --bin fleet_bench`
//! (honours `LEAKY_SCALE=quick` and `LEAKY_DNN_THREADS`).

use std::time::Instant;

use dnn_sim::{zoo, TrainingSession};
use moscons::attack::{AttackConfig, InferencePrecision, Moscons};
use moscons::{
    run_fleet, score_structure, FleetConfig, FleetOutcome, LabeledTrace, OverflowPolicy,
    SessionSpec,
};
use serde::Serialize;

#[derive(Serialize)]
struct FleetBench {
    sessions: usize,
    scale: String,
    queue_capacity: usize,
    /// Lockstep rounds of the f32 run (deterministic).
    rounds: usize,
    /// Fleet sessions completed per wall-clock second (f32 run).
    sessions_per_sec: f64,
    /// Streamed labels emitted per wall-clock second (f32 run).
    labels_per_sec: f64,
    /// Streamed labels per wall-clock second through the int8
    /// cross-session serving path.
    int8_labels_per_sec: f64,
    /// p50 label latency in samples (deterministic).
    label_latency_samples_p50: usize,
    /// p99 label latency in samples (deterministic).
    label_latency_samples_p99: usize,
    /// Fraction of sessions whose streamed extraction report is bitwise
    /// equal to the batch attack's — CI gates this at 1.0.
    streaming_vs_batch_agreement: f64,
    /// Rows evicted across the fleet (always 0 under `Stall`).
    overflow_dropped_total: usize,
    /// Per-family conformance row of the model-zoo fleet (one streamed
    /// session per [`zoo::FAMILIES`] entry under the zoo op vocabulary).
    families: Vec<FamilyBench>,
}

#[derive(Serialize)]
struct FamilyBench {
    /// Family tag from [`zoo::FAMILIES`].
    family: String,
    /// Op accuracy of the streamed extraction against the ground-truth
    /// labeled trace (base-iteration aligned) — CI gates `> 0`.
    op_accuracy: f64,
    /// `AccuracyL` of the recovered structure against the family victim.
    layer_accuracy: f64,
    /// 1.0 when the streamed report is bitwise equal to the batch attack
    /// on the same victim/seed/GPU — CI gates `== 1.0`.
    streaming_agreement: f64,
    /// Labels the session streamed.
    labels: usize,
    /// Valid iterations the streamed extraction recovered.
    iterations: usize,
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Sorted-latency percentile (nearest-rank on the deterministic sample
/// distances).
fn percentile(sorted: &[usize], p: usize) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

fn total_labels(outcome: &FleetOutcome) -> usize {
    outcome.sessions.iter().map(|s| s.labels_emitted()).sum()
}

fn main() {
    let scale = bench::Scale::from_env();
    let scale_name = if scale == bench::Scale::quick() {
        "quick"
    } else {
        "full"
    };
    let threads = ml::par::threads();
    println!(
        "fleet_bench: {} pool workers, scale {}",
        threads, scale_name
    );

    // Smoke-scale attack budget (same spirit as pipeline_perf: the point is
    // orchestration behaviour, not accuracy).
    let mut config = AttackConfig::default();
    config.op_lstm.epochs = 6;
    config.op_lstm.hidden = 32;
    config.voting_lstm.epochs = 6;
    config.hp_lstm.epochs = 4;
    config.voting_iterations = 3;
    let gpu = config.gpu.clone();
    let profiled: Vec<TrainingSession> = moscons::random_profiling_models(4, scale.input(), 7)
        .into_iter()
        .map(|m| scale.session(m))
        .collect();
    let (t_profile, moscons) = timed(|| Moscons::profile(&profiled, config));
    println!("  profiled in {:.1}s", t_profile);

    // The fleet: distinct victims, distinct seeds, one simulated GPU each.
    let n_sessions = if scale == bench::Scale::quick() { 3 } else { 4 };
    let specs: Vec<SessionSpec> = moscons::random_profiling_models(n_sessions, scale.input(), 21)
        .into_iter()
        .enumerate()
        .map(|(i, m)| SessionSpec {
            victim: scale.session(m),
            seed: 5000 + 31 * i as u64,
            gpu: gpu.clone(),
        })
        .collect();

    let fleet_cfg = FleetConfig {
        overflow: OverflowPolicy::Stall,
        ..FleetConfig::default()
    };
    let (f32_secs, f32_run) = timed(|| run_fleet(&moscons, &specs, &fleet_cfg));
    let f32_labels = total_labels(&f32_run);

    // Batch references: the golden the streaming path must reproduce.
    let mut agree = 0usize;
    for (spec, session) in specs.iter().zip(&f32_run.sessions) {
        let (batch, _) = moscons.attack_on(&spec.victim, spec.seed, &spec.gpu);
        if batch.report() == session.extraction.report() {
            agree += 1;
        } else {
            println!(
                "  MISMATCH on {}: streamed != batch",
                spec.victim.model().name
            );
        }
    }
    let agreement = agree as f64 / specs.len() as f64;

    let int8_cfg = FleetConfig {
        precision: InferencePrecision::Int8,
        ..fleet_cfg
    };
    let (int8_secs, int8_run) = timed(|| run_fleet(&moscons, &specs, &int8_cfg));
    let int8_labels = total_labels(&int8_run);

    // Model-zoo family fleet: one streamed session per conformance family
    // under the zoo op vocabulary, each checked bitwise against its batch
    // attack and scored against the ground-truth trace labels.
    let (t_zoo_profile, zoo_moscons) = timed(|| bench::train_zoo_moscons(scale));
    println!("  zoo-profiled in {:.1}s", t_zoo_profile);
    let zoo_specs: Vec<SessionSpec> = zoo::FAMILIES
        .iter()
        .enumerate()
        .map(|(i, family)| SessionSpec {
            victim: bench::zoo_family_session(family, scale),
            seed: 7000 + 17 * i as u64,
            gpu: gpu.clone(),
        })
        .collect();
    let zoo_run = run_fleet(&zoo_moscons, &zoo_specs, &fleet_cfg);
    let th_gap = zoo_moscons.config().gap.th_gap;
    let families: Vec<FamilyBench> = zoo::FAMILIES
        .iter()
        .zip(zoo_specs.iter().zip(&zoo_run.sessions))
        .map(|(family, (spec, outcome))| {
            let (batch, raw) = zoo_moscons.attack_on(&spec.victim, spec.seed, &spec.gpu);
            let agreement = (batch.report() == outcome.extraction.report()) as usize as f64;
            let labeled = LabeledTrace::from_raw(&raw, spec.victim.model().name.clone());
            let op_accuracy =
                bench::op_accuracy_vs_truth(&outcome.extraction, &labeled, th_gap).unwrap_or(0.0);
            let layer_accuracy = score_structure(
                spec.victim.model(),
                &outcome.extraction.layers,
                outcome.extraction.optimizer,
            )
            .layers;
            FamilyBench {
                family: family.to_string(),
                op_accuracy,
                layer_accuracy,
                streaming_agreement: agreement,
                labels: outcome.labels_emitted(),
                iterations: outcome.extraction.iterations.len(),
            }
        })
        .collect();
    for fam in &families {
        println!(
            "  family {:>9}: op_acc {:.3}, layer_acc {:.3}, agreement {:.1}, \
             {} labels, {} iterations",
            fam.family,
            fam.op_accuracy,
            fam.layer_accuracy,
            fam.streaming_agreement,
            fam.labels,
            fam.iterations,
        );
        assert!(
            fam.op_accuracy > 0.0,
            "family {} recovered no correct op samples",
            fam.family
        );
        assert!(
            (fam.streaming_agreement - 1.0).abs() < f64::EPSILON,
            "family {} streamed extraction diverged from batch",
            fam.family
        );
    }

    let mut latencies: Vec<usize> = f32_run
        .sessions
        .iter()
        .flat_map(|s| s.label_latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 50);
    let p99 = percentile(&latencies, 99);

    let bench = FleetBench {
        sessions: specs.len(),
        scale: scale_name.to_string(),
        queue_capacity: fleet_cfg.queue_capacity,
        rounds: f32_run.rounds,
        sessions_per_sec: specs.len() as f64 / f32_secs,
        labels_per_sec: f32_labels as f64 / f32_secs,
        int8_labels_per_sec: int8_labels as f64 / int8_secs,
        label_latency_samples_p50: p50,
        label_latency_samples_p99: p99,
        streaming_vs_batch_agreement: agreement,
        overflow_dropped_total: f32_run
            .sessions
            .iter()
            .map(|s| s.overflow_dropped)
            .sum::<usize>(),
        families,
    };
    println!(
        "fleet ({} sessions, {} rounds): {:.2} sessions/s, {:.0} labels/s f32, \
         {:.0} labels/s int8, latency p50 {} / p99 {} samples, agreement {:.2}",
        bench.sessions,
        bench.rounds,
        bench.sessions_per_sec,
        bench.labels_per_sec,
        bench.int8_labels_per_sec,
        bench.label_latency_samples_p50,
        bench.label_latency_samples_p99,
        bench.streaming_vs_batch_agreement,
    );
    assert!(
        (agreement - 1.0).abs() < f64::EPSILON,
        "streaming extraction diverged from batch on {}/{} sessions",
        specs.len() - agree,
        specs.len()
    );

    let path = "BENCH_pipeline.json";
    bench::merge_bench_json(path, &[("fleet", &bench)]);
    println!("fleet -> {path}");
}
