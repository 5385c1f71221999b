//! Pipeline performance bench: times each attack stage under a 1-worker and
//! an N-worker pool and merges its top-level fields into
//! `BENCH_pipeline.json`, keeping the other bench binaries' sections.
//!
//! Because the execution engine is deterministic (see `ml::par`), the two
//! configurations produce bitwise-identical models and extractions — this
//! binary asserts that while it measures, so a speedup can never silently
//! come from diverged work. On a single-core machine the N-thread run
//! degenerates to the serial path; the JSON records `cores` so downstream
//! tooling can tell a missing speedup from a missing machine.
//!
//! Run: `cargo run -p bench --release --bin pipeline_perf`
//! (honours `LEAKY_SCALE=quick` and `LEAKY_DNN_THREADS`).

use std::time::Instant;

use dnn_sim::{zoo, TrainingSession};
use moscons::attack::{AttackConfig, Moscons};
use moscons::trace::collect_trace;
use moscons::LabeledTrace;
use serde::Serialize;
use serde_json::Value;

#[derive(Serialize)]
struct StageTiming {
    stage: String,
    secs_1_thread: f64,
    secs_n_threads: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct PipelineBench {
    cores: usize,
    threads: usize,
    scale: String,
    stages: Vec<StageTiming>,
    total_secs_1_thread: f64,
    total_secs_n_threads: f64,
    total_speedup: f64,
    /// Trace collection with a cold in-memory cache (fresh simulation).
    cache_cold_secs: f64,
    /// The same collection again, served from the warm cache.
    cache_warm_secs: f64,
    /// `cache_cold_secs / cache_warm_secs`.
    cache_speedup: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ml::par::threads();
    let scale = bench::Scale::from_env();
    let scale_name = if scale == bench::Scale::quick() {
        "quick"
    } else {
        "full"
    };
    println!(
        "pipeline_perf: {} cores, {} pool workers, scale {}",
        cores, threads, scale_name
    );

    // Smoke-scale attack budget: the point is relative stage cost, not
    // accuracy (EXPERIMENTS.md owns accuracy).
    let mut config = AttackConfig::default();
    config.op_lstm.epochs = 6;
    config.op_lstm.hidden = 32;
    config.voting_lstm.epochs = 6;
    config.hp_lstm.epochs = 4;
    config.voting_iterations = 3;
    let sessions: Vec<TrainingSession> = moscons::random_profiling_models(4, scale.input(), 7)
        .into_iter()
        .map(|m| scale.session(m))
        .collect();
    let victim = scale.session(zoo::tested_mlp());

    // Stage 1: trace collection fan-out (one spy trace per profiling model).
    let collect = |session_set: &[TrainingSession]| -> Vec<LabeledTrace> {
        ml::par::par_map(session_set, |i, s| {
            let raw = collect_trace(
                s,
                &config
                    .collection
                    .with_seed(config.collection.seed ^ (i as u64 * 7919)),
                &config.gpu,
            );
            LabeledTrace::from_raw(&raw, s.model().name.clone())
        })
    };
    // Stage 2: full profiling (Mgap + Mlong/Mop + voting + Mhp training).
    // Stage 3: attack-time extraction on the victim stream.
    // Each stage starts from an empty trace memo, so it measures simulation
    // and training rather than hits left behind by an earlier stage (profiling
    // collects stage 1's traces again) or by the serial pass.
    let mut stages = Vec::new();
    let run = |threads: usize| -> (f64, f64, f64, moscons::AttackReport) {
        ml::par::with_threads(threads, || {
            moscons::cache::clear_memory();
            let (t_collect, traces) = timed(|| collect(&sessions));
            drop(traces);
            moscons::cache::clear_memory();
            let (t_profile, moscons) = timed(|| Moscons::profile(&sessions, config.clone()));
            moscons::cache::clear_memory();
            let (t_extract, (extraction, _)) = timed(|| moscons.attack(&victim, 4242));
            (t_collect, t_profile, t_extract, extraction.report())
        })
    };

    let (c1, p1, e1, report_serial) = run(1);
    // With a single pool worker the "N-thread" pass is the serial path
    // again; timing it separately only measures noise (a second serial run
    // can easily come out a few percent slower and print a bogus <1.0x
    // "regression"). Reuse the serial timings so speedup is exactly 1.0,
    // and still record the honest `cores`/`threads` in the JSON.
    let (cn, pn, en) = if threads <= 1 {
        println!("single pool worker: skipping duplicate serial pass (speedup := 1.0)");
        (c1, p1, e1)
    } else {
        let (cn, pn, en, report_parallel) = run(threads);
        assert_eq!(
            report_serial, report_parallel,
            "determinism violation: N-thread extraction diverged from serial"
        );
        println!(
            "determinism check passed: 1-thread and {}-thread reports identical",
            threads
        );
        (cn, pn, en)
    };

    for (stage, s1, sn) in [
        ("collect_traces", c1, cn),
        ("profile_train", p1, pn),
        ("attack_extract", e1, en),
    ] {
        println!(
            "  {:<16} 1-thread {:>8.3}s   {}-thread {:>8.3}s   speedup {:.2}x",
            stage,
            s1,
            threads,
            sn,
            s1 / sn
        );
        stages.push(StageTiming {
            stage: stage.to_string(),
            secs_1_thread: s1,
            secs_n_threads: sn,
            speedup: s1 / sn,
        });
    }
    let total_1 = c1 + p1 + e1;
    let total_n = cn + pn + en;

    // Cold-vs-warm trace cache: the same collection fan-out, first against
    // an empty memo, then again with every trace already resident.
    moscons::cache::clear_memory();
    let (cache_cold, _) = ml::par::with_threads(1, || timed(|| collect(&sessions)));
    let (cache_warm, _) = ml::par::with_threads(1, || timed(|| collect(&sessions)));
    assert!(
        cache_warm < cache_cold,
        "warm cache collection ({:.4}s) must beat cold ({:.4}s)",
        cache_warm,
        cache_cold
    );
    println!(
        "  trace cache      cold {:>8.3}s   warm {:>13.6}s   speedup {:.0}x",
        cache_cold,
        cache_warm,
        cache_cold / cache_warm
    );

    let bench = PipelineBench {
        cores,
        threads,
        scale: scale_name.to_string(),
        stages,
        total_secs_1_thread: total_1,
        total_secs_n_threads: total_n,
        total_speedup: total_1 / total_n,
        cache_cold_secs: cache_cold,
        cache_warm_secs: cache_warm,
        cache_speedup: cache_cold / cache_warm,
    };
    let Value::Object(fields) = serde_json::to_value(&bench).expect("bench serializes") else {
        unreachable!("a struct serializes to a JSON object")
    };
    let sections: Vec<(&str, &dyn Serialize)> = fields
        .iter()
        .map(|(name, value)| (name.as_str(), value as &dyn Serialize))
        .collect();
    bench::merge_bench_json("BENCH_pipeline.json", &sections);
    println!(
        "total: 1-thread {:.3}s, {}-thread {:.3}s ({:.2}x) -> BENCH_pipeline.json",
        total_1,
        threads,
        total_n,
        total_1 / total_n
    );
}
