//! One run of one workload: set-up, the measured phase, the traced phase,
//! and the metrics each yields.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use moscons::cache::KeyHasher;

use crate::procfs::{Probe, Usage};
use crate::spans::{check_nesting, self_times_ns, Count, Span, Tracer};
use crate::stats::{median, percentile};
use crate::workloads::{self, OpResult, Score, Tally, Workload};

/// Set-ups per run: at least three, and more while together they have
/// taken under `SETUP_BUDGET` (up to `MAX_SETUPS`); `setup_s` is their
/// median. Over three set-ups of 25 ms, the median still moved 70% between
/// runs.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Layers timed in the traced run, each a call (or a batch of calls) into
/// one public function group, recorded from the benchmark's own code.
pub const SPAN_LAYERS: [&str; 24] = [
    "gpu_sim.step",
    "cupti_sim.push",
    "moscons.trace.poll",
    "moscons.cache.key",
    "moscons.cache.lookup",
    "moscons.cache.features",
    "moscons.dataset.label",
    "moscons.dataset.scaler",
    "moscons.dataset.features",
    "moscons.gap.train",
    "moscons.long_ops.train",
    "moscons.other_ops.train",
    "moscons.voting.train",
    "moscons.hyperparams.train",
    "moscons.gap.split",
    "moscons.long_ops.predict",
    "moscons.other_ops.predict",
    "moscons.hyperparams.predict",
    "moscons.voting.fuse",
    "moscons.opseq.parse",
    "moscons.syntax.correct",
    "moscons.stream.push",
    "moscons.stream.finish",
    "ml.par.dispatch",
];

/// The root span of a traced op; its self time is `bench.unattributed`.
const ROOT: &str = "bench.op";

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Ops that always run, whatever `seconds` says; they alone feed the
    /// output digest and the accuracy scores, so both stay deterministic.
    pub min_ops: usize,
    pub min_setups: usize,
}

impl Options {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            min_ops: default_min_ops(workload),
            min_setups: MIN_SETUPS,
        }
    }
}

/// Each fits in 5 s on a 2-vCPU x86-64 VM, within the untraced half of a
/// traced 20 s run.
fn default_min_ops(workload: &str) -> usize {
    match workload {
        "profile" => 3,
        "attack" => 40,
        "rescore" => 110,
        _ => 16,
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub struct Header {
    pub cores: usize,
    pub pool_threads: usize,
    pub simd: bool,
    pub seed: u64,
}

pub struct Outcome {
    pub header: Header,
    pub attempted: usize,
    pub failed: usize,
    /// Mismatches found by the output and decomposition checks.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Measured but not gated by `BENCHMARK.json`.
    pub info: Vec<Metric>,
    /// Folded fingerprints of the first `min_ops` ops.
    pub digest: u64,
    /// Results that repeat exactly for a seed: accuracies against ground
    /// truth and streamed-label latencies, over the first `min_ops` ops.
    pub deterministic: Vec<Metric>,
    /// Sample count behind each statistic.
    pub samples: Vec<(&'static str, usize)>,
    /// Every set-up's time, in order.
    pub setup_s: Vec<f64>,
    /// Every untraced op's time, in op order (`None`: the op panicked).
    pub op_ms: Vec<Option<f64>>,
    pub spans: Vec<Span>,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let header = Header {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool_threads: ml::par::threads(),
        simd: ml::simd::enabled(),
        seed: opts.seed,
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < opts.min_setups.max(1)
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() && setup_s.len() < MAX_SETUPS)
    {
        // Each set-up starts cold, so each does the same work.
        drop(workload.take());
        moscons::cache::clear_memory();
        let start = Instant::now();
        workload = Some(
            workloads::setup(&opts.workload, opts.seed)
                .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?,
        );
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");

    let phase = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let mut tally = Tally::default();
    let mut ops: Vec<Option<OpResult>> = Vec::new();
    let start = Instant::now();
    while ops.len() < opts.min_ops.max(1) || start.elapsed() < phase {
        let i = ops.len();
        let score = i < opts.min_ops;
        let result = catch_unwind(AssertUnwindSafe(|| workload.op(i, score, &mut tally)));
        ops.push(result.ok());
    }
    workload.finish(&mut tally);
    let peak_rss_mb = Probe::read().map(|p| p.peak_rss_mb());

    let done: Vec<&OpResult> = ops.iter().flatten().collect();
    let mut h = KeyHasher::new();
    for op in ops.iter().take(opts.min_ops) {
        h.write_u64(op.map_or(0, |r| r.fingerprint));
    }
    let mut outcome = Outcome {
        header,
        attempted: ops.len(),
        failed: ops.iter().filter(|o| o.is_none_or(|r| r.failed)).count(),
        errors: Vec::new(),
        metrics: Vec::new(),
        info: info(&done, peak_rss_mb),
        digest: h.finish(),
        deterministic: deterministic(&tally),
        samples: vec![("setup_s", setup_s.len()), ("op_ms", done.len())],
        setup_s: setup_s.clone(),
        op_ms: ops.iter().map(|o| o.map(|r| r.ms)).collect(),
        spans: Vec::new(),
    };
    if opts.trace {
        traced_phase(workload.as_mut(), &ops, phase, &mut tally, &mut outcome);
    } else {
        outcome.metrics = end_to_end(&setup_s, &done, &tally.usage);
    }
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            tally
                .errors
                .push(format!("metric {} is not finite", m.name));
        }
    }
    outcome.errors = tally.errors;
    Ok(outcome)
}

/// Replays the first ops through the replicated decompositions under the
/// tracer, for `phase`, checking each against its untraced twin.
fn traced_phase(
    workload: &mut dyn Workload,
    ops: &[Option<OpResult>],
    phase: Duration,
    tally: &mut Tally,
    outcome: &mut Outcome,
) {
    let tracer = Tracer::new(true);
    let mut traced: Vec<(usize, f64)> = Vec::new();
    let start = Instant::now();
    while traced.len() < ops.len() && (traced.is_empty() || start.elapsed() < phase) {
        let i = traced.len();
        tracer.begin_op(i);
        let result = catch_unwind(AssertUnwindSafe(|| workload.traced_op(i, &tracer)));
        outcome.attempted += 1;
        match (result, ops[i]) {
            (Ok(t), Some(u)) if t.fingerprint == u.fingerprint => traced.push((i, t.ms)),
            (Ok(_), Some(_)) => {
                tally.errors.push(format!(
                    "traced op {i}: the decomposition's outputs differ from the library call's"
                ));
                break;
            }
            _ => {
                outcome.failed += 1;
                tally.errors.push(format!("traced op {i} panicked"));
                break;
            }
        }
    }
    let spans = tracer.spans();
    if let Err(e) = check_nesting(&spans) {
        tally.errors.push(format!("trace spans do not nest: {e}"));
    }
    let untraced: Vec<f64> = traced
        .iter()
        .filter_map(|&(i, _)| ops[i].map(|r| r.ms))
        .collect();
    let traced_ms: Vec<f64> = traced.iter().map(|&(_, ms)| ms).collect();
    outcome.metrics = per_layer(&tracer, &spans, &traced_ms, &untraced, &tally.usage);
    outcome.samples.push(("traced_ops", traced.len()));
    outcome.spans = spans;
}

fn deterministic(tally: &Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    if !tally.scores.is_empty() {
        let n = tally.scores.len() as f64;
        let mean = |f: fn(&Score) -> f64| tally.scores.iter().map(f).sum::<f64>() / n;
        out.extend([
            metric("op_accuracy", mean(|s| s.op), "fraction"),
            metric("layer_accuracy", mean(|s| s.layer), "fraction"),
            metric("hp_accuracy", mean(|s| s.hp), "fraction"),
            metric("scored_ops", n, "count"),
        ]);
    }
    if !tally.latencies.is_empty() {
        let l: Vec<f64> = tally.latencies.iter().map(|&x| x as f64).collect();
        out.extend([
            metric(
                "label_latency_samples_p50",
                percentile(&l, 50.0).unwrap_or(0.0),
                "samples",
            ),
            metric(
                "label_latency_samples_p99",
                percentile(&l, 99.0).unwrap_or(0.0),
                "samples",
            ),
            metric("labels", l.len() as f64, "count"),
        ]);
    }
    out
}

/// The gated metrics are medians. Between runs on a shared 2-vCPU box,
/// tail percentiles and mean-based rates spread wider than medians: over
/// ten seeds, `profile`'s p90 (of ~14 ops) spread 22% where its median
/// spread 7%.
fn end_to_end(setup_s: &[f64], ops: &[&OpResult], usage: &Usage) -> Vec<Metric> {
    let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let rates: Vec<f64> = ops
        .iter()
        .map(|o| o.samples as f64 / (o.ms / 1e3))
        .collect();
    let mut out = vec![
        metric("setup_s", median(setup_s).unwrap_or(0.0), "s"),
        metric("op_ms_p50", median(&ms).unwrap_or(0.0), "ms"),
        metric("samples_per_s", median(&rates).unwrap_or(0.0), "samples/s"),
    ];
    // Off Linux the probe has no reading: the metric is absent, not zero.
    if let Some(cpu) = usage.cpu_ms_per_span() {
        out.push(metric("cpu_ms_per_op", cpu, "ms"));
    }
    out
}

/// Reported alongside, never gated: too noisy between runs (see
/// `end_to_end`), or, for `profile`, drawn from too few ops.
fn info(ops: &[&OpResult], peak_rss_mb: Option<f64>) -> Vec<Metric> {
    let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let busy_s = ms.iter().sum::<f64>() / 1e3;
    let mut out = vec![
        metric("op_ms_p90", percentile(&ms, 90.0).unwrap_or(0.0), "ms"),
        metric("ops_per_s", ms.len() as f64 / busy_s, "1/s"),
    ];
    if let Some(mb) = peak_rss_mb {
        out.push(metric("peak_rss_mb", mb, "MB"));
    }
    out
}

fn per_layer(
    t: &Tracer,
    spans: &[Span],
    traced_ms: &[f64],
    untraced_ms: &[f64],
    usage: &Usage,
) -> Vec<Metric> {
    let ops = traced_ms.len().max(1) as f64;
    let self_ns = self_times_ns(spans);
    let total = |name: &str| -> (f64, f64, usize) {
        let mut self_sum = 0.0;
        let mut dur_sum = 0.0;
        let mut calls = 0;
        for (s, &own) in spans.iter().zip(&self_ns) {
            if s.name == name {
                self_sum += own as f64;
                dur_sum += s.duration_ns() as f64;
                calls += 1;
            }
        }
        (self_sum, dur_sum, calls)
    };
    let per_op = |c: Count| t.count(c) as f64 / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut out = Vec::new();
    for name in SPAN_LAYERS {
        let (own, _, calls) = total(name);
        out.push(metric(format!("{name}.self_ms"), own / 1e6 / ops, "ms"));
        out.push(metric(format!("{name}.calls"), calls as f64 / ops, "count"));
    }
    let (root_self, root_dur, _) = total(ROOT);
    out.push(metric(
        "bench.unattributed.self_ms",
        root_self / 1e6 / ops,
        "ms",
    ));

    let (step_self, step_dur, _) = total("gpu_sim.step");
    let events = t.count(Count::GpuEvents) as f64;
    out.extend([
        metric("gpu_sim.events", events / ops, "count"),
        metric("gpu_sim.ns_per_event", ratio(step_self, events), "ns"),
        metric(
            "gpu_sim.sim_us_per_host_us",
            ratio(t.count(Count::SimNs) as f64, step_dur),
            "ratio",
        ),
        metric("cupti_sim.slices", per_op(Count::CuptiSlices), "count"),
        metric("cupti_sim.samples", per_op(Count::CuptiSamples), "count"),
        metric("moscons.cache.hits", per_op(Count::CacheHits), "count"),
        metric("moscons.cache.misses", per_op(Count::CacheMisses), "count"),
        metric(
            "moscons.gap.train_rows",
            per_op(Count::GapTrainRows),
            "count",
        ),
        metric(
            "moscons.train.sequences",
            per_op(Count::TrainSequences),
            "count",
        ),
        metric("moscons.predict.rows", per_op(Count::PredictRows), "count"),
        metric(
            "moscons.gap.iterations",
            per_op(Count::GapIterations),
            "count",
        ),
        metric("moscons.syntax.edits", per_op(Count::SyntaxEdits), "count"),
        metric("moscons.stream.rows", per_op(Count::StreamRows), "count"),
        metric(
            "moscons.stream.labels",
            per_op(Count::StreamLabels),
            "count",
        ),
        metric("moscons.fleet.rounds", per_op(Count::FleetRounds), "count"),
        metric(
            "moscons.fleet.queue_high_water",
            t.count(Count::QueueHighWater) as f64,
            "count",
        ),
        metric(
            "trace.unattributed_frac",
            ratio(root_self, root_dur),
            "fraction",
        ),
        metric(
            "trace.overhead_frac",
            ratio(
                median(traced_ms).unwrap_or(0.0),
                median(untraced_ms).unwrap_or(0.0),
            ) - 1.0,
            "fraction",
        ),
        metric("trace.ops", traced_ms.len() as f64, "count"),
    ]);
    // Untraced ops only; off Linux there are no readings.
    if usage.spans > 0 {
        let n = usage.spans as f64;
        out.extend([
            metric("process.cpu_ms_per_op", usage.cpu_ms / n, "ms"),
            metric("process.sys_ms_per_op", usage.sys_ms / n, "ms"),
            metric(
                "process.minor_faults_per_op",
                usage.minor_faults as f64 / n,
                "count",
            ),
            metric(
                "process.ctx_switches_per_op",
                usage.ctx_switches as f64 / n,
                "count",
            ),
        ]);
    }
    out
}
