//! Every table that scores a trained attacker, from one training per
//! attacker. MoSConS, profiled once on the profiling suite, feeds Tables
//! VII, VIII and IX (`bench::print_table7`, `bench::print_table8`,
//! `bench::print_table9`), the ablation, the §VI defense table and the
//! fault curve, in that order. A second attacker, profiled once under the
//! zoo op vocabulary, feeds the per-family fault matrix. The fault sweep
//! merges `fault_curve` and `fault_curve_families` sections into
//! `BENCH_pipeline.json` without touching the other binaries' sections.
//!
//! Run: `cargo run -p bench --release --bin eval_all`
//! (honours `LEAKY_SCALE=quick` and `LEAKY_DNN_THREADS`).

use bench::{
    aligned_truth, attack_tested_models, fused_op_accuracy, op_accuracy_vs_truth, pct,
    print_table7, print_table8, print_table9, train_moscons, train_zoo_moscons, zoo_family_session,
    Scale,
};
use dnn_sim::trainer::mean_iteration_us;
use dnn_sim::{zoo, OpClass, TrainingSession};
use gpu_sim::{FaultPlan, GpuConfig};
use moscons::attack::{Extraction, Moscons};
use moscons::cache::counter_feature_matrix;
use moscons::opseq::{collapse, forward_boundary, parse_forward_layers_zoo};
use moscons::syntax::{correct_graph, SyntaxConfig};
use moscons::trace::spy_rig;
use moscons::{score_structure, CollectionConfig, LabeledTrace, RawTrace};
use rand::SeedableRng;
use serde::Serialize;

fn main() {
    let scale = Scale::from_env();
    eprintln!("training MoSConS on the profiling suite (once for all tables)...");
    let t0 = std::time::Instant::now();
    let moscons = train_moscons(scale);
    eprintln!("profiling + training took {:?}", t0.elapsed());
    let evals = attack_tested_models(&moscons, scale);
    print_table7(&evals);
    print_table8(&moscons, scale);
    print_table9(&evals);
    ablation(&moscons, scale);
    defense(&moscons, scale);
    eprintln!("training MoSConS under the zoo op vocabulary (once for the family matrix)...");
    let zoo_moscons = train_zoo_moscons(scale);
    fault_sweep(&moscons, &zoo_moscons, scale);
}

/// How much each pipeline stage contributes, on ZFNet: fusing (none —
/// a single iteration — vs plain majority vote vs LSTM voting) crossed
/// with syntax correction off and on, reporting AccuracyL / AccuracyHP for
/// each combination.
fn ablation(moscons: &Moscons, scale: Scale) {
    let model = zoo::zfnet();
    let session = scale.session(model.clone());
    let (extraction, _) = moscons.attack(&session, 31337);

    let variants: [(&str, &[OpClass]); 3] = [
        ("single iteration", &extraction.pre_voting_classes),
        ("majority vote", &extraction.majority_classes),
        ("LSTM voting", &extraction.fused_classes),
    ];
    println!("\n=== Ablation — fusing strategy x syntax correction (ZFNet) ===");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "fusing", "L (raw)", "HP (raw)", "L (+syn)", "HP (+syn)"
    );
    for (name, classes) in variants {
        let runs = collapse(classes);
        let boundary = forward_boundary(classes);
        let base = parse_forward_layers_zoo(&runs, boundary);

        // Hyper-parameters from the already-extracted layers where sample
        // positions coincide; this ablation focuses on the class stream, so
        // reuse the extraction's HP assignments by position.
        let assign_hp = |layers: &mut [moscons::RecoveredLayer]| {
            for l in layers.iter_mut() {
                if let Some(src) = extraction
                    .layers
                    .iter()
                    .find(|e| e.kind == l.kind && e.last_sample.abs_diff(l.last_sample) <= 3)
                {
                    l.filters = src.filters;
                    l.filter_size = src.filter_size;
                    l.stride = src.stride;
                    l.units = src.units;
                    if l.activation.is_none() {
                        l.activation = src.activation;
                    }
                }
            }
        };

        let mut raw = base.clone();
        assign_hp(&mut raw.layers);
        let raw_score = score_structure(&model, &raw.layers, extraction.optimizer);

        let mut corrected = base;
        assign_hp(&mut corrected.layers);
        correct_graph(&mut corrected, &SyntaxConfig::default());
        let syn_score = score_structure(&model, &corrected.layers, extraction.optimizer);

        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10}",
            name,
            pct(raw_score.layers),
            pct(raw_score.hyper_params),
            pct(syn_score.layers),
            pct(syn_score.hyper_params)
        );
    }
    println!("\nexpected shape: fusing and syntax correction each help or are neutral;");
    println!("the paper motivates both stages (§IV-B voting, §IV-D syntax).");
}

/// Collects a ZFNet victim trace under a given defense configuration. The
/// trace records the paper's collection with seed `0xDEF`, which also seeds
/// the GPU unmixed; quantization and slice jitter are not part of
/// [`CollectionConfig`].
fn collect_defended(scale: Scale, quantization: f64, slice_jitter: f64) -> RawTrace {
    let collection = CollectionConfig::paper().with_seed(0xDEF);
    let session = scale.session(zoo::zfnet());
    let mut gpu_cfg = GpuConfig::gtx_1080_ti().with_seed(collection.seed);
    gpu_cfg.slice_jitter = slice_jitter;
    let (mut gpu, victim, cupti) = spy_rig(
        gpu_cfg,
        collection.spy_kernel,
        collection.slowdown,
        collection.poll_period_us,
    );
    let cupti = cupti.with_quantization(quantization.max(1.0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(collection.seed);
    session.enqueue(&mut gpu, victim, &mut rng);
    gpu.run_until_queues_drain();
    let end = gpu.now_us();
    let (kernels, slices) = gpu.take_logs();
    let samples = cupti.collect(&slices, 0.0, end, &FaultPlan::none());
    let victim_log: Vec<_> = kernels.into_iter().filter(|r| r.ctx == victim).collect();
    RawTrace {
        samples,
        mean_iteration_us: mean_iteration_us(&victim_log, session.ops().len()),
        victim_log,
        collection,
    }
}

/// The paper's §VI proposes two defenses, left to future work there:
///
/// 1. **reduce CUPTI precision** — quantize counter readings before the spy
///    sees them (`CuptiSession::with_quantization`);
/// 2. **harden the scheduler** — randomize time-slice lengths so the
///    penalty-to-op alignment the LSTMs rely on degrades.
///
/// For each defense level the victim trace is re-collected and scored with
/// the *already-trained* attacker: the realistic setting, since the
/// adversary profiles before the defense deploys.
fn defense(moscons: &Moscons, scale: Scale) {
    println!("\n=== §VI defense evaluation — ZFNet victim, attack trained undefended ===");
    println!(
        "{:<34} {:>12} {:>12} {:>12}",
        "defense", "iterations", "op acc", "degradation"
    );

    let mut baseline_acc: Option<f64> = None;
    let cases: [(&str, f64, f64); 5] = [
        ("none (baseline)", 1.0, 0.06),
        ("quantize counters to 1k sectors", 1_000.0, 0.06),
        ("quantize counters to 10k sectors", 10_000.0, 0.06),
        ("randomize slices +-30%", 1.0, 0.30),
        ("quantize 10k + slices +-30%", 10_000.0, 0.30),
    ];
    for (name, quant, jitter) in cases {
        let raw = collect_defended(scale, quant, jitter);
        let labeled = LabeledTrace::from_raw(&raw, "defended");
        let extraction = moscons.extract(&counter_feature_matrix(&raw));
        let acc = aligned_truth(&extraction, &labeled, moscons.config().gap.th_gap)
            .map(|truth| fused_op_accuracy(&extraction, &truth));
        let acc_str = acc.map(pct).unwrap_or_else(|| "n/a".to_string());
        let degradation = match (baseline_acc, acc) {
            (Some(b), Some(a)) if b > 0.0 => format!("-{:.0}%", 100.0 * (b - a).max(0.0) / b),
            _ => "-".to_string(),
        };
        if baseline_acc.is_none() {
            baseline_acc = acc;
        }
        println!(
            "{:<34} {:>12} {:>12} {:>12}",
            name,
            extraction.iterations.len(),
            acc_str,
            degradation
        );
    }
    println!("\nexpected shape: both defenses degrade the attack; combined is strongest.");
    println!("(the paper proposes these in §VI but leaves evaluation to future work —");
    println!(" this bench is our reproduction's extension.)");
}

/// Composite fault rates swept, in increasing hostility. `0.0` is the clean
/// baseline; `FaultPlan::uniform` splits each rate across the individual
/// fault knobs. The low end is realistic deployment noise; the high end is
/// deliberately brutal so the decay shape is visible above seed noise. At
/// every rate the spy retries failed launches with bounded backoff; the gap
/// splitter has no repair for missed polls.
const RATES: [f64; 5] = [0.0, 0.1, 0.25, 0.5, 0.8];

/// Attack-collection seeds averaged per rate (one fault plan, several victim
/// runs): the per-run op accuracy is noisy at quick scale, the mean is not.
const ATTACK_SEEDS: [u64; 4] = [9000, 9001, 9002, 9003];

/// Fault RNG seed — fixed so the sweep is reproducible run to run.
const FAULT_SEED: u64 = 0xFA;

/// Rates of the per-family sweep — a reduced grid (clean, realistic noise,
/// hostile) to keep the matrix tractable at 5 families.
const FAMILY_RATES: [f64; 3] = [0.0, 0.25, 0.5];

/// Attack seeds averaged per family cell.
const FAMILY_SEEDS: [u64; 2] = [9100, 9101];

#[derive(Serialize)]
struct FaultPoint {
    /// Composite fault rate passed to `FaultPlan::uniform`.
    rate: f64,
    /// Op-sequence accuracy over BUSY samples of the base iteration against
    /// ground truth, averaged over [`ATTACK_SEEDS`] (`null` when no run
    /// aligned — no iteration survived splitting).
    op_accuracy: Option<f64>,
    /// Runs (of [`ATTACK_SEEDS`]) whose base iteration aligned with a
    /// ground-truth iteration.
    aligned_runs: usize,
    /// `AccuracyL`: mean layer-sequence accuracy of the recovered structure.
    layer_accuracy: f64,
    /// Mean valid iterations recovered by `Mgap`.
    iterations: f64,
    /// Mean sample count of the attack trace.
    samples: f64,
}

/// One cell of the per-family fault matrix: a zoo conformance family
/// attacked (zoo vocabulary) under one fault rate.
#[derive(Serialize)]
struct FamilyFaultPoint {
    /// Family tag from [`zoo::FAMILIES`].
    family: String,
    /// Composite fault rate passed to `FaultPlan::uniform`.
    rate: f64,
    /// Mean op accuracy against ground truth over [`FAMILY_SEEDS`]
    /// (`null` when no run recovered an iteration).
    op_accuracy: Option<f64>,
    /// Runs (of [`FAMILY_SEEDS`]) that produced a scorable iteration.
    aligned_runs: usize,
    /// Mean `AccuracyL` of the recovered structure.
    layer_accuracy: f64,
    /// Mean valid iterations recovered by `Mgap`.
    iterations: f64,
}

/// Attacks `session` once per seed under `FaultPlan::uniform(rate, ..)`
/// and averages the runs; `score` gives a run's op accuracy, or `None`
/// when it cannot be scored.
fn attack_under_faults(
    moscons: &Moscons,
    session: &TrainingSession,
    rate: f64,
    seeds: &[u64],
    score: impl Fn(&Extraction, &LabeledTrace) -> Option<f64>,
) -> FaultPoint {
    let gpu = moscons
        .config()
        .gpu
        .clone()
        .with_faults(FaultPlan::uniform(rate, FAULT_SEED));
    let model = session.model();
    let mut op_accs = Vec::new();
    let mut layer_acc_sum = 0.0;
    let mut iter_sum = 0usize;
    let mut sample_sum = 0usize;
    for &seed in seeds {
        let (extraction, raw) = moscons.attack_on(session, seed, &gpu);
        let labeled = LabeledTrace::from_raw(&raw, model.name.clone());
        op_accs.extend(score(&extraction, &labeled));
        layer_acc_sum += score_structure(model, &extraction.layers, extraction.optimizer).layers;
        iter_sum += extraction.iterations.len();
        sample_sum += raw.samples.len();
    }
    let runs = seeds.len() as f64;
    FaultPoint {
        rate,
        op_accuracy: (!op_accs.is_empty())
            .then(|| op_accs.iter().sum::<f64>() / op_accs.len() as f64),
        aligned_runs: op_accs.len(),
        layer_accuracy: layer_acc_sum / runs,
        iterations: iter_sum as f64 / runs,
        samples: sample_sum as f64 / runs,
    }
}

fn format_acc(acc: Option<f64>) -> String {
    acc.map_or("-".to_string(), |a| format!("{a:.3}"))
}

/// Fault sensitivity: the classic attacker, profiled on clean hardware,
/// attacks the same victim under increasingly hostile fault plans, and the
/// zoo attacker does the same for every model-zoo conformance family
/// (`dnn_sim::zoo::FAMILIES`) over a reduced rate grid.
///
/// The injected faults (see `gpu_sim::fault`) model the failure modes of a
/// real CUPTI deployment: counter-read jitter, dropped/duplicated samples,
/// failed spy launches and watchdog preemption bursts. The attack is expected
/// to degrade *gracefully* — accuracy decays monotonically with the fault
/// rate instead of falling off a cliff. The spy retries failed launches with
/// bounded backoff; the gap splitter has no repair for missed polls.
/// (Mild plans can even score above the clean baseline: their preemption
/// bursts slow the victim down, which is the paper's §IV attack by accident.)
fn fault_sweep(moscons: &Moscons, zoo_moscons: &Moscons, scale: Scale) {
    let session = scale.session(zoo::tested_mlp());
    let th_gap = moscons.config().gap.th_gap;

    println!(
        "fault_sweep: victim {}, {} rates",
        session.model().name,
        RATES.len()
    );
    println!(
        "  {:>6}  {:>11}  {:>11}  {:>10}  {:>8}",
        "rate", "op_acc", "layer_acc", "iterations", "samples"
    );
    let mut curve = Vec::new();
    for &rate in &RATES {
        // Ground truth aligned to the extraction's base iteration, as the
        // paper's tables do.
        let point = attack_under_faults(moscons, &session, rate, &ATTACK_SEEDS, |e, l| {
            aligned_truth(e, l, th_gap).map(|truth| fused_op_accuracy(e, &truth))
        });
        println!(
            "  {:>6.2}  {:>11}  {:>11.3}  {:>10.1}  {:>8.0}",
            rate,
            format_acc(point.op_accuracy),
            point.layer_accuracy,
            point.iterations,
            point.samples,
        );
        curve.push(point);
    }

    // Graceful degradation, not a cliff: across the *fault* rates the mean
    // accuracy must decay monotonically (small tolerance for seed noise).
    // The clean baseline is excluded from the shape check on purpose: the
    // mildest plan often scores *above* it, because its preemption bursts
    // stretch the victim's ops over more samples — an accidental dose of the
    // paper's §IV slow-down attack.
    let accs: Vec<f64> = curve
        .iter()
        .filter(|p| p.rate > 0.0)
        .filter_map(|p| p.op_accuracy)
        .collect();
    assert!(
        accs.len() >= 4,
        "need at least 4 aligned fault rates to check the decay shape, got {}",
        accs.len()
    );
    for w in accs.windows(2) {
        assert!(
            w[1] <= w[0] + 0.02,
            "op accuracy rose with the fault rate: {:?}",
            accs
        );
    }
    let clean = curve[0].op_accuracy.expect("clean baseline must align");
    assert!(
        *accs.last().unwrap() < clean,
        "the most hostile plan must score below the clean baseline: {:?} vs {clean}",
        accs
    );
    println!("decay shape ok: {:?} (clean baseline {clean:.3})", accs);

    // Second sweep: the model-zoo conformance families under the zoo
    // vocabulary, over the reduced rate grid.
    println!(
        "fault_sweep: {} zoo families, {} rates",
        zoo::FAMILIES.len(),
        FAMILY_RATES.len()
    );
    println!(
        "  {:>10}  {:>6}  {:>11}  {:>11}  {:>10}",
        "family", "rate", "op_acc", "layer_acc", "iterations"
    );
    let th_gap = zoo_moscons.config().gap.th_gap;
    let mut family_curve = Vec::new();
    for &family in &zoo::FAMILIES {
        let session = zoo_family_session(family, scale);
        for &rate in &FAMILY_RATES {
            let p = attack_under_faults(zoo_moscons, &session, rate, &FAMILY_SEEDS, |e, l| {
                op_accuracy_vs_truth(e, l, th_gap)
            });
            println!(
                "  {:>10}  {:>6.2}  {:>11}  {:>11.3}  {:>10.1}",
                family,
                rate,
                format_acc(p.op_accuracy),
                p.layer_accuracy,
                p.iterations,
            );
            family_curve.push(FamilyFaultPoint {
                family: family.to_string(),
                rate,
                op_accuracy: p.op_accuracy,
                aligned_runs: p.aligned_runs,
                layer_accuracy: p.layer_accuracy,
                iterations: p.iterations,
            });
        }
        // Each family must stay attackable on clean hardware — the gate the
        // CI bench-smoke job relies on.
        let clean = family_curve
            .iter()
            .rfind(|p| p.family == family && p.rate == 0.0)
            .expect("clean cell present");
        assert!(
            clean.op_accuracy.unwrap_or(0.0) > 0.0,
            "family {family}: clean op accuracy is zero"
        );
    }

    let path = "BENCH_pipeline.json";
    bench::merge_bench_json(
        path,
        &[
            ("fault_curve", &curve),
            ("fault_curve_families", &family_curve),
        ],
    );
    println!(
        "fault_curve ({} points) + fault_curve_families ({} points) -> {path}",
        curve.len(),
        family_curve.len()
    );
}
