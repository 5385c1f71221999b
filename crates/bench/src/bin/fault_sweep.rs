//! Fault-sensitivity sweep: profile MoSConS once on clean hardware, then
//! attack the same victim under increasingly hostile fault plans and record
//! how the recovered op sequence degrades.
//!
//! The injected faults (see `gpu_sim::fault`) model the failure modes of a
//! real CUPTI deployment: counter-read jitter, dropped/duplicated samples,
//! failed spy launches and watchdog preemption bursts. The attack is expected
//! to degrade *gracefully* — accuracy decays monotonically with the fault
//! rate instead of falling off a cliff, because the spy retries launches with
//! bounded backoff and the gap splitter bridges isolated missing samples.
//! (Mild plans can even score above the clean baseline: their preemption
//! bursts slow the victim down, which is the paper's §IV attack by accident.)
//!
//! A second sweep runs the model-zoo conformance families
//! (`dnn_sim::zoo::FAMILIES`, attacked under the zoo op vocabulary) over a
//! reduced rate grid, recording how each family's op recovery degrades.
//!
//! Merges `fault_curve` and `fault_curve_families` sections into
//! `BENCH_pipeline.json` without touching the other binaries' sections,
//! and prints the tables recorded in EXPERIMENTS.md.
//!
//! Run: `cargo run -p bench --release --bin fault_sweep`
//! (honours `LEAKY_SCALE=quick` and `LEAKY_DNN_THREADS`).

use dnn_sim::zoo;
use gpu_sim::FaultPlan;
use moscons::report::{overall_op_accuracy, score_structure};
use moscons::LabeledTrace;
use serde::Serialize;

/// Composite fault rates swept, in increasing hostility. `0.0` is the clean
/// baseline; `FaultPlan::uniform` splits each rate across the individual
/// fault knobs. The low end is realistic deployment noise (where bounded
/// retry + gap bridging keep the attack nearly lossless); the high end is
/// deliberately brutal so the decay shape is visible above seed noise.
const RATES: [f64; 5] = [0.0, 0.1, 0.25, 0.5, 0.8];

/// Attack-collection seeds averaged per rate (one fault plan, several victim
/// runs): the per-run op accuracy is noisy at quick scale, the mean is not.
const ATTACK_SEEDS: [u64; 4] = [9000, 9001, 9002, 9003];

/// Fault RNG seed — fixed so the sweep is reproducible run to run.
const FAULT_SEED: u64 = 0xFA;

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

/// Rates of the per-family sweep — a reduced grid (clean, realistic noise,
/// hostile) to keep the matrix tractable at 5 families.
const FAMILY_RATES: [f64; 3] = [0.0, 0.25, 0.5];

/// Attack seeds averaged per family cell.
const FAMILY_SEEDS: [u64; 2] = [9100, 9101];

fn main() {
    let scale = bench::Scale::from_env();
    let moscons = bench::train_moscons(scale);
    let model = zoo::tested_mlp();
    let session = scale.session(model.clone());

    println!("fault_sweep: victim {}, {} rates", model.name, RATES.len());
    println!(
        "  {:>6}  {:>11}  {:>11}  {:>10}  {:>8}",
        "rate", "op_acc", "layer_acc", "iterations", "samples"
    );

    let mut curve = Vec::new();
    for &rate in &RATES {
        let gpu = moscons
            .config()
            .gpu
            .clone()
            .with_faults(FaultPlan::uniform(rate, FAULT_SEED));
        let mut op_accs = Vec::new();
        let mut layer_acc_sum = 0.0;
        let mut iter_sum = 0usize;
        let mut sample_sum = 0usize;
        for &seed in &ATTACK_SEEDS {
            let (extraction, raw) = moscons.attack_on(&session, seed, &gpu);
            let labeled = LabeledTrace::from_raw(&raw, model.name.clone());

            // Align ground truth to the extraction's base iteration, as the
            // paper's tables do.
            let gt_iters = labeled.split_iterations_ground_truth(moscons.config().gap.th_gap);
            if let Some(acc) = extraction.iterations.first().and_then(|base| {
                gt_iters
                    .iter()
                    .find(|g| g.start.abs_diff(base.start) < 12)
                    .map(|g| {
                        let truth: Vec<_> =
                            labeled.samples[g.clone()].iter().map(|s| s.class).collect();
                        let (pred, truth) = bench::common(&extraction.fused_classes, &truth);
                        overall_op_accuracy(pred, truth)
                    })
            }) {
                op_accs.push(acc);
            }
            layer_acc_sum +=
                score_structure(&model, &extraction.layers, extraction.optimizer).layers;
            iter_sum += extraction.iterations.len();
            sample_sum += raw.samples.len();
        }
        let runs = ATTACK_SEEDS.len() as f64;
        let op_accuracy =
            (!op_accs.is_empty()).then(|| op_accs.iter().sum::<f64>() / op_accs.len() as f64);
        let point = FaultPoint {
            rate,
            op_accuracy,
            aligned_runs: op_accs.len(),
            layer_accuracy: layer_acc_sum / runs,
            iterations: iter_sum as f64 / runs,
            samples: sample_sum as f64 / runs,
        };
        println!(
            "  {:>6.2}  {:>11}  {:>11.3}  {:>10.1}  {:>8.0}",
            rate,
            point
                .op_accuracy
                .map_or("-".to_string(), |a| format!("{a:.3}")),
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
    let zoo_moscons = bench::train_zoo_moscons(scale);
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
        let session = bench::zoo_family_session(family, scale);
        for &rate in &FAMILY_RATES {
            let gpu = zoo_moscons
                .config()
                .gpu
                .clone()
                .with_faults(FaultPlan::uniform(rate, FAULT_SEED));
            let mut op_accs = Vec::new();
            let mut layer_acc_sum = 0.0;
            let mut iter_sum = 0usize;
            for &seed in &FAMILY_SEEDS {
                let (extraction, raw) = zoo_moscons.attack_on(&session, seed, &gpu);
                let labeled = LabeledTrace::from_raw(&raw, session.model().name.clone());
                if let Some(acc) = bench::op_accuracy_vs_truth(&extraction, &labeled, th_gap) {
                    op_accs.push(acc);
                }
                layer_acc_sum +=
                    score_structure(session.model(), &extraction.layers, extraction.optimizer)
                        .layers;
                iter_sum += extraction.iterations.len();
            }
            let runs = FAMILY_SEEDS.len() as f64;
            let point = FamilyFaultPoint {
                family: family.to_string(),
                rate,
                op_accuracy: (!op_accs.is_empty())
                    .then(|| op_accs.iter().sum::<f64>() / op_accs.len() as f64),
                aligned_runs: op_accs.len(),
                layer_accuracy: layer_acc_sum / runs,
                iterations: iter_sum as f64 / runs,
            };
            println!(
                "  {:>10}  {:>6.2}  {:>11}  {:>11.3}  {:>10.1}",
                point.family,
                rate,
                point
                    .op_accuracy
                    .map_or("-".to_string(), |a| format!("{a:.3}")),
                point.layer_accuracy,
                point.iterations,
            );
            family_curve.push(point);
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
