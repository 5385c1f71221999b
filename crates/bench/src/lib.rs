//! Shared harness code for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! (`cargo run -p bench --release --bin tableN`); this library holds the
//! scaled experiment configuration, the profiling/tested model suites,
//! small formatting helpers, and the timer and `BENCH_pipeline.json` writer
//! the performance bins share. `EXPERIMENTS.md` records the outputs next to
//! the paper's numbers.

// Enforced statically here and by leaky-lint rule D5: this crate's
// determinism contract is easier to audit with zero unsafe code.
#![forbid(unsafe_code)]

use std::path::Path;
use std::time::Instant;

use dnn_sim::{zoo, InputSpec, Model, TrainingConfig, TrainingSession};
use moscons::attack::{AttackConfig, Moscons};
use moscons::{hp_sweep_variants, CollectionConfig};
use serde::Serialize;
use serde_json::Value;

/// Experiment scale. The paper runs 224x224 images for 500 iterations on
/// real hardware; the simulated runs default to 112x112 and 8 iterations,
/// which preserves every structural property (op ordering, relative
/// durations, layer-size signals) at tractable cost. `LEAKY_SCALE=quick`
/// shrinks further for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Input image side.
    pub image: usize,
    /// Batch size for CNNs.
    pub batch_cnn: usize,
    /// Batch size for MLPs (the paper uses larger MLP batches).
    pub batch_mlp: usize,
    /// Training iterations observed per model.
    pub iterations: usize,
}

impl Scale {
    /// The default evaluation scale.
    pub fn full() -> Self {
        Scale {
            image: 112,
            batch_cnn: 16,
            batch_mlp: 128,
            iterations: 8,
        }
    }

    /// A fast smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            image: 64,
            batch_cnn: 8,
            batch_mlp: 32,
            iterations: 6,
        }
    }

    /// Reads `LEAKY_SCALE` from the environment; see [`Scale::parse`].
    ///
    /// # Panics
    ///
    /// Panics if `LEAKY_SCALE` is set to anything but `quick` or `full`.
    pub fn from_env() -> Self {
        let value = std::env::var_os("LEAKY_SCALE");
        let name = value.as_ref().map(|v| v.to_string_lossy());
        Scale::parse(name.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The scale a `LEAKY_SCALE` value names: unset or `full` is
    /// [`Scale::full`] and `quick` is [`Scale::quick`]. Any other value is
    /// an error, so a typo cannot silently run at full scale.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("full") => Ok(Scale::full()),
            Some("quick") => Ok(Scale::quick()),
            Some(other) => Err(format!(
                "LEAKY_SCALE={other:?} is not a scale: use `quick` or `full`"
            )),
        }
    }

    /// The input spec at this scale.
    pub fn input(&self) -> InputSpec {
        InputSpec::Image {
            height: self.image,
            width: self.image,
            channels: 3,
        }
    }

    /// Batch size appropriate for a model (MLPs get the larger batch).
    pub fn batch_for(&self, model: &Model) -> usize {
        let is_mlp = model
            .layers
            .iter()
            .all(|l| matches!(l, dnn_sim::Layer::Dense { .. }));
        if is_mlp {
            self.batch_mlp
        } else {
            self.batch_cnn
        }
    }

    /// Builds a training session for a model at this scale.
    pub fn session(&self, model: Model) -> TrainingSession {
        let model = model.with_input(self.input());
        let batch = self.batch_for(&model);
        TrainingSession::new(model, TrainingConfig::new(batch, self.iterations))
    }
}

/// The profiling suite: the Table V zoo plus hyper-parameter sweep variants
/// (§V-D: the adversary varies hyper-parameters on her profiled models).
pub fn profiling_suite(scale: Scale) -> Vec<TrainingSession> {
    let input = scale.input();
    let mut models: Vec<Model> = vec![zoo::profiled_mlp(), zoo::alexnet(), zoo::profiled_vgg19()];
    models.extend(hp_sweep_variants(&zoo::alexnet().with_input(input), 4, 5));
    models.extend(hp_sweep_variants(
        &zoo::profiled_mlp().with_input(input),
        3,
        9,
    ));
    models.extend(hp_sweep_variants(
        &zoo::profiled_vgg19().with_input(input),
        2,
        13,
    ));
    models.into_iter().map(|m| scale.session(m)).collect()
}

/// The tested models of Table IX.
pub fn tested_models() -> Vec<Model> {
    vec![zoo::tested_mlp(), zoo::zfnet(), zoo::vgg16()]
}

/// Trains a full MoSConS instance on the profiling suite.
pub fn train_moscons(scale: Scale) -> Moscons {
    let sessions = profiling_suite(scale);
    Moscons::profile(&sessions, AttackConfig::default())
}

/// The zoo profiling suite: randomized residual/separable/attention shapes
/// covering every [`moscons::OpVocab::Zoo`] op class.
pub fn zoo_profiling_suite(scale: Scale) -> Vec<TrainingSession> {
    moscons::random_zoo_profiling_models(6, scale.input(), 19)
        .into_iter()
        .map(|m| scale.session(m))
        .collect()
}

/// Trains a MoSConS instance under the zoo op vocabulary on the zoo
/// profiling suite.
pub fn train_zoo_moscons(scale: Scale) -> Moscons {
    let config = AttackConfig {
        vocab: moscons::OpVocab::Zoo,
        ..AttackConfig::default()
    };
    Moscons::profile(&zoo_profiling_suite(scale), config)
}

/// The victim session of a zoo conformance family at this scale (the
/// `inference` family runs forward-only iterations).
pub fn zoo_family_session(family: &str, scale: Scale) -> TrainingSession {
    let model = zoo::family_model(family)
        .unwrap_or_else(|| panic!("unknown zoo family {family:?}"))
        .with_input(scale.input());
    let batch = scale.batch_for(&model);
    let config = if family == "inference" {
        TrainingConfig::inference(batch, scale.iterations)
    } else {
        TrainingConfig::new(batch, scale.iterations)
    };
    TrainingSession::new(model, config)
}

/// The collection configuration the benches use (the paper's setting).
pub fn collection() -> CollectionConfig {
    CollectionConfig::paper()
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>width$}", c, width = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a table header with a separator line.
pub fn print_header(title: &str, cells: &[&str], widths: &[usize]) {
    println!("\n=== {} ===", title);
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Minimum wall time of `f` over seven repetitions, which is robust to
/// scheduler noise on shared CI runners.
pub fn best_secs(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Writes `sections` into the JSON object at `path` (the performance bins
/// share `BENCH_pipeline.json`): a section already present is replaced in
/// place, a new one is appended, and every other section is kept, so the
/// bins can run in any order. A missing or unparseable file starts empty.
/// Every write also records the machine's `cores` header, so a missing
/// parallel speedup reads as a missing machine, not a regression.
pub fn merge_bench_json(path: impl AsRef<Path>, sections: &[(&str, &dyn Serialize)]) {
    let path = path.as_ref();
    let mut fields = match std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
    {
        Some(Value::Object(fields)) => fields,
        _ => Vec::new(),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header: (&str, &dyn Serialize) = ("cores", &cores);
    for &(name, section) in std::iter::once(&header).chain(sections) {
        let value = serde_json::to_value(&section).expect("bench section serializes");
        match fields.iter_mut().find(|(key, _)| key == name) {
            Some((_, slot)) => *slot = value,
            None => fields.push((name.to_string(), value)),
        }
    }
    let json = serde_json::to_string_pretty(&Value::Object(fields)).expect("bench serializes");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

// ---------------------------------------------------------------------------
// shared attack evaluation (tables VII, VIII, IX)
// ---------------------------------------------------------------------------

use dnn_sim::OpClass;
use moscons::attack::Extraction;
use moscons::LabeledTrace;

/// One attacked victim with everything the table bins need.
pub struct VictimEval {
    /// Ground-truth model.
    pub model: Model,
    /// Extraction result.
    pub extraction: Extraction,
    /// Ground-truth-labeled victim trace (bench-side only).
    pub labeled: LabeledTrace,
    /// Ground-truth classes aligned to the extraction's base iteration.
    pub base_truth: Option<Vec<OpClass>>,
}

/// Attacks every tested model and aligns ground truth to the base iteration.
pub fn attack_tested_models(moscons: &Moscons, scale: Scale) -> Vec<VictimEval> {
    tested_models()
        .into_iter()
        .enumerate()
        .map(|(i, model)| {
            let session = scale.session(model.clone());
            let (extraction, raw) = moscons.attack(&session, 9000 + i as u64);
            let labeled = LabeledTrace::from_raw(&raw, model.name.clone());
            let gt_iters = labeled.split_iterations_ground_truth(moscons.config().gap.th_gap);
            let base_truth = extraction.iterations.first().and_then(|base| {
                gt_iters
                    .iter()
                    .find(|g| g.start.abs_diff(base.start) < 12)
                    .map(|g| labeled.samples[g.clone()].iter().map(|s| s.class).collect())
            });
            VictimEval {
                model,
                extraction,
                labeled,
                base_truth,
            }
        })
        .collect()
}

/// Truncates two class sequences to their common length.
pub fn common<'a>(a: &'a [OpClass], b: &'a [OpClass]) -> (&'a [OpClass], &'a [OpClass]) {
    let n = a.len().min(b.len());
    (&a[..n], &b[..n])
}

/// Op accuracy of an extraction against a ground-truth-labeled trace: the
/// ground-truth iteration aligned with the extraction's base iteration when
/// one aligns (the paper's tables), otherwise the best-scoring ground-truth
/// iteration. `None` when either side found no iterations.
pub fn op_accuracy_vs_truth(
    extraction: &Extraction,
    labeled: &LabeledTrace,
    th_gap: usize,
) -> Option<f64> {
    use moscons::report::overall_op_accuracy;
    let gt_iters = labeled.split_iterations_ground_truth(th_gap);
    let base = extraction.iterations.first()?;
    let score = |g: &std::ops::Range<usize>| {
        let truth: Vec<OpClass> = labeled.samples[g.clone()].iter().map(|s| s.class).collect();
        let (p, t) = common(&extraction.fused_classes, &truth);
        overall_op_accuracy(p, t)
    };
    match gt_iters.iter().find(|g| g.start.abs_diff(base.start) < 12) {
        Some(g) => Some(score(g)),
        None => gt_iters
            .iter()
            .map(score)
            .fold(None, |best, a| Some(best.map_or(a, |b: f64| b.max(a)))),
    }
}

// ---------------------------------------------------------------------------
// table printers shared by the per-table bins and the combined `eval_all` bin
// ---------------------------------------------------------------------------

/// Prints Table VII (op-inference accuracy) for pre-attacked victims.
pub fn print_table7(evals: &[VictimEval]) {
    use moscons::report::{class_accuracy, overall_op_accuracy};
    let classes = [
        OpClass::Conv,
        OpClass::MatMul,
        OpClass::BiasAdd,
        OpClass::Relu,
        OpClass::Pool,
        OpClass::Tanh,
        OpClass::Sigmoid,
        OpClass::Optimizer,
    ];
    let mut header = vec!["Model".to_string(), "Phase".to_string()];
    header.extend(classes.iter().map(|c| c.letter().to_string()));
    header.push("Overall".to_string());
    let widths: Vec<usize> = std::iter::once(20usize)
        .chain(std::iter::once(8))
        .chain(classes.iter().map(|_| 6))
        .chain(std::iter::once(8))
        .collect();
    print_header(
        "Table VII — op inference accuracy",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &widths,
    );
    for ev in evals {
        let Some(truth) = &ev.base_truth else {
            println!("{}: base iteration not aligned — skipped", ev.model.name);
            continue;
        };
        let rows: [(&str, &[OpClass]); 3] = [
            ("Pre Vt.", &ev.extraction.pre_voting_classes),
            ("Majority", &ev.extraction.majority_classes),
            ("W/ Vt.", &ev.extraction.fused_classes),
        ];
        for (phase, pred) in rows {
            let (p, t) = common(pred, truth);
            let mut cells = vec![
                if phase == "Pre Vt." {
                    ev.model.name.clone()
                } else {
                    String::new()
                },
                phase.to_string(),
            ];
            for c in classes {
                cells.push(match class_accuracy(p, t, c) {
                    Some(a) => format!("{:.0}%", 100.0 * a),
                    None => "-".to_string(),
                });
            }
            cells.push(pct(overall_op_accuracy(p, t)));
            print_row(&cells, &widths);
        }
    }
    println!("\npaper reference (overall): Cust. MLP 97.1 -> 99.4%, ZFNet 86.3 -> 93.0%, VGG16 84.8 -> 85.8%.");
}

/// Prints Table VIII (hyper-parameter accuracy) — collects its own victim
/// traces with hyper-parameter sweep variants.
pub fn print_table8(moscons: &Moscons, scale: Scale) {
    use gpu_sim::GpuConfig;
    use moscons::hyperparams::forward_last_sample;
    use moscons::trace::collect_trace;
    use moscons::HpKind;

    let gpu = GpuConfig::gtx_1080_ti();
    let mut victims: Vec<Model> = tested_models();
    for (i, m) in tested_models().into_iter().enumerate() {
        victims.extend(moscons::hp_sweep_variants(
            &m.with_input(scale.input()),
            2,
            40 + i as u64,
        ));
    }
    let mut totals: std::collections::HashMap<HpKind, (usize, usize)> = Default::default();
    for (i, model) in victims.iter().enumerate() {
        let session = scale.session(model.clone());
        let raw = collect_trace(&session, &collection().with_seed(8800 + i as u64), &gpu);
        let labeled = LabeledTrace::from_raw(&raw, model.name.clone());
        let iters = labeled.split_iterations_ground_truth(moscons.config().gap.th_gap);
        for r in iters.iter().take(3) {
            let samples = &labeled.samples[r.clone()];
            let rows = labeled.prepared(r.clone(), moscons.scaler());
            for kind in HpKind::ALL {
                let preds = moscons.hp_model(kind).classifier().predict(&rows);
                match kind {
                    HpKind::Optimizer => {
                        let truth = HpKind::optimizer_class(model.optimizer);
                        let mut counts = [0usize; 3];
                        for (s, &p) in samples.iter().zip(&preds) {
                            if s.class == OpClass::Optimizer {
                                counts[p.min(2)] += 1;
                            }
                        }
                        if counts.iter().sum::<usize>() > 0 {
                            let best = (0..3).max_by_key(|&c| counts[c]).expect("3 classes");
                            let e = totals.entry(kind).or_default();
                            e.1 += 1;
                            if best == truth {
                                e.0 += 1;
                            }
                        }
                    }
                    _ => {
                        for (layer_idx, _) in model.layers.iter().enumerate() {
                            let Some(truth) = kind.label_for_layer(model, layer_idx) else {
                                continue;
                            };
                            let Some(pos) = forward_last_sample(
                                samples.iter().map(|s| s.layer_index),
                                layer_idx,
                            ) else {
                                continue;
                            };
                            let e = totals.entry(kind).or_default();
                            e.1 += 1;
                            if preds[pos] == truth {
                                e.0 += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    print_header(
        "Table VIII — hyper-parameter inference accuracy",
        &["HP", "Kind", "Correct", "Total", "Accuracy"],
        &[4, 12, 8, 6, 9],
    );
    let paper = [95.71, 88.1, 96.58, 95.89, 92.63];
    for (i, kind) in HpKind::ALL.iter().enumerate() {
        let (correct, total) = totals.get(kind).copied().unwrap_or((0, 0));
        let acc = if total > 0 {
            correct as f64 / total as f64
        } else {
            0.0
        };
        print_row(
            &[
                format!("HP{}", i + 1),
                format!("{:?}", kind),
                correct.to_string(),
                total.to_string(),
                pct(acc),
            ],
            &[4, 12, 8, 6, 9],
        );
        println!("      paper: {:.1}%", paper[i]);
    }
}

/// Prints Table IX (end-to-end structure recovery) for pre-attacked victims.
pub fn print_table9(evals: &[VictimEval]) {
    use moscons::score_structure;
    println!("\n=== Table IX — end-to-end structure recovery ===");
    let paper = [(1.0, 1.0), (1.0, 0.769), (0.952, 0.828)];
    let mut sum_l = 0.0;
    let mut sum_hp = 0.0;
    for (ev, (pl, php)) in evals.iter().zip(paper) {
        let score = score_structure(&ev.model, &ev.extraction.layers, ev.extraction.optimizer);
        println!("\n{}", ev.model.name);
        println!("  ground truth : {}", ev.model.structure_string());
        println!("  recovered    : {}", ev.extraction.structure);
        println!(
            "  AccuracyL = {} (paper {})   AccuracyHP = {} ({}/{}; paper {})",
            pct(score.layers),
            pct(pl),
            pct(score.hyper_params),
            score.hp_correct,
            score.hp_total,
            pct(php),
        );
        sum_l += score.layers;
        sum_hp += score.hyper_params;
    }
    let n = evals.len() as f64;
    println!(
        "\naverages: AccuracyL {} (paper 98.4%), AccuracyHP {} (paper 86.6%)",
        pct(sum_l / n),
        pct(sum_hp / n)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_consistent() {
        let full = Scale::full();
        let quick = Scale::quick();
        assert!(quick.image < full.image);
        assert!(quick.iterations <= full.iterations);
        let mlp = zoo::tested_mlp();
        let cnn = zoo::vgg16();
        assert_eq!(full.batch_for(&mlp), full.batch_mlp);
        assert_eq!(full.batch_for(&cnn), full.batch_cnn);
    }

    #[test]
    fn scale_names_parse_strictly() {
        assert_eq!(Scale::parse(None), Ok(Scale::full()));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::full()));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::quick()));
        for typo in ["Quick", "FULL", "fast", ""] {
            let err = Scale::parse(Some(typo)).expect_err(typo);
            assert!(err.contains("`quick`") && err.contains("`full`"), "{err}");
        }
    }

    #[test]
    fn profiling_suite_is_diverse() {
        let suite = profiling_suite(Scale::quick());
        assert!(suite.len() >= 9, "suite has {} models", suite.len());
        let names: std::collections::HashSet<&str> =
            suite.iter().map(|s| s.model().name.as_str()).collect();
        assert_eq!(names.len(), suite.len(), "duplicate model names");
    }

    #[test]
    fn tested_models_match_table_ix() {
        let tested = tested_models();
        assert_eq!(tested.len(), 3);
        assert_eq!(tested[1].name, "ZFNet");
        assert_eq!(tested[2].name, "VGG16");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.984), "98.4%");
    }

    #[test]
    fn merge_bench_json_replaces_named_sections_and_keeps_the_rest() {
        let path = std::env::temp_dir().join(format!("bench-merge-{}.json", std::process::id()));
        std::fs::write(&path, r#"{"a": 1, "b": {"x": 2}, "c": 3}"#).expect("write fixture");
        merge_bench_json(&path, &[("b", &5u32), ("d", &"new")]);
        let merged = std::fs::read_to_string(&path).expect("read merged");
        std::fs::remove_file(&path).expect("remove fixture");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            serde_json::from_str(&merged).expect("merged parses"),
            serde_json::from_str(&format!(
                r#"{{"a": 1, "b": 5, "c": 3, "cores": {cores}, "d": "new"}}"#
            ))
            .expect("parses"),
        );
    }
}
