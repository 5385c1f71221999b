//! Victim model zoo conformance matrix (ISSUE 9 / DESIGN.md §14).
//!
//! One test column per family in [`dnn_sim::zoo::FAMILIES`] — linear CNN,
//! residual, depthwise-separable, attention, and the linear CNN under
//! forward-only inference. For every family the suite pins:
//!
//! 1. the end-to-end `Moscons::attack` completes and recovers a
//!    non-degenerate structure;
//! 2. the op-sequence grammar round-trips the planner's ground truth —
//!    collapsing the planned forward classes and re-parsing them with the
//!    zoo grammar reproduces the victim's layer kinds and skip edges;
//! 3. draining the streaming engine reproduces the batch report bitwise
//!    (the `tests/streaming.rs` contract, extended to every family);
//! 4. one `run_fleet` over all five families reproduces each batch report
//!    bitwise (the fleet contract of `tests/determinism.rs`, under the zoo
//!    vocabulary);
//! 5. a golden `AttackReport` snapshot per family
//!    (`tests/golden/zoo_report_<family>.json`, blessed via
//!    `LEAKY_GOLDEN_BLESS=1`), reproduced both by the default GEMM dispatch
//!    and by the scalar tile (`ml::simd::with_simd(false, ..)`);
//! 6. inference-mode traces never carry backward-pass ground truth
//!    (`*Grad` / `Apply*`), even under a uniform fault plan.

mod common;

use std::path::PathBuf;
use std::sync::OnceLock;

use dnn_sim::{
    plan_iteration_mode, zoo, ExecutionMode, InputSpec, Layer, Model, OpClass, TrainingSession,
};
use gpu_sim::{FaultPlan, GpuConfig};
use moscons::attack::Moscons;
use moscons::opseq::collapse;
use moscons::trace::{collect_trace, CollectionConfig};
use moscons::{
    parse_forward_layers_zoo, run_fleet, AttackReport, AttackStream, FleetConfig, LabeledTrace,
    RecoveredKind, SessionSpec, Skip,
};

/// One attacked family: its victim, the batch report the stream and golden
/// must reproduce, and the per-sample feature rows for streaming replays.
struct FamilyRun {
    family: &'static str,
    victim: TrainingSession,
    batch: AttackReport,
    features: Vec<Vec<f32>>,
}

struct Fixture {
    moscons: Moscons,
    runs: Vec<FamilyRun>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Pinned worker count, as in `tests/golden_report.rs`: determinism
        // across worker counts is pinned elsewhere; the goldens should not
        // depend on it.
        ml::par::with_threads(4, || {
            let moscons = common::zoo_attack_setup(FaultPlan::none());
            let runs = zoo::FAMILIES
                .iter()
                .map(|&family| {
                    let victim = common::zoo_victim(family);
                    let (extraction, raw) = moscons.attack(&victim, 99);
                    FamilyRun {
                        family,
                        victim,
                        batch: extraction.report(),
                        features: moscons::cache::counter_feature_matrix(&raw).to_vec(),
                    }
                })
                .collect();
            Fixture { moscons, runs }
        })
    })
}

#[test]
fn every_family_attack_completes() {
    for run in &fixture().runs {
        let family = run.family;
        assert!(
            !run.batch.iterations.is_empty(),
            "family {family}: no iterations recovered"
        );
        assert!(
            !run.batch.fused_classes.is_empty(),
            "family {family}: no fused classes"
        );
        assert!(
            !run.batch.structure.is_empty(),
            "family {family}: empty structure string"
        );
        assert!(
            run.batch.optimizer.is_some(),
            "family {family}: no optimizer recovered"
        );
        // At smoke scale full structure recovery is not guaranteed (the
        // classic quick-pipeline goldens are equally modest), but the
        // conv-stack families must recover at least their stem.
        if family != "attention" {
            assert!(
                !run.batch.layers.is_empty(),
                "family {family}: no layers recovered"
            );
        }
    }
}

/// The layer kinds and skip edges the zoo grammar must recover from a
/// model's planned forward classes. Tracks the channel count so residual
/// blocks that need a 1x1 projection contribute three convs, not two.
fn expected_graph(model: &Model) -> (Vec<RecoveredKind>, Vec<Skip>) {
    let mut kinds = Vec::new();
    let mut skips = Vec::new();
    let InputSpec::Image { mut channels, .. } = model.input;
    for layer in &model.layers {
        match *layer {
            Layer::Conv2D { filters, .. } => {
                kinds.push(RecoveredKind::Conv);
                channels = filters;
            }
            Layer::MaxPool => kinds.push(RecoveredKind::Pool),
            Layer::Dense { .. } => kinds.push(RecoveredKind::Dense),
            Layer::Residual { filters, .. } => {
                // Branch conv, merge conv, plus the projection conv when
                // the block widens the channel count.
                let from = kinds.len();
                kinds.push(RecoveredKind::Conv);
                kinds.push(RecoveredKind::Conv);
                if channels != filters {
                    kinds.push(RecoveredKind::Conv);
                }
                skips.push(Skip {
                    from,
                    to: kinds.len() - 1,
                });
                channels = filters;
            }
            Layer::SeparableConv2D { filters, .. } => {
                kinds.push(RecoveredKind::Separable);
                channels = filters;
            }
            Layer::Attention { .. } => kinds.push(RecoveredKind::Attention),
        }
    }
    (kinds, skips)
}

#[test]
fn zoo_grammar_round_trips_planner_ground_truth() {
    for run in &fixture().runs {
        let family = run.family;
        let model = run.victim.model();
        // The forward ground truth, independent of trace noise: the
        // inference plan is the training plan's forward prefix by contract.
        let classes: Vec<OpClass> =
            plan_iteration_mode(model, run.victim.config().batch, ExecutionMode::Inference)
                .iter()
                .map(|op| op.kind.class())
                .collect();
        let graph = parse_forward_layers_zoo(&collapse(&classes), usize::MAX);
        let kinds: Vec<RecoveredKind> = graph.layers.iter().map(|l| l.kind).collect();
        let (expected_kinds, expected_skips) = expected_graph(model);
        assert_eq!(
            kinds, expected_kinds,
            "family {family}: recovered kinds diverge from the planner"
        );
        assert_eq!(
            graph.skips, expected_skips,
            "family {family}: recovered skip edges diverge from the planner"
        );
        // Every recovered layer keeps its ground-truth activation. Layers
        // strictly inside a skip branch carry none of their own — the
        // block's activation runs after the merge and attaches to the
        // merge-point layer (`skip.to`).
        for (i, layer) in graph.layers.iter().enumerate() {
            let branch_interior = graph.skips.iter().any(|s| s.from < i && i < s.to);
            if layer.kind == RecoveredKind::Pool
                || layer.kind == RecoveredKind::Attention
                || branch_interior
            {
                assert_eq!(layer.activation, None, "family {family} layer {i}");
            } else {
                assert!(
                    layer.activation.is_some(),
                    "family {family} layer {i}: lost its activation"
                );
            }
        }
    }
}

#[test]
fn residual_family_recovers_skip_edges_end_to_end() {
    let fx = fixture();
    let residual = fx
        .runs
        .iter()
        .find(|r| r.family == "residual")
        .expect("residual family present");
    // The end-to-end report flattens the graph, but the residual victim's
    // recovered chain must contain consecutive conv layers (the branch
    // convs the DAG corrector acts on), not just a stem.
    let convs = residual
        .batch
        .layers
        .iter()
        .filter(|l| l.kind == RecoveredKind::Conv)
        .count();
    assert!(
        convs >= 2,
        "residual victim recovered only {convs} conv layers"
    );
}

#[test]
fn streaming_matches_batch_for_every_family() {
    let fx = fixture();
    for run in &fx.runs {
        let family = run.family;
        for chunk_rows in [1usize, 16] {
            let mut stream = AttackStream::with_chunk_rows(&fx.moscons, chunk_rows);
            for row in &run.features {
                for _ in stream.push(row) {}
            }
            let report = stream.finish().extraction.report();
            assert_eq!(
                report, run.batch,
                "family {family}: streamed extraction diverged from batch \
                 at chunk_rows={chunk_rows}"
            );
        }
    }
}

#[test]
fn fleet_matches_batch_for_every_family() {
    let fx = fixture();
    let specs: Vec<SessionSpec> = fx
        .runs
        .iter()
        .map(|run| SessionSpec {
            victim: run.victim.clone(),
            seed: 99,
            gpu: fx.moscons.config().gpu.clone(),
        })
        .collect();
    let fleet = ml::par::with_threads(4, || {
        run_fleet(&fx.moscons, &specs, &FleetConfig::default())
    });
    assert_eq!(fleet.sessions.len(), specs.len(), "one outcome per spec");
    for (run, session) in fx.runs.iter().zip(&fleet.sessions) {
        assert_eq!(
            session.extraction.report(),
            run.batch,
            "family {}: the fleet session diverged from the batch attack",
            run.family
        );
    }
}

fn golden_path(family: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("zoo_report_{family}.json"))
}

#[test]
fn zoo_reports_match_golden_snapshots() {
    let fx = fixture();
    for run in &fx.runs {
        let actual = serde_json::to_string_pretty(&run.batch).expect("report serializes");
        let path = golden_path(run.family);
        if std::env::var("LEAKY_GOLDEN_BLESS").is_ok_and(|v| v == "1") {
            std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
            std::fs::write(&path, actual + "\n").expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); run with LEAKY_GOLDEN_BLESS=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            expected.trim_end(),
            actual,
            "zoo report for family {} drifted from {}; if intentional, re-bless with \
             LEAKY_GOLDEN_BLESS=1 and commit the diff",
            run.family,
            path.display()
        );
        // The AVX2 lanes and the scalar tile are bitwise-equal, so the
        // scalar path must reproduce the golden from the same feature rows,
        // and `Mlong`'s probabilities on them to the last bit: the report
        // holds only argmax classes, which hide last-bit drift.
        let scaled: Vec<Vec<f32>> = run
            .features
            .iter()
            .map(|row| fx.moscons.scaler().transform_row(row))
            .collect();
        let rows = moscons::dataset::with_lookahead(&scaled);
        let long_proba = || fx.moscons.long_model().classifier().predict_proba(&rows);
        let dispatched_proba = long_proba();
        let (scalar, scalar_proba) = ml::simd::with_simd(false, || {
            (fx.moscons.extract(&run.features).report(), long_proba())
        });
        assert_eq!(
            scalar, run.batch,
            "family {}: the scalar GEMM tile's report diverged from the golden",
            run.family
        );
        assert!(
            scalar_proba == dispatched_proba,
            "family {}: Mlong probabilities differ between the scalar tile and the dispatched GEMM",
            run.family
        );
    }
}

#[test]
fn inference_traces_carry_no_backward_labels_even_under_faults() {
    // Fault-sweep regression: forward-only victims must never produce
    // backward-pass ground truth, no matter how samples are dropped or
    // polluted — the plan simply contains no `*Grad` / `Apply*` ops.
    let victim = common::zoo_victim("inference");
    let gpu = GpuConfig::gtx_1080_ti().with_faults(FaultPlan::uniform(0.15, 7));
    for seed in [99u64, 123] {
        let raw = collect_trace(&victim, &CollectionConfig::paper().with_seed(seed), &gpu);
        let labeled = LabeledTrace::from_raw(&raw, "inference victim");
        assert!(!labeled.samples.is_empty(), "empty trace at seed {seed}");
        for sample in &labeled.samples {
            if let Some(kind) = sample.kind {
                let name = kind.op_name();
                assert!(
                    !name.contains("Grad") && !name.contains("Backprop") && !name.contains("Apply"),
                    "seed {seed}: inference trace labeled with backward op {name}"
                );
            }
            assert_ne!(
                sample.class,
                OpClass::Optimizer,
                "seed {seed}: inference trace labeled with an optimizer class"
            );
        }
    }
}
