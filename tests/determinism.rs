//! Thread-count invariance of the full pipeline: profiling and extraction
//! under a single-worker pool must match an 8-worker pool bit for bit. The
//! engine's contract (see `ml::par`) is that parallelism changes wall-clock
//! time only — every reduction happens in a fixed order, so the trained
//! models and the recovered structure are identical. The clean pipeline's
//! serial arm also forces the scalar GEMM tile (`ml::simd::with_simd`), so
//! the same comparison pins the AVX2 lanes to the scalar reference end to
//! end on hosts that have them.
//!
//! The same contract extends to fault injection: a `FaultPlan` is part of
//! the GPU configuration, so one plan value fully determines a run and the
//! faulted pipeline is exactly as reproducible as the clean one.

mod common;

use common::quick_pipeline;
use gpu_sim::FaultPlan;
use moscons::AttackReport;

/// Profiles and attacks at smoke scale on the clean path.
fn run_pipeline() -> AttackReport {
    quick_pipeline(99, FaultPlan::none())
}

#[test]
fn pipeline_is_thread_count_invariant() {
    // `Debug` prints every trained weight exactly, so equal renderings are
    // bitwise-equal attackers; the class-level report alone would hide
    // last-bit drift.
    let run = || {
        let (moscons, victim) = common::quick_attack_setup(FaultPlan::none(), 4);
        let (extraction, _) = moscons.attack(&victim, 99);
        (format!("{moscons:?}"), extraction.report())
    };
    let (serial_models, serial) = ml::simd::with_simd(false, || ml::par::with_threads(1, run));
    let (parallel_models, parallel) = ml::par::with_threads(8, run);
    assert!(
        serial_models == parallel_models,
        "8-worker training diverged bitwise from the serial scalar-tile training"
    );
    assert_eq!(
        serial, parallel,
        "8-worker pipeline diverged from the serial scalar-tile pipeline"
    );
    // The comparison must be over a non-degenerate run to mean anything.
    assert!(!serial.iterations.is_empty(), "no iterations recovered");
    assert!(!serial.fused_classes.is_empty(), "no fused classes");
}

#[test]
fn packed_batch_pipeline_is_thread_count_invariant() {
    // A minibatch of 8 packs several equal-length profiling iterations into
    // each fused bucket GEMM (`ml::seq`'s batched training path), instead of
    // the mostly-singleton buckets the default minibatch of 4 produces at
    // this scale. The 1-vs-8-worker bitwise equality must hold there too:
    // bucket composition and worker count are both scheduling decisions, not
    // arithmetic ones.
    let run = || common::quick_pipeline_batched(99, FaultPlan::none(), 8);
    let serial = ml::par::with_threads(1, run);
    let parallel = ml::par::with_threads(8, run);
    assert_eq!(
        serial, parallel,
        "packed batch training diverged across worker counts"
    );
    assert!(!serial.iterations.is_empty(), "no iterations recovered");
    assert!(!serial.fused_classes.is_empty(), "no fused classes");
}

#[test]
fn faulted_pipeline_is_deterministic_across_thread_counts() {
    let plan = FaultPlan::uniform(0.15, 7);
    let first = ml::par::with_threads(1, || quick_pipeline(99, plan));
    // Clear the in-process trace memo so the repeat run re-simulates every
    // collection instead of replaying cached slices.
    moscons::cache::clear_memory();
    let second = ml::par::with_threads(8, || quick_pipeline(99, plan));
    assert_eq!(
        first, second,
        "same fault plan must yield a bitwise-identical report"
    );
    assert!(!first.iterations.is_empty(), "no iterations recovered");

    // A different fault seed is a different run: the samples differ even
    // though every stage still completes.
    moscons::cache::clear_memory();
    let other = ml::par::with_threads(8, || quick_pipeline(99, FaultPlan::uniform(0.15, 8)));
    assert!(!other.fused_classes.is_empty(), "faulted run degenerated");
}

/// Flattened, comparable view of one fleet session: report, label
/// latencies, rows dropped, samples streamed.
type SessionSummary = (AttackReport, Vec<usize>, usize, usize);

/// Flattened, comparable view of a fleet run (Extraction itself carries no
/// `PartialEq`; the report is the bitwise-comparable surface).
fn fleet_summary(outcome: moscons::FleetOutcome) -> (Vec<SessionSummary>, usize) {
    let sessions = outcome
        .sessions
        .into_iter()
        .map(|s| {
            (
                s.extraction.report(),
                s.label_latencies,
                s.overflow_dropped,
                s.samples_streamed,
            )
        })
        .collect();
    (sessions, outcome.rounds)
}

#[test]
fn fleet_is_worker_count_and_order_invariant() {
    use moscons::{run_fleet, FleetConfig, OverflowPolicy, SessionSpec};

    let (moscons, victim) = common::quick_attack_setup(FaultPlan::none(), 4);
    let gpu = moscons.config().gpu.clone();
    let specs: Vec<SessionSpec> = [99u64, 123, 7]
        .iter()
        .map(|&seed| SessionSpec {
            victim: victim.clone(),
            seed,
            gpu: gpu.clone(),
        })
        .collect();
    let config = FleetConfig::default();

    // 1 vs 8 workers: the poll/classify fan-outs partition independent
    // sessions, so worker count must never reach the results.
    let serial = ml::par::with_threads(1, || fleet_summary(run_fleet(&moscons, &specs, &config)));
    let parallel = ml::par::with_threads(8, || fleet_summary(run_fleet(&moscons, &specs, &config)));
    assert_eq!(
        serial, parallel,
        "8-worker fleet diverged from the serial fleet"
    );

    // Spec order is presentation, not arithmetic: reversing the fleet
    // reverses the outcomes and changes nothing else — sessions finishing
    // earlier or later relative to each other cannot couple.
    let reversed_specs: Vec<SessionSpec> = specs.iter().rev().cloned().collect();
    let (mut rev_sessions, _) = ml::par::with_threads(8, || {
        fleet_summary(run_fleet(&moscons, &reversed_specs, &config))
    });
    rev_sessions.reverse();
    assert_eq!(
        serial.0, rev_sessions,
        "fleet outcomes depend on session order"
    );

    // Lossless streaming is the batch attack: every session's report equals
    // its solo `attack_on` bit for bit.
    for (spec, (report, latencies, dropped, _)) in specs.iter().zip(&serial.0) {
        let (batch, _) = moscons.attack_on(&spec.victim, spec.seed, &spec.gpu);
        assert_eq!(
            *report,
            batch.report(),
            "fleet session (seed {}) diverged from the batch attack",
            spec.seed
        );
        assert!(!latencies.is_empty(), "session emitted no labels");
        assert_eq!(*dropped, 0, "Stall policy must never drop");
    }

    // DropOldest: a deliberately starved consumer must evict — counted,
    // bounded, and still bitwise reproducible across worker counts.
    let starved = FleetConfig {
        queue_capacity: 2,
        drain_per_round: 1,
        overflow: OverflowPolicy::DropOldest,
        ..config
    };
    let d1 = ml::par::with_threads(1, || fleet_summary(run_fleet(&moscons, &specs, &starved)));
    let d8 = ml::par::with_threads(8, || fleet_summary(run_fleet(&moscons, &specs, &starved)));
    assert_eq!(d1, d8, "DropOldest fleet diverged across worker counts");
    let total_dropped: usize = d1.0.iter().map(|(_, _, dropped, _)| dropped).sum();
    assert!(
        total_dropped > 0,
        "starved DropOldest fleet should have evicted rows"
    );
}

#[test]
fn pool_is_reused_across_sequential_attacks() {
    // Pool workers outlive a dispatch: the second attack reuses the threads
    // the first one spawned (same process-wide pool) and must reproduce the
    // same report bit for bit once the trace memo is dropped.
    let (moscons, victim) = common::quick_attack_setup(FaultPlan::none(), 4);
    let gpu = moscons.config().gpu.clone();
    let run = || ml::par::with_threads(8, || moscons.attack_on(&victim, 4242, &gpu).0.report());
    let first = run();
    moscons::cache::clear_memory();
    let second = run();
    assert_eq!(
        first, second,
        "second attack on the reused pool diverged from the first"
    );
    assert!(!first.iterations.is_empty(), "no iterations recovered");
}

#[test]
fn worker_panic_does_not_poison_later_dispatches() {
    // A panicking job must propagate to the dispatcher — and the resident
    // workers must keep serving later dispatches, up to a full pipeline.
    let items: Vec<usize> = (0..64).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ml::par::with_threads(8, || {
            ml::par::par_map(&items, |i, _| {
                if i == 40 {
                    panic!("poisoned job");
                }
                i
            })
        })
    }));
    assert!(result.is_err(), "worker panic must reach the dispatcher");
    let doubled = ml::par::with_threads(8, || ml::par::par_map(&items, |_, &x| x * 2));
    assert_eq!(doubled, (0..128).step_by(2).collect::<Vec<usize>>());
    let report = ml::par::with_threads(8, run_pipeline);
    assert!(
        !report.iterations.is_empty(),
        "pipeline degenerated after a worker panic"
    );
}

#[test]
fn report_serializes_to_json() {
    let report = ml::par::with_threads(1, run_pipeline);
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("\"structure\""));
    assert!(json.contains("\"syntax_edits\""));
}
