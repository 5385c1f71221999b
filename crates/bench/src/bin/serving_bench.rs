//! Fleet-scale serving bench: f32-scalar vs f32-SIMD classification.
//!
//! Measures labels/second of a trained [`ml::SequenceClassifier`] on a
//! confident synthetic task through two serving paths:
//!
//! * **f32-scalar** — [`ml::SequenceClassifier::predict_naive`] per
//!   sequence: the reference forward pass whose per-gate horizontal dot
//!   products carry a sequential f32 dependency chain the compiler cannot
//!   vectorize. This is the honest scalar baseline.
//! * **f32-SIMD** — the production batch-bucketed
//!   [`ml::SequenceClassifier::predict_batch`] with the AVX2 lane kernel
//!   dispatched when the CPU has it (bitwise identical to the naive pass by
//!   contract).
//!
//! The GEMM alone, lanes against the scalar tile, is `gemm_bench`'s
//! `gemm.simd_speedup`.
//!
//! Everything runs under `ml::par::with_threads(1)` so the numbers isolate
//! kernel quality from the worker pool. Merges a `serving` section into
//! `BENCH_pipeline.json` without touching the other binaries' sections.
//!
//! Run: `cargo run -p bench --release --bin serving_bench`

use ml::{SeqClassifierConfig, SeqExample, SequenceClassifier};
use serde::Serialize;

/// Eval fleet: sequences classified per timed repetition.
const EVAL_SEQS: usize = 64;
/// Timesteps per eval sequence (labels per sequence).
const EVAL_LEN: usize = 32;
/// LSTM hidden units — serving-realistic, unlike the smoke-scale tests.
const HIDDEN: usize = 64;

#[derive(Serialize)]
struct ServingBench {
    sequences: usize,
    timesteps_per_sequence: usize,
    hidden: usize,
    /// Whether the AVX2 lane kernel was active for the f32-SIMD row.
    simd_enabled: bool,
    f32_scalar_labels_per_sec: f64,
    f32_simd_labels_per_sec: f64,
    /// `f32_simd / f32_scalar`.
    simd_speedup_vs_scalar: f64,
}

/// Deterministic pseudo-random stream — no RNG dependency.
fn lcg(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 40) as f32) / (1u64 << 23) as f32 - 1.0
}

/// Quadrant task: points near the four quadrant centers (±1, ±1) with a
/// small noise radius, labeled by quadrant — an easy, margin-heavy task the
/// classifier learns confidently.
fn quadrant_sequences(n: usize, t: usize, seed: u64) -> Vec<SeqExample> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            let mut features = Vec::with_capacity(t);
            let mut labels = Vec::with_capacity(t);
            for _ in 0..t {
                let lab = (lcg(&mut state).to_bits() & 3) as usize;
                let (sx, sy) = match lab {
                    0 => (1.0, 1.0),
                    1 => (-1.0, 1.0),
                    2 => (-1.0, -1.0),
                    _ => (1.0, -1.0),
                };
                features.push(vec![sx + 0.2 * lcg(&mut state), sy + 0.2 * lcg(&mut state)]);
                labels.push(lab);
            }
            SeqExample::new(features, labels)
        })
        .collect()
}

fn main() {
    let bench = ml::par::with_threads(1, || {
        let mut cfg = SeqClassifierConfig::new(2, HIDDEN, 4);
        cfg.epochs = 30;
        cfg.seed = 11;
        cfg.batch_size = 4;
        let mut clf = SequenceClassifier::new(cfg);
        clf.fit(&quadrant_sequences(32, 16, 3));

        let eval = quadrant_sequences(EVAL_SEQS, EVAL_LEN, 7);
        let seqs: Vec<&[Vec<f32>]> = eval.iter().map(|e| e.features.as_slice()).collect();
        let total_labels = (EVAL_SEQS * EVAL_LEN) as f64;

        let scalar_secs = bench::best_secs(|| {
            for s in &seqs {
                std::hint::black_box(clf.predict_naive(std::hint::black_box(s)));
            }
        });
        let simd_secs = bench::best_secs(|| {
            std::hint::black_box(clf.predict_batch(std::hint::black_box(&seqs)));
        });

        ServingBench {
            sequences: EVAL_SEQS,
            timesteps_per_sequence: EVAL_LEN,
            hidden: HIDDEN,
            simd_enabled: ml::simd::enabled(),
            f32_scalar_labels_per_sec: total_labels / scalar_secs,
            f32_simd_labels_per_sec: total_labels / simd_secs,
            simd_speedup_vs_scalar: scalar_secs / simd_secs,
        }
    });

    println!(
        "serving ({} seqs x {} steps, hidden {}): f32-scalar {:.0}/s, f32-simd {:.0}/s ({:.2}x)",
        bench.sequences,
        bench.timesteps_per_sequence,
        bench.hidden,
        bench.f32_scalar_labels_per_sec,
        bench.f32_simd_labels_per_sec,
        bench.simd_speedup_vs_scalar,
    );

    let path = "BENCH_pipeline.json";
    bench::merge_bench_json(path, &[("serving", &bench)]);
    println!("serving -> {path}");
}
