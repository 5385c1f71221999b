//! GEMM microkernel + batch-packing bench.
//!
//! Two probes of the batched LSTM training engine, both single-threaded so
//! the numbers isolate kernel quality from the worker pool:
//!
//! * **`gemm`** — one LSTM-shaped multiply (packed timesteps × input
//!   projection) through three paths: the naive triple loop, the
//!   register-tiled microkernel behind `Matrix::matmul` on its scalar tile
//!   (`ml::simd::with_simd(false, ..)`), and the same microkernel as
//!   dispatched (AVX2 lanes when the CPU has them). The bench asserts that
//!   the three products are bitwise equal while it measures, so a GFLOP/s
//!   win can never come from diverged arithmetic. CI gates
//!   `microkernel_speedup` (dispatched over naive) and `simd_speedup`
//!   (dispatched over scalar tile) at >= 1.
//! * **`lstm_packing`** — seconds per training epoch of the smoke-scale
//!   classifier with minibatches of one (every packed bucket holds a single
//!   sequence) versus the pipeline's default minibatch of four (equal-length
//!   sequences share fused 4-gate GEMMs). `packed_secs_per_epoch` is the
//!   one probe of the LSTM training hot path in `BENCH_pipeline.json`.
//!
//! Merges its sections into `BENCH_pipeline.json` without touching the
//! other bins' sections.
//!
//! Run: `cargo run -p bench --release --bin gemm_bench`

use std::time::Instant;

use ml::matrix::Matrix;
use serde::Serialize;

/// Bench GEMM shape, chosen to look like the packed LSTM input projection
/// at smoke scale: (T*B) rows × input width, times input width × 4H.
const M: usize = 160;
const K: usize = 64;
const N: usize = 256;

/// Multiplies per timed repetition.
const ITERS: usize = 8;

#[derive(Serialize)]
struct GemmBench {
    shape: String,
    naive_gflops: f64,
    /// The microkernel with the scalar tile forced.
    scalar_tile_gflops: f64,
    /// The microkernel as dispatched (AVX2 lanes when available).
    microkernel_gflops: f64,
    /// `microkernel_gflops / naive_gflops` — CI gates this at >= 1.
    microkernel_speedup: f64,
    /// `microkernel_gflops / scalar_tile_gflops` — CI gates this at >= 1
    /// (exactly 1 without AVX2, where both arms are the scalar tile).
    simd_speedup: f64,
}

#[derive(Serialize)]
struct PackingBench {
    per_seq_secs_per_epoch: f64,
    packed_secs_per_epoch: f64,
    /// `per_seq / packed` — how much the fused bucket GEMMs buy per epoch.
    speedup: f64,
}

/// Deterministic pseudo-random fill in [-1, 1) — no RNG dependency, same
/// matrix contents every run.
fn lcg_fill(m: &mut Matrix, mut state: u64) {
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m[(r, c)] = ((state >> 40) as f32) / (1u64 << 23) as f32 - 1.0;
        }
    }
}

/// Best time of [`ITERS`] microkernel products `a * b` into `out`.
fn microkernel_secs(a: &Matrix, b: &Matrix, out: &mut Matrix) -> f64 {
    bench::best_secs(|| {
        for _ in 0..ITERS {
            std::hint::black_box(a).matmul_into(std::hint::black_box(b), out);
        }
    })
}

fn gemm_bench() -> GemmBench {
    let mut a = Matrix::zeros(M, K);
    let mut b = Matrix::zeros(K, N);
    lcg_fill(&mut a, 0x9e37_79b9);
    lcg_fill(&mut b, 0x7f4a_7c15);

    let naive = a.matmul_naive(&b);
    let mut scalar = Matrix::zeros(1, 1);
    ml::simd::with_simd(false, || a.matmul_into(&b, &mut scalar));
    let mut micro = Matrix::zeros(1, 1);
    a.matmul_into(&b, &mut micro);
    for (path, product) in [("scalar tile", &scalar), ("SIMD microkernel", &micro)] {
        assert!(
            naive
                .as_slice()
                .iter()
                .zip(product.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{path} diverged from the naive GEMM"
        );
    }

    let naive_secs = bench::best_secs(|| {
        for _ in 0..ITERS {
            std::hint::black_box(a.matmul_naive(std::hint::black_box(&b)));
        }
    });
    let micro_secs = microkernel_secs(&a, &b, &mut micro);
    // Without AVX2 both arms are the scalar tile; timing it twice would
    // only measure noise.
    let scalar_secs = if ml::simd::enabled() {
        ml::simd::with_simd(false, || microkernel_secs(&a, &b, &mut scalar))
    } else {
        micro_secs
    };
    let flops = (2 * M * K * N * ITERS) as f64;
    GemmBench {
        shape: format!("{M}x{K}x{N}"),
        naive_gflops: flops / naive_secs / 1e9,
        scalar_tile_gflops: flops / scalar_secs / 1e9,
        microkernel_gflops: flops / micro_secs / 1e9,
        microkernel_speedup: naive_secs / micro_secs,
        simd_speedup: scalar_secs / micro_secs,
    }
}

/// Seconds per epoch of the smoke-scale classifier (12 sequences of 40
/// steps × 13 features, hidden 48, 4 classes, 8 epochs, one worker) at the
/// given minibatch size.
fn lstm_epoch_secs(batch_size: usize) -> f64 {
    let input = 13;
    let classes = 4;
    let epochs = 8;
    let data: Vec<ml::SeqExample> = (0..12)
        .map(|i| {
            let features: Vec<Vec<f32>> = (0..40)
                .map(|t| {
                    (0..input)
                        .map(|d| ((i * 37 + t * 11 + d * 3) % 17) as f32 / 17.0)
                        .collect()
                })
                .collect();
            let labels: Vec<usize> = (0..40).map(|t| (i + t) % classes).collect();
            ml::SeqExample::new(features, labels)
        })
        .collect();
    let mut cfg = ml::SeqClassifierConfig::new(input, 48, classes);
    cfg.epochs = epochs;
    cfg.batch_size = batch_size;
    let start = Instant::now();
    ml::SequenceClassifier::new(cfg).fit(&data);
    start.elapsed().as_secs_f64() / epochs as f64
}

fn main() {
    let (gemm, packing) = ml::par::with_threads(1, || {
        let gemm = gemm_bench();
        let per_seq = lstm_epoch_secs(1);
        let packed = lstm_epoch_secs(4);
        (
            gemm,
            PackingBench {
                per_seq_secs_per_epoch: per_seq,
                packed_secs_per_epoch: packed,
                speedup: per_seq / packed,
            },
        )
    });

    println!(
        "gemm {}: naive {:.2} GFLOP/s, scalar tile {:.2} GFLOP/s, microkernel {:.2} GFLOP/s \
         ({:.2}x over naive, {:.2}x over scalar tile)",
        gemm.shape,
        gemm.naive_gflops,
        gemm.scalar_tile_gflops,
        gemm.microkernel_gflops,
        gemm.microkernel_speedup,
        gemm.simd_speedup
    );
    println!(
        "lstm epoch: per-sequence {:.4}s, packed {:.4}s ({:.2}x)",
        packing.per_seq_secs_per_epoch, packing.packed_secs_per_epoch, packing.speedup
    );

    let path = "BENCH_pipeline.json";
    bench::merge_bench_json(path, &[("gemm", &gemm), ("lstm_packing", &packing)]);
    println!("gemm + lstm_packing -> {path}");
}
