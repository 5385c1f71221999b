//! Worker-pool dispatch bench.
//!
//! Results of `ml::par` are bitwise identical at any worker count (asserted
//! here before any timing is trusted); what a parallel region adds is the
//! cost of *starting* it: an enqueue + condvar wake against the resident
//! pool workers. This bench measures that per-dispatch overhead directly —
//! a tiny fixed-work `par_map` repeated many times, so per-item work is
//! noise and the dispatch machinery dominates — plus the small-work
//! `par_map` dispatch rate the `MIN_PARALLEL_*` thresholds are calibrated
//! against (`ml::par::thresholds` documents the numbers).
//!
//! Merges a `pool` section into `BENCH_pipeline.json` without touching the
//! other binaries' sections. CI gates `pool_dispatch_us < 50`, below every
//! recorded per-call scoped-spawn dispatch (85–122 us, DESIGN.md §15).
//!
//! Run: `cargo run -p bench --release --bin pool_bench`
//! (the worker count is forced to 4 via `ml::par::with_threads` so the pool
//! engages even on a single-core CI box).

use std::time::Instant;

use serde::Serialize;

#[derive(Serialize)]
struct PoolBench {
    /// Worker count forced for every measurement.
    workers: usize,
    /// Dispatches timed for the overhead numbers.
    dispatches: usize,
    /// Mean microseconds per tiny-work `par_map` dispatch — CI gates `< 50`.
    pool_dispatch_us: f64,
    /// Items per small-work dispatch in the throughput measurement.
    small_work_items: usize,
    /// Small-work `par_map` dispatches per second through the pool.
    small_work_dispatches_per_sec: f64,
    /// Mean microseconds per `join` through the pool.
    join_pool_us: f64,
}

/// Mean seconds per iteration of `f` over `iters` runs.
fn per_call_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    const WORKERS: usize = 4;
    let items: Vec<f32> = (0..8).map(|i| i as f32 * 0.83).collect();
    let small: Vec<f32> = (0..64).map(|i| i as f32 * 0.31).collect();
    let tiny_map = |items: &[f32]| ml::par::par_map(items, |i, &x| x.mul_add(1.0009, i as f32));

    // Pool-vs-serial equality first: timing a divergent dispatch would be
    // meaningless. Also warms the pool (first dispatch spawns workers) so
    // lazy-init cost stays out of the steady-state numbers.
    let pooled = ml::par::with_threads(WORKERS, || tiny_map(&items));
    let serial = ml::par::with_threads(1, || tiny_map(&items));
    assert_eq!(pooled, serial, "pooled dispatch diverged from serial");

    let iters = 4000;
    let (pool_dispatch, join_pool, small_rate) = ml::par::with_threads(WORKERS, || {
        let pool_dispatch = per_call_secs(iters, || {
            std::hint::black_box(tiny_map(&items));
        });
        let join_pool = per_call_secs(iters, || {
            std::hint::black_box(ml::par::join(|| 1 + 1, || 2 + 2));
        });
        let small_secs = per_call_secs(iters, || {
            std::hint::black_box(tiny_map(&small));
        });
        (pool_dispatch, join_pool, 1.0 / small_secs)
    });

    let bench = PoolBench {
        workers: WORKERS,
        dispatches: iters,
        pool_dispatch_us: pool_dispatch * 1e6,
        small_work_items: small.len(),
        small_work_dispatches_per_sec: small_rate,
        join_pool_us: join_pool * 1e6,
    };
    println!(
        "pool dispatch: {:.1} us, join {:.1} us, {:.0} small-work dispatches/s",
        bench.pool_dispatch_us, bench.join_pool_us, bench.small_work_dispatches_per_sec,
    );

    let path = "BENCH_pipeline.json";
    bench::merge_bench_json(path, &[("pool", &bench)]);
    println!("pool -> {path}");
}
