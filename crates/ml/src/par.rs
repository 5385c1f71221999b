//! Deterministic data-parallel execution primitives.
//!
//! Parallel calls run on a lazily-initialized persistent worker pool
//! ([`pool`]): workers spawn once and park on a condvar, so a dispatch
//! costs an enqueue + wake. The core guarantee is that results are
//! **thread-count invariant**: [`par_map`] returns results in input order
//! regardless of how work was distributed, so any caller that combines them
//! in that order is bitwise reproducible across `1..=N` threads. Callers
//! that need associativity-sensitive reductions (e.g. floating-point sums)
//! must therefore fold the returned `Vec` serially. With one worker every
//! call runs serially on the calling thread; that serial path is the
//! reference the determinism tests compare the pool against. All `unsafe`
//! in the workspace's parallel machinery lives in [`pool`] (leaky-lint rule
//! D5 enforces the confinement).
//!
//! The worker count is resolved by [`threads`]:
//!
//! 1. a [`with_threads`] scope on the calling thread;
//! 2. the process default, resolved once: the `LEAKY_DNN_THREADS`
//!    environment variable capped at the detected hardware parallelism, or
//!    that parallelism when the variable is unset or invalid. Every
//!    workload here is CPU-bound and bitwise thread-count invariant, so
//!    workers beyond the core count can only add context-switch and
//!    cache-thrash overhead, never speed.
//!
//! [`with_threads`] is *not* capped: tests use it to force the parallel
//! code paths on single-core machines, which the invariance guarantee makes
//! safe.
//!
//! # Examples
//!
//! ```
//! let squares = ml::par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::cell::Cell;
use std::sync::OnceLock;

pub mod pool;
pub mod thresholds;

/// The process default worker count (module docs, step 2). Cached because
/// every dispatch and every GEMM asks for it, and std re-probes the host
/// (on Linux possibly reading cgroup files) on each call.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Per-thread scope override installed by [`with_threads`]; 0 = unset.
    /// Thread-local (rather than process-wide) so concurrent callers — e.g.
    /// parallel test threads — cannot observe each other's scopes, and so
    /// nesting needs no reentrant lock.
    static SCOPE_OVERRIDE: Cell<usize> = const { Cell::new(0) };

    /// Set on pool worker threads so nested [`par_map`] calls run serially
    /// instead of oversubscribing the machine.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Resolves the worker count for subsequent parallel calls on this thread:
/// 1 on a pool worker (nested parallelism is serialized), else the
/// [`with_threads`] scope, else the process default (module docs).
pub fn threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    match SCOPE_OVERRIDE.with(Cell::get) {
        0 => *DEFAULT_THREADS.get_or_init(|| {
            let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
            std::env::var("LEAKY_DNN_THREADS")
                .ok()
                .and_then(|v| resolve_env_threads(&v, hw))
                .unwrap_or(hw)
        }),
        scoped => scoped,
    }
}

/// Parses a `LEAKY_DNN_THREADS` value against the detected hardware
/// parallelism `hw`. Returns `None` for unparseable or zero values (callers
/// fall back to `hw`); positive values are capped at `hw` — the env var
/// tunes real machines, so oversubscription is never useful there, unlike
/// the uncapped [`with_threads`] scopes tests use to force multi-worker
/// paths on small boxes (see the module docs).
fn resolve_env_threads(val: &str, hw: usize) -> Option<usize> {
    match val.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n.min(hw)),
        _ => None,
    }
}

/// Runs `f` with this thread's worker count pinned to `n`, restoring the
/// previous scope afterwards (also on panic). Nests freely.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPE_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Marks the calling thread as a resident pool worker for the rest of its
/// life: nested parallel calls run serially ([`threads`] reports 1) instead
/// of oversubscribing the machine.
fn enter_worker_context() {
    IN_POOL.with(|c| c.set(true));
}

/// Marks the calling thread as executing pool chunks for the duration of
/// the returned guard (the dispatcher helping drain its own job): nested
/// parallel calls serialize exactly as they do on resident workers.
fn enter_pool_scope() -> impl Drop {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL.with(|c| c.set(self.0));
        }
    }
    Restore(IN_POOL.with(|c| c.replace(true)))
}

/// Maps `f` over `items` on up to [`threads`] workers, returning results in
/// input order.
///
/// The items are divided into a static chunk partition (a pure function of
/// worker count and item count) whose chunks are claimed dynamically and
/// write into pre-assigned output slots, so the result is identical for any
/// worker count. A panic inside `f` propagates to the caller once the whole
/// dispatch has drained.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    pool::par_map_pooled(items, &f, workers)
}

/// Like [`par_map`], but stays on the calling thread when `work` — any
/// caller-chosen unit: items, samples, rows — is below `min_work`.
///
/// Even a pool dispatch is not free (enqueue, wake, completion latch —
/// single-digit microseconds; the `pool` section of `BENCH_pipeline.json`
/// tracks it); for small inputs the fan-out is pure overhead. Results are
/// bitwise identical on either path, so the gate is purely a scheduling
/// decision.
pub fn par_map_if_work<T, R, F>(work: usize, min_work: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if work < min_work {
        items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
    } else {
        par_map(items, f)
    }
}

/// Maps `f` over `items` **in place** on up to [`threads`] workers,
/// returning the per-item results in input order.
///
/// The mutable counterpart of [`par_map`] for element-wise state machines
/// (e.g. the fleet orchestrator advancing per-session simulations): the
/// slice is statically partitioned into disjoint contiguous chunks, so
/// every element is visited exactly once with exclusive access. As long as
/// `f` is a pure function of the element (no shared mutable state), results
/// and final element states are bitwise identical for any worker count.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    pool::par_map_mut_pooled(items, &f, workers)
}

/// Runs two closures, concurrently when more than one worker is available,
/// and returns both results.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if threads() <= 1 {
        return (a(), b());
    }
    pool::join_pooled(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for n in [1usize, 2, 3, 8] {
            let out = with_threads(n, || par_map(&items, |i, &x| (i, x * 2)));
            for (i, &(idx, doubled)) in out.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(doubled, 2 * i);
            }
        }
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        let items: Vec<f32> = (0..100).map(|i| i as f32 * 0.37).collect();
        let one = with_threads(1, || par_map(&items, |_, &x| x.sin() * x.cos()));
        for n in [2usize, 4, 7, 16] {
            let many = with_threads(n, || par_map(&items, |_, &x| x.sin() * x.cos()));
            assert_eq!(one, many, "results differ at {} threads", n);
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn with_threads_restores_override_after_nesting() {
        let before = SCOPE_OVERRIDE.with(Cell::get);
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(5, || assert_eq!(threads(), 5));
            assert_eq!(threads(), 3);
        });
        assert_eq!(SCOPE_OVERRIDE.with(Cell::get), before);
    }

    #[test]
    fn with_threads_restores_override_on_panic() {
        let before = SCOPE_OVERRIDE.with(Cell::get);
        let result = std::panic::catch_unwind(|| with_threads(9, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(SCOPE_OVERRIDE.with(Cell::get), before);
    }

    #[test]
    fn pool_workers_report_single_thread() {
        let flags = with_threads(4, || par_map(&[0u8; 8], |_, _| threads()));
        assert!(flags.iter().all(|&n| n == 1), "workers saw {:?}", flags);
    }

    #[test]
    fn par_map_if_work_agrees_on_both_paths() {
        let items: Vec<f32> = (0..64).map(|i| i as f32 * 0.31).collect();
        let serial = par_map_if_work(10, 1000, &items, |_, &x| x.sin() * 3.0);
        let parallel = with_threads(4, || {
            par_map_if_work(5000, 1000, &items, |_, &x| x.sin() * 3.0)
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_mut_visits_every_element_once_in_order() {
        for n in [1usize, 2, 3, 8] {
            let mut items: Vec<usize> = (0..257).collect();
            let out = with_threads(n, || {
                par_map_mut(&mut items, |i, x| {
                    *x += 1;
                    (i, *x)
                })
            });
            assert_eq!(items, (1..258).collect::<Vec<_>>(), "at {} threads", n);
            for (i, &(idx, v)) in out.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(v, i + 1);
            }
        }
    }

    #[test]
    fn par_map_mut_handles_empty_and_singleton() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut(&mut empty, |_, x| *x).is_empty());
        let mut one = [41u32];
        assert_eq!(par_map_mut(&mut one, |_, x| *x + 1), vec![42]);
    }

    #[test]
    fn join_returns_both_results() {
        for n in [1usize, 4] {
            let (a, b) = with_threads(n, || join(|| 6 * 7, || "side".len()));
            assert_eq!(a, 42);
            assert_eq!(b, 4);
        }
    }

    #[test]
    fn nested_par_map_stays_correct() {
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..10).collect();
        let out = with_threads(4, || {
            par_map(&outer, |_, &i| {
                par_map(&inner, |_, &j| i * 10 + j).iter().sum::<usize>()
            })
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..10).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn env_thread_requests_are_capped_at_hardware_parallelism() {
        assert_eq!(resolve_env_threads("16", 4), Some(4));
        assert_eq!(resolve_env_threads("64", 1), Some(1));
    }

    #[test]
    fn env_thread_requests_below_the_cap_pass_through() {
        assert_eq!(resolve_env_threads("2", 8), Some(2));
        assert_eq!(resolve_env_threads(" 3 ", 4), Some(3));
        assert_eq!(resolve_env_threads("8", 8), Some(8));
    }

    #[test]
    fn zero_or_garbage_env_threads_fall_back() {
        assert_eq!(resolve_env_threads("0", 4), None);
        assert_eq!(resolve_env_threads("", 4), None);
        assert_eq!(resolve_env_threads("lots", 4), None);
        assert_eq!(resolve_env_threads("-2", 4), None);
        assert_eq!(resolve_env_threads("3.5", 4), None);
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |i, _| {
                    if i == 17 {
                        panic!("worker 17 failed");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn pooled_and_serial_paths_agree_bitwise() {
        let items: Vec<f32> = (0..321).map(|i| i as f32 * 0.41).collect();
        let run = |n| {
            with_threads(n, || {
                let mapped = par_map(&items, |i, &x| x.sin().mul_add(x.cos(), i as f32));
                let mut state: Vec<f32> = items.clone();
                let mutated = par_map_mut(&mut state, |_, x| {
                    *x = x.exp_m1();
                    *x
                });
                let (a, b) = join(|| items.iter().sum::<f32>(), || items.len());
                (mapped, state, mutated, a, b)
            })
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn join_propagates_local_closure_panic_without_losing_remote_side() {
        // The local (`a`) side panicking must still drain the remote job
        // before the borrowed frame unwinds — and the next dispatch must
        // work normally.
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                join(
                    || panic!("local side failed"),
                    || std::hint::black_box(7) * 6,
                )
            })
        });
        assert!(result.is_err());
        let (a, b) = with_threads(4, || join(|| 1 + 1, || 2 + 2));
        assert_eq!((a, b), (2, 4));
    }
}
