//! Persistent deterministic worker pool — the one parallel backend behind
//! [`super::par_map`], [`super::par_map_mut`] and [`super::join`], and the
//! only place in the workspace that creates threads (leaky-lint rule D3).
//!
//! # Why a pool
//!
//! Spawning fresh threads per call costs tens of microseconds per worker,
//! and the hot loops here — one fleet lockstep round
//! (`moscons::fleet::run_fleet`), one GEMM row block — issue thousands of
//! small dispatches. The pool spawns workers once, parks them on a condvar,
//! and amortizes thread startup across the whole attack: a dispatch is an
//! enqueue + wake, not N `clone(2)` syscalls.
//!
//! # Determinism by static partition
//!
//! A dispatch divides the `n` items into a **chunk partition that is a pure
//! function of the requested worker count and `n`** (`chunk_layout`).
//! Each chunk covers a fixed contiguous index range and writes its results
//! into pre-assigned output slots; which thread executes which chunk is a
//! scheduling accident, the `(index, item) -> slot` mapping never varies.
//! Since every job closure is a pure function of its index and item (the
//! [`super`] contract), results are bitwise identical for any worker count
//! and any claim interleaving, by construction.
//!
//! # Lifetime erasure and the safety argument
//!
//! Pool workers are `'static` threads, but jobs borrow the caller's stack
//! (the item slice, the closure, the output buffer). The borrow is erased to
//! a raw pointer for the trip through the queue, which is the one `unsafe`
//! trick in this module (the rest is slot-buffer plumbing around it), and it
//! is sound because of a single structural guarantee:
//!
//! > **A dispatch does not return — normally or by unwind — until every
//! > chunk of its job has finished running.**
//!
//! `dispatch` enqueues, helps run chunks itself, then blocks on the job's
//! completion latch; the `JobGuard` returned by `enqueue` enforces the
//! same wait from its `Drop` impl, so even a panic on the dispatching thread
//! cannot unwind the borrowed frames while a worker still holds the erased
//! pointer. Workers touch the pointer only while executing a claimed chunk,
//! and chunks can only be claimed before the latch closes. Every `unsafe`
//! block below carries its own `SAFETY:` comment tying it back to this
//! argument; leaky-lint rule D5 confines `unsafe` to this file and
//! `ml::simd`.
//!
//! # Panic containment
//!
//! A panicking job closure must not kill a pool worker (the worker is shared
//! state for every later dispatch) and must not deadlock the dispatcher.
//! Each chunk runs under `catch_unwind`; the first payload is parked in the
//! job and re-raised on the *dispatching* thread once the whole job has
//! drained, so a panic reaches the caller as if the closure had run on its
//! thread, while the workers live on. Output slots written before a panic
//! are leaked, not dropped — the completion state does not record which
//! individual slots were initialized, and leaking on the panic path is
//! strictly safer than guessing.

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Target chunks per requested worker. More chunks than workers lets the
/// dynamic *claiming* (not the partition, which stays static) load-balance
/// uneven items — e.g. the profiling tail schedules its five oversized
/// `Mhp` tasks first and small chunks let fast workers take up the slack.
const CHUNKS_PER_WORKER: usize = 4;

/// Hard cap on resident pool threads. Tests force worker counts well above
/// the core count (`with_threads(8)` on a 1-core box is routine and safe);
/// the cap only exists so a pathological override cannot spawn unbounded
/// OS threads.
const MAX_POOL_THREADS: usize = 256;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// The static chunk partition: for `n` items at a requested worker count
/// `workers`, returns `(chunk_size, chunk_count)`. Pure function of its
/// inputs — this is what makes pool results thread-count invariant by
/// construction (module docs).
fn chunk_layout(workers: usize, n: usize) -> (usize, usize) {
    debug_assert!(n > 0);
    let target = workers.saturating_mul(CHUNKS_PER_WORKER).clamp(1, n.max(1));
    let size = n.div_ceil(target);
    (size, n.div_ceil(size))
}

/// One dispatched job: the lifetime-erased chunk runner plus claim and
/// completion state. Shared `Arc`-style between the dispatcher and the
/// workers; the raw `run` pointer is only dereferenced for chunk indices
/// claimed before the completion latch closes (see the module docs).
struct Job {
    /// Erased `&(dyn Fn(usize) + Sync)` borrowed from the dispatching
    /// frame. Valid until `done == chunks` is observed by the dispatcher,
    /// which blocks until then.
    run: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Total chunks in the partition.
    chunks: usize,
    /// Completed chunks; the job is finished when this reaches `chunks`.
    done: AtomicUsize,
    /// First panic payload raised by any chunk, re-raised by the dispatcher.
    panic: Mutex<Option<PanicPayload>>,
    /// Completion latch: `cv` is signalled under `wait` when the last chunk
    /// finishes.
    wait: Mutex<()>,
    cv: Condvar,
}

// Shared between the dispatching thread and pool workers; the raw `run`
// pointer targets a `Sync` closure whose frame the dispatcher keeps alive
// until the completion latch closes (module docs).
// SAFETY: every field is atomic, lock-protected, or the `Sync` closure, so
// cross-thread moves and shared `&`-calls are sound.
unsafe impl Send for Job {}
// SAFETY: see the `Send` argument above — shared access is `&self` only and
// every field is either atomic, lock-protected, or the `Sync` closure.
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next unexecuted chunk, if any.
    fn claim(&self) -> Option<usize> {
        // Over-increment past `chunks` is bounded by the number of claiming
        // threads and harmless: claimed-but-out-of-range indices run nothing.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.chunks).then_some(i)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.chunks
    }

    /// Runs one claimed chunk, containing any panic, and signals the
    /// completion latch when it was the last one.
    fn run_chunk(&self, ci: usize) {
        // SAFETY: `ci` was claimed before the completion latch closed, so
        // the dispatcher still blocks in `JobGuard` and the borrowed closure
        // is alive; it is `Sync`, so concurrent chunk calls are sound.
        let run = unsafe { &*self.run };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(ci))) {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(payload);
        }
        // AcqRel chains every chunk's slot writes into the release sequence
        // the dispatcher's Acquire load of the final count synchronizes with.
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.chunks {
            let _latch = self.wait.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }
}

struct Shared {
    /// FIFO of live jobs. A job stays queued until its chunks are all
    /// claimed; concurrent dispatches from independent threads simply
    /// coexist in the queue.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Wakes parked workers when a job arrives.
    work_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Worker threads spawned so far (grow-only, capped).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn global() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Grows the resident worker set to at least `target` threads (capped at
    /// [`MAX_POOL_THREADS`]). Workers are spawned lazily on first demand and
    /// never exit; a failed OS spawn degrades capacity instead of panicking —
    /// the dispatcher always helps run its own job, so completion never
    /// depends on pool threads existing at all.
    fn ensure_workers(&self, target: usize) {
        let target = target.min(MAX_POOL_THREADS);
        let mut spawned = self.spawned.lock().unwrap_or_else(|e| e.into_inner());
        while *spawned < target {
            let shared = Arc::clone(&self.shared);
            let builder = std::thread::Builder::new().name(format!("leaky-pool-{}", *spawned));
            if builder.spawn(move || worker_loop(&shared)).is_err() {
                break;
            }
            *spawned += 1;
        }
    }
}

/// The resident worker body: park on the condvar until a job shows up,
/// claim and run chunks until the front job drains, repeat forever.
fn worker_loop(shared: &Shared) {
    // Workers run nested `par_map`/`join` calls serially instead of
    // re-dispatching (oversubscription, never divergence — `super::threads`
    // reports 1 inside the pool).
    super::enter_worker_context();
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                while q.front().is_some_and(|j| j.exhausted()) {
                    q.pop_front();
                }
                if let Some(job) = q.front() {
                    break Arc::clone(job);
                }
                q = shared.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        while let Some(ci) = job.claim() {
            job.run_chunk(ci);
        }
    }
}

/// An enqueued job the current thread is responsible for draining. Dropping
/// the guard (including during an unwind of the dispatcher's own code)
/// helps finish the job and blocks until every chunk has run — the
/// structural guarantee the lifetime erasure rests on.
struct JobGuard {
    job: Arc<Job>,
}

impl JobGuard {
    /// Claims and runs chunks on the calling thread, then blocks until the
    /// stragglers finish. The dispatcher counts as a worker: even with zero
    /// pool threads the job completes.
    fn help_and_wait(&self) {
        // Chunks executed by the dispatcher observe the same pool context
        // as worker threads: nested parallel calls stay serial.
        let _ctx = super::enter_pool_scope();
        while let Some(ci) = self.job.claim() {
            self.job.run_chunk(ci);
        }
        drop(_ctx);
        let mut latch = self.job.wait.lock().unwrap_or_else(|e| e.into_inner());
        while !self.job.finished() {
            latch = self.job.cv.wait(latch).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drains the job and re-raises the first chunk panic, if any.
    fn finish(self) {
        self.help_and_wait();
        let payload = self
            .job
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        // Disarm the drop guard before unwinding: the job is already drained.
        std::mem::forget(self);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        // Reached only when the dispatcher's own code unwound between
        // enqueue and finish (e.g. a panicking `join` closure on the local
        // side). The job must still drain before the borrowed frames die;
        // any chunk panic is swallowed because one unwind is already in
        // flight. `run_chunk` never panics itself, so this Drop cannot
        // double-panic.
        self.help_and_wait();
    }
}

/// Enqueues a lifetime-erased job over `chunks` chunks and wakes up to
/// `workers - 1` pool threads to help. The caller MUST drain the returned
/// guard before `run`'s frame dies; the guard's `Drop` enforces it.
fn enqueue(workers: usize, chunks: usize, run: &(dyn Fn(usize) + Sync)) -> JobGuard {
    // SAFETY: lifetime erasure only — the pointee is kept alive by the
    // dispatching frame, and `JobGuard` (drained by `finish` or `Drop`)
    // guarantees that frame outlives every dereference (module docs).
    let run: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync + 'static)>(
            run,
        )
    };
    let job = Arc::new(Job {
        run,
        next: AtomicUsize::new(0),
        chunks,
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        wait: Mutex::new(()),
        cv: Condvar::new(),
    });
    let pool = global();
    pool.ensure_workers(workers.saturating_sub(1));
    {
        let mut q = pool.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(Arc::clone(&job));
    }
    pool.shared.work_cv.notify_all();
    JobGuard { job }
}

/// Dispatches `run` over the static chunk partition and blocks until every
/// chunk has executed. Re-raises the first chunk panic on this thread.
fn dispatch(workers: usize, chunks: usize, run: &(dyn Fn(usize) + Sync)) {
    enqueue(workers, chunks, run).finish();
}

/// Raw-pointer wrapper that lets the chunk closures scatter results into
/// caller-owned buffers from worker threads.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct `.0` use inside the job closures) so
    /// edition-2021 disjoint capture moves the whole `SendPtr` — keeping
    /// the closure `Sync` via the wrapper instead of capturing the bare
    /// non-`Sync` raw pointer field.
    fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer targets a caller-owned buffer that outlives the job
// (`JobGuard` argument, module docs), every chunk writes a disjoint index
// range of it, and `T: Send` lets the written values cross threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared access is address arithmetic only (`.0.add(i)`); actual
// writes target disjoint per-chunk slots, see the `Send` argument.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The one pooled map body behind [`par_map_pooled`] and
/// [`par_map_mut_pooled`]: calls `produce(i)` exactly once for every `i` in
/// `0..n`, over the static chunk partition, and returns the results in
/// index order — bitwise identical to the serial loop.
fn pooled_map<R, P>(n: usize, workers: usize, produce: P) -> Vec<R>
where
    R: Send,
    P: Fn(usize) -> R + Sync,
{
    let (size, chunks) = chunk_layout(workers, n);
    let mut out: Vec<MaybeUninit<R>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let run = move |ci: usize| {
        let start = ci * size;
        let end = (start + size).min(n);
        for i in start..end {
            let value = produce(i);
            // SAFETY: chunk `ci` exclusively owns slots `start..end` (the
            // static partition is disjoint by construction) and `out` lives
            // until `dispatch` returns, which is after every chunk ran.
            unsafe { out_ptr.get().add(i).write(MaybeUninit::new(value)) };
        }
    };
    dispatch(workers, chunks, &run);
    // A chunk panic would have propagated out of `dispatch` above, leaking
    // (not dropping) any initialized slots — safe, and unreachable here.
    let mut out = std::mem::ManuallyDrop::new(out);
    // SAFETY: dispatch returned normally, so every slot `0..n` is initialized;
    // `MaybeUninit<R>` has `R`'s layout, and `ManuallyDrop` forfeits the old
    // ownership, so the allocation is owned exactly once.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) }
}

/// Pool backend of [`super::par_map`]: static chunk partition, results
/// written to pre-assigned slots, bitwise identical to the serial loop.
pub(super) fn par_map_pooled<T, R, F>(items: &[T], f: &F, workers: usize) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    pooled_map(items.len(), workers, |i| f(i, &items[i]))
}

/// Pool backend of [`super::par_map_mut`]: same static partition over
/// exclusive element access.
pub(super) fn par_map_mut_pooled<T, R, F>(items: &mut [T], f: &F, workers: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let items_ptr = SendPtr(items.as_mut_ptr());
    pooled_map(items.len(), workers, move |i| {
        // SAFETY: `pooled_map` calls this exactly once per `i < items.len()`,
        // so no element is aliased, and the exclusively borrowed slice
        // outlives the dispatch (JobGuard argument).
        let item = unsafe { &mut *items_ptr.get().add(i) };
        f(i, item)
    })
}

/// Pool backend of [`super::join`]: `b` is shipped to the pool as a
/// single-chunk job while `a` runs on the calling thread; the guard then
/// drains the job (running `b` locally if no worker picked it up yet).
pub(super) fn join_pooled<RA, RB>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let b_fn = Mutex::new(Some(b));
    let rb_slot: Mutex<Option<RB>> = Mutex::new(None);
    let run = |_ci: usize| {
        let Some(bf) = b_fn.lock().unwrap_or_else(|e| e.into_inner()).take() else {
            return; // single chunk: claimed exactly once, so never reached
        };
        let rb = bf();
        *rb_slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(rb);
    };
    let guard = enqueue(2, 1, &run);
    // If `a` panics, `guard`'s Drop still drains `b` before the borrowed
    // `b_fn`/`rb_slot` frames unwind.
    let ra = a();
    guard.finish();
    let rb = rb_slot
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .expect("single-chunk job ran to completion");
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_layout_is_pure_and_covers_all_items() {
        for workers in 1..=9 {
            for n in 1..=130 {
                let (size, chunks) = chunk_layout(workers, n);
                assert!(size >= 1);
                assert_eq!(chunks, n.div_ceil(size), "no empty tail chunks");
                assert!(size * chunks >= n, "partition covers every item");
                assert!(size * (chunks - 1) < n, "last chunk is non-empty");
                // Pure function: same inputs, same layout.
                assert_eq!((size, chunks), chunk_layout(workers, n));
            }
        }
    }

    #[test]
    fn chunk_layout_balances_more_chunks_than_workers() {
        let (_, chunks) = chunk_layout(2, 1000);
        assert_eq!(chunks, 2 * CHUNKS_PER_WORKER);
        // Tiny inputs degenerate to one item per chunk.
        let (size, chunks) = chunk_layout(8, 3);
        assert_eq!((size, chunks), (1, 3));
    }

    #[test]
    fn pooled_map_matches_serial_at_any_worker_count() {
        let items: Vec<f32> = (0..257).map(|i| i as f32 * 0.73).collect();
        let f = |i: usize, x: &f32| x.sin() * x.cos() + i as f32;
        let serial: Vec<f32> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for workers in [2usize, 3, 8] {
            assert_eq!(par_map_pooled(&items, &f, workers), serial);
        }
    }

    #[test]
    fn pooled_join_runs_both_sides() {
        for _ in 0..16 {
            let (a, b) = join_pooled(|| 6 * 7, || "side".len());
            assert_eq!((a, b), (42, 4));
        }
    }

    #[test]
    fn panicking_chunk_propagates_but_keeps_pool_alive() {
        let items: Vec<usize> = (0..64).collect();
        for round in 0..3 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_pooled(
                    &items,
                    &|i: usize, _: &usize| {
                        if i == 33 {
                            panic!("chunk bomb {round}");
                        }
                        i
                    },
                    4,
                )
            }));
            assert!(caught.is_err(), "panic must propagate to the dispatcher");
            // The very next dispatch must run normally on the same workers.
            let ok = par_map_pooled(&items, &|i: usize, &x: &usize| i + x, 4);
            assert_eq!(ok, (0..128).step_by(2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_dispatchers_share_the_queue() {
        // Two independent user threads dispatching at once: jobs coexist in
        // the FIFO and each dispatcher drains its own. (Plain threads here,
        // not the pool, precisely because the pool is the thing under test.)
        let results: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    s.spawn(move || {
                        let items: Vec<usize> = (0..200).map(|i| i + t * 1000).collect();
                        par_map_pooled(&items, &|_, &x: &usize| x * 2, 4)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        });
        for (t, out) in results.iter().enumerate() {
            let expect: Vec<usize> = (0..200).map(|i| (i + t * 1000) * 2).collect();
            assert_eq!(out, &expect);
        }
    }
}
