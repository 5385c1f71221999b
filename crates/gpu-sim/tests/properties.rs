//! Property-based tests for the GPU substrate's invariants.

use gpu_sim::cache::{InsertKind, OccupancyL2, SetAssocCache};
use gpu_sim::{Gpu, GpuConfig, KernelDesc, KernelFootprint, SchedulerMode};
use testkit::gen::{bool_with, f64_in, u64_in, usize_in, vec_of, zip3, zip4};
use testkit::prop::holds;

#[test]
fn occupancy_model_invariants_hold_under_any_op_sequence() {
    // One op per tuple `(drain, ctx, kind, bytes)`: a drain of `bytes` from
    // `ctx` when `drain` is set, otherwise an insert of the given kind.
    let op = zip4(
        bool_with(0.5),
        usize_in(0, 2),
        usize_in(0, 2),
        f64_in(0.0, 2e6),
    );
    testkit::check("occupancy_invariants", &vec_of(op, 1, 59), |ops| {
        let capacity = 1_000_000.0;
        let mut l2 = OccupancyL2::new(capacity);
        let mut evicted = Vec::new();
        for _ in 0..3 {
            l2.add_context();
        }
        for &(drain, ctx, kind, bytes) in ops {
            if drain {
                let drained = l2.drain_dirty(ctx, bytes);
                holds(
                    drained >= 0.0 && drained <= bytes + 1e-6,
                    format!("drained {drained} of {bytes}"),
                )?;
            } else {
                let kind = match kind {
                    0 => InsertKind::GlobalClean,
                    1 => InsertKind::GlobalDirty,
                    _ => InsertKind::Tex,
                };
                l2.insert(ctx, kind, bytes, &mut evicted);
                // Evicted dirty bytes are non-negative and bounded.
                holds(
                    evicted
                        .iter()
                        .all(|&(_, b)| b >= 0.0 && b <= capacity + 1.0),
                    "dirty eviction out of bounds",
                )?;
            }
            // Global invariants after every step.
            holds(
                l2.total() <= capacity * (1.0 + 1e-9),
                format!("over capacity: {}", l2.total()),
            )?;
            for c in 0..3 {
                let occ = l2.occupancy(c);
                holds(
                    occ.global_clean >= -1e-6 && occ.global_dirty >= -1e-6 && occ.tex >= -1e-6,
                    format!("negative occupancy in context {c}"),
                )?;
            }
        }
        Ok(())
    });
}

#[test]
fn set_assoc_cache_never_exceeds_capacity() {
    let access = zip3(usize_in(0, 2), u64_in(0, 999_999), bool_with(0.5));
    testkit::check("set_assoc_capacity", &vec_of(access, 1, 399), |accesses| {
        let mut cache = SetAssocCache::new(64, 4, 32);
        let max_sectors = 64 * 4;
        for &(owner, addr, write) in accesses {
            cache.access(owner as u16, addr, write);
            let resident: usize = (0..3).map(|o| cache.resident_sectors(o)).sum();
            holds(
                resident <= max_sectors,
                format!("{resident} sectors resident"),
            )?;
        }
        let (hits, misses, writebacks) = cache.stats();
        holds(writebacks <= misses, "more writebacks than misses")?;
        holds(hits + misses > 0, "no accesses counted")
    });
}

#[test]
fn engine_time_is_monotone_and_kernels_complete() {
    let cases = zip3(f64_in(100.0, 5_000.0), usize_in(1, 5), u64_in(0, 499));
    testkit::check(
        "engine_monotone_time",
        &cases,
        |&(work_us, n_kernels, seed)| {
            let mut cfg = GpuConfig::gtx_1080_ti().with_seed(seed);
            cfg.counter_noise = 0.02;
            let mut gpu = Gpu::new(cfg.clone(), SchedulerMode::TimeSliced);
            let ctx = gpu.add_context("v");
            for i in 0..n_kernels {
                let fp = KernelFootprint {
                    flops: cfg.compute_throughput * work_us,
                    read_bytes: 1e5,
                    write_bytes: 1e4,
                    tex_read_bytes: 0.0,
                    working_set: 1e5,
                    tex_working_set: 0.0,
                };
                gpu.enqueue(ctx, KernelDesc::new(format!("k{}", i), 56, 1024, fp));
            }
            let mut last = gpu.now_us();
            for _ in 0..200 {
                gpu.run_for(1_000.0);
                holds(gpu.now_us() >= last, "simulated time went backwards")?;
                last = gpu.now_us();
                if !gpu.has_pending_work() {
                    break;
                }
            }
            gpu.run_until_queues_drain();
            // All kernels completed exactly once, in order.
            holds(
                gpu.kernels_completed(ctx) == n_kernels as u64,
                "kernel completion count",
            )?;
            let log = gpu.kernel_log();
            holds(log.len() == n_kernels, "kernel log length")?;
            holds(
                log.windows(2).all(|w| w[1].start_us >= w[0].end_us - 1e-6),
                "kernels overlap on one stream",
            )?;
            // Counters are non-negative.
            let c = gpu.context_counters(ctx);
            holds(c.as_array().iter().all(|&v| v >= 0.0), "negative counter")
        },
    );
}

#[test]
fn counter_slices_are_well_formed() {
    testkit::check("counter_slices", &u64_in(0, 199), |&seed| {
        let cfg = GpuConfig::gtx_1080_ti().with_seed(seed);
        let mut gpu = Gpu::new(cfg.clone(), SchedulerMode::TimeSliced);
        let a = gpu.add_context("a");
        let b = gpu.add_context("b");
        gpu.monitor(b);
        let fp = KernelFootprint {
            flops: cfg.compute_throughput * 400.0,
            read_bytes: 5e5,
            write_bytes: 1e5,
            tex_read_bytes: 1e5,
            working_set: 4e5,
            tex_working_set: 1e5,
        };
        gpu.enqueue(a, KernelDesc::new("victim", 56, 1024, fp));
        gpu.set_auto_repeat(b, KernelDesc::new("spy", 4, 32, fp));
        gpu.run_for(20_000.0);
        let mut last_end = 0.0f64;
        for s in gpu.counter_trace() {
            holds(
                s.ctx.index() == b.index(),
                "slice of an unmonitored context",
            )?;
            holds(s.end_us >= s.start_us, "inverted slice")?;
            holds(s.start_us >= last_end - 1e-6, "slices out of order")?;
            last_end = s.end_us;
            holds(
                s.delta.as_array().iter().all(|&v| v >= 0.0),
                "negative counter delta",
            )?;
        }
        Ok(())
    });
}
