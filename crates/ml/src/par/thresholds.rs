//! Work-size gates for every parallel fan-out in the workspace.
//!
//! Each [`super::par_map`]/[`super::par_map_if_work`] call dispatches to
//! the persistent worker pool ([`super::pool`]) — an enqueue plus a condvar
//! wake — so every parallel site gates on a minimum amount of work below
//! which it stays serial. Results are bitwise identical on either path (the
//! pool is thread-count invariant), so each threshold is purely a
//! scheduling decision — but a *scattered* one is impossible to audit or
//! retune. This module is the single home for all of them, enforced
//! statically by `leaky-lint` rule A4 (`threshold-confinement`): a
//! `MIN_PARALLEL_*` constant declared anywhere else in the workspace is a
//! lint error.
//!
//! A fan-out that no workload reaches is deleted, not gated:
//! `SequenceClassifier::fit`, whose pipeline minibatches hold 4 sequences,
//! runs each minibatch on the calling thread.
//!
//! Tuning provenance: the values below were retuned for the pool-era
//! dispatch cost measured by the `pool` section of `BENCH_pipeline.json` on
//! the 1-core CI reference box — ~0.6 us per tiny `par_map` dispatch and
//! ~2 us per `join`, versus ~85 us per dispatch (tens of microseconds per
//! spawned worker) on the retired scoped-spawn backend the previous, 4-8x
//! higher values were calibrated against. DESIGN.md §15 has the
//! before/after table. The gates trade nothing but scheduling overhead, so
//! retuning them can never change any result bitwise.

/// Minimum number of feature rows in the base iteration before extraction
/// fans the five `Mhp` heads out over the worker pool (`moscons::attack`).
///
/// The scoped-spawn era measured the `attack_extract` stage at a 0.81x
/// "speedup" (i.e. a slowdown) at quick scale and gated at 2048 rows. A
/// ~0.6 us pool dispatch is amortized across a few hundred GBDT ensemble
/// walks, so quick-scale streams (hundreds to low thousands of rows) now
/// fan out too; only degenerate faulted traces stay serial.
pub const MIN_PARALLEL_EXTRACT_ROWS: usize = 256;

/// Minimum multiply-add count before `ml::matrix`'s blocked GEMM fans its
/// row blocks out over the worker pool. Products below this are not worth
/// dispatching for; the blocked and serial paths accumulate in the same
/// order and are bitwise equal.
///
/// At the few-flops-per-nanosecond serial rate of the scalar kernel,
/// `1 << 13` multiply-adds is a couple of microseconds of work — several
/// times the measured pool dispatch cost, the same overhead multiple the
/// scoped-era `1 << 15` bought against its ~10x-costlier spawns.
pub const MIN_PARALLEL_GEMM_FLOPS: usize = 1 << 13;

#[cfg(test)]
mod tests {
    use super::*;

    /// The gates are scheduling knobs, not correctness knobs — but they do
    /// have sanity ranges: zero would re-enable fan-out on trivial inputs
    /// where even a pool dispatch is pure overhead, and scoped-era
    /// magnitudes would silently serialize work the pool now wins on.
    #[test]
    #[allow(clippy::assertions_on_constants)] // asserting consts is the point
    fn thresholds_are_in_sane_ranges() {
        assert!((64..=2048).contains(&MIN_PARALLEL_EXTRACT_ROWS));
        assert!((1 << 10..=1 << 15).contains(&MIN_PARALLEL_GEMM_FLOPS));
    }

    /// The extraction gate admits quick-scale victim streams (hundreds to
    /// low thousands of rows) that the scoped-era 2048 gate kept serial,
    /// while still rejecting degenerate faulted traces.
    #[test]
    #[allow(clippy::assertions_on_constants)] // asserting consts is the point
    fn extract_gate_separates_degenerate_from_quick_scale() {
        assert!(MIN_PARALLEL_EXTRACT_ROWS > 64); // degenerate traces stay serial
        assert!(MIN_PARALLEL_EXTRACT_ROWS <= 500); // quick scale fans out
    }
}
