//! Explicit-lane SIMD kernels behind runtime CPU-feature dispatch.
//!
//! This is the only module in the workspace allowed to touch `core::arch`
//! (leaky-lint rule D8 enforces the confinement). Everything here obeys the
//! same contract as the scalar microkernel in [`crate::matrix`]: the `f32`
//! kernels are **bitwise identical** to the naive triple loop, because the
//! vectorization runs across the `TILE_N = 8` output-column lanes — eight
//! *independent* ascending-`k` accumulation chains — and never reorders or
//! fuses the per-element `mul`-then-`add` sequence. In particular FMA is
//! deliberately not used: `a.mul_add(b, c)` rounds once where `a * b + c`
//! rounds twice, which would change bit patterns.
//!
//! Dispatch is resolved once per process by [`enabled`]: a cached runtime
//! AVX2 check on x86_64; every other architecture always takes the scalar
//! path. The scalar path stays the reference: tests pin both paths against
//! each other through [`with_simd`], which forces the scalar path
//! *process-wide* — process-wide rather than thread-local on purpose,
//! because [`crate::par::par_map`] runs on persistent pool workers that
//! never inherit the caller's thread-locals. Cross-thread visibility of the
//! flag changes no result, because both paths are bitwise identical. It
//! does change what a concurrent caller of [`enabled`] sees, so the tests
//! that set the flag or read it to pick a path hold one lock (`test_lock`).

use crate::matrix::{TILE_M, TILE_N};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-wide force-scalar flag installed by [`with_simd`].
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Cached result of the CPU-feature probe.
static DETECTED: OnceLock<bool> = OnceLock::new();

fn detect() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the SIMD kernels are active for this call: the cached AVX2
/// probe, unless [`with_simd`] forces the scalar path.
pub fn enabled() -> bool {
    !FORCE_SCALAR.load(Ordering::Relaxed) && *DETECTED.get_or_init(detect)
}

/// Runs `f` with SIMD dispatch forced off (`false`) or back to the AVX2
/// probe (`true`), restoring the previous setting afterwards (also on
/// panic).
///
/// The flag is process-wide (see the module docs for why). Both dispatch
/// targets are bitwise-equal, so another thread's setting changes no
/// result; but a test that asserts [`enabled`] sees the settings of tests
/// running beside it unless both hold the module's test lock.
pub fn with_simd<R>(enable: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SCALAR.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(FORCE_SCALAR.swap(!enable, Ordering::Relaxed));
    f()
}

/// One full [`TILE_M`] x [`TILE_N`] tile of `A * B`, accumulated over
/// `k_dim` with the lane dimension along the eight output columns.
///
/// `a_rows` are the four A rows (each at least `k_dim` long), `b` is the
/// row-major right-hand side with row stride `n`, and the tile's top-left
/// output column is `j`. Falls back to the scalar loop (identical bit
/// patterns) when SIMD is disabled or unavailable.
#[inline]
pub fn gemm_tile_4x8(
    a_rows: &[&[f32]; TILE_M],
    b: &[f32],
    n: usize,
    j: usize,
    k_dim: usize,
    acc: &mut [[f32; TILE_N]; TILE_M],
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // All slice accesses inside are bounds-derived from the same
        // indices the scalar path uses.
        // SAFETY: `enabled()` (threaded through `use_simd`) returned true
        // only after `is_x86_feature_detected!("avx2")` confirmed AVX2
        // support on this CPU, so calling the `#[target_feature]` fn is sound.
        unsafe {
            avx2::gemm_tile_4x8(a_rows, b, n, j, k_dim, acc);
        }
        return;
    }
    let _ = use_simd;
    for k in 0..k_dim {
        let Ok(b_strip) = <&[f32; TILE_N]>::try_from(&b[k * n + j..k * n + j + TILE_N]) else {
            // The slice is TILE_N wide by construction; skip the strip
            // rather than panic inside the serving GEMM.
            debug_assert!(false, "strip is TILE_N wide");
            continue;
        };
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter()) {
            let av = a_row[k];
            for (o, &bv) in acc_row.iter_mut().zip(b_strip.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// One full [`TILE_M`] x [`TILE_N`] tile of `A^T * B`: at each `k` the four
/// A values are contiguous (`A[k][i..i + TILE_M]`) and each is broadcast
/// across the eight B lanes. Same bitwise contract as [`gemm_tile_4x8`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_tile_4x8(
    a: &[f32],
    a_cols: usize,
    i: usize,
    b: &[f32],
    n: usize,
    j: usize,
    k_dim: usize,
    acc: &mut [[f32; TILE_N]; TILE_M],
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: as in `gemm_tile_4x8` — `use_simd` is only true after the
        // runtime AVX2 probe succeeded, and the kernel touches the same
        // bounds-checked slice ranges as the scalar fallback below.
        unsafe {
            avx2::gemm_t_tile_4x8(a, a_cols, i, b, n, j, k_dim, acc);
        }
        return;
    }
    let _ = use_simd;
    for k in 0..k_dim {
        let (Ok(a_strip), Ok(b_strip)) = (
            <&[f32; TILE_M]>::try_from(&a[k * a_cols + i..k * a_cols + i + TILE_M]),
            <&[f32; TILE_N]>::try_from(&b[k * n + j..k * n + j + TILE_N]),
        ) else {
            // Both slices are tile-width by construction; skip the strip
            // rather than panic inside the GEMM.
            debug_assert!(false, "strips are tile width");
            continue;
        };
        for (acc_row, &av) in acc.iter_mut().zip(a_strip.iter()) {
            for (o, &bv) in acc_row.iter_mut().zip(b_strip.iter()) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 implementations. Every function is `unsafe` solely because of
    //! `#[target_feature]`; callers must have verified AVX2 support.

    use crate::matrix::{TILE_M, TILE_N};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tile_4x8(
        a_rows: &[&[f32]; TILE_M],
        b: &[f32],
        n: usize,
        j: usize,
        k_dim: usize,
        acc: &mut [[f32; TILE_N]; TILE_M],
    ) {
        // SAFETY: each `acc` row is 8 contiguous f32s, a valid unaligned
        // load/store target; `b[k * n + j ..][..8]` is in bounds because the
        // caller's tile walk guarantees `j + TILE_N <= n` and `k < k_dim`.
        unsafe {
            let mut acc_v: [__m256; TILE_M] =
                std::array::from_fn(|t| _mm256_loadu_ps(acc[t].as_ptr()));
            for k in 0..k_dim {
                let b_strip = _mm256_loadu_ps(b.as_ptr().add(k * n + j));
                for (av, a_row) in acc_v.iter_mut().zip(a_rows.iter()) {
                    let a_bcast = _mm256_set1_ps(*a_row.get_unchecked(k));
                    // mul then add, never fmadd: two roundings, exactly like
                    // the scalar `*o += av * bv`.
                    *av = _mm256_add_ps(*av, _mm256_mul_ps(a_bcast, b_strip));
                }
            }
            for (row, av) in acc.iter_mut().zip(acc_v.iter()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *av);
            }
        }
    }

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_t_tile_4x8(
        a: &[f32],
        a_cols: usize,
        i: usize,
        b: &[f32],
        n: usize,
        j: usize,
        k_dim: usize,
        acc: &mut [[f32; TILE_N]; TILE_M],
    ) {
        // The caller's tile walk guarantees `i + TILE_M <= a_cols` and
        // `j + TILE_N <= n` for every `k < k_dim`.
        // SAFETY: all pointer arithmetic below therefore stays inside
        // `a` / `b`; `acc` rows are 8 contiguous f32s as above.
        unsafe {
            let mut acc_v: [__m256; TILE_M] =
                std::array::from_fn(|t| _mm256_loadu_ps(acc[t].as_ptr()));
            for k in 0..k_dim {
                let b_strip = _mm256_loadu_ps(b.as_ptr().add(k * n + j));
                let a_base = k * a_cols + i;
                for (t, av) in acc_v.iter_mut().enumerate() {
                    let a_bcast = _mm256_set1_ps(*a.get_unchecked(a_base + t));
                    *av = _mm256_add_ps(*av, _mm256_mul_ps(a_bcast, b_strip));
                }
            }
            for (row, av) in acc.iter_mut().zip(acc_v.iter()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *av);
            }
        }
    }
}

/// Serialises the tests that set [`with_simd`] or read [`enabled`] to pick
/// a path: the flag is process-wide and `cargo test` runs tests on parallel
/// threads. A test that panics while holding it does not poison it for the
/// others.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_simd_restores_override() {
        let _simd = test_lock();
        let auto = enabled();
        with_simd(false, || {
            assert!(!enabled(), "override must force the scalar path");
            with_simd(true, || assert_eq!(enabled(), auto));
            assert!(!enabled());
        });
        assert_eq!(enabled(), auto);
    }

    #[test]
    fn with_simd_restores_override_on_panic() {
        let _simd = test_lock();
        let before = enabled();
        let result = std::panic::catch_unwind(|| with_simd(false, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(enabled(), before);
    }

    #[test]
    fn gemm_tile_matches_scalar_bitwise() {
        let _simd = test_lock();
        for k_dim in 1..=17usize {
            let a_data: Vec<Vec<f32>> = (0..TILE_M)
                .map(|t| {
                    (0..k_dim)
                        .map(|k| ((t * 31 + k * 7) % 13) as f32 * 0.17 - 0.7)
                        .collect()
                })
                .collect();
            let a_rows: [&[f32]; TILE_M] = std::array::from_fn(|t| a_data[t].as_slice());
            let n = TILE_N + 3;
            let b: Vec<f32> = (0..k_dim * n)
                .map(|x| ((x * 11) % 23) as f32 * 0.09 - 1.0)
                .collect();
            let mut scalar = [[0.0f32; TILE_N]; TILE_M];
            gemm_tile_4x8(&a_rows, &b, n, 0, k_dim, &mut scalar, false);
            let mut simd = [[0.0f32; TILE_N]; TILE_M];
            gemm_tile_4x8(&a_rows, &b, n, 0, k_dim, &mut simd, enabled());
            assert_eq!(scalar, simd, "k_dim = {k_dim}");
        }
    }

    #[test]
    fn gemm_t_tile_matches_scalar_bitwise() {
        let _simd = test_lock();
        for k_dim in 1..=17usize {
            let a_cols = TILE_M + 2;
            let a: Vec<f32> = (0..k_dim * a_cols)
                .map(|x| ((x * 5) % 19) as f32 * 0.13 - 0.9)
                .collect();
            let n = 2 * TILE_N;
            let b: Vec<f32> = (0..k_dim * n)
                .map(|x| ((x * 3) % 29) as f32 * 0.07 - 1.1)
                .collect();
            let mut scalar = [[0.0f32; TILE_N]; TILE_M];
            gemm_t_tile_4x8(&a, a_cols, 1, &b, n, TILE_N, k_dim, &mut scalar, false);
            let mut simd = [[0.0f32; TILE_N]; TILE_M];
            gemm_t_tile_4x8(&a, a_cols, 1, &b, n, TILE_N, k_dim, &mut simd, enabled());
            assert_eq!(scalar, simd, "k_dim = {k_dim}");
        }
    }
}
