//! Per-thread kernel configuration — the one carrier of this crate's
//! execution switches.
//!
//! Four switches select how kernels run: the SIMD backend
//! ([`simd::SimdKernel`]), the portable-only override, the per-kernel
//! [`parallel`] thread cap and the [`pool`] job cap. Their *process
//! default* is read-only: `FEDAT_SIMD` is read once, everything else is a
//! constant. Code that needs different values installs a [`KernelCtx`] as
//! this thread's overlay for a scope ([`install`]); every getter consults
//! the overlay before falling back to the default. A run carries its
//! configuration this way (`fedat_core::exec::ExecCtx::enter`), so two
//! concurrent runs never read each other's settings; tests and benches
//! without a run config scope a change the same way:
//!
//! ```
//! use fedat_tensor::ctx::{self, KernelCtx};
//! use fedat_tensor::simd::SimdKernel;
//!
//! let _k = ctx::install(KernelCtx { simd: SimdKernel::Scalar, ..ctx::snapshot() });
//! assert_eq!(fedat_tensor::simd::simd_kernel(), SimdKernel::Scalar);
//! ```
//!
//! ## Propagation
//!
//! The overlay is thread-local, so it must travel with work that hops
//! threads. Both thread-crossing paths in this crate propagate it
//! automatically, capturing the submitter's overlay at publication time and
//! installing it around execution (worker-side *and* steal-on-join):
//!
//! * [`pool::submit`] — the runner closure carries the overlay,
//! * [`pool::run_tasks`] — the batch carries it; every claiming thread
//!   (workers and the participating caller) installs it in `Batch::work`.
//!
//! A `None` overlay propagates too: work submitted from a thread running
//! on process defaults runs on process defaults wherever it executes, even
//! when the executing thread happens to hold an overlay of its own
//! (steal-on-join from inside another run).
//!
//! ## Determinism
//!
//! The overlay only selects between kernels that are bit-identical by
//! construction, so installing or dropping one can never change a result —
//! it changes which (equivalent) code path computes it, and how many
//! threads help.
//!
//! [`simd::SimdKernel`]: crate::simd::SimdKernel
//! [`parallel`]: crate::parallel
//! [`pool`]: crate::pool
//! [`pool::submit`]: crate::pool::submit
//! [`pool::run_tasks`]: crate::pool::run_tasks

use crate::simd::SimdKernel;
use std::cell::Cell;
use std::sync::OnceLock;

/// A complete snapshot of every kernel switch in this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelCtx {
    /// SIMD backend selection ([`crate::simd::simd_kernel`]).
    pub simd: SimdKernel,
    /// Portable-fallback override ([`crate::simd::portable_only`]).
    pub portable_only: bool,
    /// Per-kernel thread cap ([`crate::parallel::max_threads`]); ≥ 1.
    pub max_threads: usize,
    /// Pool-resident submitted-job cap ([`crate::pool::max_pool_jobs`]).
    pub max_pool_jobs: usize,
}

/// The read-only process default: `Auto` SIMD unless `FEDAT_SIMD=scalar`
/// (read once, on first use), the ISA path allowed, serial kernels (the
/// simulator parallelizes across clients instead) and an uncapped pool.
fn process_default() -> KernelCtx {
    static DEFAULT: OnceLock<KernelCtx> = OnceLock::new();
    *DEFAULT.get_or_init(|| KernelCtx {
        simd: match std::env::var("FEDAT_SIMD").as_deref() {
            Ok(s) if s.eq_ignore_ascii_case("scalar") => SimdKernel::Scalar,
            _ => SimdKernel::Auto,
        },
        portable_only: false,
        max_threads: 1,
        max_pool_jobs: usize::MAX,
    })
}

thread_local! {
    /// The active overlay for this thread, if any.
    static OVERLAY: Cell<Option<KernelCtx>> = const { Cell::new(None) };
}

/// The overlay active on this thread, if one is installed.
pub fn current() -> Option<KernelCtx> {
    OVERLAY.with(Cell::get)
}

/// The effective kernel configuration on this thread: the overlay when one
/// is installed, the read-only process default otherwise (`Auto` SIMD
/// unless `FEDAT_SIMD=scalar`, the ISA path allowed, one kernel thread, an
/// uncapped pool).
pub fn snapshot() -> KernelCtx {
    current().unwrap_or_else(process_default)
}

/// Installs `overlay` (including `None`, which *clears* any overlay) on
/// this thread and returns a guard that restores the previous state on
/// drop. This is the propagation primitive: pass exactly what [`current`]
/// returned at capture time.
pub fn set_overlay(overlay: Option<KernelCtx>) -> OverlayGuard {
    let prev = OVERLAY.with(|slot| slot.replace(overlay));
    OverlayGuard { prev }
}

/// Installs `ctx` as this thread's overlay for the guard's lifetime.
pub fn install(ctx: KernelCtx) -> OverlayGuard {
    set_overlay(Some(ctx))
}

/// RAII restore for [`set_overlay`]/[`install`].
#[must_use = "the overlay is removed when the guard drops"]
pub struct OverlayGuard {
    prev: Option<KernelCtx>,
}

impl Drop for OverlayGuard {
    fn drop(&mut self) {
        OVERLAY.with(|slot| slot.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelCtx {
        KernelCtx {
            simd: SimdKernel::Scalar,
            portable_only: true,
            max_threads: 3,
            max_pool_jobs: 2,
        }
    }

    #[test]
    fn install_and_restore_nest() {
        assert_eq!(current(), None);
        {
            let _a = install(sample());
            assert_eq!(current(), Some(sample()));
            {
                let mut inner = sample();
                inner.max_threads = 7;
                let _b = install(inner);
                assert_eq!(current().unwrap().max_threads, 7);
            }
            assert_eq!(current(), Some(sample()));
        }
        assert_eq!(current(), None);
        assert_eq!(snapshot(), process_default());
    }

    #[test]
    fn none_overlay_clears_and_restores() {
        let _a = install(sample());
        {
            let _b = set_overlay(None);
            assert_eq!(current(), None);
        }
        assert_eq!(current(), Some(sample()));
    }

    #[test]
    fn overlay_wins_over_defaults_in_getters() {
        // The getters must consult the overlay before the process default.
        let ctx = sample();
        let _g = install(ctx);
        assert_eq!(crate::simd::simd_kernel(), SimdKernel::Scalar);
        assert!(crate::simd::portable_only());
        assert_eq!(crate::parallel::max_threads(), 3);
        assert_eq!(crate::pool::max_pool_jobs(), 2);
    }

    #[test]
    fn overlay_crosses_submitted_jobs_and_regions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        crate::pool::ensure_workers(2);
        let _g = install(sample());
        // Submitted job: the worker (or stealing joiner) sees the overlay.
        let h = crate::pool::submit(|| current().map(|c| c.max_threads));
        assert_eq!(h.join(), Some(3));
        // Fork-join region: every participating thread sees the overlay.
        let misses = AtomicUsize::new(0);
        crate::pool::run_tasks(8, 2, &|_| {
            if current() != Some(sample()) {
                misses.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn absent_overlay_propagates_as_absent() {
        crate::pool::ensure_workers(1);
        assert_eq!(current(), None);
        let h = crate::pool::submit(|| current().is_none());
        // Steal-on-join under an overlay must still run the job overlay-free.
        let _g = install(sample());
        assert!(h.join());
        assert_eq!(current(), Some(sample()));
    }
}
