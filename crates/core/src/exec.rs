//! Execution-mode switch for client training: speculative vs. inline.
//!
//! [`train_client`](crate::local::train_client) is a pure function of
//! `(task, client, downloaded weights, config, epochs, selection_round,
//! use_prox)` — it reads no simulator state and draws from no shared RNG —
//! so every dispatched client can start training the moment it is
//! *dispatched* instead of the moment its compute event *fires*. Under
//! [`ExecMode::Speculative`] (the default) each dispatch submits a training
//! job to the persistent kernel pool and the event loop merely *joins* the
//! result when the completion event arrives; virtual time, event order,
//! traffic accounting and the RNG streams are untouched, so the full trace
//! is bit-identical to inline execution by construction (pinned by
//! `strategy_behavior.rs`).
//!
//! [`ExecMode::Inline`] trains at completion on the event-loop thread — the
//! purity reference for speculation. A run picks its mode through its
//! config ([`ExecOverrides`](crate::config::ExecOverrides)); the process
//! default is read once from the environment (`FEDAT_EXEC=inline` flips it,
//! and CI runs the whole suite a second time this way).
//!
//! The only observable cost of speculation is *wasted work*: a client that
//! drops out mid-compute has already been trained (or is mid-training) when
//! its `dropped` completion arrives, and the result is discarded.
//! [`speculative_discards`] counts those for the perf accounting in
//! `docs/PERF.md`.

use std::cell::Cell;
use std::sync::OnceLock;

/// When client training actually executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Launch the training job on the kernel pool at *dispatch*; join the
    /// result at the completion event. The default.
    Speculative,
    /// Train on the event-loop thread when the completion event fires —
    /// the purity reference for speculation.
    Inline,
}

thread_local! {
    /// Speculative training jobs launched on this thread.
    static LAUNCHES: Cell<u64> = const { Cell::new(0) };
    /// Speculative results discarded on this thread because the client
    /// dropped out before its compute event fired.
    static DISCARDS: Cell<u64> = const { Cell::new(0) };
}

/// The process-default [`ExecMode`]: `Speculative`, or `Inline` when the
/// environment variable `FEDAT_EXEC=inline` is set (read once, on first
/// use). A run's config override beats it ([`ExecCtx::resolve`]).
pub fn exec_mode() -> ExecMode {
    static DEFAULT: OnceLock<ExecMode> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("FEDAT_EXEC").as_deref() {
        Ok(s) if s.eq_ignore_ascii_case("inline") => ExecMode::Inline,
        _ => ExecMode::Speculative,
    })
}

/// Speculative results thrown away on dropout, counted on this thread.
///
/// Launches and discards happen on a run's event-loop thread, so the
/// difference of two reads around a run on that thread is exactly that
/// run's count, whatever other runs do concurrently.
pub fn speculative_discards() -> u64 {
    DISCARDS.with(Cell::get)
}

/// Speculatively launched training jobs, counted on this thread (see
/// [`speculative_discards`] for the per-run delta).
pub fn speculative_launches() -> u64 {
    LAUNCHES.with(Cell::get)
}

pub(crate) fn note_launch() {
    LAUNCHES.with(|c| c.set(c.get() + 1));
}

pub(crate) fn note_discard() {
    DISCARDS.with(|c| c.set(c.get() + 1));
}

// ----------------------------------------------------------------------
// ExecCtx: per-run execution configuration
// ----------------------------------------------------------------------

/// The complete execution configuration of *one* experiment run: the
/// [`ExecMode`] plus a snapshot of every tensor-layer kernel switch
/// ([`fedat_tensor::ctx::KernelCtx`]).
///
/// Resolution happens **once**, at run start
/// ([`run_experiment_shared`](crate::experiment::run_experiment_shared)):
///
/// 1. [`ExecCtx::from_env`] reads the *default layer* — the read-only
///    process defaults (`FEDAT_EXEC`/`FEDAT_SIMD`, constants otherwise),
///    or the kernel overlay already installed on the calling thread,
/// 2. the config's [`ExecOverrides`](crate::config::ExecOverrides) are
///    applied field-by-field on top.
///
/// The result is immutable for the run's lifetime: it is installed as the
/// thread-local kernel overlay ([`ExecCtx::enter`]) so every kernel the run
/// touches — including work it ships across the pool — reads *this* run's
/// configuration, and it is threaded through `ServerCore` so the training
/// launch path never consults the process default [`exec_mode`] again.
/// Two concurrent `run_experiment_shared` calls therefore cannot read each
/// other's settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecCtx {
    /// When client training executes (speculative vs. inline).
    pub mode: ExecMode,
    /// The tensor-layer kernel selections and worker hints.
    pub kernels: fedat_tensor::ctx::KernelCtx,
}

impl ExecCtx {
    /// The default layer: the process-default [`ExecMode`] and the
    /// effective kernel settings on this thread (its overlay if one is
    /// installed, the env-initialized defaults otherwise).
    pub fn from_env() -> Self {
        ExecCtx {
            mode: exec_mode(),
            kernels: fedat_tensor::ctx::snapshot(),
        }
    }

    /// Resolves a run's execution context: [`ExecCtx::from_env`] with the
    /// config's overrides applied on top.
    pub fn resolve(cfg: &crate::config::ExperimentConfig) -> Self {
        let mut ctx = ExecCtx::from_env();
        let o = cfg.exec;
        if let Some(m) = o.mode {
            ctx.mode = m;
        }
        if let Some(k) = o.simd {
            ctx.kernels.simd = k;
        }
        if let Some(p) = o.portable_only {
            ctx.kernels.portable_only = p;
        }
        if let Some(n) = o.max_threads {
            ctx.kernels.max_threads = n.max(1);
        }
        if let Some(n) = o.max_pool_jobs {
            ctx.kernels.max_pool_jobs = n;
        }
        ctx
    }

    /// Installs this context's kernel configuration as the calling thread's
    /// overlay for the guard's lifetime. Work submitted to the pool while
    /// the guard is live inherits the overlay automatically.
    pub fn enter(&self) -> fedat_tensor::ctx::OverlayGuard {
        fedat_tensor::ctx::install(self.kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let d0 = speculative_discards();
        let l0 = speculative_launches();
        note_launch();
        note_discard();
        assert!(speculative_launches() > l0);
        assert!(speculative_discards() > d0);
    }
}
