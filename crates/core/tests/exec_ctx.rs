//! Per-run execution contexts: concurrent experiments with *different*
//! exec modes and kernel switches must not cross-talk.
//!
//! The process defaults (`ExecMode`, `SimdKernel`, …) are read-only and
//! only form the default layer: `run_experiment_shared` resolves an
//! [`fedat_core::exec::ExecCtx`] once from config + environment and installs
//! it as a per-thread overlay that follows the run across every
//! thread-crossing point (speculative training jobs, pipelined evals,
//! fork-join kernel regions). These tests pin the property that carrier
//! exists for: N concurrent runs, each under a different context, each
//! bit-identical to its own serial counterpart — and each counting only its
//! own speculative work.

use fedat_core::exec::{speculative_discards, speculative_launches, ExecCtx, ExecMode};
use fedat_core::{run_experiment, ExperimentConfig, Outcome, StrategyKind};
use fedat_data::suite;
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::simd::SimdKernel;

fn cfg_with(mode: ExecMode, simd: SimdKernel, n: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(12)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(3)
        .seed(seed)
        .cluster(
            ClusterConfig::paper_medium(seed)
                .with_clients(n)
                .without_dropouts(),
        )
        .exec_mode(mode)
        .simd_kernel(simd)
        .build()
}

fn assert_same(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(
        a.final_weights, b.final_weights,
        "{label}: weights diverged"
    );
    assert_eq!(a.global_updates, b.global_updates, "{label}");
    assert_eq!(
        a.trace.points.len(),
        b.trace.points.len(),
        "{label}: trace length diverged"
    );
    for (p, q) in a.trace.points.iter().zip(b.trace.points.iter()) {
        assert_eq!(p.time, q.time, "{label}: virtual time diverged");
        assert_eq!(p.round, q.round, "{label}");
        assert_eq!(p.accuracy, q.accuracy, "{label}: accuracy diverged");
        assert_eq!(p.loss, q.loss, "{label}: loss diverged");
        assert_eq!(p.up_bytes, q.up_bytes, "{label}: uplink diverged");
        assert_eq!(p.down_bytes, q.down_bytes, "{label}: downlink diverged");
    }
}

/// The four contexts of the grid: {Speculative, Inline} × {Auto, Scalar}.
const COMBOS: [(ExecMode, SimdKernel, &str); 4] = [
    (ExecMode::Speculative, SimdKernel::Auto, "spec/auto"),
    (ExecMode::Speculative, SimdKernel::Scalar, "spec/scalar"),
    (ExecMode::Inline, SimdKernel::Auto, "inline/auto"),
    (ExecMode::Inline, SimdKernel::Scalar, "inline/scalar"),
];

#[test]
fn concurrent_runs_with_different_contexts_match_their_serial_counterparts() {
    let n = 12;
    let task = suite::sent140_like(n, 41);

    // Serial baselines, one per context, on this thread.
    let serial: Vec<Outcome> = COMBOS
        .iter()
        .map(|&(mode, simd, _)| run_experiment(&task, &cfg_with(mode, simd, n, 41)))
        .collect();

    // All four contexts at once, each from its own OS thread: each run must
    // keep reading its own context.
    let concurrent: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = COMBOS
            .iter()
            .map(|&(mode, simd, _)| {
                let task = &task;
                scope.spawn(move || run_experiment(task, &cfg_with(mode, simd, n, 41)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((s, c), &(_, _, label)) in serial.iter().zip(concurrent.iter()).zip(COMBOS.iter()) {
        assert_same(label, c, s);
    }
    // The bit-identity contract also pins the four contexts to *each
    // other*: mode and kernel choice are performance levers, not semantics.
    for (s, &(_, _, label)) in serial.iter().skip(1).zip(COMBOS.iter().skip(1)) {
        assert_same(label, s, &serial[0]);
    }
}

/// A run's speculative launch and discard counts, read as the delta of the
/// per-thread counters around the run on this thread (which hosts the
/// run's event loop).
fn run_counting(task: &fedat_data::suite::FedTask, cfg: &ExperimentConfig) -> (u64, u64) {
    let (l0, d0) = (speculative_launches(), speculative_discards());
    let out = run_experiment(task, cfg);
    assert!(out.global_updates > 0);
    (speculative_launches() - l0, speculative_discards() - d0)
}

#[test]
fn config_overrides_beat_the_global_default_layer() {
    // Whatever the process default (`FEDAT_EXEC`), a run whose config pins
    // Inline launches nothing, and one that pins Speculative launches.
    let n = 8;
    let task = suite::sent140_like(n, 43);
    let inline = cfg_with(ExecMode::Inline, SimdKernel::Auto, n, 43);
    assert_eq!(
        run_counting(&task, &inline).0,
        0,
        "an Inline-pinned run launched speculative jobs"
    );
    let spec = cfg_with(ExecMode::Speculative, SimdKernel::Auto, n, 43);
    assert!(
        run_counting(&task, &spec).0 > 0,
        "a Speculative-pinned run launched nothing"
    );
}

#[test]
fn concurrent_runs_count_only_their_own_speculative_work() {
    // The four contexts at once, one per thread: each thread's launch and
    // discard deltas must equal those of the same config run alone — 0 for
    // the Inline combos. Half the fleet drops out mid-run, so speculative
    // results really are discarded.
    let n = 12;
    let task = suite::sent140_like(n, 47);
    let cfg_for = |mode, simd| {
        let mut c = cfg_with(mode, simd, n, 47);
        c.rounds = 40;
        c.max_time = 2000.0;
        let cluster = c.cluster.as_mut().expect("cfg_with sets a cluster");
        cluster.n_unstable = n / 2;
        cluster.dropout_horizon = 400.0;
        c
    };
    let alone: Vec<(u64, u64)> = COMBOS
        .iter()
        .map(|&(mode, simd, _)| run_counting(&task, &cfg_for(mode, simd)))
        .collect();
    let concurrent: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = COMBOS
            .iter()
            .map(|&(mode, simd, _)| {
                let (task, cfg) = (&task, cfg_for(mode, simd));
                scope.spawn(move || run_counting(task, &cfg))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((a, c), &(mode, _, label)) in alone.iter().zip(&concurrent).zip(COMBOS.iter()) {
        assert_eq!(
            c, a,
            "{label}: (launches, discards) differ from the run alone"
        );
        match mode {
            ExecMode::Inline => assert_eq!(*a, (0, 0), "{label}"),
            ExecMode::Speculative => assert!(a.0 > 0 && a.1 > 0, "{label}: {a:?}"),
        }
    }
}

#[test]
fn resolve_layers_config_over_env_defaults() {
    // A kernel overlay on the calling thread (the default layer for code
    // without a run config) is visible to from_env/resolve; explicit config
    // overrides beat it field by field.
    let _k = fedat_tensor::ctx::install(fedat_tensor::ctx::KernelCtx {
        simd: SimdKernel::Scalar,
        max_threads: 3,
        ..fedat_tensor::ctx::snapshot()
    });
    let base = ExecCtx::from_env();
    assert_eq!(base.kernels.simd, SimdKernel::Scalar);
    assert_eq!(base.kernels.max_threads, 3);

    let cfg = ExperimentConfig::builder()
        .simd_kernel(SimdKernel::Auto)
        .max_threads(0) // clamped to 1
        .build();
    let resolved = ExecCtx::resolve(&cfg);
    assert_eq!(resolved.kernels.simd, SimdKernel::Auto, "config must win");
    assert_eq!(resolved.kernels.max_threads, 1, "zero clamps to one");
    assert_eq!(
        resolved.kernels.max_pool_jobs, base.kernels.max_pool_jobs,
        "untouched fields keep the env default"
    );
    assert_eq!(
        resolved.mode, base.mode,
        "an unset mode keeps the env default"
    );
}
