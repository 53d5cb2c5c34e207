//! Layer probes: direct calls into one layer at a time, at the workload's
//! own model size, codec and config, each reported as a median per call.

use crate::stats::median;
use fedat_compress::codec::codec_for;
use fedat_core::aggregate::{aggregate_clients_into, aggregate_tiers_into, cross_tier_weights};
use fedat_core::config::{resolve_codec, ExperimentConfig, StrategyKind};
use fedat_core::eval::{per_client_accuracy, Evaluator};
use fedat_core::exec::ExecCtx;
use fedat_core::local::train_client;
use fedat_data::suite::FedTask;
use fedat_tensor::ops::lerp_into;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median per-call layer costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeResults {
    pub train_ms: f64,
    pub train_samples_per_s: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    /// Raw `f32` bytes over wire bytes of one uplink.
    pub ratio: f64,
    pub aggregate_clients_us: f64,
    pub aggregate_tiers_us: f64,
    pub lerp_us: f64,
    pub evaluate_ms: f64,
    pub per_client_ms: f64,
}

/// Median seconds per call of `f`. Calls are batched so each timed sample
/// lasts at least 50 µs (clock overhead stays under a percent); sampling
/// stops after `budget` once at least five samples exist.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed();
    let batch =
        (Duration::from_micros(50).as_nanos() / first.as_nanos().max(1)).clamp(1, 10_000) as u32;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 2000) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(batch));
    }
    median(&samples)
}

/// Runs every probe against `weights` (a trained global model of the
/// workload), spending about `budget` per probe.
pub fn run(
    task: &Arc<FedTask>,
    cfg: &ExperimentConfig,
    weights: &[f32],
    budget: Duration,
) -> ProbeResults {
    let exec = ExecCtx::resolve(cfg);
    let _overlay = exec.enter();
    let global: Arc<[f32]> = weights.into();
    let use_prox = matches!(
        cfg.strategy,
        StrategyKind::FedAt | StrategyKind::FedProx | StrategyKind::AsoFed
    );
    let n_clients = task.fed.num_clients();

    // Local training: cycle through the clients, one selection round each.
    let mut client = 0usize;
    let mut samples = 0usize;
    let mut train_times = Vec::new();
    let start = Instant::now();
    while train_times.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        let upd = train_client(task, client, &global, cfg, cfg.local_epochs, 0, use_prox);
        train_times.push(t.elapsed().as_secs_f64());
        samples += upd.n_samples * cfg.local_epochs;
        client = (client + 1) % n_clients;
    }
    let train_ms = median(&train_times) * 1e3;
    let train_samples_per_s = samples as f64 / train_times.iter().sum::<f64>();

    // One realistic uplink: client 0's update against the model it trained
    // from, through the workload's uplink codec.
    let update = train_client(task, 0, &global, cfg, cfg.local_epochs, 0, use_prox).weights;
    let codec = codec_for(resolve_codec(cfg.codec, cfg.strategy));
    let blob = codec.encode_with_ref(&update, Some(&global));
    let ratio = (update.len() * 4) as f64 / blob.wire_bytes() as f64;
    let encode_us = per_call(budget, || {
        black_box(codec.encode_with_ref(black_box(&update), Some(&global)));
    }) * 1e6;
    let decode_us = per_call(budget, || {
        black_box(codec.decode_with_ref(black_box(&blob), Some(&global)));
    }) * 1e6;

    // Aggregation at the workload's cohort and tier counts, over
    // deterministic perturbations of the trained model.
    let perturbed = |i: usize| -> Vec<f32> {
        weights
            .iter()
            .enumerate()
            .map(|(j, w)| w + 1e-3 * ((i * 31 + j) % 17) as f32)
            .collect()
    };
    let k = cfg.clients_per_round.min(n_clients);
    let sizes = task.fed.client_sizes();
    let client_models: Vec<Vec<f32>> = (0..k).map(perturbed).collect();
    let updates: Vec<(&[f32], usize)> = client_models
        .iter()
        .zip(&sizes)
        .map(|(w, &n)| (w.as_slice(), n))
        .collect();
    let mut out = Vec::new();
    let aggregate_clients_us = per_call(budget, || {
        aggregate_clients_into(cfg.guard.agg_rule, black_box(&updates), &mut out);
    }) * 1e6;
    let tier_models: Vec<Vec<f32>> = (0..cfg.num_tiers).map(perturbed).collect();
    let counts: Vec<u64> = (0..cfg.num_tiers as u64).map(|m| 5 * (m + 1)).collect();
    let tier_weights = cross_tier_weights(&counts);
    let aggregate_tiers_us = per_call(budget, || {
        aggregate_tiers_into(black_box(&tier_models), &tier_weights, &mut out);
    }) * 1e6;
    let mut a = weights.to_vec();
    let b = perturbed(1);
    let lerp_us = per_call(budget, || lerp_into(black_box(&mut a), &b, 0.5)) * 1e6;

    // Evaluation: one cadence evaluation and one per-client sweep.
    let mut evaluator = Evaluator::new(task, cfg.eval_subset, cfg.seed);
    let evaluate_ms = per_call(budget, || {
        black_box(evaluator.evaluate(black_box(weights)));
    }) * 1e3;
    let per_client_ms = per_call(budget, || {
        black_box(per_client_accuracy(task, black_box(weights), cfg.seed));
    }) * 1e3;

    ProbeResults {
        train_ms,
        train_samples_per_s,
        encode_us,
        decode_us,
        ratio,
        aggregate_clients_us,
        aggregate_tiers_us,
        lerp_us,
        evaluate_ms,
        per_client_ms,
    }
}
