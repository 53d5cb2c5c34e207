//! Wall-clock microbenchmark of the SIMD micro-kernel layer: the three
//! matmul variants, the slice primitives, and the lane-decomposed
//! reductions, each timed under `SimdKernel::Auto` (runtime-dispatched
//! AVX2+FMA or the portable fallback) and `SimdKernel::Scalar` (the seed's
//! plain loops, what autovectorization alone gave). Writes both
//! throughputs and the speedup to `BENCH_tensor_kernels.json`.
//!
//! Two tables: square dense matmuls (64/128/256), and the **training
//! shapes** — every GEMM of one batch-10 training step of the CnnLite
//! (3×8×8, the `fedat-cnn-100` model) and MLP 64-128-128-62 (the
//! `fedat-mlp-500-churn` model), timed on the operands that step really
//! produces, with the measured zero share of each `A` operand.
//!
//! The two kernels are bit-identical by construction — asserted here on
//! every shape before timing.
//!
//! ```text
//! cargo run --release -p fedat-bench --bin bench_tensor_kernels -- \
//!     [--out FILE] [--seed N]
//! ```
//!
//! See `docs/PERF.md` for how to read the output.

use fedat_bench::experiments::large_cohort_task;
use fedat_data::suite;
use fedat_nn::layer::{Layer, Mode};
use fedat_nn::layers::{Conv2d, Dense, MaxPool2d, Relu};
use fedat_nn::loss::softmax_cross_entropy;
use fedat_tensor::conv::{im2col, Conv2dSpec};
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::ops;
use fedat_tensor::ops::{matmul_into, matmul_nt_into, matmul_tn_into};
use fedat_tensor::rng::{fill_normal, rng_for};
use fedat_tensor::simd::{self, SimdKernel};
use fedat_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Timed repeats per kernel; the minimum is reported (noise-robust).
const REPEATS: usize = 3;

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill_normal(&mut rng_for(seed, 91), &mut v, 0.0, 1.0);
    v
}

/// Runs `f` on one thread under `kernel`: this benchmark isolates the
/// micro-kernel itself; the banding across the pool is measured by
/// bench_fl_round.
fn with_kernel<R>(kernel: SimdKernel, f: impl FnOnce() -> R) -> R {
    let _k = ctx::install(KernelCtx {
        simd: kernel,
        max_threads: 1,
        ..ctx::snapshot()
    });
    f()
}

/// Times `iters` calls of `f`, three repeats, returns best seconds.
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct MatmulSample {
    variant: &'static str,
    dim: usize,
    scalar_gflops: f64,
    simd_gflops: f64,
}

impl MatmulSample {
    fn speedup(&self) -> f64 {
        self.simd_gflops / self.scalar_gflops.max(1e-12)
    }
}

fn bench_matmul(
    variant: &'static str,
    dim: usize,
    seed: u64,
    mm: impl Fn(&[f32], &[f32], &mut [f32], usize),
) -> MatmulSample {
    let a = filled(dim * dim, seed);
    let b = filled(dim * dim, seed ^ 1);
    let mut c = vec![0.0f32; dim * dim];

    // Bit-identity check before timing.
    let run = |kernel| {
        with_kernel(kernel, || {
            let mut c = vec![0.0f32; dim * dim];
            mm(&a, &b, &mut c, dim);
            c
        })
    };
    assert_eq!(
        run(SimdKernel::Scalar),
        run(SimdKernel::Auto),
        "SIMD {variant} {dim} diverged from scalar"
    );

    let flops = 2.0 * (dim * dim * dim) as f64;
    let iters = ((400_000_000.0 / flops) as usize).max(8);
    let mut measure = |kernel: SimdKernel| {
        with_kernel(kernel, || {
            // One warm-up call per kernel so timed runs start cache-warm.
            c.fill(0.0);
            mm(&a, &b, &mut c, dim);
            let secs = time_best(iters, || {
                c.fill(0.0);
                mm(black_box(&a), black_box(&b), black_box(&mut c), dim);
            });
            flops * iters as f64 / secs.max(1e-12) / 1e9
        })
    };
    let scalar_gflops = measure(SimdKernel::Scalar);
    let simd_gflops = measure(SimdKernel::Auto);
    MatmulSample {
        variant,
        dim,
        scalar_gflops,
        simd_gflops,
    }
}

struct SliceSample {
    kernel: &'static str,
    len: usize,
    scalar_gelems: f64,
    simd_gelems: f64,
}

impl SliceSample {
    fn speedup(&self) -> f64 {
        self.simd_gelems / self.scalar_gelems.max(1e-12)
    }
}

fn bench_slice(
    kernel: &'static str,
    len: usize,
    seed: u64,
    mut f: impl FnMut(&[f32], &mut [f32]),
) -> SliceSample {
    let x = filled(len, seed);
    let y0 = filled(len, seed ^ 2);
    let mut y = y0.clone();
    let iters = (200_000_000 / len).max(16);
    let mut measure = |k: SimdKernel| {
        with_kernel(k, || {
            y.copy_from_slice(&y0);
            f(&x, &mut y);
            let secs = time_best(iters, || {
                f(black_box(&x), black_box(&mut y));
            });
            len as f64 * iters as f64 / secs.max(1e-12) / 1e9
        })
    };
    let scalar_gelems = measure(SimdKernel::Scalar);
    let simd_gelems = measure(SimdKernel::Auto);
    SliceSample {
        kernel,
        len,
        scalar_gelems,
        simd_gelems,
    }
}

// ----------------------------------------------------------------------
// Training shapes
// ----------------------------------------------------------------------

/// The training batch size (`ExperimentConfig` default).
const BATCH: usize = 10;
/// Consecutive batches captured per model. Timing cycles through all of
/// them, so a zero pattern is not seen again for many thousands of
/// branches — as in training, where each batch is new — and a branch
/// predictor cannot learn the pattern of one repeated batch.
const STEPS: usize = 8;

#[derive(Clone, Copy)]
enum Variant {
    /// `C += A·B`.
    Nn,
    /// `C += Aᵀ·B`, `A` read transposed in place.
    Tn,
    /// `C += A·Bᵀ`.
    Nt,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Nn => "nn",
            Variant::Tn => "tn",
            Variant::Nt => "nt",
        }
    }

    fn run(self, a: &[f32], b: &[f32], c: &mut [f32], (m, k, n): (usize, usize, usize)) {
        match self {
            Variant::Nn => matmul_into(a, b, c, m, k, n),
            Variant::Tn => matmul_tn_into(a, b, c, m, k, n),
            Variant::Nt => matmul_nt_into(a, b, c, m, k, n),
        }
    }
}

/// One GEMM of a training step: its `(m, k, n)` and the `(A, B)` operands
/// of each call over [`STEPS`] batches (per batch, one call for a dense
/// layer, one per sample for a convolution).
struct TrainGemm {
    model: &'static str,
    op: String,
    variant: Variant,
    mkn: (usize, usize, usize),
    calls: Vec<(Vec<f32>, Vec<f32>)>,
}

impl TrainGemm {
    /// Share of exact zeros over every `A` element the step reads.
    fn a_zero_share(&self) -> f64 {
        let (zeros, total) = self.calls.iter().fold((0, 0), |(z, t), (a, _)| {
            (z + a.iter().filter(|&&v| v == 0.0).count(), t + a.len())
        });
        zeros as f64 / total.max(1) as f64
    }

    /// Flops over all captured steps.
    fn flops(&self) -> f64 {
        let (m, k, n) = self.mkn;
        2.0 * (m * k * n * self.calls.len()) as f64
    }

    /// The calls of captured step `step`, each into a zeroed output.
    fn step(&self, step: usize, outs: &mut [Vec<f32>]) {
        let per = self.calls.len() / STEPS;
        let range = step * per..(step + 1) * per;
        for ((a, b), c) in self.calls[range.clone()].iter().zip(&mut outs[range]) {
            c.fill(0.0);
            self.variant
                .run(black_box(a), black_box(b), black_box(c), self.mkn);
        }
    }
}

/// A layer of the captured pipeline, with what the GEMM list needs to know
/// about it.
enum Stage {
    Conv(&'static str, Conv2dSpec, usize, usize),
    Dense(&'static str),
    Other,
}

/// Runs one training step of `layers` on `x` (the first layer with the
/// parameter-only backward, as `Sequential` does) and returns every GEMM it
/// performs with its real operands.
fn capture(
    model: &'static str,
    mut layers: Vec<(Stage, Box<dyn Layer>)>,
    x: Tensor,
    y: &[u32],
) -> Vec<TrainGemm> {
    let mut inputs = Vec::new();
    let mut acc = x;
    for (_, layer) in layers.iter_mut() {
        inputs.push(acc.clone());
        acc = layer.forward(acc, Mode::Train);
    }
    let (_, mut grad) = softmax_cross_entropy(&acc, y);
    let mut grad_outs = vec![Tensor::zeros(&[1]); layers.len()];
    for (i, (_, layer)) in layers.iter_mut().enumerate().rev() {
        grad_outs[i] = grad.clone();
        if i == 0 {
            layer.backward_params(grad);
            break;
        }
        grad = layer.backward(grad);
    }

    let mut gemms = Vec::new();
    let mut push = |op: String, variant, mkn, calls| {
        gemms.push(TrainGemm {
            model,
            op,
            variant,
            mkn,
            calls,
        })
    };
    for (i, (stage, layer)) in layers.iter().enumerate() {
        if let Stage::Other = stage {
            continue;
        }
        let (x, g) = (inputs[i].data().to_vec(), grad_outs[i].data().to_vec());
        let w = layer.params()[0].value.data().to_vec();
        match *stage {
            Stage::Dense(name) => {
                let (rows, d_in) = inputs[i].shape().as_matrix();
                let d_out = w.len() / d_in;
                push(
                    format!("{name} fwd"),
                    Variant::Nn,
                    (rows, d_in, d_out),
                    vec![(x.clone(), w.clone())],
                );
                push(
                    format!("{name} dW"),
                    Variant::Tn,
                    (d_in, rows, d_out),
                    vec![(x, g.clone())],
                );
                if i > 0 {
                    push(
                        format!("{name} dX"),
                        Variant::Nt,
                        (rows, d_out, d_in),
                        vec![(g, w)],
                    );
                }
            }
            Stage::Conv(name, spec, h, wd) => {
                let (oh, ow) = spec.out_hw(h, wd);
                let col_rows = spec.in_channels * spec.kernel * spec.kernel;
                let col_cols = oh * ow;
                let img = spec.in_channels * h * wd;
                let dy = spec.out_channels * col_cols;
                let (mut fwd, mut dw, mut dx) = (Vec::new(), Vec::new(), Vec::new());
                for s in 0..BATCH {
                    let mut cols = vec![0.0f32; col_rows * col_cols];
                    im2col(
                        &x[s * img..(s + 1) * img],
                        spec.in_channels,
                        h,
                        wd,
                        &spec,
                        &mut cols,
                    );
                    let dy_s = g[s * dy..(s + 1) * dy].to_vec();
                    fwd.push((w.clone(), cols.clone()));
                    dw.push((dy_s.clone(), cols));
                    dx.push((w.clone(), dy_s));
                }
                let cout = spec.out_channels;
                push(
                    format!("{name} fwd"),
                    Variant::Nn,
                    (cout, col_rows, col_cols),
                    fwd,
                );
                push(
                    format!("{name} dW"),
                    Variant::Nt,
                    (cout, col_cols, col_rows),
                    dw,
                );
                if i > 0 {
                    push(
                        format!("{name} dX"),
                        Variant::Tn,
                        (col_rows, cout, col_cols),
                        dx,
                    );
                }
            }
            Stage::Other => {}
        }
    }
    gemms
}

/// A 3×3, stride-1, pad-1 convolution (both CnnLite convolutions).
fn conv3(in_channels: usize, out_channels: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_channels,
        out_channels,
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

/// `ModelSpec::CnnLite` for 3×8×8 inputs and 10 classes, layer by layer.
fn cnn_lite_layers(seed: u64) -> Vec<(Stage, Box<dyn Layer>)> {
    let mut rng = rng_for(seed, 92);
    let (c1, c2) = (conv3(3, 16), conv3(16, 32));
    vec![
        (
            Stage::Conv("conv1", c1, 8, 8),
            Box::new(Conv2d::new(&mut rng, c1, 8, 8)),
        ),
        (Stage::Other, Box::new(Relu::new())),
        (Stage::Other, Box::new(MaxPool2d::new(16, 8, 8, 2))),
        (
            Stage::Conv("conv2", c2, 4, 4),
            Box::new(Conv2d::new(&mut rng, c2, 4, 4)),
        ),
        (Stage::Other, Box::new(Relu::new())),
        (Stage::Other, Box::new(MaxPool2d::new(32, 4, 4, 2))),
        (Stage::Dense("fc1"), Box::new(Dense::new(&mut rng, 128, 64))),
        (Stage::Other, Box::new(Relu::new())),
        (Stage::Dense("fc2"), Box::new(Dense::new(&mut rng, 64, 10))),
    ]
}

/// `ModelSpec::Mlp` 64-128-128-62, layer by layer.
fn mlp_layers(seed: u64) -> Vec<(Stage, Box<dyn Layer>)> {
    let mut rng = rng_for(seed, 92);
    vec![
        (
            Stage::Dense("dense1"),
            Box::new(Dense::new(&mut rng, 64, 128)),
        ),
        (Stage::Other, Box::new(Relu::new())),
        (
            Stage::Dense("dense2"),
            Box::new(Dense::new(&mut rng, 128, 128)),
        ),
        (Stage::Other, Box::new(Relu::new())),
        (
            Stage::Dense("dense3"),
            Box::new(Dense::new(&mut rng, 128, 62)),
        ),
    ]
}

/// Every GEMM of [`STEPS`] batch-10 steps of the two workload models, on
/// consecutive batches of one client of each workload's task, with freshly
/// initialized weights.
fn training_gemms(seed: u64) -> Vec<TrainGemm> {
    type Build = fn(u64) -> Vec<(Stage, Box<dyn Layer>)>;
    let runs: [(&'static str, Build, fedat_data::suite::FedTask); 2] = [
        (
            "cnn_lite",
            cnn_lite_layers,
            suite::cifar10_like(10, 2, seed),
        ),
        ("mlp", mlp_layers, large_cohort_task(10, seed)),
    ];
    let mut all = Vec::new();
    for (model, build, task) in runs {
        let data = &task.fed.clients[0].train;
        let mut gemms: Vec<TrainGemm> = Vec::new();
        for step in 0..STEPS {
            // The same initial weights every step: only the batch changes.
            let rows: Vec<usize> = (0..BATCH)
                .map(|r| (step * BATCH + r) % data.len())
                .collect();
            let mut y = Vec::new();
            let x = data.gather_batch_into(&rows, &mut y);
            let captured = capture(model, build(seed), x, &y);
            if gemms.is_empty() {
                gemms = captured;
            } else {
                for (g, more) in gemms.iter_mut().zip(captured) {
                    g.calls.extend(more.calls);
                }
            }
        }
        all.extend(gemms);
    }
    all
}

/// Sweeps over the captured steps per timed repeat.
const SWEEPS: usize = 40;

struct ShapeSample {
    zero_share: f64,
    scalar_gflops: f64,
    simd_gflops: f64,
    simd_us: f64,
}

/// Times every training GEMM per batch under both kernels. Each sweep runs
/// the captured steps in order and, within a step, every GEMM in turn — as
/// training interleaves them — so no GEMM runs back to back on the same
/// operands, which would let the branch predictor learn one batch's zero
/// pattern and flatter the branchy zero-skip.
fn bench_training(gemms: &[TrainGemm]) -> Vec<ShapeSample> {
    let mut outs: Vec<Vec<Vec<f32>>> = gemms
        .iter()
        .map(|g| vec![vec![0.0f32; g.mkn.0 * g.mkn.2]; g.calls.len()])
        .collect();
    // Bit-identity check before timing (bit patterns, so NaN counts too).
    let mut bits = |kernel| -> Vec<Vec<u32>> {
        with_kernel(kernel, || {
            gemms
                .iter()
                .zip(outs.iter_mut())
                .map(|(g, o)| {
                    (0..STEPS).for_each(|step| g.step(step, o));
                    o.iter().flatten().map(|v| v.to_bits()).collect()
                })
                .collect()
        })
    };
    let (want, got) = (bits(SimdKernel::Scalar), bits(SimdKernel::Auto));
    for ((g, w), o) in gemms.iter().zip(&want).zip(&got) {
        assert_eq!(w, o, "SIMD {} {} diverged from scalar", g.model, g.op);
    }
    let mut per_batch = |kernel| -> Vec<f64> {
        with_kernel(kernel, || {
            let mut best = vec![f64::INFINITY; gemms.len()];
            for _ in 0..REPEATS {
                let mut secs = vec![0.0f64; gemms.len()];
                for _ in 0..SWEEPS {
                    for step in 0..STEPS {
                        for ((g, o), s) in gemms.iter().zip(outs.iter_mut()).zip(&mut secs) {
                            let t0 = Instant::now();
                            g.step(step, o);
                            *s += t0.elapsed().as_secs_f64();
                        }
                    }
                }
                for (b, s) in best.iter_mut().zip(secs) {
                    *b = b.min(s / (SWEEPS * STEPS) as f64);
                }
            }
            best
        })
    };
    let scalar = per_batch(SimdKernel::Scalar);
    let simd = per_batch(SimdKernel::Auto);
    gemms
        .iter()
        .zip(scalar.iter().zip(&simd))
        .map(|(g, (&scalar_s, &simd_s))| {
            let flops = g.flops() / STEPS as f64;
            ShapeSample {
                zero_share: g.a_zero_share(),
                scalar_gflops: flops / scalar_s.max(1e-12) / 1e9,
                simd_gflops: flops / simd_s.max(1e-12) / 1e9,
                simd_us: simd_s * 1e6,
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_tensor_kernels.json");
    let mut seed = 9u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let backend = with_kernel(SimdKernel::Auto, simd::backend_name);
    eprintln!("[bench_tensor_kernels] Auto dispatches to: {backend}");

    let mut matmuls = Vec::new();
    for dim in [64usize, 128, 256] {
        eprintln!("[bench_tensor_kernels] matmul variants at {dim}x{dim} ...");
        matmuls.push(bench_matmul("nn", dim, seed, |a, b, c, d| {
            matmul_into(a, b, c, d, d, d)
        }));
        matmuls.push(bench_matmul("tn", dim, seed ^ 10, |a, b, c, d| {
            matmul_tn_into(a, b, c, d, d, d)
        }));
        matmuls.push(bench_matmul("nt", dim, seed ^ 20, |a, b, c, d| {
            matmul_nt_into(a, b, c, d, d, d)
        }));
    }

    // The model-dimension sweeps: sized like the large-cohort model.
    let model_dim = 32 * 1024;
    eprintln!("[bench_tensor_kernels] slice primitives ({model_dim} elements) ...");
    let slices = vec![
        bench_slice("axpy", model_dim, seed, |x, y| ops::axpy(0.25, x, y)),
        bench_slice("lerp", model_dim, seed ^ 3, |x, y| {
            ops::lerp_into(y, x, 0.125)
        }),
        bench_slice("scale", model_dim, seed ^ 4, |_, y| ops::scale(y, 1.0001)),
        bench_slice("dot", model_dim, seed ^ 5, |x, y| {
            black_box(ops::dot(x, y));
        }),
    ];

    eprintln!("[bench_tensor_kernels] training shapes (batch {BATCH}) ...");
    let gemms = training_gemms(seed);
    let shapes = bench_training(&gemms);

    let key = matmuls
        .iter()
        .find(|s| s.variant == "nn" && s.dim == 128)
        .expect("128x128 nn sample");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"tensor_kernels\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"simd_backend\": \"{backend}\",\n"));
    json.push_str("  \"kernel_threads\": 1,\n");
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(
        "  \"scalar_baseline\": \"SimdKernel::Scalar: plain loops, compiler autovectorization only (seed's loops for matmul/elementwise; lane-decomposed scalar form for dot, whose definition moved — see docs/PERF.md)\",\n",
    );
    json.push_str(&format!(
        "  \"matmul_128_speedup\": {:.3},\n",
        key.speedup()
    ));
    json.push_str("  \"matmul\": [\n");
    for (i, s) in matmuls.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"variant\": \"{}\", \"dim\": {}, \"scalar_gflops\": {:.3}, \"simd_gflops\": {:.3}, \"speedup\": {:.3} }}{}\n",
            s.variant,
            s.dim,
            s.scalar_gflops,
            s.simd_gflops,
            s.speedup(),
            if i + 1 < matmuls.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"slice_primitives\": [\n");
    for (i, s) in slices.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"len\": {}, \"scalar_gelems_per_sec\": {:.3}, \"simd_gelems_per_sec\": {:.3}, \"speedup\": {:.3} }}{}\n",
            s.kernel,
            s.len,
            s.scalar_gelems,
            s.simd_gelems,
            s.speedup(),
            if i + 1 < slices.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"training_shapes\": [\n");
    for (i, (g, s)) in gemms.iter().zip(&shapes).enumerate() {
        let (m, k, n) = g.mkn;
        json.push_str(&format!(
            "    {{ \"model\": \"{}\", \"gemm\": \"{}\", \"variant\": \"{}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"calls_per_batch\": {}, \"a_zero_share\": {:.3}, \"scalar_gflops\": {:.3}, \"simd_gflops\": {:.3}, \"speedup\": {:.3}, \"simd_us_per_batch\": {:.2} }}{}\n",
            g.model,
            g.op,
            g.variant.name(),
            g.calls.len() / STEPS,
            s.zero_share,
            s.scalar_gflops,
            s.simd_gflops,
            s.simd_gflops / s.scalar_gflops.max(1e-12),
            s.simd_us,
            if i + 1 < gemms.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("writing benchmark record");

    println!("{json}");
    for s in &matmuls {
        println!(
            "matmul {:<2} {:>4}  scalar {:>7.2} GF/s  simd {:>7.2} GF/s  speedup {:>5.2}x",
            s.variant,
            s.dim,
            s.scalar_gflops,
            s.simd_gflops,
            s.speedup()
        );
    }
    for s in &slices {
        println!(
            "{:<6} {:>6}  scalar {:>6.2} Ge/s  simd {:>6.2} Ge/s  speedup {:>5.2}x",
            s.kernel,
            s.len,
            s.scalar_gelems,
            s.simd_gelems,
            s.speedup()
        );
    }
    for (g, s) in gemms.iter().zip(&shapes) {
        let (m, k, n) = g.mkn;
        println!(
            "{:<8} {:<10} {}  {m:>3}x{k:>3}x{n:>3} x{:<2}  zeros {:>4.0}%  scalar {:>6.2} GF/s  simd {:>6.2} GF/s  {:>7.1} us/batch",
            g.model,
            g.op,
            g.variant.name(),
            g.calls.len() / STEPS,
            s.zero_share * 100.0,
            s.scalar_gflops,
            s.simd_gflops,
            s.simd_us
        );
    }
    eprintln!("[bench_tensor_kernels] wrote {out_path}");
}
