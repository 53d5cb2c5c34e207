//! SIMD-vs-scalar bitwise equality for every kernel rewired through
//! `fedat_tensor::simd`, over awkward shapes (non-multiple-of-8 tails,
//! dims in 1..=17, matmul columns in 1..=40 so the 16-lane, 8-lane and
//! masked tiles all run) × thread counts {1, 2, 4, 8}, plus the portable
//! fallback (ISA-independence: `Auto` must not depend on what the host
//! detects). The matmul cases start from a non-zero output holding `-0.0`,
//! put ±inf and NaN into `B`, and sweep the `A` zero share from 0% to 90%,
//! so both zero-skip forms are compared bit for bit.
//!
//! Each case scopes its kernel selection with a thread-local
//! [`KernelCtx`] overlay, so concurrently running tests never see each
//! other's selections.

use fedat_tensor::conv::{conv2d_forward, Conv2dSpec};
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::ops::{
    axpby, axpy, dist_sq, dot, lerp_into, matmul_into, matmul_nt_into, matmul_tn_into, scale,
    weighted_sum_into,
};
use fedat_tensor::rng::rng_for;
use fedat_tensor::simd::{self, AdamParams, SimdKernel};
use fedat_tensor::Tensor;
use proptest::prelude::*;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// A named in-place kernel under test.
type Case<'a> = (&'a str, Box<dyn Fn(&mut [f32]) + 'a>);

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rng_for(seed, 63);
    let mut v = vec![0.0f32; len];
    fedat_tensor::rng::fill_normal(&mut rng, &mut v, 0.0, 1.0);
    v
}

/// Zeroes a deterministic subset of a buffer — the post-ReLU / post-pool
/// sparsity the matmul zero-skip reacts to. The zero share runs from 0% to
/// 90% with `seed % 10` (max-pool backward leaves about 90%), so calls land
/// on both sides of the kernel's dense/sparse threshold; every other zero
/// is `-0.0`, which the skip must treat exactly like `0.0`.
fn sparsify(v: &mut [f32], seed: u64) {
    let tenths = seed % 10;
    for (i, x) in v.iter_mut().enumerate() {
        if (i as u64).wrapping_mul(2654435761) % 10 < tenths {
            *x = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
}

/// Puts one IEEE special (+inf, −inf or NaN, in turn) into every third
/// output column of a `[depth, lanes]` right-hand operand; `at(p, j)` maps
/// row `p`, column `j` to the buffer index. A zero `A` element meeting a
/// special must be skipped (`0·inf` is NaN), and one special per column
/// keeps the NaN payloads single-sourced, so a bitwise comparison is fair.
fn specials(v: &mut [f32], depth: usize, lanes: usize, at: impl Fn(usize, usize) -> usize) {
    const SPECIALS: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for j in (0..lanes).step_by(3) {
        v[at((j * 7 + 1) % depth, j)] = SPECIALS[(j / 3) % 3];
    }
}

/// The initial output buffer: non-zero values with every fifth element
/// `-0.0`, so the accumulators start from state the skip must preserve.
fn seeded_out(len: usize, seed: u64) -> Vec<f32> {
    let mut c = filled(len, seed ^ 0x5eed);
    for v in c.iter_mut().step_by(5) {
        *v = -0.0;
    }
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` on this thread under the given SIMD kernel, portable-only
/// override and kernel thread cap.
fn under<R>(simd: SimdKernel, portable_only: bool, max_threads: usize, f: impl FnOnce() -> R) -> R {
    let _k = ctx::install(KernelCtx {
        simd,
        portable_only,
        max_threads,
        ..ctx::snapshot()
    });
    f()
}

/// Runs `kernel` (writing into a copy of `init`) under
/// `SimdKernel::Scalar` at one thread as the reference, then under `Auto`
/// (ISA path and portable fallback) across the thread sweep, asserting
/// bitwise equality (`to_bits`, so NaN results are compared too).
fn assert_simd_invariant(init: &[f32], kernel: impl Fn(&mut [f32])) -> Result<(), TestCaseError> {
    let run = |simd, portable, threads| {
        under(simd, portable, threads, || {
            let mut out = init.to_vec();
            kernel(&mut out);
            bits(&out)
        })
    };
    let reference = run(SimdKernel::Scalar, false, 1);
    for portable in [false, true] {
        for &t in &THREAD_SWEEP {
            let got = run(SimdKernel::Auto, portable, t);
            prop_assert_eq!(
                &reference,
                &got,
                "SIMD kernel (portable={}) diverged from scalar at {} threads",
                portable,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn matmul_nn_simd_matches_scalar_bitwise(
        m in 1usize..=17, k in 1usize..=17, n in 1usize..=40, seed in 0u64..500
    ) {
        let mut a = filled(m * k, seed);
        sparsify(&mut a, seed);
        let mut b = filled(k * n, seed ^ 1);
        specials(&mut b, k, n, |p, j| p * n + j);
        assert_simd_invariant(&seeded_out(m * n, seed), |c| matmul_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn matmul_tn_simd_matches_scalar_bitwise(
        m in 1usize..=17, k in 1usize..=17, n in 1usize..=40, seed in 0u64..500
    ) {
        let mut a = filled(k * m, seed);
        sparsify(&mut a, seed);
        let mut b = filled(k * n, seed ^ 2);
        specials(&mut b, k, n, |p, j| p * n + j);
        assert_simd_invariant(&seeded_out(m * n, seed), |c| matmul_tn_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn matmul_nt_simd_matches_scalar_bitwise(
        m in 1usize..=17, k in 1usize..=17, n in 1usize..=40, seed in 0u64..500
    ) {
        let mut a = filled(m * k, seed);
        sparsify(&mut a, seed);
        // `B` is `[n, k]`; the kernel's column `j` is `B`'s row `j`.
        let mut b = filled(n * k, seed ^ 3);
        specials(&mut b, k, n, |p, j| j * k + p);
        assert_simd_invariant(&seeded_out(m * n, seed), |c| matmul_nt_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn large_matmul_simd_matches_scalar_bitwise(seed in 0u64..50) {
        // Past the 4-row × 16-column register tile: covers full tiles plus
        // row/column tails in one shape.
        let (m, k, n) = (61, 37, 53);
        let mut a = filled(m * k, seed);
        sparsify(&mut a, seed);
        let b = filled(k * n, seed ^ 4);
        assert_simd_invariant(&seeded_out(m * n, seed), |c| matmul_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn conv_forward_simd_matches_scalar_bitwise(
        batch in 1usize..4, cin in 1usize..4, cout in 1usize..6, seed in 0u64..300
    ) {
        let (h, w) = (7usize, 9usize);
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel: 3, stride: 1, padding: 1 };
        let input = Tensor::from_vec(filled(batch * cin * h * w, seed), &[batch, cin, h, w]);
        let weight = Tensor::from_vec(filled(cout * cin * 9, seed ^ 5), &[cout, cin * 9]);
        let bias = Tensor::from_vec(filled(cout, seed ^ 6), &[cout]);
        let conv = || conv2d_forward(&input, &weight, &bias, h, w, &spec).0;
        let reference = under(SimdKernel::Scalar, false, 1, conv);
        for &t in &THREAD_SWEEP {
            let got = under(SimdKernel::Auto, false, t, conv);
            prop_assert_eq!(reference.data(), got.data(), "conv diverged at {} threads", t);
        }
    }

    #[test]
    fn elementwise_kernels_simd_match_scalar_bitwise(
        len in 1usize..100, alpha in -3.0f32..3.0, beta in -2.0f32..2.0, seed in 0u64..500
    ) {
        let x = filled(len, seed);
        let base = filled(len, seed ^ 7);
        let sweep = |f: &dyn Fn(&mut [f32])| -> (Vec<f32>, Vec<f32>) {
            let run = |kernel| {
                under(kernel, false, 1, || {
                    let mut y = base.clone();
                    f(&mut y);
                    y
                })
            };
            (run(SimdKernel::Scalar), run(SimdKernel::Auto))
        };
        let t = (alpha / 3.0 + 1.0) / 2.0;
        let cases: Vec<Case> = vec![
            ("axpy", Box::new(|y: &mut [f32]| axpy(alpha, &x, y))),
            ("axpby", Box::new(|y: &mut [f32]| axpby(alpha, &x, beta, y))),
            ("lerp", Box::new(|y: &mut [f32]| lerp_into(y, &x, t))),
            ("scale", Box::new(|y: &mut [f32]| scale(y, alpha))),
            ("mul_assign", Box::new(|y: &mut [f32]| simd::mul_assign(y, &x))),
            ("add_assign", Box::new(|y: &mut [f32]| simd::add_assign(y, &x))),
            ("add_scalar", Box::new(|y: &mut [f32]| simd::add_scalar(y, alpha))),
            ("wsum_first", Box::new(|y: &mut [f32]| simd::wsum_first(y, &x, alpha))),
            ("relu", Box::new(|y: &mut [f32]| simd::relu(y))),
            ("tanh_grad", Box::new(|y: &mut [f32]| simd::tanh_grad(y, &x))),
            ("sigmoid_grad", Box::new(|y: &mut [f32]| simd::sigmoid_grad(y, &x))),
            ("prox_grad", Box::new(|y: &mut [f32]| simd::prox_grad(y, &x, &base, alpha))),
        ];
        for (name, f) in &cases {
            let (want, got) = sweep(f);
            prop_assert_eq!(want, got, "{} diverged from scalar", name);
        }
    }

    #[test]
    fn optimizer_steps_simd_match_scalar_bitwise(len in 1usize..100, seed in 0u64..500) {
        let g = filled(len, seed);
        let w0 = filled(len, seed ^ 8);
        let s0 = filled(len, seed ^ 9);
        let v0: Vec<f32> = filled(len, seed ^ 10).iter().map(|v| v * v).collect();
        let adam = AdamParams { lr: 0.01, beta1: 0.9, beta2: 0.999, bc1: 0.1, bc2: 0.001, eps: 1e-8 };
        let run = |kernel: SimdKernel| {
            under(kernel, false, 1, || {
                let (mut w, mut s, mut v) = (w0.clone(), s0.clone(), v0.clone());
                simd::sgd_momentum_step(&mut w, &g, &mut s, 0.9, 0.05);
                simd::adam_step(&mut w, &g, &mut s, &mut v, &adam);
                (w, s, v)
            })
        };
        prop_assert_eq!(run(SimdKernel::Scalar), run(SimdKernel::Auto));
    }

    #[test]
    fn reductions_simd_match_scalar_bitwise(len in 1usize..200, seed in 0u64..500) {
        let x = filled(len, seed);
        let y = filled(len, seed ^ 11);
        let reduce = || (dot(&x, &y).to_bits(), dist_sq(&x, &y).to_bits());
        let reference = under(SimdKernel::Scalar, false, 1, reduce);
        for portable in [false, true] {
            let got = under(SimdKernel::Auto, portable, 1, reduce);
            prop_assert_eq!(got, reference, "dot/dist_sq (portable={})", portable);
        }
    }

    #[test]
    fn weighted_sum_simd_matches_scalar_bitwise(
        n_inputs in 1usize..12, dim in 1usize..600, seed in 0u64..300
    ) {
        let inputs: Vec<Vec<f32>> = (0..n_inputs)
            .map(|j| filled(dim, seed ^ ((j as u64) << 9)))
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let weights: Vec<f32> = (0..n_inputs).map(|j| (j + 1) as f32 * 0.1).collect();
        assert_simd_invariant(&vec![0.0; dim], |out| weighted_sum_into(&refs, &weights, out))?;
    }

    #[test]
    fn transpose_matches_naive_gather(rows in 1usize..50, cols in 1usize..50, seed in 0u64..300) {
        // The cache-blocked transpose vs the seed's per-element gather.
        let src = filled(rows * cols, seed);
        let mut naive = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            naive.extend((0..rows).map(|r| src[r * cols + c]));
        }
        let mut blocked = vec![0.0f32; rows * cols];
        simd::transpose(&src, &mut blocked, rows, cols);
        prop_assert_eq!(naive, blocked);
    }
}
