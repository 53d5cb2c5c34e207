//! R5 fixture: library code re-routing kernels behind its run's back.
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::simd::SimdKernel;

pub fn train_scalar(f: impl FnOnce()) {
    let _k = ctx::install(KernelCtx { simd: SimdKernel::Scalar, ..ctx::snapshot() });
    f();
}

pub fn run_on_defaults(f: impl FnOnce()) {
    let _k = fedat_tensor::ctx::set_overlay(None);
    f();
}
