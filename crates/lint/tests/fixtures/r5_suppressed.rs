//! R5 fixture: an audited library-side overlay, with a reason.
use fedat_tensor::ctx::{self, KernelCtx};

pub fn evaluate_serially(f: impl FnOnce()) {
    // lint: allow(R5, reason = "fixture: an audited override of the run's thread cap")
    let _k = ctx::install(KernelCtx { max_threads: 1, ..ctx::snapshot() });
    f();
}
