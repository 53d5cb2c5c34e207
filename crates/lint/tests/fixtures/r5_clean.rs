//! R5 fixture: runs enter their ExecCtx; importing or defining an
//! installer and scoping overlays in the file's test module are fine.
use fedat_core::exec::ExecCtx;
use fedat_tensor::ctx::{install, KernelCtx};

pub fn run(cfg: &ExperimentConfig) {
    let exec = ExecCtx::resolve(cfg);
    let _overlay = exec.enter();
}

pub fn set_overlay(_name: &str) {
    // a same-named local definition is not a call
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_matches_auto() {
        let _k = install(KernelCtx { ..fedat_tensor::ctx::snapshot() });
    }
}
