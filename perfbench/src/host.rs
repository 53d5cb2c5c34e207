//! Host facts for the record header, and the process's peak memory.

use std::process::Command;

/// Logical cores the OS grants this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// Revision of the checkout the benchmark runs from, when it is a git
/// work tree (`.git` in the current directory); `"unknown"` otherwise.
pub fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`; `NaN` where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Escapes a string for a JSON literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The self-describing record header, as one JSON line.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool, pool_workers: usize) -> String {
    let cores = cores();
    let mut fields = vec![
        format!("\"workload\": {}", quote(workload)),
        format!("\"seed\": {seed}"),
        format!("\"seconds\": {seconds}"),
        format!("\"trace\": {trace}"),
        format!("\"host_cores\": {cores}"),
        format!("\"pool_workers\": {pool_workers}"),
        format!(
            "\"simd_backend\": {}",
            quote(fedat_tensor::simd::backend_name())
        ),
        format!("\"rustc\": {}", quote(env!("PERFBENCH_RUSTC"))),
        format!("\"git_rev\": {}", quote(&git_rev())),
    ];
    if cores == 1 {
        fields.push(format!(
            "\"host_warning\": {}",
            quote(
                "single-core host: the pool has no helper workers, so speculative \
                 training, pipelined eval and the grid run serially"
            )
        ));
    }
    format!("{{\"header\": {{{}}}}}", fields.join(", "))
}
