//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fedat-cnn-100|fedat-mlp-500-churn> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`): one untimed reference run through the product
//! entry point, then timed repetitions of the rebuilt run (members one
//! after another) until `--seconds` have passed, each in a fresh child
//! process (`--child`) so that per-process luck (thread placement, heap
//! layout) averages out across repetitions; prints the end-to-end metrics.
//! Traced (`--trace 1`): the reference, untraced baseline repetitions
//! (members alone, and members through `run_grid`), one span-recording run
//! and the layer probes, all in this process; prints the per-layer metrics. Every run passes the
//! output gate before its numbers count; the last stdout line is the JSON
//! result.

mod host;
mod metrics;
mod probes;
mod run;
mod stats;
mod workload;

use fedat_bench::grid::run_grid;
use fedat_bench::harness::Job;
use fedat_core::strategies::FaultCounters;
use fedat_core::{run_experiment_shared, Outcome};
use fedat_tensor::pool::quiesce;
use metrics::Values;
use run::{prepare, run_member, secs_since, verify, Breakdown, Prepared, SetupTimes, SpanLog};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::{update_budget, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Threads the benchmark may use in total (event loop plus pool workers).
const MAX_THREADS: usize = 2;
/// `run_grid`'s worker hint.
const GRID_WORKERS: usize = 2;
/// Timed repetitions made even when `--seconds` is already spent.
const MIN_REPS: usize = 3;
/// Extra set-ups made before the runs, so `setup_s` is a median of many.
const EXTRA_SETUPS: usize = 8;
/// A run still going after this long is ended and counted as failed.
const RUN_CAP: Duration = Duration::from_secs(40);
/// The whole process gives up (exit 3, no result) after this long.
const HARD_LIMIT: Duration = Duration::from_secs(170);
/// Sampling time per layer probe.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

const USAGE: &str = "usage: perfbench --workload <fedat-cnn-100|fedat-mlp-500-churn> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one timed repetition and print one `child` line.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--child" => child = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

/// Output-gate bookkeeping: every run, in this process or a child, must
/// pass `run::verify` and match the reference run's digests bit for bit.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    /// Digests of the first run that passed.
    reference: Option<Vec<u64>>,
}

impl Gate {
    /// Judges one run from its member digests (or why it has none) and
    /// returns whether it passed. The first run to pass is the reference.
    fn judge(&mut self, label: &str, run: Result<Vec<u64>, String>) -> bool {
        self.attempted += 1;
        let run = run.and_then(|d| match &self.reference {
            Some(r) if *r != d => Err("differs from the reference bits".into()),
            _ => Ok(d),
        });
        match run {
            Ok(d) => {
                self.reference.get_or_insert(d);
                true
            }
            Err(msg) => {
                eprintln!("[gate] {label}: {msg}");
                self.failed += 1;
                false
            }
        }
    }

    /// Judges in-process outcomes.
    fn judge_outcomes(
        &mut self,
        label: &str,
        budgets: &[u64],
        run: &Result<Vec<Outcome>, String>,
    ) -> bool {
        let digests = match run {
            Ok(o) => verify(o, budgets),
            Err(msg) => Err(msg.clone()),
        };
        self.judge(label, digests)
    }

    fn pass_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

fn budgets(p: &Prepared) -> Vec<u64> {
    p.members.iter().map(|m| update_budget(&m.cfg)).collect()
}

/// The product path: `run_experiment_shared` for each member in turn.
/// Returns the outcomes and the wall time.
fn product_run(p: Prepared) -> (Vec<Outcome>, f64) {
    let t = Instant::now();
    let outcomes = p
        .members
        .iter()
        .map(|m| run_experiment_shared(&p.task, &m.cfg))
        .collect();
    (outcomes, secs_since(t))
}

/// The members as one concurrent `run_grid` at `GRID_WORKERS` workers.
/// Returns the outcomes and the wall time.
fn grid_run(p: Prepared) -> (Vec<Outcome>, f64) {
    let t = Instant::now();
    let jobs = p
        .members
        .into_iter()
        .map(|m| Job {
            label: format!("{} seed {}", m.cfg.strategy.name(), m.cfg.seed),
            task: p.task.clone(),
            cfg: m.cfg,
        })
        .collect();
    let outcomes = run_grid(jobs, GRID_WORKERS)
        .into_iter()
        .map(|r| r.outcome)
        .collect();
    (outcomes, secs_since(t))
}

/// One rebuilt run of every member, one after another.
struct Rebuilt {
    outcomes: Vec<Outcome>,
    /// Summed member wall time.
    wall_s: f64,
    /// The traced breakdown (empty when untraced).
    breakdown: Breakdown,
    launches: u64,
    discards: u64,
}

/// The rebuilt path, members one after another, optionally traced.
fn rebuilt_run(p: Prepared, traced: bool) -> Rebuilt {
    let mut run = Rebuilt {
        outcomes: Vec::new(),
        wall_s: 0.0,
        breakdown: Breakdown::default(),
        launches: 0,
        discards: 0,
    };
    for m in p.members {
        let label = format!("{} seed {}", m.cfg.strategy.name(), m.cfg.seed);
        let mut log = traced.then(SpanLog::new);
        let r = run_member(&p.task, m, Instant::now() + RUN_CAP, log.as_mut());
        if let Some(log) = &log {
            run.breakdown.add(log);
            eprintln!(
                "[perfbench] traced {label}: {:.3} s, {} updates",
                r.wall_s, r.outcome.global_updates
            );
        }
        if r.capped {
            eprintln!("[gate] {label} ended at the {RUN_CAP:?} wall-clock cap");
        }
        run.wall_s += r.wall_s;
        run.launches += r.launches;
        run.discards += r.discards;
        run.outcomes.push(r.outcome);
    }
    run
}

/// Runs `f` under the panic guard, after abandoned speculative jobs of the
/// previous run have drained, and returns its outcomes with its wall time.
/// A run that outlived the cap fails even when it finished: the rebuilt
/// runs stop themselves at the cap, but `run_grid` cannot be stopped and
/// is judged after the fact.
fn attempt(f: impl FnOnce() -> (Vec<Outcome>, f64)) -> (Result<Vec<Outcome>, String>, f64) {
    quiesce();
    match guarded(f) {
        Ok((_, wall)) if wall > RUN_CAP.as_secs_f64() => (
            Err(format!("{wall:.1} s exceeds the {RUN_CAP:?} cap")),
            wall,
        ),
        Ok((o, wall)) => (Ok(o), wall),
        Err(msg) => (Err(msg), f64::NAN),
    }
}

/// The seed-deterministic end-to-end metrics, from the first passing run.
fn deterministic(values: &mut Values, first: Option<&[Outcome]>) {
    let (mut acc, mut virt, mut up, mut down) = (f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    if let Some(outcomes) = first {
        let n = outcomes.len() as f64;
        acc = outcomes
            .iter()
            .map(|o| f64::from(o.best_accuracy()))
            .sum::<f64>()
            / n;
        virt = outcomes.iter().map(|o| o.report.end_time).sum();
        let last = |o: &Outcome| *o.trace.points.last().expect("gated runs have a trace");
        up = outcomes
            .iter()
            .map(|o| last(o).up_bytes as f64)
            .sum::<f64>()
            / 1e6;
        down = outcomes
            .iter()
            .map(|o| last(o).down_bytes as f64)
            .sum::<f64>()
            / 1e6;
    }
    values.set("best_accuracy", acc);
    values.set("virtual_s", virt);
    values.set("uplink_mb", up);
    values.set("downlink_mb", down);
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        stats::median(v)
    }
}

fn extra_setups(args: &Args, setups: &mut Vec<SetupTimes>) {
    for _ in 0..EXTRA_SETUPS {
        setups.push(prepare(args.workload, args.seed).times);
    }
}

/// The untimed reference and warm-up run through the product entry point.
/// Returns its outcomes when it passed the gate.
fn reference_run(gate: &mut Gate, p: Prepared) -> Option<Vec<Outcome>> {
    let budgets = budgets(&p);
    let run = attempt(|| product_run(p)).0;
    if gate.judge_outcomes("reference", &budgets, &run) {
        run.ok()
    } else {
        None
    }
}

/// One timed repetition: the rebuilt run, members one after another.
fn timed_rep(p: Prepared) -> (Vec<Outcome>, f64) {
    let r = rebuilt_run(p, false);
    (r.outcomes, r.wall_s)
}

/// `--child`: one timed repetition in this fresh process, reported as
/// `child <wall_s> <peak_rss_mb> <digest,...>` or `child-failed <why>`.
fn child(args: &Args) {
    let p = prepare(args.workload, args.seed);
    let budgets = budgets(&p);
    let (run, wall) = attempt(|| timed_rep(p));
    match run.and_then(|o| verify(&o, &budgets)) {
        Ok(digests) => {
            let digests: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
            println!("child {wall} {} {}", host::peak_rss_mb(), digests.join(","));
        }
        Err(msg) => println!("child-failed {msg}"),
    }
}

/// A timed repetition made by a child process.
struct ChildRep {
    digests: Vec<u64>,
    wall_s: f64,
    peak_rss_mb: f64,
}

/// Runs one timed repetition in a fresh child process (this executable with
/// `--child`), killing it at the cap, and parses its report.
fn child_rep(args: &Args) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--child")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting a child: {e}"))?;
    let start = Instant::now();
    // The child prints one short line, far below a pipe's capacity, so it
    // can never block on stdout while this loop waits for it.
    while child
        .try_wait()
        .map_err(|e| format!("waiting for a child: {e}"))?
        .is_none()
    {
        if start.elapsed() > RUN_CAP {
            // Kill and reap: the repetition fails instead of being waited on.
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("killed at the {RUN_CAP:?} cap"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child
        .wait_with_output()
        .map_err(|e| format!("reading a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["child", wall, rss, digests] => Ok(ChildRep {
            wall_s: wall
                .parse()
                .map_err(|e| format!("child wall {wall}: {e}"))?,
            peak_rss_mb: rss.parse().map_err(|e| format!("child rss {rss}: {e}"))?,
            digests: digests
                .split(',')
                .map(|d| u64::from_str_radix(d, 16).map_err(|e| format!("child digest {d}: {e}")))
                .collect::<Result<_, _>>()?,
        }),
        ["child-failed", ..] => Err(line["child-failed".len()..].trim().to_string()),
        _ => Err(format!("unreadable child report {line:?}")),
    }
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args) -> (Gate, Values) {
    let w = args.workload;
    let mut gate = Gate::default();
    let mut setups = Vec::new();
    extra_setups(args, &mut setups);

    let p = prepare(w, args.seed);
    setups.push(p.times);
    let total_updates: u64 = budgets(&p).iter().sum();
    let first = reference_run(&mut gate, p);

    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs() < args.seconds {
        reps += 1;
        let label = format!("repetition {reps}");
        match child_rep(args) {
            Ok(rep) => {
                if gate.judge(&label, Ok(rep.digests)) {
                    rates.push(total_updates as f64 / rep.wall_s);
                    rss.push(rep.peak_rss_mb);
                }
            }
            Err(msg) => {
                gate.judge(&label, Err(msg));
            }
        }
    }
    eprintln!(
        "[perfbench] {reps} timed repetitions in {:.1} s; updates/s each: {rates:.1?}",
        secs_since(start)
    );

    let mut values = Values::default();
    values.set("updates_per_s", median_or_nan(&rates));
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    values.set("setup_s", stats::median(&totals));
    values.set("peak_rss_mb", median_or_nan(&rss));
    deterministic(&mut values, first.as_deref());
    values.set("pass_share", gate.pass_share());
    (gate, values)
}

/// `--trace 1`: the per-layer metrics.
fn traced(args: &Args) -> (Gate, Values) {
    let w = args.workload;
    let mut gate = Gate::default();
    let mut setups = Vec::new();
    extra_setups(args, &mut setups);

    let p = prepare(w, args.seed);
    setups.push(p.times);
    let budgets = budgets(&p);
    let probe_task = p.task.clone();
    let probe_cfg = p.members[0].cfg.clone();
    let first = reference_run(&mut gate, p);

    // Untraced baseline for half of `--seconds` (at least once): every
    // member alone, one after another (the traced run's untraced twin),
    // paired with the same members run concurrently through `run_grid`.
    let mut serial_walls = Vec::new();
    let mut grid_walls = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || start.elapsed().as_secs_f64() < args.seconds as f64 / 2.0 {
        reps += 1;
        let p = prepare(w, args.seed);
        setups.push(p.times);
        let (run, wall) = attempt(|| timed_rep(p));
        if gate.judge_outcomes("untraced baseline", &budgets, &run) {
            serial_walls.push(wall);
        }
        let p = prepare(w, args.seed);
        setups.push(p.times);
        let (run, wall) = attempt(|| grid_run(p));
        if gate.judge_outcomes("grid", &budgets, &run) {
            grid_walls.push(wall);
        }
    }

    // The traced run.
    let p = prepare(w, args.seed);
    setups.push(p.times);
    quiesce();
    let (run, breakdown, launches, discards) = match guarded(|| rebuilt_run(p, true)) {
        Ok(r) => (Ok(r.outcomes), r.breakdown, r.launches, r.discards),
        Err(msg) => (Err(msg), Breakdown::default(), 0, 0),
    };
    let mut faults = FaultCounters::default();
    let mut events = 0u64;
    for o in run.iter().flatten() {
        let f = o.fault_counters;
        faults.timeouts += f.timeouts;
        faults.retries += f.retries;
        faults.revivals += f.revivals;
        faults.clips += f.clips;
        faults.rejects += f.rejects;
        faults.stale += f.stale;
        events += o.report.events;
    }
    gate.judge_outcomes("traced", &budgets, &run);

    let weights = first
        .as_ref()
        .map(|o| o[0].final_weights.clone())
        .unwrap_or_else(|| probe_task.model.build(args.seed).weights());
    let probe = probes::run(&probe_task, &probe_cfg, &weights, PROBE_BUDGET);

    let untraced_wall = median_or_nan(&serial_walls);
    let mut completion = breakdown.completion_us.clone();
    completion.sort_by(f64::total_cmp);
    let (p50, p99) = if completion.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (
            stats::percentile(&completion, 50.0),
            stats::percentile(&completion, 99.0),
        )
    };
    eprintln!(
        "[perfbench] {} on_completion samples; highest percentile with ten samples beyond it: {:?}",
        completion.len(),
        stats::supported_tail(completion.len())
    );

    if let Some(s) = breakdown.slowest {
        eprintln!(
            "[perfbench] slowest callback: {:?} client {} tag {:#x}, {:.1} us",
            s.kind,
            s.client,
            s.tag,
            (s.end - s.start) as f64 * 1e-3
        );
    }

    let mut v = Values::default();
    v.set("local.train_ms", probe.train_ms);
    v.set("local.samples_per_s", probe.train_samples_per_s);
    v.set("compress.encode_us", probe.encode_us);
    v.set("compress.decode_us", probe.decode_us);
    v.set("compress.ratio", probe.ratio);
    v.set("strategies.on_start_s", breakdown.on_start_s);
    v.set("strategies.on_completion_s", breakdown.on_completion_s);
    v.set("strategies.on_completion_us_p50", p50);
    v.set("strategies.on_completion_us_p99", p99);
    v.set("strategies.on_completion_n", completion.len() as f64);
    v.set("strategies.on_timer_s", breakdown.on_timer_s);
    v.set("sim.loop_self_s", breakdown.loop_self_s);
    v.set("sim.events", events as f64);
    v.set("sim.timer_events", breakdown.timer_events as f64);
    v.set("exec.launches", launches as f64);
    v.set("exec.discards", discards as f64);
    v.set(
        "exec.discard_ratio",
        discards as f64 / launches.max(1) as f64,
    );
    v.set("fault.timeouts", faults.timeouts as f64);
    v.set("fault.retries", faults.retries as f64);
    v.set("fault.revivals", faults.revivals as f64);
    v.set("fault.clips", faults.clips as f64);
    v.set("fault.rejects", faults.rejects as f64);
    v.set("fault.stale", faults.stale as f64);
    v.set("grid.serial_s", untraced_wall);
    v.set("grid.speedup", untraced_wall / median_or_nan(&grid_walls));
    v.set("eval.evaluate_ms", probe.evaluate_ms);
    v.set("eval.per_client_ms", probe.per_client_ms);
    v.set("eval.flush_s", breakdown.flush_s);
    v.set("eval.final_s", breakdown.final_s);
    v.set("aggregate.clients_us", probe.aggregate_clients_us);
    v.set("aggregate.tiers_us", probe.aggregate_tiers_us);
    v.set("aggregate.lerp_us", probe.lerp_us);
    let phase =
        |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    v.set("data.task_gen_s", phase(|s| s.task_gen_s));
    v.set("sim.fleet_build_s", phase(|s| s.fleet_build_s));
    v.set("strategies.build_s", phase(|s| s.strategy_build_s));
    v.set("trace.wall_s", breakdown.wall_s);
    v.set("trace.overhead_s", breakdown.wall_s - untraced_wall);
    v.set("trace.residual_s", breakdown.residual_s());
    (gate, v)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Pin the thread budget before the kernel pool starts: the event-loop
    // thread plus at most MAX_THREADS - 1 pool workers, on any host. No
    // other thread exists yet, so changing the environment is sound.
    if std::env::var_os("FEDAT_POOL_WORKERS").is_none() {
        let workers = host::cores().min(MAX_THREADS).saturating_sub(1);
        std::env::set_var("FEDAT_POOL_WORKERS", workers.to_string());
    }
    // Watchdog for a hang no cap can stop (an in-process product-path or
    // `run_grid` run). It is never joined: it either ends the process or
    // dies with it.
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("perfbench: still running after {HARD_LIMIT:?}; giving up");
        std::process::exit(3);
    });

    if args.child {
        child(&args);
        return;
    }

    let header = host::header(
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        fedat_tensor::pool::worker_count(),
    );
    println!("{header}");
    let (gate, values) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for line in metrics::lines(table, &values) {
        println!("{line}");
    }
    let correct = gate.failed == 0 && gate.reference.is_some();
    println!(
        "{}",
        metrics::result_json(correct, gate.attempted, gate.failed, table, &values)
    );
}
