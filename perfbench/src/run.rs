//! `run_experiment_shared`, rebuilt from public pieces so set-up is timed
//! apart from the run and the strategy can sit behind a bench-side
//! [`EventHandler`] that records one span per callback.
//!
//! The rebuilt run is checked bit for bit against the product entry points
//! (`run_experiment_shared`, `run_grid`) by the output gate in `main.rs`.

use crate::stats;
use crate::workload::Workload;
use fedat_core::config::ExperimentConfig;
use fedat_core::eval::{accuracy_variance, per_client_accuracy};
use fedat_core::exec::{speculative_discards, speculative_launches, ExecCtx};
use fedat_core::strategies::{build_strategy, Strategy};
use fedat_core::Outcome;
use fedat_data::suite::FedTask;
use fedat_sim::fleet::Fleet;
use fedat_sim::runtime::{run_logged, Completion, EventHandler, RunLimits, SimCtx, StopReason};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Wall time of each set-up phase of one workload instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generating the federated task from the seed.
    pub task_gen_s: f64,
    /// Building every member's simulated fleet.
    pub fleet_build_s: f64,
    /// Resolving every member's execution context and building its strategy.
    pub strategy_build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.task_gen_s + self.fleet_build_s + self.strategy_build_s
    }
}

/// One member run, set up and ready to drive.
pub struct Member {
    /// The member's config (its cluster is always explicit).
    pub cfg: ExperimentConfig,
    fleet: Fleet,
    exec: ExecCtx,
    strategy: Box<dyn Strategy>,
}

/// A set-up workload instance.
pub struct Prepared {
    /// The shared task.
    pub task: Arc<FedTask>,
    /// One entry per member run.
    pub members: Vec<Member>,
    /// How long set-up took, by phase.
    pub times: SetupTimes,
}

/// Sets up `workload` for `seed` the way `run_experiment_shared` does:
/// task, then fleet, then the execution context and strategy.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let t = Instant::now();
    let task = Arc::new(workload.task(seed));
    let task_gen_s = secs_since(t);
    let cfgs = workload.configs(task.fed.num_clients(), seed);

    let t = Instant::now();
    let fleets: Vec<Fleet> = cfgs
        .iter()
        .map(|cfg| {
            let cluster = cfg
                .cluster
                .as_ref()
                .expect("workload configs carry a cluster");
            Fleet::new(cluster, task.fed.client_sizes())
        })
        .collect();
    let fleet_build_s = secs_since(t);

    let t = Instant::now();
    let members = cfgs
        .into_iter()
        .zip(fleets)
        .map(|(cfg, fleet)| {
            let exec = ExecCtx::resolve(&cfg);
            let _overlay = exec.enter();
            let strategy = build_strategy(Arc::clone(&task), &cfg, &fleet, exec);
            Member {
                cfg,
                fleet,
                exec,
                strategy,
            }
        })
        .collect();
    let strategy_build_s = secs_since(t);

    Prepared {
        task,
        members,
        times: SetupTimes {
            task_gen_s,
            fleet_build_s,
            strategy_build_s,
        },
    }
}

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole member run, from the event loop's start to the end of the
    /// final per-client evaluation.
    Run,
    /// `run_logged` (the event loop including the handler callbacks).
    Loop,
    /// `EventHandler::on_start`.
    Start,
    /// `EventHandler::on_completion`.
    Completion,
    /// `EventHandler::on_timer`.
    Timer,
    /// `Strategy::flush_evals` (waiting on the pipelined evaluation).
    Flush,
    /// The final `per_client_accuracy` sweep.
    FinalEval,
}

/// One timed interval, in nanoseconds since the log's origin. `client` is
/// `u32::MAX` where no client is involved; `tag` is the event tag (0 where
/// there is none).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub client: u32,
    pub tag: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// In-memory span store of one traced member run.
pub struct SpanLog {
    origin: Instant,
    /// Spans in the order they closed.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, kind: SpanKind, client: u32, tag: u64, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            kind,
            client,
            tag,
            start,
            end,
        });
    }
}

/// The bench-side event handler: forwards every callback to the strategy,
/// records a span per callback when a [`SpanLog`] is attached, and ends the
/// run early once the wall-clock cap has passed (the run then stops short
/// of its budget and fails the output gate instead of being waited on).
struct BenchHandler<'a> {
    inner: &'a mut dyn Strategy,
    log: Option<&'a mut SpanLog>,
    deadline: Instant,
    polls: Cell<u32>,
    capped: Cell<bool>,
}

impl BenchHandler<'_> {
    fn call(&mut self, kind: SpanKind, client: u32, tag: u64, f: impl FnOnce(&mut dyn Strategy)) {
        match self.log.as_deref_mut() {
            None => f(&mut *self.inner),
            Some(log) => {
                let start = log.now();
                f(&mut *self.inner);
                log.push(kind, client, tag, start);
            }
        }
    }
}

impl EventHandler for BenchHandler<'_> {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.call(SpanKind::Start, u32::MAX, 0, |s| s.on_start(ctx));
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, completion: Completion) {
        self.call(
            SpanKind::Completion,
            completion.client as u32,
            completion.tag,
            |s| s.on_completion(ctx, completion),
        );
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, tag: u64) {
        self.call(SpanKind::Timer, u32::MAX, tag, |s| s.on_timer(ctx, tag));
    }

    fn finished(&self) -> bool {
        if self.inner.finished() {
            return true;
        }
        // Reading the clock on every event would cost more than some
        // callbacks; every 64th poll bounds the overshoot to 64 events.
        let polls = self.polls.get().wrapping_add(1);
        self.polls.set(polls);
        if polls.is_multiple_of(64) && Instant::now() >= self.deadline {
            self.capped.set(true);
        }
        self.capped.get()
    }
}

/// Runs `f`, recording it as a `kind` span when a log is attached.
fn span<T>(log: &mut Option<&mut SpanLog>, kind: SpanKind, f: impl FnOnce() -> T) -> T {
    let start = log.as_ref().map_or(0, |l| l.now());
    let out = f();
    if let Some(l) = log.as_mut() {
        l.push(kind, u32::MAX, 0, start);
    }
    out
}

/// A finished member run.
pub struct MemberRun {
    /// Everything `run_experiment_shared` would have returned.
    pub outcome: Outcome,
    /// Wall seconds from the event loop's start to the end of the final
    /// per-client evaluation (set-up excluded).
    pub wall_s: f64,
    /// Speculative training jobs launched during the run (process counter
    /// delta: exact only while no other run is in flight).
    pub launches: u64,
    /// Speculative results discarded during the run (same caveat).
    pub discards: u64,
    /// Whether the wall-clock cap ended the run.
    pub capped: bool,
}

/// Drives one member to its budget (or the cap), mirroring the body of
/// `run_experiment_shared` after set-up.
pub fn run_member(
    task: &Arc<FedTask>,
    member: Member,
    deadline: Instant,
    mut log: Option<&mut SpanLog>,
) -> MemberRun {
    let Member {
        cfg,
        fleet,
        exec,
        mut strategy,
    } = member;
    let _overlay = exec.enter();
    let limits = RunLimits {
        max_time: cfg.max_time,
        // The same event cap `run_experiment_shared` applies.
        max_events: 20_000_000,
    };
    let launches0 = speculative_launches();
    let discards0 = speculative_discards();
    let t_run = Instant::now();
    let start = log.as_ref().map_or(0, |l| l.now());
    let (capped, report, faults) = {
        let mut handler = BenchHandler {
            inner: &mut *strategy,
            log: log.as_deref_mut(),
            deadline,
            polls: Cell::new(0),
            capped: Cell::new(false),
        };
        let (report, faults) = run_logged(&mut handler, &fleet, cfg.seed, limits);
        (handler.capped.get(), report, faults)
    };
    if let Some(l) = log.as_mut() {
        l.push(SpanKind::Loop, u32::MAX, 0, start);
    }
    span(&mut log, SpanKind::Flush, || strategy.flush_evals());
    let final_weights = strategy.global_weights().to_vec();
    let per_client = span(&mut log, SpanKind::FinalEval, || {
        per_client_accuracy(task, &final_weights, cfg.seed)
    });
    if let Some(l) = log.as_mut() {
        l.push(SpanKind::Run, u32::MAX, 0, start);
    }
    let wall_s = secs_since(t_run);

    let mut checkpoints = strategy.variance_checkpoints().to_vec();
    checkpoints.push(accuracy_variance(&per_client));
    let mean_variance = checkpoints.iter().sum::<f32>() / checkpoints.len() as f32;
    let outcome = Outcome {
        trace: strategy.take_trace(),
        report,
        global_updates: strategy.global_updates(),
        accuracy_variance: mean_variance,
        per_client_accuracy: per_client,
        final_weights,
        faults,
        fault_counters: strategy.fault_counters(),
        tier_updates: strategy.tier_updates(),
    };
    MemberRun {
        outcome,
        wall_s,
        launches: speculative_launches() - launches0,
        discards: speculative_discards() - discards0,
        capped,
    }
}

/// Per-layer times of one or more traced member runs, all in seconds.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Traced wall time (sum of the members' `Run` spans).
    pub wall_s: f64,
    /// Event-loop self time: `run_logged` minus the handler spans.
    pub loop_self_s: f64,
    pub on_start_s: f64,
    pub on_completion_s: f64,
    pub on_timer_s: f64,
    pub flush_s: f64,
    pub final_s: f64,
    /// Every `on_completion` duration, in microseconds.
    pub completion_us: Vec<f64>,
    pub timer_events: u64,
    /// The longest handler callback seen.
    pub slowest: Option<Span>,
}

impl Breakdown {
    /// Folds one member's span log into the breakdown.
    pub fn add(&mut self, log: &SpanLog) {
        let one = |kind: SpanKind| {
            log.spans
                .iter()
                .find(|s| s.kind == kind)
                .copied()
                .expect("every traced run closes its outer spans")
        };
        let run = one(SpanKind::Run);
        let event_loop = one(SpanKind::Loop);
        let handlers: Vec<(u64, u64)> = log
            .spans
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    SpanKind::Start | SpanKind::Completion | SpanKind::Timer
                )
            })
            .map(|s| (s.start, s.end))
            .collect();
        self.wall_s += run.secs();
        self.loop_self_s +=
            stats::self_time((event_loop.start, event_loop.end), &handlers) as f64 * 1e-9;
        for s in &log.spans {
            let handler = matches!(
                s.kind,
                SpanKind::Start | SpanKind::Completion | SpanKind::Timer
            );
            if handler && self.slowest.is_none_or(|m| s.secs() > m.secs()) {
                self.slowest = Some(*s);
            }
            match s.kind {
                SpanKind::Start => self.on_start_s += s.secs(),
                SpanKind::Completion => {
                    self.on_completion_s += s.secs();
                    self.completion_us.push(s.secs() * 1e6);
                }
                SpanKind::Timer => {
                    self.on_timer_s += s.secs();
                    self.timer_events += 1;
                }
                SpanKind::Flush => self.flush_s += s.secs(),
                SpanKind::FinalEval => self.final_s += s.secs(),
                SpanKind::Run | SpanKind::Loop => {}
            }
        }
    }

    /// The layers' self times, which with [`Breakdown::residual_s`] sum to
    /// [`Breakdown::wall_s`].
    pub fn layers(&self) -> [f64; 6] {
        [
            self.loop_self_s,
            self.on_start_s,
            self.on_completion_s,
            self.on_timer_s,
            self.flush_s,
            self.final_s,
        ]
    }

    /// Traced wall time no span accounts for.
    pub fn residual_s(&self) -> f64 {
        stats::residual(self.wall_s, &self.layers())
    }
}

/// FNV-1a over the bits of an [`Outcome`] the output gate compares: final
/// weights, every trace point, per-client accuracies, the variance metric,
/// the simulator report and the fault counters. Two runs with equal digests
/// are bit-identical in all of these (up to a 2^-64 collision chance); a
/// digest is what a child process sends back in place of its outcome.
pub fn digest(o: &Outcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for w in &o.final_weights {
        h.word(u64::from(w.to_bits()));
    }
    for p in &o.trace.points {
        h.word(p.time.to_bits());
        h.word(p.round);
        h.word(u64::from(p.accuracy.to_bits()));
        h.word(u64::from(p.loss.to_bits()));
        h.word(p.up_bytes);
        h.word(p.down_bytes);
    }
    h.word(o.global_updates);
    for a in &o.per_client_accuracy {
        h.word(u64::from(a.to_bits()));
    }
    h.word(u64::from(o.accuracy_variance.to_bits()));
    h.word(o.report.end_time.to_bits());
    h.word(o.report.events);
    for b in format!("{:?}", o.fault_counters).bytes() {
        h.word(u64::from(b));
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The output gate's health check for one run of every member: each must
/// stop with `StopReason::Finished` exactly at its update budget, with
/// finite weights and a non-empty trace. Returns the members' digests,
/// which the gate then compares with the reference run's.
pub fn verify(outcomes: &[Outcome], budgets: &[u64]) -> Result<Vec<u64>, String> {
    if outcomes.len() != budgets.len() {
        return Err(format!(
            "{} of {} members ran",
            outcomes.len(),
            budgets.len()
        ));
    }
    outcomes
        .iter()
        .zip(budgets)
        .enumerate()
        .map(|(i, (o, &budget))| {
            if o.report.reason != StopReason::Finished {
                Err(format!("member {i} stopped with {:?}", o.report.reason))
            } else if o.global_updates != budget {
                Err(format!(
                    "member {i}: {} of {budget} updates",
                    o.global_updates
                ))
            } else if !o.final_weights.iter().all(|w| w.is_finite()) {
                Err(format!("member {i}: non-finite final weights"))
            } else if o.trace.points.is_empty() {
                Err(format!("member {i}: empty trace"))
            } else {
                Ok(digest(o))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_sim::fault::FaultLog;
    use fedat_sim::runtime::SimReport;
    use fedat_sim::trace::{Trace, TracePoint};

    fn outcome(updates: u64, reason: StopReason, w0: f32) -> Outcome {
        let mut trace = Trace::new("t");
        trace.push(TracePoint {
            time: 1.0,
            round: updates,
            accuracy: 0.5,
            loss: 1.0,
            up_bytes: 10,
            down_bytes: 20,
        });
        Outcome {
            trace,
            report: SimReport {
                end_time: 1.0,
                events: 3,
                reason,
            },
            final_weights: vec![w0, 1.0],
            global_updates: updates,
            per_client_accuracy: vec![0.5],
            accuracy_variance: 0.0,
            faults: FaultLog::new(),
            fault_counters: Default::default(),
            tier_updates: None,
        }
    }

    #[test]
    fn verify_accepts_a_finished_run_at_its_budget() {
        let ok = outcome(4, StopReason::Finished, 0.25);
        let d = verify(std::slice::from_ref(&ok), &[4]).expect("healthy run");
        assert_eq!(d, vec![digest(&ok)]);
    }

    #[test]
    fn verify_rejects_unhealthy_runs() {
        assert!(verify(&[outcome(3, StopReason::Finished, 0.0)], &[4]).is_err());
        assert!(verify(&[outcome(4, StopReason::Starved, 0.0)], &[4]).is_err());
        assert!(verify(&[outcome(4, StopReason::Finished, f32::NAN)], &[4]).is_err());
        assert!(verify(&[outcome(4, StopReason::Finished, 0.0)], &[4, 4]).is_err());
    }

    #[test]
    fn digest_sees_every_bit_of_the_weights() {
        let a = outcome(4, StopReason::Finished, 0.25);
        let b = outcome(
            4,
            StopReason::Finished,
            f32::from_bits(0.25f32.to_bits() + 1),
        );
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
    }
}
