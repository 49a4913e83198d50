//! The two deterministic `Session` workloads, which use the same
//! engine in opposite ways:
//!
//! - `replay-unbounded`: wide, cheap operators under unbounded
//!   (heavy-tail) and out-of-order delays with full-label recording —
//!   bookkeeping-bound (schedule generation, `History`, trace).
//! - `ml-flexible`: narrow, expensive ML operators (certified logistic
//!   regression, lasso) under out-of-order replay and Definition-3
//!   flexible communication — kernel-bound.
//!
//! Every solve is deterministic, so each one's steps and final-iterate
//! bits form a digest that must repeat exactly every time the spec is
//! solved again within one invocation.

use crate::harness::{median, Ctx, Metric, Solves, Workload};
use crate::probe::{thread_allocs, Meter, OpMeters, Tally, TimedOperator, TimedSchedule};
use asynciter_core::engine::History;
use asynciter_core::session::{Flexible, RecordMode, Replay, RunReport, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_models::partition::Partition;
use asynciter_models::schedule::{BlockRoundRobin, ChaoticBounded, HeavyTailDelay, ScheduleGen};
use asynciter_models::trace::{LabelStore, Trace, TraceStep};
use asynciter_numerics::rng::{child_seed, rng, uniform_vec};
use asynciter_numerics::sparse::tridiagonal;
use asynciter_numerics::vecops::max_abs_diff;
use asynciter_opt::lasso::LassoProblem;
use asynciter_opt::linear::JacobiOperator;
use asynciter_opt::logistic::LogisticGradOperator;
use asynciter_opt::obstacle::{ObstacleProblem, ProjectedJacobi};
use asynciter_opt::prox::L1;
use asynciter_opt::proxgrad::{gamma_max, SparseProxGrad};
use asynciter_opt::traits::{Operator, SmoothObjective};
use asynciter_report::stream::hash_f64s;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per cycle (each round has fresh schedule seeds).
const ROUNDS_REPLAY: u64 = 30;
const ROUNDS_ML: u64 = 36;
/// Lasso dimension (the design matrix is 4n × n).
const LASSO_N: usize = 160;
/// Fixed budget of the flexible runs (both problems meet the target
/// after about 12 steps).
const FLEX_BUDGET: u64 = 20;

/// A schedule family; each spec draws its own seed for it.
#[derive(Debug, Clone, Copy)]
enum Sched {
    HeavyTail { k_max: usize, alpha: f64 },
    Chaotic { k_min: usize, k_max: usize, b: u64 },
    RoundRobin { blocks: usize },
}

impl Sched {
    fn build(self, n: usize, seed: u64) -> Box<dyn ScheduleGen> {
        match self {
            Sched::HeavyTail { k_max, alpha } => {
                Box::new(HeavyTailDelay::new(n, 1, k_max, alpha, seed))
            }
            Sched::Chaotic { k_min, k_max, b } => {
                Box::new(ChaoticBounded::new(n, k_min, k_max, b, false, seed))
            }
            Sched::RoundRobin { blocks } => Box::new(BlockRoundRobin::new(
                Partition::blocks(n, blocks).expect("blocks <= n"),
                1,
            )),
        }
    }
}

/// How a spec is run.
#[derive(Debug, Clone, Copy)]
enum RunKind {
    /// `Replay` stopped by the residual target, checked every
    /// `check_every` steps; exhausting `budget` is a failure.
    Replay { budget: u64, check_every: u64 },
    /// `Flexible { m, partial: true }` for a fixed budget; the final
    /// residual is checked against the target afterwards.
    Flexible { m: usize, budget: u64 },
}

/// A problem instance shared by every spec that solves it.
struct Problem {
    name: &'static str,
    op: Arc<dyn Operator>,
    x0: Vec<f64>,
    /// The exact fixed point and a max-norm contraction factor `ρ` of
    /// the operator, when known: every final iterate must then satisfy
    /// `‖x − x*‖ ≤ ‖x − F(x)‖ / (1 − ρ)`.
    reference: Option<(Vec<f64>, f64)>,
}

/// One entry of a round: which problem, under which schedule family,
/// run how, to which residual target.
#[derive(Debug, Clone, Copy)]
struct Template {
    problem: usize,
    sched: Sched,
    run: RunKind,
    target: f64,
}

/// One solve of the cycle: a template with its own schedule seed.
struct Spec {
    template: usize,
    seed: u64,
}

/// Layer totals over the traced solves.
#[derive(Default)]
struct Layers {
    kernel: Tally,
    residual: Tally,
    schedule: Tally,
    solve_ns: u64,
    solve_allocs: u64,
    steps: u64,
    assemble_ns: u64,
    push_ns: u64,
    pushes: u64,
    trace_push_ns: u64,
    redriven_steps: u64,
    entries: u64,
    trace_bytes: u64,
    redriven_solves: u64,
}

pub struct Deterministic {
    problems: Vec<Problem>,
    templates: Vec<Template>,
    specs: Vec<Spec>,
    record: RecordMode,
    digests: Vec<Option<(u64, u64)>>,
    /// Per spec: wall times (ms) and the last final residual.
    times: Vec<Vec<f64>>,
    residuals: Vec<f64>,
    tracing: bool,
    op_meters: OpMeters,
    sched_meter: Meter,
    layers: Layers,
    next_id: u64,
}

impl Deterministic {
    /// A cycle of `rounds` rounds; each round solves every template
    /// once with fresh schedule seeds drawn from `seed`.
    fn new(
        problems: Vec<Problem>,
        templates: Vec<Template>,
        rounds: u64,
        record: RecordMode,
        seed: u64,
    ) -> Self {
        let t = templates.len() as u64;
        let specs: Vec<Spec> = (0..rounds * t)
            .map(|k| Spec {
                template: (k % t) as usize,
                seed: child_seed(seed, 1000 + k),
            })
            .collect();
        let k = specs.len();
        Self {
            problems,
            templates,
            specs,
            record,
            digests: vec![None; k],
            times: vec![Vec::new(); k],
            residuals: vec![f64::NAN; k],
            tracing: false,
            op_meters: OpMeters::default(),
            sched_meter: Meter::default(),
            layers: Layers::default(),
            next_id: 0,
        }
    }

    /// `replay-unbounded`: tridiagonal Jacobi (n = 256, seeded
    /// right-hand side) under heavy-tail delays
    /// (`HeavyTailDelay(n, 1, n/4, α = 1.5)`, three times per round) and
    /// out-of-order `ChaoticBounded(b = 16)`, and the 16×16 obstacle
    /// problem (n = 256) under the out-of-order schedule; residual
    /// target 1e-8, full labels recorded. The obstacle problem is not
    /// run under heavy-tail delays: its steps to target there have a
    /// heavy tail, and its largest solve would set peak memory.
    pub fn replay_unbounded(seed: u64) -> Self {
        let n = 256;
        let b = uniform_vec(&mut rng(child_seed(seed, 0)), n, 0.5, 1.5);
        let jacobi =
            JacobiOperator::new(tridiagonal(n, 4.0, -1.0), b).expect("dominant tridiagonal");
        let xstar = jacobi.solve_dense_spd().expect("SPD tridiagonal system");
        let obstacle = ProjectedJacobi::new(
            ObstacleProblem::bump(16, 16, 0.6).expect("static obstacle instance"),
        );
        let problems = vec![
            Problem {
                name: "jacobi",
                op: Arc::new(jacobi),
                x0: vec![0.0; n],
                // Each row's off-diagonal mass is at most 2 against a
                // diagonal of 4.
                reference: Some((xstar, 0.5)),
            },
            Problem {
                name: "obstacle",
                x0: obstacle.upper_start(),
                op: Arc::new(obstacle),
                reference: None,
            },
        ];
        let heavy_tail = Sched::HeavyTail {
            k_max: n / 4,
            alpha: 1.5,
        };
        let chaotic = Sched::Chaotic {
            k_min: 1,
            k_max: n / 4,
            b: 16,
        };
        let templates = [
            (0, heavy_tail),
            (0, heavy_tail),
            (0, heavy_tail),
            (0, chaotic),
            (1, chaotic),
        ]
        .into_iter()
        .map(|(problem, sched)| Template {
            problem,
            sched,
            run: RunKind::Replay {
                budget: 400_000,
                check_every: 32,
            },
            target: 1e-8,
        })
        .collect();
        Self::new(problems, templates, ROUNDS_REPLAY, RecordMode::Full, seed)
    }

    /// `ml-flexible`: certified logistic regression
    /// (`certified_random(32, 2048, 2.0, seed)`) and a lasso instance
    /// whose kernel also dominates, each solved by out-of-order replay
    /// (target 1e-9, no recording) and by `Flexible { m: 4, partial }`
    /// over a 2-block round robin with a fixed budget (checked against
    /// the same target afterwards). Logistic replay appears twice per
    /// round so that the median lands inside one template's spread.
    pub fn ml_flexible(seed: u64) -> Self {
        let logistic = LogisticGradOperator::certified_random(32, 2048, 2.0, child_seed(seed, 0))
            .expect("certified logistic instance");
        let lasso = {
            let problem =
                LassoProblem::random(LASSO_N, 4 * LASSO_N, 16, 0.05, 0.01, child_seed(seed, 1))
                    .expect("lasso instance");
            let q = problem.quadratic.clone();
            let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
            SparseProxGrad::new(q, L1::new(problem.lambda), gamma).expect("Theorem-1 step")
        };
        let problems = vec![
            Problem {
                name: "logistic",
                op: Arc::new(logistic),
                x0: vec![0.0; 32],
                reference: None,
            },
            Problem {
                name: "lasso",
                op: Arc::new(lasso),
                x0: vec![0.0; LASSO_N],
                reference: None,
            },
        ];
        let replay = |problem: usize| Template {
            problem,
            sched: Sched::Chaotic {
                k_min: problems[problem].x0.len() / 2,
                k_max: problems[problem].x0.len(),
                b: 8,
            },
            run: RunKind::Replay {
                budget: 100_000,
                check_every: 8,
            },
            target: 1e-9,
        };
        let flexible = |problem| Template {
            problem,
            sched: Sched::RoundRobin { blocks: 2 },
            run: RunKind::Flexible {
                m: 4,
                budget: FLEX_BUDGET,
            },
            target: 1e-9,
        };
        let templates = vec![replay(0), replay(0), flexible(0), replay(1), flexible(1)];
        Self::new(problems, templates, ROUNDS_ML, RecordMode::Off, seed)
    }

    fn label(&self, t: usize) -> String {
        let tpl = &self.templates[t];
        let kind = match (tpl.run, tpl.sched) {
            (RunKind::Flexible { .. }, _) => "flexible",
            (_, Sched::HeavyTail { .. }) => "heavy-tail",
            (_, Sched::Chaotic { .. }) => "chaotic",
            (_, Sched::RoundRobin { .. }) => "round-robin",
        };
        format!("{}/{kind}", self.problems[tpl.problem].name)
    }

    fn solve(&mut self, k: usize, ctx: &mut Ctx) {
        let id = self.next_id;
        self.next_id += 1;
        let spec = &self.specs[k];
        let tpl = self.templates[spec.template];
        let problem = &self.problems[tpl.problem];
        let n = problem.op.dim();
        let span = ctx.spans.as_mut().map(|s| s.open("solve", None, id));
        let a0 = thread_allocs();
        let t0 = Instant::now();
        let result = if self.tracing {
            let op = TimedOperator {
                inner: problem.op.as_ref(),
                meters: &self.op_meters,
            };
            let gen = TimedSchedule {
                inner: tpl.sched.build(n, spec.seed),
                meter: &self.sched_meter,
            };
            run_session(&op, gen, &problem.x0, tpl, spec.seed, self.record)
        } else {
            let gen = tpl.sched.build(n, spec.seed);
            run_session(
                problem.op.as_ref(),
                gen,
                &problem.x0,
                tpl,
                spec.seed,
                self.record,
            )
        };
        let wall = t0.elapsed();
        let allocs = thread_allocs() - a0;
        if let (Some(spans), Some(idx)) = (ctx.spans.as_mut(), span) {
            spans.close(idx);
        }
        ctx.solves.busy += wall;

        let report = match result {
            Ok(r) => r,
            Err(e) => {
                ctx.solves.record(false, wall, 0);
                ctx.errors.push(format!(
                    "{} (spec {k}): solve returned an error: {e}",
                    self.label(spec.template)
                ));
                return;
            }
        };
        let met = report.final_residual <= tpl.target
            && match tpl.run {
                RunKind::Replay { .. } => report.stopped_early,
                RunKind::Flexible { .. } => true,
            };
        ctx.solves.record(met, wall, report.steps);
        self.times[k].push(wall.as_secs_f64() * 1e3);
        self.residuals[k] = report.final_residual;
        if let Some((xstar, rho)) = &problem.reference {
            let err = max_abs_diff(&report.final_x, xstar);
            let bound = report.final_residual / (1.0 - rho) * (1.0 + 1e-9) + 1e-12;
            if err.is_nan() || err > bound {
                ctx.errors.push(format!(
                    "{} (spec {k}): error {err:e} to the exact solution exceeds the certified {bound:e}",
                    self.label(spec.template)
                ));
            }
        }
        let digest = (report.steps, hash_f64s(&report.final_x));
        match self.digests[k] {
            None => self.digests[k] = Some(digest),
            Some(first) if first != digest => ctx.errors.push(format!(
                "{} (spec {k}): repeat digest {:?} differs from first {:?}",
                self.label(spec.template),
                digest,
                first
            )),
            Some(_) => {}
        }
        if self.tracing {
            self.account(wall, allocs, &report);
        }
    }

    /// Charges one traced solve to the layer totals, then re-drives
    /// `History` and `Trace` from the solve's recorded trace (outside
    /// the solve's span).
    fn account(&mut self, wall: Duration, allocs: u64, report: &RunReport) {
        let l = &mut self.layers;
        l.kernel.add(self.op_meters.kernel.take());
        l.residual.add(self.op_meters.residual.take());
        l.schedule.add(self.sched_meter.take());
        l.solve_ns += wall.as_nanos() as u64;
        l.solve_allocs += allocs;
        l.steps += report.steps;
        if let Some(trace) = &report.trace {
            redrive(trace, l);
        }
    }
}

/// Three passes over a recorded trace: `Trace::push_step` alone,
/// `History::push` alone, and `History::assemble` + `push` (assemble
/// time is the difference of the last two).
fn redrive(trace: &Trace, l: &mut Layers) {
    let n = trace.n();
    let steps: Vec<(Vec<usize>, &[u64])> = trace
        .iter()
        .map(|(j, s)| {
            let active = s.active.iter().map(|&i| i as usize).collect();
            (active, trace.labels(j).expect("full labels recorded"))
        })
        .collect();

    let t0 = Instant::now();
    let mut fresh = Trace::new(n, LabelStore::Full);
    for (active, labels) in &steps {
        fresh.push_step(active, labels);
    }
    l.trace_push_ns += t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&fresh);

    let t0 = Instant::now();
    let mut hist = History::new(&vec![0.0; n]);
    for (j, (active, _)) in steps.iter().enumerate() {
        for &i in active {
            hist.push(i, j as u64 + 1, 1.0);
        }
    }
    let push_ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&hist);

    let mut xl = vec![0.0; n];
    let t0 = Instant::now();
    let mut hist = History::new(&vec![0.0; n]);
    for (j, (active, labels)) in steps.iter().enumerate() {
        hist.assemble(labels, &mut xl);
        for &i in active {
            hist.push(i, j as u64 + 1, xl[i]);
        }
    }
    let both_ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&xl);

    let pushes: u64 = steps.iter().map(|(a, _)| a.len() as u64).sum();
    l.push_ns += push_ns;
    l.assemble_ns += both_ns.saturating_sub(push_ns);
    l.pushes += pushes;
    l.redriven_steps += steps.len() as u64;
    l.entries += hist.entries() as u64;
    // What the recorded trace holds: one `TraceStep` (header + active
    // ids) plus one full label vector per step.
    l.trace_bytes += steps
        .iter()
        .map(|(a, _)| {
            (std::mem::size_of::<TraceStep>()
                + 4 * a.len()
                + std::mem::size_of::<Vec<u64>>()
                + 8 * n) as u64
        })
        .sum::<u64>();
    l.redriven_solves += 1;
}

fn run_session<'a>(
    op: &'a dyn Operator,
    gen: impl ScheduleGen + 'a,
    x0: &[f64],
    tpl: Template,
    seed: u64,
    record: RecordMode,
) -> asynciter_core::Result<RunReport> {
    let session = Session::new(op)
        .x0(x0)
        .schedule(gen)
        .record(record)
        .seed(seed);
    match tpl.run {
        RunKind::Replay {
            budget,
            check_every,
        } => session
            .steps(budget)
            .stopping(StoppingRule::Residual {
                eps: tpl.target,
                check_every,
            })
            .backend(Replay)
            .run(),
        RunKind::Flexible { m, budget } => session
            .steps(budget)
            .backend(Flexible {
                m,
                partial: true,
                ..Flexible::default()
            })
            .run(),
    }
}

impl Workload for Deterministic {
    fn cycle(&mut self, ctx: &mut Ctx) {
        // Each solve is its own calibrated stretch.
        for k in 0..self.specs.len() {
            if k > 0 {
                ctx.mark();
            }
            self.solve(k, ctx);
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn layers(&mut self, cycles: u64, traced: &Solves) -> Vec<Metric> {
        let l = &self.layers;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let solve_ns = l.solve_ns as f64;
        let engine_self = l
            .solve_ns
            .saturating_sub(l.kernel.ns + l.schedule.ns + l.residual.ns);
        let engine_allocs = l
            .solve_allocs
            .saturating_sub(l.kernel.allocs + l.schedule.allocs + l.residual.allocs);
        let mut steps: Vec<f64> = traced.steps.iter().map(|&s| s as f64).collect();
        let per_solve = |v: u64| ratio(v as f64, l.redriven_solves as f64);
        vec![
            Metric::new(
                "opt.kernel_ns_per_component",
                ratio(l.kernel.ns as f64, l.kernel.items as f64),
                "ns",
            ),
            Metric::new(
                "opt.kernel_share",
                ratio(l.kernel.ns as f64, solve_ns),
                "share",
            ),
            Metric::new(
                "opt.components_updated",
                ratio(l.kernel.items as f64, cycles as f64),
                "count",
            ),
            Metric::new(
                "opt.kernel_allocs_per_call",
                ratio(l.kernel.allocs as f64, l.kernel.calls as f64),
                "count",
            ),
            Metric::new(
                "opt.residual_checks",
                ratio(l.residual.calls as f64, cycles as f64),
                "count",
            ),
            Metric::new(
                "opt.residual_ns_per_check",
                ratio(l.residual.ns as f64, l.residual.calls as f64),
                "ns",
            ),
            Metric::new(
                "opt.residual_share",
                ratio(l.residual.ns as f64, solve_ns),
                "share",
            ),
            Metric::new(
                "models.schedule_ns_per_step",
                ratio(l.schedule.ns as f64, l.schedule.calls as f64),
                "ns",
            ),
            Metric::new(
                "models.schedule_share",
                ratio(l.schedule.ns as f64, solve_ns),
                "share",
            ),
            Metric::new(
                "models.schedule_allocs_per_step",
                ratio(l.schedule.allocs as f64, l.schedule.calls as f64),
                "count",
            ),
            Metric::new(
                "models.trace_push_ns_per_step",
                ratio(l.trace_push_ns as f64, l.redriven_steps as f64),
                "ns",
            ),
            Metric::new(
                "models.trace_bytes_per_solve",
                per_solve(l.trace_bytes),
                "B",
            ),
            Metric::new(
                "core.history_assemble_ns_per_step",
                ratio(l.assemble_ns as f64, l.redriven_steps as f64),
                "ns",
            ),
            Metric::new(
                "core.history_push_ns_per_update",
                ratio(l.push_ns as f64, l.pushes as f64),
                "ns",
            ),
            Metric::new(
                "core.history_entries_per_solve",
                per_solve(l.entries),
                "count",
            ),
            Metric::new(
                "core.engine_self_share",
                ratio(engine_self as f64, solve_ns),
                "share",
            ),
            Metric::new(
                "core.engine_allocs_per_step",
                ratio(engine_allocs as f64, l.steps as f64),
                "count",
            ),
            Metric::new("core.steps_per_solve", median(&mut steps), "count"),
        ]
    }

    fn finish(&mut self, _errors: &mut Vec<String>) -> Vec<String> {
        // One digest per template over its specs' (steps, final-iterate
        // bits), then one over the whole cycle.
        let mut lines = Vec::new();
        let mut all = Vec::new();
        for t in 0..self.templates.len() {
            let mut words = Vec::new();
            let mut times = Vec::new();
            let mut steps = Vec::new();
            let mut worst = 0.0_f64;
            for (k, spec) in self.specs.iter().enumerate() {
                if spec.template != t {
                    continue;
                }
                if let Some((s, hash)) = self.digests[k] {
                    words.push(s as f64);
                    words.push(f64::from_bits(hash));
                    steps.push(s as f64);
                }
                times.extend_from_slice(&self.times[k]);
                worst = worst.max(self.residuals[k]);
            }
            let digest = hash_f64s(&words);
            all.push(f64::from_bits(digest));
            lines.push(format!(
                "digest t{t} {} = {digest:016x} (steps median {} max {}, {:.3} ms; worst residual {worst:.2e})",
                self.label(t),
                median(&mut steps),
                steps.last().copied().unwrap_or(0.0),
                median(&mut times),
            ));
        }
        lines.push(format!("digest all = {:016x}", hash_f64s(&all)));
        let cycle_steps: u64 = self.digests.iter().flatten().map(|d| d.0).sum();
        lines.push(format!("steps per cycle {cycle_steps}"));
        lines
    }
}
