//! `threaded-faults`: the concurrent `ThreadedCluster` backend with two
//! free-running workers on cheap operators, under the gate's two fault
//! configurations. Message send, drain and apply plus real thread
//! interleaving are nearly all the work.
//!
//! Untraced solves go through `Session` with the `ThreadedCluster`
//! backend. Traced solves call `ThreadedClusterEngine::run_with` with
//! the same `ThreadedConfig` the backend builds, over a
//! [`TimedTransport`] — `run` is `run_with(MpscTransport)`, so only the
//! transport wrapper differs.
//!
//! A solve fails when it errors, exhausts its step budget, or stops
//! with a consensus residual above the target. Threaded runs are not
//! reproducible, so there are no digests here.

use crate::harness::{median, Ctx, Metric, Solves, Workload};
use crate::probe::{LinkTally, TimedTransport};
use asynciter_core::session::{RecordMode, Session};
use asynciter_core::stopping::StoppingRule;
use asynciter_models::partition::Partition;
use asynciter_numerics::rng::{child_seed, rng, uniform_vec};
use asynciter_numerics::sparse::tridiagonal;
use asynciter_opt::linear::JacobiOperator;
use asynciter_opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
use asynciter_opt::traits::Operator;
use asynciter_runtime::cluster::ClusterStats;
use asynciter_runtime::session::ThreadedCluster;
use asynciter_runtime::threaded::{ThreadedClusterEngine, ThreadedConfig};
use asynciter_runtime::ApplyPolicy;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;
const TARGET: f64 = 1e-9;
const CHECK_EVERY: u64 = 16;
/// Per-solve step budget: a drain runaway costs milliseconds, not the
/// gate's 4M-step seconds, and still counts as a failure.
const BUDGET: u64 = 4_000;

/// One of the gate's two threaded fault configurations.
#[derive(Debug, Clone, Copy)]
struct Faults {
    name: &'static str,
    hold_prob: f64,
    hold_extra: u64,
    drop_prob: f64,
    dup_prob: f64,
}

const FAULTS: [Faults; 2] = [
    // The gate's `out-of-order` cell.
    Faults {
        name: "out-of-order",
        hold_prob: 0.3,
        hold_extra: 8,
        drop_prob: 0.1,
        dup_prob: 0.05,
    },
    // The gate's `unbounded-heavy-tail` cell: heavy holds.
    Faults {
        name: "heavy-holds",
        hold_prob: 0.4,
        hold_extra: 24,
        drop_prob: 0.0,
        dup_prob: 0.0,
    },
];

impl Faults {
    fn backend(self) -> ThreadedCluster {
        ThreadedCluster {
            workers: WORKERS,
            hold_prob: self.hold_prob,
            hold_extra: self.hold_extra,
            drop_prob: self.drop_prob,
            dup_prob: self.dup_prob,
            apply_policy: ApplyPolicy::AsReceived,
            ..ThreadedCluster::default()
        }
    }

    /// The `ThreadedConfig` the `ThreadedCluster` backend builds for a
    /// `Session` with this budget, seed, residual stopping rule and
    /// `RecordMode::Off`.
    fn config(self, seed: u64) -> ThreadedConfig {
        let b = self.backend();
        let mut cfg = ThreadedConfig::new(BUDGET)
            .with_faults(b.hold_prob, b.drop_prob, b.dup_prob)
            .with_seed(seed)
            .with_record(RecordMode::Off.label_store());
        cfg.exchange_every = b.exchange_every;
        cfg.apply_policy = b.apply_policy;
        cfg.hold_extra = b.hold_extra;
        cfg.partial_prob = b.partial_prob;
        cfg.quiesce = b.quiesce;
        cfg.target_residual = Some(TARGET);
        cfg.check_every = CHECK_EVERY;
        cfg
    }
}

struct Problem {
    name: &'static str,
    op: Arc<dyn Operator>,
    partition: Partition,
}

#[derive(Default)]
struct Layers {
    link: LinkTally,
    stats: ClusterStats,
    solves: u64,
    imbalance_sum: f64,
    budget_exhausted: u64,
    stopped_above_target: u64,
}

pub struct ThreadedFaults {
    seed: u64,
    problems: Vec<Problem>,
    next_id: u64,
    tracing: bool,
    layers: Layers,
    /// Failures by kind over every section (printed at the end).
    exhausted_total: u64,
    above_total: u64,
}

impl ThreadedFaults {
    /// Jacobi (n = 64, seeded right-hand side) and the network-flow
    /// `wheel(12, 21)` price relaxation.
    pub fn new(seed: u64) -> Self {
        let n = 64;
        let b = uniform_vec(&mut rng(child_seed(seed, 0)), n, 0.5, 1.5);
        let jacobi =
            JacobiOperator::new(tridiagonal(n, 4.0, -1.0), b).expect("dominant tridiagonal");
        let flow = PriceRelaxation::new(
            NetworkFlowProblem::wheel(12, 21).expect("static wheel instance"),
            0,
        )
        .expect("hub-grounded relaxation");
        let problems = [
            ("jacobi", Arc::new(jacobi) as Arc<dyn Operator>),
            ("network-flow", Arc::new(flow) as Arc<dyn Operator>),
        ]
        .into_iter()
        .map(|(name, op)| Problem {
            name,
            partition: Partition::blocks(op.dim(), WORKERS).expect("workers <= n"),
            op,
        })
        .collect();
        Self {
            seed,
            problems,
            next_id: 0,
            tracing: false,
            layers: Layers::default(),
            exhausted_total: 0,
            above_total: 0,
        }
    }

    fn solve(&mut self, p: usize, faults: Faults, ctx: &mut Ctx) {
        let id = self.next_id;
        self.next_id += 1;
        let seed = child_seed(self.seed, 1 + id);
        let problem = &self.problems[p];
        let op = problem.op.as_ref();
        let x0 = vec![0.0; op.dim()];
        let span = ctx.spans.as_mut().map(|s| s.open("solve", None, id));
        let t0 = Instant::now();
        // (steps, stopped early, final residual, per-worker updates)
        let result = if self.tracing {
            let mut transport = TimedTransport::default();
            let out = ThreadedClusterEngine::run_with(
                op,
                &x0,
                &problem.partition,
                &faults.config(seed),
                &mut transport,
            );
            out.map(|r| {
                self.layers
                    .link
                    .add(&transport.sink.lock().expect("link sink"));
                add_stats(&mut self.layers.stats, &r.stats);
                (
                    r.steps_run,
                    r.stopped_early,
                    r.final_residual,
                    r.per_worker_updates,
                )
            })
            .map_err(|e| e.to_string())
        } else {
            Session::new(op)
                .x0(x0)
                .steps(BUDGET)
                .seed(seed)
                .stopping(StoppingRule::Residual {
                    eps: TARGET,
                    check_every: CHECK_EVERY,
                })
                .backend(faults.backend())
                .run()
                .map(|r| {
                    (
                        r.steps,
                        r.stopped_early,
                        r.final_residual,
                        r.per_worker_updates,
                    )
                })
                .map_err(|e| e.to_string())
        };
        let wall = t0.elapsed();
        if let (Some(spans), Some(idx)) = (ctx.spans.as_mut(), span) {
            spans.close(idx);
        }
        ctx.solves.busy += wall;
        match result {
            Err(e) => {
                ctx.solves.record(false, wall, 0);
                ctx.errors.push(format!(
                    "{}/{}: solve returned an error: {e}",
                    problem.name, faults.name
                ));
            }
            Ok((steps, stopped_early, residual, per_worker)) => {
                let exhausted = !stopped_early;
                // A NaN residual is above the target too.
                let on_target = residual <= TARGET;
                let above = stopped_early && !on_target;
                ctx.solves.record(!exhausted && !above, wall, steps);
                self.exhausted_total += u64::from(exhausted);
                self.above_total += u64::from(above);
                if self.tracing {
                    let l = &mut self.layers;
                    l.solves += 1;
                    l.budget_exhausted += u64::from(exhausted);
                    l.stopped_above_target += u64::from(above);
                    let max = per_worker.iter().copied().max().unwrap_or(0);
                    let min = per_worker.iter().copied().min().unwrap_or(0);
                    l.imbalance_sum += max as f64 / min.max(1) as f64;
                }
            }
        }
    }
}

fn add_stats(total: &mut ClusterStats, s: &ClusterStats) {
    total.sent += s.sent;
    total.delivered += s.delivered;
    total.dropped += s.dropped;
    total.duplicated += s.duplicated;
    total.held += s.held;
    total.discarded_stale += s.discarded_stale;
}

impl Workload for ThreadedFaults {
    fn cycle(&mut self, ctx: &mut Ctx) {
        for p in 0..self.problems.len() {
            for faults in FAULTS {
                self.solve(p, faults, ctx);
            }
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn layers(&mut self, _cycles: u64, traced: &Solves) -> Vec<Metric> {
        let l = &self.layers;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let solves = l.solves as f64;
        let per_solve = |v: u64| ratio(v as f64, solves);
        let mut steps: Vec<f64> = traced.steps.iter().map(|&s| s as f64).collect();
        vec![
            Metric::new(
                "runtime.send_ns_per_msg",
                ratio(l.link.send_ns as f64, l.link.sends as f64),
                "ns",
            ),
            Metric::new(
                "runtime.recv_ns_per_msg",
                ratio(l.link.recv_ns as f64, l.link.hits as f64),
                "ns",
            ),
            Metric::new(
                "runtime.useful_poll_ratio",
                ratio(l.link.hits as f64, l.link.polls as f64),
                "ratio",
            ),
            Metric::new("runtime.drain_burst_max", l.link.burst_max as f64, "count"),
            Metric::new(
                "runtime.drain_burst_p99",
                l.link.burst_quantile(0.99) as f64,
                "count",
            ),
            Metric::new(
                "runtime.worker_update_imbalance",
                ratio(l.imbalance_sum, solves),
                "ratio",
            ),
            Metric::new(
                "runtime.budget_exhausted",
                l.budget_exhausted as f64,
                "count",
            ),
            Metric::new(
                "runtime.stopped_above_target",
                l.stopped_above_target as f64,
                "count",
            ),
            Metric::new(
                "runtime.msgs_sent_per_solve",
                per_solve(l.stats.sent),
                "count",
            ),
            Metric::new(
                "runtime.msgs_delivered_per_solve",
                per_solve(l.stats.delivered),
                "count",
            ),
            Metric::new("runtime.msgs_dropped", l.stats.dropped as f64, "count"),
            Metric::new(
                "runtime.msgs_duplicated",
                l.stats.duplicated as f64,
                "count",
            ),
            Metric::new("runtime.msgs_held", l.stats.held as f64, "count"),
            Metric::new(
                "runtime.stale_discards",
                l.stats.discarded_stale as f64,
                "count",
            ),
            Metric::new("core.steps_per_solve", median(&mut steps), "count"),
        ]
    }

    fn finish(&mut self, _errors: &mut Vec<String>) -> Vec<String> {
        vec![format!(
            "threaded failures: {} budget exhausted, {} stopped above target",
            self.exhausted_total, self.above_total
        )]
    }
}
