//! Hot-path allocation audit: the per-step evaluation paths of the
//! workhorse operators — `SparseProxGrad` (lasso), `LogisticGradOperator`
//! and `PriceRelaxation` (network flow) — must perform **zero** heap
//! allocations once the caller-owned buffers exist. This is the
//! executable form of the scratch-buffer contract every engine relies on
//! (engines allocate `vec![0.0; op.scratch_len()]` once per run/worker
//! and drive millions of steps through `update_active_with` /
//! `apply_with` / `residual_inf_with`).
//!
//! The audit extends to the whole Replay step loop: schedule steps of the
//! random generators allocate nothing, and a long `ReplayEngine` run with
//! full-label recording stays far below one allocation per step (the
//! trace arena and the pruned `History` grow in chunks, not per step).
//!
//! The `ml-flexible` shapes (logistic 32 × 2048, lasso n = 160) get the
//! same audit through the engines themselves: Replay under out-of-order
//! `ChaoticBounded` with residual checks, and `Flexible { m: 4, partial:
//! true }`. Every operator call in those loops allocates nothing, and a
//! run twice as long allocates no more than the shorter one.
//!
//! The audit swaps in a counting global allocator whose counters are
//! thread-local, so parallel test threads cannot pollute each other.

use asynciter::opt::lasso::LassoProblem;
use asynciter::opt::logistic::LogisticGradOperator;
use asynciter::opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
use asynciter::opt::prox::L1;
use asynciter::opt::proxgrad::{gamma_max, SparseProxGrad};
use asynciter::opt::traits::{Operator, SmoothObjective};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

// Thread-local counting: only the audit thread's allocations count, so
// the test-harness machinery (timers, output capture, sibling threads)
// cannot pollute the audit. Const-initialised thread locals never
// allocate on first touch; `try_with` guards TLS teardown.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled on this thread and returns
/// the number of heap allocations (allocs + reallocs) it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// Drives `steps` rounds of the scratch evaluation paths over
/// preallocated buffers and returns the allocation count — the quantity
/// the audit pins to zero.
fn audit_operator(op: &dyn Operator, steps: usize) -> u64 {
    let n = op.dim();
    let mut x = vec![0.1; n];
    let mut out = vec![0.0; n];
    let mut scratch = vec![0.0; op.scratch_len()];
    let active: Vec<usize> = (0..n).step_by(2).collect();
    // Warm-up outside the counted section (nothing should lazily
    // allocate, but the audit should fail only on *steady-state* allocs).
    op.apply_with(&x, &mut out, &mut scratch);
    count_allocs(|| {
        for s in 0..steps {
            op.update_active_with(&x, &active, &mut out, &mut scratch);
            op.apply_with(&x, &mut out, &mut scratch);
            let r = op.residual_inf_with(&x, &mut scratch);
            let c = op.component(s % n, &x);
            // Keep the optimiser honest and the iterate bounded.
            x[s % n] = 0.5 * (c + r.min(1.0));
        }
    })
}

#[test]
fn per_step_paths_allocate_nothing() {
    // Lasso via the sparse prox-gradient operator.
    let lasso = LassoProblem::random(12, 72, 3, 0.05, 0.01, 7).unwrap();
    let q = lasso.quadratic.clone();
    let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
    let sparse = SparseProxGrad::new(q, L1::new(lasso.lambda), gamma).unwrap();

    // Logistic regression via the certified gradient operator (dense
    // data coupling: the scratch holds the gradient accumulator).
    let logistic = LogisticGradOperator::certified_random(8, 48, 2.0, 3).unwrap();
    assert!(
        logistic.scratch_len() > 0,
        "logistic accumulates in scratch"
    );

    // Network flow via the hub-grounded price relaxation.
    let flow = PriceRelaxation::new(NetworkFlowProblem::wheel(12, 5).unwrap(), 0).unwrap();

    for (name, op) in [
        ("sparse-proxgrad", &sparse as &dyn Operator),
        ("logistic-grad", &logistic),
        ("price-relaxation", &flow),
    ] {
        let allocs = audit_operator(op, 500);
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} heap allocations in 500 audited steps"
        );
    }
}

#[test]
fn pool_leases_keep_per_step_loops_alloc_free_across_tenants() {
    // The service layer's extension of the scratch contract: a warmed
    // `ScratchPool` must hand out workspaces with ZERO heap activity,
    // so back-to-back tenant jobs on a worker run their per-step loops
    // allocation-free end to end — lease, stage, iterate, return.
    use asynciter::runtime::scratch::ScratchPool;

    // The service catalog's logistic instance and the `ml-flexible`
    // shapes (logistic 32 × 2048, lasso n = 160), tenants taking turns.
    let logistic = LogisticGradOperator::certified_random(8, 48, 2.0, 3).unwrap();
    let ml_logistic = LogisticGradOperator::certified_random(32, 2048, 2.0, 1).unwrap();
    let ml_lasso = {
        let problem = LassoProblem::random(160, 640, 16, 0.05, 0.01, 2).unwrap();
        let q = problem.quadratic.clone();
        let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
        SparseProxGrad::new(q, L1::new(problem.lambda), gamma).unwrap()
    };
    let ops = [&logistic as &dyn Operator, &ml_logistic, &ml_lasso];
    // The service workspace layout: [x0 staging | operator scratch].
    let len = |op: &dyn Operator| op.dim() + op.scratch_len();
    let pool = ScratchPool::new();
    pool.warm(1, ops.iter().map(|&op| len(op)).max().unwrap());
    let halves: Vec<Vec<usize>> = ops
        .iter()
        .map(|op| (0..op.dim()).step_by(2).collect())
        .collect();
    let mut out = vec![0.0; 160];
    let allocs = count_allocs(|| {
        for tenant in 0..64 {
            let (op, active) = (ops[tenant % ops.len()], &halves[tenant % ops.len()]);
            let n = op.dim();
            let mut ws = pool.lease(len(op));
            let (stage, scratch) = ws.split_at_mut(n);
            stage.fill(0.1);
            for _ in 0..10 {
                op.update_active_with(stage, active, &mut out[..n], scratch);
                op.apply_with(stage, &mut out[..n], scratch);
                let _ = op.residual_inf_with(stage, scratch);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations across 64 pooled tenant loops"
    );
    let stats = pool.stats();
    assert_eq!(stats.leases, 64);
    assert_eq!(stats.created, 1, "the warmed buffer serves every tenant");
    assert_eq!(stats.reused, 64, "every lease recycled the warmed buffer");
}

#[test]
fn replay_step_loop_is_alloc_free() {
    use asynciter::core::engine::{EngineConfig, ReplayEngine};
    use asynciter::models::schedule::{
        ChaoticBounded, HeavyTailDelay, ScheduleGen, StepBuf, UnboundedSqrtDelay,
    };
    use asynciter::models::trace::LabelStore;
    use asynciter::numerics::sparse::tridiagonal;
    use asynciter::opt::linear::JacobiOperator;

    let n = 256;
    let gens: Vec<Box<dyn ScheduleGen>> = vec![
        Box::new(ChaoticBounded::new(n, 1, n / 2, 16, false, 1)),
        Box::new(ChaoticBounded::new(n, 1, n / 2, 16, true, 2)),
        Box::new(HeavyTailDelay::new(n, 1, n / 2, 1.5, 3)),
        Box::new(UnboundedSqrtDelay::new(n, 1, n / 2, 1.0, 4)),
    ];
    for mut gen in gens {
        let mut buf = StepBuf::new(n);
        let allocs = count_allocs(|| {
            for j in 1..=2000 {
                gen.step(j, &mut buf);
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations in 2000 schedule steps",
            gen.describe()
        );
    }

    // The whole run, set-up included: schedule, History lookups and
    // pushes (pruned to the b = 16 window), kernel, full-label trace.
    let steps = 20_000u64;
    let op = JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap();
    let mut gen = ChaoticBounded::new(n, 1, n / 4, 16, false, 5);
    let cfg = EngineConfig::fixed(steps).with_labels(LabelStore::Full);
    let mut steps_run = 0;
    let allocs = count_allocs(|| {
        let res = ReplayEngine::run(&op, &vec![0.0; n], &mut gen, &cfg, None).unwrap();
        steps_run = res.steps_run;
    });
    assert_eq!(steps_run, steps);
    let per_step = allocs as f64 / steps as f64;
    assert!(
        per_step < 0.1,
        "{allocs} heap allocations in a {steps}-step replay ({per_step:.3} per step)"
    );
}

/// Forwards every [`Operator`] method to `inner`, charging the
/// allocations made inside each call (while [`count_allocs`] counts) to
/// `allocs`.
struct KernelAudit<'a> {
    inner: &'a dyn Operator,
    calls: AtomicU64,
    allocs: AtomicU64,
}

impl<'a> KernelAudit<'a> {
    fn new(inner: &'a dyn Operator) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    fn charge<R>(&self, f: impl FnOnce() -> R) -> R {
        let a0 = ALLOCS.with(Cell::get);
        let r = f();
        self.calls.fetch_add(1, Relaxed);
        self.allocs.fetch_add(ALLOCS.with(Cell::get) - a0, Relaxed);
        r
    }
}

/// Only the scratch paths are charged: they are what the engines call
/// per step. The plain paths may allocate their own scratch.
impl Operator for KernelAudit<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn component(&self, i: usize, x: &[f64]) -> f64 {
        self.inner.component(i, x)
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.inner.apply(x, out)
    }

    fn update_active(&self, x: &[f64], active: &[usize], out: &mut [f64]) {
        self.inner.update_active(x, active, out)
    }

    fn residual_inf(&self, x: &[f64]) -> f64 {
        self.inner.residual_inf(x)
    }

    fn scratch_len(&self) -> usize {
        self.inner.scratch_len()
    }

    fn update_active_with(
        &self,
        x: &[f64],
        active: &[usize],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.charge(|| self.inner.update_active_with(x, active, out, scratch))
    }

    fn apply_with(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        self.charge(|| self.inner.apply_with(x, out, scratch))
    }

    fn residual_inf_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        self.charge(|| self.inner.residual_inf_with(x, scratch))
    }
}

#[test]
fn ml_engine_step_loops_are_alloc_free() {
    use asynciter::core::session::{Flexible, Replay, Session};
    use asynciter::core::stopping::StoppingRule;
    use asynciter::models::partition::Partition;
    use asynciter::models::schedule::{BlockRoundRobin, ChaoticBounded};

    // The `ml-flexible` benchmark shapes.
    let logistic = LogisticGradOperator::certified_random(32, 2048, 2.0, 1).unwrap();
    let lasso = {
        let problem = LassoProblem::random(160, 640, 16, 0.05, 0.01, 2).unwrap();
        let q = problem.quadratic.clone();
        let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
        SparseProxGrad::new(q, L1::new(problem.lambda), gamma).unwrap()
    };
    for (name, op) in [
        ("logistic 32x2048", &logistic as &dyn Operator),
        ("lasso n=160", &lasso),
    ] {
        let n = op.dim();
        let replay = |audit: &KernelAudit, steps: u64| {
            let report = Session::new(audit)
                .x0(vec![0.0; n])
                .schedule(ChaoticBounded::new(n, n / 2, n, 8, true, 3))
                .steps(steps)
                // A target no run reaches: every step runs, with a
                // residual check every 8.
                .stopping(StoppingRule::Residual {
                    eps: -1.0,
                    check_every: 8,
                })
                .backend(Replay)
                .run()
                .unwrap();
            assert_eq!(report.steps, steps, "{name}: replay stopped early");
        };
        let flexible = |audit: &KernelAudit, steps: u64| {
            let report = Session::new(audit)
                .x0(vec![0.0; n])
                .schedule(BlockRoundRobin::new(Partition::blocks(n, 2).unwrap(), 1))
                .steps(steps)
                .backend(Flexible {
                    m: 4,
                    partial: true,
                    ..Flexible::default()
                })
                .run()
                .unwrap();
            assert_eq!(report.steps, steps, "{name}: flexible stopped early");
        };
        for (engine, run) in [
            ("replay", &replay as &dyn Fn(&KernelAudit, u64)),
            ("flexible", &flexible),
        ] {
            let short_audit = KernelAudit::new(op);
            let short = count_allocs(|| run(&short_audit, 1000));
            let long_audit = KernelAudit::new(op);
            let long = count_allocs(|| run(&long_audit, 2000));
            assert!(
                long_audit.calls.load(Relaxed) >= 200,
                "{name} {engine}: kernel not driven"
            );
            assert_eq!(
                long_audit.allocs.load(Relaxed),
                0,
                "{name} {engine}: operator calls allocated"
            );
            // Steps 1001..=2000 allocate only when the trace arena takes
            // a new chunk (8192 active ids; a step records at most n) or
            // its span or chunk list doubles.
            let trace_growth = 1000 * n as u64 / 8192 + 4;
            assert!(
                long - short <= trace_growth,
                "{name} {engine}: steps 1001..=2000 allocated {} times",
                long - short
            );
        }
    }
}

#[test]
fn service_workers_each_reuse_one_workspace() {
    // Logistic and lasso tenants through the real service: each worker
    // creates at most one workspace and recycles it for every later job.
    use asynciter::service::{
        BackendSpec, JobSpec, ProblemId, ScheduleSpec, Service, ServiceConfig, ServiceMode,
    };

    for (mode, workers) in [
        (ServiceMode::Deterministic { seed: 5 }, 1),
        (ServiceMode::FreeRunning { workers: 2 }, 2),
    ] {
        let mut svc = Service::new(ServiceConfig {
            mode,
            ..ServiceConfig::default()
        });
        for tenant in 0..16 {
            svc.submit(JobSpec {
                tenant,
                seed: 100 + tenant,
                problem: [ProblemId::Logistic, ProblemId::Lasso][tenant as usize % 2],
                backend: BackendSpec::Replay {
                    schedule: ScheduleSpec::Chaotic {
                        k_min: 2,
                        k_max: 6,
                        b: 4,
                    },
                },
                record: false,
            })
            .unwrap();
        }
        let out = svc.drain();
        assert_eq!(out.doc.completed, 16);
        let stats = svc.pool().stats();
        assert_eq!(stats.leases, 16);
        assert!(
            (1..=workers).contains(&stats.created),
            "{workers} worker(s) created {} workspaces",
            stats.created
        );
        assert_eq!(stats.reused, stats.leases - stats.created);
    }
}
