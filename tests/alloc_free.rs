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
    // data coupling: the scratch holds the per-sample weights).
    let logistic = LogisticGradOperator::certified_random(8, 48, 2.0, 3).unwrap();
    assert!(logistic.scratch_len() > 0, "logistic shares sample weights");

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

    let logistic = LogisticGradOperator::certified_random(8, 48, 2.0, 3).unwrap();
    let n = logistic.dim();
    // The service workspace layout: [x0 staging | operator scratch].
    let len = n + logistic.scratch_len();
    let pool = ScratchPool::new();
    pool.warm(1, len);
    let x0 = vec![0.1; n];
    let mut out = vec![0.0; n];
    let allocs = count_allocs(|| {
        for _tenant in 0..64 {
            let mut ws = pool.lease(len);
            let (stage, scratch) = ws.split_at_mut(n);
            stage.copy_from_slice(&x0);
            for _ in 0..50 {
                logistic.apply_with(stage, &mut out, scratch);
                let _ = logistic.residual_inf_with(stage, scratch);
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
