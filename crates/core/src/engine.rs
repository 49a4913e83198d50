//! The Definition-1 replay engine.
//!
//! Eq. (1) of the paper defines the asynchronous iterate sequence
//!
//! ```text
//! x_i(j) = F_i( x_1(l_1(j)), …, x_n(l_n(j)) )   if i ∈ S_j,
//! x_i(j) = x_i(j − 1)                            otherwise.
//! ```
//!
//! [`ReplayEngine`] executes this *exactly*: it keeps every version of
//! every component that a label can still name, assembles the read
//! vector `x(l(j))` by label lookup (so out-of-order and unbounded delays
//! are honoured bit-for-bit, not approximated), applies the operator to
//! the active set, and records the trace on which macro-iterations,
//! epochs and the condition checkers operate. Determinism makes every
//! experiment replayable from a seed.
//!
//! "Can still name" is the schedule's promise, not a guess: every 256
//! steps the engine prunes [`History`] below
//! [`ScheduleGen::label_floor`], which is `0` (keep everything) unless
//! the generator's delays are structurally bounded.

use crate::error::CoreError;
use crate::stopping::{StopState, StoppingRule};
use asynciter_models::schedule::{ScheduleGen, StepBuf};
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_opt::traits::Operator;

/// Versions per component kept in the contiguous fast path.
const RECENT: usize = 4;

/// Per-component update history with label lookup.
///
/// `value_at(i, l)` returns `x_i(l)`: the value component `i` had at
/// iteration label `l` — i.e. the value written by the most recent update
/// of `i` at or before `l` (or the initial value). The newest few
/// versions of every component sit in contiguous arrays, so a lookup
/// that reads at most a few versions back (the common case, in order or
/// not) is a handful of compares and one load; older versions live in
/// per-component logs searched by galloping back from their newest end.
///
/// Memory is bounded by a low-water mark: [`History::prune_below`]
/// drops every version that no label at or above the mark can read. A
/// lookup below a pruned mark panics rather than return a wrong value.
#[derive(Debug, Clone)]
pub struct History {
    /// Per component: steps and values of the `RECENT` newest versions,
    /// newest first. Slots no update has reached yet repeat the initial
    /// version (step 0), so a lookup never needs a fill count.
    recent_step: Vec<[u64; RECENT]>,
    recent_val: Vec<[f64; RECENT]>,
    /// Per component: the retained versions older than the recent ones,
    /// oldest first.
    older: Vec<Vec<(u64, f64)>>,
    /// The highest mark pruned to so far.
    floor: u64,
}

impl History {
    /// Creates a history initialised with `x(0)`.
    pub fn new(x0: &[f64]) -> Self {
        Self {
            recent_step: vec![[0; RECENT]; x0.len()],
            recent_val: x0.iter().map(|&v| [v; RECENT]).collect(),
            // Room for a pruning window's worth of versions up front, so
            // a pruned run's logs settle after a doubling or two.
            older: x0.iter().map(|_| Vec::with_capacity(16)).collect(),
            floor: 0,
        }
    }

    /// Number of components.
    pub fn n(&self) -> usize {
        self.recent_step.len()
    }

    /// Records the update `x_i(j) = value`.
    ///
    /// # Panics
    /// Panics when steps are not appended in increasing order.
    #[inline]
    pub fn push(&mut self, i: usize, j: u64, value: f64) {
        let steps = &mut self.recent_step[i];
        let vals = &mut self.recent_val[i];
        assert!(steps[0] < j, "History::push: non-increasing step");
        // The oldest recent version moves to the log unless the slot
        // before it repeats it (the initial version still fills both).
        let (s, v) = (steps[RECENT - 1], vals[RECENT - 1]);
        if s != steps[RECENT - 2] {
            self.older[i].push((s, v));
        }
        for r in (1..RECENT).rev() {
            steps[r] = steps[r - 1];
            vals[r] = vals[r - 1];
        }
        steps[0] = j;
        vals[0] = value;
    }

    /// `x_i(l)`: the value of component `i` at label `l`.
    ///
    /// # Panics
    /// Panics when `l` lies below a pruned low-water mark and the version
    /// it names was dropped.
    #[inline]
    pub fn value_at(&self, i: usize, l: u64) -> f64 {
        // Versions newer than `l` come first; count them without
        // branching, then the next slot is the answer.
        let newer = self.recent_step[i].iter().filter(|&&s| s > l).count();
        if newer < RECENT {
            self.recent_val[i][newer]
        } else {
            self.value_in_log(i, l)
        }
    }

    /// `x_i(l)` for `l` before every recent version of `i`.
    fn value_in_log(&self, i: usize, l: u64) -> f64 {
        let log = &self.older[i];
        // Gallop back from the newest end. Invariant: every entry from
        // `hi` on (and every recent version) is after `l`.
        let mut hi = log.len();
        let mut stride = 1;
        let lo = loop {
            if hi == 0 {
                self.pruned(i, l);
            }
            let lo = hi.saturating_sub(stride);
            if log[lo].0 <= l {
                break lo;
            }
            hi = lo;
            stride *= 2;
        };
        let pos = lo + log[lo..hi].partition_point(|&(s, _)| s <= l);
        log[pos - 1].1
    }

    #[cold]
    #[inline(never)]
    fn pruned(&self, i: usize, l: u64) -> ! {
        panic!(
            "History: label {l} of component {i} is below the low-water mark {} and its \
             version was pruned; the schedule's label_floor overstated its labels",
            self.floor
        )
    }

    /// The current (most recent) value of component `i`.
    #[inline]
    pub fn current(&self, i: usize) -> f64 {
        self.recent_val[i][0]
    }

    /// Assembles the read vector `x(l(j)) = (x_1(l_1), …, x_n(l_n))`.
    ///
    /// # Panics
    /// Panics on dimension mismatch, or as [`History::value_at`] does.
    pub fn assemble(&self, labels: &[u64], out: &mut [f64]) {
        assert_eq!(labels.len(), self.n(), "History::assemble: labels dim");
        assert_eq!(out.len(), self.n(), "History::assemble: out dim");
        for (i, (&l, o)) in labels.iter().zip(out).enumerate() {
            *o = self.value_at(i, l);
        }
    }

    /// Copies the current vector into `out`.
    pub fn snapshot(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n(), "History::snapshot: out dim");
        for (o, vals) in out.iter_mut().zip(&self.recent_val) {
            *o = vals[0];
        }
    }

    /// Raises the low-water mark to `floor`: afterwards only labels
    /// `≥ floor` may be looked up. Keeps, per component, the newest
    /// version at or below `floor` and everything after it. A mark at
    /// or below the current one is a no-op.
    pub fn prune_below(&mut self, floor: u64) {
        if floor <= self.floor {
            return;
        }
        self.floor = floor;
        for (log, steps) in self.older.iter_mut().zip(&self.recent_step) {
            if steps[RECENT - 1] <= floor {
                log.clear();
            } else {
                let keep = log.partition_point(|&(s, _)| s <= floor);
                log.drain(..keep.saturating_sub(1));
            }
        }
    }

    /// Total number of stored versions, initial values included (memory
    /// diagnostic).
    pub fn entries(&self) -> usize {
        let recent: usize = self
            .recent_step
            .iter()
            .map(|steps| (steps.iter().filter(|&&s| s > 0).count() + 1).min(RECENT))
            .sum();
        recent + self.older.iter().map(Vec::len).sum::<usize>()
    }
}

/// Configuration of a replay run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum number of iterations `J`.
    pub num_steps: u64,
    /// Label retention for the recorded trace.
    pub record_labels: LabelStore,
    /// Record `‖x(j) − x*‖_∞` every this many steps (0 = never); requires
    /// a known fixed point.
    pub error_every: u64,
    /// Record the fixed-point residual `‖x − F(x)‖_∞` every this many
    /// steps (0 = never). Residual evaluation costs one full operator
    /// application.
    pub residual_every: u64,
    /// Optional stopping rule evaluated online.
    pub stopping: Option<StoppingRule>,
}

impl EngineConfig {
    /// A plain fixed-length run recording full labels.
    pub fn fixed(num_steps: u64) -> Self {
        Self {
            num_steps,
            record_labels: LabelStore::Full,
            error_every: 0,
            residual_every: 0,
            stopping: None,
        }
    }

    /// Enables error recording against a known fixed point.
    pub fn with_error_every(mut self, every: u64) -> Self {
        self.error_every = every;
        self
    }

    /// Enables residual recording.
    pub fn with_residual_every(mut self, every: u64) -> Self {
        self.residual_every = every;
        self
    }

    /// Sets the label retention mode.
    pub fn with_labels(mut self, store: LabelStore) -> Self {
        self.record_labels = store;
        self
    }

    /// Installs a stopping rule.
    pub fn with_stopping(mut self, rule: StoppingRule) -> Self {
        self.stopping = Some(rule);
        self
    }
}

/// Result of a replay run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The recorded trace (exactly the `(𝒮, ℒ)` realisation executed).
    pub trace: Trace,
    /// Final iterate `x(J)`.
    pub final_x: Vec<f64>,
    /// Number of iterations actually executed.
    pub steps_run: u64,
    /// `(j, ‖x(j) − x*‖_∞)` samples (empty unless requested).
    pub errors: Vec<(u64, f64)>,
    /// `(j, ‖x(j) − F(x(j))‖_∞)` samples (empty unless requested).
    pub residuals: Vec<(u64, f64)>,
    /// True when a stopping rule fired before `num_steps`.
    pub stopped_early: bool,
}

/// Steps between two raises of the `History` low-water mark to the
/// schedule's [`ScheduleGen::label_floor`].
pub(crate) const PRUNE_EVERY: u64 = 256;

/// The Definition-1 replay engine. See module docs.
#[derive(Debug, Default)]
pub struct ReplayEngine;

impl ReplayEngine {
    /// Runs the asynchronous iteration `(F, x(0), 𝒮, ℒ)`.
    ///
    /// `xstar` is the known fixed point for error recording and
    /// error-based stopping (experiments only — the algorithm itself
    /// never uses it).
    ///
    /// # Errors
    /// Dimension mismatches, invalid configuration, or a non-finite
    /// iterate (operator divergence).
    pub fn run(
        op: &dyn Operator,
        x0: &[f64],
        gen: &mut dyn ScheduleGen,
        cfg: &EngineConfig,
        xstar: Option<&[f64]>,
    ) -> crate::Result<RunResult> {
        let n = op.dim();
        if x0.len() != n {
            return Err(CoreError::DimensionMismatch {
                expected: n,
                actual: x0.len(),
                context: "ReplayEngine::run (x0)",
            });
        }
        if gen.n() != n {
            return Err(CoreError::DimensionMismatch {
                expected: n,
                actual: gen.n(),
                context: "ReplayEngine::run (schedule)",
            });
        }
        if let Some(xs) = xstar {
            if xs.len() != n {
                return Err(CoreError::DimensionMismatch {
                    expected: n,
                    actual: xs.len(),
                    context: "ReplayEngine::run (xstar)",
                });
            }
        }
        if cfg.num_steps == 0 {
            return Err(CoreError::InvalidParameter {
                name: "num_steps",
                message: "must be positive".into(),
            });
        }
        if cfg.error_every > 0 && xstar.is_none() {
            return Err(CoreError::InvalidParameter {
                name: "error_every",
                message: "error recording requires a known fixed point".into(),
            });
        }

        let mut history = History::new(x0);
        let mut trace = Trace::new(n, cfg.record_labels);
        let mut buf = StepBuf::new(n);
        // Workhorse buffers reused across iterations (no allocation in the
        // step loop), including the operator's caller-owned scratch.
        let mut xl = vec![0.0; n]; // assembled read vector x(l(j))
        let mut cur = x0.to_vec(); // current iterate x(j)
        let mut scratch = vec![0.0; op.scratch_len()];
        let mut stop_state = cfg.stopping.as_ref().map(|r| StopState::new(r, n));

        let mut errors = Vec::new();
        let mut residuals = Vec::new();
        let mut stopped_early = false;
        let mut steps_run = 0u64;

        for j in 1..=cfg.num_steps {
            gen.step(j, &mut buf);
            debug_assert!(!buf.active.is_empty(), "schedule produced empty S_j");
            history.assemble(&buf.labels, &mut xl);
            op.update_active_with(&xl, &buf.active, &mut cur, &mut scratch);
            for &i in &buf.active {
                let v = cur[i];
                if !v.is_finite() {
                    return Err(CoreError::NonFiniteIterate {
                        at_step: j,
                        component: i,
                    });
                }
                history.push(i, j, v);
            }
            trace.push_step(&buf.active, &buf.labels);
            steps_run = j;
            if j % PRUNE_EVERY == 0 {
                history.prune_below(gen.label_floor(j + 1));
            }

            if cfg.error_every > 0 && j % cfg.error_every == 0 {
                let xs = xstar.expect("validated above");
                errors.push((j, asynciter_numerics::vecops::max_abs_diff(&cur, xs)));
            }
            if cfg.residual_every > 0 && j % cfg.residual_every == 0 {
                residuals.push((j, op.residual_inf_with(&cur, &mut scratch)));
            }
            if let (Some(rule), Some(state)) = (cfg.stopping.as_ref(), stop_state.as_mut()) {
                if state.observe(rule, j, &buf, &cur, op, xstar, &mut scratch) {
                    stopped_early = true;
                    break;
                }
            }
        }

        Ok(RunResult {
            trace,
            final_x: cur,
            steps_run,
            errors,
            residuals,
            stopped_early,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_models::schedule::{ChaoticBounded, CyclicCoordinate, SyncJacobi};
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;
    use asynciter_opt::prox::L1;
    use asynciter_opt::proxgrad::{gamma_max, SparseProxGrad};
    use asynciter_opt::quadratic::SparseQuadratic;
    use asynciter_opt::traits::SmoothObjective;

    fn jacobi() -> JacobiOperator {
        JacobiOperator::new(tridiagonal(6, 4.0, -1.0), vec![1.0; 6]).unwrap()
    }

    #[test]
    fn history_lookup_semantics() {
        let mut h = History::new(&[10.0, 20.0]);
        h.push(0, 3, 11.0);
        h.push(0, 7, 12.0);
        assert_eq!(h.value_at(0, 0), 10.0);
        assert_eq!(h.value_at(0, 2), 10.0);
        assert_eq!(h.value_at(0, 3), 11.0);
        assert_eq!(h.value_at(0, 6), 11.0);
        assert_eq!(h.value_at(0, 7), 12.0);
        assert_eq!(h.value_at(0, 100), 12.0);
        assert_eq!(h.value_at(1, 50), 20.0);
        assert_eq!(h.current(0), 12.0);
        assert_eq!(h.entries(), 4);
    }

    #[test]
    fn history_assemble() {
        let mut h = History::new(&[1.0, 2.0]);
        h.push(0, 1, 5.0);
        let mut out = [0.0; 2];
        h.assemble(&[0, 0], &mut out);
        assert_eq!(out, [1.0, 2.0]);
        h.assemble(&[1, 0], &mut out);
        assert_eq!(out, [5.0, 2.0]);
    }

    #[test]
    fn sync_replay_equals_jacobi_iteration() {
        // With the synchronous schedule the engine must reproduce plain
        // Jacobi: x(j) = F(x(j−1)).
        let op = jacobi();
        let x0 = vec![0.0; 6];
        let mut gen = SyncJacobi::new(6);
        let cfg = EngineConfig::fixed(20);
        let res = ReplayEngine::run(&op, &x0, &mut gen, &cfg, None).unwrap();

        let mut x = x0.clone();
        let mut next = vec![0.0; 6];
        for _ in 0..20 {
            op.apply(&x, &mut next);
            std::mem::swap(&mut x, &mut next);
        }
        assert!(vecops::max_abs_diff(&res.final_x, &x) < 1e-15);
        assert_eq!(res.steps_run, 20);
        assert!(!res.stopped_early);
    }

    #[test]
    fn cyclic_replay_equals_gauss_seidel() {
        let op = jacobi();
        let x0 = vec![0.0; 6];
        let mut gen = CyclicCoordinate::new(6);
        let res = ReplayEngine::run(&op, &x0, &mut gen, &EngineConfig::fixed(60), None).unwrap();

        // Hand-rolled Gauss–Seidel: 10 sweeps of in-place updates.
        let mut x = x0;
        for _ in 0..10 {
            for i in 0..6 {
                x[i] = op.component(i, &x);
            }
        }
        assert!(vecops::max_abs_diff(&res.final_x, &x) < 1e-15);
    }

    #[test]
    fn async_replay_converges_for_contraction() {
        let op = jacobi();
        let xstar = op.solve_dense_spd().unwrap();
        let mut gen = ChaoticBounded::new(6, 1, 3, 12, false, 42);
        let cfg = EngineConfig::fixed(4000).with_error_every(100);
        let res = ReplayEngine::run(&op, &[0.0; 6], &mut gen, &cfg, Some(&xstar)).unwrap();
        let final_err = vecops::max_abs_diff(&res.final_x, &xstar);
        assert!(final_err < 1e-10, "error {final_err}");
        // Errors decrease overall.
        assert!(res.errors.first().unwrap().1 > res.errors.last().unwrap().1);
    }

    #[test]
    fn replay_is_deterministic() {
        let op = jacobi();
        let cfg = EngineConfig::fixed(500);
        let run = || {
            let mut gen = ChaoticBounded::new(6, 1, 3, 8, false, 7);
            ReplayEngine::run(&op, &[0.0; 6], &mut gen, &cfg, None).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_x, b.final_x);
        assert_eq!(a.trace.len(), b.trace.len());
        for j in 1..=a.trace.len() as u64 {
            assert_eq!(a.trace.step(j).active, b.trace.step(j).active);
            assert_eq!(a.trace.labels(j).unwrap(), b.trace.labels(j).unwrap());
        }
    }

    #[test]
    fn stale_reads_are_honoured_exactly() {
        // Hand-built 2-component scenario with a recorded schedule:
        // F(x) = (x1+1, x0) — the engine must read exactly the labelled
        // values.
        struct Shift;
        impl Operator for Shift {
            fn dim(&self) -> usize {
                2
            }
            fn component(&self, i: usize, x: &[f64]) -> f64 {
                if i == 0 {
                    x[1] + 1.0
                } else {
                    x[0]
                }
            }
        }
        let mut t = asynciter_models::trace::Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]); // j=1: x0 := x1(0) + 1 = 1
        t.push_step(&[1], &[1, 0]); // j=2: x1 := x0(1) = 1
        t.push_step(&[0], &[0, 0]); // j=3: stale! x0 := x1(0) + 1 = 1 (not 2)
        t.push_step(&[0], &[0, 2]); // j=4: x0 := x1(2) + 1 = 2
        let mut gen = asynciter_models::schedule::RecordedSchedule::new(t).unwrap();
        let res = ReplayEngine::run(&Shift, &[0.0, 0.0], &mut gen, &EngineConfig::fixed(4), None)
            .unwrap();
        assert_eq!(res.final_x, vec![2.0, 1.0]);
    }

    #[test]
    fn proxgrad_async_run_reaches_fixed_point() {
        let f = SparseQuadratic::random_diag_dominant(16, 3, 0.4, 1.2, 5).unwrap();
        let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
        let op = SparseProxGrad::new(f, L1::new(0.1), gamma).unwrap();
        let (xstar, _) = op.solve_exact().unwrap();
        let mut gen = ChaoticBounded::new(16, 2, 6, 20, false, 11);
        let cfg = EngineConfig::fixed(20_000);
        let res = ReplayEngine::run(&op, &[0.0; 16], &mut gen, &cfg, Some(&xstar)).unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-9);
    }

    #[test]
    fn dimension_validation() {
        let op = jacobi();
        let mut gen = SyncJacobi::new(5); // wrong n
        assert!(matches!(
            ReplayEngine::run(&op, &[0.0; 6], &mut gen, &EngineConfig::fixed(1), None),
            Err(CoreError::DimensionMismatch { .. })
        ));
        let mut gen = SyncJacobi::new(6);
        assert!(
            ReplayEngine::run(&op, &[0.0; 5], &mut gen, &EngineConfig::fixed(1), None).is_err()
        );
        assert!(
            ReplayEngine::run(&op, &[0.0; 6], &mut gen, &EngineConfig::fixed(0), None).is_err()
        );
        // error_every without xstar.
        let cfg = EngineConfig::fixed(5).with_error_every(1);
        assert!(ReplayEngine::run(&op, &[0.0; 6], &mut gen, &cfg, None).is_err());
    }

    #[test]
    fn divergence_detected() {
        struct Doubler;
        impl Operator for Doubler {
            fn dim(&self) -> usize {
                1
            }
            fn component(&self, _i: usize, x: &[f64]) -> f64 {
                x[0] * 1e30
            }
        }
        // 1e30 squared repeatedly overflows to inf quickly.
        let mut gen = SyncJacobi::new(1);
        let err = ReplayEngine::run(
            &Doubler,
            &[1.0e100],
            &mut gen,
            &EngineConfig::fixed(100),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NonFiniteIterate { .. }));
    }

    #[test]
    fn residual_recording() {
        let op = jacobi();
        let mut gen = SyncJacobi::new(6);
        let cfg = EngineConfig::fixed(100).with_residual_every(10);
        let res = ReplayEngine::run(&op, &[0.0; 6], &mut gen, &cfg, None).unwrap();
        assert_eq!(res.residuals.len(), 10);
        // Residuals decrease for a contraction under sync iteration.
        assert!(res.residuals.first().unwrap().1 > res.residuals.last().unwrap().1);
    }
}
