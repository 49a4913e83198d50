//! The Definition-3 flexible-communication engine.
//!
//! Flexible communication (paper §IV, refs \[9\], \[23\], \[24\]) lets updates
//! consume *partial updates*: values published mid-computation (one-sided
//! `put()`s from inside an updating phase) rather than only the values
//! `x_i(l_i(j))` labelled by completed iterations. Definition 3 replaces
//! the read vector by any `x̃(j)` satisfying the weighted-max-norm
//! constraint (3):
//!
//! ```text
//! ‖x̃_i(j) − x_i*‖_i / u_i  ≤  ‖x(l(j)) − x*‖_u .
//! ```
//!
//! [`FlexibleEngine`] realises this concretely:
//!
//! - each outer update runs `m` **inner iterations** of the operator on
//!   its active block (off-block components frozen at the assembled read
//!   vector) — the "operators G generated via an iterative process" of
//!   the paper;
//! - every `publish_period` inner steps the in-progress block values are
//!   **published** as partial updates;
//! - later reads of a component may *upgrade* from their labelled value
//!   `x_h(l_h(j))` to the freshest published *partial* (with
//!   configurable probability, modelling whether the one-sided transfer
//!   arrived) — finals still travel through the ordinary labelled
//!   exchange, so partials are a strictly additional fast channel;
//! - when the fixed point is known, every upgraded read is checked
//!   against constraint (3); `enforce_constraint` falls back to the
//!   labelled value on violation, making the run a *certified*
//!   Definition-3 iteration.

use crate::engine::{History, PRUNE_EVERY};
use crate::error::CoreError;
use asynciter_models::schedule::{ScheduleGen, StepBuf};
use asynciter_models::trace::{LabelStore, Trace};
use asynciter_numerics::norm::WeightedMaxNorm;
use asynciter_opt::traits::Operator;
use rand::RngExt;

/// Configuration of a flexible-communication run.
#[derive(Debug, Clone)]
pub struct FlexibleConfig {
    /// Maximum number of outer iterations.
    pub num_steps: u64,
    /// Inner iterations `m ≥ 1` per outer update (the approximate
    /// operator `G ≈ F^m` on the active block).
    pub inner_steps: usize,
    /// Publish partial block values every this many inner steps
    /// (`≥ inner_steps` disables mid-phase publishing — the standard
    /// asynchronous baseline).
    pub publish_period: usize,
    /// Probability that a read upgrades to an available fresher partial.
    pub partial_prob: f64,
    /// RNG seed for upgrade decisions.
    pub seed: u64,
    /// Label retention of the recorded trace (labels record the
    /// *effective* provenance step of each read, partials included).
    pub record_labels: LabelStore,
    /// Record `‖x(j) − x*‖_∞` every this many outer steps (0 = never).
    pub error_every: u64,
    /// When true (and `xstar` is provided), reads that would violate
    /// constraint (3) fall back to their labelled value.
    pub enforce_constraint: bool,
}

impl FlexibleConfig {
    /// A default configuration: `m` inner steps, publish halfway, always
    /// consume available partials.
    pub fn new(num_steps: u64, inner_steps: usize) -> Self {
        Self {
            num_steps,
            inner_steps,
            publish_period: (inner_steps / 2).max(1),
            partial_prob: 1.0,
            seed: 0,
            record_labels: LabelStore::Full,
            error_every: 0,
            enforce_constraint: false,
        }
    }

    /// Sets the publish period.
    pub fn with_publish_period(mut self, p: usize) -> Self {
        self.publish_period = p;
        self
    }

    /// Sets the upgrade probability.
    pub fn with_partial_prob(mut self, q: f64) -> Self {
        self.partial_prob = q;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables error recording.
    pub fn with_error_every(mut self, every: u64) -> Self {
        self.error_every = every;
        self
    }

    /// Enables constraint-(3) enforcement.
    pub fn with_enforcement(mut self) -> Self {
        self.enforce_constraint = true;
        self
    }
}

/// Result of a flexible-communication run.
#[derive(Debug, Clone)]
pub struct FlexibleRunResult {
    /// Recorded trace with *effective* read labels.
    pub trace: Trace,
    /// Final iterate.
    pub final_x: Vec<f64>,
    /// `(j, ‖x(j) − x*‖_∞)` samples.
    pub errors: Vec<(u64, f64)>,
    /// Number of reads that consumed a partial (upgraded) value.
    pub partial_reads: u64,
    /// Number of mid-phase publishes performed.
    pub publishes: u64,
    /// Constraint-(3) checks performed (0 when `xstar` unknown).
    pub constraint_checked: u64,
    /// Constraint-(3) violations observed (before enforcement).
    pub constraint_violations: u64,
}

/// The Definition-3 engine. See module docs.
#[derive(Debug, Default)]
pub struct FlexibleEngine;

impl FlexibleEngine {
    /// Runs the flexible asynchronous iteration `(G, x(0), 𝒮, ℒ)`.
    ///
    /// `norm` is the weighted max norm `‖·‖_u` of constraint (3);
    /// `xstar` the known fixed point used for (3) checks and error
    /// recording (checks are skipped when absent).
    ///
    /// # Errors
    /// Dimension mismatches or invalid configuration.
    pub fn run(
        op: &dyn Operator,
        x0: &[f64],
        gen: &mut dyn ScheduleGen,
        cfg: &FlexibleConfig,
        norm: &WeightedMaxNorm,
        xstar: Option<&[f64]>,
    ) -> crate::Result<FlexibleRunResult> {
        let n = op.dim();
        if x0.len() != n || gen.n() != n || norm.dim() != n {
            return Err(CoreError::DimensionMismatch {
                expected: n,
                actual: if x0.len() != n {
                    x0.len()
                } else if gen.n() != n {
                    gen.n()
                } else {
                    norm.dim()
                },
                context: "FlexibleEngine::run",
            });
        }
        if cfg.num_steps == 0 || cfg.inner_steps == 0 || cfg.publish_period == 0 {
            return Err(CoreError::InvalidParameter {
                name: "num_steps/inner_steps/publish_period",
                message: "must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&cfg.partial_prob) {
            return Err(CoreError::InvalidParameter {
                name: "partial_prob",
                message: format!("must be in [0,1], got {}", cfg.partial_prob),
            });
        }
        if cfg.error_every > 0 && xstar.is_none() {
            return Err(CoreError::InvalidParameter {
                name: "error_every",
                message: "error recording requires a known fixed point".into(),
            });
        }

        let mut rng = asynciter_numerics::rng::rng(cfg.seed);
        let mut history = History::new(x0);
        // Freshest published partial per component: (outer step, value);
        // step 0 marks "no partial yet".
        let mut latest_partial: Vec<(u64, f64)> = vec![(0, 0.0); n];
        let mut trace = Trace::new(n, cfg.record_labels);
        let mut buf = StepBuf::new(n);
        let mut xl = vec![0.0; n]; // labelled read vector x(l(j))
        let mut w = vec![0.0; n]; // working vector x̃ (upgraded) then inner iterates
        let mut eff_labels = vec![0u64; n];
        let mut upd = vec![0.0; n]; // inner-iteration output buffer
        let mut scratch = vec![0.0; op.scratch_len()];
        let mut cur = x0.to_vec();

        let mut errors = Vec::new();
        let mut partial_reads = 0u64;
        let mut publishes = 0u64;
        let mut constraint_checked = 0u64;
        let mut constraint_violations = 0u64;

        for j in 1..=cfg.num_steps {
            gen.step(j, &mut buf);
            history.assemble(&buf.labels, &mut xl);
            // Baseline norm of constraint (3): ‖x(l(j)) − x*‖_u.
            let baseline = xstar.map(|xs| norm.dist(&xl, xs));

            // Upgrade reads to fresher partials where available.
            w.copy_from_slice(&xl);
            eff_labels.copy_from_slice(&buf.labels);
            for h in 0..n {
                let (ps, pv) = latest_partial[h];
                if ps > buf.labels[h] && cfg.partial_prob > 0.0 {
                    let take =
                        cfg.partial_prob >= 1.0 || rng.random_range(0.0..1.0) < cfg.partial_prob;
                    if !take {
                        continue;
                    }
                    if let (Some(b), Some(xs)) = (baseline, xstar) {
                        constraint_checked += 1;
                        let dev = norm.component(h, pv - xs[h]);
                        if dev > b + 1e-12 {
                            constraint_violations += 1;
                            if cfg.enforce_constraint {
                                continue; // keep the labelled value
                            }
                        }
                    }
                    w[h] = pv;
                    eff_labels[h] = ps;
                    partial_reads += 1;
                }
            }

            // m inner block-Jacobi iterations with off-block frozen.
            for r in 1..=cfg.inner_steps {
                op.update_active_with(&w, &buf.active, &mut upd, &mut scratch);
                for &i in &buf.active {
                    let v = upd[i];
                    if !v.is_finite() {
                        return Err(CoreError::NonFiniteIterate {
                            at_step: j,
                            component: i,
                        });
                    }
                    w[i] = v;
                }
                if r % cfg.publish_period == 0 && r < cfg.inner_steps {
                    for &i in &buf.active {
                        latest_partial[i] = (j, w[i]);
                        publishes += 1;
                    }
                }
            }

            // Finalise the outer update. Note: finals do NOT enter
            // `latest_partial` — full updates travel at the speed of the
            // label mechanism (the ordinary exchange path), while
            // partials model the *extra* fast channel of flexible
            // communication. With `publish_period ≥ inner_steps` no
            // partials exist and the run degenerates to the standard
            // asynchronous iteration, which is exactly the baseline
            // experiment E4 compares against.
            for &i in &buf.active {
                cur[i] = w[i];
                history.push(i, j, w[i]);
            }
            trace.push_step(&buf.active, &eff_labels);
            // Labelled reads go through `history` only, so the
            // schedule's low-water mark bounds it exactly as in Replay.
            if j % PRUNE_EVERY == 0 {
                history.prune_below(gen.label_floor(j + 1));
            }

            if cfg.error_every > 0 && j % cfg.error_every == 0 {
                let xs = xstar.expect("validated above");
                errors.push((j, asynciter_numerics::vecops::max_abs_diff(&cur, xs)));
            }
        }

        Ok(FlexibleRunResult {
            trace,
            final_x: cur,
            errors,
            partial_reads,
            publishes,
            constraint_checked,
            constraint_violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynciter_models::partition::Partition;
    use asynciter_models::schedule::BlockRoundRobin;
    use asynciter_numerics::sparse::tridiagonal;
    use asynciter_numerics::vecops;
    use asynciter_opt::linear::JacobiOperator;

    fn jacobi(n: usize) -> JacobiOperator {
        JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
    }

    fn block_schedule(n: usize, p: usize, lag: u64) -> BlockRoundRobin {
        BlockRoundRobin::new(Partition::blocks(n, p).unwrap(), lag)
    }

    #[test]
    fn converges_with_partials() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let mut gen = block_schedule(12, 3, 4);
        let cfg = FlexibleConfig::new(3000, 4).with_error_every(100);
        let norm = WeightedMaxNorm::uniform(12);
        let res =
            FlexibleEngine::run(&op, &[0.0; 12], &mut gen, &cfg, &norm, Some(&xstar)).unwrap();
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-10);
        assert!(res.partial_reads > 0, "no partials were consumed");
        assert!(res.publishes > 0);
    }

    #[test]
    fn constraint_three_holds_under_contraction() {
        // With a contraction and monotone error decay, published partials
        // are never worse than the stale labelled reads they replace.
        let op = jacobi(10);
        let xstar = op.solve_dense_spd().unwrap();
        let mut gen = block_schedule(10, 5, 6);
        let cfg = FlexibleConfig::new(5000, 6).with_publish_period(2);
        let norm = WeightedMaxNorm::uniform(10);
        let res =
            FlexibleEngine::run(&op, &[0.0; 10], &mut gen, &cfg, &norm, Some(&xstar)).unwrap();
        assert!(res.constraint_checked > 100);
        let rate = res.constraint_violations as f64 / res.constraint_checked as f64;
        assert!(rate < 0.01, "violation rate {rate}");
    }

    #[test]
    fn enforcement_yields_zero_effective_violations() {
        let op = jacobi(10);
        let xstar = op.solve_dense_spd().unwrap();
        let mut gen = block_schedule(10, 5, 8);
        let cfg = FlexibleConfig::new(2000, 6)
            .with_publish_period(1)
            .with_enforcement();
        let norm = WeightedMaxNorm::uniform(10);
        let res =
            FlexibleEngine::run(&op, &[0.0; 10], &mut gen, &cfg, &norm, Some(&xstar)).unwrap();
        // Enforcement falls back on violations, so convergence holds and
        // the run is a certified Definition-3 iteration.
        assert!(vecops::max_abs_diff(&res.final_x, &xstar) < 1e-10);
    }

    #[test]
    fn more_inner_steps_converge_in_fewer_outer_steps() {
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let norm = WeightedMaxNorm::uniform(12);
        let err_after = |m: usize| {
            let mut gen = block_schedule(12, 3, 4);
            // Short run so neither variant hits the f64 precision floor.
            let cfg = FlexibleConfig::new(45, m);
            let res =
                FlexibleEngine::run(&op, &[0.0; 12], &mut gen, &cfg, &norm, Some(&xstar)).unwrap();
            vecops::max_abs_diff(&res.final_x, &xstar)
        };
        let e1 = err_after(1);
        let e4 = err_after(4);
        assert!(e4 < e1, "m=4 error {e4} not better than m=1 error {e1}");
    }

    #[test]
    fn partials_help_under_stale_labels() {
        // With very stale labels, consuming fresh partials must not hurt
        // (and generally helps). Compare partial_prob 1.0 vs 0.0.
        let op = jacobi(12);
        let xstar = op.solve_dense_spd().unwrap();
        let norm = WeightedMaxNorm::uniform(12);
        let err_with_prob = |q: f64| {
            let mut gen = block_schedule(12, 4, 12);
            let cfg = FlexibleConfig::new(400, 6)
                .with_publish_period(2)
                .with_partial_prob(q);
            let res =
                FlexibleEngine::run(&op, &[0.0; 12], &mut gen, &cfg, &norm, Some(&xstar)).unwrap();
            vecops::max_abs_diff(&res.final_x, &xstar)
        };
        let with_partials = err_with_prob(1.0);
        let without = err_with_prob(0.0);
        assert!(
            with_partials <= without * 1.01,
            "partials hurt: {with_partials} vs {without}"
        );
    }

    #[test]
    fn config_validation() {
        let op = jacobi(4);
        let norm = WeightedMaxNorm::uniform(4);
        let mut gen = block_schedule(4, 2, 1);
        let bad = FlexibleConfig::new(0, 2);
        assert!(FlexibleEngine::run(&op, &[0.0; 4], &mut gen, &bad, &norm, None).is_err());
        let bad = FlexibleConfig::new(10, 0);
        assert!(FlexibleEngine::run(&op, &[0.0; 4], &mut gen, &bad, &norm, None).is_err());
        let bad = FlexibleConfig::new(10, 2).with_partial_prob(1.5);
        assert!(FlexibleEngine::run(&op, &[0.0; 4], &mut gen, &bad, &norm, None).is_err());
        let bad = FlexibleConfig::new(10, 2).with_error_every(1);
        assert!(FlexibleEngine::run(&op, &[0.0; 4], &mut gen, &bad, &norm, None).is_err());
        // Wrong norm dimension.
        let wrong_norm = WeightedMaxNorm::uniform(5);
        let cfg = FlexibleConfig::new(10, 2);
        assert!(FlexibleEngine::run(&op, &[0.0; 4], &mut gen, &cfg, &wrong_norm, None).is_err());
    }

    #[test]
    fn publish_period_beyond_m_means_no_partials() {
        let op = jacobi(8);
        let mut gen = block_schedule(8, 2, 2);
        let cfg = FlexibleConfig::new(200, 3).with_publish_period(10);
        let norm = WeightedMaxNorm::uniform(8);
        let res = FlexibleEngine::run(&op, &[0.0; 8], &mut gen, &cfg, &norm, None).unwrap();
        assert_eq!(res.publishes, 0);
        // No partials exist, so no reads can upgrade: the run degenerates
        // to the standard asynchronous iteration.
        assert_eq!(res.partial_reads, 0);
    }
}
