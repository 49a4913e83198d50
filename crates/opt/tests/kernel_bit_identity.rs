//! Bit-identity of the row-major kernels: every scratch path of
//! `LogisticGradOperator` and `SparseProxGrad` (`update_active_with`,
//! `apply_with`, `residual_inf_with`, and the allocating `apply` /
//! `residual_inf` built on them) must reproduce `Operator::component`
//! and the trait's default residual bit for bit — on any active subset
//! (empty, singleton, unsorted, full), on row counts that are not a
//! multiple of the kernels' row block, at `x = 0` and `x = −0` (where a
//! dot's `-0.0` start shows), on all-zero data rows, and on sparse `Q`
//! as well as dense lasso Gram matrices.

use asynciter_numerics::dense::DenseMatrix;
use asynciter_numerics::rng::{normal_vec, rng, sample_indices, shuffle};
use asynciter_opt::lasso::LassoProblem;
use asynciter_opt::logistic::{LogisticGradOperator, LogisticRegression};
use asynciter_opt::prox::{BoxConstraint, ElasticNet, L1};
use asynciter_opt::proxgrad::{gamma_max, SparseProxGrad};
use asynciter_opt::quadratic::SparseQuadratic;
use asynciter_opt::traits::{Operator, SeparableProx, SmoothObjective};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The trait's default residual `max_i |x_i − F_i(x)|`, over
/// `component`, in ascending `i`.
fn reference_residual(op: &dyn Operator, x: &[f64]) -> f64 {
    let mut r = 0.0_f64;
    for i in 0..op.dim() {
        r = r.max((x[i] - op.component(i, x)).abs());
    }
    r
}

/// The active subsets every case is checked on: empty, a singleton,
/// an unsorted random subset, the full set in order and shuffled.
fn subsets(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut r = rng(seed);
    let k = 1 + (seed as usize) % n;
    let mut shuffled: Vec<usize> = (0..n).collect();
    shuffle(&mut r, &mut shuffled);
    vec![
        vec![],
        vec![(seed as usize) % n],
        sample_indices(&mut r, n, k),
        (0..n).collect(),
        shuffled,
    ]
}

/// The inputs every case is checked on: `0`, `−0`, and a random point.
fn points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut r = rng(seed ^ 0x5EED);
    vec![vec![0.0; n], vec![-0.0; n], normal_vec(&mut r, n)]
}

/// Asserts every scratch path of `op` at `x` matches the reference
/// bitwise. Scratch starts full of NaN, so a kernel that reads scratch
/// it did not write shows.
fn assert_bit_identical(op: &dyn Operator, x: &[f64], seed: u64) {
    let n = op.dim();
    let reference: Vec<u64> = (0..n).map(|i| op.component(i, x).to_bits()).collect();
    let mut scratch = vec![f64::NAN; op.scratch_len()];
    let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
    for active in subsets(n, seed) {
        let mut out = vec![sentinel; n];
        op.update_active_with(x, &active, &mut out, &mut scratch);
        for i in 0..n {
            let want = if active.contains(&i) {
                reference[i]
            } else {
                sentinel.to_bits()
            };
            assert_eq!(
                out[i].to_bits(),
                want,
                "update_active_with i={i} active={active:?}"
            );
        }
        scratch.fill(f64::NAN);
    }
    let mut out = vec![sentinel; n];
    op.apply_with(x, &mut out, &mut scratch);
    let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, reference, "apply_with");
    op.apply(x, &mut out);
    let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, reference, "apply");
    let want = reference_residual(op, x).to_bits();
    scratch.fill(f64::NAN);
    assert_eq!(
        op.residual_inf_with(x, &mut scratch).to_bits(),
        want,
        "residual_inf_with"
    );
    assert_eq!(op.residual_inf(x).to_bits(), want, "residual_inf");
}

/// A certified logistic operator over `m` Gaussian samples of `n`
/// features; every third row is all zeros when `zero_rows` is set.
fn logistic(n: usize, m: usize, zero_rows: bool, seed: u64) -> LogisticGradOperator {
    let mut r = rng(seed);
    let mut data = normal_vec(&mut r, m * n);
    if zero_rows {
        for row in data.chunks_mut(n).step_by(3) {
            row.fill(0.0);
        }
    }
    let z = (0..m)
        .map(|h| if h % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let a = DenseMatrix::from_vec(m, n, data).unwrap();
    let f = LogisticRegression::new(a, z, 1.0).unwrap();
    let f = f.with_lambda(1.5 * f.max_norm_coupling().max(0.5)).unwrap();
    LogisticGradOperator::with_max_step(f).unwrap()
}

/// A Definition-4 operator over `q` at 0.9 of the Theorem-1 step.
fn proxgrad<P: SeparableProx>(q: SparseQuadratic, g: P) -> SparseProxGrad<P> {
    let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
    SparseProxGrad::new(q, g, gamma).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn logistic_scratch_paths_match_component(
        n in 1usize..10,
        m in 1usize..14,
        zero_rows in prop::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let op = logistic(n, m, zero_rows, seed);
        for x in points(n, seed) {
            assert_bit_identical(&op, &x, seed);
        }
    }

    #[test]
    fn sparse_proxgrad_scratch_paths_match_component(
        n in 3usize..24,
        degree in 1usize..3,
        lam in 0.0..0.5f64,
        seed in 0u64..10_000,
    ) {
        let q = SparseQuadratic::random_diag_dominant(n, degree, 0.4, 1.0, seed).unwrap();
        let op = proxgrad(q, L1::new(lam));
        for x in points(n, seed) {
            assert_bit_identical(&op, &x, seed);
        }
    }
}

#[test]
fn logistic_edge_shapes() {
    // Row counts around the row block (1, 2, 3, 5, …), one feature, and
    // the benchmark's 32 × 2048 shape.
    for (n, m) in [
        (1, 1),
        (1, 2),
        (1, 7),
        (2, 1),
        (3, 3),
        (5, 5),
        (4, 9),
        (32, 2048),
    ] {
        for zero_rows in [false, true] {
            let op = logistic(n, m, zero_rows, (n * 100 + m) as u64);
            for x in points(n, m as u64) {
                assert_bit_identical(&op, &x, m as u64);
            }
        }
    }
}

#[test]
fn lasso_dense_gram_matches_component() {
    // A lasso Gram matrix is dense: every row stores n entries.
    for (n, seed) in [(2, 1), (7, 2), (16, 3), (41, 4)] {
        let problem = LassoProblem::random(n, 4 * n, n.min(16), 0.05, 0.01, seed).unwrap();
        let op = proxgrad(problem.quadratic, L1::new(problem.lambda));
        for x in points(n, seed) {
            assert_bit_identical(&op, &x, seed);
        }
    }
}

#[test]
fn sparse_proxgrad_other_proxes_match_component() {
    let q = SparseQuadratic::random_diag_dominant(17, 2, 0.4, 1.0, 9).unwrap();
    let boxed = proxgrad(q.clone(), BoxConstraint::uniform(-0.3, 0.5));
    let enet = proxgrad(q, ElasticNet::new(0.2, 0.1));
    for x in points(17, 9) {
        assert_bit_identical(&boxed, &x, 9);
        assert_bit_identical(&enet, &x, 10);
    }
}

/// `L1` that counts its prox evaluations.
struct CountingL1 {
    inner: L1,
    calls: AtomicUsize,
}

impl SeparableProx for CountingL1 {
    fn prox_component(&self, i: usize, v: f64, gamma: f64) -> f64 {
        self.calls.fetch_add(1, Relaxed);
        self.inner.prox_component(i, v, gamma)
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.inner.value(x)
    }
}

#[test]
fn block_updates_prox_each_component_once() {
    let counting = || CountingL1 {
        inner: L1::new(0.1),
        calls: AtomicUsize::new(0),
    };
    let prox_calls = |op: &SparseProxGrad<CountingL1>, active: &[usize]| {
        let n = op.dim();
        let x = points(n, 3).pop().unwrap();
        let mut out = vec![0.0; n];
        let mut scratch = vec![0.0; op.scratch_len()];
        op.g().calls.store(0, Relaxed);
        op.update_active_with(&x, active, &mut out, &mut scratch);
        op.g().calls.load(Relaxed)
    };
    // Whatever the block and the sparsity of Q, the scratch path proxes
    // the iterate once: n evaluations, not one per stored entry.
    let n = 40;
    let sparse = proxgrad(
        SparseQuadratic::random_diag_dominant(n, 1, 0.4, 1.0, 5).unwrap(),
        counting(),
    );
    assert_eq!(sparse.scratch_len(), n);
    assert_eq!(prox_calls(&sparse, &[7]), n);
    assert_eq!(prox_calls(&sparse, &(0..n).collect::<Vec<_>>()), n);
    let problem = LassoProblem::random(12, 48, 12, 0.05, 0.01, 2).unwrap();
    let dense = proxgrad(problem.quadratic, counting());
    assert_eq!(prox_calls(&dense, &[3]), 12);
    assert_eq!(prox_calls(&dense, &[3, 5, 1]), 12);
}
