//! Operator-application kernels: cost of one full application for every
//! operator family in the workspace.

use asynciter_opt::bellman_ford::{BellmanFordOperator, Graph};
use asynciter_opt::lasso::LassoProblem;
use asynciter_opt::linear::JacobiOperator;
use asynciter_opt::logistic::LogisticGradOperator;
use asynciter_opt::network_flow::{NetworkFlowProblem, PriceRelaxation};
use asynciter_opt::obstacle::{ObstacleProblem, ProjectedJacobi};
use asynciter_opt::prox::L1;
use asynciter_opt::proxgrad::{gamma_max, SparseProxGrad};
use asynciter_opt::quadratic::SparseQuadratic;
use asynciter_opt::traits::{Operator, SmoothObjective};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_full_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("operator_apply");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 1024;

    let jacobi = JacobiOperator::new(
        asynciter_numerics::sparse::tridiagonal(n, 4.0, -1.0),
        vec![1.0; n],
    )
    .unwrap();
    let f = SparseQuadratic::random_diag_dominant(n, 6, 0.4, 1.0, 3).unwrap();
    let gamma = 0.9 * gamma_max(f.strong_convexity(), f.lipschitz());
    let proxgrad = SparseProxGrad::new(f, L1::new(0.1), gamma).unwrap();
    let obstacle = ProjectedJacobi::new(ObstacleProblem::bump(32, 32, 0.6).unwrap());
    let flow = PriceRelaxation::new(NetworkFlowProblem::random(n, n, 5).unwrap(), 0).unwrap();
    let bf = BellmanFordOperator::new(Graph::random_geometric(n, 0.08, 5).unwrap(), 0).unwrap();

    let x = vec![0.5; n];
    let mut out = vec![0.0; n];
    let x_obs = vec![0.5; obstacle.dim()];
    let mut out_obs = vec![0.0; obstacle.dim()];

    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("jacobi_tridiag", |b| {
        b.iter(|| jacobi.apply(black_box(&x), &mut out))
    });
    group.bench_function("sparse_proxgrad_l1", |b| {
        b.iter(|| proxgrad.apply(black_box(&x), &mut out))
    });
    group.bench_function("projected_jacobi_obstacle", |b| {
        b.iter(|| obstacle.apply(black_box(&x_obs), &mut out_obs))
    });
    group.bench_function("network_flow_price", |b| {
        b.iter(|| flow.apply(black_box(&x), &mut out))
    });
    group.bench_function("bellman_ford", |b| {
        b.iter(|| bf.apply(black_box(&x), &mut out))
    });
    group.finish();
}

/// The scratch-path payoff on a densely-coupled operator, at the
/// `ml-flexible` logistic shape (32 features × 2048 samples): the
/// one-pass row-major kernel (`update_active_with`) vs the default
/// `update_active`, a loop over the reference `component` (one weight
/// pass per component), on full and half blocks and a single component.
fn bench_logistic_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("logistic_kernel_32x2048");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let (n, m) = (32, 2048);
    let op = LogisticGradOperator::certified_random(n, m, 2.0, 7).unwrap();
    let x: Vec<f64> = (0..n).map(|i| 0.01 * (i as f64 - 16.0)).collect();
    let mut out = vec![0.0; n];
    let mut scratch = vec![0.0; op.scratch_len()];
    for (label, active) in [
        ("full", (0..n).collect::<Vec<_>>()),
        ("half", (0..n).step_by(2).collect()),
        ("single", vec![n / 2]),
    ] {
        group.throughput(Throughput::Elements(active.len() as u64));
        group.bench_function(format!("kernel_{label}").as_str(), |b| {
            b.iter(|| op.update_active_with(black_box(&x), &active, &mut out, &mut scratch))
        });
        group.bench_function(format!("component_loop_{label}").as_str(), |b| {
            b.iter(|| op.update_active(black_box(&x), &active, &mut out))
        });
    }
    group.finish();
}

/// The `ml-flexible` lasso shape (n = 160, dense Gram matrix): a
/// half-block update with the prox computed once per call
/// (`update_active_with`) vs the default `update_active`, a loop over
/// `component`, which re-proxes every stored entry of every active row.
fn bench_lasso_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("lasso_kernel_n160");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 160;
    let problem = LassoProblem::random(n, 4 * n, 16, 0.05, 0.01, 7).unwrap();
    let q = problem.quadratic.clone();
    let gamma = 0.9 * gamma_max(q.strong_convexity(), q.lipschitz());
    let op = SparseProxGrad::new(q, L1::new(problem.lambda), gamma).unwrap();
    let x: Vec<f64> = (0..n).map(|i| 0.01 * (i as f64 - 80.0)).collect();
    let mut out = vec![0.0; n];
    let mut scratch = vec![0.0; op.scratch_len()];
    let active: Vec<usize> = (0..n).step_by(2).collect();
    group.throughput(Throughput::Elements(active.len() as u64));
    group.bench_function("kernel_half", |b| {
        b.iter(|| op.update_active_with(black_box(&x), &active, &mut out, &mut scratch))
    });
    group.bench_function("component_loop_half", |b| {
        b.iter(|| op.update_active(black_box(&x), &active, &mut out))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_apply,
    bench_logistic_kernel,
    bench_lasso_kernel
);
criterion_main!(benches);
