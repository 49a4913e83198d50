//! `service-tenants`: the multi-tenant `Service` in free-running mode
//! with two workers. One cycle submits a batch from
//! `conformance::service::tenant_plan`, drains it and renders the
//! `ServiceDoc` — the same traffic mix the committed service baselines
//! and the 1000-tenant soak serve.
//!
//! A job counts as met only when its record is `ok` *and* its final
//! residual is within the catalog target. Job latency is the record's
//! `wall_secs`; throughput divides on-target jobs by the submit + drain
//! + render time.

use crate::harness::{median, Ctx, Metric, Solves, Workload};
use asynciter_conformance::service::tenant_plan;
use asynciter_numerics::rng::child_seed;
use asynciter_report::stream::ServiceDoc;
use asynciter_service::{
    check_outcome, ProblemId, Service, ServiceConfig, ServiceMode, ServiceOutcome,
};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Jobs per batch.
const BATCH: u64 = 256;

#[derive(Default)]
struct Layers {
    batches: u64,
    jobs: u64,
    submit_ns: u64,
    drain_ns: u64,
    exec_secs: f64,
    render_ns: u64,
    parse_ns: u64,
    doc_bytes: u64,
    leases: u64,
    reused: u64,
}

pub struct ServiceTenants {
    seed: u64,
    svc: Service,
    next_batch: u64,
    tracing: bool,
    layers: Layers,
    /// The first drained batch and its rendered document, kept for the
    /// solo-diff and round-trip checks after the timed sections.
    kept: Option<(ServiceOutcome, String)>,
}

impl ServiceTenants {
    /// Builds the service (catalog included) and warms its workspace
    /// pool with one buffer per worker.
    pub fn new(seed: u64) -> Self {
        let svc = Service::new(ServiceConfig {
            queue_capacity: BATCH as usize,
            mode: ServiceMode::FreeRunning { workers: WORKERS },
            ..ServiceConfig::default()
        });
        svc.pool().warm(WORKERS, svc.catalog().max_workspace_len());
        Self {
            seed,
            svc,
            next_batch: 0,
            tracing: false,
            layers: Layers::default(),
            kept: None,
        }
    }

    fn target(&self, problem: &str) -> f64 {
        ProblemId::parse(problem).map_or(f64::NAN, |id| self.svc.catalog().get(id).target)
    }
}

impl Workload for ServiceTenants {
    fn cycle(&mut self, ctx: &mut Ctx) {
        let batch = self.next_batch;
        self.next_batch += 1;
        let plan = tenant_plan(BATCH, child_seed(self.seed, batch), false);
        let pool_before = self.svc.pool().stats();

        let mut spans = ctx.spans.as_mut();
        let batch_span = spans.as_mut().map(|s| s.open("batch", None, batch));
        let span = spans
            .as_mut()
            .map(|s| s.open("service.submit", batch_span, batch));
        let t0 = Instant::now();
        for spec in plan {
            if let Err(e) = self.svc.submit(spec) {
                ctx.errors
                    .push(format!("batch {batch}: submit rejected: {e}"));
            }
        }
        let submit = t0.elapsed();
        close(&mut spans, span);

        let span = spans
            .as_mut()
            .map(|s| s.open("service.drain", batch_span, batch));
        let t0 = Instant::now();
        let outcome = self.svc.drain();
        let drain = t0.elapsed();
        close(&mut spans, span);

        let span = spans
            .as_mut()
            .map(|s| s.open("report.render", batch_span, batch));
        let t0 = Instant::now();
        let text = outcome.doc.render();
        let render = t0.elapsed();
        close(&mut spans, span);
        close(&mut spans, batch_span);
        ctx.solves.busy += submit + drain + render;

        let mut exec_secs = 0.0;
        for job in &outcome.jobs {
            let r = &job.record;
            let met = r.is_ok() && r.final_residual <= self.target(&r.problem);
            ctx.solves
                .record(met, Duration::from_secs_f64(r.wall_secs), r.steps);
            exec_secs += r.wall_secs;
        }

        if self.tracing {
            let t0 = Instant::now();
            let parsed = ServiceDoc::parse(&text);
            let parse = t0.elapsed();
            std::hint::black_box(&parsed);
            let pool = self.svc.pool().stats();
            let l = &mut self.layers;
            l.batches += 1;
            l.jobs += outcome.jobs.len() as u64;
            l.submit_ns += submit.as_nanos() as u64;
            l.drain_ns += drain.as_nanos() as u64;
            l.exec_secs += exec_secs;
            l.render_ns += render.as_nanos() as u64;
            l.parse_ns += parse.as_nanos() as u64;
            l.doc_bytes += text.len() as u64;
            l.leases += pool.leases - pool_before.leases;
            l.reused += pool.reused - pool_before.reused;
        }
        if self.kept.is_none() {
            self.kept = Some((outcome, text));
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn layers(&mut self, _cycles: u64, traced: &Solves) -> Vec<Metric> {
        let l = &self.layers;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let jobs = l.jobs as f64;
        let drain_secs = l.drain_ns as f64 * 1e-9;
        let capacity = drain_secs * WORKERS as f64;
        let mut steps: Vec<f64> = traced.steps.iter().map(|&s| s as f64).collect();
        vec![
            Metric::new(
                "runtime.scratch_reuse_ratio",
                ratio(l.reused as f64, l.leases as f64),
                "ratio",
            ),
            Metric::new(
                "runtime.scratch_created",
                self.svc.pool().stats().created as f64,
                "count",
            ),
            Metric::new(
                "service.submit_ns_per_job",
                ratio(l.submit_ns as f64, jobs),
                "ns",
            ),
            Metric::new(
                "service.drain_ms_per_batch",
                ratio(drain_secs * 1e3, l.batches as f64),
                "ms",
            ),
            Metric::new("service.exec_share", ratio(l.exec_secs, capacity), "share"),
            Metric::new(
                "service.overhead_us_per_job",
                ratio((capacity - l.exec_secs) * 1e6, jobs),
                "us",
            ),
            Metric::new(
                "report.render_ns_per_record",
                ratio(l.render_ns as f64, jobs),
                "ns",
            ),
            Metric::new(
                "report.parse_ns_per_record",
                ratio(l.parse_ns as f64, jobs),
                "ns",
            ),
            Metric::new(
                "report.doc_bytes_per_record",
                ratio(l.doc_bytes as f64, jobs),
                "B",
            ),
            Metric::new("core.steps_per_solve", median(&mut steps), "count"),
        ]
    }

    fn finish(&mut self, errors: &mut Vec<String>) -> Vec<String> {
        let Some((outcome, text)) = &self.kept else {
            errors.push("no batch was drained".into());
            return Vec::new();
        };
        let divergences = check_outcome(self.svc.catalog(), outcome);
        for d in &divergences {
            errors.push(format!("solo diff: {d}"));
        }
        match ServiceDoc::parse(text) {
            Ok(parsed) if parsed == outcome.doc => {}
            Ok(_) => errors.push("ServiceDoc render/parse round trip changed the document".into()),
            Err(e) => errors.push(format!("ServiceDoc render/parse round trip failed: {e}")),
        }
        vec![format!(
            "service checks: {} jobs diffed against solo runs, {} divergences; round trip of {} bytes",
            outcome.jobs.len(),
            divergences.len(),
            text.len()
        )]
    }
}

fn close(spans: &mut Option<&mut crate::probe::Spans>, idx: Option<usize>) {
    if let (Some(s), Some(i)) = (spans.as_mut(), idx) {
        s.close(i);
    }
}
