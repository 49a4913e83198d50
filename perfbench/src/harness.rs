//! The closed-loop harness shared by every workload: repeated set-up,
//! warm-up, the timed section(s), end-to-end metrics and output checks.
//!
//! A workload runs in whole *cycles* (each of its solve specs once, or
//! one service batch). The timed section starts cycles until its time is
//! used up and always finishes the cycle it is in, so every spec of a
//! deterministic workload is solved equally often and the latency
//! percentiles sit at the same place in the mix on every run.

use crate::calib::Calibration;
use crate::probe::Spans;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("opt.kernel_ns_per_component", "ns"),
    ("opt.kernel_share", "share"),
    ("opt.components_updated", "count"),
    ("opt.kernel_allocs_per_call", "count"),
    ("opt.residual_checks", "count"),
    ("opt.residual_ns_per_check", "ns"),
    ("opt.residual_share", "share"),
    ("models.schedule_ns_per_step", "ns"),
    ("models.schedule_share", "share"),
    ("models.schedule_allocs_per_step", "count"),
    ("models.trace_push_ns_per_step", "ns"),
    ("models.trace_bytes_per_solve", "B"),
    ("core.history_assemble_ns_per_step", "ns"),
    ("core.history_push_ns_per_update", "ns"),
    ("core.history_entries_per_solve", "count"),
    ("core.engine_self_share", "share"),
    ("core.engine_allocs_per_step", "count"),
    ("core.steps_per_solve", "count"),
    ("runtime.send_ns_per_msg", "ns"),
    ("runtime.recv_ns_per_msg", "ns"),
    ("runtime.useful_poll_ratio", "ratio"),
    ("runtime.drain_burst_max", "count"),
    ("runtime.drain_burst_p99", "count"),
    ("runtime.worker_update_imbalance", "ratio"),
    ("runtime.budget_exhausted", "count"),
    ("runtime.stopped_above_target", "count"),
    ("runtime.msgs_sent_per_solve", "count"),
    ("runtime.msgs_delivered_per_solve", "count"),
    ("runtime.msgs_dropped", "count"),
    ("runtime.msgs_duplicated", "count"),
    ("runtime.msgs_held", "count"),
    ("runtime.stale_discards", "count"),
    ("runtime.scratch_reuse_ratio", "ratio"),
    ("runtime.scratch_created", "count"),
    ("service.submit_ns_per_job", "ns"),
    ("service.drain_ms_per_batch", "ms"),
    ("service.exec_share", "share"),
    ("service.overhead_us_per_job", "us"),
    ("report.render_ns_per_record", "ns"),
    ("report.parse_ns_per_record", "ns"),
    ("report.doc_bytes_per_record", "B"),
    ("trace.overhead_share", "share"),
];

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 61;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Solve outcomes of one section.
#[derive(Debug, Default)]
pub struct Solves {
    pub attempted: u64,
    pub failed: u64,
    /// Wall times of the solves that met their target, in ms.
    pub ok_ms: Vec<f64>,
    /// Steps of every attempted solve.
    pub steps: Vec<u64>,
    /// The time `solves_per_s` divides by (cycle wall time, or the
    /// submit + drain + render time of service batches).
    pub busy: Duration,
}

impl Solves {
    /// Records one solve.
    pub fn record(&mut self, ok: bool, wall: Duration, steps: u64) {
        self.attempted += 1;
        self.steps.push(steps);
        if ok {
            self.ok_ms.push(wall.as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
        }
    }
}

/// What a cycle may touch: the solve tally, the span store (traced
/// sections only), the list of output-check violations and the host
/// calibration (untraced timed section only).
pub struct Ctx {
    pub solves: Solves,
    pub spans: Option<Spans>,
    pub errors: Vec<String>,
    stretches: Option<Stretches>,
}

/// The calibration of a timed section and where each of its stretches
/// of solves starts (see [`crate::calib`]).
struct Stretches {
    cal: Calibration,
    starts: Vec<Mark>,
}

/// The tallies at a mark. `cpu_end` closes the previous stretch; the
/// others open the next one, after the calibration chunk.
#[derive(Clone, Copy)]
struct Mark {
    ok: usize,
    busy: Duration,
    cpu_start: f64,
    cpu_end: f64,
}

/// A closed-loop workload.
pub trait Workload {
    /// Runs one cycle and adds its busy time to `ctx.solves.busy`.
    fn cycle(&mut self, ctx: &mut Ctx);
    /// Turns the layer decorators on or off for the following cycles.
    fn set_tracing(&mut self, on: bool);
    /// Per-layer metrics of the traced cycles (`cycles` of them).
    fn layers(&mut self, cycles: u64, traced: &Solves) -> Vec<Metric>;
    /// Output checks run after the timed sections; returns lines to print.
    fn finish(&mut self, errors: &mut Vec<String>) -> Vec<String>;
}

impl Ctx {
    fn new(spans: Option<Spans>) -> Self {
        Self {
            solves: Solves::default(),
            spans,
            errors: Vec::new(),
            stretches: None,
        }
    }

    /// Ends one stretch of solves and starts the next. In the untraced
    /// timed section this runs a calibration chunk between them (outside
    /// the busy and CPU time); elsewhere it does nothing. The harness
    /// marks every cycle boundary; a workload with long cycles also
    /// marks inside them (between solves), so each stretch stays short.
    pub fn mark(&mut self) {
        let Some(st) = self.stretches.as_mut() else {
            return;
        };
        let cpu_end = cpu_seconds();
        st.cal.sample();
        st.starts.push(Mark {
            ok: self.solves.ok_ms.len(),
            busy: self.solves.busy,
            cpu_start: cpu_seconds(),
            cpu_end,
        });
    }

    /// Met solves per second of busy time.
    fn ok_per_s(&self) -> f64 {
        self.solves.ok_ms.len() as f64 / self.solves.busy.as_secs_f64()
    }
}

/// Everything a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    pub spans: Option<Spans>,
}

/// Runs a workload end to end: set-up (repeated), one warm-up cycle,
/// the timed section, then the output checks.
///
/// Untraced, the timed section gives the end-to-end metrics, every time
/// scaled by the host slowdown measured around it (see
/// [`crate::calib`]); set-up is calibrated the same way. Traced,
/// untraced and traced cycles alternate: the traced ones give the
/// per-layer metrics, and the two rates give the tracing overhead.
pub fn run<W: Workload>(args: &Args, setup: impl Fn() -> W) -> Outcome {
    let mut cal = Calibration::new();
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        cal.sample();
        drop(built.take());
        let t0 = Instant::now();
        built = Some(std::hint::black_box(setup()));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    cal.sample();
    let setup_raw = median(&mut setup_secs.clone());
    let mut setup_scaled: Vec<f64> = (setup_secs.iter().zip(cal.slowdowns()))
        .map(|(s, slow)| s / slow)
        .collect();
    let mut w = built.expect("set-up ran");
    let mut errors = Vec::new();

    let mut warm = Ctx::new(None);
    w.cycle(&mut warm);
    errors.append(&mut warm.errors);

    let mut lines = Vec::new();
    let (metrics, attempted, failed, spans);
    if args.trace {
        // Untraced and traced cycles alternate over the same window, so
        // drift of the host's speed cancels out of the overhead.
        let mut base = Ctx::new(None);
        let mut traced = Ctx::new(Some(Spans::new()));
        let mut cycles = 0;
        let t0 = Instant::now();
        while cycles == 0 || t0.elapsed().as_secs_f64() < args.seconds {
            w.set_tracing(false);
            w.cycle(&mut base);
            w.set_tracing(true);
            w.cycle(&mut traced);
            cycles += 1;
        }
        errors.append(&mut base.errors);
        errors.append(&mut traced.errors);
        let mut layers = w.layers(cycles, &traced.solves);
        let overhead = base.ok_per_s() / traced.ok_per_s() - 1.0;
        layers.push(Metric::new("trace.overhead_share", overhead, "share"));
        lines.push(format!(
            "tracing overhead: {:.4} solves/s untraced vs {:.4} traced ({:+.2}%) over {cycles} cycles each",
            base.ok_per_s(),
            traced.ok_per_s(),
            overhead * 100.0
        ));
        for m in &layers {
            assert!(
                PER_LAYER.iter().any(|&(name, _)| name == m.name),
                "layer metric {} missing from PER_LAYER",
                m.name
            );
        }
        // Every per-layer metric is printed on every workload; a layer a
        // workload does not exercise reads 0.
        metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect();
        attempted = base.solves.attempted + traced.solves.attempted;
        failed = base.solves.failed + traced.solves.failed;
        spans = traced.spans.take();
    } else {
        let mut ctx = Ctx::new(None);
        ctx.stretches = Some(Stretches {
            cal: Calibration::new(),
            starts: Vec::new(),
        });
        let t0 = Instant::now();
        let mut cycles = 0;
        while cycles == 0 || t0.elapsed().as_secs_f64() < args.seconds {
            ctx.mark();
            w.cycle(&mut ctx);
            cycles += 1;
        }
        ctx.mark();
        let wall = t0.elapsed();
        let peak_rss = peak_rss_mib();
        errors.append(&mut ctx.errors);
        let solves = &ctx.solves;
        let st = ctx.stretches.take().expect("calibrated section");
        // Stretch j runs from mark j to mark j + 1.
        let (mut ok, mut busy, mut cpu_secs) = (Vec::new(), 0.0, 0.0);
        let (mut raw_busy, mut raw_cpu) = (0.0, 0.0);
        for (j, slow) in st.cal.slowdowns().into_iter().enumerate() {
            let (a, b) = (st.starts[j], st.starts[j + 1]);
            ok.extend(solves.ok_ms[a.ok..b.ok].iter().map(|t| t / slow));
            let stretch_busy = (b.busy - a.busy).as_secs_f64();
            let stretch_cpu = b.cpu_end - a.cpu_start;
            busy += stretch_busy / slow;
            cpu_secs += stretch_cpu / slow;
            raw_busy += stretch_busy;
            raw_cpu += stretch_cpu;
        }
        let mut raw_ok = solves.ok_ms.clone();
        if ok.is_empty() {
            errors.push("no solve met its target".into());
            ok.push(f64::NAN);
            raw_ok.push(f64::NAN);
        }
        ok.sort_by(f64::total_cmp);
        raw_ok.sort_by(f64::total_cmp);
        let (pct, tail) = tail_percentile(&ok);
        lines.push(format!(
            "solve_tail_ms is p{pct:.2} over {} successful solves ({cycles} cycles, {:.3} s wall)",
            solves.ok_ms.len(),
            wall.as_secs_f64()
        ));
        let n_ok = solves.ok_ms.len() as f64;
        let per_solve = 1e3 / solves.attempted as f64;
        let setup = median(&mut setup_scaled);
        lines.push(format!(
            "host slowdown {:.4} (set-up {:.4}); unscaled: setup_s {setup_raw:.6}, \
             solves_per_s {:.4}, solve_p50_ms {:.4}, solve_tail_ms {:.4}, cpu_ms_per_solve {:.4}",
            raw_busy / busy,
            setup_raw / setup,
            n_ok / raw_busy,
            quantile(&raw_ok, 0.5),
            tail_percentile(&raw_ok).1,
            raw_cpu * per_solve,
        ));
        metrics = vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("solves_per_s", n_ok / busy, "1/s"),
            Metric::new("solve_p50_ms", quantile(&ok, 0.5), "ms"),
            Metric::new("solve_tail_ms", tail, "ms"),
            Metric::new("cpu_ms_per_solve", cpu_secs * per_solve, "ms"),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
        ];
        attempted = solves.attempted;
        failed = solves.failed;
        spans = None;
    }
    lines.extend(w.finish(&mut errors));
    for e in errors.iter().take(20) {
        lines.push(format!("CHECK FAILED: {e}"));
    }
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        lines,
        spans,
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank `q`-quantile of a sorted, nonempty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (sorts in place; nonempty input).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// The highest percentile with at least 10 samples beyond it — the
/// 11th-largest sample — capped at p99, and that percentile. It moves
/// smoothly with the sample count, so it never jumps between two fixed
/// levels when the count crosses a threshold.
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 10 {
        return (100.0, sorted[n - 1]);
    }
    let q = ((n - 10) as f64 / n as f64).min(0.99);
    (q * 100.0, quantile(sorted, q))
}

// ---------------------------------------------------------------------------
// Process readings
// ---------------------------------------------------------------------------

/// User + system CPU seconds of the whole process (every thread, live
/// or exited), from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |k: usize| {
        fields
            .get(k)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
