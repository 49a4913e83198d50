//! The repository benchmark: four closed-loop solve workloads run from
//! one process, every output checked, end-to-end metrics printed per
//! workload (untraced) or per-layer metrics (traced).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `replay-unbounded`, `ml-flexible`, `threaded-faults`,
//! `service-tenants` (see `METRICS.md` for why each exists, which layer
//! metric should move which end-to-end metric, and why `BENCHMARK.json`
//! gates all but `threaded-faults`). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The process exits with 1 when an output
//! check fails and 2 on bad arguments. A traced run also writes its
//! spans to `.bench_trace/<workload>-<seed>.json`.

mod calib;
mod det;
mod harness;
mod probe;
mod service;
mod threaded;

use harness::{Args, Outcome};

#[global_allocator]
static ALLOCATOR: probe::CountingAlloc = probe::CountingAlloc;

const WORKLOADS: [&str; 4] = [
    "replay-unbounded",
    "ml-flexible",
    "threaded-faults",
    "service-tenants",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let seed = args.seed;
    let out: Outcome = match args.workload.as_str() {
        "replay-unbounded" => harness::run(&args, || det::Deterministic::replay_unbounded(seed)),
        "ml-flexible" => harness::run(&args, || det::Deterministic::ml_flexible(seed)),
        "threaded-faults" => harness::run(&args, || threaded::ThreadedFaults::new(seed)),
        "service-tenants" => harness::run(&args, || service::ServiceTenants::new(seed)),
        _ => unreachable!("validated in parse_args"),
    };

    if let Some(spans) = &out.spans {
        let path = format!(".bench_trace/{}-{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, spans.to_json()));
        match written {
            Ok(()) => println!("spans: {} written to {path}", spans.spans.len()),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!(
        "workload {} seed {} trace {}: attempted {} failed {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if !out.correct {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; such a value is a bug in a metric and
/// is reported as -1 so the consumer sees it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}
