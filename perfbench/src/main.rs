//! The repository benchmark: one workload, one seed, one JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_dense --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Set-up runs at least five times and for at least a second (the median
//! is `setup_s`); the last set-up's state is then measured for
//! `--seconds`. With `--trace 1` the time is split between an untraced
//! and a traced phase, and the run reports the per-layer metrics instead
//! of the end-to-end ones. See `perfbench/README.md` for the workloads
//! and metrics.

mod campaign;
mod diagnosis;
mod replay;
mod service;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::{num, Metric, Tracer};

/// Where checkpoints and trace files go, relative to the working
/// directory (the checkout root).
const SCRATCH: &str = ".bench_tmp";

/// Set-ups per run: at least `SETUPS` of them, repeated until they span
/// `SETUP_SPAN_S` seconds, so a millisecond set-up is not timed in a
/// single moment of the host. `setup_s` is their median.
const SETUPS: usize = 5;
const SETUP_SPAN_S: f64 = 1.0;

/// One timed operation of a measurement phase.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it ended, in seconds since the phase began.
    pub end: f64,
    /// The faults it evaluated (1 for an operation that counts itself).
    pub work: f64,
    /// How long it took, in seconds.
    pub secs: f64,
}

/// The outcome of one measurement phase.
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// The operations `op_ms_p50`, `op_ms_p90` and `ops_per_s` time.
    pub ops: Vec<Op>,
    /// The operations whose faults `faults_per_s` counts.
    pub faulted: Vec<Op>,
    /// Operations overlap (concurrent clients): rates are per second of
    /// wall time rather than per second of operation time.
    pub concurrent: bool,
    /// How long the phase ran, in seconds.
    pub wall: f64,
    /// The workload's own named metrics.
    pub report: Vec<Metric>,
}

/// One benchmark workload after set-up.
pub trait Workload {
    /// Runs the timed loop for `secs` seconds, with spans when `tracer`
    /// is given.
    fn measure(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase;
    /// Tears the workload down; returns the operations that failed doing
    /// so.
    fn finish(self: Box<Self>) -> u64;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 4] = ["campaign_dense", "campaign_sparse", "diagnosis", "service"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn setup(args: &Args, dir: &Path) -> Box<dyn Workload> {
    match args.workload.as_str() {
        "campaign_dense" => Box::new(campaign::dense(args.seed, dir)),
        "campaign_sparse" => Box::new(campaign::sparse(args.seed, dir)),
        "diagnosis" => Box::new(diagnosis::setup(args.seed, dir)),
        "service" => Box::new(service::setup(args.seed, dir)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The checkout's revision, read from `.git` when there is one.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The workload's share of the end-to-end metrics.
fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let ms: Vec<f64> = phase.ops.iter().map(|o| o.secs * 1e3).collect();
    let rate = |name: &str, unit: &'static str, ops: &[Op], work: fn(&Op) -> f64| {
        let work: Vec<f64> = ops.iter().map(work).collect();
        if phase.concurrent {
            Metric::value(name, unit, work.iter().sum::<f64>() / phase.wall, ops.len())
        } else {
            let secs: Vec<f64> = ops.iter().map(|o| o.secs).collect();
            Metric::rate(name, unit, &work, &secs)
        }
    };
    vec![
        rate("faults_per_s", "faults/s", &phase.faulted, |o| o.work),
        Metric::quantile("op_ms_p50", "ms", &ms, 0.5),
        Metric::quantile("op_ms_p90", "ms", &ms, 0.9),
        rate("ops_per_s", "1/s", &phase.ops, |_| 1.0),
    ]
}

fn object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics.iter().map(Metric::json).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(SCRATCH);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"header\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_revision\": \"{}\"}}}}",
        args.workload,
        args.seed,
        num(args.seconds),
        args.trace,
        git_revision()
    );

    let mut setup_secs: Vec<f64> = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut teardown_failed = 0;
    while setup_secs.len() < SETUPS || setup_secs.iter().sum::<f64>() < SETUP_SPAN_S {
        let t0 = Instant::now();
        let next = setup(&args, &dir);
        setup_secs.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = workload.replace(next) {
            teardown_failed += previous.finish();
        }
    }
    let mut workload = workload.expect("at least one set-up ran");

    // A traced run splits its time between an untraced and a traced
    // phase, so it takes as long as an untraced one.
    let phase_secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = workload.measure(phase_secs, None);
    let untraced_e2e = end_to_end(&untraced);
    let mut e2e = vec![Metric::quantile("setup_s", "s", &setup_secs, 0.5)];
    e2e.extend(untraced_e2e.iter().cloned());
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed + teardown_failed;
    // Reported but not gated: on `service` the peak moves by about a
    // fifth from run to run with the allocator arenas the per-connection
    // threads happen to touch.
    let mut report = vec![Metric::value("peak_rss_mb", "MiB", peak_rss_mib(), 1)];
    report.extend(untraced.report.iter().cloned());

    let mut layers = Vec::new();
    if args.trace {
        let tracer = Tracer::new();
        let traced = workload.measure(phase_secs, Some(&tracer));
        attempted += traced.attempted;
        failed += traced.failed;
        layers = trace::layer_metrics(&tracer);
        // Tracing cost in throughput, or in latency where clients overlap.
        let traced_e2e = end_to_end(&traced);
        let (u, t) = if untraced.concurrent {
            (traced_e2e[1].value, untraced_e2e[1].value)
        } else {
            (untraced_e2e[0].value, traced_e2e[0].value)
        };
        let overhead = u / t - 1.0;
        layers.push(Metric::value("trace.overhead_frac", "ratio", overhead, 2));
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    failed += workload.finish();

    let failed_frac = failed as f64 / attempted.max(1) as f64;
    report.push(Metric::value("failed_frac", "ratio", failed_frac, attempted as usize));
    report.extend(e2e.iter().cloned());
    report.extend(layers.iter().cloned());
    println!("{{\"report\": {}}}", object(&report));

    let metrics: Vec<Metric> = if args.trace { layers } else { e2e };
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        values.join(", ")
    );
    ExitCode::SUCCESS
}
