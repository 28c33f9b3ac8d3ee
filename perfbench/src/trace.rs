//! Metrics, sample statistics and the in-memory span recorder.
//!
//! Spans are recorded only around calls this benchmark makes into the
//! workspace crates. A span either brackets one call (`calls == 1`) or
//! aggregates the repeated calls of one replay stage, in which case
//! `busy_ns` is the summed duration of the calls alone and `start..end`
//! the interval they were made in. Spans stay in memory and are written
//! as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One reported metric with its sample count and quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A single measured value (its quartiles are the value itself).
    pub fn value(name: &str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric { name: name.to_string(), unit, value, n, q1: value, q3: value }
    }

    /// The `q` quantile of `samples`, reported with their quartiles.
    pub fn quantile(name: &str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        let s = sorted(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: quantile(&s, q),
            n: s.len(),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
        }
    }

    /// A rate `work / busy seconds`; the quartiles are those of the
    /// per-operation rates.
    pub fn rate(name: &str, unit: &'static str, work: &[f64], secs: &[f64]) -> Metric {
        let total_work: f64 = work.iter().sum();
        let total_secs: f64 = secs.iter().sum();
        let per_op: Vec<f64> =
            work.iter().zip(secs).filter(|(_, &s)| s > 0.0).map(|(w, s)| w / s).collect();
        let s = sorted(&per_op);
        Metric {
            name: name.to_string(),
            unit,
            value: if total_secs > 0.0 { total_work / total_secs } else { 0.0 },
            n: work.len(),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"q1\": {}, \"q3\": {}}}",
            self.name,
            num(self.value),
            self.unit,
            self.n,
            num(self.q1),
            num(self.q3)
        )
    }
}

/// A JSON number (non-finite values have no JSON form and read as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The campaign, dictionary build or service job the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// The traced run's span and counter store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()), counters: Mutex::default() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id for children to name as
    /// their parent.
    pub fn add(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        calls: u64,
        busy: Duration,
    ) -> usize {
        let end_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns,
            calls,
            busy_ns: busy.as_nanos() as u64,
        });
        spans.len() - 1
    }

    /// Opens a span whose children are recorded before it closes.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        let mut spans = self.spans.lock().expect("span store lock");
        let start_ns = self.ns(now);
        spans.push(Span { name, op, parent, start_ns, end_ns: start_ns, calls: 1, busy_ns: 0 });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span store lock");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Runs `f` inside a one-call span.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, op, parent, start, 1, start.elapsed());
        out
    }

    /// Records one observation of a counter.
    pub fn count(&self, name: &'static str, value: f64) {
        self.counters.lock().expect("counter lock").entry(name).or_default().push(value);
    }

    /// Per-call durations (ns) of every span named `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store lock");
        spans
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| s.busy_ns as f64 / s.calls as f64)
            .collect()
    }

    pub fn counter(&self, name: &str) -> Vec<f64> {
        self.counters.lock().expect("counter lock").get(name).cloned().unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store lock");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The per-layer metrics every traced run reports, derived from the
/// spans and counters by name. A layer the workload never enters has no
/// spans and reads 0.
pub fn layer_metrics(t: &Tracer) -> Vec<Metric> {
    let per_call = |metric: &str, span: &str, unit: &'static str, scale: f64| {
        let samples: Vec<f64> = t.per_call_ns(span).iter().map(|ns| ns / scale).collect();
        Metric::quantile(metric, unit, &samples, 0.5)
    };
    let counter = |metric: &str, name: &str, unit: &'static str| {
        Metric::quantile(metric, unit, &t.counter(name), 0.5)
    };
    let counter_max = |metric: &str, name: &str| {
        let c = t.counter(name);
        Metric::value(metric, "count", c.iter().copied().fold(0.0, f64::max), c.len())
    };
    let svc_latency = |metric: &str, span: &str, q: f64| {
        let samples: Vec<f64> = t.per_call_ns(span).iter().map(|ns| ns / 1e6).collect();
        Metric::quantile(metric, "ms", &samples, q)
    };
    vec![
        per_call("march.compile_ms", "march.compile", "ms", 1e6),
        per_call("core.compile_ms", "core.compile", "ms", 1e6),
        per_call("ram.enumerate_ms", "ram.enumerate", "ms", 1e6),
        per_call("ram.lazy_slice_ns_per_fault", "ram.lazy_slice", "ns", 1.0),
        per_call("ram.activity_index_ms", "ram.activity_index", "ms", 1e6),
        counter("ram.active_op_frac", "ram.active_op_frac", "ratio"),
        per_call("ram.detect_full_us_per_chunk", "ram.detect_full", "us", 1e3),
        per_call("ram.detect_sliced_us_per_chunk", "ram.detect_sliced", "us", 1e3),
        per_call("ram.observe_us_per_chunk", "ram.observe", "us", 1e3),
        per_call("diag.collect_batch_us_per_chunk", "diag.collect_batch", "us", 1e3),
        per_call("sim.fingerprint_ms", "sim.fingerprint", "ms", 1e6),
        counter("sim.checkpoint_saves", "sim.checkpoint_saves", "count"),
        counter("sim.checkpoint_bytes", "sim.checkpoint_bytes", "bytes"),
        per_call("sim.checkpoint_save_ms", "sim.checkpoint_save", "ms", 1e6),
        per_call("sim.checkpointed_campaign_ms", "sim.checkpointed_campaign", "ms", 1e6),
        counter("sim.unattributed_frac", "sim.unattributed_frac", "ratio"),
        per_call("diag.dictionary_build_ms", "diag.dictionary_build", "ms", 1e6),
        per_call("diag.diagnose_ms_p50", "diag.diagnose", "ms", 1e6),
        counter("diag.probes_per_diagnosis", "diag.probes", "count"),
        per_call("lfsr.misr_compact_ns_per_word", "lfsr.misr_compact", "ns", 1.0),
        svc_latency("svc.connect_to_accepted_ms_p50", "svc.connect_to_accepted", 0.5),
        svc_latency("svc.connect_to_accepted_ms_p90", "svc.connect_to_accepted", 0.9),
        svc_latency("svc.accepted_to_first_delta_ms_p50", "svc.accepted_to_first_delta", 0.5),
        per_call("svc.encode_ns", "svc.encode", "ns", 1.0),
        per_call("svc.decode_ns", "svc.decode", "ns", 1.0),
        counter("svc.frame_bytes_per_job", "svc.frame_bytes", "bytes"),
        counter_max("svc.program_compiles", "svc.program_compiles"),
        counter_max("svc.dictionary_builds", "svc.dictionary_builds"),
        counter_max("svc.active_jobs_max", "svc.active_jobs"),
    ]
}
