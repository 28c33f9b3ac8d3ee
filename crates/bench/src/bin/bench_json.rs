//! Machine-readable campaign throughput: one JSON row per campaign,
//! diagnosis and service measurement, so the perf trajectory is tracked
//! as data instead of scraped from plain-text bench output.
//!
//! Run: `cargo run --release -p prt-bench --bin bench_json [out.json]`
//!
//! Writes `BENCH_campaign.json` (or the given path) in the
//! **`campaign-v4` schema**: the header records the measurement budget,
//! the runner's thread count, the detected CPU core count, the default
//! lane-chunk width and the git revision (so perf trajectories stay
//! comparable across runners), then one row per (group, n, variant) with
//! faults/second — including the `batch_*` variants of the lane-sliced
//! engine at 64 (`batch_sequential`, the baseline), 256 (`batch256`) and
//! 512 (`batch512`) lanes per pass, the `sliced_*` variants of the
//! activity-driven program slicer against those full-pass rows, and a
//! `campaign_threads_sweep` group scheduling whole lane chunks across
//! 1/2/4/8 workers — plus the diagnosis subsystem rows (dictionary build
//! and adaptive localization throughput) and a `service` group measuring
//! the campaign server's localhost latency (submit→first-delta and
//! submit→done, `mean_ns` is the latency). Tuning: `BENCH_JSON_MS` sets
//! the per-row measurement budget (default 200 ms — CI smoke runs use a
//! lower value; trend numbers come from the default).

use std::time::Instant;

use prt_core::PrtScheme;
use prt_diag::{FaultDictionary, Localizer};
use prt_gf::{Field, Poly2};
use prt_march::{coverage, coverage::MarchRunner, library, Executor};
use prt_ram::{FaultUniverse, Geometry, Ram, Scrambler, Topology, UniverseSpec};
use prt_sim::{Campaign, LaneWidth, Parallelism};

struct Row {
    group: &'static str,
    n: usize,
    variant: &'static str,
    unit: &'static str,
    elements: usize,
    iters: u64,
    mean_ns: f64,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.elements as f64 / (self.mean_ns * 1e-9)
    }

    fn json(&self) -> String {
        format!(
            r#"    {{"group": "{}", "n": {}, "variant": "{}", "unit": "{}", "throughput": {:.1}, "elements": {}, "iters": {}, "mean_ns": {:.0}}}"#,
            self.group,
            self.n,
            self.variant,
            self.unit,
            self.throughput(),
            self.elements,
            self.iters,
            self.mean_ns
        )
    }
}

/// Escapes a string for embedding in a JSON string literal (the revision
/// can come from the environment, so quotes/backslashes must not corrupt
/// the document).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The compiled-program campaign variants every group measures:
/// `(variant, lane batching, parallelism, lane width, activity slicing)`.
/// The `compiled_*` rows pin the scalar engine the `batch_*` rows are
/// compared against; `batch_sequential` stays pinned to 64 lanes as the
/// cross-PR baseline, `batch256`/`batch512` measure the wide chunks
/// against it, and `batch_parallel` runs the default width across all
/// cores. The `batch_*` rows pin `with_slicing(false)` — the full-pass
/// engine — so the `sliced_*` rows isolate the activity-slicing win at
/// matching width/parallelism (64-lane sequential, 512-lane sequential,
/// 512-lane all-cores).
const PROGRAM_VARIANTS: [(&str, bool, Parallelism, LaneWidth, bool); 9] = [
    ("compiled_sequential", false, Parallelism::Sequential, LaneWidth::X64, false),
    ("compiled_parallel", false, Parallelism::Auto, LaneWidth::X64, false),
    ("batch_sequential", true, Parallelism::Sequential, LaneWidth::X64, false),
    ("batch256", true, Parallelism::Sequential, LaneWidth::X256, false),
    ("batch512", true, Parallelism::Sequential, LaneWidth::X512, false),
    ("batch_parallel", true, Parallelism::Auto, LaneWidth::X512, false),
    ("sliced_sequential", true, Parallelism::Sequential, LaneWidth::X64, true),
    ("sliced512", true, Parallelism::Sequential, LaneWidth::X512, true),
    ("sliced_parallel", true, Parallelism::Auto, LaneWidth::X512, true),
];

/// The git revision of the working tree, for cross-runner trajectory
/// comparisons (`GIT_REVISION` overrides; "unknown" when git is absent).
fn git_revision() -> String {
    if let Ok(rev) = std::env::var("GIT_REVISION") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Calibrated timing loop: run `f` until the measurement budget is spent,
/// report the mean time per call.
fn measure<F: FnMut()>(budget_ms: u64, mut f: F) -> (u64, f64) {
    // Warm-up + calibration pass.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let budget = budget_ms * 1_000_000;
    let iters = (budget / once).clamp(1, 1_000_000);
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    (iters, t1.elapsed().as_nanos() as f64 / iters as f64)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_campaign.json".to_string());
    let budget_ms: u64 = prt_bench::env_or("BENCH_JSON_MS", 200);
    let mut rows: Vec<Row> = Vec::new();
    let mut push = |group: &'static str,
                    n: usize,
                    variant: &'static str,
                    elements: usize,
                    m: (u64, f64)| {
        let unit = match (group, variant) {
            (_, "localize") => "diagnoses_per_sec",
            ("service", _) => "jobs_per_sec",
            _ => "faults_per_sec",
        };
        let row = Row { group, n, variant, unit, elements, iters: m.0, mean_ns: m.1 };
        eprintln!("{group}/{variant} n={n}: {:.0} {unit} ({} iters)", row.throughput(), row.iters);
        rows.push(row);
    };

    // March C- on the BOM paper-claim universe.
    let test = library::march_c_minus();
    let ex = Executor::new().stop_at_first_mismatch();
    for n in [16usize, 32] {
        let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
        let len = u.len();
        push(
            "campaign_march_c_minus",
            n,
            "seed_alloc_per_fault",
            len,
            measure(budget_ms, || {
                let _ = Campaign::new(&u, MarchRunner::new(&test, &ex)).detections_reference();
            }),
        );
        push(
            "campaign_march_c_minus",
            n,
            "pooled_sequential",
            len,
            measure(budget_ms, || {
                let _ = Campaign::new(&u, MarchRunner::new(&test, &ex))
                    .with_parallelism(Parallelism::Sequential)
                    .detections();
            }),
        );
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            push(
                "campaign_march_c_minus",
                n,
                variant,
                len,
                measure(budget_ms, || {
                    let program = ex.compile(&test, u.geometry());
                    let _ = Campaign::new(&u, &program)
                        .with_lane_batching(batching)
                        .with_lane_width(width)
                        .with_slicing(slicing)
                        .with_parallelism(par)
                        .detections();
                }),
            );
        }
    }

    // Threads × lane-chunk scheduling sweep: March C- at n = 32, default
    // lane width, whole chunks fanned out across an explicit worker
    // count. On a single-core runner the rows flatline — the group is
    // still emitted so multi-core runners chart the scaling curve.
    {
        let n = 32usize;
        let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
        let len = u.len();
        let program = ex.compile(&test, u.geometry());
        for (variant, threads) in [
            ("batch_threads_1", 1usize),
            ("batch_threads_2", 2),
            ("batch_threads_4", 4),
            ("batch_threads_8", 8),
        ] {
            push(
                "campaign_threads_sweep",
                n,
                variant,
                len,
                measure(budget_ms, || {
                    // Pinned to the full pass: these rows are cross-PR
                    // scheduling baselines, not slicing measurements.
                    let _ = Campaign::new(&u, &program)
                        .with_slicing(false)
                        .with_parallelism(Parallelism::Threads(threads))
                        .detections();
                }),
            );
        }
    }

    // Wide-chunk scaling at large n: the single-cell universe on a 1 Kib
    // BOM array spreads the faults thin (4 per cell), so per-pass
    // dispatch — not fault enforcement — dominates and the wider chunks
    // amortize it across more lanes. This is the group where the
    // 256/512-lane widths separate from the legacy 64-lane baseline
    // (batch-only: the scalar interpreter needs seconds per pass here).
    {
        let n = 1024usize;
        let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::single_cell());
        let len = u.len();
        let program = ex.compile(&test, u.geometry());
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            if !batching {
                continue;
            }
            push(
                "campaign_march_large",
                n,
                variant,
                len,
                measure(budget_ms, || {
                    let _ = Campaign::new(&u, &program)
                        .with_lane_width(width)
                        .with_slicing(slicing)
                        .with_parallelism(par)
                        .detections();
                }),
            );
        }
        // The same sweep under a bit-reversal scramble: the universe is
        // enumerated over physical coordinates and mapped back to
        // logical addresses, so the fault list arrives scattered and the
        // slicer's locality re-grouping is what keeps `scrambled_sliced_*`
        // near the identity rows (gated in CI at 1.3×).
        let topology = Topology::identity(n)
            .then_swizzle(Scrambler::reversed(n.trailing_zeros()))
            .expect("1 Kib bit-reversal");
        let su =
            FaultUniverse::enumerate_with(Geometry::bom(n), &UniverseSpec::single_cell(), topology);
        assert_eq!(su.len(), len, "a bijection cannot change the universe size");
        for (variant, par, width, slicing) in [
            ("scrambled_batch_sequential", Parallelism::Sequential, LaneWidth::X64, false),
            ("scrambled_sliced_sequential", Parallelism::Sequential, LaneWidth::X64, true),
            ("scrambled_sliced_parallel", Parallelism::Auto, LaneWidth::X512, true),
        ] {
            push(
                "campaign_march_large",
                n,
                variant,
                len,
                measure(budget_ms, || {
                    let _ = Campaign::new(&su, &program)
                        .with_lane_width(width)
                        .with_slicing(slicing)
                        .with_parallelism(par)
                        .detections();
                }),
            );
        }
    }

    // The two newest library algorithms, wired into the batch campaigns
    // (sequential variants only — enough for the batch-vs-compiled trend).
    for (group, test) in
        [("campaign_march_u", library::march_u()), ("campaign_march_raw", library::march_raw())]
    {
        let n = 16usize;
        let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
        let len = u.len();
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            if par != Parallelism::Sequential {
                continue;
            }
            push(
                group,
                n,
                variant,
                len,
                measure(budget_ms, || {
                    let program = ex.compile(&test, u.geometry());
                    let _ = Campaign::new(&u, &program)
                        .with_lane_batching(batching)
                        .with_lane_width(width)
                        .with_slicing(slicing)
                        .with_parallelism(par)
                        .detections();
                }),
            );
        }
    }

    // The newly lane-batched families: a universe of exactly the
    // read/write-logic (RDF/DRDF/IRF/WDF), stuck-open and address-decoder
    // instances that ran scalar before the LaneRam decoder/sense/flip
    // models landed — the batch_vs_compiled margin here is pure PR gain.
    {
        let n = 16usize;
        let spec = UniverseSpec {
            af: true,
            sof: true,
            rdf: true,
            drdf: true,
            irf: true,
            wdf: true,
            ..UniverseSpec::default()
        };
        let u = FaultUniverse::enumerate(Geometry::bom(n), &spec);
        let len = u.len();
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            if par != Parallelism::Sequential {
                continue;
            }
            push(
                "campaign_march_rwlogic_sof_af",
                n,
                variant,
                len,
                measure(budget_ms, || {
                    let program = ex.compile(&test, u.geometry());
                    let _ = Campaign::new(&u, &program)
                        .with_lane_batching(batching)
                        .with_lane_width(width)
                        .with_slicing(slicing)
                        .with_parallelism(par)
                        .detections();
                }),
            );
        }
    }

    // PRT standard3.
    let scheme = PrtScheme::standard3(Field::new(1, 0b11).expect("GF(2)")).expect("scheme");
    {
        let n = 24usize;
        let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
        let len = u.len();
        push(
            "campaign_prt_standard3",
            n,
            "seed_alloc_per_fault",
            len,
            measure(budget_ms, || {
                let _ = Campaign::new(&u, &scheme).detections_reference();
            }),
        );
        push(
            "campaign_prt_standard3",
            n,
            "pooled_sequential",
            len,
            measure(budget_ms, || {
                let _ = Campaign::new(&u, &scheme)
                    .with_parallelism(Parallelism::Sequential)
                    .detections();
            }),
        );
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            push(
                "campaign_prt_standard3",
                n,
                variant,
                len,
                measure(budget_ms, || {
                    let program = scheme.compile(u.geometry()).expect("compile");
                    let _ = Campaign::new(&u, &program)
                        .with_lane_batching(batching)
                        .with_lane_width(width)
                        .with_slicing(slicing)
                        .with_parallelism(par)
                        .detections();
                }),
            );
        }
    }

    // Multi-background WOM sweep.
    {
        let n = 12usize;
        let bgs = coverage::standard_backgrounds(4);
        let spec = UniverseSpec {
            coupling_radius: Some(3),
            intra_word: true,
            ..UniverseSpec::paper_claim()
        };
        let u = FaultUniverse::enumerate(Geometry::wom(n, 4).expect("geometry"), &spec);
        let len = u.len();
        push(
            "campaign_march_multibg_wom",
            n,
            "pooled_sequential",
            len,
            measure(budget_ms, || {
                let _ = Campaign::new(&u, MarchRunner::new(&test, &ex))
                    .with_backgrounds(&bgs)
                    .with_parallelism(Parallelism::Sequential)
                    .detections();
            }),
        );
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            push(
                "campaign_march_multibg_wom",
                n,
                variant,
                len,
                measure(budget_ms, || {
                    let bank = coverage::compile_bank(&test, u.geometry(), &ex, &bgs);
                    let _ = Campaign::new(&u, &bank)
                        .with_backgrounds(&bgs)
                        .with_lane_batching(batching)
                        .with_lane_width(width)
                        .with_slicing(slicing)
                        .with_parallelism(par)
                        .detections();
                }),
            );
        }
    }

    // Diagnosis subsystem: dictionary build and adaptive localization.
    {
        let n = 16usize;
        let geom = Geometry::bom(n);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let len = u.len();
        let program = Executor::new().compile(&library::march_diag(), geom);
        let poly = Poly2::from_bits(0b1_0001_1011);
        // Dictionary builds run the batched map_trials mode by default;
        // the scalar row pins the engine they are measured against.
        push(
            "campaign_diagnosis",
            n,
            "dictionary_build_scalar",
            len,
            measure(budget_ms, || {
                let _ = FaultDictionary::build_with_batching(
                    &u,
                    &program,
                    poly,
                    Parallelism::Auto,
                    false,
                )
                .expect("build");
            }),
        );
        push(
            "campaign_diagnosis",
            n,
            "dictionary_build_batched",
            len,
            measure(budget_ms, || {
                let _ =
                    FaultDictionary::build(&u, &program, poly, Parallelism::Auto).expect("build");
            }),
        );
        let dict = FaultDictionary::build(&u, &program, poly, Parallelism::Auto).expect("build");
        let localizer = Localizer::new(library::march_diag(), geom).with_dictionary(&dict);
        // Localization throughput over a fixed fault sample (one diagnosis
        // per universe stride), reported as diagnoses/second.
        let sample: Vec<usize> = (0..len).step_by(len.div_ceil(32).max(1)).collect();
        let samples = sample.len();
        push(
            "campaign_diagnosis",
            n,
            "localize",
            samples,
            measure(budget_ms, || {
                for &i in &sample {
                    let mut ram = Ram::new(geom);
                    ram.inject(u.faults()[i].clone()).expect("valid");
                    let _ = localizer.diagnose(&mut ram).expect("diagnose");
                }
            }),
        );
    }

    // Campaign service latency over localhost: an in-process server on a
    // loopback socket, one row per client-observed milestone — submit →
    // first streamed coverage delta, and submit → done (the whole-job
    // round trip including connect, frame encode/decode and the sharded
    // sweep). `elements` is 1, so `mean_ns` IS the latency and the
    // throughput field reads as jobs per second.
    {
        let server =
            prt_svc::Server::spawn(prt_svc::ServerConfig::default()).expect("bind loopback");
        let addr = server.addr();
        let job = prt_svc::JobSpec {
            family: "March C-".to_string(),
            cells: 16,
            width: 1,
            spec: UniverseSpec::paper_claim(),
            backgrounds: vec![0],
            lane_width: 0,
            deadline_ms: 0,
            segment: 64,
            topology: None,
        };
        push(
            "service",
            16,
            "submit_first_delta",
            1,
            measure(budget_ms, || {
                let client = prt_svc::Client::connect(addr).expect("connect");
                let mut stream = client.submit(&job).expect("submit");
                loop {
                    match stream.next_event().expect("event") {
                        Some(prt_svc::Event::Delta(_)) => break,
                        Some(_) => continue,
                        None => panic!("stream ended before the first delta"),
                    }
                }
                // Dropping the stream here closes the connection; the
                // server treats it as a cancel and reaps the job.
            }),
        );
        push(
            "service",
            16,
            "submit_done",
            1,
            measure(budget_ms, || {
                let client = prt_svc::Client::connect(addr).expect("connect");
                let stream = client.submit(&job).expect("submit");
                let (_deltas, done) = stream.drain().expect("drain");
                assert_eq!(done.evaluated, done.total, "service job must complete");
            }),
        );
        server.shutdown();
    }

    let cpu_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"prt-bench/campaign-v4\",\n");
    json.push_str(&format!("  \"measure_ms\": {budget_ms},\n"));
    json.push_str(&format!("  \"threads\": {cpu_cores},\n"));
    json.push_str(&format!("  \"cpu_cores\": {cpu_cores},\n"));
    json.push_str(&format!("  \"lane_width\": {},\n", LaneWidth::default().lanes()));
    json.push_str(&format!("  \"git_revision\": \"{}\",\n", json_escape(&git_revision())));
    json.push_str("  \"rows\": [\n");
    let body: Vec<String> = rows.iter().map(Row::json).collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");
    // Atomic publish: consumers polling the file see the old complete
    // run or the new one, never a torn half-write.
    if let Err(e) = prt_bench::write_atomic(&out_path, &json) {
        prt_bench::die(format!("cannot write {out_path}: {e}"));
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
