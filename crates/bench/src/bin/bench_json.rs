//! Machine-readable throughput: one JSON row per campaign, diagnosis,
//! service and micro-benchmark measurement, so the perf trajectory is
//! tracked as data instead of scraped from plain-text bench output.
//!
//! Run: `cargo run --release -p prt-bench --bin bench_json [out.json]`
//!
//! Writes `BENCH_campaign.json` (or the given path) in the
//! **`campaign-v5` schema**: the header records the measurement budget,
//! the detected CPU core count, the default lane-chunk width and the git
//! revision (so perf trajectories stay comparable across runners), then
//! one row per (group, n, variant) with faults/second — including the
//! `batch_*` variants of the lane-sliced engine at 64 (`batch_sequential`,
//! the baseline), 256 (`batch256`) and 512 (`batch512`) lanes per pass,
//! the `sliced_*` variants of the activity-driven program slicer against
//! those full-pass rows, and a `campaign_threads_sweep` group scheduling
//! whole lane chunks across 1/2/4/8 workers — plus the diagnosis
//! subsystem rows (dictionary build and adaptive localization
//! throughput), the micro-benchmark groups (`pi_iteration`,
//! `complete_tests`, `gf`, `lfsr`, `mult_synth`; `n` is the memory size,
//! 0 where no memory is involved) and a `service` group measuring the
//! campaign server's localhost latency (submit→first-delta and
//! submit→done, `median_ns` is the latency).
//!
//! Every row is [`SAMPLES`] timed samples of `iters` calls each; it
//! reports the median time per call (`median_ns`, which `throughput` is
//! taken from) and the fastest and slowest sample (`min_ns`, `max_ns`).
//! Tuning: `BENCH_JSON_MS` sets the per-row measurement budget, split
//! evenly across the samples (default 200 ms — CI smoke runs use a lower
//! value; trend numbers come from the default).

use std::hint::black_box;
use std::time::Instant;

use prt_core::{PiTest, PrtScheme};
use prt_diag::{FaultDictionary, Localizer};
use prt_gf::{mult_synth, Field, Poly2, SynthesisStrategy};
use prt_lfsr::WordLfsr;
use prt_march::{coverage, library, Executor};
use prt_ram::{FaultUniverse, Geometry, Ram, Scrambler, Topology, UniverseSpec};
use prt_sim::{Campaign, LaneWidth, Parallelism};

/// Timed samples per row; the row reports their median.
const SAMPLES: usize = 5;

/// One row's timing: calls per sample and the median, fastest and
/// slowest sample's time per call.
struct Timing {
    iters: u64,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

struct Row {
    group: &'static str,
    n: usize,
    variant: &'static str,
    unit: &'static str,
    elements: usize,
    timing: Timing,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.elements as f64 / (self.timing.median_ns * 1e-9)
    }

    fn json(&self) -> String {
        let t = &self.timing;
        format!(
            r#"    {{"group": "{}", "n": {}, "variant": "{}", "unit": "{}", "throughput": {:.1}, "elements": {}, "iters": {}, "median_ns": {:.0}, "min_ns": {:.0}, "max_ns": {:.0}}}"#,
            self.group,
            self.n,
            self.variant,
            self.unit,
            self.throughput(),
            self.elements,
            t.iters,
            t.median_ns,
            t.min_ns,
            t.max_ns
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
/// The `compiled_sequential` row pins the scalar engine the `batch_*`
/// rows are compared against; `batch_sequential` stays pinned to 64 lanes
/// as the cross-revision baseline, `batch256`/`batch512` measure the wide
/// chunks against it, and `batch_parallel` runs the default width across
/// all cores. The `batch_*` rows pin `with_slicing(false)` — the
/// full-pass engine — so the `sliced_*` rows isolate the activity-slicing
/// win at matching width/parallelism (64-lane sequential, 512-lane
/// sequential, 512-lane all-cores).
const PROGRAM_VARIANTS: [(&str, bool, Parallelism, LaneWidth, bool); 8] = [
    ("compiled_sequential", false, Parallelism::Sequential, LaneWidth::X64, false),
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

/// Calibrated timing loop: one warm-up call sizes the samples so the
/// [`SAMPLES`] of them spend the measurement budget; `f`'s result goes
/// through [`black_box`] so the optimiser cannot drop the work.
fn measure<O, F: FnMut() -> O>(budget_ms: u64, mut f: F) -> Timing {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (budget_ms * 1_000_000 / SAMPLES as u64 / once).clamp(1, 1_000_000);
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    Timing { iters, median_ns: ns[SAMPLES / 2], min_ns: ns[0], max_ns: ns[SAMPLES - 1] }
}

/// The rows measured so far, all timed with one per-row budget.
struct Bench {
    budget_ms: u64,
    rows: Vec<Row>,
}

impl Bench {
    /// Times `f`, one call of which processes `elements` units, and
    /// records it as row `group`/`variant` at memory size `n`.
    fn row<O>(
        &mut self,
        group: &'static str,
        n: usize,
        variant: &'static str,
        elements: usize,
        f: impl FnMut() -> O,
    ) {
        let unit = match (group, variant) {
            (_, "localize") => "diagnoses_per_sec",
            ("service", _) => "jobs_per_sec",
            ("pi_iteration" | "complete_tests", _) => "cells_per_sec",
            ("gf" | "lfsr" | "mult_synth", _) => "calls_per_sec",
            _ => "faults_per_sec",
        };
        let row = Row { group, n, variant, unit, elements, timing: measure(self.budget_ms, f) };
        eprintln!(
            "{group}/{variant} n={n}: {:.0} {unit} ({SAMPLES}x{} iters)",
            row.throughput(),
            row.timing.iters
        );
        self.rows.push(row);
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_campaign.json".to_string());
    let budget_ms: u64 = prt_bench::env_or("BENCH_JSON_MS", 200);
    let mut bench = Bench { budget_ms, rows: Vec::new() };

    // March C- on the BOM paper-claim universe.
    let test = library::march_c_minus();
    let ex = Executor::new().stop_at_first_mismatch();
    for n in [16usize, 32] {
        let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
        let len = u.len();
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            bench.row("campaign_march_c_minus", n, variant, len, || {
                let program = ex.compile(&test, u.geometry());
                let _ = Campaign::new(&u, &program)
                    .with_lane_batching(batching)
                    .with_lane_width(width)
                    .with_slicing(slicing)
                    .with_parallelism(par)
                    .detections();
            });
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
            bench.row("campaign_threads_sweep", n, variant, len, || {
                // Pinned to the full pass: these rows are cross-revision
                // scheduling baselines, not slicing measurements.
                let _ = Campaign::new(&u, &program)
                    .with_slicing(false)
                    .with_parallelism(Parallelism::Threads(threads))
                    .detections();
            });
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
            bench.row("campaign_march_large", n, variant, len, || {
                let _ = Campaign::new(&u, &program)
                    .with_lane_width(width)
                    .with_slicing(slicing)
                    .with_parallelism(par)
                    .detections();
            });
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
            bench.row("campaign_march_large", n, variant, len, || {
                let _ = Campaign::new(&su, &program)
                    .with_lane_width(width)
                    .with_slicing(slicing)
                    .with_parallelism(par)
                    .detections();
            });
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
            bench.row(group, n, variant, len, || {
                let program = ex.compile(&test, u.geometry());
                let _ = Campaign::new(&u, &program)
                    .with_lane_batching(batching)
                    .with_lane_width(width)
                    .with_slicing(slicing)
                    .with_parallelism(par)
                    .detections();
            });
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
            bench.row("campaign_march_rwlogic_sof_af", n, variant, len, || {
                let program = ex.compile(&test, u.geometry());
                let _ = Campaign::new(&u, &program)
                    .with_lane_batching(batching)
                    .with_lane_width(width)
                    .with_slicing(slicing)
                    .with_parallelism(par)
                    .detections();
            });
        }
    }

    // PRT standard3.
    let scheme = PrtScheme::standard3(Field::new(1, 0b11).expect("GF(2)")).expect("scheme");
    {
        let n = 24usize;
        let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
        let len = u.len();
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            bench.row("campaign_prt_standard3", n, variant, len, || {
                let program = scheme.compile(u.geometry()).expect("compile");
                let _ = Campaign::new(&u, &program)
                    .with_lane_batching(batching)
                    .with_lane_width(width)
                    .with_slicing(slicing)
                    .with_parallelism(par)
                    .detections();
            });
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
        for (variant, batching, par, width, slicing) in PROGRAM_VARIANTS {
            bench.row("campaign_march_multibg_wom", n, variant, len, || {
                let bank = coverage::compile_bank(&test, u.geometry(), &ex, &bgs);
                let _ = Campaign::new(&u, &bank)
                    .with_backgrounds(&bgs)
                    .with_lane_batching(batching)
                    .with_lane_width(width)
                    .with_slicing(slicing)
                    .with_parallelism(par)
                    .detections();
            });
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
        bench.row("campaign_diagnosis", n, "dictionary_build_scalar", len, || {
            let _ =
                FaultDictionary::build_with_batching(&u, &program, poly, Parallelism::Auto, false)
                    .expect("build");
        });
        bench.row("campaign_diagnosis", n, "dictionary_build_batched", len, || {
            let _ = FaultDictionary::build(&u, &program, poly, Parallelism::Auto).expect("build");
        });
        let dict = FaultDictionary::build(&u, &program, poly, Parallelism::Auto).expect("build");
        let localizer = Localizer::new(library::march_diag(), geom).with_dictionary(&dict);
        // Localization throughput over a fixed fault sample (one diagnosis
        // per universe stride), reported as diagnoses/second.
        let sample: Vec<usize> = (0..len).step_by(len.div_ceil(32).max(1)).collect();
        let samples = sample.len();
        bench.row("campaign_diagnosis", n, "localize", samples, || {
            for &i in &sample {
                let mut ram = Ram::new(geom);
                ram.inject(u.faults()[i].clone()).expect("valid");
                let _ = localizer.diagnose(&mut ram).expect("diagnose");
            }
        });
    }

    // Micro-benchmarks of the simulator and the algorithms behind it:
    // π iterations and complete tests on a fresh n-cell memory per call
    // (cells/second), then single field, LFSR and multiplier-synthesis
    // calls on no memory (`n` = 0).
    let bom_pi = PiTest::figure_1a().expect("automaton");
    let wom_pi = PiTest::figure_1b().expect("automaton");
    for n in [1024usize, 16384] {
        bench.row("pi_iteration", n, "bom_single_port", n, || {
            bom_pi.run(&mut Ram::new(Geometry::bom(n))).expect("run").detected()
        });
        bench.row("pi_iteration", n, "wom_single_port", n, || {
            let mut ram = Ram::new(Geometry::wom(n, 4).expect("geometry"));
            wom_pi.run(&mut ram).expect("run").detected()
        });
        bench.row("pi_iteration", n, "bom_dual_port", n, || {
            let mut ram = Ram::with_ports(Geometry::bom(n), 2).expect("ports");
            bom_pi.run_dual_port(&mut ram).expect("run").detected()
        });
    }
    {
        let n = 4096usize;
        let geom = Geometry::bom(n);
        // Every element runs: no early stop at the first mismatch.
        let ex = Executor::new();
        let march_c_minus = library::march_c_minus();
        let march_ss = library::march_ss();
        bench.row("complete_tests", n, "prt_standard3", n, || {
            scheme.run(&mut Ram::new(geom)).expect("run").detected()
        });
        bench.row("complete_tests", n, "march_c_minus", n, || {
            ex.run(&march_c_minus, &mut Ram::new(geom)).detected()
        });
        bench.row("complete_tests", n, "march_ss", n, || {
            ex.run(&march_ss, &mut Ram::new(geom)).detected()
        });
    }
    {
        let f16 = Field::new(4, 0b1_0011).expect("GF(16)");
        let f24 = Field::gf(24).expect("GF(2^24)");
        let mut x = 1u64;
        bench.row("gf", 0, "mul_gf16_table", 1, || {
            x = f16.mul(x, 7) | 1;
            x
        });
        let mut x = 1u64;
        bench.row("gf", 0, "mul_gf2_24_clmul", 1, || {
            x = f24.mul(x, 0xABCDE) | 1;
            x
        });
        let mut x = 1u64;
        bench.row("gf", 0, "inv_gf16", 1, || {
            x = f16.inv(x).expect("non-zero") | 1;
            x
        });
        let mut lfsr = WordLfsr::from_feedback(f16.clone(), &[1, 2, 2], &[0, 1]).expect("lfsr");
        bench.row("lfsr", 0, "word_lfsr_step", 1, || lfsr.step());
        let lfsr = WordLfsr::from_feedback(f16, &[1, 2, 2], &[0, 1]).expect("lfsr");
        bench.row("lfsr", 0, "word_lfsr_state_after_1e9", 1, || lfsr.state_after(1_000_000_000));
        let f256 = Field::gf(8).expect("GF(256)");
        for (variant, strategy) in [
            ("paar_gf256_constant", SynthesisStrategy::Paar),
            ("naive_gf256_constant", SynthesisStrategy::Naive),
        ] {
            bench.row("mult_synth", 0, variant, 1, || {
                mult_synth::for_constant(&f256, 0xB5, strategy).gate_count()
            });
        }
    }

    // Campaign service latency over localhost: an in-process server on a
    // loopback socket, one row per client-observed milestone — submit →
    // first streamed coverage delta, and submit → done (the whole-job
    // round trip including connect, frame encode/decode and the sharded
    // sweep). `elements` is 1, so `median_ns` IS the latency and the
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
        bench.row("service", 16, "submit_first_delta", 1, || {
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
        });
        bench.row("service", 16, "submit_done", 1, || {
            let client = prt_svc::Client::connect(addr).expect("connect");
            let stream = client.submit(&job).expect("submit");
            let (_deltas, done) = stream.drain().expect("drain");
            assert_eq!(done.evaluated, done.total, "service job must complete");
        });
        server.shutdown();
    }

    let cpu_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"prt-bench/campaign-v5\",\n");
    json.push_str(&format!("  \"measure_ms\": {budget_ms},\n"));
    json.push_str(&format!("  \"cpu_cores\": {cpu_cores},\n"));
    json.push_str(&format!("  \"lane_width\": {},\n", LaneWidth::default().lanes()));
    json.push_str(&format!("  \"git_revision\": \"{}\",\n", json_escape(&git_revision())));
    json.push_str("  \"rows\": [\n");
    let body: Vec<String> = bench.rows.iter().map(Row::json).collect();
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
