//! **Experiment E4 — §3 claim C1 (word-oriented) + §2 claim C6
//! (intra-word faults, parallel vs random trajectories)**.
//!
//! Part 1 measures the standard schemes on the word-oriented universe
//! (inter-cell + intra-word faults) with the paper's own generator
//! `g = 1 + 2x + 2x²` over GF(2⁴).
//!
//! Part 2 isolates the paper's §2 statement that intra-word faults need
//! either parallel or *random* bit-plane trajectories: a single π-iteration
//! with mirrored (parallel) planes vs decorrelated (random) planes on the
//! intra-word coupling universe — random wins decisively, exactly the
//! paper's point.
//!
//! Run: `cargo run --release -p prt-bench --bin table_coverage_wom [n]`

use prt_bench::{pct, Table};
use prt_core::{BitPlanePi, PlaneSeeding, PrtScheme};
use prt_gf::{Field, Poly2};
use prt_march::{coverage, library, Executor};
use prt_ram::{FaultUniverse, Geometry, Ram, UniverseSpec};
use prt_sim::Campaign;

fn main() {
    let n: usize = prt_bench::arg_or(1, 9, "array-size");
    let m = 4u32;
    let field = || Field::new(4, 0b1_0011).expect("GF(16)");
    let geom = Geometry::wom(n, m).expect("geometry");

    // Part 1: full WOM universe, standard schemes vs March baseline.
    let spec =
        UniverseSpec { coupling_radius: Some(3), intra_word: true, ..UniverseSpec::paper_claim() };
    let universe = FaultUniverse::enumerate(geom, &spec);
    println!(
        "universe: {} instances on a {n}×{m}b word-oriented memory (radius-3 couplings + intra-word)",
        universe.len()
    );
    let classes = ["SAF", "TF", "AF", "CFin", "CFid", "CFst"];
    let mut header = vec!["scheme"];
    header.extend(classes);
    header.push("overall");
    let mut t = Table::new(format!("E4a: WOM coverage, n={n}, m={m}"), &header);
    let schemes = vec![
        ("π×3 standard3", PrtScheme::standard3(field()).expect("s3")),
        ("π×4 standard4", PrtScheme::standard4(field()).expect("s4")),
        ("π×6 plain", PrtScheme::plain(field(), 6).expect("plain")),
    ];
    for (name, scheme) in schemes {
        let report = scheme.coverage(&universe).expect("GF(16) schemes compile for 4-bit words");
        let mut row = vec![name.to_string()];
        for class in classes {
            row.push(report.class(class).map_or("—".into(), |r| pct(r.percent())));
        }
        row.push(pct(report.overall_percent()));
        t.row_owned(row);
    }
    let ex = Executor::new().stop_at_first_mismatch();
    let march_report = coverage::evaluate(&library::march_c_minus(), &universe, &ex);
    let mut row = vec!["March C- (bg 0)".to_string()];
    for class in classes {
        row.push(march_report.class(class).map_or("—".into(), |r| pct(r.percent())));
    }
    row.push(pct(march_report.overall_percent()));
    t.row_owned(row);
    // The standard word-oriented remedy: one run per data background.
    let bgs = coverage::standard_backgrounds(m);
    let multi_bg =
        coverage::evaluate_multi_background(&library::march_c_minus(), &universe, &ex, &bgs);
    let mut row = vec![format!("March C- ×{} bg", bgs.len())];
    for class in classes {
        row.push(multi_bg.class(class).map_or("—".into(), |r| pct(r.percent())));
    }
    row.push(pct(multi_bg.overall_percent()));
    t.row_owned(row);
    // The PRT-side analogue: decorrelated bit-plane rounds.
    let planes = prt_core::plane::PlaneScheme::standard(Poly2::from_bits(0b111), m, 8)
        .expect("plane scheme");
    let plane_report = planes.coverage(&universe).expect("plane scheme compiles");
    let mut row = vec!["plane π×8 (decorrelated)".to_string()];
    for class in classes {
        row.push(plane_report.class(class).map_or("—".into(), |r| pct(r.percent())));
    }
    row.push(pct(plane_report.overall_percent()));
    t.row_owned(row);
    t.print();

    // Part 2: intra-word couplings only — parallel vs decorrelated planes.
    let intra_spec = UniverseSpec {
        cfin: true,
        cfid: true,
        cfst: true,
        coupling_radius: Some(0),
        intra_word: true,
        ..UniverseSpec::default()
    };
    let intra = FaultUniverse::enumerate(geom, &intra_spec);
    let poly = Poly2::from_bits(0b111);
    // Multi-iteration plane schedules. With *parallel* (mirrored) planes
    // the victim bit always equals the aggressor bit, so a state coupling
    // forcing the victim to the aggressor's own value (⟨s;s⟩) can never be
    // observed, no matter how many iterations run. Decorrelated ("random")
    // per-plane seeds rotate the (aggressor, victim) value combinations
    // across iterations and accumulate full visibility — the paper's §2
    // prescription. (A single iteration is aggregate-invariant across
    // seedings: decorrelation changes WHICH instances are caught, not how
    // many — hence the multi-iteration comparison.)
    let parallel: Vec<PlaneSeeding> = vec![
        PlaneSeeding::Parallel { seed: 0b10 },
        PlaneSeeding::Parallel { seed: 0b01 },
        PlaneSeeding::Parallel { seed: 0b11 },
        PlaneSeeding::Parallel { seed: 0b10 },
    ];
    let decorrelated: Vec<PlaneSeeding> = vec![
        PlaneSeeding::Explicit(vec![0b01, 0b10, 0b11, 0b01]),
        PlaneSeeding::Explicit(vec![0b10, 0b11, 0b01, 0b11]),
        PlaneSeeding::Explicit(vec![0b11, 0b01, 0b10, 0b10]),
        PlaneSeeding::Explicit(vec![0b10, 0b01, 0b11, 0b01]),
    ];
    let random: Vec<PlaneSeeding> = (0..4).map(|i| PlaneSeeding::Random { seed: 2 + i }).collect();
    let mut t2 = Table::new(
        format!("E4b: 1–4 plane-π iterations on intra-word couplings, n={n}, m={m}"),
        &["plane seeding", "iters", "CFin", "CFid", "CFst", "overall"],
    );
    for (name, schedule) in [
        ("parallel (mirrored)", &parallel),
        ("random (paper §2)", &random),
        ("explicit decorrelated", &decorrelated),
    ] {
        for iters in [1usize, 2, 4] {
            // One campaign per schedule prefix: the runner plays the first
            // `iters` plane iterations back-to-back on the pooled memory,
            // accumulating state exactly like the historical loop did.
            let runner = |ram: &mut Ram, _bg: u64| {
                let mut detected = false;
                for seeding in &schedule[..iters] {
                    let pi = BitPlanePi::new(poly, seeding.clone()).expect("plane π");
                    detected |= pi.run(ram).map(|r| r.detected()).unwrap_or(false);
                }
                detected
            };
            let report = Campaign::new(&intra, runner).with_name(format!("{name} ×{iters}")).run();
            let cell = |class: &str| -> String {
                report.class(class).map_or("—".into(), |r| pct(r.percent()))
            };
            t2.row_owned(vec![
                name.to_string(),
                iters.to_string(),
                cell("CFin"),
                cell("CFid"),
                cell("CFst"),
                pct(report.overall_percent()),
            ]);
        }
    }
    t2.print();
    println!(
        "\nverdict: with repeated iterations, mirrored planes plateau (⟨s;s⟩ state\n\
         couplings stay invisible) while decorrelated ('random') plane seeding —\n\
         the paper's §2 prescription — keeps accumulating intra-word coverage."
    );
}
