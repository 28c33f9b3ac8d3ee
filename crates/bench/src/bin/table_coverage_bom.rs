//! **Experiment E3 — §3 claim C1 (bit-oriented)**: fault coverage of
//! π-test schemes vs iteration count.
//!
//! The paper states that "all single and multi-cell memory faults are
//! detected in 3 π-test iterations with a specific TDB". This table
//! measures coverage per fault class for 1–4 pre-read iterations, the
//! synthesized full-coverage schedule, the plain (3n-cost) mode, and the
//! March C- baseline. The reproduction verdict: every class reproduces at
//! 3 iterations **except CFid**, which is structurally capped at 50% (each
//! (pair, trigger-direction) has one observable occurrence per 3-iteration
//! schedule, exposing one forced polarity); 5 synthesized iterations reach
//! 100%.
//!
//! Run: `cargo run --release -p prt-bench --bin table_coverage_bom [n]`

use prt_bench::{pct, Table};
use prt_core::PrtScheme;
use prt_gf::Field;
use prt_march::{coverage, library, CoverageReport, Executor};
use prt_ram::{FaultUniverse, Geometry, UniverseSpec};
use prt_sim::Campaign;

fn main() {
    let n: usize = prt_bench::arg_or(1, 12, "array-size");
    let field = || Field::new(1, 0b11).expect("GF(2)");
    let universe = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
    println!(
        "universe: {} single-fault instances on a {n}-cell bit-oriented memory",
        universe.len()
    );

    let mut schemes: Vec<(String, CoverageReport, String)> = Vec::new();
    for iters in 1..=2usize {
        // Truncations of standard3 show the per-iteration progression.
        let s3 = PrtScheme::standard3(field()).expect("standard3");
        let specs = s3.iterations()[..iters].to_vec();
        let s = PrtScheme::new(field(), &[1, 1, 1], specs)
            .expect("truncated scheme")
            .with_preread(true)
            .with_final_readback(true)
            .with_name(format!("π×{iters}"));
        let ops = format!("{}n", s.ops_per_cell());
        schemes.push((
            format!("π×{iters} (pre-read)"),
            s.coverage(&universe).expect("GF(2) compiles for BOM"),
            ops,
        ));
    }
    let s3 = PrtScheme::standard3(field()).expect("standard3");
    let ops3 = format!("{}n", s3.ops_per_cell());
    schemes.push((
        "π×3 standard3 (paper's claim)".to_string(),
        s3.coverage(&universe).expect("GF(2) compiles for BOM"),
        ops3,
    ));
    let s4 = PrtScheme::standard4(field()).expect("standard4");
    let ops4 = format!("{}n", s4.ops_per_cell());
    schemes.push((
        "π×4 standard4".to_string(),
        s4.coverage(&universe).expect("GF(2) compiles for BOM"),
        ops4,
    ));
    let (full, verified) =
        PrtScheme::full_coverage(field(), Geometry::bom(n)).expect("synthesis converges");
    assert_eq!(verified, universe.len());
    let ops = format!("{}n", full.ops_per_cell());
    let label = format!("π×{} synthesized", full.iterations().len());
    schemes.push((label, full.coverage(&universe).expect("GF(2) compiles for BOM"), ops));

    let plain = PrtScheme::plain(field(), 3).expect("plain");
    schemes.push((
        "π×3 plain (paper cost)".to_string(),
        plain.coverage(&universe).expect("GF(2) compiles for BOM"),
        format!("{}n", plain.ops_per_cell()),
    ));

    let march = library::march_c_minus();
    let march_report =
        coverage::evaluate(&march, &universe, &Executor::new().stop_at_first_mismatch());
    schemes.push(("March C- (baseline)".to_string(), march_report, "10n".to_string()));

    let classes = ["SAF", "TF", "AF", "CFin", "CFid", "CFst"];
    let mut header = vec!["scheme", "ops"];
    header.extend(classes);
    header.push("overall");
    let mut t = Table::new(format!("E3: fault coverage on BOM n={n} (percent detected)"), &header);
    for (name, report, ops) in &schemes {
        let mut row = vec![name.clone(), ops.clone()];
        for class in classes {
            row.push(report.class(class).map_or("—".into(), |r| pct(r.percent())));
        }
        row.push(pct(report.overall_percent()));
        t.row_owned(row);
    }
    t.print();

    println!(
        "\nverdict: SAF/TF/AF/CFin/CFst reproduce the paper's 3-iteration claim;\n\
         CFid is structurally capped at 50% for ANY 3-iteration schedule\n\
         (see DESIGN.md §5); the synthesized 5-iteration schedule reaches 100%."
    );

    // E3b: topological NPSF (type-1 static, von Neumann neighbourhoods) —
    // beyond the paper's universe, measuring how the schemes fare on
    // pattern-sensitive faults.
    let npsf_geom = Geometry::bom(16);
    let layout = prt_ram::Layout::squarish(npsf_geom).expect("layout");
    let npsf = layout.npsf_universe(0);
    println!("\nE3b: type-1 static NPSF on a 4×4 layout ({} instances)", npsf.len());
    let candidates: Vec<(String, PrtScheme)> = vec![
        ("π×3 standard3".into(), PrtScheme::standard3(field()).expect("s3")),
        ("π×5 synthesized".into(), PrtScheme::full_coverage(field(), npsf_geom).expect("synth").0),
    ];
    for (name, scheme) in &candidates {
        let program = scheme.compile(npsf_geom).expect("GF(2) compiles for BOM");
        let detected = Campaign::over(npsf_geom, &npsf, &program).count_detected();
        println!("  {name}: {}", pct(100.0 * detected as f64 / npsf.len() as f64));
    }
    let ex = Executor::new().stop_at_first_mismatch();
    for test in [library::march_c_minus(), library::march_ss()] {
        let program = ex.compile(&test, npsf_geom);
        let detected = Campaign::over(npsf_geom, &npsf, &program).count_detected();
        println!("  {}: {}", test.name(), pct(100.0 * detected as f64 / npsf.len() as f64));
    }
    println!(
        "  (full NPSF coverage classically needs dedicated tiling tests — the\n\
         partial numbers above quantify what generic schedules catch for free)"
    );
}
