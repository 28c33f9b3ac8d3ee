//! Lists every fault instance escaping a candidate PRT scheme — the
//! debugging companion of `search_tdb`.
//!
//! Usage: `cargo run --release -p prt-bench --bin diagnose_escapes [n]`

use prt_core::PrtScheme;
use prt_gf::Field;
use prt_ram::{FaultUniverse, Geometry, UniverseSpec};
use prt_sim::Campaign;

fn main() {
    let ns: Vec<usize> = {
        // Malformed sizes are a usage error, not silently skipped runs.
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .map(|s| {
                s.parse().unwrap_or_else(|e| {
                    prt_bench::die(format!("invalid array-size argument '{s}': {e}"))
                })
            })
            .collect();
        if args.is_empty() {
            vec![9, 10, 11]
        } else {
            args
        }
    };
    for (label, mk) in [
        ("standard3", PrtScheme::standard3 as fn(Field) -> Result<PrtScheme, prt_core::PrtError>),
        ("standard4", PrtScheme::standard4 as fn(Field) -> Result<PrtScheme, prt_core::PrtError>),
    ] {
        // Bit-oriented check.
        for &n in &ns {
            let field = Field::new(1, 0b11).expect("GF(2)");
            let scheme = mk(field).expect("scheme");
            let u = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
            report(&scheme, &u, &format!("{label} BOM n={n}"));
        }
        // Word-oriented check with intra-word faults.
        for &n in &ns {
            let field = Field::new(4, 0b1_0011).expect("GF(16)");
            let scheme = mk(field).expect("scheme");
            let spec = UniverseSpec {
                coupling_radius: Some(3),
                intra_word: true,
                ..UniverseSpec::paper_claim()
            };
            let u = FaultUniverse::enumerate(Geometry::wom(n, 4).expect("geom"), &spec);
            report(&scheme, &u, &format!("{label} WOM m=4 n={n}"));
        }
    }
    full_coverage_growth(&ns);
}

fn full_coverage_growth(ns: &[usize]) {
    for &n in ns {
        let field = Field::new(1, 0b11).expect("GF(2)");
        match PrtScheme::full_coverage(field, Geometry::bom(n)) {
            Ok((s, usize_)) => println!(
                "full_coverage BOM n={n}: {} iterations (universe {usize_})",
                s.iterations().len()
            ),
            Err(e) => println!("full_coverage BOM n={n}: FAILED: {e}"),
        }
        let field = Field::new(4, 0b1_0011).expect("GF(16)");
        match PrtScheme::full_coverage(field, Geometry::wom(n, 4).expect("geom")) {
            Ok((s, usize_)) => println!(
                "full_coverage WOM n={n}: {} iterations (universe {usize_})",
                s.iterations().len()
            ),
            Err(e) => println!("full_coverage WOM n={n}: FAILED: {e}"),
        }
    }
}

fn report(scheme: &PrtScheme, u: &FaultUniverse, label: &str) {
    let program = match scheme.compile(u.geometry()) {
        Ok(program) => program,
        Err(e) => {
            println!("{label}: FAILED: {e}");
            return;
        }
    };
    let escapes = Campaign::new(u, &program).escapes();
    for &i in escapes.iter().take(25) {
        println!("  escape: {}", u.faults()[i]);
    }
    println!("{label}: escapes {}/{}", escapes.len(), u.len());
}
