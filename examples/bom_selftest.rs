//! Scenario: qualifying a bit-oriented embedded SRAM macro.
//!
//! A BIST engineer wants to know, for a given array size, which PRT
//! schedule to burn into the controller: the paper's 3-iteration schedule,
//! the 4-iteration variant, or the synthesized full-coverage schedule —
//! and how each compares with a March C- baseline, in both coverage and
//! operation budget. This example runs the whole qualification flow.
//!
//! Run: `cargo run --release --example bom_selftest [cells]`

use prt_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let geom = Geometry::bom(n);
    let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
    println!("qualifying a {n}-cell BOM against {} fault instances\n", universe.len());

    let field = || Field::new(1, 0b11).expect("GF(2)");
    let candidates = vec![
        PrtScheme::standard3(field())?,
        PrtScheme::standard4(field())?,
        PrtScheme::full_coverage(field(), geom)?.0,
    ];

    println!("{:<28} {:>8} {:>10} {:>9}", "schedule", "ops", "coverage", "complete");
    for scheme in &candidates {
        let report = scheme.coverage(&universe)?;
        println!(
            "{:<28} {:>7}n {:>9.2}% {:>9}",
            scheme.name(),
            scheme.ops_per_cell(),
            report.overall_percent(),
            report.complete()
        );
    }

    // March C- baseline through the same coverage evaluator.
    let march = march_library::march_c_minus();
    let report =
        prt_march::coverage::evaluate(&march, &universe, &Executor::new().stop_at_first_mismatch());
    println!(
        "{:<28} {:>7}n {:>9.2}% {:>9}",
        march.name(),
        march.ops_per_cell(),
        report.overall_percent(),
        report.complete()
    );

    // The recommendation logic a qualification script would apply.
    let full = &candidates[2];
    println!(
        "\nrecommendation: {} — complete coverage at {}n using the memory's own\n\
         cells as generator and signature (no BIST data path), vs March C- at 10n\n\
         with an external comparator.",
        full.name(),
        full.ops_per_cell()
    );

    // Spot-check: inject one fault of each modelled kind and show verdicts.
    // The schedule is synthesized and verified over the qualified
    // universe only, so detection is asserted only for probes inside it.
    println!("\nspot checks (full-coverage schedule):");
    let probes: Vec<FaultKind> = vec![
        FaultKind::StuckAt { cell: n / 2, bit: 0, value: 1 },
        FaultKind::Transition { cell: 3, bit: 0, rising: false },
        FaultKind::StuckOpen { cell: n - 3 },
        FaultKind::DeceptiveRead { cell: 5, bit: 0 },
        FaultKind::WriteDisturb { cell: 2, bit: 0 },
        FaultKind::DecoderShadow { addr: 4, instead_cell: n - 2 },
        FaultKind::CouplingIdempotent {
            agg_cell: n - 4,
            agg_bit: 0,
            victim_cell: 1,
            victim_bit: 0,
            trigger: CouplingTrigger::Fall,
            force: 1,
        },
    ];
    for fault in probes {
        let mut ram = Ram::new(geom);
        ram.inject(fault.clone())?;
        let res = full.run(&mut ram)?;
        if universe.faults().contains(&fault) {
            println!("  {fault}: detected = {}", res.detected());
            assert!(res.detected(), "full-coverage schedule must catch {fault}");
        } else {
            println!("  {fault}: detected = {} (outside the qualified universe)", res.detected());
        }
    }
    Ok(())
}
