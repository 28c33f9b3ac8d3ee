//! Cross-crate pipeline tests: simulator → March → PRT → analysis working
//! together, plus complexity accounting across the stack.

use prt_suite::prelude::*;

#[test]
fn complexity_claims_measured_across_sizes() {
    let pi = PiTest::figure_1a().expect("automaton");
    for n in [8usize, 100, 1000] {
        let mut r1 = Ram::new(Geometry::bom(n));
        assert_eq!(pi.run(&mut r1).expect("run").ops(), 3 * n as u64 - 2);
        let mut r2 = Ram::with_ports(Geometry::bom(n), 2).expect("ports");
        assert_eq!(pi.run_dual_port(&mut r2).expect("run").cycles(), 2 * n as u64 - 2);
    }
    for test in march_library::all() {
        let n = 64usize;
        let mut ram = Ram::new(Geometry::bom(n));
        let outcome = Executor::new().run(&test, &mut ram);
        assert_eq!(
            outcome.ops(),
            test.ops_per_cell() as u64 * n as u64,
            "{} advertises {}n",
            test.name(),
            test.ops_per_cell()
        );
    }
}

#[test]
fn single_fault_consensus_on_random_instances() {
    // For each sampled fault: March SS (the strongest baseline) and the
    // PRT full-coverage schedule should both detect it — consensus between
    // two completely different engines doubles as a simulator check.
    let geom = Geometry::bom(12);
    let (prt, _) =
        PrtScheme::full_coverage(Field::new(1, 0b11).expect("GF(2)"), geom).expect("synthesis");
    let march = march_library::march_ss();
    let ex = Executor::new().stop_at_first_mismatch();
    let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim()).sample(150, 99);
    for (fault, _) in universe.instances() {
        let mut a = Ram::new(geom);
        a.inject(fault.clone()).expect("inject");
        let p = prt.run(&mut a).expect("run").detected();
        let mut b = Ram::new(geom);
        b.inject(fault.clone()).expect("inject");
        let m = ex.run(&march, &mut b).detected();
        assert!(p, "PRT missed {fault}");
        assert!(m, "March SS missed {fault}");
    }
}

#[test]
fn bist_cost_model_consistency() {
    use prt_suite::prt_core::bist::{MarchBist, PrtBist};
    let field = Field::new(4, 0b1_0011).expect("GF(16)");
    let mut last_ratio = f64::INFINITY;
    for log2 in [10u32, 14, 18, 22, 26, 30] {
        let geom = Geometry::wom(1 << log2, 4).expect("geometry");
        let prt = PrtBist::new(geom, &field, &[1, 2, 2]);
        let march = MarchBist::new(geom);
        let ratio = prt.overhead_ratio();
        assert!(ratio < last_ratio, "overhead must shrink with capacity");
        assert!(
            prt.bist_transistors() < march.bist_transistors(),
            "PRT must stay leaner than March BIST"
        );
        last_ratio = ratio;
    }
    // The paper's 2⁻²⁰ bound at 4 Gbit.
    let big = PrtBist::new(Geometry::wom(1 << 30, 4).expect("geometry"), &field, &[1, 2, 2]);
    assert!(big.meets_paper_bound());
}

#[test]
fn misr_vs_prt_signature_consistency() {
    // Compacting the π-wave responses into a MISR gives yet another
    // signature; on a fault it must disagree with the fault-free run
    // whenever PRT's Fin does (cross-check of the two observation paths).
    let pi = PiTest::figure_1b().expect("automaton");
    let n = 40usize;
    let misr_of = |ram: &mut Ram| -> u64 {
        let mut m = Misr::new(Poly2::from_bits(0b1_0011)).expect("misr");
        for c in 0..n {
            m.absorb(ram.peek(c));
        }
        m.signature()
    };
    let mut clean = Ram::new(Geometry::wom(n, 4).expect("geometry"));
    pi.run(&mut clean).expect("run");
    let golden = misr_of(&mut clean);
    for cell in [2usize, 17, 35] {
        let mut faulty = Ram::new(Geometry::wom(n, 4).expect("geometry"));
        faulty.inject(FaultKind::StuckAt { cell, bit: 1, value: 1 }).expect("inject");
        let res = pi.run(&mut faulty).expect("run");
        let sig = misr_of(&mut faulty);
        if res.detected() {
            assert_ne!(sig, golden, "MISR must also see the corruption @{cell}");
        }
    }
}

#[test]
fn multi_fault_memories_still_detected() {
    // Real dies have fault clusters, not single faults; the schemes must
    // not cancel two faults against each other on these seeded examples.
    let field = Field::new(1, 0b11).expect("GF(2)");
    let scheme = PrtScheme::standard3(field).expect("scheme");
    let mut rng = SplitMix64::new(2024);
    for trial in 0..20 {
        let n = 24usize;
        let mut ram = Ram::new(Geometry::bom(n));
        // Two random stuck-at faults with random polarity.
        for _ in 0..2 {
            let cell = rng.next_below(n as u64) as usize;
            let value = (rng.next_u64() & 1) as u8;
            let _ = ram.inject(FaultKind::StuckAt { cell, bit: 0, value });
        }
        let res = scheme.run(&mut ram).expect("run");
        assert!(res.detected(), "trial {trial}: double-SAF escaped");
    }
}

#[test]
fn analysis_predictions_match_scheme_behaviour() {
    use prt_suite::prt_core::analysis;
    // Closed-form SAF p=1/2 per iteration → escape after the 3 independent
    // standard iterations ≈ 12.5%; the DETERMINISTIC standard3 does better:
    // zero escapes. Both facts together validate model and scheme.
    let p = analysis::bom_closed_forms()
        .into_iter()
        .find(|m| m.class == "SAF")
        .expect("SAF model")
        .p_detect;
    assert!((analysis::escape_probability(p, 3) - 0.125).abs() < 1e-12);
    let scheme = PrtScheme::standard3(Field::new(1, 0b11).expect("GF(2)")).expect("scheme");
    let spec = UniverseSpec { saf: true, ..UniverseSpec::default() };
    let u = FaultUniverse::enumerate(Geometry::bom(12), &spec);
    assert!(scheme.coverage(&u).expect("compile").complete());
}
