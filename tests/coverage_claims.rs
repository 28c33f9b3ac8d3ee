//! Integration tests for the paper's §3 coverage claims (experiments
//! E3/E4/E10 in miniature).

use prt_suite::prelude::*;

fn gf2() -> Field {
    Field::new(1, 0b11).expect("GF(2)")
}

#[test]
fn simulator_calibration_march_textbook_table() {
    // The E10 validation in miniature: known March guarantees.
    let universe = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::paper_claim());
    let ex = Executor::new().stop_at_first_mismatch();
    let check = |test: &MarchTest, complete: &[&str], incomplete: &[&str]| {
        let r = prt_march::coverage::evaluate(test, &universe, &ex);
        for c in complete {
            assert!(r.class(c).expect("class").complete(), "{} must fully cover {c}", test.name());
        }
        for c in incomplete {
            assert!(
                !r.class(c).expect("class").complete(),
                "{} should NOT fully cover {c}",
                test.name()
            );
        }
    };
    check(&march_library::mats_plus(), &["SAF", "AF"], &["TF"]);
    check(&march_library::mats_plus_plus(), &["SAF", "AF", "TF"], &["CFid"]);
    check(&march_library::march_x(), &["SAF", "AF", "TF", "CFin"], &["CFid"]);
    check(&march_library::march_c_minus(), &["SAF", "AF", "TF", "CFin", "CFid", "CFst"], &[]);
}

#[test]
fn standard3_reproduces_paper_claim_except_cfid() {
    let scheme = PrtScheme::standard3(gf2()).expect("scheme");
    let universe = FaultUniverse::enumerate(Geometry::bom(10), &UniverseSpec::paper_claim());
    let report = scheme.coverage(&universe).expect("compile");
    for class in ["SAF", "TF", "AF", "CFin", "CFst"] {
        assert!(
            report.class(class).expect("class").complete(),
            "standard3 must fully cover {class}"
        );
    }
    let cfid = report.class("CFid").expect("class");
    assert_eq!(cfid.detected * 2, cfid.total, "the structural 50% cap");
}

#[test]
fn full_coverage_scheme_is_complete_and_size_stable() {
    for n in [8usize, 14] {
        let (scheme, verified) =
            PrtScheme::full_coverage(gf2(), Geometry::bom(n)).expect("synthesis");
        assert!(verified > 0);
        assert_eq!(scheme.iterations().len(), 5, "5 iterations suffice at n={n}");
        let universe = FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim());
        assert!(scheme.coverage(&universe).expect("compile").complete(), "n={n}");
    }
}

#[test]
fn full_coverage_also_handles_extended_fault_families() {
    // SOF/RDF/DRDF/IRF were not part of the synthesis target but fall out
    // for free (read-path corruption always propagates). WDF is the
    // interesting one: a write-disturb fires only on NON-transition writes,
    // and complement-structured TDBs transition on every write by design —
    // so WDF coverage needs one *repeated* iteration (same seed twice),
    // which makes every write a non-transition one.
    let (scheme, _) = PrtScheme::full_coverage(gf2(), Geometry::bom(10)).expect("synthesis");
    let spec = UniverseSpec {
        sof: true,
        rdf: true,
        drdf: true,
        irf: true,
        wdf: true,
        ..UniverseSpec::default()
    };
    let universe = FaultUniverse::enumerate(Geometry::bom(10), &spec);
    let report = scheme.coverage(&universe).expect("compile");
    for row in report.rows() {
        if row.class == "WDF" {
            assert!(!row.complete(), "WDF should expose the all-transition blind spot");
        } else {
            assert!(
                row.complete(),
                "{}: {}/{} — read-path faults are easy for π-tests",
                row.class,
                row.detected,
                row.total
            );
        }
    }
    // Remedy: append a repeat of the last iteration — every write becomes
    // a non-transition write, firing every WDF.
    let mut specs = scheme.iterations().to_vec();
    specs.push(specs.last().expect("non-empty").clone());
    let extended = PrtScheme::new(gf2(), scheme.feedback(), specs)
        .expect("extended scheme")
        .with_preread(true)
        .with_final_readback(true);
    let report = extended.coverage(&universe).expect("compile");
    assert!(
        report.class("WDF").expect("class").complete(),
        "a repeated iteration must complete WDF coverage"
    );
}

/// The three representative scrambles the topology re-evaluation sweeps:
/// identity, bit-reversal of the address lines, and a row/column
/// interleave. `cells` must be a square power of two.
fn representative_scrambles(cells: usize) -> [(&'static str, Topology); 3] {
    let bits = cells.trailing_zeros();
    assert_eq!(cells, 1 << bits, "bit-reversal needs a power-of-two space");
    let side = cells.isqrt();
    assert_eq!(side * side, cells, "the interleave here uses a square array");
    [
        ("identity", Topology::identity(cells)),
        (
            "bit-reversal",
            Topology::identity(cells).then_swizzle(Scrambler::reversed(bits)).expect("swizzle"),
        ),
        (
            "row/col-interleave",
            Topology::identity(cells).then_interleave(side, side).expect("interleave"),
        ),
    ]
}

#[test]
fn march_textbook_table_is_scramble_invariant() {
    // E10 re-evaluated under physical scrambling: the textbook March
    // guarantees quantify over ALL coupling pairs (paper_claim is
    // radius-free), so relabelling the cells must not change a single
    // entry of the table — including the deliberate "NOT covered" holes.
    let geom = Geometry::bom(16);
    let ex = Executor::new().stop_at_first_mismatch();
    for (scramble, topology) in representative_scrambles(geom.cells()) {
        let universe = FaultUniverse::enumerate_with(geom, &UniverseSpec::paper_claim(), topology);
        let check = |test: &MarchTest, complete: &[&str], incomplete: &[&str]| {
            let r = prt_march::coverage::evaluate(test, &universe, &ex);
            for c in complete {
                assert!(
                    r.class(c).expect("class").complete(),
                    "{} must fully cover {c} under {scramble}",
                    test.name()
                );
            }
            for c in incomplete {
                assert!(
                    !r.class(c).expect("class").complete(),
                    "{} should NOT fully cover {c} under {scramble}",
                    test.name()
                );
            }
        };
        check(&march_library::mats_plus(), &["SAF", "AF"], &["TF"]);
        check(&march_library::mats_plus_plus(), &["SAF", "AF", "TF"], &["CFid"]);
        check(&march_library::march_x(), &["SAF", "AF", "TF", "CFin"], &["CFid"]);
        check(&march_library::march_c_minus(), &["SAF", "AF", "TF", "CFin", "CFid", "CFst"], &[]);
    }
}

#[test]
fn standard3_claim_is_scramble_invariant() {
    // E3 re-evaluated under physical scrambling: the §3 claim (everything
    // complete except the structural 50% CFid cap) is address-blind, so
    // it must hold verbatim under every representative scramble.
    let scheme = PrtScheme::standard3(gf2()).expect("scheme");
    let geom = Geometry::bom(16);
    for (scramble, topology) in representative_scrambles(geom.cells()) {
        let universe = FaultUniverse::enumerate_with(geom, &UniverseSpec::paper_claim(), topology);
        let report = scheme.coverage(&universe).expect("compile");
        for class in ["SAF", "TF", "AF", "CFin", "CFst"] {
            assert!(
                report.class(class).expect("class").complete(),
                "standard3 must fully cover {class} under {scramble}"
            );
        }
        let cfid = report.class("CFid").expect("class");
        assert_eq!(
            cfid.detected * 2,
            cfid.total,
            "the 50% cap is structural, even under {scramble}"
        );
    }
}

#[test]
fn radius_limited_neighbourhoods_are_topology_dependent() {
    // The flip side: a radius-limited coupling universe selects aggressors
    // by PHYSICAL adjacency, so the enumerated fault set is a different
    // set (not a relabelling) under a non-trivial scramble — while the
    // per-class totals and the radius-free universes stay invariant.
    let geom = Geometry::bom(16);
    let radius1 = UniverseSpec { cfin: true, coupling_radius: Some(1), ..Default::default() };
    let reversal = Topology::identity(16).then_swizzle(Scrambler::reversed(4)).expect("swizzle");
    let identity = FaultUniverse::enumerate(geom, &radius1);
    let scrambled = FaultUniverse::enumerate_with(geom, &radius1, reversal.clone());
    assert_eq!(identity.census(), scrambled.census(), "per-class totals are scramble-invariant");
    let sorted = |u: &FaultUniverse| {
        let mut v: Vec<String> = u.faults().iter().map(|f| f.to_string()).collect();
        v.sort();
        v
    };
    assert_ne!(
        sorted(&identity),
        sorted(&scrambled),
        "radius-1 aggressor pairs must follow physical adjacency"
    );
    // Radius-free coupling quantifies over all ordered pairs, so the same
    // scramble only permutes the enumeration — equal as sets.
    let free = UniverseSpec { cfin: true, ..Default::default() };
    assert_eq!(
        sorted(&FaultUniverse::enumerate(geom, &free)),
        sorted(&FaultUniverse::enumerate_with(geom, &free, reversal)),
        "all-pairs claims are scramble-invariant"
    );
    // And the E10 workhorse still covers whichever neighbourhood the
    // topology selects: the claim "March C- covers CFin" is invariant even
    // though the universe it is evaluated on is not.
    let ex = Executor::new().stop_at_first_mismatch();
    for (u, scramble) in [(&identity, "identity"), (&scrambled, "bit-reversal")] {
        assert!(
            prt_march::coverage::evaluate(&march_library::march_c_minus(), u, &ex).complete(),
            "March C- must cover the radius-1 universe under {scramble}"
        );
    }
}

#[test]
fn prt_and_march_agree_on_fault_free_memories() {
    let scheme = PrtScheme::standard3(gf2()).expect("scheme");
    let march = march_library::march_c_minus();
    let ex = Executor::new();
    for n in [5usize, 16, 31] {
        let mut a = Ram::new(Geometry::bom(n));
        assert!(!scheme.run(&mut a).expect("run").detected(), "PRT false positive n={n}");
        let mut b = Ram::new(Geometry::bom(n));
        assert!(!ex.run(&march, &mut b).detected(), "March false positive n={n}");
    }
}

#[test]
fn wom_standard3_on_word_universe() {
    let field = Field::new(4, 0b1_0011).expect("GF(16)");
    let scheme = PrtScheme::standard3(field).expect("scheme");
    let spec = UniverseSpec {
        saf: true,
        tf: true,
        af: true,
        coupling_radius: Some(2),
        cfin: true,
        ..UniverseSpec::default()
    };
    let universe = FaultUniverse::enumerate(Geometry::wom(8, 4).expect("geometry"), &spec);
    let report = scheme.coverage(&universe).expect("compile");
    assert!(report.complete(), "SAF/TF/AF/CFin must be complete on WOM");
}

#[test]
fn dual_port_scheme_coverage_equals_single_port() {
    // The Figure 2 schedule must not lose detection power.
    let scheme = PrtScheme::plain(gf2(), 4).expect("scheme");
    let universe = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::single_cell());
    for (fault, _) in universe.instances() {
        let mut single = Ram::new(Geometry::bom(8));
        single.inject(fault.clone()).expect("inject");
        let s = scheme.run(&mut single).expect("run").detected();
        let mut dual = Ram::with_ports(Geometry::bom(8), 2).expect("ports");
        dual.inject(fault.clone()).expect("inject");
        let d = scheme.run_dual_port(&mut dual).expect("run").detected();
        assert_eq!(s, d, "verdicts differ for {fault}");
    }
}
