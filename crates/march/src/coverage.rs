//! Fault-coverage evaluation of March tests.
//!
//! Runs a test against every instance of a [`FaultUniverse`] and aggregates
//! detection per fault class. Experiment E10 uses this to reproduce the
//! textbook coverage table (MATS+ → SAF+AF, March C- → +TF+CF…), which
//! validates the fault simulator that the PRT experiments then build on.
//!
//! Evaluation is delegated to the [`prt_sim`] campaign engine: pooled
//! memories, parallel fan-out over fault instances and deterministic
//! aggregation (the report is identical to a sequential sweep for any
//! thread count). [`CoverageRow`], [`CoverageReport`] and [`ClassTally`]
//! live in `prt-sim` now and are re-exported here unchanged.

use crate::executor::Executor;
use crate::notation::MarchTest;
use prt_ram::{FaultUniverse, Ram};
use prt_sim::{Campaign, FaultRunner, ProgramBank};

pub use prt_sim::{ClassTally, CoverageReport, CoverageRow};

/// Campaign adapter that re-interprets the March notation on every trial —
/// kept as the pre-compilation reference the compiled path is
/// property-tested against. The evaluators below compile the test once
/// per (geometry, background) instead ([`compile_bank`]).
#[derive(Debug, Clone, Copy)]
pub struct MarchRunner<'a> {
    test: &'a MarchTest,
    executor: &'a Executor,
}

impl<'a> MarchRunner<'a> {
    /// Pairs a test with executor settings.
    pub fn new(test: &'a MarchTest, executor: &'a Executor) -> MarchRunner<'a> {
        MarchRunner { test, executor }
    }
}

impl FaultRunner for MarchRunner<'_> {
    fn detect(&self, ram: &mut Ram, background: u64) -> bool {
        self.executor.clone().with_background(background).run(self.test, ram).detected()
    }
}

/// Measures the coverage of `test` over `universe`.
///
/// # Example
///
/// ```
/// use prt_march::{coverage, library, Executor};
/// use prt_ram::{FaultUniverse, Geometry, UniverseSpec};
///
/// let u = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::single_cell());
/// let report = coverage::evaluate(&library::march_c_minus(), &u, &Executor::new());
/// assert!(report.complete()); // March C- detects all SAF and TF
/// ```
pub fn evaluate(test: &MarchTest, universe: &FaultUniverse, executor: &Executor) -> CoverageReport {
    evaluate_multi_background(test, universe, executor, &[0])
}

/// Measures coverage of `test` executed once per *data background*: the
/// standard word-oriented extension of a March algorithm. A fault counts
/// as detected when any background run flags it.
///
/// The classic result (reproduced by experiment E4): a bit-oriented March
/// test needs `⌈log₂ m⌉ + 1` backgrounds (e.g. `0000, 0101, 0011` for
/// `m = 4`) to expose intra-word coupling faults that a single background
/// can never sensitise.
///
/// # Example
///
/// ```
/// use prt_march::{coverage, library, Executor};
/// use prt_ram::{FaultUniverse, Geometry, UniverseSpec};
///
/// let spec = UniverseSpec { cfst: true, intra_word: true,
///     coupling_radius: Some(0), ..UniverseSpec::default() };
/// let u = FaultUniverse::enumerate(Geometry::wom(8, 4)?, &spec);
/// let ex = Executor::new().stop_at_first_mismatch();
/// let one = coverage::evaluate(&library::march_c_minus(), &u, &ex);
/// let multi = coverage::evaluate_multi_background(
///     &library::march_c_minus(), &u, &ex, &[0b0000, 0b0101, 0b0011]);
/// assert!(multi.overall_percent() > one.overall_percent());
/// # Ok::<(), prt_ram::RamError>(())
/// ```
pub fn evaluate_multi_background(
    test: &MarchTest,
    universe: &FaultUniverse,
    executor: &Executor,
    backgrounds: &[u64],
) -> CoverageReport {
    assert!(!backgrounds.is_empty(), "at least one data background required");
    let bank = compile_bank(test, universe.geometry(), executor, backgrounds);
    Campaign::new(universe, &bank).with_backgrounds(backgrounds).with_name(test.name()).run()
}

/// Compiles `test` once per background into a [`ProgramBank`] ready for
/// [`Campaign::with_backgrounds`] — the compile-once-run-many path the
/// evaluators use. The compiled trials stop at the first mismatch (the
/// verdict is identical either way; see [`Executor::compile`]).
pub fn compile_bank(
    test: &MarchTest,
    geom: prt_ram::Geometry,
    executor: &Executor,
    backgrounds: &[u64],
) -> ProgramBank {
    ProgramBank::new(
        backgrounds
            .iter()
            .map(|&bg| (bg, executor.clone().with_background(bg).compile(test, geom))),
    )
}

/// The standard background set for `m`-bit words: all-zeros plus the
/// `⌈log₂ m⌉` "binary counting" patterns — every bit pair is separated by
/// at least one background.
///
/// ```
/// assert_eq!(prt_march::coverage::standard_backgrounds(4), vec![0b0000, 0b1010, 0b1100]);
/// ```
pub fn standard_backgrounds(m: u32) -> Vec<u64> {
    let mut out = vec![0u64];
    let mut stride = 1u32;
    while stride < m {
        // Pattern with `stride` zeros then `stride` ones, repeated.
        let mut p = 0u64;
        for bit in 0..m {
            if (bit / stride) % 2 == 1 {
                p |= 1 << bit;
            }
        }
        out.push(p);
        stride *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use prt_ram::{Geometry, UniverseSpec};

    fn universe(n: usize) -> FaultUniverse {
        FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::paper_claim())
    }

    #[test]
    fn mats_plus_covers_saf_and_af_completely() {
        let u = universe(8);
        let r = evaluate(&library::mats_plus(), &u, &Executor::new().stop_at_first_mismatch());
        assert!(r.class("SAF").unwrap().complete(), "SAF: {:?}", r.class("SAF"));
        assert!(r.class("AF").unwrap().complete(), "AF: {:?}", r.class("AF"));
        // MATS+ guarantees nothing for TF.
        assert!(!r.class("TF").unwrap().complete());
    }

    #[test]
    fn march_c_minus_covers_the_paper_claim_universe() {
        let u = universe(8);
        let r = evaluate(&library::march_c_minus(), &u, &Executor::new().stop_at_first_mismatch());
        for class in ["SAF", "TF", "AF", "CFin", "CFid", "CFst"] {
            let row = r.class(class).unwrap();
            assert!(
                row.complete(),
                "March C- should fully cover {class}: {}/{}",
                row.detected,
                row.total
            );
        }
        assert!(r.complete());
        assert!((r.overall_percent() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn march_u_and_raw_cover_the_paper_claim_universe() {
        // The two newest library algorithms, wired through the (default,
        // lane-batched) evaluator: March U matches March C-'s unlinked
        // static coverage at 13n, March RAW keeps it at 26n while adding
        // the read-after-write read-back structure.
        let u = universe(8);
        let ex = Executor::new().stop_at_first_mismatch();
        for test in [library::march_u(), library::march_raw()] {
            let r = evaluate(&test, &u, &ex);
            assert!(r.complete(), "{} should cover the paper-claim universe", test.name());
        }
    }

    #[test]
    fn coverage_is_monotone_from_mats_to_march_c_minus() {
        let u = universe(6);
        let ex = Executor::new().stop_at_first_mismatch();
        let weak = evaluate(&library::mats(), &u, &ex);
        let strong = evaluate(&library::march_c_minus(), &u, &ex);
        assert!(strong.overall_percent() >= weak.overall_percent());
    }

    #[test]
    fn standard_backgrounds_shapes() {
        assert_eq!(standard_backgrounds(1), vec![0]);
        assert_eq!(standard_backgrounds(2), vec![0b00, 0b10]);
        assert_eq!(standard_backgrounds(4), vec![0b0000, 0b1010, 0b1100]);
        assert_eq!(
            standard_backgrounds(8),
            vec![0b0000_0000, 0b1010_1010, 0b1100_1100, 0b1111_0000]
        );
        // Every bit pair is separated by some background.
        for m in [2u32, 4, 8, 16] {
            let bgs = standard_backgrounds(m);
            for a in 0..m {
                for b in 0..a {
                    assert!(
                        bgs.iter().any(|&p| (p >> a) & 1 != (p >> b) & 1),
                        "bits {a},{b} never separated for m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_background_completes_intra_word_coverage() {
        use prt_ram::Geometry;
        // Intra-word couplings on a 4-bit WOM: single background misses the
        // ⟨s;s⟩ family; the standard background set restores 100% for
        // March SS (the strongest static-fault test).
        let spec = UniverseSpec {
            cfin: true,
            cfid: true,
            cfst: true,
            coupling_radius: Some(0),
            intra_word: true,
            ..UniverseSpec::default()
        };
        let u = FaultUniverse::enumerate(Geometry::wom(6, 4).unwrap(), &spec);
        let ex = Executor::new().stop_at_first_mismatch();
        let single = evaluate(&library::march_ss(), &u, &ex);
        assert!(!single.complete(), "single background must miss intra-word faults");
        let multi =
            evaluate_multi_background(&library::march_ss(), &u, &ex, &standard_backgrounds(4));
        assert!(
            multi.complete(),
            "standard backgrounds must complete March SS intra-word coverage: {:?}",
            multi.rows()
        );
    }

    #[test]
    fn engine_report_is_thread_count_invariant() {
        use prt_sim::{Campaign, Parallelism};
        let u = universe(8);
        let test = library::march_c_minus();
        let ex = Executor::new().stop_at_first_mismatch();
        let make = |p: Parallelism| {
            Campaign::new(&u, MarchRunner::new(&test, &ex))
                .with_name(test.name())
                .with_parallelism(p)
                .run()
        };
        let sequential = make(Parallelism::Sequential);
        for threads in [2usize, 5] {
            assert_eq!(sequential, make(Parallelism::Threads(threads)), "threads={threads}");
        }
        // …and equals what the seed's fresh-Ram-per-trial loop produced.
        let reference = Campaign::new(&u, MarchRunner::new(&test, &ex)).detections_reference();
        let pooled = Campaign::new(&u, MarchRunner::new(&test, &ex)).detections();
        assert_eq!(reference, pooled);
    }

    #[test]
    fn multi_background_pooled_matches_reference() {
        use prt_sim::Campaign;
        let spec = UniverseSpec {
            cfst: true,
            intra_word: true,
            coupling_radius: Some(0),
            ..UniverseSpec::default()
        };
        let u = FaultUniverse::enumerate(Geometry::wom(8, 4).unwrap(), &spec);
        let test = library::march_ss();
        let ex = Executor::new().stop_at_first_mismatch();
        let bgs = standard_backgrounds(4);
        let campaign = Campaign::new(&u, MarchRunner::new(&test, &ex)).with_backgrounds(&bgs);
        assert_eq!(campaign.detections(), campaign.detections_reference());
    }

    #[test]
    fn compiled_evaluation_matches_interpreted_runner() {
        // The evaluators now run compiled programs; the interpreted
        // MarchRunner path must agree report-for-report.
        let u = universe(8);
        let ex = Executor::new().stop_at_first_mismatch();
        for test in [library::mats_plus(), library::march_c_minus(), library::march_ss()] {
            let compiled = evaluate(&test, &u, &ex);
            let interpreted =
                Campaign::new(&u, MarchRunner::new(&test, &ex)).with_name(test.name()).run();
            assert_eq!(compiled, interpreted, "{}", test.name());
        }
    }

    #[test]
    fn compiled_multi_background_matches_interpreted_runner() {
        let spec = UniverseSpec {
            cfst: true,
            intra_word: true,
            coupling_radius: Some(0),
            ..UniverseSpec::default()
        };
        let u = FaultUniverse::enumerate(Geometry::wom(8, 4).unwrap(), &spec);
        let test = library::march_ss();
        let ex = Executor::new().stop_at_first_mismatch();
        let bgs = standard_backgrounds(4);
        let compiled = evaluate_multi_background(&test, &u, &ex, &bgs);
        let interpreted = Campaign::new(&u, MarchRunner::new(&test, &ex))
            .with_backgrounds(&bgs)
            .with_name(test.name())
            .run();
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn report_accessors() {
        let u = universe(4);
        let r = evaluate(&library::mats_plus(), &u, &Executor::new());
        assert_eq!(r.test_name(), "MATS+");
        assert!(r.class("SAF").is_some());
        assert!(r.class("NPSF").is_none());
        let saf = r.class("SAF").unwrap();
        assert_eq!(saf.total, 8);
        assert!((saf.percent() - 100.0).abs() < f64::EPSILON);
    }
}
