//! Sliced ≡ full-pass differential property suite: activity-driven
//! program slicing must be **observationally invisible** — verdicts,
//! first-mismatch op indices, observed response streams, MISR
//! signatures, dictionary builds, coverage reports and checkpoints all
//! bit-identical to the full interpreter pass — across every compiled
//! test family, every fault family and any thread count. The full pass
//! (`with_slicing(false)`) is the oracle — these are the acceptance
//! tests of the slicing layer, alongside the locality-sorted
//! chunk-assembly invariance the campaign scheduler promises for reports
//! and checkpoints. The sliced arms force `with_slicing(true)`: the
//! small mixed universes here are dense, so the planned default runs
//! them on the full pass; it is checked as a third arm.

mod common;

use common::{
    mixed_universe, observe_lanes, observe_one, scalar, scalar_observations, temp_ckpt,
    test_threads,
};
use proptest::prelude::*;
use prt_ram::SlotOp;
use prt_sim::checkpoint;
use prt_suite::prelude::*;

/// Sliced, full-pass and planned campaign verdicts over `universe` must
/// be identical at the given thread count, and all must match the scalar
/// engine.
fn assert_sliced_equals_full(universe: &FaultUniverse, program: &TestProgram, threads: usize) {
    let threads = test_threads(threads);
    let backgrounds = [program.background().unwrap_or(0)];
    let scalar = Campaign::new(universe, scalar(program))
        .with_backgrounds(&backgrounds)
        .with_parallelism(Parallelism::Sequential)
        .detections();
    let full = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_slicing(false)
        .with_parallelism(Parallelism::Threads(threads))
        .detections();
    let sliced = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_slicing(true)
        .with_parallelism(Parallelism::Threads(threads))
        .detections();
    let planned = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_parallelism(Parallelism::Threads(threads))
        .detections();
    assert_eq!(scalar, full, "{}: full pass diverged from scalar", program.name());
    assert_eq!(full, planned, "{}: planned engine diverged (threads={threads})", program.name());
    for (i, (f, s)) in full.iter().zip(&sliced).enumerate() {
        assert_eq!(
            f,
            s,
            "{}: sliced verdict diverged on {} (threads={})",
            program.name(),
            universe.faults()[i],
            threads
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// SLICED ≡ FULL (March): every library algorithm, random geometry
    /// (BOM and 4-bit WOM), background and thread count, over the full
    /// mixed universe.
    #[test]
    fn march_sliced_campaign_equals_full(
        test_idx in 0usize..15,
        bg in 0u64..16,
        n in 2usize..12,
        wom in any::<bool>(),
        threads in 1usize..5,
    ) {
        let geom = if wom { Geometry::wom(n, 4).expect("geometry") } else { Geometry::bom(n) };
        let bg = bg & geom.data_mask();
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program =
            Executor::new().with_background(bg).stop_at_first_mismatch().compile(test, geom);
        assert_sliced_equals_full(&u, &program, threads);
    }

    /// SLICED ≡ FULL (π-test): the compiled π program exercises the
    /// accumulator ops the slicer must treat as always-active.
    #[test]
    fn pi_sliced_campaign_equals_full(
        s0 in 0u64..16,
        s1 in 0u64..16,
        n in 3usize..14,
        threads in 1usize..5,
    ) {
        let field = Field::new(4, 0b1_0011).expect("GF(16)");
        let pi = PiTest::new(field, &[1, 2, 2], &[s0, s1]).expect("config");
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let program = pi.compile(geom).expect("compile");
        assert_sliced_equals_full(&u, &program, threads);
    }

    /// SLICED ≡ FULL (PRT / bit-plane schemes): stale-channel pre-reads
    /// and multi-round plane programs.
    #[test]
    fn scheme_sliced_campaign_equals_full(
        which in 0usize..4,
        n in 3usize..12,
        threads in 1usize..5,
    ) {
        if which < 2 {
            let field = Field::new(1, 0b11).expect("GF(2)");
            let scheme = if which == 0 {
                PrtScheme::standard3(field).expect("scheme")
            } else {
                PrtScheme::standard4(field).expect("scheme")
            };
            let geom = Geometry::bom(n);
            let u = mixed_universe(geom);
            let program = scheme.compile(geom).expect("compile");
            assert_sliced_equals_full(&u, &program, threads);
        } else {
            let rounds = which - 1; // 1 or 2
            let scheme =
                PlaneScheme::standard(Poly2::from_bits(0b111), 4, rounds).expect("scheme");
            let geom = Geometry::wom(n, 4).expect("geometry");
            let u = mixed_universe(geom);
            let program = scheme.compile(geom).expect("compile");
            assert_sliced_equals_full(&u, &program, threads);
        }
    }

    /// SLICED ≡ FULL (multi-background): the `ProgramBank` dispatch path
    /// with the per-fault early exit across backgrounds — the sliced
    /// interpreter re-derives each background's activity index.
    #[test]
    fn multibackground_sliced_equals_full(
        test_idx in 0usize..15,
        n in 2usize..10,
        threads in 1usize..5,
    ) {
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let ex = Executor::new().stop_at_first_mismatch();
        let bgs = prt_march::coverage::standard_backgrounds(4);
        let bank = prt_march::coverage::compile_bank(test, geom, &ex, &bgs);
        let threads = test_threads(threads);
        let full = Campaign::new(&u, &bank)
            .with_backgrounds(&bgs)
            .with_slicing(false)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        let sliced = Campaign::new(&u, &bank)
            .with_backgrounds(&bgs)
            .with_slicing(true)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        prop_assert_eq!(full, sliced, "{} n={}", test.name(), n);
    }

    /// SLICED OBSERVED ≡ FULL OBSERVED: at the interpreter level, the
    /// sliced observed pass must reproduce the full pass **exactly** —
    /// the observed response planes (gap reads spliced from the
    /// reference), every per-lane execution summary including the
    /// first-mismatch op index, and the detection chunk — for random
    /// fault chunks at both K = 1 and K = 8.
    #[test]
    fn sliced_observed_stream_is_bit_identical(
        test_idx in 0usize..15,
        n in 2usize..10,
        wom in any::<bool>(),
        offset in 0usize..64,
    ) {
        fn check_chunks<const K: usize>(program: &TestProgram, faults: &[FaultKind]) {
            let geom = program.geometry();
            let index = ActivityIndex::build(program);
            for chunk in faults.chunks(LaneRam::<K>::LANES) {
                let mut active = ActiveSet::new();
                for f in chunk {
                    active.insert_fault(f);
                }
                active.finalize(&index);
                let mut full_ram = LaneRam::<K>::new(geom);
                let mut sliced_ram = LaneRam::<K>::new(geom);
                for (lane, f) in chunk.iter().enumerate() {
                    full_ram.inject(f.clone(), lane).expect("inject");
                    sliced_ram.inject(f.clone(), lane).expect("inject");
                }
                let mut full_execs = vec![Execution::default(); LaneRam::<K>::LANES];
                let mut sliced_execs = full_execs.clone();
                let mut full_stream: Vec<Vec<u64>> = Vec::new();
                let mut sliced_stream: Vec<Vec<u64>> = Vec::new();
                let full_det = program
                    .try_execute_batch_observed(&mut full_ram, &mut full_execs, &mut |p| {
                        full_stream
                            .push((0..LaneRam::<K>::LANES).map(|l| lane_word(p, l)).collect());
                    })
                    .expect("valid batch");
                let sliced_det = program
                    .try_execute_batch_observed_sliced(
                        &mut sliced_ram,
                        &index,
                        &active,
                        &mut sliced_execs,
                        &mut |p| {
                            sliced_stream
                                .push((0..LaneRam::<K>::LANES).map(|l| lane_word(p, l)).collect());
                        },
                    )
                    .expect("valid batch");
                assert_eq!(full_det, sliced_det, "detection chunk diverged (K={K})");
                assert_eq!(full_execs, sliced_execs, "execution summaries diverged (K={K})");
                assert_eq!(
                    full_stream, sliced_stream,
                    "observed response planes diverged (K={K})"
                );
            }
        }
        let geom = if wom { Geometry::wom(n, 4).expect("geometry") } else { Geometry::bom(n) };
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().compile(test, geom);
        // Rotate the universe so chunks mix families across cases.
        let mut faults = u.faults().to_vec();
        let pivot = offset % faults.len().max(1);
        faults.rotate_left(pivot);
        check_chunks::<1>(&program, &faults);
        check_chunks::<8>(&program, &faults);
    }

    /// ASSEMBLY-ORDER INVARIANCE: the locality-sorted chunk assembly the
    /// sliced scheduler uses must be invisible in the published coverage
    /// report — sliced, full-pass and planned runs (different batch
    /// compositions entirely) produce identical reports at any thread
    /// count, and so do the three over a pre-shuffled fault list.
    #[test]
    fn reports_invariant_under_chunk_assembly(
        test_idx in 0usize..15,
        n in 4usize..10,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let geom = Geometry::bom(n);
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().stop_at_first_mismatch().compile(test, geom);
        let threads = test_threads(threads);
        let full = Campaign::new(&u, &program)
            .with_name("assembly")
            .with_slicing(false)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        let sliced = Campaign::new(&u, &program)
            .with_name("assembly")
            .with_slicing(true)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        let planned = Campaign::new(&u, &program)
            .with_name("assembly")
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        prop_assert_eq!(&full, &sliced, "report changed under locality assembly");
        prop_assert_eq!(&full, &planned, "report changed under the planned engine");
        // A shuffled universe: chunk compositions change again; each
        // engine must still agree with the other on the permuted list.
        let mut shuffled = u.faults().to_vec();
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut shuffled);
        let full_shuffled = Campaign::over(geom, &shuffled, &program)
            .with_name("assembly")
            .with_slicing(false)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        let sliced_shuffled = Campaign::over(geom, &shuffled, &program)
            .with_name("assembly")
            .with_slicing(true)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        let planned_shuffled = Campaign::over(geom, &shuffled, &program)
            .with_name("assembly")
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        prop_assert_eq!(&full_shuffled, &sliced_shuffled);
        prop_assert_eq!(&full_shuffled, &planned_shuffled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CHECKPOINT INVARIANCE: slicing is deliberately excluded from the
    /// checkpoint fingerprint — a campaign checkpointed mid-run under one
    /// slicing setting resumes under the OTHER setting (and a different
    /// thread count) to a report bit-identical to an uninterrupted run,
    /// from any rewound prefix (a prefix that need not align with either
    /// engine's chunk boundaries).
    #[test]
    fn checkpoint_resumes_across_slicing_settings(
        n in 6usize..10,
        cut_permille in 0usize..1000,
        every in 5usize..60,
        threads in 1usize..5,
        first_sliced in any::<bool>(),
    ) {
        let u = mixed_universe(Geometry::bom(n));
        let program = Executor::new().compile(&march_library::march_c_minus(), u.geometry());
        let baseline = Campaign::new(&u, &program).with_name("sliced-ckpt").run();
        let path = temp_ckpt("slice");
        let full = Campaign::new(&u, &program)
            .with_name("sliced-ckpt")
            .with_slicing(first_sliced)
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &full);
        let fp = checkpoint::peek_fingerprint(&path).unwrap();
        let saved: Vec<bool> = checkpoint::load_records(&path, fp, u.len()).unwrap().unwrap();
        let cut = saved.len() * cut_permille / 1000;
        checkpoint::save_records(&path, fp, u.len(), &saved[..cut]).unwrap();
        let resumed = Campaign::new(&u, &program)
            .with_name("sliced-ckpt")
            .with_slicing(!first_sliced)
            .with_parallelism(Parallelism::Threads(test_threads(threads)))
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &resumed);
        let _ = std::fs::remove_file(&path);
    }

    /// SLICED DICTIONARY ≡ SCALAR SWEEP: every per-fault signature and
    /// execution summary of a dictionary measurement must match the
    /// scalar `collect` sweep exactly (equal observations index to equal
    /// statistics) — for the planned `FaultDictionary::build`, which runs
    /// these dense universes on the full pass, and for measurement
    /// campaigns forced onto each engine, the sliced one over
    /// locality-ordered batches included. A measurement checkpointed under
    /// one forced engine, rewound to an arbitrary prefix and resumed under
    /// the other at another thread count must land on the same
    /// observations.
    #[test]
    fn sliced_dictionary_build_equals_scalar(
        test_idx in 0usize..3,
        n in 6usize..14,
        threads in 1usize..5,
        cut_permille in 0usize..1000,
        every in 5usize..60,
        first_sliced in any::<bool>(),
    ) {
        let geom = Geometry::bom(n);
        let u = mixed_universe(geom);
        let tests =
            [march_library::march_diag(), march_library::march_c_minus(), march_library::mats_plus()];
        let program = Executor::new().compile(&tests[test_idx], geom);
        let poly = Poly2::from_bits(0b1_0001_1011);
        let scalar = scalar_observations(&u, &program, poly);
        let threads = test_threads(threads);
        let planned = FaultDictionary::build(&u, &program, poly, Parallelism::Threads(threads))
            .expect("planned batched build");
        prop_assert_eq!(scalar.len(), planned.observations().len());
        for (i, (s, b)) in scalar.iter().zip(planned.observations()).enumerate() {
            prop_assert_eq!(
                s, b,
                "observation diverged on {} ({})", &u.faults()[i], tests[test_idx].name()
            );
        }
        let collector = SignatureCollector::new(&program, poly).expect("collector");
        let (lanes, one) = (observe_lanes(&collector, &program), observe_one(&collector, &program));
        let fingerprint = || FaultDictionary::fingerprint(&u, &program, poly);
        let campaign = |sliced: bool, threads: usize| {
            Campaign::new(&u, &program)
                .with_slicing(sliced)
                .with_parallelism(Parallelism::Threads(threads))
        };
        for sliced in [true, false] {
            let (forced, _) =
                campaign(sliced, threads).try_measure(fingerprint, &lanes, &one).expect("forced");
            prop_assert_eq!(&scalar, &forced, "{} forced sliced {}", tests[test_idx].name(), sliced);
        }
        let path = temp_ckpt("dict-slice");
        let (first, _) = campaign(first_sliced, threads)
            .with_checkpoint(&path, every)
            .try_measure(fingerprint, &lanes, &one)
            .expect("checkpointed measurement");
        prop_assert_eq!(&scalar, &first);
        let fp = checkpoint::peek_fingerprint(&path).unwrap();
        let saved: Vec<Observation> = checkpoint::load_records(&path, fp, u.len()).unwrap().unwrap();
        let cut = saved.len() * cut_permille / 1000;
        checkpoint::save_records(&path, fp, u.len(), &saved[..cut]).unwrap();
        let (resumed, _) = campaign(!first_sliced, test_threads(threads % 4 + 1))
            .with_checkpoint(&path, every)
            .try_measure(fingerprint, &lanes, &one)
            .expect("resumed measurement");
        prop_assert_eq!(&scalar, &resumed);
        let _ = std::fs::remove_file(&path);
    }
}

/// A March-like walk on `ports` ports: for each data word, every cycle
/// writes `ports` consecutive cells, then the cells are read back the
/// same way. A decoder fault whose extra cell is the next address folds two of
/// a cycle's writes onto one cell: a write-write conflict.
fn multi_port_walk(geom: Geometry, ports: usize) -> TestProgram {
    let mut b = ProgramBuilder::new(geom).with_name(format!("{ports}-port walk"));
    let cells = geom.cells() as u32;
    for data in [0b1111, 0] {
        let writes: Vec<_> = (0..cells).map(|addr| SlotOp::Write { addr, data }).collect();
        let reads: Vec<_> =
            (0..cells).map(|addr| SlotOp::ReadExpect { addr, expect: data }).collect();
        writes.chunks(ports).chain(reads.chunks(ports)).for_each(|cycle| b.cyclen(cycle));
    }
    b.build()
}

/// MULTI-PORT SLICED DICTIONARY ≡ SCALAR SWEEP: single-cell and decoder
/// faults on WOM 256×4 under dual- and quad-port walks. Lane chunks here
/// span a fraction of the array, so the planned dictionary build runs the
/// collector's sliced pass: it skips cycles, absorbs their reference
/// responses and freezes the lanes whose decoder fault makes a
/// write-write conflict. Every observation must equal the scalar sweep's,
/// planned and on both forced engines.
#[test]
fn multi_port_sparse_dictionary_equals_scalar() {
    let geom = Geometry::wom(256, 4).expect("geometry");
    let spec = UniverseSpec { af: true, ..UniverseSpec::single_cell() };
    let u = FaultUniverse::enumerate(geom, &spec);
    let poly = Poly2::from_bits(0b1_0001_1011);
    let threads = test_threads(2);
    for program in [multi_port_walk(geom, 2), multi_port_walk(geom, 4)] {
        let scalar = scalar_observations(&u, &program, poly);
        let conflicts = scalar.iter().filter(|o| o.exec == Execution::default()).count();
        assert!(conflicts > 0, "{}: no trial hit a write-write conflict", program.name());
        let planned = FaultDictionary::build(&u, &program, poly, Parallelism::Threads(threads))
            .expect("planned build");
        assert_eq!(scalar, planned.observations(), "{} planned", program.name());
        let collector = SignatureCollector::new(&program, poly).expect("collector");
        for sliced in [true, false] {
            let (forced, _) = Campaign::new(&u, &program)
                .with_ports(program.ports())
                .with_slicing(sliced)
                .with_parallelism(Parallelism::Threads(threads))
                .try_measure(
                    || 0,
                    observe_lanes(&collector, &program),
                    observe_one(&collector, &program),
                )
                .expect("forced measurement");
            assert_eq!(scalar, forced, "{} forced sliced {sliced}", program.name());
        }
    }
}

/// The single-thread fast path (no claim counter, no fan-out) is verdict-
/// and report-identical to the multi-worker schedule, sliced and full —
/// the guard for the `workers <= 1` bypass.
#[test]
fn single_thread_fast_path_matches_fanout() {
    let u = mixed_universe(Geometry::bom(12));
    let program = Executor::new().compile(&march_library::march_c_minus(), u.geometry());
    for slicing in [false, true] {
        let sequential = Campaign::new(&u, &program)
            .with_name("fast-path")
            .with_slicing(slicing)
            .with_parallelism(Parallelism::Sequential)
            .run();
        let threaded = Campaign::new(&u, &program)
            .with_name("fast-path")
            .with_slicing(slicing)
            .with_parallelism(Parallelism::Threads(4))
            .run();
        assert_eq!(sequential, threaded, "slicing={slicing}");
    }
}
