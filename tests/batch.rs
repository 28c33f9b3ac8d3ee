//! Batch-vs-scalar differential property tests: the lane-sliced batch
//! engine must produce **bit-identical verdicts** to the scalar campaign
//! engine, per fault, over full BOM/WOM universes, for every compiled
//! test family (March, π, PRT scheme, bit-plane scheme), every fault
//! family — including the read/write-logic (RDF/DRDF/IRF/WDF),
//! stuck-open and address-decoder families that batch since the decoder
//! model landed — any lane position and any thread count; and the
//! batched `map_trials` measurement mode must reproduce the scalar
//! per-fault MISR signatures exactly, single- and multi-port. The scalar
//! path — a closure over the same program, or a `map_trials` sweep of
//! `SignatureCollector::collect` — is the oracle; these are the
//! acceptance tests of the lane-sliced refactor.

mod common;

use common::{mixed_universe, scalar, scalar_observations, test_threads};
use proptest::prelude::*;
use prt_suite::prelude::*;

fn gf16() -> Field {
    Field::new(4, 0b1_0011).expect("GF(16)")
}

/// Batched (given thread count) vs scalar-sequential verdicts of the same
/// campaign must be identical.
fn assert_batch_equals_scalar(universe: &FaultUniverse, program: &TestProgram, threads: usize) {
    let threads = test_threads(threads);
    let backgrounds = [program.background().unwrap_or(0)];
    let scalar = Campaign::new(universe, scalar(program))
        .with_backgrounds(&backgrounds)
        .with_parallelism(Parallelism::Sequential)
        .detections();
    let batched = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_parallelism(Parallelism::Threads(threads))
        .detections();
    for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
        assert_eq!(
            s,
            b,
            "{}: verdict diverged on {} (threads={})",
            program.name(),
            universe.faults()[i],
            threads
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BATCH ≡ SCALAR (March): every library algorithm, random geometry
    /// (BOM and 4-bit WOM), background and thread count, over the full
    /// mixed universe.
    #[test]
    fn march_batch_campaign_equals_scalar(
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
        let ex = Executor::new().with_background(bg).stop_at_first_mismatch();
        let program = ex.compile(test, geom);
        assert_batch_equals_scalar(&u, &program, threads);
    }

    /// BATCH ≡ SCALAR (March, multi-background WOM): the `ProgramBank`
    /// dispatch path with the per-fault early exit across backgrounds.
    #[test]
    fn march_multibackground_batch_equals_scalar(
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
        let scalar = Campaign::new(&u, scalar(&bank))
            .with_backgrounds(&bgs)
            .with_parallelism(Parallelism::Sequential)
            .detections();
        let batched = Campaign::new(&u, &bank)
            .with_backgrounds(&bgs)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        prop_assert_eq!(scalar, batched, "{} n={}", test.name(), n);
    }

    /// BATCH ≡ SCALAR (π-test): random seeds and sizes; the compiled π
    /// program exercises the accumulator ops (AccSet/ReadAcc/WriteAcc)
    /// whose lanes the batch interpreter widens to per-trial bit-planes.
    #[test]
    fn pi_batch_campaign_equals_scalar(
        s0 in 0u64..16,
        s1 in 0u64..16,
        n in 3usize..14,
        threads in 1usize..5,
    ) {
        let pi = PiTest::new(gf16(), &[1, 2, 2], &[s0, s1]).expect("config");
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let program = pi.compile(geom).expect("compile");
        assert_batch_equals_scalar(&u, &program, threads);
    }

    /// BATCH ≡ SCALAR (PRT schemes): the flat scheme program including
    /// stale-channel pre-reads and the final readback sweep.
    #[test]
    fn scheme_batch_campaign_equals_scalar(
        which in 0usize..4,
        n in 3usize..14,
        threads in 1usize..5,
    ) {
        let field = Field::new(1, 0b11).expect("GF(2)");
        let scheme = match which {
            0 => PrtScheme::standard3(field).expect("scheme"),
            1 => PrtScheme::standard4(field).expect("scheme"),
            2 => PrtScheme::plain(field, 3).expect("scheme"),
            _ => PrtScheme::plain(field, 5).expect("scheme"),
        };
        let geom = Geometry::bom(n);
        let u = mixed_universe(geom);
        let program = scheme.compile(geom).expect("compile");
        assert_batch_equals_scalar(&u, &program, threads);
    }

    /// BATCH ≡ SCALAR (bit-plane schemes): multi-round GF(2) plane
    /// programs on word-oriented memories.
    #[test]
    fn plane_batch_campaign_equals_scalar(
        rounds in 1usize..4,
        n in 3usize..10,
        threads in 1usize..5,
    ) {
        let scheme = PlaneScheme::standard(Poly2::from_bits(0b111), 4, rounds).expect("scheme");
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let program = scheme.compile(geom).expect("compile");
        assert_batch_equals_scalar(&u, &program, threads);
    }

    /// Any lane position, any chunk width: a single batchable fault placed
    /// in an arbitrary lane of an otherwise empty `LaneRam<K>` yields
    /// exactly the scalar verdict in exactly that lane — and nothing
    /// anywhere else. K = 1 probes the original 64-lane path; K = 8 probes
    /// the same fault in a high word of the 512-lane chunk.
    #[test]
    fn any_lane_position_matches_scalar(
        fault_pick in 0usize..100_000,
        lane in 0usize..LANES,
        test_idx in 0usize..15,
        n in 2usize..12,
    ) {
        fn check_at<const K: usize>(
            program: &TestProgram,
            fault: &FaultKind,
            lane: usize,
            want: bool,
        ) {
            let mut lanes = LaneRam::<K>::new(program.geometry());
            lanes.inject(fault.clone(), lane).expect("inject");
            let got = program.try_detect_batch(&mut lanes).expect("valid batch");
            assert_eq!(got.get(lane), want, "{fault} in lane {lane} (K={K})");
            assert_eq!(
                got & !LaneChunk::single(lane),
                LaneChunk::<K>::ZERO,
                "inactive lanes must stay silent (K={K})"
            );
        }
        let geom = Geometry::wom(n, 4).expect("geometry");
        // Every modelled family lane-batches: the whole universe is the pool.
        let batchable: Vec<FaultKind> = mixed_universe(geom).faults().to_vec();
        let fault = batchable[fault_pick % batchable.len()].clone();
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().stop_at_first_mismatch().compile(test, geom);
        let mut scalar = Ram::new(geom);
        scalar.inject(fault.clone()).expect("inject");
        let want = program.detect(&mut scalar);
        check_at::<1>(&program, &fault, lane, want);
        check_at::<8>(&program, &fault, lane + 7 * LANES, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BATCHED MEASUREMENT ≡ SCALAR MEASUREMENT: `try_map_trials_batched`
    /// signature collection must reproduce, per fault index, the exact
    /// MISR signature and execution summary the scalar `collect` path
    /// measures — for random March programs, sizes, cell widths, MISR
    /// polynomials (degree 1..=64, random middle taps, `g0 = 1`) and
    /// thread counts, at every lane-chunk width. Every case puts the cell
    /// width `m` below, at and above the register width `k`, so the
    /// bit-sliced register absorbs zero-padded, exact and truncated words.
    #[test]
    fn signature_map_batched_equals_scalar(
        test_idx in 0usize..15,
        n in 2usize..10,
        threads in 1usize..5,
        width in 1u32..9,
        degree in 1u32..65,
        taps in any::<u64>(),
    ) {
        fn batched_at<const K: usize>(
            geom: Geometry,
            u: &FaultUniverse,
            collector: &SignatureCollector,
            program: &TestProgram,
            threads: usize,
        ) -> Vec<Observation> {
            prt_sim::try_map_trials_batched::<K, _, _, _>(
                geom,
                1,
                u.faults(),
                Parallelism::Threads(threads),
                |lanes, out| collector.collect_batch(program, lanes, out),
                |_, ram| collector.collect(program, ram).expect("single-port run"),
            )
            .expect("batched sweep")
            .0
        }
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let threads = test_threads(threads);
        // m < k, m = k and m > k (the last needs m ≥ 2).
        let wide = width.max(2);
        for (m, k) in [(width, degree.max(width + 1)), (width, width), (wide, 1 + degree % (wide - 1))]
        {
            let geom = if m == 1 { Geometry::bom(n) } else { Geometry::wom(n, m).expect("geometry") };
            let middle = (u128::from(taps) << 1) & ((1u128 << k) - 2);
            let poly = Poly2::from_bits((1u128 << k) | middle | 1);
            let u = mixed_universe(geom);
            let program = Executor::new().compile(test, geom);
            let collector = SignatureCollector::new(&program, poly).expect("collector");
            prop_assert_eq!(collector.width(), k);
            let scalar: Vec<Observation> =
                prt_sim::map_trials(geom, 1, u.len(), Parallelism::Sequential, |i, ram| {
                    ram.inject(u.faults()[i].clone()).expect("valid");
                    collector.collect(&program, ram).expect("single-port run")
                });
            for (lanes, batched) in [
                (64usize, batched_at::<1>(geom, &u, &collector, &program, threads)),
                (256, batched_at::<4>(geom, &u, &collector, &program, threads)),
                (512, batched_at::<8>(geom, &u, &collector, &program, threads)),
            ] {
                for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
                    prop_assert_eq!(
                        s, b,
                        "{}: observation diverged on {} (m={}, poly={:?}, lanes={}, threads={})",
                        test.name(), &u.faults()[i], m, poly, lanes, threads
                    );
                }
            }
        }
    }
}

/// MULTI-PORT BATCHED MEASUREMENT ≡ SCALAR MEASUREMENT: the dual- and
/// quad-port π programs over a universe with decoder faults, some of
/// which fold one cycle's writes onto one cell. On those trials the
/// scalar `collect` returns the device error, which a dictionary records
/// as the escape observation (reference signature, default execution).
/// `collect_batch` freezes the same lanes and must substitute exactly
/// that observation, while every other lane keeps its scalar observation
/// — at every lane-chunk width and thread count.
#[test]
fn multi_port_signature_map_batched_equals_scalar() {
    fn batched_at<const K: usize>(
        u: &FaultUniverse,
        collector: &SignatureCollector,
        program: &TestProgram,
        threads: usize,
    ) -> Vec<Observation> {
        let escape = Observation { signature: collector.reference(), exec: Execution::default() };
        prt_sim::try_map_trials_batched::<K, _, _, _>(
            u.geometry(),
            program.ports(),
            u.faults(),
            Parallelism::Threads(threads),
            |lanes, out| collector.collect_batch(program, lanes, out),
            |_, ram| collector.collect(program, ram).unwrap_or(escape),
        )
        .expect("batched sweep")
        .0
    }
    let pi = PiTest::new(gf16(), &[1, 2, 2], &[3, 7]).expect("config");
    let geom = Geometry::wom(12, 4).expect("geometry");
    let u = mixed_universe(geom);
    let poly = Poly2::from_bits(0b1_0001_1011);
    for program in [
        pi.compile_dual_port(geom, None).expect("compile dual"),
        pi.compile_quad_port(geom).expect("compile quad"),
    ] {
        let collector = SignatureCollector::new(&program, poly).expect("collector");
        let escape = Observation { signature: collector.reference(), exec: Execution::default() };
        let mut conflicts = 0;
        let scalar: Vec<Observation> = u
            .faults()
            .iter()
            .map(|f| {
                let mut ram = Ram::with_ports(geom, program.ports()).expect("ports");
                ram.inject(f.clone()).expect("inject");
                collector.collect(&program, &mut ram).unwrap_or_else(|_| {
                    conflicts += 1;
                    escape
                })
            })
            .collect();
        assert!(conflicts > 0, "{}: no trial hit a write-write conflict", program.name());
        for threads in [1usize, 4].map(test_threads) {
            for (lanes, batched) in [
                (64usize, batched_at::<1>(&u, &collector, &program, threads)),
                (256, batched_at::<4>(&u, &collector, &program, threads)),
                (512, batched_at::<8>(&u, &collector, &program, threads)),
            ] {
                for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
                    assert_eq!(
                        s,
                        b,
                        "{}: observation diverged on {} (lanes={lanes}, threads={threads})",
                        program.name(),
                        &u.faults()[i]
                    );
                }
            }
        }
    }
}

/// MULTI-PORT BATCH ≡ INTERPRETED ORACLE: the batched campaign verdicts
/// of the compiled dual- and quad-port π programs must match the
/// interpreted runners (`run_dual_port` / `run_quad_port`) fault for
/// fault — device errors (multi-port write-write conflicts under decoder
/// faults) escape on both sides — on the forced sliced engine and on the
/// planned default. This is the acceptance property of the `CycleN`
/// batch interpreter: multi-port schedules used to be the whole scalar
/// remainder.
#[test]
fn multi_port_batch_matches_interpreted_oracle() {
    let pi = PiTest::new(gf16(), &[1, 2, 2], &[3, 7]).expect("config");
    let geom = Geometry::wom(12, 4).expect("geometry");
    let u = mixed_universe(geom);

    let dual = pi.compile_dual_port(geom, None).expect("compile dual");
    let dual_oracle: Vec<bool> = u
        .faults()
        .iter()
        .map(|f| {
            let mut ram = Ram::with_ports(geom, 2).expect("ports");
            ram.inject(f.clone()).expect("inject");
            pi.run_dual_port(&mut ram).map(|r| r.detected()).unwrap_or(false)
        })
        .collect();
    let quad = pi.compile_quad_port(geom).expect("compile quad");
    let quad_oracle: Vec<bool> = u
        .faults()
        .iter()
        .map(|f| {
            let mut ram = Ram::with_ports(geom, 4).expect("ports");
            ram.inject(f.clone()).expect("inject");
            pi.run_quad_port(&mut ram).map(|r| r.detected()).unwrap_or(false)
        })
        .collect();
    // The forced sliced engine, then the planned default (the full pass
    // on this dense universe).
    for (threads, sliced) in [(1usize, true), (1, false), (4, true), (4, false)] {
        let campaign = |program: &TestProgram, ports: usize| {
            let c = Campaign::over(geom, u.faults(), program)
                .with_ports(ports)
                .with_parallelism(Parallelism::Threads(threads));
            if sliced {
                c.with_slicing(true).detections()
            } else {
                c.detections()
            }
        };
        let case = format!("threads={threads}, forced sliced {sliced}");
        assert_eq!(dual_oracle, campaign(&dual, 2), "dual-port verdicts diverged ({case})");
        assert_eq!(quad_oracle, campaign(&quad, 4), "quad-port verdicts diverged ({case})");
    }
}

/// Every modelled fault family is lane-batchable: the whole mixed
/// universe injects into lane memories with **no scalar remainder**.
/// (The old `is_lane_batchable` partition predicate is gone — this
/// regression test is what proves the property it used to gate.)
#[test]
fn full_universe_is_entirely_batchable() {
    let u = mixed_universe(Geometry::wom(6, 4).expect("geometry"));
    for chunk in u.faults().chunks(LANES) {
        let mut lanes: LaneRam = LaneRam::new(u.geometry());
        for (lane, fault) in chunk.iter().enumerate() {
            lanes.inject(fault.clone(), lane).expect("every family injects");
        }
    }
}

/// A geometry-mismatched batch run is a LOUD configuration error — the
/// regression guard for the silent-zero-coverage bug, at the integration
/// level the campaign engine drives.
#[test]
fn geometry_mismatched_detect_batch_is_loud() {
    let program = Executor::new().compile(&march_library::march_c_minus(), Geometry::bom(16));
    let mut lanes: LaneRam = LaneRam::new(Geometry::bom(8));
    lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 0).expect("inject");
    assert_eq!(
        program.try_detect_batch(&mut lanes),
        Err(RamError::ProgramGeometryMismatch {
            compiled: Geometry::bom(16),
            device: Geometry::bom(8)
        })
    );
}

/// BATCHED DICTIONARY ≡ SCALAR SWEEP: a `FaultDictionary` built on the
/// lane-batched `map_trials` mode must carry, per fault, the observation
/// (MISR signature and execution summary) the scalar `collect` sweep
/// measures, over a universe spanning every family. Equal observations
/// index to equal statistics (the prt-diag unit test pins that step).
#[test]
fn dictionary_build_batched_equals_scalar() {
    let geom = Geometry::bom(16);
    let u = mixed_universe(geom);
    let program = Executor::new().compile(&march_library::march_diag(), geom);
    let poly = Poly2::from_bits(0b1_0001_1011);
    let scalar = scalar_observations(&u, &program, poly);
    for threads in [1usize, 4] {
        let batched = FaultDictionary::build(&u, &program, poly, Parallelism::Threads(threads))
            .expect("batched build");
        assert_eq!(scalar.len(), batched.observations().len());
        for (i, (s, b)) in scalar.iter().zip(batched.observations()).enumerate() {
            assert_eq!(
                s.signature,
                b.signature,
                "signature diverged on {} (threads={threads})",
                &u.faults()[i]
            );
            assert_eq!(s, b, "observation diverged on {}", &u.faults()[i]);
        }
    }
}

/// The aggregated coverage reports — the artifact campaigns publish —
/// must be identical between the batch and scalar engines for every
/// library March test over a mixed universe, at several thread counts.
#[test]
fn coverage_reports_identical_across_engines_and_threads() {
    let geom = Geometry::bom(16);
    let u = mixed_universe(geom);
    let ex = Executor::new().stop_at_first_mismatch();
    for test in march_library::all() {
        let program = ex.compile(&test, geom);
        let scalar = Campaign::new(&u, scalar(&program))
            .with_name(test.name())
            .with_parallelism(Parallelism::Sequential)
            .run();
        for threads in [1usize, 3, 8] {
            let batched = Campaign::new(&u, &program)
                .with_name(test.name())
                .with_parallelism(Parallelism::Threads(threads))
                .run();
            assert_eq!(scalar, batched, "{} threads={threads}", test.name());
        }
    }
}
