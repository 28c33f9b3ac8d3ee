//! Batch-vs-scalar differential property tests: the lane-sliced batch
//! engine must produce **bit-identical verdicts** to the scalar campaign
//! engine, per fault, over full BOM/WOM universes, for every compiled
//! test family (March, π, PRT scheme, bit-plane scheme), every fault
//! family — including the read/write-logic (RDF/DRDF/IRF/WDF),
//! stuck-open and address-decoder families that batch since the decoder
//! model landed — any lane position and any thread count; and batched
//! signature collection, per lane chunk and through the campaign's
//! measurement terminal, must reproduce the scalar per-fault MISR
//! signatures exactly, single- and multi-port. The scalar path — a
//! closure over the same program, or a `map_trials` sweep of
//! `SignatureCollector::collect` — is the oracle; these are the
//! acceptance tests of the lane-sliced refactor.

mod common;

use common::{
    mixed_universe, observe_lanes, observe_one, scalar, scalar_observations, test_threads,
};
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

/// `SignatureCollector::collect_batch` over `u`'s faults packed in list
/// order into `64·K`-lane chunks, one `LaneRam<K>` per chunk.
fn collected_at<const K: usize>(
    u: &FaultUniverse,
    collector: &SignatureCollector,
    program: &TestProgram,
) -> Vec<Observation> {
    let mut out = Vec::with_capacity(u.len());
    for chunk in u.faults().chunks(LaneRam::<K>::LANES) {
        let mut lanes = LaneRam::<K>::with_ports(u.geometry(), program.ports()).expect("ports");
        for (lane, fault) in chunk.iter().enumerate() {
            lanes.inject(fault.clone(), lane).expect("inject");
        }
        collector.collect_batch(program, &mut lanes, &mut out);
    }
    out
}

/// The 512-lane arms: a measurement campaign over `u` at `threads`
/// workers, planned with `collect_batch` as the lane trial, or forced
/// sliced with `observe_lanes`, which runs the slice the plan hands it.
fn measured(
    u: &FaultUniverse,
    collector: &SignatureCollector,
    program: &TestProgram,
    threads: usize,
    sliced: bool,
) -> Vec<Observation> {
    let campaign = Campaign::new(u, program)
        .with_ports(program.ports())
        .with_parallelism(Parallelism::Threads(threads));
    let one = observe_one(collector, program);
    if sliced {
        campaign.with_slicing(true).try_measure(|| 0, observe_lanes(collector, program), one)
    } else {
        campaign.try_measure(
            || 0,
            |lanes, _slice, out| collector.collect_batch(program, lanes, out),
            one,
        )
    }
    .expect("measurement sweep")
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BATCHED MEASUREMENT ≡ SCALAR MEASUREMENT: batched signature
    /// collection must reproduce, per fault index, the exact MISR
    /// signature and execution summary the scalar `collect` path measures
    /// — for random March programs, sizes, cell widths, MISR polynomials
    /// (degree 1..=64, random middle taps, `g0 = 1`) and thread counts, at
    /// every lane-chunk width: 64 and 256 lanes per `collect_batch` chunk,
    /// 512 through the measurement campaign, planned and forced onto the
    /// sliced observed pass over locality-ordered batches. Every case puts the cell
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
            for (arm, batched) in [
                ("64 lanes", collected_at::<1>(&u, &collector, &program)),
                ("256 lanes", collected_at::<4>(&u, &collector, &program)),
                ("512 lanes planned", measured(&u, &collector, &program, threads, false)),
                ("512 lanes sliced", measured(&u, &collector, &program, threads, true)),
            ] {
                for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
                    prop_assert_eq!(
                        s, b,
                        "{}: observation diverged on {} (m={}, poly={:?}, {}, threads={})",
                        test.name(), &u.faults()[i], m, poly, arm, threads
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
/// — at every lane-chunk width, and at every thread count through the
/// measurement campaign, planned and forced onto the sliced observed
/// pass.
#[test]
fn multi_port_signature_map_batched_equals_scalar() {
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
            for (arm, batched) in [
                ("64 lanes", collected_at::<1>(&u, &collector, &program)),
                ("256 lanes", collected_at::<4>(&u, &collector, &program)),
                ("512 lanes planned", measured(&u, &collector, &program, threads, false)),
                ("512 lanes sliced", measured(&u, &collector, &program, threads, true)),
            ] {
                for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
                    assert_eq!(
                        s,
                        b,
                        "{}: observation diverged on {} ({arm}, threads={threads})",
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
/// lane-batched measurement campaign must carry, per fault, the observation
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

/// A DICTIONARY OVER A NON-ZERO BACKGROUND: March compilers declare the
/// data background they bake in, and a campaign refuses a program whose
/// background differs from its own (`BackgroundMismatch`). The build must
/// therefore run its campaign on the program's background — and still
/// carry the scalar sweep's observations, on BOM and on WOM.
#[test]
fn dictionary_over_nonzero_background_equals_scalar() {
    let poly = Poly2::from_bits(0b1_0001_1011);
    for (geom, bg) in [(Geometry::bom(12), 1u64), (Geometry::wom(8, 4).expect("geometry"), 0b0101)]
    {
        let u = mixed_universe(geom);
        let program =
            Executor::new().with_background(bg).compile(&march_library::march_diag(), geom);
        assert_eq!(program.background(), Some(bg));
        let scalar = scalar_observations(&u, &program, poly);
        for threads in [1usize, 4] {
            let built = FaultDictionary::build(&u, &program, poly, Parallelism::Threads(threads))
                .expect("non-zero background build");
            assert_eq!(scalar, built.observations(), "{geom:?}, bg={bg:#x}, threads={threads}");
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

/// Runs `campaign` once for its verdicts, streamed through a progress
/// sink, and its report, so both come from the same run.
fn verdicts_and_report<R: FaultRunner>(campaign: Campaign<'_, R>) -> (Vec<bool>, CoverageReport) {
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&seen);
    let report = campaign
        .with_progress(usize::MAX, move |seg: SegmentProgress<'_>| {
            sink.lock().expect("sink").extend_from_slice(seg.verdicts);
        })
        .run();
    let verdicts = std::mem::take(&mut *seen.lock().expect("sink"));
    (verdicts, report)
}

/// WARM DEVICES ≡ FRESH DEVICES: campaigns and dictionary builds lease
/// their devices from one process-wide cache keyed by geometry and port
/// count, so each run below starts on devices earlier runs returned. The
/// runs interleave detection and measurement over BOM n and WOM n×4 —
/// two geometries of one cell count — with 1-port March programs, a
/// multi-background bank and 2-port `CycleN` π programs, on the planned
/// engine and both forced ones, plus one chaos-killed batch, whose
/// device must be dropped rather than returned. Every run matches its
/// fresh-device oracle (`detections_reference`, `scalar_observations`),
/// and every clean run degrades no batch: a device leased under the
/// wrong key fails its lane pass and degrades to exact scalar records,
/// which verdict equality alone would not see.
#[test]
fn cached_devices_match_fresh_devices_across_geometries_and_ports() {
    let threads = test_threads(2);
    let n = 12;
    let (bom, wom) = (Geometry::bom(n), Geometry::wom(n, 4).expect("geometry"));
    let poly = Poly2::from_bits(0b1_0001_1011);
    let ex = Executor::new().stop_at_first_mismatch();
    let march = ex.compile(&march_library::march_c_minus(), bom);
    let backgrounds = prt_march::coverage::standard_backgrounds(4);
    let bank =
        prt_march::coverage::compile_bank(&march_library::march_c_minus(), wom, &ex, &backgrounds);
    let gf2 = Field::new(1, 0b11).expect("GF(2)");
    let dual_bom = PiTest::new(gf2, &[1, 1, 1], &[0, 1])
        .expect("config")
        .compile_dual_port(bom, None)
        .expect("compile dual");
    let dual_wom = PiTest::new(gf16(), &[1, 2, 2], &[3, 7])
        .expect("config")
        .compile_dual_port(wom, None)
        .expect("compile dual");
    let diag_bom = Executor::new().compile(&march_library::march_diag(), bom);
    let diag_wom = Executor::new().compile(&march_library::march_diag(), wom);
    let (u_bom, u_wom) = (mixed_universe(bom), mixed_universe(wom));
    fn configured<R: FaultRunner>(
        campaign: Campaign<'_, R>,
        threads: usize,
        slicing: Option<bool>,
    ) -> Campaign<'_, R> {
        let campaign = campaign.with_parallelism(Parallelism::Threads(threads));
        match slicing {
            Some(enabled) => campaign.with_slicing(enabled),
            None => campaign,
        }
    }
    fn detect<R: FaultRunner>(
        case: &str,
        campaign: Campaign<'_, R>,
        threads: usize,
        slicing: Option<bool>,
    ) {
        let reference = campaign.detections_reference();
        let (verdicts, report) = verdicts_and_report(configured(campaign, threads, slicing));
        assert_eq!(verdicts, reference, "{case}, slicing {slicing:?}: verdicts diverged");
        assert_eq!(report.degraded_batches(), 0, "{case}, slicing {slicing:?}: batch degraded");
    }
    let measure = |case: &str, slicing: Option<bool>, u: &FaultUniverse, program: &TestProgram| {
        let collector = SignatureCollector::new(program, poly).expect("collector");
        let campaign =
            configured(Campaign::new(u, program).with_ports(program.ports()), threads, slicing);
        let (observed, degraded) = campaign
            .try_measure(|| 0, observe_lanes(&collector, program), observe_one(&collector, program))
            .expect("measurement sweep");
        let scalar = scalar_observations(u, program, poly);
        assert_eq!(observed, scalar, "{case}, slicing {slicing:?}: observations diverged");
        assert_eq!(degraded, 0, "{case}, slicing {slicing:?}: batch degraded");
    };

    for slicing in [None, Some(true), Some(false)] {
        detect("BOM March C-", Campaign::new(&u_bom, &march), threads, slicing);
        let banked = Campaign::new(&u_wom, &bank).with_backgrounds(&backgrounds);
        detect("WOM March C- bank", banked, threads, slicing);
        measure("BOM March diag", slicing, &u_bom, &diag_bom);
        let dual = Campaign::new(&u_bom, &dual_bom).with_ports(2);
        detect("BOM dual-port π", dual, threads, slicing);
        measure("WOM March diag", slicing, &u_wom, &diag_wom);
        detect("WOM dual-port π", Campaign::new(&u_wom, &dual_wom).with_ports(2), threads, slicing);
        measure("WOM dual-port π", slicing, &u_wom, &dual_wom);

        // A killed batch degrades to exact verdicts, and its device is
        // dropped: the clean runs after it degrade nothing.
        let plan = std::sync::Arc::new(prt_sim::chaos::ChaosPlan::new().panic_on_batch(0));
        let killed = configured(Campaign::new(&u_bom, &march).with_chaos(plan), threads, slicing);
        let (verdicts, report) = verdicts_and_report(killed);
        assert_eq!(verdicts, Campaign::new(&u_bom, &march).detections_reference());
        assert!(report.degraded_batches() >= 1, "slicing {slicing:?}: the kill must degrade");
    }
}
