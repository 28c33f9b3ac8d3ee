//! Physical-topology property tests: the `Topology` algebra (round-trip,
//! composition) and the scrambled-campaign acceptance sweep — under any
//! generated scramble, the sliced, full-pass-batched and scalar engines
//! must agree bit-exactly on every verdict, at any thread count, and
//! dictionary observations (per-fault MISR signatures) must match
//! between the batched build and the scalar sweep. The identity
//! topology must be bit-identical to the pre-topology code paths,
//! checkpoints included; a checkpoint written under one scramble must
//! refuse to resume under another. A campaign over a lazy universe,
//! scrambled or not, must be bit-identical to one over the materialized
//! universe.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::{
    mixed_spec, scalar, scalar_observations, scrambled_universe, temp_ckpt, test_threads,
};
use proptest::prelude::*;
use prt_sim::chaos::ChaosPlan;
use prt_sim::checkpoint;
use prt_suite::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ROUND TRIP: `inv ∘ phys = id` and `phys ∘ inv = id` for generated
    /// topologies of arbitrary (not just power-of-two) size — and the
    /// forward map really is a permutation.
    #[test]
    fn generated_topologies_round_trip(n in 1usize..600, seed in any::<u64>()) {
        let t = Topology::generate(n, seed);
        prop_assert_eq!(t.cells(), n);
        let mut seen = vec![false; n];
        for a in 0..n {
            let p = t.to_physical(a);
            prop_assert!(p < n, "physical {p} out of range");
            prop_assert_eq!(t.to_logical(p), a, "inv ∘ phys must be identity");
            seen[p] = true;
        }
        prop_assert!(seen.into_iter().all(|b| b), "forward map must be onto");
        for p in 0..n {
            prop_assert_eq!(t.to_physical(t.to_logical(p)), p, "phys ∘ inv must be identity");
        }
    }

    /// COMPOSITION: `compose` is associative and agrees with sequential
    /// application of the operands' maps.
    #[test]
    fn composition_is_associative(
        n in 1usize..200,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
    ) {
        let a = Topology::generate(n, s1);
        let b = Topology::generate(n, s2);
        let c = Topology::generate(n, s3);
        let left = a.clone().compose(&b).unwrap().compose(&c).unwrap();
        let right = a.clone().compose(&b.clone().compose(&c).unwrap()).unwrap();
        for x in 0..n {
            let seq = c.to_physical(b.to_physical(a.to_physical(x)));
            prop_assert_eq!(left.to_physical(x), seq, "compose must apply left-to-right");
            prop_assert_eq!(right.to_physical(x), seq, "associativity");
            prop_assert_eq!(left.to_logical(seq), x, "composed inverse");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SCRAMBLED CAMPAIGNS: sliced == full == scalar verdicts, bit-exact,
    /// for random March families over scrambled mixed universes on BOM
    /// and WOM geometries, across thread counts.
    #[test]
    fn scrambled_sliced_equals_full_equals_scalar(
        test_idx in 0usize..15,
        n in 2usize..12,
        wom in any::<bool>(),
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let geom = if wom { Geometry::wom(n, 4).expect("geometry") } else { Geometry::bom(n) };
        let u = scrambled_universe(geom, seed);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().stop_at_first_mismatch().compile(test, geom);
        let threads = test_threads(threads);
        let scalar = Campaign::new(&u, scalar(&program))
            .with_parallelism(Parallelism::Sequential)
            .detections();
        let full = Campaign::new(&u, &program)
            .with_slicing(false)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        let sliced = Campaign::new(&u, &program)
            .with_slicing(true)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        for (i, s) in scalar.iter().enumerate() {
            prop_assert_eq!(
                *s, full[i],
                "{} seed={} threads={}: full-pass diverged on {}",
                test.name(), seed, threads, u.faults()[i]
            );
            prop_assert_eq!(
                *s, sliced[i],
                "{} seed={} threads={}: sliced diverged on {}",
                test.name(), seed, threads, u.faults()[i]
            );
        }
    }

    /// SCRAMBLED SIGNATURES: the batched dictionary build reproduces the
    /// scalar sweep's per-fault observations (MISR signature + execution
    /// summary) over scrambled universes, at multiple thread counts.
    #[test]
    fn scrambled_dictionary_observations_batch_equals_scalar(
        n in 2usize..10,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let geom = Geometry::bom(n);
        let u = scrambled_universe(geom, seed);
        let program = Executor::new().compile(&march_library::march_diag(), geom);
        let poly = Poly2::from_bits(0b1_0001_1011);
        let scalar = scalar_observations(&u, &program, poly);
        let batched = FaultDictionary::build(
            &u, &program, poly, Parallelism::Threads(test_threads(threads)),
        ).expect("batched build");
        prop_assert_eq!(&scalar[..], batched.observations(), "seed={}", seed);
        prop_assert_eq!(batched.topology(), u.topology());
    }
}

/// IDENTITY ≡ LEGACY: the identity topology yields bit-identical fault
/// lists, verdicts, coverage rows and checkpoint fingerprints to the
/// topology-free code path — a legacy checkpoint resumes under an
/// identity-topology campaign and vice versa.
#[test]
fn identity_topology_is_bit_identical_to_legacy() {
    let geom = Geometry::bom(12);
    let spec = UniverseSpec::full();
    let legacy = FaultUniverse::enumerate(geom, &spec);
    let id = FaultUniverse::enumerate_with(geom, &spec, Topology::identity(12));
    assert_eq!(legacy.faults(), id.faults(), "identity enumeration must be bit-identical");
    let program =
        Executor::new().stop_at_first_mismatch().compile(&march_library::march_c_minus(), geom);
    let a = Campaign::new(&legacy, &program).run();
    let b = Campaign::new(&id, &program).run();
    assert_eq!(a.rows(), b.rows(), "identity coverage must be bit-identical");
    // Checkpoint interchange: the fingerprints are equal, so a file
    // written by the legacy path is adopted by the identity-topology
    // campaign (and explicitly declaring identity changes nothing).
    let path = temp_ckpt("identity");
    let first = Campaign::new(&legacy, &program).with_checkpoint(&path, 16).run();
    let resumed = Campaign::new(&id, &program)
        .with_topology(Topology::identity(12))
        .with_checkpoint(&path, 16)
        .try_run()
        .expect("identity fingerprint must match the legacy checkpoint");
    assert_eq!(first.rows(), resumed.rows());
    let _ = std::fs::remove_file(&path);
}

/// CROSS-SCRAMBLE REFUSAL, through the `Campaign::new` inheritance path:
/// a checkpoint written by a campaign over one scrambled universe is
/// refused by a campaign over a differently-scrambled (or identity)
/// universe — no explicit `with_topology` call required.
#[test]
fn scrambled_checkpoint_refuses_other_topologies() {
    let geom = Geometry::bom(8);
    let spec = UniverseSpec::single_cell();
    let u1 = FaultUniverse::enumerate_with(geom, &spec, Topology::generate(8, 11));
    let u2 = FaultUniverse::enumerate_with(geom, &spec, Topology::generate(8, 12));
    assert_ne!(u1.topology(), u2.topology(), "seeds 11/12 must generate distinct scrambles");
    let program = Executor::new().stop_at_first_mismatch().compile(&march_library::mats(), geom);
    let path = temp_ckpt("cross");
    let first = Campaign::new(&u1, &program).with_checkpoint(&path, 16).run();
    for other in [&u2, &FaultUniverse::enumerate(geom, &spec)] {
        let err = Campaign::new(other, &program)
            .with_checkpoint(&path, 16)
            .try_run()
            .expect_err("a foreign-topology checkpoint must be refused");
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "expected FingerprintMismatch, got {err:?}"
        );
    }
    // The originating topology still resumes its own file.
    let again = Campaign::new(&u1, &program)
        .with_checkpoint(&path, 16)
        .try_run()
        .expect("same-topology resume");
    assert_eq!(first.rows(), again.rows());
    let _ = std::fs::remove_file(&path);
}

/// One streamed segment: start, end, faults and verdicts.
type Streamed = (usize, usize, Vec<FaultKind>, Vec<bool>);

/// `campaign` with `backgrounds`, `workers` workers and the engine
/// `slicing` forces (the planned one when `None`).
fn configured<'c, R: FaultRunner>(
    campaign: Campaign<'c, R>,
    backgrounds: &[u64],
    workers: usize,
    slicing: Option<bool>,
) -> Campaign<'c, R> {
    let campaign = campaign
        .with_name("lazy")
        .with_backgrounds(backgrounds)
        .with_parallelism(Parallelism::Threads(workers));
    match slicing {
        Some(enabled) => campaign.with_slicing(enabled),
        None => campaign,
    }
}

/// Runs `campaign` with a progress sink at `cadence` (no sink when
/// `None`) and returns its report and every segment the sink saw.
fn run_streamed<R: FaultRunner>(
    campaign: Campaign<'_, R>,
    cadence: Option<usize>,
) -> (CoverageReport, Vec<Streamed>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let campaign = match cadence {
        Some(every) => campaign.with_progress(every, move |seg: SegmentProgress<'_>| {
            let segment = (seg.start, seg.end, seg.faults.to_vec(), seg.verdicts.to_vec());
            sink.lock().expect("sink").push(segment);
        }),
        None => campaign,
    };
    let report = campaign.try_run().expect("campaign runs");
    let streamed = std::mem::take(&mut *seen.lock().expect("sink"));
    (report, streamed)
}

/// Checks `Campaign::lazy(lazy, runner)` against `Campaign::new` over the
/// materialized universe: reports, verdict tables and streamed segments
/// on every engine, worker count and cadence; partial reports under a
/// zero deadline and a pre-fired cancel token; and a checkpoint written
/// by either campaign, which the other resumes.
fn assert_lazy_equals_materialized<R: FaultRunner + Copy>(
    lazy: &LazyUniverse,
    runner: R,
    backgrounds: &[u64],
) {
    let listed = lazy.materialize();
    let case = format!("{:?}, {} faults", lazy.geometry(), lazy.len());
    for slicing in [None, Some(true), Some(false)] {
        for workers in [1, test_threads(2)] {
            let lazy_run =
                || configured(Campaign::lazy(lazy, runner), backgrounds, workers, slicing);
            let listed_run =
                || configured(Campaign::new(&listed, runner), backgrounds, workers, slicing);
            let case = format!("{case}, slicing {slicing:?}, {workers} workers");
            assert_eq!(lazy_run().detections(), listed_run().detections(), "{case}");
            for cadence in [Some(1), Some(7), Some(512), None] {
                let want = run_streamed(listed_run(), cadence);
                assert_eq!(run_streamed(lazy_run(), cadence), want, "{case}, cadence {cadence:?}");
            }
        }
    }
    let fired = CancelToken::new();
    fired.cancel();
    let zero = |c: Campaign<'_, R>| run_streamed(c.with_deadline(Duration::ZERO), Some(7));
    let cancelled = |c: Campaign<'_, R>| run_streamed(c.with_cancel(&fired), Some(7));
    for stop in [&zero as &dyn Fn(Campaign<'_, R>) -> _, &cancelled] {
        let want = stop(configured(Campaign::new(&listed, runner), backgrounds, 1, None));
        assert_eq!(want.0.partial().map(|p| p.evaluated), Some(0), "{case}");
        assert_eq!(stop(configured(Campaign::lazy(lazy, runner), backgrounds, 1, None)), want);
    }
    let whole = configured(Campaign::new(&listed, runner), backgrounds, 1, None);
    let (uninterrupted, verdicts) = (whole.run(), whole.detections());
    let mut fingerprints = Vec::new();
    for lazy_writes in [true, false] {
        let path = temp_ckpt("lazy");
        let (writer, reader) = if lazy_writes {
            (Campaign::lazy(lazy, runner), Campaign::new(&listed, runner))
        } else {
            (Campaign::new(&listed, runner), Campaign::lazy(lazy, runner))
        };
        // Cut after two 64-fault segments, checkpointed.
        let token = CancelToken::new();
        let partial = configured(writer, backgrounds, 1, None)
            .with_checkpoint(&path, 64)
            .with_cancel(&token)
            .with_chaos(Arc::new(ChaosPlan::new().cancel_after(2, &token)))
            .try_run()
            .expect("cut run");
        assert_eq!(partial.partial().map(|p| p.evaluated), Some(128), "{case}");
        fingerprints.push(checkpoint::peek_fingerprint(&path).expect("checkpoint written"));
        let resumed = configured(reader, backgrounds, 1, None).with_checkpoint(&path, 64);
        let (report, streamed) = run_streamed(resumed, Some(64));
        assert_eq!(report, uninterrupted, "{case}, lazy writes {lazy_writes}");
        // The restored prefix streams as one leading segment, faults and
        // all, and the segments tile the universe.
        assert_eq!((streamed[0].0, streamed[0].1), (0, 128), "{case}");
        let faults: Vec<FaultKind> = streamed.iter().flat_map(|s| s.2.clone()).collect();
        let streamed: Vec<bool> = streamed.iter().flat_map(|s| s.3.clone()).collect();
        assert_eq!((&faults[..], streamed), (listed.faults(), verdicts.clone()), "{case}");
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(fingerprints[0], fingerprints[1], "{case}: checkpoint fingerprints");
}

/// LAZY ≡ MATERIALIZED: a campaign over a lazy universe holds one
/// segment of faults at a time, yet it is bit-identical to a campaign
/// over the materialized universe — one March program on BOM and a
/// three-background bank on WOM, under the identity topology and a
/// generated one.
#[test]
fn lazy_campaign_equals_materialized() {
    let ex = Executor::new().stop_at_first_mismatch();
    let march = march_library::march_c_minus();
    let (bom, wom) = (Geometry::bom(8), Geometry::wom(6, 4).expect("geometry"));
    let program = ex.compile(&march, bom);
    let backgrounds = prt_march::coverage::standard_backgrounds(4);
    let bank = prt_march::coverage::compile_bank(&march, wom, &ex, &backgrounds);
    for seed in [None, Some(5)] {
        let topology = |geom: Geometry| match seed {
            Some(seed) => Topology::generate(geom.cells(), seed),
            None => Topology::identity(geom.cells()),
        };
        let lazy = LazyUniverse::new_with(bom, mixed_spec(bom), topology(bom));
        assert_lazy_equals_materialized(&lazy, &program, &[0]);
        let lazy = LazyUniverse::new_with(wom, mixed_spec(wom), topology(wom));
        assert_lazy_equals_materialized(&lazy, &bank, &backgrounds);
    }
}
