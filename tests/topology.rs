//! Physical-topology property tests: the `Topology` algebra (round-trip,
//! composition) and the scrambled-campaign acceptance sweep — under any
//! generated scramble, the sliced, full-pass-batched and scalar engines
//! must agree bit-exactly on every verdict, at any thread count, and
//! dictionary observations (per-fault MISR signatures) must match
//! between the batched build and the scalar sweep. The identity
//! topology must be bit-identical to the pre-topology code paths,
//! checkpoints included; a checkpoint written under one scramble must
//! refuse to resume under another.

mod common;

use common::{scalar, scalar_observations, scrambled_universe, temp_ckpt, test_threads};
use proptest::prelude::*;
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
