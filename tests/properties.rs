//! Property-based integration tests (proptest) for the core invariants.

use proptest::prelude::*;
use prt_suite::prelude::*;

fn gf16() -> Field {
    Field::new(4, 0b1_0011).expect("GF(16)")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fault-free π-iteration leaves exactly the reference LFSR sequence
    /// in memory, for arbitrary seeds and sizes.
    #[test]
    fn pi_iteration_equals_software_lfsr(
        s0 in 0u64..16,
        s1 in 0u64..16,
        n in 3usize..64,
    ) {
        prop_assume!(s0 != 0 || s1 != 0);
        let pi = PiTest::new(gf16(), &[1, 2, 2], &[s0, s1]).expect("config");
        let mut ram = Ram::new(Geometry::wom(n, 4).expect("geometry"));
        let res = pi.run(&mut ram).expect("run");
        prop_assert!(!res.detected());
        let expect = pi.expected_sequence(n);
        for (c, &e) in expect.iter().enumerate() {
            prop_assert_eq!(ram.peek(c), e, "cell {}", c);
        }
    }

    /// Sequence superposition: the π-wave is GF-linear in its seed.
    #[test]
    fn pi_wave_linearity(
        a0 in 0u64..16, a1 in 0u64..16,
        b0 in 0u64..16, b1 in 0u64..16,
    ) {
        let n = 24usize;
        let run = |s0, s1| -> Vec<u64> {
            let pi = PiTest::new(gf16(), &[1, 2, 2], &[s0, s1]).expect("config");
            pi.expected_sequence(n)
        };
        let sa = run(a0, a1);
        let sb = run(b0, b1);
        let sab = run(a0 ^ b0, a1 ^ b1);
        for t in 0..n {
            prop_assert_eq!(sa[t] ^ sb[t], sab[t]);
        }
    }

    /// Any single stuck bit whose polarity disagrees with the TDB at its
    /// cell reaches Fin — invertible error propagation.
    #[test]
    fn wrong_polarity_saf_always_detected(
        cell in 0usize..32,
        bit in 0u32..4,
        s0 in 0u64..16,
        s1 in 1u64..16,
    ) {
        let n = 32usize;
        let pi = PiTest::new(gf16(), &[1, 2, 2], &[s0, s1]).expect("config");
        let expect = pi.expected_sequence(n);
        let wrong = ((expect[cell] >> bit) & 1) ^ 1;
        let mut ram = Ram::new(Geometry::wom(n, 4).expect("geometry"));
        ram.inject(FaultKind::StuckAt { cell, bit, value: wrong as u8 }).expect("inject");
        let res = pi.run(&mut ram).expect("run");
        prop_assert!(res.detected(), "SA{} @ {}.{} escaped", wrong, cell, bit);
    }

    /// The March executor never reports a fault on a fault-free memory,
    /// for any library test, background and size.
    #[test]
    fn march_no_false_positives(
        test_idx in 0usize..15,
        bg in 0u64..16,
        n in 2usize..48,
    ) {
        let tests = march_library::all();
        let test = &tests[test_idx];
        let mut ram = Ram::new(Geometry::wom(n, 4).expect("geometry"));
        let outcome = Executor::new().with_background(bg).run(test, &mut ram);
        prop_assert!(!outcome.detected(), "{} bg={:x} n={}", test.name(), bg, n);
        prop_assert_eq!(outcome.ops(), test.total_ops(n));
    }

    /// PRT schemes never report a fault on a fault-free memory either —
    /// including pre-read and final-readback channels.
    #[test]
    fn prt_no_false_positives(n in 3usize..48, which in 0usize..3) {
        let field = Field::new(1, 0b11).expect("GF(2)");
        let scheme = match which {
            0 => PrtScheme::standard3(field).expect("scheme"),
            1 => PrtScheme::standard4(field).expect("scheme"),
            _ => PrtScheme::plain(field, 5).expect("scheme"),
        };
        let mut ram = Ram::new(Geometry::bom(n));
        prop_assert!(!scheme.run(&mut ram).expect("run").detected());
    }

    /// Trajectories are permutations, and a fault-free run under ANY
    /// trajectory passes.
    #[test]
    fn any_trajectory_is_clean(seed in 0u64..1000, n in 3usize..48) {
        let pi = PiTest::figure_1a()
            .expect("automaton")
            .with_trajectory(Trajectory::Random(seed));
        let order = Trajectory::Random(seed).order(n);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let mut ram = Ram::new(Geometry::bom(n));
        prop_assert!(!pi.run(&mut ram).expect("run").detected());
    }

    /// Dual-port and single-port schedules write identical memory images
    /// and identical signatures for arbitrary seeds.
    #[test]
    fn dual_port_equals_single_port(s0 in 0u64..16, s1 in 0u64..16, n in 3usize..40) {
        let pi = PiTest::new(gf16(), &[1, 2, 2], &[s0, s1]).expect("config");
        let mut a = Ram::new(Geometry::wom(n, 4).expect("geometry"));
        let ra = pi.run(&mut a).expect("run");
        let mut b = Ram::with_ports(Geometry::wom(n, 4).expect("geometry"), 2).expect("ports");
        let rb = pi.run_dual_port(&mut b).expect("run");
        prop_assert_eq!(ra.fin(), rb.fin());
        for c in 0..n {
            prop_assert_eq!(a.peek(c), b.peek(c));
        }
    }

    /// COMPILED ≡ INTERPRETED (March): for random library tests, random
    /// backgrounds, sizes, executor modes and random fault instances, the
    /// compiled program reproduces the interpreted executor's outcome —
    /// verdict, mismatch location and op count.
    #[test]
    fn march_compiled_program_equals_interpreted(
        test_idx in 0usize..15,
        bg in 0u64..16,
        n in 2usize..24,
        fault_pick in 0usize..100_000,
        stop in proptest::prelude::any::<bool>(),
    ) {
        let geom = Geometry::wom(n, 4).expect("geometry");
        let spec = UniverseSpec {
            coupling_radius: Some(2), intra_word: true, ..UniverseSpec::paper_claim()
        };
        let u = FaultUniverse::enumerate(geom, &spec);
        let fault = u.faults()[fault_pick % u.len()].clone();
        let tests = march_library::all();
        let test = &tests[test_idx];
        let mut ex = Executor::new().with_background(bg);
        if stop {
            ex = ex.stop_at_first_mismatch();
        }
        let program = ex.compile(test, geom);
        let mut a = Ram::new(geom);
        a.inject(fault.clone()).expect("inject");
        let mut b = Ram::new(geom);
        b.inject(fault).expect("inject");
        let interpreted = ex.run(test, &mut a);
        let compiled = ex.run_compiled(&program, &mut b);
        prop_assert_eq!(interpreted, compiled, "{} bg={:x} n={}", test.name(), bg, n);
    }

    /// COMPILED ≡ INTERPRETED (π-test): random seeds, trajectories, sizes
    /// and faults — identical verdict, `Fin`, op count and memory image.
    #[test]
    fn pi_compiled_program_equals_interpreted(
        s0 in 0u64..16,
        s1 in 0u64..16,
        n in 3usize..32,
        traj_seed in 0u64..500,
        fault_pick in 0usize..100_000,
    ) {
        let traj = match traj_seed % 3 {
            0 => Trajectory::Up,
            1 => Trajectory::Down,
            _ => Trajectory::Random(traj_seed),
        };
        let pi = PiTest::new(gf16(), &[1, 2, 2], &[s0, s1])
            .expect("config")
            .with_trajectory(traj);
        let geom = Geometry::wom(n, 4).expect("geometry");
        let spec = UniverseSpec {
            coupling_radius: Some(2), intra_word: true, ..UniverseSpec::paper_claim()
        };
        let u = FaultUniverse::enumerate(geom, &spec);
        let fault = u.faults()[fault_pick % u.len()].clone();
        let program = pi.compile(geom).expect("compile");
        let mut a = Ram::new(geom);
        a.inject(fault.clone()).expect("inject");
        let mut b = Ram::new(geom);
        b.inject(fault).expect("inject");
        let interpreted = pi.run(&mut a).expect("run");
        let mut fin = Vec::new();
        let exec = program.execute(&mut b, false, Some(&mut fin)).expect("execute");
        prop_assert_eq!(interpreted.detected(), exec.detected());
        prop_assert_eq!(interpreted.fin(), &fin[..]);
        prop_assert_eq!(interpreted.ops(), exec.ops);
        for c in 0..n {
            prop_assert_eq!(a.peek(c), b.peek(c), "cell {}", c);
        }
    }

    /// COMPILED ≡ INTERPRETED (PRT schemes, pre-read + readback channels
    /// included): random scheme family, size and fault — identical
    /// verdict.
    #[test]
    fn scheme_compiled_program_equals_interpreted(
        which in 0usize..4,
        n in 3usize..20,
        fault_pick in 0usize..100_000,
    ) {
        let field = Field::new(1, 0b11).expect("GF(2)");
        let scheme = match which {
            0 => PrtScheme::standard3(field).expect("scheme"),
            1 => PrtScheme::standard4(field).expect("scheme"),
            2 => PrtScheme::plain(field, 3).expect("scheme"),
            _ => PrtScheme::plain(field, 5).expect("scheme"),
        };
        let geom = Geometry::bom(n);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let fault = u.faults()[fault_pick % u.len()].clone();
        let program = scheme.compile(geom).expect("compile");
        let mut a = Ram::new(geom);
        a.inject(fault.clone()).expect("inject");
        let mut b = Ram::new(geom);
        b.inject(fault).expect("inject");
        let interpreted = scheme.run(&mut a).expect("run").detected();
        prop_assert_eq!(interpreted, program.detect(&mut b), "{} n={}", scheme.name(), n);
    }

    /// COMPILED ≡ INTERPRETED (bit-plane schemes): random seeding policy,
    /// rounds, width and fault — identical any-round verdict.
    #[test]
    fn plane_compiled_program_equals_interpreted(
        seed in 0u64..1000,
        rounds in 1usize..5,
        n in 3usize..16,
        fault_pick in 0usize..100_000,
    ) {
        let scheme = PlaneScheme::standard(Poly2::from_bits(0b111), 4, rounds)
            .expect("scheme");
        let geom = Geometry::wom(n, 4).expect("geometry");
        let spec = UniverseSpec {
            coupling_radius: Some(2), intra_word: true, ..UniverseSpec::paper_claim()
        };
        let u = FaultUniverse::enumerate(geom, &spec);
        let fault = u.faults()[(fault_pick ^ seed as usize) % u.len()].clone();
        let program = scheme.compile(geom).expect("compile");
        let mut a = Ram::new(geom);
        a.inject(fault.clone()).expect("inject");
        let mut b = Ram::new(geom);
        b.inject(fault).expect("inject");
        let interpreted = scheme.run(&mut a).expect("run").iter().any(|r| r.detected());
        prop_assert_eq!(interpreted, program.detect(&mut b), "rounds={} n={}", rounds, n);
    }

    /// Campaigns over compiled programs are verdict-identical to the
    /// pre-refactor interpreted campaign path, for any thread count.
    #[test]
    fn compiled_campaign_equals_interpreted_campaign(
        n in 4usize..14,
        threads in 1usize..5,
    ) {
        let geom = Geometry::bom(n);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let scheme = PrtScheme::standard3(Field::new(1, 0b11).expect("GF(2)")).expect("scheme");
        let program = scheme.compile(geom).expect("compile");
        let compiled = Campaign::new(&u, &program)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        let interpreted =
            Campaign::new(&u, |ram: &mut Ram, _bg: u64| scheme.run(ram).is_ok_and(|r| r.detected()))
                .with_parallelism(Parallelism::Sequential)
                .detections();
        prop_assert_eq!(compiled, interpreted);
    }

    /// The affine (complemented) iteration really is the bitwise complement
    /// of the plain one.
    #[test]
    fn complement_iteration_is_bitwise_not(s0 in 0u64..16, s1 in 0u64..16, n in 3usize..40) {
        let field = gf16();
        let mask = field.mask();
        let plain = PiTest::new(field.clone(), &[1, 2, 2], &[s0, s1]).expect("config");
        let e = field.mul(mask, field.add(1, field.add(2, 2)));
        let compl = PiTest::new(field, &[1, 2, 2], &[s0 ^ mask, s1 ^ mask])
            .expect("config")
            .with_affine(e)
            .expect("affine");
        let sp = plain.expected_sequence(n);
        let sc = compl.expected_sequence(n);
        for t in 0..n {
            prop_assert_eq!(sp[t] ^ mask, sc[t], "t={}", t);
        }
    }
}
