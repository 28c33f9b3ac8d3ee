//! Parallel bit-plane π-testing of word-oriented memories (§2).
//!
//! "For the WOM there are intra-word faults that can be tested by parallel
//! application of a π-testing for BOM. In this case it is supposed that
//! there are m independent bit-oriented linear automatons. For all
//! automatons the read and write operations are executed simultaneously. To
//! detect the intra-word faults two different π-testing can be performed:
//! (1) with parallel or (2) with random trajectories."
//!
//! Each bit plane of the word runs its own GF(2) automaton; because all
//! planes share the tap structure, one word-wide XOR implements all `m`
//! automata at once. With [`PlaneSeeding::Parallel`] every plane carries the
//! same sequence — cheap, but an intra-word state-coupling fault whose
//! victim always mirrors its aggressor can never be observed. With
//! [`PlaneSeeding::Random`] the planes are seeded differently (the paper's
//! externally-programmed trajectory control), de-correlating the planes and
//! exposing those faults. Experiment E4 quantifies the difference.

use crate::{PiResult, PrtError, Trajectory};
use prt_gf::Poly2;
use prt_lfsr::BitLfsr;
use prt_ram::{Geometry, MemoryDevice, ProgramBuilder, SplitMix64, TestProgram};
use prt_sim::Campaign;

/// How the `m` bit-plane automata are seeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneSeeding {
    /// Every plane uses the same seed — the paper's "parallel trajectories".
    Parallel {
        /// The shared packed seed (bit `j` = `s_j`).
        seed: u64,
    },
    /// Every plane gets a distinct deterministic pseudo-random seed — the
    /// paper's "random trajectories".
    Random {
        /// Seed for the per-plane seed generator.
        seed: u64,
    },
    /// Explicit per-plane packed seeds.
    Explicit(Vec<u64>),
}

/// A π-test built from `m` parallel bit-oriented automata.
///
/// # Example
///
/// ```
/// use prt_core::{BitPlanePi, PlaneSeeding};
/// use prt_gf::Poly2;
/// use prt_ram::{Geometry, Ram};
///
/// let pi = BitPlanePi::new(Poly2::from_bits(0b111), PlaneSeeding::Random { seed: 1 })?;
/// let mut ram = Ram::new(Geometry::wom(32, 8)?);
/// assert!(!pi.run(&mut ram)?.detected());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlanePi {
    poly: Poly2,
    k: usize,
    seeding: PlaneSeeding,
    trajectory: Trajectory,
}

impl BitPlanePi {
    /// Creates the scheme from a GF(2) feedback polynomial (shared by all
    /// planes) and a seeding policy.
    ///
    /// # Errors
    ///
    /// [`PrtError::Lfsr`] if the polynomial is degenerate.
    pub fn new(poly: Poly2, seeding: PlaneSeeding) -> Result<BitPlanePi, PrtError> {
        // Validate by constructing a probe register.
        let probe = BitLfsr::new(poly, 0)?;
        Ok(BitPlanePi { poly, k: probe.stages() as usize, seeding, trajectory: Trajectory::Up })
    }

    /// Sets the cell-visit trajectory (shared by all planes — the
    /// operations are word-wide and simultaneous).
    pub fn with_trajectory(mut self, trajectory: Trajectory) -> BitPlanePi {
        self.trajectory = trajectory;
        self
    }

    /// Automaton stages `k`.
    pub fn stages(&self) -> usize {
        self.k
    }

    /// The per-plane packed seeds for a memory of width `m`.
    pub fn plane_seeds(&self, m: u32) -> Vec<u64> {
        let mask = (1u64 << self.k) - 1;
        match &self.seeding {
            PlaneSeeding::Parallel { seed } => vec![seed & mask; m as usize],
            PlaneSeeding::Random { seed } => {
                let mut rng = SplitMix64::new(*seed);
                // Avoid the all-zero seed: a zero plane carries no signal.
                (0..m).map(|_| 1 + rng.next_below(mask.max(1))).collect()
            }
            PlaneSeeding::Explicit(seeds) => {
                seeds.iter().cycle().take(m as usize).map(|s| s & mask).collect()
            }
        }
    }

    /// The fault-free word sequence for an `n`-cell, `m`-bit memory.
    pub fn expected_sequence(&self, n: usize, m: u32) -> Vec<u64> {
        let seeds = self.plane_seeds(m);
        let mut regs: Vec<BitLfsr> =
            seeds.iter().map(|&s| BitLfsr::new(self.poly, s).expect("validated")).collect();
        let plane_seqs: Vec<Vec<u8>> = regs.iter_mut().map(|r| r.sequence(n)).collect();
        (0..n)
            .map(|t| {
                plane_seqs.iter().enumerate().fold(0u64, |w, (b, seq)| w | (u64::from(seq[t]) << b))
            })
            .collect()
    }

    /// Runs the parallel-plane π-iteration.
    ///
    /// # Errors
    ///
    /// [`PrtError::MemoryTooSmall`] when the array cannot hold the
    /// automaton.
    pub fn run<M: MemoryDevice>(&self, mem: &mut M) -> Result<PiResult, PrtError> {
        let geom = mem.geometry();
        let n = geom.cells();
        let m = geom.width();
        let k = self.k;
        if n < k + 1 {
            return Err(PrtError::MemoryTooSmall { cells: n, needed: k + 1 });
        }
        let order = self.trajectory.order(n);
        let expected = self.expected_sequence(n, m);
        let before = mem.stats();

        for j in 0..k {
            mem.write(order[j], expected[j]);
        }
        // Word-wide recurrence: tap words XOR together because every plane
        // shares the same GF(2) taps.
        let taps: Vec<usize> = (1..=k).filter(|&i| self.poly.coeff(i as u32) == 1).collect();
        for t in 0..n - k {
            let mut acc = 0u64;
            for &i in &taps {
                acc ^= mem.read(order[t + k - i]);
            }
            // Non-tapped operands are still read (the hardware senses the
            // whole window), keeping the 3-ops-per-cell structure for k=2.
            for i in 1..=k {
                if !taps.contains(&i) {
                    let _ = mem.read(order[t + k - i]);
                }
            }
            mem.write(order[t + k], acc);
        }
        let fin: Vec<u64> = order[n - k..].iter().map(|&c| mem.read(c)).collect();
        let fin_star: Vec<u64> = expected[n - k..].to_vec();
        let after = mem.stats();
        Ok(PiResult::from_parts(
            fin,
            fin_star,
            after.ops() - before.ops(),
            after.cycles - before.cycles,
        ))
    }

    /// Compiles the parallel-plane iteration for `geom` into a
    /// [`TestProgram`]: all planes share the GF(2) tap structure, so the
    /// word-wide recurrence lowers to identity-map accumulation (plain
    /// XOR), with the per-plane seeding baked into the seed writes and
    /// `Fin` expectations. Verdict-identical to [`BitPlanePi::run`]
    /// (property-tested).
    ///
    /// # Errors
    ///
    /// As [`BitPlanePi::run`].
    pub fn compile(&self, geom: Geometry) -> Result<TestProgram, PrtError> {
        let mut b = ProgramBuilder::new(geom).with_name("bit-plane π");
        self.compile_into(&mut b, geom)?;
        Ok(b.build())
    }

    pub(crate) fn compile_into(
        &self,
        b: &mut ProgramBuilder,
        geom: Geometry,
    ) -> Result<(), PrtError> {
        let n = geom.cells();
        let m = geom.width();
        let k = self.k;
        if n < k + 1 {
            return Err(PrtError::MemoryTooSmall { cells: n, needed: k + 1 });
        }
        let order = self.trajectory.order(n);
        let expected = self.expected_sequence(n, m);
        let id = b.identity_map();
        for j in 0..k {
            b.write(order[j], expected[j]);
        }
        let taps: Vec<usize> = (1..=k).filter(|&i| self.poly.coeff(i as u32) == 1).collect();
        for t in 0..n - k {
            b.acc_set(0);
            for &i in &taps {
                b.read_acc(order[t + k - i], id);
            }
            for i in 1..=k {
                if !taps.contains(&i) {
                    b.read_any(order[t + k - i]);
                }
            }
            b.write_acc(order[t + k]);
        }
        for (j, &cell) in order[n - k..].iter().enumerate() {
            b.read_capture(cell, expected[n - k + j]);
        }
        Ok(())
    }
}

/// A multi-round bit-plane scheme: several [`BitPlanePi`] iterations run
/// back-to-back with different plane seedings — the PRT analogue of
/// multi-background March testing, and the practical §2 answer to
/// intra-word faults.
///
/// # Example
///
/// ```
/// use prt_core::plane::{PlaneScheme, PlaneSeeding};
/// use prt_gf::Poly2;
/// use prt_ram::{FaultKind, Geometry, Ram};
///
/// // Round 1 mirrors the planes; round 2 decorrelates bit 0 from bit 1
/// // (sequences 1,0,1… vs 0,1,1…), exposing intra-word state couplings.
/// let scheme = PlaneScheme::new(Poly2::from_bits(0b111), vec![
///     PlaneSeeding::Parallel { seed: 0b10 },
///     PlaneSeeding::Explicit(vec![0b01, 0b10, 0b11, 0b01]),
/// ])?;
/// let mut ram = Ram::new(Geometry::wom(24, 4)?);
/// // Intra-word state coupling invisible to mirrored planes:
/// ram.inject(FaultKind::CouplingState {
///     agg_cell: 7, agg_bit: 0, agg_state: 0,
///     victim_cell: 7, victim_bit: 1, force: 0,
/// })?;
/// assert!(scheme.run(&mut ram)?.iter().any(|r| r.detected()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneScheme {
    poly: Poly2,
    rounds: Vec<PlaneSeeding>,
    trajectory: Trajectory,
}

impl PlaneScheme {
    /// Builds a scheme from explicit per-round seedings.
    ///
    /// # Errors
    ///
    /// [`PrtError::Lfsr`] for a degenerate polynomial;
    /// [`PrtError::EmptyScheme`] for an empty round list.
    pub fn new(poly: Poly2, rounds: Vec<PlaneSeeding>) -> Result<PlaneScheme, PrtError> {
        if rounds.is_empty() {
            return Err(PrtError::EmptyScheme);
        }
        let probe = BitLfsr::new(poly, 0)?;
        let _ = probe;
        Ok(PlaneScheme { poly, rounds, trajectory: Trajectory::Up })
    }

    /// The standard decorrelated schedule for `m`-bit words: `rounds`
    /// iterations whose per-plane seeds are drawn deterministically so
    /// that every plane pair sees every (value, value) combination across
    /// the schedule — the bit-plane analogue of
    /// [`prt_march::coverage::standard_backgrounds`].
    ///
    /// # Errors
    ///
    /// As [`PlaneScheme::new`].
    pub fn standard(poly: Poly2, m: u32, rounds: usize) -> Result<PlaneScheme, PrtError> {
        let probe = BitLfsr::new(poly, 0)?;
        let k = probe.stages();
        let seed_count = 1u64 << k;
        let mut rng = SplitMix64::new(0xB17_9A5E5);
        let mut list = Vec::with_capacity(rounds);
        for round in 0..rounds {
            // Round 0 keeps a fixed canonical seeding so the schedule
            // always exercises the plain parallel case once.
            if round == 0 {
                list.push(PlaneSeeding::Parallel { seed: 0b10 & (seed_count - 1) });
            } else {
                let seeds: Vec<u64> = (0..m).map(|_| 1 + rng.next_below(seed_count - 1)).collect();
                list.push(PlaneSeeding::Explicit(seeds));
            }
        }
        PlaneScheme::new(poly, list)
    }

    /// Sets the shared trajectory.
    pub fn with_trajectory(mut self, trajectory: Trajectory) -> PlaneScheme {
        self.trajectory = trajectory;
        self
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Runs every round back-to-back; one [`PiResult`] per round.
    ///
    /// # Errors
    ///
    /// Geometry errors from [`BitPlanePi::run`].
    pub fn run<M: MemoryDevice>(&self, mem: &mut M) -> Result<Vec<PiResult>, PrtError> {
        let mut out = Vec::with_capacity(self.rounds.len());
        for seeding in &self.rounds {
            let pi = BitPlanePi::new(self.poly, seeding.clone())?.with_trajectory(self.trajectory);
            out.push(pi.run(mem)?);
        }
        Ok(out)
    }

    /// Compiles all rounds into one flat [`TestProgram`] (one marker per
    /// round), so campaigns pay the per-round seed derivation and
    /// trajectory materialisation once instead of once per fault trial.
    ///
    /// # Errors
    ///
    /// As [`BitPlanePi::run`].
    pub fn compile(&self, geom: Geometry) -> Result<TestProgram, PrtError> {
        let mut b =
            ProgramBuilder::new(geom).with_name(format!("plane scheme ×{}", self.rounds.len()));
        for (j, seeding) in self.rounds.iter().enumerate() {
            b.mark(j as u32);
            let pi = BitPlanePi::new(self.poly, seeding.clone())?.with_trajectory(self.trajectory);
            pi.compile_into(&mut b, geom)?;
        }
        Ok(b.build())
    }

    /// Coverage over a fault universe (any round detecting counts), run as
    /// the **compiled** scheme program on the campaign engine:
    /// lane-batched, parallel fan-out, deterministic aggregation.
    ///
    /// # Errors
    ///
    /// As [`PlaneScheme::compile`]: a geometry that cannot host the
    /// automaton is refused before any trial runs.
    pub fn coverage(
        &self,
        universe: &prt_ram::FaultUniverse,
    ) -> Result<prt_march::CoverageReport, PrtError> {
        let program = self.compile(universe.geometry())?;
        Ok(Campaign::new(universe, &program).with_name(program.name().to_string()).run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_ram::{CouplingTrigger, FaultKind, Geometry, Ram};

    fn poly() -> Poly2 {
        Poly2::from_bits(0b111)
    }

    #[test]
    fn parallel_planes_mirror_each_other() {
        let pi = BitPlanePi::new(poly(), PlaneSeeding::Parallel { seed: 0b10 }).unwrap();
        let seq = pi.expected_sequence(9, 4);
        for w in seq {
            // With identical seeds each word is 0x0 or 0xF.
            assert!(w == 0x0 || w == 0xF, "word {w:#x}");
        }
    }

    #[test]
    fn random_planes_decorrelate() {
        let pi = BitPlanePi::new(poly(), PlaneSeeding::Random { seed: 3 }).unwrap();
        let seq = pi.expected_sequence(12, 8);
        assert!(
            seq.iter().any(|&w| w != 0 && w != 0xFF),
            "random seeding should produce mixed words: {seq:?}"
        );
    }

    #[test]
    fn fault_free_run_is_clean_both_seedings() {
        for seeding in [PlaneSeeding::Parallel { seed: 0b10 }, PlaneSeeding::Random { seed: 11 }] {
            let pi = BitPlanePi::new(poly(), seeding).unwrap();
            let mut ram = Ram::new(Geometry::wom(24, 8).unwrap());
            let res = pi.run(&mut ram).unwrap();
            assert!(!res.detected());
            assert_eq!(res.ops(), 3 * 24 - 2);
        }
    }

    #[test]
    fn memory_contents_match_expected_sequence() {
        let pi = BitPlanePi::new(poly(), PlaneSeeding::Random { seed: 5 }).unwrap();
        let mut ram = Ram::new(Geometry::wom(16, 4).unwrap());
        pi.run(&mut ram).unwrap();
        let expect = pi.expected_sequence(16, 4);
        for (c, &e) in expect.iter().enumerate() {
            assert_eq!(ram.peek(c), e, "cell {c}");
        }
    }

    #[test]
    fn intra_word_state_coupling_escapes_parallel_but_not_random() {
        // CFst⟨s; s⟩ between two bits of one cell: with parallel seeding the
        // victim always equals the aggressor, so forcing it to the
        // aggressor's value changes nothing — the fault is invisible.
        let mk_fault = || FaultKind::CouplingState {
            agg_cell: 7,
            agg_bit: 0,
            agg_state: 0,
            victim_cell: 7,
            victim_bit: 1,
            force: 0,
        };
        let parallel = BitPlanePi::new(poly(), PlaneSeeding::Parallel { seed: 0b10 }).unwrap();
        let mut ram = Ram::new(Geometry::wom(20, 4).unwrap());
        ram.inject(mk_fault()).unwrap();
        assert!(
            !parallel.run(&mut ram).unwrap().detected(),
            "mirrored planes cannot see CFst⟨0;0⟩"
        );
        // Decorrelated planes: aggressor plane 0 runs (1,0,1…) and victim
        // plane 1 runs (0,1,1…), so cell 7 (phase 1) has agg=0 with victim
        // expected 1 — the fault forces it to 0, which the victim's operand
        // reads observe.
        let seeds = PlaneSeeding::Explicit(vec![0b01, 0b10, 0b01, 0b10]);
        let decorrelated = BitPlanePi::new(poly(), seeds).unwrap();
        let mut ram = Ram::new(Geometry::wom(20, 4).unwrap());
        ram.inject(mk_fault()).unwrap();
        assert!(
            decorrelated.run(&mut ram).unwrap().detected(),
            "decorrelated planes must expose CFst⟨0;0⟩"
        );
    }

    #[test]
    fn intra_word_inversion_coupling_detected() {
        // CFin between bits of a cell fires on the aggressor bit's write
        // transition and corrupts the victim bit post-write — caught by the
        // victim cell's two subsequent operand reads.
        let pi = BitPlanePi::new(poly(), PlaneSeeding::Random { seed: 9 }).unwrap();
        let mut ram = Ram::new(Geometry::wom(20, 4).unwrap());
        ram.inject(FaultKind::CouplingInversion {
            agg_cell: 6,
            agg_bit: 2,
            victim_cell: 6,
            victim_bit: 0,
            trigger: CouplingTrigger::Rise,
        })
        .unwrap();
        assert!(pi.run(&mut ram).unwrap().detected());
    }

    #[test]
    fn explicit_seeds_cycle_over_planes() {
        let pi = BitPlanePi::new(poly(), PlaneSeeding::Explicit(vec![0b01, 0b10])).unwrap();
        assert_eq!(pi.plane_seeds(4), vec![0b01, 0b10, 0b01, 0b10]);
    }

    #[test]
    fn plane_scheme_standard_grows_intra_word_coverage() {
        use prt_ram::{FaultUniverse, UniverseSpec};
        let spec = UniverseSpec {
            cfin: true,
            cfid: true,
            cfst: true,
            coupling_radius: Some(0),
            intra_word: true,
            ..UniverseSpec::default()
        };
        let geom = Geometry::wom(9, 4).unwrap();
        let u = FaultUniverse::enumerate(geom, &spec);
        let few = PlaneScheme::standard(poly(), 4, 2).unwrap().coverage(&u).unwrap();
        let many = PlaneScheme::standard(poly(), 4, 8).unwrap().coverage(&u).unwrap();
        assert!(
            many.overall_percent() > few.overall_percent(),
            "more decorrelated rounds must add coverage: {} vs {}",
            many.overall_percent(),
            few.overall_percent()
        );
        assert!(many.overall_percent() > 60.0);
    }

    #[test]
    fn plane_coverage_refuses_a_memory_too_small() {
        // A degree-2 automaton needs 3 cells: the compile error comes back
        // typed instead of as an all-escape report.
        use prt_ram::{FaultUniverse, UniverseSpec};
        let u =
            FaultUniverse::enumerate(Geometry::wom(2, 4).unwrap(), &UniverseSpec::paper_claim());
        let scheme = PlaneScheme::standard(poly(), 4, 2).unwrap();
        assert!(matches!(scheme.coverage(&u), Err(PrtError::MemoryTooSmall { .. })));
    }

    #[test]
    fn compiled_plane_matches_interpreted() {
        use prt_ram::{FaultUniverse, UniverseSpec};
        let spec = UniverseSpec {
            cfin: true,
            cfid: true,
            cfst: true,
            coupling_radius: Some(1),
            intra_word: true,
            ..UniverseSpec::paper_claim()
        };
        let geom = Geometry::wom(9, 4).unwrap();
        let u = FaultUniverse::enumerate(geom, &spec);
        for seeding in [PlaneSeeding::Parallel { seed: 0b10 }, PlaneSeeding::Random { seed: 5 }] {
            let pi = BitPlanePi::new(poly(), seeding).unwrap();
            let prog = pi.compile(geom).unwrap();
            let compiled = Campaign::new(&u, &prog).detections();
            let interpreted = Campaign::new(&u, |ram: &mut Ram, _bg: u64| {
                pi.run(ram).is_ok_and(|r| r.detected())
            })
            .detections();
            assert_eq!(compiled, interpreted);
        }
        let scheme = PlaneScheme::standard(poly(), 4, 3).unwrap();
        let prog = scheme.compile(geom).unwrap();
        assert_eq!(prog.marks().len(), 3);
        let compiled = Campaign::new(&u, &prog).detections();
        let interpreted = Campaign::new(&u, |ram: &mut Ram, _bg: u64| {
            scheme.run(ram).is_ok_and(|rs| rs.iter().any(PiResult::detected))
        })
        .detections();
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn compiled_plane_preserves_op_count_and_image() {
        let pi = BitPlanePi::new(poly(), PlaneSeeding::Random { seed: 5 }).unwrap();
        let geom = Geometry::wom(16, 4).unwrap();
        let prog = pi.compile(geom).unwrap();
        let mut a = Ram::new(geom);
        let res = pi.run(&mut a).unwrap();
        let mut b = Ram::new(geom);
        let exec = prog.execute(&mut b, false, None).unwrap();
        assert!(!exec.detected());
        assert_eq!(exec.ops, res.ops());
        for c in 0..16 {
            assert_eq!(a.peek(c), b.peek(c), "cell {c}");
        }
    }

    #[test]
    fn plane_scheme_rejects_empty() {
        assert!(matches!(PlaneScheme::new(poly(), vec![]), Err(PrtError::EmptyScheme)));
        let s = PlaneScheme::standard(poly(), 4, 3).unwrap();
        assert_eq!(s.rounds(), 3);
    }

    #[test]
    fn plane_scheme_fault_free_clean() {
        let s = PlaneScheme::standard(poly(), 8, 5).unwrap();
        let mut ram = Ram::new(Geometry::wom(30, 8).unwrap());
        let results = s.run(&mut ram).unwrap();
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|r| !r.detected()));
    }

    #[test]
    fn stuck_bit_detected_when_polarity_differs() {
        let pi = BitPlanePi::new(poly(), PlaneSeeding::Random { seed: 7 }).unwrap();
        let expect = pi.expected_sequence(15, 4);
        // Pick a cell/bit whose expected value is 1 and stick it at 0.
        let (cell, bit) = (0..15)
            .flat_map(|c| (0..4).map(move |b| (c, b)))
            .find(|&(c, b)| c >= 2 && (expect[c] >> b) & 1 == 1)
            .expect("some 1 bit exists");
        let mut ram = Ram::new(Geometry::wom(15, 4).unwrap());
        ram.inject(FaultKind::StuckAt { cell, bit, value: 0 }).unwrap();
        assert!(pi.run(&mut ram).unwrap().detected());
    }
}
