//! Adaptive fault localization: from a failing verdict to a repairable
//! address.
//!
//! A signature-only tester knows *that* the array failed, not *where*.
//! [`Localizer::diagnose`] narrows a failing device down to the victim
//! cell and fault family with a handful of adaptively chosen probe runs:
//!
//! 1. **Victim bisection** — windowed sub-programs
//!    ([`Executor::compile_window`]) re-run the diagnostic March with the
//!    comparator gated to half the address range. Because windowing gates
//!    only the *checks*, never the accesses, a fault observable on a
//!    window is observable on at least one half — the bisection invariant
//!    — so `log₂ n` probes pin the failing address.
//! 2. **Candidate filtering** — every probe's full observed response
//!    stream is compared against each candidate fault's *simulated*
//!    stream (deterministic simulator, same reset state); candidates that
//!    disagree with any observation are eliminated. The true fault can
//!    never be eliminated. The candidates are simulated 64 at a time, one
//!    fault per lane of a [`LaneRam`], with one full observed pass
//!    ([`TestProgram::try_execute_batch_observed`]) per chunk and probe;
//!    each read's bit-planes are compared against the broadcast observed
//!    word, so a lane survives exactly when the scalar run of its fault
//!    would have reproduced the observed stream. A [`FaultDictionary`]
//!    seeds the candidate set from the observed signature (the fast
//!    path); without one the full paper-claim universe is filtered.
//! 3. **Aggressor recovery** — for two-cell faults (coupling, decoder
//!    pairs), toggle probes over bisected aggressor sets plus an
//!    exhaustive two-cell state walk per remaining partner separate the
//!    aggressor address and the coupling subtype.
//!
//! The surviving candidate set is reported verbatim: faults that are
//! **observationally equivalent** through the port interface stay
//! together (in a bit-oriented memory reset to 0, `SA0@c`, `TF↑@c` and
//! `AF-none@c` respond identically to every possible access sequence —
//! no tester can split them), which is the honest resolution limit of
//! functional diagnosis rather than a weakness of the search.

use std::collections::BTreeSet;

use crate::{DiagError, FaultDictionary};
use prt_march::{Executor, MarchTest};
use prt_ram::{
    Execution, FaultKind, FaultUniverse, Geometry, LaneChunk, LaneRam, ProgramBuilder, Ram,
    TestProgram, Topology, UniverseSpec, LANES,
};

/// Coarse fault family of a diagnosis, per the van-de-Goor taxonomy the
/// universe enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultFamily {
    /// Stuck-at.
    Saf,
    /// Transition.
    Tf,
    /// Coupling (inversion / idempotent / state).
    Cf,
    /// Address decoder.
    Af,
    /// Anything else the simulator models (SOF, read/write-logic, …).
    Other,
}

impl FaultFamily {
    /// The family of a concrete fault instance.
    pub fn of(fault: &FaultKind) -> FaultFamily {
        match fault.mnemonic() {
            "SAF" => FaultFamily::Saf,
            "TF" => FaultFamily::Tf,
            "CFin" | "CFid" | "CFst" => FaultFamily::Cf,
            "AF" => FaultFamily::Af,
            _ => FaultFamily::Other,
        }
    }
}

/// Outcome of one adaptive localization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    victim: usize,
    physical_victim: usize,
    aggressor: Option<usize>,
    physical_aggressor: Option<usize>,
    candidates: Vec<FaultKind>,
    probes: usize,
}

impl Diagnosis {
    /// The failing address the bisection converged on: the cell whose
    /// checked reads expose the fault (for coupling faults, the victim;
    /// for decoder faults, one of the involved addresses). This is the
    /// **logical** address — the one the tester drives on the bus; see
    /// [`Diagnosis::physical_victim`] for the array position.
    pub fn victim(&self) -> usize {
        self.victim
    }

    /// The **physical** array position of [`Diagnosis::victim`] under the
    /// localizer's [`Topology`] ([`Localizer::with_topology`], or the
    /// dictionary's own topology) — the coordinate a repair (row/column
    /// replacement) is addressed by. Equals [`Diagnosis::victim`] under
    /// the identity topology.
    pub fn physical_victim(&self) -> usize {
        self.physical_victim
    }

    /// The recovered partner address, when every surviving candidate
    /// agrees on one (coupling aggressor, or the second address of a
    /// decoder pair). Logical, like [`Diagnosis::victim`].
    pub fn aggressor(&self) -> Option<usize> {
        self.aggressor
    }

    /// The **physical** array position of [`Diagnosis::aggressor`] under
    /// the localizer's [`Topology`].
    pub fn physical_aggressor(&self) -> Option<usize> {
        self.physical_aggressor
    }

    /// The surviving candidates: every fault of the pool whose simulated
    /// responses match ALL probe observations. Contains the true fault
    /// whenever the pool did; size 1 means an exact identification,
    /// larger sets are observational equivalence classes.
    pub fn candidates(&self) -> &[FaultKind] {
        &self.candidates
    }

    /// The single identified fault, when diagnosis is exact.
    pub fn exact(&self) -> Option<&FaultKind> {
        match self.candidates.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }

    /// The fault families represented among the candidates, deduplicated.
    pub fn families(&self) -> Vec<FaultFamily> {
        let set: BTreeSet<FaultFamily> = self.candidates.iter().map(FaultFamily::of).collect();
        set.into_iter().collect()
    }

    /// The classified family, when the candidates agree on one.
    pub fn family(&self) -> Option<FaultFamily> {
        match self.families().as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Probe runs the diagnosis consumed (including the initial detecting
    /// run).
    pub fn probes(&self) -> usize {
        self.probes
    }
}

/// The adaptive localization driver.
///
/// # Example
///
/// ```
/// use prt_diag::Localizer;
/// use prt_march::library;
/// use prt_ram::{FaultKind, Geometry, Ram};
///
/// let geom = Geometry::bom(16);
/// let localizer = Localizer::new(library::march_diag(), geom);
/// let mut ram = Ram::new(geom);
/// ram.inject(FaultKind::StuckAt { cell: 11, bit: 0, value: 1 })?;
/// let diag = localizer.diagnose(&mut ram)?.expect("SA1 is detected");
/// assert_eq!(diag.victim(), 11);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Localizer<'a> {
    geom: Geometry,
    test: MarchTest,
    executor: Executor,
    dictionary: Option<&'a FaultDictionary>,
    pool: Option<Vec<FaultKind>>,
    topology: Option<Topology>,
}

impl<'a> Localizer<'a> {
    /// A localizer probing with `test` (windowed recompilations of it) on
    /// `geom`-shaped devices. Without a dictionary the candidate pool is
    /// the paper-claim universe of `geom`.
    pub fn new(test: MarchTest, geom: Geometry) -> Localizer<'a> {
        Localizer {
            geom,
            test,
            executor: Executor::new(),
            dictionary: None,
            pool: None,
            topology: None,
        }
    }

    /// Declares the physical address [`Topology`] of the device under
    /// diagnosis, so the resulting [`Diagnosis`] can report physical
    /// ([`Diagnosis::physical_victim`]) alongside logical coordinates.
    /// Probing itself is purely logical — the tester drives bus
    /// addresses — so this never changes which cell is converged on.
    /// A [`Localizer::with_dictionary`] seeded localizer inherits the
    /// dictionary's topology unless one is declared explicitly here.
    ///
    /// # Panics
    ///
    /// Panics when the topology's cell count disagrees with the
    /// localizer geometry.
    pub fn with_topology(mut self, topology: Topology) -> Localizer<'a> {
        assert_eq!(
            topology.cells(),
            self.geom.cells(),
            "topology cell count must match the localizer geometry"
        );
        self.topology = Some(topology);
        self
    }

    /// Seeds candidates from a [`FaultDictionary`]: the detecting run is
    /// the dictionary's own program and the observed signature selects the
    /// initial candidate set (falling back to the dictionary's whole
    /// universe for an aliased or unknown signature).
    ///
    /// # Panics
    ///
    /// Panics when the dictionary's geometry differs from the localizer's,
    /// or when its program is not this localizer's own diagnostic test
    /// compiled for that geometry. The second check guards the bisection
    /// invariant: the windowed probes re-run *this* test, so a dictionary
    /// built from a different (weaker) program could detect a fault the
    /// probes cannot see, and diagnosis would abort with
    /// [`DiagError::Inconsistent`]. Both are whole-run configuration
    /// errors, surfaced loudly like the campaign engine's runner checks.
    pub fn with_dictionary(mut self, dictionary: &'a FaultDictionary) -> Localizer<'a> {
        assert_eq!(
            dictionary.geometry(),
            self.geom,
            "dictionary geometry does not match the localizer's"
        );
        assert_eq!(
            *dictionary.program(),
            self.executor.compile(&self.test, self.geom),
            "dictionary program is not the localizer's diagnostic test — build the dictionary \
             from the same compiled program the localizer probes with"
        );
        self.dictionary = Some(dictionary);
        self
    }

    /// Overrides the candidate pool (e.g. a topology-restricted universe).
    pub fn with_candidates(mut self, pool: Vec<FaultKind>) -> Localizer<'a> {
        self.pool = Some(pool);
        self
    }

    /// Diagnoses a failing device. Returns `Ok(None)` when the detecting
    /// run observes nothing (the fault — if any — escapes this program).
    ///
    /// The device is re-run from a zero reset for every probe
    /// ([`Ram::reset_to`]), modelling a tester that power-cycles between
    /// test applications; injected faults are untouched.
    ///
    /// # Errors
    ///
    /// * [`DiagError::GeometryMismatch`] for a device of the wrong shape.
    /// * [`DiagError::Ram`] when the detecting program cannot run on the
    ///   device (e.g. too few ports for a dictionary program).
    /// * [`DiagError::Inconsistent`] if probe outcomes violate the
    ///   bisection invariant (impossible for deterministic single faults).
    pub fn diagnose(&self, ram: &mut Ram) -> Result<Option<Diagnosis>, DiagError> {
        if ram.geometry() != self.geom {
            return Err(DiagError::GeometryMismatch { expected: self.geom, got: ram.geometry() });
        }
        let n = self.geom.cells();
        let compiled;
        let full: &TestProgram = match self.dictionary {
            Some(d) => d.program(),
            None => {
                compiled = self.executor.compile(&self.test, self.geom);
                &compiled
            }
        };
        let mut probes = 0usize;
        let mut observed = Vec::new();

        // 1. The detecting run (stream observed for filtering; signature
        //    for the dictionary lookup).
        ram.reset_to(0);
        probes += 1;
        let exec = full
            .execute_observed(ram, false, None, &mut |v| observed.push(v))
            .map_err(DiagError::Ram)?;
        if !exec.detected() {
            return Ok(None);
        }

        // 2. Candidate pool, filtered by the full observed stream.
        let mut candidates: Vec<FaultKind> = match self.dictionary {
            Some(d) => {
                let sig = d.collector().compact(observed.iter().copied());
                let from_bucket = d.candidate_faults(sig);
                if from_bucket.is_empty() {
                    // Aliased or unknown signature: fall back to the whole
                    // simulated universe.
                    d.faults().to_vec()
                } else {
                    from_bucket
                }
            }
            None => match &self.pool {
                Some(pool) => pool.clone(),
                None => FaultUniverse::enumerate(self.geom, &UniverseSpec::paper_claim())
                    .faults()
                    .to_vec(),
            },
        };
        let mut lanes =
            LaneRam::with_ports(self.geom, full.ports().max(1)).map_err(DiagError::Ram)?;
        retain_matching(&mut candidates, full, &observed, &mut lanes);

        // 3. Victim bisection over check windows. Invariant: the fault is
        //    observable in [lo, hi).
        let (mut lo, mut hi) = (0usize, n);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let left = self.executor.compile_window(&self.test, self.geom, lo..mid);
            probes += 1;
            let detected = observe(&left, ram, &mut observed)?;
            retain_matching(&mut candidates, &left, &observed, &mut lanes);
            if detected {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let victim = lo;
        // Confirm the invariant really converged on an observable cell.
        let pin = self.executor.compile_window(&self.test, self.geom, victim..victim + 1);
        probes += 1;
        if !observe(&pin, ram, &mut observed)? {
            return Err(DiagError::Inconsistent);
        }
        retain_matching(&mut candidates, &pin, &observed, &mut lanes);

        // 4. Solo probe: exercises the victim alone — separates single-cell
        //    families from couplings (whose aggressor never acts here).
        let solo = solo_probe(self.geom, victim);
        probes += 1;
        observe(&solo, ram, &mut observed)?;
        retain_matching(&mut candidates, &solo, &observed, &mut lanes);

        // 5. Aggressor bisection: toggle probes over the set of cells with
        //    address bit b set split the partner address bit by bit.
        if candidates.iter().any(|f| partner_of(f, victim).is_some()) {
            let addr_bits = usize::BITS - (n - 1).leading_zeros();
            for b in 0..addr_bits {
                let set: Vec<usize> =
                    (0..n).filter(|&c| c != victim && (c >> b) & 1 == 1).collect();
                if set.is_empty() {
                    continue;
                }
                let probe = toggle_probe(self.geom, victim, &set);
                probes += 1;
                observe(&probe, ram, &mut observed)?;
                retain_matching(&mut candidates, &probe, &observed, &mut lanes);
            }
            // 6. Exhaustive two-cell state walk per remaining partner:
            //    separates coupling subtypes and decoder-pair roles.
            let partners: BTreeSet<usize> =
                candidates.iter().filter_map(|f| partner_of(f, victim)).collect();
            for &a in &partners {
                if a == victim {
                    continue;
                }
                let probe = pair_probe(self.geom, victim, a);
                probes += 1;
                observe(&probe, ram, &mut observed)?;
                retain_matching(&mut candidates, &probe, &observed, &mut lanes);
            }
        }

        let mut partner_set: BTreeSet<Option<usize>> =
            candidates.iter().map(|f| partner_of(f, victim)).collect();
        let aggressor =
            if partner_set.len() == 1 { partner_set.pop_first().flatten() } else { None };
        let identity;
        let topology = match (&self.topology, self.dictionary) {
            (Some(t), _) => t,
            (None, Some(d)) => d.topology(),
            (None, None) => {
                identity = Topology::identity(n);
                &identity
            }
        };
        Ok(Some(Diagnosis {
            victim,
            physical_victim: topology.to_physical(victim),
            aggressor,
            physical_aggressor: aggressor.map(|a| topology.to_physical(a)),
            candidates,
            probes,
        }))
    }
}

/// The partner address of a two-cell fault as seen from `victim`
/// (coupling aggressor, or the other address of a decoder pair).
fn partner_of(fault: &FaultKind, victim: usize) -> Option<usize> {
    match *fault {
        FaultKind::CouplingInversion { agg_cell, victim_cell, .. }
        | FaultKind::CouplingIdempotent { agg_cell, victim_cell, .. }
        | FaultKind::CouplingState { agg_cell, victim_cell, .. } => {
            (victim_cell == victim).then_some(agg_cell)
        }
        FaultKind::DecoderExtraCell { addr, extra_cell } => {
            if victim == extra_cell {
                Some(addr)
            } else if victim == addr {
                Some(extra_cell)
            } else {
                None
            }
        }
        FaultKind::DecoderShadow { addr, instead_cell } => {
            if victim == instead_cell {
                Some(addr)
            } else if victim == addr {
                Some(instead_cell)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Runs `program` on the device under diagnosis from a zero reset,
/// recording the checked-read stream into `buf`.
fn observe(program: &TestProgram, ram: &mut Ram, buf: &mut Vec<u64>) -> Result<bool, DiagError> {
    ram.reset_to(0);
    buf.clear();
    let exec =
        program.execute_observed(ram, false, None, &mut |v| buf.push(v)).map_err(DiagError::Ram)?;
    Ok(exec.detected())
}

/// Drops every candidate whose simulated response stream under `program`
/// differs from the observed one. The true fault always survives: the
/// simulator is deterministic and the probe starts from the same reset
/// state on both sides.
///
/// The candidates run lane-batched, 64 per pass of `lanes` in candidate
/// order, and the survivors keep that order. A lane survives when its
/// fault injected, none of its reads mismatched the observed word, the
/// pass read exactly `observed.len()` words and the lane was not frozen
/// by a device error — per lane, exactly the scalar rule of
/// `retain_matching_scalar` (its differential oracle): an injection error,
/// a run error or a differing stream drops the candidate. A pass the
/// device refuses outright (port shortfall, geometry mismatch) would fail
/// every scalar run too, so it drops the whole chunk.
fn retain_matching(
    candidates: &mut Vec<FaultKind>,
    program: &TestProgram,
    observed: &[u64],
    lanes: &mut LaneRam,
) {
    let mut execs = [Execution::default(); LANES];
    let mut keep = Vec::with_capacity(candidates.len().div_ceil(LANES));
    for chunk in candidates.chunks(LANES) {
        lanes.eject_faults();
        lanes.reset_to(0);
        for (lane, fault) in chunk.iter().enumerate() {
            // A rejected fault claims no lane, so it can never survive.
            let _ = lanes.inject(fault.clone(), lane);
        }
        let (mut reads, mut mismatched) = (0usize, LaneChunk::ZERO);
        let pass = program.try_execute_batch_observed(lanes, &mut execs, &mut |planes| {
            if let Some(&word) = observed.get(reads) {
                for (j, &plane) in planes.iter().enumerate() {
                    mismatched |= plane ^ LaneChunk::broadcast(word, j as u32);
                }
            }
            reads += 1;
        });
        keep.push(if pass.is_ok() && reads == observed.len() {
            lanes.active_lanes() & !mismatched & !lanes.errored_lanes()
        } else {
            LaneChunk::ZERO
        });
    }
    let mut i = 0;
    candidates.retain(|_| {
        let kept = keep[i / LANES].get(i % LANES);
        i += 1;
        kept
    });
}

/// A probe exercising only `victim`: both polarities, both transitions,
/// repeated reads and non-transition writes — every single-cell behaviour
/// the simulator models shows up here, while two-cell faults (whose
/// partner is never touched after the victim's own writes) stay silent or
/// reveal their held-state component.
fn solo_probe(geom: Geometry, victim: usize) -> TestProgram {
    let mask = geom.data_mask();
    let mut b = ProgramBuilder::new(geom).with_name(format!("solo@{victim}"));
    let mut value = 0u64;
    // w0 r w1 r r w0 r r w1 w1 r w0 w0 r
    let script: [Option<u64>; 14] = [
        Some(0),
        None,
        Some(mask),
        None,
        None,
        Some(0),
        None,
        None,
        Some(mask),
        Some(mask),
        None,
        Some(0),
        Some(0),
        None,
    ];
    for step in script {
        match step {
            Some(v) => {
                b.write(victim, v);
                value = v;
            }
            None => b.read_expect(victim, value),
        }
    }
    b.build()
}

/// A probe toggling every cell of `set` around a quiet `victim`: writes
/// a background everywhere, re-asserts the victim, then drives both
/// transition directions through the set with victim read-backs in
/// between — for both backgrounds. Any two-cell fault whose partner lies
/// in `set` perturbs a victim read (and, through stream filtering, any
/// candidate that *predicts* a perturbation the device does not show is
/// eliminated just the same).
fn toggle_probe(geom: Geometry, victim: usize, set: &[usize]) -> TestProgram {
    let n = geom.cells();
    let mask = geom.data_mask();
    let mut b = ProgramBuilder::new(geom).with_name(format!("toggle@{victim}"));
    for bg in [0, mask] {
        for c in 0..n {
            b.write(c, bg);
        }
        b.write(victim, bg);
        b.read_expect(victim, bg);
        for &c in set {
            b.write(c, bg ^ mask);
        }
        b.read_expect(victim, bg);
        for &c in set {
            b.write(c, bg);
        }
        b.read_expect(victim, bg);
    }
    b.build()
}

/// An exhaustive two-cell state walk over `(victim, partner)`: every
/// combination of victim polarity and partner transition/held state, with
/// both cells read back after every write — the discrimination probe that
/// separates CFin from CFid from CFst polarities and decoder-pair roles.
fn pair_probe(geom: Geometry, victim: usize, partner: usize) -> TestProgram {
    let mask = geom.data_mask();
    let mut b = ProgramBuilder::new(geom).with_name(format!("pair@{victim}+{partner}"));
    enum Step {
        Wv(u64),
        Wa(u64),
        Rv,
        Ra,
    }
    use Step::*;
    let m = mask;
    let steps = [
        Wv(0),
        Wa(0),
        Rv,
        Ra,
        Wa(m), // partner rise, victim 0
        Rv,
        Ra,
        Wa(0), // partner fall, victim 0
        Rv,
        Ra,
        Wv(m),
        Rv,
        Ra,
        Wa(m), // partner rise, victim 1
        Rv,
        Ra,
        Wa(0), // partner fall, victim 1
        Rv,
        Ra,
        Wv(0), // victim fall, partner 0
        Rv,
        Ra,
        Wa(m),
        Wv(m), // victim rise, partner 1
        Rv,
        Ra,
        Wv(0), // victim fall, partner 1
        Rv,
        Ra,
        Wa(0),
        Rv,
        Ra,
    ];
    let (mut vv, mut va) = (0u64, 0u64);
    for step in steps {
        match step {
            Wv(x) => {
                b.write(victim, x);
                vv = x;
            }
            Wa(x) => {
                b.write(partner, x);
                va = x;
            }
            Rv => b.read_expect(victim, vv),
            Ra => b.read_expect(partner, va),
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use prt_march::library;
    use prt_ram::{CouplingTrigger, SplitMix64};

    fn localizer() -> Localizer<'static> {
        Localizer::new(library::march_diag(), Geometry::bom(16))
    }

    /// The scalar filter the lane-batched [`retain_matching`] replaced,
    /// kept as its differential oracle: one eject, reset, inject and
    /// observed run per candidate.
    fn retain_matching_scalar(
        candidates: &mut Vec<FaultKind>,
        program: &TestProgram,
        observed: &[u64],
        scratch: &mut Ram,
    ) {
        let mut buf = Vec::new();
        candidates.retain(|fault| {
            scratch.eject_faults();
            scratch.reset_to(0);
            if scratch.inject(fault.clone()).is_err() {
                return false;
            }
            buf.clear();
            if program.execute_observed(scratch, false, None, &mut |v| buf.push(v)).is_err() {
                return false;
            }
            buf.as_slice() == observed
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lane-batched filter keeps exactly the candidates the scalar
        /// oracle keeps, in the same order, for every probe shape the
        /// localizer issues: 2–201 candidates (one to four lane chunks,
        /// the last one partial) drawn from a BOM or WOM universe, plus
        /// the device's own fault and one fault invalid for the geometry,
        /// which both filters must drop.
        #[test]
        fn batched_filter_equals_scalar_oracle(
            n in 4usize..=40,
            width in prop_oneof![Just(1u32), Just(2u32), Just(4u32), Just(8u32)],
            full_spec in any::<bool>(),
            probe in 0usize..5,
            faulty in any::<bool>(),
            count in 1usize..=200,
            seed in any::<u64>(),
        ) {
            let geom = if width == 1 { Geometry::bom(n) } else { Geometry::wom(n, width).unwrap() };
            let spec = if full_spec { UniverseSpec::full() } else { UniverseSpec::paper_claim() };
            let universe = FaultUniverse::enumerate(geom, &spec);
            let mut rng = SplitMix64::new(seed);
            let pick = |rng: &mut SplitMix64| {
                universe.faults()[rng.next_below(universe.len() as u64) as usize].clone()
            };
            let victim = rng.next_below(n as u64) as usize;
            let program = match probe {
                0 => Executor::new().compile(&library::march_diag(), geom),
                1 => {
                    let lo = rng.next_below(n as u64) as usize;
                    let hi = lo + 1 + rng.next_below((n - lo) as u64) as usize;
                    Executor::new().compile_window(&library::march_diag(), geom, lo..hi)
                }
                2 => solo_probe(geom, victim),
                3 => {
                    let set: Vec<usize> =
                        (0..n).filter(|&c| c != victim && rng.next_bool()).collect();
                    toggle_probe(geom, victim, &set)
                }
                _ => {
                    let partner = (victim + 1 + rng.next_below(n as u64 - 1) as usize) % n;
                    pair_probe(geom, victim, partner)
                }
            };
            let mut candidates: Vec<FaultKind> = (0..count).map(|_| pick(&mut rng)).collect();
            let mut device = Ram::with_ports(geom, program.ports()).unwrap();
            if faulty {
                let fault = pick(&mut rng);
                device.inject(fault.clone()).unwrap();
                let at = rng.next_below(candidates.len() as u64 + 1) as usize;
                candidates.insert(at, fault);
            }
            let invalid = FaultKind::StuckAt { cell: n, bit: 0, value: 1 };
            let at = rng.next_below(candidates.len() as u64 + 1) as usize;
            candidates.insert(at, invalid);
            let mut observed = Vec::new();
            program.execute_observed(&mut device, false, None, &mut |v| observed.push(v)).unwrap();

            let mut scalar = candidates.clone();
            let mut scratch = Ram::with_ports(geom, program.ports()).unwrap();
            retain_matching_scalar(&mut scalar, &program, &observed, &mut scratch);
            let mut lanes = LaneRam::with_ports(geom, program.ports()).unwrap();
            retain_matching(&mut candidates, &program, &observed, &mut lanes);
            prop_assert_eq!(candidates, scalar);
        }
    }

    #[test]
    fn fault_free_device_yields_no_diagnosis() {
        let mut ram = Ram::new(Geometry::bom(16));
        assert_eq!(localizer().diagnose(&mut ram).unwrap(), None);
    }

    #[test]
    fn stuck_at_localizes_exactly() {
        for cell in [0usize, 7, 15] {
            let mut ram = Ram::new(Geometry::bom(16));
            ram.inject(FaultKind::StuckAt { cell, bit: 0, value: 1 }).unwrap();
            let d = localizer().diagnose(&mut ram).unwrap().expect("detected");
            assert_eq!(d.victim(), cell);
            assert_eq!(d.aggressor(), None);
            assert_eq!(
                d.exact(),
                Some(&FaultKind::StuckAt { cell, bit: 0, value: 1 }),
                "SA1 is observationally unique"
            );
            assert_eq!(d.family(), Some(FaultFamily::Saf));
        }
    }

    #[test]
    fn coupling_recovers_victim_and_aggressor() {
        let fault = FaultKind::CouplingIdempotent {
            agg_cell: 3,
            agg_bit: 0,
            victim_cell: 12,
            victim_bit: 0,
            trigger: CouplingTrigger::Rise,
            force: 1,
        };
        let mut ram = Ram::new(Geometry::bom(16));
        ram.inject(fault.clone()).unwrap();
        let d = localizer().diagnose(&mut ram).unwrap().expect("detected");
        assert_eq!(d.victim(), 12);
        assert_eq!(d.aggressor(), Some(3));
        assert_eq!(d.exact(), Some(&fault));
        assert_eq!(d.family(), Some(FaultFamily::Cf));
    }

    #[test]
    fn bom_zero_reset_equivalence_class_is_reported_whole() {
        // SA0@c, TF↑@c and AF-none@c respond identically to every access
        // sequence on a bit-oriented memory reset to 0 — the diagnosis
        // must surface the whole class, truth included, never a wrong
        // singleton.
        let cell = 9usize;
        for fault in [
            FaultKind::StuckAt { cell, bit: 0, value: 0 },
            FaultKind::Transition { cell, bit: 0, rising: true },
            FaultKind::DecoderNoAccess { addr: cell },
        ] {
            let mut ram = Ram::new(Geometry::bom(16));
            ram.inject(fault.clone()).unwrap();
            let d = localizer().diagnose(&mut ram).unwrap().expect("detected");
            assert_eq!(d.victim(), cell);
            assert!(d.candidates().contains(&fault), "{fault} missing from its class");
            assert_eq!(d.candidates().len(), 3, "{fault}: {:?}", d.candidates());
            assert_eq!(d.exact(), None);
            assert_eq!(
                d.families(),
                vec![FaultFamily::Saf, FaultFamily::Tf, FaultFamily::Af],
                "{fault}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dictionary program is not the localizer's diagnostic test")]
    fn mismatched_dictionary_program_is_rejected() {
        // A dictionary built from a weaker program than the probe test
        // would break the bisection invariant — rejected at configuration
        // time, not discovered as an Inconsistent diagnosis.
        use prt_gf::Poly2;
        use prt_ram::{FaultUniverse, UniverseSpec};
        let geom = Geometry::bom(16);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
        let program = Executor::new().compile(&library::mats(), geom);
        let dict = FaultDictionary::build(
            &universe,
            &program,
            Poly2::from_bits(0b1_0001_1011),
            prt_sim::Parallelism::Sequential,
        )
        .unwrap();
        let _ = Localizer::new(library::march_diag(), geom).with_dictionary(&dict);
    }

    #[test]
    fn wrong_geometry_is_rejected() {
        let mut ram = Ram::new(Geometry::bom(8));
        assert!(matches!(localizer().diagnose(&mut ram), Err(DiagError::GeometryMismatch { .. })));
    }

    #[test]
    fn diagnosis_reports_physical_coordinates_under_a_scramble() {
        use prt_ram::Scrambler;
        let geom = Geometry::bom(16);
        let topo = Topology::identity(16).then_swizzle(Scrambler::reversed(4)).unwrap();
        let fault = FaultKind::CouplingIdempotent {
            agg_cell: 3,
            agg_bit: 0,
            victim_cell: 12,
            victim_bit: 0,
            trigger: CouplingTrigger::Rise,
            force: 1,
        };
        let mut ram = Ram::new(geom);
        ram.inject(fault.clone()).unwrap();
        let d = Localizer::new(library::march_diag(), geom)
            .with_topology(topo.clone())
            .diagnose(&mut ram)
            .unwrap()
            .expect("detected");
        // Logical coordinates are unchanged by the declared topology...
        assert_eq!(d.victim(), 12);
        assert_eq!(d.aggressor(), Some(3));
        // ...and the physical ones are their bit-reversed positions.
        assert_eq!(d.physical_victim(), topo.to_physical(12));
        assert_eq!(d.physical_victim(), 3); // 0b1100 reversed = 0b0011
        assert_eq!(d.physical_aggressor(), Some(12)); // 0b0011 reversed
                                                      // Without a topology, physical == logical.
        let mut ram = Ram::new(geom);
        ram.inject(fault).unwrap();
        let plain = localizer().diagnose(&mut ram).unwrap().expect("detected");
        assert_eq!(plain.physical_victim(), plain.victim());
        assert_eq!(plain.physical_aggressor(), plain.aggressor());
    }

    #[test]
    fn dictionary_topology_is_inherited_by_the_localizer() {
        use prt_gf::Poly2;
        use prt_ram::{LazyUniverse, Scrambler, UniverseSpec};
        let geom = Geometry::bom(16);
        let topo = Topology::identity(16).then_swizzle(Scrambler::reversed(4)).unwrap();
        let universe =
            LazyUniverse::new_with(geom, UniverseSpec::paper_claim(), topo.clone()).materialize();
        let program = Executor::new().compile(&library::march_diag(), geom);
        let dict = FaultDictionary::build(
            &universe,
            &program,
            Poly2::from_bits(0b1_0001_1011),
            prt_sim::Parallelism::Sequential,
        )
        .unwrap();
        assert_eq!(dict.topology(), &topo);
        let mut ram = Ram::new(geom);
        ram.inject(FaultKind::StuckAt { cell: 5, bit: 0, value: 1 }).unwrap();
        let d = Localizer::new(library::march_diag(), geom)
            .with_dictionary(&dict)
            .diagnose(&mut ram)
            .unwrap()
            .expect("detected");
        assert_eq!(d.victim(), 5);
        assert_eq!(d.physical_victim(), topo.to_physical(5));
        assert_eq!(d.physical_victim(), 10); // 0b0101 reversed = 0b1010
    }

    #[test]
    fn probe_budget_is_logarithmic() {
        // Single-cell diagnosis: 1 full run + log₂ n bisection probes +
        // pin + solo; no aggressor phase once candidates are single-cell.
        let mut ram = Ram::new(Geometry::bom(16));
        ram.inject(FaultKind::StuckAt { cell: 5, bit: 0, value: 1 }).unwrap();
        let d = localizer().diagnose(&mut ram).unwrap().unwrap();
        assert!(d.probes() <= 1 + 4 + 1 + 1, "{} probes", d.probes());
    }
}
