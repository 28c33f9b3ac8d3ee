//! Behavioural BIST controller — the hardware view of a π-iteration.
//!
//! [`PiTest::run`] is the *algorithmic* view. This module models what the
//! paper's §4 actually proposes to put on silicon: a small finite-state
//! machine around the memory's existing address register (converted to a
//! counter), two operand registers, the XOR/multiplier datapath and the
//! `Fin` comparator. The controller interacts with the RAM **only through
//! the port interface, one cycle at a time** — exactly like hardware — and
//! its per-state register updates are simple enough to transliterate to
//! RTL.
//!
//! Its value in the reproduction: the controller measures the same
//! `3n − 2` cycles and produces bit-identical verdicts to the algorithmic
//! runner (asserted in tests and usable as a cross-check harness), which
//! demonstrates that the paper's cost model counts a *sufficient* set of
//! structures.

use crate::{PiTest, PrtError};
use prt_gf::Poly2;
use prt_lfsr::Misr;
use prt_ram::{PortOp, Ram};

/// Controller FSM states (one memory cycle per state transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlState {
    /// Writing the `k` seed cells.
    Seed {
        /// Seed element index being written.
        j: usize,
    },
    /// Reading operand `i` of the current sub-iteration.
    Read {
        /// Operand index `0..k` (trajectory-relative).
        i: usize,
    },
    /// Writing the combined value into the next cell.
    Write,
    /// Reading back the `k` signature cells.
    Readback {
        /// Signature element index.
        j: usize,
    },
    /// Comparison finished.
    Done,
}

/// One-cycle-at-a-time BIST controller for a single-port RAM.
#[derive(Debug, Clone)]
pub struct BistController {
    pi: PiTest,
    order: Vec<usize>,
    /// Operand shift register (the automaton's `k` stages).
    operands: Vec<u64>,
    /// Sub-iteration counter (the converted address register).
    t: usize,
    state: CtrlState,
    fin: Vec<u64>,
    cycles: u64,
    /// Optional response compactor (signature mode): absorbs every read
    /// response the controller observes.
    misr: Option<Misr>,
    /// The fault-free signature, precomputed at configuration time.
    reference_signature: Option<u64>,
}

impl BistController {
    /// Builds a controller for one π-iteration of `pi` over an `n`-cell
    /// memory.
    ///
    /// # Errors
    ///
    /// [`PrtError::MemoryTooSmall`] if `n < k + 1`.
    pub fn new(pi: PiTest, n: usize) -> Result<BistController, PrtError> {
        let k = pi.stages();
        if n < k + 1 {
            return Err(PrtError::MemoryTooSmall { cells: n, needed: k + 1 });
        }
        let order = pi.trajectory().order(n);
        Ok(BistController {
            pi,
            order,
            operands: vec![0; k],
            t: 0,
            state: CtrlState::Seed { j: 0 },
            fin: Vec::new(),
            cycles: 0,
            misr: None,
            reference_signature: None,
        })
    }

    /// Enables **signature mode**: a [`Misr`] over `poly` absorbs every
    /// read response the controller observes (the `k` operand reads of
    /// each sub-iteration, then the `Fin` readback) — the conventional
    /// BIST compaction path the paper's "testing memory by its own
    /// components" argument compares against. The fault-free reference
    /// signature is precomputed here from the automaton's expected
    /// sequence, so a tester needs only the final
    /// [`BistController::signature`] / [`BistController::signature_matches`]
    /// comparison, no per-read comparator.
    ///
    /// # Errors
    ///
    /// [`PrtError::Lfsr`] for a degenerate MISR polynomial.
    pub fn with_signature(mut self, poly: Poly2) -> Result<BistController, PrtError> {
        let misr = Misr::new(poly)?;
        let mut reference = Misr::new(poly)?;
        let n = self.order.len();
        let k = self.pi.stages();
        // The controller reads trajectory positions t..t+k (ascending) per
        // sub-iteration, then positions n−k..n at readback; the fault-free
        // value at position p is the reference sequence's p-th element.
        let seq = self.pi.expected_sequence(n);
        for t in 0..n - k {
            for i in 0..k {
                reference.absorb(seq[t + i]);
            }
        }
        for &v in &seq[n - k..] {
            reference.absorb(v);
        }
        self.reference_signature = Some(reference.signature());
        self.misr = Some(misr);
        Ok(self)
    }

    /// Current FSM state.
    pub fn state(&self) -> CtrlState {
        self.state
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// `true` once the controller has produced its verdict.
    pub fn done(&self) -> bool {
        matches!(self.state, CtrlState::Done)
    }

    /// Advances the controller by one memory cycle.
    ///
    /// # Errors
    ///
    /// Propagates port errors (cannot occur for a well-formed schedule).
    ///
    /// # Panics
    ///
    /// Panics if called after [`BistController::done`].
    pub fn step(&mut self, ram: &mut Ram) -> Result<(), PrtError> {
        assert!(!self.done(), "controller already finished");
        let k = self.pi.stages();
        let n = self.order.len();
        self.cycles += 1;
        match self.state {
            CtrlState::Seed { j } => {
                ram.cycle(&[PortOp::Write { addr: self.order[j], data: self.pi.init()[j] }])?;
                self.state =
                    if j + 1 < k { CtrlState::Seed { j: j + 1 } } else { CtrlState::Read { i: 0 } };
            }
            CtrlState::Read { i } => {
                let res = ram.cycle(&[PortOp::Read { addr: self.order[self.t + i] }])?;
                let value = res[0].expect("read issued");
                self.operands[i] = value;
                if let Some(m) = &mut self.misr {
                    m.absorb(value);
                }
                self.state =
                    if i + 1 < k { CtrlState::Read { i: i + 1 } } else { CtrlState::Write };
            }
            CtrlState::Write => {
                // Datapath: e ⊕ Σ c_i·operand — the XOR tree + constant
                // multipliers of the cost model.
                let field = self.pi.field();
                let g = {
                    let fb = self.pi.reference_lfsr();
                    fb.feedback().to_vec()
                };
                let g0_inv = field.inv(g[0]).expect("validated");
                let mut acc = self.pi.affine();
                for (i, &gi) in g[1..].iter().enumerate() {
                    let c = field.mul(g0_inv, gi);
                    // c_{i+1} multiplies s_{t+k−i−1} = operands[k−1−i].
                    acc = field.add(acc, field.mul(c, self.operands[k - 1 - i]));
                }
                ram.cycle(&[PortOp::Write { addr: self.order[self.t + k], data: acc }])?;
                self.t += 1;
                self.state = if self.t < n - k {
                    CtrlState::Read { i: 0 }
                } else {
                    CtrlState::Readback { j: 0 }
                };
            }
            CtrlState::Readback { j } => {
                let res = ram.cycle(&[PortOp::Read { addr: self.order[n - k + j] }])?;
                let value = res[0].expect("read issued");
                self.fin.push(value);
                if let Some(m) = &mut self.misr {
                    m.absorb(value);
                }
                self.state =
                    if j + 1 < k { CtrlState::Readback { j: j + 1 } } else { CtrlState::Done };
            }
            CtrlState::Done => unreachable!("guarded above"),
        }
        Ok(())
    }

    /// Runs the FSM to completion and returns the pass/fail verdict
    /// (`Fin` vs the pre-loaded `Fin*`).
    ///
    /// # Errors
    ///
    /// [`PrtError::WidthMismatch`] before any cycle when the memory's cell
    /// width differs from the field degree (as [`PiTest::run`]); otherwise
    /// propagates [`BistController::step`] errors.
    pub fn run_to_completion(&mut self, ram: &mut Ram) -> Result<bool, PrtError> {
        let (field_bits, memory_bits) = (self.pi.field().degree(), ram.geometry().width());
        if field_bits != memory_bits {
            return Err(PrtError::WidthMismatch { field_bits, memory_bits });
        }
        while !self.done() {
            self.step(ram)?;
        }
        Ok(self.fin == self.pi.fin_star(self.order.len()))
    }

    /// The observed `Fin` (valid after completion).
    pub fn fin(&self) -> &[u64] {
        &self.fin
    }

    /// The compacted signature so far (`None` unless
    /// [`BistController::with_signature`] was configured).
    pub fn signature(&self) -> Option<u64> {
        self.misr.as_ref().map(Misr::signature)
    }

    /// The precomputed fault-free signature (`None` without signature
    /// mode).
    pub fn reference_signature(&self) -> Option<u64> {
        self.reference_signature
    }

    /// Signature verdict after completion: `Some(true)` when the compacted
    /// response stream matches the fault-free reference. Unlike the
    /// `Fin`/`Fin*` comparison this needs no per-run expected vector —
    /// only the `w`-bit reference — at an aliasing risk of `2⁻ʷ`
    /// ([`Misr::aliasing_probability`]).
    pub fn signature_matches(&self) -> Option<bool> {
        match (&self.misr, self.reference_signature) {
            (Some(m), Some(r)) => Some(m.signature() == r),
            _ => None,
        }
    }
}

/// Cross-checks the hardware FSM against the algorithmic runner over an
/// entire fault universe — the §4 faithfulness argument, run as two pooled
/// campaigns (one driving a [`BistController`] per instance through a
/// closure, one running the compiled π-program, which is verdict-identical
/// to [`PiTest::run`]) whose verdict tables are then compared element-wise.
///
/// Returns the indices of the fault instances on which the two models
/// disagree; an empty result means the cycle-level controller is
/// observationally equivalent to the algorithmic view on that universe.
///
/// # Errors
///
/// As [`PiTest::compile`]: a geometry that cannot host the automaton is
/// refused before either campaign runs.
pub fn cross_check(pi: &PiTest, universe: &prt_ram::FaultUniverse) -> Result<Vec<usize>, PrtError> {
    use prt_sim::Campaign;
    let program = pi.compile(universe.geometry())?;
    let n = universe.geometry().cells();
    let hw_runner = |ram: &mut Ram, _bg: u64| {
        BistController::new(pi.clone(), n)
            .and_then(|mut ctrl| ctrl.run_to_completion(ram))
            .map(|pass| !pass)
            .unwrap_or(false)
    };
    let hw = Campaign::new(universe, hw_runner).detections();
    let sw = Campaign::new(universe, &program).detections();
    Ok(hw.iter().zip(&sw).enumerate().filter_map(|(i, (h, s))| (h != s).then_some(i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_ram::{FaultKind, Geometry};

    #[test]
    fn controller_matches_algorithmic_runner_fault_free() {
        for n in [8usize, 17, 33] {
            let pi = PiTest::figure_1b().unwrap();
            let mut hw = Ram::new(Geometry::wom(n, 4).unwrap());
            let mut ctrl = BistController::new(pi.clone(), n).unwrap();
            let pass = ctrl.run_to_completion(&mut hw).unwrap();
            assert!(pass, "n={n}");
            assert_eq!(ctrl.cycles(), 3 * n as u64 - 2, "hardware cycle count");
            let mut sw = Ram::new(Geometry::wom(n, 4).unwrap());
            let res = pi.run(&mut sw).unwrap();
            assert_eq!(ctrl.fin(), res.fin());
            for c in 0..n {
                assert_eq!(hw.peek(c), sw.peek(c), "cell {c}");
            }
        }
    }

    #[test]
    fn controller_verdicts_match_under_faults() {
        let pi = PiTest::figure_1a().unwrap();
        let n = 16usize;
        for cell in 0..n {
            for value in [0u8, 1] {
                let fault = FaultKind::StuckAt { cell, bit: 0, value };
                let mut hw = Ram::new(Geometry::bom(n));
                hw.inject(fault.clone()).unwrap();
                let mut ctrl = BistController::new(pi.clone(), n).unwrap();
                let pass = ctrl.run_to_completion(&mut hw).unwrap();
                let mut sw = Ram::new(Geometry::bom(n));
                sw.inject(fault).unwrap();
                let res = pi.run(&mut sw).unwrap();
                assert_eq!(!pass, res.detected(), "SA{value}@{cell}");
            }
        }
    }

    #[test]
    fn cross_check_full_universe_agrees() {
        use prt_ram::{FaultUniverse, UniverseSpec};
        let pi = PiTest::figure_1a().unwrap();
        let universe = FaultUniverse::enumerate(Geometry::bom(12), &UniverseSpec::paper_claim());
        let disagreements = cross_check(&pi, &universe).unwrap();
        assert!(
            disagreements.is_empty(),
            "controller disagrees with the algorithmic runner on {} of {} instances \
             (first: {})",
            disagreements.len(),
            universe.len(),
            universe.faults()[disagreements[0]]
        );
    }

    #[test]
    fn cross_check_refuses_a_width_mismatched_universe() {
        use prt_ram::{FaultUniverse, UniverseSpec};
        let pi = PiTest::figure_1b().unwrap(); // GF(16): 4-bit cells
        let universe = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        assert_eq!(
            cross_check(&pi, &universe),
            Err(PrtError::WidthMismatch { field_bits: 4, memory_bits: 1 })
        );
    }

    #[test]
    fn controller_refuses_a_memory_of_the_wrong_width() {
        // Whether a wrong-width run failed used to depend on the data it
        // wrote: this stuck-at-0 cell let a GF(16) run on 1-bit cells
        // finish with a verdict.
        let pi = PiTest::figure_1b().unwrap();
        let mut ram = Ram::new(Geometry::bom(9));
        ram.inject(FaultKind::StuckAt { cell: 1, bit: 0, value: 0 }).unwrap();
        let mut ctrl = BistController::new(pi, 9).unwrap();
        assert_eq!(
            ctrl.run_to_completion(&mut ram),
            Err(PrtError::WidthMismatch { field_bits: 4, memory_bits: 1 })
        );
        assert_eq!(ctrl.cycles(), 0, "refused before the first cycle");
    }

    #[test]
    fn signature_mode_matches_fin_verdict() {
        // The compaction path: fault-free runs land on the precomputed
        // reference; every single stuck-at over the array is flagged by
        // the signature exactly when the Fin comparison flags it (no
        // aliasing observed on this universe — asserted, not assumed).
        let poly = Poly2::from_bits(0b1_0001_1011); // x⁸+x⁴+x³+x+1
        let n = 16usize;
        for pi in [PiTest::figure_1a().unwrap()] {
            let clean = BistController::new(pi.clone(), n).unwrap().with_signature(poly).unwrap();
            let mut ctrl = clean.clone();
            let mut ram = Ram::new(Geometry::bom(n));
            let pass = ctrl.run_to_completion(&mut ram).unwrap();
            assert!(pass);
            assert_eq!(ctrl.signature(), ctrl.reference_signature());
            assert_eq!(ctrl.signature_matches(), Some(true));
            for cell in 0..n {
                for value in [0u8, 1] {
                    let mut ram = Ram::new(Geometry::bom(n));
                    ram.inject(FaultKind::StuckAt { cell, bit: 0, value }).unwrap();
                    let mut ctrl = clean.clone();
                    let pass = ctrl.run_to_completion(&mut ram).unwrap();
                    assert_eq!(
                        ctrl.signature_matches(),
                        Some(pass),
                        "SA{value}@{cell}: signature and Fin verdicts diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn signature_mode_off_by_default() {
        let pi = PiTest::figure_1a().unwrap();
        let mut ram = Ram::new(Geometry::bom(8));
        let mut ctrl = BistController::new(pi, 8).unwrap();
        ctrl.run_to_completion(&mut ram).unwrap();
        assert_eq!(ctrl.signature(), None);
        assert_eq!(ctrl.reference_signature(), None);
        assert_eq!(ctrl.signature_matches(), None);
    }

    #[test]
    fn signature_mode_rejects_degenerate_polynomial() {
        let pi = PiTest::figure_1a().unwrap();
        let ctrl = BistController::new(pi, 8).unwrap();
        assert!(matches!(ctrl.with_signature(Poly2::ONE), Err(PrtError::Lfsr(_))));
    }

    #[test]
    fn fsm_state_progression() {
        let pi = PiTest::figure_1a().unwrap();
        let mut ram = Ram::new(Geometry::bom(4));
        let mut ctrl = BistController::new(pi, 4).unwrap();
        assert_eq!(ctrl.state(), CtrlState::Seed { j: 0 });
        ctrl.step(&mut ram).unwrap();
        assert_eq!(ctrl.state(), CtrlState::Seed { j: 1 });
        ctrl.step(&mut ram).unwrap();
        assert_eq!(ctrl.state(), CtrlState::Read { i: 0 });
        ctrl.step(&mut ram).unwrap();
        assert_eq!(ctrl.state(), CtrlState::Read { i: 1 });
        ctrl.step(&mut ram).unwrap();
        assert_eq!(ctrl.state(), CtrlState::Write);
        // n=4, k=2: two sub-iterations then readback.
        while !ctrl.done() {
            ctrl.step(&mut ram).unwrap();
        }
        assert_eq!(ctrl.cycles(), 10); // 3·4 − 2
    }

    #[test]
    fn too_small_memory_rejected() {
        let pi = PiTest::figure_1a().unwrap();
        assert!(matches!(BistController::new(pi, 2), Err(PrtError::MemoryTooSmall { .. })));
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn stepping_after_done_panics() {
        let pi = PiTest::figure_1a().unwrap();
        let mut ram = Ram::new(Geometry::bom(4));
        let mut ctrl = BistController::new(pi, 4).unwrap();
        ctrl.run_to_completion(&mut ram).unwrap();
        let _ = ctrl.step(&mut ram);
    }
}
