//! The π-test iteration — equation (1) of the paper.
//!
//! ```text
//! π-iteration = { c(w_init); ⇑_i ( r_i, r_{i+1}, w_{i+2} = r_i ⊕ r_{i+1} ) }
//! ```
//!
//! generalised to `k` stages and arbitrary feedback coefficients over
//! GF(2^m): after seeding the first `k` trajectory positions, every
//! sub-iteration reads the `k` most recent cells and writes their
//! GF-combination into the next one, so the cell contents reproduce the
//! output sequence of the reference [`WordLfsr`]. The run ends by reading
//! the last `k` cells (`Fin`) and comparing them with the LFSR prediction
//! `Fin*`.
//!
//! Three schedules are provided, matching §3–§4 of the paper:
//!
//! | schedule | ports | cycles (k = 2) |
//! |---|---|---|
//! | [`PiTest::run`] | 1 | `3n − 2` — the paper's `O(3n)` |
//! | [`PiTest::run_dual_port`] | 2 | `2n − 2` — the paper's `2n` (Figure 2) |
//! | [`PiTest::run_quad_port`] | 4 | `≈ n` — the §4 multi-LFSR scheme |

use crate::{PrtError, Trajectory};
use prt_gf::Field;
use prt_lfsr::WordLfsr;
use prt_ram::{Geometry, MemoryDevice, PortOp, ProgramBuilder, Ram, SlotOp, TestProgram};

/// One configured π-test iteration.
///
/// # Example
///
/// The paper's Figure 1b automaton on a fault-free word-oriented memory —
/// with `n` a multiple of the LFSR period the pseudo-ring closes
/// (`Fin = Init`):
///
/// ```
/// use prt_core::PiTest;
/// use prt_ram::{Geometry, Ram};
///
/// let pi = PiTest::figure_1b()?;
/// let period = pi.period()? as usize;
/// let mut ram = Ram::new(Geometry::wom(period + 2, 4)?);
/// let outcome = pi.run(&mut ram)?;
/// assert!(!outcome.detected());
/// assert_eq!(outcome.fin(), pi.init()); // ring closure
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PiTest {
    lfsr: WordLfsr,
    trajectory: Trajectory,
}

/// Outcome of one π-test iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiResult {
    fin: Vec<u64>,
    fin_star: Vec<u64>,
    ops: u64,
    cycles: u64,
    stale_errors: u64,
}

impl PiResult {
    pub(crate) fn from_parts(fin: Vec<u64>, fin_star: Vec<u64>, ops: u64, cycles: u64) -> PiResult {
        PiResult { fin, fin_star, ops, cycles, stale_errors: 0 }
    }

    pub(crate) fn from_execution(
        fin: Vec<u64>,
        fin_star: Vec<u64>,
        exec: &prt_ram::Execution,
    ) -> PiResult {
        PiResult {
            fin,
            fin_star,
            ops: exec.ops,
            cycles: exec.cycles,
            stale_errors: exec.stale_errors,
        }
    }

    /// The observed final state (last `k` trajectory cells).
    pub fn fin(&self) -> &[u64] {
        &self.fin
    }

    /// The predicted final state.
    pub fn fin_star(&self) -> &[u64] {
        &self.fin_star
    }

    /// `true` when the memory is flagged faulty: `Fin ≠ Fin*`, or a
    /// pre-read observed a corrupted stale value (pre-read mode only).
    pub fn detected(&self) -> bool {
        self.fin != self.fin_star || self.stale_errors > 0
    }

    /// Read + write operations the iteration performed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Device cycles the iteration consumed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Pre-read mismatches observed (always 0 in plain mode).
    pub fn stale_errors(&self) -> u64 {
        self.stale_errors
    }
}

impl PiTest {
    /// Creates a π-test over `field` with feedback polynomial coefficients
    /// `[g0, …, gk]` and initial state `[s0, …, s_{k−1}]` (the TDB seed).
    ///
    /// # Errors
    ///
    /// Propagates [`prt_lfsr::LfsrError`] validation failures (degenerate
    /// feedback, non-invertible `g0`, out-of-field values…).
    pub fn new(field: Field, feedback: &[u64], init: &[u64]) -> Result<PiTest, PrtError> {
        let lfsr = WordLfsr::from_feedback(field, feedback, init)?;
        Ok(PiTest { lfsr, trajectory: Trajectory::Up })
    }

    /// The bit-oriented automaton of Figure 1a: GF(2), `g(x) = 1 + x + x²`,
    /// `Init = (0, 1)` — period-3 sequence `0 1 1 0 1 1 …`.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature is fallible because field
    /// construction is.
    pub fn figure_1a() -> Result<PiTest, PrtError> {
        let field = Field::new(1, 0b11)?;
        PiTest::new(field, &[1, 1, 1], &[0, 1])
    }

    /// The word-oriented automaton of Figure 1b: GF(2⁴) with
    /// `p(z) = 1 + z + z⁴`, `g(x) = 1 + 2x + 2x²`, `Init = (0, 1)` —
    /// sequence `0, 1, 2, 6, 8, …`.
    ///
    /// # Errors
    ///
    /// Never fails in practice (see [`PiTest::figure_1a`]).
    pub fn figure_1b() -> Result<PiTest, PrtError> {
        let field = Field::new(4, 0b1_0011)?;
        PiTest::new(field, &[1, 2, 2], &[0, 1])
    }

    /// Sets the affine term (complemented-TDB support).
    ///
    /// # Errors
    ///
    /// [`PrtError::Lfsr`] if `e` is not a field element.
    pub fn with_affine(mut self, e: u64) -> Result<PiTest, PrtError> {
        self.lfsr = self.lfsr.with_affine(e)?;
        Ok(self)
    }

    /// Sets the trajectory (default ascending).
    pub fn with_trajectory(mut self, trajectory: Trajectory) -> PiTest {
        self.trajectory = trajectory;
        self
    }

    /// The coefficient field.
    pub fn field(&self) -> &Field {
        self.lfsr.field()
    }

    /// Number of automaton stages `k`.
    pub fn stages(&self) -> usize {
        self.lfsr.stages()
    }

    /// The TDB seed `Init`.
    pub fn init(&self) -> &[u64] {
        self.lfsr.state()
    }

    /// The affine term.
    pub fn affine(&self) -> u64 {
        self.lfsr.affine()
    }

    /// The configured trajectory.
    pub fn trajectory(&self) -> Trajectory {
        self.trajectory
    }

    /// The reference LFSR (fresh copy seeded with `Init`).
    pub fn reference_lfsr(&self) -> WordLfsr {
        self.lfsr.clone()
    }

    /// First `n` elements of the fault-free cell-value sequence.
    pub fn expected_sequence(&self, n: usize) -> Vec<u64> {
        self.lfsr.clone().sequence(n)
    }

    /// Period of the virtual automaton from `Init` (pseudo-ring length).
    ///
    /// # Errors
    ///
    /// [`PrtError::Lfsr`] if the period exceeds the search budget (2²⁴
    /// steps for non-irreducible feedback).
    pub fn period(&self) -> Result<u128, PrtError> {
        Ok(self.lfsr.period(1 << 24)?)
    }

    /// The predicted final state `Fin*` for an `n`-cell memory.
    pub fn fin_star(&self, n: usize) -> Vec<u64> {
        let k = self.stages();
        self.lfsr.state_after((n - k) as u128)
    }

    /// `true` when an `n`-cell run closes the pseudo-ring (`Fin* = Init`).
    ///
    /// # Errors
    ///
    /// Propagates [`PiTest::period`] search failures.
    pub fn ring_closes(&self, n: usize) -> Result<bool, PrtError> {
        let k = self.stages();
        let p = self.period()?;
        Ok(n >= k && ((n - k) as u128).is_multiple_of(p))
    }

    fn validate_geometry(&self, cells: usize, width: u32) -> Result<(), PrtError> {
        let m = self.field().degree();
        if width != m {
            return Err(PrtError::WidthMismatch { field_bits: m, memory_bits: width });
        }
        let k = self.stages();
        if cells < k + 1 {
            return Err(PrtError::MemoryTooSmall { cells, needed: k + 1 });
        }
        Ok(())
    }

    /// Runs one π-iteration on a single-port memory: `k` seed writes,
    /// `(n−k)` sub-iterations of `k` reads + 1 write, then `k` signature
    /// reads — `(k+1)·n − k² + k` operations, the paper's `O(3n)` for
    /// `k = 2`.
    ///
    /// # Errors
    ///
    /// [`PrtError::WidthMismatch`] / [`PrtError::MemoryTooSmall`] when the
    /// memory does not fit the automaton.
    pub fn run<M: MemoryDevice>(&self, mem: &mut M) -> Result<PiResult, PrtError> {
        let geom = mem.geometry();
        self.validate_geometry(geom.cells(), geom.width())?;
        let n = geom.cells();
        let k = self.stages();
        let order = self.trajectory.order(n);
        let before = mem.stats();

        for (j, &cell) in order.iter().take(k).enumerate() {
            mem.write(cell, self.init()[j]);
        }
        let field = self.field().clone();
        let coeffs: Vec<u64> = self.normalised_coeffs();
        for t in 0..n - k {
            // Read the k most recent positions, oldest first.
            let mut acc = self.affine();
            for (i, &c) in coeffs.iter().enumerate() {
                // c_i multiplies s_{t+k−i} — trajectory position t+k−i.
                let v = mem.read(order[t + k - 1 - i]);
                acc = field.add(acc, field.mul(c, v));
            }
            mem.write(order[t + k], acc);
        }
        let fin: Vec<u64> = order[n - k..].iter().map(|&c| mem.read(c)).collect();
        let after = mem.stats();
        Ok(PiResult {
            fin,
            fin_star: self.fin_star(n),
            ops: after.ops() - before.ops(),
            cycles: after.cycles - before.cycles,
            stale_errors: 0,
        })
    }

    /// Runs one π-iteration in *pre-read* mode: before every wave write the
    /// target cell is read first and compared against `expected_stale`
    /// (indexed **by address**), the contents the previous iteration should
    /// have left behind. Mismatches are counted in
    /// [`PiResult::stale_errors`].
    ///
    /// Pre-reading closes the structural blind spot of the plain π-test:
    /// inversion/idempotent coupling corruption that lands on a cell *after*
    /// its two operand reads is otherwise silently overwritten by the next
    /// iteration. The cost is one extra read per sub-iteration —
    /// `(k+2)·n − k² + 2k` operations (`4n − 2` for `k = 2`) instead of the
    /// paper's `3n − 2`. Experiment E3 quantifies what the extra read buys.
    ///
    /// With `expected_stale = None` (unknown previous contents, e.g. the
    /// first iteration after power-up) the run degrades to the plain
    /// schedule.
    ///
    /// # Errors
    ///
    /// As for [`PiTest::run`].
    pub fn run_with_preread<M: MemoryDevice>(
        &self,
        mem: &mut M,
        expected_stale: Option<&[u64]>,
    ) -> Result<PiResult, PrtError> {
        let Some(stale) = expected_stale else {
            return self.run(mem);
        };
        let geom = mem.geometry();
        self.validate_geometry(geom.cells(), geom.width())?;
        let n = geom.cells();
        let k = self.stages();
        let order = self.trajectory.order(n);
        let before = mem.stats();
        let mut stale_errors = 0u64;

        for (j, &cell) in order.iter().take(k).enumerate() {
            if mem.read(cell) != stale[cell] {
                stale_errors += 1;
            }
            mem.write(cell, self.init()[j]);
        }
        let field = self.field().clone();
        let coeffs = self.normalised_coeffs();
        for t in 0..n - k {
            let mut acc = self.affine();
            for (i, &c) in coeffs.iter().enumerate() {
                let v = mem.read(order[t + k - 1 - i]);
                acc = field.add(acc, field.mul(c, v));
            }
            let target = order[t + k];
            if mem.read(target) != stale[target] {
                stale_errors += 1;
            }
            mem.write(target, acc);
        }
        let fin: Vec<u64> = order[n - k..].iter().map(|&c| mem.read(c)).collect();
        let after = mem.stats();
        Ok(PiResult {
            fin,
            fin_star: self.fin_star(n),
            ops: after.ops() - before.ops(),
            cycles: after.cycles - before.cycles,
            stale_errors,
        })
    }

    /// Compiles one plain single-port π-iteration for `geom` into a
    /// [`TestProgram`]: the trajectory is materialised, the normalised
    /// feedback constants become precompiled GF(2)-linear maps driving the
    /// interpreter's accumulator, and the `Fin` reads carry their `Fin*`
    /// expectations inline. The program performs the **exact** access
    /// sequence of [`PiTest::run`] — including the fault-propagating
    /// data-dependent wave writes — and is verdict-identical to it
    /// (property-tested). Compile once per (test, geometry); run per
    /// trial.
    ///
    /// # Errors
    ///
    /// As [`PiTest::run`].
    pub fn compile(&self, geom: Geometry) -> Result<TestProgram, PrtError> {
        self.compile_with_preread(geom, None)
    }

    /// Compiles the pre-read variant (see [`PiTest::run_with_preread`]):
    /// with `expected_stale` given (indexed by address), every wave write
    /// is preceded by a stale-channel check of its target. `None` degrades
    /// to the plain program.
    ///
    /// # Errors
    ///
    /// As [`PiTest::run`].
    pub fn compile_with_preread(
        &self,
        geom: Geometry,
        expected_stale: Option<&[u64]>,
    ) -> Result<TestProgram, PrtError> {
        let mut b = ProgramBuilder::new(geom).with_name("π-iteration");
        self.compile_into(&mut b, geom, expected_stale)?;
        Ok(b.build())
    }

    /// Appends this iteration's ops to `b` (the scheme compiler fuses all
    /// iterations into one flat program).
    pub(crate) fn compile_into(
        &self,
        b: &mut ProgramBuilder,
        geom: Geometry,
        expected_stale: Option<&[u64]>,
    ) -> Result<(), PrtError> {
        self.validate_geometry(geom.cells(), geom.width())?;
        let n = geom.cells();
        let k = self.stages();
        let order = self.trajectory.order(n);
        let maps = self.coefficient_maps(b, geom);
        for (j, &cell) in order.iter().take(k).enumerate() {
            if let Some(stale) = expected_stale {
                b.read_stale(cell, stale[cell]);
            }
            b.write(cell, self.init()[j]);
        }
        for t in 0..n - k {
            b.acc_set(self.affine());
            for (i, &m) in maps.iter().enumerate() {
                // c_i multiplies s_{t+k−i} — trajectory position t+k−i.
                b.read_acc(order[t + k - 1 - i], m);
            }
            let target = order[t + k];
            if let Some(stale) = expected_stale {
                b.read_stale(target, stale[target]);
            }
            b.write_acc(target);
        }
        let fin_star = self.fin_star(n);
        for (j, &cell) in order[n - k..].iter().enumerate() {
            b.read_capture(cell, fin_star[j]);
        }
        Ok(())
    }

    /// Compiles the dual-port schedule (Figure 2) into a two-port
    /// [`TestProgram`]: operand reads pair up two per cycle. Without
    /// `expected_stale` this is the plain `2n − 2`-cycle schedule of
    /// [`PiTest::run_dual_port`]. With it, the program additionally
    /// carries the **pre-read transformation**: each wave write's stale
    /// check is *fused into the write cycle* (the device reads before it
    /// writes within one cycle), so pre-read coverage costs only
    /// `⌊k/2⌋` extra seed cycles (the seeds unpair to fuse their own
    /// stale checks) and zero extra wave cycles — `2n − 1` cycles for
    /// `k = 2` instead of the single-port pre-read's `4n − 2` operations.
    ///
    /// # Errors
    ///
    /// As [`PiTest::run`] (the port check happens when the program meets a
    /// device).
    pub fn compile_dual_port(
        &self,
        geom: Geometry,
        expected_stale: Option<&[u64]>,
    ) -> Result<TestProgram, PrtError> {
        let mut b = ProgramBuilder::new(geom).with_name("π dual-port");
        self.compile_dual_into(&mut b, geom, expected_stale)?;
        Ok(b.build())
    }

    pub(crate) fn compile_dual_into(
        &self,
        b: &mut ProgramBuilder,
        geom: Geometry,
        expected_stale: Option<&[u64]>,
    ) -> Result<(), PrtError> {
        self.validate_geometry(geom.cells(), geom.width())?;
        let n = geom.cells();
        let k = self.stages();
        let order = self.trajectory.order(n);
        let maps = self.coefficient_maps(b, geom);
        // Seed: plain mode packs the k init writes two per cycle; pre-read
        // mode fuses each seed's stale check with its write instead (one
        // seed per cycle — the stale read sees the pre-write contents).
        match expected_stale {
            None => b.cycle2_pairs(
                (0..k).map(|j| SlotOp::Write { addr: order[j] as u32, data: self.init()[j] }),
            ),
            Some(stale) => {
                for j in 0..k {
                    b.cycle2(
                        SlotOp::ReadStale { addr: order[j] as u32, expect: stale[order[j]] },
                        SlotOp::Write { addr: order[j] as u32, data: self.init()[j] },
                    );
                }
            }
        }
        for t in 0..n - k {
            b.acc_set(self.affine());
            // Read phase: the k operand reads, two per cycle — the value at
            // trajectory position t+j pairs with coefficient c_{k−j}.
            b.cycle2_pairs((0..k).map(|j| SlotOp::ReadAcc {
                addr: order[t + j] as u32,
                map: maps[k - 1 - j],
                lane: 0,
            }));
            // Write phase: plain mode writes alone; pre-read mode fuses the
            // target's stale check into the same cycle for free.
            let target = order[t + k];
            match expected_stale {
                None => b.cycle2(SlotOp::WriteAcc { addr: target as u32, lane: 0 }, SlotOp::Idle),
                Some(stale) => b.cycle2(
                    SlotOp::ReadStale { addr: target as u32, expect: stale[target] },
                    SlotOp::WriteAcc { addr: target as u32, lane: 0 },
                ),
            }
        }
        // Signature readback, two per cycle.
        let fin_star = self.fin_star(n);
        b.cycle2_pairs(
            (0..k).map(|j| SlotOp::ReadCapture {
                addr: order[n - k + j] as u32,
                expect: fin_star[j],
            }),
        );
        Ok(())
    }

    /// Compiles the quad-port multi-LFSR schedule (§4) into a four-port
    /// [`TestProgram`]: the trajectory splits into two half-array automata
    /// running concurrently, each on its own **accumulator lane** and port
    /// pair, so a whole sub-iteration (2 operand reads per half, then both
    /// wave writes) fits in `⌈k/2⌉ + 1` cycles — ≈ `n` cycles per
    /// iteration for `k = 2`. The program performs the exact access
    /// sequence of [`PiTest::run_quad_port`] (slot position = port index,
    /// idle slots included) and is verdict-, op-, cycle- and
    /// image-identical to it (asserted in tests); the interpreted runner
    /// stays as the differential oracle.
    ///
    /// # Errors
    ///
    /// As [`PiTest::run_quad_port`] (each half must host the automaton).
    pub fn compile_quad_port(&self, geom: Geometry) -> Result<TestProgram, PrtError> {
        let n = geom.cells();
        let k = self.stages();
        let half = n / 2;
        self.validate_geometry(half, geom.width())?;
        let mut b = ProgramBuilder::new(geom).with_name("π quad-port");
        let order = self.trajectory.order(n);
        let (lo, hi) = order.split_at(half);
        let maps = self.coefficient_maps(&mut b, geom);
        // Seed both halves: k cycles of 2 writes each (ports 0, 2).
        for j in 0..k {
            b.cyclen(&[
                SlotOp::Write { addr: lo[j] as u32, data: self.init()[j] },
                SlotOp::Idle,
                SlotOp::Write { addr: hi[j] as u32, data: self.init()[j] },
                SlotOp::Idle,
            ]);
        }
        // Interleave both halves' sub-iterations, one lane per half.
        let steps = (lo.len() - k).max(hi.len() - k);
        for t in 0..steps {
            for (h, part) in [lo, hi].iter().enumerate() {
                if t + k < part.len() {
                    b.acc_set_in(h as u8, self.affine());
                }
            }
            // Read phase(s): k reads per half, two ports per half; the
            // value at trajectory position t+j pairs with c_{k−j}.
            for pair in (0..k).step_by(2) {
                let mut slots = [SlotOp::Idle; 4];
                for (h, part) in [lo, hi].iter().enumerate() {
                    if t + k < part.len() {
                        slots[2 * h] = SlotOp::ReadAcc {
                            addr: part[t + pair] as u32,
                            map: maps[k - 1 - pair],
                            lane: h as u8,
                        };
                        if pair + 1 < k {
                            slots[2 * h + 1] = SlotOp::ReadAcc {
                                addr: part[t + pair + 1] as u32,
                                map: maps[k - 2 - pair],
                                lane: h as u8,
                            };
                        }
                    }
                }
                b.cyclen(&slots);
            }
            // Write both halves' wave cells in one cycle.
            let mut slots = [SlotOp::Idle; 4];
            for (h, part) in [lo, hi].iter().enumerate() {
                if t + k < part.len() {
                    slots[2 * h] = SlotOp::WriteAcc { addr: part[t + k] as u32, lane: h as u8 };
                }
            }
            b.cyclen(&slots);
        }
        // Signature readback: k cycles of two captures each; Fin is the
        // concatenation of the two halves' final states.
        let fin_lo = self.half_fin_star(lo.len());
        let fin_hi = self.half_fin_star(hi.len());
        for j in 0..k {
            b.cyclen(&[
                SlotOp::ReadCapture { addr: lo[lo.len() - k + j] as u32, expect: fin_lo[j] },
                SlotOp::Idle,
                SlotOp::ReadCapture { addr: hi[hi.len() - k + j] as u32, expect: fin_hi[j] },
                SlotOp::Idle,
            ]);
        }
        Ok(b.build())
    }

    /// Registers one GF(2)-linear map per normalised feedback constant
    /// (mul-by-`c_i` as per-bit XOR masks) and returns their table
    /// indices, in coefficient order.
    fn coefficient_maps(&self, b: &mut ProgramBuilder, geom: Geometry) -> Vec<u16> {
        let field = self.field();
        self.normalised_coeffs()
            .iter()
            .map(|&c| {
                let masks = (0..geom.width()).map(|j| field.mul(c, 1u64 << j)).collect();
                b.add_map(masks)
            })
            .collect()
    }

    /// Runs one π-iteration on a dual-port memory (the paper's Figure 2
    /// scheme): both operand reads are issued *simultaneously* on the two
    /// ports, halving the cycle count to `2n − 2` for `k = 2`. Executes
    /// the compiled dual-port program ([`PiTest::compile_dual_port`]).
    ///
    /// # Errors
    ///
    /// Geometry errors as in [`PiTest::run`], plus
    /// [`PrtError::NotEnoughPorts`] if the device has fewer than two ports.
    pub fn run_dual_port(&self, ram: &mut Ram) -> Result<PiResult, PrtError> {
        let geom = ram.geometry();
        let program = self.compile_dual_port(geom, None)?;
        if ram.ports() < 2 {
            return Err(PrtError::NotEnoughPorts { have: ram.ports(), need: 2 });
        }
        let mut fin = Vec::with_capacity(program.captures());
        let exec = program.execute(ram, false, Some(&mut fin))?;
        Ok(PiResult::from_execution(fin, self.fin_star(geom.cells()), &exec))
    }

    /// Runs two independent half-array automata concurrently on a four-port
    /// memory (§4's "multi-LFSR scheme" for QuadPort devices), reducing the
    /// iteration to ≈ `n` cycles. Both halves use this test's seed; `Fin`
    /// is the concatenation of the two halves' final states.
    ///
    /// This is the interpreted **differential oracle** for
    /// [`PiTest::compile_quad_port`] — campaigns run the compiled program;
    /// this runner re-derives the schedule cycle by cycle and is asserted
    /// verdict-, op-, cycle- and image-identical to it.
    ///
    /// # Errors
    ///
    /// Geometry errors as in [`PiTest::run`] (each half must fit the
    /// automaton), plus [`PrtError::NotEnoughPorts`] for fewer than 4 ports.
    pub fn run_quad_port(&self, ram: &mut Ram) -> Result<PiResult, PrtError> {
        let geom = ram.geometry();
        let n = geom.cells();
        let k = self.stages();
        let half = n / 2;
        self.validate_geometry(half, geom.width())?;
        if ram.ports() < 4 {
            return Err(PrtError::NotEnoughPorts { have: ram.ports(), need: 4 });
        }
        let order = self.trajectory.order(n);
        let (lo, hi) = order.split_at(half);
        let before = ram.stats();

        let field = self.field().clone();
        let coeffs = self.normalised_coeffs();
        // Seed both halves: k cycles of 2 writes each (ports 0, 2).
        for j in 0..k {
            ram.cycle(&[
                PortOp::Write { addr: lo[j], data: self.init()[j] },
                PortOp::Idle,
                PortOp::Write { addr: hi[j], data: self.init()[j] },
                PortOp::Idle,
            ])?;
        }
        // Interleave both halves' dual-port sub-iterations.
        let steps = (lo.len() - k).max(hi.len() - k);
        let mut acc = [0u64; 2];
        for t in 0..steps {
            // Read phase(s): k reads per half, two ports per half.
            let mut reads: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            for pair in (0..k).step_by(2) {
                let mut ops = [PortOp::Idle; 4];
                for (h, part) in [lo, hi].iter().enumerate() {
                    if t + k < part.len() {
                        ops[2 * h] = PortOp::Read { addr: part[t + pair] };
                        if pair + 1 < k {
                            ops[2 * h + 1] = PortOp::Read { addr: part[t + pair + 1] };
                        }
                    }
                }
                let res = ram.cycle(&ops)?;
                for h in 0..2 {
                    if let Some(v) = res[2 * h] {
                        reads[h].push(v);
                    }
                    if let Some(v) = res[2 * h + 1] {
                        reads[h].push(v);
                    }
                }
            }
            // Combine and write both halves in one cycle.
            let mut ops = [PortOp::Idle; 4];
            for (h, part) in [lo, hi].iter().enumerate() {
                if t + k < part.len() {
                    acc[h] = self.affine();
                    // reads[h][j] holds s_{t+j}; coefficient c_i multiplies
                    // s_{t+k−i}.
                    for (i, &c) in coeffs.iter().enumerate() {
                        let v = reads[h][k - 1 - i];
                        acc[h] = field.add(acc[h], field.mul(c, v));
                    }
                    ops[2 * h] = PortOp::Write { addr: part[t + k], data: acc[h] };
                }
            }
            ram.cycle(&ops)?;
        }
        // Signature readback: k cycles of two reads each.
        let mut fin = vec![0u64; 2 * k];
        for j in 0..k {
            let res = ram.cycle(&[
                PortOp::Read { addr: lo[lo.len() - k + j] },
                PortOp::Idle,
                PortOp::Read { addr: hi[hi.len() - k + j] },
                PortOp::Idle,
            ])?;
            fin[j] = res[0].expect("read issued");
            fin[k + j] = res[2].expect("read issued");
        }
        let mut fin_star = self.half_fin_star(lo.len());
        fin_star.extend(self.half_fin_star(hi.len()));
        let after = ram.stats();
        Ok(PiResult {
            fin,
            fin_star,
            ops: after.ops() - before.ops(),
            cycles: after.cycles - before.cycles,
            stale_errors: 0,
        })
    }

    fn half_fin_star(&self, len: usize) -> Vec<u64> {
        let k = self.stages();
        self.lfsr.state_after((len - k) as u128)
    }

    /// Normalised feedback constants `c_i = g0⁻¹·g_i`, `i = 1..=k`.
    fn normalised_coeffs(&self) -> Vec<u64> {
        let g = self.lfsr.feedback();
        let field = self.field();
        let g0_inv = field.inv(g[0]).expect("validated at construction");
        g[1..].iter().map(|&gi| field.mul(g0_inv, gi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_ram::{FaultKind, Geometry};

    #[test]
    fn figure_1a_memory_contents() {
        // After a π-iteration on 12 cells the memory holds 0 1 1 0 1 1 …
        let pi = PiTest::figure_1a().unwrap();
        let mut ram = Ram::new(Geometry::bom(12));
        let res = pi.run(&mut ram).unwrap();
        let expect = pi.expected_sequence(12);
        for (c, &e) in expect.iter().enumerate() {
            assert_eq!(ram.peek(c), e, "cell {c}");
        }
        assert!(!res.detected());
        // n − k = 10 ≡ 1 (mod 3): ring does not close at 12 cells…
        assert!(!pi.ring_closes(12).unwrap());
        // …but closes when n − k is a multiple of the period 3.
        assert!(pi.ring_closes(11).unwrap());
    }

    #[test]
    fn figure_1a_op_count_is_3n_minus_2() {
        let pi = PiTest::figure_1a().unwrap();
        for n in [8usize, 16, 33, 64] {
            let mut ram = Ram::new(Geometry::bom(n));
            let res = pi.run(&mut ram).unwrap();
            assert_eq!(res.ops(), 3 * n as u64 - 2, "n={n}");
            assert_eq!(res.cycles(), 3 * n as u64 - 2, "single port: 1 op = 1 cycle");
        }
    }

    #[test]
    fn figure_1b_sequence_and_ring_closure() {
        let pi = PiTest::figure_1b().unwrap();
        let seq = pi.expected_sequence(6);
        assert_eq!(&seq[..4], &[0, 1, 2, 6]);
        let p = pi.period().unwrap();
        assert_eq!(255 % p, 0);
        let n = p as usize + 2;
        let mut ram = Ram::new(Geometry::wom(n, 4).unwrap());
        let res = pi.run(&mut ram).unwrap();
        assert!(!res.detected());
        assert_eq!(res.fin(), pi.init(), "pseudo-ring closure");
    }

    #[test]
    fn any_single_stuck_bit_with_wrong_polarity_is_detected() {
        // A SAF whose stuck value differs from the fault-free content at
        // read time always reaches Fin (invertible propagation).
        let pi = PiTest::figure_1a().unwrap();
        let expect = pi.expected_sequence(9);
        for (cell, &e) in expect.iter().enumerate().take(9) {
            let wrong = e ^ 1;
            let mut ram = Ram::new(Geometry::bom(9));
            ram.inject(FaultKind::StuckAt { cell, bit: 0, value: wrong as u8 }).unwrap();
            let res = pi.run(&mut ram).unwrap();
            assert!(res.detected(), "SA{wrong}@{cell} escaped");
        }
    }

    #[test]
    fn matched_polarity_saf_escapes_single_iteration() {
        // The complementary case: a SAF agreeing with the TDB value escapes
        // THIS iteration — the reason the paper needs 3 iterations.
        let pi = PiTest::figure_1a().unwrap();
        let expect = pi.expected_sequence(9);
        let cell = 3; // expect[3] = 0
        let mut ram = Ram::new(Geometry::bom(9));
        ram.inject(FaultKind::StuckAt { cell, bit: 0, value: expect[cell] as u8 }).unwrap();
        let res = pi.run(&mut ram).unwrap();
        assert!(!res.detected());
    }

    #[test]
    fn wom_detects_single_bit_corruption_anywhere() {
        let pi = PiTest::figure_1b().unwrap();
        for cell in 2..10usize {
            for bit in 0..4u32 {
                let mut ram = Ram::new(Geometry::wom(10, 4).unwrap());
                // IRF returns complement on every read of that bit.
                ram.inject(FaultKind::IncorrectRead { cell, bit }).unwrap();
                let res = pi.run(&mut ram).unwrap();
                assert!(res.detected(), "IRF@{cell}.{bit} escaped");
            }
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let pi = PiTest::figure_1b().unwrap();
        let mut ram = Ram::new(Geometry::bom(16));
        assert!(matches!(
            pi.run(&mut ram),
            Err(PrtError::WidthMismatch { field_bits: 4, memory_bits: 1 })
        ));
    }

    #[test]
    fn too_small_memory_rejected() {
        let pi = PiTest::figure_1a().unwrap();
        let mut ram = Ram::new(Geometry::bom(2));
        assert!(matches!(pi.run(&mut ram), Err(PrtError::MemoryTooSmall { .. })));
    }

    #[test]
    fn down_trajectory_mirrors_up() {
        let pi = PiTest::figure_1a().unwrap().with_trajectory(Trajectory::Down);
        let mut ram = Ram::new(Geometry::bom(9));
        let res = pi.run(&mut ram).unwrap();
        assert!(!res.detected());
        let expect = pi.expected_sequence(9);
        for (pos, &e) in expect.iter().enumerate() {
            assert_eq!(ram.peek(8 - pos), e, "pos {pos}");
        }
    }

    #[test]
    fn random_trajectory_is_fault_free_clean() {
        let pi = PiTest::figure_1b().unwrap().with_trajectory(Trajectory::Random(17));
        let mut ram = Ram::new(Geometry::wom(32, 4).unwrap());
        let res = pi.run(&mut ram).unwrap();
        assert!(!res.detected());
    }

    #[test]
    fn dual_port_cycles_are_2n_minus_2() {
        let pi = PiTest::figure_1a().unwrap();
        for n in [8usize, 17, 32] {
            let mut ram = Ram::with_ports(Geometry::bom(n), 2).unwrap();
            let res = pi.run_dual_port(&mut ram).unwrap();
            assert!(!res.detected());
            assert_eq!(res.cycles(), 2 * n as u64 - 2, "n={n}");
            // Same number of operations as single-port, fewer cycles.
            assert_eq!(res.ops(), 3 * n as u64 - 2);
        }
    }

    #[test]
    fn dual_port_detects_like_single_port() {
        let pi = PiTest::figure_1b().unwrap();
        let mut ram = Ram::with_ports(Geometry::wom(20, 4).unwrap(), 2).unwrap();
        ram.inject(FaultKind::StuckAt { cell: 9, bit: 2, value: 1 }).unwrap();
        let dual = pi.run_dual_port(&mut ram).unwrap();
        let mut ram2 = Ram::new(Geometry::wom(20, 4).unwrap());
        ram2.inject(FaultKind::StuckAt { cell: 9, bit: 2, value: 1 }).unwrap();
        let single = pi.run(&mut ram2).unwrap();
        assert_eq!(dual.detected(), single.detected());
        assert_eq!(dual.fin(), single.fin());
    }

    #[test]
    fn dual_port_needs_two_ports() {
        let pi = PiTest::figure_1a().unwrap();
        let mut ram = Ram::new(Geometry::bom(8));
        assert!(matches!(
            pi.run_dual_port(&mut ram),
            Err(PrtError::NotEnoughPorts { have: 1, need: 2 })
        ));
    }

    #[test]
    fn quad_port_cycles_near_n() {
        let pi = PiTest::figure_1a().unwrap();
        for n in [16usize, 32, 64] {
            let mut ram = Ram::with_ports(Geometry::bom(n), 4).unwrap();
            let res = pi.run_quad_port(&mut ram).unwrap();
            assert!(!res.detected(), "n={n}");
            // Two halves in parallel: 2 seed + 2·(n/2 − 2) + 2 readback = n.
            assert_eq!(res.cycles(), n as u64, "n={n}");
        }
    }

    #[test]
    fn quad_port_detects_faults_in_both_halves() {
        let pi = PiTest::figure_1a().unwrap();
        for cell in [3usize, 13] {
            let mut ram = Ram::with_ports(Geometry::bom(16), 4).unwrap();
            ram.inject(FaultKind::IncorrectRead { cell, bit: 0 }).unwrap();
            let res = pi.run_quad_port(&mut ram).unwrap();
            assert!(res.detected(), "fault in cell {cell} escaped quad-port run");
        }
    }

    #[test]
    fn compiled_program_matches_interpreted_run() {
        // Same verdict, same memory image, same op/cycle counts, for both
        // figures and a sweep of single faults.
        for pi in [PiTest::figure_1a().unwrap(), PiTest::figure_1b().unwrap()] {
            let width = pi.field().degree();
            let geom = Geometry::wom(14, width).unwrap();
            let prog = pi.compile(geom).unwrap();
            for cell in 0..14 {
                let fault = FaultKind::IncorrectRead { cell, bit: 0 };
                let mut a = Ram::new(geom);
                a.inject(fault.clone()).unwrap();
                let mut b2 = Ram::new(geom);
                b2.inject(fault).unwrap();
                let interpreted = pi.run(&mut a).unwrap();
                let mut fin = Vec::new();
                let exec = prog.execute(&mut b2, false, Some(&mut fin)).unwrap();
                assert_eq!(interpreted.detected(), exec.detected(), "cell {cell}");
                assert_eq!(interpreted.fin(), fin, "cell {cell}");
                assert_eq!(interpreted.ops(), exec.ops);
                assert_eq!(interpreted.cycles(), exec.cycles);
                for c in 0..14 {
                    assert_eq!(a.peek(c), b2.peek(c), "cell image {c}");
                }
            }
        }
    }

    #[test]
    fn compiled_preread_matches_interpreted_preread() {
        let pi = PiTest::figure_1a().unwrap();
        let geom = Geometry::bom(12);
        // Stale expectations: the contents a previous plain iteration
        // would have left behind.
        let stale = pi.expected_sequence(12);
        let prog = pi.compile_with_preread(geom, Some(&stale)).unwrap();
        for cell in 2..12 {
            let fault = FaultKind::CouplingInversion {
                agg_cell: cell,
                agg_bit: 0,
                victim_cell: 1,
                victim_bit: 0,
                trigger: prt_ram::CouplingTrigger::Rise,
            };
            let mut a = Ram::new(geom);
            a.inject(fault.clone()).unwrap();
            let mut b2 = Ram::new(geom);
            b2.inject(fault).unwrap();
            let interpreted = pi.run_with_preread(&mut a, Some(&stale)).unwrap();
            let exec = prog.execute(&mut b2, false, None).unwrap();
            assert_eq!(interpreted.stale_errors(), exec.stale_errors, "agg {cell}");
            assert_eq!(interpreted.detected(), exec.detected(), "agg {cell}");
            assert_eq!(interpreted.ops(), exec.ops);
        }
    }

    #[test]
    fn compiled_dual_port_preread_fuses_stale_into_write_cycles() {
        // Pre-read on two ports costs ⌊k/2⌋ extra seed cycles and nothing
        // in the wave: 2n − 1 cycles for k = 2, vs 2n − 2 plain — while
        // the single-port pre-read needs 4n − 2 operations.
        let pi = PiTest::figure_1a().unwrap();
        for n in [9usize, 16, 31] {
            let geom = Geometry::bom(n);
            let stale = pi.expected_sequence(n);
            let prog = pi.compile_dual_port(geom, Some(&stale)).unwrap();
            let mut ram = Ram::with_ports(geom, 2).unwrap();
            // Pre-load the stale image so the fault-free run is clean.
            for (c, &v) in stale.iter().enumerate() {
                ram.poke(c, v);
            }
            let exec = prog.execute(&mut ram, false, None).unwrap();
            assert!(!exec.detected(), "n={n}");
            assert_eq!(exec.cycles, 2 * n as u64 - 1, "n={n}");
        }
    }

    #[test]
    fn compiled_quad_port_matches_interpreted_quad_port() {
        // The ROADMAP item: the §4 multi-LFSR scheme on the compiled path.
        // Same verdict, cycle count, op count and memory image as the
        // interpreted oracle, for both figures, odd/even sizes and a sweep
        // of single faults.
        for pi in [PiTest::figure_1a().unwrap(), PiTest::figure_1b().unwrap()] {
            let width = pi.field().degree();
            for n in [14usize, 17] {
                let geom = Geometry::wom(n, width).unwrap();
                let prog = pi.compile_quad_port(geom).unwrap();
                assert_eq!(prog.ports(), 4);
                for cell in 0..n {
                    let fault = FaultKind::IncorrectRead { cell, bit: 0 };
                    let mut a = Ram::with_ports(geom, 4).unwrap();
                    a.inject(fault.clone()).unwrap();
                    let mut b2 = Ram::with_ports(geom, 4).unwrap();
                    b2.inject(fault).unwrap();
                    let interpreted = pi.run_quad_port(&mut a).unwrap();
                    let mut caps = Vec::new();
                    let exec = prog.execute(&mut b2, false, Some(&mut caps)).unwrap();
                    assert_eq!(interpreted.detected(), exec.detected(), "n={n} cell {cell}");
                    assert_eq!(interpreted.ops(), exec.ops, "n={n} cell {cell}");
                    assert_eq!(interpreted.cycles(), exec.cycles, "n={n} cell {cell}");
                    // The compiled readback captures per cycle (lo[j],
                    // hi[j]); the oracle groups per half — reorder.
                    let k = pi.stages();
                    let mut fin = vec![0u64; 2 * k];
                    for j in 0..k {
                        fin[j] = caps[2 * j];
                        fin[k + j] = caps[2 * j + 1];
                    }
                    assert_eq!(interpreted.fin(), fin, "n={n} cell {cell}");
                    for c in 0..n {
                        assert_eq!(a.peek(c), b2.peek(c), "n={n} image cell {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_quad_port_campaigns() {
        // The compiled program drives the campaign engine directly on
        // pooled 4-port memories, matching the interpreted runner's
        // verdicts over the paper-claim universe, sliced and planned
        // (the full pass on this dense universe).
        use prt_ram::{FaultUniverse, UniverseSpec};
        let pi = PiTest::figure_1a().unwrap();
        let u = FaultUniverse::enumerate(Geometry::bom(16), &UniverseSpec::paper_claim());
        let prog = pi.compile_quad_port(u.geometry()).unwrap();
        let planned = prt_sim::Campaign::new(&u, &prog).with_ports(4).detections();
        let sliced =
            prt_sim::Campaign::new(&u, &prog).with_ports(4).with_slicing(true).detections();
        let interpreted = prt_sim::Campaign::new(&u, |ram: &mut Ram, _bg: u64| {
            pi.run_quad_port(ram).map(|r| r.detected()).unwrap_or(false)
        })
        .with_ports(4)
        .detections();
        assert_eq!(planned, interpreted);
        assert_eq!(sliced, interpreted);
    }

    #[test]
    fn affine_iteration_runs_clean() {
        let pi = PiTest::figure_1b().unwrap().with_affine(0x7).unwrap();
        let mut ram = Ram::new(Geometry::wom(24, 4).unwrap());
        let res = pi.run(&mut ram).unwrap();
        assert!(!res.detected());
        // Memory contents follow the affine reference sequence.
        let expect = pi.expected_sequence(24);
        for (c, &e) in expect.iter().enumerate() {
            assert_eq!(ram.peek(c), e, "cell {c}");
        }
    }

    #[test]
    fn accessors() {
        let pi = PiTest::figure_1b().unwrap();
        assert_eq!(pi.stages(), 2);
        assert_eq!(pi.init(), &[0, 1]);
        assert_eq!(pi.affine(), 0);
        assert_eq!(pi.trajectory(), Trajectory::Up);
        assert_eq!(pi.field().degree(), 4);
        assert_eq!(pi.fin_star(4).len(), 2);
    }
}
