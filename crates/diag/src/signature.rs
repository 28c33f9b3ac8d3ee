//! Response compaction: MISR signatures of compiled-program runs.
//!
//! A production BIST does not ship a per-read comparator trace to the
//! tester — it compacts the response stream into a `w`-bit [`Misr`]
//! signature and compares *once*. This module is that compaction path for
//! any compiled [`TestProgram`]: the interpreter's checked-read
//! observations ([`TestProgram::execute_observed`]) feed the register, and
//! the fault-free **reference signature** comes straight from the
//! program's baked-in expectations ([`TestProgram::expected_responses`]) —
//! computed once at configuration time, no golden device run needed.

use crate::DiagError;
use prt_gf::Poly2;
use prt_lfsr::Misr;
use prt_ram::{
    lane_word, ActiveSet, ActivityIndex, Execution, LaneChunk, LaneRam, Ram, RamError, TestProgram,
};

/// One observed run: the compacted signature plus the full channel counts
/// of the execution that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The compacted MISR signature of the checked-read response stream.
    pub signature: u64,
    /// The execution summary (mismatch counts, ops, cycles).
    pub exec: Execution,
}

impl Observation {
    /// `true` when the raw response stream differed from the fault-free
    /// one (some checked read mismatched) — detection at *comparator*
    /// resolution, before compaction.
    pub fn stream_differs(&self) -> bool {
        self.exec.detected()
    }
}

/// Dictionary-build checkpoints: one observation per simulated fault —
/// signature, channel counts and the optional first mismatch, flattened
/// to ten words ([`FaultDictionary::build_with_checkpoint`] resumes an
/// interrupted universe sweep from these).
///
/// [`FaultDictionary::build_with_checkpoint`]: crate::FaultDictionary::build_with_checkpoint
impl prt_sim::checkpoint::CheckpointRecord for Observation {
    const KIND: u32 = 2;
    const WORDS: usize = 10;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.signature);
        out.push(self.exec.mismatches);
        out.push(self.exec.stale_errors);
        match &self.exec.first_mismatch {
            Some(m) => {
                out.push(1);
                out.push(m.op_index as u64);
                out.push(m.addr as u64);
                out.push(m.expected);
                out.push(m.got);
            }
            None => out.extend_from_slice(&[0; 5]),
        }
        out.push(self.exec.ops);
        out.push(self.exec.cycles);
    }

    fn decode(words: &[u64]) -> Option<Observation> {
        let [signature, mismatches, stale_errors, has_first, op_index, addr, expected, got, ops, cycles] =
            *words
        else {
            return None;
        };
        let first_mismatch = match has_first {
            0 if (op_index, addr, expected, got) == (0, 0, 0, 0) => None,
            1 => Some(prt_ram::OpMismatch {
                op_index: usize::try_from(op_index).ok()?,
                addr: usize::try_from(addr).ok()?,
                expected,
                got,
            }),
            _ => return None,
        };
        Some(Observation {
            signature,
            exec: Execution { mismatches, stale_errors, first_mismatch, ops, cycles },
        })
    }
}

/// Compacts every checked-read response of one compiled program through a
/// MISR, with the fault-free reference signature precomputed from the
/// program's expectations.
///
/// # Example
///
/// ```
/// use prt_diag::SignatureCollector;
/// use prt_gf::Poly2;
/// use prt_march::{library, Executor};
/// use prt_ram::{FaultKind, Geometry, Ram};
///
/// let geom = Geometry::bom(16);
/// let program = Executor::new().compile(&library::march_diag(), geom);
/// let collector = SignatureCollector::new(&program, Poly2::from_bits(0b1_0001_1011))?;
///
/// let mut good = Ram::new(geom);
/// assert_eq!(collector.collect(&program, &mut good)?.signature, collector.reference());
///
/// let mut bad = Ram::new(geom);
/// bad.inject(FaultKind::StuckAt { cell: 9, bit: 0, value: 1 })?;
/// assert_ne!(collector.collect(&program, &mut bad)?.signature, collector.reference());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SignatureCollector {
    poly: Poly2,
    width: u32,
    responses: u64,
    reference: u64,
}

impl SignatureCollector {
    /// Builds a collector for `program` over the MISR polynomial `poly`:
    /// the reference signature is the compaction of
    /// [`TestProgram::expected_responses`].
    ///
    /// # Errors
    ///
    /// [`DiagError::Lfsr`] for a degenerate polynomial or one of degree
    /// above 64 (wider than the `u64` signature).
    pub fn new(program: &TestProgram, poly: Poly2) -> Result<SignatureCollector, DiagError> {
        let mut reference = Misr::new(poly)?;
        for expect in program.expected_responses() {
            reference.absorb(expect);
        }
        Ok(SignatureCollector {
            poly,
            width: reference.width(),
            responses: reference.absorbed(),
            reference: reference.signature(),
        })
    }

    /// The MISR polynomial the collector compacts with.
    pub fn poly(&self) -> Poly2 {
        self.poly
    }

    /// Register width `w`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Checked-read responses one run absorbs.
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// The fault-free reference signature.
    pub fn reference(&self) -> u64 {
        self.reference
    }

    /// The analytic aliasing bound `2⁻ʷ` — the probability a *random*
    /// error stream compacts to the reference ([`Misr::aliasing_probability`]).
    /// [`crate::FaultDictionary`] measures the actual rate over a fault
    /// universe against this bound.
    pub fn aliasing_bound(&self) -> f64 {
        (0.5f64).powi(self.width as i32)
    }

    /// Compacts an already-recorded response stream (e.g. one collected by
    /// a [`crate::Localizer`] probe) into its signature.
    pub fn compact(&self, stream: impl IntoIterator<Item = u64>) -> u64 {
        let mut misr = Misr::new(self.poly).expect("polynomial validated at construction");
        for v in stream {
            misr.absorb(v);
        }
        misr.signature()
    }

    /// Runs `program` on `ram` (no early exit, so the stream length is
    /// response-independent) and compacts the observed checked reads.
    ///
    /// # Errors
    ///
    /// Device errors from [`TestProgram::execute_observed`] (geometry
    /// mismatch, multi-port conflicts) — campaign builders map them to the
    /// escape convention.
    pub fn collect(&self, program: &TestProgram, ram: &mut Ram) -> Result<Observation, RamError> {
        let mut misr = Misr::new(self.poly).expect("polynomial validated at construction");
        let exec = program.execute_observed(ram, false, None, &mut |v| misr.absorb(v))?;
        Ok(Observation { signature: misr.signature(), exec })
    }

    /// The lane-batched form of [`SignatureCollector::collect`]: runs
    /// `program` once, as a full observed pass, against every trial of a
    /// prepared [`LaneRam`] (lanes `0..k` injected) and pushes one
    /// [`Observation`] per lane, in lane order. A dictionary build runs
    /// the same collection inside `prt_sim::Campaign::try_measure`,
    /// sliced wherever the campaign's segment plan slices.
    ///
    /// Both the device pass and the compaction are shared across the
    /// chunk's trials. The MISR runs **bit-sliced**: one register plane
    /// per MISR bit, each carrying that bit of every lane. An observed
    /// read XORs its data planes into the state, and the Galois step is a
    /// plane rotation plus one plane XOR per feedback tap. This is exact
    /// because the register is GF(2)-linear with no lane-dependent control
    /// flow: every lane's bits follow the identical recurrence. The
    /// signatures are de-sliced once per chunk, so each signature — and
    /// each execution summary — is **identical** to what
    /// [`SignatureCollector::collect`] returns for a scalar run of the
    /// same fault (property-tested in `tests/batch.rs`).
    ///
    /// Lanes frozen by a multi-port write-write conflict
    /// ([`LaneRam::errored_lanes`]) receive the scalar error-as-escape
    /// observation — the reference signature with a default execution —
    /// exactly what a dictionary build substitutes when the scalar
    /// [`SignatureCollector::collect`] returns the device error.
    ///
    /// # Panics
    ///
    /// Panics when the active lanes are not the contiguous `0..k` prefix
    /// the batched campaign engine guarantees, or on a configuration
    /// error [`TestProgram::try_execute_batch_observed`] refuses (port
    /// shortfall, geometry mismatch — a dictionary build rules both out
    /// upfront).
    pub fn collect_batch<const K: usize>(
        &self,
        program: &TestProgram,
        ram: &mut LaneRam<K>,
        out: &mut Vec<Observation>,
    ) {
        self.collect_lanes(program, ram, None, out);
    }

    /// [`SignatureCollector::collect_batch`] on the pass a campaign's
    /// segment plan chose: with `slice = Some((index, active))` only the
    /// ops whose address intersects the batch's span union run on the
    /// device, and skipped checked reads absorb their precomputed
    /// fault-free responses, so the observations are bit-identical to
    /// the full pass.
    pub(crate) fn collect_lanes<const K: usize>(
        &self,
        program: &TestProgram,
        ram: &mut LaneRam<K>,
        slice: Option<(&ActivityIndex, &ActiveSet)>,
        out: &mut Vec<Observation>,
    ) {
        let k = ram.active_lanes().count_ones() as usize;
        assert_eq!(
            ram.active_lanes(),
            LaneChunk::prefix(k),
            "batched collection expects trials in lanes 0..k"
        );
        let mut misr = PlaneMisr::new(self.poly);
        let mut execs = vec![Execution::default(); LaneRam::<K>::LANES];
        let mut observer = |planes: &[LaneChunk<K>]| misr.absorb(planes);
        let pass = match slice {
            Some((index, active)) => program.try_execute_batch_observed_sliced(
                ram,
                index,
                active,
                &mut execs,
                &mut observer,
            ),
            None => program.try_execute_batch_observed(ram, &mut execs, &mut observer),
        };
        if let Err(e) = pass {
            panic!("program '{}' cannot run on this lane batch: {e}", program.name());
        }
        let errored = ram.errored_lanes();
        let state = misr.into_planes();
        for (lane, exec) in execs.iter().enumerate().take(k) {
            if errored.get(lane) {
                out.push(Observation { signature: self.reference, exec: Execution::default() });
            } else {
                out.push(Observation { signature: lane_word(&state, lane), exec: *exec });
            }
        }
    }
}

/// A [`Misr`] over lane bit-planes: register bit `j` of every lane lives
/// in one [`LaneChunk`], so a chunk of trials compacts with whole-chunk
/// XORs. Each lane's bits follow exactly the scalar register's
/// recurrence.
struct PlaneMisr<const K: usize> {
    /// The register planes as a ring: bit `j` lives at `(head + j) % k`.
    ring: Vec<LaneChunk<K>>,
    head: usize,
    /// Feedback taps `1 ≤ i < k` (`g_i = 1`); `g0 = 1` is the rotation.
    taps: Vec<usize>,
}

impl<const K: usize> PlaneMisr<K> {
    fn new(poly: Poly2) -> PlaneMisr<K> {
        let k = poly.degree() as usize;
        let taps = (1..k).filter(|&i| poly.coeff(i as u32) == 1).collect();
        PlaneMisr { ring: vec![LaneChunk::ZERO; k], head: 0, taps }
    }

    /// Ring slot of register bit `j < k`.
    #[inline]
    fn slot(&self, j: usize) -> usize {
        let s = self.head + j;
        if s < self.ring.len() {
            s
        } else {
            s - self.ring.len()
        }
    }

    /// [`Misr::absorb`] on every lane: XOR the word planes (bits at or
    /// above `k` drop out), then one Galois step. The step shifts bit
    /// `k − 1` into bit 0 by rotating the ring, then XORs it into every
    /// tapped bit.
    #[inline]
    fn absorb(&mut self, word: &[LaneChunk<K>]) {
        let k = self.ring.len();
        for (j, plane) in word.iter().enumerate().take(k) {
            let s = self.slot(j);
            self.ring[s] ^= *plane;
        }
        self.head = self.slot(k - 1);
        let out = self.ring[self.head];
        for &i in &self.taps {
            let s = self.slot(i);
            self.ring[s] ^= out;
        }
    }

    /// The register planes in bit order, ready for [`lane_word`].
    fn into_planes(mut self) -> Vec<LaneChunk<K>> {
        self.ring.rotate_left(self.head);
        self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_march::{library, Executor};
    use prt_ram::{FaultKind, Geometry};

    fn poly8() -> Poly2 {
        Poly2::from_bits(0b1_0001_1011)
    }

    #[test]
    fn reference_equals_fault_free_collection() {
        for bg in [0u64, 1] {
            let geom = Geometry::bom(12);
            let program = Executor::new().with_background(bg).compile(&library::march_diag(), geom);
            let c = SignatureCollector::new(&program, poly8()).unwrap();
            let mut ram = Ram::new(geom);
            let obs = c.collect(&program, &mut ram).unwrap();
            assert!(!obs.stream_differs());
            assert_eq!(obs.signature, c.reference(), "bg={bg}");
            assert_eq!(c.responses(), 9 * 12, "March C-D has 9 reads per cell");
        }
    }

    #[test]
    fn faults_perturb_the_signature() {
        let geom = Geometry::bom(12);
        let program = Executor::new().compile(&library::march_diag(), geom);
        let c = SignatureCollector::new(&program, poly8()).unwrap();
        for cell in 0..12 {
            let mut ram = Ram::new(geom);
            ram.inject(FaultKind::StuckAt { cell, bit: 0, value: 1 }).unwrap();
            let obs = c.collect(&program, &mut ram).unwrap();
            assert!(obs.stream_differs());
            assert_ne!(obs.signature, c.reference(), "SA1@{cell} aliased");
        }
    }

    #[test]
    fn aliasing_bound_follows_width() {
        let geom = Geometry::bom(4);
        let program = Executor::new().compile(&library::mats_plus(), geom);
        let c = SignatureCollector::new(&program, poly8()).unwrap();
        assert_eq!(c.width(), 8);
        assert!((c.aliasing_bound() - 1.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_polynomial_rejected() {
        let geom = Geometry::bom(4);
        let program = Executor::new().compile(&library::mats(), geom);
        assert!(matches!(SignatureCollector::new(&program, Poly2::ONE), Err(DiagError::Lfsr(_))));
        // Wider than the u64 signature: refused, not silently truncated.
        assert!(matches!(
            SignatureCollector::new(&program, Poly2::from_bits((1 << 70) | 1)),
            Err(DiagError::Lfsr(prt_lfsr::LfsrError::RegisterTooWide { degree: 70 }))
        ));
    }
}
