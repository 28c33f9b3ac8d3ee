//! Multi-input signature register (MISR) — the classic BIST response
//! compactor.
//!
//! PRT's distinguishing feature is that it needs *no* separate signature
//! register: the memory's own final cells are the signature ("testing memory
//! by its own components"). The MISR is implemented here as the conventional
//! alternative so the hardware-overhead comparison of experiment E6 and the
//! signature ablation of E-ablate can quantify what PRT saves.

use crate::{binary_stages, stage_mask, LfsrError};
use prt_gf::Poly2;

/// A multi-input signature register over GF(2).
///
/// Each [`Misr::absorb`] XORs an input word into the state and advances the
/// register one Galois step, compacting an arbitrary-length response stream
/// into `k` bits.
///
/// # Example
///
/// ```
/// use prt_gf::Poly2;
/// use prt_lfsr::Misr;
///
/// let mut m = Misr::new(Poly2::from_bits(0b1_0011))?;
/// for w in [0xA, 0x3, 0xF, 0x0] {
///     m.absorb(w);
/// }
/// let good = m.signature();
/// // A single flipped response bit changes the signature.
/// let mut bad = Misr::new(Poly2::from_bits(0b1_0011))?;
/// for w in [0xA, 0x3, 0xE, 0x0] {
///     bad.absorb(w);
/// }
/// assert_ne!(good, bad.signature());
/// # Ok::<(), prt_lfsr::LfsrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Misr {
    poly: Poly2,
    k: u32,
    state: u64,
    absorbed: u64,
}

impl Misr {
    /// Creates a MISR with the given feedback polynomial, state zero.
    ///
    /// # Errors
    ///
    /// * [`LfsrError::DegenerateFeedback`] if the polynomial has degree < 1.
    /// * [`LfsrError::NonInvertibleG0`] if its constant term is 0.
    /// * [`LfsrError::RegisterTooWide`] if its degree exceeds 64.
    pub fn new(poly: Poly2) -> Result<Misr, LfsrError> {
        Ok(Misr { poly, k: binary_stages(poly)?, state: 0, absorbed: 0 })
    }

    /// Register width `k`.
    pub fn width(&self) -> u32 {
        self.k
    }

    /// Number of words absorbed so far.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Absorbs one response word (low `k` bits are used) and advances.
    pub fn absorb(&mut self, word: u64) {
        let mask = stage_mask(self.k);
        self.absorbed += 1;
        self.state ^= word & mask;
        // Galois step: multiply by z mod poly.
        let out = (self.state >> (self.k - 1)) & 1;
        self.state = (self.state << 1) & mask;
        if out == 1 {
            self.state ^= (self.poly.bits() as u64) & mask;
        }
    }

    /// The compacted signature.
    pub fn signature(&self) -> u64 {
        self.state
    }

    /// Resets state and counter.
    pub fn reset(&mut self) {
        self.state = 0;
        self.absorbed = 0;
    }

    /// Probability that a random error stream aliases to the fault-free
    /// signature: `2^{−k}` for a maximal-length MISR — the standard BIST
    /// aliasing bound reported alongside detection-probability analysis.
    pub fn aliasing_probability(&self) -> f64 {
        (0.5f64).powi(self.k as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn misr4() -> Misr {
        Misr::new(Poly2::from_bits(0b1_0011)).unwrap()
    }

    #[test]
    fn deterministic_signature() {
        let mut a = misr4();
        let mut b = misr4();
        for w in [1u64, 2, 3, 4, 5, 6, 7] {
            a.absorb(w);
            b.absorb(w);
        }
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn single_bit_error_always_detected() {
        // MISR over an irreducible polynomial never aliases on a single
        // flipped bit (the error polynomial is a monomial, never divisible
        // by the feedback polynomial).
        let stream = [0xAu64, 0x3, 0xF, 0x0, 0x9, 0x5];
        let mut good = misr4();
        for &w in &stream {
            good.absorb(w);
        }
        for pos in 0..stream.len() {
            for bit in 0..4 {
                let mut bad = misr4();
                for (i, &w) in stream.iter().enumerate() {
                    bad.absorb(if i == pos { w ^ (1 << bit) } else { w });
                }
                assert_ne!(bad.signature(), good.signature(), "pos={pos} bit={bit}");
            }
        }
    }

    #[test]
    fn linearity_of_compaction() {
        // signature(a ⊕ b) = signature(a) ⊕ signature(b) for equal-length
        // streams (state starts at 0).
        let sa = [0x1u64, 0x8, 0x4, 0x2];
        let sb = [0xFu64, 0x0, 0x3, 0xC];
        let (mut ma, mut mb, mut mab) = (misr4(), misr4(), misr4());
        for i in 0..4 {
            ma.absorb(sa[i]);
            mb.absorb(sb[i]);
            mab.absorb(sa[i] ^ sb[i]);
        }
        assert_eq!(ma.signature() ^ mb.signature(), mab.signature());
    }

    #[test]
    fn reset_clears() {
        let mut m = misr4();
        m.absorb(0xF);
        assert_ne!(m.signature(), 0);
        m.reset();
        assert_eq!(m.signature(), 0);
        assert_eq!(m.absorbed(), 0);
    }

    #[test]
    fn aliasing_probability_bound() {
        assert!((misr4().aliasing_probability() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_polynomials() {
        assert!(matches!(Misr::new(Poly2::ONE), Err(LfsrError::DegenerateFeedback)));
        assert!(matches!(Misr::new(Poly2::from_bits(0b10)), Err(LfsrError::NonInvertibleG0)));
        assert_eq!(
            Misr::new(Poly2::from_bits((1 << 65) | 1)),
            Err(LfsrError::RegisterTooWide { degree: 65 })
        );
    }

    #[test]
    fn full_width_register() {
        // x⁶⁴ + 1: the Galois step is a plain 64-bit rotation.
        let mut m = Misr::new(Poly2::from_bits((1 << 64) | 1)).unwrap();
        assert_eq!(m.width(), 64);
        let mut state = 0u64;
        for w in [u64::MAX, 1 << 63, 0x0123_4567_89AB_CDEF, 0] {
            m.absorb(w);
            state = (state ^ w).rotate_left(1);
            assert_eq!(m.signature(), state);
        }
    }
}
