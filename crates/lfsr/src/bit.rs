//! Bit-oriented LFSRs (Fibonacci and Galois forms).
//!
//! The Fibonacci form is the paper's bit-oriented virtual automaton: the
//! newly produced bit is the XOR of the tapped previous bits, exactly what
//! sub-iteration (1) writes into the next memory cell. The Galois form is
//! the dual construction commonly used for hardware pattern generators; it
//! produces the same maximal-length sequences and is included for the BIST
//! hardware model.

use crate::{binary_stages, stage_mask, LfsrError};
use prt_gf::Poly2;

/// Fibonacci-form bit LFSR defined by a feedback polynomial
/// `g(x) = 1 + g1·x + … + gk·x^k` over GF(2).
///
/// State bit `j` (0-based) holds `s_{t−k+j}`; [`BitLfsr::step`] produces
/// `s_t = ⊕ g_i · s_{t−i}`.
///
/// # Example
///
/// Figure 1a of the paper: `g(x) = 1 + x + x²` started from `(0, 1)` yields
/// the period-3 sequence `0 1 1 | 0 1 1 | …` in the memory cells.
///
/// ```
/// use prt_gf::Poly2;
/// use prt_lfsr::BitLfsr;
///
/// let mut l = BitLfsr::new(Poly2::from_bits(0b111), 0b10)?; // s0=0, s1=1
/// assert_eq!(l.sequence(9), vec![0, 1, 1, 0, 1, 1, 0, 1, 1]);
/// assert_eq!(l.period()?, 3);
/// # Ok::<(), prt_lfsr::LfsrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitLfsr {
    /// Feedback polynomial (bit `i` = `g_i`, bit 0 always set).
    poly: Poly2,
    k: u32,
    /// Bit `j` = `s_{t−k+j}`.
    state: u64,
}

impl BitLfsr {
    /// Creates a Fibonacci LFSR.
    ///
    /// `init` packs the seed: bit `j` is `s_j` for `j < k`.
    ///
    /// # Errors
    ///
    /// * [`LfsrError::DegenerateFeedback`] if `g` has degree < 1.
    /// * [`LfsrError::NonInvertibleG0`] if `g0 = 0`.
    /// * [`LfsrError::RegisterTooWide`] if `g` has degree > 64.
    /// * [`LfsrError::WrongStateLength`] if `init` has bits at or above `k`.
    pub fn new(poly: Poly2, init: u64) -> Result<BitLfsr, LfsrError> {
        let k = binary_stages(poly)?;
        if init & !stage_mask(k) != 0 {
            return Err(LfsrError::WrongStateLength { actual: 64, expected: k as usize });
        }
        Ok(BitLfsr { poly, k, state: init })
    }

    /// Number of register stages `k`.
    pub fn stages(&self) -> u32 {
        self.k
    }

    /// The feedback polynomial.
    pub fn polynomial(&self) -> Poly2 {
        self.poly
    }

    /// Current packed state (bit `j` = `s_{t−k+j}`).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Replaces the state.
    ///
    /// # Errors
    ///
    /// [`LfsrError::WrongStateLength`] if `state` has bits at or above `k`.
    pub fn set_state(&mut self, state: u64) -> Result<(), LfsrError> {
        if state & !stage_mask(self.k) != 0 {
            return Err(LfsrError::WrongStateLength { actual: 64, expected: self.k as usize });
        }
        self.state = state;
        Ok(())
    }

    /// Produces `s_t` and advances the register one step.
    pub fn step(&mut self) -> u8 {
        // s_t = ⊕_{i=1..k} g_i · s_{t−i}; s_{t−i} is state bit (k−i).
        let mut new = 0u64;
        for i in 1..=self.k {
            if self.poly.coeff(i) == 1 {
                new ^= (self.state >> (self.k - i)) & 1;
            }
        }
        self.state = (self.state >> 1) | (new << (self.k - 1));
        new as u8
    }

    /// Returns the first `n` terms `s_0, s_1, …` of the sequence, including
    /// the seed elements, advancing the register past them.
    pub fn sequence(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        for j in 0..n.min(self.k as usize) {
            out.push(((self.state >> j) & 1) as u8);
        }
        while out.len() < n {
            out.push(self.step());
        }
        out
    }

    /// Period of the state cycle containing the current state.
    ///
    /// Zero state has period 1. For an irreducible feedback polynomial the
    /// period of every non-zero state equals the order of `x` mod `g`.
    ///
    /// # Errors
    ///
    /// [`LfsrError::PeriodOverflow`] if the cycle is longer than `2^k`
    /// (impossible for a well-formed register; defensive).
    pub fn period(&self) -> Result<u128, LfsrError> {
        if self.state == 0 {
            return Ok(1);
        }
        if self.poly.is_irreducible() {
            // All non-zero states lie on cycles of length ord(x).
            return self.poly.order_of_x().ok_or(LfsrError::DegenerateFeedback);
        }
        let budget = 1u128 << self.k.min(63);
        let mut probe = self.clone();
        let start = probe.state;
        for count in 1..=budget {
            probe.step();
            if probe.state == start {
                return Ok(count);
            }
        }
        Err(LfsrError::PeriodOverflow { budget })
    }

    /// `true` if the feedback polynomial is primitive, i.e. the register
    /// reaches the maximal period `2^k − 1` from any non-zero seed.
    pub fn is_maximal_length(&self) -> bool {
        self.poly.is_primitive()
    }
}

/// Galois-form (modular) bit LFSR — the dual of [`BitLfsr`], the standard
/// construction for hardware test-pattern generators.
///
/// Each step shifts the register and conditionally XORs the feedback
/// polynomial into it, exactly like the multiply-by-`z` datapath of a
/// GF(2^k) multiplier.
///
/// # Example
///
/// ```
/// use prt_gf::Poly2;
/// use prt_lfsr::GaloisLfsr;
///
/// let mut g = GaloisLfsr::new(Poly2::from_bits(0b1_0011), 1)?;
/// // A primitive degree-4 polynomial visits all 15 non-zero states.
/// let mut seen = std::collections::HashSet::new();
/// for _ in 0..15 {
///     seen.insert(g.state());
///     g.step();
/// }
/// assert_eq!(seen.len(), 15);
/// # Ok::<(), prt_lfsr::LfsrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GaloisLfsr {
    poly: Poly2,
    k: u32,
    state: u64,
}

impl GaloisLfsr {
    /// Creates a Galois LFSR with the given feedback polynomial and seed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BitLfsr::new`].
    pub fn new(poly: Poly2, init: u64) -> Result<GaloisLfsr, LfsrError> {
        let k = binary_stages(poly)?;
        if init & !stage_mask(k) != 0 {
            return Err(LfsrError::WrongStateLength { actual: 64, expected: k as usize });
        }
        Ok(GaloisLfsr { poly, k, state: init })
    }

    /// Number of register stages.
    pub fn stages(&self) -> u32 {
        self.k
    }

    /// Current state.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Output bit (stage `k−1`) and advance: multiply the state by `z`
    /// modulo the feedback polynomial.
    pub fn step(&mut self) -> u8 {
        let out = (self.state >> (self.k - 1)) & 1;
        self.state <<= 1;
        if out == 1 {
            self.state ^= self.poly.bits() as u64;
        }
        self.state &= stage_mask(self.k);
        out as u8
    }

    /// Period of the cycle containing the current state.
    ///
    /// # Errors
    ///
    /// [`LfsrError::PeriodOverflow`] on a cycle longer than `2^k`
    /// (defensive; unreachable for well-formed registers).
    pub fn period(&self) -> Result<u128, LfsrError> {
        if self.state == 0 {
            return Ok(1);
        }
        if self.poly.is_irreducible() {
            return self.poly.order_of_x().ok_or(LfsrError::DegenerateFeedback);
        }
        let budget = 1u128 << self.k.min(63);
        let mut probe = self.clone();
        let start = probe.state;
        for count in 1..=budget {
            probe.step();
            if probe.state == start {
                return Ok(count);
            }
        }
        Err(LfsrError::PeriodOverflow { budget })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1a_sequence() {
        // g = 1 + x + x², seed (s0, s1) = (0, 1): 0 1 1 repeating.
        let mut l = BitLfsr::new(Poly2::from_bits(0b111), 0b10).unwrap();
        assert_eq!(l.sequence(12), vec![0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1]);
    }

    #[test]
    fn all_three_nonzero_seeds_cycle_with_period_3() {
        for seed in 1..4u64 {
            let l = BitLfsr::new(Poly2::from_bits(0b111), seed).unwrap();
            assert_eq!(l.period().unwrap(), 3, "seed={seed}");
        }
        let z = BitLfsr::new(Poly2::from_bits(0b111), 0).unwrap();
        assert_eq!(z.period().unwrap(), 1);
    }

    #[test]
    fn maximal_length_degree_4() {
        // g = 1 + x + x⁴ primitive: period 15.
        let l = BitLfsr::new(Poly2::from_bits(0b1_0011), 1).unwrap();
        assert!(l.is_maximal_length());
        assert_eq!(l.period().unwrap(), 15);
        // The sequence of states visits all 15 non-zero states.
        let mut probe = l.clone();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..15 {
            seen.insert(probe.state());
            probe.step();
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn non_primitive_irreducible_has_short_period() {
        // x⁴+x³+x²+x+1: order of x is 5.
        let l = BitLfsr::new(Poly2::from_bits(0b1_1111), 1).unwrap();
        assert!(!l.is_maximal_length());
        assert_eq!(l.period().unwrap(), 5);
    }

    #[test]
    fn reducible_polynomial_period_by_brute_force() {
        // g = 1 + x + x² + x³ = (1+x)(1+x²)… reducible; cycles exist but are
        // state-dependent.
        let poly = Poly2::from_bits(0b1111);
        assert!(!poly.is_irreducible());
        let l = BitLfsr::new(poly, 0b001).unwrap();
        let p = l.period().unwrap();
        assert!((1..=8).contains(&p));
        // After p steps the state must recur.
        let mut probe = l.clone();
        for _ in 0..p {
            probe.step();
        }
        assert_eq!(probe.state(), l.state());
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(BitLfsr::new(Poly2::ONE, 0), Err(LfsrError::DegenerateFeedback)));
        assert!(matches!(
            BitLfsr::new(Poly2::from_bits(0b110), 0),
            Err(LfsrError::NonInvertibleG0)
        ));
        assert!(matches!(
            BitLfsr::new(Poly2::from_bits(0b111), 0b100),
            Err(LfsrError::WrongStateLength { .. })
        ));
    }

    #[test]
    fn sequence_prefix_is_seed() {
        let mut l = BitLfsr::new(Poly2::from_bits(0b1_0011), 0b0110).unwrap();
        let seq = l.sequence(10);
        assert_eq!(&seq[..4], &[0, 1, 1, 0]);
    }

    #[test]
    fn step_superposition() {
        // Linearity: seq(a ⊕ b) = seq(a) ⊕ seq(b) element-wise.
        let poly = Poly2::from_bits(0b1_0011);
        for a in 0..16u64 {
            for b in 0..16u64 {
                let mut la = BitLfsr::new(poly, a).unwrap();
                let mut lb = BitLfsr::new(poly, b).unwrap();
                let mut lab = BitLfsr::new(poly, a ^ b).unwrap();
                for _ in 0..30 {
                    assert_eq!(la.step() ^ lb.step(), lab.step());
                }
            }
        }
    }

    #[test]
    fn galois_maximal_period() {
        let g = GaloisLfsr::new(Poly2::from_bits(0b1_0011), 1).unwrap();
        assert_eq!(g.period().unwrap(), 15);
        assert_eq!(g.stages(), 4);
    }

    #[test]
    fn galois_zero_state_is_fixed() {
        let mut g = GaloisLfsr::new(Poly2::from_bits(0b1011), 0).unwrap();
        assert_eq!(g.period().unwrap(), 1);
        g.step();
        assert_eq!(g.state(), 0);
    }

    #[test]
    fn galois_step_is_multiply_by_z() {
        // Galois stepping must agree with field multiplication by z.
        let f = prt_gf::Field::new(4, 0b1_0011).unwrap();
        for s in 0..16u64 {
            let mut g = GaloisLfsr::new(Poly2::from_bits(0b1_0011), s).unwrap();
            g.step();
            assert_eq!(g.state(), f.mul(s, 2), "s={s}");
        }
    }

    #[test]
    fn registers_span_the_full_u64_state() {
        // x⁶⁴ + 1: s_t = s_{t−64}, so the sequence repeats the seed.
        let seed = 0x80F0_0F00_0000_A501;
        let mut l = BitLfsr::new(Poly2::from_bits((1 << 64) | 1), seed).unwrap();
        assert_eq!(l.stages(), 64);
        let seq = l.sequence(192);
        assert_eq!(seq[..64], seq[64..128]);
        assert_eq!(seq[..64], seq[128..]);
        assert_eq!(l.state(), seed);
        // x⁶⁴ + x⁴ + x³ + x + 1: plain shifts until bit 63 feeds back.
        let poly = Poly2::from_bits((1 << 64) | 0b1_1011);
        let mut g = GaloisLfsr::new(poly, 1).unwrap();
        for _ in 0..3 {
            g.step();
        }
        assert_eq!(g.state(), 8);
        let mut g = GaloisLfsr::new(poly, 1 << 63).unwrap();
        assert_eq!(g.step(), 1);
        assert_eq!(g.state(), 0b1_1011);
    }

    #[test]
    fn registers_wider_than_u64_are_refused() {
        let poly = Poly2::from_bits((1 << 65) | 1);
        let too_wide = LfsrError::RegisterTooWide { degree: 65 };
        assert_eq!(BitLfsr::new(poly, 1).unwrap_err(), too_wide);
        assert_eq!(GaloisLfsr::new(poly, 1).unwrap_err(), too_wide);
    }

    #[test]
    fn set_state_validates() {
        let mut l = BitLfsr::new(Poly2::from_bits(0b111), 0).unwrap();
        assert!(l.set_state(0b11).is_ok());
        assert!(l.set_state(0b100).is_err());
        assert_eq!(l.state(), 0b11);
    }
}
