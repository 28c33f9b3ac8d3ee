//! Linear feedback shift register (LFSR) models for pseudo-ring RAM testing.
//!
//! The central idea of the PRT paper is that a π-test iteration makes the
//! memory array *emulate* a linear automaton: the sequence of values written
//! to consecutive cells is exactly the output sequence of an LFSR. This
//! crate provides the reference automata that the memory is compared
//! against:
//!
//! * [`BitLfsr`] — the bit-oriented LFSR (Fibonacci form) behind Figure 1a,
//! * [`WordLfsr`] — the word-oriented LFSR over GF(2^m) behind Figure 1b,
//!   including the affine (complemented-TDB) variant used by multi-iteration
//!   schemes,
//! * [`GaloisLfsr`] and [`Misr`] — the classic BIST building blocks used by
//!   the hardware-overhead model (pattern generation and response
//!   compaction),
//! * [`berlekamp`] — Berlekamp–Massey linear-complexity analysis, used to
//!   verify that an observed memory sequence really is the claimed automaton
//!   and nothing simpler.
//!
//! # Conventions
//!
//! A feedback polynomial `g(x) = g0 + g1·x + … + gk·x^k` (with `g0`
//! invertible) defines the recurrence
//!
//! ```text
//! s_t = g0⁻¹ · ( g1·s_{t−1} ⊕ g2·s_{t−2} ⊕ … ⊕ gk·s_{t−k} )
//! ```
//!
//! so the paper's `g(x) = 1 + 2x + 2x²` over GF(2⁴) yields
//! `s_t = 2·s_{t−1} ⊕ 2·s_{t−2}`, reproducing the `0, 1, 2, 6, …` cell
//! sequence of Figure 1b, and `g(x) = 1 + x + x²` over GF(2) yields the
//! period-3 bit sequence `0, 1, 1, 0, 1, 1, …` of Figure 1a.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod berlekamp;
pub mod bit;
pub mod cycles;
mod error;
pub mod misr;
pub mod word;

pub use berlekamp::{linear_complexity_bits, linear_complexity_words};
pub use bit::{BitLfsr, GaloisLfsr};
pub use cycles::{enumerate_cycles, max_period_from_factors, CycleStructure};
pub use error::LfsrError;
pub use misr::Misr;
pub use word::WordLfsr;

use prt_gf::Poly2;

/// The stage count `k` of a GF(2) register ([`BitLfsr`], [`GaloisLfsr`],
/// [`Misr`]) over the feedback polynomial `poly`, whose state is one
/// `u64`.
///
/// # Errors
///
/// * [`LfsrError::DegenerateFeedback`] if `poly` has degree < 1.
/// * [`LfsrError::NonInvertibleG0`] if its constant term is 0.
/// * [`LfsrError::RegisterTooWide`] if its degree exceeds 64.
fn binary_stages(poly: Poly2) -> Result<u32, LfsrError> {
    let deg = poly.degree();
    if deg < 1 {
        return Err(LfsrError::DegenerateFeedback);
    }
    if poly.coeff(0) == 0 {
        return Err(LfsrError::NonInvertibleG0);
    }
    let k = deg as u32;
    if k > u64::BITS {
        return Err(LfsrError::RegisterTooWide { degree: k });
    }
    Ok(k)
}

/// The mask of a `k`-stage register's state bits, `1 ≤ k ≤ 64`.
fn stage_mask(k: u32) -> u64 {
    u64::MAX >> (u64::BITS - k)
}
