use std::error::Error;
use std::fmt;

/// Errors produced when constructing or running LFSR models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LfsrError {
    /// The feedback polynomial has degree < 1 (no register stages).
    DegenerateFeedback,
    /// The feedback polynomial's constant term `g0` is zero / not
    /// invertible, so the recurrence cannot be normalised.
    NonInvertibleG0,
    /// The leading coefficient `gk` is zero (the declared degree is wrong).
    ZeroLeadingCoefficient,
    /// A GF(2) register over the feedback polynomial would need more
    /// stages than its `u64` state holds.
    RegisterTooWide {
        /// The polynomial's degree (the stages it needs).
        degree: u32,
    },
    /// A coefficient or state element does not belong to the field.
    ElementOutOfField {
        /// The offending value.
        value: u64,
    },
    /// The initial state has the wrong number of elements.
    WrongStateLength {
        /// Elements supplied.
        actual: usize,
        /// Stages required.
        expected: usize,
    },
    /// Period search exceeded its iteration budget.
    PeriodOverflow {
        /// The budget that was exhausted.
        budget: u128,
    },
}

impl fmt::Display for LfsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfsrError::DegenerateFeedback => write!(f, "feedback polynomial must have degree ≥ 1"),
            LfsrError::NonInvertibleG0 => {
                write!(f, "constant term g0 of the feedback polynomial must be invertible")
            }
            LfsrError::ZeroLeadingCoefficient => {
                write!(f, "leading coefficient gk of the feedback polynomial is zero")
            }
            LfsrError::RegisterTooWide { degree } => {
                write!(f, "feedback polynomial of degree {degree} exceeds the 64-stage register")
            }
            LfsrError::ElementOutOfField { value } => {
                write!(f, "value {value:#x} is not a field element")
            }
            LfsrError::WrongStateLength { actual, expected } => {
                write!(f, "state has {actual} elements, LFSR has {expected} stages")
            }
            LfsrError::PeriodOverflow { budget } => {
                write!(f, "period not found within {budget} steps")
            }
        }
    }
}

impl Error for LfsrError {}
