use std::error::Error;
use std::fmt;

use prt_ram::Geometry;

/// Errors produced by the diagnosis subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiagError {
    /// MISR construction failed (a degenerate compaction polynomial, or
    /// one wider than the 64-bit signature).
    Lfsr(prt_lfsr::LfsrError),
    /// An underlying memory operation failed.
    Ram(prt_ram::RamError),
    /// The device under diagnosis has a different geometry than the one
    /// the diagnostic programs were compiled for.
    GeometryMismatch {
        /// Geometry the localizer was configured for.
        expected: Geometry,
        /// Geometry of the device handed in.
        got: Geometry,
    },
    /// Probe outcomes violated the bisection invariant (a fault observable
    /// on a window was observable on neither half) — impossible for the
    /// deterministic single-fault models this workspace simulates, kept as
    /// a loud failure instead of a wrong diagnosis.
    Inconsistent,
    /// A dictionary checkpoint could not be saved, loaded or trusted
    /// (I/O failure, corruption, version skew or a fingerprint of a
    /// different build).
    Checkpoint(prt_sim::CheckpointError),
}

impl fmt::Display for DiagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagError::Lfsr(e) => write!(f, "compactor error: {e}"),
            DiagError::Ram(e) => write!(f, "memory error: {e}"),
            DiagError::GeometryMismatch { expected, got } => {
                write!(f, "device geometry {got:?} does not match diagnosis geometry {expected:?}")
            }
            DiagError::Inconsistent => {
                write!(f, "probe outcomes violate the window-bisection invariant")
            }
            DiagError::Checkpoint(e) => write!(f, "dictionary checkpoint error: {e}"),
        }
    }
}

impl Error for DiagError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DiagError::Lfsr(e) => Some(e),
            DiagError::Ram(e) => Some(e),
            DiagError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<prt_lfsr::LfsrError> for DiagError {
    fn from(e: prt_lfsr::LfsrError) -> Self {
        DiagError::Lfsr(e)
    }
}

impl From<prt_ram::RamError> for DiagError {
    fn from(e: prt_ram::RamError) -> Self {
        DiagError::Ram(e)
    }
}

impl From<prt_sim::CheckpointError> for DiagError {
    fn from(e: prt_sim::CheckpointError) -> Self {
        DiagError::Checkpoint(e)
    }
}
