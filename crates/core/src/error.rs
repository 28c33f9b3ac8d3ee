use std::error::Error;
use std::fmt;

/// Errors produced when configuring or running pseudo-ring tests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PrtError {
    /// The memory's cell width does not match the field degree.
    WidthMismatch {
        /// Field degree `m` the test was built for.
        field_bits: u32,
        /// Cell width of the memory under test.
        memory_bits: u32,
    },
    /// The memory is too small for the automaton (`n` must exceed `k`).
    MemoryTooSmall {
        /// Cells available.
        cells: usize,
        /// Minimum required (`k + 1`).
        needed: usize,
    },
    /// The device has fewer ports than the schedule needs.
    NotEnoughPorts {
        /// Ports available.
        have: usize,
        /// Ports required.
        need: usize,
    },
    /// An underlying LFSR construction failed.
    Lfsr(prt_lfsr::LfsrError),
    /// An underlying field construction failed.
    Field(prt_gf::GfError),
    /// An underlying memory operation failed.
    Ram(prt_ram::RamError),
    /// A scheme was given no iterations.
    EmptyScheme,
    /// A schedule search stopped with faults still escaping: no candidate
    /// iteration detected any of them, or the iteration cap was reached.
    ScheduleStalled {
        /// Iterations in the schedule when the search stopped.
        iterations: usize,
        /// Faults the schedule still let escape.
        escapes: usize,
    },
}

impl fmt::Display for PrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrtError::WidthMismatch { field_bits, memory_bits } => {
                write!(f, "π-test over GF(2^{field_bits}) cannot run on {memory_bits}-bit cells")
            }
            PrtError::MemoryTooSmall { cells, needed } => {
                write!(f, "memory has {cells} cells, π-test needs at least {needed}")
            }
            PrtError::NotEnoughPorts { have, need } => {
                write!(f, "schedule needs {need} ports, device has {have}")
            }
            PrtError::Lfsr(e) => write!(f, "lfsr error: {e}"),
            PrtError::Field(e) => write!(f, "field error: {e}"),
            PrtError::Ram(e) => write!(f, "memory error: {e}"),
            PrtError::EmptyScheme => write!(f, "PRT scheme has no iterations"),
            PrtError::ScheduleStalled { iterations, escapes } => {
                write!(
                    f,
                    "schedule search stalled at {iterations} iterations with {escapes} escapes"
                )
            }
        }
    }
}

impl Error for PrtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PrtError::Lfsr(e) => Some(e),
            PrtError::Field(e) => Some(e),
            PrtError::Ram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<prt_lfsr::LfsrError> for PrtError {
    fn from(e: prt_lfsr::LfsrError) -> Self {
        PrtError::Lfsr(e)
    }
}

impl From<prt_gf::GfError> for PrtError {
    fn from(e: prt_gf::GfError) -> Self {
        PrtError::Field(e)
    }
}

impl From<prt_ram::RamError> for PrtError {
    fn from(e: prt_ram::RamError) -> Self {
        PrtError::Ram(e)
    }
}
