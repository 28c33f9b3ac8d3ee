use std::error::Error;
use std::fmt;

/// Errors produced by the RAM simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RamError {
    /// An address is outside the array.
    AddressOutOfRange {
        /// The offending address.
        addr: usize,
        /// Number of cells.
        cells: usize,
    },
    /// A data value has bits above the cell width.
    DataOutOfRange {
        /// The offending value.
        data: u64,
        /// Cell width in bits.
        width: u32,
    },
    /// A bit index is at or above the cell width.
    BitOutOfRange {
        /// The offending bit index.
        bit: u32,
        /// Cell width in bits.
        width: u32,
    },
    /// A fault references an aggressor and victim that coincide.
    SelfCoupling {
        /// The cell that was both aggressor and victim.
        cell: usize,
    },
    /// More port operations were submitted than the device has ports.
    TooManyPortOps {
        /// Operations submitted.
        submitted: usize,
        /// Ports available.
        ports: usize,
    },
    /// Two ports wrote the same cell in one cycle.
    WriteWriteConflict {
        /// The contested cell.
        cell: usize,
    },
    /// A geometry was requested that the simulator does not support.
    UnsupportedGeometry {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A compiled program met a device with a different geometry.
    ProgramGeometryMismatch {
        /// Cells/width the program was compiled for.
        compiled: crate::Geometry,
        /// Cells/width of the device it was run on.
        device: crate::Geometry,
    },
}

impl fmt::Display for RamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RamError::AddressOutOfRange { addr, cells } => {
                write!(f, "address {addr} out of range for {cells} cells")
            }
            RamError::DataOutOfRange { data, width } => {
                write!(f, "data {data:#x} does not fit in {width}-bit cells")
            }
            RamError::BitOutOfRange { bit, width } => {
                write!(f, "bit index {bit} out of range for {width}-bit cells")
            }
            RamError::SelfCoupling { cell } => {
                write!(f, "coupling fault aggressor and victim are the same site in cell {cell}")
            }
            RamError::TooManyPortOps { submitted, ports } => {
                write!(f, "{submitted} port operations submitted to a {ports}-port memory")
            }
            RamError::WriteWriteConflict { cell } => {
                write!(f, "two ports wrote cell {cell} in the same cycle")
            }
            RamError::UnsupportedGeometry { reason } => {
                write!(f, "unsupported geometry: {reason}")
            }
            RamError::ProgramGeometryMismatch { compiled, device } => {
                write!(
                    f,
                    "program compiled for {}×{}b run on a {}×{}b device",
                    compiled.cells(),
                    compiled.width(),
                    device.cells(),
                    device.width()
                )
            }
        }
    }
}

impl Error for RamError {}
