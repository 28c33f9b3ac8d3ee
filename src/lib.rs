//! Umbrella crate for the PRT reproduction workspace.
//!
//! Re-exports every subsystem so the examples and cross-crate integration
//! tests have a single import surface:
//!
//! * [`prt_gf`] — Galois-field arithmetic and XOR-network synthesis,
//! * [`prt_lfsr`] — bit and word LFSR models,
//! * [`prt_ram`] — the fault-injecting RAM simulator,
//! * [`prt_march`] — the March test engine and baselines,
//! * [`prt_core`] — pseudo-ring testing itself,
//! * [`prt_sim`] — the parallel fault-simulation campaign engine (pooled
//!   memories, compiled-program runners, deterministic aggregation).
//!
//! # Example
//!
//! ```
//! use prt_suite::prelude::*;
//!
//! let pi = PiTest::figure_1a()?;
//! let mut ram = Ram::new(Geometry::bom(12));
//! assert!(!pi.run(&mut ram)?.detected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use prt_core;
pub use prt_diag;
pub use prt_gf;
pub use prt_lfsr;
pub use prt_march;
pub use prt_ram;
pub use prt_sim;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use prt_core::scheme::IterationSpec;
    pub use prt_core::{
        BistController, BitPlanePi, PiResult, PiTest, PlaneScheme, PlaneSeeding, PrtError,
        PrtScheme, Trajectory,
    };
    pub use prt_diag::{
        DiagError, Diagnosis, DictionaryStats, DictionaryStore, FaultDictionary, FaultFamily,
        Localizer, Observation, SignatureCollector,
    };
    pub use prt_gf::{BitMatrix, Field, Poly2, PolyGf, XorNetwork};
    pub use prt_lfsr::{BitLfsr, GaloisLfsr, Misr, WordLfsr};
    pub use prt_march::{library as march_library, Executor, MarchTest};
    pub use prt_ram::{
        fault_cells, fault_locality_key, lane_word, ActiveSet, ActivityIndex, CouplingTrigger,
        Execution, FaultKind, FaultUniverse, Geometry, LaneChunk, LaneRam, Layout, LazyUniverse,
        PortOp, ProgramBuilder, Ram, RamError, Scrambler, SplitMix64, TestProgram, Topology,
        TopologyStage, UniverseSpec, LANES,
    };
    pub use prt_sim::{
        Campaign, CampaignError, CancelToken, CheckpointError, CoverageReport, FaultRunner,
        Parallelism, PartialCoverage, ProgramBank, SegmentProgress, StopCause,
    };
}
