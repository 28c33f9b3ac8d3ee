//! Signature compaction, fault dictionaries and adaptive fault
//! localization — the diagnosis workload on top of the campaign engine.
//!
//! The coverage layers (`prt-march`, `prt-core`, `prt-sim`) reduce every
//! fault trial to one bit: detected or escaped. A production BIST flow
//! needs two more steps the paper's §BIST setting implies:
//!
//! 1. **Compaction** ([`SignatureCollector`]): the tester never sees the
//!    per-read comparator trace — a MISR compacts the checked-read
//!    response stream of a compiled [`prt_ram::TestProgram`] into `w`
//!    bits, with the fault-free reference signature computed at
//!    configuration time from the program's own expectations (no golden
//!    device run). The hardware view of the same path is
//!    `prt_core::BistController::with_signature`.
//! 2. **Diagnosis**: a failing signature must become a repairable
//!    address. [`FaultDictionary`] inverts `fault → signature` over an
//!    enumerated universe, built as one campaign on the parallel engine's
//!    measurement terminal ([`prt_sim::Campaign::try_measure`]), with
//!    *measured* aliasing and ambiguity statistics next to the analytic
//!    `2⁻ʷ` bound; [`Localizer`] then
//!    narrows a live failing device to the victim cell, fault family and
//!    (for two-cell faults) the aggressor, with `O(log n)` adaptively
//!    chosen probe runs — windowed re-runs of a diagnostic March whose
//!    comparator is gated to half the address range
//!    ([`prt_march::Executor::compile_window`]).
//!
//! # Quick start
//!
//! ```
//! use prt_diag::{FaultDictionary, Localizer};
//! use prt_gf::Poly2;
//! use prt_march::{library, Executor};
//! use prt_ram::{FaultKind, FaultUniverse, Geometry, Ram, UniverseSpec};
//! use prt_sim::Parallelism;
//!
//! let geom = Geometry::bom(16);
//! let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
//! let program = Executor::new().compile(&library::march_diag(), geom);
//! let dict = FaultDictionary::build(
//!     &universe,
//!     &program,
//!     Poly2::from_bits(0b1_0001_1011),
//!     Parallelism::Auto,
//! )?;
//!
//! // A field return: victim 11, aggressor 4.
//! let mut failing = Ram::new(geom);
//! failing.inject(FaultKind::CouplingInversion {
//!     agg_cell: 4,
//!     agg_bit: 0,
//!     victim_cell: 11,
//!     victim_bit: 0,
//!     trigger: prt_ram::CouplingTrigger::Rise,
//! })?;
//! let diag = Localizer::new(library::march_diag(), geom)
//!     .with_dictionary(&dict)
//!     .diagnose(&mut failing)?
//!     .expect("detected");
//! assert_eq!((diag.victim(), diag.aggressor()), (11, Some(4)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dictionary;
mod error;
mod localize;
mod signature;
mod store;

pub use dictionary::{DictionaryStats, FaultDictionary};
pub use error::DiagError;
pub use localize::{Diagnosis, FaultFamily, Localizer};
pub use signature::{Observation, SignatureCollector};
pub use store::DictionaryStore;
