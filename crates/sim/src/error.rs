//! The campaign error taxonomy.
//!
//! PR 5 deliberately made whole-campaign misconfiguration panic loudly —
//! correct for batch binaries, fatal for a long-running service. The
//! fallible entry points ([`crate::Campaign::try_run`],
//! [`crate::Campaign::try_measure`], [`crate::try_map_trials`], …)
//! surface every failure as a [`CampaignError`] instead; the legacy
//! panicking APIs are thin wrappers that re-raise through
//! [`CampaignError::raise`], whose messages contain the exact phrases the
//! old asserts used, so existing `should_panic(expected = …)` regression
//! tests keep passing unchanged.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use prt_ram::Geometry;

/// Errors produced by the campaign engine's fallible entry points.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The campaign's pooled geometry differs from the one the runner's
    /// program was compiled for.
    GeometryMismatch {
        /// Name of the compiled program.
        program: String,
        /// Geometry the program was compiled for.
        compiled: Geometry,
        /// Geometry the campaign pools.
        campaign: Geometry,
    },
    /// The runner's program needs more ports than the campaign pools.
    PortShortfall {
        /// Name of the compiled program.
        program: String,
        /// Ports the program needs.
        needed: usize,
        /// Ports the campaign pools.
        pooled: usize,
    },
    /// A trial background differs from the one the program bakes in.
    BackgroundMismatch {
        /// Name of the compiled program.
        program: String,
        /// Background the program was compiled for.
        compiled: u64,
        /// Background the campaign asked for.
        requested: u64,
    },
    /// A trial background no program was compiled for
    /// ([`crate::ProgramBank`] dispatch).
    UnknownBackground {
        /// The background with no program.
        background: u64,
    },
    /// A whole-run configuration error outside the mismatch taxonomy
    /// above (invalid port count, a batch trial yielding a wrong result
    /// count, …).
    BadConfiguration {
        /// Human-readable reason.
        reason: String,
    },
    /// Saving or loading a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The [`crate::Campaign::with_deadline`] budget ran out before the
    /// universe was evaluated.
    DeadlineExceeded {
        /// Time spent before the run stopped.
        elapsed: Duration,
        /// The configured budget.
        deadline: Duration,
        /// Trials evaluated (the contiguous prefix — also the checkpoint
        /// cursor, when checkpointing is on).
        completed: usize,
        /// Trials in the whole universe.
        total: usize,
    },
    /// A shared [`crate::CancelToken`] fired before the universe was
    /// evaluated.
    Cancelled {
        /// Trials evaluated (the contiguous prefix).
        completed: usize,
        /// Trials in the whole universe.
        total: usize,
    },
    /// A worker thread panicked. The panic was caught at the fan-out
    /// join; it poisoned only its own chunk (progress before the chunk is
    /// checkpointed when checkpointing is on).
    WorkerPanic {
        /// Trial range `[start, end)` of the poisoned chunk.
        chunk: (usize, usize),
        /// The panic payload, stringified.
        payload: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The first four arms reproduce the exact phrases the PR-5
            // asserts panicked with — the panicking wrappers re-raise
            // with these strings, so `should_panic(expected = …)` tests
            // written against the asserts keep matching.
            CampaignError::GeometryMismatch { program, compiled, campaign } => write!(
                f,
                "campaign geometry does not match the geometry '{program}' was compiled for \
                 (campaign {campaign:?}, program {compiled:?})"
            ),
            CampaignError::PortShortfall { program, needed, pooled } => write!(
                f,
                "'{program}' needs {needed} ports but the campaign pools {pooled}-port memories \
                 — add .with_ports({needed})"
            ),
            CampaignError::BackgroundMismatch { program, compiled, requested } => write!(
                f,
                "trial background {requested:#x} does not match the background '{program}' was \
                 compiled for ({compiled:#x}) — compile one program per background (ProgramBank)"
            ),
            CampaignError::UnknownBackground { background } => {
                write!(f, "no program compiled for background {background:#x}")
            }
            CampaignError::BadConfiguration { reason } => write!(f, "{reason}"),
            CampaignError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            CampaignError::DeadlineExceeded { elapsed, deadline, completed, total } => write!(
                f,
                "deadline exceeded after {elapsed:?} (budget {deadline:?}): \
                 {completed}/{total} trials evaluated"
            ),
            CampaignError::Cancelled { completed, total } => {
                write!(f, "cancelled: {completed}/{total} trials evaluated")
            }
            CampaignError::WorkerPanic { chunk: (start, end), payload } => {
                write!(f, "worker panicked on trials {start}..{end}: {payload}")
            }
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

impl CampaignError {
    /// Re-raises the error as the panic the pre-resilience engine would
    /// have produced — the compatibility shim the panicking wrapper APIs
    /// are built on. A caught worker panic resumes with its **original
    /// payload string**, so `should_panic(expected = …)` substring checks
    /// against the panicking closure's own message still match; every
    /// other variant panics with its `Display` text (which embeds the
    /// legacy assert phrases).
    pub(crate) fn raise(self) -> ! {
        match self {
            CampaignError::WorkerPanic { payload, .. } => {
                std::panic::resume_unwind(Box::new(payload))
            }
            e => panic!("{e}"),
        }
    }
}

/// Errors produced by checkpoint persistence ([`crate::checkpoint`]).
///
/// Carries stringified paths and I/O messages (not `io::Error`) so the
/// whole campaign taxonomy stays `Clone + PartialEq` — resilience tests
/// assert on exact variants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io {
        /// Path of the checkpoint file.
        path: String,
        /// The operation that failed (`"read"`, `"write"`, `"rename"`).
        op: &'static str,
        /// The OS error, stringified.
        message: String,
    },
    /// The file is not a well-formed checkpoint (bad magic, bad checksum,
    /// truncated payload, undecodable record…).
    Corrupt {
        /// Path of the checkpoint file.
        path: String,
        /// What failed to validate.
        reason: String,
    },
    /// The file is a checkpoint of an unsupported format version.
    VersionMismatch {
        /// Path of the checkpoint file.
        path: String,
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file is a valid checkpoint of a **different run**: its
    /// fingerprint (geometry/universe/program/backgrounds/schedule) does
    /// not match the resuming campaign's.
    FingerprintMismatch {
        /// Path of the checkpoint file.
        path: String,
        /// Fingerprint the resuming run expects.
        expected: u64,
        /// Fingerprint found in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, op, message } => {
                write!(f, "cannot {op} '{path}': {message}")
            }
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "'{path}' is not a valid checkpoint: {reason}")
            }
            CheckpointError::VersionMismatch { path, found, supported } => write!(
                f,
                "'{path}' is a version-{found} checkpoint; this build supports version {supported}"
            ),
            CheckpointError::FingerprintMismatch { path, expected, found } => write!(
                f,
                "'{path}' checkpoints a different run: fingerprint {found:#018x} does not match \
                 this campaign's {expected:#018x}"
            ),
        }
    }
}

impl Error for CheckpointError {}
