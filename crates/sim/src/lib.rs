//! Parallel, allocation-free fault-simulation campaign engine.
//!
//! Every coverage experiment in this workspace — the E3/E10 tables, scheme
//! synthesis, Monte-Carlo detection probability, the hardware/software
//! cross-check — reduces to the same inner loop: *for each enumerated fault
//! instance, prepare a RAM, inject, run a test, aggregate*. This crate
//! hoists that loop out of the five places it used to be written and makes
//! it fast:
//!
//! * **Pooled devices** — each worker keeps one [`Ram`] (or one lane
//!   device on the batched path) for the whole campaign, across all its
//!   streamed segments, and recycles it via [`Ram::reset_to`] +
//!   [`Ram::eject_faults`], so the steady-state campaign performs **zero
//!   heap allocation per fault** instead of two `Vec` allocations plus
//!   fault-bank rebuilds per trial.
//! * **Parallel fan-out** — fault instances are independent, so workers
//!   self-schedule over chunks of the instance index space: one private
//!   scheduler (chunked work-stealing on scoped `std` threads — the
//!   environment this workspace builds in has no registry access, so the
//!   fan-out is built on `std` instead of rayon) runs every sweep, and one
//!   lane-batch runner packs, runs and degrades every lane batch.
//! * **Early exit** — a fault detected under one data background skips the
//!   remaining backgrounds, exactly like the sequential reference.
//! * **Deterministic aggregation** — workers only fill a per-fault verdict
//!   table; rows are tallied afterwards in enumeration order, so the
//!   resulting [`CoverageReport`] is identical to the sequential path for
//!   any thread count.
//!
//! # Quick start
//!
//! Run a custom checker (anything implementing [`FaultRunner`], including
//! plain closures) over an enumerated fault universe:
//!
//! ```
//! use prt_ram::{FaultUniverse, Geometry, Ram, UniverseSpec};
//! use prt_sim::Campaign;
//!
//! let universe = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::single_cell());
//! // A toy test: write/readback both polarities on every cell.
//! let report = Campaign::new(&universe, |ram: &mut Ram, _bg: u64| {
//!     let n = ram.geometry().cells();
//!     (0..n).any(|a| {
//!         ram.write(a, 0);
//!         let zero_ok = ram.read(a) == 0;
//!         ram.write(a, 1);
//!         !zero_ok || ram.read(a) != 1
//!     })
//! })
//! .with_name("write-readback")
//! .run();
//! assert!(report.class("SAF").unwrap().complete());
//! assert!(!report.class("TF").unwrap().complete()); // down-TFs escape
//! ```
//!
//! The higher layers provide ready-made runners: `prt-march` adapts March
//! tests (`MarchRunner`), `prt-core` implements [`FaultRunner`] for
//! `PiTest`, `PrtScheme`, `BitPlanePi` and `PlaneScheme` directly.
//!
//! The fastest path is a **pre-compiled program**: every test family
//! compiles to the [`prt_ram::prog`] IR (`Executor::compile`,
//! `PiTest::compile`, `PrtScheme::compile`, `PlaneScheme::compile`), and
//! `&TestProgram` / [`ProgramBank`] implement [`FaultRunner`], so the
//! per-trial notation-interpretation tax is paid once per campaign instead
//! of once per fault.

//!
//! # Resilience
//!
//! Campaigns are built to survive the failures a long tester-side run
//! meets: every driver has a fallible `try_*` form returning a typed
//! [`CampaignError`] (the panicking APIs are thin wrappers kept for
//! batch binaries and regression tests), progress can be checkpointed
//! and resumed ([`Campaign::with_checkpoint`]), runs accept a deadline
//! ([`Campaign::with_deadline`]) and cooperative cancellation
//! ([`CancelToken`]) yielding explicitly-marked partial reports, worker
//! panics poison only their own chunk, and a failing lane batch degrades
//! to the scalar oracle instead of killing the campaign
//! ([`CoverageReport::degraded_batches`]). See `DESIGN.md` §"Failure
//! semantics" for the full policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::OnceCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use prt_ram::{
    locality_order, ActiveSet, ActivityIndex, FaultKind, FaultUniverse, Geometry, LaneChunk,
    LaneRam, Ram, TestProgram, Topology,
};

#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod checkpoint;
mod control;
mod error;
mod report;

pub use control::{CancelToken, StopCause};
pub use error::{CampaignError, CheckpointError};
pub use report::{ClassTally, CoverageReport, CoverageRow, PartialCoverage};

use checkpoint::FingerprintBuilder;
use control::RunControl;

/// A caught panic as a [`CampaignError::WorkerPanic`] over the fault-index
/// range `chunk`, with the payload stringified.
fn worker_panic(chunk: (usize, usize), payload: Box<dyn std::any::Any + Send>) -> CampaignError {
    let payload = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    };
    CampaignError::WorkerPanic { chunk, payload }
}

/// The one scheduler every fault sweep runs on: campaign segments (scalar
/// and lane-batched), [`Campaign::first_escape`], [`try_map_trials`] and
/// [`try_map_trials_batched`].
///
/// Up to `workers` workers (never more than there are units) claim the
/// `units` work units (trial chunks or lane batches) in order from one
/// atomic counter; worker `w` runs on the state (the pooled device) in
/// slot `w` of `pool`, and a single worker runs on the calling thread. A
/// claimed unit is dropped, ending that worker, once `cut` holds for it —
/// the fail-fast early exit, sound because claims are monotone — or once
/// `control` reports a stop. Every unit runs under `catch_unwind`: a
/// panic poisons only its own unit and is reported with the unit's
/// fault-index range (`span`). The first failure stops further claims; a
/// contract error (`unit` returning `Err`) outranks a trial panic.
///
/// Returns the stop cause when `control` ended the sweep early.
fn sweep<S: Send>(
    units: usize,
    workers: usize,
    control: Option<&RunControl>,
    span: impl Fn(usize) -> (usize, usize) + Sync,
    cut: impl Fn(usize) -> bool + Sync,
    pool: &mut WorkerPool<'_, S>,
    unit: impl Fn(usize, &mut S) -> Result<(), CampaignError> + Sync,
) -> Result<Option<StopCause>, CampaignError> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<CampaignError>> = Mutex::new(None);
    let stopped: OnceLock<StopCause> = OnceLock::new();
    let init = &pool.init;
    let worker = |pooled: &mut Option<S>| {
        let state = pooled.get_or_insert_with(init);
        while !failed.load(Ordering::Relaxed) {
            let u = next.fetch_add(1, Ordering::Relaxed);
            if u >= units || cut(u) {
                break;
            }
            if let Some(cause) = control.and_then(RunControl::stop_cause) {
                let _ = stopped.set(cause);
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| unit(u, state)))
                .unwrap_or_else(|payload| Err(worker_panic(span(u), payload)));
            if let Err(e) = outcome {
                let is_panic = |e: &CampaignError| matches!(e, CampaignError::WorkerPanic { .. });
                let mut slot = failure.lock().expect("failure slot lock");
                if slot.as_ref().is_none_or(|held| is_panic(held) && !is_panic(&e)) {
                    *slot = Some(e);
                }
                failed.store(true, Ordering::Relaxed);
            }
        }
    };
    let workers = workers.clamp(1, units.max(1));
    if pool.slots.len() < workers {
        pool.slots.resize_with(workers, || None);
    }
    let slots = &mut pool.slots[..workers];
    if let [pooled] = slots {
        worker(pooled);
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            for pooled in slots {
                scope.spawn(move || worker(pooled));
            }
        });
    }
    match failure.into_inner().expect("failure slot lock") {
        Some(e) => Err(e),
        None => Ok(stopped.into_inner()),
    }
}

/// Worker states that outlive one sweep: worker `w` of every [`sweep`]
/// over the pool runs on the state in slot `w`, built by `init` the
/// first time a sweep needs it. A campaign streamed in many segments
/// thus builds its pooled devices once instead of once per segment.
/// Reuse is sound because every unit heals and zero-resets its device
/// before each trial or lane batch. One-shot sweeps pass a pool of their
/// own.
struct WorkerPool<'i, S> {
    slots: Vec<Option<S>>,
    init: Box<dyn Fn() -> S + Sync + 'i>,
}

impl<'i, S> WorkerPool<'i, S> {
    fn new(init: impl Fn() -> S + Sync + 'i) -> WorkerPool<'i, S> {
        WorkerPool { slots: Vec::new(), init: Box::new(init) }
    }
}

/// One lane worker's pooled state: its device, its active-set scratch
/// and its per-batch result buffer.
type LaneState<const K: usize> = (LaneRam<K>, ActiveSet, Vec<bool>);

/// The one lane-batch runner behind every batched sweep (campaign
/// segments and [`try_map_trials_batched`]): everything one lane batch
/// needs besides the batch itself.
struct LaneRunner<'r, FS, ST> {
    geom: Geometry,
    ports: usize,
    faults: &'r [FaultKind],
    /// Lane batches degraded to the scalar oracle so far.
    degraded: &'r AtomicUsize,
    /// Measures one fault on a healed scalar device that already carries
    /// it — the degradation oracle.
    scalar_trial: FS,
    /// Stores one result by fault index.
    store: ST,
}

impl<FS, ST> LaneRunner<'_, FS, ST> {
    /// Heals `ram`, injects `batch` (fault indices) into lanes `0..k` in
    /// the given order, runs `batch_trial` — which must push one result
    /// per lane, in lane order (checked) — and stores the results by
    /// fault index. A panicking batch **degrades**: each of its faults
    /// is retried on `scalar_trial` and the batch is counted; only a
    /// retry that also panics fails, as a [`CampaignError::WorkerPanic`]
    /// over that one fault.
    fn run<const K: usize, T>(
        &self,
        ram: &mut LaneRam<K>,
        out: &mut Vec<T>,
        batch: &[u32],
        batch_trial: impl FnOnce(&mut LaneRam<K>, &mut Vec<T>),
    ) -> Result<(), CampaignError>
    where
        FS: Fn(usize, &mut Ram) -> T,
        ST: Fn(usize, T),
    {
        out.clear();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            ram.eject_faults();
            ram.reset_to(0);
            for (lane, &fi) in batch.iter().enumerate() {
                ram.inject(self.faults[fi as usize].clone(), lane)
                    .expect("campaign faults are valid");
            }
            batch_trial(ram, out);
        }));
        if attempt.is_ok() {
            if out.len() != batch.len() {
                return Err(CampaignError::BadConfiguration {
                    reason: format!(
                        "batch trial must yield one result per injected lane — got {} results \
                         for {} lanes",
                        out.len(),
                        batch.len()
                    ),
                });
            }
            for (&fi, v) in batch.iter().zip(out.drain(..)) {
                (self.store)(fi as usize, v);
            }
            return Ok(());
        }
        // Graceful degradation: the whole batch retries on the scalar
        // oracle, which measures the same thing fault by fault.
        self.degraded.fetch_add(1, Ordering::Relaxed);
        let mut scalar = pooled_ram(self.geom, self.ports);
        for &fi in batch {
            let fi = fi as usize;
            scalar.eject_faults();
            scalar.reset_to(0);
            let retry = catch_unwind(AssertUnwindSafe(|| {
                scalar.inject(self.faults[fi].clone()).expect("campaign faults are valid");
                (self.scalar_trial)(fi, &mut scalar)
            }));
            match retry {
                Ok(v) => (self.store)(fi, v),
                Err(payload) => return Err(worker_panic((fi, fi + 1), payload)),
            }
        }
        Ok(())
    }
}

/// Below this many trials a campaign stays sequential under
/// [`Parallelism::Auto`] — thread spawn/join costs more than the work.
const AUTO_PARALLEL_THRESHOLD: usize = 512;

/// Work-stealing chunk size bounds: small enough to balance ragged trial
/// costs (early-exit makes detected faults much cheaper than escapes),
/// large enough to amortise the shared-counter traffic.
const MAX_CHUNK: usize = 64;

/// Trials per scalar work unit when `count` trials are spread over
/// `workers` workers: about eight units per worker, within
/// `1..=MAX_CHUNK`.
fn chunk_len(count: usize, workers: usize) -> usize {
    (count / (workers * 8)).clamp(1, MAX_CHUNK)
}

/// A pooled scalar device. Drivers validate the port count upfront
/// ([`validate_ports`]), so construction cannot fail here.
fn pooled_ram(geom: Geometry, ports: usize) -> Ram {
    Ram::with_ports(geom, ports).expect("valid port count")
}

/// How many trial lanes one batched interpreter pass carries — the
/// campaign-facing selector for the const-generic [`LaneRam`] chunk
/// width. Wider chunks amortise the per-pass interpreter walk over more
/// trials and give the plane loops whole `[u64; K]` words to
/// auto-vectorise; narrow chunks waste less work on small universes.
/// The campaign drives exactly the configured width, on the full pass
/// and the sliced pass alike.
/// Verdicts, reports and checkpoints are bit-identical at every width
/// (property-tested in `tests/batch.rs` and `tests/resilience.rs`), so
/// the width — like the thread count — is a pure throughput knob and is
/// deliberately excluded from the checkpoint fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneWidth {
    /// One `u64` of lanes: 64 trials per pass (the PR-4 baseline).
    X64,
    /// `[u64; 4]` chunks: 256 trials per pass.
    X256,
    /// `[u64; 8]` chunks: 512 trials per pass (the default — ≈3× the
    /// 64-lane throughput on large arrays, where per-pass dispatch
    /// dominates and wide chunks amortise it; small universes with
    /// mostly-empty chunks run somewhat faster at `X64`, see
    /// `BENCH_campaign.json`).
    #[default]
    X512,
}

impl LaneWidth {
    /// Trial lanes per batched interpreter pass at this width.
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::X64 => LaneRam::<1>::LANES,
            LaneWidth::X256 => LaneRam::<4>::LANES,
            LaneWidth::X512 => LaneRam::<8>::LANES,
        }
    }
}

/// How a campaign distributes its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker on the calling thread (the sequential reference).
    Sequential,
    /// One worker per available core when the campaign is large enough to
    /// amortise thread startup; sequential otherwise.
    #[default]
    Auto,
    /// Exactly this many workers (clamped to ≥ 1).
    Threads(usize),
}

impl Parallelism {
    /// Workers for a sweep of `trials` trials. `cores` supplies the
    /// host's core count; only [`Parallelism::Auto`] at or above the
    /// threshold reads it.
    fn workers(self, trials: usize, cores: impl FnOnce() -> usize) -> usize {
        let w = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                if trials < AUTO_PARALLEL_THRESHOLD {
                    1
                } else {
                    cores()
                }
            }
        };
        w.min(trials.max(1))
    }
}

/// The host's core count. `available_parallelism` re-reads the cgroup
/// CPU quota on every call, so a campaign reads it at most once per run.
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Something that can run one prepared, single-fault memory and report
/// whether the fault was detected.
///
/// The campaign hands the runner a pooled [`Ram`] that has already been
/// reset and injected; `background` is the data background for this trial
/// (test engines that have no background notion are free to ignore it).
/// Closures `Fn(&mut Ram, u64) -> bool + Sync` implement this directly.
pub trait FaultRunner: Sync {
    /// Runs the test; `true` means the fault was detected.
    fn detect(&self, ram: &mut Ram, background: u64) -> bool;

    /// The compiled program this runner would execute for `background`,
    /// if it can expose one — the hook the **lane-batched** campaign path
    /// dispatches through ([`Campaign::detections`] packs 64 batchable
    /// fault trials per interpreter pass when every background resolves
    /// to a single-port program). Runners without a compiled program
    /// (closures, notation-interpreting adapters) keep the default `None`
    /// and campaigns fall back to the scalar path.
    fn batch_program(&self, background: u64) -> Option<&TestProgram> {
        let _ = background;
        None
    }

    /// Checks this runner against a campaign's whole-run configuration
    /// *before* any trial runs — the fallible drivers call it upfront so
    /// a misconfiguration becomes a typed [`CampaignError`] instead of a
    /// worker panic. Runners that cannot know their requirements ahead
    /// of time (closures) keep the default `Ok`.
    fn validate(
        &self,
        geom: Geometry,
        ports: usize,
        backgrounds: &[u64],
    ) -> Result<(), CampaignError> {
        let _ = (geom, ports, backgrounds);
        Ok(())
    }
}

/// The program-vs-campaign checks shared by the compiled runners: same
/// geometry, enough pooled ports.
fn validate_program(
    program: &TestProgram,
    geom: Geometry,
    ports: usize,
) -> Result<(), CampaignError> {
    if geom != program.geometry() {
        return Err(CampaignError::GeometryMismatch {
            program: program.name().to_string(),
            compiled: program.geometry(),
            campaign: geom,
        });
    }
    if ports < program.ports() {
        return Err(CampaignError::PortShortfall {
            program: program.name().to_string(),
            needed: program.ports(),
            pooled: ports,
        });
    }
    Ok(())
}

impl<F> FaultRunner for F
where
    F: Fn(&mut Ram, u64) -> bool + Sync,
{
    fn detect(&self, ram: &mut Ram, background: u64) -> bool {
        self(ram, background)
    }
}

// NOTE: no blanket `impl FaultRunner for &R` — it would overlap with the
// closure impl above. Engine-aware types implement the trait on their
// reference type instead (`impl FaultRunner for &PrtScheme`, …), so
// campaigns can borrow the runner.

/// A pre-compiled program drives campaigns directly: compilation happened
/// once, so every trial is a pure interpreter pass (allocation-free, early
/// exit at the first failing read). The trial background is ignored — a
/// compiled program bakes its data background in; use [`ProgramBank`] for
/// multi-background campaigns.
///
/// # Panics
///
/// Panics when the campaign's configuration contradicts the program:
/// wrong geometry, too few pooled ports, or a trial background that
/// differs from the one the program declares (March compilers declare
/// theirs). Per-trial device errors count as escapes, but any of these
/// mismatches would turn the *whole* campaign into silently wrong
/// coverage — configuration errors are surfaced loudly instead.
impl FaultRunner for &TestProgram {
    fn detect(&self, ram: &mut Ram, background: u64) -> bool {
        detect_checked(self, ram, background)
    }

    fn batch_program(&self, background: u64) -> Option<&TestProgram> {
        match self.background() {
            // A baked-in background that differs from the trial's is a
            // configuration error — decline the batch path so the scalar
            // path surfaces it with its usual loud panic.
            Some(baked) if baked != background => None,
            _ => Some(self),
        }
    }

    fn validate(
        &self,
        geom: Geometry,
        ports: usize,
        backgrounds: &[u64],
    ) -> Result<(), CampaignError> {
        validate_program(self, geom, ports)?;
        if let Some(baked) = self.background() {
            for &bg in backgrounds {
                if baked != bg {
                    return Err(CampaignError::BackgroundMismatch {
                        program: self.name().to_string(),
                        compiled: baked,
                        requested: bg,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Campaign-side program dispatch: reject whole-campaign configuration
/// errors loudly, then run with the usual per-trial error-as-escape
/// semantics.
fn detect_checked(program: &TestProgram, ram: &mut Ram, background: u64) -> bool {
    assert_eq!(
        ram.geometry(),
        program.geometry(),
        "campaign geometry does not match the geometry '{}' was compiled for",
        program.name()
    );
    assert!(
        ram.ports() >= program.ports(),
        "'{}' needs {} ports but the campaign pools {}-port memories — add .with_ports({})",
        program.name(),
        program.ports(),
        ram.ports(),
        program.ports()
    );
    if let Some(baked) = program.background() {
        assert_eq!(
            baked,
            background,
            "trial background {background:#x} does not match the background '{}' was \
             compiled for — compile one program per background (ProgramBank)",
            program.name()
        );
    }
    program.detect(ram)
}

/// A set of compiled programs keyed by data background — the compiled
/// counterpart of running one test under
/// [`Campaign::with_backgrounds`]: the campaign hands each trial's
/// background to the bank, which dispatches to the program compiled for
/// it. Programs are held by `Arc`, so a bank can share the artifacts of
/// a program cache with every other job that uses them.
///
/// # Example
///
/// ```
/// use prt_ram::{Geometry, ProgramBuilder, FaultUniverse, UniverseSpec};
/// use prt_sim::{Campaign, ProgramBank};
///
/// let geom = Geometry::wom(4, 4)?;
/// let bank = ProgramBank::new([0u64, 0b1111].map(|bg| {
///     let mut b = ProgramBuilder::new(geom);
///     for a in 0..4 {
///         b.write(a, bg);
///         b.read_expect(a, bg);
///     }
///     (bg, b.build())
/// }));
/// let u = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
/// let report = Campaign::new(&u, &bank).with_backgrounds(&[0, 0b1111]).run();
/// assert!(report.class("SAF").unwrap().complete());
/// # Ok::<(), prt_ram::RamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBank {
    programs: Vec<(u64, Arc<TestProgram>)>,
}

impl ProgramBank {
    /// Builds a bank from `(background, program)` pairs; a program is
    /// given owned or as an `Arc` shared with its other users.
    ///
    /// # Panics
    ///
    /// Panics on an empty collection.
    pub fn new<P: Into<Arc<TestProgram>>>(
        programs: impl IntoIterator<Item = (u64, P)>,
    ) -> ProgramBank {
        let programs: Vec<(u64, Arc<TestProgram>)> =
            programs.into_iter().map(|(bg, p)| (bg, p.into())).collect();
        assert!(!programs.is_empty(), "program bank needs at least one program");
        ProgramBank { programs }
    }

    /// A bank holding a single program (background 0).
    pub fn single(program: TestProgram) -> ProgramBank {
        ProgramBank::new([(0, program)])
    }

    /// The backgrounds this bank was compiled for, in insertion order —
    /// pass these to [`Campaign::with_backgrounds`].
    pub fn backgrounds(&self) -> Vec<u64> {
        self.programs.iter().map(|&(bg, _)| bg).collect()
    }

    /// The program compiled for `background` (`None` if absent).
    pub fn program(&self, background: u64) -> Option<&TestProgram> {
        self.programs.iter().find(|(bg, _)| *bg == background).map(|(_, p)| &**p)
    }
}

/// Campaigns dispatch each trial's background to the matching compiled
/// program.
///
/// # Panics
///
/// Panics when a trial asks for a background the bank was not compiled
/// for, or when the campaign's geometry differs from the programs' — both
/// campaign/bank configuration mismatches.
impl FaultRunner for &ProgramBank {
    fn detect(&self, ram: &mut Ram, background: u64) -> bool {
        let program = self
            .program(background)
            .unwrap_or_else(|| panic!("no program compiled for background {background:#x}"));
        detect_checked(program, ram, background)
    }

    fn batch_program(&self, background: u64) -> Option<&TestProgram> {
        self.program(background)
    }

    fn validate(
        &self,
        geom: Geometry,
        ports: usize,
        backgrounds: &[u64],
    ) -> Result<(), CampaignError> {
        for &bg in backgrounds {
            let program =
                self.program(bg).ok_or(CampaignError::UnknownBackground { background: bg })?;
            validate_program(program, geom, ports)?;
            if let Some(baked) = program.background() {
                if baked != bg {
                    return Err(CampaignError::BackgroundMismatch {
                        program: program.name().to_string(),
                        compiled: baked,
                        requested: bg,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Runs `count` independent trials against pooled memories and collects
/// each trial's **result value** in trial order — the generic campaign
/// mode that per-fault *measurements* (MISR signatures for fault
/// dictionaries, observed response streams, per-trial statistics) build
/// on. See [`try_map_trials_batched`] for the lane-sliced form
/// measurement campaigns over an explicit fault list use.
///
/// This is the engine's lowest-level primitive (Monte-Carlo campaigns use
/// it directly; [`Campaign`] builds fault-universe sweeps on top). Each
/// worker owns one `Ram`; before every trial the device is healed
/// ([`Ram::eject_faults`]) and zero-reset ([`Ram::reset_to`]), so `trial`
/// always observes a pristine memory and the steady state allocates
/// nothing beyond what `trial` itself allocates. Results land in
/// write-once slots in trial order, so the output is deterministic and
/// independent of the parallelism policy.
///
/// # Panics
///
/// Re-raises whatever [`try_map_trials`] reports: an invalid port count
/// panics with its configuration message, a caught trial panic resumes
/// with its original payload (this is a thin wrapper over the fallible
/// engine).
pub fn map_trials<T, F>(
    geom: Geometry,
    ports: usize,
    count: usize,
    parallelism: Parallelism,
    trial: F,
) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize, &mut Ram) -> T + Sync,
{
    try_map_trials(geom, ports, count, parallelism, trial).unwrap_or_else(|e| e.raise())
}

/// The fallible form of [`map_trials`] — the engine the panicking
/// wrapper delegates to. Pooling, scheduling and determinism contracts
/// are identical; failures come back typed.
///
/// # Errors
///
/// [`CampaignError::BadConfiguration`] for an invalid port count,
/// [`CampaignError::WorkerPanic`] when `trial` panicked. A panic poisons
/// only the chunk it fired in: the remaining workers drain quickly and
/// the **first** panic is reported with its chunk's trial range.
pub fn try_map_trials<T, F>(
    geom: Geometry,
    ports: usize,
    count: usize,
    parallelism: Parallelism,
    trial: F,
) -> Result<Vec<T>, CampaignError>
where
    T: Send + Sync,
    F: Fn(usize, &mut Ram) -> T + Sync,
{
    validate_ports(geom, ports)?;
    let workers = parallelism.workers(count, available_cores);
    let chunk = chunk_len(count, workers);
    let range = |c: usize| (c * chunk, ((c + 1) * chunk).min(count));
    let results: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    sweep(
        count.div_ceil(chunk),
        workers,
        None,
        range,
        |_| false,
        &mut WorkerPool::new(|| pooled_ram(geom, ports)),
        |c, ram| {
            let (lo, hi) = range(c);
            for (i, slot) in results.iter().enumerate().take(hi).skip(lo) {
                ram.eject_faults();
                ram.reset_to(0);
                // Chunks never overlap, so each slot is set once.
                let _ = slot.set(trial(i, ram));
            }
            Ok(())
        },
    )?;
    Ok(filled(results))
}

/// The values of write-once result slots, in index order.
fn filled<T>(slots: Vec<OnceLock<T>>) -> Vec<T> {
    slots.into_iter().map(|slot| slot.into_inner().expect("every index was dispatched")).collect()
}

/// Validates the pooled-device configuration once, upfront, so workers
/// can `expect` their pool construction.
fn validate_ports(geom: Geometry, ports: usize) -> Result<(), CampaignError> {
    Ram::with_ports(geom, ports).map(drop).map_err(|e| CampaignError::BadConfiguration {
        reason: format!("cannot pool {ports}-port memories: {e}"),
    })
}

/// The lane-sliced form of [`try_map_trials`] for per-fault measurement
/// campaigns: faults are packed `LaneRam::<K>::LANES` per [`LaneRam`]
/// chunk and measured by one `batch_trial` pass per batch — every fault
/// family lane-batches, so there is no scalar remainder and
/// `scalar_trial` serves only as the degradation oracle. Results land by
/// **fault index**, so the output is deterministic and identical for any
/// parallelism policy *and any lane width* — and, when the two trial
/// functions measure the same thing (the contract callers are
/// property-tested against), identical to the all-scalar [`map_trials`]
/// sweep.
///
/// `batch_trial` receives a healed, zero-reset [`LaneRam`] (pooled with
/// `ports` ports, so multi-port measurement programs batch too) whose
/// lanes `0..k` carry the batch's faults in index order and must push
/// exactly one result per injected lane, in lane order (checked).
/// `scalar_trial` receives the fault's universe index and a pooled
/// memory with the fault **already injected** (unlike the raw
/// [`map_trials`], which hands the closure a pristine device).
///
/// Returns the per-fault results plus the number of **degraded
/// batches**: a lane batch whose `batch_trial` panicked is retried
/// fault-by-fault on `scalar_trial` instead of killing the run, and
/// counted — so a degraded run's results are still exact.
///
/// # Errors
///
/// [`CampaignError::BadConfiguration`] for an invalid port count or a
/// `batch_trial` yielding a wrong result count;
/// [`CampaignError::WorkerPanic`] when a *scalar* trial panicked
/// (including a degraded retry — a batch that fails both engines is a
/// real failure, not a batching artifact).
pub fn try_map_trials_batched<const K: usize, T, FB, FS>(
    geom: Geometry,
    ports: usize,
    faults: &[FaultKind],
    parallelism: Parallelism,
    batch_trial: FB,
    scalar_trial: FS,
) -> Result<(Vec<T>, usize), CampaignError>
where
    T: Send + Sync,
    FB: Fn(&mut LaneRam<K>, &mut Vec<T>) + Sync,
    FS: Fn(usize, &mut Ram) -> T + Sync,
{
    validate_ports(geom, ports)?;
    let lanes = LaneRam::<K>::LANES;
    // Every fault family lane-batches, so batch `b` is plain index
    // arithmetic: fault indices `b*lanes .. (b+1)*lanes`.
    let order: Vec<u32> = (0..faults.len() as u32).collect();
    let range = |b: usize| (b * lanes, ((b + 1) * lanes).min(faults.len()));
    let n_batches = faults.len().div_ceil(lanes);
    let results: Vec<OnceLock<T>> = (0..faults.len()).map(|_| OnceLock::new()).collect();
    let degraded = AtomicUsize::new(0);
    let runner = LaneRunner {
        geom,
        ports,
        faults,
        degraded: &degraded,
        scalar_trial,
        // Batches never overlap, so each slot is set once.
        store: |fi: usize, v: T| {
            let _ = results[fi].set(v);
        },
    };
    sweep(
        n_batches,
        parallelism.workers(faults.len(), available_cores),
        None,
        range,
        |_| false,
        &mut WorkerPool::new(|| {
            (LaneRam::<K>::with_ports(geom, ports).expect("valid port count"), Vec::new())
        }),
        |b, (ram, out)| {
            let (lo, hi) = range(b);
            runner.run(ram, out, &order[lo..hi], &batch_trial)
        },
    )?;
    Ok((filled(results), degraded.into_inner()))
}

/// A configured fault-simulation campaign: a fault set × a runner × data
/// backgrounds, with a parallelism policy.
///
/// Construction is cheap; nothing runs until [`Campaign::run`],
/// [`Campaign::detections`] or one of the other drivers is called.
#[derive(Debug)]
pub struct Campaign<'a, R> {
    geom: Geometry,
    faults: &'a [FaultKind],
    runner: R,
    backgrounds: Vec<u64>,
    ports: usize,
    parallelism: Parallelism,
    lane_batching: bool,
    lane_width: LaneWidth,
    slicing: bool,
    topology: Option<Topology>,
    name: String,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    checkpoint: Option<(PathBuf, usize)>,
    progress: Option<ProgressHook<'a>>,
    #[cfg(any(test, feature = "chaos"))]
    chaos: Option<std::sync::Arc<chaos::ChaosPlan>>,
}

/// One completed segment of a campaign, as reported to a
/// [`Campaign::with_progress`] sink: the contiguous universe slice
/// `[start, end)` whose verdicts just became final.
///
/// Segments are reported **in order** and tile the evaluated prefix of
/// the universe exactly — `start` of each call equals `end` of the
/// previous one (the first call has `start == 0`, which on a resumed
/// checkpointed campaign covers the whole restored prefix in one call).
/// A campaign stopped early (deadline, cancellation) simply stops
/// reporting; segments never arrive out of order or overlap.
#[derive(Debug)]
pub struct SegmentProgress<'s> {
    /// First universe index of the segment (inclusive).
    pub start: usize,
    /// One past the last universe index of the segment (exclusive).
    pub end: usize,
    /// Final verdicts for `[start, end)`, keyed by `index - start`.
    pub verdicts: &'s [bool],
}

/// The configured streaming sink: segment cadence plus the callback.
/// Boxed so [`Campaign`] stays nameable; the manual [`fmt::Debug`] keeps
/// the campaign's derive working without demanding one of the closure.
struct ProgressHook<'a> {
    every: usize,
    sink: Box<dyn Fn(SegmentProgress<'_>) + Send + Sync + 'a>,
}

impl std::fmt::Debug for ProgressHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressHook").field("every", &self.every).finish_non_exhaustive()
    }
}

/// Campaign progress as the resilient driver reports it: the verdict
/// table (meaningful on `[0, evaluated)` when stopped early), the stop
/// cause if any, and the degradation counter.
struct Progress {
    verdicts: Vec<bool>,
    evaluated: usize,
    stopped: Option<StopCause>,
    degraded_batches: usize,
    elapsed: Duration,
}

/// The shared per-run state the segment drivers write into.
struct DriveCtx<'t> {
    /// Per-fault verdicts, keyed by universe index.
    table: &'t [AtomicBool],
    /// Per-fault completion flags — the checkpoint cursor is the length
    /// of the contiguous `true` prefix.
    done: &'t [AtomicBool],
    /// Deadline/cancellation, polled at chunk granularity.
    control: &'t RunControl,
    /// Lane batches degraded to the scalar oracle so far.
    degraded: &'t AtomicUsize,
}

impl DriveCtx<'_> {
    /// Records the final verdict of universe index `i`.
    fn record(&self, i: usize, verdict: bool) {
        self.table[i].store(verdict, Ordering::Relaxed);
        self.done[i].store(true, Ordering::Relaxed);
    }
}

impl<'a, R: FaultRunner> Campaign<'a, R> {
    /// A campaign over every instance of an enumerated universe.
    pub fn new(universe: &'a FaultUniverse, runner: R) -> Campaign<'a, R> {
        Campaign::over(universe.geometry(), universe.faults(), runner)
            .with_topology(universe.topology().clone())
    }

    /// A campaign over an explicit fault list (e.g. the escapes of a
    /// previous campaign, or a topological NPSF set).
    pub fn over(geom: Geometry, faults: &'a [FaultKind], runner: R) -> Campaign<'a, R> {
        Campaign {
            geom,
            faults,
            runner,
            backgrounds: vec![0],
            ports: 1,
            parallelism: Parallelism::Auto,
            lane_batching: true,
            lane_width: LaneWidth::default(),
            slicing: true,
            topology: None,
            name: "campaign".to_string(),
            deadline: None,
            cancel: None,
            checkpoint: None,
            progress: None,
            #[cfg(any(test, feature = "chaos"))]
            chaos: None,
        }
    }

    /// Sets the data backgrounds; a fault counts as detected when **any**
    /// background run flags it, and later backgrounds are skipped once one
    /// does (the per-fault early exit).
    ///
    /// # Panics
    ///
    /// Panics on an empty background list.
    pub fn with_backgrounds(mut self, backgrounds: &[u64]) -> Campaign<'a, R> {
        assert!(!backgrounds.is_empty(), "at least one data background required");
        self.backgrounds = backgrounds.to_vec();
        self
    }

    /// Number of ports on the pooled memories (default 1).
    pub fn with_ports(mut self, ports: usize) -> Campaign<'a, R> {
        self.ports = ports;
        self
    }

    /// Sets the parallelism policy (default [`Parallelism::Auto`]).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Campaign<'a, R> {
        self.parallelism = parallelism;
        self
    }

    /// Enables or disables the lane-sliced batch path (default enabled).
    /// With batching on, a campaign whose runner exposes a compiled
    /// program for every background ([`FaultRunner::batch_program`])
    /// evaluates its universe in lane chunks —
    /// [`LaneWidth::lanes`] trials per interpreter pass. There is no
    /// scalar remainder left: every modelled fault family and every
    /// program, multi-port π schedules included, batches; verdicts are
    /// bit-identical to the scalar path either way. Disable to measure
    /// or differential-test the scalar engine.
    pub fn with_lane_batching(mut self, enabled: bool) -> Campaign<'a, R> {
        self.lane_batching = enabled;
        self
    }

    /// Selects the lane-chunk width for the batched path (default
    /// [`LaneWidth::X512`]). Every lane batch, full or sliced, runs at
    /// exactly this width. A pure throughput knob: the verdict table,
    /// reports and checkpoints are bit-identical at every width, so
    /// checkpoints taken at one width resume correctly at another.
    pub fn with_lane_width(mut self, width: LaneWidth) -> Campaign<'a, R> {
        self.lane_width = width;
        self
    }

    /// Enables or disables activity-driven program slicing on the batched
    /// path (default enabled). With slicing on, each lane batch walks only
    /// the program ops whose address intersects the batch's span union —
    /// the cells its faults can actually perturb — and splices precomputed
    /// fault-free reference deltas over the gaps
    /// ([`prt_ram::ActivityIndex`]). The campaign additionally assembles
    /// batches in fault-locality order ([`prt_ram::locality_order`]) so
    /// the faults sharing a chunk have tight span unions. Verdicts, reports
    /// and checkpoints are **bit-identical** either way (slicing, like the
    /// lane width, is deliberately not fingerprinted); disable to pin the
    /// full-pass oracle for measurement or differential testing.
    pub fn with_slicing(mut self, enabled: bool) -> Campaign<'a, R> {
        self.slicing = enabled;
        self
    }

    /// Declares the physical address [`Topology`] this campaign's fault
    /// universe was enumerated under. Faults carry **logical** addresses
    /// whatever the topology, so this knob never changes how trials
    /// execute — it exists so the checkpoint fingerprint can tell
    /// scrambles apart: a checkpoint written under one topology refuses
    /// to resume under another
    /// ([`CheckpointError::FingerprintMismatch`]). The identity topology
    /// hashes exactly like the pre-topology era, keeping old checkpoints
    /// valid. [`Campaign::new`] sets this automatically from the
    /// universe; campaigns built with [`Campaign::over`] on scrambled
    /// fault lists should declare it explicitly.
    ///
    /// # Panics
    ///
    /// Panics when the topology's cell count disagrees with the
    /// campaign geometry.
    pub fn with_topology(mut self, topology: Topology) -> Campaign<'a, R> {
        assert_eq!(
            topology.cells(),
            self.geom.cells(),
            "topology cell count must match the campaign geometry"
        );
        self.topology = if topology.is_identity() { None } else { Some(topology) };
        self
    }

    /// Sets the report name (default `"campaign"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Campaign<'a, R> {
        self.name = name.into();
        self
    }

    /// Gives the run a time budget. The budget is polled at chunk
    /// granularity; when it runs out, [`Campaign::try_run`] returns a
    /// report explicitly marked partial ([`CoverageReport::partial`])
    /// covering the evaluated universe prefix, and
    /// [`Campaign::try_detections`] returns
    /// [`CampaignError::DeadlineExceeded`]. The clock starts when a
    /// driver is called, not when the campaign is configured.
    pub fn with_deadline(mut self, deadline: Duration) -> Campaign<'a, R> {
        self.deadline = Some(deadline);
        self
    }

    /// Arms cooperative cancellation: any clone of `token` can stop the
    /// run at the next chunk boundary, yielding a partial report exactly
    /// like an expired deadline. Cancellation is sticky — a campaign
    /// armed with an already-fired token stops before its first trial.
    pub fn with_cancel(mut self, token: &CancelToken) -> Campaign<'a, R> {
        self.cancel = Some(token.clone());
        self
    }

    /// Checkpoints progress to `path` every `every` trials (clamped to
    /// ≥ 1), and **resumes** from `path` when a compatible checkpoint is
    /// already there. Snapshots are written atomically (temp file +
    /// rename), versioned, fingerprinted against this campaign's
    /// geometry/universe/programs/backgrounds, and validated on load —
    /// a checkpoint of a different run is refused with
    /// [`CheckpointError::FingerprintMismatch`], never silently mixed
    /// in. A resumed campaign produces a report **bit-identical** to an
    /// uninterrupted run, at any thread count: verdict slots are keyed
    /// by fault index, so the schedule never leaks into the table.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Campaign<'a, R> {
        self.checkpoint = Some((path.into(), every.max(1)));
        self
    }

    /// Streams progress: after every segment of (at most) `every` trials
    /// completes, `sink` receives the segment's final verdicts as a
    /// [`SegmentProgress`]. Segments arrive in order and tile the
    /// evaluated prefix exactly (see [`SegmentProgress`]), so a sink can
    /// reconstruct the verdict table — or per-class coverage deltas —
    /// incrementally; the terminal report stays bit-identical to an
    /// unhooked run. Composes with [`Campaign::with_checkpoint`]: the
    /// effective segment length is the smaller of the two cadences.
    /// `every` is clamped to ≥ 1. The sink runs on the driving thread,
    /// between segments — a slow sink throttles the campaign, not the
    /// verdicts. A segment boundary costs one sink call and nothing
    /// else: the engine, the lane width and the workers' pooled devices
    /// are chosen once per run and carry over from segment to segment,
    /// so a fine cadence does not rebuild devices.
    pub fn with_progress(
        mut self,
        every: usize,
        sink: impl Fn(SegmentProgress<'_>) + Send + Sync + 'a,
    ) -> Campaign<'a, R> {
        self.progress = Some(ProgressHook { every: every.max(1), sink: Box::new(sink) });
        self
    }

    /// Arms a chaos-injection plan (test builds only): deliberate worker
    /// kills, batch kills and cancellations at deterministic points, for
    /// the resilience suite.
    #[cfg(any(test, feature = "chaos"))]
    pub fn with_chaos(mut self, plan: std::sync::Arc<chaos::ChaosPlan>) -> Campaign<'a, R> {
        self.chaos = Some(plan);
        self
    }

    /// Chaos checkpoint before a primary scalar trial (no-op outside
    /// test builds, and in degraded retries — degradation must succeed).
    #[cfg(any(test, feature = "chaos"))]
    fn chaos_trial(&self, i: usize) {
        if let Some(plan) = &self.chaos {
            plan.trial_event(i);
        }
    }

    #[cfg(not(any(test, feature = "chaos")))]
    fn chaos_trial(&self, _i: usize) {}

    /// Chaos checkpoint before a lane batch (no-op outside test builds).
    #[cfg(any(test, feature = "chaos"))]
    fn chaos_batch(&self, first: usize) {
        if let Some(plan) = &self.chaos {
            plan.batch_event(first);
        }
    }

    #[cfg(not(any(test, feature = "chaos")))]
    fn chaos_batch(&self, _first: usize) {}

    /// Number of fault instances in the campaign.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the campaign has no fault instances.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn run_fault(&self, i: usize, ram: &mut Ram) -> bool {
        ram.inject(self.faults[i].clone()).expect("campaign faults are valid");
        self.detect_injected(ram)
    }

    /// Runs every background on a device that already carries its fault,
    /// stopping at the first detection.
    fn detect_injected(&self, ram: &mut Ram) -> bool {
        for (bi, &bg) in self.backgrounds.iter().enumerate() {
            if bi > 0 {
                ram.reset_to(0);
            }
            if self.runner.detect(ram, bg) {
                return true;
            }
        }
        false
    }

    /// Per-fault verdicts in enumeration order. Deterministic: the result
    /// is independent of the parallelism policy because every trial is
    /// isolated on its own (pooled) memory — and of the lane-batching
    /// policy, because the batch engine is bitwise-exact per lane
    /// (property-tested in `tests/batch.rs`).
    ///
    /// # Panics
    ///
    /// Thin wrapper over [`Campaign::try_detections`]: configuration
    /// errors panic with the historical loud messages, caught worker
    /// panics resume with their original payload.
    pub fn detections(&self) -> Vec<bool> {
        self.try_detections().unwrap_or_else(|e| e.raise())
    }

    /// The fallible form of [`Campaign::detections`].
    ///
    /// # Errors
    ///
    /// The full [`CampaignError`] taxonomy: upfront configuration errors
    /// (geometry/port/background mismatches from
    /// [`FaultRunner::validate`], invalid port counts), checkpoint
    /// failures, [`CampaignError::WorkerPanic`] for a caught trial
    /// panic, and — because a verdict *vector* cannot be partial —
    /// [`CampaignError::DeadlineExceeded`] / [`CampaignError::Cancelled`]
    /// when a stop condition fired first (use [`Campaign::try_run`] for
    /// an explicitly-marked partial report instead).
    pub fn try_detections(&self) -> Result<Vec<bool>, CampaignError> {
        let progress = self.try_progress()?;
        match progress.stopped {
            None => Ok(progress.verdicts),
            Some(cause) => Err(self.stop_error(cause, progress.evaluated, progress.elapsed)),
        }
    }

    /// The typed error a driver that cannot return partial results
    /// reports when `cause` stopped it after `completed` trials (the
    /// contiguous evaluated prefix).
    fn stop_error(&self, cause: StopCause, completed: usize, elapsed: Duration) -> CampaignError {
        let total = self.faults.len();
        match cause {
            StopCause::DeadlineExceeded => CampaignError::DeadlineExceeded {
                elapsed,
                deadline: self.deadline.unwrap_or_default(),
                completed,
                total,
            },
            StopCause::Cancelled => CampaignError::Cancelled { completed, total },
        }
    }

    /// The resilient driver every campaign entry point sits on: validates
    /// the configuration upfront, then picks the engine once for the
    /// whole campaign — scalar, or lane-batched at the configured
    /// [`LaneWidth`] — and runs every segment of it on that engine
    /// ([`Campaign::drive_segments`]).
    fn try_progress(&self) -> Result<Progress, CampaignError> {
        self.runner.validate(self.geom, self.ports, &self.backgrounds)?;
        validate_ports(self.geom, self.ports)?;
        let Some(programs) = self.batch_plan() else {
            return self.drive_segments(
                || pooled_ram(self.geom, self.ports),
                |seg, workers, ctx, pool| self.drive_scalar(seg, workers, ctx, pool),
            );
        };
        // Activity indexes (one per background program) for the sliced
        // batch path: resolved once per campaign, before the segment loop
        // (the programs cache the compiled index, so repeat campaigns
        // over the same program share one build).
        let slice: Option<Vec<Arc<ActivityIndex>>> =
            self.slicing.then(|| programs.iter().map(|p| p.activity_index()).collect());
        let slice = slice.as_deref();
        // The chunk width is a const generic: monomorphise the whole
        // segment loop per width and dispatch on the knob once.
        match self.lane_width {
            LaneWidth::X64 => self.drive_lanes::<1>(&programs, slice),
            LaneWidth::X256 => self.drive_lanes::<4>(&programs, slice),
            LaneWidth::X512 => self.drive_lanes::<8>(&programs, slice),
        }
    }

    /// Every segment of a lane-batched campaign at width `K`, on one pool
    /// of lane devices.
    fn drive_lanes<const K: usize>(
        &self,
        programs: &[&TestProgram],
        slice: Option<&[Arc<ActivityIndex>]>,
    ) -> Result<Progress, CampaignError> {
        self.drive_segments(
            || {
                let ram =
                    LaneRam::<K>::with_ports(self.geom, self.ports).expect("valid port count");
                (ram, ActiveSet::new(), Vec::new())
            },
            |seg, workers, ctx, pool| {
                self.drive_batched::<K>(seg, workers, programs, slice, ctx, pool)
            },
        )
    }

    /// The segment loop: resumes from a checkpoint when one is armed and
    /// compatible, then drives the universe in **segments** (the finer of
    /// the checkpoint and progress cadences per segment; the whole
    /// remainder when neither is armed) through `segment`, checkpointing
    /// the contiguous verdict prefix and reporting progress to the
    /// streaming sink after each. One pool of worker states (built by
    /// `init`) serves every segment, and the core count is read at most
    /// once, so a segment boundary costs a progress call, not fresh
    /// devices. Worker panics poison only their chunk; deadline and
    /// cancellation stop the fan-out at chunk boundaries; a panicking
    /// lane batch degrades to the scalar oracle.
    fn drive_segments<S: Send>(
        &self,
        init: impl Fn() -> S + Sync,
        segment: impl Fn(
            Range<usize>,
            usize,
            &DriveCtx<'_>,
            &mut WorkerPool<'_, S>,
        ) -> Result<Option<StopCause>, CampaignError>,
    ) -> Result<Progress, CampaignError> {
        let total = self.faults.len();
        let fingerprint = self.checkpoint.as_ref().map(|_| self.fingerprint());
        let table: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
        let done: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
        let mut cursor = 0usize;
        if let (Some((path, _)), Some(fp)) = (&self.checkpoint, fingerprint) {
            if let Some(saved) = checkpoint::load_records::<bool>(path, fp, total)? {
                cursor = saved.len();
                for (i, verdict) in saved.into_iter().enumerate() {
                    table[i].store(verdict, Ordering::Relaxed);
                    done[i].store(true, Ordering::Relaxed);
                }
            }
        }
        // A hooked campaign resuming from a checkpoint reports the whole
        // restored prefix as one leading segment, so sinks always see
        // segments that tile `[0, evaluated)` — no silent gap.
        if cursor > 0 {
            if let Some(hook) = &self.progress {
                let prefix: Vec<bool> =
                    table[..cursor].iter().map(|b| b.load(Ordering::Relaxed)).collect();
                (hook.sink)(SegmentProgress { start: 0, end: cursor, verdicts: &prefix });
            }
        }
        let degraded = AtomicUsize::new(0);
        let control = RunControl::new(self.deadline, self.cancel.clone());
        let ctx = DriveCtx { table: &table, done: &done, control: &control, degraded: &degraded };
        let mut pool = WorkerPool::new(init);
        let cores = OnceCell::new();
        let mut stopped = None;
        // Segment length: the finer of the checkpoint cadence and the
        // progress cadence (one whole-remainder segment when neither is
        // armed).
        let step = self
            .checkpoint
            .as_ref()
            .map(|(_, every)| *every)
            .unwrap_or(usize::MAX)
            .min(self.progress.as_ref().map(|h| h.every).unwrap_or(usize::MAX));
        while cursor < total {
            let seg_start = cursor;
            let seg_end = cursor.saturating_add(step).min(total);
            let workers =
                self.parallelism.workers(seg_end - cursor, || *cores.get_or_init(available_cores));
            let outcome = segment(cursor..seg_end, workers, &ctx, &mut pool);
            while cursor < seg_end && done[cursor].load(Ordering::Relaxed) {
                cursor += 1;
            }
            if let (Some((path, _)), Some(fp)) = (&self.checkpoint, fingerprint) {
                let prefix: Vec<bool> =
                    table[..cursor].iter().map(|b| b.load(Ordering::Relaxed)).collect();
                checkpoint::save_records(path, fp, total, &prefix)?;
            }
            if cursor > seg_start {
                if let Some(hook) = &self.progress {
                    let verdicts: Vec<bool> = table[seg_start..cursor]
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect();
                    (hook.sink)(SegmentProgress {
                        start: seg_start,
                        end: cursor,
                        verdicts: &verdicts,
                    });
                }
            }
            // A failed segment surfaces only now, after its completed
            // prefix was checkpointed and streamed.
            if let Some(cause) = outcome? {
                stopped = Some(cause);
                break;
            }
        }
        Ok(Progress {
            verdicts: table.into_iter().map(AtomicBool::into_inner).collect(),
            evaluated: cursor,
            stopped,
            degraded_batches: degraded.load(Ordering::Relaxed),
            elapsed: control.elapsed(),
        })
    }

    /// Fingerprint of everything that determines this campaign's verdict
    /// table: geometry, ports, backgrounds, the fault universe and the
    /// compiled program per background. The **schedule** is fingerprinted
    /// only by its discipline name — verdict slots are keyed by fault
    /// index, so thread count, chunking, lane packing and the lane-chunk
    /// width ([`LaneWidth`]) never change the table: a checkpoint taken
    /// at 64 lanes resumes correctly at 512 and vice versa, which is why
    /// the width is deliberately **not** hashed here.
    ///
    /// A non-identity [`Topology`] (see [`Campaign::with_topology`]) is
    /// hashed so a checkpoint written under one scramble refuses to
    /// resume under another; the identity topology is hashed as the
    /// absence of the field, keeping pre-topology checkpoints valid.
    fn fingerprint(&self) -> u64 {
        let mut fp = FingerprintBuilder::new();
        fp.push_str("prt-sim/campaign/v1");
        fp.push_str("schedule:fault-index/v1");
        if let Some(topology) = &self.topology {
            fp.push_str("topology");
            fp.push_debug(topology);
        }
        fp.push_debug(&self.geom);
        fp.push_u64(self.ports as u64);
        fp.push_u64(self.backgrounds.len() as u64);
        for &bg in &self.backgrounds {
            fp.push_u64(bg);
        }
        fp.push_u64(self.faults.len() as u64);
        for fault in self.faults {
            fp.push_debug(fault);
        }
        for &bg in &self.backgrounds {
            match self.runner.batch_program(bg) {
                Some(program) => fp.push_debug(program),
                None => fp.push_str("interpreted"),
            }
        }
        fp.finish()
    }

    /// Scalar segment `seg`: chunks of trials on `workers` pooled
    /// [`Ram`]s, run by the shared scheduler ([`sweep`]) with the control
    /// polled before every chunk.
    fn drive_scalar(
        &self,
        seg: Range<usize>,
        workers: usize,
        ctx: &DriveCtx<'_>,
        pool: &mut WorkerPool<'_, Ram>,
    ) -> Result<Option<StopCause>, CampaignError> {
        let Range { start, end } = seg;
        let count = end - start;
        let chunk = chunk_len(count, workers);
        let range = |c: usize| (start + c * chunk, (start + (c + 1) * chunk).min(end));
        sweep(
            count.div_ceil(chunk),
            workers,
            Some(ctx.control),
            range,
            |_| false,
            pool,
            |c, ram| {
                let (lo, hi) = range(c);
                for i in lo..hi {
                    self.chaos_trial(i);
                    ram.eject_faults();
                    ram.reset_to(0);
                    ctx.record(i, self.run_fault(i, ram));
                }
                Ok(())
            },
        )
    }

    /// Lane-batched segment `seg` on `workers` pooled lane devices:
    /// faults are packed `LaneRam::<K>::LANES` per [`LaneRam`] chunk (one
    /// interpreter pass per batch per background, with the
    /// cross-background early exit per lane) and run by the shared
    /// scheduler and lane-batch runner, so threads × lanes trials are in
    /// flight while verdicts stay keyed by fault index — bit-identical at
    /// any thread count and any width. A batch whose pass panics degrades
    /// to the scalar oracle. With an activity-slice plan, batches are
    /// assembled in fault-locality order and each pass walks only the ops
    /// intersecting the batch's span union
    /// ([`TestProgram::try_detect_batch_sliced`]) — still bit-identical.
    fn drive_batched<const K: usize>(
        &self,
        seg: Range<usize>,
        workers: usize,
        programs: &[&TestProgram],
        slice: Option<&[Arc<ActivityIndex>]>,
        ctx: &DriveCtx<'_>,
        pool: &mut WorkerPool<'_, LaneState<K>>,
    ) -> Result<Option<StopCause>, CampaignError> {
        let Range { start, end } = seg;
        let lanes = LaneRam::<K>::LANES;
        let count = end - start;
        let n_batches = count.div_ceil(lanes);
        // Locality-aware chunk assembly: with slicing on, the segment is
        // evaluated in `(locality key, index)` order so the faults sharing
        // a lane batch have tight span unions (coupling faults group by
        // their aggressor/victim window). Verdicts stay keyed by fault
        // index, so the permutation never reaches reports or checkpoints.
        let order: Vec<u32> = if slice.is_some() {
            // A counting sort over cell keys, linear in the segment.
            // Enumeration is family-major, so a segment arrives sorted
            // only when it holds one single-cell family under the
            // identity topology; no scan looks for that case.
            let mut order = locality_order(&self.faults[start..end], self.geom.cells());
            order.iter_mut().for_each(|i| *i += start as u32);
            order
        } else {
            (start as u32..end as u32).collect()
        };
        let range = |b: usize| (b * lanes, ((b + 1) * lanes).min(count));
        let runner = LaneRunner {
            geom: self.geom,
            ports: self.ports,
            faults: self.faults,
            degraded: ctx.degraded,
            scalar_trial: |_, ram: &mut Ram| self.detect_injected(ram),
            store: |fi, verdict| ctx.record(fi, verdict),
        };
        sweep(
            n_batches,
            workers,
            Some(ctx.control),
            |b| {
                let (lo, hi) = range(b);
                (start + lo, start + hi)
            },
            |_| false,
            pool,
            |b, (ram, active, out)| {
                let (lo, hi) = range(b);
                let batch = &order[lo..hi];
                runner.run(ram, out, batch, |ram, out| {
                    // Chaos keys batches by schedule position (identical to
                    // the first fault index when assembly is unsorted), so
                    // kill targets stay width-based under locality sorting.
                    self.chaos_batch(start + lo);
                    let detected = self.detect_lanes(ram, programs, slice, batch, active);
                    out.extend((0..batch.len()).map(|lane| detected.get(lane)));
                })
            },
        )
    }

    /// One lane batch's verdicts: every background program in turn on
    /// the injected `ram`, stopping once every lane is flagged (the
    /// per-fault early exit across backgrounds, lane style).
    fn detect_lanes<const K: usize>(
        &self,
        ram: &mut LaneRam<K>,
        programs: &[&TestProgram],
        slice: Option<&[Arc<ActivityIndex>]>,
        batch: &[u32],
        active: &mut ActiveSet,
    ) -> LaneChunk<K> {
        let full = ram.active_lanes();
        let mut detected = LaneChunk::<K>::ZERO;
        for (bi, program) in programs.iter().enumerate() {
            if bi > 0 {
                if detected == full {
                    break;
                }
                ram.reset_to(0);
            }
            // The batch plan and `FaultRunner::validate` checked geometry
            // and ports upfront, so the typed errors cannot fire here.
            detected |= match slice {
                Some(indexes) => {
                    active.clear();
                    for &fi in batch {
                        active.insert_fault(&self.faults[fi as usize]);
                    }
                    active.finalize(&indexes[bi]);
                    program.try_detect_batch_sliced(ram, &indexes[bi], active)
                }
                None => program.try_detect_batch(ram),
            }
            .expect("batch configuration is validated upfront");
        }
        detected
    }

    /// The compiled programs (one per background) to batch with, when the
    /// campaign is eligible: batching enabled and every background
    /// resolves to a program on this geometry. Every program batches,
    /// multi-port `CycleN` schedules included.
    fn batch_plan(&self) -> Option<Vec<&TestProgram>> {
        if !self.lane_batching {
            return None;
        }
        let programs: Vec<&TestProgram> = self
            .backgrounds
            .iter()
            .map(|&bg| self.runner.batch_program(bg))
            .collect::<Option<_>>()?;
        // Geometry mismatches fall through to the scalar path, which
        // surfaces them with its usual loud panic.
        programs.iter().all(|p| p.geometry() == self.geom).then_some(programs)
    }

    /// The seed's original inner loop — a fresh [`Ram`] allocated per
    /// (fault, background) trial, strictly sequential. Kept as the
    /// differential-testing oracle the pooled engine is checked against;
    /// produces bit-identical verdicts.
    pub fn detections_reference(&self) -> Vec<bool> {
        self.faults
            .iter()
            .map(|fault| {
                for &bg in &self.backgrounds {
                    let mut ram = Ram::with_ports(self.geom, self.ports).expect("valid port count");
                    ram.inject(fault.clone()).expect("campaign faults are valid");
                    if self.runner.detect(&mut ram, bg) {
                        return true;
                    }
                }
                false
            })
            .collect()
    }

    /// Indices of the faults that escaped (were not detected).
    pub fn escapes(&self) -> Vec<usize> {
        self.detections().into_iter().enumerate().filter_map(|(i, d)| (!d).then_some(i)).collect()
    }

    /// Number of detected faults.
    pub fn count_detected(&self) -> usize {
        self.detections().into_iter().filter(|&d| d).count()
    }

    /// Index of the first escaping fault, or `None` when coverage is
    /// complete. Fail-fast: sequential campaigns stop at the first escape;
    /// parallel campaigns stop refining once no smaller index can escape.
    /// The result equals `self.escapes().first()` for any thread count.
    /// Always runs the scalar engine — the fail-fast scan visits a prefix
    /// of the universe, where batch packing would mostly evaluate trials
    /// whose verdicts are then discarded.
    ///
    /// # Panics
    ///
    /// As [`Campaign::detections`]: a trial panic resumes with its
    /// original payload at any thread count, and a deadline or
    /// cancellation that stops the scan before the answer is known
    /// raises [`CampaignError::DeadlineExceeded`] /
    /// [`CampaignError::Cancelled`].
    pub fn first_escape(&self) -> Option<usize> {
        validate_ports(self.geom, self.ports).unwrap_or_else(|e| e.raise());
        let count = self.faults.len();
        let workers = self.parallelism.workers(count, available_cores);
        let chunk = chunk_len(count, workers);
        let range = |c: usize| (c * chunk, ((c + 1) * chunk).min(count));
        let best = AtomicUsize::new(usize::MAX);
        let done: Vec<AtomicBool> = (0..count).map(|_| AtomicBool::new(false)).collect();
        let control = RunControl::new(self.deadline, self.cancel.clone());
        let outcome = sweep(
            count.div_ceil(chunk),
            workers,
            Some(&control),
            range,
            // Chunks past a known escape cannot improve the minimum.
            |c| c * chunk >= best.load(Ordering::Relaxed),
            &mut WorkerPool::new(|| pooled_ram(self.geom, self.ports)),
            |c, ram| {
                let (lo, hi) = range(c);
                for (i, done) in done.iter().enumerate().take(hi).skip(lo) {
                    // Indices below a known escape are all still visited,
                    // so the final minimum is the true first escape.
                    if i >= best.load(Ordering::Relaxed) {
                        break;
                    }
                    ram.eject_faults();
                    ram.reset_to(0);
                    let detected = self.run_fault(i, ram);
                    done.store(true, Ordering::Relaxed);
                    if !detected {
                        best.fetch_min(i, Ordering::Relaxed);
                        break;
                    }
                }
                Ok(())
            },
        );
        match outcome {
            Ok(None) => {
                let found = best.into_inner();
                (found != usize::MAX).then_some(found)
            }
            Ok(Some(cause)) => {
                let completed = done.iter().take_while(|d| d.load(Ordering::Relaxed)).count();
                self.stop_error(cause, completed, control.elapsed()).raise()
            }
            Err(e) => e.raise(),
        }
    }

    /// Runs the campaign and aggregates per-class coverage. The report is
    /// byte-identical to the sequential reference path regardless of the
    /// parallelism policy: workers only fill the per-fault verdict table,
    /// and rows are tallied in enumeration order afterwards.
    ///
    /// # Panics
    ///
    /// Thin wrapper over [`Campaign::try_run`]: configuration errors
    /// panic with the historical loud messages, caught worker panics
    /// resume with their original payload.
    pub fn run(&self) -> CoverageReport {
        self.try_run().unwrap_or_else(|e| e.raise())
    }

    /// The fallible form of [`Campaign::run`]. A run stopped by its
    /// deadline or a cancellation is **not** an error here: it returns
    /// `Ok` with a report explicitly marked partial
    /// ([`CoverageReport::partial`]) whose rows tally the evaluated
    /// universe prefix — detected-so-far plus a cursor instead of
    /// nothing. Lane batches that degraded to the scalar oracle are
    /// counted in [`CoverageReport::degraded_batches`].
    ///
    /// # Errors
    ///
    /// Configuration errors ([`FaultRunner::validate`] and port-pool
    /// validation), [`CampaignError::Checkpoint`] when an armed
    /// checkpoint cannot be saved/loaded or belongs to a different run,
    /// and [`CampaignError::WorkerPanic`] when a trial panicked (with
    /// progress up to the poisoned chunk checkpointed first, when
    /// checkpointing is on).
    pub fn try_run(&self) -> Result<CoverageReport, CampaignError> {
        let progress = self.try_progress()?;
        let mut tally = ClassTally::new();
        for (fault, &detected) in
            self.faults.iter().zip(&progress.verdicts).take(progress.evaluated)
        {
            tally.record(fault.mnemonic(), detected);
        }
        let mut report = tally.into_report(self.name.clone());
        report.set_degraded_batches(progress.degraded_batches);
        if let Some(cause) = progress.stopped {
            report.set_partial(PartialCoverage {
                evaluated: progress.evaluated,
                total: self.faults.len(),
                cause,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_ram::UniverseSpec;
    use std::sync::atomic::AtomicUsize;

    /// `w0 ⇑(r0) w1 ⇑(r1)`-ish toy test with full SAF coverage.
    fn toy_runner(ram: &mut Ram, _bg: u64) -> bool {
        let n = ram.geometry().cells();
        let mask = ram.geometry().data_mask();
        for a in 0..n {
            ram.write(a, 0);
        }
        for a in 0..n {
            if ram.read(a) != 0 {
                return true;
            }
            ram.write(a, mask);
        }
        (0..n).any(|a| {
            let got = ram.read(a) != mask;
            ram.write(a, 0);
            got
        })
    }

    fn universe() -> FaultUniverse {
        FaultUniverse::enumerate(Geometry::bom(10), &UniverseSpec::full())
    }

    #[test]
    fn parallel_matches_sequential_and_reference() {
        let u = universe();
        let seq =
            Campaign::new(&u, toy_runner).with_parallelism(Parallelism::Sequential).detections();
        let par =
            Campaign::new(&u, toy_runner).with_parallelism(Parallelism::Threads(4)).detections();
        let reference = Campaign::new(&u, toy_runner).detections_reference();
        assert_eq!(seq, par);
        assert_eq!(seq, reference);
    }

    #[test]
    fn reports_identical_across_thread_counts() {
        let u = universe();
        let base = Campaign::new(&u, toy_runner)
            .with_parallelism(Parallelism::Sequential)
            .with_name("toy")
            .run();
        for threads in [2usize, 3, 8] {
            let r = Campaign::new(&u, toy_runner)
                .with_parallelism(Parallelism::Threads(threads))
                .with_name("toy")
                .run();
            assert_eq!(base, r, "threads={threads}");
        }
        assert!(base.class("SAF").unwrap().complete());
    }

    #[test]
    fn multi_background_early_exit() {
        // SAF-only: the toy runner has full stuck-at coverage.
        let u = FaultUniverse::enumerate(
            Geometry::bom(6),
            &UniverseSpec { saf: true, ..UniverseSpec::default() },
        );
        let calls = AtomicUsize::new(0);
        let runner = |ram: &mut Ram, bg: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            // Only background 1 ever detects anything.
            bg == 1 && toy_runner(ram, bg)
        };
        let det = Campaign::new(&u, runner)
            .with_backgrounds(&[1, 0, 0, 0])
            .with_parallelism(Parallelism::Sequential)
            .detections();
        // Every stuck-at is caught on the first background, so exactly one
        // runner call per fault.
        assert!(det.iter().all(|&d| d));
        assert_eq!(calls.load(Ordering::Relaxed), u.len());
    }

    #[test]
    fn backgrounds_reset_state_between_runs() {
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        // A runner that dirties the RAM and detects nothing: the second
        // background must still observe a pristine store.
        let runner = |ram: &mut Ram, bg: u64| {
            if bg == 0 {
                ram.write(0, 1);
                false
            } else {
                ram.read(0) == 1 // dirty state leaked from background 0
            }
        };
        let det = Campaign::new(&u, runner)
            .with_backgrounds(&[0, 1])
            .with_parallelism(Parallelism::Sequential)
            .detections();
        // Cell-0 faults can make the leak check misfire legitimately
        // (SA1@0 reads 1 even on a clean store); every other instance must
        // see a clean device on background 1.
        for (i, d) in det.iter().enumerate() {
            if !matches!(
                u.faults()[i],
                FaultKind::StuckAt { cell: 0, .. } | FaultKind::Transition { cell: 0, .. }
            ) {
                assert!(!d, "fault {i}: state leaked across backgrounds");
            }
        }
    }

    #[test]
    fn escapes_and_first_escape_agree() {
        let u = universe();
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let c = Campaign::new(&u, toy_runner).with_parallelism(parallelism);
            let escapes = c.escapes();
            assert_eq!(c.first_escape(), escapes.first().copied());
            assert_eq!(c.count_detected(), u.len() - escapes.len());
        }
    }

    #[test]
    fn first_escape_resumes_the_trial_panic_payload() {
        // A trial panic surfaces with its own message at every thread
        // count, exactly as `detections()` re-raises it.
        let u = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::single_cell());
        let runner = |_ram: &mut Ram, _bg: u64| -> bool { panic!("trial exploded") };
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let c = Campaign::new(&u, runner).with_parallelism(parallelism);
            let payload = catch_unwind(AssertUnwindSafe(|| c.first_escape())).unwrap_err();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("trial exploded"), "{parallelism:?}: payload {message:?}");
        }
    }

    #[test]
    fn first_escape_honours_cancellation_and_deadline() {
        // A token fired before the run stops the scan at its first claim
        // with the same typed error `detections()` raises — no trial runs.
        let u = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::single_cell());
        let calls = AtomicUsize::new(0);
        let runner = |ram: &mut Ram, bg: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            toy_runner(ram, bg)
        };
        let token = CancelToken::new();
        token.cancel();
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload.downcast::<String>().map(|s| *s).unwrap_or_default()
        };
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let cancelled =
                Campaign::new(&u, runner).with_parallelism(parallelism).with_cancel(&token);
            let payload = catch_unwind(AssertUnwindSafe(|| cancelled.first_escape())).unwrap_err();
            let want = CampaignError::Cancelled { completed: 0, total: u.len() }.to_string();
            assert_eq!(message(payload), want, "{parallelism:?}");
            let expired = Campaign::new(&u, runner)
                .with_parallelism(parallelism)
                .with_deadline(Duration::ZERO);
            let payload = catch_unwind(AssertUnwindSafe(|| expired.first_escape())).unwrap_err();
            assert!(message(payload).starts_with("deadline exceeded"), "{parallelism:?}");
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0, "a stopped scan must not run trials");
    }

    #[test]
    fn complete_campaign_has_no_first_escape() {
        let u = FaultUniverse::enumerate(
            Geometry::bom(8),
            &UniverseSpec { saf: true, ..UniverseSpec::default() },
        );
        let c = Campaign::new(&u, toy_runner).with_parallelism(Parallelism::Threads(3));
        assert_eq!(c.first_escape(), None);
        assert!(c.run().complete());
    }

    #[test]
    fn over_subset_campaign() {
        let u = universe();
        let all = Campaign::new(&u, toy_runner);
        let escapes = all.escapes();
        let escaped: Vec<FaultKind> = escapes.iter().map(|&i| u.faults()[i].clone()).collect();
        let sub = Campaign::over(u.geometry(), &escaped, toy_runner);
        assert_eq!(sub.len(), escaped.len());
        assert!(!sub.is_empty());
        assert_eq!(sub.count_detected(), 0, "escapes must still escape");
    }

    #[test]
    fn map_trials_collects_values_in_order() {
        // The generic campaign mode: per-trial measurements, not just
        // verdict bits — deterministic for any thread count.
        let seq = map_trials(Geometry::bom(4), 1, 200, Parallelism::Sequential, |i, ram| {
            ram.write(0, (i % 2) as u64);
            ram.read(0) + 10 * i as u64
        });
        for threads in [2usize, 4, 7] {
            let par =
                map_trials(Geometry::bom(4), 1, 200, Parallelism::Threads(threads), |i, ram| {
                    ram.write(0, (i % 2) as u64);
                    ram.read(0) + 10 * i as u64
                });
            assert_eq!(seq, par, "threads={threads}");
        }
        for (i, v) in seq.iter().enumerate() {
            assert_eq!(*v, (i % 2) as u64 + 10 * i as u64, "trial {i}");
        }
    }

    #[test]
    fn map_trials_batched_matches_scalar_map() {
        // The lane-sliced measurement mode must produce, fault for fault,
        // the same values as an all-scalar map_trials sweep, for any
        // thread count — over the full universe (every family batches).
        let u = universe();
        let prog = toy_program(u.geometry());
        let scalar: Vec<bool> =
            map_trials(u.geometry(), 1, u.len(), Parallelism::Sequential, |i, ram| {
                ram.inject(u.faults()[i].clone()).expect("valid");
                prog.detect(ram)
            });
        for threads in [1usize, 3, 7] {
            let (batched, degraded) = try_map_trials_batched(
                u.geometry(),
                1,
                u.faults(),
                Parallelism::Threads(threads),
                |lanes: &mut LaneRam, out: &mut Vec<bool>| {
                    let verdicts = prog.try_detect_batch(lanes).expect("valid batch");
                    for lane in 0..lanes.active_lanes().count_ones() as usize {
                        out.push(verdicts.get(lane));
                    }
                },
                |_, ram| prog.detect(ram),
            )
            .expect("batched sweep");
            assert_eq!(scalar, batched, "threads={threads}");
            assert_eq!(degraded, 0);
        }
    }

    #[test]
    fn map_trials_batched_rejects_wrong_result_count() {
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        let err = try_map_trials_batched(
            u.geometry(),
            1,
            u.faults(),
            Parallelism::Sequential,
            |_lanes: &mut LaneRam, out: &mut Vec<bool>| out.push(true), // too few
            |_, _| true,
        )
        .unwrap_err();
        assert!(
            matches!(&err, CampaignError::BadConfiguration { reason }
                if reason.contains("one result per injected lane")),
            "expected BadConfiguration, got {err:?}"
        );
    }

    /// The toy runner, compiled to the IR once for a given geometry.
    fn toy_program(geom: Geometry) -> TestProgram {
        let mut b = prt_ram::ProgramBuilder::new(geom).with_name("toy compiled");
        let n = geom.cells();
        let mask = geom.data_mask();
        for a in 0..n {
            b.write(a, 0);
        }
        for a in 0..n {
            b.read_expect(a, 0);
            b.write(a, mask);
        }
        for a in 0..n {
            b.read_expect(a, mask);
            b.write(a, 0);
        }
        b.build()
    }

    #[test]
    fn compiled_program_campaign_matches_interpreted() {
        let u = universe();
        let prog = toy_program(u.geometry());
        let interpreted = Campaign::new(&u, toy_runner).detections();
        let compiled = Campaign::new(&u, &prog).detections();
        assert_eq!(interpreted, compiled);
        for threads in [2usize, 5] {
            let par = Campaign::new(&u, &prog)
                .with_parallelism(Parallelism::Threads(threads))
                .detections();
            assert_eq!(compiled, par, "threads={threads}");
        }
    }

    #[test]
    fn lane_batched_campaign_matches_scalar_engine() {
        // The full() universe mixes batchable (SAF/TF/CF…) and
        // scalar-only (AF/SOF/RDF…) families, so the partition and the
        // remainder path are both exercised. Verdicts must be identical
        // to the scalar engine for any thread count.
        let u = universe();
        let prog = toy_program(u.geometry());
        let scalar = Campaign::new(&u, &prog)
            .with_lane_batching(false)
            .with_parallelism(Parallelism::Sequential)
            .detections();
        for parallelism in
            [Parallelism::Sequential, Parallelism::Threads(3), Parallelism::Threads(7)]
        {
            let batched = Campaign::new(&u, &prog).with_parallelism(parallelism).detections();
            assert_eq!(scalar, batched, "{parallelism:?}");
        }
        // The aggregated report is identical too.
        let a = Campaign::new(&u, &prog).with_name("toy").run();
        let b = Campaign::new(&u, &prog).with_name("toy").with_lane_batching(false).run();
        assert_eq!(a, b);
    }

    #[test]
    fn lane_batched_multi_background_matches_scalar() {
        let geom = Geometry::wom(6, 4).expect("geometry");
        let u = FaultUniverse::enumerate(
            geom,
            &UniverseSpec { intra_word: true, ..UniverseSpec::full() },
        );
        let bgs = [0u64, 0b0101];
        let bank = ProgramBank::new(bgs.map(|bg| {
            let mut b = prt_ram::ProgramBuilder::new(geom).with_background(bg);
            for a in 0..6 {
                b.write(a, bg);
            }
            for a in 0..6 {
                b.read_expect(a, bg);
                b.write(a, bg ^ 0xF);
            }
            for a in 0..6 {
                b.read_expect(a, bg ^ 0xF);
            }
            (bg, b.build())
        }));
        let scalar =
            Campaign::new(&u, &bank).with_backgrounds(&bgs).with_lane_batching(false).detections();
        for threads in [1usize, 4] {
            let batched = Campaign::new(&u, &bank)
                .with_backgrounds(&bgs)
                .with_parallelism(Parallelism::Threads(threads))
                .detections();
            assert_eq!(scalar, batched, "threads={threads}");
        }
    }

    #[test]
    fn interpreted_runners_have_no_batch_plan() {
        // A closure runner exposes no compiled program: the batch path
        // must decline and the scalar engine must serve the verdicts.
        let u = universe();
        let c = Campaign::new(&u, toy_runner);
        assert!(c.batch_plan().is_none());
        assert_eq!(c.detections(), Campaign::new(&u, toy_runner).detections_reference());
    }

    #[test]
    fn multi_port_programs_batch_too() {
        // Multi-port π schedules used to fall through to the scalar
        // remainder; the CycleN batch interpreter now covers them, so the
        // batch plan claims every fault and the verdicts still match the
        // scalar engine.
        let geom = Geometry::bom(4);
        let mut b = prt_ram::ProgramBuilder::new(geom);
        b.cycle2(
            prt_ram::SlotOp::ReadExpect { addr: 0, expect: 0 },
            prt_ram::SlotOp::Write { addr: 2, data: 1 },
        );
        b.cycle2(prt_ram::SlotOp::ReadExpect { addr: 2, expect: 1 }, prt_ram::SlotOp::Idle);
        let prog = b.build();
        let faults = [
            FaultKind::StuckAt { cell: 0, bit: 0, value: 1 },
            FaultKind::StuckAt { cell: 3, bit: 0, value: 1 },
        ];
        let c = Campaign::over(geom, &faults, &prog).with_ports(2);
        let plan = c.batch_plan().expect("dual-port programs batch now");
        assert_eq!(plan.len(), 1, "one background, one compiled program");
        assert_eq!(c.detections(), vec![true, false]);
        let scalar = Campaign::over(geom, &faults, &prog).with_ports(2).with_lane_batching(false);
        assert_eq!(scalar.detections(), vec![true, false]);
    }

    #[test]
    fn program_bank_dispatches_by_background() {
        use std::sync::atomic::AtomicUsize;
        let geom = Geometry::bom(6);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
        let bank = ProgramBank::new([(0u64, toy_program(geom))]);
        assert_eq!(bank.backgrounds(), vec![0]);
        assert!(bank.program(0).is_some() && bank.program(1).is_none());
        let report = Campaign::new(&u, &bank).with_name("bank").run();
        let verdict_count = AtomicUsize::new(0);
        let interpreted = Campaign::new(&u, |ram: &mut Ram, bg: u64| {
            verdict_count.fetch_add(1, Ordering::Relaxed);
            toy_runner(ram, bg)
        })
        .with_name("bank")
        .run();
        assert_eq!(report, interpreted);
        assert_eq!(verdict_count.load(Ordering::Relaxed), u.len());
    }

    #[test]
    #[should_panic(expected = "no program compiled for background")]
    fn program_bank_rejects_unknown_background() {
        let geom = Geometry::bom(4);
        let bank = ProgramBank::new([(0u64, toy_program(geom))]);
        let mut ram = Ram::new(geom);
        let _ = (&bank).detect(&mut ram, 7);
    }

    #[test]
    #[should_panic(expected = "campaign geometry does not match")]
    fn compiled_runner_rejects_wrong_geometry() {
        let prog = toy_program(Geometry::bom(8));
        let mut ram = Ram::new(Geometry::bom(4));
        let _ = FaultRunner::detect(&&prog, &mut ram, 0);
    }

    #[test]
    #[should_panic(expected = "needs 2 ports")]
    fn compiled_runner_rejects_port_shortfall() {
        let geom = Geometry::bom(4);
        let mut b = prt_ram::ProgramBuilder::new(geom).with_name("dual");
        b.cycle2(prt_ram::SlotOp::ReadExpect { addr: 0, expect: 0 }, prt_ram::SlotOp::Idle);
        let prog = b.build();
        let mut ram = Ram::new(geom);
        let _ = FaultRunner::detect(&&prog, &mut ram, 0);
    }

    #[test]
    #[should_panic(expected = "does not match the background")]
    fn compiled_runner_rejects_background_mismatch() {
        let geom = Geometry::bom(4);
        let mut b = prt_ram::ProgramBuilder::new(geom).with_background(0);
        b.read_expect(0, 0);
        let prog = b.build();
        let mut ram = Ram::new(geom);
        let _ = FaultRunner::detect(&&prog, &mut ram, 1);
    }

    #[test]
    fn empty_campaign() {
        let faults: Vec<FaultKind> = Vec::new();
        let c = Campaign::over(Geometry::bom(4), &faults, toy_runner);
        assert!(c.is_empty());
        assert!(c.detections().is_empty());
        assert_eq!(c.first_escape(), None);
        assert!(c.run().complete());
    }

    // ---- resilience -----------------------------------------------------

    use std::sync::Arc;

    /// A fresh checkpoint path in the system temp dir (removed upfront so
    /// every test starts cold).
    fn temp_ckpt(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prt-sim-unit-{}-{name}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn wrong_geometry_program_is_a_typed_error() {
        // The same misconfiguration that panics the legacy wrapper is a
        // typed CampaignError on the fallible path — caught *before* any
        // worker spawns.
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        let prog = toy_program(Geometry::bom(8));
        let err = Campaign::new(&u, &prog).try_detections().unwrap_err();
        assert!(
            matches!(err, CampaignError::GeometryMismatch { .. }),
            "expected GeometryMismatch, got {err:?}"
        );
        assert!(err.to_string().contains("campaign geometry does not match"));
    }

    #[test]
    fn campaign_fingerprint_is_pinned() {
        // The fingerprint hashes the compiled program's `Debug` text, so
        // a change to the IR or its formatting invalidates every stored
        // checkpoint; this golden value makes such a change deliberate.
        let geom = Geometry::bom(8);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
        let prog = toy_program(geom);
        assert_eq!(Campaign::new(&u, &prog).fingerprint(), 0x7d8c_7a15_a143_d84a);
    }

    #[test]
    fn unknown_background_is_a_typed_error() {
        let geom = Geometry::bom(4);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
        let bank = ProgramBank::new([(0u64, toy_program(geom))]);
        let err = Campaign::new(&u, &bank).with_backgrounds(&[0, 7]).try_run().unwrap_err();
        assert_eq!(err, CampaignError::UnknownBackground { background: 7 });
    }

    #[test]
    fn cancelled_before_start_yields_empty_partial_report() {
        let u = universe();
        let token = CancelToken::new();
        token.cancel();
        let report = Campaign::new(&u, toy_runner).with_cancel(&token).try_run().expect("partial");
        let partial = report.partial().expect("must be marked partial");
        assert_eq!(partial.cause, StopCause::Cancelled);
        assert_eq!(partial.evaluated, 0);
        assert_eq!(partial.total, u.len());
        assert!(!report.complete());
        assert!(report.rows().is_empty());
        // The verdict-vector driver cannot return a partial vector: typed
        // error instead.
        let err = Campaign::new(&u, toy_runner).with_cancel(&token).try_detections().unwrap_err();
        assert_eq!(err, CampaignError::Cancelled { completed: 0, total: u.len() });
    }

    #[test]
    fn zero_deadline_yields_partial_report() {
        let u = universe();
        let report =
            Campaign::new(&u, toy_runner).with_deadline(Duration::ZERO).try_run().expect("partial");
        let partial = report.partial().expect("must be marked partial");
        assert_eq!(partial.cause, StopCause::DeadlineExceeded);
        assert_eq!(partial.evaluated, 0);
        match Campaign::new(&u, toy_runner).with_deadline(Duration::ZERO).try_detections() {
            Err(CampaignError::DeadlineExceeded { completed: 0, .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        };
    }

    #[test]
    fn killed_scalar_campaign_resumes_bit_identically() {
        // The acceptance scenario: a worker dies mid-run, the run errors
        // with WorkerPanic after checkpointing its progress, and a resumed
        // campaign — at any thread count — produces a report bit-identical
        // to an uninterrupted run.
        let u = universe();
        let uninterrupted = Campaign::new(&u, toy_runner).with_name("toy").run();
        let kill_at = u.len() / 2;
        for (round, threads) in [1usize, 3, 7].into_iter().enumerate() {
            let path = temp_ckpt(&format!("kill-resume-{round}"));
            let plan = Arc::new(chaos::ChaosPlan::new().panic_on_trial(kill_at));
            let err = Campaign::new(&u, toy_runner)
                .with_name("toy")
                .with_parallelism(Parallelism::Threads(threads))
                .with_checkpoint(&path, 16)
                .with_chaos(plan)
                .try_run()
                .unwrap_err();
            match &err {
                CampaignError::WorkerPanic { payload, .. } => {
                    assert!(payload.contains("chaos: injected panic"), "payload: {payload}")
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            // The checkpoint captured a strict prefix of the universe.
            let fp = checkpoint::peek_fingerprint(&path).expect("checkpoint exists");
            let saved = checkpoint::load_records::<bool>(&path, fp, u.len())
                .expect("valid checkpoint")
                .expect("not cold");
            assert!(saved.len() < u.len(), "kill must leave an incomplete checkpoint");
            // Resume with a different thread count than the killed run.
            let resumed = Campaign::new(&u, toy_runner)
                .with_name("toy")
                .with_parallelism(Parallelism::Threads(threads + 1))
                .with_checkpoint(&path, 16)
                .run();
            assert_eq!(uninterrupted, resumed, "threads={threads}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn panicking_batch_degrades_to_scalar_oracle() {
        // A lane batch that dies must not kill the campaign: its faults
        // retry on the scalar oracle, verdicts stay exact, and the report
        // carries a degradation counter instead of an error.
        let u = universe();
        let prog = toy_program(u.geometry());
        let clean = Campaign::new(&u, &prog).with_name("toy").run();
        assert_eq!(clean.degraded_batches(), 0);
        // Every fault lane-batches, so the first universe index anchors
        // the first batch.
        let plan = Arc::new(chaos::ChaosPlan::new().panic_on_batch(0));
        let degraded = Campaign::new(&u, &prog).with_name("toy").with_chaos(plan).run();
        assert!(degraded.degraded_batches() >= 1, "batch kill must be counted");
        assert!(degraded.partial().is_none(), "degradation is not a partial run");
        assert_eq!(clean.rows(), degraded.rows(), "degraded verdicts must stay exact");
    }

    #[test]
    fn chaos_cancellation_stops_mid_campaign() {
        let u = universe();
        let token = CancelToken::new();
        let plan = Arc::new(chaos::ChaosPlan::new().cancel_after(u.len() / 2, &token));
        let report = Campaign::new(&u, toy_runner)
            .with_parallelism(Parallelism::Sequential)
            .with_cancel(&token)
            .with_chaos(plan)
            .try_run()
            .expect("partial");
        let partial = report.partial().expect("must be marked partial");
        assert_eq!(partial.cause, StopCause::Cancelled);
        assert!(partial.evaluated < u.len());
    }

    #[test]
    fn foreign_checkpoint_is_refused() {
        let u = universe();
        let path = temp_ckpt("foreign");
        // A completed campaign keeps its checkpoint file (cursor == total).
        let first = Campaign::new(&u, toy_runner).with_checkpoint(&path, 32).run();
        assert!(first.partial().is_none(), "uninterrupted run must not be partial");
        // A campaign with different backgrounds has a different verdict
        // table: adopting the old file silently would be corruption.
        let err = Campaign::new(&u, toy_runner)
            .with_backgrounds(&[0, 1])
            .with_checkpoint(&path, 32)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "expected FingerprintMismatch, got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_refuses_resume_under_different_topology() {
        let u = universe();
        let n = u.geometry().cells();
        let scramble = Topology::identity(n).then_table((0..n).rev().collect()).unwrap();
        let path = temp_ckpt("topology");
        let first = Campaign::new(&u, toy_runner)
            .with_topology(scramble.clone())
            .with_checkpoint(&path, 32)
            .run();
        assert!(first.partial().is_none());
        // Same faults, same geometry — but the file declares a scramble,
        // so an identity-topology campaign must not adopt it...
        let err = Campaign::new(&u, toy_runner).with_checkpoint(&path, 32).try_run().unwrap_err();
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "identity resume of a scrambled checkpoint must be refused, got {err:?}"
        );
        // ...nor may a campaign under a *different* scramble.
        let other = Topology::generate(n, 7);
        assert_ne!(other, scramble, "seed 7 must generate a distinct topology");
        let err = Campaign::new(&u, toy_runner)
            .with_topology(other)
            .with_checkpoint(&path, 32)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "cross-scramble resume must be refused, got {err:?}"
        );
        // The declared topology re-admits its own checkpoint.
        let again = Campaign::new(&u, toy_runner)
            .with_topology(scramble)
            .with_checkpoint(&path, 32)
            .try_run()
            .expect("same-topology resume must succeed");
        assert_eq!(first.rows(), again.rows());
        let _ = std::fs::remove_file(&path);
    }

    /// March C- — `{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}`
    /// — built op by op (`prt-march`, which compiles March notation, sits
    /// above this crate).
    fn march_c_minus_program(geom: Geometry) -> TestProgram {
        let mut b = prt_ram::ProgramBuilder::new(geom).with_name("March C-");
        let n = geom.cells();
        let one = geom.data_mask();
        for a in 0..n {
            b.write(a, 0);
        }
        for (up, from, to) in [(true, 0, one), (true, one, 0), (false, 0, one), (false, one, 0)] {
            for i in 0..n {
                let a = if up { i } else { n - 1 - i };
                b.read_expect(a, from);
                b.write(a, to);
            }
        }
        for a in 0..n {
            b.read_expect(a, 0);
        }
        b.build()
    }

    /// Streams the `configure`d campaign over `faults` at `cadence` and
    /// checks that the sink saw in-order, gap-free segments of at most
    /// `cadence` trials whose verdicts equal the unhooked run's, and that
    /// hooking left the report unchanged.
    fn assert_streams_like_unhooked(
        geom: Geometry,
        faults: &[FaultKind],
        prog: &TestProgram,
        cadence: usize,
        configure: &dyn for<'c> Fn(Campaign<'c, &'c TestProgram>) -> Campaign<'c, &'c TestProgram>,
    ) {
        let unhooked = configure(Campaign::over(geom, faults, prog));
        let (oracle, plain) = (unhooked.detections(), unhooked.run());
        let seen: Mutex<Vec<(usize, usize, Vec<bool>)>> = Mutex::new(Vec::new());
        let report = configure(Campaign::over(geom, faults, prog))
            .with_progress(cadence, |seg: SegmentProgress<'_>| {
                seen.lock().unwrap().push((seg.start, seg.end, seg.verdicts.to_vec()));
            })
            .run();
        let case = format!(
            "batching {}, {:?}, slicing {}, {:?}, cadence {cadence}",
            unhooked.lane_batching, unhooked.lane_width, unhooked.slicing, unhooked.parallelism
        );
        assert_eq!(report, plain, "hooking must not perturb the report: {case}");
        let mut cursor = 0;
        let mut streamed = Vec::new();
        for (start, end, verdicts) in seen.into_inner().unwrap() {
            assert_eq!(start, cursor, "segments must tile without gaps: {case}");
            assert!(end > start && end - start <= cadence, "segment cadence respected: {case}");
            assert_eq!(verdicts.len(), end - start);
            streamed.extend_from_slice(&verdicts);
            cursor = end;
        }
        assert_eq!(cursor, faults.len(), "segments must cover the whole universe: {case}");
        assert_eq!(streamed, oracle, "streamed verdicts must equal the verdict table: {case}");
    }

    #[test]
    fn progress_segments_tile_and_match_detections() {
        // The streaming sink must see in-order, gap-free segments whose
        // concatenated verdicts equal the unhooked run's verdict table —
        // on both engines — and hooking must not perturb the report.
        let u = universe();
        let prog = toy_program(u.geometry());
        for batching in [true, false] {
            assert_streams_like_unhooked(u.geometry(), u.faults(), &prog, 7, &|c| {
                c.with_lane_batching(batching)
            });
        }
        // Every segment reuses its workers' pooled devices. Coupling and
        // retention faults leave state in a device, so a March C- sweep
        // over them checks that reuse at cadences below, at and just
        // above one 512-lane batch, on every engine configuration.
        let geom = Geometry::bom(16);
        let mut faults =
            FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim()).faults().to_vec();
        faults.extend((0..geom.cells()).flat_map(|cell| {
            [0, 1].map(|decays_to| FaultKind::DataRetention { cell, bit: 0, decays_to, after: 24 })
        }));
        let march = march_c_minus_program(geom);
        for cadence in [1, 63, 512, 513] {
            for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
                assert_streams_like_unhooked(geom, &faults, &march, cadence, &|c| {
                    c.with_lane_batching(false).with_parallelism(parallelism)
                });
                for slicing in [true, false] {
                    for width in [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512] {
                        assert_streams_like_unhooked(geom, &faults, &march, cadence, &|c| {
                            c.with_slicing(slicing)
                                .with_lane_width(width)
                                .with_parallelism(parallelism)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn resumed_progress_reports_restored_prefix() {
        // A hooked campaign resuming from a checkpoint announces the
        // restored prefix as one leading segment: sinks always see a
        // tiling of [0, total), even across a restart.
        let u = universe();
        let path = temp_ckpt("progress-resume");
        let token = CancelToken::new();
        let plan = Arc::new(chaos::ChaosPlan::new().cancel_after(u.len() / 2, &token));
        let _ = Campaign::new(&u, toy_runner)
            .with_parallelism(Parallelism::Sequential)
            .with_cancel(&token)
            .with_checkpoint(&path, 8)
            .with_chaos(plan)
            .try_run()
            .expect("partial run");
        let segments: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let resumed = Campaign::new(&u, toy_runner)
            .with_checkpoint(&path, 8)
            .with_progress(8, |seg: SegmentProgress<'_>| {
                segments.lock().unwrap().push((seg.start, seg.end));
            })
            .run();
        assert!(resumed.partial().is_none());
        let segments = segments.into_inner().unwrap();
        assert!(segments[0].0 == 0 && segments[0].1 > 0, "restored prefix must be announced");
        let mut cursor = 0;
        for (start, end) in &segments {
            assert_eq!(*start, cursor);
            cursor = *end;
        }
        assert_eq!(cursor, u.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        // Segmenting the universe for checkpoints must not change the
        // verdicts — scalar and lane-batched engines alike.
        let u = universe();
        let prog = toy_program(u.geometry());
        let plain = Campaign::new(&u, &prog).with_name("toy").run();
        let path = temp_ckpt("segmented");
        let segmented = Campaign::new(&u, &prog).with_name("toy").with_checkpoint(&path, 10).run();
        assert_eq!(plain, segmented);
        let _ = std::fs::remove_file(&path);
    }
}
