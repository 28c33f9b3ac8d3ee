//! Parallel, allocation-free fault-simulation campaign engine.
//!
//! Every coverage experiment in this workspace — the E3/E10 tables, scheme
//! synthesis, Monte-Carlo detection probability, the hardware/software
//! cross-check — reduces to the same inner loop: *for each enumerated fault
//! instance, prepare a RAM, inject, run a test, aggregate*. This crate
//! hoists that loop out of the five places it used to be written and makes
//! it fast:
//!
//! * **Pooled devices** — each worker leases one [`Ram`] (or one lane
//!   device on the batched path) from a process-wide cache keyed by
//!   geometry and port count, and recycles it via [`Ram::reset_to`] +
//!   [`Ram::eject_faults`] before every trial or lane batch, so the
//!   steady-state campaign performs **zero heap allocation per fault**
//!   instead of two `Vec` allocations plus fault-bank rebuilds per trial.
//!   Leases end with each sweep and the devices go back to the cache, so
//!   segments, campaigns, dictionary builds and service jobs that follow
//!   on the same geometry and ports start on warm devices. The cache
//!   keeps idle devices up to a fixed byte budget (16 MiB), never one
//!   larger than it, and drops a device a trial panicked on.
//! * **Parallel fan-out** — fault instances are independent, so workers
//!   self-schedule over chunks of the instance index space: one private
//!   scheduler (chunked work-stealing on scoped `std` threads — the
//!   environment this workspace builds in has no registry access, so the
//!   fan-out is built on `std` instead of rayon) runs every sweep, and one
//!   lane-batch runner packs, runs and degrades every lane batch.
//! * **Early exit** — a fault detected under one data background skips the
//!   remaining backgrounds, exactly like the sequential reference.
//! * **Deterministic aggregation** — workers only hand back per-fault
//!   records keyed by fault index; rows are tallied afterwards in
//!   enumeration order, so the resulting [`CoverageReport`] is identical
//!   to the sequential path for any thread count.
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
//! Exactly three kinds of runner exist, and the runner alone picks the
//! engine. Closures are the explicit scalar runner: one fault at a time
//! on a pooled [`Ram`]. The other two are **compiled programs**: every
//! test family compiles to the [`prt_ram::prog`] IR (`Executor::compile`,
//! `PiTest::compile`, `PrtScheme::compile`, `PlaneScheme::compile`), and
//! `&TestProgram` / `&`[`ProgramBank`] implement [`FaultRunner`]. A
//! compiled campaign is validated upfront and lane-batched, 512 trials
//! per interpreter pass, so the notation is interpreted once per
//! campaign instead of once per fault. Each segment of a compiled
//! campaign is planned: where its lane chunks touch a small part of the
//! array they are assembled in fault-locality order and activity-sliced,
//! elsewhere the full pass runs over chunks in the list's order.
//! [`Campaign::with_slicing`] is the one engine override: it forces
//! either engine, for oracles and measurement. The families' interpreted
//! `run` methods are oracles for tests, not runners; a campaign drives
//! one, or runs a compiled program on the scalar engine, only through an
//! explicit closure.
//!
//! A campaign has two terminals on that one engine. Detection
//! ([`Campaign::try_run`] and its siblings) records a verdict per fault;
//! measurement ([`Campaign::try_measure`]) records any checkpointable
//! value per fault — a MISR signature for a fault dictionary, say — from
//! a caller-supplied lane-batch trial. Both run the same segment loop,
//! segment plan, checkpoints, chaos sites and device cache.
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

use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use prt_ram::{
    locality_order, ActiveSet, ActivityIndex, FaultKind, FaultUniverse, Geometry, LaneChunk,
    LaneRam, LazyUniverse, Ram, ReadWired, TestProgram, Topology,
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

use checkpoint::{CheckpointRecord, FingerprintBuilder};
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
/// and lane-batched, detection and measurement),
/// [`Campaign::first_escape`] and [`try_map_trials`].
///
/// Up to `workers` workers (never more than there are units) claim the
/// `units` work units (trial chunks or lane batches) in order from one
/// atomic counter. Worker 0 runs on the calling thread and only the
/// others are spawned, so a one-worker sweep spawns nothing. Each worker
/// holds a [`Lease`] on one device of the process-wide cache, keyed by
/// `device` (geometry, ports), and collects its output in a `W` of its
/// own; the outputs come back in worker order. A claimed unit is
/// dropped, ending that worker, once `cut` holds for it — the fail-fast
/// early exit, sound because claims are monotone — or once `control`
/// reports a stop. Every unit runs under `catch_unwind`: a panic poisons
/// only its own unit, whose device is dropped rather than returned to
/// the cache, and is reported with the unit's fault-index range (`span`).
/// The first failure stops further claims; a contract error (`unit`
/// returning `Err`) outranks a trial panic.
///
/// Returns the workers' outputs and the stop cause when `control` ended
/// the sweep early.
fn sweep<D: Device, W: Default + Send>(
    units: usize,
    workers: usize,
    control: Option<&RunControl>,
    device: (Geometry, usize),
    span: impl Fn(usize) -> (usize, usize) + Sync,
    cut: impl Fn(usize) -> bool + Sync,
    unit: impl Fn(usize, &mut Lease<D>, &mut W) -> Result<(), CampaignError> + Sync,
) -> (Vec<W>, Result<Option<StopCause>, CampaignError>) {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<CampaignError>> = Mutex::new(None);
    let stopped: OnceLock<StopCause> = OnceLock::new();
    let worker = |out: &mut W| {
        let mut lease = Lease::new(device);
        while !failed.load(Ordering::Relaxed) {
            let u = next.fetch_add(1, Ordering::Relaxed);
            if u >= units || cut(u) {
                break;
            }
            if let Some(cause) = control.and_then(RunControl::stop_cause) {
                let _ = stopped.set(cause);
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| unit(u, &mut lease, out)))
                .unwrap_or_else(|payload| {
                    lease.poison();
                    Err(worker_panic(span(u), payload))
                });
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
    let mut outs: Vec<W> = (0..workers.clamp(1, units.max(1))).map(|_| W::default()).collect();
    let (first, rest) = outs.split_first_mut().expect("at least one worker");
    if rest.is_empty() {
        worker(first);
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            for out in rest {
                scope.spawn(move || worker(out));
            }
            worker(first);
        });
    }
    let outcome = match failure.into_inner().expect("failure slot lock") {
        Some(e) => Err(e),
        None => Ok(stopped.into_inner()),
    };
    (outs, outcome)
}

/// Bytes of idle devices the process-wide cache keeps. A device larger
/// than this is never kept: a 2²⁰-cell 512-lane device holds 64 MiB, and
/// building one costs little next to the campaign that needs it. When a
/// check-in would exceed the budget, the devices checked in longest ago
/// are dropped first.
const IDLE_DEVICE_BYTES: usize = 16 << 20;

/// A worker device the process-wide cache can hold between sweeps.
///
/// Reuse across sweeps, segments, campaigns and dictionary builds is
/// sound for the reason reuse across one sweep's units is: every unit
/// heals ([`Ram::eject_faults`]) and zero-resets ([`Ram::reset_to`]) its
/// device before each trial or lane batch, and what those two leave
/// alone, the port count and geometry, is the cache key. Only the bitline
/// wiring a runner may set survives them, so a device going idle is
/// restored to the default wiring.
trait Device: Send + Sized + 'static {
    /// A fresh device. Drivers validate the port count upfront
    /// ([`validate_ports`]), so construction cannot fail here.
    fn build(geom: Geometry, ports: usize) -> Self;

    /// What an idle device counts against [`IDLE_DEVICE_BYTES`]: its
    /// storage planes, the part that grows with the array.
    fn bytes(geom: Geometry) -> usize;

    /// Restores the settings the per-unit heal leaves alone.
    fn settle(&mut self);
}

impl Device for Ram {
    fn build(geom: Geometry, ports: usize) -> Ram {
        Ram::with_ports(geom, ports).expect("valid port count")
    }

    fn bytes(geom: Geometry) -> usize {
        geom.cells() * std::mem::size_of::<u64>()
    }

    fn settle(&mut self) {
        self.set_wired(ReadWired::default());
    }
}

impl Device for LaneState {
    fn build(geom: Geometry, ports: usize) -> LaneState {
        let ram = LaneRam::with_ports(geom, ports).expect("valid port count");
        (ram, ActiveSet::new())
    }

    fn bytes(geom: Geometry) -> usize {
        geom.cells() * geom.width() as usize * std::mem::size_of::<LaneChunk<CHUNK_WORDS>>()
    }

    fn settle(&mut self) {
        self.0.set_wired(ReadWired::default());
    }
}

/// One idle device of the cache: its type, geometry and port count, the
/// bytes it counts, and the device.
struct Idle {
    key: (TypeId, Geometry, usize),
    bytes: usize,
    device: Box<dyn Any + Send>,
}

/// The process-wide cache of idle worker devices, least recently
/// checked in first, within [`IDLE_DEVICE_BYTES`].
static IDLE: Mutex<Vec<Idle>> = Mutex::new(Vec::new());

/// The idle list. A panic never holds the lock over a half-done change,
/// so a poisoned lock still guards a consistent list.
fn idle() -> std::sync::MutexGuard<'static, Vec<Idle>> {
    IDLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A worker's hold on one device: checked out of the process-wide cache
/// on first use (built when none idles under the key), checked back in
/// when the lease ends. A device a unit panicked on is dropped instead
/// ([`Lease::poison`]); the next use checks out another.
struct Lease<D: Device> {
    key: (Geometry, usize),
    device: Option<D>,
}

impl<D: Device> Lease<D> {
    fn new(key: (Geometry, usize)) -> Lease<D> {
        Lease { key, device: None }
    }

    /// The leased device.
    fn get(&mut self) -> &mut D {
        let (geom, ports) = self.key;
        self.device.get_or_insert_with(|| {
            let key = (TypeId::of::<D>(), geom, ports);
            let mut idle = idle();
            match idle.iter().rposition(|entry| entry.key == key) {
                Some(at) => *idle.remove(at).device.downcast().expect("keyed by type"),
                None => {
                    drop(idle);
                    D::build(geom, ports)
                }
            }
        })
    }

    /// Drops the leased device: a unit panicked on it, so its state is
    /// not trusted again.
    fn poison(&mut self) {
        self.device = None;
    }
}

impl<D: Device> Drop for Lease<D> {
    fn drop(&mut self) {
        let Some(mut device) = self.device.take() else { return };
        let (geom, ports) = self.key;
        let bytes = D::bytes(geom);
        if bytes > IDLE_DEVICE_BYTES {
            return;
        }
        device.settle();
        let mut idle = idle();
        let mut held = idle.iter().map(|entry| entry.bytes).sum::<usize>() + bytes;
        let mut evict = 0;
        while held > IDLE_DEVICE_BYTES {
            held -= idle[evict].bytes;
            evict += 1;
        }
        idle.drain(..evict);
        idle.push(Idle { key: (TypeId::of::<D>(), geom, ports), bytes, device: Box::new(device) });
    }
}

/// Words per lane chunk of every campaign lane batch: `LaneRam<8>`, 512
/// trials per interpreter pass. The lane engine is exact per lane at any
/// width, so verdicts, measurements, reports and checkpoints do not
/// depend on it.
const CHUNK_WORDS: usize = 8;

/// One campaign lane worker's device: its lane memory and its active-set
/// scratch.
type LaneState = (LaneRam<CHUNK_WORDS>, ActiveSet);

/// The records one campaign worker finished in a segment: one run per
/// work unit, as the unit's first schedule position in the segment and
/// the records of its consecutive positions. Workers share nothing per
/// fault; [`gather`] merges every worker's runs once per segment.
type Runs<T> = Vec<(usize, Vec<T>)>;

/// Extends `records`, the table of finished records, by the finished
/// prefix of one segment, from the workers' `runs`. Without an `order`,
/// schedule position `p` is the segment's fault `p`: the runs are
/// appended in position order up to the first gap. A permuted segment
/// (position `p` is the segment's fault `order[p]`) is scattered back to
/// fault order once.
fn gather<T>(runs: Vec<Runs<T>>, order: Option<&[u32]>, records: &mut Vec<T>) {
    let mut runs: Runs<T> = runs.into_iter().flatten().collect();
    match order {
        None => {
            runs.sort_unstable_by_key(|&(first, _)| first);
            let mut next = 0;
            for (first, mut run) in runs {
                if first != next {
                    break;
                }
                next += run.len();
                records.append(&mut run);
            }
        }
        Some(order) => {
            let mut slots: Vec<Option<T>> = order.iter().map(|_| None).collect();
            for (first, run) in runs {
                for (&p, record) in order[first..].iter().zip(run) {
                    slots[p as usize] = Some(record);
                }
            }
            records.extend(slots.into_iter().map_while(|record| record));
        }
    }
}

/// Lane chunks of a segment [`plan_sliced`] samples.
const PLAN_SAMPLES: usize = 8;

/// The share of the array above which the mean span union of the sampled
/// chunks makes [`plan_sliced`] choose the full pass. Where listed chunks
/// span more, a sliced pass still walks a large share of the ops, and
/// locality order costs more than slicing saves: faults detected late
/// share chunks, so early exit comes late. The dense bench universes
/// sample at 0.68–1.0 of the array and run faster on the full pass;
/// single-cell universes of 512 to 4096 cells sample at 0.06–0.5 and
/// run faster sliced, even at exactly one half (DESIGN.md, "Activity
/// slicing").
const SLICE_MAX_SPAN_SHARE: f64 = 0.5;

/// The planned engine of one campaign segment over `faults` on an array
/// of `cells` cells: `true` slices lane chunks assembled in the
/// segment's [`locality_order`], `false` runs the full pass over chunks
/// in list order. The plan samples the span unions of up to
/// [`PLAN_SAMPLES`] evenly spaced lane chunks of the list as given, the
/// chunks the full pass would run, and slices unless their mean covers
/// more than [`SLICE_MAX_SPAN_SHARE`] of the array; the segment is
/// sorted only once it plans sliced. Enumeration is cell-major within
/// each family, so a listed chunk of single-cell faults is already
/// narrow, and locality order, which also groups the families, halves
/// it again. The plan reads the list order: a shuffled single-cell list
/// can sample wide enough to run the full pass, and no caller builds
/// one.
fn plan_sliced(faults: &[FaultKind], cells: usize) -> bool {
    let lanes = LaneRam::<CHUNK_WORDS>::LANES;
    let chunks = faults.len().div_ceil(lanes);
    let samples = chunks.min(PLAN_SAMPLES);
    let mut active = ActiveSet::new();
    let mut union = 0;
    for s in 0..samples {
        let c = s * chunks / samples;
        active.clear();
        faults[c * lanes..((c + 1) * lanes).min(faults.len())]
            .iter()
            .for_each(|f| active.insert_fault(f));
        union += active.cells();
    }
    let mean = union as f64 / samples.max(1) as f64;
    mean <= SLICE_MAX_SPAN_SHARE * cells as f64
}

/// Resolves `active` to the span union, against `index`, of the faults
/// at the positions `batch` of `faults`.
fn fill_active(active: &mut ActiveSet, faults: &[FaultKind], batch: &[u32], index: &ActivityIndex) {
    active.clear();
    for &p in batch {
        active.insert_fault(&faults[p as usize]);
    }
    active.finalize(index);
}

/// The lane side of one compiled campaign run, shared by all of its
/// segments: detection and measurement differ only in the two trials.
struct LaneRunner<'p, FL, FS> {
    /// The compiled program per background.
    programs: &'p [&'p TestProgram],
    /// Their activity indexes, resolved by the first sliced segment (the
    /// programs cache their index, so repeat runs share one build).
    indexes: OnceLock<Vec<Arc<ActivityIndex>>>,
    /// Runs one injected lane batch — given the segment's faults, the
    /// batch's positions in them, the indexes when the segment runs
    /// sliced, and the active-set scratch — and pushes one result per
    /// lane, in lane order (checked).
    lane_trial: FL,
    /// Measures one fault, given its universe index, on a healed scalar
    /// device that already carries it: the degradation oracle.
    scalar_trial: FS,
}

/// Where a campaign's faults come from. A segment of a list borrows its
/// sub-slice; a segment of a lazy universe is decoded when the segment
/// starts, so the campaign holds one segment of faults at a time.
#[derive(Debug, Clone, Copy)]
enum FaultSource<'a> {
    Listed(&'a [FaultKind]),
    Lazy(&'a LazyUniverse),
}

impl<'a> FaultSource<'a> {
    fn len(self) -> usize {
        match self {
            FaultSource::Listed(faults) => faults.len(),
            FaultSource::Lazy(universe) => universe.len(),
        }
    }

    /// The fault at universe index `i`.
    fn get(self, i: usize) -> FaultKind {
        match self {
            FaultSource::Listed(faults) => faults[i].clone(),
            FaultSource::Lazy(universe) => universe.fault(i),
        }
    }

    /// The faults of the universe indices `range`, in order.
    fn segment(self, range: Range<usize>) -> Cow<'a, [FaultKind]> {
        match self {
            FaultSource::Listed(faults) => Cow::Borrowed(&faults[range]),
            FaultSource::Lazy(universe) => Cow::Owned(universe.slice(range.start, range.end)),
        }
    }
}

/// The longest segment of a lazy campaign that has neither a checkpoint
/// nor a progress cadence: it decodes at most this many faults at a time.
const LAZY_SEGMENT: usize = 8192;

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
    /// Workers for a sweep of `trials` trials. Only
    /// [`Parallelism::Auto`] at or above the threshold reads the host's
    /// core count.
    fn workers(self, trials: usize) -> usize {
        let w = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                if trials < AUTO_PARALLEL_THRESHOLD {
                    1
                } else {
                    available_cores()
                }
            }
        };
        w.min(trials.max(1))
    }
}

/// The host's core count, read once per process. `available_parallelism`
/// re-reads the cgroup CPU quota on every call, which costs about 19 µs
/// on a 2-vCPU container, more than a small campaign's fan-out. A quota
/// changed while the process runs is not seen.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
    /// if it can expose one — the hook that selects the **lane-batched**
    /// engine ([`Campaign::detections`] packs 512 fault trials per
    /// interpreter pass when every background resolves to a program).
    /// Closures keep the default `None` and run on the scalar engine, so
    /// a closure over a compiled program is how a caller pins the scalar
    /// engine as an oracle.
    ///
    /// Campaigns call [`FaultRunner::validate`] before they ask for a
    /// program and then run what this returns without checking it again,
    /// so a runner's `validate` must accept every program that
    /// `batch_program` returns for the validated backgrounds.
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
/// geometry, enough pooled ports, and a baked-in background (if the
/// program declares one) equal to every trial background in
/// `backgrounds`.
fn validate_program(
    program: &TestProgram,
    geom: Geometry,
    ports: usize,
    backgrounds: &[u64],
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
    if let Some(baked) = program.background() {
        if let Some(&requested) = backgrounds.iter().find(|&&bg| bg != baked) {
            return Err(CampaignError::BackgroundMismatch {
                program: program.name().to_string(),
                compiled: baked,
                requested,
            });
        }
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
// closure impl above. The two compiled runners implement the trait on
// their reference types (`&TestProgram`, `&ProgramBank`), so campaigns
// borrow the program.

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

    fn batch_program(&self, _background: u64) -> Option<&TestProgram> {
        Some(self)
    }

    fn validate(
        &self,
        geom: Geometry,
        ports: usize,
        backgrounds: &[u64],
    ) -> Result<(), CampaignError> {
        validate_program(self, geom, ports, backgrounds)
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
            validate_program(program, geom, ports, &[bg])?;
        }
        Ok(())
    }
}

/// Runs `count` independent trials against pooled memories and collects
/// each trial's **result value** in trial order — the generic campaign
/// mode that per-fault *measurements* (MISR signatures for fault
/// dictionaries, observed response streams, per-trial statistics) build
/// on. [`Campaign::try_measure`] is the lane-batched form, over a fault
/// list, that dictionary builds use.
///
/// This is the engine's lowest-level primitive (Monte-Carlo campaigns use
/// it directly; [`Campaign`] builds fault-universe sweeps on top). Each
/// worker leases one `Ram` from the process-wide device cache; before
/// every trial the device is healed ([`Ram::eject_faults`]) and
/// zero-reset ([`Ram::reset_to`]), so `trial` always observes a pristine
/// memory and the steady state allocates nothing beyond what `trial`
/// itself allocates. Results land in write-once slots in trial order, so
/// the output is deterministic and independent of the parallelism policy.
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
    let workers = parallelism.workers(count);
    let chunk = chunk_len(count, workers);
    let range = |c: usize| (c * chunk, ((c + 1) * chunk).min(count));
    let results: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    sweep(
        count.div_ceil(chunk),
        workers,
        None,
        (geom, ports),
        range,
        |_| false,
        |c, lease: &mut Lease<Ram>, _: &mut ()| {
            let ram = lease.get();
            let (lo, hi) = range(c);
            for (i, slot) in results.iter().enumerate().take(hi).skip(lo) {
                ram.eject_faults();
                ram.reset_to(0);
                // Chunks never overlap, so each slot is set once.
                let _ = slot.set(trial(i, ram));
            }
            Ok(())
        },
    )
    .1?;
    Ok(filled(results))
}

/// The values of write-once result slots, in index order.
fn filled<T>(slots: Vec<OnceLock<T>>) -> Vec<T> {
    slots.into_iter().map(|slot| slot.into_inner().expect("every index was dispatched")).collect()
}

/// Validates the pooled-device configuration once, upfront, so workers
/// can `expect` their device builds.
fn validate_ports(geom: Geometry, ports: usize) -> Result<(), CampaignError> {
    Ram::with_ports(geom, ports).map(drop).map_err(|e| CampaignError::BadConfiguration {
        reason: format!("cannot pool {ports}-port memories: {e}"),
    })
}

/// A configured fault-simulation campaign: a fault set × a runner × data
/// backgrounds, with a parallelism policy.
///
/// Construction is cheap; nothing runs until [`Campaign::run`],
/// [`Campaign::detections`] or one of the other drivers is called.
#[derive(Debug)]
pub struct Campaign<'a, R> {
    geom: Geometry,
    faults: FaultSource<'a>,
    runner: R,
    backgrounds: Vec<u64>,
    ports: usize,
    parallelism: Parallelism,
    /// The [`Campaign::with_slicing`] override; `None` plans each
    /// segment ([`plan_sliced`]).
    slicing: Option<bool>,
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
/// `[start, end)` whose verdicts just became final, with its faults.
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
    /// The faults of `[start, end)`, keyed by `index - start`: the ones
    /// the segment ran, so a sink over a [`Campaign::lazy`] campaign
    /// reads them without decoding the universe again.
    pub faults: &'s [FaultKind],
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

/// Campaign progress as the resilient driver reports it: the finished
/// records of the evaluated prefix (the whole universe unless stopped
/// early), the stop cause if any, and the degradation counter.
struct Progress<T> {
    records: Vec<T>,
    stopped: Option<StopCause>,
    degraded_batches: usize,
    elapsed: Duration,
}

/// The shared per-run state the segment drivers read and count into.
struct DriveCtx<'t> {
    /// Deadline/cancellation, polled at chunk granularity.
    control: &'t RunControl,
    /// Lane batches degraded to the scalar oracle so far.
    degraded: &'t AtomicUsize,
}

/// One swept segment as the segment loop receives it.
struct SegmentRun<T> {
    /// The schedule's permutation when the segment ran sliced in
    /// locality order, `None` when it ran in fault order.
    order: Option<Vec<u32>>,
    /// Each worker's finished runs, for [`gather`].
    runs: Vec<Runs<T>>,
    /// The sweep's outcome: the stop cause, or the failure.
    outcome: Result<Option<StopCause>, CampaignError>,
}

impl<'a, R: FaultRunner> Campaign<'a, R> {
    /// A campaign over every instance of an enumerated universe.
    pub fn new(universe: &'a FaultUniverse, runner: R) -> Campaign<'a, R> {
        Campaign::over(universe.geometry(), universe.faults(), runner)
            .with_topology(universe.topology().clone())
    }

    /// A campaign over every instance of a lazy universe, with its
    /// geometry and topology. Each segment decodes its faults when it
    /// starts ([`LazyUniverse::slice`]) and drops them when it ends, so
    /// the campaign never holds the universe: without a checkpoint or
    /// progress cadence a segment is at most 8,192 faults. Everything
    /// else — verdicts, reports, streamed segments and the checkpoint
    /// fingerprint — is bit-identical to [`Campaign::new`] over
    /// [`LazyUniverse::materialize`]. One exception to the segment bound:
    /// a campaign that resumes from a checkpoint decodes the whole
    /// restored prefix once, for the leading segment its progress sink
    /// receives.
    pub fn lazy(universe: &'a LazyUniverse, runner: R) -> Campaign<'a, R> {
        Campaign {
            faults: FaultSource::Lazy(universe),
            ..Campaign::over(universe.geometry(), &[], runner)
        }
        .with_topology(universe.topology().clone())
    }

    /// A campaign over an explicit fault list (e.g. the escapes of a
    /// previous campaign, or a topological NPSF set).
    pub fn over(geom: Geometry, faults: &'a [FaultKind], runner: R) -> Campaign<'a, R> {
        Campaign {
            geom,
            faults: FaultSource::Listed(faults),
            runner,
            backgrounds: vec![0],
            ports: 1,
            parallelism: Parallelism::Auto,
            slicing: None,
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

    /// Forces the lane engine of every segment on the batched path — the
    /// one engine override a campaign has; the runner decides scalar
    /// versus lane-batched. `true` slices every lane batch: batches are
    /// assembled in fault-locality order ([`prt_ram::locality_order`]) so
    /// the faults sharing a chunk have tight span unions, and each walks
    /// only the program ops whose address intersects that union — the
    /// cells its faults can actually perturb — splicing precomputed
    /// fault-free reference deltas over the gaps
    /// ([`prt_ram::ActivityIndex`]). `false` runs the full interpreter
    /// pass over batches in the fault list's order.
    ///
    /// Without the override the campaign plans each segment: it samples
    /// the span unions of up to 8 evenly spaced 512-fault chunks of the
    /// segment in list order, slices when their mean covers at most half
    /// the array, and otherwise runs the full pass in list order, where
    /// early exit comes sooner than in locality order. Verdicts,
    /// reports and checkpoints are **bit-identical** under every plan
    /// (the plan is deliberately not fingerprinted), so the override
    /// only pins one engine for measurement or differential testing.
    pub fn with_slicing(mut self, enabled: bool) -> Campaign<'a, R> {
        self.slicing = Some(enabled);
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
    /// completes, `sink` receives the segment's faults and final verdicts
    /// as a [`SegmentProgress`]. Segments arrive in order and tile the
    /// evaluated prefix exactly (see [`SegmentProgress`]), so a sink can
    /// reconstruct the verdict table — or per-class coverage deltas —
    /// incrementally; the terminal report stays bit-identical to an
    /// unhooked run. Composes with [`Campaign::with_checkpoint`]: the
    /// effective segment length is the smaller of the two cadences, and
    /// a [`Campaign::lazy`] campaign decodes one such segment at a time.
    /// `every` is clamped to ≥ 1. The sink runs on the driving thread,
    /// between segments — a slow sink throttles the campaign, not the
    /// verdicts. A segment boundary costs one sink call and little else:
    /// the engine is chosen once per run, and each segment's workers
    /// lease warm devices from the process-wide cache and return them at
    /// its end, so a fine cadence does not rebuild devices.
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
        self.len() == 0
    }

    fn run_fault(&self, fault: FaultKind, ram: &mut Ram) -> bool {
        ram.inject(fault).expect("campaign faults are valid");
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
    /// isolated on its own (pooled) memory — and a compiled runner's
    /// lane-batched verdicts equal those of a closure over the same
    /// program, because the batch engine is bitwise-exact per lane
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
        self.complete(self.try_progress(|_, _| {})?).map(|(verdicts, _)| verdicts)
    }

    /// Measures every fault of the campaign through its compiled program
    /// and collects one record per fault, in fault order — the
    /// measurement terminal beside detection, and the engine under every
    /// fault dictionary. It runs the detection engine: the same segment
    /// loop, per-segment plan (the full pass in list order, or slices in
    /// locality order; [`Campaign::with_slicing`] forces either), device
    /// cache, checkpoints ([`Campaign::with_checkpoint`]) and deadline,
    /// cancellation and chaos sites. Records land by fault
    /// index, so the result is identical under every plan and at any
    /// parallelism and resumes bit-identically from a checkpoint.
    ///
    /// `batch_trial` receives a healed, zero-reset 512-lane device whose
    /// lanes `0..k` carry one batch's faults, plus the plan's slice: the
    /// program's [`ActivityIndex`] and the batch's resolved [`ActiveSet`]
    /// when the segment runs sliced, `None` on the full pass. It must push
    /// exactly one record per injected lane, in lane order (checked); a
    /// trial that ignores the slice and runs the full pass stays exact.
    /// `scalar_trial` receives a fault's index and a pooled [`Ram`] that
    /// already carries the fault; it serves only as the degradation
    /// oracle: a lane batch whose `batch_trial` panicked is retried fault
    /// by fault on it and counted. `fingerprint` names everything that
    /// determines the records; it is computed only when a checkpoint is
    /// armed.
    ///
    /// Returns the records plus the number of **degraded batches**; a
    /// degraded run's records are still exact.
    ///
    /// # Errors
    ///
    /// [`CampaignError::BadConfiguration`] when a progress sink is armed
    /// (measurements stream no verdicts), when the runner is not one
    /// compiled program (a `&TestProgram`, or a `&ProgramBank` over one
    /// background), or when `batch_trial` yields a wrong record count;
    /// otherwise as [`Campaign::try_detections`], with
    /// [`CampaignError::WorkerPanic`] reserved for a degraded retry that
    /// also panicked.
    pub fn try_measure<T, FB, FS>(
        &self,
        fingerprint: impl FnOnce() -> u64,
        batch_trial: FB,
        scalar_trial: FS,
    ) -> Result<(Vec<T>, usize), CampaignError>
    where
        T: CheckpointRecord + Send,
        FB: Fn(&mut LaneRam<8>, Option<(&ActivityIndex, &ActiveSet)>, &mut Vec<T>) + Sync,
        FS: Fn(usize, &mut Ram) -> T + Sync,
    {
        let refuse = |reason: &str| CampaignError::BadConfiguration { reason: reason.to_string() };
        if self.progress.is_some() {
            return Err(refuse("a measurement campaign streams no verdicts: drop with_progress"));
        }
        self.runner.validate(self.geom, self.ports, &self.backgrounds)?;
        validate_ports(self.geom, self.ports)?;
        let programs = match self.batch_plan() {
            Some(programs) if programs.len() == 1 => programs,
            _ => return Err(refuse("a measurement campaign runs one compiled program")),
        };
        let runner = LaneRunner {
            programs: &programs,
            indexes: OnceLock::new(),
            lane_trial: |ram: &mut LaneRam<CHUNK_WORDS>,
                         faults: &[FaultKind],
                         batch: &[u32],
                         slice: Option<&[Arc<ActivityIndex>]>,
                         active: &mut ActiveSet,
                         out: &mut Vec<T>| {
                let slice = match slice {
                    Some(indexes) => {
                        fill_active(active, faults, batch, &indexes[0]);
                        Some((&*indexes[0], &*active))
                    }
                    None => None,
                };
                batch_trial(ram, slice, out);
            },
            scalar_trial,
        };
        let progress = self.drive_segments(
            fingerprint,
            |_, _, _| {},
            |start, faults, workers, ctx| self.drive_batched(start, faults, workers, &runner, ctx),
        )?;
        self.complete(progress)
    }

    /// The records and degraded-batch count of a run whose callers cannot
    /// take partial results: a stop before the end becomes its typed error.
    fn complete<T>(&self, progress: Progress<T>) -> Result<(Vec<T>, usize), CampaignError> {
        match progress.stopped {
            None => Ok((progress.records, progress.degraded_batches)),
            Some(cause) => Err(self.stop_error(cause, progress.records.len(), progress.elapsed)),
        }
    }

    /// The typed error a driver that cannot return partial results
    /// reports when `cause` stopped it after `completed` trials (the
    /// contiguous evaluated prefix).
    fn stop_error(&self, cause: StopCause, completed: usize, elapsed: Duration) -> CampaignError {
        let total = self.len();
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

    /// The resilient driver every detection entry point sits on:
    /// validates the configuration upfront, then picks the engine once
    /// for the whole campaign from the runner — scalar for a closure,
    /// lane-batched for a compiled program — and runs every segment of
    /// it on that engine ([`Campaign::drive_segments`]). A lane-batched
    /// segment plans full pass or sliced on its own
    /// ([`Campaign::drive_batched`]). `observe` receives each finished
    /// segment's faults and verdicts, in order, before the progress sink.
    fn try_progress(
        &self,
        mut observe: impl FnMut(&[FaultKind], &[bool]),
    ) -> Result<Progress<bool>, CampaignError> {
        self.runner.validate(self.geom, self.ports, &self.backgrounds)?;
        validate_ports(self.geom, self.ports)?;
        let fingerprint = || self.fingerprint();
        let emit = |start: usize, faults: &[FaultKind], verdicts: &[bool]| {
            observe(faults, verdicts);
            if let Some(hook) = &self.progress {
                let end = start + verdicts.len();
                (hook.sink)(SegmentProgress { start, end, faults, verdicts });
            }
        };
        let Some(programs) = self.batch_plan() else {
            return self.drive_segments(fingerprint, emit, |start, faults, workers, ctx| {
                self.drive_scalar(start, faults, workers, ctx)
            });
        };
        let runner = LaneRunner {
            programs: &programs,
            indexes: OnceLock::new(),
            lane_trial: |ram: &mut LaneRam<CHUNK_WORDS>,
                         faults: &[FaultKind],
                         batch: &[u32],
                         slice: Option<&[Arc<ActivityIndex>]>,
                         active: &mut ActiveSet,
                         out: &mut Vec<bool>| {
                let detected = self.detect_lanes(ram, &programs, slice, faults, batch, active);
                out.extend((0..batch.len()).map(|lane| detected.get(lane)));
            },
            scalar_trial: |_, ram: &mut Ram| self.detect_injected(ram),
        };
        self.drive_segments(fingerprint, emit, |start, faults, workers, ctx| {
            self.drive_batched(start, faults, workers, &runner, ctx)
        })
    }

    /// The segment loop under both terminals: resumes from a checkpoint
    /// when one is armed and compatible (its `fingerprint` is computed
    /// only then), then drives the universe in **segments** (the finer
    /// of the checkpoint and progress cadences per segment; when neither
    /// is armed, the whole remainder of a list, or [`LAZY_SEGMENT`]
    /// faults of a lazy universe). Each segment's faults are fetched once
    /// ([`FaultSource::segment`]) and handed to `segment`, which returns
    /// its [`SegmentRun`]. After each segment it [`gather`]s the runs its
    /// workers finished into the one table of finished records, up to the
    /// segment's contiguous finished prefix, checkpoints that table and
    /// hands the new records, with their faults, to `emit` — both straight
    /// from the table, no copy. Every segment's workers lease their
    /// devices from the process-wide cache and return them at its end, so
    /// a segment boundary costs a progress call and a cache round trip,
    /// not fresh devices. Worker panics poison only their chunk; deadline
    /// and cancellation stop the fan-out at chunk boundaries; a panicking
    /// lane batch degrades to the scalar oracle.
    fn drive_segments<T: CheckpointRecord + Send>(
        &self,
        fingerprint: impl FnOnce() -> u64,
        mut emit: impl FnMut(usize, &[FaultKind], &[T]),
        segment: impl Fn(usize, &[FaultKind], usize, &DriveCtx<'_>) -> SegmentRun<T>,
    ) -> Result<Progress<T>, CampaignError> {
        let total = self.faults.len();
        let spool = self.checkpoint.as_ref().map(|(path, _)| (path, fingerprint()));
        let mut records: Vec<T> = match &spool {
            Some((path, fp)) => checkpoint::load_records(path, *fp, total)?.unwrap_or_default(),
            None => Vec::new(),
        };
        // A campaign resuming from a checkpoint reports the whole restored
        // prefix as one leading segment, so sinks always see segments that
        // tile `[0, evaluated)` — no silent gap.
        if !records.is_empty() {
            emit(0, &self.faults.segment(0..records.len()), &records);
        }
        let degraded = AtomicUsize::new(0);
        let control = RunControl::new(self.deadline, self.cancel.clone());
        let ctx = DriveCtx { control: &control, degraded: &degraded };
        let mut stopped = None;
        // Segment length: the finer of the two cadences; with neither, the
        // whole remainder of a list, or a bounded slice of a lazy universe.
        let cadences = [
            self.checkpoint.as_ref().map(|(_, every)| *every),
            self.progress.as_ref().map(|h| h.every),
        ];
        let step = cadences.into_iter().flatten().min().unwrap_or(match self.faults {
            FaultSource::Listed(_) => usize::MAX,
            FaultSource::Lazy(_) => LAZY_SEGMENT,
        });
        while records.len() < total {
            let start = records.len();
            let end = start.saturating_add(step).min(total);
            let faults = self.faults.segment(start..end);
            let SegmentRun { order, runs, outcome } =
                segment(start, &faults, self.parallelism.workers(end - start), &ctx);
            gather(runs, order.as_deref(), &mut records);
            if let Some((path, fp)) = &spool {
                checkpoint::save_records(path, *fp, total, &records)?;
            }
            if records.len() > start {
                emit(start, &faults[..records.len() - start], &records[start..]);
            }
            // A failed segment surfaces only now, after its completed
            // prefix was checkpointed and streamed.
            if let Some(cause) = outcome? {
                stopped = Some(cause);
                break;
            }
        }
        Ok(Progress {
            records,
            stopped,
            degraded_batches: degraded.into_inner(),
            elapsed: control.elapsed(),
        })
    }

    /// Fingerprint of everything that determines this campaign's verdict
    /// table: geometry, ports, backgrounds, the fault universe and the
    /// compiled program per background. The **schedule** is fingerprinted
    /// only by its discipline name — verdict slots are keyed by fault
    /// index, so thread count, chunking, lane packing and the segment
    /// plan (sliced or full pass) never change the table, which is why
    /// none of them is hashed here: a checkpoint taken by a full-pass run
    /// resumes correctly under slicing and vice versa.
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
        fp.push_u64(self.len() as u64);
        for i in 0..self.len() {
            fp.push_debug(&self.faults.get(i));
        }
        for &bg in &self.backgrounds {
            match self.runner.batch_program(bg) {
                Some(program) => fp.push_debug(program),
                None => fp.push_str("interpreted"),
            }
        }
        fp.finish()
    }

    /// Scalar segment of `faults`, the universe's from index `start`:
    /// chunks of trials on `workers` leased [`Ram`]s, run by the shared
    /// scheduler ([`sweep`]) with the control polled before every chunk.
    fn drive_scalar(
        &self,
        start: usize,
        faults: &[FaultKind],
        workers: usize,
        ctx: &DriveCtx<'_>,
    ) -> SegmentRun<bool> {
        let (count, end) = (faults.len(), start + faults.len());
        let chunk = chunk_len(count, workers);
        let range = |c: usize| (start + c * chunk, (start + (c + 1) * chunk).min(end));
        let (runs, outcome) = sweep(
            count.div_ceil(chunk),
            workers,
            Some(ctx.control),
            (self.geom, self.ports),
            range,
            |_| false,
            |c, lease: &mut Lease<Ram>, runs: &mut Runs<bool>| {
                let ram = lease.get();
                let (lo, hi) = range(c);
                // The run opens first, so a trial panic keeps the chunk's
                // finished prefix.
                runs.push((lo - start, Vec::with_capacity(hi - lo)));
                let (_, run) = runs.last_mut().expect("the chunk's run");
                for i in lo..hi {
                    self.chaos_trial(i);
                    ram.eject_faults();
                    ram.reset_to(0);
                    run.push(self.run_fault(faults[i - start].clone(), ram));
                }
                Ok(())
            },
        );
        SegmentRun { order: None, runs, outcome }
    }

    /// Lane-batched segment of `faults`, the universe's from index
    /// `start`, on `workers` leased lane devices, for detection and
    /// measurement alike: faults are packed 512 per
    /// [`LaneRam`] chunk and each batch runs the runner's lane trial, so
    /// threads × lanes trials are in flight while records stay keyed by
    /// fault index — bit-identical at any thread count. The segment's
    /// plan ([`plan_sliced`], unless [`Campaign::with_slicing`] forces
    /// one) either runs the full pass over batches in list order, or
    /// assembles batches in fault-locality order and hands the lane trial
    /// the activity indexes, so each pass walks only the ops intersecting
    /// the batch's span union — still bit-identical. A batch whose trial
    /// panics degrades to the scalar oracle ([`Campaign::degrade`]) and
    /// its device is dropped, not returned to the cache; one that yields
    /// a wrong result count is a contract error. Carries the locality
    /// permutation when the segment ran sliced.
    fn drive_batched<T: Send, FL, FS>(
        &self,
        start: usize,
        faults: &[FaultKind],
        workers: usize,
        runner: &LaneRunner<'_, FL, FS>,
        ctx: &DriveCtx<'_>,
    ) -> SegmentRun<T>
    where
        FL: Fn(
                &mut LaneRam<CHUNK_WORDS>,
                &[FaultKind],
                &[u32],
                Option<&[Arc<ActivityIndex>]>,
                &mut ActiveSet,
                &mut Vec<T>,
            ) + Sync,
        FS: Fn(usize, &mut Ram) -> T + Sync,
    {
        let lanes = LaneRam::<CHUNK_WORDS>::LANES;
        let count = faults.len();
        // Records stay keyed by fault index, so neither the plan nor the
        // locality permutation ever reaches reports or checkpoints.
        let sliced = self.slicing.unwrap_or_else(|| plan_sliced(faults, self.geom.cells()));
        let slice = sliced.then(|| {
            let programs = runner.programs.iter();
            runner.indexes.get_or_init(|| programs.map(|p| p.activity_index()).collect()).as_slice()
        });
        let order: Vec<u32> = if sliced {
            // A counting sort over cell keys, linear in the segment.
            locality_order(faults, self.geom.cells())
        } else {
            (0..count as u32).collect()
        };
        let range = |b: usize| (b * lanes, ((b + 1) * lanes).min(count));
        let (runs, outcome) = sweep(
            count.div_ceil(lanes),
            workers,
            Some(ctx.control),
            (self.geom, self.ports),
            |b| {
                let (lo, hi) = range(b);
                (start + lo, start + hi)
            },
            |_| false,
            |b, lease: &mut Lease<LaneState>, runs: &mut Runs<T>| {
                let (lo, hi) = range(b);
                let batch = &order[lo..hi];
                runs.push((lo, Vec::with_capacity(batch.len())));
                let (_, out) = runs.last_mut().expect("the batch's run");
                let (ram, active) = lease.get();
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    ram.eject_faults();
                    ram.reset_to(0);
                    for (lane, &p) in batch.iter().enumerate() {
                        ram.inject(faults[p as usize].clone(), lane)
                            .expect("campaign faults are valid");
                    }
                    // Chaos keys batches by schedule position (identical to
                    // the first fault index when assembly is unsorted), so
                    // kill targets stay width-based under locality sorting.
                    self.chaos_batch(start + lo);
                    (runner.lane_trial)(ram, faults, batch, slice, active, out);
                }));
                match attempt {
                    Ok(()) if out.len() == batch.len() => Ok(()),
                    Ok(()) => {
                        // A broken batch leaves no records behind.
                        let got = std::mem::take(out).len();
                        Err(CampaignError::BadConfiguration {
                            reason: format!(
                                "batch trial must yield one result per injected lane — got \
                                 {got} results for {} lanes",
                                batch.len()
                            ),
                        })
                    }
                    Err(_) => {
                        lease.poison();
                        out.clear();
                        self.degrade(start, faults, batch, &runner.scalar_trial, ctx.degraded, out)
                    }
                }
            },
        );
        SegmentRun { order: sliced.then_some(order), runs, outcome }
    }

    /// Graceful degradation of a lane batch whose pass panicked: each of
    /// its faults (positions `batch` in the segment `faults`, the
    /// universe's from index `start`) is retried on `scalar_trial`, which
    /// measures the same thing fault by fault, into `out` in batch order,
    /// and the batch is counted. Only a retry that also panics fails, as a
    /// [`CampaignError::WorkerPanic`] over that one fault.
    fn degrade<T>(
        &self,
        start: usize,
        faults: &[FaultKind],
        batch: &[u32],
        scalar_trial: &impl Fn(usize, &mut Ram) -> T,
        degraded: &AtomicUsize,
        out: &mut Vec<T>,
    ) -> Result<(), CampaignError> {
        degraded.fetch_add(1, Ordering::Relaxed);
        let mut scalar = Ram::build(self.geom, self.ports);
        for &p in batch {
            let i = start + p as usize;
            scalar.eject_faults();
            scalar.reset_to(0);
            let retry = catch_unwind(AssertUnwindSafe(|| {
                scalar.inject(faults[p as usize].clone()).expect("campaign faults are valid");
                scalar_trial(i, &mut scalar)
            }));
            match retry {
                Ok(v) => out.push(v),
                Err(payload) => return Err(worker_panic((i, i + 1), payload)),
            }
        }
        Ok(())
    }

    /// One lane batch's verdicts: every background program in turn on
    /// the injected `ram`, stopping once every lane is flagged (the
    /// per-fault early exit across backgrounds, lane style).
    fn detect_lanes(
        &self,
        ram: &mut LaneRam<CHUNK_WORDS>,
        programs: &[&TestProgram],
        slice: Option<&[Arc<ActivityIndex>]>,
        faults: &[FaultKind],
        batch: &[u32],
        active: &mut ActiveSet,
    ) -> LaneChunk<CHUNK_WORDS> {
        let full = ram.active_lanes();
        let mut detected = LaneChunk::ZERO;
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
                    fill_active(active, faults, batch, &indexes[bi]);
                    program.try_detect_batch_sliced(ram, &indexes[bi], active)
                }
                None => program.try_detect_batch(ram),
            }
            .expect("batch configuration is validated upfront");
        }
        detected
    }

    /// The compiled programs (one per background) to batch with, when
    /// every background resolves to a program — always for the compiled
    /// runners, never for a closure, which therefore runs scalar. Every
    /// program batches, multi-port `CycleN` schedules included. Callers
    /// validate the runner first ([`FaultRunner::validate`]), so every
    /// program here fits the campaign's geometry, ports and backgrounds.
    fn batch_plan(&self) -> Option<Vec<&TestProgram>> {
        self.backgrounds.iter().map(|&bg| self.runner.batch_program(bg)).collect()
    }

    /// The seed's original inner loop — a fresh [`Ram`] allocated per
    /// (fault, background) trial, strictly sequential. Kept as the
    /// differential-testing oracle the pooled engine is checked against;
    /// produces bit-identical verdicts.
    pub fn detections_reference(&self) -> Vec<bool> {
        (0..self.len())
            .map(|i| {
                for &bg in &self.backgrounds {
                    let mut ram = Ram::with_ports(self.geom, self.ports).expect("valid port count");
                    ram.inject(self.faults.get(i)).expect("campaign faults are valid");
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
    /// As [`Campaign::detections`]: the configuration is validated
    /// upfront ([`FaultRunner::validate`] and the port count), so a
    /// mismatch panics with its typed error's message before any trial
    /// runs; a trial panic resumes with its original payload at any
    /// thread count, and a deadline or cancellation that stops the scan
    /// before the answer is known raises
    /// [`CampaignError::DeadlineExceeded`] / [`CampaignError::Cancelled`].
    pub fn first_escape(&self) -> Option<usize> {
        self.runner
            .validate(self.geom, self.ports, &self.backgrounds)
            .and_then(|()| validate_ports(self.geom, self.ports))
            .unwrap_or_else(|e| e.raise());
        let count = self.len();
        let workers = self.parallelism.workers(count);
        let chunk = chunk_len(count, workers);
        let range = |c: usize| (c * chunk, ((c + 1) * chunk).min(count));
        let best = AtomicUsize::new(usize::MAX);
        let done: Vec<AtomicBool> = (0..count).map(|_| AtomicBool::new(false)).collect();
        let control = RunControl::new(self.deadline, self.cancel.clone());
        let (_, outcome) = sweep(
            count.div_ceil(chunk),
            workers,
            Some(&control),
            (self.geom, self.ports),
            range,
            // Chunks past a known escape cannot improve the minimum.
            |c| c * chunk >= best.load(Ordering::Relaxed),
            |c, lease: &mut Lease<Ram>, _: &mut ()| {
                let ram = lease.get();
                let (lo, hi) = range(c);
                for (i, done) in done.iter().enumerate().take(hi).skip(lo) {
                    // Indices below a known escape are all still visited,
                    // so the final minimum is the true first escape.
                    if i >= best.load(Ordering::Relaxed) {
                        break;
                    }
                    ram.eject_faults();
                    ram.reset_to(0);
                    let detected = self.run_fault(self.faults.get(i), ram);
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
        let mut tally = ClassTally::new();
        let progress = self.try_progress(|faults, verdicts| {
            for (fault, &detected) in faults.iter().zip(verdicts) {
                tally.record(fault.mnemonic(), detected);
            }
        })?;
        let mut report = tally.into_report(self.name.clone());
        report.set_degraded_batches(progress.degraded_batches);
        if let Some(cause) = progress.stopped {
            report.set_partial(PartialCoverage {
                evaluated: progress.records.len(),
                total: self.len(),
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
    #[should_panic(expected = "(campaign Geometry")]
    fn first_escape_validates_the_runner_upfront() {
        // A wrong-geometry program is refused with the typed
        // `GeometryMismatch` before the scan starts, not by the
        // per-trial assert inside a worker.
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        let prog = toy_program(Geometry::bom(8));
        let _ = Campaign::new(&u, &prog).first_escape();
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

    /// The toy program's verdicts as a measurement batch trial: the
    /// sliced pass when the plan hands it a slice, else the full pass.
    fn detect_trial(
        prog: &TestProgram,
    ) -> impl Fn(&mut LaneRam<8>, Option<(&ActivityIndex, &ActiveSet)>, &mut Vec<bool>) + Sync + '_
    {
        move |lanes, slice, out| {
            let verdicts = match slice {
                Some((index, active)) => prog.try_detect_batch_sliced(lanes, index, active),
                None => prog.try_detect_batch(lanes),
            }
            .expect("valid batch");
            out.extend((0..lanes.active_lanes().count_ones() as usize).map(|l| verdicts.get(l)));
        }
    }

    #[test]
    fn measure_matches_scalar_map() {
        // The measurement terminal must produce, fault for fault, the same
        // values as an all-scalar map_trials sweep, for any thread count
        // and under the planned and both forced engines — over the full
        // universe (every family batches).
        let u = universe();
        let prog = toy_program(u.geometry());
        let scalar: Vec<bool> =
            map_trials(u.geometry(), 1, u.len(), Parallelism::Sequential, |i, ram| {
                ram.inject(u.faults()[i].clone()).expect("valid");
                prog.detect(ram)
            });
        for threads in [1usize, 3, 7] {
            for slicing in [None, Some(true), Some(false)] {
                let mut c =
                    Campaign::new(&u, &prog).with_parallelism(Parallelism::Threads(threads));
                if let Some(enabled) = slicing {
                    c = c.with_slicing(enabled);
                }
                let (measured, degraded) = c
                    .try_measure(|| 0, detect_trial(&prog), |_, ram| prog.detect(ram))
                    .expect("measurement sweep");
                assert_eq!(scalar, measured, "threads={threads}, slicing {slicing:?}");
                assert_eq!(degraded, 0);
            }
        }
    }

    #[test]
    fn measure_rejects_wrong_result_count() {
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        let prog = toy_program(u.geometry());
        let err = Campaign::new(&u, &prog)
            .with_parallelism(Parallelism::Sequential)
            .try_measure(
                || 0,
                |_lanes: &mut LaneRam<8>, _slice, out: &mut Vec<bool>| out.push(true), // too few
                |_, _| true,
            )
            .unwrap_err();
        assert!(
            matches!(&err, CampaignError::BadConfiguration { reason }
                if reason.contains("one result per injected lane")),
            "expected BadConfiguration, got {err:?}"
        );
    }

    #[test]
    fn measure_refuses_what_it_cannot_honour() {
        // A progress sink would be silently dropped and a closure has no
        // program to measure through: both are refused upfront, as is a
        // bank over several backgrounds (one record per fault needs one
        // program).
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        let prog = toy_program(u.geometry());
        let bank =
            ProgramBank::new([(0u64, toy_program(u.geometry())), (1, toy_program(u.geometry()))]);
        let refused = |result: Result<(Vec<bool>, usize), CampaignError>| {
            assert!(matches!(result, Err(CampaignError::BadConfiguration { .. })), "{result:?}");
        };
        refused(Campaign::new(&u, &prog).with_progress(4, |_| {}).try_measure(
            || 0,
            detect_trial(&prog),
            |_, ram| prog.detect(ram),
        ));
        refused(Campaign::new(&u, toy_runner).try_measure(
            || 0,
            detect_trial(&prog),
            |_, ram| prog.detect(ram),
        ));
        refused(Campaign::new(&u, &bank).with_backgrounds(&[0, 1]).try_measure(
            || 0,
            detect_trial(&prog),
            |_, ram| prog.detect(ram),
        ));
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

    /// A closure over `runner`: the same program or bank on the pooled
    /// scalar engine, the oracle the lane-batched campaigns match.
    fn scalar_runner<R: FaultRunner + Copy>(
        runner: R,
    ) -> impl Fn(&mut Ram, u64) -> bool + Sync + Copy {
        move |ram, bg| runner.detect(ram, bg)
    }

    #[test]
    fn lane_batched_campaign_matches_scalar_engine() {
        // The full() universe spans every fault family, AF/SOF/RDF
        // included. Verdicts must be identical to the scalar engine for
        // any thread count.
        let u = universe();
        let prog = toy_program(u.geometry());
        let scalar = Campaign::new(&u, scalar_runner(&prog))
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
        let b = Campaign::new(&u, scalar_runner(&prog)).with_name("toy").run();
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
        let scalar = Campaign::new(&u, scalar_runner(&bank)).with_backgrounds(&bgs).detections();
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
        for sliced in [true, false] {
            let forced = Campaign::over(geom, &faults, &prog).with_ports(2).with_slicing(sliced);
            assert_eq!(forced.detections(), vec![true, false], "forced sliced {sliced}");
        }
        let scalar = Campaign::over(geom, &faults, scalar_runner(&prog)).with_ports(2);
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
    fn gather_keeps_the_contiguous_finished_prefix() {
        // Runs arrive from any worker in any order. In fault order they
        // extend the table up to the first gap, and a partial run (a
        // chunk that died mid-way) ends the prefix; a permuted segment is
        // scattered back to fault order first.
        let gathered = |runs: [Runs<u32>; 2], order: Option<&[u32]>| {
            let mut records = vec![7];
            gather(runs.into(), order, &mut records);
            records
        };
        let gap =
            [vec![(4, vec![14, 15]), (0, vec![10, 11])], vec![(2, vec![12, 13]), (8, vec![18])]];
        assert_eq!(gathered(gap, None), [7, 10, 11, 12, 13, 14, 15]);
        let partial = [vec![(0, vec![10, 11]), (4, vec![14, 15])], vec![(2, vec![12])]];
        assert_eq!(gathered(partial, None), [7, 10, 11, 12]);
        // Positions 0..4 hold the segment's faults 3, 0, 2, 1; fault 1's
        // record is missing.
        let order = [3, 0, 2, 1];
        let permuted = [vec![(2, vec![13])], vec![(0, vec![14, 11])]];
        assert_eq!(gathered(permuted, Some(&order)), [7, 11]);
        let whole = [vec![(2, vec![13, 12])], vec![(0, vec![14, 11])]];
        assert_eq!(gathered(whole, Some(&order)), [7, 11, 12, 13, 14]);
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
        // Every fault lane-batches, so schedule position 0 anchors the
        // first batch, in list order (the planned default here) and in
        // the locality order the forced sliced engine assembles.
        for sliced in [false, true] {
            let plan = Arc::new(chaos::ChaosPlan::new().panic_on_batch(0));
            let mut c = Campaign::new(&u, &prog).with_name("toy").with_chaos(plan);
            if sliced {
                c = c.with_slicing(true);
            }
            let degraded = c.run();
            assert!(degraded.degraded_batches() >= 1, "batch kill must be counted ({sliced})");
            assert!(degraded.partial().is_none(), "degradation is not a partial run");
            assert_eq!(clean.rows(), degraded.rows(), "degraded verdicts must stay exact");
        }
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
    fn assert_streams_like_unhooked<R: FaultRunner + Copy>(
        geom: Geometry,
        faults: &[FaultKind],
        runner: R,
        cadence: usize,
        configure: &dyn for<'c> Fn(Campaign<'c, R>) -> Campaign<'c, R>,
    ) {
        let unhooked = configure(Campaign::over(geom, faults, runner));
        let (oracle, plain) = (unhooked.detections(), unhooked.run());
        let seen: Mutex<Vec<(usize, usize, Vec<bool>)>> = Mutex::new(Vec::new());
        let report = configure(Campaign::over(geom, faults, runner))
            .with_progress(cadence, |seg: SegmentProgress<'_>| {
                seen.lock().unwrap().push((seg.start, seg.end, seg.verdicts.to_vec()));
            })
            .run();
        let case = format!(
            "batched {}, slicing {:?}, {:?}, cadence {cadence}",
            unhooked.batch_plan().is_some(),
            unhooked.slicing,
            unhooked.parallelism
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
        assert_streams_like_unhooked(u.geometry(), u.faults(), &prog, 7, &|c| c);
        assert_streams_like_unhooked(u.geometry(), u.faults(), scalar_runner(&prog), 7, &|c| c);
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
                assert_streams_like_unhooked(geom, &faults, scalar_runner(&march), cadence, &|c| {
                    c.with_parallelism(parallelism)
                });
                for slicing in [Some(true), Some(false), None] {
                    assert_streams_like_unhooked(geom, &faults, &march, cadence, &|c| {
                        let c = c.with_parallelism(parallelism);
                        match slicing {
                            Some(enabled) => c.with_slicing(enabled),
                            None => c,
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn segments_plan_full_pass_on_dense_and_slices_sparse_universes() {
        let plans = |faults: &[FaultKind], cells: usize, seg: usize| -> Vec<bool> {
            faults.chunks(seg).map(|s| plan_sliced(s, cells)).collect()
        };
        // The dense universes: March C- on BOM-32, PRT standard3 on BOM-24,
        // the March C- bank on WOM 12×4 (its radius-3 coupling universe)
        // and the service's small BOM-16 job in its 512-fault segments.
        let wom = UniverseSpec {
            coupling_radius: Some(3),
            intra_word: true,
            ..UniverseSpec::paper_claim()
        };
        let dense = [
            (FaultUniverse::enumerate(Geometry::bom(32), &UniverseSpec::paper_claim()), usize::MAX),
            (FaultUniverse::enumerate(Geometry::bom(24), &UniverseSpec::paper_claim()), usize::MAX),
            (FaultUniverse::enumerate(Geometry::wom(12, 4).unwrap(), &wom), usize::MAX),
            (FaultUniverse::enumerate(Geometry::bom(16), &UniverseSpec::paper_claim()), 512),
        ];
        for (u, seg) in &dense {
            let plan = plans(u.faults(), u.geometry().cells(), *seg);
            assert!(!plan.contains(&true), "{:?} in {seg}", u.geometry());
        }
        // Single-cell universes, whole and in 512-fault segments, slice:
        // BOM-512 samples at exactly half the array, BOM-1024 at a
        // quarter and the seeded BOM-4096 at a sixteenth.
        let sparse = [
            FaultUniverse::enumerate(Geometry::bom(512), &UniverseSpec::single_cell()),
            FaultUniverse::enumerate(Geometry::bom(1024), &UniverseSpec::single_cell()),
            prt_ram::LazyUniverse::new_with(
                Geometry::bom(4096),
                UniverseSpec::single_cell(),
                Topology::generate(4096, 7),
            )
            .materialize(),
        ];
        for u in &sparse {
            for seg in [usize::MAX, 512] {
                let plan = plans(u.faults(), u.geometry().cells(), seg);
                assert!(!plan.contains(&false), "{:?} in {seg}", u.geometry());
            }
        }
        // The plan reads the list order. A shuffle keeps every universe
        // on its plan but BOM-512, whose shuffled chunks span 0.69 of the
        // array and so run the full pass.
        let mut rng = prt_ram::SplitMix64::new(11);
        for u in dense.iter().map(|(u, _)| u).chain(&sparse) {
            let mut shuffled = u.faults().to_vec();
            rng.shuffle(&mut shuffled);
            let cells = u.geometry().cells();
            let want = plan_sliced(u.faults(), cells) && cells != 512;
            assert_eq!(plan_sliced(&shuffled, cells), want, "{:?}", u.geometry());
        }
        assert!(plan_sliced(&[], 16));
        assert!(plan_sliced(&[FaultKind::StuckAt { cell: 3, bit: 0, value: 1 }], 16));
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
