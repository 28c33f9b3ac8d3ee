//! `campaign_dense` and `campaign_sparse`: repeated default
//! `Campaign::try_run` calls, each checked against a full-pass oracle.
//!
//! The timed campaigns write no checkpoint: on a shared disk the saves'
//! latency swings the run by half. `campaign_sparse` runs its
//! checkpointed campaigns in the traced replay, where they feed the
//! checkpoint layer metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use prt_core::PrtScheme;
use prt_gf::Field;
use prt_march::{coverage, library, Executor};
use prt_ram::{
    FaultUniverse, Geometry, LazyUniverse, SplitMix64, TestProgram, Topology, UniverseSpec,
};
use prt_sim::{Campaign, CampaignError, CoverageReport, FaultRunner, ProgramBank, SegmentProgress};

use crate::replay::{self, Case};
use crate::trace::{Metric, Tracer};
use crate::{Op, Phase, Workload};

/// Checkpoint and progress cadence of the checkpointed replay, in trials.
const SEGMENT: usize = 512;

/// Cells of the `campaign_sparse` array (4 single-cell faults per cell).
/// `FaultUniverse::enumerate_with` walks all n² cell pairs whatever the
/// spec, which costs 4.3 GB at 16,384 cells and 268 MB at 4,096, where
/// its page faults swing set-up time by 2×. Set-up therefore decodes the
/// same universe through `LazyUniverse`; the traced replay still times
/// `enumerate_with`.
const SPARSE_CELLS: usize = 4096;

/// How a case's programs are compiled.
#[derive(Clone)]
enum Kind {
    March,
    MarchBank(Vec<u64>),
    Prt,
}

enum Runner {
    Program(TestProgram),
    Bank(ProgramBank, Vec<u64>),
}

impl Runner {
    fn programs(&self) -> Vec<&TestProgram> {
        match self {
            Runner::Program(p) => vec![p],
            Runner::Bank(bank, bgs) => bgs
                .iter()
                .map(|&bg| bank.program(bg).expect("one program per background"))
                .collect(),
        }
    }
}

fn compile(kind: &Kind, geom: Geometry) -> Runner {
    let ex = Executor::new().stop_at_first_mismatch();
    match kind {
        Kind::March => Runner::Program(ex.compile(&library::march_c_minus(), geom)),
        Kind::MarchBank(bgs) => Runner::Bank(
            coverage::compile_bank(&library::march_c_minus(), geom, &ex, bgs),
            bgs.clone(),
        ),
        Kind::Prt => {
            let field = Field::new(1, 0b11).expect("GF(2)");
            let scheme = PrtScheme::standard3(field).expect("standard3 over GF(2)");
            Runner::Program(scheme.compile(geom).expect("standard3 compiles on a BOM"))
        }
    }
}

/// What a campaign's progress sink saw.
struct Sink {
    verdicts: Mutex<Vec<bool>>,
    first_segment: AtomicUsize,
    saves: AtomicU64,
    bytes: AtomicU64,
}

/// One universe a workload runs campaigns over, with its oracle.
struct CaseData {
    geom: Geometry,
    spec: UniverseSpec,
    topology: Option<Topology>,
    kind: Kind,
    universe: FaultUniverse,
    runner: Runner,
    oracle: CoverageReport,
    oracle_verdicts: Vec<bool>,
}

fn enumerate(geom: Geometry, spec: &UniverseSpec, topology: &Option<Topology>) -> FaultUniverse {
    match topology {
        Some(t) => FaultUniverse::enumerate_with(geom, spec, t.clone()),
        None => FaultUniverse::enumerate(geom, spec),
    }
}

/// Drives one campaign with a progress sink (and a checkpoint when
/// `checkpoint` is given); `full_pass` pins the oracle engine.
fn drive(
    case: &CaseData,
    checkpoint: Option<&Path>,
    full_pass: bool,
) -> (Result<CoverageReport, CampaignError>, Sink) {
    let sink = Sink {
        verdicts: Mutex::new(Vec::with_capacity(case.universe.len())),
        first_segment: AtomicUsize::new(usize::MAX),
        saves: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    };
    let every = if checkpoint.is_some() { SEGMENT } else { case.universe.len() };
    let hook = |seg: SegmentProgress<'_>| {
        let mut verdicts = sink.verdicts.lock().expect("sink lock");
        if verdicts.is_empty() {
            sink.first_segment.store(seg.end - seg.start, Ordering::Relaxed);
        }
        verdicts.extend_from_slice(seg.verdicts);
        // The checkpoint is saved before the sink runs, so its size here
        // is what this segment's save wrote.
        if let Some(path) = checkpoint {
            if let Ok(meta) = std::fs::metadata(path) {
                sink.saves.fetch_add(1, Ordering::Relaxed);
                sink.bytes.fetch_add(meta.len(), Ordering::Relaxed);
            }
        }
    };
    fn run<'a, R: FaultRunner>(
        c: Campaign<'a, R>,
        every: usize,
        hook: impl Fn(SegmentProgress<'_>) + Send + Sync + 'a,
        checkpoint: Option<&Path>,
        full_pass: bool,
    ) -> Result<CoverageReport, CampaignError> {
        let mut c = c.with_progress(every, hook);
        if let Some(path) = checkpoint {
            c = c.with_checkpoint(path, SEGMENT);
        }
        if full_pass {
            c = c.with_slicing(false);
        }
        c.try_run()
    }
    let report = match &case.runner {
        Runner::Program(p) => {
            run(Campaign::new(&case.universe, p), every, hook, checkpoint, full_pass)
        }
        Runner::Bank(bank, bgs) => run(
            Campaign::new(&case.universe, bank).with_backgrounds(bgs),
            every,
            hook,
            checkpoint,
            full_pass,
        ),
    };
    (report, sink)
}

impl CaseData {
    fn new(
        geom: Geometry,
        spec: UniverseSpec,
        topology: Option<Topology>,
        kind: Kind,
        universe: FaultUniverse,
    ) -> CaseData {
        let runner = compile(&kind, geom);
        for p in runner.programs() {
            // Warm the lazily built activity index the sliced engine uses.
            let _ = p.activity_index();
        }
        let mut case = CaseData {
            geom,
            spec,
            topology,
            kind,
            universe,
            runner,
            oracle: CoverageReport::from_rows("oracle", Vec::new()),
            oracle_verdicts: Vec::new(),
        };
        let (report, sink) = drive(&case, None, true);
        case.oracle = report.expect("the full-pass oracle runs");
        case.oracle_verdicts = sink.verdicts.into_inner().expect("sink lock");
        assert!(!case.oracle.is_partial(), "the oracle evaluates the whole universe");
        case
    }

    fn case(&self) -> Case<'_> {
        Case { geom: self.geom, faults: self.universe.faults(), programs: self.runner.programs() }
    }
}

/// A campaign workload: its universes, the seeded order they run in and
/// the checkpoint file its traced replay writes, if any.
pub struct Campaigns {
    cases: Vec<CaseData>,
    rng: SplitMix64,
    checkpoint: Option<PathBuf>,
    scratch: PathBuf,
    next_op: u64,
}

/// `campaign_dense`: the three small dense universes of `bench_json`, in
/// a seeded round-robin order.
pub fn dense(seed: u64, dir: &Path) -> Campaigns {
    let wom_spec =
        UniverseSpec { coupling_radius: Some(3), intra_word: true, ..UniverseSpec::paper_claim() };
    let case = |geom: Geometry, spec: UniverseSpec, kind: Kind| {
        CaseData::new(geom, spec, None, kind, FaultUniverse::enumerate(geom, &spec))
    };
    let cases = vec![
        case(Geometry::bom(32), UniverseSpec::paper_claim(), Kind::March),
        case(Geometry::bom(24), UniverseSpec::paper_claim(), Kind::Prt),
        case(
            Geometry::wom(12, 4).expect("12x4 WOM"),
            wom_spec,
            Kind::MarchBank(coverage::standard_backgrounds(4)),
        ),
    ];
    Campaigns {
        cases,
        rng: SplitMix64::new(seed),
        checkpoint: None,
        scratch: dir.into(),
        next_op: 0,
    }
}

/// `campaign_sparse`: March C- over a large single-cell BOM universe
/// enumerated under a seeded topology.
pub fn sparse(seed: u64, dir: &Path) -> Campaigns {
    let (geom, spec) = (Geometry::bom(SPARSE_CELLS), UniverseSpec::single_cell());
    let topology = Topology::generate(SPARSE_CELLS, seed);
    let universe = LazyUniverse::new_with(geom, spec, topology.clone()).materialize();
    let case = CaseData::new(geom, spec, Some(topology), Kind::March, universe);
    let checkpoint = dir.join(format!("sparse-{}.ckpt", std::process::id()));
    Campaigns {
        cases: vec![case],
        rng: SplitMix64::new(seed),
        checkpoint: Some(checkpoint),
        scratch: dir.into(),
        next_op: 0,
    }
}

fn remove_checkpoint(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(PathBuf::from(tmp));
}

impl Campaigns {
    /// Replays one timed campaign's inputs through the layer calls;
    /// returns whether every replayed result matched.
    fn replay(&self, t: &Tracer, op: u64, case: &CaseData, wall: f64) -> bool {
        let root = t.open("replay", op, None);
        let span = if matches!(case.kind, Kind::Prt) { "core.compile" } else { "march.compile" };
        let fresh = t.time(span, op, Some(root), || compile(&case.kind, case.geom));
        let mut ok = fresh.programs() == case.runner.programs();
        let universe = t.time("ram.enumerate", op, Some(root), || {
            enumerate(case.geom, &case.spec, &case.topology)
        });
        ok &= universe.faults() == case.universe.faults();
        let c = case.case();
        replay::activity_index(t, op, root, &c);
        let fp = replay::fingerprint(t, op, root, &c);
        let r = replay::chunks(t, op, root, &c, 8);
        ok &= r.mismatches == 0 && r.verdicts == case.oracle_verdicts;
        let path = self.scratch.join(format!("replay-{}.ckpt", std::process::id()));
        replay::save(t, op, root, &path, fp, &r.verdicts);
        replay::misr(t, op, root, c.programs[0]);
        if let Some(path) = &self.checkpoint {
            ok &= checkpointed(t, op, root, case, path);
        }
        // Attribution: the default-width sliced interpreter time spread
        // over the fan-out the campaign's one segment allows.
        let workers = replay::workers(case.universe.len(), 512);
        t.count("sim.unattributed_frac", 1.0 - r.sliced.as_secs_f64() / workers / wall);
        t.close(root);
        ok
    }
}

/// One checkpointed campaign (`with_checkpoint(path, 512)` on a freshly
/// deleted file, so nothing resumes): counts the saves and bytes its
/// progress sink sees and checks it against the oracle, including that
/// the first segment restored no prefix.
fn checkpointed(t: &Tracer, op: u64, parent: usize, case: &CaseData, path: &Path) -> bool {
    remove_checkpoint(path);
    let (report, sink) =
        t.time("sim.checkpointed_campaign", op, Some(parent), || drive(case, Some(path), false));
    remove_checkpoint(path);
    t.count("sim.checkpoint_saves", sink.saves.load(Ordering::Relaxed) as f64);
    t.count("sim.checkpoint_bytes", sink.bytes.load(Ordering::Relaxed) as f64);
    report.is_ok_and(|r| r == case.oracle)
        && sink.first_segment.load(Ordering::Relaxed) <= SEGMENT
        && sink.verdicts.into_inner().expect("sink lock") == case.oracle_verdicts
}

impl Workload for Campaigns {
    fn measure(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase {
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_secs_f64(secs);
        let mut ops = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut order: Vec<usize> = Vec::new();
        while Instant::now() < deadline {
            if order.is_empty() {
                order = self.rng.permutation(self.cases.len());
            }
            let case = &self.cases[order.pop().expect("refilled above")];
            let op = self.next_op;
            self.next_op += 1;
            let span = tracer.map(|t| t.open("sim.campaign", op, None));
            let t0 = Instant::now();
            let (report, sink) = drive(case, None, false);
            let wall = t0.elapsed().as_secs_f64();
            if let (Some(t), Some(id)) = (tracer, span) {
                t.close(id);
            }
            attempted += 1;
            let ok = report.is_ok_and(|r| r == case.oracle)
                && *sink.verdicts.lock().expect("sink lock") == case.oracle_verdicts;
            failed += u64::from(!ok);
            let work = case.universe.len() as f64;
            ops.push(Op { end: start.elapsed().as_secs_f64(), work, secs: wall });
            if let Some(t) = tracer {
                attempted += 1;
                failed += u64::from(!self.replay(t, op, case, wall));
            }
        }
        let ms: Vec<f64> = ops.iter().map(|o| o.secs * 1e3).collect();
        Phase {
            attempted,
            failed,
            faulted: ops.clone(),
            ops,
            concurrent: false,
            wall: start.elapsed().as_secs_f64(),
            report: vec![
                Metric::quantile("campaign_ms_p50", "ms", &ms, 0.5),
                Metric::quantile("campaign_ms_p90", "ms", &ms, 0.9),
            ],
        }
    }

    fn finish(self: Box<Self>) -> u64 {
        0
    }
}
