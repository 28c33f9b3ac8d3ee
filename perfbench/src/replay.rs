//! Layer replay: runs one workload input through the public per-layer
//! calls a campaign or dictionary build makes internally, each inside a
//! span, so the traced run can say where the time goes without tracing
//! inside the crates.

use std::path::Path;
use std::time::{Duration, Instant};

use prt_diag::SignatureCollector;
use prt_gf::Poly2;
use prt_ram::{
    fault_locality_key, ActiveSet, ActivityIndex, Execution, FaultKind, Geometry, LaneChunk,
    LaneRam, TestProgram,
};
use prt_sim::checkpoint::{self, CheckpointRecord, FingerprintBuilder};

use crate::trace::Tracer;

/// The MISR every diagnosis path of the suite compacts with
/// (`x⁸+x⁴+x³+x+1`).
pub fn default_poly() -> Poly2 {
    Poly2::from_bits(u128::from(prt_svc::DEFAULT_POLY_BITS))
}

/// One simulation input: a fault list and one compiled program per data
/// background.
pub struct Case<'a> {
    pub geom: Geometry,
    pub faults: &'a [FaultKind],
    pub programs: Vec<&'a TestProgram>,
}

/// What a chunk replay measured.
pub struct ChunkReplay {
    /// Verdicts of the sliced 512-lane pass, by fault index.
    pub verdicts: Vec<bool>,
    /// Chunks whose full-pass verdicts differed from the sliced pass.
    pub mismatches: usize,
    /// Summed active-set assembly + sliced interpreter time over every
    /// chunk.
    pub sliced: Duration,
    /// Summed `SignatureCollector::collect_batch` time over the sampled
    /// chunks, with their count.
    pub collect: (Duration, usize),
}

/// Universe indices in locality order, the order the sliced engine
/// assembles lane chunks in.
fn locality_order(faults: &[FaultKind]) -> Vec<u32> {
    let mut keyed: Vec<(usize, u32)> =
        faults.iter().enumerate().map(|(i, f)| (fault_locality_key(f), i as u32)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

fn load<const K: usize>(ram: &mut LaneRam<K>, faults: &[FaultKind], batch: &[u32]) {
    ram.eject_faults();
    ram.reset_to(0);
    for (lane, &fi) in batch.iter().enumerate() {
        ram.inject(faults[fi as usize].clone(), lane).expect("universe faults are valid");
    }
}

/// The per-chunk interpreter calls a campaign makes for one chunk:
/// one pass per background program, stopping once every lane is flagged.
fn detect<const K: usize>(
    case: &Case<'_>,
    ram: &mut LaneRam<K>,
    mut pass: impl FnMut(usize, &mut LaneRam<K>) -> LaneChunk<K>,
) -> LaneChunk<K> {
    let full = ram.active_lanes();
    let mut detected = LaneChunk::<K>::ZERO;
    for bi in 0..case.programs.len() {
        if bi > 0 {
            if detected == full {
                break;
            }
            ram.reset_to(0);
        }
        detected |= pass(bi, ram);
    }
    detected
}

/// Replays every lane chunk of `case` through the batch interpreter at
/// the default 512 lanes, in the locality order the sliced engine uses:
/// the sliced pass on every chunk, and the full pass, the observe path
/// and signature collection on `sampled` evenly spaced chunks.
pub fn chunks(t: &Tracer, op: u64, parent: usize, case: &Case<'_>, sampled: usize) -> ChunkReplay {
    const K: usize = 8;
    let lanes = LaneRam::<K>::LANES;
    let order = locality_order(case.faults);
    let indexes: Vec<_> = case.programs.iter().map(|p| p.activity_index()).collect();
    let collector = SignatureCollector::new(case.programs[0], default_poly())
        .expect("the default polynomial is valid");
    let mut out = ChunkReplay {
        verdicts: vec![false; case.faults.len()],
        mismatches: 0,
        sliced: Duration::ZERO,
        collect: (Duration::ZERO, 0),
    };
    let stride = case.faults.len().div_ceil(lanes).div_ceil(sampled.max(1)).max(1);
    let ports = case.programs.iter().map(|p| p.ports()).max().unwrap_or(1);
    let mut ram = LaneRam::<K>::with_ports(case.geom, ports).expect("program ports fit the device");
    let mut active = ActiveSet::new();
    let mut execs = vec![Execution::default(); lanes];
    let mut observations = Vec::with_capacity(lanes);
    let (mut full_busy, mut sliced_busy, mut observe_busy) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut full_calls, mut observe_calls) = (0u64, 0u64);
    let started = Instant::now();
    let chunks: Vec<&[u32]> = order.chunks(lanes).collect();
    for (c, batch) in chunks.iter().enumerate() {
        load(&mut ram, case.faults, batch);
        let t0 = Instant::now();
        let detected = detect(case, &mut ram, |bi, ram| {
            active.clear();
            for &fi in batch.iter() {
                active.insert_fault(&case.faults[fi as usize]);
            }
            active.finalize(&indexes[bi]);
            if bi == 0 {
                t.count(
                    "ram.active_op_frac",
                    active.ops().len() as f64 / case.programs[0].ops().len() as f64,
                );
            }
            let t1 = Instant::now();
            let chunk = case.programs[bi]
                .try_detect_batch_sliced(ram, &indexes[bi], &active)
                .expect("batch configuration is valid");
            sliced_busy += t1.elapsed();
            chunk
        });
        out.sliced += t0.elapsed();
        for (lane, &fi) in batch.iter().enumerate() {
            out.verdicts[fi as usize] = detected.get(lane);
        }
        if c % stride != 0 {
            continue;
        }
        load(&mut ram, case.faults, batch);
        let full = detect(case, &mut ram, |bi, ram| {
            let t1 = Instant::now();
            let chunk =
                case.programs[bi].try_detect_batch(ram).expect("batch configuration is valid");
            full_busy += t1.elapsed();
            chunk
        });
        full_calls += 1;
        out.mismatches += usize::from(full != detected);
        load(&mut ram, case.faults, batch);
        let t1 = Instant::now();
        case.programs[0]
            .try_execute_batch_observed(&mut ram, &mut execs, &mut |_| {})
            .expect("batch configuration is valid");
        observe_busy += t1.elapsed();
        observe_calls += 1;
        load(&mut ram, case.faults, batch);
        observations.clear();
        let t1 = Instant::now();
        collector.collect_batch(case.programs[0], &mut ram, &mut observations);
        out.collect.0 += t1.elapsed();
        out.collect.1 += 1;
    }
    t.add("ram.detect_sliced", op, Some(parent), started, chunks.len() as u64, sliced_busy);
    t.add("ram.detect_full", op, Some(parent), started, full_calls, full_busy);
    t.add("ram.observe", op, Some(parent), started, observe_calls, observe_busy);
    let (busy, calls) = out.collect;
    t.add("diag.collect_batch", op, Some(parent), started, calls as u64, busy);
    out
}

/// `ActivityIndex::build` for every program of the case.
pub fn activity_index(t: &Tracer, op: u64, parent: usize, case: &Case<'_>) {
    for p in &case.programs {
        let index = t.time("ram.activity_index", op, Some(parent), || ActivityIndex::build(p));
        assert!(index.matches(p), "activity index rebuilt for its own program");
    }
}

/// A campaign-style configuration fingerprint over the case's geometry,
/// fault list and programs.
pub fn fingerprint(t: &Tracer, op: u64, parent: usize, case: &Case<'_>) -> u64 {
    t.time("sim.fingerprint", op, Some(parent), || {
        let mut fp = FingerprintBuilder::new();
        fp.push_debug(&case.geom);
        fp.push_u64(case.faults.len() as u64);
        for fault in case.faults {
            fp.push_debug(fault);
        }
        for p in &case.programs {
            fp.push_debug(*p);
        }
        fp.finish()
    })
}

/// `checkpoint::save_records` of a whole run's records. The file is
/// removed afterwards.
pub fn save<R: CheckpointRecord>(
    t: &Tracer,
    op: u64,
    parent: usize,
    path: &Path,
    fingerprint: u64,
    records: &[R],
) {
    t.time("sim.checkpoint_save", op, Some(parent), || {
        checkpoint::save_records(path, fingerprint, records.len(), records)
            .expect("the benchmark's scratch directory is writable")
    });
    let _ = std::fs::remove_file(path);
}

/// Words a MISR replay compacts at least, so the span is long enough to
/// time.
const MISR_WORDS: usize = 1 << 16;

/// `SignatureCollector::compact` over the program's fault-free response
/// stream, repeated to at least [`MISR_WORDS`] words (`calls` = words).
pub fn misr(t: &Tracer, op: u64, parent: usize, program: &TestProgram) {
    let collector =
        SignatureCollector::new(program, default_poly()).expect("the default polynomial is valid");
    let stream: Vec<u64> = program.expected_responses().collect();
    let reps = MISR_WORDS.div_ceil(stream.len().max(1));
    let start = Instant::now();
    for _ in 0..reps {
        let signature = collector.compact(std::hint::black_box(stream.iter().copied()));
        assert_eq!(signature, collector.reference(), "fault-free stream compacts to the reference");
    }
    let busy = start.elapsed();
    t.add("lfsr.misr_compact", op, Some(parent), start, (reps * stream.len()) as u64, busy);
}

/// Lane chunks the engine's fan-out can run at once: `Parallelism::Auto`
/// spreads a segment's chunks over the available cores.
pub fn workers(segment: usize, lanes: usize) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(segment.div_ceil(lanes).max(1)) as f64
}
