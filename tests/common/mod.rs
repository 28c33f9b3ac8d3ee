//! Helpers shared by the integration suites: the mixed fault universes
//! the differential properties sweep, the CI thread pin, checkpoint
//! paths and the scalar oracles. Each suite uses a subset.

#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use prt_suite::prelude::*;

/// Thread count for the differential sweeps: `PRT_TEST_THREADS`
/// overrides the proptest-chosen count, so CI pins every sweep to a fixed
/// multi-worker configuration (the thread-count-invariance guard).
pub fn test_threads(chosen: usize) -> usize {
    std::env::var("PRT_TEST_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(chosen)
}

/// The mixed spec every campaign property sweeps: **every** modelled
/// family — SAF/TF/CFin/CFid/CFst (intra-word included on WOM), AF, SOF
/// and the read/write-logic families — with coupling aggressors within
/// radius 2. Single-cell families have tight spans, coupling spans
/// straddle aggressor/victim windows, and the decoder, stuck-open and
/// read-logic families have always-active footprints.
fn mixed_spec(geom: Geometry) -> UniverseSpec {
    UniverseSpec { coupling_radius: Some(2), intra_word: geom.width() > 1, ..UniverseSpec::full() }
}

/// The mixed universe under the identity topology.
pub fn mixed_universe(geom: Geometry) -> FaultUniverse {
    FaultUniverse::enumerate(geom, &mixed_spec(geom))
}

/// The mixed universe enumerated over the physical coordinates of a
/// seed-generated topology and mapped back to logical addresses.
pub fn scrambled_universe(geom: Geometry, seed: u64) -> FaultUniverse {
    FaultUniverse::enumerate_with(geom, &mixed_spec(geom), Topology::generate(geom.cells(), seed))
}

/// Per-process unique checkpoint paths (proptest cases run many files).
static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh checkpoint path in the system temp dir, removed upfront so
/// every case starts cold.
pub fn temp_ckpt(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "prt-test-{}-{tag}-{}.ckpt",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A closure over `runner` (a `&TestProgram` or `&ProgramBank`): the
/// same program on the pooled scalar engine, the oracle every
/// lane-batched campaign is compared against.
pub fn scalar<R: FaultRunner + Copy>(runner: R) -> impl Fn(&mut Ram, u64) -> bool + Sync + Copy {
    move |ram, bg| runner.detect(ram, bg)
}

/// The scalar dictionary oracle: one `SignatureCollector::collect` per
/// fault of `universe` on a sequential `map_trials` sweep, a device error
/// counted as the escape observation (reference signature, default
/// execution) exactly as a dictionary build records it.
pub fn scalar_observations(
    universe: &FaultUniverse,
    program: &TestProgram,
    poly: Poly2,
) -> Vec<Observation> {
    let collector = SignatureCollector::new(program, poly).expect("collector");
    let faults = universe.faults();
    prt_sim::map_trials(
        universe.geometry(),
        program.ports(),
        faults.len(),
        Parallelism::Sequential,
        |i, ram| {
            ram.inject(faults[i].clone()).expect("universe faults are valid");
            collector.collect(program, ram).unwrap_or_else(|_| escape(&collector))
        },
    )
}

/// The escape observation a dictionary records for a device error.
fn escape(collector: &SignatureCollector) -> Observation {
    Observation { signature: collector.reference(), exec: Execution::default() }
}

/// The lane trial of a dictionary measurement through the public API,
/// for campaigns driven through `Campaign::try_measure`. The full pass is
/// `SignatureCollector::collect_batch`. A slice from the campaign's plan
/// runs the sliced observed pass instead, and each lane's read stream is
/// compacted with the scalar `SignatureCollector::compact` (the
/// bit-sliced collector's sliced form is crate-private); a lane frozen by
/// a device error records the escape observation, as a dictionary does.
pub fn observe_lanes<'c>(
    collector: &'c SignatureCollector,
    program: &'c TestProgram,
) -> impl Fn(&mut LaneRam<8>, Option<(&ActivityIndex, &ActiveSet)>, &mut Vec<Observation>) + Sync + 'c
{
    move |ram, slice, out| {
        let Some((index, active)) = slice else {
            return collector.collect_batch(program, ram, out);
        };
        let mut execs = vec![Execution::default(); LaneRam::<8>::LANES];
        let mut streams = vec![Vec::new(); ram.active_lanes().count_ones() as usize];
        program
            .try_execute_batch_observed_sliced(ram, index, active, &mut execs, &mut |planes| {
                for (lane, stream) in streams.iter_mut().enumerate() {
                    stream.push(lane_word(planes, lane));
                }
            })
            .expect("valid batch");
        let errored = ram.errored_lanes();
        out.extend(streams.into_iter().enumerate().map(|(lane, stream)| {
            if errored.get(lane) {
                escape(collector)
            } else {
                Observation { signature: collector.compact(stream), exec: execs[lane] }
            }
        }));
    }
}

/// The scalar trial matching [`observe_lanes`]: `collect`, a device error
/// recorded as the escape observation.
pub fn observe_one<'c>(
    collector: &'c SignatureCollector,
    program: &'c TestProgram,
) -> impl Fn(usize, &mut Ram) -> Observation + Sync + 'c {
    move |_, ram| collector.collect(program, ram).unwrap_or_else(|_| escape(collector))
}
