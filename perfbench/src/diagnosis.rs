//! `diagnosis`: repeated `FaultDictionary::build` of the diagnostic March
//! test, each followed by dictionary-seeded `Localizer::diagnose` calls on
//! a seeded sample of detected faults.

use std::path::{Path, PathBuf};
use std::time::Instant;

use prt_diag::{FaultDictionary, Localizer, Observation};
use prt_march::{library, Executor};
use prt_ram::{FaultUniverse, Geometry, Ram, SplitMix64, TestProgram, UniverseSpec};
use prt_sim::Parallelism;

use crate::replay::{self, default_poly, Case};
use crate::trace::{Metric, Tracer};
use crate::{Op, Phase, Workload};

/// Diagnoses after each dictionary build.
const DIAGNOSES_PER_BUILD: usize = 8;

pub struct Diagnosis {
    geom: Geometry,
    universe: FaultUniverse,
    program: TestProgram,
    oracle: Vec<Observation>,
    /// Universe indices whose response stream differs from the
    /// fault-free one, so a diagnosis must find them.
    detected: Vec<usize>,
    rng: SplitMix64,
    scratch: PathBuf,
    next_op: u64,
}

pub fn setup(seed: u64, dir: &Path) -> Diagnosis {
    let geom = Geometry::bom(32);
    let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
    let program = Executor::new().compile(&library::march_diag(), geom);
    let _ = program.activity_index();
    let oracle = FaultDictionary::build(&universe, &program, default_poly(), Parallelism::Auto)
        .expect("the default polynomial is valid")
        .observations()
        .to_vec();
    let detected = (0..oracle.len()).filter(|&i| oracle[i].stream_differs()).collect();
    Diagnosis {
        geom,
        universe,
        program,
        oracle,
        detected,
        rng: SplitMix64::new(seed),
        scratch: dir.into(),
        next_op: 0,
    }
}

impl Diagnosis {
    /// Replays one build's inputs through the layer calls; returns the
    /// collection time that build's lane chunks account for, and whether
    /// the replayed results matched.
    fn replay(&self, t: &Tracer, op: u64, parent: usize) -> (f64, bool) {
        let program = t.time("march.compile", op, Some(parent), || {
            Executor::new().compile(&library::march_diag(), self.geom)
        });
        let mut ok = program == self.program;
        let universe = t.time("ram.enumerate", op, Some(parent), || {
            FaultUniverse::enumerate(self.geom, &UniverseSpec::paper_claim())
        });
        ok &= universe.faults() == self.universe.faults();
        let case =
            Case { geom: self.geom, faults: self.universe.faults(), programs: vec![&self.program] };
        replay::activity_index(t, op, parent, &case);
        let fp = t.time("sim.fingerprint", op, Some(parent), || {
            FaultDictionary::fingerprint(&self.universe, &self.program, default_poly())
        });
        // Every chunk is sampled: the observe path is this workload's own.
        let r = replay::chunks(t, op, parent, &case, usize::MAX);
        ok &= r.mismatches == 0;
        let path = self.scratch.join(format!("replay-{}.dict", std::process::id()));
        replay::save(t, op, parent, &path, fp, &self.oracle);
        replay::misr(t, op, parent, &self.program);
        let workers = replay::workers(self.universe.len(), 512);
        (r.collect.0.as_secs_f64() / workers, ok)
    }
}

impl Workload for Diagnosis {
    fn measure(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase {
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_secs_f64(secs);
        let localizer_test = library::march_diag();
        let (mut builds, mut diagnoses) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0u64, 0u64);
        while Instant::now() < deadline {
            let op = self.next_op;
            self.next_op += 1;
            let root = tracer.map(|t| t.open("diagnosis", op, None));
            let t0 = Instant::now();
            let dict = FaultDictionary::build(
                &self.universe,
                &self.program,
                default_poly(),
                Parallelism::Auto,
            );
            let wall = t0.elapsed();
            attempted += 1;
            let Ok(dict) = dict else {
                failed += 1;
                continue;
            };
            if let (Some(t), Some(root)) = (tracer, root) {
                t.add("diag.dictionary_build", op, Some(root), t0, 1, wall);
            }
            failed += u64::from(dict.observations() != self.oracle.as_slice());
            let (end, work) = (start.elapsed().as_secs_f64(), self.universe.len() as f64);
            builds.push(Op { end, work, secs: wall.as_secs_f64() });

            let localizer =
                Localizer::new(localizer_test.clone(), self.geom).with_dictionary(&dict);
            for _ in 0..DIAGNOSES_PER_BUILD {
                let pick = self.rng.next_below(self.detected.len() as u64) as usize;
                let fault = self.universe.faults()[self.detected[pick]].clone();
                let mut ram = Ram::new(self.geom);
                ram.inject(fault.clone()).expect("universe faults are valid");
                let t1 = Instant::now();
                let result = localizer.diagnose(&mut ram);
                let took = t1.elapsed();
                attempted += 1;
                let end = start.elapsed().as_secs_f64();
                diagnoses.push(Op { end, work: 1.0, secs: took.as_secs_f64() });
                let found = match &result {
                    Ok(Some(d)) => {
                        if let (Some(t), Some(root)) = (tracer, root) {
                            t.add("diag.diagnose", op, Some(root), t1, 1, took);
                            t.count("diag.probes", d.probes() as f64);
                        }
                        d.candidates().contains(&fault)
                    }
                    _ => false,
                };
                failed += u64::from(!found);
            }
            if let (Some(t), Some(root)) = (tracer, root) {
                let (attributed, ok) = self.replay(t, op, root);
                attempted += 1;
                failed += u64::from(!ok);
                t.count("sim.unattributed_frac", 1.0 - attributed / wall.as_secs_f64());
                t.close(root);
            }
        }
        let secs: Vec<f64> = diagnoses.iter().map(|o| o.secs).collect();
        let build_ms: Vec<f64> = builds.iter().map(|o| o.secs * 1e3).collect();
        Phase {
            attempted,
            failed,
            report: vec![
                Metric::rate("diagnoses_per_s", "1/s", &vec![1.0; secs.len()], &secs),
                Metric::quantile("dictionary_build_ms_p50", "ms", &build_ms, 0.5),
            ],
            ops: diagnoses,
            faulted: builds,
            concurrent: false,
            wall: start.elapsed().as_secs_f64(),
        }
    }

    fn finish(self: Box<Self>) -> u64 {
        0
    }
}
