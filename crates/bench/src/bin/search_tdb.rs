//! TDB-schedule derivation tool (ablation `ablate_tdb`).
//!
//! Exhaustively searches pre-read iteration schedules — seed `(s0, s1)` ×
//! affine complement bit × trajectory per iteration — for full coverage of
//! the paper-claim fault universe on several memory sizes simultaneously.
//! Completeness checking is fail-fast (hardness-ordered instances), and the
//! first iteration is pinned to `⇑ init(0,1)` (the first iteration runs
//! plain, so its role is symmetric under relabeling).
//!
//! The schedules hard-coded in `PrtScheme::standard3`/`standard4`/the full
//! scheme were derived with this tool.
//!
//! Usage: `cargo run --release -p prt-bench --bin search_tdb [max_iters]`

use prt_core::scheme::{IterationSpec, PrtScheme};
use prt_core::Trajectory;
use prt_gf::Field;
use prt_ram::{FaultKind, FaultUniverse, Geometry, UniverseSpec};
use prt_sim::{Campaign, Parallelism};

/// Hardness-ordered fault instances: the classes that escape most schemes
/// come first so fail-fast pruning triggers early.
fn ordered_instances(n: usize) -> (Geometry, Vec<FaultKind>) {
    let geom = Geometry::bom(n);
    let u = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
    let mut faults: Vec<FaultKind> = u.faults().to_vec();
    let rank = |f: &FaultKind| match f.mnemonic() {
        "CFid" => 0,
        "CFin" => 1,
        "CFst" => 2,
        "AF" => 3,
        "TF" => 4,
        _ => 5,
    };
    faults.sort_by_key(rank);
    (geom, faults)
}

fn first_escape(scheme: &PrtScheme, sets: &[(Geometry, Vec<FaultKind>)]) -> Option<FaultKind> {
    // Sequential campaigns: each candidate schedule is compiled once per
    // geometry it reaches and checked fail-fast against hardness-ordered
    // instances, and the odometer visits millions of candidates — pooled
    // memories matter here, thread fan-out would not amortise per
    // candidate.
    for (geom, faults) in sets {
        let program = scheme.compile(*geom).expect("GF(2) schedules compile for BOM n >= 9");
        let found = Campaign::over(*geom, faults, &program)
            .with_parallelism(Parallelism::Sequential)
            .first_escape();
        if let Some(i) = found {
            return Some(faults[i].clone());
        }
    }
    None
}

fn label(spec: &IterationSpec) -> String {
    format!("{}({},{})e{}", spec.trajectory.label(), spec.init[0], spec.init[1], spec.affine)
}

fn main() {
    let max_iters: usize = prt_bench::arg_or(1, 5, "max-iterations");

    let field = Field::new(1, 0b11).expect("GF(2)");
    let sets: Vec<(Geometry, Vec<FaultKind>)> =
        [9usize, 10, 11].iter().map(|&n| ordered_instances(n)).collect();

    // Candidate pool: seed × affine × trajectory.
    let mut pool: Vec<IterationSpec> = Vec::new();
    for s in [[0u64, 1], [1, 0], [1, 1], [0, 0]] {
        for e in [0u64, 1] {
            for traj in [Trajectory::Up, Trajectory::Down] {
                pool.push(IterationSpec { init: s.to_vec(), affine: e, trajectory: traj });
            }
        }
    }
    let first = IterationSpec::up(vec![0, 1]);
    println!("pool: {} candidate iterations (first pinned to ⇑(0,1)e0)", pool.len());

    for iters in 3..=max_iters {
        let free = iters - 1;
        let mut idx = vec![0usize; free];
        let mut tried = 0u64;
        let mut found = false;
        'odometer: loop {
            let mut specs = vec![first.clone()];
            specs.extend(idx.iter().map(|&i| pool[i].clone()));
            if let Ok(s) = PrtScheme::new(field.clone(), &[1, 1, 1], specs.clone()) {
                let s = s.with_preread(true).with_final_readback(true);
                tried += 1;
                if first_escape(&s, &sets).is_none() {
                    let names: Vec<String> = specs.iter().map(label).collect();
                    println!(
                        "iters={iters}: COMPLETE after {tried} tries: [{}]",
                        names.join(" | ")
                    );
                    found = true;
                    break 'odometer;
                }
            }
            let mut pos = free;
            loop {
                if pos == 0 {
                    break 'odometer;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < pool.len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
        if !found {
            println!("iters={iters}: no complete schedule ({tried} tried)");
        } else {
            break;
        }
    }
}
