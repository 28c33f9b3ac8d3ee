//! Detection-probability analysis — §3 of the paper.
//!
//! "Applying Markov chain analysis it was shown that π-test iteration has a
//! high resolution for most memory faults."
//!
//! The π-test's detection events are *per-iteration* Bernoulli trials whose
//! success probability depends on the fault class and the (random) TDB; the
//! escape probability after `T` independent-TDB iterations is the Markov
//! absorption complement `(1 − p)^T`. This module provides the closed
//! forms under a documented TDB model and a Monte-Carlo harness that
//! validates them against the actual simulator (experiment E8).
//!
//! # TDB model
//!
//! Each iteration seeds the automaton with an `Init` drawn uniformly from
//! *all* `q^k` states (including zero). Because every sequence element is a
//! non-trivial GF(2)-linear image of `Init`, every cell value is then an
//! unbiased uniform field element, independent across iterations (but not
//! across cells — the analysis only uses per-cell marginals).

use crate::{PiTest, PrtError};
use prt_gf::Field;
use prt_ram::{FaultKind, MemoryDevice, Ram, SplitMix64};

/// Closed-form single-iteration detection probability for a fault class on
/// a bit-oriented memory under the uniform-TDB model, ascending trajectory,
/// memory zero-filled before the iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionModel {
    /// Fault-class mnemonic.
    pub class: &'static str,
    /// Single-iteration detection probability.
    pub p_detect: f64,
    /// Why (shown in the E8 table).
    pub rationale: &'static str,
}

/// The closed forms for the bit-oriented π-test (k = 2, plain mode).
///
/// Derivations (cell value `s` uniform, zero-filled pre-state):
///
/// * **SAF** — detected iff the cell's TDB value differs from the stuck
///   value at its two operand reads: `p = 1/2`.
/// * **TF** — the blocked transition must be exercised; starting from the
///   zero fill only `0→1` writes occur, so the up-TF fires with `p(s=1) =
///   1/2` and the down-TF never does: class average `1/4`.
/// * **IRF/RDF** — read-path faults corrupt an operand read directly;
///   error propagation is invertible, `p = 1`.
/// * **DRDF** — the first read returns the correct value while flipping the
///   cell; the *second* operand read observes the flip, `p = 1`.
/// * **WDF** — fires iff the write is a non-transition, i.e. the new TDB
///   value equals the old content (`p = 1/2` from the zero fill: `s = 0`).
/// * **SOF** — the cell never takes the wave value; its first operand read
///   returns the sense-amp latch, which at that moment holds `s_{i−2}`.
///   Under the `g = 1 + x + x²` recurrence `s_{i−2} ≠ s_i ⟺ s_{i−1} = 1`:
///   `p = 1/2`.
/// * **CFst** — the victim is forced while the aggressor is in the trigger
///   state; detection needs aggressor-in-state (`1/2`) and a victim value
///   differing from the forced one (`1/2`): `p = 1/4`.
/// * **CFin/CFid (adjacent, aggressor = victim + 1)** — the aggressor's
///   wave write lands exactly between the victim's two operand reads;
///   detection needs only the trigger transition (`1/2`), times the victim
///   polarity (`1/2`) for CFid.
/// * **CFin/CFid (distant)** — the corruption lands either before the
///   victim's write (overwritten) or after its last operand read (never
///   observed): `p = 0`, *structurally*. This is the plain-mode blind spot
///   that pre-read mode closes (module docs of [`crate::scheme`]).
pub fn bom_closed_forms() -> Vec<DetectionModel> {
    vec![
        DetectionModel { class: "SAF", p_detect: 0.5, rationale: "P(TDB value ≠ stuck value)" },
        DetectionModel {
            class: "TF",
            p_detect: 0.25,
            rationale: "up-TF: P(s=1)=1/2 from zero fill; down-TF: 0 — average",
        },
        DetectionModel { class: "IRF", p_detect: 1.0, rationale: "every operand read corrupted" },
        DetectionModel {
            class: "RDF",
            p_detect: 1.0,
            rationale: "destructive read observed directly",
        },
        DetectionModel {
            class: "DRDF",
            p_detect: 1.0,
            rationale: "flip observed by the second operand read",
        },
        DetectionModel {
            class: "WDF",
            p_detect: 0.5,
            rationale: "P(non-transition write) = P(s = old) = 1/2",
        },
        DetectionModel {
            class: "SOF",
            p_detect: 0.5,
            rationale: "latch holds s_{i−2}; mismatch ⟺ s_{i−1} = 1 under g = 1+x+x²",
        },
        DetectionModel {
            class: "CFst",
            p_detect: 0.25,
            rationale: "P(aggressor in state)·P(victim ≠ forced)",
        },
        DetectionModel {
            class: "CFin adj",
            p_detect: 0.25,
            rationale: "a = v+1: ↑ fires with P(s=1)=1/2; ↓ never from zero fill — avg 1/4",
        },
        DetectionModel {
            class: "CFid adj",
            p_detect: 0.125,
            rationale: "CFin adj × P(victim ≠ forced) = 1/8",
        },
        DetectionModel {
            class: "CFin dist",
            p_detect: 0.0,
            rationale: "corruption outside the victim's observation window — invisible",
        },
        DetectionModel {
            class: "CFid dist",
            p_detect: 0.0,
            rationale: "as CFin dist; the structural blind spot pre-read closes",
        },
    ]
}

/// Escape probability after `t` independent uniform-TDB iterations —
/// the Markov absorption complement.
pub fn escape_probability(p_detect: f64, t: u32) -> f64 {
    (1.0 - p_detect).powi(t as i32)
}

/// Iterations needed to push the escape probability below `target`.
pub fn iterations_for_escape(p_detect: f64, target: f64) -> u32 {
    assert!((0.0..1.0).contains(&target) && target > 0.0, "target in (0,1)");
    if p_detect >= 1.0 {
        return 1;
    }
    if p_detect <= 0.0 {
        return u32::MAX;
    }
    (target.ln() / (1.0 - p_detect).ln()).ceil() as u32
}

/// Monte-Carlo estimate of the single-iteration detection probability of
/// `fault` on an `n`-cell bit-oriented memory under the uniform-TDB model.
///
/// Each trial zero-fills a (pooled) faulty memory, draws a uniform `Init`
/// (over all 4 states of the k=2 automaton) and runs one plain ascending
/// π-iteration. Trials fan out on the campaign engine; the TDB draws are
/// made sequentially up front, so the estimate is bit-identical to the
/// historical sequential loop for any thread count.
///
/// # Errors
///
/// Propagates construction errors (invalid fault site, tiny memory).
pub fn monte_carlo_bom(
    n: usize,
    fault: &FaultKind,
    trials: u32,
    seed: u64,
) -> Result<f64, PrtError> {
    let field = Field::new(1, 0b11)?;
    let geom = prt_ram::Geometry::bom(n);
    // Surface the per-trial construction errors of the historical loop
    // once, up front: fault-site validation and the memory-size check.
    {
        let mut probe = Ram::new(geom);
        probe.inject(fault.clone())?;
        PiTest::new(field.clone(), &[1, 1, 1], &[0, 1])?.run(&mut probe)?;
    }
    let mut rng = SplitMix64::new(seed);
    let inits: Vec<[u64; 2]> =
        (0..trials).map(|_| [rng.next_u64() & 1, rng.next_u64() & 1]).collect();
    // The k = 2 automaton over GF(2) has exactly four TDB states: compile
    // all four π-programs up front, then every trial is one allocation-free
    // interpreter pass (verdict-identical to running `PiTest::run` per
    // trial — property-tested).
    let programs: Vec<prt_ram::TestProgram> = (0..4u64)
        .map(|i| PiTest::new(field.clone(), &[1, 1, 1], &[(i >> 1) & 1, i & 1])?.compile(geom))
        .collect::<Result<_, _>>()?;
    let verdicts =
        prt_sim::map_trials(geom, 1, trials as usize, prt_sim::Parallelism::Auto, |t, ram| {
            ram.inject(fault.clone()).expect("validated above");
            let [s0, s1] = inits[t];
            programs[((s0 << 1) | s1) as usize].detect(ram)
        });
    let detected = verdicts.into_iter().filter(|&d| d).count() as u32;
    Ok(f64::from(detected) / f64::from(trials))
}

/// Monte-Carlo detection probability averaged over every instance of a
/// fault class (as enumerated by `faults`), with `trials` TDB draws per
/// instance.
///
/// # Errors
///
/// Propagates [`monte_carlo_bom`] errors.
pub fn monte_carlo_class(
    n: usize,
    faults: &[FaultKind],
    trials: u32,
    seed: u64,
) -> Result<f64, PrtError> {
    let mut acc = 0.0;
    let mut rng = SplitMix64::new(seed);
    for f in faults {
        acc += monte_carlo_bom(n, f, trials, rng.next_u64())?;
    }
    Ok(acc / faults.len() as f64)
}

/// Aliasing probability of the `Fin` signature itself: the chance that a
/// *random* final memory disturbance maps `Fin` exactly onto `Fin*`,
/// `q^{−k}` — the PRT analogue of MISR aliasing.
pub fn signature_aliasing(field: &Field, k: u32) -> f64 {
    (1.0 / field.size() as f64).powi(k as i32)
}

/// Verifies that an observed memory sequence has the linear complexity of
/// the intended automaton — the Berlekamp–Massey cross-check used by the
/// test suite (a fault-free π-iteration must look exactly like a `k`-stage
/// LFSR, no simpler).
pub fn verify_linear_complexity<M: MemoryDevice>(
    mem: &mut M,
    pi: &PiTest,
) -> Result<bool, PrtError> {
    let n = mem.geometry().cells();
    let order = pi.trajectory().order(n);
    let words: Vec<u64> = order.iter().map(|&c| mem.read(c)).collect();
    let lc = prt_lfsr::linear_complexity_words(pi.field(), &words);
    Ok(lc.complexity <= pi.stages())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_ram::Geometry;

    #[test]
    fn escape_math() {
        assert!((escape_probability(0.5, 3) - 0.125).abs() < 1e-12);
        assert_eq!(iterations_for_escape(0.5, 0.01), 7);
        assert_eq!(iterations_for_escape(1.0, 0.01), 1);
        assert_eq!(iterations_for_escape(0.0, 0.5), u32::MAX);
    }

    #[test]
    fn saf_monte_carlo_matches_half() {
        let f = FaultKind::StuckAt { cell: 5, bit: 0, value: 0 };
        let p = monte_carlo_bom(12, &f, 400, 42).unwrap();
        assert!((p - 0.5).abs() < 0.08, "p = {p}");
    }

    #[test]
    fn irf_always_detected() {
        let f = FaultKind::IncorrectRead { cell: 4, bit: 0 };
        let p = monte_carlo_bom(12, &f, 100, 7).unwrap();
        assert!(p > 0.95, "p = {p}");
    }

    #[test]
    fn tf_class_average_near_quarter() {
        let faults: Vec<FaultKind> = (2..10)
            .flat_map(|c| {
                [true, false].into_iter().map(move |rising| FaultKind::Transition {
                    cell: c,
                    bit: 0,
                    rising,
                })
            })
            .collect();
        let p = monte_carlo_class(12, &faults, 120, 3).unwrap();
        assert!((p - 0.25).abs() < 0.08, "p = {p}");
    }

    #[test]
    fn cfin_is_rare_without_preread() {
        // The structural blind spot: distant CFin detection probability is
        // O(1/n), far below the per-cell classes.
        let n = 16;
        let f = FaultKind::CouplingInversion {
            agg_cell: 12,
            agg_bit: 0,
            victim_cell: 3,
            victim_bit: 0,
            trigger: prt_ram::CouplingTrigger::Rise,
        };
        let p = monte_carlo_bom(n, &f, 300, 11).unwrap();
        assert!(p < 0.2, "distant CFin should rarely be caught, p = {p}");
    }

    #[test]
    fn closed_forms_cover_expected_classes() {
        let forms = bom_closed_forms();
        for class in
            ["SAF", "TF", "CFin adj", "CFid dist", "CFst", "SOF", "IRF", "RDF", "DRDF", "WDF"]
        {
            assert!(forms.iter().any(|m| m.class == class), "missing {class}");
        }
        for m in &forms {
            assert!((0.0..=1.0).contains(&m.p_detect), "{} out of range", m.class);
            assert!(!m.rationale.is_empty());
        }
    }

    #[test]
    fn signature_aliasing_is_q_pow_minus_k() {
        let f = Field::new(4, 0b1_0011).unwrap();
        assert!((signature_aliasing(&f, 2) - 1.0 / 256.0).abs() < 1e-15);
    }

    #[test]
    fn fault_free_run_has_low_linear_complexity() {
        let pi = PiTest::figure_1b().unwrap();
        let mut ram = Ram::new(Geometry::wom(32, 4).unwrap());
        pi.run(&mut ram).unwrap();
        assert!(verify_linear_complexity(&mut ram, &pi).unwrap());
    }
}
