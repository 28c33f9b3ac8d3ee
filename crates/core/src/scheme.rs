//! Multi-iteration PRT schemes — §3 of the paper.
//!
//! A single π-iteration is polarity- and transition-blind: a stuck-at fault
//! whose stuck value coincides with the TDB value at its cell, or a
//! transition fault whose blocked edge never occurs, escapes. The paper's
//! §3 states that *"all single and multi-cell memory faults are detected in
//! 3 π-test iterations with a specific TDB"*. This module provides the
//! scheme machinery, the computationally-derived standard schedules, and
//! the exhaustive TDB search that derived them (the specific TDB of the
//! paper's reference \[2\] is not public; we reconstruct it from the same
//! fault universe — see DESIGN.md).
//!
//! Two operating modes:
//!
//! * **plain** (`3n − 2` ops/iteration, the paper's complexity): full
//!   coverage of SAF, TF, CFst, AF, SOF and read/write-logic faults is
//!   achievable with the right TDB set, but inversion/idempotent coupling
//!   faults whose victim is *not adjacent* to the aggressor in the
//!   trajectory are structurally invisible — their corruption lands after
//!   the victim's operand reads and is overwritten before it is ever read
//!   again. Experiment E3 measures this gap.
//! * **pre-read** (`4n − 2` ops/iteration): each wave write first reads the
//!   stale cell and checks it against the previous iteration's expected
//!   contents, closing the blind spot; 3 iterations then suffice for the
//!   full universe, matching the paper's claim (at 4n, not 3n — a measured
//!   deviation recorded in EXPERIMENTS.md).

use crate::{PiResult, PiTest, PrtError, Trajectory};
use prt_gf::Field;
use prt_march::CoverageReport;
use prt_ram::{
    FaultKind, FaultUniverse, Geometry, MemoryDevice, ProgramBuilder, Ram, SlotOp, TestProgram,
};
use prt_sim::Campaign;

/// One iteration of a PRT scheme: seed, affine term and trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationSpec {
    /// The TDB seed `Init` (`k` field elements).
    pub init: Vec<u64>,
    /// Affine term added each step (complemented-TDB support).
    pub affine: u64,
    /// Cell-visit order.
    pub trajectory: Trajectory,
}

impl IterationSpec {
    /// An ascending iteration with no affine term.
    pub fn up(init: Vec<u64>) -> IterationSpec {
        IterationSpec { init, affine: 0, trajectory: Trajectory::Up }
    }

    /// A descending iteration with no affine term.
    pub fn down(init: Vec<u64>) -> IterationSpec {
        IterationSpec { init, affine: 0, trajectory: Trajectory::Down }
    }
}

/// A complete PRT scheme: shared automaton, several iterations.
///
/// # Example
///
/// ```
/// use prt_core::PrtScheme;
/// use prt_gf::Field;
/// use prt_ram::{FaultKind, Geometry, Ram};
///
/// let scheme = PrtScheme::standard3(Field::new(1, 0b11)?)?;
/// let mut ram = Ram::new(Geometry::bom(16));
/// ram.inject(FaultKind::Transition { cell: 9, bit: 0, rising: false })?;
/// assert!(scheme.run(&mut ram)?.detected());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrtScheme {
    field: Field,
    feedback: Vec<u64>,
    iterations: Vec<IterationSpec>,
    preread: bool,
    final_readback: bool,
    name: String,
}

/// Result of running a scheme: one [`PiResult`] per iteration plus the
/// optional final-readback verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeResult {
    iterations: Vec<PiResult>,
    readback_errors: u64,
    readback_ops: u64,
    readback_cycles: u64,
}

impl SchemeResult {
    /// Per-iteration outcomes.
    pub fn iterations(&self) -> &[PiResult] {
        &self.iterations
    }

    /// Mismatches found by the final readback sweep (0 when disabled).
    pub fn readback_errors(&self) -> u64 {
        self.readback_errors
    }

    /// `true` if any iteration or the final readback flagged the memory.
    pub fn detected(&self) -> bool {
        self.readback_errors > 0 || self.iterations.iter().any(PiResult::detected)
    }

    /// Index of the first detecting iteration.
    pub fn first_detection(&self) -> Option<usize> {
        self.iterations.iter().position(PiResult::detected)
    }

    /// Total operations across iterations (including the readback sweep).
    pub fn ops(&self) -> u64 {
        self.iterations.iter().map(PiResult::ops).sum::<u64>() + self.readback_ops
    }

    /// Total device cycles across iterations (including the readback —
    /// fewer cycles than reads on a multi-port readback sweep).
    pub fn cycles(&self) -> u64 {
        self.iterations.iter().map(PiResult::cycles).sum::<u64>() + self.readback_cycles
    }
}

impl PrtScheme {
    /// Builds a scheme from explicit iterations.
    ///
    /// # Errors
    ///
    /// * [`PrtError::EmptyScheme`] with no iterations.
    /// * LFSR validation errors for any malformed iteration.
    pub fn new(
        field: Field,
        feedback: &[u64],
        iterations: Vec<IterationSpec>,
    ) -> Result<PrtScheme, PrtError> {
        if iterations.is_empty() {
            return Err(PrtError::EmptyScheme);
        }
        for spec in &iterations {
            PiTest::new(field.clone(), feedback, &spec.init)?.with_affine(spec.affine)?;
        }
        Ok(PrtScheme {
            field,
            feedback: feedback.to_vec(),
            iterations,
            preread: false,
            final_readback: false,
            name: "PRT".to_string(),
        })
    }

    /// Enables or disables pre-read mode.
    pub fn with_preread(mut self, preread: bool) -> PrtScheme {
        self.preread = preread;
        self
    }

    /// Enables a final verification sweep: after the last iteration every
    /// cell is read once and compared with the expected final contents
    /// (`+n` reads). This observes corruption deposited *by* the last
    /// iteration, which no later pre-read would see.
    pub fn with_final_readback(mut self, on: bool) -> PrtScheme {
        self.final_readback = on;
        self
    }

    /// Sets a display name for reports.
    pub fn with_name(mut self, name: impl Into<String>) -> PrtScheme {
        self.name = name.into();
        self
    }

    /// The **standard 3-iteration scheme** reproducing the paper's §3
    /// claim ("all single and multi-cell memory faults are detected in 3
    /// π-test iterations with a specific TDB"): three pre-read π-iterations
    /// over the paper's own generator (`g = 1 + 2x + 2x²` for word widths,
    /// `g = 1 + x + x²` for bit-oriented memories), with the *complement
    /// iteration* in the middle:
    ///
    /// 1. `Init = (0, 1)`, plain (power-up contents unknown),
    /// 2. `Init = (¬0, ¬1)` with affine term `e = K·(1 ⊕ c1 ⊕ c2)`
    ///    (`K` = all-ones) — the exact complement of iteration 1, so every
    ///    cell transitions on every write,
    /// 3. `Init = (0, 1)` again — the complement of iteration 2,
    ///
    /// followed by a final readback sweep. The complement structure makes
    /// every cell flip in both directions inside the pre-read-observable
    /// window, giving **measured 100% coverage of SAF, TF, CFin, CFst, AF,
    /// SOF and the read/write-logic faults — but exactly 50% of CFid**:
    /// with three iterations, each (cell pair, trigger direction) has one
    /// observable trigger occurrence and therefore exposes only one of the
    /// two forced polarities. This gap is *structural* (no 3-iteration
    /// schedule closes it — [`search_tdb`] exhausts the space), which is
    /// the reproduction's honest verdict on the paper's §3 claim; see
    /// EXPERIMENTS.md E3. Use [`PrtScheme::standard4`] or
    /// [`PrtScheme::full_coverage`] to close the CFid gap.
    ///
    /// # Errors
    ///
    /// Field/LFSR validation errors (never for a well-formed field).
    pub fn standard3(field: Field) -> Result<PrtScheme, PrtError> {
        let mask = field.mask();
        let feedback: Vec<u64> = if field.degree() == 1 { vec![1, 1, 1] } else { vec![1, 2, 2] };
        let init: Vec<u64> = vec![0, 1];
        let compl: Vec<u64> = init.iter().map(|&s| s ^ mask).collect();
        // e = K·(1 ⊕ c1 ⊕ c2): the affine constant under which the
        // complemented sequence satisfies the same recurrence.
        let c_sum = field.add(1, field.add(feedback[1], feedback[2]));
        let e = field.mul(mask, c_sum);
        let iterations = vec![
            IterationSpec::up(init.clone()),
            IterationSpec { init: compl, affine: e, trajectory: Trajectory::Up },
            IterationSpec::up(init),
        ];
        Ok(PrtScheme::new(field, &feedback, iterations)?
            .with_preread(true)
            .with_final_readback(true)
            .with_name("PRT standard3 (pre-read)"))
    }

    /// The **standard 4-iteration scheme** — [`PrtScheme::standard3`] plus
    /// a second seed pair: patterns `V₁, ¬V₁, V₂, ¬V₂`. The extra pair
    /// gives every (aggressor, direction) a *second* same-direction trigger
    /// at the opposite victim polarity, which is exactly what idempotent
    /// coupling faults (CFid) need; 4 iterations achieve 100% on the full
    /// single- and multi-cell universe including CFid (machine-verified).
    ///
    /// See EXPERIMENTS.md E3 for the 3-vs-4-iteration coverage table and
    /// the argument why *no* 3-iteration schedule can cover all CFid under
    /// textbook fault semantics.
    ///
    /// # Errors
    ///
    /// Field/LFSR validation errors (never for a well-formed field).
    pub fn standard4(field: Field) -> Result<PrtScheme, PrtError> {
        let mask = field.mask();
        let feedback: Vec<u64> = if field.degree() == 1 { vec![1, 1, 1] } else { vec![1, 2, 2] };
        let c_sum = field.add(1, field.add(feedback[1], feedback[2]));
        let e = field.mul(mask, c_sum);
        let seed1: Vec<u64> = vec![0, 1];
        let seed1c: Vec<u64> = seed1.iter().map(|&s| s ^ mask).collect();
        let seed2: Vec<u64> = vec![1, 0];
        let seed2c: Vec<u64> = seed2.iter().map(|&s| s ^ mask).collect();
        let iterations = vec![
            IterationSpec::up(seed1.clone()),
            IterationSpec { init: seed1c, affine: e, trajectory: Trajectory::Up },
            IterationSpec::up(seed2),
            IterationSpec { init: seed2c, affine: e, trajectory: Trajectory::Up },
        ];
        Ok(PrtScheme::new(field, &feedback, iterations)?
            .with_preread(true)
            .with_final_readback(true)
            .with_name("PRT standard4 (pre-read)"))
    }

    /// Constructs a scheme with **verified 100% coverage** of the paper's
    /// single- and multi-cell fault universe on the given geometry, by
    /// stacking complement seed-pairs (`V, ¬V` iterations) until exhaustive
    /// fault simulation confirms completeness.
    ///
    /// Returns the scheme together with the universe size it was verified
    /// against. The iteration count starts at 3 (the paper's number) and
    /// grows only as far as the geometry demands — experiment E3 reports
    /// the measured count per memory size. Verification is exhaustive
    /// simulation (quadratic in `cells` for coupling faults), so this
    /// constructor is meant for BIST *configuration time*, not for each
    /// test run; keep `cells` moderate (≤ a few hundred) and reuse the
    /// returned scheme.
    ///
    /// # Errors
    ///
    /// * [`PrtError::WidthMismatch`] if the geometry's width differs from
    ///   the field degree.
    /// * [`PrtError::EmptyScheme`] if no complete scheme is found within
    ///   16 iterations (not observed for any geometry in the test suite).
    pub fn full_coverage(
        field: Field,
        geom: prt_ram::Geometry,
    ) -> Result<(PrtScheme, usize), PrtError> {
        use prt_ram::UniverseSpec;
        if geom.width() != field.degree() {
            return Err(PrtError::WidthMismatch {
                field_bits: field.degree(),
                memory_bits: geom.width(),
            });
        }
        let spec = UniverseSpec { intra_word: true, ..UniverseSpec::paper_claim() };
        let universe = FaultUniverse::enumerate(geom, &spec);
        let mask = field.mask();
        let feedback: Vec<u64> = if field.degree() == 1 { vec![1, 1, 1] } else { vec![1, 2, 2] };
        let c_sum = field.add(1, field.add(feedback[1], feedback[2]));
        let e = field.mul(mask, c_sum);

        // Candidate pool: canonical seeds × affine × trajectory, plus (for
        // word widths) deterministic pseudo-random seeds to decorrelate the
        // bit planes of the GF(2^m) sequences.
        let cb = checkerboard(field.degree());
        let mut seeds: Vec<Vec<u64>> = vec![vec![0, 1], vec![1, 0], vec![1, 1], vec![0, 0]];
        if field.degree() > 1 {
            seeds.push(vec![cb, cb ^ mask]);
            seeds.push(vec![cb ^ mask, cb]);
            seeds.push(vec![mask, 0]);
            seeds.push(vec![0, mask]);
            let mut rng = prt_ram::SplitMix64::new(0x5EED_7DB0);
            let mut attempts = 0;
            while seeds.len() < 20 && attempts < 256 {
                attempts += 1;
                let cand = vec![rng.next_u64() & mask, rng.next_u64() & mask];
                if !seeds.contains(&cand) {
                    seeds.push(cand);
                }
            }
        }
        let mut pool: Vec<IterationSpec> = Vec::new();
        for s in &seeds {
            for aff in [0, e] {
                for traj in [Trajectory::Up, Trajectory::Down] {
                    pool.push(IterationSpec { init: s.clone(), affine: aff, trajectory: traj });
                }
            }
        }

        // Start from the paper's 3-iteration schedule, then greedily append
        // the candidate that kills the most remaining escapes (set-cover
        // heuristic), re-verifying globally after each append because the
        // final-readback channel moves with the last iteration. Both the
        // global verification sweeps and the per-candidate kill counts run
        // compiled programs on the campaign engine (each candidate schedule
        // is lowered to the IR once, then swept over the whole escape set).
        let mut iterations = PrtScheme::standard3(field.clone())?.iterations.clone();
        let run_escapes = |iters: &[IterationSpec]| -> Result<Vec<usize>, PrtError> {
            let program = PrtScheme::new(field.clone(), &feedback, iters.to_vec())?
                .with_preread(true)
                .with_final_readback(true)
                .compile(geom)?;
            Ok(Campaign::new(&universe, &program).escapes())
        };
        let mut escapes = run_escapes(&iterations)?;
        while !escapes.is_empty() && iterations.len() < 32 {
            let escaped: Vec<FaultKind> =
                escapes.iter().map(|&fi| universe.faults()[fi].clone()).collect();
            let mut best: Option<(usize, usize)> = None; // (pool idx, kills)
            for (ci, cand) in pool.iter().enumerate() {
                let mut trial = iterations.clone();
                trial.push(cand.clone());
                let program = PrtScheme::new(field.clone(), &feedback, trial)?
                    .with_preread(true)
                    .with_final_readback(true)
                    .compile(geom)?;
                let kills = Campaign::over(geom, &escaped, &program).count_detected();
                if best.is_none_or(|(_, k)| kills > k) {
                    best = Some((ci, kills));
                }
            }
            let (ci, kills) = best.expect("pool is non-empty");
            if kills == 0 {
                return Err(PrtError::EmptyScheme); // greedy stalled
            }
            iterations.push(pool[ci].clone());
            escapes = run_escapes(&iterations)?;
        }
        if !escapes.is_empty() {
            return Err(PrtError::EmptyScheme);
        }
        let t = iterations.len();
        let scheme = PrtScheme::new(field, &feedback, iterations)?
            .with_preread(true)
            .with_final_readback(true)
            .with_name(format!("PRT full ×{t}"));
        Ok((scheme, universe.len()))
    }

    /// The **plain-mode schedule** at the paper's `3n` per-iteration cost:
    /// `iters` iterations drawn from a complement-pair TDB table (each
    /// seed followed by its complemented-affine twin, alternating ⇑/⇓
    /// between pairs). Every cell sees both logic values and both write
    /// transitions, so SAF and TF reach full coverage from 2 iterations on;
    /// coupling coverage is structurally partial in this mode (see module
    /// docs) — that gap is precisely what experiment E3 measures.
    ///
    /// # Errors
    ///
    /// [`PrtError::EmptyScheme`] when `iters == 0`; field validation
    /// otherwise.
    pub fn plain(field: Field, iters: usize) -> Result<PrtScheme, PrtError> {
        let mask = field.mask();
        let feedback: Vec<u64> = if field.degree() == 1 { vec![1, 1, 1] } else { vec![1, 2, 2] };
        let c_sum = field.add(1, field.add(feedback[1], feedback[2]));
        let e = field.mul(mask, c_sum);
        let seeds: [[u64; 2]; 3] = [[0, 1], [1, 0], [1, 1]];
        let mut table: Vec<IterationSpec> = Vec::new();
        for (si, s) in seeds.iter().enumerate() {
            let traj = if si % 2 == 0 { Trajectory::Up } else { Trajectory::Down };
            table.push(IterationSpec { init: s.to_vec(), affine: 0, trajectory: traj });
            table.push(IterationSpec {
                init: s.iter().map(|&v| v ^ mask).collect(),
                affine: e,
                trajectory: traj,
            });
        }
        let iterations: Vec<IterationSpec> = table.into_iter().cycle().take(iters).collect();
        let name = format!("PRT plain ×{iters}");
        Ok(PrtScheme::new(field, &feedback, iterations)?.with_name(name))
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared field.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// Feedback polynomial coefficients `[g0, …, gk]`.
    pub fn feedback(&self) -> &[u64] {
        &self.feedback
    }

    /// The iteration specs.
    pub fn iterations(&self) -> &[IterationSpec] {
        &self.iterations
    }

    /// `true` when pre-read mode is enabled.
    pub fn preread(&self) -> bool {
        self.preread
    }

    /// Operations per memory cell (the `k` of `kn`): `(k+1)` per plain
    /// iteration, `(k+2)` per pre-read iteration (first iteration always
    /// runs plain), `+1` for the final readback sweep.
    pub fn ops_per_cell(&self) -> usize {
        let k = self.feedback.len() - 1;
        let plain = k + 1;
        let pre = k + 2;
        let body = if self.preread {
            plain + pre * (self.iterations.len() - 1)
        } else {
            plain * self.iterations.len()
        };
        body + usize::from(self.final_readback)
    }

    /// Runs all iterations back-to-back on `mem`.
    ///
    /// In pre-read mode, iteration `j > 0` checks every stale cell against
    /// the expected contents left by iteration `j − 1`; the first iteration
    /// runs plain (power-up contents are unknown).
    ///
    /// # Errors
    ///
    /// Geometry/port errors from the underlying [`PiTest`] runs.
    pub fn run<M: MemoryDevice>(&self, mem: &mut M) -> Result<SchemeResult, PrtError> {
        let n = mem.geometry().cells();
        let mut results = Vec::with_capacity(self.iterations.len());
        let mut prev_contents: Option<Vec<u64>> = None;
        for spec in &self.iterations {
            let pi = self.pi_for(spec)?;
            let res = if self.preread {
                pi.run_with_preread(mem, prev_contents.as_deref())?
            } else {
                pi.run(mem)?
            };
            results.push(res);
            prev_contents = Some(self.expected_contents(&pi, n));
        }
        let (readback_errors, readback_ops) = if self.final_readback {
            let expected = prev_contents.expect("at least one iteration ran");
            let mut errors = 0u64;
            for (addr, &want) in expected.iter().enumerate() {
                if mem.read(addr) != want {
                    errors += 1;
                }
            }
            (errors, n as u64)
        } else {
            (0, 0)
        };
        Ok(SchemeResult {
            iterations: results,
            readback_errors,
            readback_ops,
            readback_cycles: readback_ops,
        })
    }

    /// Compiles the whole scheme for `geom` into **one flat single-port
    /// [`TestProgram`]**: every iteration's π-ops back to back (stale
    /// expectations baked in when pre-read mode is on; the first iteration
    /// always runs plain), followed by the final-readback sweep when
    /// enabled. One marker per iteration (the readback gets the next id).
    ///
    /// The program is verdict-identical to [`PrtScheme::run`]
    /// (property-tested); campaigns compile once and run it per trial —
    /// this is what [`PrtScheme::coverage`] and the greedy
    /// [`PrtScheme::full_coverage`] synthesis execute.
    ///
    /// # Errors
    ///
    /// As [`PrtScheme::run`] (geometry validation).
    pub fn compile(&self, geom: Geometry) -> Result<TestProgram, PrtError> {
        let mut b = ProgramBuilder::new(geom).with_name(self.name.clone());
        let prev = self.compile_iterations_into(&mut b, geom, false)?;
        if self.final_readback {
            b.mark(self.iterations.len() as u32);
            for (addr, &want) in prev.iter().enumerate() {
                b.read_expect(addr, want);
            }
        }
        Ok(b.build())
    }

    /// Compiles the scheme's dual-port schedule into one flat two-port
    /// [`TestProgram`]. In pre-read mode every wave write fuses its stale
    /// check into the write cycle ([`PiTest::compile_dual_port`]), so the
    /// pre-read schedule runs at plain-mode cycle cost (`≈ 2n` per
    /// iteration instead of the single-port pre-read's `4n` operations) —
    /// the dual-port pre-read scheduling mode, realised as a program
    /// transformation. The final readback, when enabled, pairs its reads
    /// two per cycle (`⌈n/2⌉` cycles).
    ///
    /// # Errors
    ///
    /// As [`PrtScheme::run`] (geometry validation).
    pub fn compile_dual_port(&self, geom: Geometry) -> Result<TestProgram, PrtError> {
        let mut b = ProgramBuilder::new(geom).with_name(format!("{} (dual-port)", self.name));
        let prev = self.compile_iterations_into(&mut b, geom, true)?;
        if self.final_readback {
            b.mark(self.iterations.len() as u32);
            compile_dual_readback_into(&mut b, &prev);
        }
        Ok(b.build())
    }

    /// The scheme's iteration-threading policy in ONE place: walks the
    /// iterations in order, handing each one's `PiTest` and stale
    /// expectations (the previous iteration's fault-free contents in
    /// pre-read mode; the first iteration always runs plain) to `visit`.
    /// Returns the expected memory contents after the last iteration (the
    /// readback expectations). Shared by the flat compilers and
    /// [`PrtScheme::run_dual_port`] so single-run and campaign paths can
    /// never drift apart.
    fn for_each_iteration<F>(&self, n: usize, mut visit: F) -> Result<Vec<u64>, PrtError>
    where
        F: FnMut(usize, &PiTest, Option<&[u64]>) -> Result<(), PrtError>,
    {
        let mut prev: Option<Vec<u64>> = None;
        for (j, spec) in self.iterations.iter().enumerate() {
            let pi = self.pi_for(spec)?;
            let stale = if self.preread { prev.as_deref() } else { None };
            visit(j, &pi, stale)?;
            prev = Some(self.expected_contents(&pi, n));
        }
        Ok(prev.expect("schemes have at least one iteration"))
    }

    /// Appends every iteration's ops to `b`; returns the expected memory
    /// contents after the last iteration (the readback expectations).
    fn compile_iterations_into(
        &self,
        b: &mut ProgramBuilder,
        geom: Geometry,
        dual_port: bool,
    ) -> Result<Vec<u64>, PrtError> {
        self.for_each_iteration(geom.cells(), |j, pi, stale| {
            b.mark(j as u32);
            if dual_port {
                pi.compile_dual_into(b, geom, stale)
            } else {
                pi.compile_into(b, geom, stale)
            }
        })
    }

    /// Runs all iterations with the dual-port schedule, executing the
    /// compiled per-iteration programs of [`PiTest::compile_dual_port`].
    /// In pre-read mode (e.g. [`PrtScheme::standard3`]) the stale checks
    /// ride inside the write cycles — the pre-read scheduling the
    /// single-port path pays `4n` operations for comes at plain-mode
    /// dual-port cycle cost. The final readback, when enabled, reads two
    /// cells per cycle.
    ///
    /// # Errors
    ///
    /// Geometry/port errors from the underlying compiled programs.
    pub fn run_dual_port(&self, ram: &mut Ram) -> Result<SchemeResult, PrtError> {
        let geom = ram.geometry();
        let n = geom.cells();
        let mut results = Vec::with_capacity(self.iterations.len());
        let mut fin = Vec::new();
        let expected = self.for_each_iteration(n, |_, pi, stale| {
            let program = pi.compile_dual_port(geom, stale)?;
            if ram.ports() < 2 {
                return Err(PrtError::NotEnoughPorts { have: ram.ports(), need: 2 });
            }
            let exec = program.execute(ram, false, Some(&mut fin))?;
            results.push(PiResult::from_execution(fin.clone(), pi.fin_star(n), &exec));
            Ok(())
        })?;
        let (readback_errors, readback_ops, readback_cycles) = if self.final_readback {
            let mut b = ProgramBuilder::new(geom).with_name("readback");
            compile_dual_readback_into(&mut b, &expected);
            let exec = b.build().execute(ram, false, None)?;
            (exec.mismatches, exec.ops, exec.cycles)
        } else {
            (0, 0, 0)
        };
        Ok(SchemeResult { iterations: results, readback_errors, readback_ops, readback_cycles })
    }

    fn pi_for(&self, spec: &IterationSpec) -> Result<PiTest, PrtError> {
        Ok(PiTest::new(self.field.clone(), &self.feedback, &spec.init)?
            .with_affine(spec.affine)?
            .with_trajectory(spec.trajectory))
    }

    /// Expected memory contents **by address** after a fault-free run of
    /// `pi` on an `n`-cell memory.
    fn expected_contents(&self, pi: &PiTest, n: usize) -> Vec<u64> {
        let order = pi.trajectory().order(n);
        let seq = pi.expected_sequence(n);
        let mut by_addr = vec![0u64; n];
        for (pos, &cell) in order.iter().enumerate() {
            by_addr[cell] = seq[pos];
        }
        by_addr
    }

    /// Measures this scheme's coverage over a fault universe, in the same
    /// report format as the March engine (E3/E4 driver). Compiles the
    /// scheme once for the universe's geometry and runs the program on
    /// the campaign engine (lane-batched, parallel fan-out, deterministic
    /// aggregation).
    ///
    /// # Errors
    ///
    /// As [`PrtScheme::compile`]: a geometry that cannot host the
    /// automaton is refused before any trial runs.
    pub fn coverage(&self, universe: &FaultUniverse) -> Result<CoverageReport, PrtError> {
        let program = self.compile(universe.geometry())?;
        Ok(Campaign::new(universe, &program).with_name(self.name.clone()).run())
    }
}

/// Appends the dual-port final-readback sweep to `b`: every cell read
/// once on the verdict channel, paired two per cycle (`⌈n/2⌉` cycles).
/// Shared by the flat scheme compiler and `run_dual_port`'s per-segment
/// execution so the two can never drift apart.
fn compile_dual_readback_into(b: &mut ProgramBuilder, expected: &[u64]) {
    b.cycle2_pairs(
        expected
            .iter()
            .enumerate()
            .map(|(addr, &expect)| SlotOp::ReadExpect { addr: addr as u32, expect }),
    );
}

/// Checkerboard pattern `…0101` of the given bit width.
fn checkerboard(width: u32) -> u64 {
    let mut p = 0u64;
    let mut b = 0;
    while b < width {
        p |= 1 << b;
        b += 2;
    }
    p
}

/// Exhaustively searches TDB schedules of `iters` iterations for the one
/// with the highest coverage on `universe` (ties broken toward earlier
/// candidates). Candidate seeds are drawn from `seed_pool` (each a `k`-
/// element init), affine terms from `{0}`, trajectories from `{⇑, ⇓}`.
///
/// Returns `(best_scheme, best_report)`, or `None` when no candidate
/// schedule is a valid scheme. This is the derivation tool behind
/// [`PrtScheme::standard3`]; the `search_tdb` binary in `prt-bench` prints
/// its trace.
///
/// # Errors
///
/// As [`PrtScheme::coverage`]: a universe whose geometry cannot host the
/// automaton.
pub fn search_tdb(
    field: &Field,
    feedback: &[u64],
    seed_pool: &[Vec<u64>],
    iters: usize,
    preread: bool,
    universe: &FaultUniverse,
) -> Result<Option<(PrtScheme, CoverageReport)>, PrtError> {
    let mut candidates: Vec<IterationSpec> = Vec::new();
    for init in seed_pool {
        for traj in [Trajectory::Up, Trajectory::Down] {
            candidates.push(IterationSpec { init: init.clone(), affine: 0, trajectory: traj });
        }
    }
    let mut best: Option<(PrtScheme, CoverageReport, f64)> = None;
    let mut stack = vec![0usize; iters];
    'odometer: loop {
        let specs: Vec<IterationSpec> = stack.iter().map(|&i| candidates[i].clone()).collect();
        if let Ok(scheme) = PrtScheme::new(field.clone(), feedback, specs) {
            let scheme = scheme
                .with_preread(preread)
                .with_final_readback(preread)
                .with_name(format!("search {stack:?}"));
            let report = scheme.coverage(universe)?;
            let pct = report.overall_percent();
            let better = match &best {
                Some((_, _, b)) => pct > *b,
                None => true,
            };
            if better {
                let complete = report.complete();
                best = Some((scheme, report, pct));
                if complete {
                    break; // cannot improve on 100%
                }
            }
        }
        // Odometer increment.
        let mut pos = iters;
        loop {
            if pos == 0 {
                break 'odometer;
            }
            pos -= 1;
            stack[pos] += 1;
            if stack[pos] < candidates.len() {
                break;
            }
            stack[pos] = 0;
        }
    }
    Ok(best.map(|(s, r, _)| (s, r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_ram::{FaultKind, Geometry, UniverseSpec};

    fn gf2() -> Field {
        Field::new(1, 0b11).unwrap()
    }

    #[test]
    fn scheme_construction_validates() {
        assert!(matches!(PrtScheme::new(gf2(), &[1, 1, 1], vec![]), Err(PrtError::EmptyScheme)));
        assert!(PrtScheme::new(gf2(), &[1, 1, 1], vec![IterationSpec::up(vec![0, 1])]).is_ok());
        // Bad init length rejected.
        assert!(PrtScheme::new(gf2(), &[1, 1, 1], vec![IterationSpec::up(vec![0])]).is_err());
    }

    #[test]
    fn fault_free_memory_passes_standard3() {
        let scheme = PrtScheme::standard3(gf2()).unwrap();
        let mut ram = Ram::new(Geometry::bom(24));
        let res = scheme.run(&mut ram).unwrap();
        assert!(!res.detected());
        assert_eq!(res.first_detection(), None);
        assert_eq!(res.iterations().len(), 3);
    }

    #[test]
    fn standard3_covers_everything_but_half_of_cfid() {
        // THE §3 CLAIM, measured: the paper states all single- and
        // multi-cell faults are detected in 3 iterations. Under textbook
        // fault semantics every class reproduces EXCEPT idempotent
        // coupling: with 3 iterations each (pair, trigger-direction) has
        // exactly one observable occurrence, hence covers exactly one of
        // the two forced polarities — 50% of CFid, structurally
        // (EXPERIMENTS.md E3 documents the argument).
        let scheme = PrtScheme::standard3(gf2()).unwrap();
        let u = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        let report = scheme.coverage(&u).unwrap();
        for row in report.rows() {
            if row.class == "CFid" {
                assert_eq!(
                    row.detected * 2,
                    row.total,
                    "CFid coverage should be exactly half: {}/{}",
                    row.detected,
                    row.total
                );
            } else {
                assert!(row.complete(), "{}: {}/{} detected", row.class, row.detected, row.total);
            }
        }
    }

    #[test]
    fn standard3_wom_covers_everything_but_cfid() {
        let field = Field::new(4, 0b1_0011).unwrap();
        let scheme = PrtScheme::standard3(field).unwrap();
        let spec = UniverseSpec {
            coupling_radius: Some(3),
            intra_word: true,
            ..UniverseSpec::paper_claim()
        };
        let u = FaultUniverse::enumerate(Geometry::wom(9, 4).unwrap(), &spec);
        let report = scheme.coverage(&u).unwrap();
        for row in report.rows() {
            match row.class {
                // The 3-iteration structural gap (as in the BOM case)…
                "CFid" => {
                    assert!(!row.complete(), "CFid has a structural 3-iteration gap");
                    assert!(row.percent() > 30.0, "CFid far too low: {}", row.percent());
                }
                // …plus the word-oriented finding: *intra-word* state
                // coupling between lockstep-correlated bit planes is only
                // half-visible; the paper's own remedy is the §2
                // decorrelated ("random") plane seeding measured in E4.
                "CFst" => {
                    assert!(row.percent() > 80.0, "CFst unexpectedly low: {}", row.percent());
                }
                _ => assert!(
                    row.complete(),
                    "{}: {}/{} detected",
                    row.class,
                    row.detected,
                    row.total
                ),
            }
        }
    }

    #[test]
    fn standard4_narrows_the_cfid_gap() {
        let u = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        let r3 = PrtScheme::standard3(gf2()).unwrap().coverage(&u).unwrap();
        let r4 = PrtScheme::standard4(gf2()).unwrap().coverage(&u).unwrap();
        let (c3, c4) = (r3.class("CFid").unwrap(), r4.class("CFid").unwrap());
        assert!(c4.detected > c3.detected, "4 iterations must beat 3 on CFid");
        for row in r4.rows() {
            if row.class != "CFid" {
                assert!(row.complete(), "{}: {}/{}", row.class, row.detected, row.total);
            }
        }
    }

    #[test]
    fn full_coverage_synthesis_reaches_100_percent_bom() {
        // Greedy TDB synthesis: 5 pre-read iterations cover the whole
        // universe (size-independent; see fig/table E3).
        let (scheme, verified) = PrtScheme::full_coverage(gf2(), Geometry::bom(9)).unwrap();
        assert!(verified > 700);
        assert!(scheme.iterations().len() <= 6);
        let u = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        assert!(scheme.coverage(&u).unwrap().complete());
    }

    #[test]
    fn full_coverage_surfaces_memory_too_small() {
        // The synthesis compiles every schedule it sweeps, so a memory too
        // small for the automaton surfaces as the precise compile error,
        // not as a greedy stall.
        assert!(matches!(
            PrtScheme::full_coverage(gf2(), Geometry::bom(2)),
            Err(PrtError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    fn coverage_refuses_a_width_mismatched_universe() {
        // GF(16) needs 4-bit cells: the compile error comes back typed
        // instead of as an all-escape report.
        let scheme = PrtScheme::standard3(Field::new(4, 0b1_0011).unwrap()).unwrap();
        let u = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        assert_eq!(
            scheme.coverage(&u),
            Err(PrtError::WidthMismatch { field_bits: 4, memory_bits: 1 })
        );
    }

    #[test]
    fn plain_mode_covers_saf_tf_but_not_couplings() {
        let scheme = PrtScheme::plain(gf2(), 4).unwrap();
        let u = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        let report = scheme.coverage(&u).unwrap();
        for class in ["SAF", "TF"] {
            let row = report.class(class).unwrap();
            assert!(row.complete(), "{class}: {}/{}", row.detected, row.total);
        }
        // The structural blind spot: distant CFin/CFid escape plain mode.
        let cfin = report.class("CFin").unwrap();
        assert!(
            !cfin.complete(),
            "plain mode should NOT fully cover CFin (got {}/{})",
            cfin.detected,
            cfin.total
        );
    }

    #[test]
    fn preread_ops_per_cell_accounting() {
        let s3 = PrtScheme::standard3(gf2()).unwrap();
        // plain first iteration (3) + two pre-read iterations (4 each)
        // + the final readback sweep (1).
        assert_eq!(s3.ops_per_cell(), 12);
        let p2 = PrtScheme::plain(gf2(), 2).unwrap();
        assert_eq!(p2.ops_per_cell(), 6);
    }

    #[test]
    fn measured_ops_match_ops_per_cell() {
        let n = 16usize;
        for scheme in [PrtScheme::standard3(gf2()).unwrap(), PrtScheme::plain(gf2(), 3).unwrap()] {
            let mut ram = Ram::new(Geometry::bom(n));
            let res = scheme.run(&mut ram).unwrap();
            let per_cell = scheme.ops_per_cell() as u64;
            // Exact op count differs from per-cell × n only by boundary
            // terms (±k per iteration).
            let slack = 4 * scheme.iterations().len() as u64;
            assert!(
                res.ops().abs_diff(per_cell * n as u64) <= slack,
                "{}: {} vs {}",
                scheme.name(),
                res.ops(),
                per_cell * n as u64
            );
        }
    }

    #[test]
    fn scheme_result_aggregation() {
        let scheme = PrtScheme::plain(gf2(), 2).unwrap();
        let mut ram = Ram::new(Geometry::bom(8));
        ram.inject(FaultKind::StuckAt { cell: 4, bit: 0, value: 1 }).unwrap();
        let res = scheme.run(&mut ram).unwrap();
        assert!(res.detected());
        assert!(res.first_detection().is_some());
        assert!(res.ops() > 0 && res.cycles() > 0);
    }

    #[test]
    fn dual_port_scheme_runs() {
        let scheme = PrtScheme::plain(gf2(), 3).unwrap();
        let mut ram = Ram::with_ports(Geometry::bom(12), 2).unwrap();
        let res = scheme.run_dual_port(&mut ram).unwrap();
        assert!(!res.detected());
        // 3 iterations × (2n − 2) cycles.
        assert_eq!(res.cycles(), 3 * (2 * 12 - 2));
    }

    #[test]
    fn compiled_scheme_matches_interpreted_over_universe() {
        // The coverage path executes the compiled flat program; the
        // interpreted oracle must agree on every single verdict.
        let u = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        for scheme in [
            PrtScheme::standard3(gf2()).unwrap(),
            PrtScheme::standard4(gf2()).unwrap(),
            PrtScheme::plain(gf2(), 4).unwrap(),
        ] {
            let program = scheme.compile(u.geometry()).unwrap();
            let compiled = Campaign::new(&u, &program).detections();
            let interpreted = Campaign::new(&u, |ram: &mut Ram, _bg: u64| {
                scheme.run(ram).is_ok_and(|res| res.detected())
            })
            .detections();
            assert_eq!(compiled, interpreted, "{}", scheme.name());
        }
    }

    #[test]
    fn compiled_scheme_program_structure() {
        let scheme = PrtScheme::standard3(gf2()).unwrap();
        let geom = Geometry::bom(16);
        let program = scheme.compile(geom).unwrap();
        // One marker per iteration plus the readback sweep.
        assert_eq!(program.marks().len(), 4);
        assert_eq!(program.ports(), 1);
        // Fault-free execution is clean and costs what run() costs.
        let mut ram = Ram::new(geom);
        let exec = program.execute(&mut ram, false, None).unwrap();
        assert!(!exec.detected());
        let mut ram2 = Ram::new(geom);
        let res = scheme.run(&mut ram2).unwrap();
        assert_eq!(exec.ops, res.ops());
        assert_eq!(exec.cycles, res.cycles());
    }

    #[test]
    fn dual_port_preread_closes_the_distant_coupling_blind_spot() {
        // THE ROADMAP ITEM: pre-read scheduling on two ports. A distant
        // inversion coupling (aggressor far after the victim in the
        // trajectory) structurally escapes plain-mode schedules; the
        // pre-read program transformation catches it — now on the
        // dual-port schedule too, at plain-mode cycle cost.
        let n = 16usize;
        let fault = FaultKind::CouplingInversion {
            agg_cell: 12,
            agg_bit: 0,
            victim_cell: 3,
            victim_bit: 0,
            trigger: prt_ram::CouplingTrigger::Rise,
        };
        let plain = PrtScheme::plain(gf2(), 3).unwrap();
        let mut ram = Ram::with_ports(Geometry::bom(n), 2).unwrap();
        ram.inject(fault.clone()).unwrap();
        let res = plain.run_dual_port(&mut ram).unwrap();
        assert!(!res.detected(), "distant CFin must escape the plain dual-port schedule");

        let preread = PrtScheme::standard3(gf2()).unwrap();
        let mut ram = Ram::with_ports(Geometry::bom(n), 2).unwrap();
        ram.inject(fault).unwrap();
        let res = preread.run_dual_port(&mut ram).unwrap();
        assert!(res.detected(), "dual-port pre-read must catch the distant CFin");
        // Cycle budget: 3 iterations (first plain: 2n−2; two pre-read:
        // 2n−1 each) + paired readback (⌈n/2⌉).
        let expected = (2 * n as u64 - 2) + 2 * (2 * n as u64 - 1) + n.div_ceil(2) as u64;
        assert_eq!(res.cycles(), expected);
    }

    #[test]
    fn dual_port_preread_matches_single_port_verdicts() {
        // Verdict parity between the single-port pre-read scheme and its
        // dual-port compilation over the whole paper-claim universe.
        let u = FaultUniverse::enumerate(Geometry::bom(9), &UniverseSpec::paper_claim());
        let scheme = PrtScheme::standard3(gf2()).unwrap();
        let single = Campaign::new(&u, |ram: &mut Ram, _bg: u64| {
            scheme.run(ram).is_ok_and(|res| res.detected())
        })
        .detections();
        let dual_prog = scheme.compile_dual_port(u.geometry()).unwrap();
        let dual = Campaign::new(&u, &dual_prog).with_ports(2).detections();
        // The planned default runs this dense universe on the full pass;
        // the forced sliced engine must agree with it exactly.
        let sliced = Campaign::new(&u, &dual_prog).with_ports(2).with_slicing(true).detections();
        assert_eq!(dual, sliced, "sliced dual-port verdicts diverged");
        // The two schedules are not observation-identical: a dual-port
        // cycle commits simultaneous writes in port order, which decoder
        // (AF) faults can observe. Everything outside AF must agree
        // verdict-for-verdict, and the disagreements must stay rare.
        let disagreements: Vec<usize> = single
            .iter()
            .zip(&dual)
            .enumerate()
            .filter_map(|(i, (s, d))| (s != d).then_some(i))
            .collect();
        for &i in &disagreements {
            assert_eq!(
                u.faults()[i].mnemonic(),
                "AF",
                "only decoder faults may be schedule-sensitive: {:?}",
                u.faults()[i]
            );
        }
        assert!(disagreements.len() <= u.len() / 100, "{} disagreements", disagreements.len());
    }

    #[test]
    fn checkerboard_patterns() {
        assert_eq!(checkerboard(1), 0b1);
        assert_eq!(checkerboard(4), 0b0101);
        assert_eq!(checkerboard(8), 0b0101_0101);
    }

    #[test]
    fn search_finds_complete_scheme_on_tiny_universe() {
        // Smoke test of the derivation tool on a small universe.
        let field = gf2();
        let pool = vec![vec![0, 1], vec![1, 0], vec![1, 1], vec![0, 0]];
        let u = FaultUniverse::enumerate(Geometry::bom(6), &UniverseSpec::single_cell());
        let found = search_tdb(&field, &[1, 1, 1], &pool, 3, true, &u).expect("GF(2) on BOM");
        let (_, report) = found.expect("search returns something");
        assert!(report.complete(), "3 pre-read iterations must cover SAF+TF");
    }
}
