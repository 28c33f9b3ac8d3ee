//! Exhaustive fault-universe enumeration.
//!
//! The coverage experiments (E3, E4, E10) and the paper's §3 claim ("all
//! single and multi-cell memory faults are detected in 3 π-test iterations")
//! quantify detection over a *universe*: every instance of the selected
//! fault models on a given geometry. This module enumerates those
//! universes deterministically so the experiment tables are reproducible.

use crate::fault::{CouplingTrigger, FaultKind};
use crate::{Geometry, Ram, SplitMix64, Topology};

/// Which fault classes to include in a universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniverseSpec {
    /// Stuck-at 0/1 on every bit.
    pub saf: bool,
    /// Up/down transition faults on every bit.
    pub tf: bool,
    /// Inversion coupling faults (both triggers) on cell pairs.
    pub cfin: bool,
    /// Idempotent coupling faults (both triggers × both forced values).
    pub cfid: bool,
    /// State coupling faults (both states × both forced values).
    pub cfst: bool,
    /// Address-decoder faults (all three modelled types).
    pub af: bool,
    /// Stuck-open cells.
    pub sof: bool,
    /// Destructive reads.
    pub rdf: bool,
    /// Deceptive destructive reads.
    pub drdf: bool,
    /// Incorrect reads.
    pub irf: bool,
    /// Write disturbs.
    pub wdf: bool,
    /// Restrict coupling pairs to |aggressor − victim| ≤ this distance
    /// (`None` = all ordered pairs; quadratic in the cell count).
    pub coupling_radius: Option<usize>,
    /// Also enumerate *intra-word* coupling faults (aggressor and victim
    /// bits within the same cell) for the enabled coupling classes —
    /// the word-oriented fault family of the paper's §2.
    pub intra_word: bool,
}

impl UniverseSpec {
    /// The classic "all single and multi-cell faults" universe the paper's
    /// §3 claim quantifies over: SAF + TF + CFin + CFid + CFst + AF.
    pub fn paper_claim() -> UniverseSpec {
        UniverseSpec {
            saf: true,
            tf: true,
            cfin: true,
            cfid: true,
            cfst: true,
            af: true,
            ..UniverseSpec::default()
        }
    }

    /// Single-cell static faults only (SAF + TF).
    pub fn single_cell() -> UniverseSpec {
        UniverseSpec { saf: true, tf: true, ..UniverseSpec::default() }
    }

    /// Everything this simulator models.
    pub fn full() -> UniverseSpec {
        UniverseSpec {
            saf: true,
            tf: true,
            cfin: true,
            cfid: true,
            cfst: true,
            af: true,
            sof: true,
            rdf: true,
            drdf: true,
            irf: true,
            wdf: true,
            coupling_radius: None,
            intra_word: true,
        }
    }
}

/// An enumerated universe of single-fault instances on a fixed geometry.
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    geom: Geometry,
    faults: Vec<FaultKind>,
    /// The physical topology the enumeration walked (identity unless
    /// built through [`FaultUniverse::enumerate_with`]).
    topology: Topology,
}

impl FaultUniverse {
    /// Enumerates the universe for `spec` on `geom` with the identity
    /// topology (logical = physical).
    pub fn enumerate(geom: Geometry, spec: &UniverseSpec) -> FaultUniverse {
        FaultUniverse::enumerate_with(geom, spec, Topology::identity(geom.cells()))
    }

    /// Enumerates the universe for `spec` on `geom` over a physical
    /// [`Topology`]: the enumeration loops walk **physical** coordinates
    /// — so the coupling radius is physical distance, decoder
    /// neighbour/shadow pairs are physically adjacent/opposite, and every
    /// other family sweeps the array in physical order — while the
    /// emitted [`FaultKind`] fields carry the corresponding **logical**
    /// addresses ([`Topology::to_logical`]), the space test programs and
    /// the port interface operate in. With the identity topology the
    /// walk and the output are bit-identical to [`FaultUniverse::enumerate`].
    ///
    /// # Panics
    ///
    /// Panics when `topology` covers a different cell count than `geom` —
    /// a whole-universe configuration error.
    pub fn enumerate_with(
        geom: Geometry,
        spec: &UniverseSpec,
        topology: Topology,
    ) -> FaultUniverse {
        assert_eq!(
            topology.cells(),
            geom.cells(),
            "topology cell count does not match the geometry"
        );
        let n = geom.cells();
        let m = geom.width();
        let log = |p: usize| topology.to_logical(p);
        let mut faults = Vec::new();

        if spec.saf {
            for cell in (0..n).map(log) {
                for bit in 0..m {
                    faults.push(FaultKind::StuckAt { cell, bit, value: 0 });
                    faults.push(FaultKind::StuckAt { cell, bit, value: 1 });
                }
            }
        }
        if spec.tf {
            for cell in (0..n).map(log) {
                for bit in 0..m {
                    faults.push(FaultKind::Transition { cell, bit, rising: true });
                    faults.push(FaultKind::Transition { cell, bit, rising: false });
                }
            }
        }
        // Physical a-major pair walk over each aggressor's radius window:
        // the radius restricts *physical* distance, then each side maps to
        // its logical address. Only the pair-coupling families need it.
        let mut pairs = Vec::new();
        if spec.cfin || spec.cfid || spec.cfst {
            let r = spec.coupling_radius.unwrap_or(n - 1).min(n - 1);
            for a in 0..n {
                for v in a.saturating_sub(r)..=(a + r).min(n - 1) {
                    if v != a {
                        pairs.push((log(a), log(v)));
                    }
                }
            }
        }
        if spec.cfin {
            for &(a, v) in &pairs {
                for (ab, vb) in bit_pairs(m) {
                    for trigger in [CouplingTrigger::Rise, CouplingTrigger::Fall] {
                        faults.push(FaultKind::CouplingInversion {
                            agg_cell: a,
                            agg_bit: ab,
                            victim_cell: v,
                            victim_bit: vb,
                            trigger,
                        });
                    }
                }
            }
        }
        if spec.cfid {
            for &(a, v) in &pairs {
                for (ab, vb) in bit_pairs(m) {
                    for trigger in [CouplingTrigger::Rise, CouplingTrigger::Fall] {
                        for force in [0u8, 1] {
                            faults.push(FaultKind::CouplingIdempotent {
                                agg_cell: a,
                                agg_bit: ab,
                                victim_cell: v,
                                victim_bit: vb,
                                trigger,
                                force,
                            });
                        }
                    }
                }
            }
        }
        if spec.cfst {
            for &(a, v) in &pairs {
                for (ab, vb) in bit_pairs(m) {
                    for agg_state in [0u8, 1] {
                        for force in [0u8, 1] {
                            faults.push(FaultKind::CouplingState {
                                agg_cell: a,
                                agg_bit: ab,
                                agg_state,
                                victim_cell: v,
                                victim_bit: vb,
                                force,
                            });
                        }
                    }
                }
            }
        }
        if spec.intra_word && m > 1 {
            let intra: Vec<(u32, u32)> =
                (0..m).flat_map(|a| (0..m).map(move |v| (a, v))).filter(|&(a, v)| a != v).collect();
            for cell in (0..n).map(log) {
                for &(ab, vb) in &intra {
                    if spec.cfin {
                        for trigger in [CouplingTrigger::Rise, CouplingTrigger::Fall] {
                            faults.push(FaultKind::CouplingInversion {
                                agg_cell: cell,
                                agg_bit: ab,
                                victim_cell: cell,
                                victim_bit: vb,
                                trigger,
                            });
                        }
                    }
                    if spec.cfid {
                        for trigger in [CouplingTrigger::Rise, CouplingTrigger::Fall] {
                            for force in [0u8, 1] {
                                faults.push(FaultKind::CouplingIdempotent {
                                    agg_cell: cell,
                                    agg_bit: ab,
                                    victim_cell: cell,
                                    victim_bit: vb,
                                    trigger,
                                    force,
                                });
                            }
                        }
                    }
                    if spec.cfst {
                        for agg_state in [0u8, 1] {
                            for force in [0u8, 1] {
                                faults.push(FaultKind::CouplingState {
                                    agg_cell: cell,
                                    agg_bit: ab,
                                    agg_state,
                                    victim_cell: cell,
                                    victim_bit: vb,
                                    force,
                                });
                            }
                        }
                    }
                }
            }
        }
        if spec.af {
            // Decoder faults pair *physically* related addresses: the
            // extra cell is the physical successor, the shadow sits
            // half the array away — both mapped to logical addresses.
            for addr in (0..n).map(log) {
                faults.push(FaultKind::DecoderNoAccess { addr });
            }
            for p in 0..n {
                let extra = log((p + 1) % n);
                faults.push(FaultKind::DecoderExtraCell { addr: log(p), extra_cell: extra });
                let instead_p = (p + n / 2).max(p + 1) % n;
                if instead_p != p {
                    faults.push(FaultKind::DecoderShadow {
                        addr: log(p),
                        instead_cell: log(instead_p),
                    });
                }
            }
        }
        if spec.sof {
            for cell in (0..n).map(log) {
                faults.push(FaultKind::StuckOpen { cell });
            }
        }
        for cell in (0..n).map(log) {
            for bit in 0..m {
                if spec.rdf {
                    faults.push(FaultKind::ReadDestructive { cell, bit });
                }
                if spec.drdf {
                    faults.push(FaultKind::DeceptiveRead { cell, bit });
                }
                if spec.irf {
                    faults.push(FaultKind::IncorrectRead { cell, bit });
                }
                if spec.wdf {
                    faults.push(FaultKind::WriteDisturb { cell, bit });
                }
            }
        }
        FaultUniverse { geom, faults, topology }
    }

    /// Geometry the universe was enumerated for.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The physical topology the enumeration walked.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of fault instances.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault instances.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Iterates `(fault, fresh single-fault memory)` pairs.
    pub fn instances(&self) -> impl Iterator<Item = (FaultKind, Ram)> + '_ {
        self.faults.iter().map(move |f| {
            let mut ram = Ram::new(self.geom);
            ram.inject(f.clone()).expect("enumerated faults are valid");
            (f.clone(), ram)
        })
    }

    /// Iterates `(fault, fresh P-port single-fault memory)` pairs.
    pub fn instances_with_ports(
        &self,
        ports: usize,
    ) -> impl Iterator<Item = (FaultKind, Ram)> + '_ {
        self.faults.iter().map(move |f| {
            let mut ram = Ram::with_ports(self.geom, ports).expect("port count validated");
            ram.inject(f.clone()).expect("enumerated faults are valid");
            (f.clone(), ram)
        })
    }

    /// Deterministically subsamples the universe down to at most `max`
    /// instances (keeps tables tractable for large geometries). The sample
    /// is seeded so every run selects the same instances.
    pub fn sample(mut self, max: usize, seed: u64) -> FaultUniverse {
        if self.faults.len() > max {
            let mut rng = SplitMix64::new(seed);
            rng.shuffle(&mut self.faults);
            self.faults.truncate(max);
        }
        self
    }

    /// Counts instances per mnemonic, for table headers.
    pub fn census(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for f in &self.faults {
            let m = f.mnemonic();
            match out.iter_mut().find(|(k, _)| *k == m) {
                Some((_, c)) => *c += 1,
                None => out.push((m, 1)),
            }
        }
        out
    }
}

/// The read/write-logic families in their enumeration order inside each
/// `(cell, bit)` sub-block of [`FaultUniverse::enumerate`]'s final loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RwKind {
    Rdf,
    Drdf,
    Irf,
    Wdf,
}

/// A **lazily enumerated** dense single-cell universe: the same fault
/// sequence [`FaultUniverse::enumerate`] would materialize for a spec
/// without coupling families, but computed on demand with O(1) random
/// access and O(1) memory.
///
/// Long-running services take jobs at `n ≥ 2²⁰`, where the dense universe
/// (`2(SAF) + 2(TF) + ~3(AF)/n + 1(SOF) + 4(RW)` instances per bit) runs
/// to tens of millions of `FaultKind`s — materializing it up front costs
/// hundreds of megabytes before the first trial runs. `LazyUniverse`
/// instead maps a universe **index** straight to its `FaultKind`, so a
/// shard scheduler can materialize one segment at a time and drop it when
/// the segment completes.
///
/// The enumeration **order is a contract**: `LazyUniverse` produces
/// exactly the sequence `FaultUniverse::enumerate(geom, spec).faults()`
/// yields for the same spec (asserted index-for-index in tests), so
/// verdict tables, checkpoints and streamed coverage deltas keyed by
/// universe index mean the same thing on either path.
///
/// Coupling families (CFin/CFid/CFst) enumerate over cell *pairs* — a
/// quadratic space callers restrict with
/// [`UniverseSpec::coupling_radius`]. The radius-filtered pair count per
/// aggressor is closed-form, so an index maps to its `(aggressor,
/// victim)` pair by inverting the pair-prefix function (a binary search
/// over aggressors — O(log n) arithmetic, still O(1) memory and
/// allocation-free); every other family decodes in O(1).
///
/// # Example
///
/// ```
/// use prt_ram::{FaultUniverse, Geometry, LazyUniverse, UniverseSpec};
///
/// let geom = Geometry::bom(1 << 10);
/// let spec = UniverseSpec { saf: true, tf: true, sof: true, ..UniverseSpec::default() };
/// let lazy = LazyUniverse::new(geom, spec);
/// let eager = FaultUniverse::enumerate(geom, &spec);
/// assert_eq!(lazy.len(), eager.len());
/// assert_eq!(lazy.fault(4321), eager.faults()[4321]);
/// ```
#[derive(Debug, Clone)]
pub struct LazyUniverse {
    geom: Geometry,
    /// Physical topology: decoded block coordinates are physical and map
    /// through [`Topology::to_logical`] on the way out — O(stage count)
    /// per lookup, no tables, so index→fault stays O(1) under scrambling.
    topology: Topology,
    /// Block sizes in enumeration order; an absent family contributes 0.
    saf: usize,
    tf: usize,
    cfin: usize,
    cfid: usize,
    cfst: usize,
    /// The intra-word coupling block (one sub-block per cell, the enabled
    /// classes interleaved per intra-cell bit pair).
    intra: usize,
    af: usize,
    sof: usize,
    /// Enabled coupling classes `[cfin, cfid, cfst]` — block sizes alone
    /// cannot recover these when the pair space is empty (n = 1 or
    /// radius 0) but the intra-word block is not.
    cf_on: [bool; 3],
    /// Effective coupling radius (clamped to `n - 1`; `n - 1` = all pairs).
    radius: usize,
    /// The enabled read/write-logic families, in sub-block order.
    rw_kinds: [Option<RwKind>; 4],
    rw_per_bit: usize,
    total: usize,
}

/// Number of radius-filtered ordered coupling pairs whose aggressor is
/// `< a` — the closed form of `Σ_{x<a} [min(n-1, x+r) − max(0, x−r)]`,
/// the per-aggressor victim counts of [`FaultUniverse::enumerate`]'s
/// a-major pair order. Requires `n ≥ 1` and `r ≤ n − 1`.
fn pair_prefix(n: usize, r: usize, a: usize) -> usize {
    // Σ min(n-1, x+r): linear (x + r) up to x = n-1-r, saturated after.
    let c1 = a.min(n - r);
    let sum_upper = c1 * r + c1 * (c1.saturating_sub(1)) / 2 + (a - c1) * (n - 1);
    // Σ max(0, x-r): zero up to x = r, then 1, 2, …
    let c2 = a.saturating_sub(r + 1);
    let sum_lower = c2 * (c2 + 1) / 2;
    sum_upper - sum_lower
}

/// The `idx`-th radius-filtered ordered pair in a-major order: binary
/// search for the aggressor (largest `a` with `pair_prefix(a) ≤ idx`),
/// then the victim by offset within `a`'s window, skipping `a` itself.
fn pair_at(n: usize, r: usize, idx: usize) -> (usize, usize) {
    let (mut lo, mut hi) = (0usize, n);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pair_prefix(n, r, mid) <= idx {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let a = lo;
    let local = idx - pair_prefix(n, r, a);
    let mut v = a.saturating_sub(r) + local;
    if v >= a {
        v += 1;
    }
    (a, v)
}

/// `bit_pairs(m).len()` without the allocation: 1 for BOM, `2m` for WOM.
fn bit_pair_count(m: u32) -> usize {
    if m == 1 {
        1
    } else {
        2 * m as usize
    }
}

/// The `idx`-th entry of [`bit_pairs`]: the `m` same-bit pairs, then the
/// `m` diagonal-neighbour pairs.
fn bit_pair_at(m: u32, idx: usize) -> (u32, u32) {
    if m == 1 {
        return (0, 0);
    }
    let idx = idx as u32;
    if idx < m {
        (idx, idx)
    } else {
        (idx - m, (idx - m + 1) % m)
    }
}

/// The `idx`-th intra-word bit pair in a-major `a ≠ v` order.
fn intra_pair_at(m: usize, idx: usize) -> (u32, u32) {
    let a = idx / (m - 1);
    let o = idx % (m - 1);
    let v = if o < a { o } else { o + 1 };
    (a as u32, v as u32)
}

impl LazyUniverse {
    /// The lazy enumerator for `spec` on `geom`. Every spec enumerates
    /// lazily — coupling families included, via the closed-form pair
    /// arithmetic above — so services never need to materialize a
    /// universe up front.
    pub fn new(geom: Geometry, spec: UniverseSpec) -> LazyUniverse {
        LazyUniverse::new_with(geom, spec, Topology::identity(geom.cells()))
    }

    /// [`LazyUniverse::new`] over a physical [`Topology`] — the lazy
    /// counterpart of [`FaultUniverse::enumerate_with`], index-for-index
    /// identical to it for every spec (asserted in tests). Block sizes
    /// are topology-independent (a bijection renames addresses without
    /// changing counts), so only the per-index decode maps coordinates.
    ///
    /// # Panics
    ///
    /// Panics when `topology` covers a different cell count than `geom`.
    pub fn new_with(geom: Geometry, spec: UniverseSpec, topology: Topology) -> LazyUniverse {
        assert_eq!(
            topology.cells(),
            geom.cells(),
            "topology cell count does not match the geometry"
        );
        let n = geom.cells();
        let m = geom.width() as usize;
        let bits = n * m;
        let mut rw_kinds = [None; 4];
        let mut rw_per_bit = 0usize;
        for (kind, enabled) in [
            (RwKind::Rdf, spec.rdf),
            (RwKind::Drdf, spec.drdf),
            (RwKind::Irf, spec.irf),
            (RwKind::Wdf, spec.wdf),
        ] {
            if enabled {
                rw_kinds[rw_per_bit] = Some(kind);
                rw_per_bit += 1;
            }
        }
        // AF sub-blocks: n no-access entries, then per address one extra
        // plus one shadow — the shadow target `(addr + n/2).max(addr + 1)
        // % n` differs from `addr` for every n ≥ 2, and never exists for
        // n = 1 (mirrors the conditional in `enumerate`).
        let af = if spec.af {
            if n >= 2 {
                3 * n
            } else {
                2 * n
            }
        } else {
            0
        };
        let radius = spec.coupling_radius.unwrap_or(n - 1).min(n - 1);
        let pairs = pair_prefix(n, radius, n);
        let bp = bit_pair_count(geom.width());
        let cf_on = [spec.cfin, spec.cfid, spec.cfst];
        let intra_stride =
            2 * usize::from(spec.cfin) + 4 * usize::from(spec.cfid) + 4 * usize::from(spec.cfst);
        let u = LazyUniverse {
            geom,
            topology,
            saf: if spec.saf { 2 * bits } else { 0 },
            tf: if spec.tf { 2 * bits } else { 0 },
            cfin: if spec.cfin { pairs * bp * 2 } else { 0 },
            cfid: if spec.cfid { pairs * bp * 4 } else { 0 },
            cfst: if spec.cfst { pairs * bp * 4 } else { 0 },
            intra: if spec.intra_word && m > 1 { n * m * (m - 1) * intra_stride } else { 0 },
            af,
            sof: if spec.sof { n } else { 0 },
            cf_on,
            radius,
            rw_kinds,
            rw_per_bit,
            total: 0,
        };
        let total =
            u.saf + u.tf + u.cfin + u.cfid + u.cfst + u.intra + u.af + u.sof + bits * rw_per_bit;
        LazyUniverse { total, ..u }
    }

    /// Geometry the universe enumerates over.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The physical topology the enumeration walks.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of fault instances.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` when the spec enables no family on this geometry.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The fault at universe index `i` — allocation-free; O(1) for every
    /// family except the pair-coupling blocks, whose aggressor lookup is
    /// an O(log n) binary search on the closed-form pair prefix.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn fault(&self, i: usize) -> FaultKind {
        assert!(i < self.total, "universe index {i} out of range for {} instances", self.total);
        let n = self.geom.cells();
        let m = self.geom.width() as usize;
        // Block decode yields *physical* coordinates; addresses map to
        // logical on the way out (identity topology: log(p) = p).
        let log = |p: usize| self.topology.to_logical(p);
        let mut i = i;
        if i < self.saf {
            let (cell, rem) = (log(i / (2 * m)), i % (2 * m));
            return FaultKind::StuckAt { cell, bit: (rem / 2) as u32, value: (rem % 2) as u8 };
        }
        i -= self.saf;
        if i < self.tf {
            let (cell, rem) = (log(i / (2 * m)), i % (2 * m));
            return FaultKind::Transition { cell, bit: (rem / 2) as u32, rising: rem % 2 == 0 };
        }
        i -= self.tf;
        let bp = bit_pair_count(self.geom.width());
        if i < self.cfin {
            let (pair, rem) = (i / (bp * 2), i % (bp * 2));
            let (a, v) = pair_at(n, self.radius, pair);
            let (a, v) = (log(a), log(v));
            let (ab, vb) = bit_pair_at(m as u32, rem / 2);
            let trigger = if rem % 2 == 0 { CouplingTrigger::Rise } else { CouplingTrigger::Fall };
            return FaultKind::CouplingInversion {
                agg_cell: a,
                agg_bit: ab,
                victim_cell: v,
                victim_bit: vb,
                trigger,
            };
        }
        i -= self.cfin;
        if i < self.cfid {
            let (pair, rem) = (i / (bp * 4), i % (bp * 4));
            let (a, v) = pair_at(n, self.radius, pair);
            let (a, v) = (log(a), log(v));
            let (ab, vb) = bit_pair_at(m as u32, rem / 4);
            let sel = rem % 4;
            let trigger = if sel / 2 == 0 { CouplingTrigger::Rise } else { CouplingTrigger::Fall };
            return FaultKind::CouplingIdempotent {
                agg_cell: a,
                agg_bit: ab,
                victim_cell: v,
                victim_bit: vb,
                trigger,
                force: (sel % 2) as u8,
            };
        }
        i -= self.cfid;
        if i < self.cfst {
            let (pair, rem) = (i / (bp * 4), i % (bp * 4));
            let (a, v) = pair_at(n, self.radius, pair);
            let (a, v) = (log(a), log(v));
            let (ab, vb) = bit_pair_at(m as u32, rem / 4);
            let sel = rem % 4;
            return FaultKind::CouplingState {
                agg_cell: a,
                agg_bit: ab,
                agg_state: (sel / 2) as u8,
                victim_cell: v,
                victim_bit: vb,
                force: (sel % 2) as u8,
            };
        }
        i -= self.cfst;
        if i < self.intra {
            // Per cell: every a-major intra-word bit pair, the enabled
            // classes interleaved {CFin:2, CFid:4, CFst:4} per pair.
            let stride = 2 * usize::from(self.cf_on[0])
                + 4 * usize::from(self.cf_on[1])
                + 4 * usize::from(self.cf_on[2]);
            let cell_block = m * (m - 1) * stride;
            let (cell, rem) = (log(i / cell_block), i % cell_block);
            let (pidx, mut k) = (rem / stride, rem % stride);
            let (ab, vb) = intra_pair_at(m, pidx);
            if self.cf_on[0] {
                if k < 2 {
                    let trigger =
                        if k == 0 { CouplingTrigger::Rise } else { CouplingTrigger::Fall };
                    return FaultKind::CouplingInversion {
                        agg_cell: cell,
                        agg_bit: ab,
                        victim_cell: cell,
                        victim_bit: vb,
                        trigger,
                    };
                }
                k -= 2;
            }
            if self.cf_on[1] {
                if k < 4 {
                    let trigger =
                        if k / 2 == 0 { CouplingTrigger::Rise } else { CouplingTrigger::Fall };
                    return FaultKind::CouplingIdempotent {
                        agg_cell: cell,
                        agg_bit: ab,
                        victim_cell: cell,
                        victim_bit: vb,
                        trigger,
                        force: (k % 2) as u8,
                    };
                }
                k -= 4;
            }
            return FaultKind::CouplingState {
                agg_cell: cell,
                agg_bit: ab,
                agg_state: (k / 2) as u8,
                victim_cell: cell,
                victim_bit: vb,
                force: (k % 2) as u8,
            };
        }
        i -= self.intra;
        if i < self.af {
            if i < n {
                return FaultKind::DecoderNoAccess { addr: log(i) };
            }
            let j = i - n;
            if n < 2 {
                return FaultKind::DecoderExtraCell { addr: log(j), extra_cell: log((j + 1) % n) };
            }
            let addr = j / 2;
            return if j.is_multiple_of(2) {
                FaultKind::DecoderExtraCell { addr: log(addr), extra_cell: log((addr + 1) % n) }
            } else {
                FaultKind::DecoderShadow {
                    addr: log(addr),
                    instead_cell: log((addr + n / 2).max(addr + 1) % n),
                }
            };
        }
        i -= self.af;
        if i < self.sof {
            return FaultKind::StuckOpen { cell: log(i) };
        }
        i -= self.sof;
        let (cb, sel) = (i / self.rw_per_bit, i % self.rw_per_bit);
        let (cell, bit) = (log(cb / m), (cb % m) as u32);
        match self.rw_kinds[sel].expect("selector within enabled families") {
            RwKind::Rdf => FaultKind::ReadDestructive { cell, bit },
            RwKind::Drdf => FaultKind::DeceptiveRead { cell, bit },
            RwKind::Irf => FaultKind::IncorrectRead { cell, bit },
            RwKind::Wdf => FaultKind::WriteDisturb { cell, bit },
        }
    }

    /// Iterates the whole universe lazily, in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = FaultKind> + '_ {
        (0..self.total).map(move |i| self.fault(i))
    }

    /// Materializes the index range `[lo, hi)` — the shard primitive: a
    /// scheduler holds one segment's faults at a time, never the universe.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or inverted.
    pub fn slice(&self, lo: usize, hi: usize) -> Vec<FaultKind> {
        assert!(lo <= hi && hi <= self.total, "slice {lo}..{hi} out of range");
        (lo..hi).map(|i| self.fault(i)).collect()
    }

    /// Materializes the whole universe — bit-identical to
    /// [`FaultUniverse::enumerate_with`] for this spec and topology.
    pub fn materialize(&self) -> FaultUniverse {
        FaultUniverse {
            geom: self.geom,
            faults: self.iter().collect(),
            topology: self.topology.clone(),
        }
    }
}

fn bit_pairs(m: u32) -> Vec<(u32, u32)> {
    // For BOM this is just (0,0); for WOM include same-bit cross-cell pairs
    // plus a diagonal neighbour to exercise intra-bit-position couplings
    // without exploding the universe (m² pairs per cell pair otherwise).
    if m == 1 {
        vec![(0, 0)]
    } else {
        let mut v: Vec<(u32, u32)> = (0..m).map(|b| (b, b)).collect();
        v.extend((0..m).map(|b| (b, (b + 1) % m)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_universe_counts() {
        let g = Geometry::bom(8);
        let u = FaultUniverse::enumerate(g, &UniverseSpec::single_cell());
        // 8 cells × (2 SAF + 2 TF) = 32
        assert_eq!(u.len(), 32);
        let census = u.census();
        assert!(census.contains(&("SAF", 16)));
        assert!(census.contains(&("TF", 16)));
    }

    #[test]
    fn paper_claim_universe_counts() {
        let g = Geometry::bom(4);
        let u = FaultUniverse::enumerate(g, &UniverseSpec::paper_claim());
        // pairs = 4·3 = 12
        // SAF 8, TF 8, CFin 12·2 = 24, CFid 12·4 = 48, CFst 12·4 = 48,
        // AF: 4 none + 4 extra + shadows (addr where instead != addr).
        let census = u.census();
        assert!(census.contains(&("SAF", 8)));
        assert!(census.contains(&("TF", 8)));
        assert!(census.contains(&("CFin", 24)));
        assert!(census.contains(&("CFid", 48)));
        assert!(census.contains(&("CFst", 48)));
        assert!(census.iter().any(|&(k, c)| k == "AF" && c >= 8));
    }

    #[test]
    fn coupling_radius_limits_pairs() {
        let g = Geometry::bom(16);
        let spec = UniverseSpec { cfin: true, coupling_radius: Some(1), ..Default::default() };
        let u = FaultUniverse::enumerate(g, &spec);
        // adjacent ordered pairs: 2·15 = 30, × 2 triggers = 60
        assert_eq!(u.len(), 60);
    }

    #[test]
    fn instances_are_single_fault_memories() {
        let g = Geometry::bom(4);
        let u = FaultUniverse::enumerate(g, &UniverseSpec::single_cell());
        for (fault, ram) in u.instances() {
            assert_eq!(ram.fault_bank().len(), 1);
            assert_eq!(ram.fault_bank().faults()[0], fault);
        }
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let g = Geometry::bom(16);
        let u1 = FaultUniverse::enumerate(g, &UniverseSpec::paper_claim()).sample(50, 7);
        let u2 = FaultUniverse::enumerate(g, &UniverseSpec::paper_claim()).sample(50, 7);
        assert_eq!(u1.len(), 50);
        assert_eq!(u1.faults(), u2.faults());
    }

    #[test]
    fn wom_universe_includes_intra_bit_pairs() {
        let g = Geometry::wom(4, 4).unwrap();
        let spec = UniverseSpec { cfin: true, coupling_radius: Some(1), ..Default::default() };
        let u = FaultUniverse::enumerate(g, &spec);
        assert!(u
            .faults()
            .iter()
            .any(|f| matches!(f, FaultKind::CouplingInversion { agg_bit: 1, victim_bit: 2, .. })));
    }

    /// Every spec × geometry combination — coupling families included:
    /// the lazy enumerator must reproduce the materialized sequence
    /// index-for-index — the order contract services rely on for sharded
    /// streaming.
    #[test]
    fn lazy_universe_matches_enumerate() {
        let dense_full =
            UniverseSpec { cfin: false, cfid: false, cfst: false, ..UniverseSpec::full() };
        let specs = [
            UniverseSpec::single_cell(),
            UniverseSpec { saf: true, ..UniverseSpec::default() },
            UniverseSpec { af: true, ..UniverseSpec::default() },
            UniverseSpec { sof: true, irf: true, ..UniverseSpec::default() },
            UniverseSpec { rdf: true, drdf: true, irf: true, wdf: true, ..Default::default() },
            dense_full,
            UniverseSpec::paper_claim(),
            UniverseSpec::full(),
            UniverseSpec { cfin: true, ..UniverseSpec::default() },
            UniverseSpec { cfst: true, coupling_radius: Some(0), ..UniverseSpec::default() },
            UniverseSpec {
                cfin: true,
                cfid: true,
                coupling_radius: Some(1),
                ..UniverseSpec::default()
            },
            UniverseSpec {
                cfid: true,
                cfst: true,
                coupling_radius: Some(2),
                intra_word: true,
                ..UniverseSpec::default()
            },
            UniverseSpec { coupling_radius: Some(3), ..UniverseSpec::full() },
        ];
        let geoms =
            [Geometry::bom(1), Geometry::bom(2), Geometry::bom(13), Geometry::wom(6, 4).unwrap()];
        for geom in geoms {
            for spec in specs {
                let lazy = LazyUniverse::new(geom, spec);
                let eager = FaultUniverse::enumerate(geom, &spec);
                assert_eq!(lazy.len(), eager.len(), "{geom:?} {spec:?}");
                let all: Vec<FaultKind> = lazy.iter().collect();
                assert_eq!(all.as_slice(), eager.faults(), "{geom:?} {spec:?}");
                // Random access agrees with iteration.
                for i in [0, lazy.len() / 3, lazy.len().saturating_sub(1)] {
                    if i < lazy.len() {
                        assert_eq!(lazy.fault(i), eager.faults()[i]);
                    }
                }
                // Shard slices tile the universe.
                let mid = lazy.len() / 2;
                let mut tiled = lazy.slice(0, mid);
                tiled.extend(lazy.slice(mid, lazy.len()));
                assert_eq!(tiled.as_slice(), eager.faults());
                assert_eq!(lazy.materialize().faults(), eager.faults());
            }
        }
    }

    /// Eager enumeration stays linear in the cell count unless a
    /// pair-coupling family is on without a radius: at n = 2¹⁶ a quadratic
    /// pair walk would visit 2³² pairs.
    #[test]
    fn enumerate_walks_only_the_coupling_window() {
        let geom = Geometry::bom(1 << 16);
        let cfin = UniverseSpec { cfin: true, coupling_radius: Some(1), ..UniverseSpec::default() };
        for spec in [UniverseSpec::single_cell(), cfin] {
            let eager = FaultUniverse::enumerate(geom, &spec);
            let lazy = LazyUniverse::new(geom, spec).materialize();
            assert_eq!(eager.faults(), lazy.faults(), "{spec:?}");
        }
    }

    /// The pair-coupling blocks stay O(1) in memory at service scale: a
    /// universe far too large to materialize still answers point lookups,
    /// and its tail decodes past the quadratic coupling region correctly.
    #[test]
    fn lazy_universe_coupling_scales_without_materializing() {
        let n = 1 << 16;
        let geom = Geometry::bom(n);
        let spec = UniverseSpec::paper_claim(); // unbounded radius: ~n² pairs
        let lazy = LazyUniverse::new(geom, spec);
        // SAF 2n + TF 2n + (CFin 2 + CFid 4 + CFst 4 per pair) × n(n-1)
        // + AF 3n.
        let pairs = n * (n - 1);
        assert_eq!(lazy.len(), 2 * n + 2 * n + 10 * pairs + 3 * n);
        // First coupling entry: pair (0, 1), Rise.
        assert_eq!(
            lazy.fault(4 * n),
            FaultKind::CouplingInversion {
                agg_cell: 0,
                agg_bit: 0,
                victim_cell: 1,
                victim_bit: 0,
                trigger: CouplingTrigger::Rise,
            }
        );
        // Last coupling entry: pair (n-1, n-2), CFst agg_state 1 force 1.
        assert_eq!(
            lazy.fault(4 * n + 10 * pairs - 1),
            FaultKind::CouplingState {
                agg_cell: n - 1,
                agg_bit: 0,
                agg_state: 1,
                victim_cell: n - 2,
                victim_bit: 0,
                force: 1,
            }
        );
        // First entry after the coupling blocks: the AF block.
        assert_eq!(lazy.fault(4 * n + 10 * pairs), FaultKind::DecoderNoAccess { addr: 0 });
    }

    /// Scrambled enumeration keeps the lazy/eager order contract: for
    /// generated topologies the lazy decode must reproduce the
    /// materialized walk index-for-index, and the identity topology must
    /// be bit-identical to the legacy (topology-free) path.
    #[test]
    fn lazy_universe_matches_enumerate_under_topologies() {
        let specs = [
            UniverseSpec::paper_claim(),
            UniverseSpec::full(),
            UniverseSpec { coupling_radius: Some(2), ..UniverseSpec::full() },
        ];
        let geoms = [Geometry::bom(8), Geometry::bom(13), Geometry::wom(6, 4).unwrap()];
        for geom in geoms {
            for spec in specs {
                for seed in 1u64..4 {
                    let topo = Topology::generate(geom.cells(), seed);
                    let lazy = LazyUniverse::new_with(geom, spec, topo.clone());
                    let eager = FaultUniverse::enumerate_with(geom, &spec, topo.clone());
                    assert_eq!(lazy.len(), eager.len(), "{geom:?} {spec:?} seed {seed}");
                    let all: Vec<FaultKind> = lazy.iter().collect();
                    assert_eq!(all.as_slice(), eager.faults(), "{geom:?} {spec:?} seed {seed}");
                }
                let id =
                    FaultUniverse::enumerate_with(geom, &spec, Topology::identity(geom.cells()));
                assert_eq!(id.faults(), FaultUniverse::enumerate(geom, &spec).faults());
                assert!(id.topology().is_identity());
            }
        }
    }

    /// A pure cell permutation renames addresses without changing what
    /// exists: family censuses (and for radius-free specs, the fault
    /// *sets* of the position-free families) are topology-invariant.
    #[test]
    fn scrambled_universe_is_a_relabelling() {
        let geom = Geometry::bom(16);
        let spec = UniverseSpec::paper_claim();
        let id = FaultUniverse::enumerate(geom, &spec);
        let topo = Topology::identity(16).then_swizzle(Scrambler::reversed(4)).unwrap();
        let scrambled = FaultUniverse::enumerate_with(geom, &spec, topo);
        assert_eq!(id.census(), scrambled.census());
        let set = |u: &FaultUniverse| {
            let mut v: Vec<String> = u.faults().iter().map(|f| format!("{f:?}")).collect();
            v.sort();
            v
        };
        // Radius-free coupling + SAF/TF blocks cover all pairs/cells, so
        // the sets match; only AF pairing depends on physical adjacency.
        let strip_af = |u: &FaultUniverse| {
            let mut v: Vec<String> = u
                .faults()
                .iter()
                .filter(|f| f.mnemonic() != "AF")
                .map(|f| format!("{f:?}"))
                .collect();
            v.sort();
            v
        };
        assert_eq!(strip_af(&id), strip_af(&scrambled));
        assert_ne!(set(&id), set(&scrambled), "AF neighbour pairs are physical");
    }

    use crate::Scrambler;

    #[test]
    #[should_panic(expected = "universe index")]
    fn lazy_universe_index_bounds_are_loud() {
        let lazy = LazyUniverse::new(Geometry::bom(4), UniverseSpec::single_cell());
        let _ = lazy.fault(lazy.len());
    }

    #[test]
    fn full_universe_has_every_mnemonic() {
        let g = Geometry::bom(4);
        let u = FaultUniverse::enumerate(g, &UniverseSpec::full());
        let census = u.census();
        for k in ["SAF", "TF", "CFin", "CFid", "CFst", "AF", "SOF", "RDF", "DRDF", "IRF", "WDF"] {
            assert!(census.iter().any(|&(m, _)| m == k), "missing {k}");
        }
    }
}
