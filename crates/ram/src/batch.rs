//! Lane-sliced batch fault simulation: whole lane *chunks* of fault
//! trials per device.
//!
//! A fault-simulation campaign runs the *same data-independent operation
//! sequence* against many single-fault memories; the only thing that
//! differs between trials is which fault is present. [`LaneRam`] exploits
//! that by packing faulty machines into the bit lanes of a
//! [`LaneChunk`] — `K` host words of 64 lanes each, so one interpreter
//! pass carries `64 * K` trials (64/256/512 for the stock K ∈ {1, 4, 8}).
//! Storage is bit-sliced into `width` *bit-planes* per cell, where lane
//! `k` of the plane chunk is the value that bit holds in trial `k`. Every
//! read, write, transition check and coupling trigger then becomes a
//! handful of bitwise chunk operations that act on all lanes at once —
//! the classic bit-parallel multi-fault propagation of hardware fault
//! simulators, widened to a SIMD-friendly `[u64; K]` that the compiler
//! auto-vectorizes.
//!
//! [`LaneFaultBank`] injects **every fault family** as per-lane state:
//! the single-cell families (SAF, TF, WDF, RDF, DRDF, IRF, SOF) folded
//! into per-cell, per-bit lane masks; data retention, CFin, CFid, CFst
//! and NPSF as per-fault entries listed by cell and kind; stuck-open
//! reads via per-lane, per-port sense-amplifier planes; and
//! address-decoder faults through a bit-sliced decoder model — per-lane
//! address remap masks, the lane analogue of the scalar decoder table.
//! Multi-port cycle programs batch too: [`LaneRam`] pools per-port sense
//! planes and a per-lane write-write conflict engine
//! ([`LaneRam::cycle_conflicts`]), so nothing is left on the scalar
//! [`crate::Ram`] path. Every modelled [`crate::FaultKind`] batches — an
//! exhaustive match in the bank is the compile-time proof — so campaigns
//! never split a universe into batchable and scalar-remainder halves.
//!
//! # Exactness
//!
//! A lane is one single-fault trial: [`LaneRam::inject`] refuses a second
//! fault in an occupied lane, and the bank's folds rely on it. Per lane,
//! every read of [`LaneRam`] is then **bitwise-exact** against
//! [`crate::Ram`] with the same single fault injected. Every enforcement
//! phase of the scalar access path (stuck-open write loss → transition
//! blocking → write-disturb → stuck-at → store → coupling triggers →
//! state-coupling → NPSF on writes; stuck-open sense latch → retention
//! decay → state-coupling → NPSF → stuck-at → destructive/deceptive-read
//! flips → incorrect-read inversion on reads) is reproduced in the same
//! order with the fault's effect masked to its lane. Decoder faults remap which
//! *cells* an address touches per lane, so every per-cell side effect is
//! additionally masked to the lanes that actually access the cell — a
//! lane whose decoder fault diverts an access must not observe another
//! lane's read-triggered flips, and retention windows are clocked per
//! fault rather than per cell for the same reason. The device operation
//! clock is shared across lanes — sound because the driving program
//! issues the identical operation sequence to every lane. One effect is
//! not masked: a read re-applies the cell's stuck-at masks on every lane,
//! so a stuck-at lane's raw storage (what `peek_lane` shows) can take its
//! stuck value before that lane accesses the cell — no read can tell,
//! since every read of the cell applies stuck-at first. The scalar
//! engine remains the differential oracle (property-tested in
//! `tests/batch.rs` and `crates/ram/tests/proptests.rs`).
//!
//! # Frozen lanes
//!
//! A multi-port cycle whose writes collide (after per-lane decoder
//! mapping) is a device error on the scalar path: `cycle_ref` rejects the
//! cycle before any side effect and the run aborts, which campaigns map
//! to an escape. The lane engine mirrors that with the **frozen-lane
//! convention**: [`LaneRam::cycle_conflicts`] accumulates the conflicted
//! lanes into [`LaneRam::errored_lanes`], and the batch interpreter stops
//! *counting* those lanes (verdicts, mismatch counts) from that point on.
//! The frozen lanes' storage keeps evolving — masking them out of the
//! access hot paths would cost every operation a chunk AND for state
//! nobody reads: a frozen lane's verdict is final, its observations are
//! substituted by the measurement collector, and lane isolation
//! guarantees its (now don't-care) state never leaks into another lane.

use crate::fault::{CouplingTrigger, FaultKind};
use crate::memory::{ReadWired, MAX_PORTS};
use crate::{Geometry, RamError};
use std::collections::HashMap;

/// Number of fault-trial lanes per chunk *word* (the width of the host
/// word the storage is sliced over). A [`LaneChunk<K>`] carries
/// `K * LANES` lanes — see [`LaneChunk::LANES`] for the per-chunk count.
pub const LANES: usize = 64;

/// A chunk of `K * 64` trial lanes: the lane-mask word of the batch
/// engine, generalised from one `u64` to `[u64; K]` so a single
/// interpreter pass (and a single campaign batch) carries 64, 256 or 512
/// trials. All plane and mask arithmetic goes through the bitwise
/// operator impls below — fixed-size word loops the compiler unrolls and
/// auto-vectorizes.
///
/// Lane `l` lives in bit `l % 64` of word `l / 64`; a `K = 1` chunk is
/// bit-for-bit the legacy `u64` lane mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneChunk<const K: usize>(pub(crate) [u64; K]);

impl<const K: usize> LaneChunk<K> {
    /// Number of trial lanes in this chunk width.
    pub const LANES: usize = 64 * K;

    /// The empty lane mask.
    pub const ZERO: LaneChunk<K> = LaneChunk([0; K]);

    /// The all-lanes mask.
    pub const FULL: LaneChunk<K> = LaneChunk([u64::MAX; K]);

    /// The plane chunk broadcasting bit `bit` of `word` to every lane
    /// (shared with the batch interpreter in [`crate::prog`]).
    #[inline]
    pub fn broadcast(word: u64, bit: u32) -> LaneChunk<K> {
        if (word >> bit) & 1 == 1 {
            Self::FULL
        } else {
            Self::ZERO
        }
    }

    /// The mask selecting exactly trial lane `lane`.
    #[inline]
    pub fn single(lane: usize) -> LaneChunk<K> {
        debug_assert!(lane < Self::LANES, "trial lane out of range");
        let mut c = Self::ZERO;
        c.0[lane / 64] = 1u64 << (lane % 64);
        c
    }

    /// The mask selecting the first `k` lanes (batches fill lanes from 0
    /// upward, so a partial batch's active mask is a prefix).
    #[inline]
    pub fn prefix(k: usize) -> LaneChunk<K> {
        debug_assert!(k <= Self::LANES, "prefix wider than the chunk");
        let mut c = Self::ZERO;
        for (i, w) in c.0.iter_mut().enumerate() {
            let lo = i * 64;
            *w = match k.saturating_sub(lo) {
                0 => 0,
                n if n >= 64 => u64::MAX,
                n => (1u64 << n) - 1,
            };
        }
        c
    }

    /// `true` when lane `lane` is set.
    #[inline]
    pub fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < Self::LANES, "trial lane out of range");
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// `true` when no lane is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; K]
    }

    /// Number of set lanes.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Calls `f` with the index of every set lane, in ascending order.
    #[inline]
    pub fn for_each_lane(&self, mut f: impl FnMut(usize)) {
        for (i, &word) in self.0.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                f(i * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// The raw lane words (word `i` carries lanes `64 * i ..  64 * i + 64`).
    #[inline]
    pub fn words(&self) -> &[u64; K] {
        &self.0
    }
}

impl<const K: usize> Default for LaneChunk<K> {
    fn default() -> Self {
        Self::ZERO
    }
}

macro_rules! chunk_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl<const K: usize> std::ops::$assign_trait for LaneChunk<K> {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                for i in 0..K {
                    self.0[i] $op rhs.0[i];
                }
            }
        }
        impl<const K: usize> std::ops::$trait for LaneChunk<K> {
            type Output = LaneChunk<K>;
            #[inline]
            fn $method(mut self, rhs: Self) -> LaneChunk<K> {
                use std::ops::$assign_trait;
                self.$assign_method(rhs);
                self
            }
        }
    };
}

chunk_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
chunk_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
chunk_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

impl<const K: usize> std::ops::Not for LaneChunk<K> {
    type Output = LaneChunk<K>;
    #[inline]
    fn not(mut self) -> LaneChunk<K> {
        for w in &mut self.0 {
            *w = !*w;
        }
        self
    }
}

/// The word trial lane `lane` reads off a slice of bit-plane chunks
/// (`planes[j]` holds bit `j` across lanes) — the de-slicing helper the
/// batch interpreter, the measurement collectors and the differential
/// tests share.
#[inline]
pub fn lane_word<const K: usize>(planes: &[LaneChunk<K>], lane: usize) -> u64 {
    let mut word = 0u64;
    for (j, p) in planes.iter().enumerate() {
        word |= (p.get(lane) as u64) << j;
    }
    word
}

/// Per-lane decoder behaviour for one faulty address (the lane analogue
/// of the scalar `DecoderMap`, bit-sliced: each entry carries the lanes it
/// applies to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneDecode {
    /// The address selects no cell on these lanes (AF type A/B).
    None,
    /// The address selects its own cell *plus* this one (AF type C).
    Extra(usize),
    /// The address selects this cell *instead of* its own (AF type D).
    Shadow(usize),
}

/// Sentinel [`LaneFaultBank`] slot: no fault of the batch touches the
/// cell.
const NO_SITE: u32 = u32::MAX;

/// Fold groups: the single-cell kinds whose faults differ only by lane,
/// each kept as one lane mask per bit of the cell.
const SA0: usize = 0;
const SA1: usize = 1;
const TF_UP: usize = 2;
const TF_DOWN: usize = 3;
const WDF: usize = 4;
const RDF: usize = 5;
const DRDF: usize = 6;
const IRF: usize = 7;
const FOLDS: usize = 8;

/// Entry lists: the kinds whose faults carry their own state or partner
/// cell, listed by fault index at each cell they act through.
const DRF: usize = 0;
const CF_TRIGGER: usize = 1;
const CFST_AGG: usize = 2;
const CFST_VICTIM: usize = 3;
const NPSF_VICTIM: usize = 4;
const NPSF_NEIGHBOR: usize = 5;
const LISTS: usize = 6;

/// What one cell carries in the current batch.
#[derive(Debug, Clone, Default)]
struct Site<const K: usize> {
    /// The cell, so [`LaneFaultBank::clear`] can free its slot.
    cell: usize,
    /// The lanes of every fault indexed at the cell: an access that
    /// misses them skips every pass.
    lanes: LaneChunk<K>,
    /// The stuck-open lanes.
    sof: LaneChunk<K>,
    /// Bit `g` is set once fold group `g` holds a lane; the group's
    /// masks are zeroed then, so an unset group is never read.
    folds: u8,
    /// Fault indices per entry list.
    lists: [Vec<u32>; LISTS],
}

/// The faults of one lane batch, laid out per cell and kind so that every
/// pass touches only the faults it can fire, however the chunk's faults
/// were assembled.
///
/// Each fault occupies one lane ([`LaneRam::inject`] enforces it), which
/// makes the layout exact:
///
/// * **Folded kinds.** Stuck-at, transition, write-disturb and the
///   read-logic faults of one cell differ only by lane, so they fold
///   into one lane mask per (cell, kind, bit), and stuck-open into one
///   mask per cell. A pass is one masked word operation per bit however
///   many faults share the cell.
/// * **Listed kinds.** Data retention (per-fault clock), coupling
///   triggers (aggressor side), state coupling (both sides) and NPSF
///   (victim and neighbours) are listed by fault index per (cell, kind),
///   so each pass walks only its own kind.
///
/// A site table holds both: one `u32` slot per cell points into a dense
/// array of the cells the batch touches, and each site also keeps the
/// union of the lanes indexed at its cell. Decoder faults remap
/// addresses, not cells, and stay in a per-address map.
/// [`LaneFaultBank::clear`] resets only the touched slots and keeps
/// every allocation for the next batch.
#[derive(Debug, Clone, Default)]
pub struct LaneFaultBank<const K: usize = 1> {
    faults: Vec<(FaultKind, LaneChunk<K>)>,
    /// Per fault: its trial lane.
    lane: Vec<u32>,
    /// Per fault: the clock of the victim cell's last write *on the
    /// fault's lane* (drives data-retention decay; read for DRF entries
    /// only). Per fault, not per cell: decoder remaps make lanes write
    /// different cells, so a shared per-cell timestamp would leak across
    /// lanes.
    stamps: Vec<u64>,
    /// Per cell: its index in `sites`, or `NO_SITE`.
    slot: Vec<u32>,
    /// The sites of the touched cells; the first `live` belong to this
    /// batch.
    sites: Vec<Site<K>>,
    live: usize,
    /// Fold-group masks: bit `b` of group `g` at site `s` is at
    /// `(s * FOLDS + g) * width + b`.
    masks: Vec<LaneChunk<K>>,
    /// Bits per cell (the stride of `masks`).
    width: usize,
    /// Lane-decoder overrides by address (rare — kept as a map, like the
    /// scalar bank's): each address lists `(remap, lanes)` entries.
    decoder: HashMap<usize, Vec<(LaneDecode, LaneChunk<K>)>>,
    /// Whether a stuck-open fault is present (gates the sense-plane
    /// maintenance).
    any_sof: bool,
    /// Whether a read-logic fault (RDF/DRDF/IRF) is present — with none,
    /// a read returns the stored planes directly, no staging copy.
    any_readlogic: bool,
}

impl<const K: usize> LaneFaultBank<K> {
    /// Creates an empty bank.
    pub fn new() -> LaneFaultBank<K> {
        LaneFaultBank::default()
    }

    /// `true` when no faults are present.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The injected `(fault, lane mask)` pairs in insertion order.
    pub fn faults(&self) -> &[(FaultKind, LaneChunk<K>)] {
        &self.faults
    }

    /// Adds `fault` in trial lane `lane`, which must carry no other fault:
    /// the fold is exact only while lanes are disjoint. Every modelled
    /// family batches — the exhaustive match below is the compile-time
    /// proof; a future [`FaultKind`] variant fails to build here until it
    /// gets a lane model.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultKind::validate`] errors.
    pub(crate) fn add(
        &mut self,
        geom: &Geometry,
        fault: FaultKind,
        lane: usize,
    ) -> Result<(), RamError> {
        fault.validate(geom)?;
        let mask = LaneChunk::single(lane);
        let i = self.faults.len() as u32;
        self.width = geom.width() as usize;
        if self.slot.len() < geom.cells() {
            self.slot.resize(geom.cells(), NO_SITE);
        }
        match &fault {
            FaultKind::StuckAt { cell, bit, value } => {
                self.fold(*cell, if value & 1 == 1 { SA1 } else { SA0 }, *bit, mask)
            }
            FaultKind::Transition { cell, bit, rising } => {
                self.fold(*cell, if *rising { TF_UP } else { TF_DOWN }, *bit, mask)
            }
            FaultKind::WriteDisturb { cell, bit } => self.fold(*cell, WDF, *bit, mask),
            FaultKind::ReadDestructive { cell, bit } => self.fold(*cell, RDF, *bit, mask),
            FaultKind::DeceptiveRead { cell, bit } => self.fold(*cell, DRDF, *bit, mask),
            FaultKind::IncorrectRead { cell, bit } => self.fold(*cell, IRF, *bit, mask),
            FaultKind::StuckOpen { cell } => {
                self.any_sof = true;
                let s = self.site(*cell, mask);
                self.sites[s].sof |= mask;
            }
            FaultKind::DataRetention { cell, .. } => self.list(*cell, DRF, i, mask),
            FaultKind::CouplingInversion { agg_cell, .. }
            | FaultKind::CouplingIdempotent { agg_cell, .. } => {
                self.list(*agg_cell, CF_TRIGGER, i, mask)
            }
            FaultKind::CouplingState { agg_cell, victim_cell, .. } => {
                self.list(*agg_cell, CFST_AGG, i, mask);
                self.list(*victim_cell, CFST_VICTIM, i, mask);
            }
            FaultKind::Npsf { victim_cell, neighbors, .. } => {
                self.list(*victim_cell, NPSF_VICTIM, i, mask);
                for &(c, _, _) in neighbors {
                    self.list(c, NPSF_NEIGHBOR, i, mask);
                }
            }
            FaultKind::DecoderNoAccess { addr } => {
                self.decoder.entry(*addr).or_default().push((LaneDecode::None, mask));
            }
            FaultKind::DecoderExtraCell { addr, extra_cell } => {
                self.decoder.entry(*addr).or_default().push((LaneDecode::Extra(*extra_cell), mask));
            }
            FaultKind::DecoderShadow { addr, instead_cell } => {
                self.decoder
                    .entry(*addr)
                    .or_default()
                    .push((LaneDecode::Shadow(*instead_cell), mask));
            }
        }
        self.faults.push((fault, mask));
        self.lane.push(lane as u32);
        self.stamps.push(0);
        Ok(())
    }

    /// The site of `cell`, opened on the cell's first fault of the batch,
    /// with `lanes` added to its lane union.
    fn site(&mut self, cell: usize, lanes: LaneChunk<K>) -> usize {
        if self.slot[cell] == NO_SITE {
            if self.live == self.sites.len() {
                self.sites.push(Site::default());
            }
            let site = &mut self.sites[self.live];
            site.cell = cell;
            site.lanes = LaneChunk::ZERO;
            site.sof = LaneChunk::ZERO;
            site.folds = 0;
            site.lists.iter_mut().for_each(Vec::clear);
            self.slot[cell] = self.live as u32;
            self.live += 1;
        }
        let s = self.slot[cell] as usize;
        self.sites[s].lanes |= lanes;
        s
    }

    /// ORs `lanes` into bit `bit` of fold group `group` at `cell`.
    fn fold(&mut self, cell: usize, group: usize, bit: u32, lanes: LaneChunk<K>) {
        self.any_readlogic |= matches!(group, RDF | DRDF | IRF);
        let s = self.site(cell, lanes);
        let at = (s * FOLDS + group) * self.width;
        if self.masks.len() < at + self.width {
            self.masks.resize((s + 1) * FOLDS * self.width, LaneChunk::ZERO);
        }
        if self.sites[s].folds & (1 << group) == 0 {
            self.sites[s].folds |= 1 << group;
            self.masks[at..at + self.width].fill(LaneChunk::ZERO);
        }
        self.masks[at + bit as usize] |= lanes;
    }

    /// Lists fault `i` (in `lanes`) under entry list `list` at `cell`,
    /// once even when an NPSF neighbourhood names the cell twice.
    fn list(&mut self, cell: usize, list: usize, i: u32, lanes: LaneChunk<K>) {
        let s = self.site(cell, lanes);
        let entries = &mut self.sites[s].lists[list];
        if entries.last() != Some(&i) {
            entries.push(i);
        }
    }

    /// Removes every fault while retaining every allocation (O(#touched
    /// cells), allocation-free in the steady state).
    pub fn clear(&mut self) {
        for site in &self.sites[..self.live] {
            self.slot[site.cell] = NO_SITE;
        }
        self.live = 0;
        self.faults.clear();
        self.lane.clear();
        self.stamps.clear();
        self.decoder.clear();
        self.any_sof = false;
        self.any_readlogic = false;
    }

    /// Restarts every retention clock (device reset; the faults stay).
    fn reset_clocks(&mut self) {
        self.stamps.fill(0);
    }

    /// The lane-decoder entries for `addr`, if any decoder fault remapped
    /// it (never allocates; empty-map fast path).
    fn decoder_at(&self, addr: usize) -> Option<&[(LaneDecode, LaneChunk<K>)]> {
        if self.decoder.is_empty() {
            None
        } else {
            self.decoder.get(&addr).map(Vec::as_slice)
        }
    }

    /// The site of `cell`, if a fault of the batch is indexed there.
    #[inline]
    fn site_of(&self, cell: usize) -> Option<usize> {
        self.slot.get(cell).copied().filter(|&s| s != NO_SITE).map(|s| s as usize)
    }

    /// The lanes on which `cell` carries a stuck-open fault.
    #[inline]
    fn sof_lanes(&self, cell: usize) -> LaneChunk<K> {
        self.site_of(cell).map_or(LaneChunk::ZERO, |s| self.sites[s].sof)
    }

    /// Rewrites `planes[b] = f(b, planes[b], mask)` with the mask of every
    /// bit `b` of fold group `group` at site `s` (nothing when the group
    /// holds no lane).
    #[inline]
    fn apply_fold(
        &self,
        s: usize,
        group: usize,
        planes: &mut [LaneChunk<K>],
        f: impl Fn(usize, LaneChunk<K>, LaneChunk<K>) -> LaneChunk<K>,
    ) {
        if self.sites[s].folds & (1 << group) != 0 {
            let at = (s * FOLDS + group) * self.width;
            for (b, (p, &mask)) in planes.iter_mut().zip(&self.masks[at..]).enumerate() {
                *p = f(b, *p, mask);
            }
        }
    }

    /// Listed fault `i` with its lane as (chunk word, bit).
    #[inline]
    fn entry(&self, i: u32) -> (&FaultKind, usize, u64) {
        let lane = self.lane[i as usize] as usize;
        (&self.faults[i as usize].0, lane / 64, 1 << (lane % 64))
    }
}

/// A bit-sliced memory carrying one [`LaneChunk`] of independent
/// single-fault trials (`64 * K` lanes): `width` bit-planes per cell, one
/// chunk of lanes per plane, plus per-lane, per-port sense-amplifier
/// planes (for stuck-open cells under multi-port cycles) and a per-lane
/// address decoder (for decoder faults). `LaneRam` (no parameter) is the
/// legacy 64-lane width.
///
/// # Example
///
/// ```
/// use prt_ram::batch::{LaneChunk, LaneRam};
/// use prt_ram::{FaultKind, Geometry};
///
/// let mut ram: LaneRam = LaneRam::new(Geometry::bom(8));
/// ram.inject(FaultKind::StuckAt { cell: 3, bit: 0, value: 0 }, 5)?;
/// ram.write_broadcast(3, 1); // every lane writes 1…
/// let planes = ram.read(3);
/// assert_eq!(planes[0], !LaneChunk::single(5)); // …but lane 5 is stuck at 0
/// # Ok::<(), prt_ram::RamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LaneRam<const K: usize = 1> {
    geom: Geometry,
    wired: ReadWired,
    ports: usize,
    /// Bit-plane storage: `store[cell * width + bit]` holds bit `bit` of
    /// `cell` across all lanes.
    store: Vec<LaneChunk<K>>,
    /// Per-lane, per-port sense-amplifier planes (`sense[port * width ..
    /// (port + 1) * width]`): the value each lane's last read on that port
    /// returned — what a stuck-open read latches onto.
    sense: Vec<LaneChunk<K>>,
    /// Device operation counter (drives data-retention decay).
    time: u64,
    /// Mask of lanes with an injected trial.
    active: LaneChunk<K>,
    /// Mask of lanes frozen by a device error (write-write conflict in a
    /// multi-port cycle) — the lane analogue of the scalar run aborting.
    errored: LaneChunk<K>,
    bank: LaneFaultBank<K>,
    /// Reusable staging planes for the value being written (the write
    /// operand, shared by every cell the decoder selects).
    scratch_new: Vec<LaneChunk<K>>,
    /// Reusable per-cell working copy of the staged value (transition
    /// blocking and stuck-at enforcement mutate it per target cell).
    scratch_val: Vec<LaneChunk<K>>,
    /// Reusable copy of the pre-write planes.
    scratch_old: Vec<LaneChunk<K>>,
    /// Reusable buffer for the planes a read returns.
    scratch_read: Vec<LaneChunk<K>>,
    /// Reusable buffer for one cell's read contribution (decoder
    /// multi-select combines several into `scratch_read`).
    scratch_cell: Vec<LaneChunk<K>>,
    /// Reusable copy of an address's lane-decoder entries (the bank must
    /// not stay borrowed across the mutating per-cell accesses).
    scratch_decode: Vec<(LaneDecode, LaneChunk<K>)>,
    /// Reusable pending bit actions `(cell, bit, None=invert/Some(v),
    /// chunk word, lane-mask word)` fired by coupling triggers and
    /// enforcement phases. Word-granular (not whole-chunk) so a fired
    /// fault costs O(1) in `K` — its lanes live in one chunk word.
    scratch_actions: Vec<(usize, u32, Option<u8>, usize, u64)>,
    /// Reusable write-claim list for the cycle conflict engine.
    scratch_claims: Vec<(usize, LaneChunk<K>)>,
}

impl<const K: usize> LaneRam<K> {
    /// Number of trial lanes this chunk width carries per pass.
    pub const LANES: usize = LaneChunk::<K>::LANES;

    /// Creates a fault-free single-port lane memory, zero-initialised.
    pub fn new(geom: Geometry) -> LaneRam<K> {
        LaneRam::with_ports(geom, 1).expect("one port is always valid")
    }

    /// Creates a fault-free `ports`-port lane memory, zero-initialised —
    /// the lane counterpart of [`crate::Ram::with_ports`]. Multi-port
    /// cycle programs require a device pooled with at least as many
    /// ports as the program's widest cycle.
    ///
    /// # Errors
    ///
    /// [`RamError::TooManyPortOps`] if `ports` is 0 or exceeds
    /// [`MAX_PORTS`].
    pub fn with_ports(geom: Geometry, ports: usize) -> Result<LaneRam<K>, RamError> {
        if ports == 0 || ports > MAX_PORTS {
            return Err(RamError::TooManyPortOps { submitted: ports, ports: MAX_PORTS });
        }
        let m = geom.width() as usize;
        Ok(LaneRam {
            geom,
            wired: ReadWired::default(),
            ports,
            store: vec![LaneChunk::ZERO; geom.cells() * m],
            sense: vec![LaneChunk::ZERO; ports * m],
            time: 0,
            active: LaneChunk::ZERO,
            errored: LaneChunk::ZERO,
            bank: LaneFaultBank::new(),
            scratch_new: Vec::new(),
            scratch_val: Vec::new(),
            scratch_old: Vec::new(),
            scratch_read: Vec::new(),
            scratch_cell: Vec::new(),
            scratch_decode: Vec::new(),
            scratch_actions: Vec::new(),
            scratch_claims: Vec::new(),
        })
    }

    /// Array geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Number of ports the device was pooled with.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of trial lanes per pass (`64 * K` — the runtime accessor
    /// for code that is not generic over the chunk width).
    pub fn lanes(&self) -> usize {
        Self::LANES
    }

    /// Selects the bitline wiring convention decoder faults observe (the
    /// lane counterpart of [`crate::Ram::set_wired`]; default wired-OR).
    pub fn set_wired(&mut self, wired: ReadWired) {
        self.wired = wired;
    }

    /// Mask of lanes holding an injected trial.
    pub fn active_lanes(&self) -> LaneChunk<K> {
        self.active
    }

    /// Mask of lanes frozen by a device error — so far, only write-write
    /// conflicts in multi-port cycles ([`LaneRam::cycle_conflicts`]). On
    /// the scalar path these trials abort with
    /// [`RamError::WriteWriteConflict`] and campaigns score them as
    /// escapes; batched measurement substitutes the escape observation
    /// for exactly these lanes. Cleared by [`LaneRam::reset_to`] and
    /// [`LaneRam::eject_faults`].
    pub fn errored_lanes(&self) -> LaneChunk<K> {
        self.errored
    }

    /// The injected faults.
    pub fn fault_bank(&self) -> &LaneFaultBank<K> {
        &self.bank
    }

    /// Injects a batchable fault into trial lane `lane`.
    ///
    /// Inject **before** driving operations (the campaign contract:
    /// eject → reset → inject → run). Sense-amplifier latching is only
    /// maintained while a stuck-open fault is present, so a `StuckOpen`
    /// injected after reads were already issued observes a latch those
    /// reads did not update — the scalar device latches on every read
    /// unconditionally, and the bitwise-exactness guarantee holds for
    /// runs whose faults were in place from the first operation.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultKind::validate`] errors; a rejected fault claims
    /// no lane.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is not below [`LaneRam::LANES`], or when it
    /// already carries a fault: a lane is one single-fault trial, and the
    /// bank folds same-kind faults of a cell into one lane mask, which is
    /// exact only while lanes are disjoint.
    pub fn inject(&mut self, fault: FaultKind, lane: usize) -> Result<(), RamError> {
        assert!(lane < Self::LANES, "trial lane out of range");
        let mask = LaneChunk::single(lane);
        assert!((self.active & mask).is_zero(), "trial lane already carries a fault");
        self.bank.add(&self.geom, fault, lane)?;
        self.active |= mask;
        Ok(())
    }

    /// Removes every injected fault and clears the active-lane and
    /// frozen-lane masks; the bank keeps its allocations for the
    /// next batch.
    pub fn eject_faults(&mut self) {
        self.bank.clear();
        self.active = LaneChunk::ZERO;
        self.errored = LaneChunk::ZERO;
    }

    /// Resets storage (every lane of every cell to `background`), the
    /// sense amplifiers, the retention clocks, the frozen-lane mask and
    /// the operation clock — the lane counterpart of
    /// [`crate::Ram::reset_to`]. Injected faults are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `background` exceeds the cell width.
    pub fn reset_to(&mut self, background: u64) {
        assert!(self.geom.check_data(background).is_ok(), "data wider than cells");
        let m = self.geom.width() as usize;
        for (idx, p) in self.store.iter_mut().enumerate() {
            *p = LaneChunk::broadcast(background, (idx % m) as u32);
        }
        self.sense.fill(LaneChunk::ZERO);
        self.bank.reset_clocks();
        self.errored = LaneChunk::ZERO;
        self.time = 0;
    }

    /// The word trial lane `lane` holds in `cell` — raw storage
    /// inspection, bypassing fault semantics (the lane counterpart of
    /// [`crate::Ram::peek`]).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn peek_lane(&self, cell: usize, lane: usize) -> u64 {
        assert!(lane < Self::LANES, "trial lane out of range");
        let m = self.geom.width() as usize;
        lane_word(&self.store[cell * m..cell * m + m], lane)
    }

    /// The device operation clock (reads + writes issued so far). The
    /// slicing layer records it on entry and re-syncs it across skipped
    /// op ranges so data-retention windows observe full-pass time.
    pub(crate) fn op_time(&self) -> u64 {
        self.time
    }

    /// Forces the operation clock — slicing gap jumps only.
    pub(crate) fn set_op_time(&mut self, time: u64) {
        self.time = time;
    }

    /// Overwrites `cell`'s storage with `word` on every lane, bypassing
    /// fault semantics, sense latching and the operation clock: the
    /// slicing layer's reference splice for cells no fault in the chunk
    /// can perturb.
    pub(crate) fn poke_broadcast(&mut self, cell: usize, word: u64) {
        let m = self.geom.width() as usize;
        for bit in 0..m {
            self.store[cell * m + bit] = LaneChunk::broadcast(word, bit as u32);
        }
    }

    /// Forces `port`'s sense-amplifier planes to `word` on every lane —
    /// the reference value the last skipped read on that port would have
    /// latched.
    pub(crate) fn force_sense_broadcast(&mut self, port: usize, word: u64) {
        let m = self.geom.width() as usize;
        for bit in 0..m {
            self.sense[port * m + bit] = LaneChunk::broadcast(word, bit as u32);
        }
    }

    /// Whether a stuck-open fault is present — the gate for the slicing
    /// layer's sense restores, mirroring the read path's own latch gate.
    pub(crate) fn has_sof(&self) -> bool {
        self.bank.any_sof
    }

    /// Reads `addr` on every lane at once through port 0, applying fault
    /// semantics in the scalar read order (stuck-open latch → retention
    /// decay → state coupling → NPSF → stuck-at → read-logic flips) with
    /// any decoder fault remapping the accessed cells per lane, and
    /// returns the bit-planes of the value read.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&mut self, addr: usize) -> &[LaneChunk<K>] {
        self.read_on_port(0, addr)
    }

    /// [`LaneRam::read`] through a specific port: identical fault
    /// semantics, but the stuck-open sense amplifier latched (and
    /// consulted) is `port`'s — the lane counterpart of the scalar
    /// per-port sense in multi-port cycles.
    ///
    /// # Panics
    ///
    /// Panics if `addr` or `port` is out of range.
    pub fn read_on_port(&mut self, port: usize, addr: usize) -> &[LaneChunk<K>] {
        assert!(port < self.ports, "port out of range");
        self.geom.check_addr(addr).expect("address in range");
        self.time += 1;
        let m = self.geom.width() as usize;
        if self.bank.is_empty() {
            return &self.store[addr * m..addr * m + m];
        }
        if self.bank.decoder_at(addr).is_none() {
            // Every lane reads its own cell. Without stuck-open or
            // read-logic faults anywhere, the value read IS the stored
            // planes — no staging copy, no sense maintenance (the PR-4
            // hot path, preserved).
            if !self.bank.any_sof && !self.bank.any_readlogic {
                self.read_enforce(addr, LaneChunk::FULL);
                return &self.store[addr * m..addr * m + m];
            }
            self.read_cell(addr, LaneChunk::FULL, port);
            let mut out = std::mem::take(&mut self.scratch_read);
            out.clear();
            out.extend_from_slice(&self.scratch_cell);
            self.scratch_read = out;
        } else {
            self.read_decoded(addr, port);
        }
        if self.bank.any_sof {
            // Every read latches the port's sense amplifier with the
            // value returned — on every lane, exactly like the scalar
            // port.
            self.sense[port * m..(port + 1) * m].copy_from_slice(&self.scratch_read);
        }
        &self.scratch_read
    }

    /// The decoder-faulted read path: partitions the lanes by the cells
    /// their decoder actually selects and combines the per-cell
    /// contributions under the bitline wiring convention (wired-OR floats
    /// to 0 on no-select lanes, wired-AND to all-ones — the scalar
    /// semantics, bit-sliced).
    fn read_decoded(&mut self, addr: usize, port: usize) {
        let m = self.geom.width() as usize;
        let mut remap = std::mem::take(&mut self.scratch_decode);
        remap.clear();
        remap.extend_from_slice(self.bank.decoder_at(addr).expect("caller checked"));
        let mut base_lanes = LaneChunk::FULL;
        for &(_, lanes) in &remap {
            base_lanes &= !lanes;
        }
        let mut out = std::mem::take(&mut self.scratch_read);
        out.clear();
        let init = match self.wired {
            ReadWired::Or => LaneChunk::ZERO,
            ReadWired::And => LaneChunk::FULL,
        };
        out.resize(m, init);
        let fold =
            |out: &mut [LaneChunk<K>], cell_planes: &[LaneChunk<K>], lanes: LaneChunk<K>, wired| {
                for (o, &p) in out.iter_mut().zip(cell_planes) {
                    match wired {
                        ReadWired::Or => *o |= p & lanes,
                        ReadWired::And => *o &= p | !lanes,
                    }
                }
            };
        if !base_lanes.is_zero() {
            self.read_cell(addr, base_lanes, port);
            fold(&mut out, &self.scratch_cell, base_lanes, self.wired);
        }
        for &(decode, lanes) in &remap {
            match decode {
                // No cell selected: the bitline default already seeded
                // `out` on these lanes.
                LaneDecode::None => {}
                LaneDecode::Extra(extra) => {
                    self.read_cell(addr, lanes, port);
                    fold(&mut out, &self.scratch_cell, lanes, self.wired);
                    self.read_cell(extra, lanes, port);
                    fold(&mut out, &self.scratch_cell, lanes, self.wired);
                }
                LaneDecode::Shadow(instead) => {
                    self.read_cell(instead, lanes, port);
                    fold(&mut out, &self.scratch_cell, lanes, self.wired);
                }
            }
        }
        self.scratch_read = out;
        self.scratch_decode = remap;
    }

    /// Read effects for one physical cell on the `access` lanes, leaving
    /// the planes of the value read in `scratch_cell`. Scalar order:
    /// stuck-open latch → retention decay → CFst → NPSF → stuck-at →
    /// RDF/DRDF store flips → IRF output inversion — every effect masked
    /// to the lanes that actually access the cell.
    fn read_cell(&mut self, cell: usize, access: LaneChunk<K>, port: usize) {
        let m = self.geom.width() as usize;
        let base = cell * m;
        let sof = self.bank.sof_lanes(cell) & access;
        let act = access & !sof;
        self.read_enforce(cell, act);
        let mut out = std::mem::take(&mut self.scratch_cell);
        out.clear();
        out.extend_from_slice(&self.store[base..base + m]);
        // Read-logic faults: RDF flips the store and returns the new,
        // wrong value; DRDF flips the store but returns the old, correct
        // one; IRF inverts the output only. The scalar path re-applies
        // stuck-at after a store flip; a flipped lane carries no stuck-at
        // fault, so here that is the identity.
        if let Some(s) = self.live_site(cell, act) {
            let (bank, store) = (&self.bank, &mut self.store[base..base + m]);
            bank.apply_fold(s, RDF, &mut out, |_, v, rd| v ^ (rd & act));
            bank.apply_fold(s, IRF, &mut out, |_, v, ir| v ^ (ir & act));
            bank.apply_fold(s, RDF, store, |_, v, rd| v ^ (rd & act));
            bank.apply_fold(s, DRDF, store, |_, v, dr| v ^ (dr & act));
        }
        // Stuck-open lanes return the port's latched sense-amplifier
        // value.
        if !sof.is_zero() {
            for (o, &s) in out.iter_mut().zip(&self.sense[port * m..(port + 1) * m]) {
                *o = (*o & !sof) | (s & sof);
            }
        }
        self.scratch_cell = out;
    }

    /// The site of `cell` when `access` hits a lane indexed there. Every
    /// pass masks its effect to its own lanes and the access, so an access
    /// that misses the site's lane union skips them all exactly.
    #[inline]
    fn live_site(&self, cell: usize, access: LaneChunk<K>) -> Option<usize> {
        self.bank.site_of(cell).filter(|&s| !(access & self.bank.sites[s].lanes).is_zero())
    }

    /// The state-enforcement half of a read on the `act` lanes (scalar
    /// order: retention decay → CFst → NPSF → stuck-at), leaving the
    /// stored planes as the value a divergence-free read returns.
    fn read_enforce(&mut self, cell: usize, act: LaneChunk<K>) {
        let Some(s) = self.bank.site_of(cell) else {
            return;
        };
        if self.live_site(cell, act).is_some() {
            self.fire_listed(s, DRF, act);
            self.fire_listed(s, CFST_VICTIM, act);
            self.fire_listed(s, NPSF_VICTIM, act);
        }
        // Stuck-at is re-applied on every lane, accessed or not: it is
        // idempotent, and a read of the cell applies it first anyway.
        let m = self.geom.width() as usize;
        let store = &mut self.store[cell * m..cell * m + m];
        self.bank.apply_fold(s, SA1, store, |_, v, sa| v | sa);
        self.bank.apply_fold(s, SA0, store, |_, v, sa| v & !sa);
    }

    /// Writes the same word `data` to `addr` on every lane.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `data` exceeds the cell width.
    pub fn write_broadcast(&mut self, addr: usize, data: u64) {
        self.geom.check_data(data).expect("data fits cell width");
        let m = self.geom.width() as usize;
        let mut new = std::mem::take(&mut self.scratch_new);
        new.clear();
        for bit in 0..m {
            new.push(LaneChunk::broadcast(data, bit as u32));
        }
        self.scratch_new = new;
        self.write_decoded(addr);
    }

    /// Writes per-lane values to `addr`, given as bit-planes (`planes[j]`
    /// holds bit `j` of the written word across lanes) — the accumulator
    /// write path of the batch interpreter.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `planes` is not exactly one
    /// plane per data bit.
    pub fn write_planes(&mut self, addr: usize, planes: &[LaneChunk<K>]) {
        let m = self.geom.width() as usize;
        assert_eq!(planes.len(), m, "one plane per data bit");
        let mut new = std::mem::take(&mut self.scratch_new);
        new.clear();
        new.extend_from_slice(planes);
        self.scratch_new = new;
        self.write_decoded(addr);
    }

    /// The per-lane write-write conflict engine for one multi-port cycle:
    /// given the cycle's write addresses, stages each lane's decoder-
    /// mapped claims exactly like the scalar `cycle_ref` conflict check
    /// (an unfaulted write claims its own cell; `Extra` claims the
    /// address *and* the extra cell; `Shadow` claims the shadow cell;
    /// `None` claims nothing — the write is lost) and accumulates every
    /// lane on which two writes claim the same cell into
    /// [`LaneRam::errored_lanes`].
    ///
    /// Call **before** driving the cycle's reads and writes, mirroring
    /// the scalar ordering (conflicts are detected before any side
    /// effect). Like the scalar check, a colliding pair of writes errors
    /// on *every* lane whose decoder maps them to one cell — including
    /// fault-free lanes when the program itself writes one address twice.
    /// Does not advance the operation clock. Returns the cumulative
    /// frozen-lane mask.
    pub fn cycle_conflicts(&mut self, write_addrs: &[usize]) -> LaneChunk<K> {
        fn stage<const K: usize>(
            claims: &mut Vec<(usize, LaneChunk<K>)>,
            conflict: &mut LaneChunk<K>,
            cell: usize,
            lanes: LaneChunk<K>,
        ) {
            if lanes.is_zero() {
                return;
            }
            for (c, l) in claims.iter_mut() {
                if *c == cell {
                    *conflict |= *l & lanes;
                    *l |= lanes;
                    return;
                }
            }
            claims.push((cell, lanes));
        }
        let mut claims = std::mem::take(&mut self.scratch_claims);
        claims.clear();
        let mut conflict = LaneChunk::ZERO;
        for &addr in write_addrs {
            match self.bank.decoder_at(addr) {
                None => stage(&mut claims, &mut conflict, addr, LaneChunk::FULL),
                Some(entries) => {
                    let mut base = LaneChunk::FULL;
                    for &(_, lanes) in entries {
                        base &= !lanes;
                    }
                    stage(&mut claims, &mut conflict, addr, base);
                    for &(decode, lanes) in entries {
                        match decode {
                            LaneDecode::None => {}
                            LaneDecode::Extra(extra) => {
                                stage(&mut claims, &mut conflict, addr, lanes);
                                stage(&mut claims, &mut conflict, extra, lanes);
                            }
                            LaneDecode::Shadow(instead) => {
                                stage(&mut claims, &mut conflict, instead, lanes);
                            }
                        }
                    }
                }
            }
        }
        self.scratch_claims = claims;
        self.errored |= conflict;
        self.errored
    }

    /// The shared write entry: resolves which cells each lane's decoder
    /// selects for `addr` (its own cell when no decoder fault remaps it)
    /// and commits the staged `scratch_new` planes to each.
    fn write_decoded(&mut self, addr: usize) {
        self.geom.check_addr(addr).expect("address in range");
        self.time += 1;
        if self.bank.decoder_at(addr).is_none() {
            self.write_cell(addr, LaneChunk::FULL);
            return;
        }
        let mut remap = std::mem::take(&mut self.scratch_decode);
        remap.clear();
        remap.extend_from_slice(self.bank.decoder_at(addr).expect("checked above"));
        let mut base_lanes = LaneChunk::FULL;
        for &(_, lanes) in &remap {
            base_lanes &= !lanes;
        }
        if !base_lanes.is_zero() {
            self.write_cell(addr, base_lanes);
        }
        for &(decode, lanes) in &remap {
            match decode {
                LaneDecode::None => {} // write lost on these lanes
                LaneDecode::Extra(extra) => {
                    self.write_cell(addr, lanes);
                    self.write_cell(extra, lanes);
                }
                LaneDecode::Shadow(instead) => {
                    self.write_cell(instead, lanes);
                }
            }
        }
        self.scratch_decode = remap;
    }

    /// Write effects for one physical cell on the `access` lanes, from the
    /// staged `scratch_new` planes. Scalar order: stuck-open (write lost)
    /// → transition blocking → write-disturb → stuck-at → store →
    /// coupling triggers → state coupling → NPSF, each masked per lane
    /// and to the accessing lanes.
    fn write_cell(&mut self, cell: usize, access: LaneChunk<K>) {
        let m = self.geom.width() as usize;
        let base = cell * m;
        // Stuck-open lanes lose the write entirely.
        let eff = access & !self.bank.sof_lanes(cell);
        let Some(s) = self.live_site(cell, eff) else {
            for (p, &v) in self.store[base..base + m].iter_mut().zip(&self.scratch_new) {
                *p = (v & eff) | (*p & !eff);
            }
            return;
        };
        let mut new = std::mem::take(&mut self.scratch_val);
        new.clear();
        new.extend_from_slice(&self.scratch_new);
        let mut old = std::mem::take(&mut self.scratch_old);
        old.clear();
        old.extend_from_slice(&self.store[base..base + m]);
        // Transition blocking (a blocked lane keeps its old bit), then
        // write-disturb (a non-transition write flips the bit), then
        // stuck-at on the incoming value — the scalar write order.
        let bank = &self.bank;
        bank.apply_fold(s, TF_UP, &mut new, |b, v, up| v ^ (!old[b] & v & up & eff));
        bank.apply_fold(s, TF_DOWN, &mut new, |b, v, down| v ^ (old[b] & !v & down & eff));
        bank.apply_fold(s, WDF, &mut new, |b, v, wd| v ^ (!(old[b] ^ v) & wd & eff));
        bank.apply_fold(s, SA1, &mut new, |_, v, sa| v | (sa & eff));
        bank.apply_fold(s, SA0, &mut new, |_, v, sa| v & !(sa & eff));
        for (p, &v) in self.store[base..base + m].iter_mut().zip(&new) {
            *p = (v & eff) | (*p & !eff);
        }
        // Restart the retention clock of every DRF whose lane wrote.
        for &i in &self.bank.sites[s].lists[DRF] {
            let (_, w, lane) = self.bank.entry(i);
            if lane & eff.0[w] != 0 {
                self.bank.stamps[i as usize] = self.time;
            }
        }
        // Coupling triggers on the lanes whose bits actually flipped.
        let mut actions = std::mem::take(&mut self.scratch_actions);
        actions.clear();
        for &i in &self.bank.sites[s].lists[CF_TRIGGER] {
            let (f, w, lane) = self.bank.entry(i);
            let (agg_bit, trigger, victim_cell, victim_bit, act) = match *f {
                FaultKind::CouplingInversion {
                    agg_bit, trigger, victim_cell, victim_bit, ..
                } => (agg_bit, trigger, victim_cell, victim_bit, None),
                FaultKind::CouplingIdempotent {
                    agg_bit,
                    trigger,
                    victim_cell,
                    victim_bit,
                    force,
                    ..
                } => (agg_bit, trigger, victim_cell, victim_bit, Some(force)),
                _ => unreachable!("the trigger list holds CFin and CFid only"),
            };
            let (o, n) = (old[agg_bit as usize].0[w], new[agg_bit as usize].0[w]);
            let fired = match trigger {
                CouplingTrigger::Rise => !o & n,
                CouplingTrigger::Fall => o & !n,
            } & lane
                & eff.0[w];
            if fired != 0 {
                actions.push((victim_cell, victim_bit, act, w, fired));
            }
        }
        self.apply_actions(&actions);
        self.scratch_actions = actions;
        self.scratch_old = old;
        self.scratch_val = new;
        self.fire_listed(s, CFST_AGG, eff);
        self.fire_listed(s, CFST_VICTIM, eff);
        self.fire_listed(s, NPSF_NEIGHBOR, eff);
    }

    /// Applies staged bit actions: `None` inverts the victim bit on the
    /// masked lanes, `Some(v)` forces it. The scalar `force_bit` then
    /// re-applies the victim cell's stuck-at faults; an acting lane
    /// carries no stuck-at fault, so here that is the identity.
    fn apply_actions(&mut self, actions: &[(usize, u32, Option<u8>, usize, u64)]) {
        let m = self.geom.width() as usize;
        for &(vc, vb, act, w, lanes) in actions {
            let p = &mut self.store[vc * m + vb as usize].0[w];
            match act {
                None => *p ^= lanes,
                Some(v) if v & 1 == 1 => *p |= lanes,
                Some(_) => *p &= !lanes,
            }
        }
    }

    /// Forces the target bit of every entry of list `list` at site `s`,
    /// on the accessing lanes whose condition holds now: a DRF whose
    /// retention window has passed decays; a CFst whose aggressor bit
    /// holds the trigger state forces its victim; an NPSF whose
    /// neighbours all hold their listed values forces its victim. Each
    /// family checks the same condition from every side it is listed on.
    fn fire_listed(&mut self, s: usize, list: usize, access: LaneChunk<K>) {
        let m = self.geom.width() as usize;
        let mut actions = std::mem::take(&mut self.scratch_actions);
        actions.clear();
        for &i in &self.bank.sites[s].lists[list] {
            let (f, w, lane) = self.bank.entry(i);
            let live = lane & access.0[w];
            if live == 0 {
                continue;
            }
            let holds = |c: usize, b: u32, v: u8| {
                let p = self.store[c * m + b as usize].0[w];
                if v & 1 == 1 {
                    p
                } else {
                    !p
                }
            };
            let (cond, cell, bit, force) = match f {
                FaultKind::DataRetention { cell, bit, decays_to, after } => {
                    let due = self.time.saturating_sub(self.bank.stamps[i as usize]) > *after;
                    (if due { live } else { 0 }, *cell, *bit, *decays_to)
                }
                FaultKind::CouplingState {
                    agg_cell,
                    agg_bit,
                    agg_state,
                    victim_cell,
                    victim_bit,
                    force,
                } => (holds(*agg_cell, *agg_bit, *agg_state), *victim_cell, *victim_bit, *force),
                FaultKind::Npsf { victim_cell, victim_bit, neighbors, force } => {
                    let all = neighbors.iter().fold(live, |c, &(n, b, v)| c & holds(n, b, v));
                    (all, *victim_cell, *victim_bit, *force)
                }
                _ => unreachable!("entry lists hold DRF, CFst and NPSF only"),
            };
            if cond & live != 0 {
                actions.push((cell, bit, Some(force), w, cond & live));
            }
        }
        self.apply_actions(&actions);
        self.scratch_actions = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ram;

    /// Drives the same op sequence through one scalar single-fault `Ram`
    /// per `(fault, lane)` trial and one `LaneRam<K>` carrying every
    /// trial, asserting at every step that each read returns, in each
    /// trial's lane, what that trial's scalar device reads. A single
    /// trial's raw storage must match too. With several trials it may
    /// not: a read re-applies the cell's stuck-at masks on every lane, so
    /// a stuck-at lane's storage can take its stuck value before that
    /// lane accesses the cell, which no read can observe.
    fn assert_chunk_matches_scalar<const K: usize>(
        geom: Geometry,
        trials: &[(FaultKind, usize)],
        script: &[(bool, usize, u64)], // (is_write, addr, data)
        wired: ReadWired,
    ) {
        let mut lanes = LaneRam::<K>::new(geom);
        lanes.set_wired(wired);
        let mut scalars: Vec<Ram> = trials
            .iter()
            .map(|(fault, lane)| {
                lanes.inject(fault.clone(), *lane).unwrap();
                let mut scalar = Ram::new(geom);
                scalar.set_wired(wired);
                scalar.inject(fault.clone()).unwrap();
                scalar
            })
            .collect();
        for (step, &(is_write, addr, data)) in script.iter().enumerate() {
            if is_write {
                scalars.iter_mut().for_each(|s| s.write(addr, data));
                lanes.write_broadcast(addr, data);
            } else {
                let planes = lanes.read(addr);
                for ((fault, lane), scalar) in trials.iter().zip(&mut scalars) {
                    let want = scalar.read(addr);
                    let got = lane_word(planes, *lane);
                    assert_eq!(got, want, "{fault} lane {lane} step {step}: read @{addr}");
                }
            }
            if let [(fault, lane)] = trials {
                for c in 0..geom.cells() {
                    assert_eq!(
                        lanes.peek_lane(c, *lane),
                        scalars[0].peek(c),
                        "{fault} lane {lane} step {step}: cell {c}"
                    );
                }
            }
        }
    }

    fn assert_lane_matches_scalar(
        geom: Geometry,
        fault: FaultKind,
        lane: usize,
        script: &[(bool, usize, u64)],
    ) {
        assert_lane_matches_scalar_wired(geom, fault, lane, script, ReadWired::Or);
    }

    fn assert_lane_matches_scalar_wired(
        geom: Geometry,
        fault: FaultKind,
        lane: usize,
        script: &[(bool, usize, u64)],
        wired: ReadWired,
    ) {
        assert_chunk_matches_scalar::<1>(geom, &[(fault.clone(), lane)], script, wired);
        // The same trial relocated into the top word of a 4-word chunk:
        // widening the lane dimension must not change per-lane semantics
        // wherever the lane lands.
        assert_chunk_matches_scalar::<4>(geom, &[(fault, lane + 3 * LANES)], script, wired);
    }

    #[test]
    fn stuck_at_matches_scalar_in_any_lane() {
        for lane in [0usize, 17, 63] {
            for value in [0u8, 1] {
                assert_lane_matches_scalar(
                    Geometry::bom(4),
                    FaultKind::StuckAt { cell: 1, bit: 0, value },
                    lane,
                    &[(true, 1, 1), (false, 1, 0), (true, 1, 0), (false, 1, 0)],
                );
            }
        }
    }

    #[test]
    fn transition_blocking_matches_scalar() {
        for rising in [true, false] {
            assert_lane_matches_scalar(
                Geometry::bom(2),
                FaultKind::Transition { cell: 0, bit: 0, rising },
                9,
                &[(true, 0, 1), (false, 0, 0), (true, 0, 0), (false, 0, 0), (true, 0, 1)],
            );
        }
    }

    #[test]
    fn couplings_match_scalar() {
        let script: Vec<(bool, usize, u64)> = vec![
            (true, 2, 1),
            (true, 0, 1),
            (false, 2, 0),
            (true, 0, 0),
            (false, 2, 0),
            (true, 0, 1),
            (false, 2, 0),
            (true, 2, 0),
            (false, 2, 0),
        ];
        for trigger in [CouplingTrigger::Rise, CouplingTrigger::Fall] {
            assert_lane_matches_scalar(
                Geometry::bom(4),
                FaultKind::CouplingInversion {
                    agg_cell: 0,
                    agg_bit: 0,
                    victim_cell: 2,
                    victim_bit: 0,
                    trigger,
                },
                31,
                &script,
            );
            for force in [0u8, 1] {
                assert_lane_matches_scalar(
                    Geometry::bom(4),
                    FaultKind::CouplingIdempotent {
                        agg_cell: 0,
                        agg_bit: 0,
                        victim_cell: 2,
                        victim_bit: 0,
                        trigger,
                        force,
                    },
                    31,
                    &script,
                );
            }
        }
        for agg_state in [0u8, 1] {
            for force in [0u8, 1] {
                assert_lane_matches_scalar(
                    Geometry::bom(4),
                    FaultKind::CouplingState {
                        agg_cell: 0,
                        agg_bit: 0,
                        agg_state,
                        victim_cell: 2,
                        victim_bit: 0,
                        force,
                    },
                    62,
                    &script,
                );
            }
        }
    }

    #[test]
    fn intra_word_coupling_matches_scalar() {
        assert_lane_matches_scalar(
            Geometry::wom(4, 4).unwrap(),
            FaultKind::CouplingInversion {
                agg_cell: 1,
                agg_bit: 0,
                victim_cell: 1,
                victim_bit: 3,
                trigger: CouplingTrigger::Rise,
            },
            5,
            &[(true, 1, 0b0001), (false, 1, 0), (true, 1, 0b0000), (false, 1, 0)],
        );
    }

    #[test]
    fn retention_decay_matches_scalar() {
        assert_lane_matches_scalar(
            Geometry::bom(4),
            FaultKind::DataRetention { cell: 0, bit: 0, decays_to: 0, after: 3 },
            44,
            &[(true, 0, 1), (false, 0, 0), (true, 1, 1), (true, 2, 1), (true, 3, 1), (false, 0, 0)],
        );
    }

    #[test]
    fn npsf_matches_scalar() {
        assert_lane_matches_scalar(
            Geometry::bom(5),
            FaultKind::Npsf {
                victim_cell: 2,
                victim_bit: 0,
                neighbors: vec![(1, 0, 1), (3, 0, 1)],
                force: 1,
            },
            3,
            &[(true, 2, 0), (true, 1, 1), (false, 2, 0), (true, 3, 1), (false, 2, 0)],
        );
    }

    #[test]
    fn stuck_open_matches_scalar() {
        // The sense amplifier latches the last read value; SOF reads
        // return the latch, SOF writes are lost — mirror the scalar
        // `stuck_open_latches_sense_amp` scenario step by step.
        assert_lane_matches_scalar(
            Geometry::bom(4),
            FaultKind::StuckOpen { cell: 2 },
            29,
            &[
                (true, 1, 1),
                (true, 2, 1),  // lost
                (false, 1, 0), // latch 1
                (false, 2, 0), // returns latched 1
                (true, 0, 0),
                (false, 0, 0), // latch 0
                (false, 2, 0), // returns latched 0
            ],
        );
    }

    #[test]
    fn read_logic_families_match_scalar() {
        let script: &[(bool, usize, u64)] = &[
            (true, 0, 1),
            (false, 0, 0),
            (false, 0, 0),
            (true, 0, 1),
            (false, 0, 0),
            (true, 0, 0),
            (false, 0, 0),
            (false, 0, 0),
        ];
        for fault in [
            FaultKind::ReadDestructive { cell: 0, bit: 0 },
            FaultKind::DeceptiveRead { cell: 0, bit: 0 },
            FaultKind::IncorrectRead { cell: 0, bit: 0 },
        ] {
            for lane in [0usize, 40, 63] {
                assert_lane_matches_scalar(Geometry::bom(2), fault.clone(), lane, script);
            }
        }
    }

    #[test]
    fn write_disturb_matches_scalar() {
        assert_lane_matches_scalar(
            Geometry::bom(2),
            FaultKind::WriteDisturb { cell: 0, bit: 0 },
            13,
            &[
                (true, 0, 1), // transition: fine
                (false, 0, 0),
                (true, 0, 1), // non-transition: disturbed to 0
                (false, 0, 0),
                (true, 0, 0), // now a non-transition 0-write: disturbed to 1
                (false, 0, 0),
            ],
        );
    }

    #[test]
    fn decoder_faults_match_scalar_under_both_wirings() {
        let script: &[(bool, usize, u64)] = &[
            (true, 2, 1),
            (false, 2, 0),
            (true, 5, 1),
            (false, 5, 0),
            (true, 2, 0),
            (false, 2, 0),
            (false, 5, 0),
            (true, 6, 1),
            (false, 3, 0),
            (false, 6, 0),
        ];
        for wired in [ReadWired::Or, ReadWired::And] {
            for fault in [
                FaultKind::DecoderNoAccess { addr: 2 },
                FaultKind::DecoderExtraCell { addr: 2, extra_cell: 5 },
                FaultKind::DecoderShadow { addr: 3, instead_cell: 6 },
            ] {
                for lane in [0usize, 21, 63] {
                    assert_lane_matches_scalar_wired(
                        Geometry::bom(8),
                        fault.clone(),
                        lane,
                        script,
                        wired,
                    );
                }
            }
        }
    }

    #[test]
    fn decoder_extra_cell_wom_matches_scalar() {
        assert_lane_matches_scalar(
            Geometry::wom(6, 4).unwrap(),
            FaultKind::DecoderExtraCell { addr: 1, extra_cell: 4 },
            50,
            &[
                (true, 1, 0xA), // writes cells 1 and 4
                (false, 4, 0),
                (true, 4, 0x5),
                (false, 1, 0), // OR(0xA, 0x5)
                (false, 4, 0),
            ],
        );
    }

    #[test]
    fn wide_chunks_match_scalar_in_every_word() {
        // One trial per chunk word of an 8-word (512-lane) chunk,
        // including both word-boundary lanes.
        let geom = Geometry::bom(4);
        let fault = FaultKind::StuckAt { cell: 1, bit: 0, value: 0 };
        let script: &[(bool, usize, u64)] =
            &[(true, 1, 1), (false, 1, 0), (true, 1, 0), (false, 1, 0)];
        for lane in [0usize, 63, 64, 130, 255, 256, 320, 511] {
            assert_chunk_matches_scalar::<8>(geom, &[(fault.clone(), lane)], script, ReadWired::Or);
        }
    }

    #[test]
    fn crowded_cell_matches_scalar_in_every_lane() {
        // Every folded kind on both bits of one cell, a retention fault
        // per bit, a state coupling with that cell as victim (its trigger
        // state is the reset value, so the very first read must enforce
        // it), a coupling trigger with that cell as aggressor, and
        // decoder faults mapping other addresses onto it or it onto
        // another cell — spread over the words of a 512-lane chunk.
        let geom = Geometry::wom(6, 2).unwrap();
        let c = 2;
        let mut faults = vec![FaultKind::StuckOpen { cell: c }];
        for bit in 0..2 {
            faults.extend([
                FaultKind::StuckAt { cell: c, bit, value: 0 },
                FaultKind::StuckAt { cell: c, bit, value: 1 },
                FaultKind::Transition { cell: c, bit, rising: true },
                FaultKind::Transition { cell: c, bit, rising: false },
                FaultKind::WriteDisturb { cell: c, bit },
                FaultKind::ReadDestructive { cell: c, bit },
                FaultKind::DeceptiveRead { cell: c, bit },
                FaultKind::IncorrectRead { cell: c, bit },
                FaultKind::DataRetention { cell: c, bit, decays_to: bit as u8 ^ 1, after: 4 },
            ]);
        }
        faults.extend([
            FaultKind::CouplingState {
                agg_cell: 4,
                agg_bit: 0,
                agg_state: 0,
                victim_cell: c,
                victim_bit: 1,
                force: 1,
            },
            FaultKind::CouplingIdempotent {
                agg_cell: c,
                agg_bit: 0,
                victim_cell: 5,
                victim_bit: 1,
                trigger: CouplingTrigger::Rise,
                force: 1,
            },
            FaultKind::DecoderExtraCell { addr: 0, extra_cell: c },
            FaultKind::DecoderShadow { addr: 3, instead_cell: c },
            FaultKind::DecoderExtraCell { addr: c, extra_cell: 1 },
        ]);
        let trials: Vec<(FaultKind, usize)> =
            faults.into_iter().enumerate().map(|(i, f)| (f, (i * 149 + 7) % 512)).collect();
        let mut rng = crate::SplitMix64::new(0x5eed);
        let mut script = vec![(false, c, 0)];
        script.extend((0..400).map(|_| {
            let addr = rng.next_below(6) as usize;
            (rng.next_below(3) == 0, addr, rng.next_below(4))
        }));
        for wired in [ReadWired::Or, ReadWired::And] {
            assert_chunk_matches_scalar::<8>(geom, &trials, &script, wired);
        }
    }

    #[test]
    fn lanes_are_isolated() {
        // Two different faults in two lanes: each lane behaves like its
        // own scalar device, the other lane's fault invisible to it.
        let geom = Geometry::bom(4);
        let mut lanes: LaneRam = LaneRam::new(geom);
        lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 2).unwrap();
        lanes.inject(FaultKind::StuckAt { cell: 1, bit: 0, value: 1 }, 7).unwrap();
        assert_eq!(lanes.active_lanes(), LaneChunk::single(2) | LaneChunk::single(7));
        lanes.write_broadcast(0, 1);
        lanes.write_broadcast(1, 0);
        let p0 = lanes.read(0)[0];
        assert!(!p0.get(2), "lane 2 is stuck at 0");
        assert!(p0.get(7), "lane 7 sees a healthy cell 0");
        let p1 = lanes.read(1)[0];
        assert!(!p1.get(2), "lane 2 sees a healthy cell 1");
        assert!(p1.get(7), "lane 7 is stuck at 1");
    }

    #[test]
    fn cross_word_lanes_are_isolated() {
        // The same two-fault isolation, with the trials in different
        // words of a 4-word chunk.
        let geom = Geometry::bom(4);
        let mut lanes: LaneRam<4> = LaneRam::new(geom);
        lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 70).unwrap();
        lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 1 }, 200).unwrap();
        lanes.write_broadcast(0, 1);
        let p = lanes.read(0)[0];
        assert!(!p.get(70), "lane 70 is stuck at 0");
        assert!(p.get(200), "lane 200 is stuck at 1");
        assert!(p.get(0) && p.get(130) && p.get(255), "unfaulted lanes read the written 1");
    }

    #[test]
    fn decoder_and_read_logic_lanes_stay_isolated() {
        // A decoder fault in one lane diverts its accesses; the diverted
        // accesses must not fire another lane's read-triggered fault, and
        // vice versa — the cross-lane hazard the per-access lane masks
        // exist to prevent.
        let geom = Geometry::bom(8);
        let shadow = FaultKind::DecoderShadow { addr: 3, instead_cell: 6 };
        let rdf = FaultKind::ReadDestructive { cell: 6, bit: 0 };
        let mut lanes: LaneRam = LaneRam::new(geom);
        lanes.inject(shadow.clone(), 11).unwrap();
        lanes.inject(rdf.clone(), 44).unwrap();
        let mut s_shadow = Ram::new(geom);
        s_shadow.inject(shadow).unwrap();
        let mut s_rdf = Ram::new(geom);
        s_rdf.inject(rdf).unwrap();
        let script: &[(bool, usize, u64)] = &[
            (true, 6, 1),
            (true, 3, 0),  // lane 11 writes cell 6 instead
            (false, 3, 0), // lane 11 reads cell 6; lane 44's RDF must not fire
            (false, 6, 0), // lane 44's RDF fires exactly once here
            (false, 6, 0),
        ];
        for (step, &(is_write, addr, data)) in script.iter().enumerate() {
            if is_write {
                s_shadow.write(addr, data);
                s_rdf.write(addr, data);
                lanes.write_broadcast(addr, data);
            } else {
                let w_shadow = s_shadow.read(addr);
                let w_rdf = s_rdf.read(addr);
                let planes = lanes.read(addr);
                assert_eq!(lane_word(planes, 11), w_shadow, "shadow lane, step {step}");
                assert_eq!(lane_word(planes, 44), w_rdf, "rdf lane, step {step}");
            }
            for c in 0..8 {
                assert_eq!(lanes.peek_lane(c, 11), s_shadow.peek(c), "step {step} cell {c}");
                assert_eq!(lanes.peek_lane(c, 44), s_rdf.peek(c), "step {step} cell {c}");
            }
        }
    }

    #[test]
    fn multi_port_sense_planes_are_independent() {
        // A stuck-open read returns the latch of the port doing the
        // read; reads on other ports must not disturb it — the scalar
        // per-port sense array, bit-sliced.
        let geom = Geometry::bom(4);
        let mut lanes = LaneRam::<1>::with_ports(geom, 2).unwrap();
        lanes.inject(FaultKind::StuckOpen { cell: 2 }, 7).unwrap();
        lanes.write_broadcast(0, 1);
        lanes.write_broadcast(1, 0);
        let _ = lanes.read_on_port(0, 0); // port 0 latches 1
        let _ = lanes.read_on_port(1, 1); // port 1 latches 0
        assert_eq!(lane_word(lanes.read_on_port(0, 2), 7), 1, "port 0 returns its own latch");
        assert_eq!(lane_word(lanes.read_on_port(1, 2), 7), 0, "port 1 returns its own latch");
    }

    #[test]
    fn cycle_conflicts_follow_per_lane_decoder_claims() {
        let geom = Geometry::bom(8);
        let mut lanes: LaneRam = LaneRam::new(geom);
        lanes.inject(FaultKind::DecoderShadow { addr: 1, instead_cell: 0 }, 5).unwrap();
        // Writes to 0 and 1 land on one cell only where the shadow
        // diverts them…
        assert_eq!(lanes.cycle_conflicts(&[0, 1]), LaneChunk::single(5));
        assert_eq!(lanes.errored_lanes(), LaneChunk::single(5));
        // …a conflict-free cycle leaves the frozen set sticky…
        assert_eq!(lanes.cycle_conflicts(&[2, 3]), LaneChunk::single(5));
        // …and recycling the device clears it.
        lanes.reset_to(0);
        assert!(lanes.errored_lanes().is_zero());
        // Two writes to one address conflict on every lane, fault-free
        // included (the scalar device errors regardless of faults).
        assert_eq!(lanes.cycle_conflicts(&[4, 4]), LaneChunk::FULL);
        lanes.eject_faults();
        assert!(lanes.errored_lanes().is_zero());
    }

    #[test]
    fn lost_writes_claim_no_cell() {
        let geom = Geometry::bom(8);
        let mut lanes: LaneRam = LaneRam::new(geom);
        lanes.inject(FaultKind::DecoderNoAccess { addr: 1 }, 3).unwrap();
        // Both writes to address 1 are lost on lane 3 — every other lane
        // conflicts.
        assert_eq!(lanes.cycle_conflicts(&[1, 1]), !LaneChunk::single(3));
    }

    #[test]
    fn port_pool_bounds_are_enforced() {
        let geom = Geometry::bom(4);
        assert!(LaneRam::<1>::with_ports(geom, 0).is_err());
        assert!(LaneRam::<1>::with_ports(geom, MAX_PORTS + 1).is_err());
        assert_eq!(LaneRam::<1>::with_ports(geom, 4).unwrap().ports(), 4);
    }

    #[test]
    fn reset_and_eject_recycle_the_device() {
        let geom = Geometry::wom(4, 4).unwrap();
        let mut lanes: LaneRam = LaneRam::new(geom);
        lanes.inject(FaultKind::StuckAt { cell: 1, bit: 2, value: 1 }, 0).unwrap();
        lanes.write_broadcast(1, 0xF);
        lanes.eject_faults();
        lanes.reset_to(0xA);
        assert!(lanes.active_lanes().is_zero());
        assert!(lanes.fault_bank().is_empty());
        for c in 0..4 {
            for l in [0usize, 63] {
                assert_eq!(lanes.peek_lane(c, l), 0xA);
            }
        }
        // And the recycled device accepts a fresh batch.
        lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 63).unwrap();
        lanes.write_broadcast(0, 0xF);
        assert_eq!(lanes.peek_lane(0, 63), 0xE);
    }

    #[test]
    fn reset_recycles_sense_and_retention_state() {
        let geom = Geometry::bom(4);
        let mut lanes: LaneRam = LaneRam::new(geom);
        lanes.inject(FaultKind::StuckOpen { cell: 2 }, 3).unwrap();
        lanes.write_broadcast(1, 1);
        let _ = lanes.read(1); // latch 1
        lanes.reset_to(0);
        // A fresh device after reset: the latch was cleared, so the SOF
        // read returns 0, as on a just-constructed memory.
        assert!(!lanes.read(2)[0].get(3), "sense latch must reset");

        let mut lanes: LaneRam = LaneRam::new(geom);
        lanes
            .inject(FaultKind::DataRetention { cell: 0, bit: 0, decays_to: 0, after: 3 }, 9)
            .unwrap();
        // Age the device past the retention window, then recycle it.
        for _ in 0..2 {
            for a in 0..4 {
                lanes.write_broadcast(a, 1);
            }
        }
        lanes.reset_to(0);
        lanes.write_broadcast(0, 1);
        assert!(lanes.read(0)[0].get(9), "retention window must restart at reset");
        lanes.write_broadcast(1, 1);
        lanes.write_broadcast(2, 1);
        lanes.write_broadcast(3, 1);
        assert!(!lanes.read(0)[0].get(9), "and decay again once exceeded");
    }

    #[test]
    fn every_family_is_batchable() {
        let mut lanes: LaneRam = LaneRam::new(Geometry::bom(4));
        for (lane, fault) in [
            FaultKind::DecoderNoAccess { addr: 0 },
            FaultKind::DecoderExtraCell { addr: 1, extra_cell: 2 },
            FaultKind::DecoderShadow { addr: 2, instead_cell: 3 },
            FaultKind::StuckOpen { cell: 1 },
            FaultKind::ReadDestructive { cell: 0, bit: 0 },
            FaultKind::DeceptiveRead { cell: 0, bit: 0 },
            FaultKind::IncorrectRead { cell: 0, bit: 0 },
            FaultKind::WriteDisturb { cell: 0, bit: 0 },
            FaultKind::StuckAt { cell: 0, bit: 0, value: 0 },
            FaultKind::Transition { cell: 0, bit: 0, rising: true },
            FaultKind::DataRetention { cell: 0, bit: 0, decays_to: 0, after: 2 },
        ]
        .into_iter()
        .enumerate()
        {
            lanes.inject(fault, lane).expect("every modelled family injects");
        }
        assert_eq!(lanes.active_lanes().count_ones(), 11);
    }

    #[test]
    fn chunk_mask_helpers_are_consistent() {
        assert_eq!(LaneChunk::<4>::LANES, 256);
        assert_eq!(LaneChunk::<4>::prefix(0), LaneChunk::ZERO);
        assert_eq!(LaneChunk::<4>::prefix(256), LaneChunk::FULL);
        let p = LaneChunk::<4>::prefix(100);
        assert_eq!(p.count_ones(), 100);
        assert!(p.get(99) && !p.get(100));
        let mut seen = Vec::new();
        (LaneChunk::<4>::single(3) | LaneChunk::single(64) | LaneChunk::single(255))
            .for_each_lane(|l| seen.push(l));
        assert_eq!(seen, [3, 64, 255]);
        assert_eq!(lane_word(&[LaneChunk::<4>::single(70), LaneChunk::ZERO], 70), 0b01);
    }

    #[test]
    fn validation_errors_propagate() {
        let mut lanes: LaneRam = LaneRam::new(Geometry::bom(4));
        assert!(lanes.inject(FaultKind::StuckAt { cell: 9, bit: 0, value: 0 }, 0).is_err());
        assert!(lanes.inject(FaultKind::DecoderNoAccess { addr: 4 }, 0).is_err());
        assert!(lanes.active_lanes().is_zero(), "rejected faults must not claim a lane");
    }

    #[test]
    #[should_panic(expected = "trial lane out of range")]
    fn lane_bound_is_enforced() {
        let mut lanes: LaneRam = LaneRam::new(Geometry::bom(4));
        let _ = lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, LANES);
    }

    #[test]
    #[should_panic(expected = "trial lane already carries a fault")]
    fn one_fault_per_lane_is_enforced() {
        let mut lanes: LaneRam<4> = LaneRam::new(Geometry::bom(4));
        lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 130).unwrap();
        let _ = lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 1 }, 130);
    }

    #[test]
    #[should_panic(expected = "trial lane out of range")]
    fn wide_lane_bound_is_enforced() {
        let mut lanes: LaneRam<4> = LaneRam::new(Geometry::bom(4));
        let _ = lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 4 * LANES);
    }
}
