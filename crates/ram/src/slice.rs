//! Activity-driven program slicing: the address→op index and span-union
//! machinery that lets the batch interpreter skip the ops a fault can't
//! see.
//!
//! A memory fault only interacts with the cells of its *span* (victim,
//! aggressor, decoder image, NPSF neighbourhood). Outside the union of a
//! lane chunk's spans the device state equals the fault-free reference on
//! every lane, so every op touching only out-of-union cells is provably a
//! pass/no-op whose effect is known at compile time — the memory-test
//! analogue of event-driven (concurrent) fault simulation.
//!
//! [`ActivityIndex::build`] runs one fault-free reference simulation of a
//! compiled [`TestProgram`] and records, per op: the device-clock prefix,
//! the checked-response prefix, the pre-op reference value of every
//! address the op reads, and the last read issued on each port. With
//! that, the sliced interpreters in [`crate::prog`] jump from active op
//! to active op and splice the gaps in O(1) per op:
//!
//! * the operation clock is re-synced (data-retention windows observe
//!   full-pass time),
//! * out-of-union cells an active op reads are poked to their pre-op
//!   reference (skipped writes never materialised),
//! * stuck-open sense amplifiers are restored to the last skipped read's
//!   reference value, and
//! * skipped checked reads emit their broadcast expected word to the
//!   observer (the fault-free response, per the
//!   [`TestProgram::expected_responses`] contract).
//!
//! [`ActiveSet`] is the per-chunk scratch: insert the chunk's faults,
//! [`ActiveSet::finalize`] against a program's index, and the sorted
//! active-op list plus the span-union membership test are ready for the
//! sliced pass. Ops whose behaviour is data-dependent on every lane
//! (accumulator ops, multi-port cycles with program-level write-write
//! conflicts, checked reads whose expectation diverges from the
//! reference) are *always active* and never skipped.

use crate::fault::FaultKind;
use crate::prog::{apply_map, MemOp, SlotOp, TestProgram, ACC_LANES};
use crate::{Geometry, MAX_PORTS};

/// Sentinel op index for "no read has been issued on this port yet".
pub(crate) const NO_READ: u32 = u32::MAX;

/// Visits every cell of `fault`'s span: the addresses whose ops a sliced
/// pass must execute for the fault's behaviour to be bit-identical to the
/// full pass (victim and aggressor cells, decoder addresses and their
/// remapped images, the NPSF neighbourhood).
pub fn fault_cells(fault: &FaultKind, mut visit: impl FnMut(usize)) {
    match fault {
        FaultKind::StuckAt { cell, .. }
        | FaultKind::Transition { cell, .. }
        | FaultKind::StuckOpen { cell }
        | FaultKind::ReadDestructive { cell, .. }
        | FaultKind::DeceptiveRead { cell, .. }
        | FaultKind::IncorrectRead { cell, .. }
        | FaultKind::WriteDisturb { cell, .. }
        | FaultKind::DataRetention { cell, .. } => visit(*cell),
        FaultKind::CouplingInversion { agg_cell, victim_cell, .. }
        | FaultKind::CouplingIdempotent { agg_cell, victim_cell, .. }
        | FaultKind::CouplingState { agg_cell, victim_cell, .. } => {
            visit(*agg_cell);
            visit(*victim_cell);
        }
        FaultKind::DecoderNoAccess { addr } => visit(*addr),
        FaultKind::DecoderExtraCell { addr, extra_cell } => {
            visit(*addr);
            visit(*extra_cell);
        }
        FaultKind::DecoderShadow { addr, instead_cell } => {
            visit(*addr);
            visit(*instead_cell);
        }
        FaultKind::Npsf { victim_cell, neighbors, .. } => {
            visit(*victim_cell);
            for &(c, _, _) in neighbors {
                visit(c);
            }
        }
    }
}

/// The locality sort key for chunk assembly: the smallest cell of the
/// fault's span. Campaign engines sort a segment's faults by this key so
/// the faults sharing a lane chunk have tight span unions (coupling
/// faults group by their aggressor/victim window) — verdicts are keyed
/// by fault index, so reports and checkpoints are unaffected by the
/// assembly order.
pub fn fault_locality_key(fault: &FaultKind) -> usize {
    let mut min = usize::MAX;
    fault_cells(fault, |c| min = min.min(c));
    min
}

/// The chunk-assembly order of `faults` on an array of `cells` cells:
/// their positions sorted by `(fault_locality_key, position)`. Keys are
/// cell indices, so a stable counting sort over `cells` buckets yields
/// that order in linear time, computing each key once. A key at or past
/// `cells` (an invalid fault, which fails at injection) sorts last.
///
/// # Example
///
/// ```
/// use prt_ram::{locality_order, FaultKind};
///
/// let faults = [
///     FaultKind::StuckAt { cell: 3, bit: 0, value: 0 },
///     FaultKind::StuckOpen { cell: 1 },
///     FaultKind::StuckAt { cell: 3, bit: 0, value: 1 },
///     FaultKind::DecoderShadow { addr: 2, instead_cell: 0 },
/// ];
/// assert_eq!(locality_order(&faults, 4), [3, 1, 0, 2]);
/// ```
pub fn locality_order(faults: &[FaultKind], cells: usize) -> Vec<u32> {
    let keys: Vec<usize> = faults.iter().map(|f| fault_locality_key(f).min(cells)).collect();
    // `next[k]` counts the keys below `k`: key `k`'s first position.
    let mut next = vec![0u32; cells + 2];
    for &k in &keys {
        next[k + 1] += 1;
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let mut order = vec![0u32; faults.len()];
    for (i, &k) in keys.iter().enumerate() {
        order[next[k] as usize] = i as u32;
        next[k] += 1;
    }
    order
}

/// Appends `opi` to `addr`'s op list unless it is already the last entry
/// (one op may touch an address through several slots).
fn touch(ops_by_addr: &mut [Vec<u32>], addr: u32, opi: u32) {
    let list = &mut ops_by_addr[addr as usize];
    if list.last() != Some(&opi) {
        list.push(opi);
    }
}

/// The per-program compile of everything a sliced pass needs: the
/// address→op-index map plus per-op prefix state of one fault-free
/// reference execution (device clock, checked-response stream, pre-op
/// read values, per-port sense history).
///
/// Build it once per (program, campaign) — it assumes the device starts
/// from the all-zero reset state (`reset_to(0)`), which is the campaign
/// engines' contract before every trial.
#[derive(Debug, Clone)]
pub struct ActivityIndex {
    pub(crate) n_ops: usize,
    pub(crate) geom: Geometry,
    /// `addr → sorted op indices touching that address` (any read or
    /// write, scalar or slot).
    pub(crate) ops_by_addr: Vec<Vec<u32>>,
    /// Sorted ops that execute in every sliced pass: accumulator ops,
    /// cycles with program-level write-write conflicts or accumulator
    /// slots, and checked reads whose expectation diverges from the
    /// fault-free reference.
    pub(crate) always_active: Vec<u32>,
    /// Addresses forced into every span union: accumulator write targets,
    /// whose stored value is per-lane data-dependent.
    pub(crate) forced: Vec<u32>,
    /// Device-clock value before each op (`n_ops + 1` entries; the last
    /// is the full-pass total).
    pub(crate) time_before: Vec<u64>,
    /// Checked-read responses emitted before each op (`n_ops + 1`
    /// prefix counts into [`ActivityIndex::responses`]).
    pub(crate) responses_before: Vec<u32>,
    /// The full fault-free checked-read response stream, in observation
    /// order (equals [`TestProgram::expected_responses`]).
    pub(crate) responses: Vec<u64>,
    /// Flat `(addr, pre-op reference value)` pairs for every address each
    /// op reads, indexed by [`ActivityIndex::read_ref_offsets`].
    pub(crate) read_refs: Vec<(u32, u64)>,
    /// `n_ops + 1` prefix offsets into [`ActivityIndex::read_refs`].
    pub(crate) read_ref_offsets: Vec<u32>,
    /// Per op, per port: the last device read issued on that port
    /// *strictly before* the op, as `(op index, reference value)`
    /// ([`NO_READ`] when none) — the sense-amplifier restore table for
    /// stuck-open lanes.
    pub(crate) last_read_before: Vec<[(u32, u64); MAX_PORTS]>,
    /// Full-pass per-lane operation count ([`crate::Execution::ops`]).
    pub(crate) total_ops: u64,
    /// Full-pass per-lane cycle count ([`crate::Execution::cycles`]).
    pub(crate) total_cycles: u64,
}

impl ActivityIndex {
    /// Compiles the activity index for `program` by running one
    /// fault-free reference simulation from the all-zero reset state.
    pub fn build(program: &TestProgram) -> ActivityIndex {
        let geom = program.geometry();
        let mask = geom.data_mask();
        let ops = program.ops();
        let slot_tab = program.slots();
        let maps = program.map_table();
        let n_ops = ops.len();
        let mut idx = ActivityIndex {
            n_ops,
            geom,
            ops_by_addr: vec![Vec::new(); geom.cells()],
            always_active: Vec::new(),
            forced: Vec::new(),
            time_before: Vec::with_capacity(n_ops + 1),
            responses_before: Vec::with_capacity(n_ops + 1),
            responses: Vec::new(),
            read_refs: Vec::new(),
            read_ref_offsets: Vec::with_capacity(n_ops + 1),
            last_read_before: Vec::with_capacity(n_ops),
            total_ops: 0,
            total_cycles: 0,
        };
        let mut cells = vec![0u64; geom.cells()];
        let mut acc = [0u64; ACC_LANES];
        let mut last_read = [(NO_READ, 0u64); MAX_PORTS];
        let mut time = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let opi = i as u32;
            idx.time_before.push(time);
            idx.responses_before.push(idx.responses.len() as u32);
            idx.read_ref_offsets.push(idx.read_refs.len() as u32);
            idx.last_read_before.push(last_read);
            match *op {
                MemOp::Write { addr, data } => {
                    touch(&mut idx.ops_by_addr, addr, opi);
                    cells[addr as usize] = data;
                }
                MemOp::ReadExpect { addr, expect }
                | MemOp::ReadStale { addr, expect }
                | MemOp::ReadCapture { addr, expect } => {
                    touch(&mut idx.ops_by_addr, addr, opi);
                    let v = cells[addr as usize];
                    idx.read_refs.push((addr, v));
                    last_read[0] = (opi, v);
                    idx.responses.push(expect);
                    if v != expect {
                        // The expectation diverges from the fault-free
                        // reference (possible only for hand-built
                        // programs): this read flags every lane, so it
                        // must execute in every sliced pass.
                        idx.always_active.push(opi);
                    }
                }
                MemOp::ReadAny { addr } => {
                    touch(&mut idx.ops_by_addr, addr, opi);
                    let v = cells[addr as usize];
                    idx.read_refs.push((addr, v));
                    last_read[0] = (opi, v);
                }
                MemOp::AccSet { lane, value } => {
                    idx.always_active.push(opi);
                    acc[lane as usize] = value;
                }
                MemOp::ReadAcc { addr, map, lane } => {
                    idx.always_active.push(opi);
                    touch(&mut idx.ops_by_addr, addr, opi);
                    let v = cells[addr as usize];
                    idx.read_refs.push((addr, v));
                    last_read[0] = (opi, v);
                    acc[lane as usize] ^= apply_map(&maps[map as usize], v);
                }
                MemOp::WriteAcc { addr, lane } => {
                    idx.always_active.push(opi);
                    idx.forced.push(addr);
                    touch(&mut idx.ops_by_addr, addr, opi);
                    cells[addr as usize] = acc[lane as usize] & mask;
                }
                MemOp::CycleN { start, len } => {
                    let slots = &slot_tab[start as usize..start as usize + len as usize];
                    let mut write_addrs = [0u32; MAX_PORTS];
                    let mut nw = 0usize;
                    let mut vals = [0u64; MAX_PORTS];
                    let mut acc_slot = false;
                    // Reads observe the pre-cycle state.
                    for (port, &slot) in slots.iter().enumerate() {
                        match slot {
                            SlotOp::Idle => {}
                            SlotOp::ReadAcc { addr, .. }
                            | SlotOp::ReadExpect { addr, .. }
                            | SlotOp::ReadStale { addr, .. }
                            | SlotOp::ReadCapture { addr, .. } => {
                                touch(&mut idx.ops_by_addr, addr, opi);
                                let v = cells[addr as usize];
                                vals[port] = v;
                                idx.read_refs.push((addr, v));
                                last_read[port] = (opi, v);
                            }
                            SlotOp::Write { addr, .. } | SlotOp::WriteAcc { addr, .. } => {
                                touch(&mut idx.ops_by_addr, addr, opi);
                                write_addrs[nw] = addr;
                                nw += 1;
                            }
                        }
                    }
                    // A program-level duplicate write address freezes
                    // every lane regardless of the chunk's faults: the
                    // cycle must execute in every sliced pass.
                    if write_addrs[..nw]
                        .iter()
                        .enumerate()
                        .any(|(a, x)| write_addrs[..nw].iter().skip(a + 1).any(|y| y == x))
                    {
                        idx.always_active.push(opi);
                    }
                    // Writes commit after all reads, in slot order, with
                    // pre-cycle accumulator images — the device contract.
                    for &slot in slots {
                        match slot {
                            SlotOp::Write { addr, data } => cells[addr as usize] = data,
                            SlotOp::WriteAcc { addr, lane } => {
                                acc_slot = true;
                                cells[addr as usize] = acc[lane as usize] & mask;
                                idx.forced.push(addr);
                            }
                            _ => {}
                        }
                    }
                    // Fold accumulator reads and collect responses, in
                    // slot order (the interpreter's slot-processing pass).
                    for (port, &slot) in slots.iter().enumerate() {
                        match slot {
                            SlotOp::ReadAcc { map, lane, .. } => {
                                acc_slot = true;
                                acc[lane as usize] ^= apply_map(&maps[map as usize], vals[port]);
                            }
                            SlotOp::ReadExpect { expect, .. }
                            | SlotOp::ReadStale { expect, .. }
                            | SlotOp::ReadCapture { expect, .. } => {
                                idx.responses.push(expect);
                                if vals[port] != expect {
                                    idx.always_active.push(opi);
                                }
                            }
                            _ => {}
                        }
                    }
                    if acc_slot {
                        idx.always_active.push(opi);
                    }
                }
            }
            // The device clock ticks once per device op.
            let (op_ops, op_cycles) = program.op_cost(*op);
            time += op_ops;
            idx.total_cycles += op_cycles;
        }
        idx.total_ops = time;
        idx.time_before.push(time);
        idx.responses_before.push(idx.responses.len() as u32);
        idx.read_ref_offsets.push(idx.read_refs.len() as u32);
        idx.always_active.sort_unstable();
        idx.always_active.dedup();
        idx.forced.sort_unstable();
        idx.forced.dedup();
        idx
    }

    /// Geometry the index was built for.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// `true` when this index was built for (a program shaped like)
    /// `program` — the cheap configuration guard the sliced entry points
    /// assert.
    pub fn matches(&self, program: &TestProgram) -> bool {
        self.n_ops == program.ops().len() && self.geom == program.geometry()
    }

    /// The `(addr, pre-op reference value)` pairs op `op` reads.
    pub(crate) fn read_refs_for(&self, op: usize) -> &[(u32, u64)] {
        let lo = self.read_ref_offsets[op] as usize;
        let hi = self.read_ref_offsets[op + 1] as usize;
        &self.read_refs[lo..hi]
    }
}

/// Reusable per-chunk scratch for sliced passes: the span-union cell set
/// of a lane chunk's faults plus, after [`ActiveSet::finalize`], the
/// sorted list of ops a sliced pass must execute.
#[derive(Debug, Default)]
pub struct ActiveSet {
    /// Cell-index bitset (lazily grown).
    bits: Vec<u64>,
    /// Cells whose bit is set — the O(#faults) clear list.
    dirty: Vec<u32>,
    /// Sorted, deduplicated active op indices (valid after `finalize`).
    ops: Vec<u32>,
    /// Op-index bitset scratch for [`ActiveSet::finalize`] — collecting
    /// through a bitmap yields the sorted, deduplicated op list without a
    /// per-batch sort.
    op_bits: Vec<u64>,
}

impl ActiveSet {
    /// An empty set; allocations grow on first use and are retained
    /// across [`ActiveSet::clear`] so a pooled set is allocation-free on
    /// the campaign hot path.
    pub fn new() -> ActiveSet {
        ActiveSet::default()
    }

    /// Empties the set in O(#inserted cells), retaining allocations.
    pub fn clear(&mut self) {
        for &c in &self.dirty {
            self.bits[c as usize / 64] = 0;
        }
        self.dirty.clear();
        self.ops.clear();
    }

    fn insert_cell(&mut self, cell: usize) {
        let w = cell / 64;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let b = 1u64 << (cell % 64);
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.dirty.push(cell as u32);
        }
    }

    /// Adds `fault`'s span cells to the union.
    pub fn insert_fault(&mut self, fault: &FaultKind) {
        fault_cells(fault, |c| self.insert_cell(c));
    }

    /// Number of cells in the span union (after `finalize`, this includes
    /// the index's forced addresses).
    pub fn cells(&self) -> usize {
        self.dirty.len()
    }

    /// `true` when `cell` is in the span union (after `finalize`, this
    /// includes the index's forced addresses).
    pub fn contains(&self, cell: usize) -> bool {
        self.bits.get(cell / 64).is_some_and(|w| w >> (cell % 64) & 1 == 1)
    }

    /// Resolves the active-op list against `index`: the union's
    /// per-address op lists, the always-active ops, and the forced
    /// addresses (which also join the union), sorted and deduplicated.
    pub fn finalize(&mut self, index: &ActivityIndex) {
        for &a in &index.forced {
            self.insert_cell(a as usize);
        }
        self.op_bits.clear();
        self.op_bits.resize(index.n_ops.div_ceil(64), 0);
        for &o in &index.always_active {
            self.op_bits[o as usize / 64] |= 1u64 << (o % 64);
        }
        for &c in &self.dirty {
            if let Some(list) = index.ops_by_addr.get(c as usize) {
                for &o in list {
                    self.op_bits[o as usize / 64] |= 1u64 << (o % 64);
                }
            }
        }
        self.ops.clear();
        for (w, &word) in self.op_bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                self.ops.push(w as u32 * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }

    /// The sorted active op indices (valid after [`ActiveSet::finalize`]).
    pub fn ops(&self) -> &[u32] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::prog::ProgramBuilder;

    fn sample_program() -> TestProgram {
        // A miniature March-like program with a multi-port cycle.
        let mut b = ProgramBuilder::new(Geometry::bom(8));
        for a in 0..8 {
            b.write(a, 0);
        }
        for a in 0..8 {
            b.read_expect(a, 0);
            b.write(a, 1);
        }
        for a in 0..8 {
            b.read_expect(a, 1);
        }
        b.build()
    }

    #[test]
    fn reference_stream_matches_expected_responses() {
        let p = sample_program();
        let idx = ActivityIndex::build(&p);
        let expected: Vec<u64> = p.expected_responses().collect();
        assert_eq!(idx.responses, expected);
        assert_eq!(*idx.responses_before.last().unwrap() as usize, expected.len());
    }

    #[test]
    fn totals_match_full_execution() {
        // The dual-port program adds multi-port cycles, an idle slot and
        // accumulator ops, none of which the single-port sample has.
        let dual = crate::prog::tests::dual_port_march(Geometry::bom(8));
        for (name, p) in [("sample", sample_program()), ("dual-port", dual)] {
            let idx = ActivityIndex::build(&p);
            let mut ram = crate::Ram::with_ports(p.geometry(), p.ports()).unwrap();
            let exec = p.execute(&mut ram, false, None).unwrap();
            assert_eq!(idx.total_ops, exec.ops, "{name}");
            assert_eq!(idx.total_cycles, exec.cycles, "{name}");
            assert_eq!(
                *idx.time_before.last().unwrap(),
                exec.ops,
                "every device op ticks the clock"
            );
        }
    }

    #[test]
    fn every_op_is_reachable() {
        let p = sample_program();
        let idx = ActivityIndex::build(&p);
        let mut covered = vec![false; p.ops().len()];
        for &o in &idx.always_active {
            covered[o as usize] = true;
        }
        for list in &idx.ops_by_addr {
            for &o in list {
                covered[o as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "no op may be unreachable by any span");
    }

    #[test]
    fn active_set_collects_span_ops() {
        let p = sample_program();
        let idx = ActivityIndex::build(&p);
        let mut set = ActiveSet::new();
        set.insert_fault(&FaultKind::StuckAt { cell: 3, bit: 0, value: 1 });
        set.finalize(&idx);
        // Exactly the four ops touching cell 3 (w0, r0, w1, r1).
        assert_eq!(set.ops(), &idx.ops_by_addr[3][..]);
        assert!(set.contains(3));
        assert!(!set.contains(4));
        assert_eq!(set.cells(), 1);
        set.clear();
        assert_eq!(set.cells(), 0);
        set.insert_fault(&FaultKind::CouplingInversion {
            agg_cell: 1,
            agg_bit: 0,
            victim_cell: 6,
            victim_bit: 0,
            trigger: crate::CouplingTrigger::Rise,
        });
        set.finalize(&idx);
        assert!(set.contains(1) && set.contains(6) && !set.contains(3));
        assert_eq!(set.cells(), 2);
        assert_eq!(set.ops().len(), idx.ops_by_addr[1].len() + idx.ops_by_addr[6].len());
    }

    #[test]
    fn sliced_detect_is_bit_identical_on_a_dense_universe() {
        use crate::batch::LaneRam;
        use crate::universe::{FaultUniverse, UniverseSpec};
        let geom = Geometry::bom(10);
        let n = geom.cells();
        let mut b = ProgramBuilder::new(geom);
        for a in 0..n {
            b.write(a, 0);
        }
        for a in 0..n {
            b.read_expect(a, 0);
            b.write(a, 1);
        }
        for a in (0..n).rev() {
            b.read_expect(a, 1);
            b.write(a, 0);
        }
        for a in 0..n {
            b.read_expect(a, 0);
        }
        let p = b.build();
        let idx = ActivityIndex::build(&p);
        let uni = FaultUniverse::enumerate(geom, &UniverseSpec::full());
        let mut ram: LaneRam<1> = LaneRam::new(geom);
        let mut set = ActiveSet::new();
        for chunk in uni.faults().chunks(64) {
            ram.eject_faults();
            ram.reset_to(0);
            for (lane, f) in chunk.iter().enumerate() {
                ram.inject(f.clone(), lane).unwrap();
            }
            let full = p.try_detect_batch(&mut ram).unwrap();
            ram.reset_to(0);
            set.clear();
            for f in chunk {
                set.insert_fault(f);
            }
            set.finalize(&idx);
            let sliced = p.try_detect_batch_sliced(&mut ram, &idx, &set).unwrap();
            assert_eq!(sliced, full, "sliced and full verdicts diverged");
        }
    }

    #[test]
    fn locality_order_is_the_key_index_sort() {
        use crate::universe::{FaultUniverse, UniverseSpec};
        let geom = Geometry::bom(24);
        for seed in [1, 7, 42] {
            let topology = crate::Topology::generate(geom.cells(), seed);
            let faults = FaultUniverse::enumerate_with(geom, &UniverseSpec::full(), topology)
                .faults()
                .to_vec();
            let mut keyed: Vec<(usize, u32)> =
                faults.iter().zip(0..).map(|(f, i)| (fault_locality_key(f), i)).collect();
            keyed.sort_unstable();
            let want: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
            assert_eq!(locality_order(&faults, geom.cells()), want, "seed {seed}");
        }
    }

    #[test]
    fn locality_key_is_min_span_cell() {
        assert_eq!(fault_locality_key(&FaultKind::StuckAt { cell: 5, bit: 0, value: 0 }), 5);
        assert_eq!(
            fault_locality_key(&FaultKind::CouplingIdempotent {
                agg_cell: 9,
                agg_bit: 0,
                victim_cell: 2,
                victim_bit: 0,
                trigger: crate::CouplingTrigger::Fall,
                force: 1,
            }),
            2
        );
        assert_eq!(fault_locality_key(&FaultKind::DecoderShadow { addr: 4, instead_cell: 7 }), 4);
    }
}
