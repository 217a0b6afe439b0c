//! The register file: labeled regions of atomic registers with exact space
//! accounting.
//!
//! Space complexity is one of the paper's two headline axes (Θ(n³) for the
//! original RatRace vs Θ(n) for the space-efficient version, and the
//! Ω(log n) lower bound), so the simulator tracks, per labeled region:
//!
//! * the number of *declared* registers (what the algorithm allocates), and
//! * the number of *touched* registers (read or written at least once).
//!
//! Regions may be **dense** (backed by a vector — the normal case) or
//! **lazy** (backed by a hash map — used for the original RatRace's Θ(n³)
//! tree and Θ(n²) grid, which must be declared but are barely touched).

use std::collections::HashMap;

use crate::word::{ProcessId, RegId, Word};

/// One atomic register cell: its value plus the id of the last writer.
///
/// The writer id implements the paper's *visibility* notion from Section 5
/// ("process q is visible on register r if r's value is (x, q)"): every
/// write implicitly carries the writer's identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cell {
    /// Current register value (initially 0).
    pub value: Word,
    /// Last writer, or `None` if never written (the paper's ⊥).
    pub writer: Option<ProcessId>,
}

/// A contiguous range of register ids, returned by allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegRange {
    start: RegId,
    len: u64,
}

impl RegRange {
    /// First register of the range.
    pub fn start(&self) -> RegId {
        self.start
    }

    /// Number of registers in the range.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th register of the range.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: u64) -> RegId {
        assert!(
            i < self.len,
            "register index {i} out of range 0..{}",
            self.len
        );
        self.start.offset(i)
    }

    /// Iterate over all register ids in the range.
    pub fn iter(&self) -> impl Iterator<Item = RegId> + '_ {
        (0..self.len).map(move |i| self.start.offset(i))
    }

    /// A sub-range of `len` registers starting at `offset`.
    ///
    /// Used to carve object-sized slices out of one big (possibly lazy)
    /// allocation, e.g. the per-node register blocks of RatRace trees.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds the range.
    pub fn sub(&self, offset: u64, len: u64) -> RegRange {
        assert!(
            offset + len <= self.len,
            "sub-range {offset}+{len} exceeds range of {}",
            self.len
        );
        RegRange {
            start: self.start.offset(offset),
            len,
        }
    }
}

/// Metadata about one allocated region.
#[derive(Debug, Clone)]
struct Region {
    label: String,
    start: RegId,
    len: u64,
}

/// Per-label space statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegionStats {
    /// Registers allocated under this label.
    pub declared: u64,
    /// Registers under this label that were read or written at least once.
    pub touched: u64,
}

/// The shared memory of a simulated execution.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    dense: Vec<Cell>,
    lazy: HashMap<u64, Cell>,
    lazy_next: u64,
    lazy_declared: u64,
    regions: Vec<Region>,
    /// Touched bits for dense registers, one bit per register. A bitset
    /// keeps the executor's read/write fast path cache-friendly and makes
    /// zeroing between trials a word-wise sweep.
    touched_dense: Vec<u64>,
    /// Number of set bits in `touched_dense`, maintained incrementally so
    /// [`Memory::touched_registers`] is O(1).
    touched_dense_count: u64,
    reads: u64,
    writes: u64,
}

impl Memory {
    /// An empty memory with no registers.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Allocate `count` dense registers under `label`.
    ///
    /// Dense registers are stored in a vector and count fully toward the
    /// memory footprint of the simulation itself — use [`Memory::alloc_lazy`]
    /// for structures that are declared huge but sparsely accessed.
    pub fn alloc(&mut self, count: u64, label: &str) -> RegRange {
        let start = RegId(self.dense.len() as u64);
        assert!(
            start.0 + count < RegId::LAZY_BASE,
            "dense register space exhausted"
        );
        self.dense
            .extend(std::iter::repeat_n(Cell::default(), count as usize));
        self.touched_dense.resize(self.dense.len().div_ceil(64), 0);
        self.regions.push(Region {
            label: label.to_string(),
            start,
            len: count,
        });
        RegRange { start, len: count }
    }

    /// Allocate `count` registers under `label`, materialized on first use.
    ///
    /// The region contributes `count` to the *declared* space but only the
    /// accessed registers consume host memory. This models the paper's
    /// original RatRace, whose primary tree declares Θ(n³) registers.
    pub fn alloc_lazy(&mut self, count: u64, label: &str) -> RegRange {
        let start = RegId(RegId::LAZY_BASE + self.lazy_next);
        self.lazy_next = self
            .lazy_next
            .checked_add(count)
            .expect("lazy register space exhausted");
        self.lazy_declared += count;
        self.regions.push(Region {
            label: label.to_string(),
            start,
            len: count,
        });
        RegRange { start, len: count }
    }

    fn check_allocated(&self, reg: RegId) {
        if reg.is_lazy() {
            assert!(
                reg.0 - RegId::LAZY_BASE < self.lazy_next,
                "access to unallocated lazy register {reg:?}"
            );
        } else {
            assert!(
                (reg.0 as usize) < self.dense.len(),
                "access to unallocated register {reg:?}"
            );
        }
    }

    /// Mark dense register `idx` as touched. `idx` must be in bounds.
    #[inline]
    fn touch_dense(&mut self, idx: usize) {
        let word = &mut self.touched_dense[idx >> 6];
        let bit = 1u64 << (idx & 63);
        self.touched_dense_count += u64::from(*word & bit == 0);
        *word |= bit;
    }

    /// Whether dense register `idx` was touched. `idx` must be in bounds.
    #[inline]
    fn dense_touched(&self, idx: usize) -> bool {
        self.touched_dense[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    /// Atomically read a register, recording the step.
    ///
    /// Returns the full cell so the executor can log visibility
    /// (value + last writer).
    ///
    /// # Panics
    ///
    /// Panics if `reg` was never allocated.
    #[inline]
    pub fn read(&mut self, reg: RegId) -> Cell {
        self.reads += 1;
        // Dense fast path: one u64 bounds probe doubles as the allocation
        // check, since lazy ids start at `RegId::LAZY_BASE`, far above any
        // dense length. Compared as u64 so lazy ids cannot truncate into
        // the dense range on 32-bit targets.
        if reg.0 < self.dense.len() as u64 {
            let idx = reg.0 as usize;
            self.touch_dense(idx);
            self.dense[idx]
        } else {
            self.read_slow(reg)
        }
    }

    #[cold]
    fn read_slow(&mut self, reg: RegId) -> Cell {
        self.check_allocated(reg);
        *self.lazy.entry(reg.0).or_default()
    }

    /// Atomically write `value` to `reg` on behalf of `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` was never allocated.
    #[inline]
    pub fn write(&mut self, reg: RegId, value: Word, writer: ProcessId) {
        self.writes += 1;
        let cell = Cell {
            value,
            writer: Some(writer),
        };
        if reg.0 < self.dense.len() as u64 {
            let idx = reg.0 as usize;
            self.touch_dense(idx);
            self.dense[idx] = cell;
        } else {
            self.write_slow(reg, cell);
        }
    }

    #[cold]
    fn write_slow(&mut self, reg: RegId, cell: Cell) {
        self.check_allocated(reg);
        self.lazy.insert(reg.0, cell);
    }

    /// Inspect a register without counting it as a step or touching it.
    ///
    /// Intended for assertions and experiment post-processing, not for
    /// protocol logic.
    pub fn peek(&self, reg: RegId) -> Cell {
        if reg.is_lazy() {
            self.lazy.get(&reg.0).copied().unwrap_or_default()
        } else {
            self.dense.get(reg.0 as usize).copied().unwrap_or_default()
        }
    }

    /// Total number of declared registers (dense + lazy).
    pub fn declared_registers(&self) -> u64 {
        self.dense.len() as u64 + self.lazy_declared
    }

    /// Number of densely allocated registers (excludes lazy regions).
    pub fn dense_registers(&self) -> u64 {
        self.dense.len() as u64
    }

    /// The ranges [`Memory::alloc`] returned, in allocation (and so in
    /// id) order.
    pub fn dense_regions(&self) -> impl Iterator<Item = RegRange> + '_ {
        self.regions
            .iter()
            .filter(|r| !r.start.is_lazy())
            .map(|r| RegRange {
                start: r.start,
                len: r.len,
            })
    }

    /// Number of registers that were read or written at least once. O(1):
    /// both constituents are maintained incrementally.
    pub fn touched_registers(&self) -> u64 {
        self.touched_dense_count + self.lazy.len() as u64
    }

    /// Total shared-memory operations executed so far (reads + writes).
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Number of read operations executed.
    pub fn read_ops(&self) -> u64 {
        self.reads
    }

    /// Number of write operations executed.
    pub fn write_ops(&self) -> u64 {
        self.writes
    }

    /// Space statistics grouped by region label.
    ///
    /// Labels used by multiple regions are merged (e.g. `n` splitters each
    /// allocating under `"splitter"`).
    pub fn stats_by_label(&self) -> HashMap<String, RegionStats> {
        let mut map: HashMap<String, RegionStats> = HashMap::new();
        for region in &self.regions {
            let entry = map.entry(region.label.clone()).or_default();
            entry.declared += region.len;
            for i in 0..region.len {
                let id = region.start.offset(i);
                let touched = if id.is_lazy() {
                    self.lazy.contains_key(&id.0)
                } else {
                    self.dense_touched(id.0 as usize)
                };
                if touched {
                    entry.touched += 1;
                }
            }
        }
        map
    }

    /// Reset all registers to their initial state, keeping allocations.
    ///
    /// Useful for re-running an algorithm on the same structure with a
    /// different seed or schedule without re-allocating.
    pub fn reset_values(&mut self) {
        for cell in &mut self.dense {
            *cell = Cell::default();
        }
        for w in &mut self.touched_dense {
            *w = 0;
        }
        self.touched_dense_count = 0;
        self.lazy.clear();
        self.reads = 0;
        self.writes = 0;
    }

    /// Synonym for [`Memory::reset_values`]: the between-trials reset used
    /// by the allocation-light executor reuse path ([`crate::executor::Execution::reset`]).
    pub fn reset(&mut self) {
        self.reset_values();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut m = Memory::new();
        let r = m.alloc(3, "a");
        assert_eq!(r.len(), 3);
        assert_eq!(m.read(r.get(0)).value, 0);
        assert_eq!(m.read(r.get(0)).writer, None);
        m.write(r.get(1), 42, ProcessId(2));
        let c = m.read(r.get(1));
        assert_eq!(c.value, 42);
        assert_eq!(c.writer, Some(ProcessId(2)));
    }

    #[test]
    fn initial_value_is_zero() {
        let mut m = Memory::new();
        let r = m.alloc(8, "zeros");
        assert!(r.iter().all(|id| m.read(id) == Cell::default()));
    }

    #[test]
    fn lazy_regions_declare_without_materializing() {
        let mut m = Memory::new();
        let big = m.alloc_lazy(1_000_000_000, "huge");
        assert_eq!(m.declared_registers(), 1_000_000_000);
        assert_eq!(m.touched_registers(), 0);
        m.write(big.get(999_999_999), 1, ProcessId(0));
        assert_eq!(m.touched_registers(), 1);
        assert_eq!(m.read(big.get(999_999_999)).value, 1);
        assert_eq!(m.read(big.get(0)).value, 0);
    }

    #[test]
    fn touched_counts_reads_too() {
        let mut m = Memory::new();
        let r = m.alloc(4, "t");
        m.read(r.get(2));
        assert_eq!(m.touched_registers(), 1);
    }

    #[test]
    fn op_counters() {
        let mut m = Memory::new();
        let r = m.alloc(1, "ops");
        m.read(r.get(0));
        m.write(r.get(0), 1, ProcessId(0));
        m.read(r.get(0));
        assert_eq!(m.read_ops(), 2);
        assert_eq!(m.write_ops(), 1);
        assert_eq!(m.total_ops(), 3);
    }

    #[test]
    fn stats_by_label_merges() {
        let mut m = Memory::new();
        let a1 = m.alloc(2, "splitter");
        let _a2 = m.alloc(2, "splitter");
        let b = m.alloc_lazy(100, "grid");
        m.write(a1.get(0), 1, ProcessId(0));
        m.write(b.get(5), 1, ProcessId(0));
        let stats = m.stats_by_label();
        assert_eq!(
            stats["splitter"],
            RegionStats {
                declared: 4,
                touched: 1
            }
        );
        assert_eq!(
            stats["grid"],
            RegionStats {
                declared: 100,
                touched: 1
            }
        );
    }

    #[test]
    fn peek_does_not_count() {
        let mut m = Memory::new();
        let r = m.alloc(1, "p");
        m.peek(r.get(0));
        assert_eq!(m.total_ops(), 0);
        assert_eq!(m.touched_registers(), 0);
    }

    #[test]
    fn reset_values_clears_state_keeps_allocation() {
        let mut m = Memory::new();
        let r = m.alloc(2, "r");
        let l = m.alloc_lazy(10, "l");
        m.write(r.get(0), 9, ProcessId(1));
        m.write(l.get(3), 8, ProcessId(1));
        m.reset_values();
        assert_eq!(m.declared_registers(), 12);
        assert_eq!(m.touched_registers(), 0);
        assert_eq!(m.total_ops(), 0);
        assert_eq!(m.peek(r.get(0)), Cell::default());
        assert_eq!(m.peek(l.get(3)), Cell::default());
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_unallocated_panics() {
        let mut m = Memory::new();
        m.read(RegId(0));
    }

    #[test]
    #[should_panic(expected = "unallocated lazy")]
    fn read_unallocated_lazy_panics() {
        let mut m = Memory::new();
        m.read(RegId(RegId::LAZY_BASE));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_get_out_of_bounds_panics() {
        let mut m = Memory::new();
        let r = m.alloc(2, "x");
        r.get(2);
    }

    #[test]
    fn range_iter_yields_all() {
        let mut m = Memory::new();
        let r = m.alloc(3, "it");
        let ids: Vec<_> = r.iter().collect();
        assert_eq!(ids, vec![r.get(0), r.get(1), r.get(2)]);
        assert!(!r.is_empty());
        assert!(m.alloc(0, "empty").is_empty());
    }
}
