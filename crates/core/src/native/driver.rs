//! Executing protocol frames on real atomic registers.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use rtas_algorithms::{Frame, FrameStack};
use rtas_sim::memory::{Memory, RegRange};
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{Ctx, Notes, Poll, Protocol, Resume};
use rtas_sim::rng::SplitMix64;
use rtas_sim::word::{ProcessId, RegId, Word};

/// Low bits of a register word that hold the register's value; the 16
/// bits above them hold the tag of the epoch that wrote it.
const VALUE_BITS: u32 = 48;
const VALUE_MASK: u64 = (1 << VALUE_BITS) - 1;

/// Every register block starts on a cache line, so two objects' blocks
/// never share one.
const CACHE_LINE: usize = 64;
/// A block of a page or more starts on a page, so the registers at its
/// front (see [`solo_first_rotation`]) share as few pages as they can.
const PAGE: usize = 4096;
/// The size a [`BlockPool`] aims its chunks at: above the size from
/// which the system allocator maps fresh zeroed pages instead of
/// clearing reused heap memory (glibc's default is 128 KiB), and below
/// one 2 MiB huge page, so a transparent huge page cannot commit a whole
/// chunk on its first write.
const CHUNK_BYTES: usize = 1 << 20;

/// One zeroed allocation that register blocks are carved from. It
/// comes from `alloc_zeroed`, so where the allocator maps it fresh, a
/// page of it is committed only when a register on it is first written.
#[derive(Debug)]
struct Chunk {
    /// The allocation, as `alloc_zeroed` returned it.
    raw: NonNull<u8>,
    layout: std::alloc::Layout,
    /// The first `align`-aligned register of the allocation.
    base: NonNull<AtomicU64>,
    /// Registers from `base` to the end of the allocation.
    words: usize,
}

// SAFETY: `raw` and `base` point into the allocation the chunk owns and
// frees once, on drop; `layout` and `words` are plain values. The chunk
// never reads or writes the memory: its blocks are accessed only as
// `AtomicU64`s, through the `NativeMemory`s that hold the chunk.
unsafe impl Send for Chunk {}
unsafe impl Sync for Chunk {}

impl Chunk {
    /// A zeroed chunk of at least `words` registers from an
    /// `align`-aligned base.
    fn zeroed(words: usize, align: usize) -> Arc<Chunk> {
        // Alignment 8 keeps the request on the allocator's `calloc`
        // path, which does not clear fresh pages; the slack of `align`
        // bytes leaves room to align the base by hand.
        let layout = words
            .checked_mul(8)
            .and_then(|bytes| bytes.checked_add(align))
            .and_then(|size| std::alloc::Layout::from_size_align(size, 8).ok())
            .expect("register chunk size overflows");
        // SAFETY: the size is at least `align` bytes, so nonzero.
        let raw = NonNull::new(unsafe { alloc_zeroed(layout) })
            .unwrap_or_else(|| handle_alloc_error(layout));
        let offset = raw.as_ptr().align_offset(align);
        // SAFETY: `offset < align` (`align` is a power of two and `raw`
        // a byte pointer), so the base and the `words` registers after
        // it lie inside the allocation.
        let base = unsafe { raw.add(offset) }.cast::<AtomicU64>();
        Arc::new(Chunk {
            raw,
            layout,
            base,
            words: (layout.size() - offset) / 8,
        })
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: `raw` came from `alloc_zeroed(layout)`; this runs once,
        // when the last `NativeMemory` carved from the chunk has dropped
        // its `Arc`, so no block is in use.
        unsafe { dealloc(self.raw.as_ptr(), self.layout) }
    }
}

/// A block of real atomic registers mirroring a simulator memory layout.
///
/// Register ids handed out by the simulator allocation (dense region ids
/// `0..n`) map to slots of the block rotated by a fixed offset: the
/// rotation of a [`rtas::Layout`](crate::Layout), which brings the
/// registers a solo epoch touches together at the front of the block,
/// or none for [`NativeMemory::zeroed`] and
/// [`NativeMemory::from_layout`]. Either way every id reads and writes
/// the same register it names in the simulator. Lazily allocated
/// (`alloc_lazy`) regions are not supported natively — materializing
/// Θ(n³) atomics is exactly what the paper's space-efficient structures
/// avoid.
///
/// The block is a cache-line-aligned slice of a zeroed allocation (a
/// *chunk*) that the memory keeps alive through an `Arc`. A layout's
/// objects share chunks; every other memory has a chunk of its own.
/// Nothing writes a register before the protocol does, so a page of the
/// block is committed only when one of its registers is first written.
///
/// Each word holds `tag << 48 | value`, where `tag` is the 16-bit tag of
/// the epoch (the span between two [`NativeMemory::reset`]s) that wrote
/// it. A word whose tag is not the current one reads as 0, so a reset
/// only has to move to the next tag.
#[derive(Debug)]
pub struct NativeMemory {
    /// The block's first register: `len` zeroed registers inside
    /// `_chunk`, which no other memory's block overlaps.
    regs: NonNull<AtomicU64>,
    len: usize,
    /// Register id `i` lives in slot `(i + rotation) % len`.
    rotation: usize,
    /// The current epoch's tag. Changed only by [`NativeMemory::reset`],
    /// whose quiescence contract orders the change before every later
    /// operation, so operations may load it `Relaxed`.
    tag: AtomicU16,
    /// Keeps the block's memory alive.
    _chunk: Arc<Chunk>,
}

// SAFETY: `regs` and `len` name `AtomicU64`s, which are safe to share
// and to access from any thread, in memory that `_chunk` (itself `Send`
// and `Sync`) keeps alive for as long as this value exists; `rotation`
// is a plain value and `tag` an atomic.
unsafe impl Send for NativeMemory {}
unsafe impl Sync for NativeMemory {}

impl NativeMemory {
    /// Mirror the dense registers of a simulator [`Memory`].
    ///
    /// Build the object descriptors against a fresh `Memory` (which hands
    /// out the register ids and tracks the space accounting), then call
    /// this to obtain the real registers those descriptors will operate
    /// on.
    ///
    /// # Panics
    ///
    /// Panics if `layout` contains lazily allocated regions.
    pub fn from_layout(layout: &Memory) -> Self {
        assert_eq!(
            layout.declared_registers(),
            layout.dense_registers(),
            "native execution does not support lazy register regions"
        );
        NativeMemory::zeroed(layout.dense_registers() as usize)
    }

    /// `len` registers, all 0, in a chunk of their own, with register
    /// id `i` in slot `i`.
    pub fn zeroed(len: usize) -> Self {
        NativeMemory::block(Chunk::zeroed(len, CACHE_LINE), 0, len, 0)
    }

    /// The `len` registers from register `at` of `chunk`, which no
    /// other memory uses, rotated by `rotation`.
    fn block(chunk: Arc<Chunk>, at: usize, len: usize, rotation: usize) -> Self {
        assert!(at + len <= chunk.words, "register block outside its chunk");
        assert!(rotation == 0 || rotation < len, "rotation beyond the block");
        NativeMemory {
            // SAFETY: `at + len <= chunk.words`, so the pointer and the
            // block after it stay inside the allocation.
            regs: unsafe { chunk.base.add(at) },
            len,
            rotation,
            tag: AtomicU16::new(0),
            _chunk: chunk,
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory has no registers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn regs(&self) -> &[AtomicU64] {
        // SAFETY: `regs` is non-null and 8-byte aligned (the chunk's base
        // is aligned to a cache line or more), and points at `len`
        // initialized registers — zeroed, then only written atomically —
        // inside the allocation that `self._chunk` keeps alive. The
        // memory is only ever shared as atomics, so the shared slice
        // aliases nothing mutable. Holding the pointer itself, rather
        // than reaching the block through the chunk, spares each step a
        // dependent load.
        unsafe { std::slice::from_raw_parts(self.regs.as_ptr(), self.len) }
    }

    #[inline]
    fn reg(&self, id: RegId) -> &AtomicU64 {
        let regs = self.regs();
        // Lazy ids, far above any block, fail here too.
        assert!(
            id.0 < regs.len() as u64,
            "register {id:?} is not one of this memory's {} registers",
            regs.len()
        );
        // An add and a compare, and no table to load: the rotation sits
        // on every step's critical path.
        let slot = id.0 as usize + self.rotation;
        &regs[if slot < regs.len() {
            slot
        } else {
            slot - regs.len()
        }]
    }

    #[inline]
    fn tag_bits(&self) -> u64 {
        u64::from(self.tag.load(Ordering::Relaxed)) << VALUE_BITS
    }

    /// Atomic read (sequentially consistent). A register not yet written
    /// in the current epoch reads as 0.
    #[inline]
    pub fn read(&self, id: RegId) -> Word {
        let word = self.reg(id).load(Ordering::SeqCst);
        if (word & !VALUE_MASK) == self.tag_bits() {
            word & VALUE_MASK
        } else {
            0
        }
    }

    /// Atomic write (sequentially consistent), tagged with the current
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in 48 bits. The protocols store
    /// ids, flags and packed round numbers, all far below that bound.
    #[inline]
    pub fn write(&self, id: RegId, value: Word) {
        assert!(
            value <= VALUE_MASK,
            "register value {value:#x} does not fit in 48 bits"
        );
        self.reg(id)
            .store(self.tag_bits() | value, Ordering::SeqCst)
    }

    /// Return every register to 0 — the object's initial state — in
    /// O(1), without allocating.
    ///
    /// The paper's objects are one-shot, but their *memory* is not:
    /// every protocol assumes only that all registers start at 0, so
    /// a reset returns the object to its pristine pre-first-op state
    /// and a fixed pool of objects can be recycled epoch after epoch
    /// instead of reallocated per resolution (see `rtas_load::arena`).
    /// The reset moves to the next epoch tag, under which every word
    /// written so far reads as 0. Only when the 16-bit tag wraps (once
    /// per 65,536 resets) does it sweep the block, so that words written
    /// under the previous use of tag 0 cannot come back. The sweep
    /// stores 0 only to words that are not 0 already: loading a page
    /// never written commits no memory, storing to it would, so a wrap
    /// commits no page the object never wrote.
    ///
    /// Takes `&self` (the registers are atomics), but the caller must
    /// guarantee *quiescence*: no `elect`/`test_and_set` call may be in
    /// flight on this memory, and the reset must happen-before the next
    /// epoch's first operation (the load arena publishes it through a
    /// release/acquire epoch counter). A reset that races a live
    /// operation is not memory-unsafe, only semantically meaningless.
    pub fn reset(&self) {
        if self.tag.fetch_add(1, Ordering::Relaxed) == u16::MAX {
            for reg in self.regs() {
                if reg.load(Ordering::Relaxed) != 0 {
                    reg.store(0, Ordering::SeqCst);
                }
            }
        }
    }
}

/// The register blocks of one layout's objects, carved out of shared
/// zeroed chunks of about [`CHUNK_BYTES`]. Blocks are handed out in
/// address order and never reused; a chunk is freed when the last
/// memory carved from it is dropped.
#[derive(Debug)]
pub(crate) struct BlockPool {
    /// Registers per block.
    len: usize,
    /// The layout's rotation (see [`solo_first_rotation`]).
    rotation: usize,
    /// Registers from one block's start to the next one's.
    stride: usize,
    /// Bytes every block's start is aligned to.
    align: usize,
    blocks_per_chunk: usize,
    /// The chunk blocks come from, and the index of its next free block.
    current: Mutex<Option<(Arc<Chunk>, usize)>>,
}

impl BlockPool {
    /// A pool of blocks of `len` registers, rotated by `rotation`.
    pub(crate) fn new(len: usize, rotation: usize) -> Self {
        let align = if len * 8 >= PAGE { PAGE } else { CACHE_LINE };
        let stride = (len * 8).next_multiple_of(align).max(align) / 8;
        BlockPool {
            len,
            rotation,
            stride,
            align,
            blocks_per_chunk: (CHUNK_BYTES / (stride * 8)).max(1),
            current: Mutex::new(None),
        }
    }

    /// A fresh block: zeroed registers that no other memory uses.
    pub(crate) fn take(&self) -> NativeMemory {
        // Each update below leaves the pool valid (at worst a block is
        // skipped), so a panic while the lock was held poisons nothing.
        let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        if current
            .as_ref()
            .is_none_or(|&(_, next)| next == self.blocks_per_chunk)
        {
            let chunk = Chunk::zeroed(self.stride * self.blocks_per_chunk, self.align);
            *current = Some((chunk, 0));
        }
        let (chunk, next) = current.as_mut().expect("a chunk with a free block");
        let at = *next * self.stride;
        *next += 1;
        NativeMemory::block(Arc::clone(chunk), at, self.len, self.rotation)
    }
}

/// The native rotation of the protocol that starts at `start` on
/// `layout`: register id `i` lives in slot `(i + rotation) % len` of an
/// object's block.
///
/// Participant 0 runs alone from all-zero registers once per seed, the
/// way the first caller of an epoch runs when no one else comes. Taken
/// in id order and around the end of the block, the allocations those
/// runs touch (ranges [`Memory::alloc`] returned) leave one longest
/// stretch of untouched registers between two of them. The rotation
/// starts the block right after that stretch, so the touched
/// allocations lie together at its front, in one page or two instead of
/// spread over the block. A Combined object's last allocation, the
/// combiner's final two-process election, then comes first, followed by
/// the first levels of its LogStar and RatRace sides. Every register
/// keeps its neighbours, as the algorithm laid them out. `layout` must
/// have dense registers only.
pub(crate) fn solo_first_rotation(
    start: &Frame,
    layout: &mut Memory,
    seeds: impl IntoIterator<Item = u64>,
) -> usize {
    let mut touched: Vec<RegRange> = Vec::new();
    for seed in seeds {
        layout.reset_values();
        drive(&mut FrameStack::new(*start), 0, seed, |op| {
            let id = op.reg().0;
            if !touched
                .iter()
                .any(|r| (r.start().0..r.start().0 + r.len()).contains(&id))
            {
                let range = layout
                    .dense_regions()
                    .find(|r| (r.start().0..r.start().0 + r.len()).contains(&id))
                    .expect("every dense register lies in an allocation");
                touched.push(range);
            }
            match op {
                MemOp::Read(reg) => Resume::Read(layout.read(reg).value),
                MemOp::Write(reg, value) => {
                    layout.write(reg, value, ProcessId(0));
                    Resume::Wrote
                }
            }
        });
    }
    layout.reset_values();
    let len = layout.dense_registers();
    touched.sort_unstable_by_key(|r| r.start().0);
    // The untouched stretch before each touched allocation, the first
    // one's reaching back around the end of the block to the last one's.
    let first = (0..touched.len())
        .max_by_key(|&i| {
            let before = touched[(i + touched.len() - 1) % touched.len()];
            (touched[i].start().0 + len - (before.start().0 + before.len())) % len
        })
        .map_or(0, |i| touched[i].start().0);
    ((len - first) % len.max(1)) as usize
}

/// Perform one operation on `memory`, returning the event that answers
/// it.
#[inline]
fn perform(memory: &NativeMemory, op: MemOp) -> Resume {
    match op {
        MemOp::Read(r) => Resume::Read(memory.read(r)),
        MemOp::Write(r, v) => {
            memory.write(r, v);
            Resume::Wrote
        }
    }
}

/// The coin stream of `participant` in a run seeded with `seed`.
fn coins(seed: u64, participant: usize) -> SplitMix64 {
    SplitMix64::split(seed, participant as u64 ^ 0x5eed_f00d)
}

/// A reusable per-thread protocol executor.
///
/// Runs a leader election's root frame and its children on one
/// [`FrameStack`], performing each operation as a sequentially
/// consistent load or store: no allocation, no `Arc` traffic and no
/// dynamic dispatch per step. The stack is allocated with the runner,
/// sized once for the deepest chain any protocol builds
/// ([`rtas_algorithms::frame::MAX_DEPTH`]), and reused by every run, so
/// a worker thread that keeps one runner allocates nothing per
/// operation.
#[derive(Debug, Default)]
pub struct NativeRunner {
    stack: Box<FrameStack>,
    steps: u64,
}

impl NativeRunner {
    /// A runner with its frame stack (one allocation).
    pub fn new() -> Self {
        NativeRunner::default()
    }

    /// Run one `elect()` to completion on the calling thread, starting
    /// from `start`: the root frame of a fresh `elect()`
    /// ([`rtas_algorithms::LeRoot::frame`]).
    ///
    /// `participant` is the logical process id (used for splitter
    /// identity stamps); `seed` seeds the participant's private coin
    /// flips. Returns the protocol's result word.
    pub fn run(
        &mut self,
        start: &Frame,
        memory: &NativeMemory,
        participant: usize,
        seed: u64,
    ) -> Word {
        self.run_with_coins(start, memory, participant, &mut coins(seed, participant))
    }

    /// [`NativeRunner::run`] drawing coins from `rng`.
    pub fn run_with_coins(
        &mut self,
        start: &Frame,
        memory: &NativeMemory,
        participant: usize,
        rng: &mut SplitMix64,
    ) -> Word {
        let stack = &mut self.stack;
        stack.restart(*start);
        let mut notes = Notes::default();
        let mut ctx = Ctx {
            pid: ProcessId(participant),
            rng,
            notes: &mut notes,
        };
        let mut input = Resume::Start;
        let mut steps = 0;
        loop {
            match stack.advance(input, &mut ctx) {
                Poll::Op(op) => {
                    input = perform(memory, op);
                    steps += 1;
                }
                Poll::Done(v) => {
                    self.steps = steps;
                    return v;
                }
            }
        }
    }

    /// Register reads and writes of the election the last operation
    /// ran: the paper's step count. 0 after a test-and-set that read its
    /// bit set and lost without electing.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Record an operation that lost without electing.
    pub(crate) fn skip(&mut self) {
        self.steps = 0;
    }
}

/// Run any simulator [`Protocol`] to completion on the calling thread,
/// with the coin stream [`NativeRunner::run`] would draw.
///
/// For tools and tests that hold a boxed protocol (an object's
/// `elect()`, a bare group election); the objects of this crate run
/// their frames through a [`NativeRunner`] instead.
pub fn run_protocol(
    mut protocol: Box<dyn Protocol>,
    memory: &NativeMemory,
    participant: usize,
    seed: u64,
) -> Word {
    drive(protocol.as_mut(), participant, seed, |op| {
        perform(memory, op)
    })
}

/// Run `protocol` to completion as `participant` with the coin stream
/// of `seed`, answering each of its operations with `perform`.
fn drive(
    protocol: &mut dyn Protocol,
    participant: usize,
    seed: u64,
    mut perform: impl FnMut(MemOp) -> Resume,
) -> Word {
    let mut rng = coins(seed, participant);
    let mut notes = Notes::default();
    let mut ctx = Ctx {
        pid: ProcessId(participant),
        rng: &mut rng,
        notes: &mut notes,
    };
    let mut input = Resume::Start;
    loop {
        match protocol.resume(input, &mut ctx) {
            Poll::Op(op) => input = perform(op),
            Poll::Done(v) => return v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_algorithms::{LeaderElect, LogStarLe};
    use rtas_sim::protocol::ret;

    struct WriteThenRead {
        reg: RegId,
        state: u8,
    }

    impl Protocol for WriteThenRead {
        fn resume(&mut self, input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
            match self.state {
                0 => {
                    self.state = 1;
                    Poll::Op(MemOp::Write(self.reg, 41))
                }
                1 => {
                    self.state = 2;
                    Poll::Op(MemOp::Read(self.reg))
                }
                _ => Poll::Done(input.read_value() + 1),
            }
        }
    }

    #[test]
    fn runs_simple_protocol_on_atomics() {
        let mut layout = Memory::new();
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        let out = run_protocol(Box::new(WriteThenRead { reg, state: 0 }), &shared, 0, 1);
        assert_eq!(out, 42);
        assert_eq!(shared.read(reg), 41);
        assert_eq!(shared.len(), 1);
        assert!(!shared.is_empty());
    }

    #[test]
    #[should_panic(expected = "lazy register regions")]
    fn lazy_layout_rejected() {
        let mut layout = Memory::new();
        let _ = layout.alloc_lazy(100, "big");
        let _ = NativeMemory::from_layout(&layout);
    }

    #[test]
    fn reset_zeroes_every_register() {
        let mut layout = Memory::new();
        let regs = layout.alloc(5, "t");
        let shared = NativeMemory::from_layout(&layout);
        for (i, reg) in regs.iter().enumerate() {
            shared.write(reg, i as Word + 10);
        }
        shared.reset();
        for reg in regs.iter() {
            assert_eq!(shared.read(reg), 0);
        }
    }

    const BACKENDS: [crate::Backend; 4] = [
        crate::Backend::LogStar,
        crate::Backend::LogLog,
        crate::Backend::RatRace,
        crate::Backend::Combined,
    ];

    /// The block slots of `memory` that hold a nonzero word.
    fn written_slots(memory: &NativeMemory) -> Vec<usize> {
        (0..memory.len())
            .filter(|&slot| memory.regs()[slot].load(Ordering::Relaxed) != 0)
            .collect()
    }

    #[test]
    fn layout_blocks_are_aligned_and_disjoint() {
        for backend in BACKENDS {
            for capacity in [2, 64] {
                let layout = crate::Layout::shared(backend, capacity);
                // More objects than one chunk holds, so two chunks serve.
                let states: Vec<_> = (0..layout.blocks.blocks_per_chunk + 2)
                    .map(|_| layout.state())
                    .collect();
                let mut spans: Vec<(usize, usize)> = states
                    .iter()
                    .map(|s| {
                        let start = s.memory.regs.as_ptr() as usize;
                        assert_eq!(start % layout.blocks.align, 0, "{backend:?}/{capacity}");
                        assert_eq!(s.memory.len(), layout.registers() as usize);
                        (start, start + s.memory.len() * 8)
                    })
                    .collect();
                spans.sort_unstable();
                assert!(
                    spans.windows(2).all(|w| w[0].1 <= w[1].0),
                    "{backend:?}/{capacity}"
                );
            }
        }
    }

    #[test]
    fn solo_epochs_write_only_the_first_page_of_a_block() {
        for backend in BACKENDS {
            let layout = crate::Layout::shared(backend, 64);
            let state = layout.state();
            let mut runner = NativeRunner::new();
            // Words keep their stale tags across resets, so the scan
            // sees every register any of these epochs wrote.
            for _ in 0..1_000 {
                assert!(!layout.test_and_set(&state, &mut runner));
                state.reset();
            }
            let written = written_slots(&state.memory);
            assert!(!written.is_empty(), "{backend:?}");
            assert!(
                written.iter().all(|&slot| slot * 8 < PAGE),
                "{backend:?}: solo epochs wrote slots {written:?}"
            );
        }
    }

    #[test]
    fn rotated_ids_wrap_around_the_block() {
        let memory = NativeMemory::block(Chunk::zeroed(10, CACHE_LINE), 0, 10, 3);
        memory.write(RegId(8), 80);
        memory.write(RegId(2), 20);
        assert_eq!(written_slots(&memory), [1, 5]);
        assert_eq!((memory.read(RegId(8)), memory.read(RegId(2))), (80, 20));
    }

    #[test]
    #[should_panic(expected = "is not one of this memory's 10 registers")]
    fn an_id_beyond_a_rotated_block_panics() {
        // 12 + 3 wraps to slot 5: only the range check stops it.
        let memory = NativeMemory::block(Chunk::zeroed(10, CACHE_LINE), 0, 10, 3);
        memory.read(RegId(12));
    }

    #[test]
    fn a_wrap_clears_every_written_word() {
        let memory = NativeMemory::zeroed(1_000);
        for i in (0..1_000).step_by(7) {
            memory.write(RegId(i), i + 1);
        }
        for _ in 0..u16::MAX {
            memory.reset();
        }
        assert_eq!(
            written_slots(&memory).len(),
            143,
            "no sweep before the wrap"
        );
        memory.reset();
        assert!(written_slots(&memory).is_empty());
    }

    #[test]
    fn runner_reuse_matches_fresh_runs() {
        let mut layout = Memory::new();
        let le = LogStarLe::new(&mut layout, 4);
        let shared = NativeMemory::from_layout(&layout);
        let mut runner = NativeRunner::new();
        for epoch in 0..100 {
            let reused = runner.run(&le.root().frame(), &shared, 0, epoch);
            let reused_steps = runner.steps();
            shared.reset();
            let fresh = run_protocol(le.elect(), &shared, 0, epoch);
            assert_eq!(reused, ret::WIN, "epoch {epoch}");
            assert_eq!(fresh, ret::WIN, "epoch {epoch}");
            assert!(reused_steps > 0);
            shared.reset();
        }
    }
}
