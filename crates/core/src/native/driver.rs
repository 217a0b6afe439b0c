//! Executing protocol frames on real atomic registers.

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

use rtas_algorithms::{Frame, FrameStack};
use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{Ctx, Notes, Poll, Protocol, Resume};
use rtas_sim::rng::SplitMix64;
use rtas_sim::word::{ProcessId, RegId, Word};

/// Low bits of a register word that hold the register's value; the 16
/// bits above them hold the tag of the epoch that wrote it.
const VALUE_BITS: u32 = 48;
const VALUE_MASK: u64 = (1 << VALUE_BITS) - 1;

/// A block of real atomic registers mirroring a simulator memory layout.
///
/// Register ids handed out by the simulator allocation (dense region ids
/// `0..n`) index directly into the atomic array. Lazily allocated
/// (`alloc_lazy`) regions are not supported natively — materializing
/// Θ(n³) atomics is exactly what the paper's space-efficient structures
/// avoid.
///
/// Each word holds `tag << 48 | value`, where `tag` is the 16-bit tag of
/// the epoch (the span between two [`NativeMemory::reset`]s) that wrote
/// it. A word whose tag is not the current one reads as 0, so a reset
/// only has to move to the next tag.
#[derive(Debug)]
pub struct NativeMemory {
    regs: Vec<AtomicU64>,
    /// The current epoch's tag. Changed only by [`NativeMemory::reset`],
    /// whose quiescence contract orders the change before every later
    /// operation, so operations may load it `Relaxed`.
    tag: AtomicU16,
}

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

    /// `len` registers, all 0: the registers of a layout computed once
    /// elsewhere (see `rtas::Layout`).
    pub fn zeroed(len: usize) -> Self {
        NativeMemory {
            regs: (0..len).map(|_| AtomicU64::new(0)).collect(),
            tag: AtomicU16::new(0),
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the memory has no registers.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    #[inline]
    fn reg(&self, id: RegId) -> &AtomicU64 {
        assert!(!id.is_lazy(), "lazy register {id:?} in native execution");
        &self.regs[id.0 as usize]
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
    /// per 65,536 resets) does it store 0 to every register, so that
    /// words written under the previous use of tag 0 cannot come back.
    ///
    /// Takes `&self` (the registers are atomics), but the caller must
    /// guarantee *quiescence*: no `elect`/`test_and_set` call may be in
    /// flight on this memory, and the reset must happen-before the next
    /// epoch's first operation (the load arena publishes it through a
    /// release/acquire epoch counter). A reset that races a live
    /// operation is not memory-unsafe, only semantically meaningless.
    pub fn reset(&self) {
        if self.tag.fetch_add(1, Ordering::Relaxed) == u16::MAX {
            for reg in &self.regs {
                reg.store(0, Ordering::SeqCst);
            }
        }
    }
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

    /// Register reads and writes of the last completed run: the
    /// paper's step count.
    pub fn steps(&self) -> u64 {
        self.steps
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
            Poll::Op(op) => input = perform(memory, op),
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
