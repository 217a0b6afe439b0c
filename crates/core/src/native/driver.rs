//! Executing protocol state machines on real atomic registers.

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

use rtas_sim::executor::{SubPoll, SubRuntime};
use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{Ctx, Notes, Protocol};
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
        let n = layout.dense_registers();
        let regs = (0..n).map(|_| AtomicU64::new(0)).collect();
        NativeMemory {
            regs,
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

/// A reusable per-thread protocol executor.
///
/// [`run_protocol`] builds a fresh [`SubRuntime`] (one heap-allocated
/// protocol stack) per call; a worker thread hammering an arena of
/// recycled objects instead keeps one `NativeRunner` alive and reuses
/// the runtime's stack buffer across operations via
/// [`SubRuntime::reset`], so the steady-state op path allocates only
/// the protocol state machines themselves.
#[derive(Debug, Default)]
pub struct NativeRunner {
    runtime: Option<SubRuntime>,
}

impl NativeRunner {
    /// A runner with no warm runtime yet (the first [`NativeRunner::run`]
    /// builds it).
    pub fn new() -> Self {
        NativeRunner { runtime: None }
    }

    /// Run `protocol` to completion on the calling thread, reusing this
    /// runner's runtime buffer.
    ///
    /// `participant` is the logical process id (used for splitter
    /// identity stamps); `seed` seeds the thread's private coin flips.
    /// Returns the protocol's result word.
    pub fn run(
        &mut self,
        protocol: Box<dyn Protocol>,
        memory: &NativeMemory,
        participant: usize,
        seed: u64,
    ) -> Word {
        let runtime = match &mut self.runtime {
            Some(rt) => {
                rt.reset(protocol);
                rt
            }
            slot => slot.insert(SubRuntime::new(protocol)),
        };
        let mut rng = SplitMix64::split(seed, participant as u64 ^ 0x5eed_f00d);
        let mut notes = Notes::default();
        loop {
            let poll = {
                let mut ctx = Ctx {
                    pid: ProcessId(participant),
                    rng: &mut rng,
                    notes: &mut notes,
                };
                runtime.advance(&mut ctx)
            };
            match poll {
                SubPoll::Finished(v) => return v,
                SubPoll::NeedsOp(op) => {
                    let input = match op {
                        MemOp::Read(r) => rtas_sim::protocol::Resume::Read(memory.read(r)),
                        MemOp::Write(r, v) => {
                            memory.write(r, v);
                            rtas_sim::protocol::Resume::Wrote
                        }
                    };
                    runtime.feed(input);
                }
            }
        }
    }
}

/// Run a protocol to completion on the calling thread.
///
/// One-shot convenience over [`NativeRunner::run`] — identical
/// semantics, fresh runtime per call.
pub fn run_protocol(
    protocol: Box<dyn Protocol>,
    memory: &NativeMemory,
    participant: usize,
    seed: u64,
) -> Word {
    NativeRunner::new().run(protocol, memory, participant, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::op::MemOp;
    use rtas_sim::protocol::{Poll, Resume};

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
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        let mut runner = NativeRunner::new();
        for epoch in 0..100 {
            let out = runner.run(Box::new(WriteThenRead { reg, state: 0 }), &shared, 0, epoch);
            assert_eq!(out, 42, "epoch {epoch}");
            assert_eq!(shared.read(reg), 41);
            shared.reset();
            assert_eq!(shared.read(reg), 0);
        }
    }
}
