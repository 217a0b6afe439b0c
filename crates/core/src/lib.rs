//! # rtas — randomized test-and-set from atomic read/write registers
//!
//! A complete implementation of *On the time and space complexity of
//! randomized test-and-set* (Giakkoupis & Woelfel, PODC 2012): every
//! algorithm in the paper, runnable both on a simulated asynchronous
//! shared-memory machine with adversarial scheduling (for reproducing the
//! paper's complexity claims) and on real threads over
//! `std::sync::atomic` registers (for actual use).
//!
//! ## Quick start
//!
//! ```
//! use rtas::TestAndSet;
//!
//! let tas = TestAndSet::new(4); // up to 4 participants
//! let mut winners = 0;
//! std::thread::scope(|s| {
//!     let handles: Vec<_> = (0..4).map(|_| s.spawn(|| tas.test_and_set())).collect();
//!     winners = handles
//!         .into_iter()
//!         .map(|h| h.join().unwrap())
//!         .filter(|&already_set| !already_set)
//!         .count();
//! });
//! assert_eq!(winners, 1);
//! ```
//!
//! ## What is inside
//!
//! | Layer | Crate | Contents |
//! |-------|-------|----------|
//! | simulator | [`rtas_sim`] (re-exported as [`sim`]) | registers, adversaries, executor, exhaustive explorer |
//! | primitives | [`rtas_primitives`] (re-exported as [`primitives`]) | splitters, 2/3-process elections, TAS-from-LE |
//! | algorithms | [`rtas_algorithms`] (re-exported as [`algorithms`]) | Fig. 1 group election, O(log* k) LE, O(log log k) LE, RatRace ×2, Section 4 combiner, the frame core |
//! | native | [`native`] | the same frames on real `AtomicU64`s |
//!
//! ## One-shot objects
//!
//! Like the paper's objects, [`TestAndSet`] and [`LeaderElection`] are
//! **one-shot**: each participant may call the operation once, and the
//! number of participants must not exceed the capacity given at
//! construction. They are `Sync` — share them by reference across
//! threads.

pub mod clock;
pub mod native;
pub mod once;
pub mod renaming;
pub mod sync;

pub use clock::MonotonicClock;
pub use once::RegisterOnce;
pub use renaming::Renaming;

pub use rtas_algorithms as algorithms;
/// The paper's building blocks ([`rtas_primitives`]), together with the
/// leader-election interface and the TAS-from-LE construction they
/// compose into (both live in [`rtas_algorithms`], beside the frames they
/// run).
pub mod primitives {
    pub use rtas_algorithms::{LeaderElect, TasFromLe};
    pub use rtas_primitives::*;
}
pub use rtas_sim as sim;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rtas_algorithms::{Combined, Frame, LeaderElect, LogLogLe, LogStarLe, SpaceEfficientRatRace};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::ret;

use native::{BlockPool, NativeMemory, NativeRunner};

/// Which algorithm backs a [`TestAndSet`] / [`LeaderElection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Theorem 2.3: O(log* k) expected steps against the
    /// location-oblivious adversary, O(n) registers.
    LogStar,
    /// Theorem 2.4: O(log log k) expected steps against the R/W-oblivious
    /// adversary, O(n) registers.
    LogLog,
    /// Section 3.2: space-efficient RatRace — O(log k) expected steps
    /// against the adaptive adversary, Θ(n) registers.
    RatRace,
    /// Section 4 (default): the combiner of `LogStar` and `RatRace` —
    /// O(log* k) under weak adversaries *and* O(log k) under the adaptive
    /// one.
    Combined,
}

impl Backend {
    /// The backend's stable lowercase label — the vocabulary shared by
    /// every CLI flag and `BENCH_*.json` row label.
    pub fn label(self) -> &'static str {
        match self {
            Backend::LogStar => "logstar",
            Backend::LogLog => "loglog",
            Backend::RatRace => "ratrace",
            Backend::Combined => "combined",
        }
    }

    /// Parse a [`Backend::label`] back into a backend.
    pub fn parse(label: &str) -> Option<Backend> {
        match label {
            "logstar" => Some(Backend::LogStar),
            "loglog" => Some(Backend::LogLog),
            "ratrace" => Some(Backend::RatRace),
            "combined" => Some(Backend::Combined),
            _ => None,
        }
    }
}

/// The shape of one leader-election object for a `(backend, capacity)`
/// pair: the root frame every `elect()` starts from (it carries the
/// protocol's descriptors), the register count, and where each register
/// lives in an object's block.
///
/// Computing a layout lays the algorithm out on a scratch simulator
/// [`Memory`] and runs a few solo `elect()`s there to find the
/// registers an uncontended epoch touches; every object's block is
/// rotated so that those come together at its front (see
/// [`native::NativeMemory`]). [`Layout::shared`]
/// computes each `(backend, capacity)` layout once per process, and
/// every object of that shape — every key of a keyed service, every
/// shard of an arena, every object built with `with_backend` — shares
/// it and owns only an [`ObjectState`]: its register block and its
/// counters. The blocks are carved out of zeroed chunks the layout
/// shares among its objects, so an object commits memory only for the
/// pages its epochs write: about one 4 KiB page for a Combined object
/// of capacity 64 that only ever sees solo epochs, of its 20,384 bytes
/// of declared registers.
#[derive(Debug)]
pub struct Layout {
    /// The root frame of a fresh `elect()`.
    start: Frame,
    registers: u64,
    capacity: usize,
    backend: Backend,
    /// The register blocks of this layout's objects.
    blocks: BlockPool,
}

impl Layout {
    /// The layout of `backend` for up to `capacity` participants,
    /// computed on first use and shared by the whole process.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn shared(backend: Backend, capacity: usize) -> &'static Layout {
        // One entry per (backend, capacity) a process uses: a handful.
        static LAYOUTS: Mutex<Vec<&'static Layout>> = Mutex::new(Vec::new());
        let mut layouts = LAYOUTS.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&layout) = layouts
            .iter()
            .find(|l| l.backend == backend && l.capacity == capacity)
        {
            return layout;
        }
        let layout: &'static Layout = Box::leak(Box::new(Layout::new(backend, capacity)));
        layouts.push(layout);
        layout
    }

    /// Lay out `backend` for up to `capacity` participants.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    fn new(backend: Backend, capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        let mut mem = Memory::new();
        let root = match backend {
            Backend::LogStar => LogStarLe::new(&mut mem, capacity).root(),
            Backend::LogLog => LogLogLe::new(&mut mem, capacity).root(),
            Backend::RatRace => SpaceEfficientRatRace::new(&mut mem, capacity).root(),
            Backend::Combined => {
                let weak = Arc::new(LogStarLe::new(&mut mem, capacity));
                Combined::new(&mut mem, weak, capacity).root()
            }
        };
        assert_eq!(
            mem.declared_registers(),
            mem.dense_registers(),
            "native objects need dense registers"
        );
        let start = root.frame();
        // A solo caller takes slot 0; the coins of its first 64 epochs
        // stand for those of the solo epochs to come.
        let rotation =
            native::solo_first_rotation(&start, &mut mem, (0..64).map(|epoch| seed(0, epoch)));
        let registers = mem.declared_registers();
        Layout {
            start,
            registers,
            capacity,
            backend,
            blocks: BlockPool::new(registers as usize, rotation),
        }
    }

    /// The algorithm.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Participation slots per epoch.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Atomic registers of the leader election.
    pub fn registers(&self) -> u64 {
        self.registers
    }

    /// Atomic registers of a test-and-set: the leader election's plus
    /// the bit the paper's TAS-from-LE construction adds.
    pub fn tas_registers(&self) -> u64 {
        self.registers + 1
    }

    /// A fresh object of this layout: zeroed registers, no participant.
    /// Its register block is the next one of the layout's current
    /// chunk, so creating an object allocates once per chunk and
    /// writes no register.
    pub fn state(&self) -> ObjectState {
        ObjectState {
            memory: self.blocks.take(),
            issued: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            done: AtomicU64::new(0),
        }
    }

    /// One leader-election participation in `state`'s current epoch;
    /// `true` iff this caller is the unique winner.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity` participants enter one epoch.
    pub fn elect(&self, state: &ObjectState, runner: &mut NativeRunner) -> bool {
        self.run(state, runner, self.next_slot(state))
    }

    /// One test-and-set participation in `state`'s current epoch,
    /// returning the bit's previous value: `false` for the unique winner.
    /// The bit is the one register the paper's TAS-from-LE construction
    /// adds (Preliminaries): read it first, elect, and set it on a loss.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity` participants elect in one epoch.
    pub fn test_and_set(&self, state: &ObjectState, runner: &mut NativeRunner) -> bool {
        self.tas_from_le(state, runner, || self.next_slot(state))
    }

    /// [`Layout::test_and_set`] in participation slot `slot`, which the
    /// caller assigns instead of the object: each slot at most once per
    /// epoch. The object's own slot counter is left alone, so a caller
    /// that already numbers its participants (the keyed namespace's
    /// admission gate) spends no shared write on it.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= capacity`.
    pub fn test_and_set_slot(
        &self,
        state: &ObjectState,
        runner: &mut NativeRunner,
        slot: usize,
    ) -> bool {
        assert!(
            slot < self.capacity,
            "slot {slot} is not one of the {} participation slots",
            self.capacity
        );
        self.tas_from_le(state, runner, || slot)
    }

    /// The TAS-from-LE construction, electing in the slot `slot`
    /// returns. A caller that reads the bit set loses without electing,
    /// and its runner records no steps.
    fn tas_from_le(
        &self,
        state: &ObjectState,
        runner: &mut NativeRunner,
        slot: impl FnOnce() -> usize,
    ) -> bool {
        if state.done.load(Ordering::SeqCst) == 1 {
            runner.skip();
            return true;
        }
        if self.run(state, runner, slot()) {
            return false;
        }
        state.done.store(1, Ordering::SeqCst);
        true
    }

    /// The next free participation slot of `state`'s epoch.
    fn next_slot(&self, state: &ObjectState) -> usize {
        let slot = state.issued.fetch_add(1, Ordering::Relaxed);
        assert!(
            slot < self.capacity,
            "more than {} participants entered a one-shot object",
            self.capacity
        );
        slot
    }

    /// Elect in participation slot `slot` of `state`'s epoch; `true`
    /// iff this caller wins.
    fn run(&self, state: &ObjectState, runner: &mut NativeRunner, slot: usize) -> bool {
        let seed = seed(slot, state.epoch.load(Ordering::Relaxed));
        runner.run(&self.start, &state.memory, slot, seed) == ret::WIN
    }
}

/// The coin seed of participation slot `slot` in reuse epoch `epoch`:
/// deterministic, so runs are reproducible, while each participant gets
/// an independent coin stream and each reuse epoch fresh randomness.
fn seed(slot: usize, epoch: u64) -> u64 {
    0x7a5_u64
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(slot as u64)
        .wrapping_add(epoch.wrapping_mul(0x9e37_79b9))
}

/// One recyclable object's mutable state — its registers and
/// participation counters — without its descriptor: operate on it through
/// the [`Layout`] that made it.
#[derive(Debug)]
pub struct ObjectState {
    memory: NativeMemory,
    issued: AtomicUsize,
    /// Reuse epoch, bumped by [`ObjectState::reset`]; mixed into the
    /// per-slot seeds so recycled objects draw fresh coin streams each
    /// epoch.
    epoch: AtomicU64,
    /// The test-and-set bit.
    done: AtomicU64,
}

impl ObjectState {
    /// Recycle for the next epoch: clear the test-and-set bit, return
    /// every register to 0 (O(1), no allocation; see
    /// [`NativeMemory::reset`]) and re-open every participation slot.
    /// Same quiescence contract as [`NativeMemory::reset`].
    pub fn reset(&self) {
        // The quiescence contract orders this reset before the next
        // epoch's first operation (the caller publishes it, e.g. with a
        // release/acquire epoch counter), so relaxed accesses suffice,
        // as in `NativeMemory::reset`.
        self.done.store(0, Ordering::Relaxed);
        self.memory.reset();
        self.issued.store(0, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }
}

/// A one-shot leader election for real threads.
///
/// At most `capacity` participants may call [`LeaderElection::elect`],
/// each at most once; at most one call returns `true`, and if every
/// participating call runs to completion, exactly one does.
pub struct LeaderElection {
    layout: &'static Layout,
    state: ObjectState,
}

impl std::fmt::Debug for LeaderElection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaderElection")
            .field("backend", &self.layout.backend)
            .field("capacity", &self.layout.capacity)
            .field("registers", &self.layout.registers)
            .finish()
    }
}

impl LeaderElection {
    /// A leader election for up to `capacity` participants with the
    /// default [`Backend::Combined`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_backend(Backend::Combined, capacity)
    }

    /// Choose the algorithm explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_backend(backend: Backend, capacity: usize) -> Self {
        let layout = Layout::shared(backend, capacity);
        LeaderElection {
            state: layout.state(),
            layout,
        }
    }

    /// Participate; returns `true` iff this caller is the unique winner.
    ///
    /// # Panics
    ///
    /// Panics if called more than `capacity` times on this object
    /// (between resets).
    pub fn elect(&self) -> bool {
        self.elect_with(&mut NativeRunner::new())
    }

    /// [`LeaderElection::elect`] reusing a caller-owned
    /// [`NativeRunner`], so a worker thread performing many operations
    /// allocates its frame stack once.
    pub fn elect_with(&self, runner: &mut NativeRunner) -> bool {
        self.layout.elect(&self.state, runner)
    }

    /// Recycle the object: return every register to 0 (O(1), no
    /// allocation; see [`NativeMemory::reset`]) and re-open all
    /// `capacity` participation slots.
    ///
    /// The caller must guarantee quiescence — every `elect` call of the
    /// current epoch has returned, and the reset happens-before the next
    /// epoch's first call (see [`NativeMemory::reset`]). After a reset
    /// the object behaves exactly like a freshly constructed one, with
    /// fresh per-epoch coin streams.
    pub fn reset(&self) {
        self.state.reset()
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.layout.backend
    }

    /// Maximum number of participants.
    pub fn capacity(&self) -> usize {
        self.layout.capacity
    }

    /// Number of atomic registers the object occupies.
    pub fn registers(&self) -> u64 {
        self.layout.registers
    }
}

/// A one-shot test-and-set bit for real threads.
///
/// The object stores a bit, initially 0. [`TestAndSet::test_and_set`]
/// sets it and returns the previous value: the unique *winner* observes
/// `false`, everyone else `true`. Built from [`LeaderElection`] plus one
/// register, exactly as in the paper (Preliminaries).
pub struct TestAndSet {
    layout: &'static Layout,
    state: ObjectState,
}

impl std::fmt::Debug for TestAndSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestAndSet")
            .field("backend", &self.layout.backend)
            .field("capacity", &self.layout.capacity)
            .finish()
    }
}

impl TestAndSet {
    /// A TAS for up to `capacity` participants with the default
    /// [`Backend::Combined`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_backend(Backend::Combined, capacity)
    }

    /// Choose the algorithm explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_backend(backend: Backend, capacity: usize) -> Self {
        let layout = Layout::shared(backend, capacity);
        TestAndSet {
            state: layout.state(),
            layout,
        }
    }

    /// Set the bit, returning its previous value.
    ///
    /// `false` means this caller won (the bit was clear); `true` means it
    /// was already set (or being set by the eventual winner, which
    /// linearizes first). One call per participant.
    ///
    /// # Panics
    ///
    /// Panics if called more than `capacity` times on this object
    /// (between resets).
    pub fn test_and_set(&self) -> bool {
        self.test_and_set_with(&mut NativeRunner::new())
    }

    /// [`TestAndSet::test_and_set`] reusing a caller-owned
    /// [`NativeRunner`] (see [`LeaderElection::elect_with`]).
    pub fn test_and_set_with(&self, runner: &mut NativeRunner) -> bool {
        self.layout.test_and_set(&self.state, runner)
    }

    /// Recycle the object: clear the TAS bit, return every register to
    /// 0 (O(1), no allocation), and re-open all `capacity`
    /// participation slots. Same quiescence contract as
    /// [`LeaderElection::reset`].
    pub fn reset(&self) {
        self.state.reset()
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.layout.backend
    }

    /// Maximum number of participants.
    pub fn capacity(&self) -> usize {
        self.layout.capacity
    }

    /// Number of atomic registers the object occupies (including the
    /// extra TAS register).
    pub fn registers(&self) -> u64 {
        self.layout.tas_registers()
    }
}

/// A uniform view of the recyclable one-shot arbitration objects —
/// the trait plumbing that lets a *keyed* service (one object per key,
/// recycled by epoch) hold [`TestAndSet`]s and [`LeaderElection`]s
/// behind one vtable.
///
/// The contract mirrors the objects themselves:
///
/// * [`Arbiter::try_acquire`] is one participation slot of the current
///   epoch — at most [`Arbiter::capacity`] calls per epoch, exactly one
///   of which returns `true` when all of them complete;
/// * [`Arbiter::reset`] recycles the object for the next epoch. The
///   caller owns the quiescence proof: every `try_acquire` of the
///   epoch has returned (the epoch is *resolved*) and the consumer has
///   acknowledged the resolution (*acked*), and the reset must
///   happen-before the next epoch's first acquisition — typically
///   discharged with a release/acquire epoch counter, as in the
///   `rtas-load` arena and the `rtas-svc` keyed namespaces.
pub trait Arbiter: Send + Sync {
    /// Take one participation slot of the current epoch; `true` iff
    /// this caller is the epoch's unique winner.
    ///
    /// # Panics
    ///
    /// Panics if called more than [`Arbiter::capacity`] times within
    /// one epoch — admission control is the caller's job.
    fn try_acquire(&self, runner: &mut NativeRunner) -> bool;

    /// Recycle for the next epoch (allocation-free; see the trait docs
    /// for the quiescence obligation).
    fn reset(&self);

    /// Participation slots per epoch.
    fn capacity(&self) -> usize;

    /// Atomic registers the object occupies.
    fn registers(&self) -> u64;

    /// The algorithm backing the object.
    fn backend(&self) -> Backend;
}

impl Arbiter for LeaderElection {
    fn try_acquire(&self, runner: &mut NativeRunner) -> bool {
        self.elect_with(runner)
    }

    fn reset(&self) {
        LeaderElection::reset(self)
    }

    fn capacity(&self) -> usize {
        LeaderElection::capacity(self)
    }

    fn registers(&self) -> u64 {
        LeaderElection::registers(self)
    }

    fn backend(&self) -> Backend {
        LeaderElection::backend(self)
    }
}

impl Arbiter for TestAndSet {
    fn try_acquire(&self, runner: &mut NativeRunner) -> bool {
        !self.test_and_set_with(runner)
    }

    fn reset(&self) {
        TestAndSet::reset(self)
    }

    fn capacity(&self) -> usize {
        TestAndSet::capacity(self)
    }

    fn registers(&self) -> u64 {
        TestAndSet::registers(self)
    }

    fn backend(&self) -> Backend {
        TestAndSet::backend(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [Backend; 4] = [
        Backend::LogStar,
        Backend::LogLog,
        Backend::RatRace,
        Backend::Combined,
    ];

    #[test]
    fn backend_labels_round_trip() {
        for backend in BACKENDS {
            assert_eq!(Backend::parse(backend.label()), Some(backend));
        }
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn solo_elect_wins_every_backend() {
        for backend in BACKENDS {
            let le = LeaderElection::with_backend(backend, 4);
            assert!(le.elect(), "{backend:?}");
            assert_eq!(le.backend(), backend);
        }
    }

    #[test]
    fn solo_tas_returns_false_then_true() {
        let tas = TestAndSet::new(2);
        assert!(!tas.test_and_set());
        assert!(tas.test_and_set());
    }

    #[test]
    fn concurrent_unique_winner_all_backends() {
        for backend in BACKENDS {
            for round in 0..10 {
                let n = 8;
                let le = LeaderElection::with_backend(backend, n);
                let wins: Vec<bool> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..n).map(|_| s.spawn(|| le.elect())).collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                let winners = wins.iter().filter(|&&w| w).count();
                assert_eq!(winners, 1, "{backend:?} round {round}: {wins:?}");
            }
        }
    }

    #[test]
    fn concurrent_tas_exactly_one_false() {
        for round in 0..10 {
            let n = 8;
            let tas = TestAndSet::with_backend(Backend::RatRace, n);
            let outs: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n).map(|_| s.spawn(|| tas.test_and_set())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winners = outs.iter().filter(|&&w| !w).count();
            assert_eq!(winners, 1, "round {round}: {outs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one-shot")]
    fn over_capacity_panics() {
        let le = LeaderElection::new(1);
        let _ = le.elect();
        let _ = le.elect();
    }

    #[test]
    fn registers_scale_linearly() {
        let small = LeaderElection::with_backend(Backend::RatRace, 64);
        let large = LeaderElection::with_backend(Backend::RatRace, 512);
        assert!(large.registers() < small.registers() * 16);
        assert!(large.registers() > small.registers());
        assert_eq!(small.capacity(), 64);
    }

    #[test]
    fn debug_formats_are_informative() {
        let le = LeaderElection::new(2);
        assert!(format!("{le:?}").contains("Combined"));
        let tas = TestAndSet::new(2);
        assert!(format!("{tas:?}").contains("capacity"));
    }

    #[test]
    fn caller_assigned_slots_skip_the_slot_counter_and_the_bit_skips_the_election() {
        let layout = Layout::shared(Backend::Combined, 3);
        let state = layout.state();
        let mut runner = NativeRunner::new();
        assert!(
            !layout.test_and_set_slot(&state, &mut runner, 0),
            "solo winner"
        );
        assert!(runner.steps() > 0);
        // The winner leaves the bit clear: the next caller elects, loses
        // and sets it.
        assert!(layout.test_and_set_slot(&state, &mut runner, 1));
        assert!(runner.steps() > 0);
        assert!(layout.test_and_set_slot(&state, &mut runner, 2));
        assert_eq!(runner.steps(), 0, "the bit was set: no election");
        assert_eq!(state.issued.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "not one of the 2 participation slots")]
    fn a_slot_beyond_capacity_panics() {
        let layout = Layout::shared(Backend::LogStar, 2);
        layout.test_and_set_slot(&layout.state(), &mut NativeRunner::new(), 2);
    }

    #[test]
    fn tas_registers_one_more_than_le() {
        let le = LeaderElection::with_backend(Backend::LogStar, 16);
        let tas = TestAndSet::with_backend(Backend::LogStar, 16);
        assert_eq!(tas.registers(), le.registers() + 1);
    }

    #[test]
    fn reset_reopens_one_shot_objects_across_100_epochs() {
        for backend in BACKENDS {
            let le = LeaderElection::with_backend(backend, 2);
            let tas = TestAndSet::with_backend(backend, 2);
            let mut runner = NativeRunner::new();
            for epoch in 0..100 {
                assert!(le.elect_with(&mut runner), "{backend:?} epoch {epoch}");
                assert!(!le.elect_with(&mut runner), "{backend:?} epoch {epoch}");
                assert!(!tas.test_and_set_with(&mut runner));
                assert!(tas.test_and_set_with(&mut runner));
                le.reset();
                tas.reset();
            }
        }
    }

    #[test]
    fn reset_epochs_with_concurrency() {
        let n = 4;
        let tas = TestAndSet::with_backend(Backend::RatRace, n);
        for epoch in 0..20 {
            let outs: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n).map(|_| s.spawn(|| tas.test_and_set())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                outs.iter().filter(|&&set| !set).count(),
                1,
                "epoch {epoch}: {outs:?}"
            );
            tas.reset();
        }
    }

    #[test]
    fn arbiter_trait_unifies_both_objects_across_epochs() {
        let objects: [Box<dyn Arbiter>; 2] = [
            Box::new(LeaderElection::with_backend(Backend::LogStar, 2)),
            Box::new(TestAndSet::with_backend(Backend::LogStar, 2)),
        ];
        let mut runner = NativeRunner::new();
        for arbiter in &objects {
            assert_eq!(arbiter.capacity(), 2);
            assert_eq!(arbiter.backend(), Backend::LogStar);
            assert!(arbiter.registers() > 0);
            for epoch in 0..20 {
                assert!(arbiter.try_acquire(&mut runner), "epoch {epoch}");
                assert!(!arbiter.try_acquire(&mut runner), "epoch {epoch}");
                arbiter.reset();
            }
        }
    }

    #[test]
    #[should_panic(expected = "one-shot")]
    fn over_capacity_still_panics_after_reset() {
        let le = LeaderElection::new(1);
        let _ = le.elect();
        le.reset();
        let _ = le.elect();
        let _ = le.elect();
    }
}
