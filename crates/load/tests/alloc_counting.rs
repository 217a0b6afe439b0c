//! Allocation accounting for the arena's steady-state op path.
//!
//! A counting global allocator (this test binary only) pins down the
//! recycle claims:
//!
//! * `NativeMemory::reset` / `TestAndSet::reset` perform **zero**
//!   allocations — recycling is atomic updates, nothing else;
//! * the arena's steady-state acquire/recycle path performs **zero**
//!   allocations: the protocol's frames run on the runner's reused
//!   stack, and the shards share one layout computed at construction.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtas::native::NativeMemory;
use rtas::sim::memory::Memory;
use rtas::{Backend, TestAndSet};
use rtas_load::{LoadTarget, TasArena};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn reset_and_steady_state_arena_ops_allocate_nothing() {
    // --- NativeMemory::reset allocates nothing. ---
    let mut layout = Memory::new();
    let regs = layout.alloc(64, "t");
    let shared = NativeMemory::from_layout(&layout);
    for reg in regs.iter() {
        shared.write(reg, 7);
    }
    let before = allocations();
    shared.reset();
    assert_eq!(
        allocations() - before,
        0,
        "NativeMemory::reset must not allocate"
    );

    // --- TestAndSet::reset allocates nothing. ---
    let tas = TestAndSet::with_backend(Backend::LogStar, 1);
    assert!(!tas.test_and_set());
    let before = allocations();
    tas.reset();
    assert_eq!(
        allocations() - before,
        0,
        "TestAndSet::reset must not allocate"
    );

    // --- Steady-state arena acquire/recycle allocates nothing. ---
    // Group of one so the whole loop stays on this thread (spawning
    // workers would allocate and pollute the counters).
    let arena = TasArena::new(Backend::LogStar, 1, 1);
    let mut runner = arena.context();
    for epoch in 0..20 {
        assert!(arena.acquire(&mut runner, 0), "warmup epoch {epoch}");
        arena.recycle(&mut runner, 0, epoch);
    }
    let epochs = 100u64;
    let before = allocations();
    for epoch in 20..20 + epochs {
        assert!(arena.acquire(&mut runner, 0));
        arena.recycle(&mut runner, 0, epoch);
    }
    assert_eq!(
        allocations() - before,
        0,
        "the arena's steady-state op path allocated over {epochs} epochs"
    );
}
