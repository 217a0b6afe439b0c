//! Allocation accounting for the arena's steady-state op path.
//!
//! A counting global allocator (this test binary only) pins down the
//! recycle claims:
//!
//! * `NativeMemory::reset` / `TestAndSet::reset` perform **zero**
//!   allocations — recycling is atomic updates, nothing else;
//! * the steady-state op path allocates only the per-operation protocol
//!   state machines (a handful of small boxes), not the object graph —
//!   recycling must beat rebuilding by a wide margin per resolution.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtas::native::{NativeMemory, NativeRunner};
use rtas::sim::memory::Memory;
use rtas::{Backend, TestAndSet};
use rtas_load::TasArena;

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
fn reset_is_allocation_free_and_steady_state_is_allocation_light() {
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

    // --- Steady-state arena ops: protocol boxes only. ---
    // Group of one so the whole loop stays on this thread (spawning
    // workers would allocate and pollute the counters).
    let arena = TasArena::new(Backend::LogStar, 1, 1);
    let mut runner = NativeRunner::new();
    for epoch in 0..20 {
        assert!(arena.resolve(0, epoch, &mut runner), "warmup epoch {epoch}");
    }
    let epochs = 100u64;
    let before = allocations();
    for epoch in 20..20 + epochs {
        assert!(arena.resolve(0, epoch, &mut runner));
    }
    let per_epoch = (allocations() - before) as f64 / epochs as f64;

    // What rebuilding instead of recycling would cost, per resolution.
    let before = allocations();
    let fresh = TestAndSet::with_backend(Backend::LogStar, 1);
    let construction = (allocations() - before) as f64;
    assert!(!fresh.test_and_set());

    assert!(
        per_epoch < construction,
        "recycling ({per_epoch:.1} allocs/epoch) must beat rebuilding \
         ({construction:.1} allocs/object)"
    );
    // And in absolute terms the op path is a handful of protocol boxes,
    // not an object graph.
    assert!(
        per_epoch <= 16.0,
        "steady-state op path allocated {per_epoch:.1} times per epoch"
    );
}
