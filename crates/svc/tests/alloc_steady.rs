//! Allocation accounting for the namespace's steady-state op path.
//!
//! The service claim is "zero steady-state allocations", absolute: once a
//! key exists, the acquire → finish → reset cycle through the keyed
//! namespace allocates **nothing** on any backend and for either kind —
//! not the namespace machinery (the lock-free key lookup, the epoch gate,
//! the doorway bit, the counters), and not the protocol either, whose
//! frames run on the runner's reused stack. The bare recyclable object
//! is pinned to zero alongside it.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtas::native::NativeRunner;
use rtas::{Backend, TestAndSet};
use rtas_svc::{Kind, Namespace};

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

const BACKENDS: [Backend; 4] = [
    Backend::LogStar,
    Backend::LogLog,
    Backend::RatRace,
    Backend::Combined,
];

#[test]
fn namespace_steady_state_allocates_nothing_on_any_backend() {
    let epochs = 100u64;
    for backend in BACKENDS {
        // --- The bare recyclable object, epoch after epoch. ---
        let bare = TestAndSet::with_backend(backend, 1);
        let mut runner = NativeRunner::new();
        for _ in 0..10 {
            assert!(!bare.test_and_set_with(&mut runner));
            bare.reset();
        }
        let before = allocations();
        for _ in 0..epochs {
            assert!(!bare.test_and_set_with(&mut runner));
            bare.reset();
        }
        let bare_allocs = allocations() - before;
        assert_eq!(
            bare_allocs, 0,
            "{backend:?}: the bare object allocated over {epochs} epochs"
        );

        // --- The same traffic through the keyed namespace. ---
        for kind in [Kind::Tas, Kind::Elect] {
            let ns = Namespace::new(backend, 4, 1);
            let key = b"steady/key";
            // Warmup: create the key, fault in the table, etc.
            for _ in 0..10 {
                assert!(ns.acquire(kind, key, &mut runner).unwrap().won);
                ns.reset(key).unwrap();
            }
            let before = allocations();
            for _ in 0..epochs {
                assert!(ns.acquire(kind, key, &mut runner).unwrap().won);
                ns.reset(key).unwrap();
            }
            let ns_allocs = allocations() - before;
            assert_eq!(
                ns_allocs, 0,
                "{backend:?}/{kind:?}: the keyed-namespace op path allocated over {epochs} epochs"
            );
        }
    }
}
