//! Absolute allocation pins for the native objects.
//!
//! With a counting global allocator (this test binary only), for every
//! backend and both object kinds at capacity 64:
//!
//! * after one warm-up operation on a fresh `NativeRunner`, 1,000 solo
//!   epochs (one operation, then `reset`) allocate exactly nothing;
//! * after one warm-up epoch, 100 epochs in which 8 threads each make one
//!   operation allocate exactly nothing. The threads are spawned before
//!   the measured window and step through it between barriers.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second test thread would
//! pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use rtas::native::NativeRunner;
use rtas::{Arbiter, Backend, LeaderElection, TestAndSet};

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

const THREADS: usize = 8;

/// Allocations over 1,000 solo epochs after one warm-up epoch.
fn solo_epochs(object: &dyn Arbiter) -> u64 {
    let mut runner = NativeRunner::new();
    assert!(object.try_acquire(&mut runner), "a solo caller wins");
    object.reset();
    let before = allocations();
    for _ in 0..1_000 {
        assert!(object.try_acquire(&mut runner), "a solo caller wins");
        object.reset();
    }
    allocations() - before
}

/// Allocations over 100 epochs of `THREADS` concurrent operations each,
/// after one warm-up epoch.
fn contended_epochs(object: &dyn Arbiter) -> u64 {
    const EPOCHS: usize = 100;
    let start = Barrier::new(THREADS + 1);
    let done = Barrier::new(THREADS + 1);
    let wins = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let mut runner = NativeRunner::new();
                for _ in 0..=EPOCHS {
                    start.wait();
                    if object.try_acquire(&mut runner) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                    done.wait();
                }
            });
        }
        let mut before = 0;
        for epoch in 0..=EPOCHS {
            start.wait();
            done.wait();
            assert_eq!(wins.swap(0, Ordering::Relaxed), 1, "epoch {epoch}");
            object.reset();
            if epoch == 0 {
                before = allocations();
            }
        }
        allocations() - before
    })
}

#[test]
fn native_objects_allocate_nothing_in_steady_state() {
    for backend in BACKENDS {
        let objects: [(&str, Box<dyn Arbiter>); 2] = [
            (
                "TestAndSet",
                Box::new(TestAndSet::with_backend(backend, 64)),
            ),
            (
                "LeaderElection",
                Box::new(LeaderElection::with_backend(backend, 64)),
            ),
        ];
        for (kind, object) in &objects {
            assert_eq!(
                solo_epochs(object.as_ref()),
                0,
                "{backend:?} {kind}: 1,000 solo epochs allocated"
            );
            assert_eq!(
                contended_epochs(object.as_ref()),
                0,
                "{backend:?} {kind}: 100 epochs of {THREADS} threads allocated"
            );
        }
    }
}
