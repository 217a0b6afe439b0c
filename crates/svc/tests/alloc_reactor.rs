//! Allocation accounting for the reactor's steady-state serve path.
//!
//! The underlying arbitration objects allocate per operation (every
//! `try_acquire` boxes the protocol state machines it runs) and never
//! on reset, so "zero allocations" cannot mean a literally silent
//! profile. The claim — mirroring
//! `alloc_steady.rs`, which proves the namespace adds zero allocations
//! over the bare object — is **differential**: the reactor engine's
//! event loop (epoll wait, slab slots, reused event/chunk/due scratch,
//! write carryover) must add *zero* allocations per operation over the
//! thread-per-connection engine serving identical traffic. Both engines
//! drive the same `Connection` state machines over the same keys and
//! epoch counts, and the backends' per-(slot, epoch) coin streams are
//! deterministic, so the two allocation counts are comparable exactly,
//! not just bounded.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtas_svc::{Client, Engine, Op, Response, Server, SvcConfig};

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

/// One lockstep round on `client`: a winning TAS, then the RESET ack.
fn round(client: &mut Client, key: &[u8]) {
    assert!(client.tas(key).expect("TAS").won);
    client.reset(key).expect("RESET");
}

/// One pipelined round: both requests on the wire before either
/// response is read, exercising the engine's response buffering.
fn batched_round(client: &mut Client, key: &[u8]) {
    client
        .send_batch(&[(Op::Tas, key), (Op::Reset, key)])
        .expect("batch send");
    match client.recv().expect("batched TAS reply") {
        Response::Acquired(a) => assert!(a.won),
        other => panic!("expected Acquired, got {other:?}"),
    }
    match client.recv().expect("batched RESET reply") {
        Response::Reset { .. } => {}
        other => panic!("expected Reset, got {other:?}"),
    }
}

/// Spawn a server on `engine`, drive the canonical traffic shape
/// (6 connections, each alternating lockstep and pipelined rounds on
/// its own key), and return the allocation count over the measured
/// window. Warmup faults in every key, slab slot, connection buffer,
/// and scratch vector on both sides of the wire before counting.
fn drive(engine: Engine) -> u64 {
    let server = Server::spawn(SvcConfig {
        engine,
        workers: 2,
        ..SvcConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr().to_string();

    // Several connections per worker, so the measured window spans
    // slab reuse and per-event multiplexing, not a single-fd fast path.
    let mut clients: Vec<(Client, Vec<u8>)> = (0..6)
        .map(|i| {
            let client = Client::connect(&addr).expect("connect");
            (client, format!("alloc/reactor/{i}").into_bytes())
        })
        .collect();

    for _ in 0..50 {
        for (client, key) in clients.iter_mut() {
            round(client, key);
            batched_round(client, key);
        }
    }

    let before = allocations();
    for r in 0..400 {
        for (client, key) in clients.iter_mut() {
            if r % 2 == 0 {
                round(client, key);
            } else {
                batched_round(client, key);
            }
        }
    }
    let counted = allocations() - before;

    drop(clients);
    server.shutdown();
    counted
}

#[test]
fn reactor_engine_adds_zero_allocations_over_the_threads_engine() {
    if !Engine::Epoll.supported() {
        eprintln!("skipping: reactor syscall shim unavailable on this target");
        return;
    }
    // Threads engine first: its measured window sets the budget the
    // reactor must match exactly on the identical traffic shape.
    let threads = drive(Engine::Threads);
    let epoll = drive(Engine::Epoll);
    assert_eq!(
        epoll, threads,
        "the reactor allocated {epoll} times where the threads engine \
         allocated {threads}: the event loop's steady state is not \
         allocation-free"
    );
}
