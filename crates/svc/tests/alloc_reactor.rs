//! Allocation pin for the reactor's steady-state serve path, with an
//! admission lease and a read deadline armed.
//!
//! The claim is **absolute**: once warmup has faulted in every key,
//! slab slot, connection buffer and scratch vector, serving traffic
//! allocates nothing — epoll waits, slab slots, reused event and chunk
//! buffers, write carryover and the read-deadline sweep. The keyed objects
//! allocate nothing per operation or per reset (`alloc_steady.rs`), a
//! lease is checked at admission against the namespace clock, and a
//! read deadline is a timestamp per connection, so neither timeout
//! may add an allocation either. Client and server share this process,
//! so the count covers both ends of the wire.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rtas_svc::{Client, Op, Response, Server, SvcConfig};

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
/// response is read, exercising the worker's response buffering.
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

/// Spawn a server with a 20 ms lease and a 5 s read deadline, drive
/// the canonical traffic shape (6 connections, each alternating
/// lockstep and pipelined rounds on its own key), and return the
/// allocation count over the measured window. Warmup faults in every
/// key, slab slot, connection buffer, and scratch vector on both sides
/// of the wire before counting.
fn drive() -> u64 {
    let server = Server::spawn(SvcConfig {
        workers: 2,
        lease: Some(Duration::from_millis(20)),
        read_timeout: Some(Duration::from_secs(5)),
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
fn the_reactor_serves_leased_deadlined_traffic_with_zero_allocations() {
    let counted = drive();
    assert_eq!(
        counted, 0,
        "the reactor allocated {counted} times in steady state"
    );
}
