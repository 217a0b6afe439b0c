//! Allocation accounting for the flight recorder's steady state.
//!
//! The recorder allocates its event rings once, at spawn; after that,
//! recording is a ticket `fetch_add` plus four relaxed word stores into
//! a preallocated slot, and the metrics plane is atomic counters and
//! fixed log-bin histograms. The claim — differential, mirroring
//! `alloc_reactor.rs` — is that serving identical traffic with
//! `--trace on` adds **zero** allocations per operation over serving it
//! untraced. The traced run additionally stamps every request with a
//! wire trace span (`docs/WIRE.md`), so the span insert on the request
//! frame, the echo splice on the response frame, and the `ServerSpan`
//! ring record are all inside the measured window. Both runs drive the
//! same reactor over the same keys and epoch counts, so the
//! counts are comparable exactly.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtas_svc::{Client, Op, Response, Server, SvcConfig, TraceMode};

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
/// Nonzero spans put both requests on the traced wire path (the server
/// echoes each span and records a `ServerSpan` event); zero spans are
/// the classic untraced frames.
fn round(client: &mut Client, key: &[u8], tas_span: u64, reset_span: u64) {
    client.send_span(Op::Tas, tas_span, key).expect("TAS send");
    match client.recv().expect("TAS reply") {
        Response::Acquired(a) => assert!(a.won),
        other => panic!("expected Acquired, got {other:?}"),
    }
    client
        .send_span(Op::Reset, reset_span, key)
        .expect("RESET send");
    match client.recv().expect("RESET reply") {
        Response::Reset { .. } => {}
        other => panic!("expected Reset, got {other:?}"),
    }
}

/// One pipelined round: both requests on the wire before either
/// response is read, exercising the traced decode/encode burst path.
fn batched_round(client: &mut Client, key: &[u8], tas_span: u64, reset_span: u64) {
    client
        .send_batch_span(&[(Op::Tas, tas_span, key), (Op::Reset, reset_span, key)])
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

/// Spawn a reactor server with the given trace mode, drive the
/// canonical traffic shape (6 connections alternating lockstep and
/// pipelined rounds, span-stamped when `spans` is set), and return the
/// allocation count over the measured window. Warmup faults in every
/// key, slab slot, ring, scratch buffer, and span splice capacity
/// before counting.
fn drive(trace: TraceMode, spans: bool) -> u64 {
    let server = Server::spawn(SvcConfig {
        workers: 2,
        trace,
        ..SvcConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr().to_string();

    let mut clients: Vec<(Client, Vec<u8>)> = (0..6)
        .map(|i| {
            let client = Client::connect(&addr).expect("connect");
            (client, format!("alloc/trace/{i}").into_bytes())
        })
        .collect();

    let mut next_span: u64 = 0;
    let mut mint = move || -> u64 {
        if spans {
            next_span += 1;
            next_span
        } else {
            0
        }
    };

    for _ in 0..50 {
        for (client, key) in clients.iter_mut() {
            let (a, b) = (mint(), mint());
            round(client, key, a, b);
            let (a, b) = (mint(), mint());
            batched_round(client, key, a, b);
        }
    }

    let before = allocations();
    for r in 0..400 {
        for (client, key) in clients.iter_mut() {
            let (a, b) = (mint(), mint());
            if r % 2 == 0 {
                round(client, key, a, b);
            } else {
                batched_round(client, key, a, b);
            }
        }
    }
    let counted = allocations() - before;

    drop(clients);
    server.shutdown();
    counted
}

#[test]
fn tracing_adds_zero_allocations_over_an_untraced_server() {
    // Untraced first: its measured window sets the budget the traced,
    // span-stamped server must match exactly on the identical traffic
    // shape.
    let untraced = drive(TraceMode::Off, false);
    let traced = drive(TraceMode::On, true);
    assert_eq!(
        traced, untraced,
        "`--trace on` with span-stamped requests allocated {traced} times \
         where the untraced server allocated {untraced}: the traced wire \
         path's steady state is not allocation-free"
    );
}
