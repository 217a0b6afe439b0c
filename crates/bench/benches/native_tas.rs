//! Wall-clock benches for the native (real-atomics) objects.
//!
//! Two groups:
//!
//! * **solo** — one thread, one reused `NativeRunner`, `test_and_set_with`
//!   then `reset` on every backend at capacity 64, cycling over 1 object
//!   (hot caches: the protocol's own cost) and over 4,096 objects (a
//!   keyed service's working set). Labels carry the op count per sample,
//!   so ns per op is the sample time divided by it.
//! * **contended** — the cost of a full test-and-set *resolution* with
//!   `k` concurrent threads per backend — the "would you actually use
//!   this" numbers. Operations go through the `rtas-load` sharded arena:
//!   one pool of objects is built per configuration and recycled by
//!   epoch across every sample, so the timed section contains resolution
//!   cost only — not the construction of a fresh `TestAndSet` per
//!   iteration (which used to dominate and made the old numbers
//!   constructor benchmarks in disguise).

use std::sync::Arc;

use rtas::native::NativeRunner;
use rtas::{Backend, TestAndSet};
use rtas_bench::microbench::Micro;
use rtas_load::driver::{run_load_on, LoadSpec, Mode, Warmup};
use rtas_load::TasArena;

/// Epochs per timed sample: enough to amortize thread spawn/join out of
/// the per-resolution figure.
const EPOCHS_PER_SAMPLE: u64 = 200;

fn bench_backend(micro: &Micro, backend: Backend, threads: usize) {
    // One shard, all threads in its group: the maximal-contention
    // resolution the old bench was after. The arena (and its registers)
    // lives across all samples; only epochs advance.
    let arena = Arc::new(TasArena::new(backend, 1, threads));
    let spec = LoadSpec {
        backend,
        threads,
        shards: 1,
        mode: Mode::Closed {
            total_ops: EPOCHS_PER_SAMPLE * threads as u64,
        },
        seed: 0,
        churn: None,
        warmup: Warmup::None,
        conns: None,
    };
    micro.bench(
        &format!("{backend:?}/{threads}thr x{EPOCHS_PER_SAMPLE}res"),
        |_| {
            let out = run_load_on(&arena, spec);
            assert_eq!(
                out.total_wins(),
                EPOCHS_PER_SAMPLE,
                "exactly one winner per resolution"
            );
            out.total_ops()
        },
    );
}

/// Solo test-and-set + reset operations per timed sample.
const SOLO_OPS: u64 = 100_000;

fn bench_solo(micro: &Micro, backend: Backend, objects: usize) {
    let pool: Vec<TestAndSet> = (0..objects)
        .map(|_| TestAndSet::with_backend(backend, 64))
        .collect();
    let mut runner = NativeRunner::new();
    let mut next = 0;
    micro.bench(
        &format!("{backend:?}/64 solo {objects}obj x{SOLO_OPS}op"),
        |_| {
            for _ in 0..SOLO_OPS {
                let tas = &pool[next];
                assert!(!tas.test_and_set_with(&mut runner), "a solo caller wins");
                tas.reset();
                next = (next + 1) % objects;
            }
            SOLO_OPS
        },
    );
}

fn main() {
    let micro = Micro::from_env();
    micro.group("native-tas solo (per-sample: 100,000 x test_and_set_with + reset, one runner)");
    for objects in [1usize, 4096] {
        for backend in [
            Backend::Combined,
            Backend::LogStar,
            Backend::RatRace,
            Backend::LogLog,
        ] {
            bench_solo(&micro, backend, objects);
        }
    }
    micro.group("native-tas (per-sample: 200 arena resolutions, objects recycled not rebuilt)");
    for threads in [2usize, 4, 8] {
        for backend in [Backend::LogStar, Backend::RatRace, Backend::Combined] {
            bench_backend(&micro, backend, threads);
        }
    }
}
