//! Drive sustained traffic at the native objects — the library face of
//! the `rtas-load` CLI.
//!
//! ```text
//! cargo run --release --example load_test
//! ```
//!
//! Runs the same workload twice: once closed-loop (a fixed fleet
//! hammering the arena back to back — peak throughput) and once
//! open-loop (a deterministic Poisson arrival schedule — latency under
//! *offered* load, queueing included). Both recycle one fixed pool of
//! test-and-set objects by epoch: nothing is rebuilt per resolution.

use rtas::Backend;
use rtas_load::driver::{run_load, LoadSpec, Mode, Slo, Warmup};

fn print_outcome(tag: &str, out: &rtas_load::LoadOutcome) {
    let overall = out.recorder.overall_latency();
    println!(
        "{tag}: {} ops = {} resolutions in {:.1} ms  ({:.0} ops/s)  \
         latency us p50 {:.1} / p90 {:.1} / p99 {:.1}",
        out.total_ops(),
        out.resolutions(),
        out.wall.as_secs_f64() * 1e3,
        out.throughput_ops_per_sec(),
        overall.p50,
        overall.p90,
        overall.p99,
    );
    assert_eq!(
        out.total_wins(),
        out.resolutions(),
        "exactly one winner per resolution"
    );
}

fn main() {
    let threads = 8;
    let shards = 4;

    // Closed loop: as fast as the hardware allows.
    let closed = run_load(LoadSpec {
        backend: Backend::Combined,
        threads,
        shards,
        mode: Mode::Closed { total_ops: 80_000 },
        seed: 42,
        churn: None,
        warmup: Warmup::None,
        conns: None,
    });
    print_outcome("closed", &closed);

    // The same fleet with churn: every worker thread retires after
    // 1 000 operations and a fresh one takes over its slot.
    let churned = run_load(LoadSpec {
        backend: Backend::Combined,
        threads,
        shards,
        mode: Mode::Closed { total_ops: 80_000 },
        seed: 42,
        churn: Some(1_000),
        warmup: Warmup::None,
        conns: None,
    });
    print_outcome("closed+churn", &churned);

    // Open loop: offer 50k ops/s for half a second. The seed fixes the
    // arrival schedule exactly — rerun with the same seed and the
    // offered load is bit-identical.
    let open = run_load(LoadSpec {
        backend: Backend::Combined,
        threads,
        shards,
        mode: Mode::Open {
            rate: 50_000.0,
            duration_secs: 0.5,
        },
        seed: 42,
        churn: None,
        warmup: Warmup::None,
        conns: None,
    });
    print_outcome("open", &open);

    // A latency SLO over the open-loop run.
    let slo = Slo {
        p50_us: Some(10_000.0),
        p99_us: Some(100_000.0),
    };
    match slo.violations(&open).as_slice() {
        [] => println!("SLO met: p50 <= 10ms, p99 <= 100ms"),
        violations => {
            for v in violations {
                println!("SLO violation: {v}");
            }
        }
    }
}
