//! Integration: the native load-generation subsystem end to end —
//! arena recycling, closed/open-loop driving, churn, seed-reproducible
//! offered load, and the report it emits.

use rtas::native::NativeRunner;
use rtas::Backend;
use rtas_load::driver::{run_load, LoadSpec, Mode, Slo};
use rtas_load::{ArrivalSchedule, TasArena};

#[test]
fn arena_reuse_over_100_epochs_under_contention() {
    // The acceptance shape: 8 threads over 4 shards (groups of 2), one
    // winner per resolution, across >= 100 reuse epochs per shard.
    let out = run_load(LoadSpec {
        backend: Backend::Combined,
        threads: 8,
        shards: 4,
        mode: Mode::Closed { total_ops: 8 * 120 },
        seed: 3,
        churn: None,
        warmup: rtas_load::Warmup::None,
        conns: None,
    });
    assert_eq!(out.total_ops(), 960);
    assert_eq!(out.resolutions(), 480, "120 epochs per shard");
    assert_eq!(out.total_wins(), 480, "exactly one winner per epoch");
    for cell in out.recorder.shard_stats() {
        assert_eq!(cell.ops, 240);
        assert_eq!(cell.wins, 120);
        assert_eq!(cell.latency.count(), 240);
    }
}

#[test]
fn every_backend_survives_the_closed_loop() {
    for backend in [
        Backend::LogStar,
        Backend::LogLog,
        Backend::RatRace,
        Backend::Combined,
    ] {
        let out = run_load(LoadSpec {
            backend,
            threads: 4,
            shards: 2,
            mode: Mode::Closed { total_ops: 200 },
            seed: 5,
            churn: None,
            warmup: rtas_load::Warmup::None,
            conns: None,
        });
        assert_eq!(out.total_wins(), out.resolutions(), "{backend:?}");
    }
}

#[test]
fn churn_respawns_workers_without_losing_ops_or_safety() {
    let out = run_load(LoadSpec {
        backend: Backend::RatRace,
        threads: 4,
        shards: 2,
        mode: Mode::Closed { total_ops: 400 },
        seed: 11,
        churn: Some(7),
        warmup: rtas_load::Warmup::None,
        conns: None,
    });
    assert_eq!(out.total_ops(), 400);
    assert_eq!(out.total_wins(), out.resolutions());
}

#[test]
fn open_loop_same_seed_same_offered_load() {
    // The acceptance criterion: the same --seed must produce an
    // identical arrival schedule across runs (and a different seed must
    // not).
    let a = ArrivalSchedule::poisson(80_000.0, 0.1, 1234);
    let b = ArrivalSchedule::poisson(80_000.0, 0.1, 1234);
    assert_eq!(a, b);
    assert_ne!(a, ArrivalSchedule::poisson(80_000.0, 0.1, 1235));

    // And two actual open-loop runs with one seed complete the same op
    // count (per shard — the schedule striping is deterministic too).
    let spec = LoadSpec {
        backend: Backend::LogStar,
        threads: 4,
        shards: 2,
        mode: Mode::Open {
            rate: 30_000.0,
            duration_secs: 0.03,
        },
        seed: 77,
        churn: None,
        warmup: rtas_load::Warmup::None,
        conns: None,
    };
    let x = run_load(spec);
    let y = run_load(spec);
    assert_eq!(x.total_ops(), y.total_ops());
    for (cx, cy) in x
        .recorder
        .shard_stats()
        .iter()
        .zip(y.recorder.shard_stats())
    {
        assert_eq!(cx.ops, cy.ops);
        assert_eq!(cx.wins, cy.wins);
    }
}

#[test]
fn report_carries_wall_gate_labels_and_matches_counts() {
    let out = run_load(LoadSpec {
        backend: Backend::Combined,
        threads: 2,
        shards: 2,
        mode: Mode::Closed { total_ops: 100 },
        seed: 1,
        churn: None,
        warmup: rtas_load::Warmup::None,
        conns: None,
    });
    let report = out.bench_report();
    assert_eq!(report.name(), "native_load");
    assert_eq!(report.rows().len(), 3);
    for row in report.rows() {
        assert!(
            row.labels.contains(&("gate".into(), "wall".into())),
            "every native-load row is wall-derived: {row:?}"
        );
    }
    let ops: f64 = report.rows()[2]
        .extra
        .iter()
        .find(|(k, _)| k == "ops")
        .expect("total row has ops")
        .1;
    assert_eq!(ops as u64, out.total_ops());
}

#[test]
fn slo_checks_read_the_overall_distribution() {
    let out = run_load(LoadSpec {
        backend: Backend::LogStar,
        threads: 2,
        shards: 1,
        mode: Mode::Closed { total_ops: 100 },
        seed: 2,
        churn: None,
        warmup: rtas_load::Warmup::None,
        conns: None,
    });
    assert!(Slo {
        p50_us: Some(1e12),
        p99_us: Some(1e12)
    }
    .violations(&out)
    .is_empty());
    assert_eq!(
        Slo {
            p50_us: Some(0.0),
            p99_us: Some(0.0)
        }
        .violations(&out)
        .len(),
        2
    );
}

#[test]
fn arena_epochs_continue_across_driver_runs() {
    // A reused arena (the bench path) continues epoch numbering instead
    // of colliding with completed epochs.
    let arena = std::sync::Arc::new(TasArena::new(Backend::LogStar, 2, 2));
    let spec = LoadSpec {
        backend: Backend::LogStar,
        threads: 4,
        shards: 2,
        mode: Mode::Closed { total_ops: 80 },
        seed: 0,
        churn: None,
        warmup: rtas_load::Warmup::None,
        conns: None,
    };
    let first = rtas_load::run_load_on(&arena, spec);
    assert_eq!(arena.epochs_completed(0), 20);
    let second = rtas_load::run_load_on(&arena, spec);
    assert_eq!(arena.epochs_completed(0), 40);
    assert_eq!(first.total_wins() + second.total_wins(), 80);
}

#[test]
fn solo_arena_resolve_is_reusable_from_a_bare_runner() {
    // Smallest possible harness: one shard, group of one, driven
    // directly without the driver.
    let arena = TasArena::new(Backend::Combined, 1, 1);
    let mut runner = NativeRunner::new();
    for epoch in 0..150 {
        assert!(arena.resolve(0, epoch, &mut runner));
    }
    assert_eq!(arena.wins(0), 150);
}
