//! Integration: the hostile-network fault cells end to end — a live
//! loopback server with lease reclamation and read deadlines, driven
//! through the deterministic chaos layer. Every cell upholds the one
//! safety bar (at most one winner per key-epoch, enforced fail-fast
//! by the remote target's winner ledger), and the delay-only cell
//! proves the determinism guarantee: the same `--chaos-seed` replays
//! the identical fault schedule and winner sets, one connection per
//! worker or many.

use std::sync::Arc;
use std::time::Duration;

use rtas_load::driver::{LoadSpec, Mode, TargetKind, Warmup};
use rtas_load::remote::{run_load_remote, RemoteOutcome};
use rtas_svc::obs::FlightRecorder;
use rtas_svc::server::SvcConfig;
use rtas_svc::{ChaosSpec, FaultPlan, Server, TraceMode};

/// One untraced run of `spec` against `addr` under `plan`'s faults.
fn run_chaos(addr: &str, spec: LoadSpec, plan: FaultPlan) -> RemoteOutcome {
    run_load_remote(addr, spec, Some(plan), None).expect("chaos run")
}

fn hostile_server(lease_ms: u64) -> Server {
    hostile_server_traced(lease_ms, TraceMode::Off)
}

fn hostile_server_traced(lease_ms: u64, trace: TraceMode) -> Server {
    Server::spawn(SvcConfig {
        shards: 4,
        capacity: 8,
        lease: Some(Duration::from_millis(lease_ms)),
        read_timeout: Some(Duration::from_secs(2)),
        trace,
        ..SvcConfig::default()
    })
    .expect("bind loopback")
}

fn spec(threads: usize, shards: usize, total_ops: u64) -> LoadSpec {
    LoadSpec {
        backend: rtas::Backend::Combined, // ignored remotely
        threads,
        shards,
        mode: Mode::Closed { total_ops },
        seed: 1,
        churn: None,
        warmup: Warmup::None,
        conns: None,
    }
}

#[test]
fn clean_cell_matches_the_plain_remote_path() {
    let srv = hostile_server(200);
    let addr = srv.addr().to_string();
    let plan = FaultPlan::new(ChaosSpec::default(), 7);
    let out = run_chaos(&addr, spec(4, 2, 2_000), plan);

    assert_eq!(out.outcome.total_ops(), 2_000);
    assert_eq!(
        out.outcome.total_wins(),
        out.outcome.resolutions(),
        "a clean cell behaves exactly like the plain remote driver"
    );
    assert_eq!(out.counts.injected(), 0, "no faults on a clean spec");
    assert_eq!(out.reclaimed, 0, "nothing for the lease to reclaim");
    let errors = out.outcome.recorder.errors();
    assert_eq!(
        (
            errors.timeouts,
            errors.retries,
            errors.reconnects,
            errors.reclaimed
        ),
        (0, 0, 0, 0)
    );
    assert_eq!(out.outcome.target, TargetKind::Chaos);

    // Report identity: svc_chaos, rows labeled backend=chaos, the
    // total row carrying the (all-zero) error classes.
    let report = out.outcome.bench_report();
    assert_eq!(report.name(), "svc_chaos");
    let total = report.rows().last().expect("total row");
    for class in [
        "err_timeouts",
        "err_retries",
        "err_reconnects",
        "err_reclaimed",
    ] {
        let (_, v) = total
            .extra
            .iter()
            .find(|(name, _)| name == class)
            .unwrap_or_else(|| panic!("total row carries {class}"));
        assert_eq!(*v, 0.0);
    }
    for row in report.rows() {
        assert!(row.labels.contains(&("backend".into(), "chaos".into())));
    }
    srv.shutdown();
}

#[test]
fn delay_only_same_seed_replays_identical_schedules_and_winner_sets() {
    // THE determinism acceptance bar: two runs with the same chaos
    // seed against two fresh servers inject the identical fault
    // schedule and agree on per-shard op counts, win counts, the
    // fault tally, and the winner sets themselves.
    let chaos = ChaosSpec::preset("delay-only").unwrap();
    let mut outs = Vec::new();
    for _ in 0..2 {
        let srv = hostile_server(200);
        let addr = srv.addr().to_string();
        let out = run_chaos(&addr, spec(4, 2, 2_000), FaultPlan::new(chaos.clone(), 7));
        srv.shutdown();
        outs.push(out);
    }
    let (x, y) = (&outs[0], &outs[1]);
    assert!(x.counts.delays > 0, "the delay cell must inject delays");
    assert_eq!(x.counts, y.counts, "bit-identical fault schedules");
    assert_eq!(x.winners, y.winners, "identical winner sets");
    assert_eq!(x.outcome.total_ops(), y.outcome.total_ops());
    for (cx, cy) in x
        .outcome
        .recorder
        .shard_stats()
        .iter()
        .zip(y.outcome.recorder.shard_stats())
    {
        assert_eq!(cx.ops, cy.ops, "per-shard op counts are seed-determined");
        assert_eq!(cx.wins, cy.wins);
    }
    // Delays alone never lose an epoch: full win accounting holds, and
    // the winner sets are the contiguous post-probe epochs.
    assert_eq!(x.outcome.total_wins(), x.outcome.resolutions());
    for shard_winners in &x.winners {
        let base = shard_winners.first().copied().unwrap();
        let expect: Vec<u64> = (0..shard_winners.len() as u64).map(|i| base + i).collect();
        assert_eq!(*shard_winners, expect, "winner epochs are contiguous");
    }
}

#[test]
fn delay_only_fan_out_replays_identical_schedules_and_winner_sets() {
    // The same cell with two connections per worker: connection `i` of
    // worker context `k` replays fault stream `2k + i`, so a fan-out
    // run is as deterministic as the one-connection fleet.
    let chaos = ChaosSpec::preset("delay-only").unwrap();
    let mut fan_out = spec(4, 2, 2_000);
    fan_out.conns = Some(8);
    let mut outs = Vec::new();
    for _ in 0..2 {
        let srv = hostile_server(200);
        let addr = srv.addr().to_string();
        outs.push(run_chaos(&addr, fan_out, FaultPlan::new(chaos.clone(), 7)));
        srv.shutdown();
    }
    let (x, y) = (&outs[0], &outs[1]);
    assert!(x.counts.delays > 0, "the delay cell must inject delays");
    assert_eq!(x.counts, y.counts, "bit-identical fault schedules");
    assert_eq!(x.winners, y.winners, "identical winner sets");
    assert_eq!(x.outcome.total_ops(), 2_000);
    assert_eq!(x.outcome.total_wins(), x.outcome.resolutions());
    let report = x.outcome.bench_report();
    assert_eq!(report.name(), "svc_chaos");
    for row in report.rows() {
        assert!(row.labels.contains(&("conns".into(), "8".into())));
    }
}

#[test]
fn tracing_never_perturbs_the_fault_schedule() {
    // The flight recorder deliberately samples with pure arithmetic and
    // all fault RNG lives client-side, so running the identical seeded
    // cell untraced and traced on both tiers (server recorder on, client
    // spans minted per wire attempt) must replay the bit-identical fault
    // schedule and winner sets. This is the guard that keeps `--trace
    // on` out of the determinism contract.
    let chaos = ChaosSpec::preset("delay-only").unwrap();
    let mut outs = Vec::new();
    for trace in [TraceMode::Off, TraceMode::On] {
        let srv = hostile_server_traced(200, trace);
        let addr = srv.addr().to_string();
        let client = trace
            .enabled()
            .then(|| Arc::new(FlightRecorder::new(trace, 4)));
        let plan = FaultPlan::new(chaos.clone(), 7);
        let out = run_load_remote(&addr, spec(4, 2, 2_000), Some(plan), client.clone())
            .expect("chaos run");
        if let Some(client) = client {
            assert!(!client.snapshot().is_empty(), "client spans recorded");
        }
        srv.shutdown();
        outs.push(out);
    }
    let (untraced, traced) = (&outs[0], &outs[1]);
    assert!(untraced.counts.delays > 0, "the cell must inject faults");
    assert_eq!(
        untraced.counts, traced.counts,
        "tracing changed the injected fault schedule"
    );
    assert_eq!(
        untraced.winners, traced.winners,
        "tracing changed the winner sets"
    );
    assert_eq!(untraced.outcome.total_ops(), traced.outcome.total_ops());
    assert_eq!(untraced.outcome.total_wins(), traced.outcome.total_wins());
}

#[test]
fn drop_heavy_cell_survives_severed_and_torn_connections() {
    // Drops and truncations kill connections mid-traffic; the retry
    // layer redials and replays, and the server never hands a second
    // win to any epoch (enforced fail-fast inside resolve — this test
    // passing IS the safety assertion).
    let chaos = ChaosSpec::parse("drop-heavy,drop=0.05,truncate=0.02").unwrap();
    let srv = hostile_server(100);
    let addr = srv.addr().to_string();
    let out = run_chaos(&addr, spec(4, 2, 2_000), FaultPlan::new(chaos, 7));
    assert_eq!(out.outcome.total_ops(), 2_000, "every op gets a verdict");
    assert!(out.counts.drops > 0, "drops must fire: {:?}", out.counts);
    assert!(out.counts.truncations > 0, "truncations must fire");
    assert!(
        out.counts.reconnects > 0,
        "severed connections must redial: {:?}",
        out.counts
    );
    assert!(
        out.counts.retries > 0,
        "torn frames force retries: {:?}",
        out.counts
    );
    let errors = out.outcome.recorder.errors();
    assert_eq!(errors.retries, out.counts.retries);
    assert_eq!(errors.reconnects, out.counts.reconnects);
    srv.shutdown();
}

#[test]
fn stalled_holders_are_reclaimed_by_the_lease() {
    // Every winner stalls holding its slot for far longer than the
    // lease, and half the resolution acks are byzantinely skipped: the
    // first arrival on an expired key-epoch must reclaim it (counting
    // it as a loss) and the run must stay live — with still at most
    // one winner per server epoch.
    let chaos = ChaosSpec::parse("stall=1.0,stall-ms=10,skip-reset=0.5").unwrap();
    let srv = hostile_server(2);
    let addr = srv.addr().to_string();
    let out = run_chaos(&addr, spec(2, 1, 120), FaultPlan::new(chaos, 7));
    assert_eq!(out.outcome.total_ops(), 120);
    assert!(out.counts.stalls > 0, "stalls must fire: {:?}", out.counts);
    assert!(out.counts.skipped_resets > 0, "skipped acks must fire");
    assert!(
        out.reclaimed > 0,
        "expired leases must be reclaimed: {:?}",
        out.counts
    );
    assert_eq!(out.outcome.recorder.errors().reclaimed, out.reclaimed);
    assert!(srv.namespace().stats().reclaimed >= out.reclaimed);

    // Reclaimed epochs are wins the protocol *lost* — the report must
    // carry the tally instead of folding it into clean latency.
    let report = out.outcome.bench_report();
    let total = report.rows().last().expect("total row");
    let (_, reclaimed) = total
        .extra
        .iter()
        .find(|(name, _)| name == "err_reclaimed")
        .expect("total row carries err_reclaimed");
    assert_eq!(*reclaimed, out.reclaimed as f64);
    srv.shutdown();
}

#[test]
fn byzantine_duplicate_acks_are_defused_by_the_zero_admission_guard() {
    // Every resolution ack is sent twice. The duplicate lands on a
    // zero-admission epoch and must be a no-op: epochs advance exactly
    // once per resolution, so full win accounting still holds.
    let chaos = ChaosSpec::parse("dup-reset=1.0").unwrap();
    let srv = hostile_server(200);
    let addr = srv.addr().to_string();
    let out = run_chaos(&addr, spec(4, 2, 2_000), FaultPlan::new(chaos, 7));
    assert_eq!(out.outcome.total_ops(), 2_000);
    assert!(out.counts.dup_resets > 0, "duplicate acks must fire");
    assert_eq!(
        out.outcome.total_wins(),
        out.outcome.resolutions(),
        "duplicated acks never skip or burn an epoch"
    );
    assert_eq!(out.reclaimed, 0, "nothing stranded, nothing reclaimed");
    srv.shutdown();
}

#[test]
fn byzantine_preset_cell_upholds_safety_under_the_full_mix() {
    // The CI byzantine-reset cell: delays, stalls, skipped and
    // duplicated acks together, against a short lease. Completion
    // without a ledger panic is the safety proof; liveness shows as
    // every op getting a verdict.
    let chaos = ChaosSpec::preset("byzantine-reset").unwrap();
    let srv = hostile_server(5);
    let addr = srv.addr().to_string();
    let out = run_chaos(&addr, spec(4, 2, 2_000), FaultPlan::new(chaos, 7));
    assert_eq!(out.outcome.total_ops(), 2_000);
    assert!(out.counts.injected() > 0, "the mix must inject faults");
    // Each observed winner epoch appears exactly once per shard by
    // construction of the ledger; the sets must also be disjoint-free
    // after sorting (no epoch listed twice).
    for shard_winners in &out.winners {
        let mut dedup = shard_winners.clone();
        dedup.dedup();
        assert_eq!(*shard_winners, dedup, "one winner per server epoch");
    }
    srv.shutdown();
}
