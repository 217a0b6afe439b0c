//! Integration: the network arbitration service end to end — the
//! loopback acceptance run (8 client threads, ≥ 50k keyed resolutions,
//! exactly one winner per key-epoch), remote open-loop determinism
//! (same seed ⇒ identical offered schedule), and the `svc_load` report
//! identity.

use rtas_load::driver::{LoadOutcome, LoadSpec, Mode, TargetKind, Warmup};
use rtas_load::remote::{run_load_remote, RemoteTarget};
use rtas_load::LoadTarget;
use rtas_svc::client::ClientError;
use rtas_svc::{server, ChaosSpec, FaultPlan};

/// A plain remote run: the clean plan, untraced.
fn run_plain(addr: &str, spec: LoadSpec) -> Result<LoadOutcome, ClientError> {
    run_load_remote(addr, spec, None, None).map(|run| run.outcome)
}

fn spec(threads: usize, shards: usize, mode: Mode) -> LoadSpec {
    LoadSpec {
        backend: rtas::Backend::Combined, // ignored remotely: the server picks
        threads,
        shards,
        mode,
        seed: 1,
        churn: None,
        warmup: Warmup::None,
        conns: None,
    }
}

#[test]
fn acceptance_eight_clients_sustain_50k_keyed_resolutions() {
    // The ISSUE's loopback acceptance run: 8 client threads over 4 keys
    // (groups of 2), 100k operations = 50k keyed resolutions, exactly
    // one winner per key-epoch — asserted across the full run by the
    // win accounting on the client side AND the server's own counters.
    let srv = server::spawn_local(rtas::Backend::Combined, 8, 8).expect("bind loopback");
    let addr = srv.addr().to_string();
    let out =
        run_plain(&addr, spec(8, 4, Mode::Closed { total_ops: 100_000 })).expect("remote run");

    assert_eq!(out.total_ops(), 100_000);
    assert_eq!(out.resolutions(), 50_000, "50k keyed resolutions");
    assert_eq!(
        out.total_wins(),
        out.resolutions(),
        "exactly one winner per key-epoch"
    );
    assert_eq!(out.target, TargetKind::Remote);
    assert!(out.registers > 0, "registers reported from server STATS");

    // Server-side corroboration: 4 load keys plus the probe's counters.
    let stats = srv.namespace().stats();
    assert_eq!(stats.keys, 4);
    // The probe performed one TAS per key (4 ops, each a win on its
    // fresh epoch) and one RESET per key before the run.
    assert_eq!(stats.ops, 100_000 + 4);
    assert_eq!(stats.wins, 50_000 + 4);
    assert_eq!(stats.resets, 50_000 + 4);
    srv.shutdown();
}

#[test]
fn remote_open_loop_same_seed_same_offered_load() {
    // The acceptance criterion: BENCH_svc_load.json is produced
    // deterministically from a fixed seed — the same seed offers the
    // identical arrival schedule (and therefore identical per-shard op
    // counts, the structurally gated fields) on every run, even across
    // separate servers.
    let mode = Mode::Open {
        rate: 20_000.0,
        duration_secs: 0.05,
    };
    let mut outs = Vec::new();
    for _ in 0..2 {
        let srv = server::spawn_local(rtas::Backend::Combined, 4, 4).expect("bind loopback");
        let addr = srv.addr().to_string();
        outs.push(run_plain(&addr, spec(4, 2, mode)).expect("remote run"));
        srv.shutdown();
    }
    let (x, y) = (&outs[0], &outs[1]);
    assert!(x.total_ops() > 0);
    assert_eq!(x.total_ops(), y.total_ops());
    for (cx, cy) in x
        .recorder
        .shard_stats()
        .iter()
        .zip(y.recorder.shard_stats())
    {
        assert_eq!(cx.ops, cy.ops, "per-shard op counts are seed-determined");
        assert_eq!(cx.wins, cy.wins, "one winner per epoch on both runs");
    }
    assert_eq!(x.total_wins(), x.resolutions());

    // Report identity: svc_load, rows labeled backend=remote, gate=wall.
    let report = x.bench_report();
    assert_eq!(report.name(), "svc_load");
    assert_eq!(report.rows().len(), 3, "2 shard rows + 1 total row");
    for row in report.rows() {
        assert!(row.labels.contains(&("backend".into(), "remote".into())));
        assert!(row.labels.contains(&("gate".into(), "wall".into())));
    }
}

#[test]
fn remote_target_reuse_continues_epochs_and_survives_stale_keys() {
    // Two successive runs against ONE server: the second RemoteTarget's
    // probe recycles whatever the first run left behind, so the
    // one-winner accounting stays exact.
    let srv = server::spawn_local(rtas::Backend::LogStar, 2, 2).expect("bind loopback");
    let addr = srv.addr().to_string();
    for _ in 0..2 {
        let out =
            run_plain(&addr, spec(4, 2, Mode::Closed { total_ops: 400 })).expect("remote run");
        assert_eq!(out.total_ops(), 400);
        assert_eq!(out.total_wins(), out.resolutions());
    }
    srv.shutdown();
}

#[test]
fn remote_target_exposes_driver_coordinates() {
    let srv = server::spawn_local(rtas::Backend::Combined, 2, 4).expect("bind loopback");
    let addr = srv.addr().to_string();
    let clean = FaultPlan::new(ChaosSpec::default(), 0);
    let target = RemoteTarget::new(
        &addr,
        &spec(12, 3, Mode::Closed { total_ops: 12 }),
        clean,
        None,
    )
    .expect("probe");
    assert_eq!(target.shards(), 3);
    assert_eq!(target.group(), 4);
    assert_eq!(target.addr(), addr);
    assert!(target.registers() > 0);
    srv.shutdown();
}

#[test]
fn remote_run_against_nothing_fails_gracefully() {
    // A dead address must surface as an error from the probe, not a
    // worker panic mid-run.
    let err = run_plain(
        "127.0.0.1:1", // reserved port, nothing listens there
        spec(2, 1, Mode::Closed { total_ops: 10 }),
    );
    assert!(err.is_err());
}

#[test]
fn fan_out_redials_connections_the_read_deadline_closed() {
    // Two workers round-robin two connections each at 20 ops/s, so a
    // connection idles ~200 ms between uses, twice the server's read
    // deadline. The server answers each idle connection with
    // `ERR "read deadline expired"` and closes it; the client must
    // treat that as a dead stream, redial and re-send, and keep exact
    // win accounting.
    let srv = server::Server::spawn(server::SvcConfig {
        read_timeout: Some(std::time::Duration::from_millis(100)),
        ..server::SvcConfig::default()
    })
    .expect("bind loopback");
    let addr = srv.addr().to_string();
    let mut s = spec(
        2,
        1,
        Mode::Open {
            rate: 20.0,
            duration_secs: 1.0,
        },
    );
    s.conns = Some(4);
    let out = run_plain(&addr, s).expect("remote run");
    assert!(out.total_ops() > 0);
    let errors = out.recorder.errors();
    assert!(
        errors.reconnects > 0,
        "idle connections redialed: {errors:?}"
    );
    assert!(errors.retries >= errors.reconnects, "{errors:?}");
    assert_eq!(out.total_wins(), out.resolutions());
    let report = out.bench_report();
    let total = report.rows().last().expect("total row");
    assert!(total
        .extra
        .iter()
        .any(|(k, v)| k == "err_reconnects" && *v == errors.reconnects as f64));
    srv.shutdown();
}

#[test]
fn remote_warmup_is_driven_but_unrecorded() {
    let srv = server::spawn_local(rtas::Backend::Combined, 2, 2).expect("bind loopback");
    let addr = srv.addr().to_string();
    let mut s = spec(4, 2, Mode::Closed { total_ops: 200 });
    s.warmup = Warmup::Ops(40);
    let out = run_plain(&addr, s).expect("remote run");
    assert_eq!(out.total_ops(), 200);
    assert_eq!(out.warmup_ops, 40);
    assert_eq!(out.resolutions(), 120);
    assert_eq!(out.total_wins() + out.warmup_wins, out.resolutions());
    srv.shutdown();
}
