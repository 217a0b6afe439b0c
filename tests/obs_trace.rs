//! Integration: the observability plane end to end — a chaos run on a
//! traced server whose flight-recorder dump accounts for the lease
//! reclaims the run reported, plus the metrics scrape the load harness
//! folds into its bench reports.
//!
//! The first test is the PR's acceptance bar: drive the stalled-holder
//! chaos cell against `--trace on`, dump the recorder, decode the
//! `RTASTRC1` file, and find every reclaim the client observed on the
//! reclaim lane of the timeline.

use std::sync::Arc;
use std::time::Duration;

use rtas_load::driver::{LoadSpec, Mode, Warmup};
use rtas_load::{run_load_remote, scrape_svc_extras};
use rtas_svc::obs::{
    audit_events, decode_dump, merge_spans, render_timeline, EventKind, FlightRecorder,
};
use rtas_svc::{ChaosSpec, Client, FaultPlan, Server, SvcConfig, TraceMode};

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
fn chaos_run_dump_accounts_for_every_observed_reclaim() {
    // Every winner stalls past the lease and half the acks vanish, so
    // the server must reclaim epochs — and the traced server must have
    // recorded each reclaim on the dedicated reclaim lane.
    let srv = Server::spawn(SvcConfig {
        shards: 4,
        capacity: 8,
        lease: Some(Duration::from_millis(2)),
        read_timeout: Some(Duration::from_secs(2)),
        trace: TraceMode::On,
        ..SvcConfig::default()
    })
    .expect("bind loopback");
    let addr = srv.addr().to_string();
    let chaos = ChaosSpec::parse("stall=1.0,stall-ms=10,skip-reset=0.5").unwrap();
    let out = run_load_remote(&addr, spec(2, 1, 120), Some(FaultPlan::new(chaos, 7)), None)
        .expect("chaos run");
    assert!(
        out.reclaimed > 0,
        "the stalled cell must strand epochs: {:?}",
        out.counts
    );

    // Dump through the public server API (the same path `rtas-svc`'s
    // panic hook uses), then decode the binary file back.
    let dir = std::env::temp_dir().join(format!("rtas-obs-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("trace dir");
    let path = dir.join("chaos.rtastrc");
    srv.dump_trace(&path).expect("dump flight recorder");
    // When the CI smoke job points RTAS_TRACE_DIR at a workspace dir,
    // leave a copy there for the `rtas-trace dump` decode step.
    srv.recorder()
        .dump_to_trace_dir("chaos")
        .expect("trace-dir dump");

    let bytes = std::fs::read(&path).expect("read dump");
    let dump = decode_dump(&bytes).expect("decode dump");
    let reclaim_lane = dump
        .lanes
        .iter()
        .find(|l| l.lane == 1)
        .expect("reclaim lane present");
    assert_eq!(
        reclaim_lane.dropped, 0,
        "the reclaim lane must retain every event at smoke load"
    );

    let events = dump.merged();
    let reclaims = events
        .iter()
        .filter(|e| e.kind == EventKind::LeaseReclaim as u32)
        .count() as u64;
    assert!(
        reclaims >= out.reclaimed,
        "the dump carries {reclaims} lease-reclaim events but the run \
         observed {} reclaimed epochs",
        out.reclaimed
    );
    // The server may reclaim epochs the client never re-probed (and an
    // arrival may reclaim again after the dump), so its counter bounds
    // the dump from above.
    assert!(
        srv.namespace().stats().reclaimed >= reclaims,
        "more reclaim events than reclaims counted"
    );

    // The rendered timeline names them: this is what an operator reads.
    let timeline = render_timeline(&events);
    assert!(
        timeline.contains("lease-reclaim"),
        "timeline must show the reclaim events:\n{timeline}"
    );
    assert!(timeline.contains("reclaim"), "reclaim lane named");

    std::fs::remove_file(&path).ok();
    srv.shutdown();
}

#[test]
fn drop_heavy_chaos_traced_on_both_tiers_merges_and_audits_clean() {
    // The PR's end-to-end acceptance bar: a fixed-seed drop-heavy cell
    // with tracing on BOTH tiers must merge into per-request timelines
    // where every client span pairs with at most one server span, and
    // the merged evidence must audit clean (one winner per key-epoch,
    // no post-reclaim wins).
    let srv = Server::spawn(SvcConfig {
        shards: 4,
        capacity: 64,
        lease: Some(Duration::from_millis(5)),
        read_timeout: Some(Duration::from_secs(2)),
        trace: TraceMode::On,
        ..SvcConfig::default()
    })
    .expect("bind loopback");
    let addr = srv.addr().to_string();
    let chaos = ChaosSpec::preset("drop-heavy").expect("preset");
    let recorder = Arc::new(FlightRecorder::new(TraceMode::On, 2));
    let out = run_load_remote(
        &addr,
        spec(2, 1, 160),
        Some(FaultPlan::new(chaos, 7)),
        Some(Arc::clone(&recorder)),
    )
    .expect("traced chaos run");
    assert!(
        out.outcome.recorder.total_ops() > 0,
        "the cell must make progress"
    );

    // Merge the two tiers on span identity — lossy frames mean some
    // client spans go unanswered, but no span may pair twice.
    let client_events = recorder.snapshot();
    let server_events = srv.recorder().snapshot();
    let merged = merge_spans(&client_events, &server_events);
    assert!(
        merged.client_spans > 0,
        "the traced client must have recorded round trips"
    );
    assert!(
        !merged.pairs.is_empty(),
        "at least one request must be seen end to end \
         ({} client spans, {} server spans)",
        merged.client_spans,
        merged.server_spans
    );
    assert_eq!(
        merged.duplicate_server, 0,
        "a client span paired with more than one server span — the \
         one-traced-frame-per-attempt rule is broken"
    );

    // Audit the combined evidence: spans are ignored, the arbitration
    // events must contain no counterexample to one-winner-per-epoch.
    let mut evidence = server_events;
    evidence.extend(client_events);
    let report = audit_events(&evidence);
    assert!(report.wins > 0, "the cell must have arbitrated winners");
    assert!(report.passed(), "audit failed:\n{}", report.render());

    // When the CI smoke job points RTAS_TRACE_DIR at a workspace dir,
    // leave both tiers' dumps there for the `rtas-trace merge` and
    // `rtas-trace audit` CLI steps (no-op when the variable is unset).
    recorder
        .dump_to_trace_dir("e2e-client")
        .expect("client trace-dir dump");
    srv.recorder()
        .dump_to_trace_dir("e2e-server")
        .expect("server trace-dir dump");
    srv.shutdown();
}

#[test]
fn stats_json_round_trips_through_the_bench_report_parser() {
    // `rtas-svc stats --json` emits a flat object via `stats_to_json`;
    // `rtas_obs::json::parse_json_object` is the programmatic
    // consumer. The round trip pins both the field set and the order.
    let srv = Server::spawn(SvcConfig::default()).expect("bind loopback");
    let addr = srv.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..5u32 {
        let key = format!("obs/statsjson/{i}").into_bytes();
        assert!(client.tas(&key).expect("TAS").won);
        client.reset(&key).expect("RESET");
    }
    let stats = client.stats().expect("STATS");
    let json = rtas_svc::cli::stats_to_json(&stats);
    let pairs = rtas_svc::obs::json::parse_json_object(&json).expect("flat JSON parses");
    let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "keys",
            "ops",
            "wins",
            "resets",
            "registers",
            "reclaimed",
            "conns",
            "refused"
        ],
        "the stats JSON shape is a published interface"
    );
    let value = |name: &str| pairs.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(value("ops"), 5.0, "5 arbitration ops");
    assert_eq!(value("wins"), 5.0);
    assert_eq!(value("resets"), 5.0);
    srv.shutdown();
}

#[test]
fn metrics_scrape_has_the_fixed_report_extras_shape() {
    // The load harness folds scraped metrics into bench-report rows;
    // bench-diff gates those rows structurally, so the scrape must
    // always produce the same eight keys in the same order — zeros when
    // a gauge has nothing to say, never a missing key.
    let srv = Server::spawn(SvcConfig::default()).expect("bind loopback");
    let addr = srv.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..8u32 {
        let key = format!("obs/scrape/{i}").into_bytes();
        assert!(client.tas(&key).expect("TAS").won);
        client.reset(&key).expect("RESET");
    }
    let extras = scrape_svc_extras(&addr).expect("scrape metrics");
    let names: Vec<&str> = extras.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "svc_ops",
            "svc_wins",
            "svc_resets",
            "svc_reclaimed",
            "svc_refused",
            "svc_carryovers",
            "svc_slab_live",
        ],
        "the scrape shape is part of the bench-diff gating contract"
    );
    let value = |name: &str| extras.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(value("svc_ops"), 8.0, "8 arbitration ops");
    assert_eq!(value("svc_wins"), 8.0);
    assert_eq!(value("svc_resets"), 8.0);
    assert_eq!(value("svc_refused"), 0.0);
    srv.shutdown();
}

#[test]
fn traced_reactor_exposes_stage_latencies_and_worker_gauges() {
    let srv = Server::spawn(SvcConfig {
        workers: 2,
        trace: TraceMode::On,
        ..SvcConfig::default()
    })
    .expect("bind loopback");
    let addr = srv.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..32u32 {
        let key = format!("obs/stages/{i}").into_bytes();
        assert!(client.tas(&key).expect("TAS").won);
        client.reset(&key).expect("RESET");
    }
    let text = client.metrics().expect("METRICS op");
    let parsed = rtas_svc::obs::parse_metrics(&text).expect("valid exposition");
    let value = |name: &str| {
        parsed
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metrics exposition missing {name}: \n{text}"))
            .1
    };
    // Tracing is on, so every serve samples the per-stage clocks.
    assert!(value("stage.read_ns.count") > 0.0);
    assert!(value("stage.decode_ns.count") > 0.0);
    assert!(value("stage.arbiter_ns.count") > 0.0);
    assert!(value("stage.encode_ns.count") > 0.0);
    // Both reactor workers surface their slab gauge.
    for k in 0..2 {
        let _ = value(&format!("reactor.worker{k}.slab_live"));
    }
    assert!(value("reactor.carryovers") >= 0.0);
    srv.shutdown();
}
