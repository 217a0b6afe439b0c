//! `rtas-load` — drive sustained traffic at the native objects, or at
//! a remote `rtas-svc` arbitration server.
//!
//! ```text
//! rtas-load [options]
//!
//! options:
//!   --backend <b>     logstar | loglog | ratrace | combined | remote
//!                                                    (default combined)
//!   --addr <a>        remote backend only: the rtas-svc server address
//!   --threads <n>     worker threads                 (default: host parallelism)
//!   --shards <n>      target shards; threads % shards == 0
//!                     (default: largest divisor of threads <= threads/2)
//!   --mode <m>        closed | open                          (default closed)
//!   --ops <n>         closed loop: total operations          (default 200000)
//!   --rate <r>        open loop: offered ops/second          (default 100000)
//!   --duration <s>    open loop: schedule horizon, seconds   (default 1.0)
//!   --seed <x>        arrival-schedule seed                  (default 42)
//!   --churn <k>       closed loop: retire+respawn each worker thread
//!                     after k operations
//!   --warmup <n>      closed loop: run n unrecorded warmup operations
//!                     before the measured section
//!   --warmup-secs <s> open loop: execute but do not record arrivals
//!                     scheduled in the first s seconds
//!   --conns <n>       remote backend only: hold n total connections open
//!                     across the worker fleet, round-robining operations
//!                     over them (the C10K posture; requires n to be a
//!                     multiple of threads); reports as svc_c10k
//!   --slo-p50 <us>    fail (exit 1) if overall p50 exceeds this
//!   --slo-p99 <us>    fail (exit 1) if overall p99 exceeds this
//!   --chaos <spec>    remote backend only: inject deterministic faults —
//!                     a preset (clean|delay-only|drop-heavy|byzantine-reset)
//!                     or k=v pairs (delay, drop, truncate, reorder, stall,
//!                     skip-reset, dup-reset, ...); reports as svc_chaos
//!   --chaos-seed <x>  fault-schedule seed                     (default 42)
//!   --trace <m>       remote backend only: client-side flight recorder —
//!                     on | off | sampled:<n>; every request then
//!                     carries a wire trace span the server echoes, and the
//!                     client dump pairs with the server's via rtas-trace
//!                     merge (see docs/WIRE.md)               (default off)
//!   --trace-out <f>   where to write the client trace dump
//!                     (default rtas-load.rtastrc; requires --trace)
//!   --no-json         skip writing the BENCH_*.json report
//! ```
//!
//! Prints a per-shard table (ops, throughput, latency quantiles in
//! microseconds) and writes `BENCH_native_load.json` — or, with
//! `--backend remote`, `BENCH_svc_load.json` (`svc_c10k` with `--conns`,
//! `svc_chaos` with `--chaos`) — to `RTAS_BENCH_DIR`
//! (default: current directory; created if missing) through the
//! `rtas_obs` report machinery. The same `--seed` in open-loop mode
//! offers a bit-identical arrival schedule on every run, local or
//! remote; warmup windows are excluded from the recorded statistics
//! and SLO checks but still counted by the one-winner-per-epoch safety
//! assertion. See the README's "Native load harness" section.

use std::process::ExitCode;
use std::sync::Arc;

use rtas_load::driver::{default_shards, run_load, LoadSpec, Mode, Slo, TargetKind, Warmup};
use rtas_load::remote::{run_load_remote, scrape_svc_extras};
use rtas_svc::chaos::{ChaosSpec, FaultPlan};
use rtas_svc::obs::FlightRecorder;
use rtas_svc::TraceMode;

fn usage() -> ! {
    eprintln!(
        "usage: rtas-load [--backend b] [--addr host:port] [--threads n] \
         [--shards n] [--mode closed|open] [--ops n] [--rate r] [--duration s] \
         [--seed x] [--churn k] [--warmup n] [--warmup-secs s] [--conns n] \
         [--slo-p50 us] [--slo-p99 us] [--chaos spec] [--chaos-seed x] \
         [--trace on|off|sampled:n] [--trace-out file] [--no-json]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut backend = rtas::Backend::Combined;
    let mut remote = false;
    let mut addr: Option<String> = None;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let mut shards: Option<usize> = None;
    let mut mode_name = "closed".to_string();
    let mut ops = 200_000u64;
    let mut rate = 100_000.0f64;
    let mut duration = 1.0f64;
    let mut seed = 42u64;
    let mut churn: Option<u64> = None;
    let mut warmup_ops: Option<u64> = None;
    let mut warmup_secs: Option<f64> = None;
    let mut conns: Option<usize> = None;
    let mut slo = Slo::default();
    let mut no_json = false;
    let mut chaos: Option<String> = None;
    let mut chaos_seed = 42u64;
    let mut trace_mode = TraceMode::Off;
    let mut trace_out: Option<String> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> &String {
            iter.next().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                usage();
            })
        };
        fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> T {
            value.parse::<T>().unwrap_or_else(|_| {
                eprintln!("error: {name} value {value:?} is invalid");
                usage();
            })
        }
        match arg.as_str() {
            "--backend" => {
                let v = value("--backend");
                if v == "remote" {
                    remote = true;
                } else {
                    backend = rtas::Backend::parse(v).unwrap_or_else(|| {
                        eprintln!(
                            "error: unknown backend {v:?} \
                             (logstar|loglog|ratrace|combined|remote)"
                        );
                        usage();
                    });
                }
            }
            "--addr" => addr = Some(value("--addr").clone()),
            "--threads" => threads = parsed("--threads", value("--threads")),
            "--shards" => shards = Some(parsed("--shards", value("--shards"))),
            "--mode" => mode_name = value("--mode").clone(),
            "--ops" => ops = parsed("--ops", value("--ops")),
            "--rate" => rate = parsed("--rate", value("--rate")),
            "--duration" => duration = parsed("--duration", value("--duration")),
            "--seed" => seed = parsed("--seed", value("--seed")),
            "--churn" => churn = Some(parsed("--churn", value("--churn"))),
            "--warmup" => warmup_ops = Some(parsed("--warmup", value("--warmup"))),
            "--warmup-secs" => warmup_secs = Some(parsed("--warmup-secs", value("--warmup-secs"))),
            "--conns" => conns = Some(parsed("--conns", value("--conns"))),
            "--slo-p50" => slo.p50_us = Some(parsed("--slo-p50", value("--slo-p50"))),
            "--slo-p99" => slo.p99_us = Some(parsed("--slo-p99", value("--slo-p99"))),
            "--chaos" => chaos = Some(value("--chaos").clone()),
            "--chaos-seed" => chaos_seed = parsed("--chaos-seed", value("--chaos-seed")),
            "--trace" => {
                let v = value("--trace");
                trace_mode = TraceMode::parse(v).unwrap_or_else(|| {
                    eprintln!("error: unknown trace mode {v:?} (on|off|sampled:<n>)");
                    usage();
                });
            }
            "--trace-out" => trace_out = Some(value("--trace-out").clone()),
            "--no-json" => no_json = true,
            "--help" | "-h" => usage(),
            flag => {
                eprintln!("error: unknown argument {flag}");
                usage();
            }
        }
    }
    let shards = shards.unwrap_or_else(|| default_shards(threads));
    let mode = match mode_name.as_str() {
        "closed" => Mode::Closed { total_ops: ops },
        "open" => Mode::Open {
            rate,
            duration_secs: duration,
        },
        other => {
            eprintln!("error: unknown mode {other:?} (closed|open)");
            usage();
        }
    };
    if threads == 0 || shards == 0 || threads % shards != 0 {
        eprintln!(
            "error: threads ({threads}) must be a positive multiple of \
             shards ({shards})"
        );
        usage();
    }
    let warmup = match (warmup_ops, warmup_secs) {
        (None, None) => Warmup::None,
        (Some(n), None) => Warmup::Ops(n),
        (None, Some(s)) => Warmup::Secs(s),
        (Some(_), Some(_)) => {
            eprintln!("error: --warmup and --warmup-secs are mutually exclusive");
            usage();
        }
    };
    match (&warmup, &mode) {
        (Warmup::Ops(_), Mode::Open { .. }) => {
            eprintln!("error: --warmup is closed-loop; use --warmup-secs with --mode open");
            usage();
        }
        (Warmup::Secs(_), Mode::Closed { .. }) => {
            eprintln!("error: --warmup-secs is open-loop; use --warmup with --mode closed");
            usage();
        }
        _ => {}
    }
    if remote && addr.is_none() {
        eprintln!("error: --backend remote requires --addr host:port");
        usage();
    }
    if !remote && addr.is_some() {
        eprintln!("error: --addr only applies to --backend remote");
        usage();
    }
    if let Some(c) = conns {
        if !remote {
            eprintln!("error: --conns only applies to --backend remote");
            usage();
        }
        if c < threads || c % threads != 0 {
            eprintln!(
                "error: --conns ({c}) must be a positive multiple of \
                 threads ({threads}): each worker owns conns/threads connections"
            );
            usage();
        }
    }
    let chaos_spec = match &chaos {
        None => None,
        Some(s) => {
            if !remote {
                eprintln!("error: --chaos requires --backend remote (and --addr)");
                usage();
            }
            match ChaosSpec::parse(s) {
                Ok(spec) => Some(spec),
                Err(e) => {
                    eprintln!("error: bad --chaos spec: {e}");
                    usage();
                }
            }
        }
    };

    if trace_mode.enabled() && !remote {
        eprintln!("error: --trace requires --backend remote (the native path has no wire)");
        usage();
    }
    if trace_out.is_some() && !trace_mode.enabled() {
        eprintln!("error: --trace-out requires --trace on or sampled:<n>");
        usage();
    }
    // One worker lane per thread: context indices map onto lanes, so
    // each worker's client spans land on its own lock-free ring.
    let recorder = trace_mode
        .enabled()
        .then(|| Arc::new(FlightRecorder::new(trace_mode, threads)));

    let spec = LoadSpec {
        backend,
        threads,
        shards,
        mode,
        seed,
        churn,
        warmup,
        conns,
    };
    let backend_name = if remote { "remote" } else { backend.label() };
    println!(
        "rtas-load: backend={backend_name}{} mode={} threads={threads} shards={shards} \
         group={} seed={seed}{}{}{}",
        addr.as_deref()
            .map(|a| format!(" addr={a}"))
            .unwrap_or_default(),
        mode.label(),
        spec.group(),
        churn.map(|c| format!(" churn={c}")).unwrap_or_default(),
        conns.map(|c| format!(" conns={c}")).unwrap_or_default(),
        match warmup {
            Warmup::None => String::new(),
            Warmup::Ops(n) => format!(" warmup={n}ops"),
            Warmup::Secs(s) => format!(" warmup={s}s"),
        },
    );
    let mut chaos_summary: Option<String> = None;
    let mut out = if let Some(addr) = addr.as_deref() {
        let plan = chaos_spec.map(|chaos_spec| {
            println!("rtas-load: chaos spec={chaos_spec} seed={chaos_seed}");
            FaultPlan::new(chaos_spec, chaos_seed)
        });
        match run_load_remote(addr, spec, plan, recorder.clone()) {
            Ok(run) => {
                if run.outcome.target == TargetKind::Chaos {
                    let c = run.counts;
                    let winners: usize = run.winners.iter().map(Vec::len).sum();
                    chaos_summary = Some(format!(
                        "chaos | {} faults injected | delays {} | drops {} | \
                         truncations {} | reorders {} | stalls {} | skipped resets {} | \
                         dup resets {} | timeouts {} | retries {} | reconnects {} | \
                         reclaimed {} | winner epochs {winners} (one winner each)",
                        c.injected(),
                        c.delays,
                        c.drops,
                        c.truncations,
                        c.reorders,
                        c.stalls,
                        c.skipped_resets,
                        c.dup_resets,
                        c.timeouts,
                        c.retries,
                        c.reconnects,
                        run.reclaimed,
                    ));
                }
                run.outcome
            }
            Err(err) => {
                eprintln!("rtas-load: cannot drive {addr}: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        run_load(spec)
    };
    if let Some(recorder) = &recorder {
        // The client-side black box: the worker lanes' ClientSpan
        // events, pairable with the server's dump by rtas-trace merge.
        let path = trace_out.as_deref().unwrap_or("rtas-load.rtastrc");
        match recorder.dump_to_file(std::path::Path::new(path)) {
            Ok(()) => println!("wrote client trace {path}"),
            Err(e) => {
                eprintln!("rtas-load: failed to write client trace {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(addr) = addr.as_deref() {
        // Server-side observability: fold the curated svc_* extras from
        // the METRICS exposition into the report's total row. A failed
        // scrape costs a warning, never the finished run.
        match scrape_svc_extras(addr) {
            Ok(extras) => out.svc_extras = extras,
            Err(e) => eprintln!(
                "rtas-load: warning: metrics scrape from {addr} failed ({e}); \
                 svc_* report extras omitted"
            ),
        }
    }

    println!("shard | ops | wins | epochs | ops/s | p50 us | p90 us | p99 us | max us");
    for (s, cell) in out.recorder.shard_stats().iter().enumerate() {
        let summary = cell.latency.summary();
        println!(
            "{s} | {} | {} | {} | {:.0} | {:.1} | {:.1} | {:.1} | {:.1}",
            cell.ops,
            cell.wins,
            cell.ops / out.spec.group() as u64,
            cell.ops as f64 / out.wall.as_secs_f64(),
            summary.p50,
            summary.p90,
            summary.p99,
            summary.max,
        );
    }
    let overall = out.recorder.overall_latency();
    println!(
        "total | {} ops{} | {} resolutions | {:.0} ops/s | wall {:.1} ms | \
         p50 {:.1} us | p99 {:.1} us",
        out.total_ops(),
        if out.warmup_ops > 0 {
            format!(" (+{} warmup)", out.warmup_ops)
        } else {
            String::new()
        },
        out.resolutions(),
        out.throughput_ops_per_sec(),
        out.wall.as_secs_f64() * 1e3,
        overall.p50,
        overall.p99,
    );
    if let Some(summary) = &chaos_summary {
        // Under chaos, wins legitimately diverge from resolution
        // counts (skipped acks strand losing epochs; reclaims split
        // one epoch across two server epochs). The one-winner bar is
        // enforced fail-fast inside the remote target instead.
        println!("{summary}");
    } else {
        assert_eq!(
            out.total_wins() + out.warmup_wins,
            out.resolutions(),
            "safety violation: winner count does not match resolution count"
        );
    }

    if !no_json {
        let report = out.bench_report();
        match report.write() {
            Ok(path) => println!("wrote {}", path.display()),
            Err(err) => {
                eprintln!(
                    "rtas-load: failed to write {}: {err}",
                    report.path().display()
                );
                return ExitCode::from(2);
            }
        }
    }
    let violations = slo.violations(&out);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("SLO violation: {v}");
        }
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
