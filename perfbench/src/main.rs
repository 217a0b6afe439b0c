//! The service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lockstep|pipelined|hot-elect --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts an `rtas_svc::Server` with `SvcConfig::default()` in this
//! process and drives it through the public `Client` from one
//! generator thread (`wire.rs`), checking every verdict. `--trace 0`
//! makes one untraced run and reports the end-to-end metrics.
//! `--trace 1` adds a traced run (server flight recorder on, client
//! spans kept in memory) and the layer replays (`layers.rs`), prints
//! the layer ladder and the tracing overhead, and reports the
//! per-layer metrics. Human-readable tables go first; the last line of
//! standard output is one JSON object. A correctness violation exits 1.

mod layers;
mod stats;
mod wire;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use rtas_svc::TraceMode;

use layers::Replays;
use stats::{median, median_f64, quantile_f64, quantiles};
use wire::{metric, SpanName, Tally};
use workload::{Plan, Workload};

/// Each layer replay's time budget.
const REPLAY: Duration = Duration::from_millis(500);

const USAGE: &str = "usage: perfbench --workload lockstep|pipelined|hot-elect \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// Where across a run's windows its p50s and rates are read: the
/// calmest tenth. The host's speed drifts: on a 2-vCPU KVM guest a
/// round trip runs up to 1.5x slower for stretches of seconds, and the
/// share of slow stretches changes from minute to minute. A run's calm
/// windows hold still across runs where its median window does not,
/// and a program that gets slower is slower in them too.
const CALM: f64 = 0.1;

/// Column `col` of [`Tally::windows`] over the run's windows: the
/// median, or with `calm` the [`CALM`] quantile (`1 - CALM` for the
/// rate, where higher is calmer).
fn across_windows(t: &Tally, col: usize, calm: bool) -> f64 {
    let column: Vec<f64> = t.windows.iter().map(|w| w[col]).collect();
    match (calm, col) {
        (false, _) => median_f64(&column),
        (true, 4) => quantile_f64(&column, 1.0 - CALM),
        (true, _) => quantile_f64(&column, CALM),
    }
}

/// The end-to-end metrics of the result line. An open loop's rate is
/// its offered rate, so it is read over the whole run, not in windows
/// that happened to hold more arrivals.
fn end_to_end(t: &Tally, open_loop: bool) -> Vec<Metric> {
    let rate = if open_loop {
        t.verdicts as f64 / t.wall_s
    } else {
        across_windows(t, 4, true)
    };
    vec![
        m("acquire_p50_us", us(across_windows(t, 0, true)), "us"),
        m("ack_p50_us", us(across_windows(t, 2, true)), "us"),
        m("throughput_ops_s", rate, "1/s"),
        m("setup_s", median_f64(&t.setup_s), "s"),
        m("peak_rss_mb", t.peak_rss_kb as f64 / 1024.0, "MB"),
    ]
}

/// The tails, medians over windows: printed but not in the result
/// line, because a p99 cannot be read in calm windows alone, and across
/// runs it follows the host's slow stretches rather than the program.
fn tails(t: &Tally) -> Vec<Metric> {
    vec![
        m("acquire_p99_us", us(across_windows(t, 1, false)), "us"),
        m("ack_p99_us", us(across_windows(t, 3, false)), "us"),
    ]
}

/// Durations of the traced run's spans named `name` (and, if given,
/// of burst shape `shape`), ns.
fn spans(t: &Tally, name: SpanName, shape: Option<usize>) -> Vec<u64> {
    t.spans
        .iter()
        .filter(|s| s.name == name && shape.is_none_or(|sh| usize::from(s.shape) == sh))
        .map(|s| s.ns)
        .collect()
}

/// The layer ladder, per burst shape: self times that add up to the
/// client round trip, in µs.
struct Ladder {
    shape: &'static str,
    rows: Vec<(&'static str, f64)>,
}

fn ladder(plan: &Plan, t: &Tally, r: &mut Replays) -> Vec<Ladder> {
    let nat_acq = median(&mut r.native_acquire_ns);
    let nat_rst = median(&mut r.native_reset_ns);
    let ns_acq = median(&mut r.ns_acquire_ns);
    let ns_rst = median(&mut r.ns_reset_ns);
    plan.workload
        .shapes()
        .iter()
        .enumerate()
        .map(|(s, &shape)| {
            let (a, z) = r.conn_mix[s];
            let (a, z) = (a as f64, z as f64);
            let native = a * nat_acq + z * nat_rst;
            let namespace = a * ns_acq + z * ns_rst;
            let conn = median(&mut r.conn_ingest_ns[s]);
            let rtt = median(&mut spans(t, SpanName::Rtt, Some(s)));
            let send = median(&mut spans(t, SpanName::Send, Some(s)));
            let residual = rtt - conn;
            Ladder {
                shape,
                rows: vec![
                    ("native: Arbiter try_acquire + reset", us(native)),
                    ("namespace self: admission, key map", us(namespace - native)),
                    ("conn self: frame decode + encode", us(conn - namespace)),
                    ("reactor residual: rtt - conn.ingest", us(residual)),
                    ("  client send: write syscall", us(send)),
                    (
                        "  unexplained: wake-ups, loopback, server I/O",
                        us(residual - send),
                    ),
                    ("client round trip (p50)", us(rtt)),
                ],
            }
        })
        .collect()
}

fn per_layer(untraced: &Tally, t: &Tally, r: &mut Replays) -> Vec<Metric> {
    let nat_acq = quantiles(&mut r.native_acquire_ns, &[0.5, 0.99]);
    let nat_rst = quantiles(&mut r.native_reset_ns, &[0.5, 0.99]);
    // reactor.self: each traced burst's round trip minus the replayed
    // conn.ingest p50 of its shape.
    let conn_p50: Vec<f64> = r.conn_ingest_ns.iter_mut().map(|v| median(v)).collect();
    let mut residual: Vec<u64> = t
        .spans
        .iter()
        .filter(|s| s.name == SpanName::Rtt)
        .map(|s| (s.ns as f64 - conn_p50[usize::from(s.shape)]).max(0.0) as u64)
        .collect();
    let mut all_bursts: Vec<u64> = r.conn_ingest_ns.concat();
    let mut per_frame: Vec<u64> = r
        .conn_ingest_ns
        .iter()
        .zip(&r.conn_mix)
        .flat_map(|(v, &(a, z))| v.iter().map(move |&d| d / (a + z).max(1) as u64))
        .collect();
    let recv = quantiles(&mut spans(t, SpanName::RecvWait, None), &[0.5, 0.99]);
    let lag = quantiles(&mut spans(t, SpanName::Lag, None), &[0.5, 0.99]);
    let frames = t.attempted as f64;
    vec![
        m("native.try_acquire_p50_ns", nat_acq[0], "ns"),
        m("native.try_acquire_p99_ns", nat_acq[1], "ns"),
        m("native.reset_p50_ns", nat_rst[0], "ns"),
        m("native.reset_p99_ns", nat_rst[1], "ns"),
        m("native.registers", r.registers as f64, "count"),
        m(
            "namespace.acquire_p50_ns",
            median(&mut r.ns_acquire_ns),
            "ns",
        ),
        m("namespace.reset_p50_ns", median(&mut r.ns_reset_ns), "ns"),
        m(
            "namespace.wins_per_op",
            r.ns_wins as f64 / r.ns_ops.max(1) as f64,
            "ratio",
        ),
        m("namespace.bytes_per_key", untraced.bytes_per_key, "B"),
        m(
            "namespace.server_arbiter_p50_ns",
            metric(&t.metrics, "stage.arbiter_ns.p50"),
            "ns",
        ),
        m("conn.ingest_p50_ns", median(&mut all_bursts), "ns"),
        m("conn.ingest_per_frame_p50_ns", median(&mut per_frame), "ns"),
        m(
            "client.send_p50_ns",
            median(&mut spans(t, SpanName::Send, None)),
            "ns",
        ),
        m("client.recv_wait_p50_ns", recv[0], "ns"),
        m("client.recv_wait_p99_ns", recv[1], "ns"),
        m(
            "client.frames_per_write",
            frames / t.writes.max(1) as f64,
            "ratio",
        ),
        m("reactor.self_p50_us", us(median(&mut residual)), "us"),
        m(
            "reactor.wake_writes_per_op",
            t.wake_writes / frames,
            "ratio",
        ),
        m("reactor.carryovers_per_op", t.carryovers / frames, "ratio"),
        m(
            "reactor.stage_read_p50_ns",
            metric(&t.metrics, "stage.read_ns.p50"),
            "ns",
        ),
        m(
            "reactor.stage_write_p50_ns",
            metric(&t.metrics, "stage.write_ns.p50"),
            "ns",
        ),
        m("schedule.lag_p50_us", us(lag[0]), "us"),
        m("schedule.lag_p99_us", us(lag[1]), "us"),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("\n{title}");
    for x in metrics {
        println!("  {:<34} {:>14.3} {}", x.name, x.value, x.unit);
    }
}

fn print_counts(label: &str, t: &Tally) {
    println!(
        "  {label}: {} requests in {:.3} s ({} verdicts, {} wins, {} acks, {} writes); \
         {} windows of {} s; {} keep-awake children; fail_ratio {} (ratio)",
        t.attempted,
        t.wall_s,
        t.verdicts,
        t.wins,
        t.acks,
        t.writes,
        t.windows.len(),
        wire::WINDOW.as_secs_f64(),
        t.keep_awake,
        t.failed as f64 / t.attempted.max(1) as f64,
    );
    let mut setups: Vec<u64> = t.setup_s.iter().map(|&s| (s * 1e9) as u64).collect();
    let q = quantiles(&mut setups, &[0.25, 0.5, 0.75]);
    println!(
        "  {label}: {} set-ups: q1 {:.6} median {:.6} q3 {:.6} s",
        t.setup_s.len(),
        q[0] / 1e9,
        q[1] / 1e9,
        q[2] / 1e9
    );
    let mut p50s: Vec<u64> = t.windows.iter().map(|w| w[0] as u64).collect();
    let q = quantiles(&mut p50s, &[CALM, 0.25, 0.5, 0.75]);
    println!(
        "  {label}: acquire p50 across windows: calm {:.3} q1 {:.3} median {:.3} q3 {:.3} us",
        us(q[0]),
        us(q[1]),
        us(q[2]),
        us(q[3])
    );
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(wire::KEEP_AWAKE) {
        wire::keep_awake_child();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    bench(&args)
}

fn bench(args: &Args) -> ExitCode {
    let plan = Plan::new(args.workload, args.seed);
    // `--trace 1` splits the measured time between its untraced and its
    // traced run.
    let dur = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    println!(
        "perfbench seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  {}", wire::describe(args.workload));
    println!(
        "  available parallelism {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let untraced = match wire::run(&plan, TraceMode::Off, true, dur) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: untraced run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_counts("untraced", &untraced);
    let e2e = end_to_end(&untraced, plan.workload.open_loop());
    print_table(
        "end to end (untraced; p50s and rate at the calm decile of windows)",
        &e2e,
    );
    print_table(
        "tails (untraced; median over windows; not in the result line)",
        &tails(&untraced),
    );
    let mut violations = untraced.violations.clone();
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    let metrics = if args.trace {
        let traced = match wire::run(&plan, TraceMode::On, false, dur) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_counts("traced", &traced);
        violations.extend(traced.violations.iter().cloned());
        attempted += traced.attempted;
        failed += traced.failed;
        let mut replays = layers::replay(&plan, REPLAY);
        let traced_p50 = us(across_windows(&traced, 0, true));
        let untraced_p50 = e2e[0].value;
        println!(
            "\nlayer ladder ({}, traced run and replays, us per burst)",
            plan.workload.name()
        );
        for l in ladder(&plan, &traced, &mut replays) {
            println!("  burst {}", l.shape);
            for (row, v) in l.rows {
                println!("    {row:<44} {v:>12.3}");
            }
        }
        println!(
            "  server stages, all bursts: stage.read_ns p50 {:.3} us (read syscalls + ingest), \
             stage.write_ns p50 {:.3} us",
            us(metric(&traced.metrics, "stage.read_ns.p50")),
            us(metric(&traced.metrics, "stage.write_ns.p50")),
        );
        println!(
            "\ntracing overhead ({}): acquire_p50_us traced {traced_p50:.3} - untraced {untraced_p50:.3} = {:.3} us",
            plan.workload.name(),
            traced_p50 - untraced_p50
        );
        let layer = per_layer(&untraced, &traced, &mut replays);
        print_table("per layer (traced run and replays)", &layer);
        layer
    } else {
        e2e
    };

    let correct = violations.is_empty();
    for v in &violations {
        eprintln!("perfbench: correctness violation: {v}");
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
