//! `rtas-svc top` — a live terminal view over the `METRICS` plane.
//!
//! Polls a server's `METRICS` exposition (`rtas-metrics/2`) on an
//! interval and renders the operator-grade derivations the raw
//! exposition does not carry: per-second **rates** for the cumulative
//! counters (ops, wins, resets, reclaims, refusals, reactor wake
//! writes, carryovers), instantaneous gauges (connections, keys,
//! per-worker slab occupancy, per-lane trace drops),
//! and one sparkline per pipeline stage scaled against the slowest
//! stage so a hot stage is visible at a glance.
//!
//! Everything derived is a pure function over parsed `(name, value)`
//! pairs — unit-tested without a server. The binary's loop is a thin
//! shell around [`run_top`]: connect once, scrape, render, sleep.
//! `--once` prints a single frame (totals instead of rates: there is
//! no previous sample to differentiate against) and `--json` emits the
//! same single frame as one flat JSON object for scripts.

use std::fmt::Write as _;

use rtas_obs::parse_metrics;

use crate::cli::TopArgs;
use crate::client::Client;

/// One scrape: when it was taken (nanoseconds on the caller's clock,
/// any fixed origin) plus the parsed exposition.
#[derive(Debug, Clone)]
pub struct TopSample {
    /// Scrape instant, nanoseconds from the poller's start.
    pub at_ns: u64,
    /// The `(name, value)` pairs from [`parse_metrics`].
    pub pairs: Vec<(String, f64)>,
}

/// The cumulative counters `top` differentiates into per-second rates,
/// with their display labels.
const RATED: &[(&str, &str)] = &[
    ("svc.ops", "ops/s"),
    ("svc.wins", "wins/s"),
    ("svc.resets", "resets/s"),
    ("svc.reclaimed", "reclaims/s"),
    ("svc.refused", "refused/s"),
    ("reactor.carryovers", "carryovers/s"),
];

/// The per-frame pipeline stages, in pipeline order (histogram name,
/// display label).
const STAGES: &[(&str, &str)] = &[
    ("stage.read_ns", "read"),
    ("stage.decode_ns", "decode"),
    ("stage.arbiter_ns", "arbiter"),
    ("stage.encode_ns", "encode"),
    ("stage.write_ns", "write"),
];

/// Look up metric `name` in a parsed exposition.
pub fn value(pairs: &[(String, f64)], name: &str) -> Option<f64> {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// The per-second rate of counter `name` between two samples — 0 when
/// the counter is missing from either, the interval is empty, or the
/// counter went backwards (a server restart between polls).
fn rate(prev: &TopSample, cur: &TopSample, name: &str) -> f64 {
    let dt = cur.at_ns.saturating_sub(prev.at_ns) as f64 / 1e9;
    if dt <= 0.0 {
        return 0.0;
    }
    match (value(&prev.pairs, name), value(&cur.pairs, name)) {
        (Some(a), Some(b)) if b >= a => (b - a) / dt,
        _ => 0.0,
    }
}

/// A one-character-per-value sparkline, scaled linearly to the largest
/// value (`▁` through `█`; all-`▁` when nothing is positive).
pub fn spark(values: &[f64]) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                RAMP[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                RAMP[idx.min(7)]
            }
        })
        .collect()
}

/// Render a nanosecond quantity with a human unit (`ns`/`us`/`ms`/`s`).
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Render a metric value: integers without a decimal point, everything
/// else as Rust's shortest round-trip float.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Render one `top` frame. With a previous sample the counter line
/// shows per-second rates; without one (the first frame, or `--once`)
/// it shows cumulative totals, labeled as such.
pub fn render_top(addr: &str, prev: Option<&TopSample>, cur: &TopSample) -> String {
    let mut out = String::new();
    let uptime = value(&cur.pairs, "svc.uptime_secs")
        .map_or_else(|| "?".to_string(), |u| format!("{u:.0}s"));
    let _ = writeln!(out, "rtas-svc top — {addr} — up {uptime}");

    // Counters: rates when we can differentiate, totals when we can't.
    match prev {
        Some(prev) => {
            let cells: Vec<String> = RATED
                .iter()
                .map(|(name, label)| format!("{label} {:.1}", rate(prev, cur, name)))
                .collect();
            let _ = writeln!(out, "  {}", cells.join("   "));
        }
        None => {
            let cells: Vec<String> = RATED
                .iter()
                .map(|(name, label)| {
                    let total = value(&cur.pairs, name).unwrap_or(0.0);
                    format!("{} {}", label.trim_end_matches("/s"), fmt_num(total))
                })
                .collect();
            let _ = writeln!(out, "  totals: {}", cells.join("   "));
        }
    }

    // Instantaneous gauges.
    let gauge = |name: &str| value(&cur.pairs, name).map_or_else(|| "?".into(), fmt_num);
    let _ = writeln!(
        out,
        "  conns {}   keys {}   registers {}",
        gauge("svc.conns"),
        gauge("svc.keys"),
        gauge("svc.registers"),
    );

    // Per-worker reactor gauge, for as many workers as expose it.
    for k in 0..usize::MAX {
        let Some(slab) = value(&cur.pairs, &format!("reactor.worker{k}.slab_live")) else {
            break;
        };
        let _ = writeln!(out, "  worker{k}: slab_live {}", fmt_num(slab));
    }

    // Stage latency panel: p50 sparkline across stages (scaled to the
    // slowest stage) plus per-stage quantiles.
    let p50s: Vec<f64> = STAGES
        .iter()
        .map(|(name, _)| value(&cur.pairs, &format!("{name}.p50")).unwrap_or(0.0))
        .collect();
    if p50s.iter().any(|&v| v > 0.0) {
        let labels: Vec<&str> = STAGES.iter().map(|(_, l)| *l).collect();
        let _ = writeln!(
            out,
            "  stages (p50, scaled to slowest): {}  [{}]",
            spark(&p50s),
            labels.join(" ")
        );
        for (name, label) in STAGES {
            let q = |suffix: &str| value(&cur.pairs, &format!("{name}.{suffix}")).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "    {label:<8} n {:<8} p50 {:<8} p90 {:<8} p99 {}",
                fmt_num(q("count")),
                fmt_ns(q("p50")),
                fmt_ns(q("p90")),
                fmt_ns(q("p99")),
            );
        }
    }

    // Trace-lane drop counters (version-2 exposition only).
    let drops: Vec<String> = cur
        .pairs
        .iter()
        .filter_map(|(name, v)| {
            let lane = name
                .strip_prefix("trace.")?
                .strip_suffix(".dropped_events")?;
            Some(format!("{lane} {}", fmt_num(*v)))
        })
        .collect();
    if !drops.is_empty() {
        let _ = writeln!(out, "  trace drops: {}", drops.join("   "));
    }
    out
}

/// Render one sample as a flat JSON object — every metric verbatim
/// under its exposition name. The `--once --json` contract scripts
/// scrape; names are the stable `METRICS` names, values are numbers.
pub fn render_top_json(cur: &TopSample) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in cur.pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{}", fmt_num(*v));
    }
    out.push_str("}\n");
    out
}

/// The `rtas-svc top` loop: connect once, then scrape/render/sleep
/// until interrupted (or once, under `--once`/`--json`). Errors carry
/// the message the binary prints before exiting 2.
pub fn run_top(args: &TopArgs) -> Result<(), String> {
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let start = std::time::Instant::now();
    let mut prev: Option<TopSample> = None;
    loop {
        let text = client
            .metrics()
            .map_err(|e| format!("METRICS from {} failed: {e}", args.addr))?;
        let pairs = parse_metrics(&text)
            .ok_or_else(|| format!("{} answered an unparseable METRICS exposition", args.addr))?;
        let cur = TopSample {
            at_ns: start.elapsed().as_nanos() as u64,
            pairs,
        };
        if args.json {
            print!("{}", render_top_json(&cur));
        } else {
            if !args.once {
                // Clear and home between frames, like top(1).
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top(&args.addr, prev.as_ref(), &cur));
        }
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        if args.once {
            return Ok(());
        }
        prev = Some(cur);
        std::thread::sleep(args.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ns: u64, pairs: &[(&str, f64)]) -> TopSample {
        TopSample {
            at_ns,
            pairs: pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn rates_are_differences_over_the_poll_interval() {
        let prev = sample(0, &[("svc.ops", 100.0)]);
        let cur = sample(2_000_000_000, &[("svc.ops", 300.0)]);
        assert_eq!(rate(&prev, &cur, "svc.ops"), 100.0);
        // Backwards counter (server restart): clamp to zero, not a
        // negative rate.
        let restarted = sample(3_000_000_000, &[("svc.ops", 5.0)]);
        assert_eq!(rate(&cur, &restarted, "svc.ops"), 0.0);
        // Missing metric or empty interval: zero.
        assert_eq!(rate(&prev, &cur, "svc.nope"), 0.0);
        assert_eq!(rate(&cur, &cur, "svc.ops"), 0.0);
    }

    #[test]
    fn sparklines_scale_to_the_largest_value() {
        assert_eq!(spark(&[0.0, 0.0]), "▁▁");
        let line = spark(&[0.0, 4.0, 8.0]);
        assert_eq!(line, "▁▅█");
    }

    #[test]
    fn frames_show_totals_without_a_previous_sample_and_rates_with_one() {
        let pairs: &[(&str, f64)] = &[
            ("svc.uptime_secs", 42.0),
            ("svc.ops", 200.0),
            ("svc.conns", 3.0),
            ("svc.keys", 9.0),
            ("svc.registers", 100.0),
            ("reactor.worker0.slab_live", 2.0),
            ("stage.read_ns.count", 10.0),
            ("stage.read_ns.p50", 800.0),
            ("stage.read_ns.p90", 2_000.0),
            ("stage.read_ns.p99", 4_000.0),
            ("trace.accept.dropped_events", 0.0),
        ];
        let first = sample(0, pairs);
        let frame = render_top("127.0.0.1:7045", None, &first);
        assert!(frame.contains("up 42s"), "{frame}");
        assert!(frame.contains("totals: ops 200"), "{frame}");
        assert!(
            frame.contains("conns 3   keys 9   registers 100"),
            "{frame}"
        );
        assert!(frame.contains("worker0: slab_live 2"), "{frame}");
        assert!(frame.contains("read     n 10"), "{frame}");
        assert!(frame.contains("p50 800ns"), "{frame}");
        assert!(frame.contains("trace drops: accept 0"), "{frame}");

        let mut later = first.clone();
        later.at_ns = 1_000_000_000;
        later.pairs[1].1 = 350.0; // svc.ops
        let frame = render_top("127.0.0.1:7045", Some(&first), &later);
        assert!(frame.contains("ops/s 150.0"), "{frame}");
        assert!(!frame.contains("totals:"), "{frame}");
    }

    #[test]
    fn json_frames_are_flat_objects_of_verbatim_metric_names() {
        let cur = sample(0, &[("svc.ops", 2.0), ("stage.read_ns.p50", 812.5)]);
        assert_eq!(
            render_top_json(&cur),
            "{\"svc.ops\":2,\"stage.read_ns.p50\":812.5}\n"
        );
    }

    #[test]
    fn nanosecond_formatting_picks_the_readable_unit() {
        assert_eq!(fmt_ns(999.0), "999ns");
        assert_eq!(fmt_ns(1_500.0), "1.5us");
        assert_eq!(fmt_ns(2_500_000.0), "2.5ms");
        assert_eq!(fmt_ns(1_250_000_000.0), "1.25s");
    }
}
