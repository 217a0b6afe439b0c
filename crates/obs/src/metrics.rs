//! The metrics plane: typed counters, gauges, and lock-free log-bin
//! latency histograms behind a named [`Registry`].
//!
//! Unlike the flight recorder, the metrics plane is **always on**:
//! every instrument is a relaxed atomic (or an array of them), cheap
//! enough to keep lit on the hot path, and sweeping a snapshot never
//! stops writers. [`Histogram`] reuses the exact
//! [`rtas_bench::stats`] log-bin scheme ([`BINS`] bins, `bin_index` /
//! `bin_midpoint`), so its quantiles carry the same ±6.25% relative
//! error contract as every BENCH report in this repo.
//!
//! [`Registry::render`] produces the versioned key/value text served by
//! the `METRICS` wire opcode:
//!
//! ```text
//! rtas-metrics/2
//! reactor.carryovers 42
//! stage.read_ns.count 1200
//! stage.read_ns.p50 1834.2
//! ...
//! ```
//!
//! One `<name> <value>` pair per line, names sorted, values plain
//! decimal — trivially parseable by `rtas-load`'s scraper and by
//! humans.

use rtas_bench::stats::{bin_index, bin_midpoint, BINS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level that can move both ways (live connections,
/// occupied slab slots).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Set the level outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n` (saturating at zero).
    pub fn sub(&self, n: u64) {
        // fetch_update loops only under contention on the same gauge.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free latency histogram over the shared
/// [`rtas_bench::stats`] log-bin layout.
///
/// Values are whatever unit the caller names the metric with (this repo
/// records nanoseconds and suffixes names `_ns`). Non-finite or
/// non-positive observations land in bin 0 — they are measurement
/// noise (clock quirks), not data worth a panic on the hot path.
#[derive(Debug)]
pub struct Histogram {
    bins: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram ([`BINS`] zeroed bins).
    pub fn new() -> Self {
        let bins: Vec<AtomicU64> = (0..BINS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bins: bins.into_boxed_slice(),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        let idx = if v.is_finite() && v > 0.0 {
            bin_index(v)
        } else {
            0
        };
        self.bins[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.bins.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Nearest-rank quantile estimate (bin midpoint; ±6.25% relative).
    /// `0.0` when empty; `q` outside `[0, 1]` panics.
    ///
    /// The sweep is a racy-but-consistent-enough read: each bin load is
    /// atomic, so a concurrent recorder can shift the rank by at most
    /// the writes in flight during the sweep.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let counts: Vec<u64> = self
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, &n) in counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bin_midpoint(idx);
            }
        }
        bin_midpoint(BINS - 1)
    }
}

/// One registered instrument.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of instruments that renders the `rtas-metrics/2`
/// text exposition.
///
/// Registration takes the only lock in the plane (a `Mutex` over the
/// name table) and happens at setup time; the instruments themselves
/// are `Arc`s the hot path updates lock-free. Registering a name twice
/// returns the existing instrument (or panics if the kinds disagree —
/// that is a wiring bug).
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().unwrap();
        f.debug_struct("Registry")
            .field("len", &entries.len())
            .finish_non_exhaustive()
    }
}

/// Exposition format version line. Version 2 added the `svc.uptime_secs`
/// gauge and per-lane `trace.<lane>.dropped_events` counters; the line
/// grammar is unchanged, so [`parse_metrics`] accepts both versions.
pub const METRICS_HEADER: &str = "rtas-metrics/2";

/// The previous exposition version line, still accepted by
/// [`parse_metrics`] so new scrapers can read old servers.
pub const METRICS_HEADER_V1: &str = "rtas-metrics/1";

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        pick: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Metric),
    ) -> Arc<T> {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
            return pick(m)
                .unwrap_or_else(|| panic!("metric {name:?} re-registered as a different kind"));
        }
        let (handle, metric) = make();
        entries.push((name.to_string(), metric));
        handle
    }

    /// Register (or fetch) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.register(
            name,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Metric::Counter(c))
            },
        )
    }

    /// Register (or fetch) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.register(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Metric::Gauge(g))
            },
        )
    }

    /// Register (or fetch) the histogram `name`. Renders as four lines:
    /// `<name>.count`, `<name>.p50`, `<name>.p90`, `<name>.p99`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.register(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (Arc::clone(&h), Metric::Histogram(h))
            },
        )
    }

    /// Append every instrument's `<name> <value>` lines to `out`,
    /// sorted by name. (The caller writes the [`METRICS_HEADER`] and
    /// any namespace-level lines first.)
    pub fn render_into(&self, out: &mut String) {
        let entries = self.entries.lock().unwrap();
        let mut lines: Vec<String> = Vec::with_capacity(entries.len() * 2);
        for (name, metric) in entries.iter() {
            match metric {
                Metric::Counter(c) => lines.push(format!("{name} {}", c.get())),
                Metric::Gauge(g) => lines.push(format!("{name} {}", g.get())),
                Metric::Histogram(h) => {
                    lines.push(format!("{name}.count {}", h.count()));
                    lines.push(format!("{name}.p50 {:.1}", h.quantile(0.50)));
                    lines.push(format!("{name}.p90 {:.1}", h.quantile(0.90)));
                    lines.push(format!("{name}.p99 {:.1}", h.quantile(0.99)));
                }
            }
        }
        lines.sort();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    }

    /// The full exposition: header line plus [`Registry::render_into`].
    pub fn render(&self) -> String {
        let mut out = String::from(METRICS_HEADER);
        out.push('\n');
        self.render_into(&mut out);
        out
    }
}

/// Parse an `rtas-metrics/1` or `rtas-metrics/2` exposition into
/// `(name, value)` pairs. Returns `None` if the header is missing or
/// any line is malformed — scrapers treat that as "server too old /
/// garbled" and skip extras. A name is malformed unless every byte is
/// in `[A-Za-z0-9_.]` (every name a server emits is), so a parsed name
/// can be written into JSON or onto a terminal verbatim.
pub fn parse_metrics(text: &str) -> Option<Vec<(String, f64)>> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != METRICS_HEADER && header != METRICS_HEADER_V1 {
        return None;
    }
    let mut out = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(' ')?;
        let value: f64 = value.parse().ok()?;
        let name_ok = !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.');
        if !name_ok || !value.is_finite() {
            return None;
        }
        out.push((name.to_string(), value));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(10);
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), 8);
        g.sub(100); // saturates
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_quantiles_track_the_bench_bins() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.08, "q={q}: est {est} vs exact {exact}");
        }
    }

    #[test]
    fn histogram_floors_junk_observations() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 4);
        // Everything landed in bin 0 — the p50 is the first midpoint.
        assert_eq!(h.quantile(0.5), bin_midpoint(0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn histogram_quantile_out_of_range_panics() {
        Histogram::new().quantile(2.0);
    }

    #[test]
    fn registry_renders_sorted_and_is_idempotent() {
        let reg = Registry::new();
        let c = reg.counter("reactor.carryovers");
        let g = reg.gauge("reactor.worker0.slab_live");
        let h = reg.histogram("stage.read_ns");
        c.add(42);
        g.set(7);
        h.record(1500.0);
        // Re-registration hands back the same instrument.
        reg.counter("reactor.carryovers").inc();
        assert_eq!(c.get(), 43);

        let text = reg.render();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(METRICS_HEADER));
        let rest: Vec<&str> = lines.collect();
        let mut sorted = rest.clone();
        sorted.sort();
        assert_eq!(rest, sorted, "body must be name-sorted");
        assert!(text.contains("reactor.carryovers 43\n"));
        assert!(text.contains("reactor.worker0.slab_live 7\n"));
        assert!(text.contains("stage.read_ns.count 1\n"));
        assert!(text.contains("stage.read_ns.p50 "));
        assert!(text.contains("stage.read_ns.p99 "));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn exposition_parses_back() {
        let reg = Registry::new();
        reg.counter("a.count").add(3);
        reg.histogram("lat_ns").record(100.0);
        let text = reg.render();
        let pairs = parse_metrics(&text).expect("well-formed");
        assert!(pairs.iter().any(|(n, v)| n == "a.count" && *v == 3.0));
        assert!(pairs.iter().any(|(n, v)| n == "lat_ns.count" && *v == 1.0));
        assert!(pairs.iter().any(|(n, _)| n == "lat_ns.p90"));

        // Old servers still speak version 1; the scraper must accept it.
        let v1 = text.replacen(METRICS_HEADER, METRICS_HEADER_V1, 1);
        assert_eq!(parse_metrics(&v1), Some(pairs.clone()));

        assert_eq!(parse_metrics(""), None);
        assert_eq!(parse_metrics("wrong/1\na 1\n"), None);
        assert_eq!(parse_metrics("rtas-metrics/3\na 1\n"), None);
        assert_eq!(parse_metrics(&format!("{METRICS_HEADER}\nnovalue\n")), None);
        assert_eq!(
            parse_metrics(&format!("{METRICS_HEADER}\na notanumber\n")),
            None
        );
        assert_eq!(parse_metrics(&format!("{METRICS_HEADER}\na inf\n")), None);
    }

    #[test]
    fn names_outside_the_metric_alphabet_are_rejected() {
        let ok = format!("{METRICS_HEADER}\nsvc.ops 1\ntrace.worker0.dropped_events 0\n");
        assert!(parse_metrics(&ok).is_some());
        // A quote would end a JSON key early (`top --json`).
        assert_eq!(
            parse_metrics(&format!("{METRICS_HEADER}\nsvc.\"x 1\n")),
            None
        );
        // An escape byte would reach the operator's terminal (`top`).
        assert_eq!(
            parse_metrics(&format!(
                "{METRICS_HEADER}\ntrace.\x1b[2J.dropped_events 0\n"
            )),
            None
        );
    }
}
