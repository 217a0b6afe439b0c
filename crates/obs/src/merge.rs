//! Join a client trace dump and a server trace dump on span identity.
//!
//! The wire trace extension (`docs/WIRE.md`) stamps every traced
//! request with a span id; the client records a [`ClientSpan`] per
//! round trip and the server a [`ServerSpan`] per handled frame, both
//! carrying that id. [`merge_spans`] pairs the two sides per request,
//! yielding the end-to-end latency decomposition the aggregate BENCH
//! numbers cannot give: how much of each round trip was *server* work
//! (the span the server measured), how much was the *network floor*
//! (the smallest client−server slack seen in the window, an estimate of
//! pure propagation + syscall cost), and how much was *queueing* (the
//! rest — time the request sat in socket buffers or behind other
//! frames).
//!
//! The two dumps come from two different [`rtas::MonotonicClock`]
//! origins, so absolute timestamps are not comparable across tiers.
//! The decomposition therefore only uses *durations* (client RTT and
//! server span length), which are origin-free. For the unified
//! timeline a best-effort clock offset is estimated as the median of
//! per-pair midpoint differences — good enough to interleave the two
//! sides for a human, and reported so the reader knows what was
//! applied.
//!
//! [`ClientSpan`]: crate::EventKind::ClientSpan
//! [`ServerSpan`]: crate::EventKind::ServerSpan

use std::collections::HashMap;

use crate::event::{EventKind, TraceEvent};
use crate::json::Json;
use crate::report::{BenchReport, BenchRow};
use crate::stats::StatsAccumulator;

/// One request seen end to end: the client's round trip plus the
/// server span that answered it (when the server's ring retained it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanPair {
    /// The shared span id.
    pub span: u64,
    /// Request opcode (numeric wire code; the decoder is protocol-free).
    pub op: u32,
    /// When the client decoded the response, on the client clock.
    pub client_end_ns: u64,
    /// The client's send→decoded round trip.
    pub rtt_ns: u64,
    /// The matched server span end timestamp (server clock), if any.
    pub server_end_ns: Option<u64>,
    /// The matched server span duration (decode→arbiter→encode), if any.
    pub server_dur_ns: Option<u64>,
}

impl SpanPair {
    /// Client RTT minus server-measured work: network plus queueing.
    pub fn slack_ns(&self) -> Option<u64> {
        self.server_dur_ns.map(|d| self.rtt_ns.saturating_sub(d))
    }
}

/// The result of pairing a client dump with a server dump.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// Paired requests, ordered by client span end time.
    pub pairs: Vec<SpanPair>,
    /// Client spans seen (paired or not).
    pub client_spans: usize,
    /// Server spans seen (paired or not).
    pub server_spans: usize,
    /// Client spans with no surviving server span (lossy rings or
    /// sampled server tracing make this normal, not an error).
    pub unpaired_client: usize,
    /// Server spans no client span claimed.
    pub unpaired_server: usize,
    /// Client spans that matched *more than one* server span — the
    /// at-most-one-server-span invariant broken; always worth a look.
    pub duplicate_server: usize,
    /// Smallest per-pair slack (RTT − server work): the network floor
    /// estimate, in nanoseconds. Zero when nothing paired.
    pub net_floor_ns: u64,
    /// Median of per-pair midpoint differences (client clock minus
    /// server clock), nanoseconds — the shift applied to server
    /// timestamps for the unified timeline. Zero when nothing paired.
    pub clock_offset_ns: i64,
}

impl MergeOutcome {
    /// Per-pair queueing estimates: slack minus the network floor.
    fn queue_ns(&self, p: &SpanPair) -> Option<u64> {
        p.slack_ns().map(|s| s.saturating_sub(self.net_floor_ns))
    }
}

/// Pair every [`ClientSpan`](EventKind::ClientSpan) in `client` with
/// its [`ServerSpan`](EventKind::ServerSpan) in `server`, by span id.
/// Non-span events on either side are ignored, so whole
/// [`TraceDump::merged`](crate::TraceDump::merged) lists can be passed
/// straight in.
pub fn merge_spans(client: &[TraceEvent], server: &[TraceEvent]) -> MergeOutcome {
    let mut server_by_span: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    let mut server_spans = 0usize;
    for e in server {
        if e.kind() == Some(EventKind::ServerSpan) && e.b != 0 {
            server_by_span.entry(e.b).or_default().push(e);
            server_spans += 1;
        }
    }
    let mut pairs = Vec::new();
    let mut client_spans = 0usize;
    let mut unpaired_client = 0usize;
    let mut duplicate_server = 0usize;
    for e in client {
        if e.kind() != Some(EventKind::ClientSpan) || e.b == 0 {
            continue;
        }
        client_spans += 1;
        match server_by_span.remove(&e.b) {
            Some(matched) => {
                if matched.len() > 1 {
                    duplicate_server += matched.len() - 1;
                }
                let s = matched[0];
                pairs.push(SpanPair {
                    span: e.b,
                    op: e.a,
                    client_end_ns: e.ts_ns,
                    rtt_ns: e.c,
                    server_end_ns: Some(s.ts_ns),
                    server_dur_ns: Some(s.c),
                });
            }
            None => {
                unpaired_client += 1;
                pairs.push(SpanPair {
                    span: e.b,
                    op: e.a,
                    client_end_ns: e.ts_ns,
                    rtt_ns: e.c,
                    server_end_ns: None,
                    server_dur_ns: None,
                });
            }
        }
    }
    let unpaired_server: usize = server_by_span.values().map(Vec::len).sum();
    pairs.sort_by_key(|p| (p.client_end_ns, p.span));

    let net_floor_ns = pairs
        .iter()
        .filter_map(SpanPair::slack_ns)
        .min()
        .unwrap_or(0);
    // Midpoint difference per pair: where the request's halfway instant
    // fell on each clock. The median shrugs off asymmetric-delay
    // outliers (a chaos-delayed response skews its own pair, not the
    // whole estimate).
    let mut offsets: Vec<i128> = pairs
        .iter()
        .filter_map(|p| {
            let (s_end, s_dur) = (p.server_end_ns?, p.server_dur_ns?);
            let client_mid = i128::from(p.client_end_ns) - i128::from(p.rtt_ns) / 2;
            let server_mid = i128::from(s_end) - i128::from(s_dur) / 2;
            Some(client_mid - server_mid)
        })
        .collect();
    offsets.sort_unstable();
    let clock_offset_ns = offsets.get(offsets.len() / 2).copied().map_or(0, |o| {
        o.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
    });

    MergeOutcome {
        pairs,
        client_spans,
        server_spans,
        unpaired_client,
        unpaired_server,
        duplicate_server,
        net_floor_ns,
        clock_offset_ns,
    }
}

/// Render the merged view as a human timeline: one line per request
/// (client order) with the RTT and its server/queue/network split,
/// preceded by a summary header.
pub fn render_merge_timeline(m: &MergeOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} pairs ({} client spans, {} server spans; {} unpaired client, \
         {} unpaired server, {} duplicate server)\n",
        m.pairs.iter().filter(|p| p.server_dur_ns.is_some()).count(),
        m.client_spans,
        m.server_spans,
        m.unpaired_client,
        m.unpaired_server,
        m.duplicate_server,
    ));
    out.push_str(&format!(
        "net floor {:.1}us, clock offset {}ns (server → client)\n",
        m.net_floor_ns as f64 / 1e3,
        m.clock_offset_ns,
    ));
    if m.pairs.is_empty() {
        out.push_str("(no spans)\n");
        return out;
    }
    let origin = m
        .pairs
        .iter()
        .map(|p| p.client_end_ns - p.rtt_ns.min(p.client_end_ns))
        .min()
        .unwrap_or(0);
    for p in &m.pairs {
        let start_ms = (p.client_end_ns.saturating_sub(p.rtt_ns) - origin) as f64 / 1e6;
        match (p.server_dur_ns, m.queue_ns(p)) {
            (Some(server), Some(queue)) => out.push_str(&format!(
                "{:>12.6}ms  span=0x{:016x} op={} rtt={:>9.1}us  server={:>9.1}us \
                 queue={:>9.1}us net={:>7.1}us\n",
                start_ms,
                p.span,
                p.op,
                p.rtt_ns as f64 / 1e3,
                server as f64 / 1e3,
                queue as f64 / 1e3,
                m.net_floor_ns as f64 / 1e3,
            )),
            _ => out.push_str(&format!(
                "{:>12.6}ms  span=0x{:016x} op={} rtt={:>9.1}us  (no server span)\n",
                start_ms,
                p.span,
                p.op,
                p.rtt_ns as f64 / 1e3,
            )),
        }
    }
    out
}

/// Render the merged view as one JSON object: the summary counts
/// (`pairs` is the number of client spans that found their server
/// span), the network floor and clock offset, and a `requests` array
/// with one object per client span (`span`, `op`, `client_end_ns`,
/// `rtt_ns`, `server_ns`, `queue_ns`; the last two `null` when
/// unpaired).
pub fn render_merge_json(m: &MergeOutcome) -> String {
    let paired = m.pairs.iter().filter(|p| p.server_dur_ns.is_some()).count();
    let requests = m.pairs.iter().map(|p| {
        Json::obj([
            ("span", Json::from(format!("0x{:016x}", p.span))),
            ("op", Json::from(p.op)),
            ("client_end_ns", Json::from(p.client_end_ns)),
            ("rtt_ns", Json::from(p.rtt_ns)),
            ("server_ns", Json::from(p.server_dur_ns)),
            ("queue_ns", Json::from(m.queue_ns(p))),
        ])
    });
    let merged = Json::obj([
        ("pairs", Json::from(paired)),
        ("client_spans", Json::from(m.client_spans)),
        ("server_spans", Json::from(m.server_spans)),
        ("unpaired_client", Json::from(m.unpaired_client)),
        ("unpaired_server", Json::from(m.unpaired_server)),
        ("duplicate_server", Json::from(m.duplicate_server)),
        ("net_floor_ns", Json::from(m.net_floor_ns)),
        ("clock_offset_ns", Json::from(m.clock_offset_ns)),
        ("requests", Json::Arr(requests.collect())),
    ]);
    format!("{merged}\n")
}

/// Build the structurally-gated `BENCH_svc_e2e.json` report from a
/// merge: one `k=0` row whose core statistics are the end-to-end RTT
/// distribution in microseconds, with the latency decomposition and
/// pairing accounting as extras. `trials` is pinned to 0 (pair counts
/// are run-dependent; the *shape* is what the baseline gates), the row
/// is labeled `gate=wall` so timing values only gate under
/// `bench-diff --gate-wall`, and every value is finite even for an
/// empty merge so finiteness flips stay structural failures.
pub fn bench_report(m: &MergeOutcome) -> BenchReport {
    let mut rtts_us = StatsAccumulator::new();
    let mut servers_us = StatsAccumulator::new();
    let mut queues_us = StatsAccumulator::new();
    for p in &m.pairs {
        let Some(server_ns) = p.server_dur_ns else {
            continue;
        };
        rtts_us.push(p.rtt_ns as f64 / 1e3);
        servers_us.push(server_ns as f64 / 1e3);
        if let Some(queue_ns) = m.queue_ns(p) {
            queues_us.push(queue_ns as f64 / 1e3);
        }
    }
    let rtt = rtts_us.summary();
    let mut row = BenchRow::from_summary(0, &rtt, 0.0)
        .with("pairs", rtt.count as f64)
        .with("client_spans", m.client_spans as f64)
        .with("server_spans", m.server_spans as f64)
        .with("unpaired_client", m.unpaired_client as f64)
        .with("net_floor_us", m.net_floor_ns as f64 / 1e3)
        .with("e2e_p50_us", rtt.p50)
        .with("net_p50_us", m.net_floor_ns as f64 / 1e3)
        .with("server_p50_us", servers_us.p50())
        .with("queue_p50_us", queues_us.p50())
        .with("clock_offset_ns", m.clock_offset_ns as f64)
        .with_label("scope", "total")
        .with_label("gate", "wall");
    // Pair counts are run-dependent; the baseline gates the shape.
    row.trials = 0;
    let mut report = BenchReport::new("svc_e2e", 1);
    report.push(row);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_span(span: u64, end_ns: u64, rtt_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: end_ns,
            lane: 2,
            ticket: span,
            kind: EventKind::ClientSpan as u32,
            a: 1,
            b: span,
            c: rtt_ns,
        }
    }

    fn server_span(span: u64, end_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: end_ns,
            lane: 2,
            ticket: span,
            kind: EventKind::ServerSpan as u32,
            a: 1,
            b: span,
            c: dur_ns,
        }
    }

    #[test]
    fn pairs_join_on_span_id_and_decompose_latency() {
        // Two requests: 100us and 60us RTTs over 20us and 10us of
        // server work. The lesser slack (50us) is the network floor,
        // so the slower request shows 30us of queueing.
        let client = [
            client_span(7, 1_000_000, 100_000),
            client_span(8, 2_000_000, 60_000),
        ];
        let server = [
            server_span(7, 900_000, 20_000),
            server_span(8, 1_900_000, 10_000),
        ];
        let m = merge_spans(&client, &server);
        assert_eq!(m.client_spans, 2);
        assert_eq!(m.server_spans, 2);
        assert_eq!(m.unpaired_client, 0);
        assert_eq!(m.unpaired_server, 0);
        assert_eq!(m.duplicate_server, 0);
        assert_eq!(m.net_floor_ns, 50_000);
        assert_eq!(m.pairs.len(), 2);
        let slow = m.pairs.iter().find(|p| p.span == 7).unwrap();
        assert_eq!(slow.slack_ns(), Some(80_000));
        assert_eq!(m.queue_ns(slow), Some(30_000));
        let fast = m.pairs.iter().find(|p| p.span == 8).unwrap();
        assert_eq!(m.queue_ns(fast), Some(0));
    }

    #[test]
    fn unpaired_and_duplicate_spans_are_accounted() {
        let client = [client_span(1, 100, 50), client_span(2, 200, 50)];
        let server = [
            server_span(1, 90, 10),
            server_span(1, 95, 10), // duplicate answer for span 1
            server_span(9, 50, 10), // nobody asked
        ];
        let m = merge_spans(&client, &server);
        assert_eq!(m.client_spans, 2);
        assert_eq!(m.server_spans, 3);
        assert_eq!(m.unpaired_client, 1); // span 2
        assert_eq!(m.unpaired_server, 1); // span 9
        assert_eq!(m.duplicate_server, 1);
        // Unpaired client spans still appear in the pair list (RTT-only).
        assert_eq!(m.pairs.len(), 2);
        assert!(m
            .pairs
            .iter()
            .any(|p| p.span == 2 && p.server_dur_ns.is_none()));
    }

    #[test]
    fn non_span_events_and_span_zero_are_ignored() {
        let noise = TraceEvent {
            ts_ns: 1,
            lane: 0,
            ticket: 0,
            kind: EventKind::Accept as u32,
            a: 1,
            b: 5,
            c: 0,
        };
        let zero = TraceEvent {
            b: 0,
            ..client_span(0, 100, 50)
        };
        let m = merge_spans(&[noise, zero], &[noise]);
        assert_eq!(m.client_spans, 0);
        assert_eq!(m.server_spans, 0);
        assert!(m.pairs.is_empty());
        assert_eq!(m.net_floor_ns, 0);
        assert_eq!(m.clock_offset_ns, 0);
    }

    #[test]
    fn clock_offset_is_the_median_midpoint_difference() {
        // Server clock runs 1ms behind the client clock; symmetric
        // network, so every pair's midpoint difference is exactly 1ms.
        let client = [
            client_span(1, 2_000_000, 100_000),
            client_span(2, 3_000_000, 100_000),
            client_span(3, 4_000_000, 100_000),
        ];
        let server = [
            server_span(1, 990_000, 80_000),
            server_span(2, 1_990_000, 80_000),
            server_span(3, 2_990_000, 80_000),
        ];
        let m = merge_spans(&client, &server);
        // client mid = end − 50_000, server mid = end − 40_000, and the
        // server ends sit 1_010_000ns earlier: every pair says 1ms.
        assert_eq!(m.clock_offset_ns, 1_000_000);
    }

    #[test]
    fn renderers_cover_summary_and_requests() {
        let client = [
            client_span(7, 1_000_000, 100_000),
            client_span(9, 1_100_000, 70_000),
        ];
        let server = [server_span(7, 900_000, 20_000)];
        let m = merge_spans(&client, &server);
        let text = render_merge_timeline(&m);
        assert!(text.contains("1 pairs"), "{text}");
        assert!(text.contains("span=0x0000000000000007"));
        assert!(text.contains("(no server span)"));
        let json = render_merge_json(&m);
        assert!(json.contains("\"pairs\": 1"));
        assert!(json.contains("\"span\": \"0x0000000000000009\""));
        assert!(json.contains("\"server_ns\": null"));
        let empty = merge_spans(&[], &[]);
        assert!(render_merge_timeline(&empty).contains("(no spans)"));
        assert!(render_merge_json(&empty).contains("\"requests\": []"));
    }

    #[test]
    fn bench_report_shape_is_pinned_and_finite() {
        let client = [client_span(7, 1_000_000, 100_000)];
        let server = [server_span(7, 900_000, 20_000)];
        for m in [merge_spans(&client, &server), merge_spans(&[], &[])] {
            let report = bench_report(&m);
            assert_eq!(report.name(), "svc_e2e");
            assert_eq!(report.rows().len(), 1);
            let row = &report.rows()[0];
            assert_eq!(row.k, 0);
            assert_eq!(row.trials, 0);
            assert_eq!(
                row.labels,
                vec![
                    ("scope".to_string(), "total".to_string()),
                    ("gate".to_string(), "wall".to_string()),
                ]
            );
            let extras: Vec<&str> = row.extra.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                extras,
                [
                    "pairs",
                    "client_spans",
                    "server_spans",
                    "unpaired_client",
                    "net_floor_us",
                    "e2e_p50_us",
                    "net_p50_us",
                    "server_p50_us",
                    "queue_p50_us",
                    "clock_offset_ns",
                ]
            );
            for (name, v) in row.metrics() {
                assert!(v.is_finite(), "{name} not finite");
            }
            for (name, v) in &row.extra {
                assert!(v.is_finite(), "{name} not finite");
            }
        }
        let report = bench_report(&merge_spans(&client, &server));
        let row = &report.rows()[0];
        assert_eq!(row.p50, 100.0); // 100_000ns RTT in us
        assert_eq!(row.extra[0].1, 1.0); // one pair
    }

    #[test]
    fn bench_report_quantiles_follow_the_log_bin_rule() {
        // Three paired requests (20us server time each) and one
        // unpaired: the row's statistics are exactly those of a
        // StatsAccumulator over the paired RTTs, like every report's.
        let rtts_ns = [100_000, 150_000, 400_000];
        let mut client: Vec<TraceEvent> = rtts_ns
            .iter()
            .enumerate()
            .map(|(i, &rtt)| client_span(i as u64 + 1, 1_000_000 * (i as u64 + 1), rtt))
            .collect();
        client.push(client_span(99, 9_000_000, 5_000));
        let server: Vec<TraceEvent> = (0..3)
            .map(|i| server_span(i + 1, 1_000_000 * (i + 1) - 50_000, 20_000))
            .collect();
        let report = bench_report(&merge_spans(&client, &server));
        let row = &report.rows()[0];
        let mut rtts_us = StatsAccumulator::new();
        for rtt in rtts_ns {
            rtts_us.push(rtt as f64 / 1e3);
        }
        let expect = rtts_us.summary();
        assert_eq!(
            (row.mean, row.min, row.worst, row.stddev, row.ci95),
            (
                expect.mean,
                expect.min,
                expect.max,
                expect.stddev,
                expect.ci95
            )
        );
        assert_eq!(
            (row.p50, row.p90, row.p99),
            (expect.p50, expect.p90, expect.p99)
        );
        // Nearest rank over log bins: the median sample's bin, within
        // one bin width of the sample itself.
        assert!((row.p50 - 150.0).abs() <= 150.0 * 0.0625, "{}", row.p50);
        assert_eq!(row.trials, 0, "pinned: the baseline gates the shape");
        let extra = |name: &str| row.extra.iter().find(|(k, _)| k == name).unwrap().1;
        assert_eq!(extra("pairs"), 3.0);
        assert_eq!(extra("e2e_p50_us"), row.p50);
        assert_eq!(extra("server_p50_us"), 20.0);
    }
}
