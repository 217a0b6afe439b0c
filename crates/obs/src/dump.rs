//! Decoder and renderers for `RTASTRC1` flight-recorder dumps.
//!
//! [`decode_dump`] parses the binary format written by
//! [`FlightRecorder::write_dump`](crate::FlightRecorder::write_dump)
//! into a [`TraceDump`]; [`TraceDump::merged`] flattens it into one
//! time-sorted event list; [`render_timeline`] and [`render_json`] turn
//! that list into a human-readable timeline or a JSON array for
//! machines. `rtas-trace dump <file> [--json]` is the CLI front end
//! for all three.

use crate::event::{lane_name, EventKind, TraceEvent};
use std::io;

/// Dump-file magic: `RTASTRC` plus the format generation digit.
pub const MAGIC: &[u8; 8] = b"RTASTRC1";

/// Bytes per event record in a dump file.
const RECORD_BYTES: usize = 40;

/// One lane's events as decoded from a dump file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneDump {
    /// The lane id (see [`lane_name`]).
    pub lane: u32,
    /// Events the recorder discarded on this lane (disabled ring or
    /// claim races), for gauging how lossy the window was.
    pub dropped: u64,
    /// The lane's retained events, oldest ticket first.
    pub events: Vec<TraceEvent>,
}

/// A fully decoded dump: every lane the recorder wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// Format version from the header (currently always 1).
    pub version: u32,
    /// The decoded lanes, in file order.
    pub lanes: Vec<LaneDump>,
}

impl TraceDump {
    /// All events across lanes, sorted by timestamp (ties broken by
    /// lane then ticket) — the timeline order.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .lanes
            .iter()
            .flat_map(|l| l.events.iter().copied())
            .collect();
        out.sort_by_key(|e| (e.ts_ns, e.lane, e.ticket));
        out
    }

    /// Total dropped-event count across lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad("trace dump truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Parse a complete `RTASTRC1` dump. Fails with `InvalidData` on a bad
/// magic, an unknown version, a truncated file, or trailing garbage.
pub fn decode_dump(bytes: &[u8]) -> io::Result<TraceDump> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(8)? != MAGIC {
        return Err(bad("not an RTASTRC1 trace dump (bad magic)"));
    }
    let version = cur.u32()?;
    if version != 1 {
        return Err(bad(format!("unsupported trace dump version {version}")));
    }
    let lane_count = cur.u32()?;
    let mut lanes = Vec::with_capacity(lane_count as usize);
    for _ in 0..lane_count {
        let lane = cur.u32()?;
        let _reserved = cur.u32()?;
        let dropped = cur.u64()?;
        let count = cur.u64()?;
        let need = (count as usize)
            .checked_mul(RECORD_BYTES)
            .ok_or_else(|| bad("trace dump lane count overflows"))?;
        if cur.bytes.len() - cur.pos < need {
            return Err(bad("trace dump truncated inside a lane"));
        }
        let mut events = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let ticket = cur.u64()?;
            let ts_ns = cur.u64()?;
            let kind = cur.u32()?;
            let a = cur.u32()?;
            let b = cur.u64()?;
            let c = cur.u64()?;
            events.push(TraceEvent {
                ts_ns,
                lane,
                ticket,
                kind,
                a,
                b,
                c,
            });
        }
        lanes.push(LaneDump {
            lane,
            dropped,
            events,
        });
    }
    if cur.pos != cur.bytes.len() {
        return Err(bad("trailing bytes after trace dump"));
    }
    Ok(TraceDump { version, lanes })
}

/// Re-encode a decoded dump back into `RTASTRC1` bytes. Inverse of
/// [`decode_dump`]: for any dump a recorder wrote,
/// `encode_dump(&decode_dump(bytes)?) == bytes`, so tools can rewrite
/// dumps (filter lanes, merge files) without a recorder in hand.
pub fn encode_dump(dump: &TraceDump) -> Vec<u8> {
    let records: usize = dump.lanes.iter().map(|l| l.events.len()).sum();
    let mut out = Vec::with_capacity(16 + dump.lanes.len() * 24 + records * RECORD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&dump.version.to_le_bytes());
    out.extend_from_slice(&(dump.lanes.len() as u32).to_le_bytes());
    for lane in &dump.lanes {
        out.extend_from_slice(&lane.lane.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&lane.dropped.to_le_bytes());
        out.extend_from_slice(&(lane.events.len() as u64).to_le_bytes());
        for e in &lane.events {
            out.extend_from_slice(&e.ticket.to_le_bytes());
            out.extend_from_slice(&e.ts_ns.to_le_bytes());
            out.extend_from_slice(&e.kind.to_le_bytes());
            out.extend_from_slice(&e.a.to_le_bytes());
            out.extend_from_slice(&e.b.to_le_bytes());
            out.extend_from_slice(&e.c.to_le_bytes());
        }
    }
    out
}

/// Per-kind argument rendering: field names make the timeline readable;
/// unknown kinds fall back to raw `a/b/c`.
fn describe(e: &TraceEvent) -> String {
    match e.kind() {
        Some(EventKind::Accept) => format!("live={}", e.a),
        Some(EventKind::AdmissionRefusal) => format!("live={}", e.a),
        Some(EventKind::ReadinessWakeup) => format!("ready={}", e.a),
        Some(EventKind::FrameDecoded) => format!("op={} len={}", e.a, e.b),
        Some(EventKind::ArbiterVerdict) => {
            format!("won={} epoch={} key=0x{:016x}", e.a, e.b, e.c)
        }
        Some(EventKind::ResetAck) => format!("epoch={} key=0x{:016x}", e.b, e.c),
        Some(EventKind::LeaseReclaim) => format!("epoch={} key=0x{:016x}", e.b, e.c),
        Some(EventKind::BackpressureOn) => format!("slot={} buffered={}", e.a, e.b),
        Some(EventKind::BackpressureOff) => format!("slot={}", e.a),
        Some(EventKind::TimerSweep) => format!("closed={} scanned={}", e.a, e.b),
        Some(EventKind::ServerSpan) => {
            format!("op={} span=0x{:016x} dur={}ns", e.a, e.b, e.c)
        }
        Some(EventKind::ClientSpan) => {
            format!("op={} span=0x{:016x} rtt={}ns", e.a, e.b, e.c)
        }
        None => format!("a={} b={} c={}", e.a, e.b, e.c),
    }
}

fn kind_label(e: &TraceEvent) -> String {
    match e.kind() {
        Some(k) => k.name().to_string(),
        None => format!("kind-{}", e.kind),
    }
}

/// Render events (pass them timeline-sorted, e.g. from
/// [`TraceDump::merged`]) as a human-readable timeline, one event per
/// line: relative milliseconds, lane, kind, per-kind fields.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("(empty trace)\n");
        return out;
    }
    let origin = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    for e in events {
        let rel_ms = (e.ts_ns - origin) as f64 / 1e6;
        out.push_str(&format!(
            "{:>12.6}ms  {:<10} {:<18} {}\n",
            rel_ms,
            lane_name(e.lane),
            kind_label(e),
            describe(e)
        ));
    }
    out
}

/// Render events as a JSON array of objects (`ts_ns`, `lane`, `ticket`,
/// `kind`, `a`, `b`, `c`). Hand-rolled — every field is numeric or a
/// fixed kebab-case name, so no escaping is needed.
pub fn render_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"ts_ns\":{},\"lane\":\"{}\",\"ticket\":{},\"kind\":\"{}\",\"a\":{},\"b\":{},\"c\":{}}}",
            e.ts_ns,
            lane_name(e.lane),
            e.ticket,
            kind_label(e),
            e.a,
            e.b,
            e.c
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Lane;
    use crate::recorder::{FlightRecorder, TraceMode};

    fn sample_recorder() -> FlightRecorder {
        let rec = FlightRecorder::new(TraceMode::On, 2);
        rec.record(Lane::Accept, EventKind::Accept, 1, 0, 0);
        rec.record(Lane::Worker(0), EventKind::FrameDecoded, 1, 14, 0);
        rec.record(Lane::Worker(0), EventKind::ArbiterVerdict, 1, 3, 0xabc);
        rec.record(Lane::Worker(1), EventKind::BackpressureOn, 7, 512, 0);
        rec.record(Lane::Reclaim, EventKind::LeaseReclaim, 0, 4, 0xdef);
        rec
    }

    #[test]
    fn dumps_round_trip_through_the_codec() {
        let rec = sample_recorder();
        let mut bytes = Vec::new();
        rec.write_dump(&mut bytes).unwrap();
        let dump = decode_dump(&bytes).unwrap();
        assert_eq!(dump.version, 1);
        assert_eq!(dump.lanes.len(), 4); // accept, reclaim, 2 workers
        assert_eq!(dump.dropped(), 0);
        let merged = dump.merged();
        assert_eq!(merged.len(), 5);
        assert_eq!(merged, rec.snapshot());
        assert!(merged.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn encode_is_the_byte_identical_inverse_of_decode() {
        let rec = sample_recorder();
        let mut bytes = Vec::new();
        rec.write_dump(&mut bytes).unwrap();
        let dump = decode_dump(&bytes).unwrap();
        assert_eq!(encode_dump(&dump), bytes);
        // Synthetic dumps (unknown kinds, nonzero drop counts) survive
        // a decode→encode→decode cycle too.
        let synthetic = TraceDump {
            version: 1,
            lanes: vec![LaneDump {
                lane: 7,
                dropped: 123,
                events: vec![TraceEvent {
                    ts_ns: 5,
                    lane: 7,
                    ticket: 9,
                    kind: 99,
                    a: 1,
                    b: 2,
                    c: 3,
                }],
            }],
        };
        let enc = encode_dump(&synthetic);
        assert_eq!(decode_dump(&enc).unwrap(), synthetic);
        assert_eq!(encode_dump(&decode_dump(&enc).unwrap()), enc);
    }

    #[test]
    fn truncated_dumps_never_panic_and_report_the_cut() {
        let rec = sample_recorder();
        let mut bytes = Vec::new();
        rec.write_dump(&mut bytes).unwrap();
        // Every proper prefix must decode to a clean InvalidData error,
        // never a panic or a silently-empty success.
        for len in 0..bytes.len() {
            let err = decode_dump(&bytes[..len]).expect_err("prefix decoded");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        // A lane header claiming more records than the file holds is
        // the classic torn-write shape; it must be caught up front.
        let mut lying = bytes.clone();
        let count_off = 8 + 4 + 4 + 4 + 4 + 8; // first lane's count field
        lying[count_off..count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_dump(&lying).is_err());
    }

    #[test]
    fn span_kinds_render_with_span_ids() {
        let events = [
            TraceEvent {
                ts_ns: 10,
                lane: 2,
                ticket: 0,
                kind: EventKind::ServerSpan as u32,
                a: 1,
                b: 0xabc,
                c: 1500,
            },
            TraceEvent {
                ts_ns: 20,
                lane: 0,
                ticket: 1,
                kind: EventKind::ClientSpan as u32,
                a: 1,
                b: 0xabc,
                c: 9000,
            },
        ];
        let timeline = render_timeline(&events);
        assert!(timeline.contains("server-span"));
        assert!(timeline.contains("client-span"));
        assert!(timeline.contains("span=0x0000000000000abc"));
        assert!(timeline.contains("dur=1500ns"));
        assert!(timeline.contains("rtt=9000ns"));
        let json = render_json(&events);
        assert!(json.contains("\"kind\":\"server-span\""));
        assert!(json.contains("\"kind\":\"client-span\""));
    }

    #[test]
    fn corrupt_dumps_are_rejected() {
        let rec = sample_recorder();
        let mut bytes = Vec::new();
        rec.write_dump(&mut bytes).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_dump(&bad_magic).is_err());

        let mut bad_version = bytes.clone();
        bad_version[8] = 9;
        assert!(decode_dump(&bad_version).is_err());

        assert!(decode_dump(&bytes[..bytes.len() - 1]).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_dump(&trailing).is_err());

        assert!(decode_dump(b"").is_err());
    }

    #[test]
    fn timeline_and_json_render_every_event() {
        let rec = sample_recorder();
        let events = rec.snapshot();
        let timeline = render_timeline(&events);
        assert_eq!(timeline.lines().count(), events.len());
        for needle in [
            "accept",
            "frame-decoded",
            "arbiter-verdict",
            "backpressure-on",
            "lease-reclaim",
            "key=0x0000000000000def",
            "worker1",
        ] {
            assert!(timeline.contains(needle), "timeline missing {needle:?}");
        }
        let json = render_json(&events);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ts_ns\":").count(), events.len());
        assert!(json.contains("\"kind\":\"lease-reclaim\""));

        assert_eq!(render_timeline(&[]), "(empty trace)\n");
        assert_eq!(render_json(&[]), "[\n]\n");
    }

    #[test]
    fn unknown_kinds_render_generically() {
        let e = TraceEvent {
            ts_ns: 10,
            lane: 0,
            ticket: 0,
            kind: 99,
            a: 1,
            b: 2,
            c: 3,
        };
        let line = render_timeline(&[e]);
        assert!(line.contains("kind-99"));
        assert!(line.contains("a=1 b=2 c=3"));
    }
}
