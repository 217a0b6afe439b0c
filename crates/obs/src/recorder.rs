//! The flight recorder: trace mode, lanes, recording, and dump output.
//!
//! A [`FlightRecorder`] owns one [`EventRing`]
//! per lane (accept, reclaim, and one per reactor worker) and a shared
//! [`MonotonicClock`] that stamps every event. Recording sites call
//! [`FlightRecorder::record`] with a [`Lane`], an [`EventKind`], and
//! the per-kind arguments; in [`TraceMode::Off`] the call is one branch
//! and the rings are zero-capacity, so an untraced server pays nothing
//! and allocates nothing for tracing.
//!
//! Dumps are written in the `RTASTRC1` binary format (decoded by
//! [`crate::dump`]): on demand via [`FlightRecorder::dump_to_file`] /
//! [`FlightRecorder::write_dump`], or automatically on
//! safety-violation/panic by the service, into the directory named by
//! the [`TRACE_DIR_ENV`] environment variable.

use crate::event::{lane_id, EventKind, Lane};
use crate::ring::EventRing;
use crate::TraceEvent;
use rtas::MonotonicClock;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Environment variable naming the directory automatic trace dumps are
/// written into. Unset ⇒ automatic dumps are skipped.
pub const TRACE_DIR_ENV: &str = "RTAS_TRACE_DIR";

/// The directory automatic trace dumps go to, if [`TRACE_DIR_ENV`] is
/// set.
pub fn trace_dir() -> Option<PathBuf> {
    std::env::var_os(TRACE_DIR_ENV).map(PathBuf::from)
}

/// Events retained per admission lane (accept, reclaim). Small: these
/// lanes see connection-rate traffic, not frame-rate traffic.
const ADMIN_LANE_CAPACITY: usize = 4096;
/// Events retained per worker lane; sized for a useful window of
/// per-frame history at smoke-test load.
const WORKER_LANE_CAPACITY: usize = 8192;

/// How much the flight recorder records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing; rings are not allocated.
    #[default]
    Off,
    /// Record every event.
    On,
    /// Record per-frame hot-path events for one frame in `n` (per
    /// connection / per wakeup); rare events (accepts, reclaims,
    /// backpressure transitions) are always recorded.
    Sampled(u32),
}

impl TraceMode {
    /// Parse a `--trace` flag value: `off`, `on`, or `sampled:<n>` with
    /// `n ≥ 1`.
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s {
            "off" => Some(TraceMode::Off),
            "on" => Some(TraceMode::On),
            _ => s
                .strip_prefix("sampled:")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|&n| n > 0)
                .map(TraceMode::Sampled),
        }
    }

    /// The canonical flag spelling (`parse(label)` round-trips).
    pub fn label(self) -> String {
        match self {
            TraceMode::Off => "off".to_string(),
            TraceMode::On => "on".to_string(),
            TraceMode::Sampled(n) => format!("sampled:{n}"),
        }
    }

    /// Whether any recording happens at all.
    pub fn enabled(self) -> bool {
        !matches!(self, TraceMode::Off)
    }
}

/// Per-worker lock-free event rings plus a shared clock — see the
/// [module docs](self).
pub struct FlightRecorder {
    mode: TraceMode,
    clock: MonotonicClock,
    accept: EventRing,
    reclaim: EventRing,
    workers: Vec<EventRing>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("mode", &self.mode)
            .field("worker_lanes", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder with `worker_lanes` per-worker rings (pass the
    /// reactor worker count, or a load client's worker-thread count).
    /// In [`TraceMode::Off`] every ring has capacity 0.
    pub fn new(mode: TraceMode, worker_lanes: usize) -> Self {
        let (admin_cap, worker_cap) = if mode.enabled() {
            (ADMIN_LANE_CAPACITY, WORKER_LANE_CAPACITY)
        } else {
            (0, 0)
        };
        FlightRecorder {
            mode,
            clock: MonotonicClock::new(),
            accept: EventRing::new(admin_cap),
            reclaim: EventRing::new(admin_cap),
            workers: (0..worker_lanes)
                .map(|_| EventRing::new(worker_cap))
                .collect(),
        }
    }

    /// The recorder's mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Whether recording sites should bother calling in at all.
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// The shared clock (lease bookkeeping reuses it so trace
    /// timestamps and deadlines live on one axis).
    pub fn clock(&self) -> &MonotonicClock {
        &self.clock
    }

    /// Current nanoseconds on the recorder clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Whether hot-path event number `seq` (any cheap local counter:
    /// frame index, wakeup index) should be recorded under the current
    /// mode. Pure arithmetic — deliberately no RNG, so tracing can
    /// never perturb seeded fault streams.
    pub fn sample_hit(&self, seq: u64) -> bool {
        match self.mode {
            TraceMode::Off => false,
            TraceMode::On => true,
            TraceMode::Sampled(n) => seq % u64::from(n) == 0,
        }
    }

    fn ring(&self, lane: Lane) -> &EventRing {
        match lane {
            Lane::Accept => &self.accept,
            Lane::Reclaim => &self.reclaim,
            // An out-of-range worker index (a churn-respawned load
            // worker past the lanes it was built with) falls back to
            // the accept lane rather than panicking on the hot path.
            Lane::Worker(k) => self.workers.get(k).unwrap_or(&self.accept),
        }
    }

    /// Record one event, stamped with the recorder clock. No-op (one
    /// branch) when the mode is [`TraceMode::Off`].
    pub fn record(&self, lane: Lane, kind: EventKind, a: u32, b: u64, c: u64) {
        if !self.mode.enabled() {
            return;
        }
        let ev = TraceEvent {
            ts_ns: self.clock.now_ns(),
            lane: lane_id(lane),
            ticket: 0, // assigned by the ring
            kind: kind as u32,
            a,
            b,
            c,
        };
        self.ring(lane).record(ev.to_words());
    }

    fn lanes(&self) -> impl Iterator<Item = (u32, &EventRing)> {
        [(0u32, &self.accept), (1u32, &self.reclaim)]
            .into_iter()
            .chain(
                self.workers
                    .iter()
                    .enumerate()
                    .map(|(k, r)| (2 + k as u32, r)),
            )
    }

    /// Per-lane dropped-event counts, `(lane id, dropped)` in dump-file
    /// lane order. Lets the metrics exposition surface ring lossiness
    /// without taking a full snapshot.
    pub fn lane_drops(&self) -> Vec<(u32, u64)> {
        self.lanes()
            .map(|(id, ring)| (id, ring.dropped()))
            .collect()
    }

    /// A consistent-per-slot snapshot of every lane, merged and sorted
    /// by timestamp (ties broken by lane then ticket). Runs
    /// concurrently with writers.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for (id, ring) in self.lanes() {
            buf.clear();
            ring.snapshot_into(&mut buf);
            out.extend(
                buf.iter()
                    .map(|r| TraceEvent::from_words(id, r.ticket, r.words)),
            );
        }
        out.sort_by_key(|e| (e.ts_ns, e.lane, e.ticket));
        out
    }

    /// Write an `RTASTRC1` binary dump of every lane to `w`.
    ///
    /// Layout: magic `RTASTRC1`, `u32` version (1), `u32` lane count;
    /// then per lane a `u32` lane id, `u32` reserved (0), `u64` dropped
    /// count, `u64` event count, and `count` 40-byte records of
    /// `[u64 ticket][u64 ts_ns][u32 kind][u32 a][u64 b][u64 c]`, all
    /// little-endian. [`crate::dump::decode_dump`] reads it back.
    pub fn write_dump(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(crate::dump::MAGIC)?;
        w.write_all(&1u32.to_le_bytes())?;
        let lane_count = 2 + self.workers.len() as u32;
        w.write_all(&lane_count.to_le_bytes())?;
        let mut buf = Vec::new();
        for (id, ring) in self.lanes() {
            buf.clear();
            ring.snapshot_into(&mut buf);
            w.write_all(&id.to_le_bytes())?;
            w.write_all(&0u32.to_le_bytes())?;
            w.write_all(&ring.dropped().to_le_bytes())?;
            w.write_all(&(buf.len() as u64).to_le_bytes())?;
            for r in &buf {
                let ev = TraceEvent::from_words(id, r.ticket, r.words);
                w.write_all(&ev.ticket.to_le_bytes())?;
                w.write_all(&ev.ts_ns.to_le_bytes())?;
                w.write_all(&ev.kind.to_le_bytes())?;
                w.write_all(&ev.a.to_le_bytes())?;
                w.write_all(&ev.b.to_le_bytes())?;
                w.write_all(&ev.c.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Write a dump to `path` (created or truncated).
    pub fn dump_to_file(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_dump(&mut f)?;
        f.flush()
    }

    /// Write a dump named `<stem>.rtastrc` into the [`TRACE_DIR_ENV`]
    /// directory, returning the path written, or `Ok(None)` when the
    /// variable is unset or the recorder is off.
    pub fn dump_to_trace_dir(&self, stem: &str) -> io::Result<Option<PathBuf>> {
        if !self.enabled() {
            return Ok(None);
        }
        let Some(dir) = trace_dir() else {
            return Ok(None);
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{stem}.rtastrc"));
        self.dump_to_file(&path)?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_labels_round_trip() {
        for (s, want) in [
            ("off", TraceMode::Off),
            ("on", TraceMode::On),
            ("sampled:1", TraceMode::Sampled(1)),
            ("sampled:16", TraceMode::Sampled(16)),
        ] {
            let mode = TraceMode::parse(s).expect(s);
            assert_eq!(mode, want);
            assert_eq!(mode.label(), s);
            assert_eq!(TraceMode::parse(&mode.label()), Some(mode));
        }
        for bad in ["", "ON", "sampled:", "sampled:0", "sampled:-1", "always"] {
            assert_eq!(TraceMode::parse(bad), None, "{bad:?} should not parse");
        }
        assert_eq!(TraceMode::default(), TraceMode::Off);
    }

    #[test]
    fn sampling_is_deterministic_arithmetic() {
        let rec = FlightRecorder::new(TraceMode::Sampled(4), 1);
        let hits: Vec<bool> = (0..8).map(|s| rec.sample_hit(s)).collect();
        assert_eq!(hits, [true, false, false, false, true, false, false, false]);
        assert!(FlightRecorder::new(TraceMode::On, 0).sample_hit(17));
        assert!(!FlightRecorder::new(TraceMode::Off, 0).sample_hit(0));
    }

    #[test]
    fn off_mode_allocates_no_rings_and_records_nothing() {
        let rec = FlightRecorder::new(TraceMode::Off, 4);
        assert!(!rec.enabled());
        rec.record(Lane::Accept, EventKind::Accept, 1, 0, 0);
        rec.record(Lane::Worker(2), EventKind::FrameDecoded, 1, 14, 0);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn events_land_in_their_lanes_and_merge_time_sorted() {
        let rec = FlightRecorder::new(TraceMode::On, 2);
        rec.record(Lane::Accept, EventKind::Accept, 3, 0, 0);
        rec.record(Lane::Worker(0), EventKind::FrameDecoded, 1, 14, 0);
        rec.record(Lane::Worker(1), EventKind::ArbiterVerdict, 1, 7, 99);
        rec.record(Lane::Reclaim, EventKind::LeaseReclaim, 0, 5, 42);
        // Out-of-range worker lane falls back to accept.
        rec.record(Lane::Worker(9), EventKind::TimerSweep, 2, 1, 0);
        let events = rec.snapshot();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let lane_of = |kind: EventKind| {
            events
                .iter()
                .find(|e| e.kind == kind as u32)
                .expect("event present")
                .lane
        };
        assert_eq!(lane_of(EventKind::Accept), 0);
        assert_eq!(lane_of(EventKind::LeaseReclaim), 1);
        assert_eq!(lane_of(EventKind::FrameDecoded), 2);
        assert_eq!(lane_of(EventKind::ArbiterVerdict), 3);
        assert_eq!(lane_of(EventKind::TimerSweep), 0);
    }
}
