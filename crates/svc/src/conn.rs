//! The per-connection protocol state machine: bytes in → response
//! bytes out, zero I/O inside.
//!
//! [`Connection`] is the server's request path with the transport
//! stripped away. The driving loop (today `server.rs`, tomorrow an
//! event-driven reactor) hands it whatever bytes one `read` produced;
//! the embedded incremental [`FrameDecoder`] consumes **every**
//! complete frame in the buffer — a whole pipelined burst per call —
//! and carries a trailing partial frame across reads. Each decoded
//! request is executed against the [`Namespace`] and its response is
//! framed into one reused output buffer, so the driver can flush an
//! entire burst's responses with a single coalesced write. That turns
//! the previous 2-reads + 1-write **per frame** syscall pattern into
//! one read + one write **per burst**.
//!
//! Error policy is identical to the blocking loop it replaces (see the
//! [protocol docs](crate::protocol)): a framing violation (declared
//! length over [`MAX_PAYLOAD`]) appends a best-effort `ERR` frame and
//! poisons the connection ([`ConnStatus::Closed`] — the driver flushes
//! what it can and hangs up); a clean frame carrying a bad request
//! gets an `ERR` response and the connection stays usable. Bytes after
//! a poisoned frame are never interpreted: the stream position is
//! untrustworthy.
//!
//! The connection counts the `TAS`/`ELECT` calls it executes, and its
//! wins, in a private tally, and adds the tally to the namespace's
//! counters once per `ingest` — before the burst's responses can be
//! written, so a client that has read a response finds its call in any
//! later `STATS` — and before it executes a `STATS` or `METRICS`
//! request, which then counts every call framed before it on its own
//! connection. Two connections racing on one key thus share no counter
//! line per call.
//!
//! [`ConnGauges`] is the accept loop's side of the story — live and
//! refused connection counts, surfaced through the widened `STATS`
//! frame (a `STATS` request answered by a `Connection` reports the
//! gauges of the server that owns it).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use rtas::native::NativeRunner;
use rtas_obs::{lane_name, EventKind, FlightRecorder, Lane, METRICS_HEADER};

use crate::metrics::SvcMetrics;
use crate::namespace::{fnv1a, Kind, Namespace, Tally};
use crate::protocol::{
    decode_request, frame_response, frame_response_span, oversized_payload, Op, Request, Response,
    MAX_PAYLOAD,
};

/// An incremental frame decoder: feed it byte chunks of any size
/// ([`FrameDecoder::push`]), pull complete frame payloads out
/// ([`FrameDecoder::next_frame`]). A frame split across chunks is
/// carried until its remainder arrives; the backing buffer is reused
/// and compacted, so steady state allocates nothing once it has grown
/// to the working burst size.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`; everything before
    /// it is already-decoded frames awaiting compaction.
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append freshly read bytes. Compacts the consumed prefix first,
    /// so the buffer never grows beyond one burst plus one partial
    /// frame.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            let len = self.buf.len();
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(len - self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes" (empty buffer or a partial
    /// frame — see [`FrameDecoder::has_partial`] to tell them apart).
    /// A declared length over [`MAX_PAYLOAD`] is
    /// [`io::ErrorKind::InvalidData`]: the stream is poisoned and the
    /// caller must stop decoding — the violating bytes stay buffered
    /// and every later call returns the same error.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let remaining = self.buf.len() - self.start;
        if remaining < 4 {
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.start..self.start + 4].try_into().unwrap();
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_PAYLOAD {
            return Err(oversized_payload(len));
        }
        if remaining < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start = at + len;
        Ok(Some(&self.buf[at..at + len]))
    }

    /// Whether undcoded bytes are buffered — a partial frame if
    /// [`FrameDecoder::next_frame`] just returned `Ok(None)`. Lets a
    /// client classify EOF: at a frame boundary it is clean, mid-frame
    /// it is truncation.
    pub fn has_partial(&self) -> bool {
        self.buf.len() > self.start
    }
}

/// Connection gauges owned by the server's accept loop: how many
/// connections are live right now and how many were refused at the
/// `max_conns` ceiling, cumulatively. Lock-free like the shard
/// counters — relaxed increments, relaxed snapshot reads — and
/// surfaced through the widened `STATS` frame.
#[derive(Debug, Default)]
pub struct ConnGauges {
    live: AtomicU64,
    refused: AtomicU64,
}

impl ConnGauges {
    /// Record an accepted connection and return the new live count —
    /// the atomic claim the accept loop checks against `max_conns`.
    /// The matching [`ConnGauges::disconnected`] must run when the
    /// connection ends (or the claim is rolled back).
    pub fn connected(&self) -> u64 {
        self.live.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record a connection ending (however it ended).
    pub fn disconnected(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record a connection refused at the `max_conns` ceiling.
    pub fn refuse(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently being served.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Connections refused so far, cumulative.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }
}

/// What [`Connection::ingest`] left the connection in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStatus {
    /// Keep reading; flush [`Connection::output`] first if non-empty.
    Open,
    /// The stream is poisoned: flush [`Connection::output`]
    /// best-effort, then close. Further `ingest` calls are no-ops.
    Closed,
}

/// The observability hooks a driver threads through
/// [`Connection::ingest_obs`]: the flight recorder (with the lane this
/// connection's events belong on) and the metrics plane's stage
/// histograms. Borrowed per call — the connection state machine itself
/// stays free of `Arc`s and allocation.
pub(crate) struct ConnObs<'a> {
    /// The server's flight recorder.
    pub recorder: &'a FlightRecorder,
    /// The server's metrics instruments.
    pub metrics: &'a SvcMetrics,
    /// The lane this connection's per-frame events are written to: its
    /// reactor worker's lane.
    pub lane: Lane,
}

/// One connection's protocol state: the incremental decoder, the
/// connection-private [`NativeRunner`], and the reused output buffer.
/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct Connection {
    decoder: FrameDecoder,
    runner: NativeRunner,
    out: Vec<u8>,
    closed: bool,
    /// Frames decoded on this connection — the per-connection sequence
    /// the trace sampling gate (`--trace sampled:<n>`) runs on. Plain
    /// arithmetic, deliberately no RNG: tracing must never perturb
    /// seeded fault streams.
    frames: u64,
    /// Calls and wins not yet added to the namespace's counters (see
    /// the [module docs](self)).
    tally: Tally,
}

impl Connection {
    /// A fresh connection state machine.
    pub fn new() -> Self {
        Connection::default()
    }

    /// Feed one read's worth of bytes; decode and execute **every**
    /// complete frame they complete, framing each response into the
    /// output buffer in request order. Returns after adding the
    /// connection's op and win tally to the namespace's counters.
    pub fn ingest(
        &mut self,
        bytes: &[u8],
        namespace: &Namespace,
        gauges: &ConnGauges,
    ) -> ConnStatus {
        self.ingest_obs(bytes, namespace, gauges, None)
    }

    /// [`Connection::ingest`] with the observability plane threaded in:
    /// sampled frames get per-stage latency samples (decode / arbiter /
    /// encode) and `FrameDecoded` / `ArbiterVerdict` / `ResetAck`
    /// flight-recorder events. With `obs` absent (or the recorder's
    /// sampling gate cold) the path is byte-identical to plain
    /// `ingest` — no clock reads, no events, no allocations.
    pub(crate) fn ingest_obs(
        &mut self,
        bytes: &[u8],
        namespace: &Namespace,
        gauges: &ConnGauges,
        obs: Option<&ConnObs<'_>>,
    ) -> ConnStatus {
        if self.closed {
            return ConnStatus::Closed;
        }
        self.decoder.push(bytes);
        let status = loop {
            // Sample decision for the frame about to be decoded. The
            // clock reads themselves are gated on it, so an untraced (or
            // unsampled) frame pays exactly one branch here.
            let timed = obs.filter(|o| o.recorder.sample_hit(self.frames));
            let t0 = timed.map(|o| o.recorder.now_ns());
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    self.frames += 1;
                    let decoded = decode_request(payload);
                    let t1 = timed.map(|o| o.recorder.now_ns());
                    if let (Some(o), Ok(req)) = (timed, &decoded) {
                        o.recorder.record(
                            o.lane,
                            EventKind::FrameDecoded,
                            req.op.code() as u32,
                            payload.len() as u64,
                            0,
                        );
                    }
                    // The wire trace context: echoed on *every* response
                    // to a traced request (protocol behavior, independent
                    // of whether this server records anything).
                    let span = decoded.as_ref().map_or(0, |r| r.span);
                    let op_code = decoded.as_ref().map_or(0, |r| r.op.code());
                    let response = match decoded {
                        Ok(request) => execute_obs(
                            namespace,
                            gauges,
                            request,
                            &mut self.runner,
                            &mut self.tally,
                            obs,
                            timed,
                        ),
                        // A clean frame with a bad request: answer and
                        // carry on.
                        Err(e) => Response::Err(e.to_string()),
                    };
                    let t2 = timed.map(|o| o.recorder.now_ns());
                    frame_response_span(&response, span, &mut self.out);
                    if let (Some(o), Some(t0), Some(t1), Some(t2)) = (timed, t0, t1, t2) {
                        let t3 = o.recorder.now_ns();
                        o.metrics.stage_decode.record((t1 - t0) as f64);
                        o.metrics.stage_arbiter.record((t2 - t1) as f64);
                        o.metrics.stage_encode.record((t3 - t2) as f64);
                        if span != 0 {
                            // One ServerSpan per traced+sampled frame:
                            // decode→arbiter→encode, ending at t3 on the
                            // server clock.
                            o.recorder.record(
                                o.lane,
                                EventKind::ServerSpan,
                                u32::from(op_code),
                                span,
                                t3 - t0,
                            );
                        }
                    }
                }
                Ok(None) => break ConnStatus::Open,
                Err(e) => {
                    // Framing violation: name it, then poison — the
                    // stream position is untrustworthy.
                    frame_response(&Response::Err(e.to_string()), &mut self.out);
                    self.closed = true;
                    break ConnStatus::Closed;
                }
            }
        };
        namespace.publish(&mut self.tally);
        status
    }

    /// Response bytes accumulated since the last
    /// [`Connection::clear_output`] — the driver writes these with one
    /// coalesced write.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Discard flushed output (keeps the buffer's capacity).
    pub fn clear_output(&mut self) {
        self.out.clear();
    }

    /// Whether a framing violation has poisoned this connection.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// Execute one decoded request against the namespace. `TAS`/`ELECT`
/// count into `tally`, which `STATS` and `METRICS` publish before they
/// read the counters. `STATS` merges the accept loop's connection
/// gauges into the namespace counters; `obs` renders the registry into
/// `METRICS` responses; `timed` (the sample-gated recorder handle) gets
/// `ArbiterVerdict` events and a `ResetAck` for every ack that opened
/// an epoch.
pub(crate) fn execute_obs(
    namespace: &Namespace,
    gauges: &ConnGauges,
    request: Request<'_>,
    runner: &mut NativeRunner,
    tally: &mut Tally,
    obs: Option<&ConnObs<'_>>,
    timed: Option<&ConnObs<'_>>,
) -> Response {
    match request.op {
        Op::Tas | Op::Elect => {
            let kind = if request.op == Op::Tas {
                Kind::Tas
            } else {
                Kind::Elect
            };
            match namespace.acquire_into(kind, request.key, runner, tally) {
                Ok(acquired) => {
                    if let Some(o) = timed {
                        o.recorder.record(
                            o.lane,
                            EventKind::ArbiterVerdict,
                            acquired.won as u32,
                            acquired.epoch,
                            fnv1a(request.key),
                        );
                    }
                    Response::Acquired(acquired)
                }
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Op::Reset => {
            let (epoch, opened) = namespace.reset_ack(request.key).unwrap_or((0, false));
            // The audit reads a `ResetAck` as "this ack opened `epoch`",
            // so a no-op ack leaves no event.
            if let Some(o) = timed.filter(|_| opened) {
                o.recorder
                    .record(o.lane, EventKind::ResetAck, 0, epoch, fnv1a(request.key));
            }
            Response::Reset { epoch }
        }
        Op::Stats => {
            namespace.publish(tally);
            let mut stats = namespace.stats();
            stats.conns = gauges.live();
            stats.refused = gauges.refused();
            Response::Stats(stats)
        }
        Op::Metrics => {
            namespace.publish(tally);
            Response::Metrics(render_metrics(namespace, gauges, obs))
        }
    }
}

/// The `METRICS` exposition: the `rtas-metrics/2` header, the `svc.*`
/// namespace/gauge counters (always present, so scrapers see a stable
/// core even from an in-process namespace with no registry wired),
/// then — with the observability plane wired — the server's uptime, the
/// flight recorder's per-lane drop counters (ring lossiness must be
/// observable, not silent), and the registry's named instruments sorted
/// by name.
fn render_metrics(namespace: &Namespace, gauges: &ConnGauges, obs: Option<&ConnObs<'_>>) -> String {
    let mut stats = namespace.stats();
    stats.conns = gauges.live();
    stats.refused = gauges.refused();
    let mut out = String::with_capacity(1024);
    out.push_str(METRICS_HEADER);
    out.push('\n');
    for (name, value) in stats.fields() {
        out.push_str("svc.");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    if let Some(o) = obs {
        // The recorder's clock starts at server spawn, so its reading
        // *is* the uptime.
        out.push_str("svc.uptime_secs ");
        out.push_str(&(o.recorder.now_ns() / 1_000_000_000).to_string());
        out.push('\n');
        for (lane, dropped) in o.recorder.lane_drops() {
            out.push_str("trace.");
            out.push_str(&lane_name(lane));
            out.push_str(".dropped_events ");
            out.push_str(&dropped.to_string());
            out.push('\n');
        }
        o.metrics.registry().render_into(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, frame_request, read_frame};
    use rtas::Backend;

    fn decode_all(bytes: &[u8]) -> Vec<Response> {
        let mut cursor = io::Cursor::new(bytes.to_vec());
        let mut payload = Vec::new();
        let mut out = Vec::new();
        while read_frame(&mut cursor, &mut payload).unwrap().is_some() {
            out.push(decode_response(&payload).unwrap());
        }
        out
    }

    #[test]
    fn decoder_reassembles_frames_split_anywhere() {
        let mut burst = Vec::new();
        frame_request(Op::Tas, b"alpha", &mut burst);
        frame_request(Op::Reset, b"alpha", &mut burst);
        frame_request(Op::Stats, b"", &mut burst);
        for split in 0..=burst.len() {
            let mut dec = FrameDecoder::new();
            let mut seen = 0;
            dec.push(&burst[..split]);
            while dec.next_frame().unwrap().is_some() {
                seen += 1;
            }
            dec.push(&burst[split..]);
            while let Some(payload) = dec.next_frame().unwrap() {
                assert!(decode_request(payload).is_ok());
                seen += 1;
            }
            assert_eq!(seen, 3, "all frames recovered at split {split}");
            assert!(!dec.has_partial());
        }
    }

    #[test]
    fn decoder_poisons_on_oversized_length_and_stays_poisoned() {
        let mut dec = FrameDecoder::new();
        let mut bytes = ((MAX_PAYLOAD as u32) + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"garbage");
        dec.push(&bytes);
        for _ in 0..3 {
            let err = dec.next_frame().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("frame limit"));
        }
    }

    #[test]
    fn decoder_reports_partial_frames() {
        let mut frame = Vec::new();
        frame_request(Op::Tas, b"key", &mut frame);
        let mut dec = FrameDecoder::new();
        assert!(!dec.has_partial());
        dec.push(&frame[..frame.len() - 1]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.has_partial(), "mid-frame EOF must be classifiable");
        dec.push(&frame[frame.len() - 1..]);
        assert!(dec.next_frame().unwrap().is_some());
        assert!(!dec.has_partial());
    }

    #[test]
    fn connection_answers_a_whole_burst_in_order() {
        let ns = Namespace::new(Backend::Combined, 2, 4);
        let gauges = ConnGauges::default();
        let mut conn = Connection::new();
        let mut burst = Vec::new();
        frame_request(Op::Tas, b"k", &mut burst); // win epoch 0
        frame_request(Op::Tas, b"k", &mut burst); // lose epoch 0
        frame_request(Op::Reset, b"k", &mut burst); // open epoch 1
        frame_request(Op::Tas, b"k", &mut burst); // win epoch 1
        assert_eq!(conn.ingest(&burst, &ns, &gauges), ConnStatus::Open);
        let responses = decode_all(conn.output());
        use crate::protocol::Acquired;
        assert_eq!(
            responses,
            vec![
                Response::Acquired(Acquired {
                    won: true,
                    epoch: 0
                }),
                Response::Acquired(Acquired {
                    won: false,
                    epoch: 0
                }),
                Response::Reset { epoch: 1 },
                Response::Acquired(Acquired {
                    won: true,
                    epoch: 1
                }),
            ]
        );
        conn.clear_output();
        assert!(conn.output().is_empty());
    }

    #[test]
    fn connection_survives_bad_requests_but_poisons_on_framing() {
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        let mut conn = Connection::new();

        // A clean frame with an unknown opcode: ERR, still open.
        let bad = [1u8, 0, 0, 0, 99];
        assert_eq!(conn.ingest(&bad, &ns, &gauges), ConnStatus::Open);
        let responses = decode_all(conn.output());
        assert!(matches!(&responses[0], Response::Err(m) if m.contains("unknown opcode")));
        conn.clear_output();

        // An oversized declared length: ERR, poisoned, and later bytes
        // are never interpreted.
        let poison = ((MAX_PAYLOAD as u32) + 1).to_le_bytes();
        assert_eq!(conn.ingest(&poison, &ns, &gauges), ConnStatus::Closed);
        assert!(conn.is_closed());
        let responses = decode_all(conn.output());
        assert!(matches!(&responses[0], Response::Err(m) if m.contains("frame limit")));
        conn.clear_output();
        let mut valid = Vec::new();
        frame_request(Op::Tas, b"k", &mut valid);
        assert_eq!(conn.ingest(&valid, &ns, &gauges), ConnStatus::Closed);
        assert!(conn.output().is_empty(), "poisoned connections go silent");
    }

    #[test]
    fn metrics_requests_render_the_exposition() {
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        let mut conn = Connection::new();
        let mut burst = Vec::new();
        frame_request(Op::Tas, b"k", &mut burst);
        frame_request(Op::Metrics, b"", &mut burst);
        assert_eq!(conn.ingest(&burst, &ns, &gauges), ConnStatus::Open);
        let responses = decode_all(conn.output());
        let text = match &responses[1] {
            Response::Metrics(text) => text,
            other => panic!("expected metrics, got {other:?}"),
        };
        // Plain ingest (no obs wired): header + the svc.* core lines.
        assert!(text.starts_with(METRICS_HEADER));
        assert!(text.contains("svc.ops 1\n"));
        assert!(text.contains("svc.wins 1\n"));
        assert!(text.contains("svc.conns 0\n"));
        assert!(!text.contains("reactor."), "no registry without obs");
        let pairs = rtas_obs::parse_metrics(text).expect("scrapable");
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    fn only_acks_that_open_an_epoch_are_recorded() {
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        let recorder = FlightRecorder::new(rtas_obs::TraceMode::On, 1);
        let metrics = SvcMetrics::new(1);
        let obs = ConnObs {
            recorder: &recorder,
            metrics: &metrics,
            lane: Lane::Worker(0),
        };
        let mut conn = Connection::new();
        let mut burst = Vec::new();
        frame_request(Op::Tas, b"k", &mut burst);
        frame_request(Op::Reset, b"k", &mut burst);
        // A replayed ack finds epoch 1 without admissions: a no-op.
        frame_request(Op::Reset, b"k", &mut burst);
        frame_request(Op::Reset, b"missing", &mut burst);
        conn.ingest_obs(&burst, &ns, &gauges, Some(&obs));
        let responses = decode_all(conn.output());
        assert_eq!(responses[1], Response::Reset { epoch: 1 });
        assert_eq!(responses[2], Response::Reset { epoch: 1 });
        assert_eq!(responses[3], Response::Reset { epoch: 0 });
        let events = recorder.snapshot();
        let acks: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::ResetAck as u32)
            .collect();
        assert_eq!(acks.len(), 1, "one ack opened an epoch");
        assert_eq!(acks[0].b, 1);
        assert!(rtas_obs::audit_events(&events).passed());
    }

    #[test]
    fn obs_ingest_times_stages_and_records_events() {
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        let recorder = FlightRecorder::new(rtas_obs::TraceMode::On, 1);
        let metrics = SvcMetrics::new(1);
        let obs = ConnObs {
            recorder: &recorder,
            metrics: &metrics,
            lane: Lane::Worker(0),
        };
        let mut conn = Connection::new();
        let mut burst = Vec::new();
        frame_request(Op::Tas, b"k", &mut burst);
        frame_request(Op::Reset, b"k", &mut burst);
        frame_request(Op::Metrics, b"", &mut burst);
        assert_eq!(
            conn.ingest_obs(&burst, &ns, &gauges, Some(&obs)),
            ConnStatus::Open
        );
        // Stage histograms saw all three frames.
        assert_eq!(metrics.stage_decode.count(), 3);
        assert_eq!(metrics.stage_arbiter.count(), 3);
        assert_eq!(metrics.stage_encode.count(), 3);
        assert_eq!(metrics.stage_read.count(), 0, "read timing is the driver's");
        // Events landed on the worker lane.
        let events = recorder.snapshot();
        let kind_count = |k: EventKind| events.iter().filter(|e| e.kind == k as u32).count();
        assert_eq!(kind_count(EventKind::FrameDecoded), 3);
        assert_eq!(kind_count(EventKind::ArbiterVerdict), 1);
        assert_eq!(kind_count(EventKind::ResetAck), 1);
        let verdict = events
            .iter()
            .find(|e| e.kind == EventKind::ArbiterVerdict as u32)
            .unwrap();
        assert_eq!(verdict.a, 1, "the solo caller won");
        assert_eq!(verdict.c, fnv1a(b"k"));
        // The METRICS response now carries the registry too.
        let responses = decode_all(conn.output());
        match &responses[2] {
            Response::Metrics(text) => {
                assert!(text.contains("stage.arbiter_ns.count 2\n"));
                assert!(text.contains("reactor.carryovers 0\n"));
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn traced_requests_are_echoed_and_recorded_as_server_spans() {
        use crate::protocol::{decode_response_span, frame_request_span};
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        let recorder = FlightRecorder::new(rtas_obs::TraceMode::On, 1);
        let metrics = SvcMetrics::new(1);
        let obs = ConnObs {
            recorder: &recorder,
            metrics: &metrics,
            lane: Lane::Worker(0),
        };
        let mut conn = Connection::new();
        let mut burst = Vec::new();
        frame_request_span(Op::Tas, 0xbeef, b"k", &mut burst);
        frame_request_span(Op::Reset, 0, b"k", &mut burst); // untraced
        conn.ingest_obs(&burst, &ns, &gauges, Some(&obs));
        let mut cursor = io::Cursor::new(conn.output().to_vec());
        let mut payload = Vec::new();
        read_frame(&mut cursor, &mut payload).unwrap().unwrap();
        let (resp, span) = decode_response_span(&payload).unwrap();
        assert!(matches!(resp, Response::Acquired(a) if a.won));
        assert_eq!(span, 0xbeef, "traced request gets its span echoed");
        read_frame(&mut cursor, &mut payload).unwrap().unwrap();
        assert_eq!(decode_response_span(&payload).unwrap().1, 0);
        // Exactly one ServerSpan, carrying the span id and the opcode.
        let spans: Vec<_> = recorder
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::ServerSpan as u32)
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].a, u32::from(Op::Tas.code()));
        assert_eq!(spans[0].b, 0xbeef);
        assert!(spans[0].c <= spans[0].ts_ns, "span starts at ts - dur");
    }

    #[test]
    fn traced_requests_are_echoed_even_without_a_recorder() {
        use crate::protocol::{decode_response_span, frame_request_span};
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        let mut conn = Connection::new();
        let mut frame = Vec::new();
        frame_request_span(Op::Tas, 7, b"k", &mut frame);
        // Plain ingest: no obs plane at all — the echo is protocol
        // behavior, not an observability feature.
        conn.ingest(&frame, &ns, &gauges);
        let mut cursor = io::Cursor::new(conn.output().to_vec());
        let mut payload = Vec::new();
        read_frame(&mut cursor, &mut payload).unwrap().unwrap();
        assert_eq!(decode_response_span(&payload).unwrap().1, 7);
    }

    #[test]
    fn obs_metrics_expose_uptime_and_lane_drop_counters() {
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        let recorder = FlightRecorder::new(rtas_obs::TraceMode::On, 1);
        let metrics = SvcMetrics::new(1);
        let obs = ConnObs {
            recorder: &recorder,
            metrics: &metrics,
            lane: Lane::Worker(0),
        };
        let mut conn = Connection::new();
        let mut req = Vec::new();
        frame_request(Op::Metrics, b"", &mut req);
        conn.ingest_obs(&req, &ns, &gauges, Some(&obs));
        let responses = decode_all(conn.output());
        let text = match &responses[0] {
            Response::Metrics(text) => text,
            other => panic!("expected metrics, got {other:?}"),
        };
        assert!(text.contains("svc.uptime_secs "), "{text}");
        assert!(text.contains("trace.accept.dropped_events 0\n"), "{text}");
        assert!(text.contains("trace.reclaim.dropped_events 0\n"), "{text}");
        assert!(text.contains("trace.worker0.dropped_events 0\n"), "{text}");
        assert!(rtas_obs::parse_metrics(text).is_some(), "still scrapable");
    }

    #[test]
    fn sampled_mode_times_every_nth_frame() {
        let ns = Namespace::new(Backend::Combined, 1, 4);
        let gauges = ConnGauges::default();
        let recorder = FlightRecorder::new(rtas_obs::TraceMode::Sampled(4), 1);
        let metrics = SvcMetrics::new(1);
        let obs = ConnObs {
            recorder: &recorder,
            metrics: &metrics,
            lane: Lane::Worker(0),
        };
        let mut conn = Connection::new();
        let mut burst = Vec::new();
        for _ in 0..8 {
            frame_request(Op::Tas, b"k", &mut burst);
        }
        conn.ingest_obs(&burst, &ns, &gauges, Some(&obs));
        // Frames 0 and 4 of the 8 hit the 1-in-4 gate.
        assert_eq!(metrics.stage_arbiter.count(), 2);
        let events = recorder.snapshot();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == EventKind::FrameDecoded as u32)
                .count(),
            2
        );
    }

    #[test]
    fn stats_responses_carry_the_gauges() {
        let ns = Namespace::new(Backend::Combined, 1, 2);
        let gauges = ConnGauges::default();
        gauges.connected();
        gauges.connected();
        gauges.refuse();
        gauges.disconnected();
        assert_eq!((gauges.live(), gauges.refused()), (1, 1));
        let mut conn = Connection::new();
        let mut req = Vec::new();
        frame_request(Op::Stats, b"", &mut req);
        conn.ingest(&req, &ns, &gauges);
        let responses = decode_all(conn.output());
        match &responses[0] {
            Response::Stats(s) => {
                assert_eq!(s.conns, 1);
                assert_eq!(s.refused, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
