//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! [u32 LE payload length][payload bytes]
//! ```
//!
//! Request payload: `[u8 opcode][key bytes]` (the key is everything
//! after the opcode; [`Op::Stats`] ignores it). Response payload starts
//! with a status byte:
//!
//! | status | meaning | rest of payload |
//! |--------|---------|-----------------|
//! | 0 `LOST` / 1 `WIN` | arbitration verdict | `u64 LE` epoch |
//! | 2 `RESET` | recycle acknowledged | `u64 LE` newly opened epoch (0 = no such key) |
//! | 3 `ERR` | request refused | UTF-8 message |
//! | 4 `STATS` | server counters | 8 × `u64 LE`: keys, ops, wins, resets, registers, reclaimed, conns, refused |
//! | 5 `METRICS` | named metrics | UTF-8 `rtas-metrics/2` text exposition |
//!
//! ## Trace-context extension
//!
//! A request may carry a **span id**: setting [`TRACE_FLAG`] (bit 7) on
//! the opcode byte inserts a nonzero `u64 LE` span id between the
//! opcode and the key. The server echoes the id back by setting bit 7
//! on the response status byte and inserting the same `u64 LE` before
//! the response body. Span 0 is reserved for "untraced" and never
//! appears on the wire — a flagged frame carrying span 0 is malformed.
//! Old servers reject a flagged opcode as `unknown opcode <code|0x80>`
//! over a healthy connection, which is the negotiation: a client probes
//! once with a traced `STATS` and falls back to untraced frames on the
//! `ERR`. See `docs/WIRE.md` for the normative rules.
//!
//! Responses are returned **in request order** on each connection, so a
//! client may pipeline: write any number of request frames, then read
//! the same number of responses.
//!
//! Framing violations (a declared payload over [`MAX_PAYLOAD`], a
//! truncated frame) poison the stream — the server answers with an
//! `ERR` frame where it still can and closes the connection. *Clean*
//! frames that merely carry a bad request (unknown opcode, empty or
//! oversized key, kind mismatch) get an `ERR` response and the
//! connection stays usable.
//!
//! The **normative** specification — exact byte layouts, the `STATS`
//! counter table with units, error classes and their close-vs-continue
//! fates, and the pipelining guarantees — is `docs/WIRE.md` in the
//! repository root; this module and that document are kept in lockstep
//! (the repo's docs CI job link-checks one against the other).

use std::io::{self, Read};

/// Hard ceiling on a frame's payload, requests and responses alike. A
/// declared length beyond this is a framing violation, not a large
/// message.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Longest permitted key, in bytes.
pub const MAX_KEY: usize = 4096;

/// Bit 7 of the opcode (request) or status (response) byte: the frame
/// carries the trace-context extension — a nonzero `u64 LE` span id
/// right after the flagged byte (see the [module docs](self)).
pub const TRACE_FLAG: u8 = 0x80;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Test-and-set on the key: `WIN` iff the caller set the bit.
    Tas,
    /// Leader election on the key: `WIN` iff the caller is the leader.
    Elect,
    /// Recycle the key's object for the next epoch (the *ack* of the
    /// current resolution).
    Reset,
    /// Server-wide counters; the key is ignored.
    Stats,
    /// The named-metrics text exposition (counters, gauges, latency
    /// histograms) from the observability plane; the key is ignored.
    Metrics,
}

impl Op {
    /// The opcode's wire byte.
    pub fn code(self) -> u8 {
        match self {
            Op::Tas => 1,
            Op::Elect => 2,
            Op::Reset => 3,
            Op::Stats => 4,
            Op::Metrics => 5,
        }
    }

    /// Parse a wire byte back into an opcode.
    pub fn from_code(code: u8) -> Option<Op> {
        match code {
            1 => Some(Op::Tas),
            2 => Some(Op::Elect),
            3 => Some(Op::Reset),
            4 => Some(Op::Stats),
            5 => Some(Op::Metrics),
            _ => None,
        }
    }
}

const STATUS_LOST: u8 = 0;
const STATUS_WIN: u8 = 1;
const STATUS_RESET: u8 = 2;
const STATUS_ERR: u8 = 3;
const STATUS_STATS: u8 = 4;
const STATUS_METRICS: u8 = 5;

/// The verdict of one arbitration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Whether this call won its key-epoch (at most one per epoch).
    pub won: bool,
    /// The key's epoch the call participated in.
    pub epoch: u64,
}

/// Server-wide counters, as returned by [`Op::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SvcStats {
    /// Live keys across all namespace shards.
    pub keys: u64,
    /// Arbitration operations served (TAS + ELECT), cumulative. A
    /// connection adds its operations once per burst it reads, and
    /// before it answers `STATS` or `METRICS`.
    pub ops: u64,
    /// Winning operations, cumulative — one per completed key-epoch.
    pub wins: u64,
    /// Epoch recycles performed (RESETs that found a key, plus lease
    /// reclamations), cumulative.
    pub resets: u64,
    /// Atomic registers held by all live keyed objects.
    pub registers: u64,
    /// Epochs recycled by the server itself because the lease on an
    /// admitted-but-never-acked epoch expired — each by the first
    /// arrival on its key after expiry (a strict subset of `resets`).
    /// Zero unless the server was configured with a lease.
    pub reclaimed: u64,
    /// Connections currently being served (the connection answering a
    /// `STATS` request counts itself). Zero when the stats come from an
    /// in-process [`Namespace::stats`](crate::Namespace::stats) call —
    /// only the server's accept loop tracks connections.
    pub conns: u64,
    /// Connections refused because the server was at its `max_conns`
    /// ceiling, cumulative. Zero for in-process stats, as above.
    pub refused: u64,
}

impl SvcStats {
    /// The eight counters as `(name, value)` pairs in wire order: the one
    /// list behind the `STATS` body, the `svc.*` metrics and `rtas-svc stats`.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("keys", self.keys),
            ("ops", self.ops),
            ("wins", self.wins),
            ("resets", self.resets),
            ("registers", self.registers),
            ("reclaimed", self.reclaimed),
            ("conns", self.conns),
            ("refused", self.refused),
        ]
    }
}

/// A decoded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// The operation.
    pub op: Op,
    /// The key operated on (empty for [`Op::Stats`]).
    pub key: &'a [u8],
    /// The request's wire span id; 0 when the frame was untraced.
    pub span: u64,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Verdict of a `TAS`/`ELECT`.
    Acquired(Acquired),
    /// `RESET` acknowledged; `epoch` is the newly opened epoch, or 0 if
    /// the key did not exist (nothing to recycle).
    Reset {
        /// Newly opened epoch (0 = no such key).
        epoch: u64,
    },
    /// `STATS` counters.
    Stats(SvcStats),
    /// `METRICS` text exposition (`rtas-metrics/2` key/value lines).
    Metrics(String),
    /// The request was refused; the connection remains usable.
    Err(String),
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The framing-violation error for a declared length over
/// [`MAX_PAYLOAD`] — shared by [`read_frame`] and the incremental
/// [`FrameDecoder`](crate::conn::FrameDecoder) so both report the
/// violation identically.
pub(crate) fn oversized_payload(len: usize) -> io::Error {
    invalid(format!(
        "declared payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte frame limit"
    ))
}

/// Append a complete request frame (length prefix included) to `buf`.
///
/// # Panics
///
/// Panics if `key` exceeds [`MAX_KEY`] — the limit is part of the
/// protocol, callers must not construct oversized keys.
pub fn frame_request(op: Op, key: &[u8], buf: &mut Vec<u8>) {
    frame_request_span(op, 0, key, buf);
}

/// [`frame_request`] with a trace context: a nonzero `span` sets
/// [`TRACE_FLAG`] on the opcode byte and inserts the span id before the
/// key; `span == 0` frames exactly like [`frame_request`].
///
/// # Panics
///
/// Panics if `key` exceeds [`MAX_KEY`].
pub fn frame_request_span(op: Op, span: u64, key: &[u8], buf: &mut Vec<u8>) {
    assert!(
        key.len() <= MAX_KEY,
        "key of {} bytes exceeds MAX_KEY",
        key.len()
    );
    let span_bytes = if span != 0 { 8 } else { 0 };
    let len = 1 + span_bytes + key.len();
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    if span != 0 {
        buf.push(op.code() | TRACE_FLAG);
        buf.extend_from_slice(&span.to_le_bytes());
    } else {
        buf.push(op.code());
    }
    buf.extend_from_slice(key);
}

/// Decode a request payload (the bytes *inside* a frame).
pub fn decode_request(payload: &[u8]) -> io::Result<Request<'_>> {
    let &code = payload
        .first()
        .ok_or_else(|| invalid("empty request frame".to_string()))?;
    let (span, key_at) = if code & TRACE_FLAG != 0 {
        let span = u64_at(payload, 1)?;
        if span == 0 {
            return Err(invalid(
                "traced request carries the reserved span 0".to_string(),
            ));
        }
        (span, 9)
    } else {
        (0, 1)
    };
    let op = Op::from_code(code & !TRACE_FLAG)
        .ok_or_else(|| invalid(format!("unknown opcode {code}")))?;
    let key = &payload[key_at..];
    if key.len() > MAX_KEY {
        return Err(invalid(format!(
            "key of {} bytes exceeds MAX_KEY",
            key.len()
        )));
    }
    if key.is_empty() && !matches!(op, Op::Stats | Op::Metrics) {
        return Err(invalid(format!("{op:?} requires a non-empty key")));
    }
    Ok(Request { op, key, span })
}

/// Append a complete response frame (length prefix included) to `buf`.
pub fn frame_response(resp: &Response, buf: &mut Vec<u8>) {
    frame_response_span(resp, 0, buf);
}

/// [`frame_response`] with the trace-context echo: a nonzero `span`
/// sets [`TRACE_FLAG`] on the status byte and inserts the span id
/// before the body; `span == 0` frames exactly like [`frame_response`].
pub fn frame_response_span(resp: &Response, span: u64, buf: &mut Vec<u8>) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]); // length backpatched below
    let status_at = buf.len();
    match resp {
        Response::Acquired(a) => {
            buf.push(if a.won { STATUS_WIN } else { STATUS_LOST });
            buf.extend_from_slice(&a.epoch.to_le_bytes());
        }
        Response::Reset { epoch } => {
            buf.push(STATUS_RESET);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Response::Stats(s) => {
            buf.push(STATUS_STATS);
            for (_, v) in s.fields() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Metrics(text) => {
            buf.push(STATUS_METRICS);
            buf.extend_from_slice(text.as_bytes());
        }
        Response::Err(msg) => {
            buf.push(STATUS_ERR);
            buf.extend_from_slice(msg.as_bytes());
        }
    }
    if span != 0 {
        buf[status_at] |= TRACE_FLAG;
        buf.splice(status_at + 1..status_at + 1, span.to_le_bytes());
    }
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn u64_at(payload: &[u8], at: usize) -> io::Result<u64> {
    let bytes: [u8; 8] = payload
        .get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| invalid("frame payload truncated".to_string()))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Decode a response payload (the bytes *inside* a frame), discarding
/// any trace-context echo (see [`decode_response_span`]).
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    Ok(decode_response_span(payload)?.0)
}

/// Decode a response payload plus its echoed span id (0 when the
/// response was untraced).
pub fn decode_response_span(payload: &[u8]) -> io::Result<(Response, u64)> {
    let &raw = payload
        .first()
        .ok_or_else(|| invalid("empty response frame".to_string()))?;
    let (status, span, body_at) = if raw & TRACE_FLAG != 0 {
        let span = u64_at(payload, 1)?;
        if span == 0 {
            return Err(invalid(
                "traced response carries the reserved span 0".to_string(),
            ));
        }
        (raw & !TRACE_FLAG, span, 9usize)
    } else {
        (raw, 0, 1)
    };
    let rest = &payload[body_at..];
    let resp = match status {
        STATUS_LOST | STATUS_WIN => Response::Acquired(Acquired {
            won: status == STATUS_WIN,
            epoch: u64_at(payload, body_at)?,
        }),
        STATUS_RESET => Response::Reset {
            epoch: u64_at(payload, body_at)?,
        },
        STATUS_STATS => Response::Stats(SvcStats {
            keys: u64_at(payload, body_at)?,
            ops: u64_at(payload, body_at + 8)?,
            wins: u64_at(payload, body_at + 16)?,
            resets: u64_at(payload, body_at + 24)?,
            registers: u64_at(payload, body_at + 32)?,
            reclaimed: u64_at(payload, body_at + 40)?,
            conns: u64_at(payload, body_at + 48)?,
            refused: u64_at(payload, body_at + 56)?,
        }),
        STATUS_METRICS => Response::Metrics(String::from_utf8_lossy(rest).into_owned()),
        STATUS_ERR => Response::Err(String::from_utf8_lossy(rest).into_owned()),
        other => return Err(invalid(format!("unknown response status {other}"))),
    };
    Ok((resp, span))
}

/// Read one frame's payload into `buf` (reused across calls — steady
/// state does not reallocate once `buf` has grown to the working frame
/// size).
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary. A truncated
/// header or payload is `ErrorKind::UnexpectedEof`; a declared length
/// beyond [`MAX_PAYLOAD`] is `ErrorKind::InvalidData` (the stream is
/// poisoned — the caller must close the connection).
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Option<()>> {
    let mut header = [0u8; 4];
    let mut have = 0;
    while have < 4 {
        match r.read(&mut header[have..]) {
            Ok(0) if have == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated frame header",
                ))
            }
            Ok(n) => have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_PAYLOAD {
        return Err(oversized_payload(len));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(Some(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(op: Op, key: &[u8]) {
        let mut frame = Vec::new();
        frame_request(op, key, &mut frame);
        let mut cursor = io::Cursor::new(frame);
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).unwrap().is_some());
        let req = decode_request(&payload).unwrap();
        assert_eq!(req, Request { op, key, span: 0 });
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Op::Tas, b"jobs/backfill");
        round_trip_request(Op::Elect, b"leader/shard-7");
        round_trip_request(Op::Reset, b"jobs/backfill");
        round_trip_request(Op::Stats, b"");
        round_trip_request(Op::Metrics, b"");
        round_trip_request(Op::Tas, &[0xff; MAX_KEY]);
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Acquired(Acquired {
                won: true,
                epoch: 7,
            }),
            Response::Acquired(Acquired {
                won: false,
                epoch: u64::MAX,
            }),
            Response::Reset { epoch: 0 },
            Response::Stats(SvcStats {
                keys: 1,
                ops: 2,
                wins: 3,
                resets: 4,
                registers: 5,
                reclaimed: 6,
                conns: 7,
                refused: 8,
            }),
            Response::Metrics("rtas-metrics/2\nreactor.carryovers 42\n".to_string()),
            Response::Err("kind mismatch".to_string()),
        ];
        for resp in cases {
            let mut frame = Vec::new();
            frame_response(&resp, &mut frame);
            let mut cursor = io::Cursor::new(frame);
            let mut payload = Vec::new();
            assert!(read_frame(&mut cursor, &mut payload).unwrap().is_some());
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn clean_eof_is_none_truncation_is_an_error() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        let mut buf = Vec::new();
        assert!(read_frame(&mut empty, &mut buf).unwrap().is_none());

        // Header cut short.
        let mut cursor = io::Cursor::new(vec![5u8, 0]);
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Payload cut short.
        let mut frame = Vec::new();
        frame_request(Op::Tas, b"key", &mut frame);
        frame.truncate(frame.len() - 2);
        let mut cursor = io::Cursor::new(frame);
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_declared_length_is_invalid_data() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(frame);
        let mut buf = Vec::new();
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_request_payloads_are_rejected() {
        assert!(decode_request(&[]).is_err(), "empty frame");
        assert!(decode_request(&[99, b'k']).is_err(), "unknown opcode");
        assert!(decode_request(&[Op::Tas.code()]).is_err(), "empty key");
        assert!(decode_request(&[Op::Reset.code()]).is_err(), "empty key");
        let mut oversized = vec![Op::Tas.code()];
        oversized.resize(MAX_KEY + 2, b'x');
        assert!(decode_request(&oversized).is_err(), "oversized key");
        // STATS and METRICS need no key.
        assert!(decode_request(&[Op::Stats.code()]).is_ok());
        assert!(decode_request(&[Op::Metrics.code()]).is_ok());
    }

    #[test]
    fn malformed_response_payloads_are_rejected() {
        assert!(decode_response(&[]).is_err(), "empty frame");
        assert!(decode_response(&[77]).is_err(), "unknown status");
        assert!(decode_response(&[STATUS_WIN, 1, 2]).is_err(), "short epoch");
        assert!(decode_response(&[STATUS_STATS, 0]).is_err(), "short stats");
    }

    #[test]
    fn traced_requests_round_trip_with_their_span() {
        for (op, key, span) in [
            (Op::Tas, b"jobs/backfill".as_slice(), 0x1_0000_0001u64),
            (Op::Stats, b"".as_slice(), 1),
            (Op::Reset, b"k".as_slice(), u64::MAX),
        ] {
            let mut frame = Vec::new();
            frame_request_span(op, span, key, &mut frame);
            let mut cursor = io::Cursor::new(frame);
            let mut payload = Vec::new();
            assert!(read_frame(&mut cursor, &mut payload).unwrap().is_some());
            assert_eq!(payload[0], op.code() | TRACE_FLAG);
            assert_eq!(decode_request(&payload).unwrap(), Request { op, key, span });
        }
        // Span 0 means untraced: byte-identical to frame_request.
        let (mut plain, mut spanned) = (Vec::new(), Vec::new());
        frame_request(Op::Tas, b"k", &mut plain);
        frame_request_span(Op::Tas, 0, b"k", &mut spanned);
        assert_eq!(plain, spanned);
    }

    #[test]
    fn traced_responses_echo_the_span_and_plain_decode_strips_it() {
        let cases = [
            Response::Acquired(Acquired {
                won: true,
                epoch: 7,
            }),
            Response::Reset { epoch: 3 },
            Response::Stats(SvcStats::default()),
            Response::Metrics("rtas-metrics/2\n".to_string()),
            Response::Err("kind mismatch".to_string()),
        ];
        for resp in cases {
            let mut frame = Vec::new();
            frame_response_span(&resp, 0xabc, &mut frame);
            let payload = &frame[4..];
            assert_eq!(payload[0] & TRACE_FLAG, TRACE_FLAG);
            assert_eq!(
                decode_response_span(payload).unwrap(),
                (resp.clone(), 0xabc)
            );
            // Old-style decoding sees the same response, span dropped.
            assert_eq!(decode_response(payload).unwrap(), resp);
            // Span 0 frames identically to the untraced encoder.
            let (mut plain, mut spanned) = (Vec::new(), Vec::new());
            frame_response(&resp, &mut plain);
            frame_response_span(&resp, 0, &mut spanned);
            assert_eq!(plain, spanned);
            assert_eq!(decode_response_span(&plain[4..]).unwrap(), (resp, 0));
        }
    }

    #[test]
    fn flagged_frames_with_span_zero_are_malformed() {
        let mut req = vec![Op::Tas.code() | TRACE_FLAG];
        req.extend_from_slice(&0u64.to_le_bytes());
        req.push(b'k');
        assert!(decode_request(&req).is_err());
        let mut resp = vec![STATUS_RESET | TRACE_FLAG];
        resp.extend_from_slice(&0u64.to_le_bytes());
        resp.extend_from_slice(&5u64.to_le_bytes());
        assert!(decode_response(&resp).is_err());
        // And a flagged request too short to hold the span is truncated,
        // not a panic.
        assert!(decode_request(&[Op::Tas.code() | TRACE_FLAG, 1, 2]).is_err());
        assert!(decode_response(&[STATUS_WIN | TRACE_FLAG, 1]).is_err());
    }

    #[test]
    fn old_servers_would_reject_a_traced_probe_as_unknown_opcode() {
        // The negotiation contract: a server that predates the trace
        // extension sees the flagged STATS opcode (132) as unknown and
        // answers ERR over a healthy connection. A new server reports
        // genuinely-unknown flagged opcodes the same way.
        let mut probe = vec![Op::Stats.code() | TRACE_FLAG];
        probe.extend_from_slice(&1u64.to_le_bytes());
        assert!(decode_request(&probe).is_ok());
        let mut unknown = vec![99u8 | TRACE_FLAG];
        unknown.extend_from_slice(&1u64.to_le_bytes());
        let err = decode_request(&unknown).unwrap_err();
        assert!(err.to_string().contains("unknown opcode"), "{err}");
    }

    #[test]
    fn opcodes_round_trip_and_unknown_codes_do_not() {
        for op in [Op::Tas, Op::Elect, Op::Reset, Op::Stats, Op::Metrics] {
            assert_eq!(Op::from_code(op.code()), Some(op));
        }
        assert_eq!(Op::from_code(0), None);
        assert_eq!(Op::from_code(6), None);
    }
}
