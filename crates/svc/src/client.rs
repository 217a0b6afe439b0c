//! The blocking, pipelining-capable client.
//!
//! [`Client`] wraps one TCP connection. The convenience methods
//! ([`Client::tas`], [`Client::elect`], [`Client::reset`],
//! [`Client::stats`]) are one synchronous round trip each. For
//! pipelining, split the halves yourself: any number of
//! [`Client::send`] calls (or one [`Client::send_batch`], which frames
//! a whole burst into one buffer and ships it with a **single**
//! `write` syscall) followed by the same number of [`Client::recv`]
//! calls — the server answers every connection's frames strictly in
//! request order. Every send is one coalesced write (length prefix and
//! payload together — [`Client::wire_writes`] counts them for the
//! socket-level assertion tests), and `recv` reads in bulk through an
//! incremental [`FrameDecoder`], so a pipelined burst of responses
//! costs one `read` instead of two per frame.
//!
//! The client is deliberately *not* `Sync`: one connection belongs to
//! one thread (the load harness opens a connection per worker), which
//! keeps the hot path free of locks and allocation — both frame
//! buffers are owned and reused.
//!
//! ## Hostile networks
//!
//! [`ClientConfig`] bounds every transport wait: a connect timeout
//! (on by default — a dead address must fail the dial, not hang a
//! fleet spawn), and optional read/write deadlines on the established
//! stream. [`RetryPolicy`] provides bounded, full-jitter exponential
//! backoff for a redial loop; the load harness's one is
//! [`ChaosClient`](crate::chaos::ChaosClient), which drops a connection
//! on any failed request (a transport error, a desynchronized stream,
//! or an `ERR`, which the server sends before it closes a connection,
//! e.g. on an expired read deadline) and re-sends the request on a
//! fresh one. The protocol makes retried work idempotent at the *epoch*
//! level: a reconnected worker re-reads the key's current epoch (its
//! verdicts carry epoch numbers), so a retry rejoins the open epoch
//! rather than colliding with a completed one.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use rtas::sim::rng::SplitMix64;
use rtas_obs::{EventKind, FlightRecorder, Lane};

use crate::conn::FrameDecoder;
use crate::protocol::{
    decode_response, frame_request, frame_request_span, Acquired, Op, Response, SvcStats,
};

/// What went wrong with a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or framing).
    Io(io::Error),
    /// The server refused the request with an `ERR` response.
    Remote(String),
    /// The server answered with a response of the wrong shape — a
    /// protocol bug or a desynchronized pipeline.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Remote(msg) => write!(f, "server refused request: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Transport deadlines for a [`Client`] connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection. The default is
    /// 10 s — `None` restores the OS's (much longer) SYN patience,
    /// which is almost never what a fleet spawn wants.
    pub connect_timeout: Option<Duration>,
    /// Deadline for each blocking read on the established stream
    /// (`None`, the default, waits indefinitely).
    pub read_timeout: Option<Duration>,
    /// Deadline for each blocking write (`None` by default).
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: None,
            write_timeout: None,
        }
    }
}

/// Bounded, full-jitter exponential backoff for reconnect loops.
///
/// Attempt `n` (0-based) sleeps `exp/2 + uniform(0..exp/2)` where
/// `exp = min(cap, base << n)` — the classic "full jitter" scheme that
/// decorrelates a thundering herd of retrying clients while keeping
/// the expected wait growing exponentially.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Redial attempts before giving up.
    pub attempts: u32,
    /// First attempt's nominal backoff.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The sleep before (0-based) `attempt`, jittered by `rng`. Keep
    /// the jitter stream separate from any stream whose draw sequence
    /// must stay deterministic — retries are timing-dependent.
    pub fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let base_ns = self.base.as_nanos().min(u64::MAX as u128) as u64;
        let cap_ns = self.cap.as_nanos().min(u64::MAX as u128) as u64;
        let exp = base_ns
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(cap_ns);
        let half = exp / 2;
        let jitter = if half == 0 { 0 } else { rng.next_below(half) };
        Duration::from_nanos(half + jitter)
    }
}

/// Bytes pulled per `recv`-side `read` call: enough to swallow a whole
/// pipelined burst of responses in one syscall.
const READ_CHUNK: usize = 64 * 1024;

/// One blocking connection to an arbitration server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    decoder: FrameDecoder,
    chunk: Vec<u8>,
    wire_writes: u64,
}

impl Client {
    /// Connect with the default [`ClientConfig`]: a 10 s connect
    /// timeout and `TCP_NODELAY` (so pipelined small frames are not
    /// batched behind Nagle).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit transport deadlines. Each resolved
    /// address is tried in order under `config.connect_timeout`; the
    /// error of the last candidate is returned if all fail.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let mut last_err = None;
        for peer in addr.to_socket_addrs()? {
            match Self::dial(peer, &config) {
                Ok(stream) => {
                    return Ok(Client {
                        stream,
                        out: Vec::new(),
                        decoder: FrameDecoder::new(),
                        chunk: vec![0u8; READ_CHUNK],
                        wire_writes: 0,
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn dial(peer: SocketAddr, config: &ClientConfig) -> io::Result<TcpStream> {
        let stream = match config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&peer, timeout)?,
            None => TcpStream::connect(peer)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(stream)
    }

    /// Whether `TCP_NODELAY` is set on the live stream (it always is —
    /// the socket-level assertion tests check it).
    pub fn nodelay(&self) -> io::Result<bool> {
        self.stream.nodelay()
    }

    /// Transport writes performed so far on this client (every send is
    /// exactly one — the diagnostic behind the single-write framing
    /// assertions).
    pub fn wire_writes(&self) -> u64 {
        self.wire_writes
    }

    /// Write raw bytes where a request frame would go — the chaos
    /// harness's hook for truncated/mutated/duplicated frames. Not a
    /// frame: no length header is added and nothing is validated.
    pub fn inject_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.wire_writes += 1;
        self.stream.write_all(bytes)
    }

    /// Pipeline half 1: write one request frame without waiting —
    /// length prefix and payload coalesced into a single `write`.
    pub fn send(&mut self, op: Op, key: &[u8]) -> io::Result<()> {
        self.send_span(op, 0, key)
    }

    /// [`Client::send`] with a wire trace context: a nonzero `span`
    /// rides the frame's trace extension and the server echoes it on
    /// the response (span 0 sends an ordinary untraced frame).
    pub fn send_span(&mut self, op: Op, span: u64, key: &[u8]) -> io::Result<()> {
        self.out.clear();
        frame_request_span(op, span, key, &mut self.out);
        self.wire_writes += 1;
        self.stream.write_all(&self.out)
    }

    /// Pipeline a whole burst: frame every request into one reused
    /// buffer and ship the lot with a **single** `write` syscall. The
    /// caller then issues one [`Client::recv`] per request, in order.
    pub fn send_batch(&mut self, reqs: &[(Op, &[u8])]) -> io::Result<()> {
        self.out.clear();
        for &(op, key) in reqs {
            frame_request(op, key, &mut self.out);
        }
        self.wire_writes += 1;
        self.stream.write_all(&self.out)
    }

    /// [`Client::send_batch`] with a per-request trace context (span 0
    /// entries go untraced). Still a single `write` syscall.
    pub fn send_batch_span(&mut self, reqs: &[(Op, u64, &[u8])]) -> io::Result<()> {
        self.out.clear();
        for &(op, span, key) in reqs {
            frame_request_span(op, span, key, &mut self.out);
        }
        self.wire_writes += 1;
        self.stream.write_all(&self.out)
    }

    /// Probe whether the server understands the wire trace extension:
    /// one traced `STATS` round trip. A server that predates the
    /// extension rejects the flagged opcode with an `ERR` over a
    /// healthy connection — that is the negotiation, so `Ok(false)`
    /// means "talk untraced", not a failure. Call once at setup, then
    /// stamp spans only when this returned `Ok(true)`.
    pub fn probe_trace(&mut self) -> Result<bool, ClientError> {
        self.send_span(Op::Stats, 1, b"")?;
        match self.recv()? {
            Response::Stats(_) => Ok(true),
            Response::Err(_) => Ok(false),
            other => Err(ClientError::Protocol(format!(
                "trace probe expected stats or an error, got {other:?}"
            ))),
        }
    }

    /// Pipeline half 2: read the next response frame, in request order.
    ///
    /// Reads are bulk: one `read` pulls whatever burst of responses
    /// the server coalesced, and subsequent `recv` calls drain the
    /// buffer without touching the socket.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(decode_response(payload)?);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(if self.decoder.has_partial() {
                        ClientError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "truncated frame",
                        ))
                    } else {
                        ClientError::Protocol(
                            "connection closed while awaiting a response".to_string(),
                        )
                    })
                }
                Ok(n) => {
                    let (chunk, decoder) = (&self.chunk, &mut self.decoder);
                    decoder.push(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn expect_acquired(&mut self) -> Result<Acquired, ClientError> {
        match self.recv()? {
            Response::Acquired(a) => Ok(a),
            Response::Err(msg) => Err(ClientError::Remote(msg)),
            other => Err(ClientError::Protocol(format!(
                "expected an arbitration verdict, got {other:?}"
            ))),
        }
    }

    /// Test-and-set on `key`: one round trip.
    pub fn tas(&mut self, key: &[u8]) -> Result<Acquired, ClientError> {
        self.send(Op::Tas, key)?;
        self.expect_acquired()
    }

    /// Leader election on `key`: one round trip.
    pub fn elect(&mut self, key: &[u8]) -> Result<Acquired, ClientError> {
        self.send(Op::Elect, key)?;
        self.expect_acquired()
    }

    /// Recycle `key` for its next epoch; returns the newly opened epoch
    /// (0 when the key did not exist).
    pub fn reset(&mut self, key: &[u8]) -> Result<u64, ClientError> {
        self.send(Op::Reset, key)?;
        match self.recv()? {
            Response::Reset { epoch } => Ok(epoch),
            Response::Err(msg) => Err(ClientError::Remote(msg)),
            other => Err(ClientError::Protocol(format!(
                "expected a reset ack, got {other:?}"
            ))),
        }
    }

    /// Server-wide counters.
    pub fn stats(&mut self) -> Result<SvcStats, ClientError> {
        self.send(Op::Stats, b"")?;
        match self.recv()? {
            Response::Stats(stats) => Ok(stats),
            Response::Err(msg) => Err(ClientError::Remote(msg)),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// The server's metrics exposition (the `METRICS` op): the
    /// versioned `rtas-metrics/2` text with `svc.*` counters, reactor
    /// instruments, and per-stage latency histograms. Parse it with
    /// [`rtas_obs::parse_metrics`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(Op::Metrics, b"")?;
        match self.recv()? {
            Response::Metrics(text) => Ok(text),
            Response::Err(msg) => Err(ClientError::Remote(msg)),
            other => Err(ClientError::Protocol(format!(
                "expected a metrics exposition, got {other:?}"
            ))),
        }
    }
}

/// Client-side span bookkeeping for one load-generator connection:
/// mints wire span ids and records the matching
/// [`ClientSpan`](EventKind::ClientSpan) events into the client tier's
/// own [`FlightRecorder`], on the lane of the worker that owns the
/// connection.
///
/// Span ids must be unique across the whole client process for the
/// merge join to be unambiguous, and minting must never draw from any
/// seeded fault/jitter stream (tracing cannot perturb a deterministic
/// chaos schedule). Both fall out of plain arithmetic: connection
/// `conn` owns the id range `(conn + 1) << 40 | seq` — 2^24
/// connections, 2^40 requests each, and never span 0 because
/// `conn + 1 > 0`.
///
/// Retried sends must mint a **fresh** span per wire attempt — a span
/// id names one frame, not one logical operation — which is what keeps
/// "at most one server span per client span" true under chaos retries.
#[derive(Debug, Clone)]
pub struct ClientTracer {
    recorder: Arc<FlightRecorder>,
    lane: Lane,
    base: u64,
    seq: u64,
}

impl ClientTracer {
    /// A tracer for connection `conn` of worker `worker`, recording
    /// onto the client recorder's `Worker(worker)` lane.
    pub fn new(recorder: Arc<FlightRecorder>, worker: usize, conn: u64) -> ClientTracer {
        ClientTracer {
            recorder,
            lane: Lane::Worker(worker),
            base: (conn + 1) << 40,
            seq: 0,
        }
    }

    /// Whether recording is live (the recorder's mode is not `off`).
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Mint the next span id for this connection (never 0).
    pub fn mint(&mut self) -> u64 {
        self.seq += 1;
        self.base | (self.seq & 0xff_ffff_ffff)
    }

    /// Nanoseconds on the client recorder's clock.
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// Record a completed round trip: one `ClientSpan` event carrying
    /// the opcode, the span id, and the send→decoded duration.
    pub fn record(&self, op: Op, span: u64, rtt_ns: u64) {
        self.recorder.record(
            self.lane,
            EventKind::ClientSpan,
            u32::from(op.code()),
            span,
            rtt_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_obs::TraceMode;

    #[test]
    fn tracer_spans_are_unique_across_connections_and_never_zero() {
        let recorder = Arc::new(FlightRecorder::new(TraceMode::On, 4));
        // Two connections of one worker: one lane, disjoint span ids.
        let mut a = ClientTracer::new(Arc::clone(&recorder), 0, 0);
        let mut b = ClientTracer::new(Arc::clone(&recorder), 0, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(a.mint()));
            assert!(seen.insert(b.mint()));
        }
        assert!(!seen.contains(&0));
        assert!(a.enabled());
    }

    #[test]
    fn tracer_records_client_spans_on_its_worker_lane() {
        let recorder = Arc::new(FlightRecorder::new(TraceMode::On, 2));
        let mut tracer = ClientTracer::new(Arc::clone(&recorder), 1, 5);
        let span = tracer.mint();
        tracer.record(Op::Tas, span, 12_345);
        let events = recorder.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::ClientSpan as u32);
        assert_eq!(events[0].lane, 3); // worker 1 = lane 2 + 1
        assert_eq!(events[0].a, u32::from(Op::Tas.code()));
        assert_eq!(events[0].b, span);
        assert_eq!(events[0].c, 12_345);
    }
}
