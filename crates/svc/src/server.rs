//! The std-only TCP server: one bound listener feeding either the
//! readiness-driven reactor (default) or one handler thread per
//! connection, frames served strictly in order.
//!
//! What accepts a connection depends on [`SvcConfig::engine`]:
//!
//! * [`Engine::Epoll`] (the default where the
//!   [reactor](crate::reactor)'s syscall shim exists): the
//!   [`SvcConfig::workers`] reactor workers accept in their own event
//!   loops, passing the nonblocking listener from one worker to the
//!   next after each accept, and each multiplexes thousands of
//!   nonblocking connections over one epoll instance.
//! * [`Engine::Threads`]: the original design — one blocking accept
//!   thread, and each connection gets its own blocking handler thread.
//!   Kept as the portable fallback and as the behavioral reference.
//!
//! Either way every accepted socket passes the same admission policy
//! (`Shared::admit`), and a connection is a [`Connection`] state
//! machine — a reusable [`rtas::native::NativeRunner`] plus reusable
//! frame buffers — so the steady-state request path performs no
//! allocation at all, leases and read deadlines included (see
//! `tests/alloc_steady.rs` and `tests/alloc_reactor.rs`). Requests on
//! one connection are executed and answered **in order**, which is what
//! makes client-side pipelining sound.
//!
//! Each server timeout has one trigger and no thread of its own: a
//! lease is checked by the key's next arrival (see
//! [`Namespace::with_lease`]), and a read deadline by the socket read
//! timeout (threads engine) or the worker's slab sweep (reactor).
//!
//! I/O is bulk: one large `read` ingests a whole pipelined burst, the
//! [`Connection`] decodes and executes every complete frame in it, and
//! all of the burst's responses are flushed with a single coalesced
//! write — one read + one write per burst instead of 2 reads + 1 write
//! per frame.
//!
//! Error policy, matching the [protocol docs](crate::protocol):
//! framing violations (oversized declared length, truncation) get a
//! best-effort `ERR` frame and the connection is closed; clean frames
//! carrying a bad request (unknown opcode, empty key, kind mismatch)
//! get an `ERR` response and the connection stays usable.
//!
//! Admission is bounded: at most [`SvcConfig::max_conns`] connections
//! are served concurrently; one beyond the ceiling gets a best-effort
//! `ERR` frame and an immediate close, and the refusal is counted in
//! the `STATS` gauges ([`crate::protocol::SvcStats::conns`] /
//! [`refused`](crate::protocol::SvcStats::refused)).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rtas::Backend;
use rtas_obs::{EventKind, FlightRecorder, Lane, TraceMode};

use crate::conn::{ConnGauges, ConnObs, ConnStatus, Connection};
use crate::metrics::SvcMetrics;
use crate::namespace::Namespace;
use crate::protocol::{frame_response, Response};
use crate::reactor::{Engine, ReactorPool};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Namespace shards (independent key maps + locks).
    pub shards: usize,
    /// Participants admitted per key-epoch.
    pub capacity: usize,
    /// Algorithm backing every keyed object.
    pub backend: Backend,
    /// Ceiling on live keys across all shards — first contact beyond it
    /// is refused, bounding server memory against key-churning clients
    /// (see [`Namespace::with_max_keys`]).
    pub max_keys: usize,
    /// Admission lease: when `Some`, an epoch whose holder never acks
    /// `RESET` is retired by the first arrival on its key after the
    /// lease expires, and that arrival is admitted into the fresh epoch
    /// (see [`Namespace::with_lease`]). `None` (the default) disables
    /// reclamation entirely.
    pub lease: Option<Duration>,
    /// Per-connection read deadline: a connection idle (or stalled
    /// mid-frame) past this duration is answered with a best-effort
    /// `ERR` and closed, so a stalled client cannot pin a handler
    /// thread or a slab slot forever. The reactor checks deadlines in
    /// sweeps over a worker's slab, at most one per `timeout / 32` (at
    /// least 1 ms), so a deadline fires at most about that late. `None`
    /// (the default) waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Ceiling on concurrently served connections — the memory bound
    /// for the `epoll` engine and the thread bound for the threads
    /// engine. A connection accepted at the ceiling is answered with a
    /// best-effort `ERR` naming the limit and closed immediately;
    /// refusals are counted in the `STATS` gauges.
    pub max_conns: usize,
    /// Connection-serving engine (see [`Engine`]). Defaults to
    /// [`Engine::auto`]: `epoll` where the reactor's syscall shim
    /// exists, `threads` elsewhere.
    pub engine: Engine,
    /// Reactor worker threads ([`Engine::Epoll`] only; the threads
    /// engine ignores it). Defaults to available parallelism capped at
    /// [`DEFAULT_MAX_WORKERS`].
    pub workers: usize,
    /// Flight-recorder mode (`--trace on|off|sampled:<n>`). `Off` (the
    /// default) allocates no ring storage and records nothing; the
    /// metrics plane stays on regardless — its instruments are plain
    /// atomics.
    pub trace: TraceMode,
}

/// Cap on the default [`SvcConfig::workers`]: beyond a handful of
/// workers the namespace shards, not the event loops, are the
/// bottleneck, and idle workers still cost a thread and an epoll set.
pub const DEFAULT_MAX_WORKERS: usize = 8;

/// The default [`SvcConfig::workers`]: available parallelism, capped
/// at [`DEFAULT_MAX_WORKERS`].
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(DEFAULT_MAX_WORKERS)
}

/// Default [`SvcConfig::max_conns`]: far above any load the threads
/// engine is meant for, low enough that an accept storm cannot exhaust
/// process threads or memory. Under the reactor it also bounds a
/// worker's slab, and with it the length of one read-deadline sweep.
pub const DEFAULT_MAX_CONNS: usize = 1024;

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 8,
            capacity: 64,
            backend: Backend::Combined,
            max_keys: crate::namespace::DEFAULT_MAX_KEYS,
            lease: None,
            read_timeout: None,
            max_conns: DEFAULT_MAX_CONNS,
            engine: Engine::auto(),
            workers: default_workers(),
            trace: TraceMode::Off,
        }
    }
}

/// How long accepting pauses after an accept error other than
/// `WouldBlock`/`Interrupted` (EMFILE under fd exhaustion, say), so a
/// persistent failure cannot hot-loop a core while connections that
/// would free descriptors wait to be served.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// What every serving thread shares: the arbitrated namespace, the
/// connection gauges, the metrics plane, the flight recorder, and the
/// per-connection limits.
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    pub(crate) namespace: Arc<Namespace>,
    pub(crate) gauges: Arc<ConnGauges>,
    pub(crate) metrics: Arc<SvcMetrics>,
    pub(crate) recorder: Arc<FlightRecorder>,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) max_conns: usize,
}

impl Shared {
    /// The admission policy both engines run on every accepted socket:
    /// claim a `max_conns` slot, or — over the ceiling — undo the
    /// claim, name the limit best-effort, and hang up, without spending
    /// a thread or a worker slot on the refusal. An admitted stream
    /// comes back with its slot claimed; whoever serves it releases the
    /// slot with [`ConnGauges::disconnected`].
    pub(crate) fn admit(&self, mut stream: TcpStream) -> Option<TcpStream> {
        let live = self.gauges.connected();
        if live > self.max_conns as u64 {
            self.gauges.disconnected();
            self.gauges.refuse();
            self.recorder.record(
                Lane::Accept,
                EventKind::AdmissionRefusal,
                (live - 1) as u32,
                0,
                0,
            );
            let mut out = Vec::new();
            frame_response(
                &Response::Err(format!(
                    "connection refused: server is at its {}-connection limit",
                    self.max_conns
                )),
                &mut out,
            );
            // Nonblocking first: a peer that never reads must not
            // stall the thread that accepted it.
            let _ = stream.set_nonblocking(true);
            let _ = stream.write_all(&out);
            return None;
        }
        self.recorder
            .record(Lane::Accept, EventKind::Accept, live as u32, 0, 0);
        Some(stream)
    }
}

/// What accepts and serves connections, per [`SvcConfig::engine`].
#[derive(Debug)]
enum Serving {
    /// Reactor workers, each accepting in its own event loop.
    Reactor(ReactorPool),
    /// The threads engine's blocking accept thread.
    Threads(JoinHandle<()>),
}

/// A running arbitration server. Dropping the handle does **not** stop
/// the server; call [`Server::shutdown`] (tests, examples) or
/// [`Server::join`] (the `rtas-svc serve` CLI).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Shared,
    stop: Arc<AtomicBool>,
    serving: Serving,
}

impl Server {
    /// Bind `config.addr` and start serving: the reactor workers, or
    /// the threads engine's accept thread.
    pub fn spawn(config: SvcConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // One lane per reactor worker; the threads engine has no
        // workers, so its per-connection events share the accept lane.
        let worker_lanes = match config.engine {
            Engine::Epoll => config.workers.max(1),
            Engine::Threads => 0,
        };
        let recorder = Arc::new(FlightRecorder::new(config.trace, worker_lanes));
        let mut namespace = Namespace::with_lease(
            config.backend,
            config.shards,
            config.capacity,
            config.max_keys,
            config.lease,
        );
        // The namespace adopts the recorder's clock so lease deadlines
        // and trace timestamps share one origin.
        namespace.attach_recorder(Arc::clone(&recorder));
        let shared = Shared {
            namespace: Arc::new(namespace),
            gauges: Arc::new(ConnGauges::default()),
            metrics: Arc::new(SvcMetrics::new(worker_lanes)),
            recorder,
            read_timeout: config.read_timeout,
            max_conns: config.max_conns.max(1),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let serving = match config.engine {
            Engine::Epoll => {
                Serving::Reactor(ReactorPool::spawn(listener, config.workers, &shared)?)
            }
            Engine::Threads => {
                let shared = shared.clone();
                let stop = Arc::clone(&stop);
                Serving::Threads(std::thread::spawn(move || {
                    accept_loop(&listener, &shared, &stop)
                }))
            }
        };
        Ok(Server {
            addr,
            shared,
            stop,
            serving,
        })
    }

    /// The bound address (the actual port when the config asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The namespace the server arbitrates — in-process callers (tests,
    /// examples) can inspect stats or drive keys directly.
    pub fn namespace(&self) -> &Arc<Namespace> {
        &self.shared.namespace
    }

    /// The connection gauges (live / refused counts) — what a wire
    /// `STATS` reports in its last two fields.
    pub fn gauges(&self) -> &Arc<ConnGauges> {
        &self.shared.gauges
    }

    /// The metrics plane the `METRICS` wire op renders — in-process
    /// callers can read the instruments directly.
    pub fn metrics(&self) -> &Arc<SvcMetrics> {
        &self.shared.metrics
    }

    /// The flight recorder behind [`SvcConfig::trace`]. Disabled
    /// (`--trace off`) it records nothing and dumps empty lanes.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// Dump the flight recorder's current ring contents to `path` in
    /// the `RTASTRC1` format (decode with `rtas-trace dump`).
    /// Lossy by construction: each lane holds its most recent events.
    pub fn dump_trace(&self, path: &std::path::Path) -> io::Result<()> {
        self.shared.recorder.dump_to_file(path)
    }

    /// Stop accepting and wait for the serving threads. Under the
    /// `epoll` engine the workers close every live connection on the
    /// way out; under the threads engine, established connections keep
    /// being served until their clients disconnect.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        match self.serving {
            Serving::Reactor(pool) => pool.shutdown(),
            Serving::Threads(accepter) => {
                // One wake-up connection: the accept thread checks the
                // flag right after `accept` returns.
                let _ = TcpStream::connect(self.addr);
                let _ = accepter.join();
            }
        }
    }

    /// Block on the serving threads forever (the `serve` CLI path):
    /// the reactor workers, or the threads engine's accept thread.
    pub fn join(self) {
        match self.serving {
            Serving::Reactor(pool) => pool.join(),
            Serving::Threads(accepter) => {
                let _ = accepter.join();
            }
        }
    }
}

/// The threads engine's accept loop: blocking `accept`, the shared
/// admission policy, then one handler thread per admitted connection.
fn accept_loop(listener: &TcpListener, shared: &Shared, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if stop.load(Ordering::SeqCst) => return,
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Some(stream) = shared.admit(stream) else {
            continue;
        };
        let shared = shared.clone();
        std::thread::spawn(move || {
            // The slot is released however the handler exits — clean
            // EOF, poisoned stream, or a panic unwinding through it.
            struct SlotGuard(Arc<ConnGauges>);
            impl Drop for SlotGuard {
                fn drop(&mut self) {
                    self.0.disconnected();
                }
            }
            let _guard = SlotGuard(Arc::clone(&shared.gauges));
            handle_connection(stream, &shared);
        });
    }
}

/// Bytes ingested per `read` call: large enough to swallow a whole
/// pipelined burst (hundreds of requests) in one syscall.
const READ_CHUNK: usize = 64 * 1024;

/// Serve one connection until EOF, a framing violation, or a read
/// deadline expiry — bulk reads in, one coalesced write per burst out.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Responses are flushed in one coalesced write per burst; batching
    // that write behind Nagle would still serialize pipelined round
    // trips, so the burst must leave immediately.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.read_timeout);
    // The threads engine has no worker lanes; its per-frame events
    // share the accept lane.
    let obs = ConnObs {
        recorder: &shared.recorder,
        metrics: &shared.metrics,
        lane: Lane::Accept,
    };
    let mut conn = Connection::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // EOF (mid-frame truncation closes silently)
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                // Deadline expiry on a live stream: name it, then hang
                // up — a stalled client must not pin this thread.
                let mut out = Vec::new();
                frame_response(
                    &Response::Err("read deadline expired".to_string()),
                    &mut out,
                );
                let _ = stream.write_all(&out);
                return;
            }
            Err(_) => return,
        };
        match conn.ingest_obs(&chunk[..n], &shared.namespace, &shared.gauges, Some(&obs)) {
            ConnStatus::Open => {
                if !conn.output().is_empty() {
                    let flushed = stream.write_all(conn.output());
                    conn.clear_output();
                    if flushed.is_err() {
                        return;
                    }
                }
            }
            ConnStatus::Closed => {
                // Framing violation: flush the burst's responses plus
                // the trailing ERR best-effort, then hang up.
                let _ = stream.write_all(conn.output());
                return;
            }
        }
    }
}

/// Spawn a server on a loopback port chosen by the OS — the one-liner
/// for tests and in-process use.
pub fn spawn_local(backend: Backend, shards: usize, capacity: usize) -> io::Result<Server> {
    Server::spawn(SvcConfig {
        shards,
        capacity,
        backend,
        ..SvcConfig::default()
    })
}
