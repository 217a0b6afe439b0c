//! The std-only TCP server: one bound listener feeding the
//! readiness-driven [reactor](crate::reactor), frames served strictly
//! in order.
//!
//! The [`SvcConfig::workers`] reactor workers accept in their own event
//! loops, passing the nonblocking listener from one worker to the next
//! after each accept, and each multiplexes thousands of nonblocking
//! connections over one epoll instance. The reactor needs the syscall
//! shim of Linux on x86_64 or aarch64; on any other target
//! [`Server::spawn`] fails with [`io::ErrorKind::Unsupported`].
//!
//! Every accepted socket passes one admission policy, and a connection
//! is a [`Connection`](crate::Connection) state machine — a reusable
//! [`rtas::native::NativeRunner`] plus reusable frame buffers — so the
//! steady-state request path performs no allocation at all, leases and
//! read deadlines included (see `tests/alloc_steady.rs` and
//! `tests/alloc_reactor.rs`). Requests on one connection are executed
//! and answered **in order**, which is what makes client-side
//! pipelining sound.
//!
//! Each server timeout has one trigger and no thread of its own: a
//! lease is checked by the key's next arrival (see
//! [`Namespace::with_lease`]), and a read deadline by the worker's slab
//! sweep.
//!
//! I/O is bulk: one large `read` ingests a whole pipelined burst, the
//! connection decodes and executes every complete frame in it, and
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

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use rtas::Backend;
use rtas_obs::{FlightRecorder, TraceMode};

use crate::conn::ConnGauges;
use crate::metrics::SvcMetrics;
use crate::namespace::Namespace;
use crate::reactor::{Engine, ReactorPool};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Namespace shards (independent key tables + creation locks).
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
    /// `ERR` and closed, so a stalled client cannot pin a slab slot
    /// forever. The reactor checks deadlines in sweeps over a worker's
    /// slab, at most one per `timeout / 32` (at least 1 ms), so a
    /// deadline fires at most about that late. `None` (the default)
    /// waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Ceiling on concurrently served connections — the server's
    /// memory bound. A connection accepted at the ceiling is answered
    /// with a best-effort `ERR` naming the limit and closed
    /// immediately; refusals are counted in the `STATS` gauges.
    pub max_conns: usize,
    /// The serving engine: always [`Engine::Epoll`], the only one.
    /// Nothing reads it; it is kept for callers that print it.
    pub engine: Engine,
    /// Reactor worker threads. Defaults to available parallelism
    /// capped at [`DEFAULT_MAX_WORKERS`].
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

/// Default [`SvcConfig::max_conns`]: low enough that an accept storm
/// cannot exhaust memory or descriptors. It also bounds a worker's
/// slab, and with it the length of one read-deadline sweep.
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
            engine: Engine::Epoll,
            workers: default_workers(),
            trace: TraceMode::Off,
        }
    }
}

/// What every reactor worker shares: the arbitrated namespace, the
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

/// A running arbitration server. Dropping the handle does **not** stop
/// the server; call [`Server::shutdown`] (tests, examples) or
/// [`Server::join`] (the `rtas-svc serve` CLI).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Shared,
    pool: ReactorPool,
}

impl Server {
    /// Bind `config.addr` and start the reactor workers.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound, if the workers' epoll
    /// sets cannot be built, or — off Linux x86_64/aarch64, where the
    /// reactor's syscall shim does not exist — with
    /// [`io::ErrorKind::Unsupported`].
    pub fn spawn(config: SvcConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // One flight-recorder lane and one metrics gauge per worker.
        let workers = config.workers.max(1);
        let recorder = Arc::new(FlightRecorder::new(config.trace, workers));
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
            metrics: Arc::new(SvcMetrics::new(workers)),
            recorder,
            read_timeout: config.read_timeout,
            max_conns: config.max_conns.max(1),
        };
        let pool = ReactorPool::spawn(listener, workers, &shared)?;
        Ok(Server { addr, shared, pool })
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

    /// Stop accepting and wait for the reactor workers, which close
    /// every live connection on the way out.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }

    /// Block on the reactor workers forever (the `serve` CLI path).
    pub fn join(self) {
        self.pool.join();
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
