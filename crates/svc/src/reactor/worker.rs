//! The reactor worker: one thread, one epoll set, many connections.
//!
//! Each worker owns an epoll instance and a slab of [`ConnSlot`]s
//! indexed by the epoll token. Two more tokens sit beside the
//! connections: the listener, which is in exactly one worker's set at a
//! time and moves to the next worker's set after each admitted
//! connection, and the pool's stop socket, which is in every set.
//!
//! The loop body is: wait for readiness → accept (if this worker holds
//! the listener) and serve ready connections → sweep the slab for read
//! deadlines when the sweep is due.
//! Serving a readable connection reads until `WouldBlock`
//! (level-triggered interest makes stopping early safe), feeds every
//! chunk to the [`Connection`] state machine, then flushes its
//! coalesced output buffer. A partial write leaves `write_pos` carried
//! across wakeups and turns on write interest — per-connection
//! backpressure without threads. Interest is downgraded back to
//! read-only the moment the buffer drains, so an idle connection costs
//! nothing but its slot.
//!
//! Read deadlines need no per-connection timer. Every read stamps the
//! slot's `last_activity`, and one `next_sweep` instant per worker says
//! when to look: the sweep walks the slab once, closes every connection
//! idle past `last_activity + read_timeout`, and schedules the next
//! sweep at the earliest remaining deadline, but no sooner than
//! [`sweep_tick`] after this one. Activity only moves a deadline
//! later, and a new connection's deadline lies a full timeout out, so
//! no deadline is ever earlier than the scheduled sweep; a deadline
//! fires at most one tick (plus the wait's 1 ms rounding) late, and a
//! worker sweeps at most `timeout / tick` = 32 times per timeout.
//!
//! An accept error other than `WouldBlock`/`Interrupted` (EMFILE under
//! fd exhaustion, say) takes the level-triggered listener out of the
//! set, so it cannot report itself ready in a hot loop; the worker
//! re-adds it once [`ACCEPT_BACKOFF`] has passed, folded into its wait
//! timeout.
//!
//! Lifecycle edges (`tests/wire.rs` pins them): a poisoned stream
//! (framing violation) drains its pending `ERR` before closing; EOF
//! closes silently but only after buffered responses flush; a
//! read-deadline expiry answers best-effort `ERR "read deadline
//! expired"` and closes; every close releases its `max_conns` slot via
//! [`ConnGauges::disconnected`](crate::ConnGauges::disconnected).
//!
//! Steady state allocates nothing: the read chunk, event buffer, slab,
//! and each connection's decoder and output buffers are all reused, and
//! a sweep only reads the slab (`tests/alloc_reactor.rs` enforces this
//! end to end).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtas_obs::{EventKind, Lane};

use crate::conn::{ConnObs, ConnStatus, Connection};
use crate::protocol::{frame_response, Response};
use crate::reactor::sys::{self, EpollFd};
use crate::server::Shared;

/// Epoll token of the pool's stop socket.
const STOP_TOKEN: u64 = u64::MAX;

/// Epoll token of the listener.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Bytes ingested per `read` call: one syscall swallows a whole
/// pipelined burst.
const READ_CHUNK: usize = 64 * 1024;

/// Readiness events decoded per wait; also the epoll event-buffer
/// capacity. More ready connections than this simply surface on the
/// next (immediate) wait.
const EVENTS_PER_WAIT: usize = 1024;

/// The shutdown wake-up: one byte written into the first end makes the
/// second end readable, and the second end sits in every worker's
/// epoll set, never drained. The pool and every worker hold the pair,
/// so neither end closes — which would silently drop it from the sets
/// — while a worker still waits on it.
type StopPair = Arc<(UnixStream, UnixStream)>;

/// How long accepting pauses after an accept error other than
/// `WouldBlock`/`Interrupted` (EMFILE under fd exhaustion, say), so a
/// persistent failure cannot hot-loop a core while connections that
/// would free descriptors wait to be served.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A running worker pool — what `Server` holds.
#[derive(Debug)]
pub(crate) struct ReactorPool {
    stop: StopPair,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorPool {
    /// Start `workers` reactor workers accepting from `listener`.
    /// Every epoll set is built and registered before any thread
    /// starts, so a failure (fd pressure) leaves nothing running.
    ///
    /// The listener's backlog is widened to the kernel's ceiling first:
    /// a burst of thousands of connects (the C10K recipe) would
    /// otherwise overflow std's 128-deep accept queue and leave most of
    /// its clients waiting on SYN retransmits.
    pub(crate) fn spawn(
        listener: TcpListener,
        workers: usize,
        shared: &Shared,
    ) -> io::Result<ReactorPool> {
        sys::listen(listener.as_raw_fd(), sys::LISTEN_BACKLOG)?;
        listener.set_nonblocking(true)?;
        let stop: StopPair = Arc::new(UnixStream::pair()?);
        let polls = (0..workers.max(1))
            .map(|_| {
                let ep = EpollFd::new()?;
                ep.ctl(
                    sys::EPOLL_CTL_ADD,
                    stop.1.as_raw_fd(),
                    sys::EPOLLIN,
                    STOP_TOKEN,
                )?;
                Ok(ep)
            })
            .collect::<io::Result<Vec<_>>>()?;
        polls[0].ctl(
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            sys::EPOLLIN,
            LISTEN_TOKEN,
        )?;
        let polls: Arc<[EpollFd]> = polls.into();
        let listener = Arc::new(listener);
        let workers = (0..polls.len())
            .map(|index| {
                let worker = Worker::new(
                    index,
                    Arc::clone(&polls),
                    Arc::clone(&listener),
                    Arc::clone(&stop),
                    shared.clone(),
                );
                std::thread::spawn(move || worker.run())
            })
            .collect();
        Ok(ReactorPool { stop, workers })
    }

    /// Wake every worker through the stop socket and join them;
    /// workers close their connections on exit.
    pub(crate) fn shutdown(self) {
        let _ = (&self.stop.0).write_all(&[1]);
        self.join();
    }

    /// Wait for the workers (they exit only on shutdown).
    pub(crate) fn join(self) {
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// One served connection's reactor-side state: the socket, the
/// protocol state machine, and the write-backpressure cursor.
#[derive(Debug)]
struct ConnSlot {
    stream: TcpStream,
    conn: Connection,
    /// First unwritten byte of `conn.output()` — the partial-write
    /// carryover. Nonzero only while write interest is on.
    write_pos: usize,
    /// Registered read interest (off once draining).
    want_read: bool,
    /// Registered write interest (on only while output is unflushed).
    want_write: bool,
    /// No more ingest — flush what remains, then close. Set by a
    /// framing poison or by EOF with responses still buffered.
    draining: bool,
    /// Refreshed on every successful read; the deadline sweep closes
    /// the connection once `last_activity + read_timeout` has passed.
    last_activity: Instant,
}

/// What the sockets said a connection should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
}

/// Everything one worker thread owns. Built on the spawning thread,
/// then moved.
#[derive(Debug)]
struct Worker {
    /// This worker's position in the pool — its epoll set is
    /// `polls[index]`, and it selects the flight-recorder lane and the
    /// `reactor.worker<k>.*` gauges.
    index: usize,
    /// Every worker's epoll set: passing the listener on is an
    /// `epoll_ctl` on the next worker's set.
    polls: Arc<[EpollFd]>,
    events: Vec<sys::EpollEvent>,
    listener: Arc<TcpListener>,
    /// Set while accepting is paused after an accept error: the
    /// listener is out of every set until this worker re-adds it to
    /// its own at this instant.
    accept_resume: Option<Instant>,
    /// Held only to keep the stop socket open (see [`StopPair`]).
    _stop: StopPair,
    shared: Shared,
    /// Serve calls on this worker — the sequence the read/write stage
    /// sampling gate runs on (per-frame stages sample on the
    /// connection's own frame counter instead).
    serves: u64,
    /// When the next read-deadline sweep is due: `None` without a read
    /// timeout, or while the slab held no connection at the last sweep.
    next_sweep: Option<Instant>,
    slab: Vec<Option<ConnSlot>>,
    /// Free slab indices, reused LIFO.
    free: Vec<usize>,
    chunk: Vec<u8>,
    /// The pre-framed deadline-expiry `ERR`, written best-effort.
    deadline_err: Vec<u8>,
}

/// The shortest gap between two read-deadline sweeps: `timeout / 32`,
/// at least 1 ms — what bounds both a deadline's lateness and the
/// sweeps per timeout.
fn sweep_tick(timeout: Duration) -> Duration {
    (timeout / 32).max(Duration::from_millis(1))
}

/// Epoll interest bits for a connection.
fn interest(read: bool, write: bool) -> u32 {
    let mut bits = 0;
    if read {
        bits |= sys::EPOLLIN;
    }
    if write {
        bits |= sys::EPOLLOUT;
    }
    bits
}

impl Worker {
    fn new(
        index: usize,
        polls: Arc<[EpollFd]>,
        listener: Arc<TcpListener>,
        stop: StopPair,
        shared: Shared,
    ) -> Worker {
        let mut deadline_err = Vec::new();
        frame_response(
            &Response::Err("read deadline expired".to_string()),
            &mut deadline_err,
        );
        Worker {
            index,
            polls,
            events: Vec::with_capacity(EVENTS_PER_WAIT),
            listener,
            accept_resume: None,
            _stop: stop,
            shared,
            serves: 0,
            next_sweep: None,
            slab: Vec::new(),
            free: Vec::new(),
            chunk: vec![0u8; READ_CHUNK],
            deadline_err,
        }
    }

    /// This worker's own epoll set.
    fn epoll(&self) -> &EpollFd {
        &self.polls[self.index]
    }

    /// The event loop; returns once the stop socket turns readable.
    fn run(mut self) {
        loop {
            let now = Instant::now();
            let timeout_ms = match [self.next_sweep, self.accept_resume]
                .into_iter()
                .flatten()
                .min()
                .map(|at| at.saturating_duration_since(now))
            {
                // Ceil to a whole ms so a deadline 0.3ms out doesn't
                // busy-spin on zero-timeout waits.
                Some(d) => i32::try_from(d.as_millis().saturating_add(1)).unwrap_or(i32::MAX),
                None => -1,
            };
            match self.polls[self.index].wait(&mut self.events, timeout_ms) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // A failed wait (e.g. fd pressure) must not hot-loop.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
            if !self.events.is_empty() {
                self.shared.recorder.record(
                    Lane::Worker(self.index),
                    EventKind::ReadinessWakeup,
                    self.events.len() as u32,
                    0,
                    0,
                );
            }
            for at in 0..self.events.len() {
                let sys::EpollEvent {
                    events: bits,
                    data: token,
                } = self.events[at];
                match token {
                    STOP_TOKEN => {
                        self.teardown();
                        return;
                    }
                    LISTEN_TOKEN => self.accept(),
                    // Error and hangup conditions count as readable so
                    // the next read discovers and classifies them.
                    _ => self.serve(
                        token as usize,
                        bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    ),
                }
            }
            self.resume_accepting();
            self.sweep_deadlines();
        }
    }

    /// Accept one connection off the listener this worker holds. An
    /// admitted connection gets a slot here, and the listener moves on
    /// to the next worker's set, so connections round-robin across the
    /// pool; a refused one leaves the listener where it is.
    fn accept(&mut self) {
        match self.listener.accept() {
            Ok((stream, _)) => {
                if let Some(stream) = self.admit(stream) {
                    self.register(stream);
                    self.pass_listener();
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                let _ = self
                    .epoll()
                    .ctl(sys::EPOLL_CTL_DEL, self.listener.as_raw_fd(), 0, 0);
                self.accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
            }
        }
    }

    /// The admission policy every accepted socket passes: claim a
    /// `max_conns` slot, or — over the ceiling — undo the claim, name
    /// the limit best-effort, and hang up, without spending a slab slot
    /// on the refusal. An admitted stream comes back with its slot
    /// claimed; [`Worker::close`] releases it.
    fn admit(&self, mut stream: TcpStream) -> Option<TcpStream> {
        let shared = &self.shared;
        let live = shared.gauges.connected();
        if live > shared.max_conns as u64 {
            shared.gauges.disconnected();
            shared.gauges.refuse();
            shared.recorder.record(
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
                    shared.max_conns
                )),
                &mut out,
            );
            // Nonblocking first: a peer that never reads must not
            // stall the worker that accepted it.
            let _ = stream.set_nonblocking(true);
            let _ = stream.write_all(&out);
            return None;
        }
        shared
            .recorder
            .record(Lane::Accept, EventKind::Accept, live as u32, 0, 0);
        Some(stream)
    }

    /// Move the listener from this worker's set to the next worker's.
    fn pass_listener(&mut self) {
        let next = (self.index + 1) % self.polls.len();
        if next == self.index {
            return;
        }
        let fd = self.listener.as_raw_fd();
        let _ = self.epoll().ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
        if self.polls[next]
            .ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, LISTEN_TOKEN)
            .is_err()
        {
            // Keep the listener rather than lose it: re-add it here.
            self.accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
        }
    }

    /// Re-add the listener to this worker's set once the accept
    /// back-off has passed.
    fn resume_accepting(&mut self) {
        let Some(at) = self.accept_resume else {
            return;
        };
        let now = Instant::now();
        if now < at {
            return;
        }
        let added = self.epoll().ctl(
            sys::EPOLL_CTL_ADD,
            self.listener.as_raw_fd(),
            sys::EPOLLIN,
            LISTEN_TOKEN,
        );
        self.accept_resume = added.is_err().then(|| now + ACCEPT_BACKOFF);
    }

    /// Serve one ready connection: bulk-read and ingest while readable,
    /// then flush and settle interest.
    fn serve(&mut self, idx: usize, readable: bool) {
        // The read/write stage-timing gate: one decision per serve
        // call, on the worker's own serve sequence (per-frame stages
        // sample on the connection's frame counter inside `ingest_obs`).
        let timed = self.shared.recorder.enabled() && self.shared.recorder.sample_hit(self.serves);
        self.serves = self.serves.wrapping_add(1);
        let Some(slot) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            // Closed earlier in this same batch; stale report.
            return;
        };
        let mut eof = false;
        let mut verdict = Verdict::Keep;
        if readable && !slot.draining {
            let t0 = if timed {
                Some(self.shared.recorder.now_ns())
            } else {
                None
            };
            loop {
                match slot.stream.read(&mut self.chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        slot.last_activity = Instant::now();
                        let obs = ConnObs {
                            recorder: &self.shared.recorder,
                            metrics: &self.shared.metrics,
                            lane: Lane::Worker(self.index),
                        };
                        let status = slot.conn.ingest_obs(
                            &self.chunk[..n],
                            &self.shared.namespace,
                            &self.shared.gauges,
                            Some(&obs),
                        );
                        if status == ConnStatus::Closed {
                            // Poisoned: no more reads; drain the ERR.
                            slot.draining = true;
                            break;
                        }
                        if n < self.chunk.len() {
                            // Short read: the socket is almost surely
                            // dry. If not, level-triggered interest
                            // re-reports it on the next wait.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        verdict = Verdict::Close;
                        break;
                    }
                }
            }
            if let Some(t0) = t0 {
                let spent = self.shared.recorder.now_ns().saturating_sub(t0);
                self.shared.metrics.stage_read.record(spent as f64);
            }
        }
        if verdict == Verdict::Close {
            self.close(idx);
            return;
        }
        self.flush(idx, eof, timed);
    }

    /// Flush as much of the coalesced output as the socket accepts,
    /// carry the remainder via `write_pos`, and reconcile poller
    /// interest with what is left to do. `eof` records that the read
    /// side just ended: close once (and only once) output is drained.
    /// `timed` is the serve call's stage-sampling verdict — when up and
    /// there is output to push, the write loop lands one
    /// `stage.write_ns` sample.
    fn flush(&mut self, idx: usize, eof: bool, timed: bool) {
        let Some(slot) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let t0 = if timed && slot.write_pos < slot.conn.output().len() {
            Some(self.shared.recorder.now_ns())
        } else {
            None
        };
        let mut verdict = Verdict::Keep;
        loop {
            let pending = &slot.conn.output()[slot.write_pos..];
            if pending.is_empty() {
                break;
            }
            match slot.stream.write(pending) {
                Ok(0) => {
                    verdict = Verdict::Close;
                    break;
                }
                Ok(n) => slot.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    verdict = Verdict::Close;
                    break;
                }
            }
        }
        if let Some(t0) = t0 {
            let spent = self.shared.recorder.now_ns().saturating_sub(t0);
            self.shared.metrics.stage_write.record(spent as f64);
        }
        if verdict == Verdict::Keep {
            if slot.write_pos == slot.conn.output().len() {
                if slot.write_pos > 0 {
                    slot.conn.clear_output();
                    slot.write_pos = 0;
                }
                if slot.draining || eof {
                    // Poison ERR delivered, or EOF with nothing left
                    // to say: hang up.
                    verdict = Verdict::Close;
                } else {
                    if slot.want_write {
                        // Backpressure released: the carried output
                        // drained and write interest comes off.
                        self.shared.recorder.record(
                            Lane::Worker(self.index),
                            EventKind::BackpressureOff,
                            idx as u32,
                            0,
                            0,
                        );
                    }
                    let (read, write) = (true, false);
                    if (slot.want_read, slot.want_write) != (read, write) {
                        let _ = self.polls[self.index].ctl(
                            sys::EPOLL_CTL_MOD,
                            slot.stream.as_raw_fd(),
                            interest(read, write),
                            idx as u64,
                        );
                        (slot.want_read, slot.want_write) = (read, write);
                    }
                }
            } else {
                // Backpressure: output remains. EOF here still waits —
                // buffered responses belong to the client.
                self.shared.metrics.carryovers.inc();
                if !slot.want_write {
                    let carried = slot.conn.output().len() - slot.write_pos;
                    self.shared.recorder.record(
                        Lane::Worker(self.index),
                        EventKind::BackpressureOn,
                        idx as u32,
                        carried as u64,
                        0,
                    );
                }
                if eof {
                    slot.draining = true;
                }
                let (read, write) = (!slot.draining, true);
                if (slot.want_read, slot.want_write) != (read, write) {
                    let _ = self.polls[self.index].ctl(
                        sys::EPOLL_CTL_MOD,
                        slot.stream.as_raw_fd(),
                        interest(read, write),
                        idx as u64,
                    );
                    (slot.want_read, slot.want_write) = (read, write);
                }
            }
        }
        if verdict == Verdict::Close {
            self.close(idx);
        }
    }

    /// Release a slot: deregister, return the `max_conns` claim, drop
    /// the socket.
    fn close(&mut self, idx: usize) {
        if let Some(slot) = self.slab[idx].take() {
            let _ = self
                .epoll()
                .ctl(sys::EPOLL_CTL_DEL, slot.stream.as_raw_fd(), 0, 0);
            self.free.push(idx);
            self.shared.gauges.disconnected();
            if let Some(live) = self.shared.metrics.slab_live.get(self.index) {
                live.sub(1);
            }
        }
    }

    /// Give an admitted connection a slab slot and read interest. Its
    /// `max_conns` slot is already claimed, so every failure here
    /// releases it.
    fn register(&mut self, stream: TcpStream) {
        // Coalesced burst writes must leave immediately (batching them
        // behind Nagle would serialize pipelined round trips), and
        // reads must not block.
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            self.shared.gauges.disconnected();
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        if self
            .epoll()
            .ctl(
                sys::EPOLL_CTL_ADD,
                stream.as_raw_fd(),
                interest(true, false),
                idx as u64,
            )
            .is_err()
        {
            self.free.push(idx);
            self.shared.gauges.disconnected();
            return;
        }
        let now = Instant::now();
        if let Some(timeout) = self.shared.read_timeout {
            // A pending sweep is never later than this connection's
            // deadline (see the module docs); arm one if none is.
            self.next_sweep.get_or_insert(now + timeout);
        }
        self.slab[idx] = Some(ConnSlot {
            stream,
            conn: Connection::new(),
            write_pos: 0,
            want_read: true,
            want_write: false,
            draining: false,
            last_activity: now,
        });
        if let Some(live) = self.shared.metrics.slab_live.get(self.index) {
            live.add(1);
        }
    }

    /// When the sweep is due, walk the slab once: expire every
    /// connection idle past its deadline with a best-effort `ERR`, and
    /// schedule the next sweep (see the module docs).
    fn sweep_deadlines(&mut self) {
        let (Some(timeout), Some(due)) = (self.shared.read_timeout, self.next_sweep) else {
            return;
        };
        let now = Instant::now();
        if now < due {
            return;
        }
        let (mut scanned, mut closed) = (0u64, 0u32);
        let mut earliest: Option<Instant> = None;
        for idx in 0..self.slab.len() {
            let Some(slot) = self.slab[idx].as_mut() else {
                continue;
            };
            scanned += 1;
            let deadline = slot.last_activity + timeout;
            if now >= deadline {
                let _ = slot.stream.write(&self.deadline_err);
                self.close(idx);
                closed += 1;
            } else {
                earliest = Some(earliest.map_or(deadline, |at| at.min(deadline)));
            }
        }
        self.next_sweep = earliest.map(|at| at.max(now + sweep_tick(timeout)));
        if closed > 0 {
            // Only sweeps that closed a connection are worth a ring
            // slot — an every-sweep heartbeat would evict useful events.
            self.shared.recorder.record(
                Lane::Worker(self.index),
                EventKind::TimerSweep,
                closed,
                scanned,
                0,
            );
        }
    }

    /// Shutdown: close every live connection, returning each one's
    /// `max_conns` slot.
    fn teardown(&mut self) {
        for idx in 0..self.slab.len() {
            self.close(idx);
        }
    }
}
