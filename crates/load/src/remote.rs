//! The remote backend: fire the same deterministic workloads at an
//! `rtas-svc` arbitration server over TCP.
//!
//! [`RemoteTarget`] maps the driver's `(shard, epoch)` coordinates onto
//! the service's keyed namespaces: shard `s` is the key `load/s`, and
//! the arena's release/acquire epoch protocol is re-created
//! client-side — workers spin on a local per-key epoch counter, issue
//! `TAS` over their own connection, and the epoch's **last finisher**
//! sends the `RESET` ack and opens the next epoch with a release store.
//! The server independently enforces the same invariant (its own
//! epoch gate admits and recycles), so exactly one winner per
//! key-epoch holds end to end, asserted by the driver's win accounting.
//!
//! Every resolution is a lockstep round trip, timed from send to
//! decoded response. Pipelined bursts are perfbench's `pipelined`
//! workload, not this harness's.
//!
//! Because the open-loop [`ArrivalSchedule`] is a pure function of the
//! seed, the *offered* load is bit-identical run to run here too — the
//! service sees the same request instants whatever the network does —
//! and end-to-end latency is still measured from the scheduled instant
//! (queueing included, no coordinated omission). Reports are emitted as
//! `BENCH_svc_load.json` (rows labeled `backend=remote`, `gate=wall`).
//!
//! ## Connection fan-out (C10K)
//!
//! [`LoadSpec::conns`] holds a fixed fleet of `conns / threads`
//! connections open **per worker** for the whole run; each resolution
//! round-robins onto the next connection, so thousands of live
//! connections are exercised by a handful of threads. Reports from a
//! fan-out run are emitted as `BENCH_svc_c10k.json` with a `conns`
//! label on every row.
//!
//! ## End-to-end tracing
//!
//! With a recorder attached ([`RemoteTarget::with_recorder`], the
//! `rtas-load --trace` flag) every resolution carries a wire trace span
//! (`docs/WIRE.md`) and records a `ClientSpan` event; the server
//! records the matching `ServerSpan`, and `rtas-trace merge` joins the
//! two dumps into per-request network/server/queue latency breakdowns.
//! Support is negotiated with a traced `STATS` probe; old servers get
//! plain untraced traffic.
//!
//! [`ArrivalSchedule`]: crate::schedule::ArrivalSchedule
//! [`LoadSpec::conns`]: crate::driver::LoadSpec::conns

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rtas::sync::{Backoff, CachePadded};
use rtas_svc::obs::FlightRecorder;
use rtas_svc::{Client, ClientError, ClientTracer, Op, Response};

use crate::driver::{run_on_target, LoadOutcome, LoadSpec, LoadTarget, TargetKind};

/// Client-side recycling state for one key, mirroring the arena's
/// shard header.
#[derive(Debug)]
struct KeyState {
    /// Open epoch: bumped with `Release` by the last finisher after the
    /// `RESET` ack; read with `Acquire` by entrants.
    epoch: AtomicU64,
    /// Completed calls within the open epoch (`0..=group`).
    done: AtomicUsize,
}

/// An `rtas-svc` server as a [`LoadTarget`]: `shards` keys named
/// `load/0..load/shards-1`, each epoch-recycled through the wire
/// protocol's `RESET` ack.
#[derive(Debug)]
pub struct RemoteTarget {
    addr: String,
    keys: Vec<Vec<u8>>,
    states: Vec<CachePadded<KeyState>>,
    group: usize,
    /// Connections each worker holds open and round-robins across
    /// (the C10K fan-out; 1 is the classic one-connection worker).
    conns_per_worker: usize,
    registers: u64,
    /// Client-side flight recorder ([`RemoteTarget::with_recorder`]):
    /// when set, resolutions carry wire trace spans and record
    /// `ClientSpan` events onto the context's worker lane.
    recorder: Option<Arc<FlightRecorder>>,
    /// Next worker-context index, handed out in `context()` call order
    /// (the driver creates the initial fleet's contexts sequentially on
    /// the main thread, so indices — and therefore span id spaces —
    /// are stable run to run).
    next_ctx: AtomicUsize,
}

/// Per-worker connections. Under a connection fan-out
/// ([`LoadSpec::conns`]) a worker owns many clients and round-robins
/// resolutions across them so every connection stays live.
#[derive(Debug)]
pub struct RemoteCtx {
    clients: Vec<Client>,
    /// Next client in the round-robin.
    next: usize,
    /// Span minting + `ClientSpan` recording for this worker's traffic
    /// (`None` when the target has no recorder).
    tracer: Option<ClientTracer>,
}

impl RemoteCtx {
    /// One lockstep round trip on `clients[at]`. With a live tracer the
    /// request carries a fresh span and its send → decoded time is
    /// recorded as a `ClientSpan`; otherwise it goes out with span 0,
    /// which the wire reserves for "untraced".
    fn round_trip(&mut self, at: usize, op: Op, key: &[u8]) -> Result<Response, ClientError> {
        let mut tracer = self.tracer.as_mut().filter(|t| t.enabled());
        let span = tracer.as_mut().map_or(0, |t| t.mint());
        let t0 = tracer.as_ref().map_or(0, |t| t.now_ns());
        let client = &mut self.clients[at];
        client.send_span(op, span, key)?;
        let response = client.recv()?;
        if let Some(t) = tracer {
            t.record(op, span, t.now_ns().saturating_sub(t0));
        }
        Ok(response)
    }
}

impl RemoteTarget {
    /// Bind `shards` keys on the server at `addr`, each resolved by
    /// `group` participants per epoch, one connection per worker.
    ///
    /// Connects once to probe reachability and to put every key into a
    /// known-fresh epoch (`TAS` to materialize it, `RESET` to recycle —
    /// a crashed previous run cannot leave a half-resolved epoch
    /// behind). The probe's win/loss is deliberately *not* part of the
    /// run's accounting: local epochs start at 0 regardless of the
    /// server's epoch numbering, which only ever appears in responses.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `group == 0`.
    pub fn new(addr: &str, shards: usize, group: usize) -> Result<RemoteTarget, ClientError> {
        Self::with_shape(addr, shards, group, 1)
    }

    /// [`RemoteTarget::new`] with an explicit per-worker connection
    /// fan-out: every worker context holds `conns_per_worker`
    /// connections open and round-robins its resolutions across them
    /// (the C10K posture — see [`LoadSpec::conns`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `group == 0`, or
    /// `conns_per_worker == 0`.
    pub fn with_shape(
        addr: &str,
        shards: usize,
        group: usize,
        conns_per_worker: usize,
    ) -> Result<RemoteTarget, ClientError> {
        assert!(shards >= 1, "remote target needs at least one shard key");
        assert!(group >= 1, "remote target needs at least one participant");
        assert!(
            conns_per_worker >= 1,
            "each worker needs at least one connection"
        );
        let mut probe = Client::connect(addr)?;
        let keys: Vec<Vec<u8>> = (0..shards)
            .map(|s| format!("load/{s}").into_bytes())
            .collect();
        for key in &keys {
            probe.tas(key)?;
            probe.reset(key)?;
        }
        let registers = probe.stats()?.registers;
        Ok(RemoteTarget {
            addr: addr.to_string(),
            states: (0..shards)
                .map(|_| {
                    CachePadded(KeyState {
                        epoch: AtomicU64::new(0),
                        done: AtomicUsize::new(0),
                    })
                })
                .collect(),
            keys,
            group,
            conns_per_worker,
            registers,
            recorder: None,
            next_ctx: AtomicUsize::new(0),
        })
    }

    /// Attach a client-side flight recorder: every resolution is sent
    /// with a fresh wire trace span (`docs/WIRE.md`) and lands a
    /// `ClientSpan` event on the worker's lane, pairable with the
    /// server's dump by `rtas-trace merge`.
    ///
    /// Negotiates first: a traced probe (`Client::probe_trace`) tells a
    /// new server from an old one over a healthy connection. Old
    /// servers keep the recorder detached, with a warning on stderr
    /// rather than an error: tracing is additive observability, never a
    /// reason to refuse load.
    ///
    /// # Errors
    ///
    /// Fails only if the negotiation probe cannot reach the server.
    pub fn with_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
    ) -> Result<RemoteTarget, ClientError> {
        if !Client::connect(&self.addr)?.probe_trace()? {
            eprintln!(
                "rtas-load: warning: {} does not speak the wire trace \
                 extension (old server?); tracing disabled",
                self.addr
            );
            return Ok(self);
        }
        self.recorder = Some(recorder);
        Ok(self)
    }

    /// The server address the target drives.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl LoadTarget for RemoteTarget {
    type Ctx = RemoteCtx;

    fn shards(&self) -> usize {
        self.keys.len()
    }

    fn group(&self) -> usize {
        self.group
    }

    fn base_epochs(&self) -> Vec<u64> {
        self.states
            .iter()
            .map(|s| s.0.epoch.load(Ordering::Acquire))
            .collect()
    }

    fn context(&self) -> RemoteCtx {
        let clients = (0..self.conns_per_worker)
            .map(|_| {
                Client::connect(&self.addr)
                    .unwrap_or_else(|e| panic!("cannot connect load worker to {}: {e}", self.addr))
            })
            .collect();
        let ctx = self.next_ctx.fetch_add(1, Ordering::Relaxed);
        RemoteCtx {
            clients,
            next: 0,
            tracer: self
                .recorder
                .as_ref()
                .map(|r| ClientTracer::new(Arc::clone(r), ctx)),
        }
    }

    fn resolve(&self, ctx: &mut RemoteCtx, shard: usize, epoch: u64) -> bool {
        let state = &self.states[shard].0;
        // Wait for our epoch — same spin-then-yield discipline as the
        // in-process arena.
        let mut backoff = Backoff::new();
        loop {
            let current = state.epoch.load(Ordering::Acquire);
            if current == epoch {
                break;
            }
            assert!(
                current < epoch,
                "epoch {epoch} already closed (key is at {current}): \
                 a reused remote target must offset by base_epochs"
            );
            backoff.snooze();
        }
        let key = &self.keys[shard];
        // Round-robin the fan-out: each resolution (TAS and, for the
        // last finisher, its RESET) runs on one connection, and every
        // connection takes its turn so all of them stay live.
        let at = ctx.next;
        ctx.next = (ctx.next + 1) % ctx.clients.len();
        let won = match ctx.round_trip(at, Op::Tas, key) {
            Ok(Response::Acquired(a)) => a.won,
            Ok(other) => panic!("TAS on {}: expected a verdict, got {other:?}", self.addr),
            Err(e) => panic!("TAS on {} failed: {e}", self.addr),
        };
        if state.done.fetch_add(1, Ordering::AcqRel) + 1 == self.group {
            // Last finisher: every call of this epoch has its response,
            // so the server-side gate is quiescent the moment our RESET
            // is admitted. Ack it, then open the next local epoch.
            match ctx.round_trip(at, Op::Reset, key) {
                Ok(Response::Reset { .. }) => {}
                Ok(other) => panic!("RESET on {}: expected an ack, got {other:?}", self.addr),
                Err(e) => panic!("RESET on {} failed: {e}", self.addr),
            }
            state.done.store(0, Ordering::Relaxed);
            state.epoch.fetch_add(1, Ordering::Release);
        }
        won
    }

    fn registers(&self) -> u64 {
        self.registers
    }
}

/// Run the specified workload against the `rtas-svc` server at `addr`
/// (see [`RemoteTarget`]); the outcome reports as `svc_load`.
///
/// `spec.backend` is ignored — the server chose its algorithm at
/// `serve` time; rows are labeled `backend=remote`.
///
/// # Errors
///
/// Fails if the server is unreachable or refuses the probe. The
/// initial fleet's connections are opened before any worker spawns, so
/// a connect failure panics cleanly before traffic starts. Transport
/// failures *during* the run (or on a churn respawn's fresh
/// connection) panic the affected worker — peers of its unfinished
/// epoch then wait, so the run fails loudly rather than silently
/// dropping offered operations.
///
/// # Panics
///
/// Panics on an inconsistent spec (see [`LoadSpec`] field docs).
pub fn run_load_remote(addr: &str, spec: LoadSpec) -> Result<LoadOutcome, ClientError> {
    run_load_remote_traced(addr, spec, None)
}

/// [`run_load_remote`] with an optional client-side flight recorder
/// (see [`RemoteTarget::with_recorder`]): the caller keeps the `Arc`
/// and dumps the rings after the run (`rtas-load --trace` /
/// `--trace-out`). Passing `None` is exactly `run_load_remote`.
///
/// # Errors
///
/// As [`run_load_remote`], plus a failed trace-negotiation probe.
pub fn run_load_remote_traced(
    addr: &str,
    spec: LoadSpec,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<LoadOutcome, ClientError> {
    spec.validate();
    let conns_per_worker = spec.conns.map_or(1, |c| c / spec.threads);
    let mut target = RemoteTarget::with_shape(addr, spec.shards, spec.group(), conns_per_worker)?;
    if let Some(recorder) = recorder {
        target = target.with_recorder(recorder)?;
    }
    let kind = if spec.conns.is_some() {
        TargetKind::C10k
    } else {
        TargetKind::Remote
    };
    Ok(run_on_target(&target, spec, kind))
}

/// Scrape a server's `METRICS` exposition into the curated `svc_*`
/// report extras a remote run attaches to its `scope=total` row
/// ([`LoadOutcome::svc_extras`]).
///
/// The set is **fixed** — seven extras, always in this order, every name
/// present even when the server reports nothing for it (a missing
/// metric reads 0) — so baseline and current reports always carry
/// identical value keys and `bench-diff` can gate them structurally:
///
/// `svc_ops`, `svc_wins`, `svc_resets`, `svc_reclaimed`, `svc_refused`
/// (the namespace counters), `svc_carryovers` (the reactor counter),
/// and `svc_slab_live` (the per-worker gauge summed across workers).
///
/// Errors carry a printable message; callers warn and omit the extras
/// rather than failing a finished run over a scrape.
pub fn scrape_svc_extras(addr: &str) -> Result<Vec<(String, f64)>, String> {
    let mut client =
        Client::connect(addr).map_err(|e| format!("connect for metrics scrape: {e}"))?;
    let text = client
        .metrics()
        .map_err(|e| format!("METRICS request: {e}"))?;
    let parsed = rtas_svc::obs::parse_metrics(&text)
        .ok_or_else(|| "malformed metrics exposition".to_string())?;
    let value = |name: &str| -> f64 {
        parsed
            .iter()
            .find(|(k, _)| k.as_str() == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let worker_sum = |suffix: &str| -> f64 {
        parsed
            .iter()
            .filter(|(k, _)| k.starts_with("reactor.worker") && k.ends_with(suffix))
            .map(|&(_, v)| v)
            .sum()
    };
    Ok(vec![
        ("svc_ops".to_string(), value("svc.ops")),
        ("svc_wins".to_string(), value("svc.wins")),
        ("svc_resets".to_string(), value("svc.resets")),
        ("svc_reclaimed".to_string(), value("svc.reclaimed")),
        ("svc_refused".to_string(), value("svc.refused")),
        ("svc_carryovers".to_string(), value("reactor.carryovers")),
        ("svc_slab_live".to_string(), worker_sum(".slab_live")),
    ])
}
