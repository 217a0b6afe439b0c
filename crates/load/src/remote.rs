//! The remote backend: fire the same deterministic workloads at an
//! `rtas-svc` arbitration server over TCP.
//!
//! [`RemoteTarget`] maps the driver's shards onto the service's keyed
//! namespace: shard `s` is the key `load/s`. The driver's epoch gate
//! runs unchanged — [`acquire`](LoadTarget::acquire) is a `TAS` round
//! trip and [`recycle`](LoadTarget::recycle) is the last finisher's
//! `RESET` ack. The server enforces the same invariant independently
//! (its own epoch gate admits and recycles), and the target checks it
//! end to end on every run: a per-shard ledger of the winning *server*
//! epochs panics the run on any second winner.
//!
//! Every request goes through `rtas-svc`'s [`ChaosClient`], all of a
//! run's clients driven by one seeded [`FaultPlan`]:
//!
//! * **Plain runs** use the `clean` plan: no fault is ever drawn, so a
//!   request is one lockstep round trip. A request that fails — a
//!   reset stream, or an `ERR` such as the one a server sends before
//!   closing a connection idle past its read deadline — drops the
//!   connection and is re-sent on a fresh one under the client's
//!   retry policy; the report's `err_retries` and `err_reconnects`
//!   count them.
//! * **Chaos runs** (`--chaos <spec> --chaos-seed <n>`) inject delays,
//!   drops, truncation, reordering, stalled holders and byzantine
//!   `RESET` acks, replayed bit-identically from one seed: worker
//!   connection `c` replays fault stream `c`, and the ack for
//!   `(shard, epoch)` draws its faults as a pure function of those
//!   coordinates, never of which racing worker sends it. Under faults
//!   the per-epoch win count legitimately degrades — a skipped ack
//!   strands a server epoch whose later arrivals all lose, and a lease
//!   reclamation can split one epoch across two server epochs — but
//!   the ledger's bar does not.
//!
//! Because the open-loop [`ArrivalSchedule`] is a pure function of the
//! seed, the *offered* load is bit-identical run to run here too — the
//! service sees the same request instants whatever the network does —
//! and end-to-end latency is still measured from the scheduled instant
//! (queueing included, no coordinated omission). Pipelined bursts are
//! perfbench's `pipelined` workload, not this harness's.
//!
//! ## Connection fan-out (C10K)
//!
//! [`LoadSpec::conns`] holds a fixed fleet of `conns / threads`
//! connections open **per worker** for the whole run; each resolution
//! round-robins onto the next connection, so thousands of live
//! connections are exercised by a handful of threads.
//!
//! ## End-to-end tracing
//!
//! With a recorder attached (the `rtas-load --trace` flag) every wire
//! attempt carries a fresh trace span (`docs/WIRE.md`) and records a
//! `ClientSpan` event on its worker's lane; the server records the
//! matching `ServerSpan`, and `rtas-trace merge` joins the two dumps
//! into per-request network/server/queue latency breakdowns. Support
//! is negotiated with a traced `STATS` probe; old servers get plain
//! untraced traffic. Span minting never draws from the fault streams,
//! so traced and untraced runs replay the same schedule.
//!
//! A run reports as `BENCH_svc_load.json` (rows labeled
//! `backend=remote`), as `BENCH_svc_c10k.json` under a fan-out (a
//! `conns` label on every row), or as `BENCH_svc_chaos.json` with a
//! chaos plan (`backend=chaos`).
//!
//! [`ArrivalSchedule`]: crate::schedule::ArrivalSchedule
//! [`LoadSpec::conns`]: crate::driver::LoadSpec::conns

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use rtas_svc::chaos::{ChaosClient, ChaosCounts, ChaosSpec, FaultPlan};
use rtas_svc::obs::FlightRecorder;
use rtas_svc::{Client, ClientConfig, ClientError, ClientTracer, Op};

use crate::driver::{run_on_target, LoadOutcome, LoadSpec, LoadTarget, TargetKind};
use crate::recorder::ErrorClasses;

/// An `rtas-svc` server as a [`LoadTarget`]: `shards` keys named
/// `load/0..load/shards-1`, each epoch-recycled through the wire
/// protocol's `RESET` ack, every request through one [`FaultPlan`].
#[derive(Debug)]
pub struct RemoteTarget {
    addr: String,
    plan: FaultPlan,
    keys: Vec<Vec<u8>>,
    /// Per shard: the server epochs won so far.
    ledgers: Vec<Mutex<BTreeSet<u64>>>,
    group: usize,
    /// Connections each worker holds open and round-robins across
    /// (the C10K fan-out; 1 is the classic one-connection worker).
    conns_per_worker: usize,
    registers: u64,
    /// The server's lease-reclaim count at the probe.
    reclaimed_at_probe: u64,
    /// Client-side flight recorder: when set, every wire attempt
    /// carries a trace span and records a `ClientSpan` event onto its
    /// worker's lane.
    recorder: Option<Arc<FlightRecorder>>,
    /// Next worker-context index, handed out in `context()` call order.
    /// The driver creates the initial fleet's contexts sequentially on
    /// the main thread, so context `k`'s connections are
    /// `k · conns_per_worker ..` on every run — stable fault streams,
    /// span id spaces and trace lanes.
    next_ctx: AtomicUsize,
    /// Fault/recovery counters, folded in as worker contexts retire.
    counts: Arc<Mutex<ChaosCounts>>,
}

impl RemoteTarget {
    /// Bind `spec.shards` keys on the server at `addr`, each resolved
    /// by `spec.group()` participants per epoch, with `conns / threads`
    /// connections per worker and every request under `plan`.
    ///
    /// Connects once, on a clean client, to probe: reachability; every
    /// key into a known-fresh epoch (`TAS` to materialize it, `RESET`
    /// to recycle — a crashed previous run cannot leave a half-resolved
    /// epoch behind); the register and lease-reclaim counts; and, with
    /// a `recorder`, whether the server speaks the wire trace
    /// extension. An old server keeps tracing detached with a warning
    /// on stderr, never an error: tracing is additive observability.
    /// The probe's win/loss is not part of the run's accounting.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable or refuses the probe.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent spec (see [`LoadSpec`] field docs).
    pub fn new(
        addr: &str,
        spec: &LoadSpec,
        plan: FaultPlan,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Result<RemoteTarget, ClientError> {
        spec.validate();
        let mut probe = Client::connect(addr)?;
        let keys: Vec<Vec<u8>> = (0..spec.shards)
            .map(|s| format!("load/{s}").into_bytes())
            .collect();
        for key in &keys {
            probe.tas(key)?;
            probe.reset(key)?;
        }
        let stats = probe.stats()?;
        let recorder = match recorder {
            Some(_) if !probe.probe_trace()? => {
                eprintln!(
                    "rtas-load: warning: {addr} does not speak the wire trace \
                     extension (old server?); tracing disabled"
                );
                None
            }
            recorder => recorder,
        };
        Ok(RemoteTarget {
            addr: addr.to_string(),
            plan,
            ledgers: keys.iter().map(|_| Mutex::default()).collect(),
            keys,
            group: spec.group(),
            conns_per_worker: spec.conns.map_or(1, |c| c / spec.threads),
            registers: stats.registers,
            reclaimed_at_probe: stats.reclaimed,
            recorder,
            next_ctx: AtomicUsize::new(0),
            counts: Arc::default(),
        })
    }

    /// The server address the target drives.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// One worker's connections plus a handle to the target's counter
/// sink, which they are folded into on drop (worker retirement).
#[derive(Debug)]
pub struct RemoteCtx {
    clients: Vec<ChaosClient>,
    /// The connection of the current resolution: its `TAS` and, if
    /// this worker finishes the epoch, its `RESET` go out on it.
    at: usize,
    sink: Arc<Mutex<ChaosCounts>>,
}

impl Drop for RemoteCtx {
    fn drop(&mut self) {
        // Counters are valid after every merge step, so a sink poisoned
        // by another worker's panic is still safe to add to.
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        for client in &self.clients {
            sink.merge(client.counts());
        }
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

    fn context(&self) -> RemoteCtx {
        let ctx = self.next_ctx.fetch_add(1, Ordering::Relaxed);
        let clients = (0..self.conns_per_worker)
            .map(|i| {
                let conn = (ctx * self.conns_per_worker + i) as u64;
                let mut client =
                    ChaosClient::new(&self.addr, &self.plan, conn, ClientConfig::default());
                if let Some(recorder) = &self.recorder {
                    client = client.with_tracer(ClientTracer::new(Arc::clone(recorder), ctx, conn));
                }
                client
                    .connect()
                    .unwrap_or_else(|e| panic!("cannot connect load worker to {}: {e}", self.addr));
                client
            })
            .collect();
        RemoteCtx {
            clients,
            // The first acquire rotates onto connection 0.
            at: self.conns_per_worker - 1,
            sink: Arc::clone(&self.counts),
        }
    }

    fn acquire(&self, ctx: &mut RemoteCtx, shard: usize) -> bool {
        // Round-robin the fan-out so every connection stays live.
        ctx.at = (ctx.at + 1) % ctx.clients.len();
        let verdict = ctx.clients[ctx.at]
            .acquire(Op::Tas, &self.keys[shard])
            .unwrap_or_else(|e| panic!("TAS on {} failed: {e}", self.addr));
        if verdict.won {
            // THE safety bar: at most one winner per key-epoch, on the
            // server's own epoch numbering, under every fault mix.
            let first = self.ledgers[shard]
                .lock()
                .expect("a worker panicked while recording a win")
                .insert(verdict.epoch);
            assert!(
                first,
                "second winner observed for shard {shard} server epoch {} — \
                 arbitration safety violated",
                verdict.epoch
            );
        }
        verdict.won
    }

    fn recycle(&self, ctx: &mut RemoteCtx, shard: usize, epoch: u64) {
        // The plan's byzantine reset faults are drawn from the
        // (shard, epoch) coordinates, so the draw is identical whichever
        // worker lands here. A skipped ack strands the server epoch for
        // the lease to reclaim; a duplicated ack is defused by the
        // server's zero-admission guard. Either way the gate opens the
        // next epoch: liveness never hangs on the fault plan.
        let faults = self.plan.reset_faults(shard as u64, epoch);
        ctx.clients[ctx.at]
            .ack_reset(&self.keys[shard], faults)
            .unwrap_or_else(|e| panic!("RESET on {} failed: {e}", self.addr));
    }

    fn registers(&self) -> u64 {
        self.registers
    }
}

/// A remote run's outcome: the ordinary load outcome (its recorder's
/// [`ErrorClasses`] filled in) plus the client's fault and recovery
/// tally and the observed winner sets.
#[derive(Debug)]
pub struct RemoteOutcome {
    /// The measured run, reporting as `svc_load`, `svc_c10k` or
    /// `svc_chaos`.
    pub outcome: LoadOutcome,
    /// Client-side fault/recovery counters, all workers merged.
    pub counts: ChaosCounts,
    /// Winning server epochs observed, per shard, sorted.
    pub winners: Vec<Vec<u64>>,
    /// Server-side epochs reclaimed by the lease *during this run*
    /// (the `STATS` delta).
    pub reclaimed: u64,
}

/// Run the specified workload against the `rtas-svc` server at `addr`
/// (see [`RemoteTarget`]), with `chaos`'s faults injected or, without
/// one, on the clean plan. The one-winner-per-key-epoch bar is
/// enforced fail-fast on every run; the outcome's recorder carries the
/// error-class counts (timeouts, retries, reconnects, server
/// reclaims). With a `recorder`, the caller keeps the `Arc` and dumps
/// the client rings after the run (`rtas-load --trace`).
///
/// `spec.backend` is ignored — the server chose its algorithm at
/// `serve` time.
///
/// # Errors
///
/// Fails if the server is unreachable or refuses the probe. The
/// initial fleet's connections are opened before any worker spawns,
/// so a connect failure panics cleanly before traffic starts. Request
/// failures mid-run are redialed and retried; a worker that exhausts
/// its retries panics loudly.
///
/// # Panics
///
/// Panics on an inconsistent spec, or on a safety violation (a second
/// winner for one server epoch).
pub fn run_load_remote(
    addr: &str,
    spec: LoadSpec,
    chaos: Option<FaultPlan>,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<RemoteOutcome, ClientError> {
    let kind = match (&chaos, spec.conns) {
        (Some(_), _) => TargetKind::Chaos,
        (None, Some(_)) => TargetKind::C10k,
        (None, None) => TargetKind::Remote,
    };
    let plan = chaos.unwrap_or_else(|| FaultPlan::new(ChaosSpec::default(), spec.seed));
    let target = RemoteTarget::new(addr, &spec, plan, recorder)?;
    let mut outcome = run_on_target(&target, spec, kind);
    let reclaimed = Client::connect(addr)?
        .stats()?
        .reclaimed
        .saturating_sub(target.reclaimed_at_probe);
    let counts = *target
        .counts
        .lock()
        .expect("every worker context folded its counts in");
    outcome.recorder.add_errors(&ErrorClasses {
        timeouts: counts.timeouts,
        retries: counts.retries,
        reconnects: counts.reconnects,
        reclaimed,
    });
    let winners = target
        .ledgers
        .iter()
        .map(|ledger| {
            let won = ledger.lock().expect("every worker recorded its wins");
            won.iter().copied().collect()
        })
        .collect();
    Ok(RemoteOutcome {
        outcome,
        counts,
        winners,
        reclaimed,
    })
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
