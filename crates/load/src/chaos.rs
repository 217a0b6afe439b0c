//! Drive the deterministic hostile-network layer against a live
//! server: [`RemoteTarget`] semantics behind `rtas-svc`'s
//! [`ChaosClient`] fault injection.
//!
//! [`ChaosTarget`] re-creates the remote target's client-side epoch
//! protocol — `shards` keys named `load/s`, workers spinning on a
//! local per-key epoch, the epoch's last finisher acking `RESET` —
//! but every wire interaction passes through a [`ChaosClient`] whose
//! faults come from one seeded [`FaultPlan`]: worker connection `c`
//! replays fault stream `c`, and the `RESET` ack for `(shard, local
//! epoch)` draws its byzantine faults as a *pure function* of those
//! coordinates (never of which racing worker sends it), so the entire
//! fault schedule is a function of `(seed, spec, workload)` alone.
//!
//! Under faults the *local* win accounting legitimately degrades — a
//! skipped ack strands a server epoch whose later arrivals all lose,
//! and a lease reclamation can split one local epoch across two
//! server epochs, so local wins per local epoch may be 0 or even 2.
//! What can never degrade is the server-side bar: **at most one
//! winner per key-epoch**. [`ChaosTarget`] enforces it fail-fast — a
//! per-shard map of observed winning server epochs panics the run on
//! any second winner — and [`run_load_chaos`] folds the client-side
//! fault counters plus the server's reclaimed-slot delta into the
//! outcome's [`ErrorClasses`].
//!
//! [`RemoteTarget`]: crate::remote::RemoteTarget

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rtas::sync::{Backoff, CachePadded};
use rtas_svc::chaos::{ChaosClient, ChaosCounts, FaultPlan};
use rtas_svc::obs::FlightRecorder;
use rtas_svc::{Client, ClientConfig, ClientError, ClientTracer, Op};

use crate::driver::{run_on_target, LoadOutcome, LoadSpec, LoadTarget, TargetKind};
use crate::recorder::ErrorClasses;

/// Client-side recycling state for one key (the remote target's
/// header, replicated here — the local epoch *always* advances, even
/// when the plan byzantinely skips the server ack, so workers never
/// deadlock on a stranded server epoch).
#[derive(Debug)]
struct KeyState {
    epoch: AtomicU64,
    done: AtomicUsize,
}

/// Per-shard safety ledger: the winning *server* epochs observed, with
/// a fail-fast panic on any second winner for one epoch.
#[derive(Debug, Default)]
struct WinLedger {
    /// server epoch → how many wins observed (must stay ≤ 1).
    wins: Mutex<HashMap<u64, u64>>,
}

/// An `rtas-svc` server behind the fault-injection layer, as a
/// [`LoadTarget`]. Reports as `BENCH_svc_chaos.json`
/// (`backend=chaos`).
#[derive(Debug)]
pub struct ChaosTarget {
    addr: String,
    plan: FaultPlan,
    config: ClientConfig,
    keys: Vec<Vec<u8>>,
    states: Vec<CachePadded<KeyState>>,
    ledgers: Vec<WinLedger>,
    /// Next worker connection id — handed out in `context()` call
    /// order. The driver creates the initial fleet's contexts
    /// sequentially on the main thread, so ids (and therefore fault
    /// streams) are stable run to run.
    next_conn: AtomicU64,
    /// Fault/recovery counters folded in as worker contexts retire.
    counts: Arc<Mutex<ChaosCounts>>,
    group: usize,
    registers: u64,
    /// Client-side flight recorder ([`ChaosTarget::with_recorder`]):
    /// when set, every worker's [`ChaosClient`] stamps its wire
    /// attempts with fresh trace spans. Span minting never draws from
    /// the fault or jitter streams, so a traced run replays the same
    /// fault schedule as an untraced one.
    recorder: Option<Arc<FlightRecorder>>,
}

impl ChaosTarget {
    /// Bind `shards` keys on the server at `addr` behind `plan`'s
    /// faults. The reachability/reset probe runs on a *clean* client —
    /// the fault schedule starts with worker connection 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `group == 0`.
    pub fn new(
        addr: &str,
        shards: usize,
        group: usize,
        plan: FaultPlan,
        config: ClientConfig,
    ) -> Result<ChaosTarget, ClientError> {
        assert!(shards >= 1, "chaos target needs at least one shard key");
        assert!(group >= 1, "chaos target needs at least one participant");
        let mut probe = Client::connect_with(addr, config.clone())?;
        let keys: Vec<Vec<u8>> = (0..shards)
            .map(|s| format!("load/{s}").into_bytes())
            .collect();
        for key in &keys {
            probe.tas(key)?;
            probe.reset(key)?;
        }
        let registers = probe.stats()?.registers;
        Ok(ChaosTarget {
            addr: addr.to_string(),
            plan,
            config,
            states: (0..shards)
                .map(|_| {
                    CachePadded(KeyState {
                        epoch: AtomicU64::new(0),
                        done: AtomicUsize::new(0),
                    })
                })
                .collect(),
            ledgers: (0..shards).map(|_| WinLedger::default()).collect(),
            next_conn: AtomicU64::new(0),
            counts: Arc::new(Mutex::new(ChaosCounts::default())),
            keys,
            group,
            registers,
            recorder: None,
        })
    }

    /// Attach a client-side flight recorder: every worker's
    /// [`ChaosClient`] stamps each wire attempt (retries included —
    /// each attempt mints a fresh span) and records `ClientSpan`
    /// events on its connection's lane. Negotiates with a traced
    /// `STATS` probe first; an old server keeps tracing detached with
    /// a warning, never an error.
    ///
    /// # Errors
    ///
    /// Fails only if the negotiation probe cannot reach the server.
    pub fn with_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
    ) -> Result<ChaosTarget, ClientError> {
        if !Client::connect_with(&self.addr, self.config.clone())?.probe_trace()? {
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

    /// The fault/recovery counters accumulated so far (complete once
    /// the run's workers have retired their contexts).
    pub fn counts(&self) -> ChaosCounts {
        *self.counts.lock().unwrap()
    }

    /// The winning server epochs observed per shard, sorted — the
    /// "winner set" two same-seed runs must agree on when the fault
    /// schedule is timing-independent (e.g. the delay-only cell).
    pub fn winner_epochs(&self) -> Vec<Vec<u64>> {
        self.ledgers
            .iter()
            .map(|ledger| {
                let mut epochs: Vec<u64> = ledger.wins.lock().unwrap().keys().copied().collect();
                epochs.sort_unstable();
                epochs
            })
            .collect()
    }
}

/// One worker's context: the fault-injecting client plus a handle to
/// the target's counter sink, flushed on drop (worker retirement).
#[derive(Debug)]
pub struct ChaosCtx {
    client: ChaosClient,
    sink: Arc<Mutex<ChaosCounts>>,
}

impl Drop for ChaosCtx {
    fn drop(&mut self) {
        self.sink.lock().unwrap().merge(self.client.counts());
    }
}

impl LoadTarget for ChaosTarget {
    type Ctx = ChaosCtx;

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

    fn context(&self) -> ChaosCtx {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let mut client = ChaosClient::new(&self.addr, &self.plan, conn, self.config.clone());
        if let Some(recorder) = &self.recorder {
            client = client.with_tracer(ClientTracer::new(Arc::clone(recorder), conn as usize));
        }
        ChaosCtx {
            client,
            sink: Arc::clone(&self.counts),
        }
    }

    fn resolve(&self, ctx: &mut ChaosCtx, shard: usize, epoch: u64) -> bool {
        let state = &self.states[shard].0;
        let mut backoff = Backoff::new();
        loop {
            let current = state.epoch.load(Ordering::Acquire);
            if current == epoch {
                break;
            }
            assert!(
                current < epoch,
                "epoch {epoch} already closed (key is at {current}): \
                 a reused chaos target must offset by base_epochs"
            );
            backoff.snooze();
        }
        let key = &self.keys[shard];
        let verdict = ctx
            .client
            .acquire(Op::Tas, key)
            .unwrap_or_else(|e| panic!("chaotic TAS on {} failed: {e}", self.addr));
        if verdict.won {
            // THE safety bar: at most one winner per key-epoch, on the
            // server's own epoch numbering, under every fault mix.
            let mut wins = self.ledgers[shard].wins.lock().unwrap();
            let seen = wins.entry(verdict.epoch).or_insert(0);
            *seen += 1;
            assert!(
                *seen == 1,
                "second winner observed for shard {shard} server epoch {} — \
                 arbitration safety violated under chaos",
                verdict.epoch
            );
        }
        if state.done.fetch_add(1, Ordering::AcqRel) + 1 == self.group {
            // Last finisher acks — subject to the plan's byzantine
            // reset faults, drawn from the (shard, LOCAL epoch)
            // coordinates so the draw is identical whichever worker
            // lands here. A skipped ack strands the server epoch for
            // the lease to reclaim; a duplicated ack is defused by the
            // server's zero-admission guard. Either way the LOCAL
            // epoch advances: liveness never hangs on the fault plan.
            let faults = self.plan.reset_faults(shard as u64, epoch);
            ctx.client
                .ack_reset(key, faults)
                .unwrap_or_else(|e| panic!("chaotic RESET on {} failed: {e}", self.addr));
            state.done.store(0, Ordering::Relaxed);
            state.epoch.fetch_add(1, Ordering::Release);
        }
        verdict.won
    }

    fn registers(&self) -> u64 {
        self.registers
    }
}

/// A chaos run's outcome: the ordinary load outcome (its recorder's
/// [`ErrorClasses`] filled in) plus the fault tally and the observed
/// winner sets.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The measured run, reporting as `svc_chaos`.
    pub outcome: LoadOutcome,
    /// Client-side fault/recovery counters, all workers merged.
    pub counts: ChaosCounts,
    /// Winning server epochs observed, per shard, sorted.
    pub winners: Vec<Vec<u64>>,
    /// Server-side epochs reclaimed by the lease *during this run*
    /// (the `STATS` delta).
    pub reclaimed: u64,
}

/// Run the specified workload against the server at `addr` with
/// `plan`'s faults injected. The one-winner-per-key-epoch bar is
/// enforced fail-fast inside [`ChaosTarget::resolve`]; the outcome's
/// recorder carries the error-class counts (timeouts, retries,
/// reconnects, server reclaims).
///
/// # Errors
///
/// Fails if the server is unreachable or refuses the clean probe.
/// Transport failures mid-run are absorbed by the chaos client's
/// retry/backoff; a worker that exhausts its retries panics loudly.
///
/// # Panics
///
/// Panics on an inconsistent spec, or on a safety violation (a second
/// winner for one server epoch).
pub fn run_load_chaos(
    addr: &str,
    spec: LoadSpec,
    plan: FaultPlan,
) -> Result<ChaosOutcome, ClientError> {
    run_load_chaos_traced(addr, spec, plan, None)
}

/// [`run_load_chaos`] with an optional client-side flight recorder
/// (see [`ChaosTarget::with_recorder`]): the caller keeps the `Arc`
/// and dumps the rings after the run. Passing `None` is exactly
/// `run_load_chaos` — and because span minting never touches the
/// seeded fault streams, both variants replay the identical fault
/// schedule from one `(seed, spec, workload)` triple.
///
/// # Errors
///
/// As [`run_load_chaos`], plus a failed trace-negotiation probe.
pub fn run_load_chaos_traced(
    addr: &str,
    spec: LoadSpec,
    plan: FaultPlan,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<ChaosOutcome, ClientError> {
    spec.validate();
    let config = ClientConfig::default();
    let mut target = ChaosTarget::new(addr, spec.shards, spec.group(), plan, config.clone())?;
    if let Some(recorder) = recorder {
        target = target.with_recorder(recorder)?;
    }
    let before = Client::connect_with(addr, config.clone())?.stats()?;
    let mut outcome = run_on_target(&target, spec, TargetKind::Chaos);
    let after = Client::connect_with(addr, config)?.stats()?;
    let reclaimed = after.reclaimed.saturating_sub(before.reclaimed);
    let counts = target.counts();
    outcome.recorder.add_errors(&ErrorClasses {
        timeouts: counts.timeouts,
        retries: counts.retries,
        reconnects: counts.reconnects,
        reclaimed,
    });
    Ok(ChaosOutcome {
        outcome,
        counts,
        winners: target.winner_epochs(),
        reclaimed,
    })
}
