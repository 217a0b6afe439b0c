//! The workload driver: closed- and open-loop traffic on real threads.
//!
//! Two classical load-generation disciplines, both generic over a
//! [`LoadTarget`] — the in-process [`TasArena`] or a remote `rtas-svc`
//! server (see [`crate::remote`]):
//!
//! * **Closed loop** — a fixed fleet of `threads` workers issues
//!   operations back to back: each worker hammers its home shard
//!   (`shard = worker % shards`), so every shard is resolved by a fixed
//!   group of `threads / shards` workers, epoch after epoch. Throughput
//!   is whatever the hardware sustains. There is no *offered-load*
//!   backlog to queue in, but each recorded latency spans the whole
//!   resolution **including the wait for the epoch's peer
//!   participants** — one-shot objects resolve as a group, so peer
//!   skew (worst under `--churn`, where a respawning slot stalls its
//!   shard) is genuine operation latency here, not measurement noise.
//!   Worker **churn** maps the scenario engine's
//!   retirement/respawn axis onto real threads: with `churn = c`, a
//!   worker's OS thread retires after `c` operations and a fresh thread
//!   (a fresh runner and frame stack — and, against a remote target, a
//!   cold connection) is spawned to continue its slot.
//! * **Open loop** — operations are *offered* at wall-clock instants
//!   from a deterministic [`ArrivalSchedule`] (same seed ⇒ identical
//!   offered load, run to run and machine to machine). Arrival `i` is
//!   striped to shard `i % shards` and handled by worker `i % threads`;
//!   each worker busy-waits until an operation's scheduled instant and
//!   records latency from that instant — not from when the worker got
//!   around to it — so queueing delay under overload is measured, not
//!   hidden (no coordinated omission).
//!
//! Both disciplines assign every epoch of every shard exactly `group =
//! threads / shards` operations, which is what makes the epoch protocol
//! deadlock-free: within any window of `threads` consecutive arrival
//! indices, each worker appears exactly once and each shard exactly
//! `group` times, so the workers march through epoch rounds together
//! and every epoch's participants eventually show up.
//!
//! **The epoch protocol.** The paper's objects are one-shot, so every
//! run recycles them by epochs, and one gate per shard, built fresh for
//! each run, is the whole client-side protocol for every target. A
//! participant of epoch `e` spins (then yields) until the shard's open
//! epoch reads `e` with acquire ordering, runs
//! [`LoadTarget::acquire`], and counts itself done; the epoch's **last
//! finisher** calls [`LoadTarget::recycle`] — the arena's reset, or a
//! remote target's `RESET` ack — and opens epoch `e + 1` with a release
//! store. The recycle therefore happens-before every next-epoch
//! operation. Because the gate starts at epoch 0 on every run and every
//! run ends with each shard recycled, a target can be driven again
//! without any epoch offset.
//!
//! **Warmup.** [`Warmup::Ops`] (closed loop) runs a fixed count of
//! unrecorded operations per worker, then releases the measured
//! section through a barrier — cold caches, first-touch page faults,
//! and lazily grown pools are paid before the clock starts.
//! [`Warmup::Secs`] (open loop) executes the first stretch of the
//! arrival schedule without recording it. Either way the warmup window
//! is excluded from [`LoadRecorder`] statistics, SLO checks, and the
//! measured wall clock; its operation/win counts are tallied
//! separately ([`LoadOutcome::warmup_ops`]) so the one-winner-per-epoch
//! safety check still covers every epoch driven.
//!
//! [`TasArena`]: crate::arena::TasArena

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rtas::sync::{Backoff, CachePadded};
use rtas::Backend;
use rtas_obs::report::{BenchReport, BenchRow};

use crate::arena::TasArena;
use crate::recorder::LoadRecorder;
use crate::schedule::ArrivalSchedule;

/// Anything the driver can aim traffic at: a sharded pool of
/// recyclable arbitration objects. The driver's epoch gate (see the
/// [module docs](self)) decides who acquires when and who recycles;
/// a target only performs the two operations.
///
/// Implementations: [`TasArena`] (in-process atomics) and
/// [`crate::remote::RemoteTarget`] (an `rtas-svc` server over TCP).
/// Workers are handed one [`LoadTarget::Ctx`] per *life* — a reused
/// runner and its frame stack for the arena, connections for the remote
/// target — so the per-operation path stays allocation- and
/// connect-free.
pub trait LoadTarget: Sync {
    /// Per-worker-life state threaded through every call.
    type Ctx: Send;

    /// Number of shards traffic is striped over.
    fn shards(&self) -> usize;

    /// Participants per epoch on every shard.
    fn group(&self) -> usize;

    /// Fresh per-life context (for remote targets this opens the
    /// connections). Called from the **main** thread for the initial
    /// fleet — so a connect failure panics there and aborts the run
    /// before any traffic or barrier is in flight — and from worker
    /// threads for churn respawns.
    fn context(&self) -> Self::Ctx;

    /// One operation on `shard`'s open epoch; `true` iff it won.
    fn acquire(&self, ctx: &mut Self::Ctx, shard: usize) -> bool;

    /// Recycle `shard` after its epoch `epoch` (the gate's count, from
    /// 0 each run) closed: every call of the epoch has returned.
    fn recycle(&self, ctx: &mut Self::Ctx, shard: usize, epoch: u64);

    /// Registers backing the target's object pool (0 if unknown).
    fn registers(&self) -> u64;
}

/// One shard's epoch header.
#[derive(Debug, Default)]
struct ShardGate {
    /// The open epoch: stored with `Release` by the finisher after its
    /// recycle, read with `Acquire` by entrants.
    epoch: AtomicU64,
    /// Completed calls within the open epoch (`0..=group`).
    done: AtomicUsize,
}

/// The client-side epoch protocol over one target for one run (see the
/// [module docs](self)).
struct EpochGate<'t, T> {
    target: &'t T,
    group: usize,
    shards: Vec<CachePadded<ShardGate>>,
}

impl<'t, T: LoadTarget> EpochGate<'t, T> {
    fn new(target: &'t T) -> Self {
        EpochGate {
            target,
            group: target.group(),
            shards: (0..target.shards())
                .map(|_| CachePadded(ShardGate::default()))
                .collect(),
        }
    }

    /// One operation of `epoch` on `shard`: wait for the epoch to open,
    /// acquire, and — as the epoch's last finisher — recycle and open
    /// the next epoch. `true` iff this call won.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` has already closed: the open epoch only
    /// advances, so waiting for the past would spin forever.
    fn resolve(&self, ctx: &mut T::Ctx, shard: usize, epoch: u64) -> bool {
        let gate = &self.shards[shard].0;
        // Spin briefly, then yield: workloads with more workers than
        // cores must not livelock the finisher out of its recycle.
        let mut backoff = Backoff::new();
        loop {
            let open = gate.epoch.load(Ordering::Acquire);
            if open == epoch {
                break;
            }
            assert!(
                open < epoch,
                "epoch {epoch} already closed (shard {shard} is at {open})"
            );
            backoff.snooze();
        }
        let won = self.target.acquire(ctx, shard);
        if gate.done.fetch_add(1, Ordering::AcqRel) + 1 == self.group {
            // Every call of this epoch has returned: the shard is
            // quiescent. Recycle it, then publish the recycle to the
            // next epoch's participants.
            self.target.recycle(ctx, shard, epoch);
            // Both stores are published by the release store below,
            // which every next-epoch entrant reads with acquire.
            gate.done.store(0, Ordering::Relaxed);
            gate.epoch.store(epoch + 1, Ordering::Release);
        }
        won
    }
}

/// Workload discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Fixed worker fleet, back-to-back operations, `total_ops` in all
    /// (truncated down to a multiple of the thread count).
    Closed {
        /// Total operations across all workers.
        total_ops: u64,
    },
    /// Deterministic Poisson arrivals at `rate` ops/second for
    /// `duration_secs` seconds.
    Open {
        /// Offered load, operations per second.
        rate: f64,
        /// Schedule horizon, seconds.
        duration_secs: f64,
    },
}

impl Mode {
    /// The mode's report label: `"closed"` or `"open"`.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Closed { .. } => "closed",
            Mode::Open { .. } => "open",
        }
    }
}

/// An unrecorded warmup window preceding the measured section (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Warmup {
    /// No warmup: measurement starts with the first operation.
    #[default]
    None,
    /// Closed loop: this many warmup operations in total (truncated
    /// down to a multiple of the thread count, like `total_ops`), run
    /// before the measured section's barrier release.
    Ops(u64),
    /// Open loop: epochs whose *first arrival* is scheduled inside the
    /// first `secs` of the horizon execute but go unrecorded. The cut
    /// is epoch-aligned — an epoch straddling the cutoff counts
    /// entirely as warmup — so per-shard measured ops stay a multiple
    /// of the group and the win accounting is a pure function of the
    /// seed. Must be shorter than the schedule duration.
    Secs(f64),
}

/// What kind of target a run was aimed at — picks the report identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// In-process [`TasArena`]: `BENCH_native_load.json`.
    Native,
    /// Remote `rtas-svc` server on the clean plan:
    /// `BENCH_svc_load.json`.
    Remote,
    /// Remote server under a `--chaos` fault plan (see
    /// [`crate::remote`]), with or without a fan-out:
    /// `BENCH_svc_chaos.json`.
    Chaos,
    /// Remote server on the clean plan, driven through a held-open
    /// connection fan-out ([`LoadSpec::conns`] — the C10K posture):
    /// `BENCH_svc_c10k.json`.
    C10k,
}

impl TargetKind {
    /// The report (and therefore `BENCH_*.json` file) name.
    pub fn report_name(self) -> &'static str {
        match self {
            TargetKind::Native => "native_load",
            TargetKind::Remote => "svc_load",
            TargetKind::Chaos => "svc_chaos",
            TargetKind::C10k => "svc_c10k",
        }
    }
}

/// A complete load-run specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Algorithm backing every pooled object (native targets; a remote
    /// server picks its own backend at `rtas-svc serve` time).
    pub backend: Backend,
    /// Worker threads. Must be a positive multiple of `shards`.
    pub threads: usize,
    /// Target shards. Each is resolved by `threads / shards` workers
    /// per epoch.
    pub shards: usize,
    /// Workload discipline.
    pub mode: Mode,
    /// Seed for the open-loop arrival schedule (unused in closed loop).
    pub seed: u64,
    /// Closed loop only: retire each worker's OS thread after this many
    /// measured operations and respawn a fresh one for the slot.
    pub churn: Option<u64>,
    /// Unrecorded warmup preceding the measured section.
    pub warmup: Warmup,
    /// Remote targets only: hold this many **total** connections open
    /// across the worker fleet (the C10K posture). Each worker owns
    /// `conns / threads` connections and round-robins its operations
    /// across them, so every connection stays live for the whole run
    /// while the thread count stays small. Must be a multiple of
    /// `threads`. `None` (the default) keeps the classic one
    /// connection per worker.
    pub conns: Option<usize>,
}

impl LoadSpec {
    /// Participants per epoch implied by the spec.
    pub fn group(&self) -> usize {
        self.threads / self.shards
    }

    pub(crate) fn validate(&self) {
        assert!(self.threads >= 1, "need at least one worker thread");
        assert!(self.shards >= 1, "need at least one shard");
        assert!(
            self.threads % self.shards == 0,
            "threads ({}) must be a multiple of shards ({}) so every epoch \
             has a full participant group",
            self.threads,
            self.shards
        );
        if let Some(conns) = self.conns {
            assert!(
                conns >= self.threads && conns % self.threads == 0,
                "conns ({conns}) must be a positive multiple of threads ({}) so \
                 every worker owns the same share of the fan-out",
                self.threads
            );
        }
        match self.mode {
            Mode::Open { duration_secs, .. } => {
                assert!(
                    self.churn.is_none(),
                    "churn is a closed-loop axis; open-loop offered load already \
                     decouples arrivals from worker lifetime"
                );
                match self.warmup {
                    Warmup::None => {}
                    Warmup::Ops(_) => {
                        panic!("Warmup::Ops is a closed-loop axis; use Warmup::Secs in open loop")
                    }
                    Warmup::Secs(secs) => assert!(
                        secs.is_finite() && secs >= 0.0 && secs < duration_secs,
                        "open-loop warmup ({secs}s) must be non-negative and shorter \
                         than the schedule duration ({duration_secs}s)"
                    ),
                }
            }
            Mode::Closed { .. } => {
                assert!(
                    !matches!(self.warmup, Warmup::Secs(_)),
                    "Warmup::Secs is an open-loop axis; use Warmup::Ops in closed loop"
                );
            }
        }
    }
}

/// The measured result of a load run.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// The spec the run executed.
    pub spec: LoadSpec,
    /// What the run was aimed at (picks the report identity).
    pub target: TargetKind,
    /// Per-shard latency/throughput observations (measured section
    /// only — warmup excluded).
    pub recorder: LoadRecorder,
    /// Wall clock of the measured section (warmup excluded).
    pub wall: Duration,
    /// Registers backing the target's object pool.
    pub registers: u64,
    /// Operations executed inside the warmup window (unrecorded).
    pub warmup_ops: u64,
    /// Warmup operations that won their resolution.
    pub warmup_wins: u64,
    /// Server-side observability extras scraped from a remote target's
    /// `METRICS` exposition after the run (empty for native targets or
    /// when the scrape failed) — folded into the report's `scope=total`
    /// row as extra `svc_*` values. See
    /// [`crate::remote::scrape_svc_extras`].
    pub svc_extras: Vec<(String, f64)>,
}

impl LoadOutcome {
    /// Measured operations completed (warmup excluded).
    pub fn total_ops(&self) -> u64 {
        self.recorder.total_ops()
    }

    /// Every operation the run drove, warmup included.
    pub fn all_ops(&self) -> u64 {
        self.total_ops() + self.warmup_ops
    }

    /// Resolutions completed (epochs closed), warmup included: one
    /// winner each.
    pub fn resolutions(&self) -> u64 {
        self.all_ops() / self.spec.group() as u64
    }

    /// Measured winning operations. The full safety invariant spans
    /// the warmup window too:
    /// `total_wins() + warmup_wins == resolutions()`.
    pub fn total_wins(&self) -> u64 {
        self.recorder.total_wins()
    }

    /// Measured operations per second of measured wall clock.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        self.total_ops() as f64 / self.wall.as_secs_f64()
    }

    /// The backend label carried by every report row: the algorithm for
    /// native runs, `"remote"` for service runs (the server picks its
    /// own algorithm).
    pub fn backend_name(&self) -> &'static str {
        match self.target {
            TargetKind::Native => self.spec.backend.label(),
            TargetKind::Remote | TargetKind::C10k => "remote",
            TargetKind::Chaos => "chaos",
        }
    }

    /// The run as a `BENCH_native_load.json` / `BENCH_svc_load.json`
    /// report (by [`TargetKind`]): one row per shard plus a
    /// `scope=total` aggregate row.
    ///
    /// Latency statistics are in microseconds. Every row carries the
    /// label `gate=wall`: the values are wall-clock-derived, so
    /// `bench-diff` checks them structurally (row set, op counts,
    /// finiteness) but skips tolerance gating unless `--gate-wall` is
    /// passed.
    pub fn bench_report(&self) -> BenchReport {
        let backend = self.backend_name();
        let mode = self.spec.mode.label();
        // The fan-out width labels every row — but only when the axis
        // is in play, so classic reports keep their row identity.
        let conns = self.spec.conns.map(|c| c.to_string());
        let fan_out = |row: BenchRow| match &conns {
            Some(c) => row.with_label("conns", c),
            None => row,
        };
        let wall_secs = self.wall.as_secs_f64();
        let mut report = BenchReport::new(self.target.report_name(), self.spec.threads);
        for (s, cell) in self.recorder.shard_stats().iter().enumerate() {
            // Per-shard wall clock is meaningless (shards run
            // concurrently): NaN serializes as null, never a fabricated
            // number. The run's wall lives on the total row.
            report.push(fan_out(
                BenchRow::from_summary(s as u64, &cell.latency.summary(), f64::NAN)
                    .with("ops", cell.ops as f64)
                    .with("wins", cell.wins as f64)
                    .with("epochs", (cell.ops / self.spec.group() as u64) as f64)
                    .with("throughput_ops_s", cell.ops as f64 / wall_secs)
                    .with_label("backend", backend)
                    .with_label("mode", mode)
                    .with_label("scope", "shard")
                    .with_label("gate", "wall"),
            ));
        }
        let mut total = fan_out(
            BenchRow::from_summary(
                0,
                &self.recorder.overall_latency(),
                self.wall.as_secs_f64() * 1e3,
            )
            .with("ops", self.total_ops() as f64)
            .with("wins", self.total_wins() as f64)
            // Measured-section epochs, consistent with the shard rows
            // and `wins`; warmup-window epochs are visible through
            // `warmup_ops` (and `LoadOutcome::resolutions`, which spans
            // both windows for the safety accounting).
            .with(
                "epochs",
                (self.total_ops() / self.spec.group() as u64) as f64,
            )
            .with("warmup_ops", self.warmup_ops as f64)
            .with("throughput_ops_s", self.throughput_ops_per_sec())
            // Error classes: all zeros on a clean network, nonzero when
            // the run degraded — visible in the report instead of
            // silently folded into latency. bench-diff gates these
            // structurally (presence + finiteness) like every
            // `gate=wall` value.
            .with("err_timeouts", self.recorder.errors().timeouts as f64)
            .with("err_retries", self.recorder.errors().retries as f64)
            .with("err_reconnects", self.recorder.errors().reconnects as f64)
            .with("err_reclaimed", self.recorder.errors().reclaimed as f64)
            .with("registers", self.registers as f64)
            .with("shards", self.spec.shards as f64)
            .with("group", self.spec.group() as f64)
            .with_label("backend", backend)
            .with_label("mode", mode)
            .with_label("scope", "total")
            .with_label("gate", "wall"),
        );
        // Server-side observability extras, when a remote run scraped
        // them: same gate=wall structural treatment as the err_*
        // classes.
        for (name, value) in &self.svc_extras {
            total = total.with(name, *value);
        }
        report.push(total);
        report
    }
}

/// Latency service-level objectives, checked against a finished run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slo {
    /// Median latency ceiling, microseconds.
    pub p50_us: Option<f64>,
    /// 99th-percentile latency ceiling, microseconds.
    pub p99_us: Option<f64>,
}

impl Slo {
    /// Violations of this SLO by `outcome`'s overall latency
    /// distribution (the measured section — warmup never counts), as
    /// human-readable lines (empty = SLO met).
    ///
    /// A run that completed **zero measured operations** violates every
    /// configured SLO: an empty distribution reports 0.0 quantiles,
    /// which would trivially pass any limit — but "we did nothing" must
    /// not read as "we met the objective" (e.g. an open-loop schedule
    /// truncated to empty by a rate·duration product below the thread
    /// count).
    pub fn violations(&self, outcome: &LoadOutcome) -> Vec<String> {
        let overall = outcome.recorder.overall_latency();
        if overall.count == 0 && (self.p50_us.is_some() || self.p99_us.is_some()) {
            return vec!["run completed zero operations; SLOs cannot be met".to_string()];
        }
        let mut out = Vec::new();
        if let Some(limit) = self.p50_us {
            if overall.p50 > limit {
                out.push(format!("p50 {:.1}us exceeds SLO {limit:.1}us", overall.p50));
            }
        }
        if let Some(limit) = self.p99_us {
            if overall.p99 > limit {
                out.push(format!("p99 {:.1}us exceeds SLO {limit:.1}us", overall.p99));
            }
        }
        out
    }
}

/// The default shard count for a worker fleet: the largest divisor of
/// `threads` no bigger than half of it (groups of ≥ 2 where possible),
/// falling back to 1 — so the result always satisfies
/// `threads % shards == 0`, also for odd or prime thread counts.
pub fn default_shards(threads: usize) -> usize {
    (1..=threads.max(1) / 2)
        .rev()
        .find(|s| threads % s == 0)
        .unwrap_or(1)
}

/// Run the specified workload on a fresh arena.
///
/// Builds the arena (the only heavyweight allocation), runs the
/// workload, and returns the measured outcome.
///
/// # Panics
///
/// Panics on an inconsistent spec (see [`LoadSpec`] field docs).
pub fn run_load(spec: LoadSpec) -> LoadOutcome {
    spec.validate();
    assert!(
        spec.conns.is_none(),
        "conns is a remote axis (there are no connections to fan out in-process)"
    );
    let arena = TasArena::new(spec.backend, spec.shards, spec.group());
    run_on_target(&arena, spec, TargetKind::Native)
}

/// Run the specified workload on an existing arena (benches reuse one
/// arena across samples so constructor cost stays out of the measured
/// section; every run leaves each shard recycled). The arena's shard
/// count and group must match the spec.
pub fn run_load_on(arena: &TasArena, spec: LoadSpec) -> LoadOutcome {
    spec.validate();
    run_on_target(arena, spec, TargetKind::Native)
}

/// Run the specified workload on any [`LoadTarget`]. The caller must
/// have validated the spec (see [`run_load_on`] and
/// [`crate::remote::run_load_remote`], the public faces).
pub(crate) fn run_on_target<T: LoadTarget>(
    target: &T,
    spec: LoadSpec,
    kind: TargetKind,
) -> LoadOutcome {
    assert_eq!(target.shards(), spec.shards, "target/spec shard mismatch");
    assert_eq!(target.group(), spec.group(), "target/spec group mismatch");
    let registers = target.registers();
    let (recorder, warmup, wall) = match spec.mode {
        Mode::Closed { total_ops } => {
            let ops_per_worker = total_ops / spec.threads as u64;
            let warmup_per_worker = match spec.warmup {
                Warmup::Ops(total) => total / spec.threads as u64,
                _ => 0,
            };
            run_closed(
                target,
                spec.threads,
                ops_per_worker,
                warmup_per_worker,
                spec.churn,
            )
        }
        Mode::Open {
            rate,
            duration_secs,
        } => {
            let mut schedule = ArrivalSchedule::poisson(rate, duration_secs, spec.seed);
            schedule.truncate_to_multiple_of(spec.threads);
            let warmup_cutoff_ns = match spec.warmup {
                Warmup::Secs(secs) => (secs * 1e9) as u64,
                _ => 0,
            };
            run_open(target, spec.threads, &schedule, warmup_cutoff_ns)
        }
    };
    LoadOutcome {
        spec,
        target: kind,
        recorder,
        wall,
        registers,
        warmup_ops: warmup.ops,
        warmup_wins: warmup.wins,
        svc_extras: Vec::new(),
    }
}

/// Unrecorded-window tally: enough to keep the safety accounting
/// (one winner per epoch) airtight across the warmup boundary.
#[derive(Debug, Clone, Copy, Default)]
struct WarmupTally {
    ops: u64,
    wins: u64,
}

impl WarmupTally {
    fn record(&mut self, won: bool) {
        self.ops += 1;
        self.wins += won as u64;
    }

    fn merge(&mut self, other: WarmupTally) {
        self.ops += other.ops;
        self.wins += other.wins;
    }
}

/// Arrive at a barrier exactly once, **even when unwinding**: a worker
/// that panics before its rendezvous (a warmup-epoch assertion, say)
/// must release the barrier on the way out rather than strand the main
/// thread in `wait()` forever — the panic then surfaces through the
/// ordinary `join` path.
struct Rendezvous<'a> {
    barrier: &'a Barrier,
    arrived: bool,
}

impl<'a> Rendezvous<'a> {
    fn new(barrier: &'a Barrier) -> Self {
        Rendezvous {
            barrier,
            arrived: false,
        }
    }

    fn arrive(&mut self) {
        if !self.arrived {
            self.arrived = true;
            self.barrier.wait();
        }
    }
}

impl Drop for Rendezvous<'_> {
    fn drop(&mut self) {
        self.arrive();
    }
}

fn run_closed<T: LoadTarget>(
    target: &T,
    threads: usize,
    ops_per_worker: u64,
    warmup_per_worker: u64,
    churn: Option<u64>,
) -> (LoadRecorder, WarmupTally, Duration) {
    let shards = target.shards();
    let gate = EpochGate::new(target);
    // Initial-fleet contexts are created HERE, before any thread or
    // barrier exists: a remote target's connect failure aborts the run
    // with a clean panic instead of stranding a half-spawned fleet.
    let contexts: Vec<T::Ctx> = (0..threads).map(|_| target.context()).collect();
    // Workers warm up, then rendezvous with the main thread so the
    // measured wall clock starts when every worker is hot.
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = contexts
            .into_iter()
            .enumerate()
            .map(|(slot, ctx)| {
                let gate = &gate;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut ctx = ctx;
                    let mut rendezvous = Rendezvous::new(barrier);
                    let shard = slot % shards;
                    let mut recorder = LoadRecorder::new(shards);
                    let mut warmup = WarmupTally::default();
                    for j in 0..warmup_per_worker {
                        warmup.record(gate.resolve(&mut ctx, shard, j));
                    }
                    rendezvous.arrive();
                    let base = warmup_per_worker;
                    let mut next_op = 0u64;
                    while next_op < ops_per_worker {
                        // One worker *life*: without churn, all remaining
                        // ops on this thread; with churn, a bounded slice
                        // on a fresh OS thread (cold context included).
                        let len = churn
                            .map(|c| c.max(1).min(ops_per_worker - next_op))
                            .unwrap_or(ops_per_worker - next_op);
                        let run_life = |recorder: &mut LoadRecorder, ctx: &mut T::Ctx| {
                            for j in next_op..next_op + len {
                                let t0 = Instant::now();
                                let won = gate.resolve(ctx, shard, base + j);
                                recorder.record(shard, t0.elapsed().as_secs_f64() * 1e6, won);
                            }
                        };
                        if churn.is_some() && len < ops_per_worker {
                            // Retirement/respawn: the slice runs on its own
                            // thread; the slot thread is just the supervisor.
                            std::thread::scope(|s2| {
                                s2.spawn(|| {
                                    let mut fresh = target.context();
                                    run_life(&mut recorder, &mut fresh);
                                })
                                .join()
                                .unwrap()
                            });
                        } else {
                            run_life(&mut recorder, &mut ctx);
                        }
                        next_op += len;
                    }
                    (recorder, warmup)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut merged = LoadRecorder::new(shards);
        let mut warmup = WarmupTally::default();
        for handle in handles {
            let (recorder, tally) = handle.join().expect("load worker panicked");
            merged.merge(&recorder);
            warmup.merge(tally);
        }
        (merged, warmup, start.elapsed())
    })
}

fn run_open<T: LoadTarget>(
    target: &T,
    threads: usize,
    schedule: &ArrivalSchedule,
    warmup_cutoff_ns: u64,
) -> (LoadRecorder, WarmupTally, Duration) {
    let shards = target.shards();
    let group = target.group() as u64;
    let gate = EpochGate::new(target);
    // Epoch-aligned warmup cut: shard `s`'s epoch `e` spans arrival
    // indices `s + shards·(e·group ..= e·group + group − 1)`; the epoch
    // is warmup iff its FIRST arrival is scheduled before the cutoff.
    // Classifying whole epochs (not individual arrivals) keeps each
    // window's win count a deterministic function of the seed — a
    // straddling epoch's winner would otherwise land in whichever
    // window its winning participant happened to occupy.
    let epochs_per_shard = schedule.len() / shards / group as usize;
    let warm_epochs: Vec<u64> = (0..shards)
        .map(|s| {
            (0..epochs_per_shard)
                .take_while(|&e| {
                    schedule.start_ns(s + shards * group as usize * e) < warmup_cutoff_ns
                })
                .count() as u64
        })
        .collect();
    // As in the closed loop: connect failures abort here, before the
    // schedule clock starts or any worker exists.
    let contexts: Vec<T::Ctx> = (0..threads).map(|_| target.context()).collect();
    let begin = Instant::now();
    let (recorder, warmup) = std::thread::scope(|s| {
        let handles: Vec<_> = contexts
            .into_iter()
            .enumerate()
            .map(|(worker, ctx)| {
                let gate = &gate;
                let warm_epochs = &warm_epochs;
                s.spawn(move || {
                    let mut ctx = ctx;
                    let mut recorder = LoadRecorder::new(shards);
                    let mut warmup = WarmupTally::default();
                    let mut i = worker;
                    while i < schedule.len() {
                        let shard = i % shards;
                        let epoch = (i / shards) as u64 / group;
                        let due = begin + Duration::from_nanos(schedule.start_ns(i));
                        // Offered load: wait for the scheduled instant
                        // (sleep coarsely, spin the last stretch), but never
                        // skip an op we are late for — lateness shows up as
                        // queueing latency instead.
                        loop {
                            let now = Instant::now();
                            if now >= due {
                                break;
                            }
                            let remaining = due - now;
                            if remaining > Duration::from_micros(200) {
                                std::thread::sleep(remaining - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let won = gate.resolve(&mut ctx, shard, epoch);
                        if epoch < warm_epochs[shard] {
                            warmup.record(won);
                        } else {
                            // Latency from the *scheduled* instant: queueing
                            // delay included, coordinated omission excluded.
                            recorder.record(shard, due.elapsed().as_secs_f64() * 1e6, won);
                        }
                        i += threads;
                    }
                    (recorder, warmup)
                })
            })
            .collect();
        let mut merged = LoadRecorder::new(shards);
        let mut warmup = WarmupTally::default();
        for handle in handles {
            let (recorder, tally) = handle.join().expect("load worker panicked");
            merged.merge(&recorder);
            warmup.merge(tally);
        }
        (merged, warmup)
    });
    let wall = begin
        .elapsed()
        .saturating_sub(Duration::from_nanos(warmup_cutoff_ns));
    (recorder, warmup, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed_spec(threads: usize, shards: usize, total_ops: u64) -> LoadSpec {
        LoadSpec {
            backend: Backend::Combined,
            threads,
            shards,
            mode: Mode::Closed { total_ops },
            seed: 1,
            churn: None,
            warmup: Warmup::None,
            conns: None,
        }
    }

    #[test]
    fn closed_loop_one_winner_per_resolution() {
        let spec = closed_spec(4, 2, 400);
        let out = run_load(spec);
        assert_eq!(out.total_ops(), 400);
        assert_eq!(out.spec.group(), 2);
        assert_eq!(out.resolutions(), 200);
        assert_eq!(out.total_wins(), 200, "exactly one winner per epoch");
        assert!(out.throughput_ops_per_sec() > 0.0);
        assert!(out.registers > 0);
        assert_eq!(out.target, TargetKind::Native);
    }

    #[test]
    fn closed_loop_with_churn_matches_op_counts() {
        let mut spec = closed_spec(4, 2, 240);
        spec.churn = Some(13);
        let out = run_load(spec);
        assert_eq!(out.total_ops(), 240);
        assert_eq!(out.total_wins(), out.resolutions());
    }

    #[test]
    fn closed_loop_warmup_is_driven_but_unrecorded() {
        let mut spec = closed_spec(4, 2, 200);
        spec.warmup = Warmup::Ops(80);
        let out = run_load(spec);
        assert_eq!(out.total_ops(), 200, "recorder sees only measured ops");
        assert_eq!(out.warmup_ops, 80, "warmup ops are tallied separately");
        assert_eq!(out.all_ops(), 280);
        assert_eq!(out.resolutions(), 140, "warmup epochs complete too");
        assert_eq!(
            out.total_wins() + out.warmup_wins,
            out.resolutions(),
            "one winner per epoch across the warmup boundary"
        );
        // Warmup ops must not inflate the latency distribution.
        assert_eq!(out.recorder.overall_latency().count, 200);
    }

    #[test]
    fn open_loop_warmup_window_is_excluded_from_stats() {
        let spec = LoadSpec {
            backend: Backend::LogStar,
            threads: 4,
            shards: 2,
            mode: Mode::Open {
                rate: 40_000.0,
                duration_secs: 0.05,
            },
            seed: 9,
            churn: None,
            warmup: Warmup::Secs(0.02),
            conns: None,
        };
        let mut expected = ArrivalSchedule::poisson(40_000.0, 0.05, 9);
        expected.truncate_to_multiple_of(4);
        let cutoff = 0.02e9 as u64;
        // The epoch-aligned cut: shard s's epoch e is warmup iff its
        // first arrival (index s + shards·group·e) is before the cutoff.
        let (shards, group) = (2usize, 2usize);
        let epochs_per_shard = expected.len() / shards / group;
        let expected_warm: u64 = (0..shards)
            .map(|s| {
                (0..epochs_per_shard)
                    .take_while(|&e| expected.start_ns(s + shards * group * e) < cutoff)
                    .count() as u64
                    * group as u64
            })
            .sum();
        let out = run_load(spec);
        assert!(expected_warm > 0, "cutoff must cover some epochs");
        assert_eq!(out.warmup_ops, expected_warm);
        assert_eq!(out.all_ops(), expected.len() as u64);
        assert_eq!(out.total_ops(), expected.len() as u64 - expected_warm);
        assert_eq!(out.total_wins() + out.warmup_wins, out.resolutions());
        // Epoch alignment makes the per-shard win accounting exact and
        // deterministic: measured wins == measured epochs on every shard.
        for cell in out.recorder.shard_stats() {
            assert_eq!(cell.ops % group as u64, 0);
            assert_eq!(cell.wins, cell.ops / group as u64);
        }
    }

    #[test]
    fn open_loop_completes_schedule_exactly() {
        let spec = LoadSpec {
            backend: Backend::LogStar,
            threads: 4,
            shards: 2,
            mode: Mode::Open {
                rate: 40_000.0,
                duration_secs: 0.05,
            },
            seed: 9,
            churn: None,
            warmup: Warmup::None,
            conns: None,
        };
        let mut expected = ArrivalSchedule::poisson(40_000.0, 0.05, 9);
        expected.truncate_to_multiple_of(4);
        let out = run_load(spec);
        assert_eq!(out.total_ops(), expected.len() as u64);
        assert_eq!(out.total_wins(), out.resolutions());
    }

    #[test]
    fn report_shape_per_shard_plus_total() {
        let out = run_load(closed_spec(2, 2, 100));
        let report = out.bench_report();
        assert_eq!(report.name(), "native_load");
        assert_eq!(report.rows().len(), 3, "2 shard rows + 1 total row");
        let total = report.rows().last().unwrap();
        assert!(total.labels.contains(&("scope".into(), "total".into())));
        assert!(total.labels.contains(&("gate".into(), "wall".into())));
        assert_eq!(total.trials, 100);
        // Error classes ride the total row — zero on a clean network,
        // but always present so degraded runs diff structurally.
        for key in [
            "err_timeouts",
            "err_retries",
            "err_reconnects",
            "err_reclaimed",
        ] {
            assert!(
                total.extra.iter().any(|(k, v)| k == key && *v == 0.0),
                "{key} present and zero on a clean run"
            );
        }
        // Round-trips through the JSON machinery like every report.
        let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn slo_violations_fire_only_beyond_limits() {
        let out = run_load(closed_spec(2, 1, 50));
        let lenient = Slo {
            p50_us: Some(1e9),
            p99_us: Some(1e9),
        };
        assert!(lenient.violations(&out).is_empty());
        let strict = Slo {
            p50_us: Some(0.0),
            p99_us: None,
        };
        assert_eq!(strict.violations(&out).len(), 1);
    }

    #[test]
    fn slo_fails_a_run_that_did_nothing() {
        // 10 ops/s for 0.1s rounds to ~1 arrival, truncated to 0 by the
        // 4-thread striping: the run completes zero operations and any
        // configured SLO must fail rather than vacuously pass.
        let out = run_load(LoadSpec {
            backend: Backend::LogStar,
            threads: 4,
            shards: 2,
            mode: Mode::Open {
                rate: 10.0,
                duration_secs: 0.1,
            },
            seed: 1,
            churn: None,
            warmup: Warmup::None,
            conns: None,
        });
        assert_eq!(out.total_ops(), 0);
        let slo = Slo {
            p50_us: None,
            p99_us: Some(5_000.0),
        };
        let violations = slo.violations(&out);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("zero operations"));
        // With no SLO configured, an empty run is not a violation.
        assert!(Slo::default().violations(&out).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of shards")]
    fn mismatched_threads_shards_rejected() {
        run_load(closed_spec(3, 2, 10));
    }

    #[test]
    #[should_panic(expected = "positive multiple of threads")]
    fn conns_must_divide_evenly_across_workers() {
        let mut spec = closed_spec(4, 2, 10);
        spec.conns = Some(6); // 6 % 4 != 0
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "remote axis")]
    fn conns_against_the_native_target_rejected() {
        let mut spec = closed_spec(2, 1, 10);
        spec.conns = Some(4);
        run_load(spec);
    }

    #[test]
    fn conns_label_marks_every_fan_out_row() {
        let spec = closed_spec(2, 1, 100);
        let mut out = run_load(spec);
        // Native reports carry no conns label...
        let plain = out.bench_report();
        assert!(plain
            .rows()
            .iter()
            .all(|r| !r.labels.iter().any(|(k, _)| k == "conns")));
        // ...while a fan-out outcome labels every row, and the report
        // lands under the dedicated c10k name.
        out.spec.conns = Some(8);
        out.target = TargetKind::C10k;
        let fanned = out.bench_report();
        assert_eq!(fanned.name(), "svc_c10k");
        assert!(fanned
            .rows()
            .iter()
            .all(|r| r.labels.iter().any(|(k, v)| k == "conns" && v == "8")));
    }

    #[test]
    #[should_panic(expected = "churn is a closed-loop axis")]
    fn open_loop_churn_rejected() {
        let mut spec = closed_spec(2, 1, 10);
        spec.mode = Mode::Open {
            rate: 1000.0,
            duration_secs: 0.01,
        };
        spec.churn = Some(5);
        run_load(spec);
    }

    #[test]
    #[should_panic(expected = "Warmup::Ops is a closed-loop axis")]
    fn open_loop_op_warmup_rejected() {
        let mut spec = closed_spec(2, 1, 10);
        spec.mode = Mode::Open {
            rate: 1000.0,
            duration_secs: 0.01,
        };
        spec.warmup = Warmup::Ops(10);
        run_load(spec);
    }

    #[test]
    #[should_panic(expected = "Warmup::Secs is an open-loop axis")]
    fn closed_loop_secs_warmup_rejected() {
        let mut spec = closed_spec(2, 1, 10);
        spec.warmup = Warmup::Secs(0.5);
        run_load(spec);
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn warmup_longer_than_schedule_rejected() {
        let mut spec = closed_spec(2, 1, 10);
        spec.mode = Mode::Open {
            rate: 1000.0,
            duration_secs: 0.01,
        };
        spec.warmup = Warmup::Secs(0.5);
        run_load(spec);
    }

    #[test]
    fn default_shards_always_divides_threads() {
        for threads in 1..=64 {
            let shards = default_shards(threads);
            assert!(shards >= 1);
            assert_eq!(threads % shards, 0, "threads={threads} shards={shards}");
        }
        assert_eq!(default_shards(8), 4);
        assert_eq!(default_shards(6), 3);
        assert_eq!(default_shards(5), 1, "prime: solo shard");
        assert_eq!(default_shards(12), 6);
        assert_eq!(default_shards(0), 1);
    }

    #[test]
    #[should_panic(expected = "already closed")]
    fn resolving_a_past_epoch_panics_instead_of_hanging() {
        let arena = TasArena::new(Backend::LogStar, 1, 1);
        let gate = EpochGate::new(&arena);
        let mut runner = arena.context();
        for epoch in 0..3 {
            let _ = gate.resolve(&mut runner, 0, epoch);
        }
        let _ = gate.resolve(&mut runner, 0, 1);
    }
}
