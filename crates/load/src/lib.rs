//! # rtas-load — the native load-generation harness
//!
//! The simulator proves the paper's step-count claims under adversarial
//! scheduling; this crate turns them into measured throughput and tail
//! latency on real hardware. It sits between the verified protocols
//! (`rtas`) and the "serve heavy traffic" goal, and is the platform
//! future scaling work (batching, NUMA pinning, multi-backend routing)
//! plugs into. Five pieces:
//!
//! * [`arena`] — a sharded pool of recyclable native TAS objects:
//!   allocation-free [`reset`](rtas::ObjectState::reset) by epoch
//!   instead of a fresh object per resolution, shard-striped so
//!   independent resolutions don't false-share.
//! * [`schedule`] — deterministic SplitMix64-driven arrival schedules:
//!   the same seed offers bit-identical load on every machine.
//! * [`driver`] — closed-loop (fixed fleet, back-to-back) and open-loop
//!   (offered-load, coordinated-omission-free latency) workload
//!   execution on real threads, with worker churn mapping the scenario
//!   engine's retirement/respawn axis onto OS threads, plus latency
//!   [`Slo`] checks. The driver owns the one client-side epoch
//!   protocol: a per-shard gate built for each run, so a target only
//!   acquires and recycles.
//! * [`recorder`] — per-shard latency/throughput accumulation through
//!   `rtas_obs`'s mergeable [`StatsAccumulator`], folded across
//!   workers order-independently.
//! * [`remote`] — the same drivers aimed at an `rtas-svc` arbitration
//!   server over TCP (`--backend remote --addr host:port`): shard `s`
//!   becomes the key `load/s`, epochs recycle through the wire
//!   protocol's `RESET` ack, and every request goes through
//!   `rtas-svc`'s fault-injecting client on one seeded plan — the
//!   `clean` preset for plain and fan-out (`--conns`) runs, the
//!   `--chaos` spec otherwise (delays, drops, truncation, reordering,
//!   stalled holders, byzantine `RESET` acks, replayed bit-identically
//!   from one seed). Every remote run enforces the
//!   one-winner-per-key-epoch bar fail-fast and reports as
//!   `BENCH_svc_load.json`, `BENCH_svc_c10k.json` or
//!   `BENCH_svc_chaos.json`.
//!
//! The `rtas-load` binary drives all of it from the command line and
//! emits `BENCH_native_load.json` (or one of the `svc_*` reports) through
//! the `rtas_obs` report machinery; `bench-diff` checks those reports
//! structurally and leaves their wall-clock-derived metrics out of
//! tolerance gating unless `--gate-wall` is passed.
//!
//! ```
//! use rtas::Backend;
//! use rtas_load::driver::{run_load, LoadSpec, Mode, Warmup};
//!
//! let out = run_load(LoadSpec {
//!     backend: Backend::Combined,
//!     threads: 4,
//!     shards: 2,
//!     mode: Mode::Closed { total_ops: 2_000 },
//!     seed: 7,
//!     churn: None,
//!     warmup: Warmup::None,
//!     conns: None,
//! });
//! assert_eq!(out.total_wins(), out.resolutions()); // one winner per epoch
//! ```
//!
//! [`StatsAccumulator`]: rtas_obs::stats::StatsAccumulator

pub mod arena;
pub mod driver;
pub mod recorder;
pub mod remote;
pub mod schedule;

pub use arena::TasArena;
pub use driver::{
    run_load, run_load_on, LoadOutcome, LoadSpec, LoadTarget, Mode, Slo, TargetKind, Warmup,
};
pub use recorder::{ErrorClasses, LoadRecorder};
pub use remote::{run_load_remote, scrape_svc_extras, RemoteOutcome, RemoteTarget};
pub use schedule::ArrivalSchedule;
