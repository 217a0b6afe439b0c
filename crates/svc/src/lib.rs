//! # rtas-svc — the network arbitration service
//!
//! Real systems consume test-and-set as a *service*: "who gets this
//! lease", "which replica leads shard 17", "did anyone already claim
//! this job". This crate puts the paper's verified randomized
//! algorithms behind exactly that interface — a std-only TCP server
//! arbitrating contended decisions over **keyed namespaces**, each key
//! an epoch-recycled [`rtas::ObjectState`] (its registers and counters)
//! run through the namespace's shared [`rtas::Layout`]. Three layers:
//!
//! * [`protocol`] — the length-prefixed binary wire format (`TAS key`,
//!   `ELECT key`, `RESET key`, `STATS`), with in-order responses so
//!   clients can pipeline;
//! * [`namespace`] — sharded keyed state: keys hash to independently
//!   locked shards, every key recycles through epochs with a
//!   CAS-admission / release-publish gate that generalizes the
//!   `rtas-load` arena's protocol to dynamic membership with an
//!   explicit ack (`RESET`), allocation-free in steady state;
//! * [`conn`] — the per-connection protocol state machine (bytes in →
//!   response bytes out, zero I/O inside): an incremental frame
//!   decoder that drains whole pipelined bursts per read and carries
//!   partial frames across reads;
//! * [`reactor`] — the readiness-driven core: `epoll(7)`-backed event
//!   loops over a libc-free syscall shim, each accepting its share of
//!   connections round-robin and driving thousands of `Connection`
//!   machines with write backpressure and read deadlines checked by
//!   one periodic sweep over each worker's connection slab;
//! * [`server`] / [`client`] — TCP serving through the reactor
//!   workers (Linux on x86_64/aarch64; elsewhere [`Server::spawn`]
//!   fails as unsupported) with one admission policy and bulk-I/O
//!   burst handling (one read, one coalesced write per pipelined
//!   burst), and a blocking pipelining-capable client with batched
//!   single-write sends, bounded timeouts, and jittered reconnect
//!   backoff;
//! * [`chaos`] — the deterministic hostile-network layer: a seeded
//!   fault plan (delays, connection drops, frame truncation and
//!   reordering, stalled holders, byzantine `RESET` acks) that the
//!   load harness replays bit-identically from one seed;
//! * [`metrics`] — the service's always-on metrics plane (reactor
//!   counter, per-worker slab gauge, per-stage latency histograms) built
//!   on [`rtas_obs`], served by the `METRICS` wire op and scraped into
//!   `rtas-load` report extras. The companion flight recorder
//!   (`--trace on|off|sampled:<n>`) writes lock-free per-worker event
//!   rings dumped in the `RTASTRC1` format and decoded by
//!   `rtas-trace dump`; [`top`] renders a live terminal view over
//!   the same metrics plane (`rtas-svc top`), and the `rtas-trace`
//!   binary merges client/server dumps on wire-propagated span ids
//!   and audits them against the paper's safety claim offline.
//!
//! The `rtas-svc` binary serves (`rtas-svc serve`) and inspects
//! (`rtas-svc stats`) from the command line; `rtas-load --backend
//! remote --addr host:port` fires its deterministic open-loop arrival
//! schedules at a server and emits `BENCH_svc_load.json`.
//!
//! ```
//! use rtas_svc::{server, Client};
//!
//! let srv = server::spawn_local(rtas::Backend::Combined, 4, 8).unwrap();
//! let mut client = Client::connect(srv.addr()).unwrap();
//! assert!(client.tas(b"jobs/2026-07-30/backfill").unwrap().won);
//! assert!(!client.tas(b"jobs/2026-07-30/backfill").unwrap().won);
//! let epoch = client.reset(b"jobs/2026-07-30/backfill").unwrap();
//! assert_eq!(epoch, 1); // recycled: the key arbitrates afresh
//! srv.shutdown();
//! ```
//!
//! The architecture (crate graph, reactor event loop, connection
//! lifecycle) is specified in `docs/ARCHITECTURE.md`, the wire format
//! in `docs/WIRE.md`, and every operational flag in
//! `docs/OPERATIONS.md`.

#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod client;
pub mod conn;
pub mod metrics;
pub mod namespace;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod top;

/// The observability substrate (event rings, dump codec, metric
/// types), re-exported so integration tests and tools decode trace
/// dumps without naming a second crate.
pub use rtas_obs as obs;

pub use chaos::{ChaosSpec, FaultPlan};
pub use client::{Client, ClientConfig, ClientError, ClientTracer, RetryPolicy};
pub use conn::{ConnGauges, ConnStatus, Connection, FrameDecoder};
pub use metrics::SvcMetrics;
pub use namespace::{Kind, Namespace, NsError};
pub use protocol::{Acquired, Op, Response, SvcStats};
pub use reactor::Engine;
pub use rtas_obs::TraceMode;
pub use server::{Server, SvcConfig};
