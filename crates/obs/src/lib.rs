//! # rtas-obs — the observability plane
//!
//! Production arbitration needs to answer two questions the service's
//! end-state assertions and aggregate BENCH numbers cannot: *what did
//! the reactor actually do just now* (when a chaos cell or the c10k
//! smoke fails), and *how is it doing right now* (for dashboards and
//! regression gates). This crate is the substrate for both, kept
//! std-only and dependency-light like everything else in the repo:
//!
//! * [`ring`] — the **flight recorder**'s storage: per-lane lock-free
//!   ring buffers of fixed-size binary event records. Writers claim a
//!   slot with one CAS and publish with a release store (a multi-writer
//!   seqlock); readers snapshot concurrently and discard torn slots.
//!   Lossy by design — when the ring laps an unread slot the oldest
//!   event goes away — because a flight recorder's job is *recent
//!   history at zero steady-state cost*, not a complete log. Rings are
//!   fully pre-allocated: recording never allocates.
//! * [`event`] — the event vocabulary ([`EventKind`]) and the decoded
//!   record type ([`TraceEvent`]): accept, admission refusal, readiness
//!   wakeup, frame decoded, arbiter verdict, RESET ack, lease reclaim,
//!   backpressure on/off, read-deadline sweep. Every record is four
//!   `u64` words plus a timestamp from one shared
//!   [`rtas::MonotonicClock`].
//! * [`recorder`] — [`FlightRecorder`]: the lanes (accept, reclaim,
//!   one per reactor worker) behind one handle, the
//!   [`TraceMode`] (`off` | `on` | `sampled:<n>`) gate, and the binary
//!   dump writer. [`dump`] is the matching decoder: parse a dump file,
//!   merge lanes into one time-sorted timeline, render it for humans
//!   or as JSON (`rtas-trace dump`).
//! * [`metrics`] — the **metrics plane**: typed [`Counter`]s,
//!   [`Gauge`]s, and lock-free log-bin latency [`Histogram`]s (the
//!   exact [`stats`] bin scheme, so quantile semantics match the BENCH
//!   reports), registered by name in a [`Registry`] that renders the
//!   versioned key/value text the `METRICS` wire op serves.
//! * [`merge`] — cross-tier span joining: the wire trace extension
//!   (`docs/WIRE.md`) gives a request one span id on both sides of the
//!   socket, and [`merge_spans`] pairs a client dump's
//!   [`EventKind::ClientSpan`]s with a server dump's
//!   [`EventKind::ServerSpan`]s into per-request end-to-end timelines
//!   plus a network/server/queue latency breakdown
//!   (`BENCH_svc_e2e.json`).
//! * [`audit`] — the trace-evidence auditor: [`audit_events`] replays
//!   verdict/ack/reclaim evidence from any dump and verifies the
//!   paper's safety claim (exactly one winner per key-epoch, no
//!   post-reclaim wins) offline. `rtas-trace merge|audit` is the CLI
//!   front end for both.
//! * [`stats`], [`report`], [`json`] — the mergeable distribution
//!   accumulator and log-bin scheme behind every quantile in the
//!   repository, the `BENCH_*.json` reports, and the one JSON writer
//!   and parser every JSON surface goes through.
//!
//! The flight recorder is opt-in ([`TraceMode::Off`] records nothing
//! and costs one branch per site); the metrics plane is always on
//! (relaxed atomic increments). Consumers: `rtas-svc` threads a
//! recorder and registry through its server, reactor, and namespace;
//! `rtas-load` scrapes the rendered metrics into report extras.

#![warn(missing_docs)]

pub mod audit;
pub mod dump;
pub mod event;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod ring;
pub mod stats;

pub use audit::{audit_events, AuditReport};
pub use dump::{decode_dump, encode_dump, render_json, render_timeline, LaneDump, TraceDump};
pub use event::{lane_name, EventKind, Lane, TraceEvent};
pub use merge::{
    bench_report, merge_spans, render_merge_json, render_merge_timeline, MergeOutcome, SpanPair,
};
pub use metrics::{
    parse_metrics, Counter, Gauge, Histogram, Registry, METRICS_HEADER, METRICS_HEADER_V1,
};
pub use recorder::{trace_dir, FlightRecorder, TraceMode, TRACE_DIR_ENV};
pub use ring::EventRing;
