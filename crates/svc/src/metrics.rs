//! The service's metrics plane: the instruments `rtas-svc` keeps lit.
//!
//! [`SvcMetrics`] wraps an [`rtas_obs::Registry`] and pre-registers
//! every instrument the server updates, handing out the `Arc` handles
//! the hot paths increment lock-free:
//!
//! * **Reactor counter** — `reactor.carryovers` (flushes that left a
//!   partial write buffered).
//! * **Per-worker gauge** — `reactor.worker<k>.slab_live` (occupied
//!   connection slots).
//! * **Hot-path stage histograms** — `stage.read_ns`, `stage.decode_ns`,
//!   `stage.arbiter_ns`, `stage.encode_ns`, `stage.write_ns`: the
//!   read → decode → arbiter → encode → write breakdown of one frame's
//!   service time, recorded when the flight recorder's sampling gate
//!   says so (`--trace on|sampled:<n>`; with `--trace off` the stages
//!   stay registered but empty, so the exposition's shape is stable).
//!
//! Histograms share one instrument across workers (log-bin arrays of
//! relaxed atomics — contention is a `fetch_add`); gauges are
//! per-worker because a level owned by one thread must not be averaged
//! away by another. The `METRICS` wire op renders the registry behind
//! the `svc.*` counter lines (see [`crate::conn`]).

use rtas_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Pre-registered instrument handles plus the registry that renders
/// them — see the [module docs](self).
#[derive(Debug)]
pub struct SvcMetrics {
    registry: Registry,
    /// Flushes that left bytes buffered (partial-write carryover),
    /// cumulative.
    pub carryovers: Arc<Counter>,
    /// Occupied connection-slab slots, one gauge per reactor worker.
    pub slab_live: Vec<Arc<Gauge>>,
    /// Time blocked in `read(2)` plus buffer ingestion for one frame
    /// batch, nanoseconds.
    pub stage_read: Arc<Histogram>,
    /// Frame header + request decode time, nanoseconds.
    pub stage_decode: Arc<Histogram>,
    /// Namespace arbitration (admission, protocol run, verdict) time,
    /// nanoseconds.
    pub stage_arbiter: Arc<Histogram>,
    /// Response framing (encode) time, nanoseconds.
    pub stage_encode: Arc<Histogram>,
    /// Socket write/flush time for a ready batch, nanoseconds.
    pub stage_write: Arc<Histogram>,
}

impl SvcMetrics {
    /// Instruments for a server with `workers` reactor workers: one
    /// `reactor.worker<k>.slab_live` gauge each (none for 0).
    pub fn new(workers: usize) -> Self {
        let registry = Registry::new();
        let carryovers = registry.counter("reactor.carryovers");
        let slab_live = (0..workers)
            .map(|k| registry.gauge(&format!("reactor.worker{k}.slab_live")))
            .collect();
        let stage_read = registry.histogram("stage.read_ns");
        let stage_decode = registry.histogram("stage.decode_ns");
        let stage_arbiter = registry.histogram("stage.arbiter_ns");
        let stage_encode = registry.histogram("stage.encode_ns");
        let stage_write = registry.histogram("stage.write_ns");
        SvcMetrics {
            registry,
            carryovers,
            slab_live,
            stage_read,
            stage_decode,
            stage_arbiter,
            stage_encode,
            stage_write,
        }
    }

    /// The registry behind the handles (rendered by the `METRICS` wire
    /// op after the `svc.*` namespace counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instrument_is_registered_and_renders() {
        let m = SvcMetrics::new(2);
        m.carryovers.inc();
        m.slab_live[0].set(3);
        m.slab_live[1].set(7);
        m.stage_arbiter.record(1234.0);
        let text = m.registry().render();
        for needle in [
            "reactor.carryovers 1\n",
            "reactor.worker0.slab_live 3\n",
            "reactor.worker1.slab_live 7\n",
            "stage.read_ns.count 0\n",
            "stage.decode_ns.count 0\n",
            "stage.arbiter_ns.count 1\n",
            "stage.encode_ns.p99 ",
            "stage.write_ns.p50 ",
        ] {
            assert!(text.contains(needle), "exposition missing {needle:?}");
        }
    }

    #[test]
    fn zero_worker_metrics_have_no_gauges() {
        let m = SvcMetrics::new(0);
        assert!(m.slab_live.is_empty());
        assert!(!m.registry().render().contains("worker0"));
    }
}
