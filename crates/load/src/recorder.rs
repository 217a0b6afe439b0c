//! Per-shard latency and throughput recording.
//!
//! Each worker thread owns one [`LoadRecorder`] — a vector of per-shard
//! cells sized once at start — so the op path records a latency with no
//! allocation and no cross-thread traffic. After the run, worker
//! recorders fold together with [`LoadRecorder::merge`]: the underlying
//! [`StatsAccumulator`] merge is associative with bit-identical
//! quantiles under any merge order (see `rtas_obs::stats`), so the
//! final per-shard p50/p90/p99 do not depend on worker join order.
//!
//! Latencies are recorded in **microseconds** — the natural magnitude
//! for a resolution on real atomics, and comfortably inside the
//! accumulator's log-bin histogram range.

use rtas_obs::stats::{StatsAccumulator, Summary};

/// Error-class counts for a run: how much of the offered load hit
/// transport faults or server-side recovery, instead of being silently
/// folded into the latency distribution. All zeros on a clean network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorClasses {
    /// Transport deadlines that expired (connect, read, or write).
    pub timeouts: u64,
    /// Operations re-sent after a transport failure.
    pub retries: u64,
    /// Connections successfully re-dialed.
    pub reconnects: u64,
    /// Epoch slots the *server* reclaimed because their holder's lease
    /// expired (from the server's `STATS` delta over the run).
    pub reclaimed: u64,
}

impl ErrorClasses {
    /// Fold another run segment's counts into this one.
    pub fn merge(&mut self, other: &ErrorClasses) {
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.reclaimed += other.reclaimed;
    }
}

/// One shard's worth of observations.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Latency distribution, in microseconds.
    pub latency: StatsAccumulator,
    /// Operations recorded.
    pub ops: u64,
    /// Operations that won their resolution.
    pub wins: u64,
}

/// Per-shard observation sink for one worker (mergeable across workers).
#[derive(Debug, Clone)]
pub struct LoadRecorder {
    shards: Vec<ShardStats>,
    errors: ErrorClasses,
}

impl LoadRecorder {
    /// A recorder covering `shards` shards, all empty.
    pub fn new(shards: usize) -> Self {
        LoadRecorder {
            shards: vec![ShardStats::default(); shards],
            errors: ErrorClasses::default(),
        }
    }

    /// Record one completed operation on `shard`.
    pub fn record(&mut self, shard: usize, latency_us: f64, won: bool) {
        let cell = &mut self.shards[shard];
        cell.latency.push(latency_us);
        cell.ops += 1;
        cell.wins += won as u64;
    }

    /// Fold another worker's recorder into this one, shard by shard.
    ///
    /// # Panics
    ///
    /// Panics if the shard counts differ.
    pub fn merge(&mut self, other: &LoadRecorder) {
        assert_eq!(
            self.shards.len(),
            other.shards.len(),
            "recorders cover different shard counts"
        );
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.latency.merge(&theirs.latency);
            mine.ops += theirs.ops;
            mine.wins += theirs.wins;
        }
        self.errors.merge(&other.errors);
    }

    /// Error-class counts for the run so far.
    pub fn errors(&self) -> &ErrorClasses {
        &self.errors
    }

    /// Fold additional error-class counts into this recorder (worker
    /// transport fallout, or the server's reclaimed-slot delta).
    pub fn add_errors(&mut self, errors: &ErrorClasses) {
        self.errors.merge(errors);
    }

    /// Number of shards covered.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard cells, in shard order.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.shards
    }

    /// Total operations across all shards.
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.ops).sum()
    }

    /// Total winning operations across all shards.
    pub fn total_wins(&self) -> u64 {
        self.shards.iter().map(|s| s.wins).sum()
    }

    /// Latency summary over *all* shards combined.
    pub fn overall_latency(&self) -> Summary {
        let mut all = StatsAccumulator::new();
        for s in &self.shards {
            all.merge(&s.latency);
        }
        all.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_merges_per_shard() {
        let mut a = LoadRecorder::new(2);
        a.record(0, 10.0, true);
        a.record(0, 30.0, false);
        a.record(1, 5.0, true);
        let mut b = LoadRecorder::new(2);
        b.record(0, 20.0, false);
        b.add_errors(&ErrorClasses {
            timeouts: 1,
            retries: 2,
            reconnects: 3,
            reclaimed: 4,
        });
        a.merge(&b);
        assert_eq!(a.shards(), 2);
        assert_eq!(a.total_ops(), 4);
        assert_eq!(a.total_wins(), 2);
        assert_eq!(
            *a.errors(),
            ErrorClasses {
                timeouts: 1,
                retries: 2,
                reconnects: 3,
                reclaimed: 4
            },
            "error classes merge with the recorder"
        );
        let s0 = &a.shard_stats()[0];
        assert_eq!(s0.ops, 3);
        assert_eq!(s0.wins, 1);
        assert_eq!(s0.latency.mean(), 20.0);
        assert_eq!(a.overall_latency().count, 4);
    }

    #[test]
    fn merge_order_does_not_change_quantiles() {
        let mut workers: Vec<LoadRecorder> = (0..4).map(|_| LoadRecorder::new(1)).collect();
        for (w, rec) in workers.iter_mut().enumerate() {
            for i in 0..100 {
                rec.record(0, (w * 100 + i) as f64 + 1.0, i == 0);
            }
        }
        let mut fwd = LoadRecorder::new(1);
        for rec in &workers {
            fwd.merge(rec);
        }
        let mut rev = LoadRecorder::new(1);
        for rec in workers.iter().rev() {
            rev.merge(rec);
        }
        assert_eq!(
            fwd.shard_stats()[0].latency.p99(),
            rev.shard_stats()[0].latency.p99()
        );
        assert_eq!(fwd.total_ops(), rev.total_ops());
    }

    #[test]
    #[should_panic(expected = "different shard counts")]
    fn mismatched_merge_panics() {
        LoadRecorder::new(1).merge(&LoadRecorder::new(2));
    }
}
