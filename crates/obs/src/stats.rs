//! The statistics engine behind the experiment tables, the load
//! harness's latency rows and the `BENCH_*.json` reports.
//!
//! [`StatsAccumulator`] is a streaming, mergeable accumulator producing
//! the *distributional* row statistics the paper's claims are actually
//! about (expected step complexity is a tail statement, not a point
//! mean): count, mean and variance via Welford's method, exact min/max,
//! p50/p90/p99 via a fixed-log-bin histogram, and a normal-approximation
//! 95% confidence half-width. The log-bin scheme itself ([`bin_index`],
//! [`bin_midpoint`], [`BINS`]) is shared with the metrics plane's
//! lock-free [`Histogram`](crate::metrics::Histogram).
//!
//! # Degenerate-input policy
//!
//! * **Structural misuse panics**: pushing a non-finite observation, or
//!   asking for a quantile outside `[0, 1]`.
//! * Queries on an *empty* accumulator return `0.0` for every statistic
//!   (there is nothing to report).
//!
//! # Determinism and merging
//!
//! [`StatsAccumulator::merge`] is associative on every *gate-relevant*
//! statistic: `count`, `min`, `max`, and the histogram bins are integers
//! or exact float comparisons, so the quantile estimates are **bit
//! identical** under any merge order or chunking. The floating-point
//! moments (`mean`, `m2`) merge via Chan's parallel formula, which is
//! algebraically associative; for integer-valued observations below
//! 2⁵³ (step counts — the common case) the sums involved are exact, and
//! for general floats chunked merges agree with a serial fold to ~1e-12
//! relative. The experiments' trial runner keeps `BENCH_*.json`
//! bit-identical at any thread count the stronger way: results are
//! folded *in trial-index order* on one thread after the workers join.

/// Number of linear sub-bins per power-of-two octave. Eight sub-bins
/// bound the histogram's relative quantile error by `1/16` (each bin
/// spans a ratio of at most `9/8`; the reported midpoint is within
/// ±6.25% of every value in the bin).
const SUB_BINS: u64 = 8;
/// Smallest octave tracked exactly: values in `[2^-32, 2^96)` land in a
/// dedicated bin; smaller positives clamp to the first bin, larger to
/// the last. Step counts, register counts, and wall-clock milliseconds
/// all live comfortably inside this range.
const MIN_EXP: i64 = -32;
const MAX_EXP: i64 = 95;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// Total histogram bins in the log-bin scheme ([`bin_index`] returns
/// values in `0..BINS`). Shared so the metrics plane's lock-free
/// latency histograms size their bin arrays to the exact same layout
/// and stay merge-compatible with [`StatsAccumulator`]'s quantile
/// semantics.
pub const BINS: usize = OCTAVES * SUB_BINS as usize;

/// Histogram bin for a finite positive value: octave from the f64
/// exponent bits, sub-bin from the top three mantissa bits. Pure bit
/// arithmetic — no rounding-sensitive float ops — so binning is exactly
/// reproducible everywhere. The shared binning scheme behind both
/// [`StatsAccumulator`] and the metrics plane's atomic histograms.
pub fn bin_index(v: f64) -> usize {
    debug_assert!(v.is_finite() && v > 0.0);
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp > MAX_EXP {
        return BINS - 1;
    }
    let sub = (bits >> 49) & 0x7;
    ((exp - MIN_EXP) as u64 * SUB_BINS + sub) as usize
}

/// Midpoint of histogram bin `idx`: `2^e · (1 + (sub + ½)/8)` — the
/// value a [`bin_index`]-binned quantile reports for that bin.
pub fn bin_midpoint(idx: usize) -> f64 {
    let exp = (idx / SUB_BINS as usize) as i64 + MIN_EXP;
    let sub = (idx % SUB_BINS as usize) as f64;
    (exp as f64).exp2() * (1.0 + (sub + 0.5) / SUB_BINS as f64)
}

/// Streaming distribution statistics over one batch of observations.
///
/// Push observations one at a time (or [`merge`](Self::merge) whole
/// accumulators); query mean, variance, min/max, quantiles, and a
/// normal-approx confidence interval at any point. All queries on an
/// empty accumulator return `0.0`.
///
/// # Panics
///
/// [`push`](Self::push) panics on a non-finite observation — every
/// simulator metric is a finite count or duration, so NaN/∞ here is a
/// bug upstream, not data (see the module-level degenerate-input
/// policy).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsAccumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Observations `<= 0` (the histogram covers positives only); their
    /// exact magnitudes are folded into `min`/`mean` as usual.
    nonpositive: u64,
    /// Log-bin histogram counts; empty until the first positive push,
    /// then `BINS` entries.
    bins: Vec<u64>,
}

impl Default for StatsAccumulator {
    fn default() -> Self {
        StatsAccumulator::new()
    }
}

impl StatsAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        StatsAccumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            nonpositive: 0,
            bins: Vec::new(),
        }
    }

    /// An accumulator holding exactly one observation.
    pub fn from_value(value: f64) -> Self {
        let mut acc = StatsAccumulator::new();
        acc.push(value);
        acc
    }

    /// Add one observation. Panics if `value` is not finite.
    pub fn push(&mut self, value: f64) {
        assert!(
            value.is_finite(),
            "non-finite observation {value} pushed into StatsAccumulator"
        );
        self.count += 1;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        if value > 0.0 {
            if self.bins.is_empty() {
                self.bins = vec![0; BINS];
            }
            self.bins[bin_index(value)] += 1;
        } else {
            self.nonpositive += 1;
        }
    }

    /// Fold `other` into `self` (Chan's parallel moments formula plus
    /// exact integer histogram/min/max merges). See the module docs for
    /// the associativity guarantees.
    pub fn merge(&mut self, other: &StatsAccumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.nonpositive += other.nonpositive;
        if !other.bins.is_empty() {
            if self.bins.is_empty() {
                self.bins = other.bins.clone();
            } else {
                for (a, b) in self.bins.iter_mut().zip(&other.bins) {
                    *a += b;
                }
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation (`0.0` if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum observation (`0.0` if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (`0.0` if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample variance (Bessel-corrected; `0.0` with fewer than two
    /// observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation (`0.0` with fewer than two
    /// observations).
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the normal-approximation 95% confidence interval
    /// for the mean: `1.96·s/√n` (`0.0` with fewer than two
    /// observations). The experiments' trial counts are modest, so treat
    /// this as a noise yardstick, not an exact coverage statement.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Nearest-rank quantile estimate from the log-bin histogram,
    /// clamped to the exact `[min, max]`. Relative error is bounded by
    /// the bin width (±6.25%); `q` outside `[0, 1]` panics.
    ///
    /// Bit-identical under any merge order: ranks come from integer bin
    /// counts and the clamp uses exact min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.nonpositive;
        if rank <= cum {
            // All non-positive observations sit below every histogram
            // bin; the best available estimate down there is the exact
            // minimum.
            return self.min;
        }
        for (idx, &b) in self.bins.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bin_midpoint(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate — the tail the paper's adversary
    /// arguments are about.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Snapshot of every derived statistic, for row types that want a
    /// `Copy` value.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            stddev: self.stddev(),
            ci95: self.ci95_half_width(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

/// A `Copy` snapshot of a [`StatsAccumulator`]'s derived statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Half-width of the normal-approx 95% CI for the mean.
    pub ci95: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median estimate (log-bin histogram, clamped to `[min, max]`).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_reports_zeros() {
        let acc = StatsAccumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.min(), 0.0);
        assert_eq!(acc.max(), 0.0);
        assert_eq!(acc.stddev(), 0.0);
        assert_eq!(acc.ci95_half_width(), 0.0);
        assert_eq!(acc.p50(), 0.0);
        assert_eq!(acc.p99(), 0.0);
    }

    #[test]
    fn single_value_statistics_are_exact() {
        let acc = StatsAccumulator::from_value(7.5);
        assert_eq!(acc.count(), 1);
        assert_eq!(acc.mean(), 7.5);
        assert_eq!(acc.min(), 7.5);
        assert_eq!(acc.max(), 7.5);
        assert_eq!(acc.variance(), 0.0);
        // The clamp to [min, max] makes single-value quantiles exact.
        assert_eq!(acc.p50(), 7.5);
        assert_eq!(acc.p99(), 7.5);
    }

    #[test]
    fn welford_matches_direct_formulas() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = StatsAccumulator::new();
        for v in values {
            acc.push(v);
        }
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((acc.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
        let expected_ci = 1.96 * (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt();
        assert!((acc.ci95_half_width() - expected_ci).abs() < 1e-12);
    }

    #[test]
    fn quantiles_of_uniform_ladder_are_close() {
        let mut acc = StatsAccumulator::new();
        for v in 1..=1000 {
            acc.push(v as f64);
        }
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = acc.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.08, "q={q}: est {est} vs exact {exact}");
        }
        assert_eq!(acc.quantile(0.0), 1.0);
        assert_eq!(acc.quantile(1.0), 1000.0);
    }

    #[test]
    fn nonpositive_values_are_tracked() {
        let mut acc = StatsAccumulator::new();
        for v in [-2.0, 0.0, 0.0, 1.0] {
            acc.push(v);
        }
        assert_eq!(acc.min(), -2.0);
        assert_eq!(acc.max(), 1.0);
        // Ranks 1..=3 are the non-positive mass: estimated by min.
        assert_eq!(acc.p50(), -2.0);
        assert_eq!(acc.quantile(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite observation")]
    fn pushing_nan_panics() {
        StatsAccumulator::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_out_of_range_panics() {
        StatsAccumulator::from_value(1.0).quantile(1.5);
    }

    #[test]
    fn merge_matches_serial_fold() {
        let values: Vec<f64> = (0..97).map(|i| ((i * 37) % 101) as f64).collect();
        let mut serial = StatsAccumulator::new();
        for &v in &values {
            serial.push(v);
        }
        for chunk_size in [1usize, 7, 32, 97] {
            let mut merged = StatsAccumulator::new();
            for chunk in values.chunks(chunk_size) {
                let mut part = StatsAccumulator::new();
                for &v in chunk {
                    part.push(v);
                }
                merged.merge(&part);
            }
            assert_eq!(merged.count(), serial.count(), "chunk={chunk_size}");
            assert_eq!(merged.min(), serial.min());
            assert_eq!(merged.max(), serial.max());
            // Quantiles are integer-rank lookups over integer bins:
            // exactly merge-order independent.
            assert_eq!(merged.p50(), serial.p50());
            assert_eq!(merged.p90(), serial.p90());
            assert_eq!(merged.p99(), serial.p99());
            assert!((merged.mean() - serial.mean()).abs() < 1e-9);
            assert!((merged.variance() - serial.variance()).abs() < 1e-6);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut acc = StatsAccumulator::from_value(3.0);
        acc.push(5.0);
        let snapshot = acc.clone();
        acc.merge(&StatsAccumulator::new());
        assert_eq!(acc, snapshot);
        let mut empty = StatsAccumulator::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn bin_index_is_monotone_and_midpoint_brackets() {
        let mut prev = 0usize;
        for i in 1..4000u64 {
            let v = i as f64 * 0.25;
            let idx = bin_index(v);
            assert!(idx >= prev, "v={v}");
            prev = idx;
            let mid = bin_midpoint(idx);
            // The midpoint is within one bin width of the value.
            assert!(mid / v < 1.07 && v / mid < 1.07, "v={v} mid={mid}");
        }
    }

    #[test]
    fn out_of_range_magnitudes_clamp() {
        let mut acc = StatsAccumulator::new();
        acc.push(1e-300); // far below 2^-32: clamps to the first bin
        acc.push(1e300); // far above 2^96: clamps to the last bin
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.min(), 1e-300);
        assert_eq!(acc.max(), 1e300);
        // Clamped bins still honor the exact min/max clamp.
        assert_eq!(acc.quantile(0.0), 1e-300);
        assert_eq!(acc.quantile(1.0), 1e300);
    }

    #[test]
    fn summary_mirrors_accessors() {
        let mut acc = StatsAccumulator::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            acc.push(v);
        }
        let s = acc.summary();
        assert_eq!(s.count, acc.count());
        assert_eq!(s.mean, acc.mean());
        assert_eq!(s.stddev, acc.stddev());
        assert_eq!(s.ci95, acc.ci95_half_width());
        assert_eq!(s.min, acc.min());
        assert_eq!(s.max, acc.max());
        assert_eq!(s.p50, acc.p50());
        assert_eq!(s.p90, acc.p90());
        assert_eq!(s.p99, acc.p99());
    }
}
