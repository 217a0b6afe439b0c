//! Order statistics over exact samples, and process memory readings.

use std::time::Duration;

/// Nearest-rank quantiles of `samples` (sorted in place), one per `qs`
/// entry; `0.0` for an empty sample.
pub fn quantiles(samples: &mut [u64], qs: &[f64]) -> Vec<f64> {
    samples.sort_unstable();
    qs.iter()
        .map(|&q| {
            if samples.is_empty() {
                return 0.0;
            }
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1] as f64
        })
        .collect()
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [u64]) -> f64 {
    quantiles(samples, &[0.5])[0]
}

/// Median of floats; `0.0` for none.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of floats; `0.0` for none.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// A duration in whole nanoseconds (saturating).
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A `/proc/self/status` field in kB (`VmRSS`, `VmHWM`), or 0 where
/// the file does not exist.
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
