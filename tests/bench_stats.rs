//! The distribution-aware stats engine, checked end to end: quantile
//! estimates against exact sorted quantiles on pseudo-random samples,
//! the merge associativity/ordering contract behind the parallel fold,
//! and the `BENCH_*.json` round-trip law the `bench-diff` gate depends
//! on.

use rtas::sim::rng::SplitMix64;
use rtas_bench::runner::TrialRunner;
use rtas_svc::obs::report::{BenchReport, BenchRow};
use rtas_svc::obs::stats::StatsAccumulator;

/// Exact nearest-rank quantile of a sorted sample (the definition the
/// histogram estimator approximates).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    if q <= 0.0 {
        return sorted[0];
    }
    if q >= 1.0 {
        return sorted[sorted.len() - 1];
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// SplitMix64-generated samples from a few shapes: uniform-ish integers
/// (step counts), a heavy-ish tail (squared uniforms), and small floats.
fn sample_suites() -> Vec<(&'static str, Vec<f64>)> {
    let mut suites = Vec::new();
    let mut rng = SplitMix64::new(0x5151_babe);
    suites.push((
        "uniform-int",
        (0..5000)
            .map(|_| (rng.next_u64() % 10_000 + 1) as f64)
            .collect(),
    ));
    let mut rng = SplitMix64::split(0x5151_babe, 1);
    suites.push((
        "squared-tail",
        (0..5000)
            .map(|_| {
                let u = rng.next_f64();
                1.0 + 1e4 * u * u
            })
            .collect(),
    ));
    let mut rng = SplitMix64::split(0x5151_babe, 2);
    suites.push((
        "unit-floats",
        (0..2000).map(|_| rng.next_f64() + 1e-3).collect(),
    ));
    suites
}

#[test]
fn quantile_estimates_track_exact_sorted_quantiles() {
    for (name, values) in sample_suites() {
        let mut acc = StatsAccumulator::new();
        for &v in &values {
            acc.push(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let est = acc.quantile(q);
            // The log-bin histogram guarantees ±6.25% inside a bin; 8%
            // leaves room for the rank falling at a bin edge.
            let rel = (est - exact).abs() / exact.abs().max(1e-12);
            assert!(
                rel < 0.08,
                "{name} q={q}: estimate {est} vs exact {exact} (rel {rel:.4})"
            );
        }
        // The exact ends of the distribution are exact.
        assert_eq!(acc.quantile(0.0), sorted[0], "{name}");
        assert_eq!(acc.quantile(1.0), sorted[sorted.len() - 1], "{name}");
        // Mean agrees with the direct sum.
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((acc.mean() - mean).abs() / mean.abs() < 1e-9, "{name}");
    }
}

#[test]
fn merge_is_associative_and_ordering_insensitive_where_it_must_be() {
    for (name, values) in sample_suites() {
        let mut serial = StatsAccumulator::new();
        for &v in &values {
            serial.push(v);
        }
        // A "parallel fold": partition into worker-sized chunks, build
        // one accumulator per chunk, then merge — both left-to-right
        // and in a balanced tree, and with the chunk list reversed.
        let chunks: Vec<StatsAccumulator> = values
            .chunks(257)
            .map(|chunk| {
                let mut acc = StatsAccumulator::new();
                for &v in chunk {
                    acc.push(v);
                }
                acc
            })
            .collect();
        let fold_left = |parts: &[StatsAccumulator]| {
            let mut acc = StatsAccumulator::new();
            for p in parts {
                acc.merge(p);
            }
            acc
        };
        let left = fold_left(&chunks);
        let reversed: Vec<StatsAccumulator> = chunks.iter().rev().cloned().collect();
        let right = fold_left(&reversed);
        for merged in [&left, &right] {
            // Gate-relevant statistics are bit-identical to the serial
            // fold under ANY merge order: integer bin counts, exact
            // min/max comparisons.
            assert_eq!(merged.count(), serial.count(), "{name}");
            assert_eq!(merged.min(), serial.min(), "{name}");
            assert_eq!(merged.max(), serial.max(), "{name}");
            assert_eq!(merged.p50(), serial.p50(), "{name}");
            assert_eq!(merged.p90(), serial.p90(), "{name}");
            assert_eq!(merged.p99(), serial.p99(), "{name}");
            // Floating-point moments agree to rounding error.
            let mrel = (merged.mean() - serial.mean()).abs() / serial.mean().abs();
            assert!(mrel < 1e-12, "{name}: mean rel {mrel}");
            let vrel =
                (merged.variance() - serial.variance()).abs() / serial.variance().abs().max(1e-12);
            assert!(vrel < 1e-9, "{name}: var rel {vrel}");
        }
        // And the two merge orders agree with each other bitwise on the
        // quantile machinery.
        assert_eq!(left.p99(), right.p99(), "{name}");
    }
}

#[test]
fn runner_fold_is_thread_count_invariant_including_quantiles() {
    // The production path: TrialRunner::aggregate folds in trial order,
    // so the full statistics object is bit-identical at any thread
    // count — the property the BENCH_*.json gate relies on.
    let trial = |t: rtas_bench::runner::Trial| ((t.seed % 977) + 1) as f64;
    let serial = TrialRunner::serial().aggregate(500, 0xcafe, trial);
    for threads in [2, 5, 16] {
        let parallel = TrialRunner::new(threads).aggregate(500, 0xcafe, trial);
        assert_eq!(serial, parallel, "threads={threads}");
        assert_eq!(serial.summary(), parallel.summary(), "threads={threads}");
    }
}

#[test]
fn bench_report_round_trips_through_json() {
    let mut acc = StatsAccumulator::new();
    let mut rng = SplitMix64::new(7);
    for _ in 0..64 {
        acc.push((rng.next_u64() % 100) as f64);
    }
    let mut report = BenchReport::new("integration_round_trip", 4);
    report.push(
        BenchRow::from_summary(8, &acc.summary(), 12.75)
            .with("registers", 141.0)
            .with_label("algorithm", "logstar")
            .with_label("scenario", "baseline-random"),
    );
    // A row with non-finite values: serialized as null, parsed as NaN,
    // still equal under the report's non-finite-identifying equality.
    let mut broken = BenchRow::empty(16, 0);
    broken.ci95 = f64::NAN;
    broken.p99 = f64::INFINITY;
    report.push(broken.with("ratio", f64::NAN));
    let json = report.to_json();
    assert!(json.contains("\"ci95\": null"));
    assert!(json.contains("\"p99\": null"));
    assert!(json.contains("\"ratio\": null"));
    let parsed = BenchReport::from_json(&json).expect("round-trip parse");
    assert_eq!(parsed, report);
    // Serialization is a fixed point after one cycle.
    assert_eq!(parsed.to_json(), json);
    // Parsed distribution fields are usable numbers (not strings).
    let row = &parsed.rows()[0];
    assert_eq!(row.k, 8);
    assert!(row.p50 <= row.p90 && row.p90 <= row.p99);
    assert!(row.min <= row.mean && row.mean <= row.worst);
}
