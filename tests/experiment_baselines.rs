//! The simulator baselines, pinned exactly.
//!
//! Runs E1–E12 in-process at `--fast` scale and requires every report to
//! equal its committed `baselines/BENCH_*.json` file in every field but
//! the wall-clock ones (`wall_ms`, `total_wall_ms`) and the informational
//! `threads`. The experiments are deterministic functions of their seeds
//! at every thread count, so any other difference means an algorithm
//! changed a register id, a coin draw or a step.

use std::path::Path;

use rtas_bench::experiments::{bench_report, IDS};
use rtas_bench::runner::TrialRunner;
use rtas_bench::Scale;
use rtas_svc::obs::report::{BenchReport, BenchRow};

/// The row without its wall-clock cost.
fn timeless(row: &BenchRow) -> BenchRow {
    BenchRow {
        wall_ms: 0.0,
        ..row.clone()
    }
}

#[test]
fn every_experiment_matches_its_committed_baseline_exactly() {
    let runner = TrialRunner::from_env();
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    for id in IDS {
        let fresh = bench_report(id, Scale::fast(), &runner).expect("a listed experiment");
        let path = baselines.join(format!("BENCH_{}.json", fresh.name()));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{id}: reading {}: {e}", path.display()));
        let committed = BenchReport::from_json(&text)
            .unwrap_or_else(|e| panic!("{id}: parsing {}: {e}", path.display()));
        assert_eq!(committed.name(), fresh.name(), "{id}");
        assert_eq!(
            committed.rows().len(),
            fresh.rows().len(),
            "{id}: row count differs from {}",
            path.display()
        );
        for (i, (want, got)) in committed.rows().iter().zip(fresh.rows()).enumerate() {
            assert_eq!(
                timeless(want),
                timeless(got),
                "{id} row {i} differs from {}",
                path.display()
            );
        }
    }
}
