//! The perf-regression gate: compare two sets of `BENCH_*.json` reports.
//!
//! The experiments binary emits distributional rows (see
//! [`rtas_obs::report`]); committed baselines live under `baselines/` in
//! the repository. This module compares a freshly emitted report
//! directory against those baselines with *noise-aware, per-metric*
//! relative thresholds:
//!
//! * `mean`, `p50`, `p90` — the stable center of the distribution —
//!   gate at the tight [`Tolerances::mean`] (default 10%);
//! * `worst`, `p99` — tail statistics with genuine sampling noise —
//!   gate at the wider [`Tolerances::tail`] (default 25%);
//! * `wall_ms` — wall-clock, machine-dependent — gates at the very wide
//!   [`Tolerances::wall`] (default 9.0, i.e. a 10× slowdown fails) and
//!   can be disabled entirely with [`Tolerances::check_wall`] for
//!   cross-machine comparisons (CI runners vs. the laptop that recorded
//!   the baselines);
//! * `min`, `stddev`, `ci95`, and the experiment-specific extras are
//!   informational only — their regression direction is
//!   metric-dependent (a higher `mean_finished` is *better*), so they
//!   never gate on tolerance. Extras *do* gate structurally: a key
//!   appearing or vanishing, or a value flipping between finite and
//!   null, fails the comparison (the error-class counters on the load
//!   reports rely on this — `err_timeouts` silently disappearing would
//!   otherwise look like a clean run).
//!
//! **Wall-derived rows.** A row labeled `gate=wall` (the
//! `BENCH_native_load.json` rows: throughput and latency quantiles
//! measured on real threads) is wall-clock-derived in *every* metric,
//! not just `wall_ms`. Such rows are validated structurally — the row
//! must exist, its `trials` (operation count) must match, and no metric
//! may flip between finite and null — but they are **skipped by
//! tolerance gating** unless [`Tolerances::gate_wall_rows`] is enabled
//! (the `bench-diff` binary's `--gate-wall` flag), in which case the
//! nine core metrics (the latency distribution plus `wall_ms`) gate at
//! the wide wall tolerance. Extras (`throughput_ops_s`, `ops`, ...)
//! remain informational even then, per the global rule above — their
//! regression direction is metric-dependent (higher throughput is
//! *better*). The default keeps cross-machine CI runs honest: a slower
//! runner must not fail the gate, but a vanished shard or a changed op
//! count must.
//!
//! Step-count metrics are bit-deterministic per seed, so any drift in
//! them is a real behavioral change, not noise; the tolerances exist to
//! let intentional small algorithm changes through while catching
//! order-of-magnitude regressions. Structural drift — rows added or
//! removed, trial counts changed — always fails, because the comparison
//! is meaningless; refresh the baselines instead (commit with
//! `[bench-reset]`, see the README).
//!
//! The `bench-diff` binary (`crates/bench/src/bin/bench_diff.rs`) wraps
//! [`diff_dirs`] with a CLI, prints the markdown delta table, and exits
//! non-zero on regression.

use std::collections::BTreeMap;
use std::path::Path;

use rtas_obs::report::{BenchReport, BenchRow};

/// Deterministic metrics never drift without a real change; the wall
/// clock jitters by whole milliseconds even on one machine.
const STEP_ABS_SLACK: f64 = 1e-9;
const WALL_ABS_SLACK_MS: f64 = 1.0;

/// Relative tolerances for the regression gate, per metric class.
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerances {
    /// Center statistics: `mean`, `p50`, `p90`.
    pub mean: f64,
    /// Tail statistics: `worst`, `p99`.
    pub tail: f64,
    /// Wall clock: `wall_ms`. `9.0` means "allow up to 10× slower".
    pub wall: f64,
    /// Whether `wall_ms` gates at all. Disable when baseline and
    /// current ran on different machines.
    pub check_wall: bool,
    /// Whether rows labeled `gate=wall` (entirely wall-clock-derived,
    /// e.g. the native load harness's latency rows) gate at all. Off by
    /// default — they are structurally validated only; enable via the
    /// binary's `--gate-wall` for same-machine comparisons, which gates
    /// the nine core metrics of such rows at the wide
    /// [`Tolerances::wall`] (extras stay informational, as everywhere).
    pub gate_wall_rows: bool,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            mean: 0.10,
            tail: 0.25,
            wall: 9.0,
            check_wall: true,
            gate_wall_rows: false,
        }
    }
}

impl Tolerances {
    /// The (relative tolerance, absolute slack) this metric gates at,
    /// or `None` if it is informational only.
    fn for_metric(&self, metric: &str) -> Option<(f64, f64)> {
        match metric {
            "mean" | "p50" | "p90" => Some((self.mean, STEP_ABS_SLACK)),
            "worst" | "p99" => Some((self.tail, STEP_ABS_SLACK)),
            "wall_ms" if self.check_wall => Some((self.wall, WALL_ABS_SLACK_MS)),
            _ => None,
        }
    }
}

/// Verdict for one gated metric of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance of the baseline.
    Ok,
    /// Current is better than the baseline by more than the tolerance.
    Improved,
    /// Current is worse than the baseline by more than the tolerance.
    Regressed,
}

/// One gated metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// The row's identity: `k` plus labels (see [`BenchRow::key`]).
    pub row: String,
    /// Metric name (`mean`, `p99`, `wall_ms`, ...).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Relative tolerance the metric gated at.
    pub tolerance: f64,
    /// Verdict.
    pub status: Status,
}

impl MetricDelta {
    /// Relative change in percent (`+` is worse for gated metrics).
    pub fn delta_percent(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.current - self.baseline) / self.baseline * 100.0
        }
    }
}

/// The comparison of one experiment's report against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// Experiment name.
    pub experiment: String,
    /// Per-metric verdicts, in row order.
    pub deltas: Vec<MetricDelta>,
    /// In-row structural mismatches (trial counts changed, non-finite
    /// vs finite metric). Any entry fails the gate.
    pub structural: Vec<String>,
    /// Row keys present in the baseline but absent from this run — the
    /// "which rows vanished" half of structural drift. Any entry fails
    /// the gate.
    pub missing_rows: Vec<String>,
    /// Row keys present in this run but absent from the baseline — the
    /// "which rows appeared" half of structural drift. Any entry fails
    /// the gate.
    pub extra_rows: Vec<String>,
}

impl ReportDiff {
    /// Whether this report fails the gate.
    pub fn regressed(&self) -> bool {
        !self.structural.is_empty()
            || !self.missing_rows.is_empty()
            || !self.extra_rows.is_empty()
            || self.deltas.iter().any(|d| d.status == Status::Regressed)
    }

    /// Count of structural failures (in-row mismatches plus missing and
    /// extra rows).
    pub fn structural_failures(&self) -> usize {
        self.structural.len() + self.missing_rows.len() + self.extra_rows.len()
    }

    /// Deltas that changed beyond tolerance, either way.
    pub fn changed(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.status != Status::Ok)
    }
}

fn compare_rows(base: &BenchRow, cur: &BenchRow, tol: &Tolerances, out: &mut ReportDiff) {
    let key = cur.key();
    if base.trials != cur.trials {
        out.structural.push(format!(
            "{key}: trials changed {} -> {} (baseline is stale; refresh with [bench-reset])",
            base.trials, cur.trials
        ));
        return;
    }
    // A `gate=wall` label marks every metric of the row as
    // wall-clock-derived: structural checks always apply, tolerance
    // gating only under `gate_wall_rows` (see the module docs).
    let wall_row = cur
        .labels
        .iter()
        .any(|(name, value)| name == "gate" && value == "wall");
    let base_metrics = base.metrics();
    for (metric, cur_value) in cur.metrics() {
        let gating = if wall_row {
            tol.gate_wall_rows.then_some((tol.wall, WALL_ABS_SLACK_MS))
        } else {
            tol.for_metric(metric)
        };
        if gating.is_none() && !wall_row {
            continue;
        }
        let base_value = base_metrics
            .iter()
            .find(|(name, _)| *name == metric)
            .expect("metrics() is a fixed set")
            .1;
        if !base_value.is_finite() || !cur_value.is_finite() {
            if base_value.is_finite() != cur_value.is_finite() {
                out.structural.push(format!(
                    "{key}: {metric} flipped finiteness ({base_value} -> {cur_value})"
                ));
            }
            continue;
        }
        let Some((rel, abs)) = gating else {
            continue;
        };
        // The improvement band is ratio-symmetric with the regression
        // band (base/(1+rel), not base*(1-rel)): with a wide tolerance
        // like wall's 9.0 the linear form would go negative and real
        // speedups would never be reported.
        let status = if cur_value > base_value * (1.0 + rel) + abs {
            Status::Regressed
        } else if cur_value < base_value / (1.0 + rel) - abs {
            Status::Improved
        } else {
            Status::Ok
        };
        out.deltas.push(MetricDelta {
            row: key.clone(),
            metric,
            baseline: base_value,
            current: cur_value,
            tolerance: rel,
            status,
        });
    }
    // Extras never gate on tolerance (their regression direction is
    // metric-dependent), but their *shape* is part of the report
    // schema: a key appearing or vanishing, or a value flipping
    // between finite and null, means producer and baseline no longer
    // describe the same experiment.
    for (name, cur_value) in &cur.extra {
        match base.extra.iter().find(|(n, _)| n == name) {
            None => out.structural.push(format!(
                "{key}: extra metric {name} has no baseline value \
                 (schema changed; refresh with [bench-reset])"
            )),
            Some((_, base_value)) => {
                if base_value.is_finite() != cur_value.is_finite() {
                    out.structural.push(format!(
                        "{key}: {name} flipped finiteness ({base_value} -> {cur_value})"
                    ));
                }
            }
        }
    }
    for (name, _) in &base.extra {
        if !cur.extra.iter().any(|(n, _)| n == name) {
            out.structural
                .push(format!("{key}: extra metric {name} vanished from this run"));
        }
    }
}

/// Compare one freshly measured report against its baseline.
pub fn diff_reports(baseline: &BenchReport, current: &BenchReport, tol: &Tolerances) -> ReportDiff {
    let mut out = ReportDiff {
        experiment: current.name().to_string(),
        deltas: Vec::new(),
        structural: Vec::new(),
        missing_rows: Vec::new(),
        extra_rows: Vec::new(),
    };
    if baseline.name() != current.name() {
        out.structural.push(format!(
            "experiment name changed {:?} -> {:?}",
            baseline.name(),
            current.name()
        ));
    }
    let base_rows: BTreeMap<String, &BenchRow> =
        baseline.rows().iter().map(|r| (r.key(), r)).collect();
    if base_rows.len() != baseline.rows().len() {
        out.structural
            .push("baseline has duplicate row keys".to_string());
    }
    let cur_keys: std::collections::BTreeSet<String> =
        current.rows().iter().map(|r| r.key()).collect();
    if cur_keys.len() != current.rows().len() {
        out.structural
            .push("current report has duplicate row keys".to_string());
    }
    for row in current.rows() {
        match base_rows.get(&row.key()) {
            Some(base) => compare_rows(base, row, tol, &mut out),
            None => out.extra_rows.push(row.key()),
        }
    }
    for key in base_rows.keys() {
        if !cur_keys.contains(key) {
            out.missing_rows.push(key.clone());
        }
    }
    out
}

/// The outcome of comparing two report directories.
#[derive(Debug, Clone, Default)]
pub struct DirDiff {
    /// The baseline directory compared, as given to [`diff_dirs`].
    pub baseline_dir: String,
    /// The freshly measured directory compared.
    pub current_dir: String,
    /// Per-experiment comparisons, in file-name order.
    pub diffs: Vec<ReportDiff>,
    /// Current reports with no committed baseline (informational: new
    /// experiments pass until a baseline is committed).
    pub missing_baseline: Vec<String>,
    /// Baselines the current run did not emit (informational: smoke
    /// runs cover a subset of experiments).
    pub missing_current: Vec<String>,
}

impl DirDiff {
    /// Whether any compared report fails the gate.
    pub fn regressed(&self) -> bool {
        self.diffs.iter().any(|d| d.regressed())
    }
}

fn bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

fn load_report(path: &Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare every `BENCH_*.json` in `current_dir` against the same-named
/// file in `baseline_dir`. IO or parse failures are hard errors (the
/// gate cannot run), not regressions.
pub fn diff_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    tol: &Tolerances,
) -> Result<DirDiff, String> {
    let baseline_files = bench_files(baseline_dir)?;
    let current_files = bench_files(current_dir)?;
    let mut out = DirDiff {
        baseline_dir: baseline_dir.display().to_string(),
        current_dir: current_dir.display().to_string(),
        ..DirDiff::default()
    };
    for name in &current_files {
        if baseline_files.contains(name) {
            let base = load_report(&baseline_dir.join(name))?;
            let cur = load_report(&current_dir.join(name))?;
            out.diffs.push(diff_reports(&base, &cur, tol));
        } else {
            out.missing_baseline.push(name.clone());
        }
    }
    for name in &baseline_files {
        if !current_files.contains(name) {
            out.missing_current.push(name.clone());
        }
    }
    Ok(out)
}

/// The outcome of a two-report A/B latency comparison (see [`ab_p50`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AbOutcome {
    /// The A side's `scope=total` median latency, microseconds.
    pub base_p50: f64,
    /// The B side's `scope=total` median latency, microseconds.
    pub current_p50: f64,
    /// `current_p50 / base_p50`.
    pub ratio: f64,
    /// The ceiling the ratio gates at.
    pub max_ratio: f64,
}

impl AbOutcome {
    /// Whether the B side's median is within `max_ratio` of the A side's.
    pub fn passed(&self) -> bool {
        self.ratio <= self.max_ratio
    }

    /// One human-readable verdict line.
    pub fn summary(&self) -> String {
        format!(
            "A/B p50: {:.1}us vs {:.1}us = {:.2}x (ceiling {:.2}x) — {}",
            self.base_p50,
            self.current_p50,
            self.ratio,
            self.max_ratio,
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

fn total_p50(report: &BenchReport, side: &str) -> Result<f64, String> {
    let row = report
        .rows()
        .iter()
        .find(|r| {
            r.labels
                .iter()
                .any(|(name, value)| name == "scope" && value == "total")
        })
        .ok_or_else(|| format!("{side} report {:?} has no scope=total row", report.name()))?;
    if !row.p50.is_finite() {
        return Err(format!(
            "{side} report {:?}: total-row p50 is not finite",
            report.name()
        ));
    }
    Ok(row.p50)
}

/// Same-machine A/B gate: compare the `scope=total` rows' median
/// latencies of two load reports (typically `BENCH_native_load.json`
/// as A and `BENCH_svc_load.json` as B, run back to back at the same
/// offered load) and fail if B's median exceeds `max_ratio` × A's.
/// This is the absolute remote-vs-native overhead bound that the
/// relative baseline diff cannot express: the baselines could both
/// drift slower in lockstep and still pass [`diff_dirs`].
///
/// Unlike the directory diff, both inputs are fresh measurements from
/// the same run on the same machine, so the ratio is meaningful
/// regardless of how fast the runner is.
pub fn ab_p50(
    base: &BenchReport,
    current: &BenchReport,
    max_ratio: f64,
) -> Result<AbOutcome, String> {
    if !(max_ratio.is_finite() && max_ratio > 0.0) {
        return Err(format!(
            "A/B ratio ceiling {max_ratio} must be positive and finite"
        ));
    }
    let base_p50 = total_p50(base, "A")?;
    let current_p50 = total_p50(current, "B")?;
    if base_p50 <= 0.0 {
        return Err(format!(
            "A report {:?}: total-row p50 {base_p50} must be positive to form a ratio",
            base.name()
        ));
    }
    let ratio = current_p50 / base_p50;
    if !ratio.is_finite() {
        return Err(format!("A/B ratio {current_p50}/{base_p50} is not finite"));
    }
    Ok(AbOutcome {
        base_p50,
        current_p50,
        ratio,
        max_ratio,
    })
}

/// [`ab_p50`] over two report *files* (the `bench-diff --ab` path).
pub fn ab_p50_files(base: &Path, current: &Path, max_ratio: f64) -> Result<AbOutcome, String> {
    let base = load_report(base)?;
    let current = load_report(current)?;
    ab_p50(&base, &current, max_ratio)
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Render the comparison as a markdown delta table plus a verdict line.
///
/// `verbose` includes in-tolerance metrics; otherwise only changed
/// metrics and structural failures are listed (an all-quiet run prints
/// just the verdict).
pub fn markdown_summary(diff: &DirDiff, verbose: bool) -> String {
    let mut out = String::new();
    out.push_str("## bench-diff\n\n");
    // Name both directories unconditionally: a failure whose only
    // symptom is a missing/extra row used to print nothing that
    // identified WHERE the comparison ran, leaving CI logs unactionable.
    if !diff.baseline_dir.is_empty() || !diff.current_dir.is_empty() {
        out.push_str(&format!(
            "baseline `{}` vs current `{}`\n\n",
            diff.baseline_dir, diff.current_dir
        ));
    }
    let mut any_rows = false;
    for report in &diff.diffs {
        let listed: Vec<&MetricDelta> = report
            .deltas
            .iter()
            .filter(|d| verbose || d.status != Status::Ok)
            .collect();
        if listed.is_empty() && report.structural.is_empty() {
            continue;
        }
        if !any_rows {
            out.push_str("| experiment | row | metric | baseline | current | Δ% | status |\n");
            out.push_str("|---|---|---|---:|---:|---:|---|\n");
            any_rows = true;
        }
        for d in &listed {
            let status = match d.status {
                Status::Ok => "ok",
                Status::Improved => "improved",
                Status::Regressed => "**REGRESSED**",
            };
            let delta = d.delta_percent();
            let delta = if delta.is_finite() {
                format!("{delta:+.1}%")
            } else {
                "n/a".to_string()
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} |\n",
                report.experiment,
                d.row,
                d.metric,
                fmt_value(d.baseline),
                fmt_value(d.current),
                delta,
                status
            ));
        }
        for s in &report.structural {
            out.push_str(&format!(
                "| {} | {s} | — | — | — | — | **STRUCTURAL** |\n",
                report.experiment
            ));
        }
    }
    if any_rows {
        out.push('\n');
    }
    // Structural drift, spelled out: WHICH rows went missing and which
    // appeared, per experiment — not just that the comparison failed.
    for report in &diff.diffs {
        for key in &report.missing_rows {
            out.push_str(&format!(
                "- `{}`: missing row `{key}` (in baseline, absent from this run)\n",
                report.experiment
            ));
        }
        for key in &report.extra_rows {
            out.push_str(&format!(
                "- `{}`: extra row `{key}` (in this run, not in baseline)\n",
                report.experiment
            ));
        }
    }
    for name in &diff.missing_baseline {
        out.push_str(&format!(
            "- `{name}`: extra file — no baseline committed (skipped)\n"
        ));
    }
    for name in &diff.missing_current {
        out.push_str(&format!(
            "- `{name}`: missing file — baseline present, not emitted by this run (skipped)\n"
        ));
    }
    let compared: usize = diff.diffs.iter().map(|d| d.deltas.len()).sum();
    let regressions: usize = diff
        .diffs
        .iter()
        .map(|d| {
            d.structural_failures()
                + d.deltas
                    .iter()
                    .filter(|x| x.status == Status::Regressed)
                    .count()
        })
        .sum();
    let improvements: usize = diff
        .diffs
        .iter()
        .flat_map(|d| d.deltas.iter())
        .filter(|x| x.status == Status::Improved)
        .count();
    out.push_str(&format!(
        "\n**{}**: {} report(s), {compared} metric(s) compared, \
         {improvements} improved, {regressions} regression(s).\n",
        if diff.regressed() { "FAIL" } else { "PASS" },
        diff.diffs.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(name: &str, rows: Vec<BenchRow>) -> BenchReport {
        let mut r = BenchReport::new(name.to_string(), 1);
        for row in rows {
            r.push(row);
        }
        r
    }

    fn row(k: u64, mean: f64) -> BenchRow {
        let mut r = BenchRow::empty(k, 8);
        r.mean = mean;
        r.worst = mean * 2.0;
        r.min = mean / 2.0;
        r.p50 = mean;
        r.p90 = mean * 1.5;
        r.p99 = mean * 1.9;
        r.wall_ms = 10.0;
        r
    }

    #[test]
    fn self_comparison_is_clean() {
        let r = report_with("e", vec![row(2, 4.0), row(8, 6.0)]);
        let d = diff_reports(&r, &r, &Tolerances::default());
        assert!(!d.regressed());
        assert!(d.structural.is_empty());
        assert!(d.deltas.iter().all(|x| x.status == Status::Ok));
        // Every gated metric of every row was compared.
        assert_eq!(d.deltas.len(), 2 * 6);
    }

    #[test]
    fn mean_regression_beyond_tolerance_fails() {
        let base = report_with("e", vec![row(2, 10.0)]);
        let mut worse = row(2, 10.0);
        worse.mean = 11.5; // +15% > 10%
        let cur = report_with("e", vec![worse]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(d.regressed());
        let bad: Vec<_> = d
            .deltas
            .iter()
            .filter(|x| x.status == Status::Regressed)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "mean");
        assert!((bad[0].delta_percent() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn tail_gets_wider_tolerance_than_mean() {
        let base = report_with("e", vec![row(2, 10.0)]);
        let mut jittery = row(2, 10.0);
        jittery.p99 *= 1.2; // +20% < 25% tail tolerance
        jittery.p90 *= 1.2; // +20% > 10% mean-class tolerance
        let cur = report_with("e", vec![jittery]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        let by_metric = |m: &str| {
            d.deltas
                .iter()
                .find(|x| x.metric == m)
                .expect("metric gated")
                .status
        };
        assert_eq!(by_metric("p99"), Status::Ok);
        assert_eq!(by_metric("p90"), Status::Regressed);
    }

    #[test]
    fn wall_clock_gate_is_wide_and_optional() {
        let base = report_with("e", vec![row(2, 10.0)]);
        let mut slow = row(2, 10.0);
        slow.wall_ms = 150.0; // 15x the baseline's 10ms
        let cur = report_with("e", vec![slow.clone()]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(
            d.regressed(),
            "15x wall slowdown must fail the default gate"
        );
        let no_wall = Tolerances {
            check_wall: false,
            ..Tolerances::default()
        };
        let d = diff_reports(&base, &report_with("e", vec![slow]), &no_wall);
        assert!(!d.regressed());
    }

    #[test]
    fn wall_clock_speedups_are_reported_as_improved() {
        // The ratio-symmetric improvement band: a 15x wall speedup must
        // show as Improved even at the wide 10x-slower tolerance (the
        // linear base*(1-rel) form would make this unreachable).
        let mut was_slow = row(2, 10.0);
        was_slow.wall_ms = 150.0;
        let base = report_with("e", vec![was_slow]);
        let cur = report_with("e", vec![row(2, 10.0)]); // wall back to 10ms
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(!d.regressed());
        let wall = d
            .deltas
            .iter()
            .find(|x| x.metric == "wall_ms")
            .expect("wall gated");
        assert_eq!(wall.status, Status::Improved);
    }

    #[test]
    fn improvements_pass_and_are_reported() {
        let base = report_with("e", vec![row(2, 10.0)]);
        let cur = report_with("e", vec![row(2, 5.0)]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(!d.regressed());
        assert!(d.deltas.iter().any(|x| x.status == Status::Improved));
    }

    #[test]
    fn structural_drift_fails_and_names_missing_vs_extra_rows() {
        let base = report_with("e", vec![row(2, 4.0), row(8, 6.0)]);
        let cur = report_with("e", vec![row(2, 4.0), row(32, 5.0)]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(d.regressed(), "missing/extra rows fail the gate");
        assert_eq!(d.missing_rows, vec!["k=8".to_string()]);
        assert_eq!(d.extra_rows, vec!["k=32".to_string()]);
        assert_eq!(d.structural_failures(), 2);
        assert!(
            d.structural.is_empty(),
            "missing/extra rows are reported once, through their own \
             fields: {:?}",
            d.structural
        );

        let mut retried = row(2, 4.0);
        retried.trials = 16;
        let d = diff_reports(
            &base,
            &report_with("e", vec![retried, row(8, 6.0)]),
            &Tolerances::default(),
        );
        assert!(d.regressed());
        assert!(d.structural.iter().any(|s| s.contains("trials changed")));
        assert!(d.missing_rows.is_empty() && d.extra_rows.is_empty());
    }

    fn wall_row(k: u64, mean: f64) -> BenchRow {
        row(k, mean)
            .with("throughput_ops_s", 1000.0 * mean)
            .with_label("backend", "combined")
            .with_label("gate", "wall")
    }

    #[test]
    fn wall_rows_skip_tolerance_gating_by_default() {
        let base = report_with("native_load", vec![wall_row(0, 10.0)]);
        // 10x slower latencies: machine-dependent, must pass the default
        // gate untouched.
        let cur = report_with("native_load", vec![wall_row(0, 100.0)]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(!d.regressed(), "{:?}", d.structural);
        assert!(d.deltas.is_empty(), "no metric gated: {:?}", d.deltas);
    }

    #[test]
    fn wall_rows_gate_at_wall_tolerance_when_enabled() {
        let base = report_with("native_load", vec![wall_row(0, 10.0)]);
        let tol = Tolerances {
            gate_wall_rows: true,
            ..Tolerances::default()
        };
        // Within 10x: passes, but the metrics are compared now.
        let d = diff_reports(
            &base,
            &report_with("native_load", vec![wall_row(0, 30.0)]),
            &tol,
        );
        assert!(!d.regressed());
        assert!(!d.deltas.is_empty());
        // Beyond 10x: fails.
        let d = diff_reports(
            &base,
            &report_with("native_load", vec![wall_row(0, 150.0)]),
            &tol,
        );
        assert!(d.regressed());
    }

    #[test]
    fn wall_rows_still_fail_structurally() {
        let base = report_with("native_load", vec![wall_row(0, 10.0), wall_row(1, 10.0)]);
        // A shard row vanished: structural, fails even with gating off.
        let cur = report_with("native_load", vec![wall_row(0, 10.0)]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(d.regressed());

        // Op count (trials) changed: structural.
        let mut fewer = wall_row(0, 10.0);
        fewer.trials = 4;
        let d = diff_reports(
            &base,
            &report_with("native_load", vec![fewer, wall_row(1, 10.0)]),
            &Tolerances::default(),
        );
        assert!(d.regressed());
        assert!(d.structural.iter().any(|s| s.contains("trials changed")));

        // A metric flipping finite -> null: structural.
        let mut broken = wall_row(0, 10.0);
        broken.p99 = f64::NAN;
        let d = diff_reports(
            &base,
            &report_with("native_load", vec![broken, wall_row(1, 10.0)]),
            &Tolerances::default(),
        );
        assert!(d.regressed());
        assert!(d
            .structural
            .iter()
            .any(|s| s.contains("flipped finiteness")));
    }

    #[test]
    fn extras_gate_structurally_but_not_on_tolerance() {
        let base = report_with("e", vec![row(2, 10.0).with("err_timeouts", 0.0)]);
        // Any magnitude drift in an extra is informational: never gates.
        let cur = report_with("e", vec![row(2, 10.0).with("err_timeouts", 500.0)]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(!d.regressed(), "{:?}", d.structural);

        // A vanished extra key is structural drift.
        let d = diff_reports(
            &base,
            &report_with("e", vec![row(2, 10.0)]),
            &Tolerances::default(),
        );
        assert!(d.regressed());
        assert!(
            d.structural
                .iter()
                .any(|s| s.contains("err_timeouts vanished")),
            "{:?}",
            d.structural
        );

        // So is a new extra key with no baseline value...
        let d = diff_reports(
            &report_with("e", vec![row(2, 10.0)]),
            &base,
            &Tolerances::default(),
        );
        assert!(d.regressed());
        assert!(
            d.structural
                .iter()
                .any(|s| s.contains("err_timeouts has no baseline value")),
            "{:?}",
            d.structural
        );

        // ...and an extra flipping finite -> null.
        let cur = report_with("e", vec![row(2, 10.0).with("err_timeouts", f64::NAN)]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(d.regressed());
        assert!(
            d.structural
                .iter()
                .any(|s| s.contains("err_timeouts flipped finiteness")),
            "{:?}",
            d.structural
        );
    }

    #[test]
    fn rows_are_matched_by_labels_not_position() {
        let a = row(2, 4.0).with_label("algorithm", "ratrace");
        let b = row(2, 9.0).with_label("algorithm", "combined");
        let base = report_with("e", vec![a.clone(), b.clone()]);
        // Same rows, swapped order: identical comparison.
        let cur = report_with("e", vec![b, a]);
        let d = diff_reports(&base, &cur, &Tolerances::default());
        assert!(!d.regressed(), "{:?}", d.structural);
    }

    #[test]
    fn dir_diff_and_markdown_end_to_end() {
        let tmp = std::env::temp_dir().join(format!("bench_diff_test_{}", std::process::id()));
        let base_dir = tmp.join("baselines");
        let cur_dir = tmp.join("current");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();
        let base = report_with("steps", vec![row(2, 10.0)]);
        std::fs::write(base_dir.join("BENCH_steps.json"), base.to_json()).unwrap();
        std::fs::write(base_dir.join("BENCH_only_base.json"), base.to_json()).unwrap();

        // Self-comparison: clean.
        std::fs::write(cur_dir.join("BENCH_steps.json"), base.to_json()).unwrap();
        let d = diff_dirs(&base_dir, &cur_dir, &Tolerances::default()).unwrap();
        assert!(!d.regressed());
        assert_eq!(d.missing_current, vec!["BENCH_only_base.json"]);
        let md = markdown_summary(&d, false);
        assert!(md.contains("PASS"), "{md}");

        // Synthetic regression: fails, and the table names it.
        let mut worse = row(2, 10.0);
        worse.mean = 20.0;
        let cur = report_with("steps", vec![worse]);
        std::fs::write(cur_dir.join("BENCH_steps.json"), cur.to_json()).unwrap();
        std::fs::write(cur_dir.join("BENCH_new_exp.json"), cur.to_json()).unwrap();
        let d = diff_dirs(&base_dir, &cur_dir, &Tolerances::default()).unwrap();
        assert!(d.regressed());
        assert_eq!(d.missing_baseline, vec!["BENCH_new_exp.json"]);
        let md = markdown_summary(&d, false);
        assert!(md.contains("REGRESSED"), "{md}");
        assert!(md.contains("FAIL"), "{md}");
        assert!(md.contains("+100.0%"), "{md}");
        assert!(
            md.contains("`BENCH_new_exp.json`: extra file"),
            "extra files are named: {md}"
        );

        // Structural drift: the markdown names WHICH row vanished and
        // which appeared, and which baseline file went unemitted.
        let drifted = report_with("steps", vec![row(4, 10.0)]);
        std::fs::write(cur_dir.join("BENCH_steps.json"), drifted.to_json()).unwrap();
        std::fs::remove_file(cur_dir.join("BENCH_new_exp.json")).unwrap();
        let d = diff_dirs(&base_dir, &cur_dir, &Tolerances::default()).unwrap();
        assert!(d.regressed());
        let md = markdown_summary(&d, false);
        assert!(
            md.contains("missing row `k=2`"),
            "missing rows are named: {md}"
        );
        assert!(md.contains("extra row `k=4`"), "extra rows are named: {md}");
        assert!(
            md.contains("`BENCH_only_base.json`: missing file"),
            "missing files are named: {md}"
        );
        // Here only row-level drift failed (no metric table rendered):
        // the header must still name both directories, or the CI log
        // would never say where the comparison ran.
        assert!(
            md.contains(&format!("baseline `{}`", base_dir.display()))
                && md.contains(&format!("current `{}`", cur_dir.display())),
            "directories are named even when only rows drift: {md}"
        );

        std::fs::remove_dir_all(&tmp).ok();
    }

    fn total_row(p50: f64) -> BenchRow {
        let mut r = row(0, p50);
        r.p50 = p50;
        r.with_label("scope", "total").with_label("gate", "wall")
    }

    #[test]
    fn ab_p50_gates_on_the_total_row_ratio() {
        let native = report_with("native_load", vec![row(0, 5.0), total_row(100.0)]);
        let remote = report_with("svc_load", vec![row(0, 9.0), total_row(180.0)]);
        let out = ab_p50(&native, &remote, 2.0).expect("comparable");
        assert!(
            out.passed(),
            "1.8x is under the 2x ceiling: {}",
            out.summary()
        );
        assert!((out.ratio - 1.8).abs() < 1e-12);
        assert!(out.summary().contains("PASS"));

        let slow = report_with("svc_load", vec![total_row(250.0)]);
        let out = ab_p50(&native, &slow, 2.0).expect("comparable");
        assert!(!out.passed(), "2.5x must fail the 2x ceiling");
        assert!(out.summary().contains("FAIL"));

        // The ceiling is a parameter: the same pair passes at 3x.
        assert!(ab_p50(&native, &slow, 3.0).unwrap().passed());
    }

    #[test]
    fn ab_p50_rejects_uncomparable_inputs() {
        let with_total = report_with("a", vec![total_row(100.0)]);
        let no_total = report_with("b", vec![row(0, 5.0)]);
        assert!(ab_p50(&no_total, &with_total, 2.0)
            .unwrap_err()
            .contains("no scope=total row"));
        assert!(ab_p50(&with_total, &no_total, 2.0)
            .unwrap_err()
            .contains("no scope=total row"));
        // A zero-latency A side cannot form a ratio — error, not PASS.
        let zero = report_with("a", vec![total_row(0.0)]);
        assert!(ab_p50(&zero, &with_total, 2.0)
            .unwrap_err()
            .contains("must be positive"));
        // NaN medians are structural, not a verdict.
        let broken = report_with("a", vec![total_row(f64::NAN)]);
        assert!(ab_p50(&broken, &with_total, 2.0)
            .unwrap_err()
            .contains("not finite"));
        // And the ceiling itself must be sane.
        assert!(ab_p50(&with_total, &with_total, 0.0).is_err());
        assert!(ab_p50(&with_total, &with_total, f64::INFINITY).is_err());
    }

    #[test]
    fn ab_p50_files_end_to_end() {
        let tmp = std::env::temp_dir().join(format!("bench_ab_test_{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let native = report_with("native_load", vec![total_row(100.0)]);
        let remote = report_with("svc_load", vec![total_row(150.0)]);
        let a = tmp.join("BENCH_native_load.json");
        let b = tmp.join("BENCH_svc_load.json");
        std::fs::write(&a, native.to_json()).unwrap();
        std::fs::write(&b, remote.to_json()).unwrap();
        let out = ab_p50_files(&a, &b, 2.0).expect("comparable");
        assert!(out.passed());
        assert!((out.ratio - 1.5).abs() < 1e-12);
        assert!(ab_p50_files(&tmp.join("nope.json"), &b, 2.0).is_err());
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn parse_failure_is_an_error_not_a_regression() {
        let tmp = std::env::temp_dir().join(format!("bench_diff_bad_{}", std::process::id()));
        let base_dir = tmp.join("baselines");
        let cur_dir = tmp.join("current");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();
        std::fs::write(base_dir.join("BENCH_x.json"), "{not json").unwrap();
        std::fs::write(
            cur_dir.join("BENCH_x.json"),
            BenchReport::new("x", 1).to_json(),
        )
        .unwrap();
        assert!(diff_dirs(&base_dir, &cur_dir, &Tolerances::default()).is_err());
        std::fs::remove_dir_all(&tmp).ok();
    }
}
