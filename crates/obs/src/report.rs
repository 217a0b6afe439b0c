//! Machine-readable benchmark reports: `BENCH_<name>.json`.
//!
//! The experiments binary, `rtas-load` and `rtas-trace merge --bench`
//! each emit one JSON file per tracked run, so the perf trajectory can
//! be compared across changes without scraping printed tables. The
//! format is a single JSON object:
//!
//! ```json
//! {
//!   "experiment": "step_complexity",
//!   "threads": 8,
//!   "total_wall_ms": 1234.5,
//!   "rows": [
//!     {"k": 2, "trials": 24, "mean": 3.1, "worst": 5.0, "min": 2.0,
//!      "stddev": 0.9, "ci95": 0.36, "p50": 3.0, "p90": 4.8, "p99": 5.0,
//!      "wall_ms": 10.2, "registers": 141.0, "algorithm": "logstar"}
//!   ]
//! }
//! ```
//!
//! Every row carries the sweep parameter `k`, the per-trial
//! *distribution* statistics (mean, worst/min, sample stddev, the
//! normal-approx 95% CI half-width, and p50/p90/p99 from the log-bin
//! histogram — see [`crate::stats`]), and the wall-clock cost of the
//! batch; experiments may append extra named numeric fields
//! (`registers` above) and string labels (`algorithm`).
//! [`BenchReport::to_json`] writes that shape through the
//! [`crate::json`] writer, [`BenchReport::from_json`] reads any
//! whitespace/field order back, and the pair round-trips exactly —
//! `BenchReport::from_json(&r.to_json()) == r`. Non-finite floats
//! serialize as `null` and parse back as NaN; report equality treats
//! all non-finite values as equal, so the round-trip law holds for them
//! too.
//!
//! Files are written to the directory named by `RTAS_BENCH_DIR`
//! (default: the current working directory), which is created if
//! missing. The `bench-diff` binary of `rtas-bench` compares two
//! directories of these files.

use std::path::PathBuf;

use crate::json::{Json, Parser, Scalar};

/// One row of a report: a sweep point plus optional extra fields.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Sweep parameter.
    pub k: u64,
    /// Trials aggregated into the statistics.
    pub trials: u64,
    /// Mean observation.
    pub mean: f64,
    /// Worst (maximum) observation.
    pub worst: f64,
    /// Best (minimum) observation.
    pub min: f64,
    /// Sample standard deviation over the trials.
    pub stddev: f64,
    /// Half-width of the normal-approx 95% confidence interval.
    pub ci95: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Wall-clock cost of the batch, in milliseconds.
    pub wall_ms: f64,
    /// Extra named numeric fields, appended verbatim to the row object.
    pub extra: Vec<(String, f64)>,
    /// Extra named string fields (scenario axis names, algorithm names),
    /// appended after the numeric extras.
    pub labels: Vec<(String, String)>,
}

/// Float equality with all non-finite values identified: `null` in the
/// JSON collapses NaN and ±∞, so equality must too for the round-trip
/// law to hold.
fn f64_eq(a: f64, b: f64) -> bool {
    a == b || (!a.is_finite() && !b.is_finite())
}

impl PartialEq for BenchRow {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.trials == other.trials
            && f64_eq(self.mean, other.mean)
            && f64_eq(self.worst, other.worst)
            && f64_eq(self.min, other.min)
            && f64_eq(self.stddev, other.stddev)
            && f64_eq(self.ci95, other.ci95)
            && f64_eq(self.p50, other.p50)
            && f64_eq(self.p90, other.p90)
            && f64_eq(self.p99, other.p99)
            && f64_eq(self.wall_ms, other.wall_ms)
            && self.extra.len() == other.extra.len()
            && self
                .extra
                .iter()
                .zip(&other.extra)
                .all(|((ka, va), (kb, vb))| ka == kb && f64_eq(*va, *vb))
            && self.labels == other.labels
    }
}

impl BenchRow {
    /// A zeroed row for sweep parameter `k` over `trials` trials —
    /// callers fill the statistics they have.
    pub fn empty(k: u64, trials: u64) -> Self {
        BenchRow {
            k,
            trials,
            mean: 0.0,
            worst: 0.0,
            min: 0.0,
            stddev: 0.0,
            ci95: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            wall_ms: 0.0,
            extra: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// A row for an experiment that only measures a mean and a worst
    /// value (no per-trial distribution): every other statistic is NaN,
    /// which serializes as `null` — unavailable, never a fabricated
    /// zero. New statistic fields added to `BenchRow` inherit the
    /// policy automatically.
    pub fn from_mean_worst(k: u64, trials: u64, mean: f64, worst: f64) -> Self {
        BenchRow {
            mean,
            worst,
            min: f64::NAN,
            stddev: f64::NAN,
            ci95: f64::NAN,
            p50: f64::NAN,
            p90: f64::NAN,
            p99: f64::NAN,
            wall_ms: f64::NAN,
            ..BenchRow::empty(k, trials)
        }
    }

    /// A row carrying a full distribution [`Summary`].
    ///
    /// [`Summary`]: crate::stats::Summary
    pub fn from_summary(k: u64, s: &crate::stats::Summary, wall_ms: f64) -> Self {
        BenchRow {
            k,
            trials: s.count,
            mean: s.mean,
            worst: s.max,
            min: s.min,
            stddev: s.stddev,
            ci95: s.ci95,
            p50: s.p50,
            p90: s.p90,
            p99: s.p99,
            wall_ms,
            extra: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Append an extra named numeric field to this row.
    pub fn with(mut self, key: impl Into<String>, value: f64) -> Self {
        self.extra.push((key.into(), value));
        self
    }

    /// Append an extra named string field to this row.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// The row's identity within a report: `k` plus every label value,
    /// in order. Two reports are compared row-by-row on this key.
    pub fn key(&self) -> String {
        let mut key = format!("k={}", self.k);
        for (name, value) in &self.labels {
            key.push_str(&format!(" {name}={value}"));
        }
        key
    }

    /// Core gated metrics by name, in emission order (extras excluded).
    pub fn metrics(&self) -> [(&'static str, f64); 9] {
        [
            ("mean", self.mean),
            ("worst", self.worst),
            ("min", self.min),
            ("stddev", self.stddev),
            ("ci95", self.ci95),
            ("p50", self.p50),
            ("p90", self.p90),
            ("p99", self.p99),
            ("wall_ms", self.wall_ms),
        ]
    }
}

/// A named collection of [`BenchRow`]s, serializable to
/// `BENCH_<name>.json` and parseable back via
/// [`BenchReport::from_json`].
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    threads: usize,
    rows: Vec<BenchRow>,
    total_wall_ms: f64,
}

impl PartialEq for BenchReport {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.threads == other.threads
            && f64_eq(self.total_wall_ms, other.total_wall_ms)
            && self.rows == other.rows
    }
}

impl BenchReport {
    /// An empty report for experiment `name` measured with `threads`
    /// worker threads. `name` becomes part of the file name — keep it
    /// `[a-z0-9_]`.
    pub fn new(name: impl Into<String>, threads: usize) -> Self {
        BenchReport {
            name: name.into(),
            threads,
            rows: Vec::new(),
            total_wall_ms: 0.0,
        }
    }

    /// Experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worker threads the report was measured with. Informational only:
    /// results are bit-identical at every thread count, so `bench-diff`
    /// ignores this field.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[BenchRow] {
        &self.rows
    }

    /// Total wall-clock milliseconds accrued across pushed rows.
    pub fn total_wall_ms(&self) -> f64 {
        self.total_wall_ms
    }

    /// Append a row; the row's wall-clock accrues to the report total.
    pub fn push(&mut self, row: BenchRow) {
        if row.wall_ms.is_finite() {
            self.total_wall_ms += row.wall_ms.max(0.0);
        }
        self.rows.push(row);
    }

    /// Number of rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serialize to the JSON format documented at the [module level](self).
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            let mut members = vec![
                ("k".to_string(), Json::from(row.k)),
                ("trials".to_string(), Json::from(row.trials)),
            ];
            for (name, v) in row.metrics() {
                members.push((name.to_string(), Json::from(v)));
            }
            for (name, v) in &row.extra {
                members.push((name.clone(), Json::from(*v)));
            }
            for (name, v) in &row.labels {
                members.push((name.clone(), Json::from(v.as_str())));
            }
            Json::Obj(members)
        });
        let report = Json::obj([
            ("experiment", Json::from(self.name.as_str())),
            ("threads", Json::from(self.threads)),
            ("total_wall_ms", Json::from(self.total_wall_ms)),
            ("rows", Json::Arr(rows.collect())),
        ]);
        format!("{report}\n")
    }

    /// Parse a report back from its JSON form.
    ///
    /// Accepts any whitespace and field order; unknown numeric row
    /// fields become [`BenchRow::extra`] entries and unknown string
    /// fields become [`BenchRow::labels`], both in document order —
    /// exactly inverting [`BenchReport::to_json`]. `null` parses as NaN.
    pub fn from_json(input: &str) -> Result<BenchReport, String> {
        let mut p = Parser::new(input);
        let mut report = BenchReport::new(String::new(), 0);
        p.object(|p, name| {
            match name.as_str() {
                "experiment" => report.name = p.parse_string()?,
                "threads" => report.threads = p.parse_number()? as usize,
                // Rows bypass push(), so the recorded total stands.
                "total_wall_ms" => report.total_wall_ms = p.parse_number()?,
                "rows" => p.array(|p| {
                    report.rows.push(parse_row(p)?);
                    Ok(())
                })?,
                other => return Err(p.err(&format!("unknown report field {other:?}"))),
            }
            Ok(())
        })?;
        p.finish("report")?;
        Ok(report)
    }

    /// The file this report writes to: `RTAS_BENCH_DIR` (or `.`) joined
    /// with `BENCH_<name>.json`.
    pub fn path(&self) -> PathBuf {
        let dir = std::env::var_os("RTAS_BENCH_DIR").unwrap_or_else(|| ".".into());
        PathBuf::from(dir).join(format!("BENCH_{}.json", self.name))
    }

    /// Write the report to [`BenchReport::path`], creating its
    /// directory if missing, and return the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn parse_row(p: &mut Parser<'_>) -> Result<BenchRow, String> {
    let mut row = BenchRow::empty(0, 0);
    p.object(|p, name| {
        match p.parse_scalar()? {
            Scalar::Num(v) => match name.as_str() {
                "k" => row.k = v as u64,
                "trials" => row.trials = v as u64,
                "mean" => row.mean = v,
                "worst" => row.worst = v,
                "min" => row.min = v,
                "stddev" => row.stddev = v,
                "ci95" => row.ci95 = v,
                "p50" => row.p50 = v,
                "p90" => row.p90 = v,
                "p99" => row.p99 = v,
                "wall_ms" => row.wall_ms = v,
                _ => row.extra.push((name, v)),
            },
            Scalar::Str(s) => row.labels.push((name, s)),
        }
        Ok(())
    })?;
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: u64) -> BenchRow {
        BenchRow {
            mean: 1.5,
            worst: 3.0,
            min: 1.0,
            stddev: 0.5,
            ci95: 0.49,
            p50: 1.5,
            p90: 2.75,
            p99: 3.0,
            wall_ms: 2.25,
            ..BenchRow::empty(k, 4)
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = BenchReport::new("demo", 2);
        r.push(row(2));
        r.push(row(8).with("registers", 17.0));
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"demo\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains(
            "{\"k\": 2, \"trials\": 4, \"mean\": 1.5, \"worst\": 3, \"min\": 1, \
             \"stddev\": 0.5, \"ci95\": 0.49, \"p50\": 1.5, \"p90\": 2.75, \
             \"p99\": 3, \"wall_ms\": 2.25}"
        ));
        assert!(json.contains("\"registers\": 17"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn total_wall_accumulates() {
        let mut r = BenchReport::new("t", 1);
        r.push(row(1));
        r.push(row(2));
        let json = r.to_json();
        assert!(json.contains("\"total_wall_ms\": 4.5"), "{json}");
        assert_eq!(r.total_wall_ms(), 4.5);
    }

    #[test]
    fn path_uses_env_dir() {
        let r = BenchReport::new("pathy", 1);
        assert!(r.path().to_string_lossy().ends_with("BENCH_pathy.json"));
    }

    #[test]
    fn round_trip_is_exact() {
        let mut r = BenchReport::new("round_trip", 8);
        r.push(row(2));
        r.push(
            row(8)
                .with("registers", 141.25)
                .with("log_star", 3.0)
                .with_label("algorithm", "logstar")
                .with_label("scenario", "staggered+churn+laggard-first"),
        );
        let parsed = BenchReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
        // And a second cycle is a fixed point.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn round_trip_preserves_null_as_nan() {
        let mut r = BenchReport::new("nulls", 1);
        let mut bad = row(3);
        bad.ci95 = f64::NAN;
        bad.p99 = f64::INFINITY;
        r.push(bad.with("broken", f64::NAN));
        let json = r.to_json();
        assert!(json.contains("\"ci95\": null"));
        assert!(json.contains("\"p99\": null"));
        assert!(json.contains("\"broken\": null"));
        let parsed = BenchReport::from_json(&json).expect("parses");
        assert!(parsed.rows()[0].ci95.is_nan());
        assert!(parsed.rows()[0].p99.is_nan());
        assert!(parsed.rows()[0].extra[0].1.is_nan());
        // Equality identifies all non-finite values, so the round-trip
        // law holds even though ∞ collapsed to NaN.
        assert_eq!(parsed, r);
    }

    #[test]
    fn parser_accepts_any_whitespace_and_order() {
        let json = "{\"rows\":[{\"mean\":2,\"k\":4,\"trials\":6,\"tag\":\"x\"}],\
                    \"threads\":3,\"total_wall_ms\":1.5,\"experiment\":\"dense\"}";
        let r = BenchReport::from_json(json).expect("parses");
        assert_eq!(r.name(), "dense");
        assert_eq!(r.threads(), 3);
        assert_eq!(r.total_wall_ms(), 1.5);
        assert_eq!(r.rows().len(), 1);
        assert_eq!(r.rows()[0].k, 4);
        assert_eq!(r.rows()[0].trials, 6);
        assert_eq!(r.rows()[0].mean, 2.0);
        assert_eq!(
            r.rows()[0].labels,
            vec![("tag".to_string(), "x".to_string())]
        );
    }

    #[test]
    fn parser_unescapes_strings() {
        let json = "{\"experiment\":\"a\\\"b\\\\c\\u0041\",\"threads\":1,\
                    \"total_wall_ms\":0,\"rows\":[]}";
        let r = BenchReport::from_json(json).expect("parses");
        assert_eq!(r.name(), "a\"b\\cA");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(BenchReport::from_json("").is_err());
        assert!(BenchReport::from_json("{").is_err());
        assert!(BenchReport::from_json("{\"experiment\": 3}").is_err());
        assert!(BenchReport::from_json("{\"bogus\": 1}").is_err());
        let valid = BenchReport::new("x", 1).to_json();
        assert!(BenchReport::from_json(&format!("{valid}trailing")).is_err());
        // Separators: every member and row needs its comma, and no
        // comma may trail the last one.
        let mut two = BenchReport::new("x", 1);
        two.push(row(1));
        two.push(row(2));
        let json = two.to_json();
        assert_eq!(BenchReport::from_json(&json).unwrap(), two);
        assert!(BenchReport::from_json(&json.replace(",\n", "\n")).is_err());
        assert!(BenchReport::from_json(&json.replacen("},\n", "}\n", 1)).is_err());
        assert!(BenchReport::from_json(&json.replacen(", \"trials\"", " \"trials\"", 1)).is_err());
        assert!(BenchReport::from_json(&json.replace("}\n  ]", "},\n  ]")).is_err());
        assert!(BenchReport::from_json(&json.replace("  ]\n}", "  ],\n}")).is_err());
    }

    #[test]
    fn row_key_includes_labels_in_order() {
        let r = row(4)
            .with_label("algorithm", "ratrace")
            .with_label("scenario", "baseline");
        assert_eq!(r.key(), "k=4 algorithm=ratrace scenario=baseline");
        assert_eq!(row(2).key(), "k=2");
    }
}
