//! Regenerate every table of EXPERIMENTS.md, and the machine-readable
//! `BENCH_*.json` perf baselines.
//!
//! ```text
//! cargo run -p rtas-bench --release --bin experiments          # full scale
//! cargo run -p rtas-bench --release --bin experiments -- --fast
//! cargo run -p rtas-bench --release --bin experiments -- e4 e7 # subset
//! cargo run -p rtas-bench --release --bin experiments -- --threads 8 e2
//! cargo run -p rtas-bench --release --bin experiments -- --list-scenarios
//! cargo run -p rtas-bench --release --bin experiments -- \
//!     --scenario staggered+churn+laggard-first
//! ```
//!
//! `--list-scenarios` prints every cell of the E11 scenario grid
//! (arrivals × faults × strategies); `--scenario <name>` runs exactly
//! that cell across all three algorithms instead of the full grid.
//!
//! Trials fan out over OS threads (`--threads N`, or the `RTAS_THREADS`
//! environment variable, defaulting to the host's available parallelism);
//! results are bit-identical at every thread count. Every experiment
//! additionally writes `BENCH_<name>.json` rows — distributional
//! statistics per sweep point (mean, worst/min, stddev, 95% CI,
//! p50/p90/p99) plus wall-clock — to `RTAS_BENCH_DIR` (default: current
//! directory) so the simulator's perf trajectory is tracked across PRs
//! and gated by the `bench-diff` binary against the committed
//! `baselines/`. Pass `--no-json` to skip the files. A report that
//! cannot be written fails the run: the binary finishes every
//! experiment, then exits 2, so a gate never passes on reports that
//! were never written.

use std::process::ExitCode;

use rtas_bench::experiments;
use rtas_bench::runner::TrialRunner;
use rtas_bench::scenarios;
use rtas_bench::Scale;
use rtas_obs::report::BenchReport;

/// Write `report`; `false` (after saying why) if it could not be.
fn write_report(report: BenchReport) -> bool {
    match report.write() {
        Ok(path) => {
            println!("wrote {}", path.display());
            true
        }
        Err(err) => {
            eprintln!("failed to write {}: {err}", report.path().display());
            false
        }
    }
}

/// Exit 0 when every report was written, 2 otherwise.
fn exit_code(written: bool) -> ExitCode {
    if written {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let no_json = args.iter().any(|a| a == "--no-json");
    // One pass: `--threads` takes a mandatory numeric value; everything
    // else that is not a flag selects experiments.
    let mut threads = None;
    let mut scenario_name: Option<String> = None;
    let mut wanted: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            let value = iter.next().unwrap_or_else(|| {
                eprintln!("error: --threads requires a value");
                std::process::exit(2);
            });
            threads = Some(value.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("error: --threads value {value:?} is not a number");
                std::process::exit(2);
            }));
        } else if arg == "--scenario" {
            let value = iter.next().unwrap_or_else(|| {
                eprintln!("error: --scenario requires a cell name (see --list-scenarios)");
                std::process::exit(2);
            });
            scenario_name = Some(value.clone());
        } else if !arg.starts_with("--") {
            wanted.push(arg.as_str());
        }
    }
    let runner = match threads {
        Some(n) => TrialRunner::new(n),
        None => TrialRunner::from_env(),
    };
    let scale = if fast { Scale::fast() } else { Scale::full() };

    if args.iter().any(|a| a == "--list-scenarios") {
        let k = experiments::e11_contention(scale);
        println!("E11 scenario grid cells (k={k}), one per arrival+fault+strategy:");
        for cell in scenarios::grid(k) {
            println!("  {}", cell.name());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = scenario_name {
        let k = experiments::e11_contention(scale);
        let Some(cell) = scenarios::find(k, &name) else {
            eprintln!("error: unknown scenario {name:?}; see --list-scenarios");
            std::process::exit(2);
        };
        let rows = experiments::e11_cells(scale, &runner, std::slice::from_ref(&cell), k);
        // A distinct file name, so drilling into one cell never
        // clobbers the full-grid BENCH_scenario_grid.json.
        return exit_code(
            no_json
                || write_report(experiments::report_from_rows(
                    "scenario_cell",
                    runner.threads(),
                    rows.iter().map(|r| r.bench_row()),
                )),
        );
    }

    let run = |id: &str| wanted.is_empty() || wanted.contains(&id);

    println!(
        "randomized test-and-set reproduction — experiments (scale: {scale:?}, threads: {})",
        runner.threads()
    );
    let mut written = true;
    for id in experiments::IDS {
        if run(id) {
            let report = experiments::bench_report(id, scale, &runner)
                .expect("every listed experiment has a report");
            if !no_json {
                written &= write_report(report);
            }
        }
    }
    exit_code(written)
}
