//! `rtas-load` writes its report into `RTAS_BENCH_DIR` even when that
//! directory does not exist yet: the report writer creates it, so a
//! finished run never ends in exit 2 with its report lost.

use std::process::Command;

use rtas_obs::report::BenchReport;

#[test]
fn report_lands_in_a_bench_dir_that_did_not_exist() {
    let root = std::env::temp_dir().join(format!("rtas-load-bench-dir-{}", std::process::id()));
    let dir = root.join("nested").join("bench-out");
    let _ = std::fs::remove_dir_all(&root);

    let out = Command::new(env!("CARGO_BIN_EXE_rtas-load"))
        .args(["--backend", "combined", "--threads", "2", "--shards", "1"])
        .args(["--ops", "2000", "--seed", "1"])
        .env("RTAS_BENCH_DIR", &dir)
        .output()
        .expect("rtas-load runs");
    assert!(
        out.status.success(),
        "rtas-load exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(dir.join("BENCH_native_load.json")).expect("report written");
    let report = BenchReport::from_json(&text).expect("report parses");
    assert_eq!(report.name(), "native_load");
    assert!(!report.is_empty());
    std::fs::remove_dir_all(&root).expect("clean up");
}
