//! `experiments` fails when a report cannot be written: `bench-diff`
//! skips baselines absent from the run directory, so a run that wrote
//! nothing must not exit 0.

use std::process::Command;

#[test]
fn an_unwritable_bench_dir_fails_the_run() {
    let root =
        std::env::temp_dir().join(format!("rtas-experiments-bench-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch dir");
    // A regular file where a directory component must go: the report
    // writer cannot create the directory under it.
    let file = root.join("not-a-dir");
    std::fs::write(&file, b"").expect("blocking file");

    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--fast", "e2"])
        .env("RTAS_BENCH_DIR", file.join("bench-out"))
        .output()
        .expect("experiments runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "experiments must fail when its report is not written: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to write"));
    std::fs::remove_dir_all(&root).expect("clean up");
}
