//! The exhibit binaries refuse what they do not take: an unknown flag,
//! a flag another exhibit takes, a removed flag, or a bad `--jobs`
//! operand exits 2 with the usage line, before any job runs and without
//! creating a file.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs the exhibit in an empty directory of its own and returns its
/// output with the names of the files it left there.
fn run(bin: &str, args: &[&str]) -> (Output, Vec<String>) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("exhibit_flags_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(bin).args(args).current_dir(&dir).output().expect("run the exhibit");
    let left = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (out, left)
}

fn assert_usage_error((out, left): &(Output, Vec<String>), needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: "), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on misuse");
    assert!(left.is_empty(), "misuse creates no file: {left:?}");
}

#[test]
fn an_unknown_flag_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_ablation_tag_cache"), &["--no-such-flag", "--jobs", "2"]);
    assert_usage_error(&out, "unknown argument '--no-such-flag'");
}

#[test]
fn a_flag_the_exhibit_does_not_take_exits_2() {
    // Figure 5 sweeps its own sizes, so it has no scale flag.
    let out = run(env!("CARGO_BIN_EXE_fig5_heapsize"), &["--scaled"]);
    assert_usage_error(&out, "unknown argument '--scaled'");
    // No exhibit streams events: the two figures that once did now refuse the flag.
    for bin in [env!("CARGO_BIN_EXE_fig4_overheads"), env!("CARGO_BIN_EXE_fig5_heapsize")] {
        let out = run(bin, &["--trace-out", "t.jsonl"]);
        assert_usage_error(&out, "unknown argument '--trace-out'");
    }
}

#[test]
fn a_bad_jobs_operand_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_fig4_overheads"), &["--scaled", "--jobs", "0"]);
    assert_usage_error(&out, "--jobs requires a positive integer");
    let out = run(env!("CARGO_BIN_EXE_fig3_limit_study"), &["--jobs"]);
    assert_usage_error(&out, "--jobs requires a value");
}
