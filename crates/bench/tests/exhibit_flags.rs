//! The exhibit binaries refuse what they do not take: an unknown flag,
//! a flag another exhibit takes, or a bad `--jobs` operand exits 2 with
//! the usage line, before any job runs.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run the exhibit")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: "), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on misuse");
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
    let out = run(env!("CARGO_BIN_EXE_ablation_elision"), &["--trace-out", "t.jsonl"]);
    assert_usage_error(&out, "unknown argument '--trace-out'");
}

#[test]
fn a_bad_jobs_operand_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_fig4_overheads"), &["--scaled", "--jobs", "0"]);
    assert_usage_error(&out, "--jobs requires a positive integer");
    let out = run(env!("CARGO_BIN_EXE_fig3_limit_study"), &["--jobs"]);
    assert_usage_error(&out, "--jobs requires a value");
}
