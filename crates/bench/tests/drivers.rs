//! The single-job drivers run end to end: `trace_report` prints one
//! workload's counter table and `profbin` its per-function profile, and
//! a tag-cache size the job spec refuses, or a flag `trace_report` does
//! not take, exits 2 before anything runs. A file `trace_report` cannot
//! write is a runtime failure: exit 1, without the usage text.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> (Output, String) {
    let out = Command::new(bin).args(args).output().expect("run the driver");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out, stdout)
}

fn assert_ok(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: "), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on misuse");
}

#[test]
fn trace_report_prints_the_counter_table() {
    let args = ["treeadd", "--strategy", "cap", "--scaled"];
    let (out, stdout) = run(env!("CARGO_BIN_EXE_trace_report"), &args);
    assert_ok(&out);
    assert!(stdout.starts_with("== trace_report: treeadd [cheri] =="), "{stdout}");
    let counter = |name: &str| -> u64 {
        let row = stdout.lines().find(|l| l.split_whitespace().next() == Some(name));
        let row = row.unwrap_or_else(|| panic!("no {name} row: {stdout}"));
        row.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("a count")
    };
    for name in ["sim.instructions", "cache.l1d.hits", "tag.cache.hits", "os.syscalls"] {
        assert!(counter(name) > 0, "{name}: {stdout}");
    }
    let cycles = format!("cycles: {}", counter("sim.cycles"));
    assert!(stdout.contains(&cycles), "the header's cycles match the table: {stdout}");
}

#[test]
fn trace_report_refuses_an_event_stream() {
    let dir = std::env::temp_dir().join(format!("drivers_jsonl_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .args(["treeadd", "--jsonl", "t.jsonl"])
        .current_dir(&dir)
        .output()
        .expect("run the driver");
    let created = dir.join("t.jsonl").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_usage_error(&out, "unknown argument '--jsonl'");
    assert!(!created, "misuse creates no file");
}

#[test]
fn trace_report_exits_1_when_it_cannot_write_its_snapshot() {
    let dir = std::env::temp_dir().join(format!("drivers_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("file");
    std::fs::write(&file, "").expect("create a regular file");
    let out_path = file.join("a.json");
    let out_path = out_path.to_str().expect("a UTF-8 temp path");
    let (out, _) = run(
        env!("CARGO_BIN_EXE_trace_report"),
        &["treeadd", "--strategy", "cap", "--scaled", "--out", out_path],
    );
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot"), "stderr: {stderr}");
    assert!(!stderr.contains("usage: "), "a runtime failure is not misuse: {stderr}");
}

#[test]
fn profbin_prints_its_function_table() {
    let (out, stdout) = run(env!("CARGO_BIN_EXE_profbin"), &[]);
    assert_ok(&out);
    assert!(stdout.starts_with("== profbin: treeadd/cheri/tag8 =="), "{stdout}");
    // "N instructions retired in C cycles; profile attributes N of them"
    let line = stdout.lines().find(|l| l.contains("profile attributes")).expect("summary line");
    let words: Vec<&str> = line.split_whitespace().collect();
    let attributed = words.iter().position(|&w| w == "attributes").map(|i| words[i + 1]);
    assert_eq!(attributed, Some(words[0]), "every retired instruction is attributed: {line}");
    assert!(stdout.lines().any(|l| l.starts_with("function") && l.contains("retired")));
    for function in ["build", "sum", "main", "_start"] {
        assert!(stdout.lines().any(|l| l.starts_with(function)), "{function} row: {stdout}");
    }
}

#[test]
fn profbin_refuses_a_tag_cache_size_that_is_not_a_power_of_two() {
    let (out, _) = run(env!("CARGO_BIN_EXE_profbin"), &["--tag-kb", "3"]);
    assert_usage_error(&out, "'tag_kb'");
}
