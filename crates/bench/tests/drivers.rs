//! The single-job drivers run end to end: `trace_report` prints one
//! workload's counter table and `profbin` its per-function profile, and
//! a tag-cache size the job spec refuses exits 2 naming the field
//! before anything runs.

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
    let (out, stdout) = run(env!("CARGO_BIN_EXE_profbin"), &["--tag-kb", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("'tag_kb'"), "stderr: {stderr}");
    assert!(stderr.contains("usage: "), "stderr: {stderr}");
    assert!(stdout.is_empty(), "nothing runs on misuse");
}
