//! Binary-level tests of the `xsweep` CI gate: `--bless` then
//! `--check` passes and exits 0; a doctored baseline fails with a
//! nonzero exit, names the drifting metric and writes nothing but its
//! `--out` report.

use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsweep_gate_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn xsweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xsweep"))
}

#[test]
fn gate_passes_on_blessed_baseline_and_fails_on_drift() {
    let dir = tmp_dir("gate");
    let baseline = dir.join("baseline.json");
    let out = dir.join("sweep.json");

    // Bless a smoke baseline.
    let bless = xsweep()
        .args(["--profile", "smoke", "--jobs", "2"])
        .arg("--out")
        .arg(&out)
        .arg("--bless")
        .arg(&baseline)
        .output()
        .expect("run xsweep --bless");
    assert!(bless.status.success(), "bless failed: {}", String::from_utf8_lossy(&bless.stderr));
    assert!(baseline.exists(), "baseline written");

    // Checking against the freshly blessed baseline passes.
    let ok = xsweep()
        .args(["--profile", "smoke", "--jobs", "2"])
        .arg("--out")
        .arg(&out)
        .arg("--check")
        .arg(&baseline)
        .output()
        .expect("run xsweep --check");
    assert!(ok.status.success(), "gate must pass: {}", String::from_utf8_lossy(&ok.stdout));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("check: OK"));

    // Doctor one architectural counter in the baseline: the gate must
    // fail, exit nonzero, and name the metric and job. It runs in the
    // temp dir, so any file it writes beside `--out` would land there.
    let text = std::fs::read_to_string(&baseline).expect("read baseline");
    let needle = "\"sim.instructions\":";
    let at = text.find(needle).expect("baseline has instruction counts") + needle.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).expect("number ends");
    let v: u64 = text[at..end].parse().expect("counter parses");
    let doctored = format!("{}{}{}", &text[..at], v + 1, &text[end..]);
    let drift_path = dir.join("drifted.json");
    std::fs::write(&drift_path, doctored).expect("write doctored baseline");

    let fail = xsweep()
        .args(["--profile", "smoke", "--jobs", "2"])
        .arg("--out")
        .arg(&out)
        .arg("--check")
        .arg(&drift_path)
        .current_dir(&dir)
        .output()
        .expect("run xsweep --check (drift)");
    assert_eq!(fail.status.code(), Some(1), "seeded drift must exit 1");
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert!(stdout.contains("check: FAILED"), "{stdout}");
    assert!(stdout.contains("sim.instructions"), "drift table names the metric: {stdout}");
    assert!(!dir.join("results").exists(), "a failing gate writes only its --out report");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jobs_flag_does_not_change_the_report() {
    let dir = tmp_dir("jobs");
    let (a, b) = (dir.join("j1.json"), dir.join("j8.json"));
    for (jobs, path) in [("1", &a), ("8", &b)] {
        let run = xsweep()
            .args(["--profile", "smoke", "--jobs", jobs])
            .arg("--out")
            .arg(path)
            .output()
            .expect("run xsweep");
        assert!(run.status.success());
    }
    let (ja, jb) = (std::fs::read(&a).expect("read j1"), std::fs::read(&b).expect("read j8"));
    assert_eq!(ja, jb, "--jobs 1 and --jobs 8 reports must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}
