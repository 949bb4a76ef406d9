//! `serveload` is the service's round-trip checker: one served sweep,
//! byte-compared with an expected report whose `profile` field names
//! the matrix to sweep. Against an in-process server it passes on the
//! blessed smoke baseline, names the first differing JSON path of a
//! doctored copy, and refuses a missing file before sending a request.

use cheri_serve::{telem, Client, Server, ServerConfig};
use cheri_telem::parse_exposition;
use std::path::Path;
use std::process::{Command, Output};

fn serveload(addr: &str, expect: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serveload"))
        .args(["--addr", addr, "--expect"])
        .arg(expect)
        .output()
        .expect("run serveload")
}

/// Jobs the server has answered so far.
fn jobs_served(addr: &str) -> u64 {
    let text = Client::connect(addr).unwrap().metrics().unwrap();
    parse_exposition(&text).unwrap().counter(telem::JOBS).unwrap_or(0)
}

#[test]
fn serveload_byte_checks_the_served_sweep_against_the_expected_report() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { workers: 2, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve());
    let dir = std::env::temp_dir().join(format!("serveload_expect_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/sweep-smoke.json");
    let ok = serveload(&addr, &baseline);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("expect: OK"));

    // One instruction count bumped: the first one is job 0's.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let needle = "\"sim.instructions\":";
    let at = text.find(needle).unwrap() + needle.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let bumped = text[at..end].parse::<u64>().unwrap() + 1;
    let doctored = dir.join("doctored.json");
    std::fs::write(&doctored, format!("{}{bumped}{}", &text[..at], &text[end..])).unwrap();
    let drift = serveload(&addr, &doctored);
    let stderr = String::from_utf8_lossy(&drift.stderr);
    assert_eq!(drift.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("JSON path $.jobs[0].counters.sim.instructions"), "{stderr}");

    let before = jobs_served(&addr);
    let missing = serveload(&addr, &dir.join("missing.json"));
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert_eq!(missing.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert_eq!(jobs_served(&addr), before, "a missing file must not send a sweep");

    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
