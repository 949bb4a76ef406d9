//! `serveload` — round-trip checker for a running `cheri-serve`
//! instance, the end-to-end half of the service's transparency
//! contract.
//!
//! Sends one sweep and byte-compares the served report against a file
//! on disk; CI points it at the blessed batch baseline. The sweep's
//! profile is read from the expected report's `profile` field, so the
//! checker can never sweep one matrix and compare it against another.
//! The sweep may be answered from the server's result cache; on a fresh
//! server every job is a miss and runs.
//!
//! ```text
//! serveload --addr HOST:PORT     the server (required)
//!           --expect PATH        the expected sweep report (required);
//!                                exit 1 on a mismatch, naming the first
//!                                differing JSON path
//! ```

use cheri_bench::cli::{self, Cli};
use cheri_bench::triage::first_json_difference;
use cheri_serve::Client;
use cheri_sweep::{Profile, SweepReport};
use std::path::PathBuf;

const USAGE: &str = "serveload --addr HOST:PORT --expect PATH";

struct Args {
    addr: String,
    expect: PathBuf,
}

fn fail(msg: &str) -> ! {
    cli::fail("serveload", msg)
}

fn parse_args() -> Args {
    let mut cli = Cli::new("serveload", USAGE);
    let (mut addr, mut expect) = (None, None);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--addr" => addr = Some(cli.value("--addr")),
            "--expect" => expect = Some(PathBuf::from(cli.value("--expect"))),
            other => cli.unknown(other),
        }
    }
    let addr = addr.unwrap_or_else(|| cli.usage_exit("--addr is required"));
    let expect = expect.unwrap_or_else(|| cli.usage_exit("--expect is required"));
    Args { addr, expect }
}

fn main() {
    let args = parse_args();
    let path = args.expect.display();
    let expected = std::fs::read_to_string(&args.expect)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let named = SweepReport::from_json(&expected)
        .unwrap_or_else(|e| fail(&format!("{path} is not a sweep report: {e}")))
        .profile;
    let profile = Profile::parse(&named)
        .unwrap_or_else(|| fail(&format!("{path} names an unknown profile '{named}'")));

    let report = Client::connect(&args.addr)
        .map_err(|e| format!("connect {}: {e}", args.addr))
        .and_then(|mut client| client.sweep(profile, true, |_, _, _, _| {}))
        .unwrap_or_else(|e| fail(&format!("request failed: {e}")));
    if report == expected {
        println!("expect: OK — served report is byte-identical to {path}");
    } else {
        let where_ = first_json_difference(&report, &expected)
            .unwrap_or_else(|| "lengths differ".to_string());
        fail(&format!(
            "served report differs from {path} ({} vs {} bytes) — {where_} — the service \
             must be transparent",
            report.len(),
            expected.len()
        ));
    }
}
