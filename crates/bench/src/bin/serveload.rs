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

/// Locates the first byte where two JSON documents differ and renders
/// it as a JSON path plus byte offset with a short context preview —
/// "the reports differ" is useless on a megabyte of sweep output.
///
/// Returns `None` when the documents are byte-identical.
fn first_json_difference(got: &str, want: &str) -> Option<String> {
    let (g, w) = (got.as_bytes(), want.as_bytes());
    let n = g.iter().zip(w).take_while(|(a, b)| a == b).count();
    if n == g.len() && n == w.len() {
        return None;
    }
    Some(format!(
        "first difference at byte {n} (JSON path {}): got {}, expected {}",
        json_path_at(got, n),
        preview(g, n),
        preview(w, n)
    ))
}

/// A short printable excerpt starting at `at` (or "end of document").
fn preview(bytes: &[u8], at: usize) -> String {
    if at >= bytes.len() {
        return "end of document".to_string();
    }
    let end = bytes.len().min(at + 24);
    let mut s = String::from_utf8_lossy(&bytes[at..end]).into_owned();
    s.retain(|c| !c.is_control());
    format!("{s:?}{}", if end < bytes.len() { "…" } else { "" })
}

/// The JSON path (e.g. `$.runs[3].stats.cycles`) enclosing byte `at`,
/// reconstructed by scanning the (well-formed) prefix before the
/// difference. Works on a truncated suffix too: whatever containers are
/// still open at `at` *are* the path.
fn json_path_at(text: &str, at: usize) -> String {
    enum Frame {
        Object { key: Option<String>, expect_key: bool },
        Array { index: usize },
    }
    let bytes = text.as_bytes();
    let end = at.min(bytes.len());
    let mut stack: Vec<Frame> = Vec::new();
    let mut i = 0;
    while i < end {
        match bytes[i] {
            b'{' => stack.push(Frame::Object { key: None, expect_key: true }),
            b'[' => stack.push(Frame::Array { index: 0 }),
            b'}' | b']' => {
                stack.pop();
            }
            b',' => match stack.last_mut() {
                Some(Frame::Array { index }) => *index += 1,
                Some(Frame::Object { expect_key, .. }) => *expect_key = true,
                None => {}
            },
            b'"' => {
                let start = i + 1;
                i += 1;
                while i < end && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                if i >= end {
                    break; // the difference is inside this string
                }
                if let Some(Frame::Object { key, expect_key }) = stack.last_mut() {
                    if *expect_key {
                        *key = Some(text[start..i].to_string());
                        *expect_key = false;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    let mut path = String::from("$");
    for frame in &stack {
        match frame {
            Frame::Object { key: Some(k), .. } => {
                path.push('.');
                path.push_str(k);
            }
            Frame::Object { key: None, .. } => path.push_str(".{}"),
            Frame::Array { index } => {
                path.push_str(&format!("[{index}]"));
            }
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_difference() {
        let doc = r#"{"a": [1, 2, {"b": 3}]}"#;
        assert_eq!(first_json_difference(doc, doc), None);
    }

    #[test]
    fn difference_reports_path_and_offset() {
        let got = r#"{"runs": [{"cycles": 100}, {"cycles": 250}]}"#;
        let want = r#"{"runs": [{"cycles": 100}, {"cycles": 999}]}"#;
        let msg = first_json_difference(got, want).expect("documents differ");
        assert!(msg.contains("byte 38"), "{msg}");
        assert!(msg.contains("$.runs[1].cycles"), "{msg}");
        assert!(msg.contains("\"250"), "{msg}");
        assert!(msg.contains("\"999"), "{msg}");
    }

    #[test]
    fn difference_inside_a_string_keeps_the_enclosing_path() {
        let got = r#"{"label": "baseline"}"#;
        let want = r#"{"label": "contrast"}"#;
        let msg = first_json_difference(got, want).expect("documents differ");
        assert!(msg.contains("$.label"), "{msg}");
    }

    #[test]
    fn truncation_reports_end_of_document() {
        let got = r#"{"a": 1}"#;
        let want = r#"{"a": 1, "b": 2}"#;
        let msg = first_json_difference(got, want).expect("documents differ");
        assert!(msg.contains("byte 7"), "{msg}");
        assert!(msg.contains("end of document") || msg.contains('}'), "{msg}");
    }
}
