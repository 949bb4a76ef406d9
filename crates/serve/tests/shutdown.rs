//! Persisted reports and the graceful-shutdown drain: concurrent sweeps
//! each persist their own report; tripping the stop token mid-sweep must
//! leave `results/` with no partial files — either nothing new, or only
//! complete, parseable reports — and the telemetry flush must follow
//! the same contract: a whole, parseable timeline or no file at all.

use cheri_serve::{Client, Event, Request, Server, ServerConfig};
use cheri_sweep::{Profile, SweepReport};
use cheri_telem::span::check_balance;
use cheri_telem::{SpanEvent, SpanPhase};
use cheri_trace::json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A per-test scratch directory under the target dir (unique per test
/// name; removed and recreated so reruns start clean).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two sweeps in flight at once each persist their own report, named by
/// its request id, byte-equal to what its client received.
#[test]
fn concurrent_sweeps_persist_one_report_each() {
    let dir = scratch("concurrent-sweeps");
    let cfg =
        ServerConfig { workers: 1, results_dir: Some(dir.clone()), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve());

    let mut clients = [Client::connect(&addr).unwrap(), Client::connect(&addr).unwrap()];
    for client in &mut clients {
        client.send(&Request::Sweep { profile: Profile::Smoke, cache: false }).unwrap();
    }
    // Both sweeps are in flight: more than one matrix of jobs waits for
    // the one worker, so neither has finished.
    let matrix = cheri_sweep::profile_matrix(Profile::Smoke).len() as u64;
    let mut probe = Client::connect(&addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while probe.health().unwrap().queue_depth <= matrix {
        assert!(Instant::now() < deadline, "the two sweeps were never queued together");
    }
    let mut reports = Vec::new();
    for client in &mut clients {
        let report = loop {
            match client.next_event().unwrap() {
                Event::Progress { .. } => {}
                Event::Report { report, .. } => break report,
                other => panic!("unexpected event: {other:?}"),
            }
        };
        reports.push((client.last_req(), report));
    }
    probe.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    assert_ne!(reports[0].0, reports[1].0, "each sweep has its own request id");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "one report per sweep");
    for (req, report) in &reports {
        let path = dir.join(format!("serve-smoke-{req}.json"));
        let persisted = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
        assert!(persisted == *report, "{} differs from the report its client read", path.display());
    }
}

#[test]
fn mid_sweep_shutdown_leaves_no_partial_files() {
    let dir = scratch("shutdown-drain");
    let telem_out = dir.join("telem").join("serve-telem.json");
    let cfg = ServerConfig {
        workers: 2,
        results_dir: Some(dir.clone()),
        telem_out: Some(telem_out.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(&addr).unwrap();
    // Uncached, to force real execution so the sweep takes time.
    client.send(&Request::Sweep { profile: Profile::Smoke, cache: false }).unwrap();

    // Trip the stop token as soon as the first job lands, while the
    // rest of the matrix is still queued or executing.
    let mut tripped = false;
    let terminal = loop {
        match client.next_event().unwrap() {
            Event::Progress { .. } => {
                if !tripped {
                    stop.request();
                    tripped = true;
                }
            }
            other => break other,
        }
    };
    match terminal {
        // The expected drain outcome: the sweep aborted, nothing written.
        Event::Error { message } => {
            assert!(message.contains("aborted") || message.contains("shutting down"), "{message}");
        }
        // Scheduling race: every job finished before the stop landed —
        // then the persisted report must be complete (asserted below).
        Event::Report { .. } => {}
        other => panic!("unexpected terminal event: {other:?}"),
    }

    handle.join().unwrap().unwrap();

    // The drain contract, on disk: no temp files, and anything that was
    // persisted is a complete, parseable report for the full matrix.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "partial file left behind: {name}");
        let text = std::fs::read_to_string(&path).unwrap();
        let report = SweepReport::from_json(&text)
            .unwrap_or_else(|e| panic!("{name} is not a complete report: {e}"));
        assert_eq!(report.jobs.len(), cheri_sweep::profile_matrix(Profile::Smoke).len());
    }

    // The same contract for the telemetry flush: the drain wrote the
    // whole file (valid JSON, a traceEvents array, the final metric
    // snapshot) and left no `.tmp` sibling behind.
    let telem_dir = telem_out.parent().unwrap();
    for entry in std::fs::read_dir(telem_dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "partial telem file left behind: {name}");
    }
    let flushed = std::fs::read_to_string(&telem_out).expect("telem flush missing after drain");
    let parsed = json::parse(&flushed).unwrap();
    let obj = parsed.as_obj().unwrap();
    assert!(obj["telemMetrics"].as_obj().is_some());
    // The flushed rows, read back as span events, balance: the drain
    // flushes whole requests.
    let rows = obj["traceEvents"].as_arr().unwrap();
    assert!(!rows.is_empty());
    let events: Vec<SpanEvent> = rows.iter().map(span_event).collect();
    check_balance(&events).expect("the flushed timeline balances");
}

/// One flushed `traceEvents` row as the span event it was rendered
/// from (tags are not needed to check balance).
fn span_event(row: &json::Json) -> SpanEvent {
    let row = row.as_obj().unwrap();
    let name = row["name"].as_str().unwrap();
    let phase = [
        SpanPhase::Request,
        SpanPhase::Queue,
        SpanPhase::Boot,
        SpanPhase::Restore,
        SpanPhase::Simulate,
        SpanPhase::Serialize,
    ]
    .into_iter()
    .find(|p| p.as_str() == name)
    .unwrap_or_else(|| panic!("unknown span name {name}"));
    SpanEvent {
        begin: row["ph"].as_str() == Some("B"),
        phase,
        req: row["tid"].as_u64().unwrap(),
        job: row["args"].as_obj().unwrap()["job"].as_u64().unwrap(),
        t_us: row["ts"].as_u64().unwrap(),
        tag: None,
    }
}

#[test]
fn requests_after_shutdown_are_refused() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.ping().unwrap(), cheri_serve::SCHEMA);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // A fresh connection is refused outright once the listener is gone.
    assert!(
        Client::connect(&addr).is_err() || {
            let mut c = Client::connect(&addr).unwrap();
            c.ping().is_err()
        }
    );
}
