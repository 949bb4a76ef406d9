//! The span log is a window, served: a client sending cached requests
//! for ever does not grow the server's span log past
//! [`SPAN_WINDOW`] events, while the metric registry still counts every
//! request, the log balances, and the drain's flush holds whole recent
//! requests.

use cheri_serve::{telem, Client, JobParts, Origin, Server, ServerConfig};
use cheri_sweep::Profile;
use cheri_telem::{SpanPhase, SPAN_WINDOW};
use cheri_trace::json;
use std::path::PathBuf;

/// One of the two quickest smoke jobs.
fn quick_job() -> JobParts {
    JobParts {
        workload: "allocstress".into(),
        strategy: "mips".into(),
        tag_kb: 8,
        profile: Profile::Smoke,
    }
}

/// One cold request, three windows' worth of cached ones (two events
/// each, so the window wraps six times), then one warm request.
#[test]
fn cached_traffic_keeps_the_span_log_within_its_window() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("span-window");
    let _ = std::fs::remove_dir_all(&dir);
    let telem_out = dir.join("serve-telem.json");
    let cfg =
        ServerConfig { workers: 1, telem_out: Some(telem_out.clone()), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let telem = server.telem();
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).unwrap();

    let (_, origin, record) = client.job(quick_job(), true).unwrap();
    assert_eq!(origin, Origin::Cold);
    let first = client.last_req();
    let cached = 3 * SPAN_WINDOW as u64;
    for i in 0..cached {
        let (_, origin, repeat) = client.job(quick_job(), true).unwrap();
        assert!(origin == Origin::Cached && repeat == record, "request {i}");
        // A reply is written after its request span closes, so with one
        // connection no request is open here.
        if i % 1024 == 0 {
            let held = telem.spans().len();
            assert!(held <= SPAN_WINDOW, "after {i} cached requests the log holds {held}");
        }
    }
    let (_, origin, _) = client.job(quick_job(), false).unwrap();
    assert_eq!(origin, Origin::Warm);
    let last = client.last_req();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    let spans = telem.spans();
    assert!(spans.len() <= SPAN_WINDOW, "drained log holds {}", spans.len());
    spans.check_balance().expect("the drained window balances");
    let events = spans.events();
    let opened = |req: u64| -> Vec<SpanPhase> {
        events.iter().filter(|e| e.req == req && e.begin).map(|e| e.phase).collect()
    };
    use SpanPhase::{Queue, Request, Restore, Serialize, Simulate};
    assert_eq!(opened(last), [Request, Queue, Restore, Simulate, Serialize], "the last request");
    assert!(opened(first).is_empty(), "the first request left the window");
    let snap = telem.registry().snapshot();
    assert_eq!(snap.counter(telem::JOBS_CACHED), cached, "the registry counts every request");
    assert_eq!(snap.counter(telem::JOBS), cached + 2);

    // The flush is the window: the same number of rows, the last request
    // among them.
    let flushed = std::fs::read_to_string(&telem_out).expect("telem flush missing after drain");
    let parsed = json::parse(&flushed).unwrap();
    let rows = parsed.as_obj().unwrap()["traceEvents"].as_arr().unwrap().len();
    assert_eq!(rows, events.len());
    assert!(flushed.contains(&format!("\"tid\":{last},")));
}
