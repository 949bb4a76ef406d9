//! The `metrics` and `health` wire verbs: exposition validity, idle
//! byte-stability, the scrape-time consistency invariants, and the
//! readiness flip after a background prewarm.

use cheri_serve::{Client, JobParts, Origin, Server, ServerConfig, HIST_COUNTER_PAIRS};
use cheri_sweep::Profile;
use cheri_telem::{parse_exposition, SpanPhase};
use std::time::{Duration, Instant};

fn spawn_server(cfg: ServerConfig) -> (String, Server) {
    Server::bind("127.0.0.1:0", cfg).map(|s| (s.local_addr().unwrap().to_string(), s)).unwrap()
}

/// An idle server's exposition is pinned byte-for-byte: only the six
/// scrape-time gauges, in name order, and a second scrape changes
/// nothing. Read-only verbs must not create metrics — that is the whole
/// byte-stability design.
#[test]
fn idle_scrape_is_golden_and_byte_stable() {
    let (addr, server) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).unwrap();

    let first = client.metrics().unwrap();
    let golden = "\
# TYPE serve_cached_results gauge
serve_cached_results 0
# TYPE serve_pool_entries gauge
serve_pool_entries 0
# TYPE serve_queue_depth gauge
serve_queue_depth 0
# TYPE serve_workers gauge
serve_workers 2
# TYPE serve_workers_alive gauge
serve_workers_alive 2
# TYPE serve_workers_busy gauge
serve_workers_busy 0
";
    assert_eq!(first, golden, "idle exposition must match the golden scrape exactly");

    // Interleave other read-only verbs, then scrape again: not a byte
    // may differ.
    let _ = client.ping().unwrap();
    let _ = client.health().unwrap();
    let second = client.metrics().unwrap();
    assert_eq!(first, second, "idle scrapes must be byte-identical");

    // And the exposition passes its own validating parser.
    parse_exposition(&first).expect("golden scrape must parse");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// After real work, every scrape must be internally consistent: each
/// phase histogram's `_count` (and the exposition's `+Inf` bucket)
/// equals its paired counter, and the per-origin job counters sum to
/// the total — the invariants the batched registry writes guarantee.
/// The span log balances, and each origin records its own spans: a
/// cached request never queued and serialised nothing.
#[test]
fn scrape_invariants_hold_after_work() {
    let (addr, server) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let telem = server.telem();
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).unwrap();

    let parts = JobParts {
        workload: "treeadd".into(),
        strategy: "cheri".into(),
        tag_kb: 8,
        profile: Profile::Smoke,
    };
    // Cold, cached, then warm (uncached from the pooled snapshot): all
    // three origins exercised, histograms populated.
    let mut reqs = Vec::new();
    for (cache, expected) in [(true, Origin::Cold), (true, Origin::Cached), (false, Origin::Warm)] {
        let (_, origin, _) = client.job(parts.clone(), cache).unwrap();
        assert_eq!(origin, expected);
        reqs.push(client.last_req());
    }

    let text = client.metrics().unwrap();
    let exp = parse_exposition(&text).expect("exposition must validate");

    let jobs = exp.counter("serve_jobs_total").expect("jobs counter present");
    assert_eq!(jobs, 3);
    let by_origin: u64 = ["cached", "warm", "cold"]
        .iter()
        .map(|o| exp.counter(&format!("serve_jobs_{o}_total")).unwrap_or(0))
        .sum();
    assert_eq!(by_origin, jobs, "per-origin counters must sum to the total");

    for (hist, counter) in HIST_COUNTER_PAIRS {
        let count = exp.counter(counter).unwrap_or(0);
        match exp.histogram(hist) {
            Some(h) => {
                assert_eq!(h.count, count, "{hist}._count must equal {counter}");
                let (_, inf) = h.buckets.last().expect("histograms end with +Inf");
                assert_eq!(*inf, count, "{hist} +Inf bucket must equal {counter}");
            }
            None => assert_eq!(count, 0, "{counter} without its histogram {hist}"),
        }
    }

    // The exact-max gauge is bounded below by the histogram's reach: it
    // came from the same batch as some latency observation.
    let max = exp.gauge("serve_job_latency_max_us").expect("max gauge present");
    assert!(max > 0);

    // Idle again: two consecutive scrapes are byte-identical.
    assert_eq!(text, client.metrics().unwrap(), "post-work idle scrapes must be byte-stable");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    telem.spans().check_balance().expect("every span opened must close");
    // The spans each request opened, in the order it opened them.
    let opened = |req: u64| -> Vec<SpanPhase> {
        let events = telem.spans().events();
        events.iter().filter(|e| e.req == req && e.begin).map(|e| e.phase).collect()
    };
    use SpanPhase::{Boot, Queue, Request, Restore, Serialize, Simulate};
    assert_eq!(opened(reqs[0]), [Request, Queue, Boot, Simulate, Serialize], "cold");
    assert_eq!(opened(reqs[1]), [Request], "a cached request records its request span only");
    assert_eq!(opened(reqs[2]), [Request, Queue, Restore, Simulate, Serialize], "warm");
}

/// The CI startup sequence: a server prewarming in the background
/// answers `health` immediately with `ready: false` / `prewarm:
/// "running"`, and flips to `ready: true` / `"done"` once the pool is
/// booted — without ever refusing the probe.
#[test]
fn health_flips_ready_after_background_prewarm() {
    let (addr, server) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    server.prewarm_background(Profile::Smoke);
    let handle = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_running = false;
    let final_health = loop {
        let h = client.health().unwrap();
        if h.prewarm == "running" {
            assert!(!h.ready, "a prewarming server must not report ready");
            saw_running = true;
        }
        if h.ready {
            break h;
        }
        assert!(Instant::now() < deadline, "prewarm did not finish in time");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(final_health.prewarm, "done");
    assert_eq!(final_health.workers_alive, final_health.workers);
    assert!(final_health.queue_depth < final_health.queue_limit);
    // The scheduling race (prewarm finishing before the first probe) is
    // legal but should be rare with a whole profile to boot; either way
    // the terminal state is what CI keys on.
    let _ = saw_running;

    // The pool the prewarm filled is visible in the next scrape.
    let exp = parse_exposition(&client.metrics().unwrap()).unwrap();
    assert!(exp.gauge("serve_pool_entries").unwrap_or(0) > 0, "prewarm must fill the pool");
    // Prewarm contributes nothing to job telemetry: no jobs ran.
    assert_eq!(exp.counter("serve_jobs_total"), None, "prewarm must not count as jobs");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
