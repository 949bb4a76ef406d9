//! The transparency contract, end to end: a sweep served over real TCP
//! must deliver a report byte-identical to the cold batch path, and the
//! result cache must serve repeats without changing a byte — with
//! telemetry attached and recording throughout, since that is how the
//! service actually runs.

use cheri_serve::{
    telem, transparency_gate, Client, JobEngine, JobParts, Origin, Request, Server, ServerConfig,
    Stop, WorkerPool, HIST_COUNTER_PAIRS,
};
use cheri_sweep::{run_matrix, Profile};
use cheri_telem::{parse_exposition, Exposition};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spawn_server(cfg: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.serve()))
}

/// One `metrics` scrape, parsed.
fn scrape(client: &mut Client) -> Exposition {
    parse_exposition(&client.metrics().unwrap()).unwrap()
}

/// A counter from a scrape (absent means nothing was recorded yet).
fn counter(exp: &Exposition, name: &str) -> u64 {
    exp.counter(name).unwrap_or(0)
}

#[test]
fn served_sweep_is_byte_identical_to_batch() {
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let (addr, handle) = spawn_server(cfg);
    let mut client = Client::connect(&addr).unwrap();

    // First pass executes (warm or cold); progress must tick every job.
    let mut seen = 0u64;
    let served = client
        .sweep(Profile::Smoke, true, |done, total, _key, _origin| {
            seen += 1;
            assert!(done <= total);
        })
        .unwrap();
    let batch = run_matrix(Profile::Smoke, 2).to_json();
    assert_eq!(served, batch, "served sweep must reproduce the batch report byte-for-byte");
    assert_eq!(seen as usize, cheri_sweep::profile_matrix(Profile::Smoke).len());

    // Second pass: same matrix, now answered from the result cache —
    // and still the same bytes.
    let mut origins = Vec::new();
    let cached =
        client.sweep(Profile::Smoke, true, |_, _, _, origin| origins.push(origin)).unwrap();
    assert_eq!(cached, batch, "cached results must not change a byte");
    assert!(
        origins.iter().all(|o| *o == Origin::Cached),
        "second identical sweep must be fully deduped: {origins:?}"
    );

    let exp = scrape(&mut client);
    assert_eq!(counter(&exp, telem::JOBS_CACHED), origins.len() as u64, "one hit per job");
    assert_eq!(counter(&exp, telem::JOBS), 2 * origins.len() as u64);
    assert!(exp.gauge(telem::POOL_ENTRIES).unwrap_or(0) > 0, "phase-2 snapshots should be pooled");
    let health = client.health().unwrap();
    assert_eq!(health.workers, 2, "health must echo the worker config");
    assert_eq!(health.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(client.last_req(), 2, "two sweeps -> request ids 1 and 2");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn single_job_record_matches_its_report_line() {
    let (addr, handle) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(&addr).unwrap();

    let batch = run_matrix(Profile::Smoke, 2);
    let parts = cheri_serve::JobParts {
        workload: "treeadd".into(),
        strategy: "cheri".into(),
        tag_kb: 8,
        profile: Profile::Smoke,
    };
    let (key, _origin, record) = client.job(parts, true).unwrap();
    let expected = batch.job(&key).expect("job is part of the smoke matrix");
    assert_eq!(record, expected.to_json(), "served record must equal its batch report line");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// One of the two quickest smoke jobs.
fn quick_job() -> JobParts {
    JobParts {
        workload: "allocstress".into(),
        strategy: "mips".into(),
        tag_kb: 8,
        profile: Profile::Smoke,
    }
}

/// A cache hit is answered on its connection thread, never queued: with
/// the only worker busy on a long uncached sweep, a primed job still
/// comes back `cached`, byte-equal to its first answer, while the sweep
/// has work left.
#[test]
fn cache_hits_skip_a_busy_worker() {
    let (addr, handle) = spawn_server(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut b = Client::connect(&addr).unwrap();
    let (_, _, primed) = b.job(quick_job(), true).unwrap();

    let mut a = Client::connect(&addr).unwrap();
    a.send(&Request::Sweep { profile: Profile::Smoke, cache: false }).unwrap();
    // Jobs queued behind the one running: the worker is busy.
    let deadline = Instant::now() + Duration::from_secs(120);
    while b.health().unwrap().queue_depth == 0 {
        assert!(Instant::now() < deadline, "the sweep never occupied the worker");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (_, origin, record) = b.job(quick_job(), true).unwrap();
    assert_eq!(origin, Origin::Cached);
    assert_eq!(record, primed, "a hit must carry the primed record's bytes");
    assert!(b.health().unwrap().queue_depth > 0, "the hit must not have waited for the sweep");

    b.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// With the lookup on the connection thread, a miss is looked up there
/// once and the worker that executes it does not look again: each job
/// lands in the registry exactly once, under its origin.
#[test]
fn each_cache_miss_and_hit_is_counted_once() {
    let (addr, handle) = spawn_server(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect(&addr).unwrap();
    let origins = [telem::JOBS_CACHED, telem::JOBS_WARM, telem::JOBS_COLD];
    let counts = |exp: &Exposition| origins.map(|name| counter(exp, name));

    // Uncached: runs cold, pools its snapshot, stores nothing.
    let (_, origin, record) = client.job(quick_job(), false).unwrap();
    assert_eq!(origin, Origin::Cold);

    let before = scrape(&mut client);
    let [cached, warm, cold] = counts(&before);
    let (_, origin, _) = client.job(quick_job(), true).unwrap();
    assert_eq!(origin, Origin::Warm, "pooled but not cached: a miss that runs warm");
    let missed = scrape(&mut client);
    assert_eq!(counts(&missed), [cached, warm + 1, cold], "one miss, counted once, as warm");

    let (_, origin, repeat) = client.job(quick_job(), true).unwrap();
    assert_eq!(origin, Origin::Cached);
    assert_eq!(repeat, record);
    let hit = scrape(&mut client);
    assert_eq!(counts(&hit), [cached + 1, warm + 1, cold], "one hit, counted once, as cached");
    assert_eq!(
        counter(&hit, telem::JOBS),
        counter(&before, telem::JOBS) + 2,
        "every job counts once, hit or miss"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The `cheri-work` runtime workloads served one job at a time over the
/// socket must reproduce their batch report lines byte-for-byte, and a
/// repeat of the same cell must come back from the result cache
/// unchanged — the transparency contract extends to the new workloads,
/// not just the Olden four.
#[test]
fn served_new_workload_jobs_match_batch_lines() {
    let (addr, handle) = spawn_server(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(&addr).unwrap();

    let batch = run_matrix(Profile::Smoke, 2);
    for (workload, strategy) in [("vmloop", "cheri128"), ("allocstress", "mips")] {
        let parts = cheri_serve::JobParts {
            workload: workload.into(),
            strategy: strategy.into(),
            tag_kb: 8,
            profile: Profile::Smoke,
        };
        let (key, _origin, record) = client.job(parts.clone(), true).unwrap();
        let expected = batch.job(&key).unwrap_or_else(|| panic!("{key} in the smoke matrix"));
        assert_eq!(record, expected.to_json(), "{key}: served record must equal the batch line");

        let (_, origin, repeat) = client.job(parts, true).unwrap();
        assert_eq!(origin, Origin::Cached, "{key}: repeat must be answered from the cache");
        assert_eq!(repeat, record, "{key}: cached record must not change a byte");
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The in-process gate: the whole smoke matrix served warm from a
/// prewarmed snapshot pool vs the cold batch path, byte-compared — with
/// telemetry recording, which is the acceptance form of "observation
/// does not perturb results". The span stream the gate produced must also
/// balance, and every phase histogram must agree with its counter.
#[test]
fn transparency_gate_passes_on_smoke_with_telemetry_attached() {
    let engine = Arc::new(JobEngine::default());
    let workers = WorkerPool::new(2);
    let jobs = cheri_sweep::profile_matrix(Profile::Smoke).len();
    assert_eq!(engine.prewarm(Profile::Smoke, &workers, &Stop::new(false)), jobs);
    let report = transparency_gate(&engine, &workers, Profile::Smoke).unwrap();
    assert_eq!(report.profile, "smoke");
    assert_eq!(report.jobs.len(), jobs);
    workers.shutdown();

    let telem = engine.telem();
    assert!(!telem.spans().is_empty(), "the served pass must have recorded phase spans");
    telem.spans().check_balance().expect("every span the gate opened must close");
    let snap = telem.registry().snapshot();
    assert_eq!(
        snap.counter("serve_jobs_total"),
        report.jobs.len() as u64,
        "one job_finished per matrix job"
    );
    assert_eq!(
        snap.counter("serve_jobs_warm_total"),
        report.jobs.len() as u64,
        "every prewarmed job is served warm, and warm matches batch"
    );
    for (hist, counter) in HIST_COUNTER_PAIRS {
        let count = snap.histogram(hist).map_or(0, cheri_telem::Histogram::count);
        assert_eq!(count, snap.counter(counter), "{hist} count must equal {counter}");
    }
}
