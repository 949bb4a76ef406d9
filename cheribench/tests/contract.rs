//! The benchmark's contract: seeded streams, the metric vocabulary and
//! its listing in `BENCHMARK.json`, the scrape arithmetic, and a
//! miniature served run against an in-process server.

use cheri_benchmark::metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use cheri_benchmark::served;
use cheri_benchmark::stream::draw;
use cheri_benchmark::{Expected, Workload};
use cheri_serve::{Client, Server, ServerConfig};
use cheri_sweep::{Profile, StrategyKind};
use cheri_telem::parse_exposition;
use cheri_work::Workload as Guest;
use std::path::Path;
use std::time::{Duration, Instant};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Every name the binary can print: workloads, then metrics.
fn all_names() -> Vec<&'static str> {
    Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
        .collect()
}

#[test]
fn same_seed_same_stream_different_seed_different_stream() {
    let stream = |seed| (0..200).map(|i| draw(seed, i, 25)).collect::<Vec<_>>();
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));
    // Each round is a permutation, so the seed moves the order only.
    for round in 0..8 {
        let mut order: Vec<usize> = (0..25).map(|k| draw(7, round * 25 + k, 25)).collect();
        order.sort_unstable();
        assert_eq!(order, (0..25).collect::<Vec<_>>());
    }
}

#[test]
fn every_emitted_name_is_well_formed_and_unique() {
    let names = all_names();
    for name in &names {
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "`{name}` is not [A-Za-z0-9_.-]+"
        );
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

/// The values of every `"key": "..."` pair in `text`, in order.
fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": \"");
    text.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &text[at + pattern.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_emits() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert_eq!(string_values(&text, "name"), all_names());
    let units: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.unit).collect();
    assert_eq!(string_values(&text, "unit"), units);
}

const BEFORE: &str = "\
# TYPE serve_jobs_cached_total counter
serve_jobs_cached_total 30
# TYPE serve_jobs_warm_total counter
serve_jobs_warm_total 5
# TYPE serve_boot_us histogram
serve_boot_us_bucket{le=\"8191\"} 2
serve_boot_us_bucket{le=\"+Inf\"} 2
serve_boot_us_sum 12000
serve_boot_us_count 2
# TYPE serve_job_latency_us histogram
serve_job_latency_us_bucket{le=\"7\"} 30
serve_job_latency_us_bucket{le=\"+Inf\"} 35
serve_job_latency_us_sum 50180
serve_job_latency_us_count 35
# TYPE serve_queue_wait_us histogram
serve_queue_wait_us_bucket{le=\"15\"} 35
serve_queue_wait_us_bucket{le=\"+Inf\"} 35
serve_queue_wait_us_sum 350
serve_queue_wait_us_count 35
";

const AFTER: &str = "\
# TYPE serve_jobs_cached_total counter
serve_jobs_cached_total 130
# TYPE serve_jobs_warm_total counter
serve_jobs_warm_total 5
# TYPE serve_boot_us histogram
serve_boot_us_bucket{le=\"8191\"} 2
serve_boot_us_bucket{le=\"+Inf\"} 2
serve_boot_us_sum 12000
serve_boot_us_count 2
# TYPE serve_job_latency_us histogram
serve_job_latency_us_bucket{le=\"7\"} 130
serve_job_latency_us_bucket{le=\"+Inf\"} 135
serve_job_latency_us_sum 50580
serve_job_latency_us_count 135
# TYPE serve_queue_wait_us histogram
serve_queue_wait_us_bucket{le=\"15\"} 135
serve_queue_wait_us_bucket{le=\"+Inf\"} 135
serve_queue_wait_us_sum 1550
serve_queue_wait_us_count 135
";

#[test]
fn scrape_difference_on_golden_expositions() {
    let (before, after) = (parse_exposition(BEFORE).unwrap(), parse_exposition(AFTER).unwrap());
    let mut v = Values::new();
    served::scrape_diff(&before, &after, &mut v);
    // 100 cached jobs between the scrapes, 400 µs of engine time and
    // 1200 µs of queue wait among them.
    assert_eq!(v["serve.cached"], 100.0);
    assert_eq!(v["serve.warm"], 0.0);
    assert_eq!(v["serve.engine_us"], 4.0);
    assert_eq!(v["serve.queue_wait_us"], 12.0);
    // Families absent from both scrapes, or unchanged, average to 0.
    assert_eq!(v["serve.restore_ms"], 0.0);
    assert_eq!(v["serve.serialize_us"], 0.0);
    assert_eq!(served::mean_between(&before, &after, "serve_boot_us"), 0.0);
    let empty = parse_exposition("").unwrap();
    assert_eq!(served::mean_between(&empty, &before, "serve_boot_us"), 6000.0);
}

#[test]
fn miniature_serve_cached_run_fails_nothing() {
    // The two smallest smoke jobs keep the cold priming quick in a
    // debug build.
    let specs = Workload::ServeCached
        .specs()
        .into_iter()
        .filter(|s| {
            s.strategy == StrategyKind::Mips
                && matches!(s.workload, Guest::Allocstress | Guest::Treeadd)
        })
        .collect();
    let expected = Expected::load(repo_root(), Profile::Smoke, specs).unwrap();
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { workers: 1, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_handle();
    let serving = std::thread::spawn(move || server.serve());

    let mut client = Client::connect(&addr).unwrap();
    let unprimed = served::scrape(&mut client).unwrap();
    assert_eq!(served::prime(&mut client, &expected, true), (2, 0));
    let far = Instant::now() + Duration::from_secs(600);

    let plain = served::run(&mut client, &expected, true, 1, far, 100, None).unwrap();
    assert_eq!((plain.attempted, plain.failed, plain.correct), (100, 0, true));
    let measured: Vec<&str> = plain.values.keys().copied().collect();
    let mut wanted: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .filter(|n| !["setup_s", "peak_rss_mb"].contains(n))
        .collect();
    wanted.sort_unstable();
    assert_eq!(measured, wanted, "the caller adds setup_s and peak_rss_mb");
    // The batch worker reports through the same values, as lines.
    assert_eq!(Outcome::from_lines(plain.to_lines().lines()).unwrap(), plain);

    let traced = served::run(&mut client, &expected, true, 2, far, 100, Some(&unprimed)).unwrap();
    assert_eq!((traced.attempted, traced.failed, traced.correct), (100, 0, true));
    traced.to_json(&PER_LAYER).unwrap();
    assert_eq!(traced.values["serve.cached"], 100.0);
    assert!(traced.values["serve.boot_ms"] > 0.0, "priming boots each job cold");

    // A stream whose time is already up still sends one round of the
    // pool, so every job has a time.
    let past = Instant::now();
    let short = served::run(&mut client, &expected, true, 3, past, 100, None).unwrap();
    assert_eq!((short.attempted, short.failed), (2, 0));
    assert!(short.values["p90_us"] > 0.0);

    drop(client);
    stop.request();
    serving.join().unwrap().unwrap();
}
