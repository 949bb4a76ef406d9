//! The served workloads: one closed-loop client requesting single jobs
//! from a `cheri-serve` instance, waiting for each reply before it sends
//! the next request, as `serveload`, CI and scripts do.

use crate::metrics::{best_pass, ratio, record_counts, unreached, Outcome, Values};
use crate::stream::draw;
use crate::{instructions, Expected};
use cheri_serve::protocol::JobParts;
use cheri_serve::{telem, Client};
use cheri_telem::{parse_exposition, Exposition};
use std::time::{Duration, Instant};

/// The layers the benchmark times in-process, which a served run never
/// reaches: the server does that work.
const IN_PROCESS_LAYERS: [&str; 8] = [
    "os.start_ms",
    "sim.alloc_ms",
    "sim.compute_ms",
    "sim.ns_per_instr",
    "snap.capture_ms",
    "snap.hash_ms",
    "snap.restore_ms",
    "snap.bytes",
];

fn parts(expected: &Expected) -> Vec<JobParts> {
    expected
        .specs
        .iter()
        .map(|s| JobParts {
            workload: s.workload.name().to_string(),
            strategy: s.strategy.name().to_string(),
            tag_kb: s.tag_cache_kb,
            profile: expected.profile,
        })
        .collect()
}

/// Whether a reply is job `k`'s expected record, byte for byte.
fn check(
    reply: Result<(String, cheri_serve::Origin, String), String>,
    expected: &Expected,
    keys: &[String],
    k: usize,
) -> Result<(), String> {
    let (key, _, record) = reply?;
    if key != keys[k] {
        Err(format!("asked for {}, got {key}", keys[k]))
    } else if record != expected.lines[k] {
        Err(format!("{key}: record differs from its baseline line"))
    } else {
        Ok(())
    }
}

/// The set-up's priming: requests every job of `expected` once. Each
/// runs cold (compile, boot, snapshot capture and hash, pool insert),
/// so every later request for it runs warm, or with `cache` is served
/// from the result cache. Returns the operations attempted and failed.
pub fn prime(client: &mut Client, expected: &Expected, cache: bool) -> (u64, u64) {
    let keys: Vec<String> = expected.specs.iter().map(|s| s.key()).collect();
    let mut failed = 0;
    for (k, p) in parts(expected).into_iter().enumerate() {
        if let Err(e) = check(client.job(p, cache), expected, &keys, k) {
            eprintln!("cheribench: priming: {e}");
            failed += 1;
        }
    }
    (keys.len() as u64, failed)
}

/// What one stream of requests measured.
struct Stream {
    /// Requests sent.
    attempted: u64,
    /// Requests that failed or returned a wrong record.
    failed: u64,
    /// Each job's shortest round trip over the correct replies;
    /// `u64::MAX` for a job without one.
    best_ns: Vec<u64>,
    /// Correct replies, and the sum of their round trips.
    replies: u64,
    round_trips_ns: u64,
}

/// Sends the seeded stream over `expected`'s jobs, each request once the
/// previous reply is in, until `until` or until `limit` requests were
/// sent; the first round of the stream, one request per job, is always
/// sent in full unless `limit` is smaller.
fn stream(
    client: &mut Client,
    expected: &Expected,
    cache: bool,
    seed: u64,
    until: Instant,
    limit: usize,
) -> Stream {
    let parts = parts(expected);
    let keys: Vec<String> = expected.specs.iter().map(|s| s.key()).collect();
    let n = parts.len();
    let mut s = Stream {
        attempted: 0,
        failed: 0,
        best_ns: vec![u64::MAX; n],
        replies: 0,
        round_trips_ns: 0,
    };
    for i in 0..limit {
        if i >= n && Instant::now() >= until {
            break;
        }
        let k = draw(seed, i, n);
        s.attempted += 1;
        let t0 = Instant::now();
        let reply = client.job(parts[k].clone(), cache);
        let took = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let transport_error = reply.is_err();
        match check(reply, expected, &keys, k) {
            Ok(()) => {
                s.best_ns[k] = s.best_ns[k].min(took);
                s.replies += 1;
                s.round_trips_ns += took;
            }
            Err(e) => {
                if s.failed == 0 {
                    eprintln!("cheribench: request: {e}");
                }
                s.failed += 1;
            }
        }
        if transport_error {
            break;
        }
    }
    s
}

/// One `metrics` scrape, parsed.
///
/// # Errors
///
/// Transport errors or an invalid exposition.
pub fn scrape(client: &mut Client) -> Result<Exposition, String> {
    parse_exposition(&client.metrics()?)
}

/// The mean of histogram `name`'s observations between two scrapes,
/// from the `_sum`/`_count` pair the server exports; 0 if none.
#[must_use]
pub fn mean_between(before: &Exposition, after: &Exposition, name: &str) -> f64 {
    let hist = |e: &Exposition| e.histogram(name).map_or((0, 0), |h| (h.sum, h.count));
    let ((sum0, count0), (sum1, count1)) = (hist(before), hist(after));
    ratio(sum1.saturating_sub(sum0) as f64, count1.saturating_sub(count0) as f64)
}

/// The server's layers over a measured stream, from the scrapes before
/// and after it: per-job mean times and the jobs counted per origin.
pub fn scrape_diff(before: &Exposition, after: &Exposition, values: &mut Values) {
    let mean_us = |name: &str| mean_between(before, after, name);
    let delta = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    values.insert("serve.queue_wait_us", mean_us(telem::QUEUE_WAIT_US));
    values.insert("serve.restore_ms", mean_us(telem::RESTORE_US) / 1e3);
    values.insert("serve.simulate_ms", mean_us(telem::SIMULATE_US) / 1e3);
    values.insert("serve.serialize_us", mean_us(telem::SERIALIZE_US));
    values.insert("serve.engine_us", mean_us(telem::JOB_LATENCY_US));
    values.insert("serve.cached", delta(telem::JOBS_CACHED));
    values.insert("serve.warm", delta(telem::JOBS_WARM));
}

/// A served run on a connected, primed `client`: the stream until
/// `until` (or `limit` requests), reporting the end-to-end metrics
/// except `setup_s` and `peak_rss_mb`, which belong to the server
/// process and are the caller's.
///
/// Times are each job's shortest round trip over the run, as for the
/// batch workloads: host bursts only ever lengthen a round trip, so the
/// minimum is the estimate other tenants move least, and one round of
/// the pool at those times is the best round.
///
/// Traced (`unprimed` holds a scrape taken before priming), the client
/// scrapes the server's metrics before and after the stream and the
/// per-layer metrics are reported: `serve.boot_ms` over the priming,
/// the only place cold boots happen, and the other `serve.*` metrics
/// over the stream. The scrapes are the only work tracing adds, so
/// their share of the window is the tracing overhead.
///
/// # Errors
///
/// A failed scrape.
pub fn run(
    client: &mut Client,
    expected: &Expected,
    cache: bool,
    seed: u64,
    until: Instant,
    limit: usize,
    unprimed: Option<&Exposition>,
) -> Result<Outcome, String> {
    let mut scrape_time = Duration::ZERO;
    let mut timed_scrape = |client: &mut Client| {
        let t0 = Instant::now();
        let exposition = scrape(client);
        scrape_time += t0.elapsed();
        exposition
    };
    let before = match unprimed {
        Some(_) => Some(timed_scrape(client)?),
        None => None,
    };
    let start = Instant::now();
    let mut s = stream(client, expected, cache, seed, until, limit);
    let window = start.elapsed().as_secs_f64();
    let mut out = Outcome { correct: true, ..Outcome::default() };
    out.absorb_ops(s.attempted, s.failed);
    let v = &mut out.values;
    let (Some(unprimed), Some(before)) = (unprimed, before) else {
        let pass_instr = expected.records.iter().map(instructions).sum();
        best_pass(&mut s.best_ns, pass_instr, v);
        return Ok(out);
    };
    let after = timed_scrape(client)?;
    scrape_diff(&before, &after, v);
    v.insert("serve.boot_ms", mean_between(unprimed, &before, telem::BOOT_US) / 1e3);
    let round_trip_us = ratio(s.round_trips_ns as f64 / 1e3, s.replies as f64);
    // Queue wait, engine and serialisation nest inside the round trip;
    // the rest is protocol, socket and the connection thread.
    let server_us = v["serve.queue_wait_us"] + v["serve.engine_us"] + v["serve.serialize_us"];
    v.insert("serve.wire_us", round_trip_us - server_us);
    v.insert("bench.trace_overhead_pct", 100.0 * ratio(scrape_time.as_secs_f64(), window));
    record_counts(&expected.records, v);
    unreached(&IN_PROCESS_LAYERS, v);
    Ok(out)
}
