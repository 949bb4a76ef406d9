//! The batch workloads: every job of the workload once per pass, in
//! canonical order, serially on one thread with a fresh machine per job,
//! for as many whole passes as the time budget holds.
//!
//! The order is fixed, not seeded: which freed machines the allocator
//! keeps resident depends on the order of the jobs, and with a seeded
//! order peak RSS came out at 13 or 22 MB depending on the seed.

use crate::metrics::{best_pass, ratio, record_counts, unreached, Outcome};
use crate::{instructions, Expected};
use cheri_olden::dsl::BenchSession;
use cheri_sweep::{run_spec_with_config, JobRecord, JobResult, JobSpec, WARM_SNAPSHOT_PHASE};
use std::time::{Duration, Instant};

/// The served layers, which a batch run never reaches.
const SERVE_LAYERS: [&str; 9] = [
    "serve.queue_wait_us",
    "serve.boot_ms",
    "serve.restore_ms",
    "serve.simulate_ms",
    "serve.serialize_us",
    "serve.engine_us",
    "serve.wire_us",
    "serve.cached",
    "serve.warm",
];

/// Host time spent in each layer over the traced jobs.
#[derive(Default)]
struct Layers {
    jobs: u64,
    start: Duration,
    alloc: Duration,
    compute: Duration,
    capture: Duration,
    hash: Duration,
    restore: Duration,
    snap_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The untraced path: the function `xsweep` runs for every job.
fn run_plain(spec: &JobSpec) -> Result<JobResult, String> {
    run_spec_with_config(spec, spec.machine_config(), None)
}

/// Whether job `i` produced its baseline line, byte for byte.
fn check(expected: &Expected, i: usize, result: Result<JobResult, String>) -> Result<(), String> {
    let record = JobRecord::from_result(&result?).to_json();
    if record == expected.lines[i] {
        Ok(())
    } else {
        Err("record differs from its baseline line".into())
    }
}

/// The worker's set-up: runs the workload's longest job once, untimed.
/// It warms code and host caches, and makes the set-up long enough that
/// a host hiccup of a few milliseconds does not dominate `setup_s`.
///
/// # Errors
///
/// The job's failure or wrong record.
pub fn warm_up(expected: &Expected) -> Result<(), String> {
    let i = (0..expected.specs.len())
        .max_by_key(|&i| (instructions(&expected.records[i]), std::cmp::Reverse(i)))
        .expect("a workload has jobs");
    let spec = &expected.specs[i];
    check(expected, i, run_plain(spec)).map_err(|e| format!("warm-up {}: {e}", spec.key()))
}

/// The traced path: the same session calls as [`run_plain`], split at
/// the phase-2 boundary with a span around each layer. At that boundary
/// probes capture, hash and restore a snapshot, as the service does for
/// warm execution; the resumed copy is dropped and the original session
/// finishes the job. Returns the probes' time so the caller can leave it
/// out of the pass.
fn run_traced(spec: &JobSpec, layers: &mut Layers) -> Result<(JobResult, Duration), String> {
    let t0 = Instant::now();
    let strategy = spec.strategy.strategy();
    let module = spec.workload.module(&spec.params);
    let cfg = spec.machine_config();
    let block_cache = cfg.block_cache;
    let mut session = BenchSession::start_module(&module, strategy.as_ref(), cfg, None)
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    if session.run_until_phase(WARM_SNAPSHOT_PHASE).map_err(|e| e.to_string())?.is_some() {
        return Err(format!("exited before phase {WARM_SNAPSHOT_PHASE}"));
    }
    let t2 = Instant::now();
    let snap = session.snapshot();
    let t3 = Instant::now();
    std::hint::black_box(snap.state_hash());
    let t4 = Instant::now();
    let resumed = BenchSession::resume(&snap, spec.strategy.name(), block_cache)
        .map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    drop(resumed);
    layers.snap_bytes += snap.to_json().len() as u64;
    drop(snap);
    let t6 = Instant::now();
    let run = session.run_to_completion().map_err(|e| e.to_string())?;
    let t7 = Instant::now();
    layers.jobs += 1;
    layers.start += t1 - t0;
    layers.alloc += t2 - t1;
    layers.capture += t3 - t2;
    layers.hash += t4 - t3;
    layers.restore += t5 - t4;
    layers.compute += t7 - t6;
    Ok((JobResult { spec: *spec, run }, t6 - t2))
}

/// Runs passes over `expected`'s jobs until `budget` would be overrun,
/// checking every record against its baseline line.
///
/// Times are each job's minimum over the passes: the host only ever
/// slows a job down, so the minimum is the estimate least moved by other
/// tenants. One pass at those times is the best pass.
///
/// Untraced, it reports the end-to-end metrics except `setup_s` and
/// `peak_rss_mb`, which belong to the process and are the caller's.
/// Traced, it alternates untraced and traced passes, so both see the
/// same host conditions and the ratio of their best passes is the
/// tracing overhead, and reports the per-layer metrics. The traced run
/// fails its check unless the spanned layers cover 95% of the traced
/// pass time.
#[must_use]
pub fn run(expected: &Expected, budget: Duration, trace: bool) -> Outcome {
    let n = expected.specs.len();
    let pass_instr: u64 = expected.records.iter().map(instructions).sum();
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut best_plain = vec![u64::MAX; n];
    let mut best_traced = vec![u64::MAX; n];
    let mut traced_passes = 0u32;
    let mut traced_time = Duration::ZERO;
    let mut layers = Layers::default();
    let start = Instant::now();
    for pass in 0u64.. {
        let traced = trace && pass % 2 == 1;
        let t0 = Instant::now();
        let mut probes = Duration::ZERO;
        let mut failed = 0;
        for i in 0..n {
            let spec = &expected.specs[i];
            let j0 = Instant::now();
            let (result, probe) = if traced {
                match run_traced(spec, &mut layers) {
                    Ok((r, probe)) => (Ok(r), probe),
                    Err(e) => (Err(e), Duration::ZERO),
                }
            } else {
                (run_plain(spec), Duration::ZERO)
            };
            let took = nanos(j0.elapsed() - probe);
            probes += probe;
            if let Err(e) = check(expected, i, result) {
                eprintln!("cheribench: {}: {e}", spec.key());
                failed += 1;
            }
            let best = if traced { &mut best_traced[i] } else { &mut best_plain[i] };
            *best = (*best).min(took);
        }
        out.absorb_ops(n as u64, failed);
        let pass_time = t0.elapsed();
        if traced {
            traced_passes += 1;
            traced_time += pass_time - probes;
        }
        let have_both = !trace || pass >= 1;
        if have_both && start.elapsed() + pass_time >= budget {
            break;
        }
    }

    let v = &mut out.values;
    if !trace {
        best_pass(&mut best_plain, pass_instr, v);
        return out;
    }

    let jobs = layers.jobs as f64;
    let spanned = layers.start + layers.alloc + layers.compute;
    let coverage = ratio(spanned.as_secs_f64(), traced_time.as_secs_f64());
    if coverage < 0.95 {
        eprintln!("cheribench: spans cover {:.1}% of the traced passes (< 95%)", coverage * 100.0);
        out.correct = false;
    }
    let traced_instr = pass_instr as f64 * f64::from(traced_passes);
    v.insert("os.start_ms", ratio(ms(layers.start), jobs));
    v.insert("sim.alloc_ms", ratio(ms(layers.alloc), jobs));
    v.insert("sim.compute_ms", ratio(ms(layers.compute), jobs));
    v.insert(
        "sim.ns_per_instr",
        ratio((layers.alloc + layers.compute).as_nanos() as f64, traced_instr),
    );
    v.insert("snap.capture_ms", ratio(ms(layers.capture), jobs));
    v.insert("snap.hash_ms", ratio(ms(layers.hash), jobs));
    v.insert("snap.restore_ms", ratio(ms(layers.restore), jobs));
    v.insert("snap.bytes", ratio(layers.snap_bytes as f64, jobs));
    let best_pass_s = best_plain.iter().sum::<u64>() as f64 / 1e9;
    let best_traced_s = best_traced.iter().sum::<u64>() as f64 / 1e9;
    v.insert("bench.trace_overhead_pct", 100.0 * (best_traced_s / best_pass_s - 1.0));
    record_counts(&expected.records, v);
    unreached(&SERVE_LAYERS, v);
    out
}
