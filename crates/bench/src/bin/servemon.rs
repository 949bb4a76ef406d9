//! `servemon` — a live terminal dashboard for a running `cheri-serve`
//! instance.
//!
//! Polls the server's `metrics` (Prometheus text exposition) and
//! `health` verbs and redraws one plain-text frame per interval:
//! jobs/s, per-origin hit rates, queue depth and worker states, latency
//! percentiles (upper bucket bounds from the streaming histograms, the
//! exact max from its gauge), and per-phase averages. No TUI
//! dependencies — the frame is ANSI clear-screen plus println.
//!
//! ```text
//! servemon --addr HOST:PORT           the server (required)
//!          [--interval-ms N]          poll interval (default 1000)
//!          [--once]                   one poll, one frame, then exit with
//!                                     0 if the server is ready, 3 if it
//!                                     answered but is not ready, 1 on any
//!                                     failure — the CI readiness probe
//!          [--json]                   with --once: emit one JSON object
//!                                     instead of the text frame
//! ```
//!
//! Percentiles shown are *upper bounds*: the latency histograms are
//! log2-bucketed, so "p95 <= 16383 us" means the 95th-percentile
//! request landed in the bucket whose range ends at 16383 us. The max
//! is exact (its own gauge). This is the honest way to render a
//! streaming histogram — see DESIGN.md §4i.

use cheri_bench::cli::{self, Cli};
use cheri_serve::protocol::HealthSnapshot;
use cheri_serve::Client;
use cheri_telem::{parse_exposition, Exposition};
use cheri_trace::json::JsonWriter;
use std::time::{Duration, Instant};

const USAGE: &str = "servemon --addr HOST:PORT [--interval-ms N] [--once] [--json]";

struct Args {
    addr: String,
    interval_ms: u64,
    once: bool,
    json: bool,
}

fn fail(msg: &str) -> ! {
    cli::fail("servemon", msg)
}

fn parse_args() -> Args {
    let mut cli = Cli::new("servemon", USAGE);
    let mut args = Args { addr: String::new(), interval_ms: 1000, once: false, json: false };
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--addr" => args.addr = cli.value("--addr"),
            "--interval-ms" => args.interval_ms = cli.positive("--interval-ms") as u64,
            "--once" => args.once = true,
            "--json" => args.json = true,
            other => cli.unknown(other),
        }
    }
    if args.addr.is_empty() {
        cli.usage_exit("--addr is required");
    }
    if args.json && !args.once {
        cli.usage_exit("--json requires --once");
    }
    args
}

/// One poll of the server: exposition + health.
struct Sample {
    exp: Exposition,
    health: HealthSnapshot,
    at: Instant,
}

fn poll(client: &mut Client) -> Result<Sample, String> {
    let text = client.metrics()?;
    let exp = parse_exposition(&text).map_err(|e| format!("bad metrics exposition: {e}"))?;
    let health = client.health()?;
    Ok(Sample { exp, health, at: Instant::now() })
}

/// Counter value or 0 (absent just means "nothing recorded yet").
fn c(exp: &Exposition, name: &str) -> u64 {
    exp.counter(name).unwrap_or(0)
}

/// `part` as a percentage of `whole` (integer, 0 when empty).
fn pct_of(part: u64, whole: u64) -> u64 {
    (part * 100).checked_div(whole).unwrap_or(0)
}

/// Jobs/s ×100: from the delta between two samples when available
/// (live view), else cumulative over the server's uptime (--once).
fn jobs_per_sec_x100(prev: Option<&Sample>, cur: &Sample) -> u64 {
    let jobs = c(&cur.exp, "serve_jobs_total");
    match prev {
        Some(p) => {
            let djobs = jobs.saturating_sub(c(&p.exp, "serve_jobs_total"));
            let dt_ms = (cur.at.duration_since(p.at).as_millis() as u64).max(1);
            djobs.saturating_mul(100_000) / dt_ms
        }
        None => jobs.saturating_mul(100_000) / cur.health.uptime_ms.max(1),
    }
}

fn fmt_us(v: Option<u64>, exact: bool) -> String {
    match v {
        None => "-".into(),
        Some(v) if exact => format!("{v} us"),
        Some(v) => format!("<={v} us"),
    }
}

fn phase_cell(exp: &Exposition, name: &str, hist: &str, counter: &str) -> String {
    let n = c(exp, counter);
    if n == 0 {
        return format!("{name} n=0");
    }
    let sum = exp.histogram(hist).map_or(0, |h| h.sum);
    format!("{name} n={n} avg {} us", sum / n)
}

fn draw_frame(addr: &str, prev: Option<&Sample>, s: &Sample, clear: bool) {
    if clear {
        // ANSI clear + home: the whole dashboard, redrawn in place.
        print!("\x1b[2J\x1b[H");
    }
    let h = &s.health;
    let jobs = c(&s.exp, "serve_jobs_total");
    let (cached, warm, cold) = (
        c(&s.exp, "serve_jobs_cached_total"),
        c(&s.exp, "serve_jobs_warm_total"),
        c(&s.exp, "serve_jobs_cold_total"),
    );
    let jps = jobs_per_sec_x100(prev, s);
    let lat = s.exp.histogram("serve_job_latency_us");
    let max_us = s.exp.gauge("serve_job_latency_max_us");
    let q = |pct| lat.and_then(|h| h.quantile_upper(pct, max_us));
    println!(
        "servemon @ {addr} | up {} ms | cheri-serve v{} ({} workers)",
        h.uptime_ms, h.version, h.workers,
    );
    println!(
        "health   {} | prewarm {} | workers {}/{} alive | queue {}/{}",
        if h.ready { "READY" } else { "NOT READY" },
        h.prewarm,
        h.workers_alive,
        h.workers,
        h.queue_depth,
        h.queue_limit,
    );
    println!(
        "jobs     {jobs} total | cached {cached} ({}%) warm {warm} ({}%) cold {cold} ({}%) | \
         {}.{:02} jobs/s",
        pct_of(cached, jobs),
        pct_of(warm, jobs),
        pct_of(cold, jobs),
        jps / 100,
        jps % 100,
    );
    println!(
        "server   busy {}/{} workers | pool {} snapshots | cache {} results",
        s.exp.gauge("serve_workers_busy").unwrap_or(0),
        h.workers,
        s.exp.gauge("serve_pool_entries").unwrap_or(0),
        s.exp.gauge("serve_cached_results").unwrap_or(0),
    );
    println!(
        "latency  p50 {} | p95 {} | p99 {} | max {}",
        fmt_us(q(50), false),
        fmt_us(q(95), false),
        fmt_us(q(99), false),
        fmt_us(max_us.filter(|_| jobs > 0), true),
    );
    println!(
        "phases   {} | {} | {} | {}",
        phase_cell(&s.exp, "boot", "serve_boot_us", "serve_boots_total"),
        phase_cell(&s.exp, "restore", "serve_restore_us", "serve_restores_total"),
        phase_cell(&s.exp, "simulate", "serve_simulate_us", "serve_simulates_total"),
        phase_cell(&s.exp, "queue", "serve_queue_wait_us", "serve_queue_waits_total"),
    );
}

/// The `--once --json` frame: one machine-readable object for scripts
/// and the CI readiness probe.
fn json_frame(s: &Sample) -> String {
    let jobs = c(&s.exp, "serve_jobs_total");
    let lat = s.exp.histogram("serve_job_latency_us");
    let max_us = s.exp.gauge("serve_job_latency_max_us");
    let q = |pct| lat.and_then(|h| h.quantile_upper(pct, max_us)).unwrap_or(0);
    let mut w = JsonWriter::object();
    w.bool_field("ready", s.health.ready);
    w.str_field("prewarm", &s.health.prewarm);
    w.u64_field("uptime_ms", s.health.uptime_ms);
    w.u64_field("workers", s.health.workers);
    w.u64_field("workers_alive", s.health.workers_alive);
    w.u64_field("workers_busy", s.exp.gauge("serve_workers_busy").unwrap_or(0));
    w.u64_field("queue_depth", s.health.queue_depth);
    w.u64_field("queue_limit", s.health.queue_limit);
    w.u64_field("jobs_total", jobs);
    w.u64_field("jobs_cached", c(&s.exp, "serve_jobs_cached_total"));
    w.u64_field("jobs_warm", c(&s.exp, "serve_jobs_warm_total"));
    w.u64_field("jobs_cold", c(&s.exp, "serve_jobs_cold_total"));
    w.u64_field("jobs_per_sec_x100", jobs_per_sec_x100(None, s));
    w.u64_field("p50_us_upper", q(50));
    w.u64_field("p95_us_upper", q(95));
    w.u64_field("p99_us_upper", q(99));
    w.u64_field("max_us", max_us.unwrap_or(0));
    w.u64_field("pool_entries", s.exp.gauge("serve_pool_entries").unwrap_or(0));
    w.u64_field("cached_results", s.exp.gauge("serve_cached_results").unwrap_or(0));
    w.str_field("version", &s.health.version);
    w.close()
}

fn main() {
    let args = parse_args();
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => fail(&format!("connect {}: {e}", args.addr)),
    };
    if args.once {
        match poll(&mut client) {
            Ok(s) => {
                if args.json {
                    println!("{}", json_frame(&s));
                } else {
                    draw_frame(&args.addr, None, &s, false);
                }
                std::process::exit(if s.health.ready { 0 } else { 3 });
            }
            Err(e) => fail(&e),
        }
    }
    let mut prev: Option<Sample> = None;
    loop {
        match poll(&mut client) {
            Ok(s) => {
                draw_frame(&args.addr, prev.as_ref(), &s, true);
                prev = Some(s);
            }
            Err(e) => fail(&format!("poll: {e} (server gone?)")),
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}
