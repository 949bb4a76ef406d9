//! `serveload` — load generator and round-trip checker for a running
//! `cheri-serve` instance.
//!
//! Drives N concurrent clients against the service, measures per-request
//! latency and aggregate throughput, and merges the numbers into
//! `results/serve.json` under a named section (so warm/cold/cached runs
//! recorded one after another land in one file, PerfDoc-style). It is
//! also the end-to-end half of the transparency contract: `--expect`
//! byte-compares the served sweep report against a file on disk — CI
//! points it at the blessed batch baseline.
//!
//! ```text
//! serveload --addr HOST:PORT          the server (required)
//!           [--clients N]             concurrent clients (default 1)
//!           [--requests N]            requests per client (default 1)
//!           [--mode closed|open]      closed: each client issues its next
//!                                     request when the previous returns
//!                                     (default); open: requests fire on a
//!                                     fixed timer regardless of completions,
//!                                     each on its own connection
//!           [--rate-ms N]             open-loop firing interval (default 100)
//!           [--profile NAME]          each request is a whole sweep of this
//!                                     profile (default: smoke)
//!           [--job W/S/KB]            instead: each request is one job, e.g.
//!                                     treeadd/cheri/8
//!           [--no-cache]              ask the server to bypass its result
//!                                     cache (forces real execution)
//!           [--once]                  shorthand for --clients 1 --requests 1
//!           [--expect PATH]           byte-compare the served sweep report
//!                                     against PATH; exit 1 on mismatch
//!           [--report-out PATH]       write the served report bytes to PATH
//!           [--out PATH]              latency/throughput JSON
//!                                     (default results/serve.json)
//!           [--label NAME]            section name in --out (default "run")
//! ```

use cheri_bench::cli::{self, Cli};
use cheri_bench::latency::nearest_rank;
use cheri_bench::triage::first_json_difference;
use cheri_serve::protocol::JobParts;
use cheri_serve::Client;
use cheri_sweep::Profile;
use cheri_trace::json::{self, Json};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const USAGE: &str = "serveload --addr HOST:PORT [--clients N] [--requests N] \
     [--mode closed|open] [--rate-ms N] [--profile NAME] [--job W/S/KB] [--no-cache] \
     [--once] [--expect PATH] [--report-out PATH] [--out PATH] [--label NAME]";

/// What each request asks the server to do.
#[derive(Clone)]
enum Work {
    Sweep(Profile),
    Job(JobParts),
}

impl Work {
    /// The human/JSON spelling recorded in the results section.
    fn describe(&self) -> String {
        match self {
            Work::Sweep(p) => format!("sweep {}", p.name()),
            Work::Job(parts) => {
                format!("job {}/{}/{}", parts.workload, parts.strategy, parts.tag_kb)
            }
        }
    }
}

struct Args {
    addr: String,
    clients: usize,
    requests: usize,
    open_loop: bool,
    rate_ms: u64,
    work: Work,
    cache: bool,
    expect: Option<PathBuf>,
    report_out: Option<PathBuf>,
    out: PathBuf,
    label: String,
}

fn fail(msg: &str) -> ! {
    cli::fail("serveload", msg)
}

fn parse_args() -> Args {
    let mut cli = Cli::new("serveload", USAGE);
    let mut args = Args {
        addr: String::new(),
        clients: 1,
        requests: 1,
        open_loop: false,
        rate_ms: 100,
        work: Work::Sweep(Profile::Smoke),
        cache: true,
        expect: None,
        report_out: None,
        out: PathBuf::from("results/serve.json"),
        label: "run".into(),
    };
    let mut once = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--addr" => args.addr = cli.value("--addr"),
            "--clients" => args.clients = cli.positive("--clients"),
            "--requests" => args.requests = cli.positive("--requests"),
            "--mode" => match cli.value("--mode").as_str() {
                "closed" => args.open_loop = false,
                "open" => args.open_loop = true,
                other => cli.usage_exit(&format!("unknown mode '{other}' (closed|open)")),
            },
            "--rate-ms" => args.rate_ms = cli.positive("--rate-ms") as u64,
            "--profile" => {
                let name = cli.value("--profile");
                let profile = Profile::parse(&name)
                    .unwrap_or_else(|| cli.usage_exit(&format!("unknown profile '{name}'")));
                args.work = Work::Sweep(profile);
            }
            "--job" => {
                let spec = cli.value("--job");
                let mut it = spec.split('/');
                let parts = match (it.next(), it.next(), it.next(), it.next()) {
                    (Some(w), Some(s), Some(kb), None) => JobParts {
                        workload: w.to_string(),
                        strategy: s.to_string(),
                        tag_kb: kb
                            .parse()
                            .unwrap_or_else(|_| cli.usage_exit("--job tag KB must be an integer")),
                        profile: Profile::Smoke,
                    },
                    _ => cli.usage_exit("--job requires WORKLOAD/STRATEGY/TAGKB"),
                };
                // Validate the names locally before generating load.
                if let Err(e) = parts.spec() {
                    cli.usage_exit(&e);
                }
                args.work = Work::Job(parts);
            }
            "--no-cache" => args.cache = false,
            "--once" => once = true,
            "--expect" => args.expect = Some(PathBuf::from(cli.value("--expect"))),
            "--report-out" => args.report_out = Some(PathBuf::from(cli.value("--report-out"))),
            "--out" => args.out = PathBuf::from(cli.value("--out")),
            "--label" => args.label = cli.value("--label"),
            other => cli.unknown(other),
        }
    }
    if args.addr.is_empty() {
        cli.usage_exit("--addr is required");
    }
    if once {
        args.clients = 1;
        args.requests = 1;
    }
    args
}

/// One request's outcome: latency when it succeeded, the report bytes
/// if it was a sweep (kept so `--expect` can compare them), and the
/// server-assigned request id (the span lane to look for in a
/// `--telem-out` timeline; 0 against pre-telemetry servers).
struct Outcome {
    latency_us: Option<u64>,
    report: Option<String>,
    error: Option<String>,
    req: u64,
}

fn one_request(client: &mut Client, work: &Work, cache: bool) -> Outcome {
    let t0 = Instant::now();
    let done = match work {
        Work::Sweep(profile) => client.sweep(*profile, cache, |_, _, _, _| {}).map(Some),
        Work::Job(parts) => client.job(parts.clone(), cache).map(|_| None),
    };
    let latency_us = t0.elapsed().as_micros() as u64;
    let req = client.last_req();
    match done {
        Ok(report) => Outcome { latency_us: Some(latency_us), report, error: None, req },
        Err(e) => Outcome { latency_us: None, report: None, error: Some(e), req },
    }
}

/// Closed loop: each client issues its next request when the previous
/// one returns, all on one persistent connection per client.
fn run_closed(args: &Args, tx: &mpsc::Sender<Outcome>) {
    std::thread::scope(|scope| {
        for _ in 0..args.clients {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut client = match Client::connect(&args.addr) {
                    Ok(c) => c,
                    Err(e) => {
                        let error = Some(format!("connect {}: {e}", args.addr));
                        let _ = tx.send(Outcome { latency_us: None, report: None, error, req: 0 });
                        return;
                    }
                };
                for _ in 0..args.requests {
                    let _ = tx.send(one_request(&mut client, &args.work, args.cache));
                }
            });
        }
    });
}

/// Open loop: requests fire on a fixed timer whether or not earlier
/// ones have completed, each on its own connection — the arrival rate
/// is independent of service time, so queueing at the server shows up
/// as latency here rather than as a lower request count.
fn run_open(args: &Args, tx: &mpsc::Sender<Outcome>) {
    let total = args.clients * args.requests;
    std::thread::scope(|scope| {
        for i in 0..total {
            if i != 0 {
                std::thread::sleep(Duration::from_millis(args.rate_ms));
            }
            let tx = tx.clone();
            scope.spawn(move || {
                let outcome = match Client::connect(&args.addr) {
                    Ok(mut client) => one_request(&mut client, &args.work, args.cache),
                    Err(e) => Outcome {
                        latency_us: None,
                        report: None,
                        error: Some(format!("connect {}: {e}", args.addr)),
                        req: 0,
                    },
                };
                let _ = tx.send(outcome);
            });
        }
    });
}

/// One labelled section of `results/serve.json`. All integers except
/// the `work` description, matching the workspace's integer-only
/// reporting convention; wall times are host measurements, so the file
/// is evidence for EXPERIMENTS.md, not a regression baseline.
struct Section {
    work: String,
    mode: String,
    clients: u64,
    requests: u64,
    completed: u64,
    errors: u64,
    wall_ms: u64,
    jobs_per_sec_x100: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

impl Section {
    fn to_json(&self) -> String {
        format!(
            "{{\n    \"work\": \"{}\",\n    \"mode\": \"{}\",\n    \"clients\": {},\n    \
             \"requests\": {},\n    \"completed\": {},\n    \"errors\": {},\n    \
             \"wall_ms\": {},\n    \"jobs_per_sec_x100\": {},\n    \"p50_us\": {},\n    \
             \"p90_us\": {},\n    \"p99_us\": {},\n    \"max_us\": {}\n  }}",
            self.work,
            self.mode,
            self.clients,
            self.requests,
            self.completed,
            self.errors,
            self.wall_ms,
            self.jobs_per_sec_x100,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us
        )
    }

    fn from_json(v: &Json) -> Option<Section> {
        let obj = v.as_obj()?;
        let s = |k: &str| obj.get(k)?.as_str().map(str::to_string);
        let u = |k: &str| obj.get(k)?.as_u64();
        Some(Section {
            work: s("work")?,
            mode: s("mode")?,
            clients: u("clients")?,
            requests: u("requests")?,
            completed: u("completed")?,
            errors: u("errors")?,
            wall_ms: u("wall_ms")?,
            jobs_per_sec_x100: u("jobs_per_sec_x100")?,
            p50_us: u("p50_us")?,
            p90_us: u("p90_us")?,
            p99_us: u("p99_us")?,
            max_us: u("max_us")?,
        })
    }
}

/// Reads the sections of an existing results file so successive runs
/// with different labels accumulate instead of clobbering each other.
fn read_sections(path: &Path) -> Vec<(String, Section)> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    let Ok(v) = json::parse(&text) else { return Vec::new() };
    let Some(obj) = v.as_obj() else { return Vec::new() };
    let Some(sections) = obj.get("sections").and_then(Json::as_obj) else { return Vec::new() };
    sections
        .iter()
        .filter_map(|(label, v)| Section::from_json(v).map(|s| (label.clone(), s)))
        .collect()
}

fn write_results(path: &Path, label: &str, section: Section) {
    let mut sections = read_sections(path);
    sections.retain(|(l, _)| l != label);
    sections.push((label.to_string(), section));
    sections.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut text = String::from("{\n  \"schema\": \"cheri-serveload/v1\",\n  \"sections\": {");
    for (i, (label, section)) in sections.iter().enumerate() {
        if i != 0 {
            text.push(',');
        }
        text.push_str(&format!("\n  \"{label}\": {}", section.to_json()));
    }
    text.push_str("\n  }\n}\n");
    cli::write_file("serveload", path, &text);
    println!("load report: {}", path.display());
}

fn main() {
    let args = parse_args();
    let (tx, rx) = mpsc::channel::<Outcome>();
    let t0 = Instant::now();
    if args.open_loop {
        run_open(&args, &tx);
    } else {
        run_closed(&args, &tx);
    }
    drop(tx);
    let outcomes: Vec<Outcome> = rx.into_iter().collect();
    let wall_ms = (t0.elapsed().as_millis() as u64).max(1);

    let mut latencies: Vec<u64> = outcomes.iter().filter_map(|o| o.latency_us).collect();
    latencies.sort_unstable();
    let errors: Vec<&String> = outcomes.iter().filter_map(|o| o.error.as_ref()).collect();
    for e in errors.iter().take(3) {
        eprintln!("serveload: request failed: {e}");
    }
    let completed = latencies.len() as u64;
    let section = Section {
        work: args.work.describe(),
        mode: if args.open_loop { "open".into() } else { "closed".into() },
        clients: args.clients as u64,
        requests: args.requests as u64,
        completed,
        errors: errors.len() as u64,
        wall_ms,
        jobs_per_sec_x100: completed.saturating_mul(100_000) / wall_ms,
        p50_us: nearest_rank(&latencies, 50),
        p90_us: nearest_rank(&latencies, 90),
        p99_us: nearest_rank(&latencies, 99),
        max_us: latencies.last().copied().unwrap_or(0),
    };
    println!(
        "== serveload: {} x{} ({} mode) against {} ==",
        section.work, section.clients, section.mode, args.addr
    );
    println!(
        "{completed}/{} completed in {wall_ms} ms ({}.{:02} jobs/s); latency p50 {} us, \
         p90 {} us, p99 {} us, max {} us",
        args.clients * args.requests,
        section.jobs_per_sec_x100 / 100,
        section.jobs_per_sec_x100 % 100,
        section.p50_us,
        section.p90_us,
        section.p99_us,
        section.max_us
    );
    // The server's request-id range for this run: grep these lanes in a
    // `--telem-out` timeline to see each request's phase breakdown.
    let reqs: Vec<u64> = outcomes.iter().map(|o| o.req).filter(|&r| r != 0).collect();
    if let (Some(lo), Some(hi)) = (reqs.iter().min(), reqs.iter().max()) {
        println!("request ids {lo}..{hi} (span lanes in the server's --telem-out timeline)");
    }
    write_results(&args.out, &args.label, section);

    // The transparency half: the last served report's exact bytes.
    let served = outcomes.iter().rev().find_map(|o| o.report.as_ref());
    if let Some(path) = &args.report_out {
        match served {
            Some(report) => {
                cli::write_file("serveload", path, report);
                println!("served report: {}", path.display());
            }
            None => fail("--report-out: no sweep report was received"),
        }
    }
    if let Some(path) = &args.expect {
        let Some(report) = served else { fail("--expect: no sweep report was received") };
        let expected = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
        if *report == expected {
            println!("expect: OK — served report is byte-identical to {}", path.display());
        } else {
            let where_ = first_json_difference(report, &expected)
                .unwrap_or_else(|| "lengths differ".to_string());
            fail(&format!(
                "served report differs from {} ({} vs {} bytes) — {where_} — the service \
                 must be transparent",
                path.display(),
                report.len(),
                expected.len()
            ));
        }
    }
    if !errors.is_empty() {
        fail(&format!("{} request(s) failed", errors.len()));
    }
}
