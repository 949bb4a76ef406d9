//! `cheri-serve` — the persistent sweep simulation service.
//!
//! Boots the TCP server from `cheri-serve` (the crate), keeps a pool of
//! pre-booted phase-2 snapshots that workers clone-and-resume for warm
//! execution, and serves line-delimited JSON requests (`sweep`, `job`,
//! `metrics`, `health`, `ping`, `shutdown` — see DESIGN.md §4f for the
//! protocol). SIGINT and SIGTERM drain: in-flight jobs finish, queued
//! jobs bail, the process exits 0 with nothing partial on disk.
//!
//! ```text
//! cheri-serve [--addr HOST:PORT]      bind address (default 127.0.0.1:0,
//!                                     an ephemeral port; the bound address
//!                                     is printed as "listening on ...")
//!             [--workers N]           worker threads (default: host)
//!             [--prewarm PROFILE]     pre-boot the snapshot pool for a
//!                                     profile (smoke|full|paper) in the
//!                                     background while serving; `health`
//!                                     answers ready:false until done
//!             [--results DIR]         persist every completed served sweep
//!                                     report under DIR (atomic write+rename)
//!             [--telem-out FILE]      on drain, flush the request-span
//!                                     timeline (Chrome trace JSON + final
//!                                     metric snapshot) to FILE atomically
//!             [--queue-limit N]       queue depth at which `health` reports
//!                                     not ready (default 256)
//!             [--selfcheck PROFILE]   no server: run the in-process
//!                                     transparency gate (served report must
//!                                     be byte-identical to the cold batch
//!                                     report) and exit 0/1
//! ```

use cheri_bench::cli::{self, Cli};
use cheri_serve::{
    signal, telem, transparency_gate, JobEngine, Server, ServerConfig, Stop, WorkerPool,
};
use cheri_sweep::Profile;
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "cheri-serve [--addr HOST:PORT] [--workers N] [--prewarm smoke|full|paper] \
     [--results DIR] [--telem-out FILE] [--queue-limit N] [--selfcheck smoke|full|paper]";

struct Args {
    addr: String,
    workers: usize,
    prewarm: Option<Profile>,
    results: Option<PathBuf>,
    telem_out: Option<PathBuf>,
    queue_limit: u64,
    selfcheck: Option<Profile>,
}

fn fail(msg: &str) -> ! {
    cli::fail("cheri-serve", msg)
}

fn parse_args() -> Args {
    let mut cli = Cli::new("cheri-serve", USAGE);
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        workers: cheri_sweep::default_threads(),
        prewarm: None,
        results: None,
        telem_out: None,
        queue_limit: 256,
        selfcheck: None,
    };
    let profile = |cli: &mut Cli, flag: &str| -> Profile {
        let name = cli.value(flag);
        Profile::parse(&name)
            .unwrap_or_else(|| cli.usage_exit(&format!("unknown profile '{name}'")))
    };
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--addr" => args.addr = cli.value("--addr"),
            "--workers" => args.workers = cli.positive("--workers"),
            "--prewarm" => args.prewarm = Some(profile(&mut cli, "--prewarm")),
            "--results" => args.results = Some(PathBuf::from(cli.value("--results"))),
            "--telem-out" => args.telem_out = Some(PathBuf::from(cli.value("--telem-out"))),
            "--queue-limit" => args.queue_limit = cli.positive("--queue-limit") as u64,
            "--selfcheck" => args.selfcheck = Some(profile(&mut cli, "--selfcheck")),
            other => cli.unknown(other),
        }
    }
    args
}

/// `--selfcheck`: no socket — build the engine, serve the profile
/// through it in-process, and gate byte-identity against the cold batch
/// path. Exit 0 on identity, 1 on divergence.
fn selfcheck(args: &Args, profile: Profile) -> ! {
    let engine = Arc::new(JobEngine::default());
    let workers = WorkerPool::new(args.workers);
    let stop = Stop::new(false);
    let prewarmed = engine.prewarm(profile, &workers, &stop);
    println!(
        "cheri-serve: selfcheck {}: {prewarmed} snapshot(s) prewarmed, serving...",
        profile.name()
    );
    match transparency_gate(&engine, &workers, profile) {
        Ok(report) => {
            let counts = engine.telem().registry().snapshot();
            println!(
                "selfcheck OK: served report ({} jobs; {} cached, {} warm, {} cold) is \
                 byte-identical to the cold batch report",
                report.jobs.len(),
                counts.counter(telem::JOBS_CACHED),
                counts.counter(telem::JOBS_WARM),
                counts.counter(telem::JOBS_COLD)
            );
            workers.shutdown();
            std::process::exit(0);
        }
        Err(e) => fail(&e),
    }
}

fn main() {
    let args = parse_args();
    if let Some(profile) = args.selfcheck {
        selfcheck(&args, profile);
    }
    signal::install();
    let cfg = ServerConfig {
        workers: args.workers,
        results_dir: args.results.clone(),
        watch_signals: true,
        telem_out: args.telem_out.clone(),
        queue_limit: args.queue_limit,
    };
    let server =
        Server::bind(&args.addr, cfg).unwrap_or_else(|e| fail(&format!("bind {}: {e}", args.addr)));
    let addr = server.local_addr().unwrap_or_else(|e| fail(&format!("local_addr: {e}")));
    // CI and scripts scrape this exact line for the ephemeral port.
    println!("cheri-serve: listening on {addr}");
    println!("cheri-serve: {} worker(s)", args.workers);
    if let Some(profile) = args.prewarm {
        server.prewarm_background(profile);
        println!(
            "cheri-serve: prewarming the {} profile in the background (health reports ready \
             once done)",
            profile.name()
        );
    }
    match server.serve() {
        Ok(()) => {
            if let Some(path) = &args.telem_out {
                println!("cheri-serve: telemetry flushed to {}", path.display());
            }
            println!("cheri-serve: drained, exiting");
        }
        Err(e) => fail(&format!("serve: {e}")),
    }
}
