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
//! ```

use cheri_bench::cli::{self, Cli};
use cheri_serve::{signal, Server, ServerConfig};
use cheri_sweep::Profile;
use std::path::PathBuf;

const USAGE: &str = "cheri-serve [--addr HOST:PORT] [--workers N] [--prewarm smoke|full|paper] \
     [--results DIR] [--telem-out FILE]";

struct Args {
    addr: String,
    workers: usize,
    prewarm: Option<Profile>,
    results: Option<PathBuf>,
    telem_out: Option<PathBuf>,
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
    };
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--addr" => args.addr = cli.value("--addr"),
            "--workers" => args.workers = cli.positive("--workers"),
            "--prewarm" => {
                let name = cli.value("--prewarm");
                args.prewarm = Some(
                    Profile::parse(&name)
                        .unwrap_or_else(|| cli.usage_exit(&format!("unknown profile '{name}'"))),
                );
            }
            "--results" => args.results = Some(PathBuf::from(cli.value("--results"))),
            "--telem-out" => args.telem_out = Some(PathBuf::from(cli.value("--telem-out"))),
            other => cli.unknown(other),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    signal::install();
    let cfg = ServerConfig {
        workers: args.workers,
        results_dir: args.results.clone(),
        watch_signals: true,
        telem_out: args.telem_out.clone(),
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
