//! `cheribench` — runs the benchmark's workloads and prints one result
//! line per workload (see README.md).
//!
//! ```text
//! cheribench [--workload NAME[,NAME...]]   workloads to run (default: all four)
//!            [--seed N]                    seeds the served request streams (default 1)
//!            [--seconds N]                 time measured per workload (default 20)
//!            [--trace 0|1]                 1: per-layer metrics instead of end-to-end
//!            [--out FILE]                  append the results as one set to a
//!                                          trajectory file (a JSON array)
//! ```
//!
//! Batch workloads run in a worker process (this binary with
//! `--batch-worker NAME`), served ones against a `cheri-serve
//! --workers 1` process found next to this binary; either way the
//! process doing the work is spawned `SETUPS` times and `setup_s` is the
//! median time from spawn to ready. Run from the repository root: the
//! expected records are read from `baselines/`.

use cheri_bench::cli::{self, Cli};
use cheri_benchmark::metrics::{median, peak_rss_mb, table, Outcome};
use cheri_benchmark::served;
use cheri_benchmark::{batch, Expected, Workload, SETUPS};
use cheri_serve::Client;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const TOOL: &str = "cheribench";
const USAGE: &str = "cheribench [--workload NAME[,NAME...]] [--seed N] [--seconds N] \
     [--trace 0|1] [--out FILE]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    /// Set in a batch worker process: the workload it runs.
    worker: Option<Workload>,
    /// A batch worker that exits once ready (a set-up sample).
    setup_only: bool,
}

fn parse_args() -> Args {
    let mut cli = Cli::new(TOOL, USAGE);
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20,
        trace: false,
        out: None,
        worker: None,
        setup_only: false,
    };
    let workload = |cli: &Cli, name: &str| {
        Workload::parse(name)
            .unwrap_or_else(|| cli.usage_exit(&format!("unknown workload '{name}'")))
    };
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--workload" => {
                let list = cli.value("--workload");
                args.workloads = list.split(',').map(|name| workload(&cli, name)).collect();
            }
            "--seed" => args.seed = cli.parsed("--seed", "an unsigned integer"),
            "--seconds" => args.seconds = cli.positive("--seconds") as u64,
            "--trace" => {
                args.trace = match cli.value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    other => cli.usage_exit(&format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(cli.value("--out"))),
            "--batch-worker" => {
                let name = cli.value("--batch-worker");
                args.worker = Some(workload(&cli, &name));
            }
            "--setup-only" => args.setup_only = true,
            other => cli.unknown(other),
        }
    }
    args
}

/// A child process with its stdout piped, killed and reaped however the
/// run ends.
struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Proc {
    fn spawn(cmd: &mut Command) -> Result<Proc, String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Proc { child, stdout })
    }

    /// The next line of output, without its newline.
    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err(format!("process {} ended its output early", self.child.id())),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading process {}: {e}", self.child.id())),
        }
    }

    /// The rest of the output, once the process has exited successfully.
    fn finish(mut self) -> Result<Vec<String>, String> {
        let lines: Vec<String> =
            (&mut self.stdout).lines().collect::<Result<_, _>>().map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(lines)
        } else {
            Err(format!("process {} exited with {status}", self.child.id()))
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn trace_arg(trace: bool) -> &'static str {
    if trace {
        "1"
    } else {
        "0"
    }
}

/// A batch workload: `SETUPS - 1` worker processes that exit once ready,
/// then one that runs.
fn measure_batch(w: Workload, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut setups = Vec::new();
    let mut worker = |setup_only: bool| -> Result<Proc, String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--batch-worker", w.name(), "--trace", trace_arg(args.trace)]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        if setup_only {
            cmd.arg("--setup-only");
        }
        let t0 = Instant::now();
        let mut proc = Proc::spawn(&mut cmd)?;
        let line = proc.line()?;
        if line != "ready" {
            return Err(format!("worker said `{line}`, not `ready`"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        Ok(proc)
    };
    for _ in 1..SETUPS {
        worker(true)?.finish()?;
    }
    let lines = worker(false)?.finish()?;
    let mut out = Outcome::from_lines(lines.iter().map(String::as_str))?;
    if !args.trace {
        out.values.insert("setup_s", median(setups));
    }
    Ok(out)
}

/// The batch worker process: loads the expected records, warms up,
/// reports ready, runs, and reports its outcome on stdout.
fn batch_worker(w: Workload, args: &Args) -> Result<(), String> {
    let expected = Expected::for_workload(Path::new("."), w)?;
    batch::warm_up(&expected)?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready").and_then(|()| stdout.flush()).map_err(|e| e.to_string())?;
    if args.setup_only {
        return Ok(());
    }
    let mut out = batch::run(&expected, Duration::from_secs(args.seconds), args.trace);
    if !args.trace {
        out.values.insert("peak_rss_mb", peak_rss_mb("self")?);
    }
    write!(stdout, "{}", out.to_lines()).and_then(|()| stdout.flush()).map_err(|e| e.to_string())
}

/// A served server and its connected client, once primed.
struct Primed {
    server: Proc,
    client: Client,
    /// Priming requests attempted and failed.
    ops: (u64, u64),
    /// Traced runs: the server's metrics before priming.
    unprimed: Option<cheri_telem::Exposition>,
}

/// A served workload: `SETUPS - 1` servers set up and killed, then one
/// that is measured. Set-up ends when the client is connected and
/// answered and every pool job has been requested once.
fn measure_served(w: Workload, args: &Args) -> Result<Outcome, String> {
    let expected = Expected::for_workload(Path::new("."), w)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let serve_bin = exe.with_file_name("cheri-serve");
    let cached = w == Workload::ServeCached;
    let mut setups = Vec::new();
    let mut set_up = || -> Result<Primed, String> {
        let t0 = Instant::now();
        let mut server = Proc::spawn(Command::new(&serve_bin).args(["--workers", "1"]))?;
        let addr = loop {
            if let Some(addr) = server.line()?.strip_prefix("cheri-serve: listening on ") {
                break addr.to_string();
            }
        };
        let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        if !client.health()?.ready {
            return Err("server reports not ready".into());
        }
        let unprimed = if args.trace { Some(served::scrape(&mut client)?) } else { None };
        let ops = served::prime(&mut client, &expected, cached);
        setups.push(t0.elapsed().as_secs_f64());
        Ok(Primed { server, client, ops, unprimed })
    };
    for _ in 1..SETUPS {
        set_up()?;
    }
    let mut primed = set_up()?;
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let mut out = served::run(
        &mut primed.client,
        &expected,
        cached,
        args.seed,
        until,
        w.request_limit(),
        primed.unprimed.as_ref(),
    )?;
    out.absorb_ops(primed.ops.0, primed.ops.1);
    if !args.trace {
        out.values.insert("setup_s", median(setups));
        out.values.insert("peak_rss_mb", peak_rss_mb(&primed.server.child.id().to_string())?);
    }
    Ok(out)
}

/// Appends one set of results to the trajectory file at `path`: a JSON
/// array with one set per line.
fn append_set(path: &Path, args: &Args, results: &[(Workload, String)]) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let body: Vec<String> =
        results.iter().map(|(w, json)| format!("\"{}\": {json}", w.name())).collect();
    let set = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"workloads\": {{{}}}}}",
        args.seed,
        args.seconds,
        trace_arg(args.trace),
        body.join(", ")
    );
    let text = match std::fs::read_to_string(path) {
        Ok(old) => match old.strip_suffix("\n]\n") {
            Some(head) => format!("{head},\n{set}\n]\n"),
            None => cli::fail(TOOL, &format!("{} is not a trajectory file", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("[\n{set}\n]\n"),
        Err(e) => cli::fail(TOOL, &format!("cannot read {}: {e}", path.display())),
    };
    cli::write_file(TOOL, path, &text);
}

fn main() {
    let args = parse_args();
    if let Some(w) = args.worker {
        if let Err(e) = batch_worker(w, &args) {
            cli::fail(TOOL, &format!("{} worker: {e}", w.name()));
        }
        return;
    }
    let mut results = Vec::new();
    let mut correct = true;
    for &w in &args.workloads {
        let t0 = Instant::now();
        let outcome =
            if w.is_served() { measure_served(w, &args) } else { measure_batch(w, &args) };
        let json = outcome
            .and_then(|o| {
                correct &= o.correct;
                o.to_json(table(args.trace))
            })
            .unwrap_or_else(|e| cli::fail(TOOL, &format!("{}: {e}", w.name())));
        eprintln!("{TOOL}: {} measured in {:.1} s", w.name(), t0.elapsed().as_secs_f64());
        println!("{json}");
        results.push((w, json));
    }
    if let Some(path) = &args.out {
        append_set(path, &args, &results);
    }
    if !correct {
        std::process::exit(1);
    }
}
