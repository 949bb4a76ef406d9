//! `xsweep` — the parallel experiment-sweep runner and CI regression
//! gate.
//!
//! Expands the full experiment matrix (workload × pointer strategy ×
//! capability width × tag-cache config) into independent jobs, shards
//! them across `--jobs N` worker threads (each job owns its own
//! machine), and writes a deterministic JSON report of every job's
//! architectural counters. The report is bit-identical regardless of
//! thread count.
//!
//! ```text
//! xsweep [--profile smoke|full|paper]   matrix preset (default: full)
//!        [--workloads W1,W2,...]        restrict every mode to the named
//!                                       workloads (comma-separated canonical
//!                                       names); --check gates only their jobs
//!        [--jobs N]                     worker threads (default: host)
//!        [--out PATH]                   report path (default: results/sweep.json)
//!        [--check PATH]                 gate against a baseline; nonzero exit on drift
//!        [--bless [PATH]]               (re)write the golden baseline
//!        [--warm]                       run every job cold (snapshotting at the
//!                                       phase-2 boundary), then again warm-started
//!                                       from the snapshot; assert the two reports
//!                                       are byte-identical and that every job
//!                                       warm-started
//!        [--prof]                       run every job plain and then with the
//!                                       symbolized guest profiler attached; assert
//!                                       the two reports are byte-identical and
//!                                       write per-job profiles (.prof.json,
//!                                       .folded, .timeline.json) to results/prof/
//! ```
//!
//! `--warm` and `--prof` are one A/B harness ([`cheri_sweep::ab()`])
//! with a mode-specific tail. When one of their
//! transparency asserts or the `--check` gate fails, the offending
//! jobs' final machine+kernel snapshots are written as
//! `results/divergence-*.json` for offline triage with `snapreplay`.

use cheri_bench::cli::{self, Cli};
use cheri_bench::parse_workloads_csv;
use cheri_sweep::{
    ab, check_reports, comparisons, dump_divergence, profile_matrix, render_drifts, run_jobs,
    AbJob, JobResult, JobSpec, Mode, Profile, Side, SweepReport,
};
use cheri_work::Workload;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "xsweep [--profile smoke|full|paper] [--workloads W1,W2,...] [--jobs N] \
     [--out PATH] [--check BASELINE] [--bless [PATH]] [--warm] [--prof]";

struct Args {
    profile: Profile,
    workloads: Option<Vec<Workload>>,
    jobs: usize,
    out: PathBuf,
    check: Option<PathBuf>,
    bless: Option<PathBuf>,
    warm: bool,
    prof: bool,
}

/// A runtime failure on a well-formed invocation (unreadable baseline,
/// failed gate, divergence): exit 1, distinct from the scanner's exit 2
/// so scripts can tell "you called me wrong" from "the run found a
/// problem".
fn fail(msg: &str) -> ! {
    cli::fail("xsweep", msg)
}

fn parse_args() -> Args {
    let mut cli = Cli::new("xsweep", USAGE);
    let mut args = Args {
        profile: Profile::Full,
        workloads: None,
        jobs: cheri_sweep::default_threads(),
        out: PathBuf::from("results/sweep.json"),
        check: None,
        bless: None,
        warm: false,
        prof: false,
    };
    let mut blessed = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--profile" => {
                let name = cli.value("--profile");
                args.profile = Profile::parse(&name)
                    .unwrap_or_else(|| cli.usage_exit(&format!("unknown profile '{name}'")));
            }
            "--workloads" => {
                let csv = cli.value("--workloads");
                args.workloads = Some(parse_workloads_csv(&cli, &csv));
            }
            "--jobs" => args.jobs = cli.positive("--jobs"),
            "--out" => args.out = PathBuf::from(cli.value("--out")),
            "--check" => args.check = Some(PathBuf::from(cli.value("--check"))),
            // --bless takes an optional path operand.
            "--bless" => {
                blessed = true;
                args.bless = cli.opt_value().map(PathBuf::from);
            }
            "--warm" => args.warm = true,
            "--prof" => args.prof = true,
            other => cli.unknown(other),
        }
    }
    if blessed && args.bless.is_none() {
        args.bless = Some(PathBuf::from(format!("baselines/sweep-{}.json", args.profile.name())));
    }
    if blessed && args.workloads.is_some() {
        cli.usage_exit("--bless writes the whole matrix; it cannot be combined with --workloads");
    }
    if args.prof && args.warm {
        cli.usage_exit("--warm and --prof are separate A/B modes; pass one at a time");
    }
    args
}

fn write_report(path: &Path, text: &str) {
    cli::write_file("xsweep", path, text);
}

/// Expands the profile's matrix, restricted to the `--workloads`
/// selection when one was given. Every mode (default, `--warm`,
/// `--prof`) draws its specs from here, so the filter means the same
/// thing everywhere.
fn selected_matrix(args: &Args) -> Vec<JobSpec> {
    let specs = profile_matrix(args.profile);
    match &args.workloads {
        None => specs,
        Some(ws) => specs.into_iter().filter(|s| ws.contains(&s.workload)).collect(),
    }
}

/// Prints the mode banner: `== xsweep<mode>: N jobs (P profile) on T
/// threads<sides> ==`.
fn banner(args: &Args, jobs: usize, mode: &str, sides: &str) {
    println!(
        "== xsweep{mode}: {jobs} jobs ({} profile) on {} thread{}{sides} ==\n",
        args.profile.name(),
        args.jobs,
        if args.jobs == 1 { "" } else { "s" }
    );
}

/// Reports one divergence dump (written snapshot or failed re-run).
fn report_dump(dump: &Result<PathBuf, String>) {
    match dump {
        Ok(path) => eprintln!("xsweep: divergence snapshot: {}", path.display()),
        Err(e) => eprintln!("xsweep: {e}"),
    }
}

/// The A/B half every transparency mode shares: runs the selected matrix
/// under sides `a` and `b` ([`cheri_sweep::ab()`]), and on any divergence
/// reports the snapshots written under `results/` and fails with
/// `what` and the first diverging job. Returns each job's two runs.
fn run_ab(args: &Args, mode: &str, sides: &str, a: &Side, b: &Side, what: &str) -> Vec<AbJob> {
    let specs = selected_matrix(args);
    banner(args, specs.len(), mode, sides);
    ab(&specs, args.jobs, a, b, Path::new("results")).unwrap_or_else(|d| {
        d.dumps.iter().for_each(report_dump);
        fail(&format!(
            "{what} on {} job(s) (first diverging job: {}) — triage with snapreplay",
            d.jobs, d.key
        ))
    })
}

/// Side A's sweep report (the report `--warm` and `--prof` write).
fn side_a_report(args: &Args, jobs: &[AbJob]) -> SweepReport {
    let results: Vec<JobResult> =
        jobs.iter().map(|j| j.a.result.clone().expect("A/B runs complete")).collect();
    SweepReport::from_results(args.profile.name(), &results)
}

/// `--warm`: runs every job cold (snapshotting once at the allocation →
/// computation boundary), then warm-started from its snapshot, asserts
/// the two reports are byte-identical in-process, and writes the cold
/// report to `--out`. A job with no snapshot is not re-run (side A's
/// result stands for it, so its agreement proves nothing), and any such
/// job fails the mode. On divergence the first offending job's final
/// cold state lands in `results/`.
fn run_warm(args: &Args) {
    let jobs = run_ab(
        args,
        " --warm",
        ", cold + warm-started",
        &Side { cfg: &JobSpec::machine_config, mode: |_| Some(Mode::Split), dump: Some("") },
        &Side { cfg: &JobSpec::machine_config, mode: |snap| snap.map(Mode::Resume), dump: None },
        "warm-started results diverged from cold",
    );
    let warm = jobs.iter().filter(|j| j.b_ran).count();
    println!("{warm}/{} jobs warm-started", jobs.len());
    if let Some(cold) = jobs.iter().find(|j| !j.b_ran) {
        fail(&format!(
            "{} job(s) did not resume from a snapshot (first: {}), so warm == cold was not \
             tested for them",
            jobs.len() - warm,
            cold.a.result.as_ref().expect("A/B runs complete").spec.key()
        ));
    }
    println!("reports identical: yes (warm-started runs reproduce the cold runs byte-for-byte)");

    write_report(&args.out, &side_a_report(args, &jobs).to_json());
    println!("report: {}", args.out.display());
}

/// `--prof`: runs every job plain and then with a symbolized guest
/// profiler attached, insists the two sweep reports are byte-identical
/// (profiling is observational — any divergence is a profiler bug), and
/// writes each job's profile as `results/prof/<key>.prof.json` plus
/// flamegraph collapsed stacks (`.folded`) and the Perfetto/Chrome
/// trace-event timeline (`.timeline.json`). On divergence the first
/// offending job's final plain-run snapshot lands in `results/` for
/// `snapreplay`.
fn run_prof(args: &Args) {
    let jobs = run_ab(
        args,
        " --prof",
        ", plain vs profiled",
        &Side { cfg: &JobSpec::machine_config, mode: |_| Some(Mode::Plain), dump: Some("-plain") },
        &Side { cfg: &JobSpec::machine_config, mode: |_| Some(Mode::Profiled), dump: None },
        "profiling changed architectural results",
    );
    println!("reports identical: yes (profiling is observationally transparent)\n");

    let dir = Path::new("results/prof");
    println!("{:<28} {:>14} {:>6}  hottest function", "job", "retired", "funcs");
    for job in &jobs {
        let key = job.a.result.as_ref().expect("A/B runs complete").spec.key();
        let profile = job.b.profile.as_ref().expect("profiled runs return a profile");
        let flat = key.replace('/', "-");
        write_report(&dir.join(format!("{flat}.prof.json")), &profile.to_json());
        write_report(&dir.join(format!("{flat}.folded")), &profile.folded_output());
        write_report(&dir.join(format!("{flat}.timeline.json")), &profile.timeline_json());
        let hottest = profile.functions.first().map_or("-", |f| f.name.as_str());
        println!(
            "{key:<28} {:>14} {:>6}  {hottest}",
            profile.total.retired,
            profile.functions.len()
        );
    }
    println!("\nper-job profiles: {}", dir.display());

    write_report(&args.out, &side_a_report(args, &jobs).to_json());
    println!("report: {}", args.out.display());
}

fn main() {
    let args = parse_args();
    if args.warm {
        return run_warm(&args);
    }
    if args.prof {
        return run_prof(&args);
    }
    let specs = selected_matrix(&args);
    banner(&args, specs.len(), "", "");
    let t0 = Instant::now();
    let report = SweepReport::from_results(args.profile.name(), &run_jobs(&specs, args.jobs, None));
    let wall = t0.elapsed();

    println!("{:<28} {:>14} {:>14} {:>9} {:>9}", "job", "instructions", "cycles", "l1d%", "tag%");
    for job in &report.jobs {
        let bp = |name: &str| job.counters.get(name).copied().unwrap_or(0) as f64 / 100.0;
        println!(
            "{:<28} {:>14} {:>14} {:>8.2}% {:>8.2}%",
            job.key,
            job.counters.get("sim.instructions").copied().unwrap_or(0),
            job.counters.get("cycles.total").copied().unwrap_or(0),
            bp("cache.l1d.hit_rate_bp"),
            bp("tag.cache.hit_rate_bp"),
        );
    }
    let total_instr: u64 =
        report.jobs.iter().filter_map(|j| j.counters.get("sim.instructions")).sum();
    println!(
        "\n{} jobs, {total_instr} guest instructions in {:.2}s wall ({:.1} M instr/s aggregate)",
        report.jobs.len(),
        wall.as_secs_f64(),
        total_instr as f64 / wall.as_secs_f64() / 1e6,
    );

    let text = report.to_json();
    write_report(&args.out, &text);
    println!("report: {}", args.out.display());

    if let Some(path) = &args.bless {
        write_report(path, &text);
        println!("blessed baseline: {}", path.display());
    }

    if let Some(path) = &args.check {
        let baseline_text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read baseline {}: {e}", path.display())));
        let mut baseline = SweepReport::from_json(&baseline_text)
            .unwrap_or_else(|e| fail(&format!("bad baseline {}: {e}", path.display())));
        // Under a --workloads selection, gate only the selected
        // workloads' jobs: the deselected baseline entries are absent
        // by request, not structural drift.
        if let Some(ws) = &args.workloads {
            baseline
                .jobs
                .retain(|j| ws.iter().any(|w| j.key.starts_with(&format!("{}/", w.name()))));
        }
        let drifts = check_reports(&baseline, &report);
        if drifts.is_empty() {
            println!(
                "check: OK — {} comparisons against {} within tolerance",
                comparisons(&baseline),
                path.display()
            );
        } else {
            println!(
                "check: FAILED — {} drift{} vs {}\n",
                drifts.len(),
                if drifts.len() == 1 { "" } else { "s" },
                path.display()
            );
            print!("{}", render_drifts(&drifts));
            // Snapshot the final state of the first few drifting jobs
            // so the failure is triageable offline.
            let drifting = specs.iter().filter(|s| drifts.iter().any(|d| d.job == s.key()));
            for spec in drifting.take(3) {
                report_dump(&dump_divergence(
                    Path::new("results"),
                    spec,
                    spec.machine_config(),
                    "",
                ));
            }
            println!(
                "\n(intentional? re-bless with: xsweep --profile {} --bless)",
                args.profile.name()
            );
            std::process::exit(1);
        }
    }
}
