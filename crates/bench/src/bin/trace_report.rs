//! `trace_report` — runs one Olden workload under any pointer strategy
//! and prints its counters: every machine, cache, tag and OS counter,
//! read from the simulator's own statistics (`RunOutcome::metrics`).
//!
//! ```text
//! trace_report <bench> [--strategy <name>] [--scaled|--paper]
//!              [--out <snapshot.json>]
//! trace_report --diff <a.json> <b.json>
//! ```
//!
//! `--out` saves the counter snapshot for later comparison with
//! `--diff`, which prints per-counter deltas between two saved runs.
//! A file that cannot be read, parsed or written is a runtime failure:
//! exit 1, without the usage text.

use cheri_bench::cli::{self, Cli};
use cheri_sweep::{run_spec_with_config, JobSpec, Profile, StrategyKind};
use cheri_trace::Snapshot;
use cheri_work::Workload;

const USAGE: &str = "trace_report <workload> [--strategy <name>]\n\
     \u{20}                   [--scaled|--paper] [--out <path>]\n\
     \u{20}      trace_report --diff <a.json> <b.json>\n\
     strategies: mips, ccured, ccured-elide, cheri (aka cap), cheri128";

fn load_snapshot(cli: &Cli, path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli.fail(&format!("cannot read {path}: {e}")));
    Snapshot::from_json(&text).unwrap_or_else(|e| cli.fail(&format!("{path}: not a snapshot: {e}")))
}

fn main() {
    let mut cli = Cli::new("trace_report", USAGE);
    let mut strategy_name = String::from("cheri");
    let mut profile = Profile::Full;
    let mut out_path = None;
    let mut diff_mode = false;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--strategy" => strategy_name = cli.value("--strategy"),
            "--out" => out_path = Some(cli.value("--out")),
            "--diff" => diff_mode = true,
            "--scaled" => profile = Profile::Smoke,
            "--paper" => profile = Profile::Paper,
            flag if flag.starts_with("--") => cli.unknown(flag),
            operand => positional.push(operand.to_string()),
        }
    }

    if diff_mode {
        if positional.len() != 2 {
            cli.usage_exit("--diff requires exactly two snapshot paths");
        }
        let (a, b) = (load_snapshot(&cli, &positional[0]), load_snapshot(&cli, &positional[1]));
        let diff = a.diff(&b);
        println!("== snapshot diff: {} vs {} ==\n", positional[0], positional[1]);
        print!("{diff}");
        let changed = diff.changed().count();
        println!("\n{changed} counter(s) changed, {} total", diff.entries().len());
        return;
    }

    let Some(bench) = positional.first().and_then(|n| Workload::parse(n)) else {
        cli.usage_exit("a benchmark name is required");
    };
    let Some(strategy) = StrategyKind::parse(&strategy_name) else {
        cli.usage_exit(&format!("unknown strategy {strategy_name:?}"));
    };
    let spec = JobSpec::new(bench, strategy, profile.params());
    let run = run_spec_with_config(&spec, spec.machine_config(), None)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", bench.name(), strategy.name()))
        .run;

    let metrics = &run.outcome.metrics;
    println!("== trace_report: {} [{}] ==", bench.name(), strategy.name());
    println!("exit: {:?}   cycles: {}\n", run.outcome.exit, run.outcome.stats.cycles);
    print!("{}", metrics.render_table());

    if let Some(path) = &out_path {
        cli::write_file(cli.tool(), path.as_ref(), &metrics.to_json());
        println!("snapshot written to {path}");
    }
}
