//! `trace_report` — runs one Olden workload under any pointer strategy
//! and prints its counters: every machine, cache, tag and OS counter,
//! read from the simulator's own statistics (`RunOutcome::metrics`).
//!
//! ```text
//! trace_report <bench> [--strategy <name>] [--scaled|--paper]
//!              [--jsonl <path>] [--out <snapshot.json>]
//! trace_report --diff <a.json> <b.json>
//! ```
//!
//! `--jsonl` streams every architectural event as a JSON line (the one
//! case that attaches a trace sink; `cheri-bench`'s `trace_transparency`
//! test checks such a stream against the counters); `--out` saves the
//! counter snapshot for later comparison with `--diff`, which prints
//! per-counter deltas between two saved runs.

use cheri_bench::cli::Cli;
use cheri_bench::{params_for, parse_bench_name, parse_scale};
use cheri_sweep::{run_spec_with_config, JobSpec, StrategyKind};
use cheri_trace::{marker, shared, AnySink, JsonlSink, Sink, Snapshot};

const USAGE: &str = "trace_report <workload> [--strategy <name>]\n\
     \u{20}                   [--scaled|--paper] [--jsonl <path>] [--out <path>]\n\
     \u{20}      trace_report --diff <a.json> <b.json>\n\
     strategies: mips, ccured, ccured-elide, cheri (aka cap), cheri128";

fn load_snapshot(cli: &Cli, path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli.usage_exit(&format!("cannot read {path}: {e}")));
    Snapshot::from_json(&text)
        .unwrap_or_else(|e| cli.usage_exit(&format!("{path}: not a snapshot: {e}")))
}

fn main() {
    let mut cli = Cli::new("trace_report", USAGE);
    let mut strategy_name = String::from("cheri");
    let mut jsonl_path = None;
    let mut out_path = None;
    let mut diff_mode = false;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--strategy" => strategy_name = cli.value("--strategy"),
            "--jsonl" => jsonl_path = Some(cli.value("--jsonl")),
            "--out" => out_path = Some(cli.value("--out")),
            "--diff" => diff_mode = true,
            // The scale flags are read by parse_scale (shared across
            // the harnesses); accept them here so they aren't unknown.
            "--scaled" | "--paper" => {}
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

    let Some(bench) = positional.first().and_then(|n| parse_bench_name(n)) else {
        cli.usage_exit("a benchmark name is required");
    };
    let Some(strategy) = StrategyKind::parse(&strategy_name) else {
        cli.usage_exit(&format!("unknown strategy {strategy_name:?}"));
    };
    let params = params_for(parse_scale());

    let sink = jsonl_path.map(|path| {
        let jsonl = JsonlSink::create(std::path::Path::new(&path))
            .unwrap_or_else(|e| cli.usage_exit(&format!("cannot create {path}: {e}")));
        shared(AnySink::Jsonl(jsonl))
    });

    let spec = JobSpec::new(bench, strategy, params);
    let run = run_spec_with_config(&spec, spec.machine_config(), sink.clone())
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", bench.name(), strategy.name()))
        .run;
    if let Some(handle) = &sink {
        marker(&sink, "run end");
        handle.borrow_mut().flush();
    }

    let metrics = &run.outcome.metrics;
    println!("== trace_report: {} [{}] ==", bench.name(), strategy.name());
    println!("exit: {:?}   cycles: {}\n", run.outcome.exit, run.outcome.stats.cycles);
    print!("{}", metrics.render_table());

    if let Some(path) = &out_path {
        std::fs::write(path, metrics.to_json())
            .unwrap_or_else(|e| cli.usage_exit(&format!("cannot write {path}: {e}")));
        println!("snapshot written to {path}");
    }
}
