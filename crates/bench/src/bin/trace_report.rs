//! `trace_report` — runs one Olden workload under any pointer strategy
//! with the cheri-trace subsystem attached, prints the aggregated
//! counter/histogram table, and cross-checks the event stream against
//! the legacy per-struct counters (they must agree exactly).
//!
//! ```text
//! trace_report <bench> [--strategy <name>] [--scaled|--paper]
//!              [--jsonl <path>] [--out <snapshot.json>]
//! trace_report --diff <a.json> <b.json>
//! ```
//!
//! `--jsonl` additionally streams every event as a JSON line;
//! `--out` saves the aggregate snapshot for later comparison with
//! `--diff`, which prints per-counter deltas between two saved runs.

use cheri_bench::cli::Cli;
use cheri_bench::{params_for, parse_bench_name, parse_scale};
use cheri_sweep::{run_spec_with_config, JobSpec, StrategyKind};
use cheri_trace::{marker, names, shared, AggregateSink, AnySink, JsonlSink, Sink, Snapshot};

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

/// Counter families where the aggregated event stream must reproduce
/// the legacy per-struct counters bit-for-bit.
const PARITY: &[&str] = &[
    names::INSTRUCTIONS,
    names::CAP_INSTRUCTIONS,
    names::L1I_HITS,
    names::L1I_MISSES,
    names::L1I_WRITEBACKS,
    names::L1D_HITS,
    names::L1D_MISSES,
    names::L1D_WRITEBACKS,
    names::L2_HITS,
    names::L2_MISSES,
    names::L2_WRITEBACKS,
    names::TLB_REFILLS,
    names::TAG_TABLE_READS,
    names::TAG_TABLE_WRITES,
    names::TAG_CACHE_HITS,
    names::TAG_CACHE_MISSES,
    names::TAG_CACHE_WRITEBACKS,
    names::LOADS,
    names::STORES,
    names::CAP_EXCEPTIONS,
    names::SYSCALLS,
    names::CONTEXT_SWITCHES,
    names::DOMAIN_CALLS,
    names::DOMAIN_RETURNS,
];

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

    // Aggregate always; tee into a JSONL stream when asked.
    let mut sinks = vec![AnySink::Aggregate(AggregateSink::new())];
    if let Some(path) = &jsonl_path {
        let jsonl = JsonlSink::create(std::path::Path::new(path))
            .unwrap_or_else(|e| cli.usage_exit(&format!("cannot create {path}: {e}")));
        sinks.push(AnySink::Jsonl(jsonl));
    }
    let sink = shared(AnySink::Multi(sinks));

    let spec = JobSpec::new(bench, strategy, params);
    let run = run_spec_with_config(&spec, spec.machine_config(), Some(sink.clone()))
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", bench.name(), strategy.name()))
        .run;
    marker(&Some(sink.clone()), "run end");
    sink.borrow_mut().flush();

    let aggregated = match &*sink.borrow() {
        AnySink::Multi(sinks) => match &sinks[0] {
            AnySink::Aggregate(a) => a.snapshot(),
            _ => unreachable!("aggregate is always the first sink"),
        },
        _ => unreachable!("sink is always a Multi"),
    };

    println!("== trace_report: {} [{}] ==", bench.name(), strategy.name());
    println!("exit: {:?}   cycles: {}\n", run.outcome.exit, run.outcome.stats.cycles);
    print!("{}", aggregated.render_table());

    // The acceptance property: the event stream, aggregated, equals the
    // legacy per-struct counters the kernel exported into the outcome.
    let legacy = &run.outcome.metrics;
    let mut mismatches = 0;
    for name in PARITY {
        let (ev, lg) = (aggregated.counter(name), legacy.counter(name));
        if ev != lg {
            eprintln!("PARITY MISMATCH {name}: events={ev} legacy={lg}");
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "event stream disagrees with legacy counters");
    println!("\nparity: all {} shared counters match the legacy statistics", PARITY.len());

    if let Some(path) = &out_path {
        std::fs::write(path, aggregated.to_json())
            .unwrap_or_else(|e| cli.usage_exit(&format!("cannot write {path}: {e}")));
        println!("snapshot written to {path}");
    }
}
