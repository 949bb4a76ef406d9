//! # cheri-bench — experiment harnesses
//!
//! One binary per exhibit of the ISCA 2014 paper:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_isa` | Table 1 — executes every CHERI instruction |
//! | `table2_matrix` | Table 2 — the functional comparison matrix |
//! | `fig1_layout` | Figure 1 — the 256-bit capability layout |
//! | `fig2_pipeline` | Figure 2 — the pipeline/coprocessor structure |
//! | `fig3_limit_study` | Figure 3 — the 8-model limit study |
//! | `fig4_overheads` | Figure 4 — FPGA execution-time overheads |
//! | `fig5_heapsize` | Figure 5 — CHERI slowdown vs heap size |
//! | `fig6_area` | Figure 6 + §9 — area and frequency |
//! | `ablation_tag_cache` | §4.2 tag-cache size ablation |
//! | `ablation_elision` | §8 check-elision ablation |
//!
//! All accept `--scaled` (CI-sized), default to medium sizes, and accept
//! `--paper` for the paper's full parameters (minutes of host time).
//!
//! This library holds the small amount of shared harness plumbing,
//! including the common command-line scanner ([`cli::Cli`]).

pub mod cli;
pub mod latency;
pub mod specfuzz;
pub mod triage;

use cheri_olden::OldenParams;
use cheri_trace::{shared, AnySink, JsonlSink, SharedSink};
use cheri_work::Workload;

/// Which problem-size preset a harness should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized (`--scaled`).
    Scaled,
    /// The default: memory-hierarchy-dominated but quick.
    Medium,
    /// The paper's parameters (`--paper`).
    Paper,
}

/// Parses the common `--scaled` / `--paper` flags.
#[must_use]
pub fn parse_scale() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else if args.iter().any(|a| a == "--scaled") {
        Scale::Scaled
    } else {
        Scale::Medium
    }
}

/// The parameter preset for a scale.
#[must_use]
pub fn params_for(scale: Scale) -> OldenParams {
    match scale {
        Scale::Scaled => OldenParams::scaled(),
        Scale::Medium => OldenParams::medium(),
        Scale::Paper => OldenParams::paper(),
    }
}

/// Resolves a workload by its canonical name (`bisort`, `mst`,
/// `treeadd`, `perimeter`, `vmloop`, `allocstress`).
#[must_use]
pub fn parse_bench_name(name: &str) -> Option<Workload> {
    Workload::parse(name)
}

/// Parses a `--workloads` CSV operand into workloads: canonical names,
/// comma-separated, order preserved, duplicates collapsed. Unknown
/// names and an empty list are command-line misuse (exit 2 via the
/// scanner).
pub fn parse_workloads_csv(cli: &cli::Cli, csv: &str) -> Vec<Workload> {
    let mut ws: Vec<Workload> = Vec::new();
    for name in csv.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let w = Workload::parse(name).unwrap_or_else(|| {
            cli.usage_exit(&format!(
                "unknown workload '{name}' (known: {})",
                Workload::ALL.map(Workload::name).join(", ")
            ))
        });
        if !ws.contains(&w) {
            ws.push(w);
        }
    }
    if ws.is_empty() {
        cli.usage_exit("--workloads requires a comma-separated list of workload names");
    }
    ws
}

/// Parses the `--jobs N` flag shared by the matrix harnesses; defaults
/// to the host's available parallelism.
///
/// # Panics
///
/// Exits with a message if the argument is missing or not a positive
/// integer.
#[must_use]
pub fn parse_jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--jobs") {
        None => cheri_sweep::default_threads(),
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("--jobs requires a positive integer");
                std::process::exit(2);
            }
        },
    }
}

/// Parses the `--trace-out <path>` flag shared by the figure harnesses:
/// when present, returns a JSONL sink streaming to that path which the
/// harness threads through every run (with one marker line per run).
///
/// # Panics
///
/// Exits with a message if the path cannot be created.
#[must_use]
pub fn parse_trace_out() -> Option<SharedSink> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--trace-out")?;
    let path = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("--trace-out requires a path argument");
        std::process::exit(2);
    });
    let jsonl = JsonlSink::create(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot create trace file {path}: {e}");
        std::process::exit(2);
    });
    Some(shared(AnySink::Jsonl(jsonl)))
}

/// Percentage overhead of `x` over `base`.
#[must_use]
pub fn overhead_pct(x: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (x as f64 - base as f64) / base as f64 * 100.0
    }
}

/// A crude text bar for terminal "figures".
#[must_use]
pub fn bar(pct: f64, scale: f64) -> String {
    let n = (pct / scale).clamp(0.0, 60.0) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pct_basics() {
        assert_eq!(overhead_pct(150, 100), 50.0);
        assert_eq!(overhead_pct(100, 100), 0.0);
        assert_eq!(overhead_pct(5, 0), 0.0);
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(-5.0, 1.0), "");
        assert_eq!(bar(10.0, 1.0).len(), 10);
        assert_eq!(bar(1e9, 1.0).len(), 60);
    }
}
