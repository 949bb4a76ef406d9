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
//! | `ablation_capwidth` | §8 256- vs 128-bit capability ablation |
//! | `ablation_elision` | §8 check-elision ablation |
//!
//! The matrix exhibits read their flags through [`Exhibit::from_args`]:
//! `--scaled` (the smoke profile's sizes) or `--paper` (the paper's full
//! parameters, minutes of host time) where the exhibit has sizes,
//! otherwise the full profile's medium sizes; and `--jobs N`. Any other
//! argument exits 2.
//!
//! This library holds the small amount of shared harness plumbing,
//! including the common command-line scanner ([`cli::Cli`]).

pub mod cli;
pub mod latency;
pub mod specfuzz;

use cheri_sweep::Profile;
use cheri_work::Workload;

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

/// The flags of a matrix exhibit.
pub struct Exhibit {
    /// The problem sizes, as [`Profile::params`]: `--scaled` gives
    /// [`Profile::Smoke`], `--paper` [`Profile::Paper`], neither
    /// [`Profile::Full`].
    pub profile: Profile,
    /// `--jobs N`; the host's available parallelism without it.
    pub jobs: usize,
}

impl Exhibit {
    /// Reads the process arguments through [`cli::Cli`]. `usage` is both
    /// the synopsis printed on misuse and the list of flags the exhibit
    /// takes, out of `--scaled`, `--paper` and `--jobs N`. Any other
    /// argument, or a missing or non-positive `--jobs` operand, exits 2.
    #[must_use]
    pub fn from_args(tool: &'static str, usage: &'static str) -> Exhibit {
        let offered = |flag: &str| {
            usage.split(|c: char| c.is_whitespace() || "[]|".contains(c)).any(|t| t == flag)
        };
        let mut cli = cli::Cli::new(tool, usage);
        let mut ex = Exhibit { profile: Profile::Full, jobs: cheri_sweep::default_threads() };
        while let Some(arg) = cli.next_arg() {
            match arg.as_str() {
                "--scaled" if offered("--scaled") => ex.profile = Profile::Smoke,
                "--paper" if offered("--paper") => ex.profile = Profile::Paper,
                "--jobs" if offered("--jobs") => ex.jobs = cli.positive("--jobs"),
                _ => cli.unknown(&arg),
            }
        }
        ex
    }
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
