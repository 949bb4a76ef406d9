//! Capability-width ablation, in execution (not just the Figure 3 trace
//! models): Section 8 concludes "these results reconfirm that CHERI will
//! benefit from capability compression". This harness runs the Olden
//! benchmarks under the 256-bit research format and the compressed
//! 128-bit production format (16-byte in-memory capabilities, 16-byte
//! tag granule) and reports how much of the CHERI overhead compression
//! recovers.
//!
//! The strategy triple is the canonical [`CAPWIDTH_STRATEGIES`] from
//! `cheri-sweep`, executed on the parallel sweep engine (`--jobs N`).

use cheri_bench::{overhead_pct, params_for, parse_jobs, parse_scale};
use cheri_sweep::{run_jobs, JobSpec, CAPWIDTH_STRATEGIES};
use cheri_work::Workload;

fn main() {
    let params = params_for(parse_scale());
    let specs: Vec<JobSpec> = Workload::ALL
        .into_iter()
        .flat_map(|bench| {
            CAPWIDTH_STRATEGIES.into_iter().map(move |s| JobSpec::new(bench, s, params))
        })
        .collect();
    let results = run_jobs(&specs, parse_jobs(), None);

    println!("== Capability width ablation: 256-bit vs 128-bit CHERI (execution) ==\n");
    println!("{:<11}{:>14}{:>14}{:>14}", "benchmark", "cheri-256", "cheri-128", "recovered");
    for (bench, group) in Workload::ALL.iter().zip(results.chunks(CAPWIDTH_STRATEGIES.len())) {
        for r in group {
            assert!(
                r.run.outcome.exit_value().is_some(),
                "{} [{}] exited {:?}",
                bench.name(),
                r.spec.strategy.name(),
                r.run.outcome.exit
            );
        }
        let totals: Vec<u64> = group.iter().map(|r| r.run.total_cycles()).collect();
        assert_eq!(
            group[1].run.checksums(),
            group[2].run.checksums(),
            "{}: formats disagree",
            bench.name()
        );
        let c256 = overhead_pct(totals[1], totals[0]);
        let c128 = overhead_pct(totals[2], totals[0]);
        println!("{:<11}{:>13.1}%{:>13.1}%{:>13.1}pp", bench.name(), c256, c128, c256 - c128);
    }
    println!("\n(overhead vs unsafe MIPS; 'recovered' is what compression buys —");
    println!(" the paper's 'CHERI will benefit from capability compression')");
}
