//! Check-elision ablation (Section 8): "CCured is effective in eliding
//! inner-loop bounds checks ... Similar elision could also be applied to
//! CHERI to selectively utilize capabilities." This harness compares the
//! checked and eliding software-fat-pointer binaries on all four
//! benchmarks.
//!
//! The strategy triple is the canonical [`ELISION_STRATEGIES`] from
//! `cheri-sweep`, executed on the parallel sweep engine (`--jobs N`).

use cheri_bench::{overhead_pct, Exhibit};
use cheri_sweep::{run_jobs, JobSpec, ELISION_STRATEGIES};
use cheri_work::Workload;

fn main() {
    let Exhibit { profile, jobs } =
        Exhibit::from_args("ablation_elision", "ablation_elision [--scaled|--paper] [--jobs N]");
    let params = profile.params();
    let specs: Vec<JobSpec> = Workload::ALL
        .into_iter()
        .flat_map(|bench| {
            ELISION_STRATEGIES.into_iter().map(move |s| JobSpec::new(bench, s, params))
        })
        .collect();
    let results = run_jobs(&specs, jobs);

    println!("== Software bounds-check elision ablation ==\n");
    println!("{:<11}{:>14}{:>14}{:>14}", "benchmark", "checked", "eliding", "saved");
    for (bench, group) in Workload::ALL.iter().zip(results.chunks(ELISION_STRATEGIES.len())) {
        let totals: Vec<u64> = group.iter().map(|r| r.run.total_cycles()).collect();
        assert_eq!(
            group[1].run.checksums(),
            group[2].run.checksums(),
            "{}: elision changed the result",
            bench.name()
        );
        let checked = overhead_pct(totals[1], totals[0]);
        let eliding = overhead_pct(totals[2], totals[0]);
        println!(
            "{:<11}{:>13.1}%{:>13.1}%{:>13.1}pp",
            bench.name(),
            checked,
            eliding,
            checked - eliding
        );
    }
    println!("\n(overhead vs the unsafe MIPS binary; 'saved' is the elision win)");
}
