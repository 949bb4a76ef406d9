//! Figure 4 reproduction: execution-time overhead of software (CCured-
//! style) and hardware (CHERI) memory safety relative to unmodified MIPS
//! code, decomposed into allocation and computation phases, for bisort,
//! mst, treeadd and perimeter.
//!
//! A thin text view over the canonical `cheri-sweep` matrix: the job
//! list comes from [`FIGURE4_STRATEGIES`] and executes on the parallel
//! sweep engine (`--jobs N`; with `--trace-out` the jobs run serially
//! so the event stream stays one ordered file).

use cheri_bench::{bar, overhead_pct, params_for, parse_jobs, parse_scale, parse_trace_out};
use cheri_olden::dsl::BenchRun;
use cheri_sweep::{run_jobs, JobSpec, FIGURE4_STRATEGIES};
use cheri_trace::Sink;
use cheri_work::Workload;

fn main() {
    let scale = parse_scale();
    let params = params_for(scale);
    // `--trace-out <path>`: stream every event of every run as JSON
    // lines, with a marker line delimiting each benchmark/mode pair.
    let sink = parse_trace_out();
    let specs: Vec<JobSpec> = Workload::ALL
        .into_iter()
        .flat_map(|bench| {
            FIGURE4_STRATEGIES.into_iter().map(move |s| JobSpec::new(bench, s, params))
        })
        .collect();
    let results = run_jobs(&specs, parse_jobs(), sink.as_ref());

    println!("== Figure 4: execution-time overhead vs unsafe MIPS ({scale:?} sizes) ==\n");
    println!(
        "{:<12}{:<14}{:>9}{:>10}{:>9}   total",
        "benchmark", "mode", "alloc%", "compute%", "total%"
    );

    for (bench, group) in Workload::ALL.iter().zip(results.chunks(FIGURE4_STRATEGIES.len())) {
        let runs: Vec<&BenchRun> = group.iter().map(|r| &r.run).collect();
        // All three binaries must compute the same result.
        let base_sums = runs[0].checksums();
        for r in &runs[1..] {
            assert_eq!(
                r.checksums(),
                base_sums,
                "{} checksum mismatch in mode {}",
                bench.name(),
                r.mode
            );
        }
        let base = runs[0];
        for r in &runs {
            let alloc = overhead_pct(r.alloc.cycles, base.alloc.cycles);
            let compute = overhead_pct(r.compute.cycles, base.compute.cycles);
            let total = overhead_pct(r.total_cycles(), base.total_cycles());
            println!(
                "{:<12}{:<14}{:>8.1}%{:>9.1}%{:>8.1}%   {}",
                bench.name(),
                r.mode,
                alloc,
                compute,
                total,
                bar(total, 4.0)
            );
        }
        let ccured = overhead_pct(runs[1].total_cycles(), base.total_cycles());
        let cheri = overhead_pct(runs[2].total_cycles(), base.total_cycles());
        assert!(
            cheri < ccured,
            "{}: CHERI ({cheri:.1}%) must outperform CCured ({ccured:.1}%)",
            bench.name()
        );
        println!();
    }
    println!("(paper: 'CHERI outperforms CCured substantially in all configurations')");
    if let Some(s) = &sink {
        s.borrow_mut().flush();
    }
}
