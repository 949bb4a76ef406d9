//! Figure 5 reproduction: percentage slowdown of CHERI relative to MIPS
//! code as the data set grows, showing the steps where the 16 KB L1, the
//! 64 KB L2, and the 1 MB TLB coverage overflow.
//!
//! A thin text view over the canonical `cheri-sweep` matrix: the sweep
//! points come from the workload registry ([`Workload::sweep_points`])
//! and execute on the parallel sweep engine (`--jobs N`).

use cheri_bench::{bar, overhead_pct, Exhibit};
use cheri_sweep::{run_jobs, JobSpec, HEAPSIZE_STRATEGIES};
use cheri_work::Workload;

fn main() {
    let Exhibit { jobs, .. } = Exhibit::from_args("fig5_heapsize", "fig5_heapsize [--jobs N]");
    println!("== Figure 5: CHERI slowdown at different heap sizes ==");
    println!("(cache geometry: 16KB L1 / 64KB L2 / TLB covering 1MB)\n");
    let specs: Vec<JobSpec> = Workload::ALL
        .into_iter()
        .flat_map(|bench| {
            bench.sweep_points().into_iter().flat_map(move |(param, p)| {
                HEAPSIZE_STRATEGIES
                    .into_iter()
                    .map(move |s| JobSpec { variant: Some(param), ..JobSpec::new(bench, s, p) })
            })
        })
        .collect();
    let results = run_jobs(&specs, jobs);

    let mut rows = results.chunks(HEAPSIZE_STRATEGIES.len());
    for bench in Workload::ALL {
        println!("{}:", bench.name());
        println!("{:>10} {:>12} {:>10}", "param", "heap (KB)", "slowdown");
        for _ in bench.sweep_points() {
            let pair = rows.next().expect("one row per sweep point");
            let (base, cheri) = (&pair[0], &pair[1]);
            let param = base.spec.variant.expect("sweep point labelled");
            let heap_kb = base.run.heap_used / 1024;
            let slow = overhead_pct(cheri.run.total_cycles(), base.run.total_cycles());
            println!("{param:>10} {heap_kb:>12} {slow:>9.1}%  {}", bar(slow, 2.0));
        }
        println!();
    }
    println!("(paper: 'For very small sets, overhead is negligible. As working");
    println!(" set-size increases, capability cache pressure grows faster than");
    println!(" for unprotected code', with steps at the L1/L2/TLB capacities.)");
}
