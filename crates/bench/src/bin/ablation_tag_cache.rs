//! Tag-cache ablation (Section 4.2): the paper claims the 8 KB tag cache
//! "does not noticeably degrade performance". This harness sweeps the
//! tag-cache size on a capability-heavy workload and reports the
//! tag-table traffic and total cycles at each size.
//!
//! The size axis is the canonical [`TAG_ABLATION_KB`] from
//! `cheri-sweep`, executed on the parallel sweep engine (`--jobs N`).

use cheri_bench::parse_jobs;
use cheri_olden::OldenParams;
use cheri_sweep::{run_jobs, JobSpec, StrategyKind, TAG_ABLATION_KB};
use cheri_work::Workload;

fn main() {
    let params = OldenParams::scaled().with_treeadd_depth(15);
    let specs: Vec<JobSpec> = TAG_ABLATION_KB
        .into_iter()
        .map(|kb| JobSpec {
            tag_cache_kb: kb,
            ..JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, params)
        })
        .collect();
    let results = run_jobs(&specs, parse_jobs(), None);

    println!("== Tag-cache size ablation (treeadd depth 15, CHERI mode) ==\n");
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "tag cache", "tag lookups", "tag misses", "hit rate", "tag DRAM B", "cycles"
    );
    let mut big_cache_cycles = 0u64;
    let mut at_8kb = 0u64;
    for r in &results {
        let t = r.run.outcome.tag_stats;
        let cycles = r.run.total_cycles();
        if r.spec.tag_cache_kb == 8 {
            at_8kb = cycles;
        }
        big_cache_cycles = cycles; // last row is the largest cache
        println!(
            "{:>7} KB {:>12} {:>12} {:>9.1}% {:>12} {:>12}",
            r.spec.tag_cache_kb,
            t.lookups,
            t.misses,
            t.hit_rate() * 100.0,
            t.dram_tag_bytes(),
            cycles
        );
    }
    let delta = (at_8kb as f64 - big_cache_cycles as f64) / big_cache_cycles as f64 * 100.0;
    println!(
        "\n8 KB vs 64 KB tag cache: {delta:+.2}% cycles — the paper's 'does not \
         noticeably degrade performance' claim{}",
        if delta.abs() < 1.0 { " holds" } else { " needs a closer look" }
    );
}
