//! The workload registry end to end: every registered workload runs
//! through the one runner (`run_spec_with_config` over its `JobSpec`),
//! and the properties the Figure 4 experiment rests on hold for each.

use cheri_olden::dsl::BenchRun;
use cheri_olden::OldenParams;
use cheri_os::ExitReason;
use cheri_sweep::{run_spec_with_config, JobSpec, StrategyKind, FIGURE4_STRATEGIES};
use cheri_work::Workload;

fn run(workload: Workload, strategy: StrategyKind, params: OldenParams) -> BenchRun {
    let spec = JobSpec::new(workload, strategy, params);
    run_spec_with_config(&spec, spec.machine_config(), None)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.key()))
        .run
}

/// Every workload produces identical checksums under all three Figure 4
/// compilation modes — the core cross-mode validity property of the
/// experiment.
#[test]
fn checksums_agree_across_modes() {
    let p = OldenParams::scaled();
    for w in Workload::ALL {
        let sums: Vec<Vec<u64>> = FIGURE4_STRATEGIES
            .iter()
            .map(|&s| {
                let run = run(w, s, p);
                let exit = &run.outcome.exit;
                assert!(
                    matches!(exit, ExitReason::Exit(_)),
                    "{} [{}]: {exit:?}",
                    w.name(),
                    s.name()
                );
                run.checksums().to_vec()
            })
            .collect();
        assert!(!sums[0].is_empty(), "{} printed nothing", w.name());
        assert_eq!(sums[0], sums[1], "{}: mips vs ccured", w.name());
        assert_eq!(sums[0], sums[2], "{}: mips vs cheri", w.name());
    }
}

#[test]
fn bisort_sorts() {
    let run = run(Workload::Bisort, StrategyKind::Mips, OldenParams::scaled());
    // First print: violation count (0 = sorted); then the leaf sums
    // before/after, which must match.
    let sums = run.checksums();
    assert_eq!(sums[0], 0, "bisort produced an unsorted tree");
    assert_eq!(sums[1], sums[2], "sort must preserve the multiset of values");
}

#[test]
fn phases_are_recorded() {
    let run = run(Workload::Treeadd, StrategyKind::Mips, OldenParams::scaled());
    assert!(run.alloc.instructions > 0, "allocation phase missing");
    assert!(run.compute.instructions > 0, "computation phase missing");
    assert!(run.total_cycles() > 0);
}

/// The compressed 128-bit format (16-byte machine granule) computes
/// the same results as the 256-bit research format with strictly
/// less memory traffic — the Section 8 compression conclusion.
#[test]
fn cap128_matches_cap256_with_less_traffic() {
    let p = OldenParams::scaled();
    for w in [Workload::Treeadd, Workload::Bisort] {
        let wide = run(w, StrategyKind::Cheri256, p);
        let narrow = run(w, StrategyKind::Cheri128, p);
        assert_eq!(wide.checksums(), narrow.checksums(), "{}: 128-bit result differs", w.name());
        assert!(
            narrow.outcome.stats.memory_bytes() < wide.outcome.stats.memory_bytes(),
            "{}: compression must reduce traffic",
            w.name()
        );
        assert!(
            narrow.total_cycles() < wide.total_cycles(),
            "{}: compression must reduce cycles",
            w.name()
        );
    }
}

#[test]
fn mem_needed_scales_with_strategy() {
    let mem =
        |s| JobSpec::new(Workload::Treeadd, s, OldenParams::paper()).machine_config().mem_bytes;
    assert!(mem(StrategyKind::Cheri256) > mem(StrategyKind::Mips));
}

/// Each workload's native twin (host speed, against the traced heap of
/// the Figure 3 limit study) computes what its compiled binary reports,
/// so the two methodologies measure the same algorithm.
#[test]
fn native_twins_match_dsl_runs() {
    use cheri_olden::native;
    use cheri_work::native::{allocstress_full, vmloop_full};
    let p = OldenParams::scaled();
    for w in Workload::ALL {
        let out = run(w, StrategyKind::Mips, p).outcome;
        let exit: Vec<u64> = out.exit_value().into_iter().collect();
        // (what the twin computes, the part of the run it must equal)
        let (twin, dsl) = match w {
            // prints: [violations, sum_before, sum_after]
            Workload::Bisort => (vec![native::bisort(&p).checksum], out.prints[2..3].to_vec()),
            Workload::Mst => (vec![native::mst(&p).checksum], exit),
            Workload::Treeadd => (vec![native::treeadd(&p).checksum], exit),
            Workload::Perimeter => (vec![native::perimeter(&p).checksum], exit),
            Workload::Vmloop => (vmloop_full(&p).1.to_vec(), out.prints),
            Workload::Allocstress => (allocstress_full(&p).1.to_vec(), out.prints),
        };
        assert_eq!(twin, dsl, "{}: native twin vs DSL run", w.name());
    }
}
