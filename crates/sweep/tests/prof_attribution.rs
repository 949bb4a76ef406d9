//! End-to-end validation of the guest profiler over real matrix jobs:
//! a profiled run must be byte-identical to a plain run of the same
//! spec, the per-function attribution must sum to the job's global
//! cache-stat counters, the folded stacks must account for every
//! retired instruction, and the timeline JSON must parse with
//! monotonically ordered span timestamps.

use cheri_olden::OldenParams;
use cheri_prof::ProfileReport;
use cheri_sweep::{
    run_job, run_spec_with_config, JobRecord, JobResult, JobSpec, Mode, StrategyKind, SweepReport,
};
use cheri_trace::json::{self, Json};
use cheri_trace::names;
use cheri_work::Workload;

fn specs() -> Vec<JobSpec> {
    let params = OldenParams::scaled();
    vec![
        JobSpec::new(Workload::Treeadd, StrategyKind::Mips, params),
        JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, params),
        JobSpec::new(Workload::Mst, StrategyKind::Cheri128, params),
        JobSpec::new(Workload::Perimeter, StrategyKind::Ccured, params),
        JobSpec::new(Workload::Vmloop, StrategyKind::Cheri256, params),
        JobSpec::new(Workload::Allocstress, StrategyKind::Cheri128, params),
    ]
}

fn run_profiled(spec: &JobSpec) -> (JobResult, ProfileReport) {
    let run = run_job(spec, spec.machine_config(), Mode::Profiled, None, &mut |_, _| {}).unwrap();
    (run.result.unwrap(), run.profile.unwrap())
}

#[test]
fn profiled_runs_are_byte_identical_to_plain_runs() {
    for spec in specs() {
        let plain = run_spec_with_config(&spec, spec.machine_config(), None).unwrap();
        let (profiled, _) = run_profiled(&spec);
        let a = SweepReport::from_results("test", &[plain]);
        let b = SweepReport::from_results("test", &[profiled]);
        assert_eq!(a.to_json(), b.to_json(), "{}: profiling must be transparent", spec.key());
    }
}

#[test]
fn per_function_attribution_sums_to_global_counters() {
    for spec in specs() {
        let (result, profile) = run_profiled(&spec);
        let record = JobRecord::from_result(&result);
        let global = |name: &str| record.counters.get(name).copied().unwrap_or(0);
        let sum = |f: fn(&cheri_prof::PcCounters) -> u64| -> u64 {
            profile.functions.iter().map(|func| f(&func.counters)).sum()
        };
        let key = spec.key();
        assert_eq!(sum(|c| c.retired), global(names::INSTRUCTIONS), "{key}: retired");
        assert_eq!(sum(|c| c.l1i_misses), global(names::L1I_MISSES), "{key}: l1i misses");
        assert_eq!(sum(|c| c.l1d_misses), global(names::L1D_MISSES), "{key}: l1d misses");
        assert_eq!(sum(|c| c.l2_misses), global(names::L2_MISSES), "{key}: l2 misses");
        assert_eq!(sum(|c| c.tag_misses), global(names::TAG_CACHE_MISSES), "{key}: tag misses");
        assert_eq!(sum(|c| c.tlb_refills), global(names::TLB_REFILLS), "{key}: tlb refills");
        assert_eq!(
            sum(|c| c.cap_exceptions),
            global(names::CAP_EXCEPTIONS),
            "{key}: cap exceptions"
        );
        assert_eq!(profile.total.retired, global(names::INSTRUCTIONS), "{key}: report total");
    }
}

#[test]
fn folded_stacks_account_for_every_retired_instruction() {
    for spec in specs() {
        let (_, profile) = run_profiled(&spec);
        let folded: u64 = profile.folded.iter().map(|(_, n)| n).sum();
        assert_eq!(folded, profile.total.retired, "{}", spec.key());
        // Every line of the rendered output is "stack count".
        for line in profile.folded_output().lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded line format");
            assert!(stack.starts_with("root"), "stacks are rooted: {line}");
            count.parse::<u64>().expect("folded count");
        }
    }
}

#[test]
fn timeline_json_parses_with_monotone_span_timestamps() {
    for spec in specs() {
        let (_, profile) = run_profiled(&spec);
        let doc = json::parse(&profile.timeline_json()).expect("timeline JSON parses");
        let obj = doc.as_obj().expect("timeline is an object");
        let events = obj.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        assert!(!events.is_empty(), "{}: timeline has events", spec.key());
        let mut last_ts = 0;
        let mut depth: i64 = 0;
        for ev in events {
            let ev = ev.as_obj().expect("event object");
            let ts = ev.get("ts").and_then(Json::as_u64).expect("ts");
            assert!(ts >= last_ts, "{}: span timestamps must be monotone", spec.key());
            last_ts = ts;
            match ev.get("ph").and_then(Json::as_str).expect("ph") {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "{}: unbalanced span end", spec.key());
                }
                "X" | "i" => {}
                other => panic!("{}: unexpected phase {other}", spec.key()),
            }
        }
        assert_eq!(depth, 0, "{}: every span must close", spec.key());
    }
}
