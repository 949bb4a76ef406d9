//! End-to-end snapshot round-trips at the sweep level: for every
//! workload, interrupting a job mid-run, snapshotting (through the JSON
//! codec), restoring onto a resurrected kernel, and finishing must
//! produce a [`JobRecord`] byte-identical to the uninterrupted run —
//! and the final machine+kernel state must hash identically — with the
//! simulator's block cache on AND off on the resumed side.

use beri_sim::MachineConfig;
use cheri_olden::dsl::BenchSession;
use cheri_olden::OldenParams;
use cheri_snap::Snapshot;
use cheri_sweep::{run_job, JobRecord, JobResult, JobSpec, Mode, StrategyKind};
use cheri_work::Workload;

/// Snapshot after `k` retired instructions (through JSON), resume with
/// `bc_resume`, finish, and compare against the straight-through run.
fn check_workload(workload: Workload, k: u64, bc_resume: bool) {
    let spec = JobSpec::new(workload, StrategyKind::Cheri256, OldenParams::scaled());
    let cfg = MachineConfig { block_cache: true, ..spec.machine_config() };
    let strategy = spec.strategy.strategy();

    let module = workload.module(&spec.params);

    // Uninterrupted run.
    let mut straight =
        BenchSession::start_module(&module, strategy.as_ref(), cfg.clone(), None).unwrap();
    let run = straight.run_to_completion().unwrap();
    let want_record = JobRecord::from_result(&JobResult { spec, run });
    let want_hash = straight.snapshot().state_hash();

    // Interrupted at instruction k, snapshot through the JSON codec.
    let mut first = BenchSession::start_module(&module, strategy.as_ref(), cfg, None).unwrap();
    assert!(first.run_for(k).unwrap().is_none(), "{}: k={k} must stop mid-run", workload.name());
    let json = first.snapshot().to_json();
    let snap = Snapshot::from_json(&json).unwrap();

    let mut second = BenchSession::resume(&snap, spec.strategy.name(), bc_resume).unwrap();
    let run = second.run_to_completion().unwrap();
    let got_record = JobRecord::from_result(&JobResult { spec, run });
    let got_hash = second.snapshot().state_hash();

    assert_eq!(
        want_record,
        got_record,
        "{} (bc_resume={bc_resume}, k={k}): job record diverged",
        workload.name()
    );
    assert_eq!(
        want_hash,
        got_hash,
        "{} (bc_resume={bc_resume}, k={k}): final state diverged",
        workload.name()
    );
}

#[test]
fn treeadd_roundtrips_with_block_cache_on_and_off() {
    check_workload(Workload::Treeadd, 50_000, true);
    check_workload(Workload::Treeadd, 50_000, false);
}

#[test]
fn bisort_roundtrips_with_block_cache_on_and_off() {
    check_workload(Workload::Bisort, 50_000, true);
    check_workload(Workload::Bisort, 50_000, false);
}

#[test]
fn mst_roundtrips_with_block_cache_on_and_off() {
    check_workload(Workload::Mst, 50_000, true);
    check_workload(Workload::Mst, 50_000, false);
}

#[test]
fn perimeter_roundtrips_with_block_cache_on_and_off() {
    check_workload(Workload::Perimeter, 50_000, true);
    check_workload(Workload::Perimeter, 50_000, false);
}

#[test]
fn vmloop_roundtrips_with_block_cache_on_and_off() {
    check_workload(Workload::Vmloop, 50_000, true);
    check_workload(Workload::Vmloop, 50_000, false);
}

#[test]
fn allocstress_roundtrips_with_block_cache_on_and_off() {
    check_workload(Workload::Allocstress, 50_000, true);
    check_workload(Workload::Allocstress, 50_000, false);
}

/// The warm-start path itself: [`Mode::Split`] captures a snapshot at
/// the phase-2 boundary and [`Mode::Resume`] finishes from it with a
/// byte-identical record.
#[test]
fn warm_start_split_and_resume_agree() {
    let spec = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, OldenParams::scaled());
    let cfg = spec.machine_config();
    let cold = run_job(&spec, cfg.clone(), Mode::Split, None, &mut |_, _| {}).unwrap();
    let snap = cold.snapshot.expect("treeadd reaches phase 2");
    let warm = run_job(&spec, cfg, Mode::Resume(&snap), None, &mut |_, _| {}).unwrap();
    let cold_rec = JobRecord::from_result(&cold.result.unwrap());
    let warm_rec = JobRecord::from_result(&warm.result.unwrap());
    assert_eq!(cold_rec, warm_rec, "warm-started record must equal the cold run");
}
