//! The two properties the sweep subsystem exists to provide:
//!
//! 1. **Determinism** — the serialised report is byte-identical at any
//!    thread count (each job owns its machine; results are reassembled
//!    in spec order).
//! 2. **The gate bites** — a seeded counter drift fails the check with
//!    the drifting metric named; an unchanged report passes; the A/B
//!    harness names the first job a result-changing side diverges on
//!    and writes its divergence snapshots; and it reports which jobs
//!    side B really ran, so a vacuous warm == cold agreement shows.

use beri_sim::MachineConfig;
use cheri_snap::Snapshot;
use cheri_sweep::{
    ab, check_reports, profile_matrix, run_jobs, run_matrix, JobSpec, Mode, Profile, Side,
    StrategyKind, SweepReport,
};
use std::path::PathBuf;

fn treeadd_specs() -> Vec<JobSpec> {
    profile_matrix(Profile::Smoke).into_iter().filter(|s| s.workload.name() == "treeadd").collect()
}

/// A per-test scratch directory for divergence snapshots.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cheri-sweep-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let serial = run_matrix(Profile::Smoke, 1);
    let parallel = run_matrix(Profile::Smoke, 8);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "sweep report must not depend on thread count or scheduling"
    );
}

#[test]
fn self_check_passes_and_seeded_drift_fails() {
    let specs = treeadd_specs();
    let results = run_jobs(&specs, 2, None);
    let report = SweepReport::from_results("smoke", &results);

    // Round-trip through the serialised form, as the CI gate does.
    let baseline = SweepReport::from_json(&report.to_json()).expect("own JSON parses");
    assert!(
        check_reports(&baseline, &report).is_empty(),
        "a run must pass against its own baseline"
    );

    // Seed a drift on an exact-match architectural counter.
    let mut drifted = baseline.clone();
    let job_key = drifted.jobs[0].key.clone();
    *drifted.jobs[0].counters.get_mut("sim.instructions").expect("counter present") += 1;
    let drifts = check_reports(&drifted, &report);
    assert_eq!(drifts.len(), 1, "exactly the seeded drift: {drifts:?}");
    assert_eq!(drifts[0].metric, "sim.instructions");
    assert_eq!(drifts[0].job, job_key);
}

#[test]
fn block_cache_is_architecturally_transparent_in_the_sweep() {
    // The simulator's predecoded block cache is a host-side
    // optimisation: forcing it on or off must leave every reported
    // counter of a real matrix job byte-identical. (CI asserts the same
    // over the smoke matrix by running the `xsweep --check` gate with
    // and without `CHERI_SIM_NO_BLOCK_CACHE=1`; this is the tier-1 form.)
    let on = |s: &JobSpec| MachineConfig { block_cache: true, ..s.machine_config() };
    let off = |s: &JobSpec| MachineConfig { block_cache: false, ..s.machine_config() };
    let dir = scratch_dir("bc");
    let jobs = ab(
        &treeadd_specs(),
        2,
        &Side { cfg: &on, mode: |_| Some(Mode::Plain), dump: Some("-bc-on") },
        &Side { cfg: &off, mode: |_| Some(Mode::Plain), dump: Some("-bc-off") },
        &dir,
    )
    .expect("block cache changed architectural results");
    assert_eq!(jobs.len(), 5);
    assert!(!dir.exists(), "no divergence snapshots on agreement");
}

#[test]
fn ab_names_the_first_diverging_job_and_dumps_it() {
    // `MachineConfig::fault`'s one seeded bug changes no smoke job's
    // result, so side B seeds a result-changing configuration on the
    // CHERI jobs only — no tag cache, so every tag access misses: the
    // MIPS jobs agree, the CHERI ones don't.
    let seeded = |s: &JobSpec| match s.strategy {
        StrategyKind::Cheri256 | StrategyKind::Cheri128 => {
            MachineConfig { tag_cache_bytes: 0, ..s.machine_config() }
        }
        _ => s.machine_config(),
    };
    let dir = scratch_dir("diverge");
    let divergence = ab(
        &treeadd_specs(),
        1,
        &Side { cfg: &JobSpec::machine_config, mode: |_| Some(Mode::Plain), dump: Some("-a") },
        &Side { cfg: &seeded, mode: |_| Some(Mode::Plain), dump: Some("-b") },
        &dir,
    )
    .err()
    .expect("a result-changing side B must diverge");
    assert_eq!(divergence.key, "treeadd/cheri/tag8");
    assert_eq!(divergence.jobs, 2, "both CHERI widths diverge");
    let paths: Vec<PathBuf> =
        divergence.dumps.into_iter().map(|d| d.expect("divergence snapshot written")).collect();
    assert_eq!(
        paths,
        ["-a", "-b"].map(|suffix| dir.join(format!("divergence-treeadd-cheri-tag8{suffix}.json")))
    );
    let snaps: Vec<Snapshot> = paths
        .iter()
        .map(|p| Snapshot::from_json(&std::fs::read_to_string(p).unwrap()).expect("a snapshot"))
        .collect();
    assert_ne!(snaps[0].state_hash(), snaps[1].state_hash(), "the two sides' final states differ");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ab_reports_whether_side_b_warm_started() {
    // Side B resumes only from a snapshot side A captured; otherwise
    // side A's result stands for both sides and their agreement is
    // vacuous. Split → Resume warm-starts every job; Plain → Resume
    // warm-starts none, the run `xsweep --warm` refuses.
    let split = Side { cfg: &JobSpec::machine_config, mode: |_| Some(Mode::Split), dump: None };
    let plain = Side { cfg: &JobSpec::machine_config, mode: |_| Some(Mode::Plain), dump: None };
    let resume =
        Side { cfg: &JobSpec::machine_config, mode: |snap| snap.map(Mode::Resume), dump: None };
    for (a, warm) in [(&split, true), (&plain, false)] {
        let jobs = ab(&treeadd_specs(), 2, a, &resume, &scratch_dir("warm"))
            .expect("resuming never changes a result");
        assert_eq!(jobs.len(), 5);
        assert!(jobs.iter().all(|j| j.b_ran == warm), "every job's b_ran must be {warm}");
    }
}

#[test]
fn report_carries_the_evaluations_headline_shape() {
    // A cheap semantic sanity check on real sweep data: CHERI's cycle
    // overhead over MIPS exists, stays moderate (under 2x) and under
    // CCured's on treeadd — the Figure 4 headline — visible straight
    // from the report.
    let specs = treeadd_specs();
    let results = run_jobs(&specs, 2, None);
    let report = SweepReport::from_results("smoke", &results);
    let cycles = |key: &str| report.job(key).expect(key).counters["cycles.total"];
    let (mips, ccured, cheri) =
        (cycles("treeadd/mips/tag8"), cycles("treeadd/ccured/tag8"), cycles("treeadd/cheri/tag8"));
    assert!(mips < cheri, "CHERI must cost something ({mips} vs {cheri})");
    assert!(cheri < 2 * mips, "CHERI overhead should stay moderate ({mips} vs {cheri})");
    assert!(cheri < ccured, "CHERI ({cheri}) must beat CCured ({ccured})");
}
