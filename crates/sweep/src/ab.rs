//! The A/B transparency harness behind `xsweep --warm` and `--prof`,
//! and the sweep tests' block-cache comparison.
//!
//! Each of those runs the same matrix two ways that must not change any
//! architectural result — cold vs warm-started, plain vs profiled,
//! block cache on vs off — and demands the two serialized reports be
//! byte-identical. [`ab`] is that pattern once: jobs run
//! side A then side B in the same worker (so side B can resume from
//! side A's snapshot), and on a mismatch the first diverging job's
//! final state is re-run and written as `divergence-<key><suffix>.json`
//! by [`dump_divergence`], the writer the `--check` gate shares.

use std::path::{Path, PathBuf};

use beri_sim::MachineConfig;
use cheri_snap::Snapshot;

use crate::engine::run_indexed;
use crate::matrix::{run_job, JobRun, JobSpec, Mode};
use crate::report::JobRecord;

/// One side of an [`ab`] comparison.
pub struct Side<'a> {
    /// The machine configuration every job of this side runs under (and
    /// its divergence re-run).
    pub cfg: &'a (dyn Fn(&JobSpec) -> MachineConfig + Sync),
    /// Picks how a job runs on this side. Side A is always passed
    /// `None`; side B is passed the snapshot side A captured for the
    /// same job, if any. Returning `None` skips the run: side A's result
    /// stands for this side (a job that exits before side A's snapshot
    /// point leaves nothing to resume).
    pub mode: fn(Option<&Snapshot>) -> Option<Mode<'_>>,
    /// On divergence, this side's final state is written as
    /// `divergence-<key><suffix>.json`; `None` writes nothing for it.
    pub dump: Option<&'static str>,
}

/// One job's two runs.
pub struct AbJob {
    /// Side A's run (its snapshot, if any, was handed to side B and
    /// dropped, so peak memory stays one snapshot per worker).
    pub a: JobRun,
    /// Side B's run.
    pub b: JobRun,
    /// Whether side B ran; `false` when its `mode` declined and side A's
    /// result stands for both sides, so the job's agreement proves
    /// nothing about side B.
    pub b_ran: bool,
}

/// An [`ab`] run whose sides disagreed.
#[derive(Debug)]
pub struct Divergence {
    /// The first diverging job's key.
    pub key: String,
    /// How many jobs diverged.
    pub jobs: usize,
    /// The divergence snapshots written for the first diverging job, or
    /// why one could not be.
    pub dumps: Vec<Result<PathBuf, String>>,
}

/// Runs every job of `specs` under side A and then side B across
/// `threads` workers, and returns the per-job runs in spec order if
/// every job's serialized record agrees between the sides. Otherwise
/// writes the first diverging job's divergence snapshots under `dir`
/// and names it.
///
/// # Errors
///
/// The [`Divergence`], if any job's records differ.
///
/// # Panics
///
/// Panics with the job key if a run fails, as the matrix runners do.
pub fn ab(
    specs: &[JobSpec],
    threads: usize,
    a: &Side<'_>,
    b: &Side<'_>,
    dir: &Path,
) -> Result<Vec<AbJob>, Divergence> {
    let jobs = run_indexed(specs.len(), threads, |i| {
        let spec = &specs[i];
        let side_run = |side: &Side<'_>, mode: Mode<'_>| {
            run_job(spec, (side.cfg)(spec), mode, None)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.key()))
        };
        let a_mode = (a.mode)(None).expect("side A always runs");
        let mut a_run = side_run(a, a_mode);
        let snap = a_run.snapshot.take();
        let (b_run, b_ran) = match (b.mode)(snap.as_ref()) {
            Some(mode) => (side_run(b, mode), true),
            None => (JobRun { result: a_run.result.clone(), snapshot: None, profile: None }, false),
        };
        AbJob { a: a_run, b: b_run, b_ran }
    });
    let record = |run: &JobRun| {
        JobRecord::from_result(run.result.as_ref().expect("A/B modes run to completion")).to_json()
    };
    let mut diverged =
        specs.iter().zip(&jobs).filter(|(_, j)| record(&j.a) != record(&j.b)).map(|(s, _)| s);
    let Some(first) = diverged.next() else { return Ok(jobs) };
    let dumps = [a, b]
        .iter()
        .filter_map(|side| {
            side.dump.map(|suffix| dump_divergence(dir, first, (side.cfg)(first), suffix))
        })
        .collect();
    Err(Divergence { key: first.key(), jobs: 1 + diverged.count(), dumps })
}

/// Re-runs `spec` under `cfg` to completion and writes its final
/// machine+kernel snapshot as `dir/divergence-<key><suffix>.json` (the
/// key's `/` flattened to `-`) for offline triage with `snapreplay`.
///
/// # Errors
///
/// If the re-run fails or the file cannot be written.
pub fn dump_divergence(
    dir: &Path,
    spec: &JobSpec,
    cfg: MachineConfig,
    suffix: &str,
) -> Result<PathBuf, String> {
    let key = spec.key();
    let run = run_job(spec, cfg, Mode::FinalSnap, None)
        .map_err(|e| format!("re-run of {key} failed: {e}"))?;
    let snap = run.snapshot.expect("a final-snapshot run captures its state");
    let path = dir.join(format!("divergence-{}{suffix}.json", key.replace('/', "-")));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, snap.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
