//! The A/B transparency harness behind `xsweep --warm` and `--prof`,
//! and the sweep tests' block-cache comparison.
//!
//! Each of those runs the same matrix two ways that must not change any
//! architectural result — cold vs warm-started, plain vs profiled,
//! block cache on vs off — and demands the two serialized reports be
//! byte-identical. [`ab`] is that pattern once: jobs run
//! side A then side B in the same worker (so side B can resume from
//! side A's snapshot), and a mismatch names the first diverging job,
//! whose key reruns it exactly.

use beri_sim::MachineConfig;
use cheri_snap::Snapshot;

use crate::engine::run_indexed;
use crate::matrix::{run_job, JobRun, JobSpec, Mode};
use crate::report::JobRecord;

/// One side of an [`ab`] comparison.
pub struct Side<'a> {
    /// The machine configuration every job of this side runs under.
    pub cfg: &'a (dyn Fn(&JobSpec) -> MachineConfig + Sync),
    /// Picks how a job runs on this side. Side A is always passed
    /// `None`; side B is passed the snapshot side A captured for the
    /// same job, if any. Returning `None` skips the run: side A's result
    /// stands for this side (a job that exits before side A's snapshot
    /// point leaves nothing to resume).
    pub mode: fn(Option<&Snapshot>) -> Option<Mode<'_>>,
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
}

/// Runs every job of `specs` under side A and then side B across
/// `threads` workers, and returns the per-job runs in spec order if
/// every job's serialized record agrees between the sides. Otherwise
/// names the first diverging job.
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
    Err(Divergence { key: first.key(), jobs: 1 + diverged.count() })
}
