//! # cheri-sweep — the parallel experiment-sweep engine
//!
//! The paper's evaluation is a matrix: workload × pointer strategy ×
//! capability width × tag-cache configuration. This crate owns that
//! matrix end to end:
//!
//! * [`matrix`] — the canonical axes ([`StrategyKind`], the per-figure
//!   strategy lists, [`profile_matrix`]; the workloads and their
//!   Figure 5 sweep points come from the `cheri-work` registry), the
//!   job spec with its one by-name constructor
//!   ([`JobSpec::from_parts`]) and machine configuration, and the
//!   one way to run a job: [`run_job`] in a closed set of [`Mode`]s
//!   (plain, profiled, split at the warm-start boundary, boot-only,
//!   resumed, final-snapshot), with [`run_jobs`] running many in
//!   parallel, so every harness iterates the same lists in the same
//!   order and every run — batch, warm, profiled, traced or served —
//!   executes the same code;
//! * [`mod@ab`] — the A/B transparency harness (`xsweep --warm`/`--prof`):
//!   one matrix under two sides, byte-compared, with divergence
//!   snapshots on a mismatch;
//! * [`engine`] — a deterministic work-stealing executor: each job owns
//!   its own `Machine`, workers steal indices from an atomic cursor,
//!   and results are reassembled in index order, so output is
//!   bit-identical at any `--jobs` count;
//! * [`report`] — the integer-only JSON sweep report
//!   (`results/sweep.json`), every reproduced number as a named,
//!   versioned datum;
//! * [`check`] — the CI regression gate: report-vs-baseline diffing,
//!   every counter compared exactly.
//!
//! The `xsweep` binary in `cheri-bench` is the command-line front end;
//! the figure/ablation harnesses are thin text views over the same job
//! results.

pub mod ab;
pub mod check;
pub mod engine;
pub mod matrix;
pub mod report;

pub use ab::{ab, dump_divergence, AbJob, Divergence, Side};
pub use check::{check_reports, comparisons, render_drifts, Drift};
pub use engine::{default_threads, run_indexed};
pub use matrix::{
    profile_matrix, run_job, run_jobs, run_spec_with_config, JobResult, JobRun, JobSpec, Mode,
    Profile, StrategyKind, CAPWIDTH_STRATEGIES, DEFAULT_TAG_CACHE_KB, ELISION_STRATEGIES,
    FIGURE4_STRATEGIES, HEAPSIZE_STRATEGIES, MAX_TAG_KB, TAG_ABLATION_KB, WARM_SNAPSHOT_PHASE,
};
pub use report::{hit_rate_bp, JobRecord, SweepReport, ARCH_COUNTERS, SCHEMA_VERSION};

/// Runs a whole profile at the given thread count and returns the
/// report (the library form of `xsweep`'s default mode).
#[must_use]
pub fn run_matrix(profile: Profile, threads: usize) -> SweepReport {
    let specs = profile_matrix(profile);
    let results = run_jobs(&specs, threads, None);
    SweepReport::from_results(profile.name(), &results)
}
