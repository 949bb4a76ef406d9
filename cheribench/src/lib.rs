//! # cheribench — end-to-end and per-layer benchmark
//!
//! One command measures the reproduction the way its users meet it:
//! batch sweeps (`xsweep`'s path, [`cheri_sweep::run_spec_with_config`])
//! and the persistent service (`cheri-serve`, driven through
//! [`cheri_serve::Client`]). Four named [`Workload`]s cover the
//! memory-bound and dispatch-bound batch cases and the warm and cached
//! served paths. Every operation's output is checked byte for byte
//! against the committed sweep baselines; a mismatch counts as a failed
//! operation.
//!
//! An untraced run reports the [`metrics::END_TO_END`] metrics; a
//! traced run repeats the workload with the benchmark's own spans
//! around its calls into each layer and reports
//! [`metrics::PER_LAYER`]. The layers are driven only through their
//! public functions, so the benchmark measures the code users run.

pub mod batch;
pub mod metrics;
pub mod served;
pub mod stream;

use cheri_sweep::{profile_matrix, JobRecord, JobSpec, Profile, StrategyKind, SweepReport};
use cheri_work::Workload as Guest;
use std::path::Path;

/// How many times each run sets its workload up; `setup_s` is the
/// median, which keeps one slow process spawn from moving it.
pub const SETUPS: usize = 5;

/// The problem-size preset every workload runs at; its committed
/// baseline holds the expected record of every job. At these sizes a job
/// takes 1–90 ms, so a run times each job many times and the minimum
/// finds the host's quiet moments.
pub const PROFILE: Profile = Profile::Smoke;

/// One named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4's four Olden kernels under Figure 4's modes plus the
    /// 128-bit format, smoke sizes, run serially in a worker process:
    /// pointer-chasing code that drives the modelled memory path.
    OldenBatch,
    /// The bytecode VM under all five strategies, smoke sizes: nearly
    /// every access hits L1, so dispatch/decode/execute is the work.
    VmloopBatch,
    /// A closed-loop client requesting uncached smoke jobs, which the
    /// set-up has run cold once: snapshot-restore warm runs on one
    /// worker.
    ServeWarm,
    /// A closed-loop client requesting smoke jobs the set-up primed into
    /// the result cache: protocol, lookup and serialisation only.
    ServeCached,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::OldenBatch, Workload::VmloopBatch, Workload::ServeWarm, Workload::ServeCached];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::OldenBatch => "olden-batch",
            Workload::VmloopBatch => "vmloop-batch",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCached => "serve-cached",
        }
    }

    /// Resolves a workload by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests go through a `cheri-serve` process.
    #[must_use]
    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeCached)
    }

    /// How many requests a served run sends at most; it also stops when
    /// its time is up. `serve-cached` sends a fixed 200 000: its
    /// server's memory grows with every request served, so a fixed count
    /// keeps `peak_rss_mb` from rising with throughput.
    #[must_use]
    pub fn request_limit(self) -> usize {
        match self {
            Workload::ServeCached => 200_000,
            _ => usize::MAX,
        }
    }

    /// The jobs: for a batch workload, one pass in canonical order; for
    /// a served workload, the pool its requests are drawn from.
    #[must_use]
    pub fn specs(self) -> Vec<JobSpec> {
        let params = PROFILE.params();
        let cross = |guests: &[Guest], strategies: &[StrategyKind]| {
            let mut specs = Vec::new();
            for &g in guests {
                for &s in strategies {
                    specs.push(JobSpec::new(g, s, params));
                }
            }
            specs
        };
        match self {
            Workload::OldenBatch => cross(
                &[Guest::Treeadd, Guest::Bisort, Guest::Perimeter, Guest::Mst],
                &[
                    StrategyKind::Mips,
                    StrategyKind::Ccured,
                    StrategyKind::Cheri256,
                    StrategyKind::Cheri128,
                ],
            ),
            Workload::VmloopBatch => cross(&[Guest::Vmloop], &StrategyKind::ALL),
            // Bisort's jobs are several times longer than the rest, so
            // with them in the pool the tail would measure bisort alone.
            Workload::ServeWarm => profile_matrix(PROFILE)
                .into_iter()
                .filter(|s| s.workload != Guest::Bisort)
                .collect(),
            Workload::ServeCached => profile_matrix(PROFILE),
        }
    }
}

/// Guest instructions in a job record.
#[must_use]
pub(crate) fn instructions(record: &JobRecord) -> u64 {
    record.counters.get("sim.instructions").copied().unwrap_or(0)
}

/// The jobs of a workload with the record each must produce, read from
/// the committed baseline of the workload's profile.
pub struct Expected {
    /// The problem-size preset the jobs run at.
    pub profile: Profile,
    /// The jobs, aligned with the two vectors below.
    pub specs: Vec<JobSpec>,
    /// Each job's expected record.
    pub records: Vec<JobRecord>,
    /// Each record serialised: the exact bytes its baseline line holds.
    pub lines: Vec<String>,
}

impl Expected {
    /// Loads the expected records of `specs` from
    /// `<root>/baselines/sweep-<profile>.json`.
    ///
    /// # Errors
    ///
    /// An unreadable or unparsable baseline, one that does not
    /// re-serialise to its own bytes (so a record's serialisation would
    /// not be its baseline line), or a job missing from it.
    pub fn load(root: &Path, profile: Profile, specs: Vec<JobSpec>) -> Result<Expected, String> {
        let path = root.join(format!("baselines/sweep-{}.json", profile.name()));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report =
            SweepReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if report.to_json() != text {
            return Err(format!("{} does not re-serialise to its own bytes", path.display()));
        }
        let mut records = Vec::with_capacity(specs.len());
        for spec in &specs {
            let key = spec.key();
            let record =
                report.job(&key).ok_or_else(|| format!("{key} missing from {}", path.display()))?;
            records.push(record.clone());
        }
        let lines = records.iter().map(JobRecord::to_json).collect();
        Ok(Expected { profile, specs, records, lines })
    }

    /// [`Expected::load`] for all of `workload`'s jobs.
    ///
    /// # Errors
    ///
    /// As [`Expected::load`].
    pub fn for_workload(root: &Path, workload: Workload) -> Result<Expected, String> {
        Expected::load(root, PROFILE, workload.specs())
    }
}
