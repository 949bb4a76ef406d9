//! The canonical experiment matrix.
//!
//! Every harness that iterates workloads × pointer strategies — the
//! Figure 4/5 reproductions, the three ablations, and the `xsweep`
//! runner — draws its axes from this module, so the strategy lists and
//! iteration orders cannot drift apart between binaries. The workload
//! axis is the `cheri-work` registry ([`Workload::ALL`], with its
//! Figure 5 points in [`Workload::sweep_points`]).
//!
//! A job is a [`JobSpec`]; [`JobSpec::from_parts`] is the one by-name
//! constructor and checks the tag-cache size, and
//! [`JobSpec::machine_config`] the one machine configuration.
//! [`run_job`] is the one way to run a job to completion.

use beri_sim::machine::CapFormat;
use beri_sim::MachineConfig;
use cheri_cc::strategy::{CapPtr, LegacyPtr, PtrStrategy, SoftFatPtr};
use cheri_olden::dsl::{BenchRun, BenchSession};
use cheri_olden::OldenParams;
use cheri_work::Workload;

use crate::engine;

/// The default tag-cache capacity in KB (Section 4.2's 8 KB).
pub const DEFAULT_TAG_CACHE_KB: usize = 8;

/// The largest tag-cache size a job may name, in KB: 16× the largest
/// point of the tag-cache ablation axis ([`TAG_ABLATION_KB`]).
/// [`JobSpec::from_parts`] accepts 0 (no tag cache) or a power of two
/// up to this bound, so every size the experiments use passes and a
/// hostile size is refused before it reaches the machine constructor.
pub const MAX_TAG_KB: usize = 1024;

/// One point on the pointer-strategy axis. The capability width
/// (256-bit research / 128-bit production format) is part of the
/// strategy, because it changes both the compiled code and the machine
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Unmodified MIPS code (the baseline).
    Mips,
    /// CCured-style software fat pointers, checked everywhere.
    Ccured,
    /// Software fat pointers with straight-line check elision (§8).
    CcuredElide,
    /// CHERI capabilities, 256-bit research format.
    Cheri256,
    /// CHERI capabilities, 128-bit production format.
    Cheri128,
}

impl StrategyKind {
    /// Every strategy, in canonical report order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Mips,
        StrategyKind::Ccured,
        StrategyKind::CcuredElide,
        StrategyKind::Cheri256,
        StrategyKind::Cheri128,
    ];

    /// The canonical name (matches `PtrStrategy::name`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Mips => "mips",
            StrategyKind::Ccured => "ccured",
            StrategyKind::CcuredElide => "ccured-elide",
            StrategyKind::Cheri256 => "cheri",
            StrategyKind::Cheri128 => "cheri128",
        }
    }

    /// Resolves a strategy by name, accepting the aliases the
    /// harnesses have always taken on the command line.
    #[must_use]
    pub fn parse(name: &str) -> Option<StrategyKind> {
        Some(match name {
            "mips" | "legacy" => StrategyKind::Mips,
            "ccured" | "soft" => StrategyKind::Ccured,
            "ccured-elide" | "elide" => StrategyKind::CcuredElide,
            "cheri" | "cap" | "c256" => StrategyKind::Cheri256,
            "cheri128" | "c128" => StrategyKind::Cheri128,
            _ => return None,
        })
    }

    /// Instantiates the compiler strategy.
    #[must_use]
    pub fn strategy(self) -> Box<dyn PtrStrategy> {
        match self {
            StrategyKind::Mips => Box::new(LegacyPtr),
            StrategyKind::Ccured => Box::new(SoftFatPtr::checked()),
            StrategyKind::CcuredElide => Box::new(SoftFatPtr::eliding()),
            StrategyKind::Cheri256 => Box::new(CapPtr::c256()),
            StrategyKind::Cheri128 => Box::new(CapPtr::c128()),
        }
    }

    /// Capability width in bits (0 for non-capability code).
    #[must_use]
    pub fn cap_bits(self) -> u64 {
        match self {
            StrategyKind::Cheri256 => 256,
            StrategyKind::Cheri128 => 128,
            _ => 0,
        }
    }

    /// Whether this strategy exercises the capability coprocessor (and
    /// therefore the tag-cache axis).
    #[must_use]
    pub fn is_capability(self) -> bool {
        self.cap_bits() != 0
    }
}

/// Figure 4's three compilation modes, baseline first.
pub const FIGURE4_STRATEGIES: [StrategyKind; 3] =
    [StrategyKind::Mips, StrategyKind::Ccured, StrategyKind::Cheri256];

/// Figure 5's heap-size sweep pair.
pub const HEAPSIZE_STRATEGIES: [StrategyKind; 2] = [StrategyKind::Mips, StrategyKind::Cheri256];

/// The capability-width ablation triple.
pub const CAPWIDTH_STRATEGIES: [StrategyKind; 3] =
    [StrategyKind::Mips, StrategyKind::Cheri256, StrategyKind::Cheri128];

/// The check-elision ablation triple.
pub const ELISION_STRATEGIES: [StrategyKind; 3] =
    [StrategyKind::Mips, StrategyKind::Ccured, StrategyKind::CcuredElide];

/// The §4.2 tag-cache size ablation axis, in KB (0 = no tag cache).
pub const TAG_ABLATION_KB: [usize; 7] = [0, 1, 2, 4, 8, 16, 64];

/// One fully specified experiment: a workload at a problem size, a
/// pointer strategy, and a machine tag-cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// The guest workload (Olden kernel or runtime-system workload).
    pub workload: Workload,
    /// The pointer strategy (includes the capability width).
    pub strategy: StrategyKind,
    /// Tag-cache capacity in KB (0 = none).
    pub tag_cache_kb: usize,
    /// Problem sizes.
    pub params: OldenParams,
    /// The sweep-point label for parameterised sweeps (Figure 5's
    /// x-axis value); `None` for single-point experiments.
    pub variant: Option<u32>,
}

impl JobSpec {
    /// A spec at the default tag-cache size with no variant label.
    #[must_use]
    pub fn new(workload: Workload, strategy: StrategyKind, params: OldenParams) -> JobSpec {
        JobSpec { workload, strategy, tag_cache_kb: DEFAULT_TAG_CACHE_KB, params, variant: None }
    }

    /// Resolves a spec from its named parts — the one constructor every
    /// by-name surface (`profbin` flags, the `cheri-serve` wire
    /// protocol) goes through, so a job spelled the same way always
    /// means the same experiment, and one place checks what a caller
    /// may ask for.
    ///
    /// # Errors
    ///
    /// Names the unknown workload or strategy, or the field `tag_kb`
    /// when the size is neither 0 nor a power of two up to
    /// [`MAX_TAG_KB`] (the tag controller indexes a power-of-two
    /// geometry).
    pub fn from_parts(
        workload: &str,
        strategy: &str,
        tag_cache_kb: usize,
        params: OldenParams,
    ) -> Result<JobSpec, String> {
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
        let strategy = StrategyKind::parse(strategy)
            .ok_or_else(|| format!("unknown strategy '{strategy}'"))?;
        if tag_cache_kb != 0 && !(tag_cache_kb.is_power_of_two() && tag_cache_kb <= MAX_TAG_KB) {
            return Err(format!(
                "field 'tag_kb' must be 0 or a power of two up to {MAX_TAG_KB}, got {tag_cache_kb}"
            ));
        }
        Ok(JobSpec { workload, strategy, tag_cache_kb, params, variant: None })
    }

    /// The canonical serialization of this job's *complete*
    /// configuration: every field that influences the result (workload,
    /// strategy, tag-cache size, variant label, and all problem-size
    /// parameters) in a fixed order with fixed formatting. Two specs
    /// describe the same experiment iff their canonical forms are
    /// byte-equal — this is the `cheri-serve` result-cache and
    /// snapshot-pool key, so requests that spell the same job with
    /// different JSON field order or whitespace dedup onto one entry.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        use cheri_trace::json::JsonWriter;
        let mut w = JsonWriter::object();
        w.str_field("workload", self.workload.name());
        w.str_field("strategy", self.strategy.name());
        w.u64_field("tag_cache_kb", self.tag_cache_kb as u64);
        match self.variant {
            Some(v) => w.u64_field("variant", u64::from(v)),
            None => w.raw_field("variant", "null"),
        }
        w.raw_field("params", &self.params.canonical_json());
        w.close()
    }

    /// The unique report key: `workload/strategy/tagNN[/pVV]`.
    #[must_use]
    pub fn key(&self) -> String {
        let mut k =
            format!("{}/{}/tag{}", self.workload.name(), self.strategy.name(), self.tag_cache_kb);
        if let Some(v) = self.variant {
            use std::fmt::Write as _;
            let _ = write!(k, "/p{v}");
        }
        k
    }

    /// The machine configuration for this job: memory sized for the
    /// workload ([`Workload::mem_needed`]), the capability format of the
    /// strategy (the 128-bit strategy needs a 16-byte-granule machine),
    /// and the tag cache as specified.
    #[must_use]
    pub fn machine_config(&self) -> MachineConfig {
        let cap_format = match self.strategy {
            StrategyKind::Cheri128 => CapFormat::C128,
            _ => CapFormat::C256,
        };
        MachineConfig {
            mem_bytes: self.workload.mem_needed(&self.params, self.strategy.strategy().as_ref()),
            tag_cache_bytes: self.tag_cache_kb * 1024,
            cap_format,
            ..MachineConfig::default()
        }
    }
}

/// A completed job: the spec it ran plus the full measured run (phase
/// statistics, checksums, and the unified metrics snapshot).
#[derive(Clone, Debug)]
pub struct JobResult {
    /// What ran.
    pub spec: JobSpec,
    /// What was measured.
    pub run: BenchRun,
}

/// How [`run_job`] runs a job: the closed set of run shapes the
/// harnesses and the service use.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// Boot and run to completion.
    Plain,
    /// As [`Mode::Plain`] with the symbolized guest profiler attached
    /// for the whole run; the finished profile lands in
    /// [`JobRun::profile`]. Profiling is observational, so the result is
    /// byte-identical to a plain run's.
    Profiled,
    /// As [`Mode::Plain`], also capturing the warm-start snapshot at the
    /// [`WARM_SNAPSHOT_PHASE`] boundary into [`JobRun::snapshot`]
    /// (`None` if the workload exits before reaching it).
    Split,
    /// Boot and stop at the [`WARM_SNAPSHOT_PHASE`] boundary, returning
    /// its snapshot and no result: the service's prewarm, which pays
    /// compile, exec and allocation but not the computation phase. A
    /// workload that exits first returns its complete result instead.
    BootOnly,
    /// Restore a [`Mode::Split`] snapshot and run the remainder. The
    /// result is byte-identical to the cold run the snapshot came from;
    /// only the configuration's `block_cache` applies.
    Resume(&'a cheri_snap::Snapshot),
}

/// What [`run_job`] produced.
#[derive(Debug)]
pub struct JobRun {
    /// The completed job; `None` only for a [`Mode::BootOnly`] run that
    /// stopped at the phase boundary.
    pub result: Option<JobResult>,
    /// The snapshot [`Mode::Split`] or [`Mode::BootOnly`] captured.
    pub snapshot: Option<cheri_snap::Snapshot>,
    /// The [`Mode::Profiled`] profile.
    pub profile: Option<cheri_prof::ProfileReport>,
}

/// The phase id at which warm-start snapshots are taken. Every Olden
/// workload issues `SYS_PHASE 2` when its computation phase begins, so
/// a snapshot here has compilation, exec, and allocation already paid
/// for — the warm pass replays only the computation.
pub const WARM_SNAPSHOT_PHASE: u64 = 2;

/// Runs one job in the given [`Mode`]: the one execution path behind
/// every batch, warm, profiled and served run.
///
/// `span(phase, is_begin)`, when given, brackets the run's phases:
/// `"boot"` covers module start (through the phase boundary for
/// [`Mode::Split`] and [`Mode::BootOnly`]), `"restore"` the
/// [`Mode::Resume`] restore, `"simulate"` the run to completion. Ends
/// are emitted on error paths too, so a span stream built from the hook
/// always balances. Batch callers pass `None`: observed and unobserved
/// runs are one code path, which keeps telemetry out of the
/// byte-identity argument.
///
/// # Errors
///
/// Compile, OS and snapshot-restore errors rendered as strings (job
/// context is added by the callers).
pub fn run_job(
    spec: &JobSpec,
    cfg: MachineConfig,
    mode: Mode<'_>,
    span: Option<&mut dyn FnMut(&'static str, bool)>,
) -> Result<JobRun, String> {
    let mut unobserved = |_: &'static str, _: bool| {};
    let span = span.unwrap_or(&mut unobserved);
    let mut out = JobRun { result: None, snapshot: None, profile: None };
    let mut session = if let Mode::Resume(snap) = mode {
        span("restore", true);
        let restored = BenchSession::resume(snap, spec.strategy.name(), cfg.block_cache);
        span("restore", false);
        restored.map_err(|e| e.to_string())?
    } else {
        let split = matches!(mode, Mode::Split | Mode::BootOnly);
        span("boot", true);
        let booted = boot(spec, cfg, matches!(mode, Mode::Profiled)).and_then(|mut session| {
            let early = if split {
                session.run_until_phase(WARM_SNAPSHOT_PHASE).map_err(|e| e.to_string())?
            } else {
                None
            };
            Ok((session, early))
        });
        span("boot", false);
        let (session, early) = booted?;
        if let Some(run) = early {
            out.result = Some(JobResult { spec: *spec, run });
            return Ok(out);
        }
        if split {
            out.snapshot = Some(session.snapshot());
        }
        if let Mode::BootOnly = mode {
            return Ok(out);
        }
        session
    };
    span("simulate", true);
    let run = session.run_to_completion().map_err(|e| e.to_string());
    span("simulate", false);
    out.result = Some(JobResult { spec: *spec, run: run? });
    if let Mode::Profiled = mode {
        out.profile = Some(session.take_profile().ok_or("profiled session lost its profiler")?);
    }
    Ok(out)
}

/// Compiles the job's module under its strategy and boots it, with the
/// profiler attached if `profiled`: the one boot every [`run_job`] mode
/// but [`Mode::Resume`] shares.
fn boot(spec: &JobSpec, cfg: MachineConfig, profiled: bool) -> Result<BenchSession, String> {
    let strategy = spec.strategy.strategy();
    let module = spec.workload.module(&spec.params);
    let prof = profiled.then(|| Box::new(cheri_prof::Profiler::new()));
    BenchSession::start_module(&module, strategy.as_ref(), cfg, prof).map_err(|e| e.to_string())
}

/// [`run_job`] in [`Mode::Plain`] with an explicit machine configuration;
/// `span` is [`run_job`]'s phase hook.
///
/// # Errors
///
/// As [`run_job`].
pub fn run_spec_with_config(
    spec: &JobSpec,
    cfg: MachineConfig,
    span: Option<&mut dyn FnMut(&'static str, bool)>,
) -> Result<JobResult, String> {
    run_job(spec, cfg, Mode::Plain, span).map(|r| r.result.expect("plain runs complete"))
}

/// Runs `specs` in [`Mode::Plain`] across `threads` worker threads (each
/// job owns its own machine) and returns results in spec order,
/// independent of thread count and scheduling.
///
/// # Panics
///
/// Panics with the job key if any job fails — a failed run on the
/// canonical matrix is a harness bug, not a reportable datum.
#[must_use]
pub fn run_jobs(specs: &[JobSpec], threads: usize) -> Vec<JobResult> {
    engine::run_indexed(specs.len(), threads, |i| {
        let spec = &specs[i];
        run_spec_with_config(spec, spec.machine_config(), None)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.key()))
    })
}

/// The `xsweep` problem-size / matrix-density presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: scaled parameters, default tag cache only (the
    /// `sweep-gate` matrix).
    Smoke,
    /// The default: medium parameters, tag-cache axis on capability
    /// strategies.
    Full,
    /// The paper's parameters (minutes of host time per job).
    Paper,
}

impl Profile {
    /// The profile's name as spelled on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
            Profile::Paper => "paper",
        }
    }

    /// Parses a `--profile` argument.
    #[must_use]
    pub fn parse(name: &str) -> Option<Profile> {
        Some(match name {
            "smoke" => Profile::Smoke,
            "full" => Profile::Full,
            "paper" => Profile::Paper,
            _ => return None,
        })
    }

    /// The problem sizes this profile runs.
    #[must_use]
    pub fn params(self) -> OldenParams {
        match self {
            Profile::Smoke => OldenParams::scaled(),
            Profile::Full => OldenParams::medium(),
            Profile::Paper => OldenParams::paper(),
        }
    }

    /// The tag-cache axis applied to capability strategies.
    #[must_use]
    pub fn tag_cache_axis(self) -> &'static [usize] {
        match self {
            Profile::Smoke => &[DEFAULT_TAG_CACHE_KB],
            Profile::Full | Profile::Paper => &[4, DEFAULT_TAG_CACHE_KB, 16],
        }
    }
}

/// Expands a profile into the full experiment matrix: workload ×
/// strategy, with the tag-cache axis applied to capability strategies
/// (non-capability code never touches the tag controller, so extra
/// tag-cache points would measure nothing).
#[must_use]
pub fn profile_matrix(profile: Profile) -> Vec<JobSpec> {
    let params = profile.params();
    let mut specs = Vec::new();
    for workload in Workload::ALL {
        for strategy in StrategyKind::ALL {
            let tag_axis: &[usize] = if strategy.is_capability() {
                profile.tag_cache_axis()
            } else {
                &[DEFAULT_TAG_CACHE_KB]
            };
            for &tag_cache_kb in tag_axis {
                specs.push(JobSpec { workload, strategy, tag_cache_kb, params, variant: None });
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn strategy_names_roundtrip() {
        for s in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(s.name()), Some(s));
            assert_eq!(s.strategy().name(), s.name());
        }
        assert_eq!(StrategyKind::parse("c128"), Some(StrategyKind::Cheri128));
        assert_eq!(StrategyKind::parse("bogus"), None);
    }

    #[test]
    fn smoke_matrix_shape() {
        let specs = profile_matrix(Profile::Smoke);
        // 6 workloads × (3 non-cap + 2 cap × 1 tag size).
        assert_eq!(specs.len(), 30);
        let keys: BTreeSet<String> = specs.iter().map(JobSpec::key).collect();
        assert_eq!(keys.len(), specs.len(), "job keys must be unique");
        for w in ["vmloop", "allocstress"] {
            assert!(keys.iter().any(|k| k.starts_with(w)), "{w} missing from the matrix");
        }
    }

    #[test]
    fn full_matrix_shape() {
        let specs = profile_matrix(Profile::Full);
        // 6 workloads × (3 non-cap + 2 cap × 3 tag sizes).
        assert_eq!(specs.len(), 54);
        assert!(specs.iter().any(|s| s.tag_cache_kb == 4 && s.strategy.is_capability()));
        assert!(!specs.iter().any(|s| s.tag_cache_kb != 8 && !s.strategy.is_capability()));
    }

    #[test]
    fn spec_key_format() {
        let mut spec =
            JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, OldenParams::scaled());
        assert_eq!(spec.key(), "treeadd/cheri/tag8");
        spec.variant = Some(12);
        assert_eq!(spec.key(), "treeadd/cheri/tag8/p12");
    }

    #[test]
    fn from_parts_matches_direct_construction() {
        let p = OldenParams::scaled();
        let spec = JobSpec::from_parts("treeadd", "cheri", 8, p).unwrap();
        assert_eq!(spec.key(), "treeadd/cheri/tag8");
        // Aliases resolve to the same spec as canonical names.
        let alias = JobSpec::from_parts("treeadd", "c256", 8, p).unwrap();
        assert_eq!(alias.canonical_json(), spec.canonical_json());
        // The runtime-system workloads are first-class citizens.
        let vm = JobSpec::from_parts("vmloop", "cheri128", 8, p).unwrap();
        assert_eq!(vm.key(), "vmloop/cheri128/tag8");
        let al = JobSpec::from_parts("allocstress", "mips", 8, p).unwrap();
        assert_eq!(al.key(), "allocstress/mips/tag8");
        assert_eq!(
            JobSpec::from_parts("nosuch", "cheri", 8, p).unwrap_err(),
            "unknown workload 'nosuch'"
        );
        assert_eq!(
            JobSpec::from_parts("treeadd", "nosuch", 8, p).unwrap_err(),
            "unknown strategy 'nosuch'"
        );
    }

    #[test]
    fn canonical_json_covers_every_field() {
        let p = OldenParams::scaled();
        let base = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, p);
        let canon = base.canonical_json();
        // Stable under re-serialization.
        assert_eq!(base.canonical_json(), canon);
        // Every single-field change shows up.
        let variants = [
            JobSpec { workload: Workload::Mst, ..base },
            JobSpec { workload: Workload::Vmloop, ..base },
            JobSpec { strategy: StrategyKind::Cheri128, ..base },
            JobSpec { tag_cache_kb: 16, ..base },
            JobSpec { variant: Some(3), ..base },
            JobSpec { params: OldenParams { treeadd_depth: p.treeadd_depth + 1, ..p }, ..base },
            JobSpec { params: OldenParams { vm_sort: p.vm_sort + 1, ..p }, ..base },
            JobSpec { params: OldenParams { alloc_slots: p.alloc_slots + 1, ..p }, ..base },
        ];
        for v in variants {
            assert_ne!(v.canonical_json(), canon, "{v:?} must change the canonical form");
        }
        // The embedded params object is exactly the params codec's
        // canonical form, so the two cannot drift.
        assert!(canon.contains(&p.canonical_json()));
    }

    #[test]
    fn machine_config_follows_strategy() {
        use beri_sim::machine::CapFormat;
        let p = OldenParams::scaled();
        let c128 = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri128, p).machine_config();
        assert_eq!(c128.cap_format, CapFormat::C128);
        let c256 = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, p).machine_config();
        assert_eq!(c256.cap_format, CapFormat::C256);
        let spec =
            JobSpec { tag_cache_kb: 64, ..JobSpec::new(Workload::Mst, StrategyKind::Cheri256, p) };
        assert_eq!(spec.machine_config().tag_cache_bytes, 64 * 1024);
    }

    #[test]
    fn figure4_order_is_baseline_first() {
        assert_eq!(FIGURE4_STRATEGIES[0], StrategyKind::Mips);
        assert_eq!(FIGURE4_STRATEGIES[1], StrategyKind::Ccured);
        assert_eq!(FIGURE4_STRATEGIES[2], StrategyKind::Cheri256);
    }
}
