//! The four FPGA benchmarks of Section 8, authored in the `cheri-cc` IR.
//!
//! "The four benchmarks were bisort, mst, treeadd and perimeter. To
//! enable comparison, we ran the benchmarks with the same parameters as
//! used in the evaluation of Hardbound: bisort 250000 0, mst 1024 0,
//! treeadd 21 1 0 and perimeter 12 0."
//!
//! Each module:
//!
//! * issues `SYS_PHASE 1` when allocation begins and `SYS_PHASE 2` when
//!   computation begins (Figure 4 "decomposed into allocation and
//!   computation phases"), and `SYS_PHASE 3` before any verification
//!   epilogue;
//! * prints its result checksum(s) via `SYS_PRINT`, so harnesses assert
//!   that the MIPS, CCured-style and CHERI binaries computed the same
//!   answer.

mod bisort;
mod mst;
mod perimeter;
mod treeadd;

use beri_sim::machine::CapFormat;
use beri_sim::{MachineConfig, Stats};
use cheri_asm::Program;
use cheri_cc::ir::Module;
use cheri_cc::strategy::PtrStrategy;
use cheri_cc::{compile, CompileError};
use cheri_os::{boot, Kernel, KernelConfig, OsError, RunOutcome};

use crate::params::OldenParams;

/// One of the Section 8 benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DslBench {
    /// Bitonic sort over a perfect binary tree.
    Bisort,
    /// Minimum spanning tree with per-vertex hash tables.
    Mst,
    /// Recursive binary-tree summation.
    Treeadd,
    /// Quadtree image perimeter.
    Perimeter,
}

impl DslBench {
    /// All four, in the paper's Figure 4 order.
    pub const ALL: [DslBench; 4] =
        [DslBench::Bisort, DslBench::Mst, DslBench::Treeadd, DslBench::Perimeter];

    /// The benchmark's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DslBench::Bisort => "bisort",
            DslBench::Mst => "mst",
            DslBench::Treeadd => "treeadd",
            DslBench::Perimeter => "perimeter",
        }
    }

    /// Builds the IR module at the given problem size.
    #[must_use]
    pub fn module(self, p: &OldenParams) -> Module {
        match self {
            DslBench::Bisort => bisort::module(p.bisort_log2),
            DslBench::Mst => mst::module(p.mst_vertices, p.mst_degree),
            DslBench::Treeadd => treeadd::module(p.treeadd_depth),
            DslBench::Perimeter => perimeter::module(p.perimeter_levels),
        }
    }

    /// A rough physical-memory requirement for the workload under the
    /// given strategy (heap + headroom), used to size the machine.
    #[must_use]
    pub fn mem_needed(self, p: &OldenParams, strategy: &dyn PtrStrategy) -> usize {
        let ptr = strategy.ptr_size();
        let node = (8 + 2 * ptr).div_ceil(32) * 32; // worst-case rounding
        let heap = match self {
            DslBench::Treeadd => (1u64 << (p.treeadd_depth + 1)) * node,
            DslBench::Bisort => (1u64 << (p.bisort_log2 + 1)) * node,
            DslBench::Perimeter => {
                // Nodes scale with the image perimeter, ~O(2^levels · levels).
                (1u64 << p.perimeter_levels) * 64 * (8 + 4 * ptr)
            }
            DslBench::Mst => {
                let per_vertex = 16 + 3 * ptr // vertex
                    + 16 * ptr // buckets
                    + u64::from(2 * (p.mst_degree + 1)) * (16 + 2 * ptr).div_ceil(32) * 32;
                u64::from(p.mst_vertices) * per_vertex * 2
            }
        };
        usize::try_from(heap.div_ceil(1 << 20) + 8).expect("sane size") << 20
    }
}

/// Builds a machine configuration sized for the workload with the
/// capability format matching the strategy (the 128-bit strategy needs
/// a 16-byte-granule machine).
#[must_use]
pub fn machine_config(
    bench: DslBench,
    params: &OldenParams,
    strategy: &dyn PtrStrategy,
) -> MachineConfig {
    MachineConfig {
        mem_bytes: bench.mem_needed(params, strategy),
        cap_format: if strategy.ptr_size() == 16 { CapFormat::C128 } else { CapFormat::C256 },
        ..MachineConfig::default()
    }
}

/// The measured run of one benchmark binary.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Strategy ("mips", "ccured", "cheri", ...).
    pub mode: &'static str,
    /// Kernel-level outcome (exit, stats, prints, pages).
    pub outcome: RunOutcome,
    /// Statistics of the allocation phase (phase 1 → phase 2).
    pub alloc: Stats,
    /// Statistics of the computation phase (phase 2 → phase 3 or end of
    /// run).
    pub compute: Stats,
    /// Bytes of heap the program bump-allocated (the Figure 5 x-axis
    /// for the baseline binary).
    pub heap_used: u64,
}

impl BenchRun {
    /// The benchmark's printed checksums.
    #[must_use]
    pub fn checksums(&self) -> &[u64] {
        &self.outcome.prints
    }

    /// Total cycles across allocation + computation (excludes any
    /// verification epilogue).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.alloc.cycles + self.compute.cycles
    }
}

/// Compiles `bench` under `strategy`.
///
/// # Errors
///
/// Propagates [`CompileError`].
pub fn compile_bench(
    bench: DslBench,
    params: &OldenParams,
    strategy: &dyn PtrStrategy,
) -> Result<Program, CompileError> {
    compile(&bench.module(params), strategy, cheri_cc::codegen::CompileOpts::default())
}

/// Compiles an arbitrary IR module under `strategy` and converts its
/// symbol table (function name → PC range) to the profiler's form, for
/// profiled runs.
///
/// # Errors
///
/// Propagates [`CompileError`].
pub fn compile_module_with_symbols(
    module: &Module,
    strategy: &dyn PtrStrategy,
) -> Result<(Program, cheri_prof::SymbolTable), CompileError> {
    let (program, syms) = cheri_cc::compile_with_symbols(
        module,
        strategy,
        cheri_cc::codegen::CompileOpts::default(),
    )?;
    let defs = syms
        .iter()
        .map(|s| cheri_prof::SymbolDef { name: s.name.to_string(), start: s.start, end: s.end })
        .collect();
    Ok((program, cheri_prof::SymbolTable::new(defs)))
}

/// Compiles and runs `bench` under `strategy` on a fresh kernel/machine,
/// decomposing the run into allocation and computation phases.
///
/// # Errors
///
/// Returns compile errors ([`cheri_cc::CompileError`]) and OS/run errors
/// ([`cheri_os::OsError`]) boxed under one trait object.
pub fn run_bench(
    bench: DslBench,
    params: &OldenParams,
    strategy: &dyn PtrStrategy,
    machine: MachineConfig,
) -> Result<BenchRun, Box<dyn std::error::Error>> {
    let mut session = BenchSession::start_module(&bench.module(params), strategy, machine, None)?;
    Ok(session.run_to_completion()?)
}

/// The runaway guard for benchmark runs: paper-scale bisort retires
/// ~10^10 instructions, so the default [`KernelConfig`] budget (sized
/// for tests) is far too tight.
pub const RUNAWAY_BUDGET: u64 = 200_000_000_000;

/// A benchmark run that can be paused, snapshotted, and resumed.
///
/// [`BenchSession::start_module`] compiles and execs a workload module;
/// the session then runs to completion in one call, or in pieces via
/// [`BenchSession::run_until_phase`] / [`BenchSession::run_for`] with
/// [`BenchSession::snapshot`] at any stop. A snapshot restored via
/// [`BenchSession::resume`] finishes with results bit-identical to the
/// uninterrupted run — the warm-start sweep mode and the `snapreplay`
/// triage tool are both built on this.
pub struct BenchSession {
    kernel: Kernel,
    mode: &'static str,
}

impl BenchSession {
    /// Compiles `module` under `strategy`, boots a kernel sized by
    /// `machine`, attaches `sink`, and execs the program — everything up
    /// to (but not including) the first instruction. The sink is
    /// attached after boot and before `exec`, so its event stream covers
    /// exactly the instructions the legacy counters cover. The session
    /// neither knows nor cares which workload built the module, so any
    /// guest program with the Phase/Print conventions (the `cheri-work`
    /// workloads) runs, snapshots, and resumes exactly like the Olden
    /// four.
    ///
    /// # Errors
    ///
    /// Compile errors and OS exec errors, boxed as in [`run_bench`].
    pub fn start_module(
        module: &Module,
        strategy: &dyn PtrStrategy,
        machine: MachineConfig,
        sink: Option<cheri_trace::SharedSink>,
    ) -> Result<BenchSession, Box<dyn std::error::Error>> {
        BenchSession::start_inner(module, strategy, machine, sink, false)
    }

    /// [`BenchSession::start_module`] with a [`cheri_prof::Profiler`]
    /// attached (loaded with the module's symbol table). The profiler
    /// goes on before `exec` on the freshly booted machine, so its
    /// attribution covers every counted event and the per-function sums
    /// equal the final global counters. Collect the result with
    /// [`BenchSession::take_profile`].
    ///
    /// # Errors
    ///
    /// As [`BenchSession::start_module`].
    pub fn start_module_profiled(
        module: &Module,
        strategy: &dyn PtrStrategy,
        machine: MachineConfig,
        sink: Option<cheri_trace::SharedSink>,
    ) -> Result<BenchSession, Box<dyn std::error::Error>> {
        BenchSession::start_inner(module, strategy, machine, sink, true)
    }

    fn start_inner(
        module: &Module,
        strategy: &dyn PtrStrategy,
        machine: MachineConfig,
        sink: Option<cheri_trace::SharedSink>,
        profiled: bool,
    ) -> Result<BenchSession, Box<dyn std::error::Error>> {
        let (program, symbols) = compile_module_with_symbols(module, strategy)?;
        let user_top = (machine.mem_bytes as u64).max(16 << 20) + (16 << 20);
        let layout = cheri_os::ProcessLayout {
            stack_top: user_top - 4096,
            user_top,
            ..cheri_os::ProcessLayout::default()
        };
        let mut kernel = boot(KernelConfig {
            machine,
            layout,
            max_instructions: RUNAWAY_BUDGET,
            ..KernelConfig::default()
        });
        kernel.set_trace_sink(sink);
        if profiled {
            let mut prof = Box::new(cheri_prof::Profiler::new());
            prof.set_symbols(symbols);
            kernel.machine_mut().set_profiler(Some(prof));
        }
        kernel.exec(&program)?;
        Ok(BenchSession { kernel, mode: strategy.name() })
    }

    /// Detaches the profiler (if [`BenchSession::start_module_profiled`] was
    /// used) and finishes it into a [`cheri_prof::ProfileReport`].
    pub fn take_profile(&mut self) -> Option<cheri_prof::ProfileReport> {
        self.kernel.machine_mut().take_profiler().map(|p| p.into_report())
    }

    /// Resurrects a session from a snapshot alone (no recompilation —
    /// the code image lives in the snapshotted memory). `mode` labels
    /// the resulting [`BenchRun`] and `block_cache` picks the simulator
    /// fast path, which is transparent to all results.
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if the snapshot is machine-only or
    /// malformed.
    pub fn resume(
        snap: &cheri_snap::Snapshot,
        mode: &'static str,
        block_cache: bool,
    ) -> Result<BenchSession, cheri_snap::SnapError> {
        let kernel = Kernel::resume(snap, block_cache, RUNAWAY_BUDGET)?;
        Ok(BenchSession { kernel, mode })
    }

    /// Captures the complete machine + kernel state.
    #[must_use]
    pub fn snapshot(&self) -> cheri_snap::Snapshot {
        self.kernel.snapshot()
    }

    /// Runs to process exit and decomposes the outcome into phases.
    ///
    /// # Errors
    ///
    /// As [`Kernel::run`].
    pub fn run_to_completion(&mut self) -> Result<BenchRun, OsError> {
        let outcome = self.kernel.run()?;
        Ok(self.finish(outcome))
    }

    /// Runs until the workload issues `SYS_PHASE phase_id`, the natural
    /// warm-start snapshot boundary (`Ok(None)`, still live), or to
    /// completion if the phase never arrives (`Ok(Some(run))`).
    ///
    /// # Errors
    ///
    /// As [`Kernel::run_until_phase`].
    pub fn run_until_phase(&mut self, phase_id: u64) -> Result<Option<BenchRun>, OsError> {
        let out = self.kernel.run_until_phase(phase_id)?;
        Ok(out.map(|o| self.finish(o)))
    }

    /// Runs for exactly `steps` retired instructions (`Ok(None)`, still
    /// live) or to completion if it exits first (`Ok(Some(run))`).
    ///
    /// # Errors
    ///
    /// As [`Kernel::run_for`].
    pub fn run_for(&mut self, steps: u64) -> Result<Option<BenchRun>, OsError> {
        let out = self.kernel.run_for(steps)?;
        Ok(out.map(|o| self.finish(o)))
    }

    /// Splits an outcome into phase statistics.
    fn finish(&self, outcome: RunOutcome) -> BenchRun {
        let at = |id: u64| outcome.phases.iter().find(|p| p.id == id).map(|p| p.stats);
        let p1 = at(1).unwrap_or_default();
        let p2 = at(2).unwrap_or(outcome.stats);
        let p3 = at(3).unwrap_or(outcome.stats);
        BenchRun {
            mode: self.mode,
            outcome: outcome.clone(),
            alloc: p2.since(&p1),
            compute: p3.since(&p2),
            heap_used: self.kernel.heap_used().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cc::strategy::{CapPtr, LegacyPtr, SoftFatPtr};
    use cheri_os::ExitReason;

    fn cfg(bench: DslBench, p: &OldenParams, s: &dyn PtrStrategy) -> MachineConfig {
        MachineConfig { mem_bytes: bench.mem_needed(p, s), ..MachineConfig::default() }
    }

    /// All four benchmarks produce identical checksums under all three
    /// compilation modes — the core cross-mode validity property of the
    /// Figure 4 experiment.
    #[test]
    fn checksums_agree_across_modes() {
        let p = OldenParams::scaled();
        for bench in DslBench::ALL {
            let mut sums: Vec<Vec<u64>> = Vec::new();
            let strategies: [&dyn PtrStrategy; 3] =
                [&LegacyPtr, &SoftFatPtr::checked(), &CapPtr::c256()];
            for s in strategies {
                let run = run_bench(bench, &p, s, cfg(bench, &p, s))
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", bench.name(), s.name()));
                assert!(
                    matches!(run.outcome.exit, ExitReason::Exit(_)),
                    "{} [{}] exited {:?}",
                    bench.name(),
                    s.name(),
                    run.outcome.exit
                );
                sums.push(run.checksums().to_vec());
            }
            assert!(!sums[0].is_empty(), "{} printed nothing", bench.name());
            assert_eq!(sums[0], sums[1], "{}: mips vs ccured", bench.name());
            assert_eq!(sums[0], sums[2], "{}: mips vs cheri", bench.name());
        }
    }

    #[test]
    fn bisort_sorts() {
        let p = OldenParams::scaled();
        let run =
            run_bench(DslBench::Bisort, &p, &LegacyPtr, cfg(DslBench::Bisort, &p, &LegacyPtr))
                .unwrap();
        // First print: violation count (0 = sorted); then the leaf sums
        // before/after, which must match.
        let sums = run.checksums();
        assert_eq!(sums[0], 0, "bisort produced an unsorted tree");
        assert_eq!(sums[1], sums[2], "sort must preserve the multiset of values");
    }

    #[test]
    fn phases_are_recorded() {
        let p = OldenParams::scaled();
        let run =
            run_bench(DslBench::Treeadd, &p, &LegacyPtr, cfg(DslBench::Treeadd, &p, &LegacyPtr))
                .unwrap();
        assert!(run.alloc.instructions > 0, "allocation phase missing");
        assert!(run.compute.instructions > 0, "computation phase missing");
        assert!(run.total_cycles() > 0);
    }

    #[test]
    fn cheri_total_overhead_is_moderate_on_treeadd() {
        // Figure 4: treeadd CHERI total overhead is tens of percent,
        // while CCured-style checking costs much more.
        let p = OldenParams::scaled().with_treeadd_depth(13);
        let runs: Vec<BenchRun> = {
            let strategies: [&dyn PtrStrategy; 3] =
                [&LegacyPtr, &SoftFatPtr::checked(), &CapPtr::c256()];
            strategies
                .iter()
                .map(|s| {
                    run_bench(DslBench::Treeadd, &p, *s, cfg(DslBench::Treeadd, &p, *s)).unwrap()
                })
                .collect()
        };
        let base = runs[0].total_cycles() as f64;
        let ccured = runs[1].total_cycles() as f64 / base;
        let cheri = runs[2].total_cycles() as f64 / base;
        assert!(cheri < ccured, "CHERI ({cheri}) must beat CCured ({ccured})");
        assert!(cheri < 2.0, "CHERI overhead should stay moderate: {cheri}");
    }

    /// The compressed 128-bit format (16-byte machine granule) computes
    /// the same results as the 256-bit research format with strictly
    /// less memory traffic — the Section 8 compression conclusion.
    #[test]
    fn cap128_matches_cap256_with_less_traffic() {
        let p = OldenParams::scaled();
        for bench in [DslBench::Treeadd, DslBench::Bisort] {
            let mut runs = Vec::new();
            for s in [&CapPtr::c256() as &dyn PtrStrategy, &CapPtr::c128()] {
                let cfg = machine_config(bench, &p, s);
                runs.push(run_bench(bench, &p, s, cfg).unwrap());
            }
            assert_eq!(
                runs[0].checksums(),
                runs[1].checksums(),
                "{}: 128-bit result differs",
                bench.name()
            );
            assert!(
                runs[1].outcome.stats.memory_bytes() < runs[0].outcome.stats.memory_bytes(),
                "{}: compression must reduce traffic",
                bench.name()
            );
            assert!(
                runs[1].total_cycles() < runs[0].total_cycles(),
                "{}: compression must reduce cycles",
                bench.name()
            );
        }
    }

    #[test]
    fn mem_needed_scales_with_strategy() {
        let p = OldenParams::paper();
        assert!(
            DslBench::Treeadd.mem_needed(&p, &CapPtr::c256())
                > DslBench::Treeadd.mem_needed(&p, &LegacyPtr)
        );
    }
}
