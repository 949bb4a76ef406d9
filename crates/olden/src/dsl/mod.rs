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
//!
//! The modules only build IR. The workload registry
//! (`cheri_work::REGISTRY`) names them, sizes their heaps and calls
//! their builders; [`BenchSession`] here runs any such module.

pub mod bisort;
pub mod mst;
pub mod perimeter;
pub mod treeadd;

use beri_sim::{MachineConfig, Stats};
use cheri_asm::Program;
use cheri_cc::ir::Module;
use cheri_cc::strategy::PtrStrategy;
use cheri_cc::CompileError;
use cheri_os::{boot, Kernel, KernelConfig, OsError, RunOutcome};

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
    let (program, syms) = cheri_cc::compile_with_symbols(module, strategy)?;
    let defs = syms
        .iter()
        .map(|s| cheri_prof::SymbolDef { name: s.name.to_string(), start: s.start, end: s.end })
        .collect();
    Ok((program, cheri_prof::SymbolTable::new(defs)))
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
    /// Compile errors and OS exec errors, boxed under one trait object.
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
        let mut kernel = boot(KernelConfig { machine, layout, max_instructions: RUNAWAY_BUDGET });
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
