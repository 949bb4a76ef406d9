//! The machine: CPU + TLB + cache hierarchy + tagged memory, and the
//! fetch/decode/execute loop.
//!
//! [`Machine::step`] executes exactly one instruction and reports what
//! happened via [`StepResult`]. Exceptions (TLB refills, capability
//! violations, syscalls) are *delivered to the embedder* — normally the
//! `cheri-os` host-level kernel — with CP0/CP2 state updated as the
//! hardware would; the faulting instruction is not retired, so fixing the
//! cause (e.g. installing a TLB entry) and calling `step` again retries
//! it.
//!
//! The machine models one platform, the paper's: its cache geometry,
//! latencies, TLB size, branch-history table and multiply/divide
//! penalties are constants, and [`MachineConfig`] holds only what varies
//! between jobs (memory size, tag-cache size, capability format) plus
//! two harness switches.

use std::ops::ControlFlow;

use cheri_core::{CapCause, CapExcCode, Capability, Compressed128, Perms};
use cheri_mem::{MemError, TaggedMem};
use cheri_prof::{CounterSample, Profiler};
use cheri_trace::{names, Snapshot};

use crate::block::{
    lower, Block, BlockCache, Op, PInst, F_CAP, F_STORE, F_TERMINAL, F_TLBW, F_UNCOND_JUMP,
    MAX_BLOCK_INSTS,
};
use crate::cache::{CacheParams, Hierarchy, DRAM_LATENCY};
use crate::cpu::Cpu;
use crate::decode::decode;
use crate::exception::{Exception, TrapKind};
use crate::inst::{reg, CheriInst, Inst, MulDivOp, Width};
use crate::pipeline::{
    BranchPredictor, BHT_ENTRIES, DIV_PENALTY, INDIRECT_JUMP_PENALTY, MISPREDICT_PENALTY,
    MUL_PENALTY,
};
use crate::stats::Stats;
use crate::tlb::{Tlb, TlbFlags, PAGE_SHIFT};

/// Which in-memory capability format the machine implements.
///
/// Section 4.1: "An implementation intended for widespread deployment
/// would likely use a denser representation — for example, 128-bits".
/// The register file is architectural (full precision) in both modes;
/// the format governs what `CLC`/`CSC` move through memory and the tag
/// granule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CapFormat {
    /// The 256-bit research format of Figure 1 (32-byte granule).
    #[default]
    C256,
    /// The compressed 128-bit production format (16-byte granule);
    /// capabilities must be representable (the capability-aware
    /// allocator guarantees this) or `CSC` raises an alignment fault.
    C128,
}

impl CapFormat {
    /// In-memory capability size in bytes (= tag granule).
    #[must_use]
    pub const fn size(self) -> u64 {
        match self {
            CapFormat::C256 => 32,
            CapFormat::C128 => 16,
        }
    }
}

/// Configuration of a [`Machine`]: what varies between jobs.
///
/// Everything else about the paper's platform is a constant in the code
/// that uses it: the cache geometry and latencies
/// ([`CacheParams::l1`], [`CacheParams::l2`], [`crate::cache::L2_LATENCY`],
/// [`DRAM_LATENCY`]), the 128-entry TLB ([`crate::tlb::DEFAULT_ENTRIES`]),
/// the branch-history table ([`BHT_ENTRIES`]) and the multiply/divide
/// penalties ([`MUL_PENALTY`], [`DIV_PENALTY`]). The capability
/// coprocessor is always fitted.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Physical memory size in bytes.
    pub mem_bytes: usize,
    /// Tag-cache capacity in bytes (Section 4.2 default: 8 KB).
    pub tag_cache_bytes: usize,
    /// In-memory capability format (256-bit research / 128-bit
    /// production).
    pub cap_format: CapFormat,
    /// Enables the predecoded basic-block fast path in
    /// [`Machine::run`] (see the `block` module). Architecturally
    /// transparent — every counter and all architectural state are
    /// bit-identical either way — so this is an escape hatch, not a
    /// model knob. Defaults to on unless the `CHERI_SIM_NO_BLOCK_CACHE`
    /// environment variable is set.
    pub block_cache: bool,
    /// Verification-only fault injection: deliberately miswires one
    /// semantic rule so the lockstep spec fuzzer can demonstrate it
    /// catches the bug. Always `None` in production configurations and
    /// never recorded in snapshots.
    pub fault: Option<FaultInjection>,
}

/// Deliberate, named semantic bugs for verifying the verifier. Each
/// variant breaks exactly one architectural rule; a differential run
/// against `cheri-spec` must flag it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultInjection {
    /// A one-byte store skips tag invalidation, leaving the covering
    /// capability tag intact — the overlapping-store rule of
    /// Section 4.2 silently broken.
    KeepTagOnByteStore,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mem_bytes: 64 << 20,
            tag_cache_bytes: cheri_mem::DEFAULT_TAG_CACHE_BYTES,
            cap_format: CapFormat::default(),
            block_cache: std::env::var_os("CHERI_SIM_NO_BLOCK_CACHE").is_none(),
            fault: None,
        }
    }
}

/// What one [`Machine::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StepResult {
    /// An ordinary instruction retired.
    Continue,
    /// `SYSCALL` executed; service it (arguments are in the GPRs) and
    /// call [`Machine::advance_past_trap`] to resume after it.
    Syscall,
    /// `BREAK` executed with the given code.
    Break(u32),
    /// An exception was raised; the faulting instruction did not retire.
    /// Retrying [`Machine::step`] re-executes it (correct for TLB
    /// refills once the kernel installs a mapping).
    Trap(Exception),
}

/// What an executed instruction asks [`Machine::retire`] to do. It is
/// at most 16 bytes of plain integers, so it stays in registers from
/// execute to retire: a capability jump has already installed its PCC,
/// and the cause of a trap or a simulator-level memory fault is parked
/// in the machine by [`Machine::raise`] or [`Machine::fault`].
#[derive(Clone, Copy, Debug)]
enum Outcome {
    Next,
    /// A conditional branch or branch-likely: `(target, taken)`.
    Branch {
        target: u64,
        taken: bool,
        predicted: bool,
    },
    /// An unconditional jump with a delay slot.
    Jump {
        target: u64,
        indirect: bool,
    },
    /// A jump with no delay slot (`CJR`, `CJALR`, `ERET`); any new PCC
    /// is already installed.
    CapJump {
        target: u64,
    },
    /// A trap whose cause [`Machine::raise`] parked.
    Trap,
    /// A simulator-level memory fault that [`Machine::fault`] parked.
    Fault,
    Syscall,
    Break(u32),
}

// Register-sized: execute hands it to retire in two registers.
const _: () = assert!(std::mem::size_of::<Outcome>() <= 16, "Outcome must stay within 16 bytes");

/// Direct-mapped sets per access kind in the translation cache.
const TC_SETS: usize = 64;
/// The key bit that marks a translation-cache set filled; above every
/// virtual page number.
const TC_VALID: u64 = 1 << 63;

/// One translation-cache set: the TLB's last successful translation of
/// a page that maps to this set, keyed `page | TC_VALID` (0 when empty).
#[derive(Clone, Copy, Default)]
struct TcSet {
    key: u64,
    frame: u64,
    flags: TlbFlags,
}

/// The simulated machine.
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: Cpu,
    /// Tagged physical memory.
    pub mem: TaggedMem,
    /// Cache hierarchy (timing model).
    pub hierarchy: Hierarchy,
    /// Branch predictor (timing model).
    pub predictor: BranchPredictor,
    /// Execution statistics.
    pub stats: Stats,
    tlb: Tlb,
    cfg: MachineConfig,
    bare: bool,
    // The translation cache in front of the TLB, one array of sets per
    // access kind (load, store, fetch), so a hit is one compare;
    // emptied on any TLB mutation. It holds only successful
    // translations, which have no side effect in the TLB, so refill
    // counts stay exact.
    tcache: [[TcSet; TC_SETS]; 3],
    // Predecoded basic blocks (the `run` fast path); invalidated by
    // store-generation counters, never consulted by `step`.
    blocks: BlockCache,
    // The cause of the trap or memory fault the executing instruction
    // raised, from `raise`/`fault` until `retire` takes it.
    parked_trap: Option<(TrapKind, Option<u64>)>,
    parked_fault: Option<MemError>,
    // Optional profiler: both execution paths call the same retire
    // hook, and the profiler never feeds back into architectural state.
    prof: Option<Box<Profiler>>,
}

impl Machine {
    /// Builds a machine in "bare" mode (virtual = physical, no TLB
    /// faults) — convenient for tests, examples, and micro-benchmarks.
    /// The `cheri-os` kernel switches to translated mode via
    /// [`Machine::enable_translation`].
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Machine {
        Machine {
            cpu: Cpu::new(),
            mem: TaggedMem::with_config(cfg.mem_bytes, cfg.tag_cache_bytes, cfg.cap_format.size()),
            hierarchy: Hierarchy::new(),
            predictor: BranchPredictor::new(BHT_ENTRIES),
            stats: Stats::default(),
            tlb: Tlb::new(crate::tlb::DEFAULT_ENTRIES),
            cfg: cfg.clone(),
            bare: true,
            tcache: [[TcSet::default(); TC_SETS]; 3],
            blocks: BlockCache::new(cfg.mem_bytes),
            parked_trap: None,
            parked_fault: None,
            prof: None,
        }
    }

    /// Attaches a profiler (or detaches, with `None`). The profiler is
    /// observational only — it never changes architectural state or
    /// cycle accounting — and both execution paths drive the same
    /// per-retire hook.
    ///
    /// On attach the delta-sampling baseline is seeded from the current
    /// global counters, so only events from this point on are
    /// attributed.
    pub fn set_profiler(&mut self, prof: Option<Box<Profiler>>) {
        self.prof = prof.map(|mut p| {
            p.seed(self.prof_sample());
            p
        });
    }

    /// The attached profiler, if any.
    #[must_use]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// Mutable access to the attached profiler (the kernel uses this to
    /// record timeline spans).
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.prof.as_deref_mut()
    }

    /// Charges any residual miss deltas (events since the last retire)
    /// to the last retired PC, so per-PC sums equal the global counters
    /// exactly. Call before reading attribution mid-run.
    pub fn sync_profiler(&mut self) {
        let now = self.prof_sample();
        if let Some(p) = self.prof.as_mut() {
            p.sync(now);
        }
    }

    /// Detaches and returns the profiler, after a final
    /// [`Machine::sync_profiler`] so its attribution is complete.
    pub fn take_profiler(&mut self) -> Option<Box<Profiler>> {
        self.sync_profiler();
        self.prof.take()
    }

    /// The current global miss counters, in the profiler's sample form.
    #[inline]
    fn prof_sample(&self) -> CounterSample {
        CounterSample {
            l1i_misses: self.hierarchy.l1i.misses,
            l1d_misses: self.hierarchy.l1d.misses,
            l2_misses: self.hierarchy.l2.misses,
            tag_misses: self.mem.tag_stats().misses,
        }
    }

    /// The shared per-retire profiling hook: attributes miss deltas to
    /// the retiring `pc` and maintains the synthetic call stack at
    /// call/return-shaped control transfers. Caller checks
    /// `self.prof.is_some()` first so the disabled cost is one branch.
    ///
    /// It runs after [`Machine::retire`] and reads a call's target from
    /// the CPU state retire left (`JAL`/`JALR` set `next_pc` to it, a
    /// `CJALR` sets `pc`), not from the outcome, so the block loop hands
    /// the outcome to retire and never needs it again.
    fn prof_retire(&mut self, pc: u64, op: &Op) {
        let now = self.prof_sample();
        let Some(p) = self.prof.as_mut() else { return };
        p.on_retire(pc, now);
        match *op {
            Op::Jal { .. } | Op::Jalr { .. } => p.on_call(self.cpu.next_pc),
            Op::Jr { rs: reg::RA } => p.on_return(),
            Op::Other(Inst::Cheri(CheriInst::CJALR { .. })) => p.on_call(self.cpu.pc),
            Op::Other(Inst::Cheri(CheriInst::CJR { .. })) => p.on_return(),
            _ => {}
        }
    }

    /// The configuration this machine was built with.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Keeps virtual = physical (the reset state). Provided for symmetry
    /// and self-documenting call sites in examples.
    pub fn identity_map_all(&mut self) {
        self.bare = true;
    }

    /// Switches to TLB-translated mode; subsequent accesses fault until
    /// mappings are installed.
    pub fn enable_translation(&mut self) {
        self.bare = false;
        self.invalidate_tcache();
    }

    /// Whether translation is active.
    #[must_use]
    pub fn translation_enabled(&self) -> bool {
        !self.bare
    }

    fn invalidate_tcache(&mut self) {
        self.tcache = [[TcSet::default(); TC_SETS]; 3];
    }

    /// Installs a 4 KB mapping (kernel TLB-refill path).
    pub fn tlb_install(&mut self, vaddr: u64, paddr: u64, flags: TlbFlags) {
        self.tlb.install(vaddr, paddr, flags);
        self.invalidate_tcache();
    }

    /// Flushes the TLB (context switch / `execve`).
    pub fn tlb_flush(&mut self) {
        self.tlb.flush();
        self.invalidate_tcache();
    }

    /// Invalidates the page containing `vaddr` (revocation by unmapping).
    pub fn tlb_invalidate_page(&mut self, vaddr: u64) {
        self.tlb.invalidate_page(vaddr);
        self.invalidate_tcache();
    }

    /// Read-only view of the TLB.
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Adds kernel-side cycles (e.g. the software TLB-refill handler) to
    /// the cycle count.
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Copies a code/data image into *physical* memory (also usable as
    /// virtual in bare mode).
    ///
    /// # Errors
    ///
    /// [`MemError`] if the image does not fit.
    pub fn load_code(&mut self, paddr: u64, words: &[u32]) -> Result<(), MemError> {
        for (i, w) in words.iter().enumerate() {
            let addr = paddr + 4 * i as u64;
            self.mem.write_u32(addr, *w)?;
            self.blocks.note_store(addr);
        }
        Ok(())
    }

    /// Drops every predecoded block. Required after writing *code*
    /// through the public [`Machine::mem`] field directly (the machine
    /// cannot observe such writes); stores executed by the guest and
    /// [`Machine::load_code`] invalidate automatically.
    pub fn invalidate_block_cache(&mut self) {
        self.blocks.invalidate_all();
    }

    #[inline(always)]
    fn translate(
        &mut self,
        vaddr: u64,
        write: bool,
        fetch: bool,
    ) -> Result<(u64, TlbFlags), TrapKind> {
        if self.bare {
            return Ok((vaddr, TlbFlags::rw()));
        }
        let page = vaddr >> PAGE_SHIFT;
        let set = self.tc_set(page, write, fetch);
        if set.key == page | TC_VALID {
            return Ok(((set.frame << PAGE_SHIFT) | (vaddr & 0xfff), set.flags));
        }
        self.translate_miss(vaddr, write, fetch)
    }

    /// The translation-cache set of `page` for an access kind.
    #[inline(always)]
    fn tc_set(&mut self, page: u64, write: bool, fetch: bool) -> &mut TcSet {
        &mut self.tcache[usize::from(write) + 2 * usize::from(fetch)][page as usize % TC_SETS]
    }

    /// The translation-cache miss: asks the TLB and caches a successful
    /// translation in the access kind's set for the page.
    #[cold]
    #[inline(never)]
    fn translate_miss(
        &mut self,
        vaddr: u64,
        write: bool,
        fetch: bool,
    ) -> Result<(u64, TlbFlags), TrapKind> {
        let t = self.tlb.translate(vaddr, write)?;
        let page = vaddr >> PAGE_SHIFT;
        *self.tc_set(page, write, fetch) =
            TcSet { key: page | TC_VALID, frame: t.paddr >> PAGE_SHIFT, flags: t.flags };
        Ok((t.paddr, t.flags))
    }

    fn trap(&mut self, kind: TrapKind, badvaddr: Option<u64>) -> StepResult {
        let in_ds = self.cpu.in_delay_slot();
        let epc = if in_ds { self.cpu.pc.wrapping_sub(4) } else { self.cpu.pc };
        let code = match kind {
            TrapKind::TlbRefill { write, .. } | TrapKind::TlbInvalid { write, .. } => {
                if write {
                    3
                } else {
                    2
                }
            }
            TrapKind::TlbModified { .. } => 1,
            TrapKind::AddressError { write, .. } => {
                if write {
                    5
                } else {
                    4
                }
            }
            TrapKind::Syscall { .. } => 8,
            TrapKind::Break { .. } => 9,
            TrapKind::ReservedInstruction { .. } => 10,
            TrapKind::IntegerOverflow => 12,
            TrapKind::CapViolation(_) => 18, // C2E, the CP2 exception code
        };
        self.cpu.cp0.raise(epc, in_ds, code, badvaddr);
        // Syscalls take the exception vector but are the service path,
        // not an error path: they are counted by `Stats::syscalls` only.
        if !matches!(kind, TrapKind::Syscall { .. }) {
            self.stats.exceptions += 1;
        }
        match kind {
            TrapKind::TlbRefill { .. } => {
                self.stats.tlb_refills += 1;
                if let Some(p) = self.prof.as_mut() {
                    p.on_tlb_refill(epc);
                }
            }
            TrapKind::CapViolation(cause) => {
                self.stats.cap_violations += 1;
                self.cpu.cp0.raise_cap(cause);
                if let Some(p) = self.prof.as_mut() {
                    p.on_cap_exception(epc);
                }
            }
            _ => {}
        }
        StepResult::Trap(Exception { kind, pc: self.cpu.pc })
    }

    /// Resumes past a `SYSCALL`/`BREAK` (or an instruction the kernel
    /// chooses to skip): execution continues at the next architectural
    /// PC, honouring any pending branch.
    pub fn advance_past_trap(&mut self) {
        let next = self.cpu.next_pc;
        self.cpu.jump_to(next);
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] only for *simulator-level* faults (an access
    /// to nonexistent physical memory in bare mode, or a kernel mapping
    /// pointing outside DRAM). All architectural failures are reported
    /// as [`StepResult::Trap`].
    #[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
    pub fn step(&mut self) -> Result<StepResult, MemError> {
        let pc = self.cpu.pc;

        // Instruction fetch: PCC check (Execute-stage validation per
        // Section 4.4), translation, I-cache, memory.
        if let Err(c) = self.cpu.caps.pcc().check_execute(pc) {
            return Ok(self.trap(
                TrapKind::CapViolation(c.with_reg(cheri_core::exception::PCC_FAULT_REG)),
                Some(pc),
            ));
        }
        let (ppc, _) = match self.translate(pc, false, true) {
            Ok(t) => t,
            Err(kind) => return Ok(self.trap(kind, Some(pc))),
        };
        self.stats.cycles += self.hierarchy.fetch(ppc);
        let word = self.mem.read_u32(ppc)?;
        let pi = lower(decode(word));

        let outcome = self.execute(&pi.op);
        if let ControlFlow::Break(exit) = self.retire(outcome) {
            return exit;
        }
        self.stats.instructions += 1;
        self.stats.cycles += 1;
        self.cpu.cp0.count = self.cpu.cp0.count.wrapping_add(1);
        let cap_inst = pi.flags & F_CAP != 0;
        if cap_inst {
            self.stats.cap_instructions += 1;
        }
        if self.prof.is_some() {
            self.prof_retire(pc, &pi.op);
        }
        Ok(StepResult::Continue)
    }

    /// The retire step shared by [`Machine::step`] and the block fast
    /// path: applies an executed instruction's control-flow outcome —
    /// the PC/next-PC update with branch, mispredict and jump penalties
    /// — and returns `Continue(pcc_changed)`, or takes the trap,
    /// `SYSCALL`, `BREAK` or memory-fault exit and returns
    /// `Break(result)` (the instruction did not retire). The callers
    /// differ only in fetch, decode and how they batch the per-retire
    /// counters.
    #[inline(always)]
    fn retire(&mut self, outcome: Outcome) -> ControlFlow<Result<StepResult, MemError>, bool> {
        let fallthrough = self.cpu.next_pc;
        match outcome {
            Outcome::Next => {
                self.cpu.pc = fallthrough;
                self.cpu.next_pc = fallthrough.wrapping_add(4);
            }
            Outcome::Branch { target, taken, predicted } => {
                self.stats.branches += 1;
                if predicted != taken {
                    self.stats.mispredicts += 1;
                    self.stats.cycles += MISPREDICT_PENALTY;
                }
                self.cpu.pc = fallthrough;
                self.cpu.next_pc = if taken { target } else { fallthrough.wrapping_add(4) };
            }
            Outcome::Jump { target, indirect } => {
                if indirect {
                    self.stats.cycles += INDIRECT_JUMP_PENALTY;
                }
                self.cpu.pc = fallthrough;
                self.cpu.next_pc = target;
            }
            Outcome::CapJump { target } => {
                // Capability jumps have no delay slot in this
                // implementation.
                self.stats.cycles += INDIRECT_JUMP_PENALTY;
                self.cpu.jump_to(target);
                return ControlFlow::Continue(true);
            }
            Outcome::Trap => {
                let (kind, badvaddr) = self.parked_trap.take().expect("a trap parks its cause");
                return ControlFlow::Break(Ok(self.trap(kind, badvaddr)));
            }
            Outcome::Fault => {
                return ControlFlow::Break(Err(self
                    .parked_fault
                    .take()
                    .expect("a memory fault parks its error")));
            }
            Outcome::Syscall => {
                self.stats.syscalls += 1;
                let _ = self.trap(TrapKind::Syscall { code: 0 }, None);
                // Keep PC at the syscall; the kernel resumes via
                // advance_past_trap(). Reported as its own variant for
                // ergonomic dispatch.
                return ControlFlow::Break(Ok(StepResult::Syscall));
            }
            Outcome::Break(code) => {
                let _ = self.trap(TrapKind::Break { code }, None);
                return ControlFlow::Break(Ok(StepResult::Break(code)));
            }
        }
        ControlFlow::Continue(false)
    }

    /// Runs until a syscall, break, trap, or `max_steps` instructions.
    ///
    /// When the block cache is enabled this takes the predecoded fast
    /// path (see the `block` module); otherwise it is a plain
    /// [`Machine::step`] loop. Both paths produce bit-identical
    /// architectural state and statistics.
    ///
    /// # Errors
    ///
    /// Propagates simulator-level [`MemError`]s from [`Machine::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<StepResult, MemError> {
        if self.cfg.block_cache {
            return self.run_predecoded(max_steps);
        }
        for _ in 0..max_steps {
            match self.step()? {
                StepResult::Continue => {}
                other => return Ok(other),
            }
        }
        Ok(StepResult::Continue)
    }

    /// The fast `run` loop: per *block* entry it performs the PCC check
    /// and translation that `step` performs per instruction (valid
    /// because a block never leaves its page, PCC cannot change inside
    /// a block — capability jumps and `ERET` end one — and nothing else
    /// runs between the check and the block body), then executes the
    /// predecoded instructions.
    fn run_predecoded(&mut self, max_steps: u64) -> Result<StepResult, MemError> {
        let mut remaining = max_steps;
        while remaining > 0 {
            let pc = self.cpu.pc;
            if let Err(c) = self.cpu.caps.pcc().check_execute(pc) {
                return Ok(self.trap(
                    TrapKind::CapViolation(c.with_reg(cheri_core::exception::PCC_FAULT_REG)),
                    Some(pc),
                ));
            }
            let (ppc, _) = match self.translate(pc, false, true) {
                Ok(t) => t,
                Err(kind) => return Ok(self.trap(kind, Some(pc))),
            };
            let block = match self.blocks.take_valid(ppc) {
                Some(b) => b,
                None => match self.build_block(ppc) {
                    Some(b) => b,
                    None => {
                        // The first word is not readable memory: one
                        // slow step reproduces the exact fetch-charge-
                        // then-`MemError` behaviour.
                        match self.step()? {
                            StepResult::Continue => {
                                remaining -= 1;
                                continue;
                            }
                            other => return Ok(other),
                        }
                    }
                },
            };
            // PCC bounds are one contiguous interval, so if the first
            // and last instruction of the block pass, all do; otherwise
            // run only the covered prefix (at least the first, which
            // was checked above) so the faulting instruction re-enters
            // through the per-instruction check.
            let len = block.insts.len();
            let last = pc.wrapping_add(4 * (len as u64 - 1));
            let covered = if self.cpu.caps.pcc().check_execute(last).is_ok() {
                len
            } else {
                let mut n = 1;
                while n < len
                    && self.cpu.caps.pcc().check_execute(pc.wrapping_add(4 * n as u64)).is_ok()
                {
                    n += 1;
                }
                n
            };
            let limit = remaining.min(covered as u64);
            let outcome = self.run_block(&block, limit);
            // Give the block back (if it went stale, `take_valid`
            // rejects it next entry and it is rebuilt).
            self.blocks.insert(block);
            let (used, exit) = outcome?;
            if let Some(result) = exit {
                return Ok(result);
            }
            debug_assert!(used >= 1, "run_block must make progress");
            remaining -= used.max(1);
        }
        Ok(StepResult::Continue)
    }

    /// Executes up to `limit` instructions of the validated block at
    /// physical `ppc`, batching retire counters and same-line fetch
    /// hits; flushes them at every exit so [`Stats`] is exact whenever
    /// control returns to the caller. Returns how many instructions
    /// retired, plus a [`StepResult`] if the block ended in one.
    #[allow(clippy::too_many_lines)]
    fn run_block(
        &mut self,
        block: &Block,
        limit: u64,
    ) -> Result<(u64, Option<StepResult>), MemError> {
        let ppc = block.ppc;
        let insts = &block.insts;
        let page = (ppc >> PAGE_SHIFT) as usize;
        let len = insts.len();
        let start_pc = self.cpu.pc;
        let line_mask = !(CacheParams::l1().line as u64 - 1);
        // Same-line fetch-hit batching: after `fetch(addr)` fills a
        // line, further fetches to that line are guaranteed hits (only
        // fetches touch L1I), so they are recorded in one batched
        // counter/LRU update at flush time — cycle-free, like any L1I
        // hit.
        let mut cur_line = u64::MAX;
        let mut pending_hits: u64 = 0;
        let mut retired: u64 = 0;
        let mut cap_retired: u64 = 0;
        let mut i: usize = 0;

        macro_rules! flush {
            () => {
                if pending_hits > 0 {
                    self.hierarchy.fetch_hits(cur_line, pending_hits);
                }
                self.stats.instructions += retired;
                self.stats.cycles += retired; // base CPI 1 per retire
                self.stats.cap_instructions += cap_retired;
            };
        }

        loop {
            if retired >= limit || i >= len {
                flush!();
                return Ok((retired, None));
            }
            let pi = insts[i];
            let ipaddr = ppc + 4 * i as u64;
            let iline = ipaddr & line_mask;
            if iline == cur_line {
                pending_hits += 1;
            } else {
                if pending_hits > 0 {
                    self.hierarchy.fetch_hits(cur_line, pending_hits);
                    pending_hits = 0;
                }
                self.stats.cycles += self.hierarchy.fetch(ipaddr);
                cur_line = iline;
            }

            let outcome = self.execute(&pi.op);
            let pcc_changed = match self.retire(outcome) {
                ControlFlow::Continue(pcc_changed) => pcc_changed,
                ControlFlow::Break(exit) => {
                    flush!();
                    return exit.map(|result| (retired, Some(result)));
                }
            };

            // Retire (batched; `cp0.count` stays per-instruction exact
            // because `MFC0` can read it mid-block).
            retired += 1;
            self.cpu.cp0.count = self.cpu.cp0.count.wrapping_add(1);
            if pi.flags & F_CAP != 0 {
                cap_retired += 1;
            }
            if self.prof.is_some() {
                self.prof_retire(start_pc.wrapping_add(4 * i as u64), &pi.op);
            }
            i += 1;
            // Exit when control leaves the straight line (taken branch,
            // jump landing, delay-slot entry resolving), when the PCC
            // changed (its bounds validated this block), after a TLB
            // write (the per-entry translation is no longer valid), or
            // when a store dirtied this page (the remaining predecoded
            // slice may be stale — self-modifying code takes effect at
            // the next instruction, exactly like the slow path's
            // per-instruction fetch).
            if pcc_changed
                || pi.flags & F_TLBW != 0
                || self.cpu.pc != start_pc.wrapping_add(4 * i as u64)
                || (pi.flags & F_STORE != 0 && self.blocks.page_gen(page) != block.gen)
            {
                flush!();
                return Ok((retired, None));
            }
        }
    }

    /// Decodes the straight-line run starting at physical `ppc`. Stops
    /// at terminal instructions, after an unconditional jump's delay
    /// slot, at the page boundary, at [`MAX_BLOCK_INSTS`], or at
    /// unreadable memory. Returns `None` if not even the first word is
    /// readable. The caller inserts the block into the cache after
    /// running it; the page is marked as code *here* so that stores
    /// during the block's first execution already bump its generation.
    fn build_block(&mut self, ppc: u64) -> Option<Block> {
        let words_to_page_end = (((ppc | ((1 << PAGE_SHIFT) - 1)) + 1 - ppc) / 4) as usize;
        let max_words = words_to_page_end.min(MAX_BLOCK_INSTS);
        let mut insts: Vec<PInst> = Vec::with_capacity(max_words.min(16));
        while insts.len() < max_words {
            let addr = ppc + 4 * insts.len() as u64;
            let Ok(word) = self.mem.read_u32(addr) else { break };
            let pi = lower(decode(word));
            insts.push(pi);
            if pi.flags & F_TERMINAL != 0 {
                break;
            }
            if pi.flags & F_UNCOND_JUMP != 0 {
                // Include the delay slot, then stop: the instruction
                // after it is the jump target's problem.
                if insts.len() < max_words {
                    if let Ok(w) = self.mem.read_u32(ppc + 4 * insts.len() as u64) {
                        insts.push(lower(decode(w)));
                    }
                }
                break;
            }
        }
        if insts.is_empty() {
            return None;
        }
        let page = (ppc >> PAGE_SHIFT) as usize;
        self.blocks.mark_code_page(page);
        let gen = self.blocks.page_gen(page);
        Some(Block { ppc, gen, insts: insts.into_boxed_slice() })
    }

    // --- data-access helpers ---------------------------------------------
    //
    // The hit path of a load or store is inlined into the executor, down
    // to the cache model and the tag controller; every miss path is a
    // `#[cold]` function of its own.

    /// A legacy (MIPS) data access at `gpr[base] + imm`: implicitly
    /// offset and bounded by C0.
    #[inline(always)]
    fn legacy_access(
        &mut self,
        base: u8,
        imm: u64,
        width: Width,
        write: bool,
    ) -> Result<u64, Outcome> {
        let addr = self.gpr(base).wrapping_add(imm);
        let c0 = *self.cpu.caps.c0();
        let vaddr = c0.base().wrapping_add(addr);
        self.checked_access(vaddr, width.bytes(), write, &c0, 0)
    }

    /// A capability-relative data access via `cb` at offset
    /// `gpr[rt] + off` (`off` already scaled by the width).
    #[inline(always)]
    fn cap_access(
        &mut self,
        cb: u8,
        rt: u8,
        off: u64,
        width: Width,
        write: bool,
    ) -> Result<u64, Outcome> {
        let cap = *self.cap(cb);
        let vaddr = cap.base().wrapping_add(self.gpr(rt).wrapping_add(off));
        self.checked_access(vaddr, width.bytes(), write, &cap, cb)
    }

    /// Shared tail: alignment, capability check, translation, cache
    /// timing. Returns the physical address, or the trap outcome.
    #[inline(always)]
    fn checked_access(
        &mut self,
        vaddr: u64,
        size: u64,
        write: bool,
        cap: &Capability,
        cap_reg: u8,
    ) -> Result<u64, Outcome> {
        // `size` is a power of two (`Width::bytes`), so the alignment
        // check is a mask, not a division.
        if vaddr & (size - 1) != 0 {
            return Err(self.raise(TrapKind::AddressError { vaddr, write }, Some(vaddr)));
        }
        let perm = if write { Perms::STORE } else { Perms::LOAD };
        if let Err(c) = cap.check_data_access(vaddr, size, perm) {
            return Err(self.raise(TrapKind::CapViolation(c.with_reg(cap_reg)), Some(vaddr)));
        }
        let paddr = match self.translate(vaddr, write, false) {
            Ok((paddr, _)) => paddr,
            Err(kind) => return Err(self.raise(kind, Some(vaddr))),
        };
        self.stats.cycles += self.hierarchy.data(paddr, size, write);
        if write {
            self.stats.stores += 1;
            self.stats.bytes_stored += size;
            self.cpu.ll_reservation = None;
        } else {
            self.stats.loads += 1;
            self.stats.bytes_loaded += size;
        }
        Ok(paddr)
    }

    #[inline(always)]
    fn load_value(&mut self, paddr: u64, width: Width, unsigned: bool) -> Result<u64, MemError> {
        Ok(match (width, unsigned) {
            (Width::Byte, false) => self.mem.read_u8(paddr)? as i8 as i64 as u64,
            (Width::Byte, true) => u64::from(self.mem.read_u8(paddr)?),
            (Width::Half, false) => self.mem.read_u16(paddr)? as i16 as i64 as u64,
            (Width::Half, true) => u64::from(self.mem.read_u16(paddr)?),
            (Width::Word, false) => self.mem.read_u32(paddr)? as i32 as i64 as u64,
            (Width::Word, true) => u64::from(self.mem.read_u32(paddr)?),
            (Width::Double, _) => self.mem.read_u64(paddr)?,
        })
    }

    #[inline(always)]
    fn store_value(&mut self, paddr: u64, width: Width, value: u64) -> Result<(), MemError> {
        match width {
            Width::Byte if self.cfg.fault == Some(FaultInjection::KeepTagOnByteStore) => {
                self.store_byte_keeping_tag(paddr, value as u8)
            }
            Width::Byte => self.mem.write_u8(paddr, value as u8),
            Width::Half => self.mem.write_u16(paddr, value as u16),
            Width::Word => self.mem.write_u32(paddr, value as u32),
            Width::Double => self.mem.write_u64(paddr, value),
        }?;
        self.blocks.note_store(paddr);
        Ok(())
    }

    /// The [`FaultInjection::KeepTagOnByteStore`] bug: patches the byte
    /// inside its granule and writes the granule back with its tag
    /// preserved.
    #[cold]
    #[inline(never)]
    fn store_byte_keeping_tag(&mut self, paddr: u64, value: u8) -> Result<(), MemError> {
        let granule = self.mem.granule();
        let base = paddr & !(granule - 1);
        let mut buf = vec![0u8; granule as usize];
        let tag = self.mem.read_tagged(base, &mut buf)?;
        buf[(paddr - base) as usize] = value;
        self.mem.write_tagged(base, &buf, tag)
    }

    /// A legacy load into `rt`.
    #[inline(always)]
    fn legacy_load(&mut self, rt: u8, base: u8, imm: u64, width: Width, unsigned: bool) -> Outcome {
        match self.legacy_access(base, imm, width, false) {
            Ok(paddr) => self.load_into(rt, paddr, width, unsigned),
            Err(trap) => trap,
        }
    }

    /// A legacy store of `rt`.
    #[inline(always)]
    fn legacy_store(&mut self, rt: u8, base: u8, imm: u64, width: Width) -> Outcome {
        match self.legacy_access(base, imm, width, true) {
            Ok(paddr) => self.store_from(rt, paddr, width),
            Err(trap) => trap,
        }
    }

    /// Completes a load of the checked physical address `paddr` into
    /// `rd`.
    #[inline(always)]
    fn load_into(&mut self, rd: u8, paddr: u64, width: Width, unsigned: bool) -> Outcome {
        match self.load_value(paddr, width, unsigned) {
            Ok(v) => self.put(rd, v),
            Err(e) => self.fault(e),
        }
    }

    /// Completes a store of `rs` to the checked physical address
    /// `paddr`.
    #[inline(always)]
    fn store_from(&mut self, rs: u8, paddr: u64, width: Width) -> Outcome {
        match self.store_value(paddr, width, self.gpr(rs)) {
            Ok(()) => Outcome::Next,
            Err(e) => self.fault(e),
        }
    }

    /// A capability-relative load into `rd`.
    #[inline(always)]
    fn cap_load(
        &mut self,
        rd: u8,
        cb: u8,
        rt: u8,
        off: u64,
        width: Width,
        unsigned: bool,
    ) -> Outcome {
        match self.cap_access(cb, rt, off, width, false) {
            Ok(paddr) => self.load_into(rd, paddr, width, unsigned),
            Err(trap) => trap,
        }
    }

    /// A capability-relative store of `rs`.
    #[inline(always)]
    fn cap_store(&mut self, rs: u8, cb: u8, rt: u8, off: u64, width: Width) -> Outcome {
        match self.cap_access(cb, rt, off, width, true) {
            Ok(paddr) => self.store_from(rs, paddr, width),
            Err(trap) => trap,
        }
    }

    // --- execute -----------------------------------------------------------

    /// GPR `r`; the mask keeps the index in range without a bounds check.
    #[inline(always)]
    fn gpr(&self, r: u8) -> u64 {
        self.cpu.gpr[usize::from(r & 31)]
    }

    /// Writes GPR `r` and completes the instruction. `$zero` is written
    /// and then cleared, which costs a store instead of a branch.
    #[inline(always)]
    fn put(&mut self, r: u8, v: u64) -> Outcome {
        self.cpu.gpr[usize::from(r & 31)] = v;
        self.cpu.gpr[0] = 0;
        Outcome::Next
    }

    /// Capability register `r` (0–31).
    #[inline(always)]
    fn cap(&self, r: u8) -> &Capability {
        self.cpu.caps.get(r & 31)
    }

    /// A conditional branch at `pc` to `pc + 4 + off`: consults and
    /// trains the predictor.
    #[inline(always)]
    fn branch(&mut self, pc: u64, off: u64, taken: bool) -> Outcome {
        let predicted = self.predictor.predict(pc);
        self.predictor.update(pc, taken);
        Outcome::Branch { target: pc.wrapping_add(4).wrapping_add(off), taken, predicted }
    }

    /// Parks a trap's cause for [`Machine::retire`] and returns the
    /// outcome that takes it. Every trap an instruction raises is built
    /// here, so [`Outcome`] stays register-sized.
    #[cold]
    #[inline(never)]
    fn raise(&mut self, kind: TrapKind, badvaddr: Option<u64>) -> Outcome {
        self.parked_trap = Some((kind, badvaddr));
        Outcome::Trap
    }

    /// Parks a simulator-level memory fault for [`Machine::retire`] and
    /// returns the outcome that takes it.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, e: MemError) -> Outcome {
        self.parked_fault = Some(e);
        Outcome::Fault
    }

    /// A capability violation on register `reg`.
    fn cap_trap(&mut self, cause: CapCause, reg: u8) -> Outcome {
        self.raise(TrapKind::CapViolation(cause.with_reg(reg)), None)
    }

    /// Executes one lowered instruction and returns its control-flow
    /// outcome for [`Machine::retire`]. Inlined into both callers, so the
    /// 16-byte outcome stays in registers. One `match` dispatches every
    /// hot instruction; the rest go to [`Machine::execute_inst`], which
    /// stays out of line.
    #[inline(always)]
    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, op: &Op) -> Outcome {
        let pc = self.cpu.pc;
        match *op {
            Op::Nop => Outcome::Next,
            Op::Addu { rd, rs, rt } => {
                self.put(rd, sext32((self.gpr(rs) as u32).wrapping_add(self.gpr(rt) as u32)))
            }
            Op::Subu { rd, rs, rt } => {
                self.put(rd, sext32((self.gpr(rs) as u32).wrapping_sub(self.gpr(rt) as u32)))
            }
            Op::Add { rd, rs, rt } => {
                match (self.gpr(rs) as u32 as i32).checked_add(self.gpr(rt) as u32 as i32) {
                    Some(v) => self.put(rd, v as i64 as u64),
                    None => self.raise(TrapKind::IntegerOverflow, None),
                }
            }
            Op::Sub { rd, rs, rt } => {
                match (self.gpr(rs) as u32 as i32).checked_sub(self.gpr(rt) as u32 as i32) {
                    Some(v) => self.put(rd, v as i64 as u64),
                    None => self.raise(TrapKind::IntegerOverflow, None),
                }
            }
            Op::Daddu { rd, rs, rt } => self.put(rd, self.gpr(rs).wrapping_add(self.gpr(rt))),
            Op::Dsubu { rd, rs, rt } => self.put(rd, self.gpr(rs).wrapping_sub(self.gpr(rt))),
            Op::Dadd { rd, rs, rt } => {
                match (self.gpr(rs) as i64).checked_add(self.gpr(rt) as i64) {
                    Some(v) => self.put(rd, v as u64),
                    None => self.raise(TrapKind::IntegerOverflow, None),
                }
            }
            Op::Dsub { rd, rs, rt } => {
                match (self.gpr(rs) as i64).checked_sub(self.gpr(rt) as i64) {
                    Some(v) => self.put(rd, v as u64),
                    None => self.raise(TrapKind::IntegerOverflow, None),
                }
            }
            Op::And { rd, rs, rt } => self.put(rd, self.gpr(rs) & self.gpr(rt)),
            Op::Or { rd, rs, rt } => self.put(rd, self.gpr(rs) | self.gpr(rt)),
            Op::Xor { rd, rs, rt } => self.put(rd, self.gpr(rs) ^ self.gpr(rt)),
            Op::Nor { rd, rs, rt } => self.put(rd, !(self.gpr(rs) | self.gpr(rt))),
            Op::Slt { rd, rs, rt } => {
                self.put(rd, u64::from((self.gpr(rs) as i64) < (self.gpr(rt) as i64)))
            }
            Op::Sltu { rd, rs, rt } => self.put(rd, u64::from(self.gpr(rs) < self.gpr(rt))),
            Op::Movz { rd, rs, rt } if self.gpr(rt) == 0 => self.put(rd, self.gpr(rs)),
            Op::Movn { rd, rs, rt } if self.gpr(rt) != 0 => self.put(rd, self.gpr(rs)),
            Op::Movz { .. } | Op::Movn { .. } => Outcome::Next,
            Op::Addiu { rt, rs, imm } => {
                self.put(rt, sext32((self.gpr(rs) as u32).wrapping_add(imm as u32)))
            }
            Op::Addi { rt, rs, imm } => {
                match (self.gpr(rs) as u32 as i32).checked_add(imm as u32 as i32) {
                    Some(v) => self.put(rt, v as i64 as u64),
                    None => self.raise(TrapKind::IntegerOverflow, None),
                }
            }
            Op::Daddiu { rt, rs, imm } => self.put(rt, self.gpr(rs).wrapping_add(imm)),
            Op::Daddi { rt, rs, imm } => match (self.gpr(rs) as i64).checked_add(imm as i64) {
                Some(v) => self.put(rt, v as u64),
                None => self.raise(TrapKind::IntegerOverflow, None),
            },
            Op::Slti { rt, rs, imm } => {
                self.put(rt, u64::from((self.gpr(rs) as i64) < (imm as i64)))
            }
            Op::Sltiu { rt, rs, imm } => self.put(rt, u64::from(self.gpr(rs) < imm)),
            Op::Andi { rt, rs, imm } => self.put(rt, self.gpr(rs) & imm),
            Op::Ori { rt, rs, imm } => self.put(rt, self.gpr(rs) | imm),
            Op::Xori { rt, rs, imm } => self.put(rt, self.gpr(rs) ^ imm),
            Op::Lui { rt, value } => self.put(rt, value),
            Op::Sll { rd, rt, sa } => self.put(rd, sext32((self.gpr(rt) as u32) << sa)),
            Op::Srl { rd, rt, sa } => self.put(rd, sext32((self.gpr(rt) as u32) >> sa)),
            Op::Sra { rd, rt, sa } => {
                self.put(rd, sext32(((self.gpr(rt) as u32 as i32) >> sa) as u32))
            }
            Op::Dsll { rd, rt, sa } => self.put(rd, self.gpr(rt) << sa),
            Op::Dsrl { rd, rt, sa } => self.put(rd, self.gpr(rt) >> sa),
            Op::Dsra { rd, rt, sa } => self.put(rd, ((self.gpr(rt) as i64) >> sa) as u64),
            Op::Sllv { rd, rt, rs } => {
                self.put(rd, sext32((self.gpr(rt) as u32) << (self.gpr(rs) & 31)))
            }
            Op::Srlv { rd, rt, rs } => {
                self.put(rd, sext32((self.gpr(rt) as u32) >> (self.gpr(rs) & 31)))
            }
            Op::Srav { rd, rt, rs } => {
                self.put(rd, sext32(((self.gpr(rt) as u32 as i32) >> (self.gpr(rs) & 31)) as u32))
            }
            Op::Dsllv { rd, rt, rs } => self.put(rd, self.gpr(rt) << (self.gpr(rs) & 63)),
            Op::Dsrlv { rd, rt, rs } => self.put(rd, self.gpr(rt) >> (self.gpr(rs) & 63)),
            Op::Dsrav { rd, rt, rs } => {
                self.put(rd, ((self.gpr(rt) as i64) >> (self.gpr(rs) & 63)) as u64)
            }
            Op::Beq { rs, rt, off } => self.branch(pc, off, self.gpr(rs) == self.gpr(rt)),
            Op::Bne { rs, rt, off } => self.branch(pc, off, self.gpr(rs) != self.gpr(rt)),
            Op::Blez { rs, off } => self.branch(pc, off, self.gpr(rs) as i64 <= 0),
            Op::Bgtz { rs, off } => self.branch(pc, off, self.gpr(rs) as i64 > 0),
            Op::Bltz { rs, off } => self.branch(pc, off, (self.gpr(rs) as i64) < 0),
            Op::Bgez { rs, off } => self.branch(pc, off, self.gpr(rs) as i64 >= 0),
            Op::Bltzal { rs, off } => {
                let taken = (self.gpr(rs) as i64) < 0;
                self.put(reg::RA, pc.wrapping_add(8));
                self.branch(pc, off, taken)
            }
            Op::Bgezal { rs, off } => {
                let taken = self.gpr(rs) as i64 >= 0;
                self.put(reg::RA, pc.wrapping_add(8));
                self.branch(pc, off, taken)
            }
            Op::J { index } => Outcome::Jump {
                target: (pc.wrapping_add(4) & !0x0fff_ffff) | index,
                indirect: false,
            },
            Op::Jal { index } => {
                self.put(reg::RA, pc.wrapping_add(8));
                Outcome::Jump {
                    target: (pc.wrapping_add(4) & !0x0fff_ffff) | index,
                    indirect: false,
                }
            }
            Op::Jr { rs } => Outcome::Jump { target: self.gpr(rs), indirect: true },
            Op::Jalr { rd, rs } => {
                let target = self.gpr(rs);
                self.put(rd, pc.wrapping_add(8));
                Outcome::Jump { target, indirect: true }
            }
            Op::Lb { rt, base, imm } => self.legacy_load(rt, base, imm, Width::Byte, false),
            Op::Lbu { rt, base, imm } => self.legacy_load(rt, base, imm, Width::Byte, true),
            Op::Lh { rt, base, imm } => self.legacy_load(rt, base, imm, Width::Half, false),
            Op::Lhu { rt, base, imm } => self.legacy_load(rt, base, imm, Width::Half, true),
            Op::Lw { rt, base, imm } => self.legacy_load(rt, base, imm, Width::Word, false),
            Op::Lwu { rt, base, imm } => self.legacy_load(rt, base, imm, Width::Word, true),
            Op::Ld { rt, base, imm } => self.legacy_load(rt, base, imm, Width::Double, false),
            Op::Sb { rt, base, imm } => self.legacy_store(rt, base, imm, Width::Byte),
            Op::Sh { rt, base, imm } => self.legacy_store(rt, base, imm, Width::Half),
            Op::Sw { rt, base, imm } => self.legacy_store(rt, base, imm, Width::Word),
            Op::Sd { rt, base, imm } => self.legacy_store(rt, base, imm, Width::Double),
            Op::Clb { rd, cb, rt, off } => self.cap_load(rd, cb, rt, off, Width::Byte, false),
            Op::Clbu { rd, cb, rt, off } => self.cap_load(rd, cb, rt, off, Width::Byte, true),
            Op::Clh { rd, cb, rt, off } => self.cap_load(rd, cb, rt, off, Width::Half, false),
            Op::Clhu { rd, cb, rt, off } => self.cap_load(rd, cb, rt, off, Width::Half, true),
            Op::Clw { rd, cb, rt, off } => self.cap_load(rd, cb, rt, off, Width::Word, false),
            Op::Clwu { rd, cb, rt, off } => self.cap_load(rd, cb, rt, off, Width::Word, true),
            Op::Cld { rd, cb, rt, off } => self.cap_load(rd, cb, rt, off, Width::Double, false),
            Op::Csb { rs, cb, rt, off } => self.cap_store(rs, cb, rt, off, Width::Byte),
            Op::Csh { rs, cb, rt, off } => self.cap_store(rs, cb, rt, off, Width::Half),
            Op::Csw { rs, cb, rt, off } => self.cap_store(rs, cb, rt, off, Width::Word),
            Op::Csd { rs, cb, rt, off } => self.cap_store(rs, cb, rt, off, Width::Double),
            Op::CIncBase { cd, cb, rt } => match self.cap(cb).inc_base(self.gpr(rt)) {
                Ok(ncap) => {
                    self.cpu.caps.set(cd & 31, ncap);
                    Outcome::Next
                }
                Err(e) => self.cap_trap(e, cb),
            },
            Op::Clc { cd, cb, rt, imm } => self.load_cap(cd, cb, rt, imm),
            Op::Csc { cs, cb, rt, imm } => self.store_cap(cs, cb, rt, imm),
            Op::Other(inst) => self.execute_inst(&inst),
        }
    }

    /// Executes a decoded instruction that [`Machine::execute`] does not
    /// run itself ([`Op::Other`]).
    #[allow(clippy::too_many_lines)]
    fn execute_inst(&mut self, inst: &Inst) -> Outcome {
        match *inst {
            Inst::MulDiv { op, rs, rt } => {
                let a = self.cpu.get_gpr(rs);
                let b = self.cpu.get_gpr(rt);
                let (hi, lo, cyc) = muldiv(op, a, b);
                self.cpu.hi = hi;
                self.cpu.lo = lo;
                self.stats.cycles += cyc;
                Outcome::Next
            }
            Inst::Mfhi { rd } => {
                let hi = self.cpu.hi;
                self.cpu.set_gpr(rd, hi);
                Outcome::Next
            }
            Inst::Mflo { rd } => {
                let lo = self.cpu.lo;
                self.cpu.set_gpr(rd, lo);
                Outcome::Next
            }
            Inst::Mthi { rs } => {
                self.cpu.hi = self.cpu.get_gpr(rs);
                Outcome::Next
            }
            Inst::Mtlo { rs } => {
                self.cpu.lo = self.cpu.get_gpr(rs);
                Outcome::Next
            }
            Inst::LoadLinked { width, rt, base, imm } => {
                match self.legacy_access(base, imm as i64 as u64, width, false) {
                    Ok(paddr) => match self.load_value(paddr, width, false) {
                        Ok(v) => {
                            self.cpu.set_gpr(rt, v);
                            self.cpu.ll_reservation = Some(paddr);
                            Outcome::Next
                        }
                        Err(e) => self.fault(e),
                    },
                    Err(o) => o,
                }
            }
            Inst::StoreCond { width, rt, base, imm } => {
                let reserved = self.cpu.ll_reservation;
                match self.legacy_access(base, imm as i64 as u64, width, true) {
                    Ok(paddr) => {
                        if reserved == Some(paddr) {
                            let v = self.cpu.get_gpr(rt);
                            if let Err(e) = self.store_value(paddr, width, v) {
                                return self.fault(e);
                            }
                            self.cpu.set_gpr(rt, 1);
                        } else {
                            self.cpu.set_gpr(rt, 0);
                        }
                        self.cpu.ll_reservation = None;
                        Outcome::Next
                    }
                    Err(o) => o,
                }
            }
            Inst::Syscall { .. } => Outcome::Syscall,
            Inst::Break { code } => Outcome::Break(code),
            Inst::Mfc0 { rt, rd } => {
                let v = self.cpu.cp0.read(rd);
                self.cpu.set_gpr(rt, v);
                Outcome::Next
            }
            Inst::Mtc0 { rt, rd } => {
                let v = self.cpu.get_gpr(rt);
                self.cpu.cp0.write(rd, v);
                Outcome::Next
            }
            Inst::Tlbwi | Inst::Tlbwr => {
                let entry = self.entry_from_cp0();
                if matches!(inst, Inst::Tlbwi) {
                    let idx = (self.cpu.cp0.index as usize) % self.tlb.len();
                    self.tlb.write_indexed(idx, entry);
                } else {
                    self.tlb.write_random(entry);
                }
                self.invalidate_tcache();
                Outcome::Next
            }
            Inst::Tlbp => {
                let vaddr = self.cpu.cp0.entryhi;
                self.cpu.cp0.index = match self.tlb.probe(vaddr) {
                    Some(i) => i as u64,
                    None => 1 << 31, // P bit: not found
                };
                Outcome::Next
            }
            Inst::Tlbr => {
                let idx = (self.cpu.cp0.index as usize) % self.tlb.len();
                let e = self.tlb.read_indexed(idx);
                self.cpu.cp0.entryhi = e.vpn2 << (PAGE_SHIFT + 1);
                self.cpu.cp0.entrylo0 = lo_from_flags(e.pfn0, e.flags0);
                self.cpu.cp0.entrylo1 = lo_from_flags(e.pfn1, e.flags1);
                Outcome::Next
            }
            // ERET has no delay slot: a capability jump that keeps PCC.
            Inst::Eret => Outcome::CapJump { target: self.cpu.cp0.epc },
            Inst::Cheri(c) => self.execute_cheri(&c),
            Inst::Reserved { word } => self.raise(TrapKind::ReservedInstruction { word }, None),
            Inst::Alu { .. }
            | Inst::AluImm { .. }
            | Inst::Lui { .. }
            | Inst::Shift { .. }
            | Inst::ShiftV { .. }
            | Inst::Branch { .. }
            | Inst::BranchLink { .. }
            | Inst::J { .. }
            | Inst::Jal { .. }
            | Inst::Jr { .. }
            | Inst::Jalr { .. }
            | Inst::Load { .. }
            | Inst::Store { .. } => unreachable!("{inst:?} lowers to an Op of its own"),
        }
    }

    fn entry_from_cp0(&self) -> crate::tlb::TlbEntry {
        crate::tlb::TlbEntry {
            vpn2: self.cpu.cp0.entryhi >> (PAGE_SHIFT + 1),
            pfn0: (self.cpu.cp0.entrylo0 >> 6) & 0xf_ffff_ffff,
            flags0: flags_from_lo(self.cpu.cp0.entrylo0),
            pfn1: (self.cpu.cp0.entrylo1 >> 6) & 0xf_ffff_ffff,
            flags1: flags_from_lo(self.cpu.cp0.entrylo1),
            present: true,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn execute_cheri(&mut self, c: &CheriInst) -> Outcome {
        let pc = self.cpu.pc;

        match *c {
            CheriInst::CGetBase { rd, cb } => {
                let v = self.cpu.caps.get(cb).base();
                self.cpu.set_gpr(rd, v);
                Outcome::Next
            }
            CheriInst::CGetLen { rd, cb } => {
                let v = self.cpu.caps.get(cb).length();
                self.cpu.set_gpr(rd, v);
                Outcome::Next
            }
            CheriInst::CGetTag { rd, cb } => {
                let v = u64::from(self.cpu.caps.get(cb).tag());
                self.cpu.set_gpr(rd, v);
                Outcome::Next
            }
            CheriInst::CGetPerm { rd, cb } => {
                let v = u64::from(self.cpu.caps.get(cb).perms().bits());
                self.cpu.set_gpr(rd, v);
                Outcome::Next
            }
            CheriInst::CGetPCC { rd, cd } => {
                self.cpu.set_gpr(rd, pc);
                let pcc = *self.cpu.caps.pcc();
                self.cpu.caps.set(cd, pcc);
                Outcome::Next
            }
            CheriInst::CSetLen { cd, cb, rt } => {
                let len = self.cpu.get_gpr(rt);
                match self.cpu.caps.get(cb).set_len(len) {
                    Ok(ncap) => {
                        self.cpu.caps.set(cd, ncap);
                        Outcome::Next
                    }
                    Err(e) => self.cap_trap(e, cb),
                }
            }
            CheriInst::CClearTag { cd, cb } => {
                let ncap = self.cpu.caps.get(cb).clear_tag();
                self.cpu.caps.set(cd, ncap);
                Outcome::Next
            }
            CheriInst::CAndPerm { cd, cb, rt } => {
                let mask = Perms::from_bits_truncate(self.cpu.get_gpr(rt) as u32);
                match self.cpu.caps.get(cb).and_perm(mask) {
                    Ok(ncap) => {
                        self.cpu.caps.set(cd, ncap);
                        Outcome::Next
                    }
                    Err(e) => self.cap_trap(e, cb),
                }
            }
            CheriInst::CToPtr { rd, cb, ct } => {
                let v = self.cpu.caps.get(cb).to_ptr(self.cpu.caps.get(ct));
                self.cpu.set_gpr(rd, v);
                Outcome::Next
            }
            CheriInst::CFromPtr { cd, cb, rt } => {
                let ptr = self.cpu.get_gpr(rt);
                match Capability::from_ptr(self.cpu.caps.get(cb), ptr) {
                    Ok(ncap) => {
                        self.cpu.caps.set(cd, ncap);
                        Outcome::Next
                    }
                    Err(e) => self.cap_trap(e, cb),
                }
            }
            CheriInst::CBTU { cb, offset } | CheriInst::CBTS { cb, offset } => {
                let tag = self.cpu.caps.get(cb).tag();
                let taken = match c {
                    CheriInst::CBTU { .. } => !tag,
                    _ => tag,
                };
                self.branch(pc, (i64::from(offset) << 2) as u64, taken)
            }
            CheriInst::CLLD { rd, cb, rt, imm } => {
                match self.cap_access(cb, rt, (i64::from(imm) * 8) as u64, Width::Double, false) {
                    Ok(paddr) => match self.load_value(paddr, Width::Double, false) {
                        Ok(v) => {
                            self.cpu.set_gpr(rd, v);
                            self.cpu.ll_reservation = Some(paddr);
                            Outcome::Next
                        }
                        Err(e) => self.fault(e),
                    },
                    Err(o) => o,
                }
            }
            CheriInst::CSCD { rs, cb, rt, imm } => {
                let reserved = self.cpu.ll_reservation;
                match self.cap_access(cb, rt, (i64::from(imm) * 8) as u64, Width::Double, true) {
                    Ok(paddr) => {
                        if reserved == Some(paddr) {
                            let v = self.cpu.get_gpr(rs);
                            if let Err(e) = self.store_value(paddr, Width::Double, v) {
                                return self.fault(e);
                            }
                            self.cpu.set_gpr(rs, 1);
                        } else {
                            self.cpu.set_gpr(rs, 0);
                        }
                        self.cpu.ll_reservation = None;
                        Outcome::Next
                    }
                    Err(o) => o,
                }
            }
            CheriInst::CJR { cb } => {
                let cap = *self.cpu.caps.get(cb);
                if let Err(e) = cap.check_execute(cap.base()) {
                    return self.cap_trap(e, cb);
                }
                // PCC changes atomically with PC: nothing between execute
                // and retire reads it.
                self.cpu.caps.set_pcc(cap);
                Outcome::CapJump { target: cap.base() }
            }
            CheriInst::CJALR { cd, cb } => {
                let cap = *self.cpu.caps.get(cb);
                if let Err(e) = cap.check_execute(cap.base()) {
                    return self.cap_trap(e, cb);
                }
                // Link capability: the current PCC advanced to the return
                // point (pc + 4; capability jumps have no delay slot here).
                let pcc = *self.cpu.caps.pcc();
                let ret = pc.wrapping_add(4);
                match pcc.inc_base(ret.wrapping_sub(pcc.base())) {
                    Ok(link) => self.cpu.caps.set(cd, link),
                    Err(e) => return self.cap_trap(e, cb),
                }
                self.cpu.caps.set_pcc(cap);
                Outcome::CapJump { target: cap.base() }
            }
            CheriInst::CIncBase { .. }
            | CheriInst::CLoad { .. }
            | CheriInst::CStore { .. }
            | CheriInst::CLC { .. }
            | CheriInst::CSC { .. } => unreachable!("{c:?} lowers to an Op of its own"),
        }
    }

    /// `CLC cd, rt, imm(cb)`: loads a capability and its tag; `imm` is
    /// scaled by the capability size.
    fn load_cap(&mut self, cd: u8, cb: u8, rt: u8, imm: i8) -> Outcome {
        let csize = self.cfg.cap_format.size();
        let cap = *self.cpu.caps.get(cb);
        let offset = self.cpu.get_gpr(rt).wrapping_add((i64::from(imm) * csize as i64) as u64);
        let vaddr = cap.base().wrapping_add(offset);
        if let Err(e) = cap.check_cap_access_g(vaddr, false, csize) {
            return self.cap_trap(e, cb);
        }
        let (paddr, flags) = match self.translate(vaddr, false, false) {
            Ok(t) => t,
            Err(kind) => return self.raise(kind, Some(vaddr)),
        };
        self.stats.cycles += self.hierarchy.data(paddr, csize, false);
        self.stats.loads += 1;
        self.stats.bytes_loaded += csize;
        self.stats.cap_loads += 1;
        let before = self.mem.tag_stats().misses;
        let mut loaded = match self.load_cap_formatted(paddr) {
            Ok(cap) => cap,
            Err(e) => return self.fault(e),
        };
        self.charge_tag_misses(before);
        // A page without the capability-load permission strips
        // tags on load (Section 6.1's sharing-without-capabilities).
        if !self.bare && !flags.cap_load {
            loaded = loaded.clear_tag();
        }
        self.cpu.caps.set(cd, loaded);
        Outcome::Next
    }

    /// `CSC cs, rt, imm(cb)`: stores a capability register and its tag;
    /// `imm` is scaled by the capability size.
    fn store_cap(&mut self, cs: u8, cb: u8, rt: u8, imm: i8) -> Outcome {
        let csize = self.cfg.cap_format.size();
        let cap = *self.cpu.caps.get(cb);
        let offset = self.cpu.get_gpr(rt).wrapping_add((i64::from(imm) * csize as i64) as u64);
        let vaddr = cap.base().wrapping_add(offset);
        if let Err(e) = cap.check_cap_access_g(vaddr, true, csize) {
            return self.cap_trap(e, cb);
        }
        let stored = *self.cpu.caps.get(cs);
        let (paddr, flags) = match self.translate(vaddr, true, false) {
            Ok(t) => t,
            Err(kind) => return self.raise(kind, Some(vaddr)),
        };
        if !self.bare && stored.tag() && !flags.cap_store {
            return self.cap_trap(CapCause::new(CapExcCode::TlbProhibitStoreCap, cs), cs);
        }
        if self.cfg.cap_format == CapFormat::C128
            && stored.tag()
            && Compressed128::try_from_cap(&stored).is_err()
        {
            // The 128-bit format cannot represent this region
            // (Low-Fat alignment rules, Section 4.1).
            return self.cap_trap(CapCause::new(CapExcCode::AlignmentViolation, cs), cs);
        }
        self.stats.cycles += self.hierarchy.data(paddr, csize, true);
        self.stats.stores += 1;
        self.stats.bytes_stored += csize;
        self.stats.cap_stores += 1;
        let before = self.mem.tag_stats().misses;
        if let Err(e) = self.store_cap_formatted(paddr, &stored) {
            return self.fault(e);
        }
        self.charge_tag_misses(before);
        self.cpu.ll_reservation = None;
        Outcome::Next
    }

    /// Reads an in-memory capability in the configured format.
    fn load_cap_formatted(&mut self, paddr: u64) -> Result<Capability, MemError> {
        match self.cfg.cap_format {
            CapFormat::C256 => self.mem.read_cap(paddr),
            CapFormat::C128 => {
                let mut buf = [0u8; 16];
                let tag = self.mem.read_tagged(paddr, &mut buf)?;
                let decoded = Compressed128::from_bytes(&buf).decompress();
                Ok(if tag { decoded } else { decoded.clear_tag() })
            }
        }
    }

    /// Writes a register capability in the configured format. In the
    /// 128-bit format an untagged register stores as a zeroed granule:
    /// the format cannot carry arbitrary data bits (representability was
    /// checked for tagged values before calling this).
    fn store_cap_formatted(&mut self, paddr: u64, cap: &Capability) -> Result<(), MemError> {
        match self.cfg.cap_format {
            CapFormat::C256 => self.mem.write_cap(paddr, cap),
            CapFormat::C128 => {
                let bytes = match Compressed128::try_from_cap(cap) {
                    Ok(z) => z.to_bytes(),
                    Err(_) => [0u8; 16], // untagged (e.g. NULL): no bits to preserve
                };
                self.mem.write_tagged(paddr, &bytes, cap.tag())
            }
        }?;
        self.blocks.note_store(paddr);
        Ok(())
    }

    fn charge_tag_misses(&mut self, misses_before: u64) {
        let delta = self.mem.tag_stats().misses - misses_before;
        self.stats.cycles += delta * DRAM_LATENCY;
    }

    /// Exports every counter — [`Stats`], the per-cache hit/miss
    /// fields, DRAM traffic, and the tag-controller statistics — into
    /// one [`Snapshot`] under the canonical `cheri_trace::names`. The
    /// structs stay authoritative (their public accessors are
    /// unchanged); this is the common export used for run-to-run diffs
    /// and the one aggregate of the architectural events.
    #[must_use]
    pub fn metrics(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let s = &self.stats;
        snap.set_counter(names::INSTRUCTIONS, s.instructions);
        snap.set_counter("sim.cycles", s.cycles);
        snap.set_counter(names::CAP_INSTRUCTIONS, s.cap_instructions);
        snap.set_counter("sim.branches", s.branches);
        snap.set_counter("sim.mispredicts", s.mispredicts);
        snap.set_counter("sim.exceptions", s.exceptions);
        snap.set_counter(names::LOADS, s.loads);
        snap.set_counter(names::STORES, s.stores);
        snap.set_counter("mem.bytes_loaded", s.bytes_loaded);
        snap.set_counter("mem.bytes_stored", s.bytes_stored);
        snap.set_counter("mem.cap_loads", s.cap_loads);
        snap.set_counter("mem.cap_stores", s.cap_stores);
        snap.set_counter(names::SYSCALLS, s.syscalls);
        snap.set_counter(names::TLB_REFILLS, s.tlb_refills);
        snap.set_counter(names::CAP_EXCEPTIONS, s.cap_violations);
        let h = &self.hierarchy;
        snap.set_counter(names::L1I_HITS, h.l1i.hits);
        snap.set_counter(names::L1I_MISSES, h.l1i.misses);
        snap.set_counter(names::L1I_WRITEBACKS, h.l1i.writebacks);
        snap.set_counter(names::L1D_HITS, h.l1d.hits);
        snap.set_counter(names::L1D_MISSES, h.l1d.misses);
        snap.set_counter(names::L1D_WRITEBACKS, h.l1d.writebacks);
        snap.set_counter(names::L2_HITS, h.l2.hits);
        snap.set_counter(names::L2_MISSES, h.l2.misses);
        snap.set_counter(names::L2_WRITEBACKS, h.l2.writebacks);
        snap.set_counter("dram.accesses", h.dram_accesses);
        snap.set_counter("dram.bytes", h.dram_bytes);
        let t = self.mem.tag_stats();
        snap.set_counter(names::TAG_TABLE_READS, t.lookups);
        snap.set_counter(names::TAG_TABLE_WRITES, t.updates);
        snap.set_counter(names::TAG_CACHE_HITS, t.hits);
        snap.set_counter(names::TAG_CACHE_MISSES, t.misses);
        snap.set_counter(names::TAG_CACHE_WRITEBACKS, t.writebacks);
        snap
    }

    /// The identity half of a snapshot: everything needed to verify (or
    /// rebuild) a compatible machine. The `block_cache` flag is
    /// deliberately *not* recorded — it is architecturally
    /// transparent, so a snapshot taken with the block cache on restores
    /// bit-identically onto a machine running with it off (the
    /// transparency tests rely on this).
    fn export_config(&self) -> cheri_snap::ConfigState {
        cheri_snap::ConfigState {
            mem_bytes: self.cfg.mem_bytes as u64,
            tag_cache_bytes: self.cfg.tag_cache_bytes as u64,
            cap_size: self.cfg.cap_format.size(),
        }
    }

    /// Reconstructs a [`MachineConfig`] from a snapshot's identity
    /// section. `block_cache` is a caller decision (it is not part of
    /// the snapshot).
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if the recorded capability size names
    /// no known format, or the tag-cache size fails
    /// [`cheri_mem::TagController::valid_capacity`] (a machine built
    /// with it would panic).
    pub fn config_from_state(
        s: &cheri_snap::ConfigState,
        block_cache: bool,
    ) -> Result<MachineConfig, cheri_snap::SnapError> {
        let cap_format = match s.cap_size {
            32 => CapFormat::C256,
            16 => CapFormat::C128,
            other => {
                return Err(cheri_snap::SnapError(format!(
                    "unknown capability size {other} (expected 16 or 32)"
                )))
            }
        };
        if !cheri_mem::TagController::valid_capacity(s.tag_cache_bytes) {
            return Err(cheri_snap::SnapError(format!(
                "tag_cache_bytes {} is not 0 or a power of two of {}-byte tag lines",
                s.tag_cache_bytes,
                cheri_mem::TAG_LINE_BYTES
            )));
        }
        Ok(MachineConfig {
            mem_bytes: s.mem_bytes as usize,
            tag_cache_bytes: s.tag_cache_bytes as usize,
            cap_format,
            block_cache,
            fault: None,
        })
    }

    fn export_cpu(&self) -> cheri_snap::CpuState {
        let cp0 = &self.cpu.cp0;
        let mut caps = Vec::with_capacity(33);
        for i in 0..32u8 {
            caps.push(cap_to_state(self.cpu.caps.get(i)));
        }
        caps.push(cap_to_state(self.cpu.caps.pcc()));
        cheri_snap::CpuState {
            gpr: self.cpu.gpr,
            hi: self.cpu.hi,
            lo: self.cpu.lo,
            pc: self.cpu.pc,
            next_pc: self.cpu.next_pc,
            cp0: [
                cp0.index,
                cp0.entrylo0,
                cp0.entrylo1,
                cp0.badvaddr,
                cp0.count,
                cp0.entryhi,
                cp0.status,
                cp0.cause,
                cp0.epc,
                cp0.capcause,
            ],
            caps,
            ll_reservation: self.cpu.ll_reservation,
        }
    }

    fn import_cpu(&mut self, s: &cheri_snap::CpuState) -> Result<(), cheri_snap::SnapError> {
        if s.caps.len() != 33 {
            return Err(cheri_snap::SnapError(format!(
                "expected 33 capability registers (c0..c31 + PCC), snapshot has {}",
                s.caps.len()
            )));
        }
        self.cpu.gpr = s.gpr;
        self.cpu.gpr[0] = 0;
        self.cpu.hi = s.hi;
        self.cpu.lo = s.lo;
        self.cpu.pc = s.pc;
        self.cpu.next_pc = s.next_pc;
        let cp0 = &mut self.cpu.cp0;
        cp0.index = s.cp0[0];
        cp0.entrylo0 = s.cp0[1];
        cp0.entrylo1 = s.cp0[2];
        cp0.badvaddr = s.cp0[3];
        cp0.count = s.cp0[4];
        cp0.entryhi = s.cp0[5];
        cp0.status = s.cp0[6];
        cp0.cause = s.cp0[7];
        cp0.epc = s.cp0[8];
        cp0.capcause = s.cp0[9];
        for i in 0..32u8 {
            self.cpu.caps.set(i, cap_from_state(&s.caps[usize::from(i)]));
        }
        self.cpu.caps.set_pcc(cap_from_state(&s.caps[32]));
        self.cpu.ll_reservation = s.ll_reservation;
        Ok(())
    }

    /// Captures the complete machine state as a deterministic
    /// [`cheri_snap::MachineState`]: architectural state (CPU, CP0, CP2,
    /// TLB, tagged memory) *and* the timing model's microarchitectural
    /// state (caches, tag cache, branch predictor, statistics), so a
    /// restored run is bit-identical — same results, same cycle counts —
    /// to one that never stopped. Reconstructible acceleration state
    /// (the translation cache, the predecoded block cache) and harness
    /// attachments (the profiler) are excluded; they regenerate on demand
    /// and never affect either results or timing.
    #[must_use]
    pub fn snapshot(&self) -> cheri_snap::MachineState {
        cheri_snap::MachineState {
            config: self.export_config(),
            cpu: self.export_cpu(),
            tlb: self.tlb.export_state(),
            hierarchy: self.hierarchy.export_state(),
            predictor: self.predictor.export_state(),
            stats: self.stats.to_array(),
            bare: self.bare,
            mem: self.mem.export_state(),
        }
    }

    /// Restores state captured by [`Machine::snapshot`] onto this
    /// machine. The machine must have a compatible identity (same memory
    /// size, cache geometry, capability format, …); the `block_cache`
    /// setting may differ, since it is architecturally transparent.
    /// The translation cache and the predecoded block cache are emptied:
    /// they cache derivations of the state that was just replaced.
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] naming the first mismatch; on error the
    /// machine may be partially restored and must not be resumed.
    pub fn restore(&mut self, s: &cheri_snap::MachineState) -> Result<(), cheri_snap::SnapError> {
        let mine = self.export_config();
        if mine != s.config {
            return Err(cheri_snap::SnapError(format!(
                "machine identity mismatch: running {mine:?}, snapshot {:?}",
                s.config
            )));
        }
        self.import_cpu(&s.cpu)?;
        self.tlb.import_state(&s.tlb)?;
        self.hierarchy.import_state(&s.hierarchy)?;
        self.predictor.import_state(&s.predictor)?;
        self.stats = Stats::from_array(s.stats);
        self.bare = s.bare;
        self.mem.import_state(&s.mem)?;
        self.invalidate_tcache();
        self.blocks.invalidate_all();
        // Profile state is host-side only and never serialized: a
        // restored machine starts a fresh observation window, with the
        // delta baseline reseeded from the restored counters.
        if self.prof.is_some() {
            let seed = self.prof_sample();
            if let Some(p) = self.prof.as_mut() {
                p.reset(seed);
            }
        }
        Ok(())
    }

    /// Builds a fresh machine from a snapshot: reconstructs the
    /// configuration (with the caller's `block_cache` choice) and
    /// restores the state. This is how `Kernel::resume` and `specfuzz`
    /// resurrect a machine with no help from the harness that took the
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if the identity section is malformed or
    /// the state fails to restore.
    pub fn from_state(
        s: &cheri_snap::MachineState,
        block_cache: bool,
    ) -> Result<Machine, cheri_snap::SnapError> {
        let cfg = Machine::config_from_state(&s.config, block_cache)?;
        let mut m = Machine::new(cfg);
        m.restore(s)?;
        Ok(m)
    }
}

/// Converts a capability to its snapshot image: the tag plus the four
/// big-endian words of the 256-bit memory representation (Figure 1).
/// Shared with `cheri-os`, which snapshots saved contexts and domain
/// capabilities in the same format.
#[must_use]
pub fn cap_to_state(cap: &Capability) -> cheri_snap::CapState {
    let bytes = cap.to_bytes();
    let mut words = [0u64; 4];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u64::from_be_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte slice"));
    }
    cheri_snap::CapState { tag: cap.tag(), words }
}

/// Inverse of [`cap_to_state`].
#[must_use]
pub fn cap_from_state(s: &cheri_snap::CapState) -> Capability {
    let mut bytes = [0u8; 32];
    for (i, w) in s.words.iter().enumerate() {
        bytes[i * 8..i * 8 + 8].copy_from_slice(&w.to_be_bytes());
    }
    Capability::from_bytes(&bytes, s.tag)
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &format_args!("{:#x}", self.cpu.pc))
            .field("instructions", &self.stats.instructions)
            .field("bare", &self.bare)
            .finish()
    }
}

#[inline]
fn sext32(v: u32) -> u64 {
    v as i32 as i64 as u64
}

fn muldiv(op: MulDivOp, a: u64, b: u64) -> (u64, u64, u64) {
    match op {
        MulDivOp::Mult => {
            let p = i64::from(a as u32 as i32) * i64::from(b as u32 as i32);
            (sext32((p >> 32) as u32), sext32(p as u32), MUL_PENALTY)
        }
        MulDivOp::Multu => {
            let p = u64::from(a as u32) * u64::from(b as u32);
            (sext32((p >> 32) as u32), sext32(p as u32), MUL_PENALTY)
        }
        MulDivOp::Dmult => {
            let p = i128::from(a as i64) * i128::from(b as i64);
            ((p >> 64) as u64, p as u64, MUL_PENALTY)
        }
        MulDivOp::Dmultu => {
            let p = u128::from(a) * u128::from(b);
            ((p >> 64) as u64, p as u64, MUL_PENALTY)
        }
        MulDivOp::Div => {
            let (x, y) = (a as u32 as i32, b as u32 as i32);
            if y == 0 {
                (0, 0, DIV_PENALTY)
            } else {
                (sext32(x.wrapping_rem(y) as u32), sext32(x.wrapping_div(y) as u32), DIV_PENALTY)
            }
        }
        MulDivOp::Divu => {
            let (x, y) = (a as u32, b as u32);
            if y == 0 {
                (0, 0, DIV_PENALTY)
            } else {
                (sext32(x % y), sext32(x / y), DIV_PENALTY)
            }
        }
        MulDivOp::Ddiv => {
            let (x, y) = (a as i64, b as i64);
            if y == 0 {
                (0, 0, DIV_PENALTY)
            } else {
                (x.wrapping_rem(y) as u64, x.wrapping_div(y) as u64, DIV_PENALTY)
            }
        }
        MulDivOp::Ddivu => {
            if b == 0 {
                (0, 0, DIV_PENALTY)
            } else {
                (a % b, a / b, DIV_PENALTY)
            }
        }
    }
}

fn flags_from_lo(lo: u64) -> TlbFlags {
    TlbFlags {
        valid: lo & 0b10 != 0,
        dirty: lo & 0b100 != 0,
        cap_load: lo & (1 << 62) != 0,
        cap_store: lo & (1 << 63) != 0,
    }
}

fn lo_from_flags(pfn: u64, f: TlbFlags) -> u64 {
    (pfn << 6)
        | if f.valid { 0b10 } else { 0 }
        | if f.dirty { 0b100 } else { 0 }
        | if f.cap_load { 1 << 62 } else { 0 }
        | if f.cap_store { 1 << 63 } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::encode;
    use crate::inst::{AluImmOp, AluOp, BranchCond, ShiftOp};

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig { mem_bytes: 1 << 20, ..MachineConfig::default() });
        m.cpu.jump_to(0x1000);
        m
    }

    fn load(m: &mut Machine, insts: &[Inst]) {
        let words: Vec<u32> = insts.iter().map(encode).collect();
        m.load_code(0x1000, &words).unwrap();
    }

    fn step_n(m: &mut Machine, n: usize) {
        for _ in 0..n {
            assert_eq!(m.step().unwrap(), StepResult::Continue);
        }
    }

    #[test]
    fn ori_lui_build_constant() {
        let mut m = machine();
        load(
            &mut m,
            &[
                Inst::Lui { rt: 8, imm: 0x1234 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 8, imm: 0x5678 },
            ],
        );
        step_n(&mut m, 2);
        assert_eq!(m.cpu.gpr[8], 0x1234_5678);
    }

    #[test]
    fn lui_sign_extends() {
        let mut m = machine();
        load(&mut m, &[Inst::Lui { rt: 8, imm: 0x8000 }]);
        step_n(&mut m, 1);
        assert_eq!(m.cpu.gpr[8], 0xffff_ffff_8000_0000);
    }

    #[test]
    fn addu_wraps_32_and_sign_extends() {
        let mut m = machine();
        m.cpu.set_gpr(8, 0x7fff_ffff);
        m.cpu.set_gpr(9, 1);
        load(&mut m, &[Inst::Alu { op: AluOp::Addu, rd: 10, rs: 8, rt: 9 }]);
        step_n(&mut m, 1);
        assert_eq!(m.cpu.gpr[10], 0xffff_ffff_8000_0000);
    }

    #[test]
    fn add_overflow_traps() {
        let mut m = machine();
        m.cpu.set_gpr(8, 0x7fff_ffff);
        m.cpu.set_gpr(9, 1);
        load(&mut m, &[Inst::Alu { op: AluOp::Add, rd: 10, rs: 8, rt: 9 }]);
        match m.step().unwrap() {
            StepResult::Trap(e) => assert_eq!(e.kind, TrapKind::IntegerOverflow),
            other => panic!("expected trap, got {other:?}"),
        }
        // Destination unmodified.
        assert_eq!(m.cpu.gpr[10], 0);
    }

    #[test]
    fn branch_with_delay_slot() {
        let mut m = machine();
        // beq $0,$0,+2 ; ori $8,$0,1 (delay slot) ; ori $9,$0,2 (skipped) ;
        // ori $10,$0,3 (target)
        load(
            &mut m,
            &[
                Inst::Branch { cond: BranchCond::Eq, rs: 0, rt: 0, offset: 2 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 1 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 9, rs: 0, imm: 2 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 10, rs: 0, imm: 3 },
            ],
        );
        step_n(&mut m, 3);
        assert_eq!(m.cpu.gpr[8], 1, "delay slot must execute");
        assert_eq!(m.cpu.gpr[9], 0, "fall-through must be skipped");
        assert_eq!(m.cpu.gpr[10], 3, "target must execute");
    }

    #[test]
    fn not_taken_branch_falls_through() {
        let mut m = machine();
        m.cpu.set_gpr(8, 5);
        load(
            &mut m,
            &[
                Inst::Branch { cond: BranchCond::Eq, rs: 8, rt: 0, offset: 4 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 9, rs: 0, imm: 1 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 10, rs: 0, imm: 2 },
            ],
        );
        step_n(&mut m, 3);
        assert_eq!(m.cpu.gpr[9], 1);
        assert_eq!(m.cpu.gpr[10], 2);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let mut m = machine();
        // 0x1000: jal 0x1010 ; nop ; ori $9,$0,7 ; (0x100c unreachable)
        // 0x1010: ori $8,$0,5 ; jr $ra ; nop
        load(
            &mut m,
            &[
                Inst::Jal { target: 0x1010 >> 2 },
                Inst::Shift { op: ShiftOp::Sll, rd: 0, rt: 0, shamt: 0 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 9, rs: 0, imm: 7 },
                Inst::Break { code: 9 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 5 },
                Inst::Jr { rs: reg::RA },
                Inst::Shift { op: ShiftOp::Sll, rd: 0, rt: 0, shamt: 0 },
            ],
        );
        step_n(&mut m, 6);
        assert_eq!(m.cpu.gpr[8], 5);
        assert_eq!(m.cpu.gpr[9], 7);
        assert_eq!(m.cpu.gpr[reg::RA as usize], 0x1008);
    }

    #[test]
    fn load_store_roundtrip_with_sign_extension() {
        let mut m = machine();
        m.cpu.set_gpr(8, 0x2000);
        m.cpu.set_gpr(9, 0xffff_ffff_ffff_ff80); // -128
        load(
            &mut m,
            &[
                Inst::Store { width: Width::Byte, rt: 9, base: 8, imm: 0 },
                Inst::Load { width: Width::Byte, rt: 10, base: 8, imm: 0, unsigned: false },
                Inst::Load { width: Width::Byte, rt: 11, base: 8, imm: 0, unsigned: true },
            ],
        );
        step_n(&mut m, 3);
        assert_eq!(m.cpu.gpr[10] as i64, -128);
        assert_eq!(m.cpu.gpr[11], 0x80);
        assert_eq!(m.stats.loads, 2);
        assert_eq!(m.stats.stores, 1);
    }

    #[test]
    fn misaligned_access_is_address_error() {
        let mut m = machine();
        m.cpu.set_gpr(8, 0x2001);
        load(
            &mut m,
            &[Inst::Load { width: Width::Double, rt: 9, base: 8, imm: 0, unsigned: false }],
        );
        match m.step().unwrap() {
            StepResult::Trap(e) => {
                assert_eq!(e.kind, TrapKind::AddressError { vaddr: 0x2001, write: false });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn legacy_access_bounded_by_c0() {
        let mut m = machine();
        let small = Capability::new(0, 0x2000, Perms::ALL).unwrap();
        m.cpu.caps.set_c0(small);
        m.cpu.set_gpr(8, 0x2000);
        load(
            &mut m,
            &[Inst::Load { width: Width::Double, rt: 9, base: 8, imm: 0, unsigned: false }],
        );
        match m.step().unwrap() {
            StepResult::Trap(e) => match e.kind {
                TrapKind::CapViolation(c) => {
                    assert_eq!(c.code(), CapExcCode::LengthViolation);
                    assert_eq!(c.reg(), 0);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn c0_offsets_legacy_addresses() {
        // Sandbox: C0.base=0x4000; a load at "address 0" touches 0x4000.
        let mut m = machine();
        let sandbox = Capability::new(0x4000, 0x1000, Perms::ALL).unwrap();
        m.cpu.caps.set_c0(sandbox);
        m.mem.write_u64(0x4000, 0xabcd).unwrap();
        load(
            &mut m,
            &[Inst::Load { width: Width::Double, rt: 9, base: 0, imm: 0, unsigned: false }],
        );
        step_n(&mut m, 1);
        assert_eq!(m.cpu.gpr[9], 0xabcd);
    }

    #[test]
    fn syscall_reports_and_resumes() {
        let mut m = machine();
        load(
            &mut m,
            &[Inst::Syscall { code: 0 }, Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 1 }],
        );
        assert_eq!(m.step().unwrap(), StepResult::Syscall);
        // PC still at the syscall until the kernel resumes.
        assert_eq!(m.cpu.pc, 0x1000);
        m.advance_past_trap();
        step_n(&mut m, 1);
        assert_eq!(m.cpu.gpr[8], 1);
    }

    #[test]
    fn cincbase_csetlen_bound_loads() {
        let mut m = machine();
        m.cpu.set_gpr(8, 0x3000); // base delta
        m.cpu.set_gpr(9, 64); // length
        load(
            &mut m,
            &[
                Inst::Cheri(CheriInst::CIncBase { cd: 1, cb: 0, rt: 8 }),
                Inst::Cheri(CheriInst::CSetLen { cd: 1, cb: 1, rt: 9 }),
                // CLD $10, $0, 0($c1) — loads from 0x3000
                Inst::Cheri(CheriInst::CLoad {
                    width: Width::Double,
                    rd: 10,
                    cb: 1,
                    rt: 0,
                    imm: 0,
                    unsigned: false,
                }),
                // CLD $11, $0, 8($c1) i.e. imm=8 scaled => offset 64: out of bounds
                Inst::Cheri(CheriInst::CLoad {
                    width: Width::Double,
                    rd: 11,
                    cb: 1,
                    rt: 0,
                    imm: 8,
                    unsigned: false,
                }),
            ],
        );
        m.mem.write_u64(0x3000, 777).unwrap();
        step_n(&mut m, 3);
        assert_eq!(m.cpu.gpr[10], 777);
        match m.step().unwrap() {
            StepResult::Trap(e) => match e.kind {
                TrapKind::CapViolation(cause) => {
                    assert_eq!(cause.code(), CapExcCode::LengthViolation);
                    assert_eq!(cause.reg(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats.cap_violations, 1);
    }

    #[test]
    fn clc_csc_move_capabilities_with_tags() {
        let mut m = machine();
        m.cpu.set_gpr(8, 0x3000);
        m.cpu.set_gpr(9, 0x100);
        load(
            &mut m,
            &[
                Inst::Cheri(CheriInst::CIncBase { cd: 1, cb: 0, rt: 8 }),
                Inst::Cheri(CheriInst::CSetLen { cd: 1, cb: 1, rt: 9 }),
                // store C1 at offset 0 of C0 region address 0x2000 via C2
                Inst::Cheri(CheriInst::CSC { cs: 1, cb: 0, rt: 10, imm: 0 }),
                Inst::Cheri(CheriInst::CLC { cd: 3, cb: 0, rt: 10, imm: 0 }),
                Inst::Cheri(CheriInst::CGetTag { rd: 11, cb: 3 }),
                Inst::Cheri(CheriInst::CGetBase { rd: 12, cb: 3 }),
            ],
        );
        m.cpu.set_gpr(10, 0x2000);
        step_n(&mut m, 6);
        assert_eq!(m.cpu.gpr[11], 1, "tag must survive CSC/CLC");
        assert_eq!(m.cpu.gpr[12], 0x3000);
        assert_eq!(m.stats.cap_loads, 1);
        assert_eq!(m.stats.cap_stores, 1);
    }

    #[test]
    fn data_store_over_capability_clears_tag_end_to_end() {
        let mut m = machine();
        m.cpu.set_gpr(10, 0x2000);
        load(
            &mut m,
            &[
                Inst::Cheri(CheriInst::CSC { cs: 0, cb: 0, rt: 10, imm: 0 }),
                Inst::Store { width: Width::Double, rt: 9, base: 10, imm: 8 },
                Inst::Cheri(CheriInst::CLC { cd: 3, cb: 0, rt: 10, imm: 0 }),
                Inst::Cheri(CheriInst::CGetTag { rd: 11, cb: 3 }),
            ],
        );
        step_n(&mut m, 4);
        assert_eq!(m.cpu.gpr[11], 0, "data store must clear the tag");
    }

    #[test]
    fn cbtu_cbts_branch_on_tag() {
        let mut m = machine();
        load(
            &mut m,
            &[
                // C0 is tagged: CBTS taken, delay slot runs, skip one, land.
                Inst::Cheri(CheriInst::CBTS { cb: 0, offset: 2 }),
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 1 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 9, rs: 0, imm: 1 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 10, rs: 0, imm: 1 },
            ],
        );
        step_n(&mut m, 3);
        assert_eq!(m.cpu.gpr[8], 1);
        assert_eq!(m.cpu.gpr[9], 0);
        assert_eq!(m.cpu.gpr[10], 1);
    }

    #[test]
    fn cjalr_links_and_cjr_returns() {
        let mut m = machine();
        // Build a capability for the callee at 0x1040 and call through it.
        m.cpu.set_gpr(8, 0x1040);
        load(
            &mut m,
            &[
                Inst::Cheri(CheriInst::CIncBase { cd: 1, cb: 0, rt: 8 }), // 0x1000
                Inst::Cheri(CheriInst::CJALR { cd: 2, cb: 1 }),           // 0x1004
                Inst::AluImm { op: AluImmOp::Ori, rt: 9, rs: 0, imm: 9 }, // 0x1008 return lands here
            ],
        );
        // callee at 0x1040: ori $10,$0,7 ; cjr $c2
        m.load_code(
            0x1040,
            &[
                encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 10, rs: 0, imm: 7 }),
                encode(&Inst::Cheri(CheriInst::CJR { cb: 2 })),
            ],
        )
        .unwrap();
        step_n(&mut m, 5);
        assert_eq!(m.cpu.gpr[10], 7, "callee ran");
        assert_eq!(m.cpu.gpr[9], 9, "returned to linked address");
    }

    #[test]
    fn pcc_bounds_instruction_fetch() {
        let mut m = machine();
        // Constrain PCC to [0x1000, 0x1008): the third fetch faults.
        let pcc = Capability::new(0x1000, 8, Perms::EXECUTE | Perms::LOAD).unwrap();
        m.cpu.caps.set_pcc(pcc);
        load(
            &mut m,
            &[
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 1 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 8, imm: 2 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 8, imm: 4 },
            ],
        );
        step_n(&mut m, 2);
        match m.step().unwrap() {
            StepResult::Trap(e) => match e.kind {
                TrapKind::CapViolation(c) => {
                    assert_eq!(c.code(), CapExcCode::LengthViolation);
                    assert_eq!(c.reg(), cheri_core::exception::PCC_FAULT_REG);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ll_sc_succeeds_and_fails() {
        let mut m = machine();
        m.cpu.set_gpr(8, 0x2000);
        m.cpu.set_gpr(9, 41);
        load(
            &mut m,
            &[
                Inst::LoadLinked { width: Width::Double, rt: 10, base: 8, imm: 0 },
                Inst::StoreCond { width: Width::Double, rt: 9, base: 8, imm: 0 },
                // Second SC without LL fails.
                Inst::StoreCond { width: Width::Double, rt: 11, base: 8, imm: 0 },
            ],
        );
        step_n(&mut m, 3);
        assert_eq!(m.cpu.gpr[9], 1, "first SC succeeds");
        assert_eq!(m.cpu.gpr[11], 0, "second SC fails");
        assert_eq!(m.mem.read_u64(0x2000).unwrap(), 41);
    }

    #[test]
    fn muldiv_results() {
        let mut m = machine();
        m.cpu.set_gpr(8, 7);
        m.cpu.set_gpr(9, 3);
        load(
            &mut m,
            &[
                Inst::MulDiv { op: MulDivOp::Dmultu, rs: 8, rt: 9 },
                Inst::Mflo { rd: 10 },
                Inst::MulDiv { op: MulDivOp::Ddivu, rs: 8, rt: 9 },
                Inst::Mflo { rd: 11 },
                Inst::Mfhi { rd: 12 },
            ],
        );
        step_n(&mut m, 5);
        assert_eq!(m.cpu.gpr[10], 21);
        assert_eq!(m.cpu.gpr[11], 2);
        assert_eq!(m.cpu.gpr[12], 1);
    }

    #[test]
    fn translation_mode_faults_then_retries() {
        let mut m = machine();
        m.enable_translation();
        // A fetch immediately misses the TLB.
        match m.step().unwrap() {
            StepResult::Trap(e) => {
                assert!(matches!(e.kind, TrapKind::TlbRefill { vaddr: 0x1000, .. }));
            }
            other => panic!("{other:?}"),
        }
        // Kernel installs the mapping and the retry succeeds.
        m.tlb_install(0x1000, 0x1000, TlbFlags::rw());
        load(&mut m, &[Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 3 }]);
        assert_eq!(m.step().unwrap(), StepResult::Continue);
        assert_eq!(m.cpu.gpr[8], 3);
        assert_eq!(m.stats.tlb_refills, 1);
    }

    /// Every path that changes the TLB, or enters translated mode,
    /// empties the translation cache: after a page is remapped by it,
    /// every access kind gets the TLB's new answer, never a stale set's.
    #[test]
    fn translation_cache_never_serves_a_remapped_page() {
        const V: u64 = 0x4_0000;
        // The next page in the same set of every access kind.
        const ALIAS: u64 = V + (TC_SETS as u64) * 4096;
        const OLD: u64 = 0x8000;
        const NEW: u64 = 0xc000;
        let kinds = [(false, false), (true, false), (false, true)];
        let fresh = |m: &Machine, vaddr: u64, write: bool| {
            m.tlb.clone().translate(vaddr, write).map(|t| (t.paddr, t.flags))
        };
        // Maps V to OLD and caches it in every access kind's set.
        let warmed = || {
            let mut m = machine();
            m.enable_translation();
            m.tlb_install(V, OLD, TlbFlags::rw());
            m.tlb_install(ALIAS, NEW, TlbFlags::rw());
            for (write, fetch) in kinds {
                assert_eq!(m.translate(ALIAS + 8, write, fetch), Ok((NEW + 8, TlbFlags::rw())));
                assert_eq!(m.translate(V + 8, write, fetch), Ok((OLD + 8, TlbFlags::rw())));
            }
            m
        };
        let mut remapped = warmed();
        remapped.tlb.install(V, NEW, TlbFlags::rw_no_caps());
        let remapped = remapped.snapshot();
        let entryhi = V >> (PAGE_SHIFT + 1) << (PAGE_SHIFT + 1);
        let tlbw = |m: &mut Machine, inst: Inst| {
            m.cpu.cp0.index = m.tlb.probe(V).expect("V is mapped") as u64;
            m.cpu.cp0.entryhi = entryhi;
            m.cpu.cp0.entrylo0 = lo_from_flags(NEW >> PAGE_SHIFT, TlbFlags::rw_no_caps());
            m.cpu.cp0.entrylo1 = 0;
            assert!(matches!(m.execute_inst(&inst), Outcome::Next));
        };
        let paths = [
            "tlb_install",
            "tlb_flush",
            "tlb_invalidate_page",
            "TLBWI",
            "TLBWR",
            "enable_translation",
            "restore",
        ];
        for name in paths {
            let mut m = warmed();
            match name {
                "tlb_install" => m.tlb_install(V, NEW, TlbFlags::rw_no_caps()),
                "tlb_flush" => m.tlb_flush(),
                "tlb_invalidate_page" => m.tlb_invalidate_page(V),
                "TLBWI" => tlbw(&mut m, Inst::Tlbwi),
                "TLBWR" => tlbw(&mut m, Inst::Tlbwr),
                "enable_translation" => {
                    m.tlb.install(V, NEW, TlbFlags::rw_no_caps());
                    m.enable_translation();
                }
                _ => m.restore(&remapped).unwrap(),
            }
            for (write, fetch) in kinds {
                for vaddr in [V + 8, ALIAS + 8] {
                    assert_eq!(
                        m.translate(vaddr, write, fetch),
                        fresh(&m, vaddr, write),
                        "{name}: {vaddr:#x} write={write} fetch={fetch}"
                    );
                }
            }
            assert_ne!(fresh(&m, V, false), Ok((OLD, TlbFlags::rw())), "{name} remaps V");
        }
    }

    #[test]
    fn cap_store_to_no_capstore_page_traps_and_load_strips() {
        let mut m = machine();
        m.enable_translation();
        m.tlb_install(0x1000, 0x1000, TlbFlags::rw()); // code page
        m.tlb_install(0x2000, 0x2000, TlbFlags::rw_no_caps()); // data page
        m.cpu.set_gpr(10, 0x2000);
        load(&mut m, &[Inst::Cheri(CheriInst::CSC { cs: 0, cb: 0, rt: 10, imm: 0 })]);
        match m.step().unwrap() {
            StepResult::Trap(e) => match e.kind {
                TrapKind::CapViolation(c) => {
                    assert_eq!(c.code(), CapExcCode::TlbProhibitStoreCap);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // Write the bytes of a valid capability there as data, then CLC:
        // the loaded value must arrive untagged.
        let img = Capability::max().to_bytes();
        m.mem.write_bytes(0x2000, &img).unwrap();
        m.cpu.jump_to(0x1100);
        m.tlb_install(0x1000, 0x1000, TlbFlags::rw());
        m.load_code(
            0x1100,
            &[
                encode(&Inst::Cheri(CheriInst::CLC { cd: 3, cb: 0, rt: 10, imm: 0 })),
                encode(&Inst::Cheri(CheriInst::CGetTag { rd: 11, cb: 3 })),
            ],
        )
        .unwrap();
        step_n(&mut m, 2);
        assert_eq!(m.cpu.gpr[11], 0, "tag must be stripped on cap-load from no-cap page");
    }

    #[test]
    fn stats_count_instructions_and_cycles() {
        let mut m = machine();
        load(
            &mut m,
            &[
                Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 1 },
                Inst::AluImm { op: AluImmOp::Ori, rt: 9, rs: 0, imm: 2 },
            ],
        );
        step_n(&mut m, 2);
        assert_eq!(m.stats.instructions, 2);
        assert!(m.stats.cycles >= 2, "at least base CPI");
        assert!(m.stats.cycles > 2, "cold I-cache must cost something");
    }
}
