//! Protected domain crossing — the Section 11 mechanism, emulated by
//! trapping to the OS.
//!
//! "We are experimenting with several mechanisms for protected domain
//! crossing. Our current prototype traps to the OS to emulate a
//! protected procedure-call instruction, but we intend to provide a
//! hardware (or hardware-assisted) implementation as the software model
//! matures."
//!
//! A *domain* is an entry point plus the capability state it runs with
//! (`C0`/`PCC` restricted to its own compartment, everything else
//! nulled). `SYS_DCALL` performs the protected call: the kernel saves
//! the caller's full context (including its capability registers),
//! installs the callee's, and passes one integer argument; `SYS_DRETURN`
//! restores the caller with the callee's integer result. The two
//! compartments are mutually distrusting: neither holds capabilities for
//! the other's memory, so even a compromised callee cannot read the
//! caller's data — it traps.

use cheri_core::{CapRegFile, Capability, Perms};
use cheri_trace::{emit, TraceEvent};

use crate::context::Context;
use crate::kernel::Kernel;

/// A registered protection domain.
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Diagnostic name.
    pub name: &'static str,
    /// Entry PC (inside the domain's region).
    pub entry: u64,
    /// The domain's data/stack compartment, installed as `C0`.
    pub c0: Capability,
    /// The domain's code capability, installed as `PCC`.
    pub pcc: Capability,
    /// Initial stack pointer (top of the compartment, 32-byte aligned).
    pub stack_top: u64,
}

impl Kernel {
    /// Registers a protection domain whose compartment is
    /// `[base, base+len)` with code at `entry` inside it.
    ///
    /// # Errors
    ///
    /// Returns capability-construction failures for degenerate regions.
    pub fn register_domain(
        &mut self,
        name: &'static str,
        entry: u64,
        base: u64,
        len: u64,
    ) -> Result<usize, cheri_core::CapCause> {
        let c0 = Capability::new(
            base,
            len,
            Perms::LOAD | Perms::STORE | Perms::LOAD_CAP | Perms::STORE_CAP,
        )?;
        let pcc = Capability::new(base, len, Perms::EXECUTE | Perms::LOAD)?;
        let spec = DomainSpec { name, entry, c0, pcc, stack_top: (base + len) & !31 };
        self.domains.push(spec);
        Ok(self.domains.len() - 1)
    }

    /// The registered domains.
    #[must_use]
    pub fn domains(&self) -> &[DomainSpec] {
        &self.domains
    }

    /// Services `SYS_DCALL` (`$a0` = domain id, `$a1` = argument):
    /// context-switches into the callee domain. Returns `false` if the
    /// domain id is invalid (the syscall then fails with `u64::MAX`).
    pub(crate) fn domain_call(&mut self, id: u64, arg: u64) -> bool {
        let Some(spec) = self.domains.get(id as usize).cloned() else {
            return false;
        };
        // Resume point: after the syscall.
        self.machine_mut().advance_past_trap();
        let saved = Context::save(&self.machine().cpu);
        self.domain_stack.push(saved);
        // Domain numbering for `DomainCross` events: 0 is the root
        // process, registered domain `i` is `i + 1`. (Domain spans carry
        // the registered index `i` itself.)
        let from = self.domain_id_stack.last().copied().unwrap_or(0);
        let to = id + 1;
        self.domain_id_stack.push(to);
        self.domain_calls += 1;
        emit(&self.sink, || TraceEvent::DomainCross { from, to, enter: true });

        let cpu = &mut self.machine_mut().cpu;
        // Mutual distrust: no caller registers leak into the callee.
        cpu.gpr = [0; 32];
        cpu.hi = 0;
        cpu.lo = 0;
        cpu.ll_reservation = None;
        cpu.set_gpr(beri_sim::reg::A0, arg);
        // The callee's stack lives at the top of its own compartment,
        // addressed compartment-relative (C0-offset).
        cpu.set_gpr(beri_sim::reg::SP, (spec.stack_top - spec.c0.base()) & !31);
        cpu.caps = CapRegFile::empty();
        cpu.caps.set_c0(spec.c0);
        cpu.caps.set_pcc(spec.pcc);
        cpu.jump_to(spec.entry);
        true
    }

    /// Services `SYS_DRETURN` (`$a0` = return value): restores the
    /// caller. Returns `false` when there is no caller to return to.
    pub(crate) fn domain_return(&mut self, value: u64) -> bool {
        let Some(saved) = self.domain_stack.pop() else {
            return false;
        };
        let from = self.domain_id_stack.pop().unwrap_or(0);
        let to = self.domain_id_stack.last().copied().unwrap_or(0);
        self.domain_returns += 1;
        emit(&self.sink, || TraceEvent::DomainCross { from, to, enter: false });
        let cpu = &mut self.machine_mut().cpu;
        saved.restore(cpu);
        cpu.set_gpr(beri_sim::reg::V0, value);
        true
    }

    /// Depth of nested protected calls currently outstanding.
    #[must_use]
    pub fn domain_call_depth(&self) -> usize {
        self.domain_stack.len()
    }
}
