//! # cheri-os — a minimal OS substrate for BERI/CHERI
//!
//! The ISCA 2014 evaluation ran FreeBSD 10 on the FPGA; what the
//! experiments actually exercise of the OS is small and architectural:
//!
//! * **exec**: "when the first user process is created or `execve()` is
//!   invoked, the entire user virtual address space is delegated to the
//!   user register file" (Section 4.3) — [`Kernel::exec`] installs `C0`
//!   and `PCC` spanning the user address space and nulls the rest.
//! * **software TLB refill** with demand-paged anonymous memory — each
//!   refill charges the handler's cycles, producing the TLB step in
//!   Figure 5; the count of distinct pages faulted in is the process's
//!   virtual-memory footprint.
//! * **syscalls** ([`abi`]): exit, phase markers (used by the Figure 4
//!   allocation/computation decomposition), value printing, `brk`, and
//!   cycle reads.
//! * **context switches** that save and restore capability-register
//!   state ([`Context`]).
//! * **capability faults** delivered to the process (here: terminating it
//!   and reporting the cause, like an uncaught `SIGPROT`).
//!
//! A run is observed two ways: [`Kernel::metrics`] reads the
//! simulator's own counters into one snapshot, and the kernel's stack of
//! open phase and domain spans, with its execs and syscalls, drives an
//! attached profiler's timeline (`cheri_prof::Profiler`), the one
//! per-event view of a run.
//!
//! The kernel is *host-level*: it runs as Rust against the [`Machine`]
//! rather than as guest code behind the exception vector. Every
//! architectural interaction (TLB contents, page permissions, capability
//! state, syscall register convention) is identical to a guest-resident
//! kernel; only the kernel's own instruction stream is not simulated,
//! and its cost is charged via a per-service cycle tariff.

pub mod context;
pub mod domains;
pub mod gc;
pub mod kernel;
pub mod layout;
pub mod snap;

pub use context::Context;
pub use domains::DomainSpec;
pub use gc::GcReport;
pub use kernel::{ExitReason, Kernel, KernelConfig, OsError, PhaseRecord, RunOutcome};
pub use layout::ProcessLayout;

use beri_sim::Machine;

/// The syscall ABI: the service number goes in `$v0`, arguments in
/// `$a0..`, the result (if any) returns in `$v0`.
pub mod abi {
    /// Terminate the process; `$a0` = exit value.
    pub const SYS_EXIT: u64 = 1;
    /// Mark a measurement phase boundary; `$a0` = phase id. Used to
    /// decompose runs into allocation and computation (Figure 4).
    pub const SYS_PHASE: u64 = 2;
    /// Record `$a0` in the run's output list (the simulator's stdout).
    pub const SYS_PRINT: u64 = 3;
    /// Write byte `$a0` to the console buffer.
    pub const SYS_PUTCHAR: u64 = 4;
    /// Grow the heap break to `$a0`; returns the new break in `$v0`.
    pub const SYS_BRK: u64 = 5;
    /// Read the cycle counter into `$v0`.
    pub const SYS_GETCOUNT: u64 = 6;
    /// Protected domain call (Section 11): `$a0` = domain id, `$a1` =
    /// integer argument; returns the callee's result in `$v0`.
    pub const SYS_DCALL: u64 = 7;
    /// Return from a protected domain call: `$a0` = result.
    pub const SYS_DRETURN: u64 = 8;
}

/// The `BREAK` code generated by software bounds checks (the CCured-style
/// strategy) on a failed check; the kernel reports it as a
/// bounds-violation termination.
pub const SOFT_BOUNDS_BREAK_CODE: u32 = 0xbad;

/// Convenience: builds a machine + kernel pair with default
/// configuration, ready for [`Kernel::exec`].
///
/// # Example
///
/// ```
/// let kernel = cheri_os::boot(cheri_os::KernelConfig::default());
/// assert!(kernel.machine().translation_enabled());
/// ```
#[must_use]
pub fn boot(cfg: KernelConfig) -> Kernel {
    let mut machine = Machine::new(cfg.machine.clone());
    machine.enable_translation();
    Kernel::new(machine, cfg)
}
