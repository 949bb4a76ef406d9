//! # beri-sim — the BERI/CHERI processor
//!
//! A software model of the evaluation platform of the ISCA 2014 CHERI
//! paper: BERI (Bluespec Extensible RISC Implementation), a single-issue,
//! in-order, 6-stage 64-bit MIPS IV core, extended with the CHERI
//! capability coprocessor (CP2) and tagged memory.
//!
//! The simulator is *architecturally* faithful (every committed
//! instruction has the documented effect, including capability checks,
//! TLB behaviour, and exceptions) and *cycle-approximate*: a memory
//! hierarchy with the paper's geometry (32-byte lines, 16 KB L1 caches, a
//! 64 KB L2, a TLB covering 1 MB) plus a branch predictor charge the
//! stall cycles that dominate Figures 4 and 5.
//!
//! ## Structure
//!
//! * [`inst`] / [`decode`] — the MIPS IV subset plus the Table 1 CHERI
//!   extensions in the COP2 opcode space.
//! * [`cpu`] — architectural state: GPRs, HI/LO, PC, CP0, the capability
//!   register file.
//! * [`tlb`] — the software-managed TLB with CHERI's capability-load /
//!   capability-store page-permission bits.
//! * [`cache`] — L1I/L1D/L2 cache models and the latency accounting.
//! * [`machine`] — [`Machine`]: fetch/decode/execute loop; returns
//!   [`StepResult`] so a host-level kernel (`cheri-os`) can service
//!   syscalls, TLB refills, and capability violations.
//! * [`pipeline`] — the Figure 2 stage structure, used descriptively by
//!   the Fig. 2 harness and for the branch/forwarding cycle model.
//!
//! ## Example
//!
//! Running a tiny hand-encoded program to completion:
//!
//! ```
//! use beri_sim::{Machine, MachineConfig, StepResult};
//!
//! let mut m = Machine::new(MachineConfig::default());
//! // ori $v0, $zero, 42 ; syscall
//! let prog = [0x3402_002au32, 0x0000_000c];
//! m.load_code(0x1000, &prog).unwrap();
//! m.identity_map_all();
//! m.cpu.pc = 0x1000;
//! loop {
//!     match m.step().unwrap() {
//!         StepResult::Continue => {}
//!         StepResult::Syscall => break,
//!         other => panic!("unexpected {other:?}"),
//!     }
//! }
//! assert_eq!(m.cpu.gpr[2], 42); // $v0
//! ```

mod block;
pub mod cache;
pub mod cpu;
pub mod decode;
pub mod exception;
pub mod inst;
pub mod machine;
pub mod pipeline;
pub mod stats;
pub mod tlb;

pub use cache::{Cache, CacheParams, Hierarchy};
pub use cpu::{Cp0, Cpu};
pub use exception::{Exception, TrapKind};
pub use inst::{reg, Inst};
pub use machine::{
    cap_from_state, cap_to_state, CapFormat, FaultInjection, Machine, MachineConfig, StepResult,
};
pub use stats::Stats;
pub use tlb::{Tlb, TlbEntry, TlbFlags};
