//! Architectural exceptions.
//!
//! The simulator delivers exceptions to its embedder (normally the
//! `cheri-os` host-level kernel) rather than vectoring into guest code;
//! CP0 state (`EPC`, `Cause`, `BadVAddr`, capability cause) is still
//! updated as the hardware would, so a guest-resident handler could be
//! added without changing the model.

use cheri_core::CapCause;
use core::fmt;

/// What kind of trap occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrapKind {
    /// TLB refill: no entry matched the virtual address. The software
    /// refill handler (kernel) must install a mapping and retry.
    TlbRefill {
        /// Faulting virtual address.
        vaddr: u64,
        /// Whether the access was a store.
        write: bool,
    },
    /// A matching TLB entry was found but is invalid.
    TlbInvalid {
        /// Faulting virtual address.
        vaddr: u64,
        /// Whether the access was a store.
        write: bool,
    },
    /// Store to a page whose dirty bit is clear.
    TlbModified {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// Misaligned or otherwise malformed address.
    AddressError {
        /// Faulting virtual address.
        vaddr: u64,
        /// Whether the access was a store.
        write: bool,
    },
    /// `SYSCALL` executed; the code field distinguishes services.
    Syscall {
        /// The 20-bit code field of the instruction.
        code: u32,
    },
    /// `BREAK` executed.
    Break {
        /// The 20-bit code field.
        code: u32,
    },
    /// Trapping integer overflow (`ADD`, `ADDI`, `SUB`, `DADD`, ...).
    IntegerOverflow,
    /// Unimplemented or unallocated encoding.
    ReservedInstruction {
        /// The raw instruction word.
        word: u32,
    },
    /// A CHERI capability violation (CP2 exception).
    CapViolation(CapCause),
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::TlbRefill { vaddr, write } => {
                write!(f, "tlb refill at {vaddr:#x} ({})", rw(*write))
            }
            TrapKind::TlbInvalid { vaddr, write } => {
                write!(f, "tlb invalid at {vaddr:#x} ({})", rw(*write))
            }
            TrapKind::TlbModified { vaddr } => write!(f, "tlb modified at {vaddr:#x}"),
            TrapKind::AddressError { vaddr, write } => {
                write!(f, "address error at {vaddr:#x} ({})", rw(*write))
            }
            TrapKind::Syscall { code } => write!(f, "syscall {code}"),
            TrapKind::Break { code } => write!(f, "break {code}"),
            TrapKind::IntegerOverflow => write!(f, "integer overflow"),
            TrapKind::ReservedInstruction { word } => {
                write!(f, "reserved instruction {word:#010x}")
            }
            TrapKind::CapViolation(cause) => write!(f, "capability violation: {cause}"),
        }
    }
}

fn rw(write: bool) -> &'static str {
    if write {
        "store"
    } else {
        "load"
    }
}

/// A delivered exception: the kind plus the PC of the faulting
/// instruction (the value written to `EPC`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exception {
    /// What happened.
    pub kind: TrapKind,
    /// PC of the faulting instruction.
    pub pc: u64,
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pc {:#x}", self.kind, self.pc)
    }
}

impl std::error::Error for Exception {}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_core::{CapCause, CapExcCode};

    #[test]
    fn display_formats() {
        let e = Exception { kind: TrapKind::TlbRefill { vaddr: 0x4000, write: true }, pc: 0x1000 };
        let s = e.to_string();
        assert!(s.contains("0x4000"));
        assert!(s.contains("store"));
        assert!(s.contains("0x1000"));
    }

    #[test]
    fn cap_violation_carries_cause() {
        let k = TrapKind::CapViolation(CapCause::new(CapExcCode::LengthViolation, 4));
        assert!(k.to_string().contains("bounds"));
        assert!(k.to_string().contains("C4"));
    }
}
