//! The specification machine: an architectural interpreter for the
//! bare-translation configuration the lockstep fuzzer runs under.
//!
//! This is the slow half of the differential pair. It models *only*
//! architectural state — registers, CP0, the capability file, a flat
//! byte memory with a one-`bool`-per-granule tag map, and the software
//! TLB's architectural contents (the TLB instructions execute even when
//! translation itself is bare/identity). There are no caches, no block
//! cache, no predictors, no statistics: just the paper's rules, applied
//! one instruction at a time.
//!
//! Trap delivery, delay-slot bookkeeping, and the retire order follow
//! the MIPS R4000 model the simulator documents:
//!
//! 1. fetch is validated against `PCC` (Section 4.4), then read;
//! 2. the instruction executes, possibly faulting;
//! 3. on a trap, `EPC`/`Cause`/`BadVAddr`/`CapCause` are written and the
//!    PC is left *unchanged* (the kernel resumes via
//!    [`SpecMachine::advance_past_trap`]);
//! 4. on retire, `Count` increments and the `pc`/`next_pc` pair advances
//!    (branches and jumps have a delay slot; capability jumps and `ERET`
//!    do not).

use crate::cap::{exc, pack_cause, SpecCap};
use crate::compress::{decompress128, pack128, representable128};
use crate::decode::{decode, Alu3, AluI, Cond, MulDiv, Sh, SpecOp, W};

/// The in-memory capability format, which fixes the tag granule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecFormat {
    /// The architectural 256-bit format of Figure 1 (32-byte granules).
    C256,
    /// The compressed 128-bit Low-Fat format (16-byte granules).
    C128,
}

impl SpecFormat {
    /// Size in bytes of one in-memory capability (= one tag granule).
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            SpecFormat::C256 => 32,
            SpecFormat::C128 => 16,
        }
    }
}

/// What one [`SpecMachine::step`] produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecEvent {
    /// The instruction retired normally.
    Retired,
    /// A `SYSCALL` took the exception vector (the service path: CP0 is
    /// written, the PC stays at the syscall).
    Syscall,
    /// A `BREAK` with its code; like a trap, the PC does not move.
    Break(u32),
    /// An architectural exception was delivered, with its MIPS cause
    /// code (capability faults are code 18, with `capcause` filled in).
    Trap {
        /// The MIPS exception code written to `Cause` bits 6:2.
        code: u64,
    },
    /// The access passed every architectural check but fell outside
    /// physical memory — the simulator-level `MemError` in bare mode.
    MemFault,
}

/// MIPS exception codes (`Cause` bits 6:2) for the faults the bare
/// configuration can raise.
pub mod mips {
    /// TLB modified (store to a clean page).
    pub const TLB_MOD: u64 = 1;
    /// TLB refill/invalid on a load or fetch.
    pub const TLB_LOAD: u64 = 2;
    /// TLB refill/invalid on a store.
    pub const TLB_STORE: u64 = 3;
    /// Address error (misalignment) on a load or fetch.
    pub const ADDR_LOAD: u64 = 4;
    /// Address error on a store.
    pub const ADDR_STORE: u64 = 5;
    /// System call.
    pub const SYSCALL: u64 = 8;
    /// Breakpoint.
    pub const BREAK: u64 = 9;
    /// Reserved (unallocated) instruction.
    pub const RESERVED: u64 = 10;
    /// Integer overflow from a trapping add/subtract.
    pub const OVERFLOW: u64 = 12;
    /// Capability violation (C2E).
    pub const CAP: u64 = 18;
}

/// The CP0 subset the instruction set can reach, as plain fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SpecCp0 {
    pub index: u64,
    pub entrylo0: u64,
    pub entrylo1: u64,
    pub badvaddr: u64,
    pub count: u64,
    pub entryhi: u64,
    pub status: u64,
    pub cause: u64,
    pub epc: u64,
    pub capcause: u64,
}

impl SpecCp0 {
    /// `MFC0`: unimplemented registers read as zero.
    #[must_use]
    pub fn read(&self, rd: u8) -> u64 {
        match rd {
            0 => self.index,
            2 => self.entrylo0,
            3 => self.entrylo1,
            8 => self.badvaddr,
            9 => self.count,
            10 => self.entryhi,
            12 => self.status,
            13 => self.cause,
            14 => self.epc,
            27 => self.capcause,
            _ => 0,
        }
    }

    /// `MTC0`: writes to read-only or unimplemented registers are
    /// discarded (`BadVAddr`, `Cause`, `CapCause` are read-only).
    pub fn write(&mut self, rd: u8, value: u64) {
        match rd {
            0 => self.index = value,
            2 => self.entrylo0 = value,
            3 => self.entrylo1 = value,
            9 => self.count = value,
            10 => self.entryhi = value,
            12 => self.status = value,
            14 => self.epc = value,
            _ => {}
        }
    }
}

const PAGE_SHIFT: u32 = 12;

/// One architectural TLB entry (a pair of 4 KB pages), with the four
/// per-page flag bits packed into a nibble.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TlbEnt {
    vpn2: u64,
    pfn0: u64,
    flags0: u8,
    pfn1: u64,
    flags1: u8,
    present: bool,
}

const FLAG_VALID: u8 = 1;
const FLAG_DIRTY: u8 = 2;
const FLAG_CAP_LOAD: u8 = 4;
const FLAG_CAP_STORE: u8 = 8;

fn flags_from_lo(lo: u64) -> u8 {
    let mut f = 0;
    if lo & 0b10 != 0 {
        f |= FLAG_VALID;
    }
    if lo & 0b100 != 0 {
        f |= FLAG_DIRTY;
    }
    if lo & (1 << 62) != 0 {
        f |= FLAG_CAP_LOAD;
    }
    if lo & (1 << 63) != 0 {
        f |= FLAG_CAP_STORE;
    }
    f
}

fn lo_from_flags(pfn: u64, f: u8) -> u64 {
    (pfn << 6)
        | if f & FLAG_VALID != 0 { 0b10 } else { 0 }
        | if f & FLAG_DIRTY != 0 { 0b100 } else { 0 }
        | if f & FLAG_CAP_LOAD != 0 { 1 << 62 } else { 0 }
        | if f & FLAG_CAP_STORE != 0 { 1 << 63 } else { 0 }
}

/// What `execute` decided; `step` turns this into trap delivery or a
/// PC update.
enum Exec {
    Next,
    Branch { target: u64, taken: bool },
    Jump { target: u64 },
    CapJump { target: u64, pcc: SpecCap },
    Trap { code: u64, badvaddr: Option<u64>, cap: Option<(u8, u8)> },
    Syscall,
    Break(u32),
    MemFault,
}

fn cap_trap(code: u8, reg: u8) -> Exec {
    Exec::Trap { code: mips::CAP, badvaddr: None, cap: Some((code, reg)) }
}

/// The specification machine.
///
/// All architectural state is public: the lockstep fuzzer compares it
/// field by field against the simulator's exported state, and tests can
/// pre-seed any configuration directly.
#[derive(Clone, Debug)]
pub struct SpecMachine {
    /// General-purpose registers; writes to `gpr[0]` are discarded.
    pub gpr: [u64; 32],
    /// Multiply/divide HI.
    pub hi: u64,
    /// Multiply/divide LO.
    pub lo: u64,
    /// PC of the next instruction to execute.
    pub pc: u64,
    /// The PC after that (differs from `pc + 4` inside a delay slot).
    pub next_pc: u64,
    /// Capability registers `C0`–`C31`, all almighty at reset.
    pub caps: [SpecCap; 32],
    /// The program-counter capability.
    pub pcc: SpecCap,
    /// Coprocessor 0.
    pub cp0: SpecCp0,
    /// Load-linked reservation (an address), if armed.
    pub ll_reservation: Option<u64>,
    /// The in-memory capability format.
    pub format: SpecFormat,
    mem: Vec<u8>,
    tags: Vec<bool>,
    tlb: Vec<TlbEnt>,
    tlb_next: usize,
}

impl SpecMachine {
    /// A reset machine with `mem_bytes` of zeroed memory: zero GPRs,
    /// PC 0, every capability register (and PCC) almighty, all tags
    /// clear, an empty 128-entry TLB.
    #[must_use]
    pub fn new(format: SpecFormat, mem_bytes: u64) -> SpecMachine {
        let granules = (mem_bytes / format.size()) as usize;
        SpecMachine {
            gpr: [0; 32],
            hi: 0,
            lo: 0,
            pc: 0,
            next_pc: 4,
            caps: [SpecCap::almighty(); 32],
            pcc: SpecCap::almighty(),
            cp0: SpecCp0::default(),
            ll_reservation: None,
            format,
            mem: vec![0; mem_bytes as usize],
            tags: vec![false; granules],
            tlb: vec![TlbEnt::default(); 128],
            tlb_next: 0,
        }
    }

    /// Places execution at `pc` with no pending branch.
    pub fn jump_to(&mut self, pc: u64) {
        self.pc = pc;
        self.next_pc = pc.wrapping_add(4);
    }

    /// Resumes past a `SYSCALL`/`BREAK` at the next architectural PC,
    /// honouring a pending branch.
    pub fn advance_past_trap(&mut self) {
        let next = self.next_pc;
        self.jump_to(next);
    }

    /// Writes a GPR, discarding writes to `$zero`.
    pub fn set_gpr(&mut self, r: u8, value: u64) {
        if r != 0 {
            self.gpr[usize::from(r)] = value;
        }
    }

    // --- memory (setup and comparison surface) -----------------------

    /// The whole memory image.
    #[must_use]
    pub fn mem_bytes(&self) -> &[u8] {
        &self.mem
    }

    /// The per-granule tag map.
    #[must_use]
    pub fn tag_bits(&self) -> &[bool] {
        &self.tags
    }

    /// Setup poke: writes one big-endian word, clearing covering tags
    /// (the same effect a guest store would have). Out-of-range pokes
    /// are a harness bug.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside memory.
    pub fn poke_u32(&mut self, addr: u64, word: u32) {
        assert!(self.store_bytes(addr, &word.to_be_bytes()).is_some(), "poke outside memory");
    }

    /// Setup poke for a whole capability: stores the formatted image and
    /// its tag at a granule-aligned address, like the OS seeding the
    /// initial environment.
    ///
    /// # Panics
    ///
    /// Panics if the address is unaligned or outside memory.
    pub fn poke_cap(&mut self, addr: u64, cap: &SpecCap) {
        assert_eq!(addr % self.format.size(), 0, "capability poke must be granule-aligned");
        assert!(self.store_cap(addr, cap).is_some(), "poke outside memory");
    }

    fn load_bytes(&self, addr: u64, size: u64) -> Option<&[u8]> {
        let end = addr.checked_add(size)?;
        if end > self.mem.len() as u64 {
            return None;
        }
        Some(&self.mem[addr as usize..end as usize])
    }

    /// Writes raw bytes and clears every covering tag — the data-store
    /// path that makes tag invalidation on overlapping stores explicit.
    fn store_bytes(&mut self, addr: u64, bytes: &[u8]) -> Option<()> {
        let size = bytes.len() as u64;
        let end = addr.checked_add(size)?;
        if end > self.mem.len() as u64 {
            return None;
        }
        self.mem[addr as usize..end as usize].copy_from_slice(bytes);
        let granule = self.format.size();
        for g in (addr / granule)..=((end - 1) / granule) {
            self.tags[g as usize] = false;
        }
        Some(())
    }

    fn fetch_u32(&self, addr: u64) -> Option<u32> {
        let b = self.load_bytes(addr, 4)?;
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn load_scalar(&self, addr: u64, width: W, unsigned: bool) -> Option<u64> {
        let b = self.load_bytes(addr, width.size())?;
        let raw = b.iter().fold(0u64, |acc, byte| (acc << 8) | u64::from(*byte));
        Some(match (width, unsigned) {
            (W::B, false) => raw as u8 as i8 as i64 as u64,
            (W::H, false) => raw as u16 as i16 as i64 as u64,
            (W::Wd, false) => raw as u32 as i32 as i64 as u64,
            (W::B | W::H | W::Wd, true) | (W::D, _) => raw,
        })
    }

    fn store_scalar(&mut self, addr: u64, width: W, value: u64) -> Option<()> {
        let size = width.size() as usize;
        let be = value.to_be_bytes();
        self.store_bytes(addr, &be[8 - size..])
    }

    fn load_cap(&self, addr: u64) -> Option<SpecCap> {
        let granule = self.format.size();
        let b = self.load_bytes(addr, granule)?;
        let tag = self.tags[(addr / granule) as usize];
        Some(match self.format {
            SpecFormat::C256 => {
                let mut image = [0u8; 32];
                image.copy_from_slice(b);
                SpecCap::from_image256(&image, tag)
            }
            SpecFormat::C128 => {
                let mut image = [0u8; 16];
                image.copy_from_slice(b);
                decompress128(&image, tag)
            }
        })
    }

    fn store_cap(&mut self, addr: u64, cap: &SpecCap) -> Option<()> {
        let granule = self.format.size();
        match self.format {
            SpecFormat::C256 => self.store_bytes(addr, &cap.image256())?,
            SpecFormat::C128 => {
                // An untagged register stores as a zeroed granule: the
                // compressed format has no bits to carry arbitrary data
                // (tagged-but-unrepresentable already trapped).
                let image = if cap.tag { pack128(cap) } else { [0u8; 16] };
                self.store_bytes(addr, &image)?;
            }
        }
        self.tags[(addr / granule) as usize] = cap.tag;
        Some(())
    }

    // --- trap delivery -----------------------------------------------

    fn raise(&mut self, code: u64, badvaddr: Option<u64>, cap: Option<(u8, u8)>) -> SpecEvent {
        let in_delay_slot = self.next_pc != self.pc.wrapping_add(4);
        self.cp0.epc = if in_delay_slot { self.pc.wrapping_sub(4) } else { self.pc };
        self.cp0.cause = ((code & 0x1f) << 2) | if in_delay_slot { 1 << 31 } else { 0 };
        if let Some(v) = badvaddr {
            self.cp0.badvaddr = v;
        }
        if let Some((cap_code, reg)) = cap {
            self.cp0.capcause = pack_cause(cap_code, reg);
        }
        SpecEvent::Trap { code }
    }

    // --- data-access checks ------------------------------------------

    /// The shared access tail for scalar loads and stores: alignment,
    /// capability check, (identity) translation. Exception priority is
    /// alignment, then the capability, exactly as the pipeline orders
    /// its address-generation and coprocessor checks.
    fn data_access(
        &mut self,
        vaddr: u64,
        size: u64,
        write: bool,
        cap: &SpecCap,
        reg: u8,
    ) -> Result<u64, Exec> {
        if vaddr & (size - 1) != 0 {
            let code = if write { mips::ADDR_STORE } else { mips::ADDR_LOAD };
            return Err(Exec::Trap { code, badvaddr: Some(vaddr), cap: None });
        }
        if let Err(c) = cap.check_data(vaddr, size, write) {
            return Err(Exec::Trap { code: mips::CAP, badvaddr: Some(vaddr), cap: Some((c, reg)) });
        }
        // Bare translation is the identity; any store that reaches
        // memory kills the load-linked reservation.
        if write {
            self.ll_reservation = None;
        }
        Ok(vaddr)
    }

    fn legacy_access(&mut self, base: u8, imm: i16, width: W, write: bool) -> Result<u64, Exec> {
        let addr = self.gpr[usize::from(base)].wrapping_add(imm as i64 as u64);
        let c0 = self.caps[0];
        let vaddr = c0.base.wrapping_add(addr);
        self.data_access(vaddr, width.size(), write, &c0, 0)
    }

    fn cap_relative_access(
        &mut self,
        cb: u8,
        rt: u8,
        imm: i8,
        width: W,
        write: bool,
    ) -> Result<u64, Exec> {
        let cap = self.caps[usize::from(cb)];
        let offset =
            self.gpr[usize::from(rt)].wrapping_add((i64::from(imm) * width.size() as i64) as u64);
        let vaddr = cap.base.wrapping_add(offset);
        self.data_access(vaddr, width.size(), write, &cap, cb)
    }

    /// The `CLC`/`CSC` effective address: `cb.base + rt + imm * granule`.
    fn cap_mem_vaddr(&self, cb: u8, rt: u8, imm: i8) -> u64 {
        let granule = self.format.size();
        let offset =
            self.gpr[usize::from(rt)].wrapping_add((i64::from(imm) * granule as i64) as u64);
        self.caps[usize::from(cb)].base.wrapping_add(offset)
    }

    // --- step --------------------------------------------------------

    /// Executes one instruction and reports what happened.
    pub fn step(&mut self) -> SpecEvent {
        let pc = self.pc;
        if let Err(code) = self.pcc.check_fetch(pc) {
            return self.raise(mips::CAP, Some(pc), Some((code, exc::PCC_REG)));
        }
        let Some(word) = self.fetch_u32(pc) else {
            return SpecEvent::MemFault;
        };
        let exec = self.execute(decode(word));
        match exec {
            Exec::Trap { code, badvaddr, cap } => return self.raise(code, badvaddr, cap),
            Exec::Syscall => {
                self.raise(mips::SYSCALL, None, None);
                return SpecEvent::Syscall;
            }
            Exec::Break(code) => {
                self.raise(mips::BREAK, None, None);
                return SpecEvent::Break(code);
            }
            Exec::MemFault => return SpecEvent::MemFault,
            Exec::Next | Exec::Branch { .. } | Exec::Jump { .. } | Exec::CapJump { .. } => {}
        }
        self.cp0.count = self.cp0.count.wrapping_add(1);
        let fallthrough = self.next_pc;
        match exec {
            Exec::Next => {
                self.pc = fallthrough;
                self.next_pc = fallthrough.wrapping_add(4);
            }
            Exec::Branch { target, taken } => {
                self.pc = fallthrough;
                self.next_pc = if taken { target } else { fallthrough.wrapping_add(4) };
            }
            Exec::Jump { target } => {
                self.pc = fallthrough;
                self.next_pc = target;
            }
            Exec::CapJump { target, pcc } => {
                // No delay slot: PCC changes atomically with PC.
                self.pcc = pcc;
                self.jump_to(target);
            }
            _ => unreachable!("traps returned above"),
        }
        SpecEvent::Retired
    }

    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, op: SpecOp) -> Exec {
        let pc = self.pc;
        let branch_target =
            |offset: i16| pc.wrapping_add(4).wrapping_add((i64::from(offset) << 2) as u64);
        match op {
            SpecOp::Alu { kind, rd, rs, rt } => {
                let a = self.gpr[usize::from(rs)];
                let b = self.gpr[usize::from(rt)];
                let v = match kind {
                    Alu3::Addu => sext32((a as u32).wrapping_add(b as u32)),
                    Alu3::Subu => sext32((a as u32).wrapping_sub(b as u32)),
                    Alu3::Add => match (a as u32 as i32).checked_add(b as u32 as i32) {
                        Some(v) => v as i64 as u64,
                        None => return overflow(),
                    },
                    Alu3::Sub => match (a as u32 as i32).checked_sub(b as u32 as i32) {
                        Some(v) => v as i64 as u64,
                        None => return overflow(),
                    },
                    Alu3::Daddu => a.wrapping_add(b),
                    Alu3::Dsubu => a.wrapping_sub(b),
                    Alu3::Dadd => match (a as i64).checked_add(b as i64) {
                        Some(v) => v as u64,
                        None => return overflow(),
                    },
                    Alu3::Dsub => match (a as i64).checked_sub(b as i64) {
                        Some(v) => v as u64,
                        None => return overflow(),
                    },
                    Alu3::And => a & b,
                    Alu3::Or => a | b,
                    Alu3::Xor => a ^ b,
                    Alu3::Nor => !(a | b),
                    Alu3::Slt => u64::from((a as i64) < (b as i64)),
                    Alu3::Sltu => u64::from(a < b),
                    Alu3::Movz => {
                        if b == 0 {
                            a
                        } else {
                            self.gpr[usize::from(rd)]
                        }
                    }
                    Alu3::Movn => {
                        if b != 0 {
                            a
                        } else {
                            self.gpr[usize::from(rd)]
                        }
                    }
                };
                self.set_gpr(rd, v);
                Exec::Next
            }
            SpecOp::AluImm { kind, rt, rs, imm } => {
                let a = self.gpr[usize::from(rs)];
                let se = imm as i16 as i64 as u64;
                let ze = u64::from(imm);
                let v = match kind {
                    AluI::Addiu => sext32((a as u32).wrapping_add(se as u32)),
                    AluI::Daddiu => a.wrapping_add(se),
                    AluI::Addi => match (a as u32 as i32).checked_add(se as u32 as i32) {
                        Some(v) => v as i64 as u64,
                        None => return overflow(),
                    },
                    AluI::Daddi => match (a as i64).checked_add(se as i64) {
                        Some(v) => v as u64,
                        None => return overflow(),
                    },
                    AluI::Slti => u64::from((a as i64) < (se as i64)),
                    AluI::Sltiu => u64::from(a < se),
                    AluI::Andi => a & ze,
                    AluI::Ori => a | ze,
                    AluI::Xori => a ^ ze,
                };
                self.set_gpr(rt, v);
                Exec::Next
            }
            SpecOp::Lui { rt, imm } => {
                self.set_gpr(rt, sext32(u32::from(imm) << 16));
                Exec::Next
            }
            SpecOp::Shift { kind, rd, rt, amount } => {
                let v = shift(kind, self.gpr[usize::from(rt)], u32::from(amount));
                self.set_gpr(rd, v);
                Exec::Next
            }
            SpecOp::ShiftVar { kind, rd, rt, rs } => {
                let mask = match kind {
                    Sh::SllW | Sh::SrlW | Sh::SraW => 31,
                    _ => 63,
                };
                let s = (self.gpr[usize::from(rs)] as u32) & mask;
                let v = shift(kind, self.gpr[usize::from(rt)], s);
                self.set_gpr(rd, v);
                Exec::Next
            }
            SpecOp::MulDiv { kind, rs, rt } => {
                let a = self.gpr[usize::from(rs)];
                let b = self.gpr[usize::from(rt)];
                let (hi, lo) = muldiv(kind, a, b);
                self.hi = hi;
                self.lo = lo;
                Exec::Next
            }
            SpecOp::Mfhi { rd } => {
                let hi = self.hi;
                self.set_gpr(rd, hi);
                Exec::Next
            }
            SpecOp::Mflo { rd } => {
                let lo = self.lo;
                self.set_gpr(rd, lo);
                Exec::Next
            }
            SpecOp::Mthi { rs } => {
                self.hi = self.gpr[usize::from(rs)];
                Exec::Next
            }
            SpecOp::Mtlo { rs } => {
                self.lo = self.gpr[usize::from(rs)];
                Exec::Next
            }
            SpecOp::Branch { cond, rs, rt, offset } => {
                let a = self.gpr[usize::from(rs)] as i64;
                let b = self.gpr[usize::from(rt)] as i64;
                let taken = match cond {
                    Cond::Eq => a == b,
                    Cond::Ne => a != b,
                    Cond::Lez => a <= 0,
                    Cond::Gtz => a > 0,
                    Cond::Ltz => a < 0,
                    Cond::Gez => a >= 0,
                };
                Exec::Branch { target: branch_target(offset), taken }
            }
            SpecOp::BranchLink { cond, rs, offset } => {
                let a = self.gpr[usize::from(rs)] as i64;
                let taken = match cond {
                    Cond::Ltz => a < 0,
                    _ => a >= 0,
                };
                // The link register is written whether or not the
                // branch is taken.
                self.set_gpr(31, pc.wrapping_add(8));
                Exec::Branch { target: branch_target(offset), taken }
            }
            SpecOp::J { target } => Exec::Jump { target: region_target(pc, target) },
            SpecOp::Jal { target } => {
                self.set_gpr(31, pc.wrapping_add(8));
                Exec::Jump { target: region_target(pc, target) }
            }
            SpecOp::Jr { rs } => Exec::Jump { target: self.gpr[usize::from(rs)] },
            SpecOp::Jalr { rd, rs } => {
                let target = self.gpr[usize::from(rs)];
                self.set_gpr(rd, pc.wrapping_add(8));
                Exec::Jump { target }
            }
            SpecOp::Load { width, rt, base, imm, unsigned } => {
                match self.legacy_access(base, imm, width, false) {
                    Ok(addr) => match self.load_scalar(addr, width, unsigned) {
                        Some(v) => {
                            self.set_gpr(rt, v);
                            Exec::Next
                        }
                        None => Exec::MemFault,
                    },
                    Err(e) => e,
                }
            }
            SpecOp::Store { width, rt, base, imm } => {
                match self.legacy_access(base, imm, width, true) {
                    Ok(addr) => {
                        let v = self.gpr[usize::from(rt)];
                        match self.store_scalar(addr, width, v) {
                            Some(()) => Exec::Next,
                            None => Exec::MemFault,
                        }
                    }
                    Err(e) => e,
                }
            }
            SpecOp::LoadLinked { width, rt, base, imm } => {
                match self.legacy_access(base, imm, width, false) {
                    Ok(addr) => match self.load_scalar(addr, width, false) {
                        Some(v) => {
                            self.set_gpr(rt, v);
                            self.ll_reservation = Some(addr);
                            Exec::Next
                        }
                        None => Exec::MemFault,
                    },
                    Err(e) => e,
                }
            }
            SpecOp::StoreCond { width, rt, base, imm } => {
                let reserved = self.ll_reservation;
                match self.legacy_access(base, imm, width, true) {
                    Ok(addr) => {
                        if reserved == Some(addr) {
                            let v = self.gpr[usize::from(rt)];
                            if self.store_scalar(addr, width, v).is_none() {
                                return Exec::MemFault;
                            }
                            self.set_gpr(rt, 1);
                        } else {
                            self.set_gpr(rt, 0);
                        }
                        self.ll_reservation = None;
                        Exec::Next
                    }
                    Err(e) => e,
                }
            }
            SpecOp::Syscall => Exec::Syscall,
            SpecOp::Break { code } => Exec::Break(code),
            SpecOp::Mfc0 { rt, rd } => {
                let v = self.cp0.read(rd);
                self.set_gpr(rt, v);
                Exec::Next
            }
            SpecOp::Mtc0 { rt, rd } => {
                let v = self.gpr[usize::from(rt)];
                self.cp0.write(rd, v);
                Exec::Next
            }
            SpecOp::Tlbwi | SpecOp::Tlbwr => {
                let entry = TlbEnt {
                    vpn2: self.cp0.entryhi >> (PAGE_SHIFT + 1),
                    pfn0: (self.cp0.entrylo0 >> 6) & 0xf_ffff_ffff,
                    flags0: flags_from_lo(self.cp0.entrylo0),
                    pfn1: (self.cp0.entrylo1 >> 6) & 0xf_ffff_ffff,
                    flags1: flags_from_lo(self.cp0.entrylo1),
                    present: true,
                };
                if matches!(op, SpecOp::Tlbwi) {
                    let idx = (self.cp0.index as usize) % self.tlb.len();
                    self.tlb[idx] = entry;
                } else {
                    // "Random" replacement is round-robin, after evicting
                    // duplicates of the same page pair.
                    for e in &mut self.tlb {
                        if e.present && e.vpn2 == entry.vpn2 {
                            *e = TlbEnt::default();
                        }
                    }
                    let slot = self.tlb_next;
                    self.tlb[slot] = entry;
                    self.tlb_next = (self.tlb_next + 1) % self.tlb.len();
                }
                Exec::Next
            }
            SpecOp::Tlbp => {
                let vpn2 = self.cp0.entryhi >> (PAGE_SHIFT + 1);
                self.cp0.index = match self.tlb.iter().position(|e| e.present && e.vpn2 == vpn2) {
                    Some(i) => i as u64,
                    None => 1 << 31,
                };
                Exec::Next
            }
            SpecOp::Tlbr => {
                let e = self.tlb[(self.cp0.index as usize) % self.tlb.len()];
                self.cp0.entryhi = e.vpn2 << (PAGE_SHIFT + 1);
                self.cp0.entrylo0 = lo_from_flags(e.pfn0, e.flags0);
                self.cp0.entrylo1 = lo_from_flags(e.pfn1, e.flags1);
                Exec::Next
            }
            SpecOp::Eret => {
                // No delay slot: modelled as a capability jump with the
                // PCC unchanged.
                Exec::CapJump { target: self.cp0.epc, pcc: self.pcc }
            }
            SpecOp::CGet { field, rd, cb } => {
                let cap = self.caps[usize::from(cb)];
                let v = match field {
                    0 => cap.base,
                    1 => cap.length,
                    2 => u64::from(cap.tag),
                    _ => u64::from(cap.perms),
                };
                self.set_gpr(rd, v);
                Exec::Next
            }
            SpecOp::CGetPcc { rd, cd } => {
                self.set_gpr(rd, pc);
                self.caps[usize::from(cd)] = self.pcc;
                Exec::Next
            }
            SpecOp::CIncBase { cd, cb, rt } => {
                let delta = self.gpr[usize::from(rt)];
                match self.caps[usize::from(cb)].inc_base(delta) {
                    Ok(cap) => {
                        self.caps[usize::from(cd)] = cap;
                        Exec::Next
                    }
                    Err(e) => cap_trap(e, cb),
                }
            }
            SpecOp::CSetLen { cd, cb, rt } => {
                let len = self.gpr[usize::from(rt)];
                match self.caps[usize::from(cb)].set_len(len) {
                    Ok(cap) => {
                        self.caps[usize::from(cd)] = cap;
                        Exec::Next
                    }
                    Err(e) => cap_trap(e, cb),
                }
            }
            SpecOp::CClearTag { cd, cb } => {
                self.caps[usize::from(cd)] = self.caps[usize::from(cb)].clear_tag();
                Exec::Next
            }
            SpecOp::CAndPerm { cd, cb, rt } => {
                let mask = self.gpr[usize::from(rt)] as u32;
                match self.caps[usize::from(cb)].and_perm(mask) {
                    Ok(cap) => {
                        self.caps[usize::from(cd)] = cap;
                        Exec::Next
                    }
                    Err(e) => cap_trap(e, cb),
                }
            }
            SpecOp::CToPtr { rd, cb, ct } => {
                let v = self.caps[usize::from(cb)].to_ptr(&self.caps[usize::from(ct)]);
                self.set_gpr(rd, v);
                Exec::Next
            }
            SpecOp::CFromPtr { cd, cb, rt } => {
                let ptr = self.gpr[usize::from(rt)];
                match SpecCap::from_ptr(&self.caps[usize::from(cb)], ptr) {
                    Ok(cap) => {
                        self.caps[usize::from(cd)] = cap;
                        Exec::Next
                    }
                    Err(e) => cap_trap(e, cb),
                }
            }
            SpecOp::CBranchTag { on_set, cb, offset } => {
                let tag = self.caps[usize::from(cb)].tag;
                Exec::Branch { target: branch_target(offset), taken: tag == on_set }
            }
            SpecOp::Clc { cd, cb, rt, imm } => {
                let granule = self.format.size();
                let vaddr = self.cap_mem_vaddr(cb, rt, imm);
                if let Err(e) = self.caps[usize::from(cb)].check_cap(vaddr, false, granule) {
                    return cap_trap(e, cb);
                }
                match self.load_cap(vaddr) {
                    Some(cap) => {
                        self.caps[usize::from(cd)] = cap;
                        Exec::Next
                    }
                    None => Exec::MemFault,
                }
            }
            SpecOp::Csc { cs, cb, rt, imm } => {
                let granule = self.format.size();
                let vaddr = self.cap_mem_vaddr(cb, rt, imm);
                if let Err(e) = self.caps[usize::from(cb)].check_cap(vaddr, true, granule) {
                    return cap_trap(e, cb);
                }
                let stored = self.caps[usize::from(cs)];
                if self.format == SpecFormat::C128 && stored.tag && !representable128(&stored) {
                    // The Low-Fat format cannot encode this region
                    // (Section 4.1's alignment rules).
                    return cap_trap(exc::ALIGNMENT, cs);
                }
                if self.store_cap(vaddr, &stored).is_none() {
                    return Exec::MemFault;
                }
                self.ll_reservation = None;
                Exec::Next
            }
            SpecOp::CLoad { width, rd, cb, rt, imm, unsigned } => {
                match self.cap_relative_access(cb, rt, imm, width, false) {
                    Ok(addr) => match self.load_scalar(addr, width, unsigned) {
                        Some(v) => {
                            self.set_gpr(rd, v);
                            Exec::Next
                        }
                        None => Exec::MemFault,
                    },
                    Err(e) => e,
                }
            }
            SpecOp::CStore { width, rs, cb, rt, imm } => {
                match self.cap_relative_access(cb, rt, imm, width, true) {
                    Ok(addr) => {
                        let v = self.gpr[usize::from(rs)];
                        match self.store_scalar(addr, width, v) {
                            Some(()) => Exec::Next,
                            None => Exec::MemFault,
                        }
                    }
                    Err(e) => e,
                }
            }
            SpecOp::Clld { rd, cb, rt, imm } => {
                match self.cap_relative_access(cb, rt, imm, W::D, false) {
                    Ok(addr) => match self.load_scalar(addr, W::D, false) {
                        Some(v) => {
                            self.set_gpr(rd, v);
                            self.ll_reservation = Some(addr);
                            Exec::Next
                        }
                        None => Exec::MemFault,
                    },
                    Err(e) => e,
                }
            }
            SpecOp::Cscd { rs, cb, rt, imm } => {
                let reserved = self.ll_reservation;
                match self.cap_relative_access(cb, rt, imm, W::D, true) {
                    Ok(addr) => {
                        if reserved == Some(addr) {
                            let v = self.gpr[usize::from(rs)];
                            if self.store_scalar(addr, W::D, v).is_none() {
                                return Exec::MemFault;
                            }
                            self.set_gpr(rs, 1);
                        } else {
                            self.set_gpr(rs, 0);
                        }
                        self.ll_reservation = None;
                        Exec::Next
                    }
                    Err(e) => e,
                }
            }
            SpecOp::Cjr { cb } => {
                let cap = self.caps[usize::from(cb)];
                if let Err(e) = cap.check_fetch(cap.base) {
                    return cap_trap(e, cb);
                }
                Exec::CapJump { target: cap.base, pcc: cap }
            }
            SpecOp::Cjalr { cd, cb } => {
                let cap = self.caps[usize::from(cb)];
                if let Err(e) = cap.check_fetch(cap.base) {
                    return cap_trap(e, cb);
                }
                // The link capability is the current PCC advanced to the
                // return point (capability jumps have no delay slot).
                let ret = pc.wrapping_add(4);
                match self.pcc.inc_base(ret.wrapping_sub(self.pcc.base)) {
                    Ok(link) => self.caps[usize::from(cd)] = link,
                    Err(e) => return cap_trap(e, cb),
                }
                Exec::CapJump { target: cap.base, pcc: cap }
            }
            SpecOp::Illegal { .. } => {
                Exec::Trap { code: mips::RESERVED, badvaddr: None, cap: None }
            }
        }
    }
}

fn overflow() -> Exec {
    Exec::Trap { code: mips::OVERFLOW, badvaddr: None, cap: None }
}

fn sext32(v: u32) -> u64 {
    v as i32 as i64 as u64
}

/// The J/JAL target: the low 28 bits replace the low 28 bits of the
/// address of the delay slot.
fn region_target(pc: u64, target: u32) -> u64 {
    (pc.wrapping_add(4) & !0x0fff_ffff) | (u64::from(target) << 2)
}

fn shift(kind: Sh, v: u64, s: u32) -> u64 {
    match kind {
        Sh::SllW => sext32((v as u32) << s),
        Sh::SrlW => sext32((v as u32) >> s),
        Sh::SraW => sext32((((v as u32) as i32) >> s) as u32),
        Sh::SllD => v << s,
        Sh::SrlD => v >> s,
        Sh::SraD => ((v as i64) >> s) as u64,
        Sh::SllD32 => v << (s + 32),
        Sh::SrlD32 => v >> (s + 32),
        Sh::SraD32 => ((v as i64) >> (s + 32)) as u64,
    }
}

fn muldiv(kind: MulDiv, a: u64, b: u64) -> (u64, u64) {
    match kind {
        MulDiv::Mult => {
            let p = i64::from(a as u32 as i32) * i64::from(b as u32 as i32);
            (sext32((p >> 32) as u32), sext32(p as u32))
        }
        MulDiv::Multu => {
            let p = u64::from(a as u32) * u64::from(b as u32);
            (sext32((p >> 32) as u32), sext32(p as u32))
        }
        MulDiv::Dmult => {
            let p = i128::from(a as i64) * i128::from(b as i64);
            ((p >> 64) as u64, p as u64)
        }
        MulDiv::Dmultu => {
            let p = u128::from(a) * u128::from(b);
            ((p >> 64) as u64, p as u64)
        }
        MulDiv::Div => {
            let (x, y) = (a as u32 as i32, b as u32 as i32);
            if y == 0 {
                (0, 0)
            } else {
                (sext32(x.wrapping_rem(y) as u32), sext32(x.wrapping_div(y) as u32))
            }
        }
        MulDiv::Divu => {
            let (x, y) = (a as u32, b as u32);
            if y == 0 {
                (0, 0)
            } else {
                (sext32(x % y), sext32(x / y))
            }
        }
        MulDiv::Ddiv => {
            let (x, y) = (a as i64, b as i64);
            if y == 0 {
                (0, 0)
            } else {
                (x.wrapping_rem(y) as u64, x.wrapping_div(y) as u64)
            }
        }
        MulDiv::Ddivu => {
            if b == 0 {
                (0, 0)
            } else {
                (a % b, a / b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::perms;

    const MEM: u64 = 1 << 20;

    fn machine(words: &[u32]) -> SpecMachine {
        let mut m = SpecMachine::new(SpecFormat::C256, MEM);
        for (i, w) in words.iter().enumerate() {
            m.poke_u32(0x1000 + 4 * i as u64, *w);
        }
        m.jump_to(0x1000);
        m
    }

    // Minimal local assemblers, independent of the simulator's encoder.
    fn ori(rt: u8, rs: u8, imm: u16) -> u32 {
        (0x0d << 26) | (u32::from(rs) << 21) | (u32::from(rt) << 16) | u32::from(imm)
    }
    fn sb(rt: u8, base: u8, imm: u16) -> u32 {
        (0x28 << 26) | (u32::from(base) << 21) | (u32::from(rt) << 16) | u32::from(imm)
    }
    fn cop2(sub: u32, r1: u8, r2: u8, r3: u8, imm6: u32) -> u32 {
        (0x12 << 26)
            | (sub << 21)
            | (u32::from(r1) << 16)
            | (u32::from(r2) << 11)
            | (u32::from(r3) << 6)
            | (imm6 & 0x3f)
    }

    #[test]
    fn ori_retires_and_advances() {
        let mut m = machine(&[ori(8, 0, 0x1234)]);
        assert_eq!(m.step(), SpecEvent::Retired);
        assert_eq!(m.gpr[8], 0x1234);
        assert_eq!((m.pc, m.next_pc), (0x1004, 0x1008));
        assert_eq!(m.cp0.count, 1);
    }

    #[test]
    fn delay_slot_trap_reports_branch_pc() {
        // lui $8, 0x4000 ; beq $0,$0,+4 ; add $8,$8,$8 (overflows in
        // the delay slot).
        let lui = (0x0f << 26) | (8 << 16) | 0x4000;
        let beq = (0x04 << 26) | 4u32;
        let add = (8 << 21) | (8 << 16) | (8 << 11) | 0x20;
        let mut m = machine(&[lui, beq, add]);
        assert_eq!(m.step(), SpecEvent::Retired);
        assert_eq!(m.step(), SpecEvent::Retired); // the branch itself
        let e = m.step(); // delay slot overflows
        assert_eq!(e, SpecEvent::Trap { code: mips::OVERFLOW });
        assert_eq!(m.cp0.epc, 0x1004, "EPC points at the branch");
        assert_eq!(m.cp0.cause & (1 << 31), 1 << 31, "BD bit set");
    }

    #[test]
    fn byte_store_clears_covering_tag() {
        let mut m = machine(&[sb(0, 9, 0)]);
        m.gpr[9] = 0x8000;
        m.poke_cap(0x8000, &SpecCap::almighty());
        assert!(m.tag_bits()[0x8000 / 32]);
        assert_eq!(m.step(), SpecEvent::Retired);
        assert!(!m.tag_bits()[0x8000 / 32], "overlapping store must clear the tag");
    }

    #[test]
    fn cap_roundtrip_through_memory() {
        // CIncBase c1, c0, $8 ; CSC c1, c0, $9, 0 ; CLC c2, c0, $9, 0
        let mut m = machine(&[cop2(5, 1, 0, 8, 0), cop2(14, 1, 0, 9, 0), cop2(13, 2, 0, 9, 0)]);
        m.gpr[8] = 0x4000;
        m.gpr[9] = 0x8000;
        for _ in 0..3 {
            assert_eq!(m.step(), SpecEvent::Retired);
        }
        assert_eq!(m.caps[2].base, 0x4000);
        assert!(m.caps[2].tag);
    }

    #[test]
    fn untagged_dereference_is_tag_violation() {
        // CClearTag c1, c0 ; CLB $2, $0(c1)
        let mut m = machine(&[cop2(7, 1, 0, 0, 0), cop2(15, 2, 1, 0, 0)]);
        assert_eq!(m.step(), SpecEvent::Retired);
        assert_eq!(m.step(), SpecEvent::Trap { code: mips::CAP });
        assert_eq!(m.cp0.capcause, pack_cause(exc::TAG, 1));
    }

    #[test]
    fn fetch_outside_pcc_is_a_pcc_fault() {
        let mut m = machine(&[]);
        m.pcc = SpecCap { tag: true, perms: perms::ALL, reserved: 0, base: 0x1000, length: 0x10 };
        m.jump_to(0x2000);
        assert_eq!(m.step(), SpecEvent::Trap { code: mips::CAP });
        assert_eq!(m.cp0.capcause, pack_cause(exc::LENGTH, exc::PCC_REG));
        assert_eq!(m.cp0.badvaddr, 0x2000);
    }

    #[test]
    fn out_of_memory_fetch_is_a_memfault() {
        let mut m = machine(&[]);
        m.jump_to(MEM);
        assert_eq!(m.step(), SpecEvent::MemFault);
    }

    #[test]
    fn sc_fails_after_intervening_store() {
        // ll $2, 0($9) ; sb $0, 8($9) ; sc $2, 0($9)
        let ll = (0x30 << 26) | (9 << 21) | (2 << 16);
        let sc = (0x38 << 26) | (9 << 21) | (2 << 16);
        let mut m = machine(&[ll, sb(0, 9, 8), sc]);
        m.gpr[9] = 0x8000;
        for _ in 0..3 {
            assert_eq!(m.step(), SpecEvent::Retired);
        }
        assert_eq!(m.gpr[2], 0, "reservation was killed by the store");
    }

    #[test]
    fn tlb_instructions_round_trip_architecturally() {
        // mtc0 entryhi ; tlbwr ; tlbp — probe should find index 0.
        let mtc0 = |rt: u8, rd: u8| {
            (0x10 << 26) | (0x04 << 21) | (u32::from(rt) << 16) | (u32::from(rd) << 11)
        };
        let tlbwr = (0x10 << 26) | (1 << 25) | 0x06;
        let tlbp = (0x10 << 26) | (1 << 25) | 0x08;
        let mut m = machine(&[ori(8, 0, 0x2000), mtc0(8, 10), tlbwr, tlbp]);
        for _ in 0..4 {
            assert_eq!(m.step(), SpecEvent::Retired);
        }
        assert_eq!(m.cp0.index, 0);
    }
}
