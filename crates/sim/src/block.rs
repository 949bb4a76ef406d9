//! The predecoded basic-block cache behind [`Machine::run`]'s fast
//! path.
//!
//! `Machine::step` re-fetches and re-decodes the same instruction word
//! on every dynamic execution. For the sweep profiles that wall-clock
//! is dominated by decode and per-instruction bookkeeping, not by the
//! architectural model. The block cache removes that redundancy while
//! staying *architecturally transparent*: every counter in
//! [`crate::stats::Stats`], every cache/TLB/tag statistic, and all
//! architectural state evolve bit-identically to the slow path (the
//! xsweep baseline gate and the differential tests in
//! `tests/block_cache_diff.rs` enforce this).
//!
//! A block holds its instructions already lowered to [`Op`]s by
//! [`lower`]; `Machine::step` lowers each instruction it decodes the
//! same way, so both paths run one executor.
//!
//! Blocks are keyed by **physical** PC, so TLB rewrites and context
//! switches never require invalidation — a remap changes which block a
//! virtual PC reaches, not the block's contents. What does invalidate:
//!
//! * **Stores.** Every machine-mediated store bumps a per-physical-page
//!   generation counter ([`BlockCache::note_store`]); a block whose
//!   recorded generation no longer matches its page is stale and is
//!   rebuilt on next entry (and the generation is re-checked between
//!   instructions inside a running block, so a store into the *current*
//!   block takes effect at the very next instruction — exactly like the
//!   slow path's per-instruction fetch).
//! * **Direct `mem` writes.** Embedders that write text through the
//!   public `mem` field (the `cheri-os` `exec`/`load_image` loaders)
//!   must call `Machine::invalidate_block_cache`.
//!
//! [`Machine::run`]: crate::machine::Machine::run
//! [`Machine::step`]: crate::machine::Machine::step

use crate::inst::{AluImmOp, AluOp, BranchCond, CheriInst, Inst, ShiftOp, Width};
use crate::tlb::PAGE_SHIFT;

/// Longest predecoded run; also bounded by the containing 4 KB page
/// (blocks never span pages, so one page-generation check covers a
/// whole block).
pub(crate) const MAX_BLOCK_INSTS: usize = 64;

/// Direct-mapped block-slot count (power of two).
const SLOT_COUNT: usize = 4096;

/// Instruction flags: retires as a capability instruction
/// (`Stats::cap_instructions`).
pub(crate) const F_CAP: u8 = 1 << 0;
/// Writes the TLB (`TLBWI`/`TLBWR`): the fast path must re-translate
/// before the next instruction.
pub(crate) const F_TLBW: u8 = 1 << 1;
/// Never falls through in a way worth predecoding past (`SYSCALL`,
/// `BREAK`, `ERET`, reserved words, capability jumps): ends the block
/// at build time.
pub(crate) const F_TERMINAL: u8 = 1 << 2;
/// Unconditional jump with a delay slot: the block ends after the slot.
pub(crate) const F_UNCOND_JUMP: u8 = 1 << 3;
/// May store to memory: the only instructions that can bump a page
/// generation mid-block, so only they need the staleness re-check.
pub(crate) const F_STORE: u8 = 1 << 4;

/// One decoded instruction lowered to the form the executor runs: one
/// variant per hot instruction, sub-operation, width and signedness, so
/// executing it is a single dispatch. Immediates are sign- or
/// zero-extended here, the `*32` shifts are folded into their base shift
/// with the amount pre-added, and instructions whose destination is
/// `$zero` and that cannot trap become [`Op::Nop`]. Register fields are
/// the decoder's 5-bit fields; the executor masks them to `0..=31` on
/// access, so no register access needs a bounds check.
///
/// Branch offsets are pre-shifted but stay relative to the branch's own
/// PC: blocks are keyed by physical PC and can be entered through more
/// than one virtual address, so no absolute target is baked in.
/// Everything not listed runs through [`Op::Other`], which holds the
/// decoded instruction for the machine's general executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    // No architectural effect.
    Nop,
    // `rd = rs op rt`.
    Addu { rd: u8, rs: u8, rt: u8 },
    Subu { rd: u8, rs: u8, rt: u8 },
    Add { rd: u8, rs: u8, rt: u8 },
    Sub { rd: u8, rs: u8, rt: u8 },
    Daddu { rd: u8, rs: u8, rt: u8 },
    Dsubu { rd: u8, rs: u8, rt: u8 },
    Dadd { rd: u8, rs: u8, rt: u8 },
    Dsub { rd: u8, rs: u8, rt: u8 },
    And { rd: u8, rs: u8, rt: u8 },
    Or { rd: u8, rs: u8, rt: u8 },
    Xor { rd: u8, rs: u8, rt: u8 },
    Nor { rd: u8, rs: u8, rt: u8 },
    Slt { rd: u8, rs: u8, rt: u8 },
    Sltu { rd: u8, rs: u8, rt: u8 },
    Movz { rd: u8, rs: u8, rt: u8 },
    Movn { rd: u8, rs: u8, rt: u8 },
    // `rt = rs op imm`, the immediate already extended.
    Addiu { rt: u8, rs: u8, imm: u64 },
    Addi { rt: u8, rs: u8, imm: u64 },
    Daddiu { rt: u8, rs: u8, imm: u64 },
    Daddi { rt: u8, rs: u8, imm: u64 },
    Slti { rt: u8, rs: u8, imm: u64 },
    Sltiu { rt: u8, rs: u8, imm: u64 },
    Andi { rt: u8, rs: u8, imm: u64 },
    Ori { rt: u8, rs: u8, imm: u64 },
    Xori { rt: u8, rs: u8, imm: u64 },
    // `LUI`: `rt = value`, the shifted and sign-extended immediate.
    Lui { rt: u8, value: u64 },
    // `rd = rt shift sa`; the 64-bit shifts take `sa` in `0..=63`.
    Sll { rd: u8, rt: u8, sa: u8 },
    Srl { rd: u8, rt: u8, sa: u8 },
    Sra { rd: u8, rt: u8, sa: u8 },
    Dsll { rd: u8, rt: u8, sa: u8 },
    Dsrl { rd: u8, rt: u8, sa: u8 },
    Dsra { rd: u8, rt: u8, sa: u8 },
    // `rd = rt shift (rs & 31)` (32-bit) or `(rs & 63)` (64-bit).
    Sllv { rd: u8, rt: u8, rs: u8 },
    Srlv { rd: u8, rt: u8, rs: u8 },
    Srav { rd: u8, rt: u8, rs: u8 },
    Dsllv { rd: u8, rt: u8, rs: u8 },
    Dsrlv { rd: u8, rt: u8, rs: u8 },
    Dsrav { rd: u8, rt: u8, rs: u8 },
    // Conditional branches to `pc + 4 + off`.
    Beq { rs: u8, rt: u8, off: u64 },
    Bne { rs: u8, rt: u8, off: u64 },
    Blez { rs: u8, off: u64 },
    Bgtz { rs: u8, off: u64 },
    Bltz { rs: u8, off: u64 },
    Bgez { rs: u8, off: u64 },
    Bltzal { rs: u8, off: u64 },
    Bgezal { rs: u8, off: u64 },
    // `J`/`JAL` to `index` within the delay slot's 256 MB region.
    J { index: u64 },
    Jal { index: u64 },
    Jr { rs: u8 },
    Jalr { rd: u8, rs: u8 },
    // Legacy loads and stores at `rs + imm`, offset and bounded by C0.
    Lb { rt: u8, base: u8, imm: u64 },
    Lbu { rt: u8, base: u8, imm: u64 },
    Lh { rt: u8, base: u8, imm: u64 },
    Lhu { rt: u8, base: u8, imm: u64 },
    Lw { rt: u8, base: u8, imm: u64 },
    Lwu { rt: u8, base: u8, imm: u64 },
    Ld { rt: u8, base: u8, imm: u64 },
    Sb { rt: u8, base: u8, imm: u64 },
    Sh { rt: u8, base: u8, imm: u64 },
    Sw { rt: u8, base: u8, imm: u64 },
    Sd { rt: u8, base: u8, imm: u64 },
    // Capability-relative loads and stores at `cb.base + rt + off`,
    // `off` already scaled by the access width.
    Clb { rd: u8, cb: u8, rt: u8, off: u64 },
    Clbu { rd: u8, cb: u8, rt: u8, off: u64 },
    Clh { rd: u8, cb: u8, rt: u8, off: u64 },
    Clhu { rd: u8, cb: u8, rt: u8, off: u64 },
    Clw { rd: u8, cb: u8, rt: u8, off: u64 },
    Clwu { rd: u8, cb: u8, rt: u8, off: u64 },
    Cld { rd: u8, cb: u8, rt: u8, off: u64 },
    Csb { rs: u8, cb: u8, rt: u8, off: u64 },
    Csh { rs: u8, cb: u8, rt: u8, off: u64 },
    Csw { rs: u8, cb: u8, rt: u8, off: u64 },
    Csd { rs: u8, cb: u8, rt: u8, off: u64 },
    CIncBase { cd: u8, cb: u8, rt: u8 },
    // `CLC`/`CSC`: `imm` is scaled by the capability size, which the
    // machine's format sets.
    Clc { cd: u8, cb: u8, rt: u8, imm: i8 },
    Csc { cs: u8, cb: u8, rt: u8, imm: i8 },
    // Every other instruction, run by the general executor.
    Other(Inst),
}

/// One predecoded instruction: its lowered form plus retire/termination
/// flags computed once at build time.
#[derive(Clone, Copy)]
pub(crate) struct PInst {
    pub op: Op,
    pub flags: u8,
}

// A block is an array of these, read once per executed instruction.
const _: () = assert!(std::mem::size_of::<PInst>() <= 32, "PInst must stay within 32 bytes");

/// Lowers a decoded instruction for the executor and classifies it for
/// the block builder and the block runner. `Machine::step` and the
/// block builder both run what this returns.
pub(crate) fn lower(inst: Inst) -> PInst {
    PInst { op: lower_op(inst), flags: flags(&inst) }
}

fn flags(inst: &Inst) -> u8 {
    let mut f = 0;
    match *inst {
        Inst::Cheri(c) => {
            f |= F_CAP;
            if matches!(c, CheriInst::CJR { .. } | CheriInst::CJALR { .. }) {
                f |= F_TERMINAL;
            }
            if matches!(
                c,
                CheriInst::CSC { .. } | CheriInst::CStore { .. } | CheriInst::CSCD { .. }
            ) {
                f |= F_STORE;
            }
        }
        Inst::Syscall { .. } | Inst::Break { .. } | Inst::Eret | Inst::Reserved { .. } => {
            f |= F_TERMINAL;
        }
        Inst::Tlbwi | Inst::Tlbwr => f |= F_TLBW,
        Inst::J { .. } | Inst::Jal { .. } | Inst::Jr { .. } | Inst::Jalr { .. } => {
            f |= F_UNCOND_JUMP;
        }
        Inst::Store { .. } | Inst::StoreCond { .. } => f |= F_STORE,
        _ => {}
    }
    f
}

#[allow(clippy::too_many_lines)]
fn lower_op(inst: Inst) -> Op {
    let sext = |imm: u16| imm as i16 as i64 as u64;
    let zext = u64::from;
    let off = |offset: i16| (i64::from(offset) << 2) as u64;
    match inst {
        Inst::Alu { op, rd, rs, rt } => match op {
            AluOp::Add => Op::Add { rd, rs, rt },
            AluOp::Sub => Op::Sub { rd, rs, rt },
            AluOp::Dadd => Op::Dadd { rd, rs, rt },
            AluOp::Dsub => Op::Dsub { rd, rs, rt },
            _ if rd == 0 => Op::Nop,
            AluOp::Addu => Op::Addu { rd, rs, rt },
            AluOp::Subu => Op::Subu { rd, rs, rt },
            AluOp::Daddu => Op::Daddu { rd, rs, rt },
            AluOp::Dsubu => Op::Dsubu { rd, rs, rt },
            AluOp::And => Op::And { rd, rs, rt },
            AluOp::Or => Op::Or { rd, rs, rt },
            AluOp::Xor => Op::Xor { rd, rs, rt },
            AluOp::Nor => Op::Nor { rd, rs, rt },
            AluOp::Slt => Op::Slt { rd, rs, rt },
            AluOp::Sltu => Op::Sltu { rd, rs, rt },
            AluOp::Movz => Op::Movz { rd, rs, rt },
            AluOp::Movn => Op::Movn { rd, rs, rt },
        },
        Inst::AluImm { op, rt, rs, imm } => match op {
            AluImmOp::Addi => Op::Addi { rt, rs, imm: sext(imm) },
            AluImmOp::Daddi => Op::Daddi { rt, rs, imm: sext(imm) },
            _ if rt == 0 => Op::Nop,
            AluImmOp::Addiu => Op::Addiu { rt, rs, imm: sext(imm) },
            AluImmOp::Daddiu => Op::Daddiu { rt, rs, imm: sext(imm) },
            AluImmOp::Slti => Op::Slti { rt, rs, imm: sext(imm) },
            AluImmOp::Sltiu => Op::Sltiu { rt, rs, imm: sext(imm) },
            AluImmOp::Andi => Op::Andi { rt, rs, imm: zext(imm) },
            AluImmOp::Ori => Op::Ori { rt, rs, imm: zext(imm) },
            AluImmOp::Xori => Op::Xori { rt, rs, imm: zext(imm) },
        },
        Inst::Lui { rt: 0, .. } | Inst::Shift { rd: 0, .. } | Inst::ShiftV { rd: 0, .. } => Op::Nop,
        Inst::Lui { rt, imm } => Op::Lui { rt, value: (u32::from(imm) << 16) as i32 as i64 as u64 },
        Inst::Shift { op, rd, rt, shamt } => match op {
            ShiftOp::Sll => Op::Sll { rd, rt, sa: shamt },
            ShiftOp::Srl => Op::Srl { rd, rt, sa: shamt },
            ShiftOp::Sra => Op::Sra { rd, rt, sa: shamt },
            ShiftOp::Dsll => Op::Dsll { rd, rt, sa: shamt },
            ShiftOp::Dsrl => Op::Dsrl { rd, rt, sa: shamt },
            ShiftOp::Dsra => Op::Dsra { rd, rt, sa: shamt },
            ShiftOp::Dsll32 => Op::Dsll { rd, rt, sa: shamt + 32 },
            ShiftOp::Dsrl32 => Op::Dsrl { rd, rt, sa: shamt + 32 },
            ShiftOp::Dsra32 => Op::Dsra { rd, rt, sa: shamt + 32 },
        },
        Inst::ShiftV { op, rd, rt, rs } => match op {
            ShiftOp::Sll => Op::Sllv { rd, rt, rs },
            ShiftOp::Srl => Op::Srlv { rd, rt, rs },
            ShiftOp::Sra => Op::Srav { rd, rt, rs },
            ShiftOp::Dsll => Op::Dsllv { rd, rt, rs },
            ShiftOp::Dsrl => Op::Dsrlv { rd, rt, rs },
            ShiftOp::Dsra => Op::Dsrav { rd, rt, rs },
            ShiftOp::Dsll32 | ShiftOp::Dsrl32 | ShiftOp::Dsra32 => {
                unreachable!("the decoder produces no variable *32 shift")
            }
        },
        Inst::Branch { cond, rs, rt, offset } => {
            let off = off(offset);
            match cond {
                BranchCond::Eq => Op::Beq { rs, rt, off },
                BranchCond::Ne => Op::Bne { rs, rt, off },
                BranchCond::Lez => Op::Blez { rs, off },
                BranchCond::Gtz => Op::Bgtz { rs, off },
                BranchCond::Ltz => Op::Bltz { rs, off },
                BranchCond::Gez => Op::Bgez { rs, off },
            }
        }
        Inst::BranchLink { cond, rs, offset } => match cond {
            BranchCond::Ltz => Op::Bltzal { rs, off: off(offset) },
            BranchCond::Gez => Op::Bgezal { rs, off: off(offset) },
            _ => unreachable!("decoder only produces Ltz/Gez links"),
        },
        Inst::J { target } => Op::J { index: u64::from(target) << 2 },
        Inst::Jal { target } => Op::Jal { index: u64::from(target) << 2 },
        Inst::Jr { rs } => Op::Jr { rs },
        Inst::Jalr { rd, rs } => Op::Jalr { rd, rs },
        Inst::Load { width, rt, base, imm, unsigned } => {
            let imm = imm as i64 as u64;
            match (width, unsigned) {
                (Width::Byte, false) => Op::Lb { rt, base, imm },
                (Width::Byte, true) => Op::Lbu { rt, base, imm },
                (Width::Half, false) => Op::Lh { rt, base, imm },
                (Width::Half, true) => Op::Lhu { rt, base, imm },
                (Width::Word, false) => Op::Lw { rt, base, imm },
                (Width::Word, true) => Op::Lwu { rt, base, imm },
                (Width::Double, _) => Op::Ld { rt, base, imm },
            }
        }
        Inst::Store { width, rt, base, imm } => {
            let imm = imm as i64 as u64;
            match width {
                Width::Byte => Op::Sb { rt, base, imm },
                Width::Half => Op::Sh { rt, base, imm },
                Width::Word => Op::Sw { rt, base, imm },
                Width::Double => Op::Sd { rt, base, imm },
            }
        }
        Inst::Cheri(CheriInst::CLoad { width, rd, cb, rt, imm, unsigned }) => {
            let off = (i64::from(imm) * width.bytes() as i64) as u64;
            match (width, unsigned) {
                (Width::Byte, false) => Op::Clb { rd, cb, rt, off },
                (Width::Byte, true) => Op::Clbu { rd, cb, rt, off },
                (Width::Half, false) => Op::Clh { rd, cb, rt, off },
                (Width::Half, true) => Op::Clhu { rd, cb, rt, off },
                (Width::Word, false) => Op::Clw { rd, cb, rt, off },
                (Width::Word, true) => Op::Clwu { rd, cb, rt, off },
                (Width::Double, _) => Op::Cld { rd, cb, rt, off },
            }
        }
        Inst::Cheri(CheriInst::CStore { width, rs, cb, rt, imm }) => {
            let off = (i64::from(imm) * width.bytes() as i64) as u64;
            match width {
                Width::Byte => Op::Csb { rs, cb, rt, off },
                Width::Half => Op::Csh { rs, cb, rt, off },
                Width::Word => Op::Csw { rs, cb, rt, off },
                Width::Double => Op::Csd { rs, cb, rt, off },
            }
        }
        Inst::Cheri(CheriInst::CIncBase { cd, cb, rt }) => Op::CIncBase { cd, cb, rt },
        Inst::Cheri(CheriInst::CLC { cd, cb, rt, imm }) => Op::Clc { cd, cb, rt, imm },
        Inst::Cheri(CheriInst::CSC { cs, cb, rt, imm }) => Op::Csc { cs, cb, rt, imm },
        other => Op::Other(other),
    }
}

/// A predecoded straight-line run starting at physical `ppc`, valid
/// while its page's generation still equals `gen`.
pub(crate) struct Block {
    pub ppc: u64,
    pub gen: u32,
    pub insts: Box<[PInst]>,
}

/// Direct-mapped cache of predecoded blocks plus the per-physical-page
/// store-generation counters that invalidate them.
pub(crate) struct BlockCache {
    slots: Vec<Option<Block>>,
    page_gens: Vec<u32>,
    /// Pages a block was ever built in; stores elsewhere skip the
    /// generation bump so data-page traffic causes no rebuild churn.
    code_pages: Vec<bool>,
}

impl BlockCache {
    pub(crate) fn new(mem_bytes: usize) -> BlockCache {
        let pages = (mem_bytes >> PAGE_SHIFT) + 1;
        BlockCache {
            slots: Vec::new(), // allocated lazily on first insert
            page_gens: vec![0; pages],
            code_pages: vec![false; pages],
        }
    }

    #[inline]
    fn slot_index(ppc: u64) -> usize {
        ((ppc >> 2) as usize) & (SLOT_COUNT - 1)
    }

    #[inline]
    pub(crate) fn page_gen(&self, page: usize) -> u32 {
        self.page_gens[page]
    }

    /// Removes and returns the still-valid block at `ppc`, if one is
    /// cached. The caller runs it as an owned local (so the borrow
    /// checker knows `execute` cannot alias it) and gives it back via
    /// [`BlockCache::insert`].
    #[inline]
    pub(crate) fn take_valid(&mut self, ppc: u64) -> Option<Block> {
        let slot = self.slots.get_mut(Self::slot_index(ppc))?;
        let b = slot.as_ref()?;
        if b.ppc == ppc && b.gen == self.page_gens[(ppc >> PAGE_SHIFT) as usize] {
            slot.take()
        } else {
            None
        }
    }

    /// Marks `page` as containing predecoded code so stores into it
    /// bump its generation. Done at *build* time so stores during a
    /// block's first execution are already observed.
    #[inline]
    pub(crate) fn mark_code_page(&mut self, page: usize) {
        self.code_pages[page] = true;
    }

    #[inline]
    pub(crate) fn insert(&mut self, block: Block) {
        if self.slots.is_empty() {
            self.slots.resize_with(SLOT_COUNT, || None);
        }
        self.code_pages[(block.ppc >> PAGE_SHIFT) as usize] = true;
        let idx = Self::slot_index(block.ppc);
        self.slots[idx] = Some(block);
    }

    /// Records a machine-mediated store to physical `paddr` (stores
    /// never cross a page: they are size-aligned and at most one
    /// capability granule wide).
    #[inline(always)]
    pub(crate) fn note_store(&mut self, paddr: u64) {
        let page = (paddr >> PAGE_SHIFT) as usize;
        if self.code_pages[page] {
            self.page_gens[page] = self.page_gens[page].wrapping_add(1);
        }
    }

    /// Drops every cached block (for embedders that wrote text through
    /// `Machine::mem` directly).
    pub(crate) fn invalidate_all(&mut self) {
        self.slots.clear();
        for p in &mut self.code_pages {
            *p = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, encode};
    use crate::inst::MulDivOp;

    fn lowered(inst: Inst) -> Op {
        lower(decode(encode(&inst))).op
    }

    /// Every form of the hot set decodes to an operation of its own, not
    /// the fallback: a decoder or enum change that sent one back to the
    /// general executor would still pass every correctness gate.
    #[test]
    fn hot_instructions_lower_to_their_own_op() {
        use AluImmOp as I;
        use AluOp as A;
        use ShiftOp as S;
        use Width::{Byte, Double, Half, Word};
        let mut hot = Vec::new();
        for op in [
            A::Add,
            A::Addu,
            A::Sub,
            A::Subu,
            A::Dadd,
            A::Daddu,
            A::Dsub,
            A::Dsubu,
            A::And,
            A::Or,
            A::Xor,
            A::Nor,
            A::Slt,
            A::Sltu,
            A::Movz,
            A::Movn,
        ] {
            hot.push(Inst::Alu { op, rd: 2, rs: 3, rt: 4 });
        }
        for op in
            [I::Addi, I::Addiu, I::Daddi, I::Daddiu, I::Slti, I::Sltiu, I::Andi, I::Ori, I::Xori]
        {
            hot.push(Inst::AluImm { op, rt: 2, rs: 3, imm: 0x8001 });
        }
        hot.push(Inst::Lui { rt: 2, imm: 0x8001 });
        for op in
            [S::Sll, S::Srl, S::Sra, S::Dsll, S::Dsrl, S::Dsra, S::Dsll32, S::Dsrl32, S::Dsra32]
        {
            hot.push(Inst::Shift { op, rd: 2, rt: 3, shamt: 5 });
        }
        for op in [S::Sll, S::Srl, S::Sra, S::Dsll, S::Dsrl, S::Dsra] {
            hot.push(Inst::ShiftV { op, rd: 2, rt: 3, rs: 4 });
        }
        hot.push(Inst::Branch { cond: BranchCond::Eq, rs: 2, rt: 3, offset: -3 });
        hot.push(Inst::Branch { cond: BranchCond::Ne, rs: 2, rt: 3, offset: -3 });
        for cond in [BranchCond::Lez, BranchCond::Gtz, BranchCond::Ltz, BranchCond::Gez] {
            hot.push(Inst::Branch { cond, rs: 2, rt: 0, offset: -3 });
        }
        for cond in [BranchCond::Ltz, BranchCond::Gez] {
            hot.push(Inst::BranchLink { cond, rs: 2, offset: -3 });
        }
        hot.extend([
            Inst::J { target: 0x40 },
            Inst::Jal { target: 0x40 },
            Inst::Jr { rs: 31 },
            Inst::Jalr { rd: 31, rs: 2 },
        ]);
        for (width, unsigned) in [
            (Byte, false),
            (Byte, true),
            (Half, false),
            (Half, true),
            (Word, false),
            (Word, true),
            (Double, false),
        ] {
            hot.push(Inst::Load { width, rt: 2, base: 3, imm: -8, unsigned });
            hot.push(Inst::Cheri(CheriInst::CLoad {
                width,
                rd: 2,
                cb: 1,
                rt: 3,
                imm: -2,
                unsigned,
            }));
        }
        for width in [Byte, Half, Word, Double] {
            hot.push(Inst::Store { width, rt: 2, base: 3, imm: -8 });
            hot.push(Inst::Cheri(CheriInst::CStore { width, rs: 2, cb: 1, rt: 3, imm: -2 }));
        }
        hot.push(Inst::Cheri(CheriInst::CIncBase { cd: 1, cb: 2, rt: 3 }));
        hot.push(Inst::Cheri(CheriInst::CLC { cd: 1, cb: 2, rt: 3, imm: -1 }));
        hot.push(Inst::Cheri(CheriInst::CSC { cs: 1, cb: 2, rt: 3, imm: -1 }));

        let mut kinds = Vec::new();
        for inst in hot {
            let op = lowered(inst);
            assert!(!matches!(op, Op::Other(_) | Op::Nop), "{inst:?} lowered to {op:?}");
            kinds.push(std::mem::discriminant(&op));
        }
        // One variant per form; only the three `*32` shifts share their
        // base shift's.
        let total = kinds.len();
        kinds.sort_by_key(|d| format!("{d:?}"));
        kinds.dedup();
        assert_eq!(kinds.len(), total - 3);
        assert_eq!(
            lowered(Inst::Shift { op: S::Dsra32, rd: 2, rt: 3, shamt: 5 }),
            Op::Dsra { rd: 2, rt: 3, sa: 37 }
        );
    }

    /// What lowering resolves: extended immediates, pre-scaled and
    /// pre-shifted offsets that stay PC-relative, and `$zero`
    /// destinations that only a trapping instruction keeps.
    #[test]
    fn lowering_resolves_operands() {
        assert_eq!(
            lowered(Inst::AluImm { op: AluImmOp::Daddiu, rt: 2, rs: 3, imm: 0xfff0 }),
            Op::Daddiu { rt: 2, rs: 3, imm: (-16i64) as u64 }
        );
        assert_eq!(
            lowered(Inst::AluImm { op: AluImmOp::Ori, rt: 2, rs: 3, imm: 0xfff0 }),
            Op::Ori { rt: 2, rs: 3, imm: 0xfff0 }
        );
        assert_eq!(
            lowered(Inst::Lui { rt: 2, imm: 0x8000 }),
            Op::Lui { rt: 2, value: 0xffff_ffff_8000_0000 }
        );
        assert_eq!(
            lowered(Inst::Branch { cond: BranchCond::Ne, rs: 2, rt: 3, offset: -2 }),
            Op::Bne { rs: 2, rt: 3, off: (-8i64) as u64 }
        );
        assert_eq!(lowered(Inst::J { target: 0x40 }), Op::J { index: 0x100 });
        assert_eq!(
            lowered(Inst::Cheri(CheriInst::CStore {
                width: Width::Word,
                rs: 2,
                cb: 1,
                rt: 3,
                imm: -2
            })),
            Op::Csw { rs: 2, cb: 1, rt: 3, off: (-8i64) as u64 }
        );
        assert_eq!(lowered(Inst::Alu { op: AluOp::Addu, rd: 0, rs: 3, rt: 4 }), Op::Nop);
        assert_eq!(lowered(Inst::Shift { op: ShiftOp::Sll, rd: 0, rt: 0, shamt: 0 }), Op::Nop);
        assert_eq!(
            lowered(Inst::Alu { op: AluOp::Add, rd: 0, rs: 3, rt: 4 }),
            Op::Add { rd: 0, rs: 3, rt: 4 }
        );
        assert!(matches!(
            lowered(Inst::MulDiv { op: MulDivOp::Dmultu, rs: 3, rt: 4 }),
            Op::Other(Inst::MulDiv { .. })
        ));
    }
}
