//! Differential tests of the predecoded block cache: a machine running
//! the fast path (`block_cache: true`) and one running the
//! per-instruction interpreter must agree on *all* architectural state
//! and *all* statistics after every run chunk — including across
//! self-modifying code, mid-block TLB rewrites, traps, and stores into
//! the executing page. "All" includes the timing model's full state:
//! every cache line with its LRU stamp and dirty bit, the TLB, and the
//! tag controller's statistics.

use beri_sim::cpu::cp0reg;
use beri_sim::decode::encode;
use beri_sim::inst::{AluImmOp, AluOp, BranchCond, CheriInst, Inst, MulDivOp, ShiftOp, Width};
use beri_sim::tlb::TlbFlags;
use beri_sim::{Machine, MachineConfig, StepResult};
use proptest::prelude::*;

const CODE_BASE: u64 = 0x1000;
/// Scratch region inside the *code page* (0x1000..0x2000): stores here
/// bump the page generation without overwriting instructions.
const CODE_PAGE_SCRATCH: i16 = 0x800;
const DATA_BASE: u64 = 0x8000;

/// Builds the fast-path/slow-path machine pair with identical initial
/// state: `words` at `CODE_BASE`, `$7 = DATA_BASE`, `$6 = CODE_BASE`,
/// and `$8..$16` seeded from `seed` so ALU traffic has varied inputs.
fn machine_pair(words: &[u32], seed: u64) -> (Machine, Machine) {
    let build = |block_cache: bool| {
        let mut m = Machine::new(MachineConfig {
            mem_bytes: 1 << 20,
            block_cache,
            ..MachineConfig::default()
        });
        m.load_code(CODE_BASE, words).unwrap();
        m.cpu.set_gpr(7, DATA_BASE);
        m.cpu.set_gpr(6, CODE_BASE);
        for r in 8..16u8 {
            m.cpu.set_gpr(r, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(r as u32));
        }
        m.cpu.jump_to(CODE_BASE);
        m
    };
    (build(true), build(false))
}

/// Asserts every architectural register, counter, and statistic agrees,
/// and so does the timing model's state (caches, TLB, tag controller).
fn assert_same(fast: &Machine, slow: &Machine, what: &str) {
    assert_eq!(fast.stats, slow.stats, "{what}: stats diverged");
    assert_eq!(fast.cpu.gpr, slow.cpu.gpr, "{what}: gpr diverged");
    assert_eq!(fast.cpu.hi, slow.cpu.hi, "{what}: hi diverged");
    assert_eq!(fast.cpu.lo, slow.cpu.lo, "{what}: lo diverged");
    assert_eq!(fast.cpu.pc, slow.cpu.pc, "{what}: pc diverged");
    assert_eq!(fast.cpu.next_pc, slow.cpu.next_pc, "{what}: next_pc diverged");
    for rd in [cp0reg::COUNT, cp0reg::EPC, cp0reg::CAUSE, cp0reg::BADVADDR, cp0reg::ENTRYHI] {
        assert_eq!(fast.cpu.cp0.read(rd), slow.cpu.cp0.read(rd), "{what}: cp0[{rd}] diverged");
    }
    for i in 0..32u8 {
        assert_eq!(fast.cpu.caps.get(i), slow.cpu.caps.get(i), "{what}: c{i} diverged");
    }
    assert_eq!(fast.cpu.caps.pcc(), slow.cpu.caps.pcc(), "{what}: pcc diverged");
    assert_eq!(
        fast.hierarchy.export_state(),
        slow.hierarchy.export_state(),
        "{what}: cache state diverged"
    );
    assert_eq!(fast.tlb().export_state(), slow.tlb().export_state(), "{what}: TLB diverged");
    assert_eq!(fast.mem.tag_stats(), slow.mem.tag_stats(), "{what}: tag stats diverged");
    assert_eq!(mem_checksum(fast), mem_checksum(slow), "{what}: memory diverged");
}

/// FNV-style checksum over the code page and the data window (the only
/// memory the generated programs can touch).
fn mem_checksum(m: &Machine) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for addr in (CODE_BASE..CODE_BASE + 0x1000).chain(DATA_BASE..DATA_BASE + 0x800).step_by(8) {
        h = (h ^ m.mem.read_u64(addr).unwrap()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs both machines through the same chunk schedule (chunk boundaries
/// land mid-block, which is exactly the resume path under test) and
/// compares after every chunk. Stops when both report the same
/// non-`Continue` result or the same simulator-level memory error.
fn run_lockstep(fast: &mut Machine, slow: &mut Machine, chunks: &[u64], what: &str) {
    for (i, &chunk) in chunks.iter().enumerate() {
        let rf = fast.run(chunk);
        let rs = slow.run(chunk);
        assert_eq!(rf, rs, "{what}: chunk {i} results diverged");
        assert_same(fast, slow, what);
        if rf != Ok(StepResult::Continue) {
            return;
        }
    }
}

/// Instructions that may trap mid-block: a 32-bit `ADD` that traps on
/// overflow, and capability register operations on c1–c3 that fault on
/// a bounds or tag violation (with `$0` as operand they never do).
/// They send `Outcome::Trap` and capability traps into the retire step
/// from inside a block on the fast path.
fn trapping_inst_strategy() -> impl Strategy<Value = Inst> {
    let r = 8u8..16;
    let c = 1u8..4;
    let rt = || prop_oneof![Just(0u8), 8u8..16];
    prop_oneof![
        (r.clone(), r.clone(), r).prop_map(|(rd, rs, rt)| Inst::Alu { op: AluOp::Add, rd, rs, rt }),
        (c.clone(), c.clone(), rt()).prop_map(|(cd, cb, rt)| Inst::Cheri(CheriInst::CIncBase {
            cd,
            cb,
            rt
        })),
        (c.clone(), c, rt()).prop_map(|(cd, cb, rt)| Inst::Cheri(CheriInst::CSetLen {
            cd,
            cb,
            rt
        })),
    ]
}

/// Capability-relative loads and stores through c1–c3 at `$7` (the
/// data window) plus a scaled offset. The trapping instructions can
/// move those capabilities anywhere, so these may also trap or reach
/// past physical memory.
fn cap_access_strategy() -> impl Strategy<Value = Inst> {
    let r = 8u8..16;
    let c = 1u8..4;
    prop_oneof![
        (any::<u8>(), r.clone(), c.clone(), 0i8..32).prop_map(|(w, rd, cb, imm)| {
            let width = [Width::Byte, Width::Half, Width::Word, Width::Double][w as usize % 4];
            Inst::Cheri(CheriInst::CLoad { width, rd, cb, rt: 7, imm, unsigned: w % 8 < 4 })
        }),
        (any::<u8>(), r, c, 0i8..32).prop_map(|(w, rs, cb, imm)| {
            let width = [Width::Byte, Width::Half, Width::Word, Width::Double][w as usize % 4];
            Inst::Cheri(CheriInst::CStore { width, rs, cb, rt: 7, imm })
        }),
    ]
}

/// Short forward branches on every condition, over registers whose
/// values make them go either way, including the linking forms.
fn branch_strategy() -> impl Strategy<Value = Inst> {
    let r = 8u8..16;
    prop_oneof![
        (any::<u8>(), r.clone(), r.clone(), 2i16..4).prop_map(|(c, rs, rt, offset)| {
            let cond = [
                BranchCond::Eq,
                BranchCond::Ne,
                BranchCond::Lez,
                BranchCond::Gtz,
                BranchCond::Ltz,
                BranchCond::Gez,
            ][c as usize % 6];
            let rt = if matches!(cond, BranchCond::Eq | BranchCond::Ne) { rt } else { 0 };
            Inst::Branch { cond, rs, rt, offset }
        }),
        (any::<bool>(), r, 2i16..4).prop_map(|(ltz, rs, offset)| Inst::BranchLink {
            cond: if ltz { BranchCond::Ltz } else { BranchCond::Gez },
            rs,
            offset
        }),
    ]
}

/// One generated instruction for the random programs: ALU and memory
/// traffic across every operation the executor lowers, short
/// always/never-taken and data-dependent branches, stores into the
/// executing code page, and (one draw in fifteen) an instruction that
/// may trap.
fn inst_strategy() -> impl Strategy<Value = Inst> {
    let r = 8u8..16;
    let slot = 0i16..64;
    prop_oneof![
        trapping_inst_strategy(),
        cap_access_strategy(),
        branch_strategy(),
        (any::<u8>(), r.clone(), r.clone(), r.clone()).prop_map(|(op, rd, rs, rt)| {
            let op = [
                AluOp::Addu,
                AluOp::Subu,
                AluOp::Daddu,
                AluOp::Dsubu,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Nor,
                AluOp::Slt,
                AluOp::Sltu,
                AluOp::Movz,
                AluOp::Movn,
            ][op as usize % 12];
            Inst::Alu { op, rd, rs, rt }
        }),
        (any::<u8>(), r.clone(), r.clone(), any::<u16>()).prop_map(|(op, rt, rs, imm)| {
            let op = [
                AluImmOp::Addiu,
                AluImmOp::Daddiu,
                AluImmOp::Slti,
                AluImmOp::Sltiu,
                AluImmOp::Ori,
                AluImmOp::Andi,
                AluImmOp::Xori,
            ][op as usize % 7];
            Inst::AluImm { op, rt, rs, imm }
        }),
        (r.clone(), any::<u16>()).prop_map(|(rt, imm)| Inst::Lui { rt, imm }),
        (any::<u8>(), r.clone(), r.clone(), 0u8..32).prop_map(|(op, rd, rt, shamt)| {
            let op = [
                ShiftOp::Sll,
                ShiftOp::Srl,
                ShiftOp::Sra,
                ShiftOp::Dsll,
                ShiftOp::Dsrl,
                ShiftOp::Dsra,
                ShiftOp::Dsll32,
                ShiftOp::Dsrl32,
                ShiftOp::Dsra32,
            ][op as usize % 9];
            Inst::Shift { op, rd, rt, shamt }
        }),
        (any::<u8>(), r.clone(), r.clone(), r.clone()).prop_map(|(op, rd, rt, rs)| {
            let op = [
                ShiftOp::Sll,
                ShiftOp::Srl,
                ShiftOp::Sra,
                ShiftOp::Dsll,
                ShiftOp::Dsrl,
                ShiftOp::Dsra,
            ][op as usize % 6];
            Inst::ShiftV { op, rd, rt, rs }
        }),
        (r.clone(), r.clone()).prop_map(|(rs, rt)| Inst::MulDiv { op: MulDivOp::Dmultu, rs, rt }),
        r.clone().prop_map(|rd| Inst::Mflo { rd }),
        // Aligned loads/stores in the data window via $7.
        (any::<u8>(), r.clone(), slot.clone()).prop_map(|(w, rt, s)| {
            let width = [Width::Byte, Width::Half, Width::Word, Width::Double][w as usize % 4];
            Inst::Load { width, rt, base: 7, imm: s * 8, unsigned: w % 2 == 0 }
        }),
        (any::<u8>(), r.clone(), slot.clone()).prop_map(|(w, rt, s)| {
            let width = [Width::Byte, Width::Half, Width::Word, Width::Double][w as usize % 4];
            Inst::Store { width, rt, base: 7, imm: s * 8 }
        }),
        // Stores into the page being executed (generation-bump stress:
        // the fast path must notice and stay bit-identical).
        (r.clone(), slot).prop_map(|(rt, s)| Inst::Store {
            width: Width::Double,
            rt,
            base: 6,
            imm: CODE_PAGE_SCRATCH + s * 8,
        }),
        // Always-taken and never-taken short branches (delay slots and
        // block-exit paths).
        Just(Inst::Branch { cond: BranchCond::Eq, rs: 0, rt: 0, offset: 2 }),
        (r.clone(), r).prop_map(|(rs, rt)| Inst::Branch {
            cond: BranchCond::Ne,
            rs: 0,
            rt: if rs == rt { 0 } else { rt },
            offset: 3
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs: identical stats, registers, and memory after
    /// every chunk, at awkward chunk sizes.
    #[test]
    fn random_programs_match(
        insts in proptest::collection::vec(inst_strategy(), 4..120),
        seed in any::<u64>(),
        chunk in 1u64..97,
    ) {
        let mut words: Vec<u32> = insts.iter().map(encode).collect();
        // Padding so forward branches stay inside the program, then stop.
        for _ in 0..4 {
            words.push(encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 8, imm: 0 }));
        }
        words.push(encode(&Inst::Syscall { code: 0 }));
        let (mut fast, mut slow) = machine_pair(&words, seed);
        let chunks: Vec<u64> = std::iter::repeat_n(chunk, 4096).collect();
        run_lockstep(&mut fast, &mut slow, &chunks, "random program");
    }
}

/// A store that overwrites a *later instruction of the same block*
/// before it executes: the fast path must observe it (the slow path
/// refetches every instruction, so it does by construction).
#[test]
fn self_modifying_store_in_same_block() {
    // $9 holds the replacement word; the SW lands on the instruction
    // two slots ahead, inside the same predecoded block.
    let patched = encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 10, rs: 0, imm: 0x77 });
    let words = vec![
        encode(&Inst::Store { width: Width::Word, rt: 9, base: 6, imm: 3 * 4 }),
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 11, rs: 0, imm: 1 }),
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 12, rs: 0, imm: 2 }),
        // Slot 3: initially "ori $10, $0, 0x11"; overwritten above.
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 10, rs: 0, imm: 0x11 }),
        encode(&Inst::Syscall { code: 0 }),
    ];
    let (mut fast, mut slow) = machine_pair(&words, 1);
    fast.cpu.set_gpr(9, u64::from(patched));
    slow.cpu.set_gpr(9, u64::from(patched));
    run_lockstep(&mut fast, &mut slow, &[100], "self-modifying block");
    // Both executed the *patched* instruction.
    assert_eq!(fast.cpu.gpr[10], 0x77);
    // And a second run of the same addresses re-validates the rebuilt
    // block (the store already happened, so the patched word persists).
    fast.cpu.jump_to(CODE_BASE);
    slow.cpu.jump_to(CODE_BASE);
    run_lockstep(&mut fast, &mut slow, &[100], "self-modifying block rerun");
    assert_eq!(fast.cpu.gpr[10], 0x77);
}

/// A TLB rewrite in the middle of a predecoded block: the load after
/// `TLBWI` must go through the *new* mapping in both paths.
#[test]
fn mid_block_tlb_rewrite() {
    const VA_DATA: u64 = 0x6000;
    const PA_OLD: u64 = 0x20000;
    const PA_NEW: u64 = 0x30000;
    // Straight-line, single-block program: load old mapping, remap via
    // MTC0/TLBP/TLBWI, load again.
    let words = vec![
        encode(&Inst::Load { width: Width::Double, rt: 10, base: 9, imm: 0, unsigned: false }),
        encode(&Inst::Mtc0 { rt: 11, rd: cp0reg::ENTRYHI }),
        encode(&Inst::Tlbp),
        encode(&Inst::Mtc0 { rt: 12, rd: cp0reg::ENTRYLO0 }),
        encode(&Inst::Mtc0 { rt: 13, rd: cp0reg::ENTRYLO1 }),
        encode(&Inst::Tlbwi),
        encode(&Inst::Load { width: Width::Double, rt: 14, base: 9, imm: 0, unsigned: false }),
        encode(&Inst::Syscall { code: 0 }),
    ];
    let build = |block_cache: bool| {
        let mut m = Machine::new(MachineConfig {
            mem_bytes: 1 << 20,
            block_cache,
            ..MachineConfig::default()
        });
        m.load_code(CODE_BASE, &words).unwrap();
        m.mem.write_u64(PA_OLD, 0x01d0_0000_0000_0001u64).unwrap();
        m.mem.write_u64(PA_NEW, 0x04e3_0000_0000_0002u64).unwrap();
        m.invalidate_block_cache(); // direct mem writes above
        m.enable_translation();
        let rw = TlbFlags { valid: true, dirty: true, cap_load: true, cap_store: true };
        m.tlb_install(CODE_BASE, CODE_BASE, rw); // identity-map the code
        m.tlb_install(VA_DATA, PA_OLD, rw);
        // Guest-visible operands for the remap sequence: EntryHi selects
        // the VA_DATA pair; EntryLo0/1 point both pages at PA_NEW.
        m.cpu.set_gpr(9, VA_DATA);
        m.cpu.set_gpr(11, VA_DATA & !0x1fff);
        let lo = |pa: u64| (pa >> 12 << 6) | 0b110; // pfn | dirty | valid
        m.cpu.set_gpr(12, lo(PA_NEW));
        m.cpu.set_gpr(13, lo(PA_NEW + 0x1000));
        m.cpu.jump_to(CODE_BASE);
        m
    };
    let mut fast = build(true);
    let mut slow = build(false);
    run_lockstep(&mut fast, &mut slow, &[100], "mid-block TLB rewrite");
    assert_eq!(fast.cpu.gpr[10], 0x01d0_0000_0000_0001u64, "first load saw the old mapping");
    assert_eq!(fast.cpu.gpr[14], 0x04e3_0000_0000_0002u64, "second load saw the new mapping");
}

/// Traps must be bit-identical too: a misaligned store mid-block
/// faults, and both paths take the exception at the same instruction
/// with the same CP0 state.
#[test]
fn misaligned_store_trap_matches() {
    let words = vec![
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 11, rs: 0, imm: 5 }),
        encode(&Inst::Store { width: Width::Double, rt: 11, base: 7, imm: 3 }), // misaligned
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 12, rs: 0, imm: 6 }),
        encode(&Inst::Syscall { code: 0 }),
    ];
    let (mut fast, mut slow) = machine_pair(&words, 7);
    // The trap vectors into exception-handler space; just run a bounded
    // number of steps and insist on identical state throughout.
    run_lockstep(&mut fast, &mut slow, &[2, 1, 1, 5, 20], "misaligned store trap");
    assert!(fast.stats.exceptions >= 1, "the store must have trapped");
}
