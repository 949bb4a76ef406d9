//! §4.4: capability manipulation is single-cycle. A `CIncBase` or
//! `CSetLen` costs the base CPI, exactly like an ALU op, with the block
//! cache on and off:
//!
//! * a straight-line run of 64 `CIncBase`/`CSetLen` pairs retires in the
//!   same instructions and cycles as its ALU twin, the same program with
//!   a `DADDU` in place of each capability op (both pay the same cold
//!   I-cache fills, which is why neither is `cycles == instructions`);
//! * once the I-cache is warm, each further loop iteration of those
//!   pairs costs one cycle per instruction, within 1%.

use cheri::asm::{reg, Asm, Program};
use cheri::sim::{Machine, MachineConfig, StepResult};

/// `CIncBase`/`CSetLen` pairs per program (or loop iteration).
const PAIRS: usize = 64;

/// Instructions per loop iteration: the pairs plus `DADDIU`, `BGTZ` and
/// its delay-slot `NOP`.
const ITER_INSTRUCTIONS: u64 = 2 * PAIRS as u64 + 3;

/// Emits the pairs, `C1 := C0 + T0` then `C1.len := T1`, or for the ALU
/// twin two `DADDU`s with the same dependency shape.
fn pairs(a: &mut Asm, cap: bool) {
    for _ in 0..PAIRS {
        if cap {
            a.cincbase(1, 0, reg::T0);
            a.csetlen(1, 1, reg::T1);
        } else {
            a.daddu(reg::T2, reg::ZERO, reg::T0);
            a.daddu(reg::T2, reg::T2, reg::T1);
        }
    }
}

/// The pairs once (`iters == None`) or in a loop of `iters` iterations,
/// then `SYSCALL`.
fn program(cap: bool, iters: Option<i64>) -> Program {
    let mut a = Asm::new(0x1000);
    a.li64(reg::T0, 0x4000);
    a.li64(reg::T1, 64);
    match iters {
        None => pairs(&mut a, cap),
        Some(n) => {
            let top = a.new_label();
            a.li64(reg::T3, n);
            a.bind(top).unwrap();
            pairs(&mut a, cap);
            a.daddiu(reg::T3, reg::T3, -1);
            a.bgtz(reg::T3, top);
        }
    }
    a.syscall(0);
    a.finalize().unwrap()
}

/// Runs `prog` on a cold machine to its `SYSCALL`; returns the retired
/// instructions, cycles and capability instructions.
fn run(prog: &Program, block_cache: bool) -> (u64, u64, u64) {
    let mut m =
        Machine::new(MachineConfig { mem_bytes: 1 << 20, block_cache, ..MachineConfig::default() });
    m.load_code(prog.base, &prog.words).unwrap();
    m.cpu.jump_to(prog.entry);
    assert_eq!(m.run(1 << 20).unwrap(), StepResult::Syscall);
    (m.stats.instructions, m.stats.cycles, m.stats.cap_instructions)
}

#[test]
fn capability_ops_cost_the_same_cycles_as_alu_ops() {
    for block_cache in [true, false] {
        let (cap_instr, cap_cycles, caps) = run(&program(true, None), block_cache);
        let (alu_instr, alu_cycles, alu_caps) = run(&program(false, None), block_cache);
        assert_eq!((caps, alu_caps), (2 * PAIRS as u64, 0), "block cache {block_cache}");
        assert_eq!(cap_instr, alu_instr, "block cache {block_cache}");
        assert_eq!(
            cap_cycles, alu_cycles,
            "block cache {block_cache}: {cap_instr} instructions take {cap_cycles} cycles \
             with capability ops, {alu_cycles} with ALU ops"
        );
    }
}

#[test]
fn warm_capability_ops_retire_one_per_cycle() {
    for block_cache in [true, false] {
        let (i1, c1, _) = run(&program(true, Some(1)), block_cache);
        let (i11, c11, _) = run(&program(true, Some(11)), block_cache);
        let (di, dc) = (i11 - i1, c11 - c1);
        assert_eq!(di, 10 * ITER_INSTRUCTIONS, "block cache {block_cache}");
        assert!(
            dc >= di && (dc - di) * 100 < di,
            "block cache {block_cache}: 10 warm iterations took {dc} cycles for {di} \
             instructions"
        );
    }
}
