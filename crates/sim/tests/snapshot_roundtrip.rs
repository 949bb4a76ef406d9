//! Machine-level snapshot round-trips: interrupting a run at an
//! arbitrary instruction, snapshotting, serializing through JSON,
//! restoring onto a *fresh* machine, and finishing there must be
//! bit-identical — same architectural state, same statistics, same
//! cache/tag/predictor contents — to a run that never stopped. The
//! block cache must be transparent to all of it: a snapshot taken with
//! the fast path on restores onto a machine running with it off, and
//! the final states still agree.

use beri_sim::decode::encode;
use beri_sim::inst::{AluImmOp, AluOp, BranchCond, Inst, MulDivOp, Width};
use beri_sim::{Machine, MachineConfig, StepResult};
use cheri_snap::MachineState;

const CODE_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x8000;

/// A small program with varied traffic: a store/load loop over the data
/// window, multiply pressure, and a conditional branch, ending in a
/// syscall. Roughly 8 × 16 = 128 dynamic instructions.
fn program() -> Vec<u32> {
    vec![
        // $8 = loop counter, $9 = cursor, $10 = accumulator.
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 8, rs: 0, imm: 16 }),
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 9, rs: 7, imm: 0 }),
        // loop:
        encode(&Inst::Store { width: Width::Double, rt: 8, base: 9, imm: 0 }),
        encode(&Inst::Load { width: Width::Double, rt: 11, base: 9, imm: 0, unsigned: false }),
        encode(&Inst::Alu { op: AluOp::Daddu, rd: 10, rs: 10, rt: 11 }),
        encode(&Inst::MulDiv { op: MulDivOp::Dmultu, rs: 10, rt: 8 }),
        encode(&Inst::Mflo { rd: 12 }),
        encode(&Inst::AluImm { op: AluImmOp::Daddiu, rt: 9, rs: 9, imm: 8 }),
        encode(&Inst::AluImm { op: AluImmOp::Daddiu, rt: 8, rs: 8, imm: -1i16 as u16 }),
        encode(&Inst::Branch { cond: BranchCond::Ne, rs: 8, rt: 0, offset: -8 }),
        encode(&Inst::AluImm { op: AluImmOp::Ori, rt: 13, rs: 12, imm: 0 }), // delay slot
        encode(&Inst::Syscall { code: 0 }),
    ]
}

fn machine_with(block_cache: bool) -> Machine {
    let mut m =
        Machine::new(MachineConfig { mem_bytes: 1 << 20, block_cache, ..MachineConfig::default() });
    m.load_code(CODE_BASE, &program()).unwrap();
    m.cpu.set_gpr(7, DATA_BASE);
    m.cpu.jump_to(CODE_BASE);
    m
}

/// Runs to the terminating syscall; returns the retired-instruction
/// count on entry to the syscall.
fn run_to_end(m: &mut Machine) -> u64 {
    loop {
        match m.run(10_000).unwrap() {
            StepResult::Continue => {}
            StepResult::Syscall => return m.stats.instructions,
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// The core property: snapshot at instruction `k` (through a JSON
/// round-trip), restore onto a fresh machine with its own block-cache
/// setting, finish, and compare against the uninterrupted run.
fn check_roundtrip(bc_src: bool, bc_dst: bool, k: u64) {
    let mut straight = machine_with(bc_src);
    run_to_end(&mut straight);
    let want = straight.snapshot();

    let mut first = machine_with(bc_src);
    assert_eq!(first.run(k).unwrap(), StepResult::Continue, "k must stop mid-program");
    assert_eq!(first.stats.instructions, k, "run(k) must stop exactly at k");
    let json = first.snapshot().to_json();
    let snap = MachineState::from_json(&json).unwrap();

    let mut second = machine_with(bc_dst);
    second.restore(&snap).unwrap();
    run_to_end(&mut second);
    let got = second.snapshot();

    assert_eq!(
        want.state_hash(),
        got.state_hash(),
        "final state diverged (src bc={bc_src}, dst bc={bc_dst}, k={k})"
    );
    assert_eq!(want, got, "hash collision or PartialEq disagreement");
}

#[test]
fn roundtrip_block_cache_on_to_on() {
    for k in [1, 7, 40, 100] {
        check_roundtrip(true, true, k);
    }
}

#[test]
fn roundtrip_block_cache_on_to_off() {
    for k in [1, 7, 40, 100] {
        check_roundtrip(true, false, k);
    }
}

#[test]
fn roundtrip_block_cache_off_to_on() {
    for k in [7, 40] {
        check_roundtrip(false, true, k);
    }
}

#[test]
fn snapshot_is_deterministic_and_json_stable() {
    let mut m = machine_with(true);
    m.run(25).unwrap();
    let a = m.snapshot();
    let b = m.snapshot();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
    let reparsed = MachineState::from_json(&a.to_json()).unwrap();
    assert_eq!(reparsed.to_json(), a.to_json(), "serialization must be canonical");
}

#[test]
fn restore_rejects_mismatched_geometry() {
    let mut m = machine_with(true);
    m.run(25).unwrap();
    let snap = m.snapshot();
    let mut other = Machine::new(MachineConfig {
        mem_bytes: 2 << 20, // different DRAM size
        ..MachineConfig::default()
    });
    let err = other.restore(&snap).unwrap_err();
    assert!(err.0.contains("identity mismatch"), "{err}");
}

#[test]
fn from_state_rebuilds_equivalent_machine() {
    let mut m = machine_with(true);
    m.run(40).unwrap();
    let snap = m.snapshot();
    let mut rebuilt = Machine::from_state(&snap, false).unwrap();
    assert_eq!(rebuilt.snapshot().state_hash(), snap.state_hash());
    run_to_end(&mut m);
    run_to_end(&mut rebuilt);
    assert_eq!(m.snapshot().state_hash(), rebuilt.snapshot().state_hash());
}

/// A snapshot file can hold what no run produces. Each field the packed
/// timing layouts cannot hold is refused with a `SnapError` naming it,
/// never a panic, and the untouched snapshot still restores exactly.
#[test]
fn restore_refuses_what_the_packed_layouts_cannot_hold() {
    let mut m = machine_with(true);
    m.run(40).unwrap();
    let good = m.snapshot();
    let refuse = |what: &str, edit: &dyn Fn(&mut MachineState)| {
        let mut bad = good.clone();
        edit(&mut bad);
        let err = match Machine::from_state(&bad, true) {
            Ok(_) => panic!("{what}: restored"),
            Err(e) => e,
        };
        assert!(err.0.contains(what), "{what}: {err}");
    };
    // A tag cache that is not 0 or a power-of-two number of 64-byte lines.
    for bytes in [3 * 64, 6 * 64 + 10, 1000 * 64] {
        refuse("tag_cache_bytes", &|s| s.config.tag_cache_bytes = bytes);
    }
    // An MRU cursor naming a line its index does not hold.
    refuse("MRU cursor", &|s| s.hierarchy.l1d.mru_block ^= 1);
    refuse("MRU cursor", &|s| s.hierarchy.l1i.mru_index ^= 1);
    // Cache lines whose tag the packed key cannot carry.
    refuse("cache line", &|s| {
        let l = s.hierarchy.l2.lines.iter_mut().find(|l| l.valid).unwrap();
        l.tag |= 1 << 63;
    });
    refuse("cache line", &|s| {
        let l = s.hierarchy.l1d.lines.iter_mut().find(|l| !l.valid).unwrap();
        l.tag = 7;
    });
    // A present TLB entry with a vpn2 no EntryHi can name.
    refuse("vpn2", &|s| {
        s.tlb.entries[0].present = true;
        s.tlb.entries[0].vpn2 = 1 << 51;
    });
    // Tag-cache slots the packed key cannot carry.
    refuse("tag cache line", &|s| {
        let l = s.mem.tag_cache.iter_mut().find(|l| !l.valid).unwrap();
        l.line_index = 9;
    });
    refuse("tag cache line", &|s| {
        s.mem.tag_cache[0].valid = true;
        s.mem.tag_cache[0].line_index = 1 << 63;
    });

    let restored = Machine::from_state(&good, true).unwrap();
    assert_eq!(restored.snapshot().to_json(), good.to_json());
}
