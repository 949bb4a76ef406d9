//! OS-level integration: capability delegation, context switches,
//! capability-free shared memory, and revocation by unmapping — the
//! Section 4.3 / 6.1 operating-system stories.

use cheri::asm::{reg, Asm};
use cheri::core::{CapExcCode, Capability, Perms};
use cheri::os::{abi, boot, Context, ExitReason, KernelConfig};
use cheri::sim::tlb::TlbFlags;
use cheri::sim::{Machine, MachineConfig, StepResult, TrapKind};

mod common;

#[test]
fn unmodified_os_boots_with_full_authority() {
    // Section 4.3: "On CPU reset, capability registers are initialized,
    // granting the OS access to the entire address space so an OS can
    // run unchanged without knowledge of the capability extensions."
    let m = Machine::new(MachineConfig::default());
    assert_eq!(*m.cpu.caps.c0(), Capability::max());
    assert_eq!(*m.cpu.caps.pcc(), Capability::max());
    assert!(m.cpu.caps.within(&Capability::max()));
}

#[test]
fn context_switch_preserves_capability_state() {
    // Two "threads" with different capability restrictions; switching
    // back and forth must round-trip the full 33-capability state.
    let mut m = Machine::new(MachineConfig::default());
    m.cpu.set_gpr(5, 111);
    m.cpu.caps.set(7, Capability::new(0x1000, 0x100, Perms::LOAD).unwrap());
    let thread_a = Context::save(&m.cpu);

    // Thread B: different registers and authority.
    m.cpu.set_gpr(5, 222);
    m.cpu.caps.set(7, Capability::null());
    m.cpu.caps.set_c0(Capability::new(0, 0x1000, Perms::ALL).unwrap());
    let thread_b = Context::save(&m.cpu);

    thread_a.restore(&mut m.cpu);
    assert_eq!(m.cpu.gpr[5], 111);
    assert_eq!(m.cpu.caps.get(7).base(), 0x1000);
    thread_b.restore(&mut m.cpu);
    assert_eq!(m.cpu.gpr[5], 222);
    assert!(!m.cpu.caps.get(7).tag());
    assert_eq!(m.cpu.caps.c0().length(), 0x1000);
}

#[test]
fn shared_memory_cannot_carry_capabilities() {
    // Section 6.1: "This also allows the OS to implement shared memory
    // between processes that cannot act as a channel for passing
    // capabilities." A page mapped without the capability-store bit
    // rejects CSC of a tagged capability but accepts plain data.
    let mut m = Machine::new(MachineConfig { mem_bytes: 1 << 20, ..MachineConfig::default() });
    m.enable_translation();
    m.tlb_install(0x1000, 0x1000, TlbFlags::rw()); // code page
    m.tlb_install(0x8000, 0x8000, TlbFlags::rw_no_caps()); // "shared" page

    let mut a = Asm::new(0x1000);
    a.li64(reg::T0, 0x8000);
    a.li64(reg::T1, 42);
    a.sd(reg::T1, reg::T0, 0); // plain data: allowed
    a.csc(0, reg::T0, 1, 0); // a tagged capability: must trap
    a.syscall(0);
    let prog = a.finalize().unwrap();
    m.load_code(0x1000, &prog.words).unwrap();
    m.cpu.jump_to(prog.entry);
    let r = loop {
        match m.step().unwrap() {
            StepResult::Continue => {}
            other => break other,
        }
    };
    match r {
        StepResult::Trap(e) => match e.kind {
            TrapKind::CapViolation(cause) => {
                assert_eq!(cause.code(), CapExcCode::TlbProhibitStoreCap);
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    assert_eq!(m.mem.read_u64(0x8000).unwrap(), 42, "the data store landed");
}

#[test]
fn revocation_by_unmapping() {
    // Section 6.1: "the operating system can manipulate mappings of the
    // underlying pages to enforce revocation."
    let mut m = Machine::new(MachineConfig { mem_bytes: 1 << 20, ..MachineConfig::default() });
    m.enable_translation();
    m.tlb_install(0x1000, 0x1000, TlbFlags::rw());
    m.tlb_install(0x8000, 0x8000, TlbFlags::rw());

    let mut a = Asm::new(0x1000);
    a.li64(reg::T0, 0x8000);
    a.ld(reg::T1, reg::T0, 0); // first access: fine
    a.ld(reg::T2, reg::T0, 8); // second access: revoked by then
    a.syscall(0);
    let prog = a.finalize().unwrap();
    m.load_code(0x1000, &prog.words).unwrap();
    m.cpu.jump_to(prog.entry);

    // Run until the first load retires.
    while m.stats.loads == 0 {
        assert_eq!(m.step().unwrap(), StepResult::Continue);
    }
    // The OS revokes the region: the capability itself is untouched, but
    // the backing page disappears.
    m.tlb_invalidate_page(0x8000);
    let r = loop {
        match m.step().unwrap() {
            StepResult::Continue => {}
            other => break other,
        }
    };
    assert!(
        matches!(r, StepResult::Trap(e) if matches!(e.kind, TrapKind::TlbInvalid { .. })),
        "access after revocation must fault: {r:?}"
    );
}

#[test]
fn exec_delegates_exactly_the_user_space() {
    // Section 4.3: "the entire user virtual address space is delegated
    // to the user register file"; the process cannot reach beyond it.
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let mut a = Asm::new(layout.text_base);
    // Try to read one byte past the delegated space via legacy load.
    a.li64(reg::T0, layout.user_top as i64);
    a.ld(reg::T1, reg::T0, 0);
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    let out = kernel.exec_and_run(&a.finalize().unwrap()).unwrap();
    match out.exit {
        ExitReason::CapFault { cause, .. } => {
            assert_eq!(cause.code(), CapExcCode::LengthViolation);
            assert_eq!(cause.reg(), 0, "C0 is the ambient boundary");
        }
        other => panic!("expected C0 to stop the access: {other:?}"),
    }
}

#[test]
fn malloc_without_system_calls() {
    // Section 4.2: "A memory protection scheme that requires a system
    // call for every malloc() would negate this optimization." Our
    // capability-aware bump allocator performs many allocations with
    // zero syscalls beyond process setup.
    use cheri::cc::ir::build::*;
    use cheri::cc::ir::{CmpOp, FuncDef, Module, Stmt, StructDef, Ty};
    let module = Module {
        structs: vec![StructDef { name: "cell", fields: vec![Ty::I64] }],
        funcs: vec![FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            locals: vec![Ty::ptr(0), Ty::I64],
            body: vec![
                Stmt::Let(1, c(0)),
                Stmt::While {
                    cond: cmp(CmpOp::Lt, l(1), c(1000)),
                    body: vec![
                        Stmt::Let(0, alloc(0, c(1))),
                        Stmt::Store { ptr: l(0), strukt: 0, field: 0, value: l(1) },
                        Stmt::Let(1, add(l(1), c(1))),
                    ],
                },
                Stmt::Return(Some(load(l(0), 0, 0))),
            ],
        }],
        entry: 0,
    };
    let program =
        cheri::cc::compile(&module, &cheri::cc::strategy::CapPtr::c256(), Default::default())
            .unwrap();
    let mut kernel = boot(KernelConfig::default());
    let out = kernel.exec_and_run(&program).unwrap();
    assert_eq!(out.exit_value(), Some(999));
    // 1000 bounded allocations, two syscalls total (phaseless program:
    // just the exit) — user-mode capability management at work.
    assert!(
        out.stats.syscalls <= 2,
        "allocations must not enter the kernel: {}",
        out.stats.syscalls
    );
}

#[test]
fn guest_spans_close_on_every_exit() {
    // A process that opens phase 1 and then stops on `break` (not
    // through SYS_EXIT) still leaves a balanced span stream and timeline:
    // every exit closes the spans it leaves open.
    let mut kernel = boot(KernelConfig::default());
    let mut a = Asm::new(kernel.layout().text_base);
    a.li64(reg::A0, 1);
    a.li64(reg::V0, abi::SYS_PHASE as i64);
    a.syscall(0);
    a.break_(7);
    kernel.exec(&a.finalize().unwrap()).unwrap();
    let run = common::run_observed(&mut kernel);
    assert_eq!(run.outcome.exit, ExitReason::Break(7));
    assert_eq!(run.stream, common::edges(&["+phase 1", "-phase 1"]));
    assert_eq!(run.timeline, run.stream);
}
