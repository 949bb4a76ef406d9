//! The paper's Section 11 ("Future work") features: trap-mediated
//! protected domain crossing and tag-driven garbage collection.

use cheri::asm::{reg, Asm};
use cheri::core::Capability;
use cheri::os::{abi, boot, ExitReason, KernelConfig};

mod common;

/// Builds a callee compartment at `base`: a function that doubles its
/// argument and returns via SYS_DRETURN. Addresses inside the
/// compartment are C0-relative.
fn double_server(base: u64) -> cheri::asm::Program {
    let mut a = Asm::new(base);
    a.daddu(reg::A0, reg::A0, reg::A0);
    a.li64(reg::V0, abi::SYS_DRETURN as i64);
    a.syscall(0);
    a.finalize().unwrap()
}

/// A callee that ends the whole process from inside its activation.
fn exiting_server(base: u64) -> cheri::asm::Program {
    let mut a = Asm::new(base);
    a.li64(reg::A0, 5);
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    a.finalize().unwrap()
}

/// A callee that tries to read the caller's secret at an absolute
/// address outside its compartment.
fn nosy_server(base: u64, secret_addr: u64) -> cheri::asm::Program {
    let mut a = Asm::new(base);
    // The compartment's C0 starts at `base`, so address X in the
    // caller's space is (X - base) compartment-relative... but any
    // offset past the compartment length must trap.
    a.li64(reg::T0, (secret_addr.wrapping_sub(base)) as i64);
    a.ld(reg::A0, reg::T0, 0);
    a.li64(reg::V0, abi::SYS_DRETURN as i64);
    a.syscall(0);
    a.finalize().unwrap()
}

#[test]
fn protected_domain_call_round_trip() {
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let dom_base = 0x40_0000u64;
    let dom_len = 0x1000u64;

    // Caller: opens phase 1; calls domain 0 with 21; exits with the
    // result plus a marker proving it resumed with its own state.
    let mut a = Asm::new(layout.text_base);
    a.li64(reg::A0, 1);
    a.li64(reg::V0, abi::SYS_PHASE as i64);
    a.syscall(0);
    a.li64(reg::S0, 1000); // caller-held state
    a.li64(reg::A0, 0); // domain id
    a.li64(reg::A1, 21); // argument
    a.li64(reg::V0, abi::SYS_DCALL as i64);
    a.syscall(0);
    a.daddu(reg::A0, reg::V0, reg::S0); // 42 + 1000: s0 must survive
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    let caller = a.finalize().unwrap();

    kernel.exec(&caller).unwrap();
    kernel.load_image(&double_server(dom_base)).unwrap();
    kernel.register_domain("doubler", dom_base, dom_base, dom_len).unwrap();
    let run = common::run_observed(&mut kernel);
    assert_eq!(run.outcome.exit_value(), Some(1042), "{:?}", run.outcome.exit);
    assert_eq!(kernel.domain_call_depth(), 0, "call stack balanced");
    // The activation's span closes with its own id, inside the phase.
    assert_eq!(run.timeline, common::edges(&["+phase 1", "+domain 0", "-domain 0", "-phase 1"]));
}

#[test]
fn spans_close_innermost_first_when_the_process_ends_inside_a_domain() {
    // The callee ends the process from inside its activation, once
    // through SYS_EXIT and once by faulting: either way the domain span
    // closes, under its own name, before the phase that encloses it.
    let dom_base = 0x40_0000u64;
    let heap = KernelConfig::default().layout.heap_base;
    for (callee, faults) in [(exiting_server(dom_base), false), (nosy_server(dom_base, heap), true)]
    {
        let mut kernel = boot(KernelConfig::default());
        let mut a = Asm::new(kernel.layout().text_base);
        a.li64(reg::A0, 1);
        a.li64(reg::V0, abi::SYS_PHASE as i64);
        a.syscall(0);
        a.li64(reg::A0, 0);
        a.li64(reg::V0, abi::SYS_DCALL as i64);
        a.syscall(0);
        a.li64(reg::V0, abi::SYS_EXIT as i64);
        a.syscall(0);
        kernel.exec(&a.finalize().unwrap()).unwrap();
        kernel.load_image(&callee).unwrap();
        kernel.register_domain("callee", dom_base, dom_base, 0x1000).unwrap();
        let run = common::run_observed(&mut kernel);
        if faults {
            assert!(
                matches!(run.outcome.exit, ExitReason::CapFault { .. }),
                "{:?}",
                run.outcome.exit
            );
        } else {
            assert_eq!(run.outcome.exit, ExitReason::Exit(5));
        }
        assert_eq!(
            run.timeline,
            common::edges(&["+phase 1", "+domain 0", "-domain 0", "-phase 1"])
        );
    }
}

#[test]
fn compromised_domain_cannot_read_caller_memory() {
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let dom_base = 0x40_0000u64;
    let secret_addr = layout.heap_base;

    let mut a = Asm::new(layout.text_base);
    // Park a secret on the heap.
    a.li64(reg::T0, secret_addr as i64);
    a.li64(reg::T1, 0x5ec2e7);
    a.sd(reg::T1, reg::T0, 0);
    a.li64(reg::A0, 0);
    a.li64(reg::A1, 0);
    a.li64(reg::V0, abi::SYS_DCALL as i64);
    a.syscall(0);
    a.move_(reg::A0, reg::V0);
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    let caller = a.finalize().unwrap();

    kernel.exec(&caller).unwrap();
    kernel.load_image(&nosy_server(dom_base, secret_addr)).unwrap();
    kernel.register_domain("nosy", dom_base, dom_base, 0x1000).unwrap();
    let out = kernel.run().unwrap();
    match out.exit {
        ExitReason::CapFault { cause, .. } => {
            assert_eq!(cause.reg(), 0, "the compartment C0 stops the read");
        }
        other => panic!("the nosy domain must fault, got {other:?}"),
    }
}

#[test]
fn callee_registers_do_not_leak_to_or_from_caller() {
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let dom_base = 0x40_0000u64;

    // Callee returns whatever it finds in $s0 — which must be 0, not the
    // caller's 777.
    let mut srv = Asm::new(dom_base);
    srv.move_(reg::A0, reg::S0);
    srv.li64(reg::V0, abi::SYS_DRETURN as i64);
    srv.syscall(0);
    let server = srv.finalize().unwrap();

    let mut a = Asm::new(layout.text_base);
    a.li64(reg::S0, 777);
    a.li64(reg::A0, 0);
    a.li64(reg::A1, 5);
    a.li64(reg::V0, abi::SYS_DCALL as i64);
    a.syscall(0);
    a.move_(reg::A0, reg::V0);
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    let caller = a.finalize().unwrap();

    kernel.exec(&caller).unwrap();
    kernel.load_image(&server).unwrap();
    kernel.register_domain("leaky?", dom_base, dom_base, 0x1000).unwrap();
    let out = kernel.run().unwrap();
    assert_eq!(out.exit_value(), Some(0), "caller registers must not leak into the callee");
}

#[test]
fn invalid_domain_id_fails_cleanly() {
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let mut a = Asm::new(layout.text_base);
    a.li64(reg::A0, 99); // no such domain
    a.li64(reg::V0, abi::SYS_DCALL as i64);
    a.syscall(0);
    a.move_(reg::A0, reg::V0);
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    let out = kernel.exec_and_run(&a.finalize().unwrap()).unwrap();
    assert_eq!(out.exit_value(), Some(u64::MAX));
}

#[test]
fn gc_trace_finds_exactly_the_reachable_heap() {
    // A guest program allocates three 64-byte objects, chains two of
    // them through a capability stored in memory, keeps a register
    // capability to the chain head, drops every other right (clearing
    // C0), and stops. The tracing pass must see exactly the two chained
    // objects.
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let heap = layout.heap_base as i64;

    let mut a = Asm::new(layout.text_base);
    // C1 -> obj0 [heap, 64); C2 -> obj1 [heap+64, 64); C3 -> obj2.
    for (reg_c, off) in [(1u8, 0i64), (2, 64), (3, 128)] {
        a.li64(reg::T0, heap + off);
        a.cincbase(reg_c, 0, reg::T0);
        a.li64(reg::T1, 64);
        a.csetlen(reg_c, reg_c, reg::T1);
    }
    // Store C2 inside obj0 (at heap+32, a 32-byte aligned slot), so it
    // is reachable *through* C1's region.
    a.li64(reg::T0, heap + 32);
    a.csc(2, reg::T0, 0, 0);
    // Simulate the allocator bump so heap_used() covers 3 objects.
    a.li64(reg::T0, layout.heap_ptr_cell() as i64);
    a.li64(reg::T1, heap + 192);
    a.sd(reg::T1, reg::T0, 0);
    // Drop ambient rights: clear C0, C2 and C3; only C1 (and PCC) remain.
    a.ccleartag(0, 0);
    a.ccleartag(2, 2);
    a.ccleartag(3, 3);
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    let prog = a.finalize().unwrap();
    let out = kernel.exec_and_run(&prog).unwrap();
    assert_eq!(out.exit_value(), Some(0));

    // Guest code cannot shrink its own PCC mid-run (PCC is written only
    // by capability jumps); model the restricted-domain end state
    // kernel-side before tracing.
    let text = Capability::new(layout.text_base, 0x1000, cheri::core::Perms::EXECUTE).unwrap();
    kernel.machine_mut().cpu.caps.set_pcc(text);
    let report = kernel.gc_trace();
    // Reachable: PCC (text) + C1's obj0 + the capability to obj1 stored
    // inside obj0. obj2 is garbage.
    let heap = layout.heap_base;
    assert!(
        report.reachable.iter().any(|&(b, e)| b == heap && e >= heap + 128),
        "objects 0 and 1 must be reachable: {:?}",
        report.reachable
    );
    assert_eq!(
        report.reclaimable_heap_bytes, 64,
        "exactly the dropped third object is reclaimable"
    );
    assert!(report.live_capabilities >= 3); // PCC, C1, stored C2
}

#[test]
fn gc_is_precise_not_conservative() {
    // An *untagged* bit-pattern identical to a capability must not make
    // its target reachable — the precision tags buy (Section 11).
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let heap = layout.heap_base as i64;

    let mut a = Asm::new(layout.text_base);
    // C1 -> obj0. Derive C2 -> obj1 but store it with its TAG CLEARED.
    a.li64(reg::T0, heap);
    a.cincbase(1, 0, reg::T0);
    a.li64(reg::T1, 64);
    a.csetlen(1, 1, reg::T1);
    a.li64(reg::T0, heap + 64);
    a.cincbase(2, 0, reg::T0);
    a.li64(reg::T1, 64);
    a.csetlen(2, 2, reg::T1);
    a.ccleartag(2, 2); // same bits, no authority
    a.li64(reg::T0, heap + 32);
    a.csc(2, reg::T0, 0, 0);
    // Bump allocator over both objects; drop C0 and C2.
    a.li64(reg::T0, layout.heap_ptr_cell() as i64);
    a.li64(reg::T1, heap + 128);
    a.sd(reg::T1, reg::T0, 0);
    a.ccleartag(0, 0);
    a.ccleartag(2, 2);
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    kernel.exec_and_run(&a.finalize().unwrap()).unwrap();
    let text = Capability::new(layout.text_base, 0x1000, cheri::core::Perms::EXECUTE).unwrap();
    kernel.machine_mut().cpu.caps.set_pcc(text);
    let report = kernel.gc_trace();
    assert_eq!(
        report.reclaimable_heap_bytes, 64,
        "the untagged pointer must not keep obj1 alive: {report:?}"
    );
}
