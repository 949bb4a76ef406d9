//! End-to-end integration: IR → three binaries → simulated OS → results,
//! and the paper's adoption/compatibility stories exercised across
//! crates.

use cheri::cc::ir::build::*;
use cheri::cc::ir::{CmpOp, FuncDef, Module, Stmt, StructDef, Ty};
use cheri::cc::strategy::{CapPtr, LegacyPtr, PtrStrategy, SoftFatPtr};
use cheri::olden::OldenParams;
use cheri::os::{boot, ExitReason, KernelConfig};
use cheri::sweep::{run_spec_with_config, JobSpec, FIGURE4_STRATEGIES};
use cheri::work::Workload;

fn run_module(module: &Module, strategy: &dyn PtrStrategy) -> cheri::os::RunOutcome {
    let program = cheri::cc::compile(module, strategy)
        .unwrap_or_else(|e| panic!("[{}] {e}", strategy.name()));
    let mut kernel = boot(KernelConfig::default());
    kernel.exec_and_run(&program).expect("kernel run")
}

/// A linked-list workload with interior sharing: builds a list, reverses
/// it in place (pointer swaps), and sums it.
fn list_reverse_module(n: i64) -> Module {
    let node = 0usize;
    Module {
        structs: vec![StructDef { name: "node", fields: vec![Ty::I64, Ty::ptr(0)] }],
        funcs: vec![FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            // locals: head, cur, prev, next, i, sum
            locals: vec![
                Ty::ptr(node),
                Ty::ptr(node),
                Ty::ptr(node),
                Ty::ptr(node),
                Ty::I64,
                Ty::I64,
            ],
            body: vec![
                // Build: head = null; for i in 0..n { n = alloc; n.val = i; n.next = head; head = n }
                Stmt::Let(0, Expr::Null(node)),
                Stmt::Let(4, c(0)),
                Stmt::While {
                    cond: cmp(CmpOp::Lt, l(4), c(n)),
                    body: vec![
                        Stmt::Let(1, alloc(node, c(1))),
                        Stmt::Store { ptr: l(1), strukt: node, field: 0, value: l(4) },
                        Stmt::StorePtr { ptr: l(1), strukt: node, field: 1, value: l(0) },
                        Stmt::Let(0, l(1)),
                        Stmt::Let(4, add(l(4), c(1))),
                    ],
                },
                // Reverse in place.
                Stmt::Let(2, Expr::Null(node)),
                Stmt::Let(1, l(0)),
                Stmt::While {
                    cond: cmp(CmpOp::Eq, is_null(l(1)), c(0)),
                    body: vec![
                        Stmt::Let(3, loadp(l(1), node, 1)),
                        Stmt::StorePtr { ptr: l(1), strukt: node, field: 1, value: l(2) },
                        Stmt::Let(2, l(1)),
                        Stmt::Let(1, l(3)),
                    ],
                },
                // Sum (weighted by position to catch ordering bugs).
                Stmt::Let(1, l(2)),
                Stmt::Let(4, c(1)),
                Stmt::Let(5, c(0)),
                Stmt::While {
                    cond: cmp(CmpOp::Eq, is_null(l(1)), c(0)),
                    body: vec![
                        Stmt::Let(5, add(l(5), mul(l(4), load(l(1), node, 0)))),
                        Stmt::Let(4, add(l(4), c(1))),
                        Stmt::Let(1, loadp(l(1), node, 1)),
                    ],
                },
                Stmt::Return(Some(l(5))),
            ],
        }],
        entry: 0,
    }
}

use cheri::cc::ir::Expr;

#[test]
fn list_reversal_agrees_across_all_modes() {
    let module = list_reverse_module(50);
    // After reversal the list runs 0..n, so position i+1 holds value i.
    let expect: i64 = (0..50).map(|i| (i + 1) * i).sum();
    let strategies: [&dyn PtrStrategy; 4] =
        [&LegacyPtr, &SoftFatPtr::checked(), &SoftFatPtr::eliding(), &CapPtr::c256()];
    for s in strategies {
        let out = run_module(&module, s);
        assert_eq!(out.exit_value(), Some(expect as u64), "[{}] {:?}", s.name(), out.exit);
    }
}

#[test]
fn undefined_pointer_arithmetic_traps_only_on_cheri() {
    // Section 10: "Some applications routinely construct pointers that
    // extend significantly beyond the end of valid buffers ... which
    // will trigger exceptions on CHERI."
    let cellty = 0usize;
    let module = Module {
        structs: vec![StructDef { name: "cell", fields: vec![Ty::I64] }],
        funcs: vec![FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            locals: vec![Ty::ptr(cellty), Ty::ptr(cellty)],
            body: vec![
                Stmt::Let(0, alloc(cellty, c(4))),
                // Construct a pointer 100 elements past the end — never
                // dereferenced, but CHERI's CIncBase refuses to mint it.
                Stmt::Let(1, index(l(0), cellty, c(100))),
                Stmt::Return(Some(c(0))),
            ],
        }],
        entry: 0,
    };
    let legacy = run_module(&module, &LegacyPtr);
    assert_eq!(legacy.exit_value(), Some(0), "legacy tolerates the dangling pointer");
    let soft = run_module(&module, &SoftFatPtr::checked());
    assert_eq!(soft.exit_value(), Some(0), "soft FP only checks on dereference");
    let cheri = run_module(&module, &CapPtr::c256());
    assert!(
        matches!(cheri.exit, ExitReason::CapFault { .. }),
        "CHERI refuses out-of-bounds derivation: {:?}",
        cheri.exit
    );
}

#[test]
fn cheri_checksums_and_pages_on_olden() {
    // A cross-crate smoke of the Figure 4 pipeline at tiny sizes,
    // checking page-footprint ordering too: capability binaries touch
    // more pages than legacy ones (4x pointers), software FP in between.
    let mut pages = Vec::new();
    let mut sums: Vec<Vec<u64>> = Vec::new();
    for s in FIGURE4_STRATEGIES {
        let spec = JobSpec::new(Workload::Treeadd, s, OldenParams::scaled());
        let run = run_spec_with_config(&spec, spec.machine_config(), None).unwrap().run;
        pages.push(run.outcome.pages_touched);
        sums.push(run.checksums().to_vec());
    }
    assert_eq!(sums[0], sums[1]);
    assert_eq!(sums[0], sums[2]);
    assert!(pages[2] > pages[1], "cheri pages {} <= soft pages {}", pages[2], pages[1]);
    assert!(pages[1] > pages[0], "soft pages {} <= legacy pages {}", pages[1], pages[0]);
}

#[test]
fn const_capability_blocks_stores() {
    // Section 5.1: "a const-qualified capability pointer will explicitly
    // disclaim the write permission via the CAndPerm instruction, so
    // that the processor will throw an exception if attempts are made to
    // write through it."
    use cheri::asm::{reg, Asm};
    let mut kernel = boot(KernelConfig::default());
    let layout = kernel.layout();
    let mut a = Asm::new(layout.text_base);
    a.li64(reg::T0, layout.heap_base as i64);
    a.cincbase(1, 0, reg::T0);
    a.li64(reg::T1, 64);
    a.csetlen(1, 1, reg::T1);
    // const cast: keep only LOAD.
    a.li64(reg::T2, 0b00001);
    a.candperm(2, 1, reg::T2);
    a.cld(reg::T3, reg::ZERO, 0, 2); // reading is fine
    a.csd(reg::T3, reg::ZERO, 0, 2); // writing must trap
    a.li64(reg::V0, cheri::os::abi::SYS_EXIT as i64);
    a.syscall(0);
    let out = kernel.exec_and_run(&a.finalize().unwrap()).unwrap();
    match out.exit {
        ExitReason::CapFault { cause, .. } => {
            assert_eq!(cause.code(), cheri::core::CapExcCode::PermitStoreViolation);
            assert_eq!(cause.reg(), 2);
        }
        other => panic!("expected a store-permission fault, got {other:?}"),
    }
}
