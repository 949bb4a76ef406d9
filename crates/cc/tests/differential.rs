//! Differential property testing of the compiler: randomly generated
//! well-typed programs must produce *identical results* under all four
//! pointer strategies — the cross-mode validity property the Figure 4
//! methodology rests on.

use cheri_cc::ir::build::*;
use cheri_cc::ir::{CmpOp, Expr, FuncDef, Module, Stmt, StructDef, Ty};
use cheri_cc::strategy::{CapPtr, LegacyPtr, PtrStrategy, SoftFatPtr};
use cheri_os::{boot, KernelConfig};
use proptest::prelude::*;

/// One generated statement over a fixed frame: int locals 2 and 3,
/// pointer locals 0 and 1 (struct `cell { v0: i64, v1: i64, next: ptr }`).
/// The generator only emits dereferences guarded by allocation order, so
/// every generated program is memory-safe by construction — all four
/// binaries must agree.
#[derive(Clone, Debug)]
enum Op {
    SetConst { local: usize, v: i16 },
    Arith { dst: usize, a: usize, b: usize, kind: u8 },
    AllocInto { p: usize },
    StoreField { p: usize, field: usize, src: usize },
    LoadField { dst: usize, p: usize, field: usize },
    LinkPtrs,                  // p1.next = p0
    FollowLink { dst: usize }, // p<dst> = p1.next
    IfPositive { cond: usize, then_local: usize, v: i16 },
    LoopAccumulate { times: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (2usize..4, any::<i16>()).prop_map(|(local, v)| Op::SetConst { local, v }),
        (2usize..4, 2usize..4, 2usize..4, 0u8..5).prop_map(|(dst, a, b, kind)| Op::Arith {
            dst,
            a,
            b,
            kind
        }),
        (0usize..2).prop_map(|p| Op::AllocInto { p }),
        (0usize..2, 0usize..2, 2usize..4).prop_map(|(p, field, src)| Op::StoreField {
            p,
            field,
            src
        }),
        (2usize..4, 0usize..2, 0usize..2).prop_map(|(dst, p, field)| Op::LoadField {
            dst,
            p,
            field
        }),
        Just(Op::LinkPtrs),
        (0usize..2).prop_map(|dst| Op::FollowLink { dst }),
        (2usize..4, 2usize..4, any::<i16>()).prop_map(|(cond, then_local, v)| Op::IfPositive {
            cond,
            then_local,
            v
        }),
        (1u8..6).prop_map(|times| Op::LoopAccumulate { times }),
    ]
}

/// Lowers the op sequence to a well-typed module, tracking which pointer
/// locals are definitely initialised (dereferences of possibly-null
/// pointers are dropped).
fn lower(ops: &[Op]) -> Module {
    let cell = 0usize;
    let mut init = [false; 2];
    let mut linked = false;
    let mut body = vec![
        Stmt::Let(0, Expr::Null(cell)),
        Stmt::Let(1, Expr::Null(cell)),
        Stmt::Let(2, c(1)),
        Stmt::Let(3, c(2)),
        Stmt::Let(4, c(0)),
    ];
    for op in ops {
        match *op {
            Op::SetConst { local, v } => body.push(Stmt::Let(local, c(i64::from(v)))),
            Op::Arith { dst, a, b, kind } => {
                let e = match kind {
                    0 => add(l(a), l(b)),
                    1 => sub(l(a), l(b)),
                    2 => mul(l(a), band(l(b), c(0xff))),
                    3 => bxor(l(a), l(b)),
                    _ => cmp(CmpOp::Lt, l(a), l(b)),
                };
                body.push(Stmt::Let(dst, e));
            }
            Op::AllocInto { p } => {
                body.push(Stmt::Let(p, alloc(cell, c(1))));
                init[p] = true;
                if p == 1 {
                    linked = false;
                }
            }
            Op::StoreField { p, field, src } => {
                if init[p] {
                    body.push(Stmt::Store { ptr: l(p), strukt: cell, field, value: l(src) });
                }
            }
            Op::LoadField { dst, p, field } => {
                if init[p] {
                    body.push(Stmt::Let(dst, load(l(p), cell, field)));
                }
            }
            Op::LinkPtrs => {
                if init[0] && init[1] {
                    body.push(Stmt::StorePtr { ptr: l(1), strukt: cell, field: 2, value: l(0) });
                    linked = true;
                }
            }
            Op::FollowLink { dst } => {
                if init[1] && linked {
                    body.push(Stmt::Let(dst, loadp(l(1), cell, 2)));
                    init[dst] = true;
                }
            }
            Op::IfPositive { cond, then_local, v } => {
                body.push(Stmt::If {
                    cond: cmp(CmpOp::Gt, l(cond), c(0)),
                    then: vec![Stmt::Let(then_local, c(i64::from(v)))],
                    els: vec![Stmt::Let(then_local, c(-i64::from(v)))],
                });
            }
            Op::LoopAccumulate { times } => {
                body.push(Stmt::Let(4, c(0)));
                body.push(Stmt::While {
                    cond: cmp(CmpOp::Lt, l(4), c(i64::from(times))),
                    body: vec![Stmt::Let(2, add(l(2), l(3))), Stmt::Let(4, add(l(4), c(1)))],
                });
            }
        }
    }
    // Result folds in both int locals plus whatever is in the heap.
    let mut result = add(l(2), mul(l(3), c(3)));
    if init[0] {
        result = add(result, load(l(0), cell, 0));
    }
    body.push(Stmt::Return(Some(band(result, c(0xfff_ffff)))));
    Module {
        structs: vec![StructDef { name: "cell", fields: vec![Ty::I64, Ty::I64, Ty::ptr(cell)] }],
        funcs: vec![FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            locals: vec![Ty::ptr(cell), Ty::ptr(cell), Ty::I64, Ty::I64, Ty::I64],
            body,
        }],
        entry: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_compute_identical_results(ops in proptest::collection::vec(arb_op(), 1..25)) {
        let module = lower(&ops);
        let strategies: [&dyn PtrStrategy; 4] =
            [&LegacyPtr, &SoftFatPtr::checked(), &SoftFatPtr::eliding(), &CapPtr::c256()];
        let mut results = Vec::new();
        for s in strategies {
            let program = cheri_cc::compile(&module, s)
                .unwrap_or_else(|e| panic!("[{}] compile: {e}\n{module:#?}", s.name()));
            let mut kernel = boot(KernelConfig::default());
            let out = kernel.exec_and_run(&program).expect("run");
            let v = out.exit_value().unwrap_or_else(|| {
                panic!("[{}] abnormal exit {:?}\n{module:#?}", s.name(), out.exit)
            });
            results.push((s.name(), v));
        }
        for w in results.windows(2) {
            prop_assert_eq!(w[0].1, w[1].1, "{} vs {}: {:#?}", w[0].0, w[1].0, ops);
        }
    }
}
