//! Memory safety for C (paper Section 5.1): the same buggy program —
//! a loop that writes one element past the end of a heap buffer —
//! compiled three ways:
//!
//! * conventional MIPS: the overflow silently corrupts the neighbouring
//!   allocation;
//! * CCured-style software fat pointers: the inserted check catches it;
//! * CHERI: the capability bounds catch it in hardware, with the
//!   faulting register and cause reported.
//!
//! ```sh
//! cargo run --example memory_safety
//! ```

use cheri::cc::ir::build::*;
use cheri::cc::ir::{CmpOp, FuncDef, Module, Stmt, StructDef, Ty};
use cheri::cc::strategy::{CapPtr, LegacyPtr, PtrStrategy, SoftFatPtr};
use cheri::os::{boot, ExitReason, KernelConfig};

/// `cell { value }` — an 8-byte heap cell.
const CELL: usize = 0;

/// Builds: a = alloc(4 cells); b = alloc(1 cell); b[0] = 7;
/// for i in 0..=4 { a[i] = 1 }   // off-by-one!
/// return b[0];                   // 7 if nothing was smashed
fn buggy_module() -> Module {
    Module {
        structs: vec![StructDef { name: "cell", fields: vec![Ty::I64] }],
        funcs: vec![FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            locals: vec![Ty::ptr(CELL), Ty::ptr(CELL), Ty::I64],
            body: vec![
                Stmt::Let(0, alloc(CELL, c(4))),
                Stmt::Let(1, alloc(CELL, c(1))),
                Stmt::Store { ptr: l(1), strukt: CELL, field: 0, value: c(7) },
                Stmt::Let(2, c(0)),
                Stmt::While {
                    cond: cmp(CmpOp::Le, l(2), c(4)), // <= : off by one
                    body: vec![
                        Stmt::Store {
                            ptr: index(l(0), CELL, l(2)),
                            strukt: CELL,
                            field: 0,
                            value: c(1),
                        },
                        Stmt::Let(2, add(l(2), c(1))),
                    ],
                },
                Stmt::Return(Some(load(l(1), CELL, 0))),
            ],
        }],
        entry: 0,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = buggy_module();
    let strategies: [&dyn PtrStrategy; 3] = [&LegacyPtr, &SoftFatPtr::checked(), &CapPtr::c256()];
    for strategy in strategies {
        let program = cheri::cc::compile(&module, strategy)?;
        let mut kernel = boot(KernelConfig::default());
        let outcome = kernel.exec_and_run(&program)?;
        print!("{:<14}", strategy.name());
        match outcome.exit {
            ExitReason::Exit(7) => {
                unreachable!("the bump allocator packs b right after a")
            }
            ExitReason::Exit(v) => {
                println!("ran to completion — neighbouring allocation smashed (b[0] = {v})");
                assert_eq!(v, 1, "the overflow should have overwritten b[0]");
            }
            ExitReason::SoftBoundsFault { pc } => {
                println!("software bounds check failed at pc {pc:#x}");
            }
            ExitReason::CapFault { cause, pc } => {
                println!("hardware capability fault at pc {pc:#x}: {cause}");
            }
            other => println!("unexpected outcome: {other:?}"),
        }
    }
    println!("\nOnly the unprotected binary lets the corruption through —");
    println!("and CHERI needed no per-access check instructions to stop it.");
    Ok(())
}
