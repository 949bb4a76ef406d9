//! `treeadd`: build a binary tree of the given depth, then sum it
//! recursively. "Due to the similar data structure used, treeadd has
//! comparable performance profile to bisort" (Section 8).

use cheri_cc::ir::build::*;
use cheri_cc::ir::{FuncDef, Module, Stmt, StructDef, Ty};

/// Field indices of `node { val, left, right }`.
const VAL: usize = 0;
/// Left child.
const LEFT: usize = 1;
/// Right child.
const RIGHT: usize = 2;

/// Builds the `treeadd` module for a tree of `depth` levels
/// (`2^depth - 1` nodes, each holding the value 1, as
/// `treeadd 21 1 0` does).
#[must_use]
pub fn module(depth: u32) -> Module {
    let node = 0usize;
    let build = 0usize;
    let sum = 1usize;
    let main = 2usize;

    let build_fn = FuncDef {
        name: "build",
        params: 1,
        ret: Some(Ty::ptr(node)),
        // locals: depth, n, tmp
        locals: vec![Ty::I64, Ty::ptr(node), Ty::ptr(node)],
        body: vec![
            Stmt::If {
                cond: cmp(cheri_cc::ir::CmpOp::Le, l(0), c(0)),
                then: vec![Stmt::Return(Some(Expr::Null(node)))],
                els: vec![],
            },
            Stmt::Let(1, alloc(node, c(1))),
            Stmt::Store { ptr: l(1), strukt: node, field: VAL, value: c(1) },
            Stmt::Let(2, call(build, vec![sub(l(0), c(1))])),
            Stmt::StorePtr { ptr: l(1), strukt: node, field: LEFT, value: l(2) },
            Stmt::Let(2, call(build, vec![sub(l(0), c(1))])),
            Stmt::StorePtr { ptr: l(1), strukt: node, field: RIGHT, value: l(2) },
            Stmt::Return(Some(l(1))),
        ],
    };

    let sum_fn = FuncDef {
        name: "sum",
        params: 1,
        ret: Some(Ty::I64),
        // locals: p, a, b
        locals: vec![Ty::ptr(node), Ty::I64, Ty::I64],
        body: vec![
            Stmt::If { cond: is_null(l(0)), then: vec![Stmt::Return(Some(c(0)))], els: vec![] },
            Stmt::Let(1, call(sum, vec![loadp(l(0), node, LEFT)])),
            Stmt::Let(2, call(sum, vec![loadp(l(0), node, RIGHT)])),
            Stmt::Return(Some(add(load(l(0), node, VAL), add(l(1), l(2))))),
        ],
    };

    let main_fn = FuncDef {
        name: "main",
        params: 0,
        ret: Some(Ty::I64),
        // locals: tree, result
        locals: vec![Ty::ptr(node), Ty::I64],
        body: vec![
            Stmt::Phase(1),
            Stmt::Let(0, call(build, vec![c(i64::from(depth))])),
            Stmt::Phase(2),
            Stmt::Let(1, call(sum, vec![l(0)])),
            Stmt::Phase(3),
            Stmt::Print(l(1)),
            Stmt::Return(Some(l(1))),
        ],
    };

    Module {
        structs: vec![StructDef {
            name: "node",
            fields: vec![Ty::I64, Ty::ptr(node), Ty::ptr(node)],
        }],
        funcs: vec![build_fn, sum_fn, main_fn],
        entry: main,
    }
}

use cheri_cc::ir::Expr;

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cc::check::{check, Limits};

    #[test]
    fn module_checks() {
        let m = module(5);
        check(&m, Limits { max_int: 6, max_ptr: 3 }).unwrap();
    }

    #[test]
    fn sum_is_node_count() {
        use cheri_cc::strategy::LegacyPtr;
        let m = module(6);
        let prog = cheri_cc::compile(&m, &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        let out = k.exec_and_run(&prog).unwrap();
        assert_eq!(out.exit_value(), Some(63)); // 2^6 - 1 nodes of value 1
        assert_eq!(out.prints, vec![63]);
    }
}
