//! `bisort`: bitonic sort over a perfect binary tree.
//!
//! The values live at the `2^k` leaves of a perfect tree; internal nodes
//! are routing structure. `bisort` recursively sorts the left subtree
//! ascending and the right descending, then `bimerge` runs the bitonic
//! merge by pairwise compare-exchange of corresponding leaves of sibling
//! subtrees — the classic bitonic network realised over pointers, which
//! is the access pattern of the Olden original ("The sorting phase
//! involves traversing the tree and swapping pointers ... dominated by
//! cache miss time", Section 8).
//!
//! The module prints three checksums: the sortedness-violation count
//! (must be 0), and the leaf-value sum before and after sorting (must be
//! equal).

use cheri_cc::ir::build::*;
use cheri_cc::ir::{CmpOp, Expr, FuncDef, Module, Stmt, StructDef, Ty};

const VAL: usize = 0;
const LEFT: usize = 1;
const RIGHT: usize = 2;
/// `cell { val }` — the running "previous leaf" during the sortedness
/// check.
const CELL_VAL: usize = 0;

/// Builds the `bisort` module for `2^log2_leaves` values.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn module(log2_leaves: u32) -> Module {
    let node = 0usize;
    let cell = 1usize;
    let (scramble, build, bisort, bimerge, cmpswap, checkf, sumleaf, main) =
        (0usize, 1, 2, 3, 4, 5, 6, 7);

    // scramble(x): a 64-bit mixer producing the pseudo-random leaf
    // values (the Olden original seeds with random()).
    let scramble_fn = FuncDef {
        name: "scramble",
        params: 1,
        ret: Some(Ty::I64),
        locals: vec![Ty::I64, Ty::I64],
        body: vec![
            Stmt::Let(1, mul(add(l(0), c(0x9e37_79b9)), c(0x9E3779B97F4A7C15u64 as i64))),
            Stmt::Let(1, bxor(l(1), shr(l(1), c(29)))),
            Stmt::Let(1, mul(l(1), c(0xBF58_476D))),
            Stmt::Let(1, bxor(l(1), shr(l(1), c(17)))),
            Stmt::Return(Some(band(l(1), c(0xf_ffff)))),
        ],
    };

    // build(depth, idx): depth 0 => leaf with value scramble(idx).
    let build_fn = FuncDef {
        name: "build",
        params: 2,
        ret: Some(Ty::ptr(node)),
        // locals: depth, idx, n, tmp, v
        locals: vec![Ty::I64, Ty::I64, Ty::ptr(node), Ty::ptr(node), Ty::I64],
        body: vec![
            Stmt::Let(2, alloc(node, c(1))),
            Stmt::If {
                cond: cmp(CmpOp::Eq, l(0), c(0)),
                then: vec![
                    Stmt::Let(4, call(scramble, vec![l(1)])),
                    Stmt::Store { ptr: l(2), strukt: node, field: VAL, value: l(4) },
                ],
                els: vec![
                    Stmt::Let(3, call(build, vec![sub(l(0), c(1)), mul(l(1), c(2))])),
                    Stmt::StorePtr { ptr: l(2), strukt: node, field: LEFT, value: l(3) },
                    Stmt::Let(3, call(build, vec![sub(l(0), c(1)), add(mul(l(1), c(2)), c(1))])),
                    Stmt::StorePtr { ptr: l(2), strukt: node, field: RIGHT, value: l(3) },
                ],
            },
            Stmt::Return(Some(l(2))),
        ],
    };

    let leaf_test = |p: Expr| is_null(loadp(p, node, LEFT));

    // cmpswap(a, b, dir): pairwise compare-exchange of corresponding
    // leaves of two same-shape subtrees; dir=0 ascending.
    let cmpswap_fn = FuncDef {
        name: "cmpswap",
        params: 3,
        ret: None,
        // locals: a, b, dir, va, vb, t
        locals: vec![Ty::ptr(node), Ty::ptr(node), Ty::I64, Ty::I64, Ty::I64, Ty::I64],
        body: vec![Stmt::If {
            cond: leaf_test(l(0)),
            then: vec![
                Stmt::Let(3, load(l(0), node, VAL)),
                Stmt::Let(4, load(l(1), node, VAL)),
                Stmt::Let(5, bxor(cmp(CmpOp::Gt, l(3), l(4)), l(2))),
                Stmt::If {
                    cond: l(5),
                    then: vec![
                        Stmt::Store { ptr: l(0), strukt: node, field: VAL, value: l(4) },
                        Stmt::Store { ptr: l(1), strukt: node, field: VAL, value: l(3) },
                    ],
                    els: vec![],
                },
            ],
            els: vec![
                Stmt::Expr(call(
                    cmpswap,
                    vec![loadp(l(0), node, LEFT), loadp(l(1), node, LEFT), l(2)],
                )),
                Stmt::Expr(call(
                    cmpswap,
                    vec![loadp(l(0), node, RIGHT), loadp(l(1), node, RIGHT), l(2)],
                )),
            ],
        }],
    };

    // bimerge(p, dir): merge the bitonic sequence under p.
    let bimerge_fn = FuncDef {
        name: "bimerge",
        params: 2,
        ret: None,
        locals: vec![Ty::ptr(node), Ty::I64],
        body: vec![Stmt::If {
            cond: leaf_test(l(0)),
            then: vec![],
            els: vec![
                Stmt::Expr(call(
                    cmpswap,
                    vec![loadp(l(0), node, LEFT), loadp(l(0), node, RIGHT), l(1)],
                )),
                Stmt::Expr(call(bimerge, vec![loadp(l(0), node, LEFT), l(1)])),
                Stmt::Expr(call(bimerge, vec![loadp(l(0), node, RIGHT), l(1)])),
            ],
        }],
    };

    // bisort(p, dir).
    let bisort_fn = FuncDef {
        name: "bisort",
        params: 2,
        ret: None,
        locals: vec![Ty::ptr(node), Ty::I64],
        body: vec![Stmt::If {
            cond: leaf_test(l(0)),
            then: vec![],
            els: vec![
                Stmt::Expr(call(bisort, vec![loadp(l(0), node, LEFT), l(1)])),
                Stmt::Expr(call(bisort, vec![loadp(l(0), node, RIGHT), sub(c(1), l(1))])),
                Stmt::Expr(call(bimerge, vec![l(0), l(1)])),
            ],
        }],
    };

    // check(p, cell): in-order leaf walk counting descents.
    let check_fn = FuncDef {
        name: "check",
        params: 2,
        ret: Some(Ty::I64),
        // locals: p, cell, v, x, y
        locals: vec![Ty::ptr(node), Ty::ptr(cell), Ty::I64, Ty::I64, Ty::I64],
        body: vec![
            Stmt::If {
                cond: leaf_test(l(0)),
                then: vec![
                    Stmt::Let(2, load(l(0), node, VAL)),
                    Stmt::Let(3, cmp(CmpOp::Lt, l(2), load(l(1), cell, CELL_VAL))),
                    Stmt::Store { ptr: l(1), strukt: cell, field: CELL_VAL, value: l(2) },
                    Stmt::Return(Some(l(3))),
                ],
                els: vec![],
            },
            Stmt::Let(3, call(checkf, vec![loadp(l(0), node, LEFT), l(1)])),
            Stmt::Let(4, call(checkf, vec![loadp(l(0), node, RIGHT), l(1)])),
            Stmt::Return(Some(add(l(3), l(4)))),
        ],
    };

    // sumleaf(p): checksum of the value multiset.
    let sumleaf_fn = FuncDef {
        name: "sumleaf",
        params: 1,
        ret: Some(Ty::I64),
        locals: vec![Ty::ptr(node), Ty::I64, Ty::I64],
        body: vec![
            Stmt::If {
                cond: leaf_test(l(0)),
                then: vec![Stmt::Return(Some(load(l(0), node, VAL)))],
                els: vec![],
            },
            Stmt::Let(1, call(sumleaf, vec![loadp(l(0), node, LEFT)])),
            Stmt::Let(2, call(sumleaf, vec![loadp(l(0), node, RIGHT)])),
            Stmt::Return(Some(add(l(1), l(2)))),
        ],
    };

    let main_fn = FuncDef {
        name: "main",
        params: 0,
        ret: Some(Ty::I64),
        // locals: root, prevcell, sum_before, sum_after, violations
        locals: vec![Ty::ptr(node), Ty::ptr(cell), Ty::I64, Ty::I64, Ty::I64],
        body: vec![
            Stmt::Phase(1),
            Stmt::Let(0, call(build, vec![c(i64::from(log2_leaves)), c(0)])),
            Stmt::Let(2, call(sumleaf, vec![l(0)])),
            Stmt::Phase(2),
            Stmt::Expr(call(bisort, vec![l(0), c(0)])),
            Stmt::Phase(3),
            Stmt::Let(1, alloc(cell, c(1))),
            Stmt::Store { ptr: l(1), strukt: cell, field: CELL_VAL, value: c(-1) },
            Stmt::Let(4, call(checkf, vec![l(0), l(1)])),
            Stmt::Let(3, call(sumleaf, vec![l(0)])),
            Stmt::Print(l(4)),
            Stmt::Print(l(2)),
            Stmt::Print(l(3)),
            Stmt::Return(Some(l(4))),
        ],
    };

    Module {
        structs: vec![
            StructDef { name: "node", fields: vec![Ty::I64, Ty::ptr(node), Ty::ptr(node)] },
            StructDef { name: "cell", fields: vec![Ty::I64] },
        ],
        funcs: vec![
            scramble_fn,
            build_fn,
            bisort_fn,
            bimerge_fn,
            cmpswap_fn,
            check_fn,
            sumleaf_fn,
            main_fn,
        ],
        entry: main,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cc::check::{check as validate, Limits};
    use cheri_cc::strategy::LegacyPtr;

    #[test]
    fn module_checks() {
        validate(&module(4), Limits { max_int: 6, max_ptr: 3 }).unwrap();
    }

    #[test]
    fn sorts_and_preserves_values() {
        let prog = cheri_cc::compile(&module(6), &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        let out = k.exec_and_run(&prog).unwrap();
        assert_eq!(out.exit_value(), Some(0), "violations must be zero");
        assert_eq!(out.prints[0], 0);
        assert_eq!(out.prints[1], out.prints[2], "value multiset preserved");
        assert!(out.prints[1] > 0);
    }
}
