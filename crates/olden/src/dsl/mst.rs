//! `mst`: minimum spanning tree over a pseudo-random graph whose
//! adjacency lists live in per-vertex hash tables — the Olden workload
//! whose "two contiguous allocations to build the graph and a linear
//! read" pattern Section 8 discusses.
//!
//! The graph has `n` vertices connected in a guaranteed spanning chain
//! plus `degree` extra pseudo-random edges per vertex; Prim's algorithm
//! computes the MST cost, relaxing each extracted vertex's neighbours by
//! walking its hash buckets (keys are neighbour addresses via
//! `PtrToInt`, i.e. `CToPtr` under CHERI).

use cheri_cc::ir::build::*;
use cheri_cc::ir::{CmpOp, FuncDef, Module, Stmt, StructDef, Ty};

// struct indices
const VERTEX: usize = 0;
const BUCKET: usize = 1;
const ENTRY: usize = 2;
const VREF: usize = 3;

// vertex fields
const MINDIST: usize = 0;
const INTREE: usize = 1;
const HASH: usize = 2;
// bucket fields
const HEAD: usize = 0;
// entry fields
const WEIGHT: usize = 0;
const KEY: usize = 1;
const NEIGH: usize = 2;
const NEXT: usize = 3;
// vref fields
const V: usize = 0;

/// Buckets per vertex hash table.
const NBUCKETS: i64 = 16;
/// "Infinite" distance.
const INF: i64 = 1 << 40;

/// Builds the `mst` module for `n` vertices with `degree` extra edges
/// per vertex.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn module(n: u32, degree: u32) -> Module {
    let (scramble, weightof, insert, pair, genverts, addedges, prim, main) =
        (0usize, 1, 2, 3, 4, 5, 6, 7);
    let n = i64::from(n);
    let degree = i64::from(degree);

    let scramble_fn = FuncDef {
        name: "scramble",
        params: 1,
        ret: Some(Ty::I64),
        locals: vec![Ty::I64, Ty::I64],
        body: vec![
            Stmt::Let(1, mul(add(l(0), c(0x5851_F42D)), c(0x5851F42D4C957F2Du64 as i64))),
            Stmt::Let(1, bxor(l(1), shr(l(1), c(33)))),
            Stmt::Let(1, mul(l(1), c(0xD6E8_FEB8))),
            Stmt::Return(Some(band(bxor(l(1), shr(l(1), c(27))), c(0x7fff_ffff)))),
        ],
    };

    // weightof(i, j): symmetric deterministic edge weight in 1..=1000.
    let weightof_fn = FuncDef {
        name: "weightof",
        params: 2,
        ret: Some(Ty::I64),
        // locals: i j | a b t
        locals: vec![Ty::I64, Ty::I64, Ty::I64, Ty::I64, Ty::I64],
        body: vec![
            Stmt::Let(2, l(0)),
            Stmt::Let(3, l(1)),
            Stmt::If {
                cond: cmp(CmpOp::Gt, l(2), l(3)),
                then: vec![Stmt::Let(4, l(2)), Stmt::Let(2, l(3)), Stmt::Let(3, l(4))],
                els: vec![],
            },
            Stmt::Let(4, call(scramble, vec![add(mul(l(2), c(n)), l(3))])),
            Stmt::Return(Some(add(urem(l(4), c(1000)), c(1)))),
        ],
    };

    // insert(tab, key, w, neigh): push an entry on the key's bucket.
    let insert_fn = FuncDef {
        name: "insert",
        params: 4,
        ret: None,
        // locals: tab key w neigh | h e tmp
        locals: vec![
            Ty::ptr(BUCKET),
            Ty::I64,
            Ty::I64,
            Ty::ptr(VERTEX),
            Ty::I64,
            Ty::ptr(ENTRY),
            Ty::ptr(ENTRY),
        ],
        body: vec![
            Stmt::Let(4, urem(shr(l(1), c(4)), c(NBUCKETS))),
            Stmt::Let(5, alloc(ENTRY, c(1))),
            Stmt::Store { ptr: l(5), strukt: ENTRY, field: WEIGHT, value: l(2) },
            Stmt::Store { ptr: l(5), strukt: ENTRY, field: KEY, value: l(1) },
            Stmt::StorePtr { ptr: l(5), strukt: ENTRY, field: NEIGH, value: l(3) },
            Stmt::Let(6, loadp(index(l(0), BUCKET, l(4)), BUCKET, HEAD)),
            Stmt::StorePtr { ptr: l(5), strukt: ENTRY, field: NEXT, value: l(6) },
            Stmt::StorePtr {
                ptr: index(l(0), BUCKET, l(4)),
                strukt: BUCKET,
                field: HEAD,
                value: l(5),
            },
        ],
    };

    // pair(varr, i, j): add the undirected edge (i, j).
    let pair_fn = FuncDef {
        name: "pair",
        params: 3,
        ret: None,
        // locals: varr i j | v w wt
        locals: vec![Ty::ptr(VREF), Ty::I64, Ty::I64, Ty::ptr(VERTEX), Ty::ptr(VERTEX), Ty::I64],
        body: vec![
            Stmt::Let(3, loadp(index(l(0), VREF, l(1)), VREF, V)),
            Stmt::Let(4, loadp(index(l(0), VREF, l(2)), VREF, V)),
            Stmt::Let(5, call(weightof, vec![l(1), l(2)])),
            Stmt::Expr(call(insert, vec![loadp(l(3), VERTEX, HASH), ptoi(l(4)), l(5), l(4)])),
            Stmt::Expr(call(insert, vec![loadp(l(4), VERTEX, HASH), ptoi(l(3)), l(5), l(3)])),
        ],
    };

    // genverts(varr): allocate every vertex and its hash table.
    let genverts_fn = FuncDef {
        name: "genverts",
        params: 1,
        ret: None,
        // locals: varr | i v tab
        locals: vec![Ty::ptr(VREF), Ty::I64, Ty::ptr(VERTEX), Ty::ptr(BUCKET)],
        body: vec![
            Stmt::Let(1, c(0)),
            Stmt::While {
                cond: cmp(CmpOp::Lt, l(1), c(n)),
                body: vec![
                    Stmt::Let(2, alloc(VERTEX, c(1))),
                    Stmt::Let(3, alloc(BUCKET, c(NBUCKETS))),
                    Stmt::Store { ptr: l(2), strukt: VERTEX, field: MINDIST, value: c(INF) },
                    Stmt::Store { ptr: l(2), strukt: VERTEX, field: INTREE, value: c(0) },
                    Stmt::StorePtr { ptr: l(2), strukt: VERTEX, field: HASH, value: l(3) },
                    Stmt::StorePtr {
                        ptr: index(l(0), VREF, l(1)),
                        strukt: VREF,
                        field: V,
                        value: l(2),
                    },
                    Stmt::Let(1, add(l(1), c(1))),
                ],
            },
        ],
    };

    // addedges(varr): spanning chain + `degree` pseudo-random edges per
    // vertex.
    let addedges_fn = FuncDef {
        name: "addedges",
        params: 1,
        ret: None,
        // locals: varr | i k t j
        locals: vec![Ty::ptr(VREF), Ty::I64, Ty::I64, Ty::I64, Ty::I64],
        body: vec![
            Stmt::Let(1, c(0)),
            Stmt::While {
                cond: cmp(CmpOp::Lt, l(1), c(n - 1)),
                body: vec![
                    Stmt::Expr(call(pair, vec![l(0), l(1), add(l(1), c(1))])),
                    Stmt::Let(1, add(l(1), c(1))),
                ],
            },
            Stmt::Let(1, c(0)),
            Stmt::While {
                cond: cmp(CmpOp::Lt, l(1), c(n)),
                body: vec![
                    Stmt::Let(2, c(0)),
                    Stmt::While {
                        cond: cmp(CmpOp::Lt, l(2), c(degree)),
                        body: vec![
                            Stmt::Let(
                                3,
                                call(scramble, vec![add(mul(l(1), c(degree)), add(l(2), c(7)))]),
                            ),
                            Stmt::Let(4, urem(l(3), c(n))),
                            Stmt::If {
                                cond: cmp(CmpOp::Ne, l(4), l(1)),
                                then: vec![Stmt::Expr(call(pair, vec![l(0), l(1), l(4)]))],
                                els: vec![],
                            },
                            Stmt::Let(2, add(l(2), c(1))),
                        ],
                    },
                    Stmt::Let(1, add(l(1), c(1))),
                ],
            },
        ],
    };

    // prim(varr) -> MST cost.
    let prim_fn = FuncDef {
        name: "prim",
        params: 1,
        ret: Some(Ty::I64),
        // locals: varr | step i cost best bv v bi e nv wt
        locals: vec![
            Ty::ptr(VREF),   // 0
            Ty::I64,         // 1 step
            Ty::I64,         // 2 i
            Ty::I64,         // 3 cost
            Ty::I64,         // 4 best
            Ty::ptr(VERTEX), // 5 bv
            Ty::ptr(VERTEX), // 6 v
            Ty::I64,         // 7 bi
            Ty::ptr(ENTRY),  // 8 e
            Ty::ptr(VERTEX), // 9 nv
            Ty::I64,         // 10 wt
        ],
        body: vec![
            // varr[0].mindist = 0
            Stmt::Let(6, loadp(index(l(0), VREF, c(0)), VREF, V)),
            Stmt::Store { ptr: l(6), strukt: VERTEX, field: MINDIST, value: c(0) },
            Stmt::Let(3, c(0)),
            Stmt::Let(1, c(0)),
            Stmt::While {
                cond: cmp(CmpOp::Lt, l(1), c(n)),
                body: vec![
                    // Linear scan for the closest out-of-tree vertex.
                    Stmt::Let(4, c(INF + 1)),
                    Stmt::Let(5, Expr::Null(VERTEX)),
                    Stmt::Let(2, c(0)),
                    Stmt::While {
                        cond: cmp(CmpOp::Lt, l(2), c(n)),
                        body: vec![
                            Stmt::Let(6, loadp(index(l(0), VREF, l(2)), VREF, V)),
                            Stmt::If {
                                cond: cmp(CmpOp::Eq, load(l(6), VERTEX, INTREE), c(0)),
                                then: vec![Stmt::If {
                                    cond: cmp(CmpOp::Lt, load(l(6), VERTEX, MINDIST), l(4)),
                                    then: vec![
                                        Stmt::Let(4, load(l(6), VERTEX, MINDIST)),
                                        Stmt::Let(5, l(6)),
                                    ],
                                    els: vec![],
                                }],
                                els: vec![],
                            },
                            Stmt::Let(2, add(l(2), c(1))),
                        ],
                    },
                    Stmt::Store { ptr: l(5), strukt: VERTEX, field: INTREE, value: c(1) },
                    Stmt::Let(3, add(l(3), l(4))),
                    // Relax the extracted vertex's neighbours.
                    Stmt::Let(7, c(0)),
                    Stmt::While {
                        cond: cmp(CmpOp::Lt, l(7), c(NBUCKETS)),
                        body: vec![
                            Stmt::Let(
                                8,
                                loadp(index(loadp(l(5), VERTEX, HASH), BUCKET, l(7)), BUCKET, HEAD),
                            ),
                            Stmt::While {
                                cond: cmp(CmpOp::Eq, is_null(l(8)), c(0)),
                                body: vec![
                                    Stmt::Let(9, loadp(l(8), ENTRY, NEIGH)),
                                    Stmt::If {
                                        cond: cmp(CmpOp::Eq, load(l(9), VERTEX, INTREE), c(0)),
                                        then: vec![
                                            Stmt::Let(10, load(l(8), ENTRY, WEIGHT)),
                                            Stmt::If {
                                                cond: cmp(
                                                    CmpOp::Lt,
                                                    l(10),
                                                    load(l(9), VERTEX, MINDIST),
                                                ),
                                                then: vec![Stmt::Store {
                                                    ptr: l(9),
                                                    strukt: VERTEX,
                                                    field: MINDIST,
                                                    value: l(10),
                                                }],
                                                els: vec![],
                                            },
                                        ],
                                        els: vec![],
                                    },
                                    Stmt::Let(8, loadp(l(8), ENTRY, NEXT)),
                                ],
                            },
                            Stmt::Let(7, add(l(7), c(1))),
                        ],
                    },
                    Stmt::Let(1, add(l(1), c(1))),
                ],
            },
            Stmt::Return(Some(l(3))),
        ],
    };

    let main_fn = FuncDef {
        name: "main",
        params: 0,
        ret: Some(Ty::I64),
        locals: vec![Ty::ptr(VREF), Ty::I64],
        body: vec![
            Stmt::Phase(1),
            Stmt::Let(0, alloc(VREF, c(n))),
            Stmt::Expr(call(genverts, vec![l(0)])),
            Stmt::Expr(call(addedges, vec![l(0)])),
            Stmt::Phase(2),
            Stmt::Let(1, call(prim, vec![l(0)])),
            Stmt::Phase(3),
            Stmt::Print(l(1)),
            Stmt::Return(Some(l(1))),
        ],
    };

    Module {
        structs: vec![
            StructDef { name: "vertex", fields: vec![Ty::I64, Ty::I64, Ty::ptr(BUCKET)] },
            StructDef { name: "bucket", fields: vec![Ty::ptr(ENTRY)] },
            StructDef {
                name: "entry",
                fields: vec![Ty::I64, Ty::I64, Ty::ptr(VERTEX), Ty::ptr(ENTRY)],
            },
            StructDef { name: "vref", fields: vec![Ty::ptr(VERTEX)] },
        ],
        funcs: vec![
            scramble_fn,
            weightof_fn,
            insert_fn,
            pair_fn,
            genverts_fn,
            addedges_fn,
            prim_fn,
            main_fn,
        ],
        entry: main,
    }
}

use cheri_cc::ir::Expr;

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cc::check::{check as validate, Limits};
    use cheri_cc::strategy::LegacyPtr;

    #[test]
    fn module_checks() {
        validate(&module(16, 3), Limits { max_int: 6, max_ptr: 3 }).unwrap();
    }

    #[test]
    fn mst_cost_is_positive_and_bounded() {
        let prog = cheri_cc::compile(&module(24, 4), &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        let out = k.exec_and_run(&prog).unwrap();
        let cost = out.exit_value().expect("clean exit");
        // 23 tree edges of weight 1..=1000.
        assert!(cost >= 23, "cost {cost}");
        assert!(cost <= 23 * 1000, "cost {cost}");
    }
}
