//! `allocstress`: a guest free-list allocator under churn, authored in
//! the `cheri-cc` IR.
//!
//! Models the allocator-level behaviour the CRuby-on-CHERI port
//! catalogs: a fixed arena threaded into a free list, `salloc`/`sfree`
//! that pop and push list heads (every allocation re-derives a
//! capability from the list), pointer scrubbing on free (storing null
//! over the dead slot's pointer fields invalidates its tags, and the
//! relink immediately re-stores a fresh capability over the recycled
//! memory), and a periodic pointer scan that walks every live chain —
//! exactly the reuse/re-derivation/recheck traffic tree builders never
//! produce.
//!
//! The object graph is strictly ownership-shaped: each of `alloc_roots`
//! roots owns one chain linked through the `b` field, churn pushes or
//! pops only at chain heads, and a chain never exceeds [`CHAIN_CAP`]
//! nodes, so no dangling pointer is ever stored or loaded (which also
//! lets the native twin run the same graph on the panic-on-use-after-
//! free [`cheri_limit::TracedHeap`]).

use cheri_cc::ir::build::{
    add, alloc, band, bxor, c, call, cmp, index, is_null, l, load, loadp, mul, shr, sub, urem,
};
use cheri_cc::ir::{CmpOp, Expr, FuncDef, Module, Stmt, StructDef, Ty};
use cheri_cc::strategy::PtrStrategy;
use cheri_olden::OldenParams;

/// Maximum nodes per root chain; pops are forced at this depth. The
/// params presets keep `alloc_slots > alloc_roots * CHAIN_CAP` so the
/// arena can never run dry.
pub const CHAIN_CAP: i64 = 8;

/// Scan period: every `SCAN_EVERY` churn ops, walk all chains.
pub const SCAN_EVERY: i64 = 64;

/// Struct ids.
const SLOT: usize = 0;
const ROOT: usize = 1;
const ST: usize = 2;

/// `slot { gen, val, a*, b* }` — `a` threads the free list, `b` the
/// live chain; both are scrubbed on free.
const GEN: usize = 0;
const VAL: usize = 1;
const A: usize = 2;
const B: usize = 3;
/// `root { n, p* }`.
const RN: usize = 0;
const RP: usize = 1;
/// `st { live, allocs, frees, free*, arena* }`.
const LIVE: usize = 0;
const ALLOCS: usize = 1;
const FREES: usize = 2;
const FREE: usize = 3;
const ARENA: usize = 4;

/// Function ids.
const HINIT: usize = 0;
const SALLOC: usize = 1;
const SFREE: usize = 2;
const SCAN: usize = 3;
const MAIN: usize = 4;

/// `hinit(st, slots)`: allocate the arena and thread every slot onto
/// the free list (slot `slots-1` ends up at the head).
fn hinit_fn() -> FuncDef {
    // Locals: 0 st, 1 slots, 2 i, 3 s, 4 head, 5 arena.
    let body = vec![
        Stmt::Let(5, alloc(SLOT, l(1))),
        Stmt::StorePtr { ptr: l(0), strukt: ST, field: ARENA, value: l(5) },
        Stmt::Let(4, Expr::Null(SLOT)),
        Stmt::Let(2, c(0)),
        Stmt::While {
            cond: cmp(CmpOp::Lt, l(2), l(1)),
            body: vec![
                Stmt::Let(3, index(l(5), SLOT, l(2))),
                Stmt::StorePtr { ptr: l(3), strukt: SLOT, field: A, value: l(4) },
                Stmt::Let(4, l(3)),
                Stmt::Let(2, add(l(2), c(1))),
            ],
        },
        Stmt::StorePtr { ptr: l(0), strukt: ST, field: FREE, value: l(4) },
    ];
    FuncDef {
        name: "hinit",
        params: 2,
        ret: None,
        locals: vec![Ty::ptr(ST), Ty::I64, Ty::I64, Ty::ptr(SLOT), Ty::ptr(SLOT), Ty::ptr(SLOT)],
        body,
    }
}

/// `salloc(st)`: pop the free-list head, scrub its pointer fields,
/// bump its generation. Returns null only if the arena is exhausted
/// (prevented by the sizing invariant).
fn salloc_fn() -> FuncDef {
    // Locals: 0 st, 1 s.
    let body = vec![
        Stmt::Let(1, loadp(l(0), ST, FREE)),
        Stmt::If {
            cond: is_null(l(1)),
            then: vec![Stmt::Return(Some(Expr::Null(SLOT)))],
            els: vec![],
        },
        Stmt::StorePtr { ptr: l(0), strukt: ST, field: FREE, value: loadp(l(1), SLOT, A) },
        Stmt::StorePtr { ptr: l(1), strukt: SLOT, field: A, value: Expr::Null(SLOT) },
        Stmt::StorePtr { ptr: l(1), strukt: SLOT, field: B, value: Expr::Null(SLOT) },
        Stmt::Store {
            ptr: l(1),
            strukt: SLOT,
            field: GEN,
            value: add(load(l(1), SLOT, GEN), c(1)),
        },
        Stmt::Store { ptr: l(1), strukt: SLOT, field: VAL, value: c(0) },
        Stmt::Store { ptr: l(0), strukt: ST, field: LIVE, value: add(load(l(0), ST, LIVE), c(1)) },
        Stmt::Store {
            ptr: l(0),
            strukt: ST,
            field: ALLOCS,
            value: add(load(l(0), ST, ALLOCS), c(1)),
        },
        Stmt::Return(Some(l(1))),
    ];
    FuncDef {
        name: "salloc",
        params: 1,
        ret: Some(Ty::ptr(SLOT)),
        locals: vec![Ty::ptr(ST), Ty::ptr(SLOT)],
        body,
    }
}

/// `sfree(st, s)`: scrub the dead slot's pointer fields (tag
/// invalidation over recycled memory), then immediately re-store a
/// fresh capability as the free-list link.
fn sfree_fn() -> FuncDef {
    // Locals: 0 st, 1 s.
    let body = vec![
        Stmt::StorePtr { ptr: l(1), strukt: SLOT, field: A, value: Expr::Null(SLOT) },
        Stmt::StorePtr { ptr: l(1), strukt: SLOT, field: B, value: Expr::Null(SLOT) },
        Stmt::StorePtr { ptr: l(1), strukt: SLOT, field: A, value: loadp(l(0), ST, FREE) },
        Stmt::StorePtr { ptr: l(0), strukt: ST, field: FREE, value: l(1) },
        Stmt::Store { ptr: l(0), strukt: ST, field: LIVE, value: sub(load(l(0), ST, LIVE), c(1)) },
        Stmt::Store {
            ptr: l(0),
            strukt: ST,
            field: FREES,
            value: add(load(l(0), ST, FREES), c(1)),
        },
    ];
    FuncDef { name: "sfree", params: 2, ret: None, locals: vec![Ty::ptr(ST), Ty::ptr(SLOT)], body }
}

/// `scan(roots, nroots)`: walk every root's chain, summing
/// `gen * 3 + val` per node and folding per-root sums with `* 31`.
fn scan_fn() -> FuncDef {
    // Locals: 0 roots, 1 nroots, 2 i, 3 s, 4 sum, 5 rsum, 6 rp.
    let body = vec![
        Stmt::Let(5, c(0)),
        Stmt::Let(2, c(0)),
        Stmt::While {
            cond: cmp(CmpOp::Lt, l(2), l(1)),
            body: vec![
                Stmt::Let(6, index(l(0), ROOT, l(2))),
                Stmt::Let(3, loadp(l(6), ROOT, RP)),
                Stmt::Let(4, c(0)),
                Stmt::While {
                    cond: cmp(CmpOp::Eq, is_null(l(3)), c(0)),
                    body: vec![
                        Stmt::Let(
                            4,
                            add(l(4), add(mul(load(l(3), SLOT, GEN), c(3)), load(l(3), SLOT, VAL))),
                        ),
                        Stmt::Let(3, loadp(l(3), SLOT, B)),
                    ],
                },
                Stmt::Let(5, add(mul(l(5), c(31)), l(4))),
                Stmt::Let(2, add(l(2), c(1))),
            ],
        },
        Stmt::Return(Some(l(5))),
    ];
    FuncDef {
        name: "scan",
        params: 2,
        ret: Some(Ty::I64),
        locals: vec![
            Ty::ptr(ROOT),
            Ty::I64,
            Ty::I64,
            Ty::ptr(SLOT),
            Ty::I64,
            Ty::I64,
            Ty::ptr(ROOT),
        ],
        body,
    }
}

/// Builds the `allocstress` module at the given problem size.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn module(p: &OldenParams) -> Module {
    let slots = i64::from(p.alloc_slots.max(16));
    let nroots = i64::from(p.alloc_roots.max(1));
    let ops = i64::from(p.alloc_ops);

    // Locals: 0 st, 1 roots, 2 t, 3 m, 4 r, 5 d, 6 root, 7 n, 8 s,
    // 9 acc, 10 rsum, 11 v.
    let push_op = || -> Vec<Stmt> {
        vec![
            Stmt::Let(8, call(SALLOC, vec![l(0)])),
            Stmt::Let(11, band(bxor(l(3), l(2)), c(0x7fff))),
            Stmt::Store { ptr: l(8), strukt: SLOT, field: VAL, value: l(11) },
            Stmt::StorePtr { ptr: l(8), strukt: SLOT, field: B, value: loadp(l(6), ROOT, RP) },
            Stmt::StorePtr { ptr: l(6), strukt: ROOT, field: RP, value: l(8) },
            Stmt::Store { ptr: l(6), strukt: ROOT, field: RN, value: add(l(7), c(1)) },
        ]
    };
    let pop_op = || -> Vec<Stmt> {
        vec![
            Stmt::Let(8, loadp(l(6), ROOT, RP)),
            Stmt::StorePtr { ptr: l(6), strukt: ROOT, field: RP, value: loadp(l(8), SLOT, B) },
            Stmt::Expr(call(SFREE, vec![l(0), l(8)])),
            Stmt::Store { ptr: l(6), strukt: ROOT, field: RN, value: sub(l(7), c(1)) },
        ]
    };

    let loop_body = vec![
        // m = mix(t) (same mixer as vmloop's reseed).
        Stmt::Let(3, mul(l(2), c(2_654_435_761))),
        Stmt::Let(3, bxor(l(3), shr(l(3), c(13)))),
        Stmt::Let(3, band(mul(l(3), c(97)), c(0xffff))),
        Stmt::Let(4, urem(l(3), c(nroots))),
        Stmt::Let(6, index(l(1), ROOT, l(4))),
        Stmt::Let(7, load(l(6), ROOT, RN)),
        Stmt::Let(5, band(shr(l(3), c(8)), c(3))),
        // Empty chain: must push. Full chain: must pop. Otherwise pop
        // on d == 3 (a 3:1 push bias keeps chains populated).
        Stmt::If {
            cond: cmp(CmpOp::Eq, l(7), c(0)),
            then: push_op(),
            els: vec![Stmt::If {
                cond: cmp(CmpOp::Ge, l(7), c(CHAIN_CAP)),
                then: pop_op(),
                els: vec![Stmt::If {
                    cond: cmp(CmpOp::Eq, l(5), c(3)),
                    then: pop_op(),
                    els: push_op(),
                }],
            }],
        },
        Stmt::If {
            cond: cmp(CmpOp::Eq, band(l(2), c(SCAN_EVERY - 1)), c(0)),
            then: vec![
                Stmt::Let(10, call(SCAN, vec![l(1), c(nroots)])),
                Stmt::Let(9, add(mul(l(9), c(31)), l(10))),
            ],
            els: vec![],
        },
        Stmt::Let(2, add(l(2), c(1))),
    ];

    let main_fn = FuncDef {
        name: "main",
        params: 0,
        ret: Some(Ty::I64),
        locals: vec![
            Ty::ptr(ST),
            Ty::ptr(ROOT),
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::ptr(ROOT),
            Ty::I64,
            Ty::ptr(SLOT),
            Ty::I64,
            Ty::I64,
            Ty::I64,
        ],
        body: vec![
            Stmt::Phase(1),
            Stmt::Let(0, alloc(ST, c(1))),
            Stmt::Expr(call(HINIT, vec![l(0), c(slots)])),
            Stmt::Let(1, alloc(ROOT, c(nroots))),
            Stmt::Phase(2),
            Stmt::Let(2, c(0)),
            Stmt::Let(9, c(0)),
            Stmt::While { cond: cmp(CmpOp::Lt, l(2), c(ops)), body: loop_body },
            Stmt::Phase(3),
            Stmt::Print(load(l(0), ST, ALLOCS)),
            Stmt::Print(load(l(0), ST, FREES)),
            Stmt::Print(l(9)),
            Stmt::Print(load(l(0), ST, LIVE)),
            Stmt::Return(Some(load(l(0), ST, LIVE))),
        ],
    };

    Module {
        structs: vec![
            StructDef {
                name: "slot",
                fields: vec![Ty::I64, Ty::I64, Ty::ptr(SLOT), Ty::ptr(SLOT)],
            },
            StructDef { name: "root", fields: vec![Ty::I64, Ty::ptr(SLOT)] },
            StructDef {
                name: "st",
                fields: vec![Ty::I64, Ty::I64, Ty::I64, Ty::ptr(SLOT), Ty::ptr(SLOT)],
            },
        ],
        funcs: vec![hinit_fn(), salloc_fn(), sfree_fn(), scan_fn(), main_fn],
        entry: MAIN,
    }
}

/// Physical memory needed: the arena plus the root table, with
/// worst-case per-slot rounding under fat/capability strategies.
#[must_use]
pub fn mem_needed(p: &OldenParams, strategy: &dyn PtrStrategy) -> usize {
    let ptr = strategy.ptr_size();
    let slot = (16 + 2 * ptr).div_ceil(32) * 32;
    let root = (8 + ptr).div_ceil(32) * 32;
    let heap = u64::from(p.alloc_slots.max(16)) * slot
        + u64::from(p.alloc_roots.max(1)) * root
        + (24 + 2 * ptr).div_ceil(32) * 32;
    usize::try_from(heap.div_ceil(1 << 20) + 8).expect("sane size") << 20
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cc::check::{check, Limits};
    use cheri_cc::strategy::LegacyPtr;

    #[test]
    fn module_checks() {
        let m = module(&OldenParams::scaled());
        check(&m, Limits { max_int: 6, max_ptr: 3 }).unwrap();
    }

    #[test]
    fn churn_balances_and_stays_live() {
        let p = OldenParams::scaled();
        let m = module(&p);
        let prog = cheri_cc::compile(&m, &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        let out = k.exec_and_run(&prog).unwrap();
        // prints: [allocs, frees, acc, live]
        let [allocs, frees, _acc, live] = out.prints[..] else {
            panic!("expected 4 prints, got {:?}", out.prints)
        };
        assert_eq!(allocs - frees, live, "allocation accounting must balance");
        assert!(allocs > frees, "churn must leave a live set");
        assert!(frees > 0, "churn must free (slot reuse is the point)");
        // Every chain is bounded, so the live set is too.
        assert!(live <= u64::from(p.alloc_roots) * CHAIN_CAP as u64);
        assert_eq!(out.exit_value(), Some(live));
    }

    #[test]
    fn slots_are_recycled() {
        // With the scaled arena and op count, frees must exceed the
        // arena size — i.e. slots get reused and generations climb,
        // which is the capability-invalidation traffic this workload
        // exists to produce.
        let p = OldenParams::scaled();
        let m = module(&p);
        let prog = cheri_cc::compile(&m, &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        let out = k.exec_and_run(&prog).unwrap();
        assert!(
            out.prints[1] > u64::from(p.alloc_slots),
            "frees ({}) must wrap the arena ({}) so slots are reused",
            out.prints[1],
            p.alloc_slots
        );
    }
}
