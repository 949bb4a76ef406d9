//! `perimeter`: quadtree image perimeter.
//!
//! A `2^levels × 2^levels` binary image of a disc is built as a quadtree
//! (uniform quadrants collapse to leaves), and the perimeter of the black
//! region is computed by divide and conquer: a node's perimeter is the
//! sum of its children's perimeters minus twice the black–black contact
//! along the four internal edges — computed by recursive edge matching,
//! the same neighbour-pairing workload as the Olden original.

use cheri_cc::ir::build::*;
use cheri_cc::ir::{CmpOp, FuncDef, Module, Stmt, StructDef, Ty};

const COLOR: usize = 0; // 0 white, 1 black, 2 grey
const NW: usize = 1;
const NE: usize = 2;
const SW: usize = 3;
const SE: usize = 4;

/// Builds the `perimeter` module for a `2^levels`-pixel-square image.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn module(levels: u32) -> Module {
    let qt = 0usize;
    let (classify, build, perim, contact, main) = (0usize, 1, 2, 3, 4);

    // classify(x, y, s, cx, cy, r2) -> 0 all-outside / 1 all-inside /
    // 2 mixed, for the square [x, x+s) x [y, y+s) against the disc.
    let classify_fn = FuncDef {
        name: "classify",
        params: 6,
        ret: Some(Ty::I64),
        // locals: x y s cx cy r2 | nx ny dx dy d2 t
        locals: vec![
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
        ],
        body: vec![
            // Single pixels are classified by their own corner distance
            // (never "mixed").
            Stmt::If {
                cond: cmp(CmpOp::Eq, l(2), c(1)),
                then: vec![
                    Stmt::Let(8, sub(l(0), l(3))),
                    Stmt::Let(9, sub(l(1), l(4))),
                    Stmt::Let(10, add(mul(l(8), l(8)), mul(l(9), l(9)))),
                    Stmt::Return(Some(cmp(CmpOp::Le, l(10), l(5)))),
                ],
                els: vec![],
            },
            // nearest point of the square to the centre: clamp.
            Stmt::Let(6, l(3)),
            Stmt::If {
                cond: cmp(CmpOp::Lt, l(6), l(0)),
                then: vec![Stmt::Let(6, l(0))],
                els: vec![],
            },
            Stmt::Let(11, add(l(0), l(2))),
            Stmt::If {
                cond: cmp(CmpOp::Gt, l(6), l(11)),
                then: vec![Stmt::Let(6, l(11))],
                els: vec![],
            },
            Stmt::Let(7, l(4)),
            Stmt::If {
                cond: cmp(CmpOp::Lt, l(7), l(1)),
                then: vec![Stmt::Let(7, l(1))],
                els: vec![],
            },
            Stmt::Let(11, add(l(1), l(2))),
            Stmt::If {
                cond: cmp(CmpOp::Gt, l(7), l(11)),
                then: vec![Stmt::Let(7, l(11))],
                els: vec![],
            },
            Stmt::Let(8, sub(l(6), l(3))),
            Stmt::Let(9, sub(l(7), l(4))),
            Stmt::Let(10, add(mul(l(8), l(8)), mul(l(9), l(9)))),
            Stmt::If {
                cond: cmp(CmpOp::Gt, l(10), l(5)),
                then: vec![Stmt::Return(Some(c(0)))], // entirely outside
                els: vec![],
            },
            // farthest corner: max(|x-cx|, |x+s-cx|), same for y.
            Stmt::Let(8, sub(l(0), l(3))),
            Stmt::If {
                cond: cmp(CmpOp::Lt, l(8), c(0)),
                then: vec![Stmt::Let(8, sub(c(0), l(8)))],
                els: vec![],
            },
            Stmt::Let(11, sub(add(l(0), l(2)), l(3))),
            Stmt::If {
                cond: cmp(CmpOp::Lt, l(11), c(0)),
                then: vec![Stmt::Let(11, sub(c(0), l(11)))],
                els: vec![],
            },
            Stmt::If {
                cond: cmp(CmpOp::Gt, l(11), l(8)),
                then: vec![Stmt::Let(8, l(11))],
                els: vec![],
            },
            Stmt::Let(9, sub(l(1), l(4))),
            Stmt::If {
                cond: cmp(CmpOp::Lt, l(9), c(0)),
                then: vec![Stmt::Let(9, sub(c(0), l(9)))],
                els: vec![],
            },
            Stmt::Let(11, sub(add(l(1), l(2)), l(4))),
            Stmt::If {
                cond: cmp(CmpOp::Lt, l(11), c(0)),
                then: vec![Stmt::Let(11, sub(c(0), l(11)))],
                els: vec![],
            },
            Stmt::If {
                cond: cmp(CmpOp::Gt, l(11), l(9)),
                then: vec![Stmt::Let(9, l(11))],
                els: vec![],
            },
            Stmt::Let(10, add(mul(l(8), l(8)), mul(l(9), l(9)))),
            Stmt::If {
                cond: cmp(CmpOp::Le, l(10), l(5)),
                then: vec![Stmt::Return(Some(c(1)))], // entirely inside
                els: vec![],
            },
            Stmt::Return(Some(c(2))),
        ],
    };

    // build(x, y, s, cx, cy, r2) -> quadtree node.
    let build_fn = FuncDef {
        name: "build",
        params: 6,
        ret: Some(Ty::ptr(qt)),
        // locals: x y s cx cy r2 | cls n tmp h
        locals: vec![
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::ptr(qt),
            Ty::ptr(qt),
            Ty::I64,
        ],
        body: vec![
            Stmt::Let(6, call(classify, vec![l(0), l(1), l(2), l(3), l(4), l(5)])),
            Stmt::Let(7, alloc(qt, c(1))),
            Stmt::Store { ptr: l(7), strukt: qt, field: COLOR, value: l(6) },
            Stmt::If {
                cond: cmp(CmpOp::Eq, l(6), c(2)),
                then: vec![
                    Stmt::Let(9, shr(l(2), c(1))),
                    Stmt::Let(8, call(build, vec![l(0), l(1), l(9), l(3), l(4), l(5)])),
                    Stmt::StorePtr { ptr: l(7), strukt: qt, field: NW, value: l(8) },
                    Stmt::Let(8, call(build, vec![add(l(0), l(9)), l(1), l(9), l(3), l(4), l(5)])),
                    Stmt::StorePtr { ptr: l(7), strukt: qt, field: NE, value: l(8) },
                    Stmt::Let(8, call(build, vec![l(0), add(l(1), l(9)), l(9), l(3), l(4), l(5)])),
                    Stmt::StorePtr { ptr: l(7), strukt: qt, field: SW, value: l(8) },
                    Stmt::Let(
                        8,
                        call(build, vec![add(l(0), l(9)), add(l(1), l(9)), l(9), l(3), l(4), l(5)]),
                    ),
                    Stmt::StorePtr { ptr: l(7), strukt: qt, field: SE, value: l(8) },
                ],
                els: vec![],
            },
            Stmt::Return(Some(l(7))),
        ],
    };

    // contact(a, b, s, dir): black-black border length between sibling
    // squares of size s; dir 0 = a left of b (vertical edge),
    // dir 1 = a above b (horizontal edge). A black leaf stands in for
    // both of its virtual children.
    let contact_fn = FuncDef {
        name: "contact",
        params: 4,
        ret: Some(Ty::I64),
        // locals: a b s dir | aa bb x h
        locals: vec![
            Ty::ptr(qt),
            Ty::ptr(qt),
            Ty::I64,
            Ty::I64,
            Ty::ptr(qt),
            Ty::ptr(qt),
            Ty::I64,
            Ty::I64,
        ],
        body: vec![
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(0), qt, COLOR), c(0)),
                then: vec![Stmt::Return(Some(c(0)))],
                els: vec![],
            },
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(1), qt, COLOR), c(0)),
                then: vec![Stmt::Return(Some(c(0)))],
                els: vec![],
            },
            Stmt::If {
                cond: band(
                    cmp(CmpOp::Eq, load(l(0), qt, COLOR), c(1)),
                    cmp(CmpOp::Eq, load(l(1), qt, COLOR), c(1)),
                ),
                then: vec![Stmt::Return(Some(l(2)))],
                els: vec![],
            },
            Stmt::Let(7, shr(l(2), c(1))),
            // First pair along the shared edge.
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(0), qt, COLOR), c(2)),
                then: vec![Stmt::If {
                    cond: cmp(CmpOp::Eq, l(3), c(0)),
                    then: vec![Stmt::Let(4, loadp(l(0), qt, NE))],
                    els: vec![Stmt::Let(4, loadp(l(0), qt, SW))],
                }],
                els: vec![Stmt::Let(4, l(0))],
            },
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(1), qt, COLOR), c(2)),
                then: vec![Stmt::If {
                    cond: cmp(CmpOp::Eq, l(3), c(0)),
                    then: vec![Stmt::Let(5, loadp(l(1), qt, NW))],
                    els: vec![Stmt::Let(5, loadp(l(1), qt, NW))],
                }],
                els: vec![Stmt::Let(5, l(1))],
            },
            Stmt::Let(6, call(contact, vec![l(4), l(5), l(7), l(3)])),
            // Second pair.
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(0), qt, COLOR), c(2)),
                then: vec![Stmt::If {
                    cond: cmp(CmpOp::Eq, l(3), c(0)),
                    then: vec![Stmt::Let(4, loadp(l(0), qt, SE))],
                    els: vec![Stmt::Let(4, loadp(l(0), qt, SE))],
                }],
                els: vec![Stmt::Let(4, l(0))],
            },
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(1), qt, COLOR), c(2)),
                then: vec![Stmt::If {
                    cond: cmp(CmpOp::Eq, l(3), c(0)),
                    then: vec![Stmt::Let(5, loadp(l(1), qt, SW))],
                    els: vec![Stmt::Let(5, loadp(l(1), qt, NE))],
                }],
                els: vec![Stmt::Let(5, l(1))],
            },
            Stmt::Let(7, call(contact, vec![l(4), l(5), shr(l(2), c(1)), l(3)])),
            Stmt::Return(Some(add(l(6), l(7)))),
        ],
    };

    // perim(p, s): perimeter of the black region under p.
    let perim_fn = FuncDef {
        name: "perim",
        params: 2,
        ret: Some(Ty::I64),
        // locals: p s | acc t h
        locals: vec![Ty::ptr(qt), Ty::I64, Ty::I64, Ty::I64, Ty::I64],
        body: vec![
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(0), qt, COLOR), c(0)),
                then: vec![Stmt::Return(Some(c(0)))],
                els: vec![],
            },
            Stmt::If {
                cond: cmp(CmpOp::Eq, load(l(0), qt, COLOR), c(1)),
                then: vec![Stmt::Return(Some(mul(c(4), l(1))))],
                els: vec![],
            },
            Stmt::Let(4, shr(l(1), c(1))),
            Stmt::Let(2, c(0)),
            Stmt::Let(3, call(perim, vec![loadp(l(0), qt, NW), l(4)])),
            Stmt::Let(2, add(l(2), l(3))),
            Stmt::Let(3, call(perim, vec![loadp(l(0), qt, NE), l(4)])),
            Stmt::Let(2, add(l(2), l(3))),
            Stmt::Let(3, call(perim, vec![loadp(l(0), qt, SW), l(4)])),
            Stmt::Let(2, add(l(2), l(3))),
            Stmt::Let(3, call(perim, vec![loadp(l(0), qt, SE), l(4)])),
            Stmt::Let(2, add(l(2), l(3))),
            // Subtract the internal black-black contacts twice.
            Stmt::Let(3, call(contact, vec![loadp(l(0), qt, NW), loadp(l(0), qt, NE), l(4), c(0)])),
            Stmt::Let(2, sub(l(2), mul(c(2), l(3)))),
            Stmt::Let(3, call(contact, vec![loadp(l(0), qt, SW), loadp(l(0), qt, SE), l(4), c(0)])),
            Stmt::Let(2, sub(l(2), mul(c(2), l(3)))),
            Stmt::Let(3, call(contact, vec![loadp(l(0), qt, NW), loadp(l(0), qt, SW), l(4), c(1)])),
            Stmt::Let(2, sub(l(2), mul(c(2), l(3)))),
            Stmt::Let(3, call(contact, vec![loadp(l(0), qt, NE), loadp(l(0), qt, SE), l(4), c(1)])),
            Stmt::Let(2, sub(l(2), mul(c(2), l(3)))),
            Stmt::Return(Some(l(2))),
        ],
    };

    let size = 1i64 << levels;
    let centre = size / 2;
    let radius = size * 3 / 8;
    let main_fn = FuncDef {
        name: "main",
        params: 0,
        ret: Some(Ty::I64),
        locals: vec![Ty::ptr(qt), Ty::I64],
        body: vec![
            Stmt::Phase(1),
            Stmt::Let(
                0,
                call(build, vec![c(0), c(0), c(size), c(centre), c(centre), c(radius * radius)]),
            ),
            Stmt::Phase(2),
            Stmt::Let(1, call(perim, vec![l(0), c(size)])),
            Stmt::Phase(3),
            Stmt::Print(l(1)),
            Stmt::Return(Some(l(1))),
        ],
    };

    Module {
        structs: vec![StructDef {
            name: "qt",
            fields: vec![Ty::I64, Ty::ptr(qt), Ty::ptr(qt), Ty::ptr(qt), Ty::ptr(qt)],
        }],
        funcs: vec![classify_fn, build_fn, perim_fn, contact_fn, main_fn],
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
        validate(&module(5), Limits { max_int: 6, max_ptr: 3 }).unwrap();
    }

    fn run(levels: u32) -> u64 {
        let prog = cheri_cc::compile(&module(levels), &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        k.exec_and_run(&prog).unwrap().exit_value().expect("clean exit")
    }

    /// Brute-force perimeter of the same disc for cross-checking.
    fn brute(levels: u32) -> u64 {
        let size = 1i64 << levels;
        let (cx, cy) = (size / 2, size / 2);
        let r2 = (size * 3 / 8) * (size * 3 / 8);
        let inside = |x: i64, y: i64| {
            if x < 0 || y < 0 || x >= size || y >= size {
                return false;
            }
            // Matches classify() on a 1x1 cell: the pixel's own corner
            // distance decides membership.
            (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r2
        };
        let mut p = 0u64;
        for x in 0..size {
            for y in 0..size {
                if inside(x, y) {
                    for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                        if !inside(x + dx, y + dy) {
                            p += 1;
                        }
                    }
                }
            }
        }
        p
    }

    #[test]
    fn perimeter_matches_brute_force() {
        for levels in [3u32, 4, 5] {
            assert_eq!(run(levels), brute(levels), "levels={levels}");
        }
    }
}
