//! Native (host-speed) Olden workload implementations against the
//! [`TracedHeap`], producing the pointer-event traces the Figure 3 limit
//! study consumes.
//!
//! "The benchmarks use a range of data structures, memory footprints,
//! and workloads to exercise various pointer access patterns and
//! densities" — beyond the four FPGA benchmarks, this module also
//! provides `em3d` (irregular bipartite dependence graph), `health`
//! (hierarchical linked lists), and `power` (deep multiway tree),
//! rounding out the suite.
//!
//! Every workload returns its trace plus a checksum, and each algorithm
//! mirrors its `dsl` twin where one exists (same structures, same
//! constants), so the two methodologies stay comparable; the registry
//! tests of `cheri-sweep` (`tests/workloads.rs`) assert the checksums
//! agree. `cheri_work::native::WORKLOADS` is the list of these
//! functions.

use cheri_limit::{TPtr, Trace, TracedHeap};

use crate::params::OldenParams;

/// A completed native run.
#[derive(Debug)]
pub struct NativeRun {
    /// The recorded trace.
    pub trace: Trace,
    /// The workload's checksum (sorted-sum, MST cost, perimeter, ...).
    pub checksum: u64,
}

/// A native workload entry point.
pub type Workload = fn(&OldenParams) -> NativeRun;

fn scramble(x: i64) -> i64 {
    let mut t = (x.wrapping_add(0x9e37_79b9)).wrapping_mul(0x9E3779B97F4A7C15u64 as i64);
    t ^= ((t as u64) >> 29) as i64;
    t = t.wrapping_mul(0xBF58_476D);
    t ^= ((t as u64) >> 17) as i64;
    t & 0xf_ffff
}

// --- treeadd ----------------------------------------------------------

const VAL: u64 = 0;
const LEFT: u64 = 8;
const RIGHT: u64 = 16;

fn tree_build(h: &mut TracedHeap, depth: u32) -> TPtr {
    let n = h.alloc(24);
    h.store_int(n, VAL, 1);
    h.compute(4);
    if depth > 1 {
        let l = tree_build(h, depth - 1);
        h.store_ptr(n, LEFT, l);
        let r = tree_build(h, depth - 1);
        h.store_ptr(n, RIGHT, r);
    }
    n
}

fn tree_sum(h: &mut TracedHeap, p: TPtr) -> i64 {
    if p.is_null() {
        return 0;
    }
    h.compute(4);
    let v = h.load_int(p, VAL);
    let l = h.load_ptr(p, LEFT);
    let r = h.load_ptr(p, RIGHT);
    v + tree_sum(h, l) + tree_sum(h, r)
}

/// `treeadd`: build a binary tree, sum it.
#[must_use]
pub fn treeadd(p: &OldenParams) -> NativeRun {
    let mut h = TracedHeap::new();
    let root = tree_build(&mut h, p.treeadd_depth.min(22));
    let sum = tree_sum(&mut h, root);
    NativeRun { trace: h.finish("treeadd"), checksum: sum as u64 }
}

// --- bisort -----------------------------------------------------------

fn bisort_build(h: &mut TracedHeap, depth: u32, idx: i64) -> TPtr {
    let n = h.alloc(24);
    h.compute(4);
    if depth == 0 {
        h.store_int(n, VAL, scramble(idx));
    } else {
        let l = bisort_build(h, depth - 1, idx * 2);
        h.store_ptr(n, LEFT, l);
        let r = bisort_build(h, depth - 1, idx * 2 + 1);
        h.store_ptr(n, RIGHT, r);
    }
    n
}

fn bisort_cmpswap(h: &mut TracedHeap, a: TPtr, b: TPtr, dir: i64) {
    h.compute(3);
    let al = h.load_ptr(a, LEFT);
    if al.is_null() {
        let va = h.load_int(a, VAL);
        let vb = h.load_int(b, VAL);
        if (i64::from(va > vb) ^ dir) != 0 {
            h.store_int(a, VAL, vb);
            h.store_int(b, VAL, va);
        }
    } else {
        let bl = h.load_ptr(b, LEFT);
        let ar = h.load_ptr(a, RIGHT);
        let br = h.load_ptr(b, RIGHT);
        bisort_cmpswap(h, al, bl, dir);
        bisort_cmpswap(h, ar, br, dir);
    }
}

fn bisort_bimerge(h: &mut TracedHeap, p: TPtr, dir: i64) {
    h.compute(2);
    let l = h.load_ptr(p, LEFT);
    if l.is_null() {
        return;
    }
    let r = h.load_ptr(p, RIGHT);
    bisort_cmpswap(h, l, r, dir);
    bisort_bimerge(h, l, dir);
    bisort_bimerge(h, r, dir);
}

fn bisort_sort(h: &mut TracedHeap, p: TPtr, dir: i64) {
    h.compute(2);
    let l = h.load_ptr(p, LEFT);
    if l.is_null() {
        return;
    }
    let r = h.load_ptr(p, RIGHT);
    bisort_sort(h, l, dir);
    bisort_sort(h, r, 1 - dir);
    bisort_bimerge(h, p, dir);
}

fn bisort_leaves(h: &mut TracedHeap, p: TPtr, out: &mut Vec<i64>) {
    let l = h.load_ptr(p, LEFT);
    if l.is_null() {
        out.push(h.load_int(p, VAL));
        return;
    }
    let r = h.load_ptr(p, RIGHT);
    bisort_leaves(h, l, out);
    bisort_leaves(h, r, out);
}

/// `bisort`: bitonic sort over a perfect tree of `2^bisort_log2` leaves.
///
/// # Panics
///
/// Panics if the sort produced an unsorted leaf sequence (an algorithm
/// bug, not a data condition).
#[must_use]
pub fn bisort(p: &OldenParams) -> NativeRun {
    let mut h = TracedHeap::new();
    let depth = p.bisort_log2.min(18);
    let root = bisort_build(&mut h, depth, 0);
    bisort_sort(&mut h, root, 0);
    let mut leaves = Vec::new();
    bisort_leaves(&mut h, root, &mut leaves);
    assert!(leaves.windows(2).all(|w| w[0] <= w[1]), "bisort failed to sort");
    let checksum: i64 = leaves.iter().sum();
    NativeRun { trace: h.finish("bisort"), checksum: checksum as u64 }
}

// --- perimeter ---------------------------------------------------------

const COLOR: u64 = 0;
const QNW: u64 = 8;
const QNE: u64 = 16;
const QSW: u64 = 24;
const QSE: u64 = 32;

struct Disc {
    cx: i64,
    cy: i64,
    r2: i64,
}

fn classify(d: &Disc, x: i64, y: i64, s: i64) -> i64 {
    if s == 1 {
        let (dx, dy) = (x - d.cx, y - d.cy);
        return i64::from(dx * dx + dy * dy <= d.r2);
    }
    let nx = d.cx.clamp(x, x + s);
    let ny = d.cy.clamp(y, y + s);
    let (dx, dy) = (nx - d.cx, ny - d.cy);
    if dx * dx + dy * dy > d.r2 {
        return 0;
    }
    let fx = (x - d.cx).abs().max((x + s - d.cx).abs());
    let fy = (y - d.cy).abs().max((y + s - d.cy).abs());
    if fx * fx + fy * fy <= d.r2 {
        return 1;
    }
    2
}

fn qt_build(h: &mut TracedHeap, d: &Disc, x: i64, y: i64, s: i64) -> TPtr {
    h.compute(20); // the classify arithmetic
    let cls = classify(d, x, y, s);
    let n = h.alloc(40);
    h.store_int(n, COLOR, cls);
    if cls == 2 {
        let half = s / 2;
        let nw = qt_build(h, d, x, y, half);
        h.store_ptr(n, QNW, nw);
        let ne = qt_build(h, d, x + half, y, half);
        h.store_ptr(n, QNE, ne);
        let sw = qt_build(h, d, x, y + half, half);
        h.store_ptr(n, QSW, sw);
        let se = qt_build(h, d, x + half, y + half, half);
        h.store_ptr(n, QSE, se);
    }
    n
}

fn qt_contact(h: &mut TracedHeap, a: TPtr, b: TPtr, s: i64, dir: i64) -> i64 {
    h.compute(6);
    let ca = h.load_int(a, COLOR);
    if ca == 0 {
        return 0;
    }
    let cb = h.load_int(b, COLOR);
    if cb == 0 {
        return 0;
    }
    if ca == 1 && cb == 1 {
        return s;
    }
    let half = s / 2;
    let (aa1, aa2) = if ca == 2 {
        if dir == 0 {
            (h.load_ptr(a, QNE), h.load_ptr(a, QSE))
        } else {
            (h.load_ptr(a, QSW), h.load_ptr(a, QSE))
        }
    } else {
        (a, a)
    };
    let (bb1, bb2) = if cb == 2 {
        if dir == 0 {
            (h.load_ptr(b, QNW), h.load_ptr(b, QSW))
        } else {
            (h.load_ptr(b, QNW), h.load_ptr(b, QNE))
        }
    } else {
        (b, b)
    };
    qt_contact(h, aa1, bb1, half, dir) + qt_contact(h, aa2, bb2, half, dir)
}

fn qt_perim(h: &mut TracedHeap, p: TPtr, s: i64) -> i64 {
    h.compute(8);
    let c = h.load_int(p, COLOR);
    if c == 0 {
        return 0;
    }
    if c == 1 {
        return 4 * s;
    }
    let half = s / 2;
    let nw = h.load_ptr(p, QNW);
    let ne = h.load_ptr(p, QNE);
    let sw = h.load_ptr(p, QSW);
    let se = h.load_ptr(p, QSE);
    let mut acc = qt_perim(h, nw, half)
        + qt_perim(h, ne, half)
        + qt_perim(h, sw, half)
        + qt_perim(h, se, half);
    acc -= 2 * qt_contact(h, nw, ne, half, 0);
    acc -= 2 * qt_contact(h, sw, se, half, 0);
    acc -= 2 * qt_contact(h, nw, sw, half, 1);
    acc -= 2 * qt_contact(h, ne, se, half, 1);
    acc
}

/// `perimeter`: quadtree perimeter of a disc image.
#[must_use]
pub fn perimeter(p: &OldenParams) -> NativeRun {
    let mut h = TracedHeap::new();
    let size = 1i64 << p.perimeter_levels.min(12);
    let d = Disc { cx: size / 2, cy: size / 2, r2: (size * 3 / 8) * (size * 3 / 8) };
    let root = qt_build(&mut h, &d, 0, 0, size);
    let perim = qt_perim(&mut h, root, size);
    NativeRun { trace: h.finish("perimeter"), checksum: perim as u64 }
}

// --- mst ----------------------------------------------------------------

/// `mst`: Prim's algorithm over hash-table adjacency (mirrors
/// `dsl::mst`).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn mst(p: &OldenParams) -> NativeRun {
    const MINDIST: u64 = 0;
    const INTREE: u64 = 8;
    const HASH: u64 = 16;
    const WEIGHT: u64 = 0;
    const NEIGH: u64 = 16;
    const NEXT: u64 = 24;
    const NB: u64 = 16;
    const INF: i64 = 1 << 40;

    let n = p.mst_vertices.min(1024) as i64;
    let deg = i64::from(p.mst_degree);
    let mut h = TracedHeap::new();

    // The mst-specific mixer — identical constants to dsl::mst, so the
    // two methodologies build the same graph.
    fn mst_scramble(x: i64) -> i64 {
        let mut t = x.wrapping_add(0x5851_F42D).wrapping_mul(0x5851F42D4C957F2Du64 as i64);
        t ^= ((t as u64) >> 33) as i64;
        t = t.wrapping_mul(0xD6E8_FEB8);
        (t ^ ((t as u64) >> 27) as i64) & 0x7fff_ffff
    }

    // vref array + vertices + hash tables.
    let varr = h.alloc(8 * n as u64);
    for i in 0..n {
        let v = h.alloc(24);
        let tab = h.alloc(8 * NB);
        h.store_int(v, MINDIST, INF);
        h.store_int(v, INTREE, 0);
        h.store_ptr(v, HASH, tab);
        h.store_ptr(varr, 8 * i as u64, v);
    }

    let weightof = |i: i64, j: i64| {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        mst_scramble(a * n + b).rem_euclid(1000) + 1
    };

    let insert = |h: &mut TracedHeap, v: TPtr, w: TPtr, wt: i64| {
        h.compute(8);
        let tab = h.load_ptr(v, HASH);
        let key = h.addr_of(w) as i64;
        let bucket_off = (((key >> 4) as u64) % NB) * 8;
        let e = h.alloc(32);
        h.store_int(e, WEIGHT, wt);
        h.store_int(e, 8, key);
        h.store_ptr(e, NEIGH, w);
        let head = h.load_ptr(tab, bucket_off);
        h.store_ptr(e, NEXT, head);
        h.store_ptr(tab, bucket_off, e);
    };

    let pair = |h: &mut TracedHeap, i: i64, j: i64| {
        let v = h.load_ptr(varr, 8 * i as u64);
        let w = h.load_ptr(varr, 8 * j as u64);
        let wt = weightof(i, j);
        insert(h, v, w, wt);
        insert(h, w, v, wt);
    };

    for i in 0..n - 1 {
        pair(&mut h, i, i + 1);
    }
    for i in 0..n {
        for k in 0..deg {
            let j = mst_scramble(i * deg + k + 7).rem_euclid(n);
            if j != i {
                pair(&mut h, i, j);
            }
        }
    }

    // Prim.
    let v0 = h.load_ptr(varr, 0);
    h.store_int(v0, MINDIST, 0);
    let mut cost = 0i64;
    for _ in 0..n {
        let mut best = INF + 1;
        let mut bv = TPtr::NULL;
        for i in 0..n {
            let v = h.load_ptr(varr, 8 * i as u64);
            h.compute(3);
            if h.load_int(v, INTREE) == 0 {
                let md = h.load_int(v, MINDIST);
                if md < best {
                    best = md;
                    bv = v;
                }
            }
        }
        h.store_int(bv, INTREE, 1);
        cost += best;
        let tab = h.load_ptr(bv, HASH);
        for b in 0..NB {
            let mut e = h.load_ptr(tab, b * 8);
            while !e.is_null() {
                h.compute(4);
                let nv = h.load_ptr(e, NEIGH);
                if h.load_int(nv, INTREE) == 0 {
                    let wt = h.load_int(e, WEIGHT);
                    if wt < h.load_int(nv, MINDIST) {
                        h.store_int(nv, MINDIST, wt);
                    }
                }
                e = h.load_ptr(e, NEXT);
            }
        }
    }
    NativeRun { trace: h.finish("mst"), checksum: cost as u64 }
}

// --- em3d ----------------------------------------------------------------

/// `em3d`: iterate values over an irregular bipartite dependence graph
/// (electromagnetic field solver structure). Node layout:
/// `{ value, deg, dep[0..deg] (ptr), coeff[0..deg] }`.
#[must_use]
pub fn em3d(p: &OldenParams) -> NativeRun {
    let n = p.em3d_nodes as i64;
    let deg = p.em3d_degree.max(1) as u64;
    let iters = p.em3d_iters;
    let node_size = 16 + 8 * deg + 8 * deg;
    let mut h = TracedHeap::new();

    let make_field = |h: &mut TracedHeap, salt: i64| -> Vec<TPtr> {
        (0..n)
            .map(|i| {
                let nd = h.alloc(node_size);
                h.store_int(nd, 0, scramble(i + salt) % 1000);
                h.store_int(nd, 8, deg as i64);
                nd
            })
            .collect()
    };
    let e_nodes = make_field(&mut h, 1);
    let h_nodes = make_field(&mut h, 2);

    let wire = |h: &mut TracedHeap, from: &[TPtr], to: &[TPtr], salt: i64| {
        for (i, nd) in from.iter().enumerate() {
            for k in 0..deg {
                let j = scramble(i as i64 * deg as i64 + k as i64 + salt).unsigned_abs() as usize
                    % to.len();
                h.store_ptr(*nd, 16 + 8 * k, to[j]);
                h.store_int(*nd, 16 + 8 * deg + 8 * k, scramble(salt + k as i64) % 7 + 1);
            }
        }
    };
    wire(&mut h, &e_nodes, &h_nodes, 11);
    wire(&mut h, &h_nodes, &e_nodes, 23);

    for _ in 0..iters {
        for field in [&e_nodes, &h_nodes] {
            for nd in field.iter() {
                let mut v = h.load_int(*nd, 0);
                for k in 0..deg {
                    let dep = h.load_ptr(*nd, 16 + 8 * k);
                    let coeff = h.load_int(*nd, 16 + 8 * deg + 8 * k);
                    let dv = h.load_int(dep, 0);
                    v -= (coeff * dv) >> 8;
                    h.compute(4);
                }
                h.store_int(*nd, 0, v & 0xffff_ffff);
            }
        }
    }
    let mut checksum = 0i64;
    for nd in e_nodes.iter().chain(&h_nodes) {
        checksum = checksum.wrapping_add(h.load_int(*nd, 0));
    }
    NativeRun { trace: h.finish("em3d"), checksum: checksum as u64 }
}

// --- health ----------------------------------------------------------------

/// `health`: a 4-ary hierarchy of villages, each with a waiting list of
/// patients; each step, patients join at the leaves and some are
/// referred up one level (linked-list splicing up a tree).
#[must_use]
pub fn health(p: &OldenParams) -> NativeRun {
    // village { list_head (ptr), level, child[4] (ptr) }
    const HEAD: u64 = 0;
    const LEVEL: u64 = 8;
    const CHILD0: u64 = 16;
    // patient { id, next (ptr) }
    const PID: u64 = 0;
    const PNEXT: u64 = 8;

    let mut h = TracedHeap::new();

    fn build_village(h: &mut TracedHeap, level: u32) -> TPtr {
        let v = h.alloc(48);
        h.store_int(v, LEVEL, i64::from(level));
        if level > 0 {
            for c in 0..4 {
                let ch = build_village(h, level - 1);
                h.store_ptr(v, CHILD0 + 8 * c, ch);
            }
        }
        v
    }

    let root = build_village(&mut h, p.health_levels.min(6));

    // Collect villages level by level (parents after children).
    let mut all = vec![root];
    let mut i = 0;
    while i < all.len() {
        let v = all[i];
        if h.load_int(v, LEVEL) > 0 {
            for c in 0..4 {
                let ch = h.load_ptr(v, CHILD0 + 8 * c);
                all.push(ch);
            }
        }
        i += 1;
    }

    let mut next_id = 1i64;
    let mut checksum = 0i64;
    for step in 0..p.health_steps {
        // New patients arrive at every leaf.
        for &v in &all {
            if h.load_int(v, LEVEL) == 0 {
                let pt = h.alloc(16);
                h.store_int(pt, PID, next_id);
                next_id += 1;
                let head = h.load_ptr(v, HEAD);
                h.store_ptr(pt, PNEXT, head);
                h.store_ptr(v, HEAD, pt);
            }
        }
        // Every village refers its list head up to its first child's
        // parent (i.e. pops migrate toward the root).
        for &v in all.iter().rev() {
            if h.load_int(v, LEVEL) > 0 {
                for c in 0..4 {
                    let ch = h.load_ptr(v, CHILD0 + 8 * c);
                    let pt = h.load_ptr(ch, HEAD);
                    if !pt.is_null() && (i64::from(step) + h.load_int(pt, PID)) % 3 == 0 {
                        let rest = h.load_ptr(pt, PNEXT);
                        h.store_ptr(ch, HEAD, rest);
                        let head = h.load_ptr(v, HEAD);
                        h.store_ptr(pt, PNEXT, head);
                        h.store_ptr(v, HEAD, pt);
                    }
                    h.compute(6);
                }
            }
        }
        // Root discharges one patient per step.
        let pt = h.load_ptr(root, HEAD);
        if !pt.is_null() {
            checksum = checksum.wrapping_add(h.load_int(pt, PID));
            let rest = h.load_ptr(pt, PNEXT);
            h.store_ptr(root, HEAD, rest);
            h.free(pt);
        }
    }
    NativeRun { trace: h.finish("health"), checksum: checksum as u64 }
}

// --- power ----------------------------------------------------------------

/// `power`: a fixed feeder/lateral/branch/leaf hierarchy; demand values
/// flow up, price signals flow down, twice.
#[must_use]
pub fn power(p: &OldenParams) -> NativeRun {
    // node { demand, price, child[4] (ptr) }
    const DEMAND: u64 = 0;
    const PRICE: u64 = 8;
    const CHILD0: u64 = 16;

    fn build(h: &mut TracedHeap, depth: u32, salt: i64) -> TPtr {
        let n = h.alloc(48);
        h.store_int(n, DEMAND, scramble(salt) % 100 + 1);
        if depth > 0 {
            for c in 0..4u64 {
                let ch = build(h, depth - 1, salt * 4 + c as i64 + 1);
                h.store_ptr(n, CHILD0 + 8 * c, ch);
            }
        }
        n
    }

    fn total_demand(h: &mut TracedHeap, n: TPtr, depth: u32) -> i64 {
        h.compute(3);
        let mut d = h.load_int(n, DEMAND);
        if depth > 0 {
            for c in 0..4 {
                let ch = h.load_ptr(n, CHILD0 + 8 * c);
                d += total_demand(h, ch, depth - 1);
            }
        }
        h.store_int(n, DEMAND, d);
        d
    }

    fn set_price(h: &mut TracedHeap, n: TPtr, depth: u32, price: i64) {
        h.compute(3);
        h.store_int(n, PRICE, price);
        if depth > 0 {
            for c in 0..4 {
                let ch = h.load_ptr(n, CHILD0 + 8 * c);
                let bump = h.load_int(n, DEMAND) % 7;
                set_price(h, ch, depth - 1, price + bump);
            }
        }
    }

    let mut h = TracedHeap::new();
    let depth = 4;
    let feeders: Vec<TPtr> =
        (0..p.power_feeders).map(|i| build(&mut h, depth, i64::from(i) + 1)).collect();
    let mut checksum = 0i64;
    for round in 0..2 {
        for f in &feeders {
            let d = total_demand(&mut h, *f, depth);
            set_price(&mut h, *f, depth, d % 1000 + round);
            checksum = checksum.wrapping_add(d);
        }
    }
    NativeRun { trace: h.finish("power"), checksum: checksum as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OldenParams {
        OldenParams::scaled()
    }

    #[test]
    fn treeadd_checksum_is_node_count() {
        let p = params();
        let run = treeadd(&p);
        assert_eq!(run.checksum, (1 << p.treeadd_depth) - 1);
    }

    #[test]
    fn mst_cost_within_bounds() {
        let p = params();
        let run = mst(&p);
        let n = u64::from(p.mst_vertices);
        assert!(run.checksum >= n - 1);
        assert!(run.checksum <= (n - 1) * 1000);
    }

    #[test]
    fn health_frees_objects() {
        let run = health(&params());
        let frees = run
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, cheri_limit::Event::Free { .. }))
            .count();
        assert!(frees > 0, "health must exercise free()");
    }
}
