//! Native (host-speed) twins of the `cheri-work` workloads against the
//! [`TracedHeap`], plus [`WORKLOADS`], the one list of native kernels:
//! the nine the Figure 3 limit study consumes (the seven Olden-suite
//! natives from `cheri_olden::native` and the two runtime-system
//! workloads here).
//!
//! Each twin mirrors its IR sibling operation-for-operation — same
//! mixer constants, same decision logic, same wrapping arithmetic — so
//! the checksums the DSL binaries print must equal what the native
//! twin computes; the registry tests of `cheri-sweep`
//! (`tests/workloads.rs`) assert exactly that for all six workloads.
//! The `allocstress` twin performs a real `malloc`/`free` per churn op
//! (the limit models see genuine reuse traffic), with a host-side
//! free-list of slot ids standing in for the guest's in-arena list.

use std::collections::HashMap;

use cheri_limit::{TPtr, TracedHeap};
use cheri_olden::native::NativeRun;
use cheri_olden::OldenParams;

use crate::allocstress::{CHAIN_CAP, SCAN_EVERY};
use crate::vmloop::{
    mix, ADD, CODE_MAX, DUP, HLOAD, HSTORE, JMP, JZ, LOAD, LT, MUL, NLOCALS, NPOOL, PUSHC,
    STACK_MAX, STORE, SUB,
};

/// Every native workload — the Olden seven plus the runtime-system
/// pair — in limit-study order.
pub const WORKLOADS: [(&str, cheri_olden::native::Workload); 9] = [
    ("treeadd", cheri_olden::native::treeadd),
    ("bisort", cheri_olden::native::bisort),
    ("perimeter", cheri_olden::native::perimeter),
    ("mst", cheri_olden::native::mst),
    ("em3d", cheri_olden::native::em3d),
    ("health", cheri_olden::native::health),
    ("power", cheri_olden::native::power),
    ("vmloop", vmloop),
    ("allocstress", allocstress),
];

// --- vmloop -------------------------------------------------------------

/// `vm` object layout (matches the IR struct field order at 8-byte
/// slots): `pc@0, sp@8, steps@16`, then the five pointers.
const VPC: u64 = 0;
const VSP: u64 = 8;
const VSTEPS: u64 = 16;
const VCODE: u64 = 24;
const VSTACK: u64 = 32;
const VLOCALS: u64 = 40;
const VPOOL: u64 = 48;
const VHEAP: u64 = 56;

fn vm_reseed(h: &mut TracedHeap, heap: TPtr, count: i64, salt: i64, mask: i64) {
    for j in 0..count {
        h.compute(4);
        h.store_int(heap, j as u64 * 8, mix(salt + j, mask));
    }
}

#[allow(clippy::cast_sign_loss)]
fn vm_interp(h: &mut TracedHeap, vm: TPtr) -> i64 {
    let code = h.load_ptr(vm, VCODE);
    let stack = h.load_ptr(vm, VSTACK);
    let locs = h.load_ptr(vm, VLOCALS);
    let pool = h.load_ptr(vm, VPOOL);
    let heap = h.load_ptr(vm, VHEAP);
    let mut pc = h.load_int(vm, VPC);
    let mut sp = h.load_int(vm, VSP);
    let mut steps = 0i64;
    let mut running = true;
    while running {
        let op = h.load_int(code, pc as u64 * 16);
        let arg = h.load_int(code, pc as u64 * 16 + 8);
        pc += 1;
        steps += 1;
        h.compute(2);
        match op {
            PUSHC => {
                let v = h.load_int(pool, arg as u64 * 8);
                h.store_int(stack, sp as u64 * 8, v);
                sp += 1;
            }
            LOAD => {
                let v = h.load_int(locs, arg as u64 * 8);
                h.store_int(stack, sp as u64 * 8, v);
                sp += 1;
            }
            STORE => {
                sp -= 1;
                let v = h.load_int(stack, sp as u64 * 8);
                h.store_int(locs, arg as u64 * 8, v);
            }
            ADD | SUB | MUL | LT => {
                sp -= 1;
                let b = h.load_int(stack, sp as u64 * 8);
                let a = h.load_int(stack, (sp - 1) as u64 * 8);
                let r = match op {
                    ADD => a.wrapping_add(b),
                    SUB => a.wrapping_sub(b),
                    MUL => a.wrapping_mul(b),
                    _ => i64::from(a < b),
                };
                h.store_int(stack, (sp - 1) as u64 * 8, r);
            }
            JMP => pc = arg,
            JZ => {
                sp -= 1;
                if h.load_int(stack, sp as u64 * 8) == 0 {
                    pc = arg;
                }
            }
            DUP => {
                let v = h.load_int(stack, (sp - 1) as u64 * 8);
                h.store_int(stack, sp as u64 * 8, v);
                sp += 1;
            }
            HLOAD => {
                let a = h.load_int(stack, (sp - 1) as u64 * 8);
                let v = h.load_int(heap, a as u64 * 8);
                h.store_int(stack, (sp - 1) as u64 * 8, v);
            }
            HSTORE => {
                sp -= 1;
                let a = h.load_int(stack, sp as u64 * 8);
                sp -= 1;
                let v = h.load_int(stack, sp as u64 * 8);
                h.store_int(heap, a as u64 * 8, v);
            }
            // HALT and (unreachable) unknown opcodes.
            _ => running = false,
        }
    }
    h.store_int(vm, VPC, pc);
    h.store_int(vm, VSP, sp);
    let s = h.load_int(vm, VSTEPS);
    h.store_int(vm, VSTEPS, s + steps);
    if sp > 0 {
        h.load_int(stack, (sp - 1) as u64 * 8)
    } else {
        0
    }
}

/// The native run plus the four values the DSL binary prints:
/// `[acc_fib, acc_sort, acc_hash, steps]`.
#[must_use]
pub fn vmloop_full(p: &OldenParams) -> (NativeRun, [u64; 4]) {
    let progs = crate::vmloop::programs(p);
    let cells = u64::from(crate::vmloop::heap_cells(p));
    let sort_m = i64::from(p.vm_sort.max(2));
    let hash_k = i64::from(p.vm_hash.max(1));
    let mut h = TracedHeap::new();
    let vm = h.alloc(64);
    let code = h.alloc(u64::from(CODE_MAX) * 16);
    let stack = h.alloc(u64::from(STACK_MAX) * 8);
    let locs = h.alloc(u64::from(NLOCALS) * 8);
    let pool = h.alloc(u64::from(NPOOL) * 8);
    let heap = h.alloc(cells * 8);
    h.store_ptr(vm, VCODE, code);
    h.store_ptr(vm, VSTACK, stack);
    h.store_ptr(vm, VLOCALS, locs);
    h.store_ptr(vm, VPOOL, pool);
    h.store_ptr(vm, VHEAP, heap);
    h.store_int(vm, VSTEPS, 0);
    let mut accs = [0i64; 3];
    for iter in 0..i64::from(p.vm_iters.max(1)) {
        for (pi, prog) in progs.iter().enumerate() {
            for (i, &(op, arg)) in prog.code.iter().enumerate() {
                h.store_int(code, i as u64 * 16, op);
                h.store_int(code, i as u64 * 16 + 8, arg);
            }
            for (i, &v) in prog.pool.iter().enumerate() {
                h.store_int(pool, i as u64 * 8, v);
            }
            match pi {
                1 => vm_reseed(&mut h, heap, sort_m, iter.wrapping_mul(977) + 13, 0xffff),
                2 => vm_reseed(&mut h, heap, hash_k, iter.wrapping_mul(353) + 7, 0x7f),
                _ => {}
            }
            h.store_int(vm, VPC, 0);
            h.store_int(vm, VSP, 0);
            let r = vm_interp(&mut h, vm);
            accs[pi] = accs[pi].wrapping_mul(33).wrapping_add(r);
        }
    }
    let steps = h.load_int(vm, VSTEPS);
    let prints = [accs[0] as u64, accs[1] as u64, accs[2] as u64, steps as u64];
    (NativeRun { trace: h.finish("vmloop"), checksum: steps as u64 }, prints)
}

/// `vmloop`: the guest bytecode VM, natively interpreted against the
/// traced heap.
#[must_use]
pub fn vmloop(p: &OldenParams) -> NativeRun {
    vmloop_full(p).0
}

// --- allocstress --------------------------------------------------------

/// `slot` object layout: `gen@0, val@8, a@16 (unused natively), b@24`.
const SGEN: u64 = 0;
const SVAL: u64 = 8;
const SB: u64 = 24;

/// The native run plus the four values the DSL binary prints:
/// `[allocs, frees, acc, live]`.
///
/// # Panics
///
/// Panics if the arena invariant (`alloc_slots > alloc_roots *
/// CHAIN_CAP`) is violated and the free list runs dry.
#[must_use]
#[allow(clippy::cast_sign_loss, clippy::missing_panics_doc)]
pub fn allocstress_full(p: &OldenParams) -> (NativeRun, [u64; 4]) {
    let slots = p.alloc_slots.max(16) as usize;
    let nroots = i64::from(p.alloc_roots.max(1));
    let ops = i64::from(p.alloc_ops);
    let mut h = TracedHeap::new();
    // Root table: root r at offset r*16 { n@+0, p@+8 }.
    let roots = h.alloc(nroots as u64 * 16);
    // The guest's in-arena free list, mirrored host-side: same LIFO
    // discipline, same initial order (slot slots-1 pops first), and a
    // per-slot generation counter surviving reuse.
    let mut free: Vec<usize> = (0..slots).collect();
    let mut gens: Vec<i64> = vec![0; slots];
    let mut ids: HashMap<TPtr, usize> = HashMap::new();
    let (mut allocs, mut frees, mut live) = (0i64, 0i64, 0i64);
    let mut acc = 0i64;
    for t in 0..ops {
        let m = mix(t, 0xffff);
        let r = (m % nroots) as u64;
        let n = h.load_int(roots, r * 16);
        let d = (m >> 8) & 3;
        h.compute(8);
        if n == 0 || (n < CHAIN_CAP && d != 3) {
            // Push: the guest's salloc pops the free-list head and
            // bumps the slot generation; natively that is a fresh
            // malloc carrying the recycled slot's generation.
            let id = free.pop().expect("arena exhausted");
            gens[id] += 1;
            let s = h.alloc(32);
            ids.insert(s, id);
            h.store_int(s, SGEN, gens[id]);
            h.store_int(s, SVAL, (m ^ t) & 0x7fff);
            let head = h.load_ptr(roots, r * 16 + 8);
            h.store_ptr(s, SB, head);
            h.store_ptr(roots, r * 16 + 8, s);
            h.store_int(roots, r * 16, n + 1);
            allocs += 1;
            live += 1;
        } else {
            let s = h.load_ptr(roots, r * 16 + 8);
            let next = h.load_ptr(s, SB);
            h.store_ptr(roots, r * 16 + 8, next);
            let id = ids.remove(&s).expect("pop of untracked object");
            h.free(s);
            free.push(id);
            h.store_int(roots, r * 16, n - 1);
            frees += 1;
            live -= 1;
        }
        if t & (SCAN_EVERY - 1) == 0 {
            let mut rsum = 0i64;
            for i in 0..nroots as u64 {
                let mut s = h.load_ptr(roots, i * 16 + 8);
                let mut sum = 0i64;
                while !s.is_null() {
                    h.compute(3);
                    let node =
                        h.load_int(s, SGEN).wrapping_mul(3).wrapping_add(h.load_int(s, SVAL));
                    sum = sum.wrapping_add(node);
                    s = h.load_ptr(s, SB);
                }
                rsum = rsum.wrapping_mul(31).wrapping_add(sum);
            }
            acc = acc.wrapping_mul(31).wrapping_add(rsum);
        }
    }
    let prints = [allocs as u64, frees as u64, acc as u64, live as u64];
    (NativeRun { trace: h.finish("allocstress"), checksum: acc as u64 }, prints)
}

/// `allocstress`: free-list churn with real per-op `malloc`/`free`.
#[must_use]
pub fn allocstress(p: &OldenParams) -> NativeRun {
    allocstress_full(p).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_limit::Event;

    #[test]
    fn combined_set_produces_nonempty_traces() {
        let p = OldenParams::scaled();
        for (name, f) in WORKLOADS {
            let run = f(&p);
            assert!(run.trace.accesses() > 100, "{name} trace too small");
            assert!(!run.trace.objects.is_empty(), "{name} allocated nothing");
            assert_eq!(run.trace.name, name);
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let p = OldenParams::scaled();
        for (name, f) in WORKLOADS {
            let a = f(&p);
            let b = f(&p);
            assert_eq!(a.checksum, b.checksum, "{name} not deterministic");
            assert_eq!(a.trace.events.len(), b.trace.events.len(), "{name}");
        }
    }

    #[test]
    fn allocstress_trace_reuses_memory() {
        let p = OldenParams::scaled();
        let run = allocstress(&p);
        let frees = run.trace.events.iter().filter(|e| matches!(e, Event::Free { .. })).count();
        assert!(
            frees > p.alloc_slots as usize,
            "allocstress must free more objects ({frees}) than the arena has slots"
        );
    }
}
