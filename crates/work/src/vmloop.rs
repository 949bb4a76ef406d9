//! `vmloop`: a guest bytecode VM, authored in the `cheri-cc` IR.
//!
//! The workload the Olden kernels never model: an interpreter dispatch
//! loop whose every step loads an opcode through a code pointer,
//! adjusts a stack pointer, and reads/writes VM state (operand stack,
//! locals, constant pool, VM heap) held behind four separate pointers.
//! Under the capability strategies each of those is a distinct
//! capability, so dispatch stresses capability loads at a density no
//! tree traversal reaches — the access pattern the CHERI
//! bytecode-interpreter work identifies as the divergent case.
//!
//! The VM is a 13-opcode stack machine. Each run executes three fixed
//! programs (iterative fibonacci, bubble sort over the VM heap, and a
//! multiply-accumulate string hash) `vm_iters` times, re-loading the
//! bytecode and re-seeding the heap every iteration, and prints one
//! accumulator checksum per program plus the total step count.

use cheri_cc::ir::build::{
    add, alloc, band, bxor, c, call, cmp, index, l, load, loadp, mul, shr, sub,
};
use cheri_cc::ir::{CmpOp, FuncDef, Module, Stmt, StructDef, Ty};
use cheri_cc::strategy::PtrStrategy;
use cheri_olden::OldenParams;

// --- the bytecode ------------------------------------------------------

/// Stop; the value on top of the stack (if any) is the program result.
pub const HALT: i64 = 0;
/// Push `pool[arg]`.
pub const PUSHC: i64 = 1;
/// Push `locals[arg]`.
pub const LOAD: i64 = 2;
/// `locals[arg] = pop()`.
pub const STORE: i64 = 3;
/// `b = pop(); a = pop(); push(a + b)` (wrapping).
pub const ADD: i64 = 4;
/// `b = pop(); a = pop(); push(a - b)` (wrapping).
pub const SUB: i64 = 5;
/// `b = pop(); a = pop(); push(a * b)` (low 64 bits).
pub const MUL: i64 = 6;
/// `b = pop(); a = pop(); push(a < b)` (signed, 0/1).
pub const LT: i64 = 7;
/// `pc = arg`.
pub const JMP: i64 = 8;
/// `if pop() == 0 { pc = arg }`.
pub const JZ: i64 = 9;
/// Push a copy of the top of stack.
pub const DUP: i64 = 10;
/// `a = pop(); push(heap[a])`.
pub const HLOAD: i64 = 11;
/// `a = pop(); v = pop(); heap[a] = v` (operands pushed value-first).
pub const HSTORE: i64 = 12;

/// Code buffer capacity, in instructions (the largest program is the
/// bubble sort at well under half of this).
pub const CODE_MAX: u32 = 64;
/// Operand stack capacity, in cells.
pub const STACK_MAX: u32 = 64;
/// VM local-variable count.
pub const NLOCALS: u32 = 8;
/// Constant-pool capacity.
pub const NPOOL: u32 = 8;

/// An assembled guest program: `(opcode, argument)` pairs plus the
/// constant pool the loader installs alongside it.
pub struct BytecodeProgram {
    /// Diagnostic name.
    pub name: &'static str,
    /// Instructions in order; jump arguments are instruction indices.
    pub code: Vec<(i64, i64)>,
    /// Constant-pool values (`PUSHC` arguments index this).
    pub pool: Vec<i64>,
}

enum AsmArg {
    Imm(i64),
    Label(&'static str),
}

/// A label-resolving mini-assembler: emit ops forward, reference labels
/// in either direction, resolve at `finish`.
struct Asm {
    code: Vec<(i64, AsmArg)>,
    labels: std::collections::BTreeMap<&'static str, i64>,
}

impl Asm {
    fn new() -> Asm {
        Asm { code: Vec::new(), labels: std::collections::BTreeMap::new() }
    }

    fn op(&mut self, opcode: i64, arg: i64) {
        self.code.push((opcode, AsmArg::Imm(arg)));
    }

    fn jump(&mut self, opcode: i64, target: &'static str) {
        self.code.push((opcode, AsmArg::Label(target)));
    }

    fn label(&mut self, name: &'static str) {
        let here = self.code.len() as i64;
        assert!(self.labels.insert(name, here).is_none(), "duplicate label {name}");
    }

    fn finish(self, name: &'static str) -> BytecodeProgram {
        let code: Vec<(i64, i64)> = self
            .code
            .into_iter()
            .map(|(op, arg)| match arg {
                AsmArg::Imm(v) => (op, v),
                AsmArg::Label(t) => {
                    (op, *self.labels.get(t).unwrap_or_else(|| panic!("unknown label {t}")))
                }
            })
            .collect();
        assert!(code.len() <= CODE_MAX as usize, "{name}: program too long ({})", code.len());
        BytecodeProgram { name, code, pool: Vec::new() }
    }
}

/// Iterative fibonacci: `fib(n)` via two rolling locals.
/// Pool: `[0, 1, n]`.
#[must_use]
pub fn fib_program(n: u32) -> BytecodeProgram {
    let mut a = Asm::new();
    a.op(PUSHC, 0); // a = 0
    a.op(STORE, 0);
    a.op(PUSHC, 1); // b = 1
    a.op(STORE, 1);
    a.op(PUSHC, 0); // i = 0
    a.op(STORE, 2);
    a.label("loop");
    a.op(LOAD, 2); // while i < n
    a.op(PUSHC, 2);
    a.op(LT, 0);
    a.jump(JZ, "end");
    a.op(LOAD, 0); // t = a + b
    a.op(LOAD, 1);
    a.op(ADD, 0);
    a.op(STORE, 3);
    a.op(LOAD, 1); // a = b
    a.op(STORE, 0);
    a.op(LOAD, 3); // b = t
    a.op(STORE, 1);
    a.op(LOAD, 2); // i += 1
    a.op(PUSHC, 1);
    a.op(ADD, 0);
    a.op(STORE, 2);
    a.jump(JMP, "loop");
    a.label("end");
    a.op(LOAD, 0); // result: a == fib(n)
    a.op(HALT, 0);
    let mut p = a.finish("fib");
    p.pool = vec![0, 1, i64::from(n)];
    p
}

/// Bubble sort over `heap[0..m]`, ascending, in place; the result mixes
/// the minimum, median, and maximum so any misplacement changes it.
/// Pool: `[0, 1, m, m - 1, m / 2]`.
#[must_use]
pub fn sort_program(m: u32) -> BytecodeProgram {
    let m = i64::from(m.max(2));
    let mut a = Asm::new();
    a.op(PUSHC, 0); // i = 0
    a.op(STORE, 0);
    a.label("outer");
    a.op(LOAD, 0); // while i < m - 1
    a.op(PUSHC, 3);
    a.op(LT, 0);
    a.jump(JZ, "done");
    a.op(PUSHC, 0); // j = 0
    a.op(STORE, 1);
    a.label("inner");
    a.op(LOAD, 1); // while j < (m - 1) - i
    a.op(PUSHC, 3);
    a.op(LOAD, 0);
    a.op(SUB, 0);
    a.op(LT, 0);
    a.jump(JZ, "iend");
    a.op(LOAD, 1); // x = heap[j]
    a.op(HLOAD, 0);
    a.op(STORE, 2);
    a.op(LOAD, 1); // y = heap[j + 1]
    a.op(PUSHC, 1);
    a.op(ADD, 0);
    a.op(HLOAD, 0);
    a.op(STORE, 3);
    a.op(LOAD, 3); // if y < x: swap
    a.op(LOAD, 2);
    a.op(LT, 0);
    a.jump(JZ, "noswap");
    a.op(LOAD, 3); // heap[j] = y
    a.op(LOAD, 1);
    a.op(HSTORE, 0);
    a.op(LOAD, 2); // heap[j + 1] = x
    a.op(LOAD, 1);
    a.op(PUSHC, 1);
    a.op(ADD, 0);
    a.op(HSTORE, 0);
    a.label("noswap");
    a.op(LOAD, 1); // j += 1
    a.op(PUSHC, 1);
    a.op(ADD, 0);
    a.op(STORE, 1);
    a.jump(JMP, "inner");
    a.label("iend");
    a.op(LOAD, 0); // i += 1
    a.op(PUSHC, 1);
    a.op(ADD, 0);
    a.op(STORE, 0);
    a.jump(JMP, "outer");
    a.label("done");
    a.op(PUSHC, 0); // heap[0] + heap[m/2] * heap[m-1]
    a.op(HLOAD, 0);
    a.op(PUSHC, 4);
    a.op(HLOAD, 0);
    a.op(PUSHC, 3);
    a.op(HLOAD, 0);
    a.op(MUL, 0);
    a.op(ADD, 0);
    a.op(HALT, 0);
    let mut p = a.finish("sort");
    p.pool = vec![0, 1, m, m - 1, m / 2];
    p
}

/// Multiply-accumulate hash of `heap[0..k]`: `h = h * 31 + heap[i]`.
/// Pool: `[0, 1, k, 31]`.
#[must_use]
pub fn hash_program(k: u32) -> BytecodeProgram {
    let k = i64::from(k.max(1));
    let mut a = Asm::new();
    a.op(PUSHC, 0); // i = 0
    a.op(STORE, 0);
    a.op(PUSHC, 0); // h = 0
    a.op(STORE, 1);
    a.label("loop");
    a.op(LOAD, 0); // while i < k
    a.op(PUSHC, 2);
    a.op(LT, 0);
    a.jump(JZ, "end");
    a.op(LOAD, 1); // h = h * 31 + heap[i]
    a.op(PUSHC, 3);
    a.op(MUL, 0);
    a.op(LOAD, 0);
    a.op(HLOAD, 0);
    a.op(ADD, 0);
    a.op(STORE, 1);
    a.op(LOAD, 0); // i += 1
    a.op(PUSHC, 1);
    a.op(ADD, 0);
    a.op(STORE, 0);
    a.jump(JMP, "loop");
    a.label("end");
    a.op(LOAD, 1);
    a.op(HALT, 0);
    let mut p = a.finish("hash");
    p.pool = vec![0, 1, k, 31];
    p
}

/// The three programs at the given problem size, in execution order.
#[must_use]
pub fn programs(p: &OldenParams) -> [BytecodeProgram; 3] {
    [fib_program(p.vm_fib), sort_program(p.vm_sort), hash_program(p.vm_hash)]
}

/// The heap-seeding mixer, shared verbatim (same constants, same
/// operation order) by the IR `reseed` function and the native twin.
#[must_use]
pub fn mix(i: i64, mask: i64) -> i64 {
    let mut t = i.wrapping_mul(2_654_435_761);
    t ^= ((t as u64) >> 13) as i64;
    t = t.wrapping_mul(97);
    t & mask
}

/// VM heap size in cells: enough for the largest heap-using program.
#[must_use]
pub fn heap_cells(p: &OldenParams) -> u32 {
    p.vm_sort.max(2).max(p.vm_hash.max(1))
}

// --- the IR module -----------------------------------------------------

/// Struct ids.
const CELL: usize = 0;
const OPS: usize = 1;
const VM: usize = 2;

/// `cell { v }`.
const V: usize = 0;
/// `op { code, arg }`.
const CODE: usize = 0;
const ARG: usize = 1;
/// `vm { pc, sp, steps, code*, stack*, locals*, pool*, heap* }`.
const PC: usize = 0;
const SP: usize = 1;
const STEPS: usize = 2;
const FCODE: usize = 3;
const FSTACK: usize = 4;
const FLOCALS: usize = 5;
const FPOOL: usize = 6;
const FHEAP: usize = 7;

/// Function ids.
const INTERP: usize = 0;
const RESEED: usize = 1;
const RESET: usize = 2;
const LOAD_FIB: usize = 3;
const LOAD_SORT: usize = 4;
const LOAD_HASH: usize = 5;
const MAIN: usize = 6;

/// Builds an `if op == k { ... } else if ...` dispatch ladder.
fn dispatch(scrutinee: usize, cases: Vec<(i64, Vec<Stmt>)>, fallback: Vec<Stmt>) -> Stmt {
    let mut els = fallback;
    for (opcode, body) in cases.into_iter().rev() {
        els = vec![Stmt::If { cond: cmp(CmpOp::Eq, l(scrutinee), c(opcode)), then: body, els }];
    }
    match els.into_iter().next() {
        Some(s) => s,
        None => unreachable!("dispatch with no cases"),
    }
}

/// A program loader: straight-line stores of the code image and
/// constant pool (its store traffic is part of the workload — real VMs
/// write their bytecode before running it). Params: `(code, pool)`.
fn loader_fn(name: &'static str, prog: &BytecodeProgram) -> FuncDef {
    assert!(prog.pool.len() <= NPOOL as usize, "{name}: pool too large");
    let mut body = Vec::new();
    for (i, &(op, arg)) in prog.code.iter().enumerate() {
        let at = i as i64;
        body.push(Stmt::Store {
            ptr: index(l(0), OPS, c(at)),
            strukt: OPS,
            field: CODE,
            value: c(op),
        });
        body.push(Stmt::Store {
            ptr: index(l(0), OPS, c(at)),
            strukt: OPS,
            field: ARG,
            value: c(arg),
        });
    }
    for (i, &v) in prog.pool.iter().enumerate() {
        body.push(Stmt::Store {
            ptr: index(l(1), CELL, c(i as i64)),
            strukt: CELL,
            field: V,
            value: c(v),
        });
    }
    FuncDef { name, params: 2, ret: None, locals: vec![Ty::ptr(OPS), Ty::ptr(CELL)], body }
}

/// The dispatch loop. Param: `(vm)`; returns the program result (top of
/// stack at `HALT`, or 0 on an empty stack) and accumulates the step
/// count into `vm.steps`.
#[allow(clippy::too_many_lines)]
fn interp_fn() -> FuncDef {
    // Locals: 0 vm, 1 code, 2 stack, 3 locals, 4 pool, 5 heap,
    // 6 pc, 7 sp, 8 steps, 9 running, 10 op, 11 arg, 12 a, 13 b,
    // 14 ip, 15 cp, 16 result.
    let locals = vec![
        Ty::ptr(VM),
        Ty::ptr(OPS),
        Ty::ptr(CELL),
        Ty::ptr(CELL),
        Ty::ptr(CELL),
        Ty::ptr(CELL),
        Ty::I64,
        Ty::I64,
        Ty::I64,
        Ty::I64,
        Ty::I64,
        Ty::I64,
        Ty::I64,
        Ty::I64,
        Ty::ptr(OPS),
        Ty::ptr(CELL),
        Ty::I64,
    ];

    // push(l(12)): stack[sp] = a; sp += 1.
    let push_a = |body: &mut Vec<Stmt>| {
        body.push(Stmt::Store {
            ptr: index(l(2), CELL, l(7)),
            strukt: CELL,
            field: V,
            value: l(12),
        });
        body.push(Stmt::Let(7, add(l(7), c(1))));
    };
    // l(12) = pop(): sp -= 1; a = stack[sp].
    let pop_a = |body: &mut Vec<Stmt>| {
        body.push(Stmt::Let(7, sub(l(7), c(1))));
        body.push(Stmt::Let(15, index(l(2), CELL, l(7))));
        body.push(Stmt::Let(12, load(l(15), CELL, V)));
    };

    // Binary ops: b = pop(); a = stack[sp-1]; stack[sp-1] = a ⊕ b.
    let binop = |result: cheri_cc::ir::Expr| -> Vec<Stmt> {
        vec![
            Stmt::Let(7, sub(l(7), c(1))),
            Stmt::Let(15, index(l(2), CELL, l(7))),
            Stmt::Let(13, load(l(15), CELL, V)),
            Stmt::Let(15, index(l(2), CELL, sub(l(7), c(1)))),
            Stmt::Let(12, load(l(15), CELL, V)),
            Stmt::Store { ptr: l(15), strukt: CELL, field: V, value: result },
        ]
    };

    let mut cases: Vec<(i64, Vec<Stmt>)> = Vec::new();
    cases.push((HALT, vec![Stmt::Let(9, c(0))]));
    {
        // PUSHC: push(pool[arg]).
        let mut b =
            vec![Stmt::Let(15, index(l(4), CELL, l(11))), Stmt::Let(12, load(l(15), CELL, V))];
        push_a(&mut b);
        cases.push((PUSHC, b));
    }
    {
        // LOAD: push(locals[arg]).
        let mut b =
            vec![Stmt::Let(15, index(l(3), CELL, l(11))), Stmt::Let(12, load(l(15), CELL, V))];
        push_a(&mut b);
        cases.push((LOAD, b));
    }
    {
        // STORE: locals[arg] = pop().
        let mut b = Vec::new();
        pop_a(&mut b);
        b.push(Stmt::Store { ptr: index(l(3), CELL, l(11)), strukt: CELL, field: V, value: l(12) });
        cases.push((STORE, b));
    }
    cases.push((ADD, binop(add(l(12), l(13)))));
    cases.push((SUB, binop(sub(l(12), l(13)))));
    cases.push((MUL, binop(mul(l(12), l(13)))));
    cases.push((LT, binop(cmp(CmpOp::Lt, l(12), l(13)))));
    cases.push((JMP, vec![Stmt::Let(6, l(11))]));
    {
        // JZ: if pop() == 0 { pc = arg }.
        let mut b = Vec::new();
        pop_a(&mut b);
        b.push(Stmt::If {
            cond: cmp(CmpOp::Eq, l(12), c(0)),
            then: vec![Stmt::Let(6, l(11))],
            els: vec![],
        });
        cases.push((JZ, b));
    }
    {
        // DUP: push(stack[sp-1]).
        let mut b = vec![
            Stmt::Let(15, index(l(2), CELL, sub(l(7), c(1)))),
            Stmt::Let(12, load(l(15), CELL, V)),
        ];
        push_a(&mut b);
        cases.push((DUP, b));
    }
    {
        // HLOAD: stack[sp-1] = heap[stack[sp-1]].
        let b = vec![
            Stmt::Let(15, index(l(2), CELL, sub(l(7), c(1)))),
            Stmt::Let(12, load(l(15), CELL, V)),
            Stmt::Let(15, index(l(5), CELL, l(12))),
            Stmt::Let(12, load(l(15), CELL, V)),
            Stmt::Let(15, index(l(2), CELL, sub(l(7), c(1)))),
            Stmt::Store { ptr: l(15), strukt: CELL, field: V, value: l(12) },
        ];
        cases.push((HLOAD, b));
    }
    {
        // HSTORE: a = pop() (address); b = pop() (value); heap[a] = b.
        let mut b = Vec::new();
        pop_a(&mut b);
        b.push(Stmt::Let(7, sub(l(7), c(1))));
        b.push(Stmt::Let(15, index(l(2), CELL, l(7))));
        b.push(Stmt::Let(13, load(l(15), CELL, V)));
        b.push(Stmt::Store { ptr: index(l(5), CELL, l(12)), strukt: CELL, field: V, value: l(13) });
        cases.push((HSTORE, b));
    }

    let mut loop_body = vec![
        Stmt::Let(14, index(l(1), OPS, l(6))),
        Stmt::Let(10, load(l(14), OPS, CODE)),
        Stmt::Let(11, load(l(14), OPS, ARG)),
        Stmt::Let(6, add(l(6), c(1))),
        Stmt::Let(8, add(l(8), c(1))),
    ];
    // Fallback: unknown opcode stops the VM (defensive; the assembler
    // cannot emit one).
    loop_body.push(dispatch(10, cases, vec![Stmt::Let(9, c(0))]));

    let body = vec![
        Stmt::Let(1, loadp(l(0), VM, FCODE)),
        Stmt::Let(2, loadp(l(0), VM, FSTACK)),
        Stmt::Let(3, loadp(l(0), VM, FLOCALS)),
        Stmt::Let(4, loadp(l(0), VM, FPOOL)),
        Stmt::Let(5, loadp(l(0), VM, FHEAP)),
        Stmt::Let(6, load(l(0), VM, PC)),
        Stmt::Let(7, load(l(0), VM, SP)),
        Stmt::Let(8, c(0)),
        Stmt::Let(9, c(1)),
        Stmt::While { cond: cmp(CmpOp::Ne, l(9), c(0)), body: loop_body },
        Stmt::Store { ptr: l(0), strukt: VM, field: PC, value: l(6) },
        Stmt::Store { ptr: l(0), strukt: VM, field: SP, value: l(7) },
        Stmt::Store {
            ptr: l(0),
            strukt: VM,
            field: STEPS,
            value: add(load(l(0), VM, STEPS), l(8)),
        },
        Stmt::If {
            cond: cmp(CmpOp::Gt, l(7), c(0)),
            then: vec![
                Stmt::Let(15, index(l(2), CELL, sub(l(7), c(1)))),
                Stmt::Let(16, load(l(15), CELL, V)),
            ],
            els: vec![Stmt::Let(16, c(0))],
        },
        Stmt::Return(Some(l(16))),
    ];

    FuncDef { name: "interp", params: 1, ret: Some(Ty::I64), locals, body }
}

/// `reseed(heap, count, salt, mask)`: `heap[i] = mix(salt + i) & mask`
/// — the IR transcription of [`mix`].
fn reseed_fn() -> FuncDef {
    // Locals: 0 heap, 1 count, 2 salt, 3 mask, 4 i, 5 t.
    let body = vec![
        Stmt::Let(4, c(0)),
        Stmt::While {
            cond: cmp(CmpOp::Lt, l(4), l(1)),
            body: vec![
                Stmt::Let(5, add(l(2), l(4))),
                Stmt::Let(5, mul(l(5), c(2_654_435_761))),
                Stmt::Let(5, bxor(l(5), shr(l(5), c(13)))),
                Stmt::Let(5, band(mul(l(5), c(97)), l(3))),
                Stmt::Store { ptr: index(l(0), CELL, l(4)), strukt: CELL, field: V, value: l(5) },
                Stmt::Let(4, add(l(4), c(1))),
            ],
        },
    ];
    FuncDef {
        name: "reseed",
        params: 4,
        ret: None,
        locals: vec![Ty::ptr(CELL), Ty::I64, Ty::I64, Ty::I64, Ty::I64, Ty::I64],
        body,
    }
}

/// `reset(vm)`: rewind `pc` and `sp` for the next program.
fn reset_fn() -> FuncDef {
    let body = vec![
        Stmt::Store { ptr: l(0), strukt: VM, field: PC, value: c(0) },
        Stmt::Store { ptr: l(0), strukt: VM, field: SP, value: c(0) },
    ];
    FuncDef { name: "reset", params: 1, ret: None, locals: vec![Ty::ptr(VM)], body }
}

/// Builds the `vmloop` module at the given problem size.
#[must_use]
pub fn module(p: &OldenParams) -> Module {
    let [fib, sort, hash] = programs(p);
    let iters = i64::from(p.vm_iters.max(1));
    let sort_m = i64::from(p.vm_sort.max(2));
    let hash_k = i64::from(p.vm_hash.max(1));
    let cells = i64::from(heap_cells(p));

    // Locals: 0 vm, 1 code, 2 stack, 3 locals, 4 pool, 5 heap,
    // 6 iter, 7 r, 8 acc_fib, 9 acc_sort, 10 acc_hash, 11 salt, 12 steps.
    let run_program = |loader: usize, acc: usize, reseed: Option<(i64, i64, i64, i64)>| {
        let mut s = vec![Stmt::Expr(call(loader, vec![l(1), l(4)]))];
        if let Some((count, smul, sadd, mask)) = reseed {
            s.push(Stmt::Let(11, add(mul(l(6), c(smul)), c(sadd))));
            s.push(Stmt::Expr(call(RESEED, vec![l(5), c(count), l(11), c(mask)])));
        }
        s.push(Stmt::Expr(call(RESET, vec![l(0)])));
        s.push(Stmt::Let(7, call(INTERP, vec![l(0)])));
        s.push(Stmt::Let(acc, add(mul(l(acc), c(33)), l(7))));
        s
    };

    let mut loop_body = Vec::new();
    loop_body.extend(run_program(LOAD_FIB, 8, None));
    loop_body.extend(run_program(LOAD_SORT, 9, Some((sort_m, 977, 13, 0xffff))));
    loop_body.extend(run_program(LOAD_HASH, 10, Some((hash_k, 353, 7, 0x7f))));
    loop_body.push(Stmt::Let(6, add(l(6), c(1))));

    let main_fn = FuncDef {
        name: "main",
        params: 0,
        ret: Some(Ty::I64),
        locals: vec![
            Ty::ptr(VM),
            Ty::ptr(OPS),
            Ty::ptr(CELL),
            Ty::ptr(CELL),
            Ty::ptr(CELL),
            Ty::ptr(CELL),
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
            Ty::I64,
        ],
        body: vec![
            Stmt::Phase(1),
            Stmt::Let(0, alloc(VM, c(1))),
            Stmt::Let(1, alloc(OPS, c(i64::from(CODE_MAX)))),
            Stmt::Let(2, alloc(CELL, c(i64::from(STACK_MAX)))),
            Stmt::Let(3, alloc(CELL, c(i64::from(NLOCALS)))),
            Stmt::Let(4, alloc(CELL, c(i64::from(NPOOL)))),
            Stmt::Let(5, alloc(CELL, c(cells))),
            Stmt::StorePtr { ptr: l(0), strukt: VM, field: FCODE, value: l(1) },
            Stmt::StorePtr { ptr: l(0), strukt: VM, field: FSTACK, value: l(2) },
            Stmt::StorePtr { ptr: l(0), strukt: VM, field: FLOCALS, value: l(3) },
            Stmt::StorePtr { ptr: l(0), strukt: VM, field: FPOOL, value: l(4) },
            Stmt::StorePtr { ptr: l(0), strukt: VM, field: FHEAP, value: l(5) },
            Stmt::Store { ptr: l(0), strukt: VM, field: STEPS, value: c(0) },
            Stmt::Phase(2),
            Stmt::Let(6, c(0)),
            Stmt::Let(8, c(0)),
            Stmt::Let(9, c(0)),
            Stmt::Let(10, c(0)),
            Stmt::While { cond: cmp(CmpOp::Lt, l(6), c(iters)), body: loop_body },
            Stmt::Phase(3),
            Stmt::Print(l(8)),
            Stmt::Print(l(9)),
            Stmt::Print(l(10)),
            Stmt::Let(12, load(l(0), VM, STEPS)),
            Stmt::Print(l(12)),
            Stmt::Return(Some(l(12))),
        ],
    };

    let funcs = vec![
        interp_fn(),
        reseed_fn(),
        reset_fn(),
        loader_fn("load_fib", &fib),
        loader_fn("load_sort", &sort),
        loader_fn("load_hash", &hash),
        main_fn,
    ];
    Module {
        structs: vec![
            StructDef { name: "cell", fields: vec![Ty::I64] },
            StructDef { name: "op", fields: vec![Ty::I64, Ty::I64] },
            StructDef {
                name: "vm",
                fields: vec![
                    Ty::I64,
                    Ty::I64,
                    Ty::I64,
                    Ty::ptr(OPS),
                    Ty::ptr(CELL),
                    Ty::ptr(CELL),
                    Ty::ptr(CELL),
                    Ty::ptr(CELL),
                ],
            },
        ],
        funcs,
        entry: MAIN,
    }
}

/// Heap bytes: the six fixed allocations, with worst-case per-slot
/// rounding under fat/capability strategies.
#[must_use]
pub fn heap_bytes(p: &OldenParams, strategy: &dyn PtrStrategy) -> u64 {
    let ptr = strategy.ptr_size();
    let cells = u64::from(heap_cells(p)) + u64::from(STACK_MAX + NLOCALS + NPOOL);
    cells * 32 + u64::from(CODE_MAX) * 32 + (24 + 5 * ptr).div_ceil(32) * 32
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cc::check::{check, Limits};
    use cheri_cc::strategy::LegacyPtr;

    fn host_fib(n: u32) -> i64 {
        let (mut a, mut b) = (0i64, 1i64);
        for _ in 0..n {
            let t = a.wrapping_add(b);
            a = b;
            b = t;
        }
        a
    }

    #[test]
    fn module_checks() {
        let m = module(&OldenParams::scaled());
        check(&m, Limits { max_int: 6, max_ptr: 3 }).unwrap();
    }

    #[test]
    fn programs_fit_the_buffers() {
        let p = OldenParams::paper();
        for prog in programs(&p) {
            assert!(prog.code.len() <= CODE_MAX as usize, "{}", prog.name);
            assert!(prog.pool.len() <= NPOOL as usize, "{}", prog.name);
            assert!(prog.code.iter().any(|&(op, _)| op == HALT), "{} never halts", prog.name);
        }
    }

    #[test]
    fn fib_checksum_matches_host_arithmetic() {
        let p = OldenParams::scaled();
        let m = module(&p);
        let prog = cheri_cc::compile(&m, &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        let out = k.exec_and_run(&prog).unwrap();
        let mut acc = 0i64;
        for _ in 0..p.vm_iters {
            acc = acc.wrapping_mul(33).wrapping_add(host_fib(p.vm_fib));
        }
        assert_eq!(out.prints[0], acc as u64, "fib accumulator");
        assert!(out.prints[3] > 0, "step counter empty");
        assert_eq!(out.exit_value(), Some(out.prints[3]));
    }

    #[test]
    fn sort_checksum_matches_host_sort() {
        let p = OldenParams::scaled();
        let m = module(&p);
        let prog = cheri_cc::compile(&m, &LegacyPtr).unwrap();
        let mut k = cheri_os::boot(Default::default());
        let out = k.exec_and_run(&prog).unwrap();
        let sm = p.vm_sort.max(2) as i64;
        let mut acc = 0i64;
        for iter in 0..i64::from(p.vm_iters) {
            let salt = iter.wrapping_mul(977).wrapping_add(13);
            let mut vals: Vec<i64> = (0..sm).map(|j| mix(salt + j, 0xffff)).collect();
            vals.sort_unstable();
            let r =
                vals[0].wrapping_add(vals[(sm / 2) as usize].wrapping_mul(vals[(sm - 1) as usize]));
            acc = acc.wrapping_mul(33).wrapping_add(r);
        }
        assert_eq!(out.prints[1], acc as u64, "sort accumulator");
    }
}
