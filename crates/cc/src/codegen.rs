//! The code generator: IR → MIPS64(+CHERI) via a pointer strategy.
//!
//! Design notes:
//!
//! * All locals live in the stack frame; expression evaluation uses a
//!   bounded scratch discipline (integers in `$t0-$t3`,`$t8`,`$t9`;
//!   pointers in the strategy's scratch slots). This is a deliberately
//!   simple, uniform register policy: all three strategies pay the same
//!   local-traffic cost, so measured differences isolate the pointer
//!   representation — the quantity the Section 8 comparison is about.
//! * Calls and allocations only occur at statement level (enforced by
//!   [`crate::check`]), so no scratch value is ever live across a call
//!   and everything is caller-saved by construction.
//! * Software bounds checks are emitted by the strategy; this module
//!   decides *whether* a check is needed, implementing conservative
//!   straight-line elision over named locals when the strategy allows it
//!   (the CCured-style optimisation).

use std::collections::HashMap;

use beri_sim::reg;
use cheri_asm::{Asm, Label, Program};
use cheri_os::abi;
use cheri_os::ProcessLayout;

use crate::check::{check, expr_ty, Limits};
use crate::error::CompileError;
use crate::ir::{BinOp, CmpOp, Expr, FuncDef, LocalId, Module, Stmt, Ty};
use crate::layout::StructLayout;
use crate::strategy::{emit_trap_stub, Emit, PtrLoc, PtrStrategy, CAP_ARG_BASE};

/// Integer expression scratch registers, indexed by depth.
const INT_POOL: [u8; 6] = [reg::T0, reg::T1, reg::T2, reg::T3, reg::T8, reg::T9];

/// Where an argument travels.
#[derive(Clone, Copy, Debug)]
enum ArgLoc {
    Int(u8),
    Ptr(PtrLoc),
}

/// One compiled function's symbol: name plus its `[start, end)` text
/// range. Returned by [`compile_with_symbols`] for profilers and other
/// tooling that needs to map PCs back to source functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuncSym {
    /// The IR function name (`"_start"` for the entry/trap stub region
    /// that precedes the first function).
    pub name: &'static str,
    /// Address of the function's first instruction.
    pub start: u64,
    /// One past the function's last instruction.
    pub end: u64,
}

/// Compiles `module` under `strategy` into a loadable [`Program`] for
/// the default process layout ([`ProcessLayout::default`]: its text base
/// and heap-pointer cell).
///
/// # Errors
///
/// Validation errors from [`crate::check`], plus resource errors
/// (argument or offset overflow) detected during generation.
pub fn compile(module: &Module, strategy: &dyn PtrStrategy) -> Result<Program, CompileError> {
    compile_with_symbols(module, strategy).map(|(program, _)| program)
}

/// Like [`compile`], but also returns the function symbol map. Symbols
/// are contiguous and in address order: the synthetic `_start` region
/// (entry + trap stubs) first, then every IR function.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with_symbols(
    module: &Module,
    strategy: &dyn PtrStrategy,
) -> Result<(Program, Vec<FuncSym>), CompileError> {
    let layout = ProcessLayout::default();
    check(module, Limits { max_int: INT_POOL.len(), max_ptr: strategy.num_scratch() })?;
    let layouts: Vec<StructLayout> =
        module.structs.iter().map(|s| StructLayout::compute(&s.fields, strategy)).collect();
    for (s, l) in module.structs.iter().zip(&layouts) {
        if l.size > 30_000 {
            return Err(CompileError::OffsetTooLarge { func: s.name, offset: l.size });
        }
    }

    let mut asm = Asm::new(layout.text_base);
    let trap = asm.new_label();
    let func_labels: Vec<Label> = module.funcs.iter().map(|_| asm.new_label()).collect();

    // Entry stub: call main, then exit with its result.
    asm.jal(func_labels[module.entry]);
    asm.move_(reg::A0, reg::V0);
    asm.li64(reg::V0, abi::SYS_EXIT as i64);
    asm.syscall(0);
    emit_trap_stub(&mut asm, trap);

    let mut cg = Codegen {
        module,
        strategy,
        asm,
        trap,
        func_labels,
        layouts,
        heap_cell: layout.heap_ptr_cell(),
    };
    for (id, f) in module.funcs.iter().enumerate() {
        cg.compile_func(id, f)?;
    }

    // Functions are emitted contiguously in id order, so each one ends
    // where the next begins (the last at the current emission point).
    let mut starts: Vec<(&'static str, u64)> = Vec::with_capacity(module.funcs.len() + 1);
    starts.push(("_start", layout.text_base));
    for (id, f) in module.funcs.iter().enumerate() {
        if let Some(addr) = cg.asm.label_addr(cg.func_labels[id]) {
            starts.push((f.name, addr));
        }
    }
    starts.sort_by_key(|(_, start)| *start);
    let end_of_text = cg.asm.here();
    let symbols = starts
        .iter()
        .enumerate()
        .map(|(i, &(name, start))| {
            let end = starts.get(i + 1).map_or(end_of_text, |&(_, next)| next);
            FuncSym { name, start, end }
        })
        .collect();

    Ok((cg.asm.finalize()?, symbols))
}

struct FuncCtx {
    local_off: Vec<i16>,
    epilogue: Label,
    /// Per-local intervals already bounds-checked (software strategy
    /// elision); cleared at control-flow joins.
    checked: HashMap<LocalId, Vec<(u64, u64)>>,
    /// Which local each integer scratch register currently holds — a
    /// sound reload-elision peephole (real compilers keep hot locals in
    /// registers; without this the uniform spill-everything policy
    /// overstates frame traffic in every mode equally, but distorts the
    /// cache-pressure comparison).
    int_cache: [Option<LocalId>; INT_POOL.len()],
    /// Which local each pointer scratch slot currently holds.
    ptr_cache: Vec<Option<LocalId>>,
}

impl FuncCtx {
    /// Forgets all register-residency and elision knowledge (at calls
    /// and control-flow joins).
    fn clear_flow_state(&mut self) {
        self.checked.clear();
        self.int_cache = [None; INT_POOL.len()];
        for s in &mut self.ptr_cache {
            *s = None;
        }
    }

    /// A local was reassigned: forget stale register copies and checked
    /// extents.
    fn local_clobbered(&mut self, l: LocalId) {
        self.checked.remove(&l);
        for e in &mut self.int_cache {
            if *e == Some(l) {
                *e = None;
            }
        }
        for e in &mut self.ptr_cache {
            if *e == Some(l) {
                *e = None;
            }
        }
    }
}

struct Codegen<'m> {
    module: &'m Module,
    strategy: &'m dyn PtrStrategy,
    asm: Asm,
    trap: Label,
    func_labels: Vec<Label>,
    layouts: Vec<StructLayout>,
    heap_cell: u64,
}

impl<'m> Codegen<'m> {
    fn emitter(&mut self) -> Emit<'_> {
        Emit { asm: &mut self.asm, trap: self.trap }
    }

    fn assign_args(&self, f: &FuncDef) -> Result<Vec<ArgLoc>, CompileError> {
        let mut gpr = reg::A0;
        let mut cap = CAP_ARG_BASE;
        let mut out = Vec::with_capacity(f.params);
        for ty in &f.locals[..f.params] {
            match ty {
                Ty::I64 => {
                    if gpr > reg::A7 {
                        return Err(CompileError::TooManyArgs { func: f.name });
                    }
                    out.push(ArgLoc::Int(gpr));
                    gpr += 1;
                }
                Ty::Ptr(_) => match self.strategy.arg_gprs_per_ptr() {
                    Some(1) => {
                        if gpr > reg::A7 {
                            return Err(CompileError::TooManyArgs { func: f.name });
                        }
                        out.push(ArgLoc::Ptr(PtrLoc::Gpr(gpr)));
                        gpr += 1;
                    }
                    Some(3) => {
                        if gpr + 2 > reg::A7 {
                            return Err(CompileError::TooManyArgs { func: f.name });
                        }
                        out.push(ArgLoc::Ptr(PtrLoc::Fat {
                            addr: gpr,
                            base: gpr + 1,
                            len: gpr + 2,
                        }));
                        gpr += 3;
                    }
                    None => {
                        if cap > CAP_ARG_BASE + 7 {
                            return Err(CompileError::TooManyArgs { func: f.name });
                        }
                        out.push(ArgLoc::Ptr(PtrLoc::Cap(cap)));
                        cap += 1;
                    }
                    Some(other) => {
                        unreachable!("unsupported GPRs-per-pointer {other}")
                    }
                },
            }
        }
        Ok(out)
    }

    fn frame_layout(&self, f: &FuncDef) -> Result<(Vec<i16>, i16), CompileError> {
        let mut off: u64 = 8; // 0: saved $ra
        let mut local_off = Vec::with_capacity(f.locals.len());
        for ty in &f.locals {
            let (size, align) = match ty {
                Ty::I64 => (8u64, 8u64),
                Ty::Ptr(_) => (self.strategy.ptr_size(), self.strategy.ptr_align()),
            };
            off = off.div_ceil(align) * align;
            local_off.push(off as i16);
            off += size;
        }
        let frame = off.div_ceil(32) * 32; // keep SP 32-byte aligned
        if frame > 30_000 {
            return Err(CompileError::OffsetTooLarge { func: f.name, offset: frame });
        }
        Ok((local_off, frame as i16))
    }

    fn compile_func(&mut self, id: usize, f: &FuncDef) -> Result<(), CompileError> {
        let (local_off, frame) = self.frame_layout(f)?;
        let epilogue = self.asm.new_label();
        let mut ctx = FuncCtx {
            local_off,
            epilogue,
            checked: HashMap::new(),
            int_cache: [None; INT_POOL.len()],
            ptr_cache: vec![None; self.strategy.num_scratch()],
        };

        self.asm.bind(self.func_labels[id])?;
        self.asm.daddiu(reg::SP, reg::SP, -frame);
        self.asm.sd(reg::RA, reg::SP, 0);
        let args = self.assign_args(f)?;
        for (i, a) in args.iter().enumerate() {
            let off = ctx.local_off[i];
            match a {
                ArgLoc::Int(g) => self.asm.sd(*g, reg::SP, off),
                ArgLoc::Ptr(p) => {
                    let strategy = self.strategy;
                    strategy.emit_store_local(&mut self.emitter(), *p, off);
                }
            }
        }

        self.compile_stmts(f, &mut ctx, &f.body)?;

        self.asm.bind(epilogue)?;
        self.asm.ld(reg::RA, reg::SP, 0);
        self.asm.daddiu(reg::SP, reg::SP, frame);
        self.asm.ret();
        Ok(())
    }

    /// Decides whether a dereference of `[off, off+size)` through a
    /// pointer with provenance `prov` needs an emitted check, updating
    /// the elision state.
    fn need_check(&self, ctx: &mut FuncCtx, prov: Option<LocalId>, off: u64, size: u64) -> bool {
        if !self.strategy.wants_check() {
            return false;
        }
        if !self.strategy.elides_checks() {
            return true;
        }
        let Some(lid) = prov else { return true };
        let intervals = ctx.checked.entry(lid).or_default();
        if intervals.iter().any(|(lo, hi)| *lo <= off && off + size <= *hi) {
            return false;
        }
        intervals.push((off, off + size));
        true
    }

    // --- expressions -----------------------------------------------------

    /// Evaluates an integer expression into `INT_POOL[i]`.
    #[allow(clippy::too_many_lines)]
    fn eval_int(
        &mut self,
        f: &FuncDef,
        ctx: &mut FuncCtx,
        e: &Expr,
        i: usize,
        p: usize,
    ) -> Result<u8, CompileError> {
        let dst = INT_POOL[i];
        // Default: the register no longer mirrors any local.
        let mut now_holds: Option<LocalId> = None;
        match e {
            Expr::Const(v) => self.asm.li64(dst, *v),
            Expr::Local(l) => {
                if ctx.int_cache[i] != Some(*l) {
                    self.asm.ld(dst, reg::SP, ctx.local_off[*l]);
                }
                now_holds = Some(*l);
            }
            Expr::Bin(op, a, b) => {
                let ra = self.eval_int(f, ctx, a, i, p)?;
                let rb = self.eval_int(f, ctx, b, i + 1, p)?;
                match op {
                    BinOp::Add => self.asm.daddu(dst, ra, rb),
                    BinOp::Sub => self.asm.dsubu(dst, ra, rb),
                    BinOp::Mul => {
                        self.asm.dmultu(ra, rb);
                        self.asm.mflo(dst);
                    }
                    BinOp::Div => {
                        self.asm.ddiv(ra, rb);
                        self.asm.mflo(dst);
                    }
                    BinOp::Rem => {
                        self.asm.ddiv(ra, rb);
                        self.asm.mfhi(dst);
                    }
                    BinOp::Udiv => {
                        self.asm.ddivu(ra, rb);
                        self.asm.mflo(dst);
                    }
                    BinOp::Urem => {
                        self.asm.ddivu(ra, rb);
                        self.asm.mfhi(dst);
                    }
                    BinOp::And => self.asm.and_(dst, ra, rb),
                    BinOp::Or => self.asm.or_(dst, ra, rb),
                    BinOp::Xor => self.asm.xor_(dst, ra, rb),
                    BinOp::Shl => self.asm.dsllv(dst, ra, rb),
                    BinOp::Shr => self.asm.dsrlv(dst, ra, rb),
                    BinOp::Sar => {
                        self.asm.emit(beri_sim::inst::Inst::ShiftV {
                            op: beri_sim::inst::ShiftOp::Dsra,
                            rd: dst,
                            rt: ra,
                            rs: rb,
                        });
                    }
                }
            }
            Expr::Cmp(op, a, b) => {
                let ra = self.eval_int(f, ctx, a, i, p)?;
                let rb = self.eval_int(f, ctx, b, i + 1, p)?;
                match op {
                    CmpOp::Eq => {
                        self.asm.xor_(dst, ra, rb);
                        self.asm.sltiu(dst, dst, 1);
                    }
                    CmpOp::Ne => {
                        self.asm.xor_(dst, ra, rb);
                        self.asm.sltu(dst, reg::ZERO, dst);
                    }
                    CmpOp::Lt => self.asm.slt(dst, ra, rb),
                    CmpOp::Gt => self.asm.slt(dst, rb, ra),
                    CmpOp::Le => {
                        self.asm.slt(dst, rb, ra);
                        self.asm.xori(dst, dst, 1);
                    }
                    CmpOp::Ge => {
                        self.asm.slt(dst, ra, rb);
                        self.asm.xori(dst, dst, 1);
                    }
                    CmpOp::Ltu => self.asm.sltu(dst, ra, rb),
                }
            }
            Expr::Load { ptr, strukt, field } => {
                let (loc, prov) = self.eval_ptr(f, ctx, ptr, i, p)?;
                let off = self.layouts[*strukt].offsets[*field];
                let chk = self.need_check(ctx, prov, off, 8);
                let strategy = self.strategy;
                strategy.emit_load_field(&mut self.emitter(), dst, loc, off as i16, chk);
            }
            Expr::IsNull(inner) => {
                let (loc, _) = self.eval_ptr(f, ctx, inner, i, p)?;
                let strategy = self.strategy;
                strategy.emit_is_null(&mut self.emitter(), dst, loc);
            }
            Expr::PtrToInt(inner) => {
                let (loc, _) = self.eval_ptr(f, ctx, inner, i, p)?;
                let strategy = self.strategy;
                strategy.emit_to_int(&mut self.emitter(), dst, loc);
            }
            Expr::Null(_)
            | Expr::LoadPtr { .. }
            | Expr::Index { .. }
            | Expr::Call { .. }
            | Expr::Alloc { .. } => {
                unreachable!("checked module: {e:?} is not an int expression here")
            }
        }
        ctx.int_cache[i] = now_holds;
        Ok(dst)
    }

    /// Evaluates a pointer expression into the strategy's scratch slot
    /// `p`; returns the slot and the provenance local (for elision).
    fn eval_ptr(
        &mut self,
        f: &FuncDef,
        ctx: &mut FuncCtx,
        e: &Expr,
        i: usize,
        p: usize,
    ) -> Result<(PtrLoc, Option<LocalId>), CompileError> {
        let slot = self.strategy.scratch(p);
        match e {
            Expr::Local(l) => {
                if ctx.ptr_cache[p] != Some(*l) {
                    let strategy = self.strategy;
                    let off = ctx.local_off[*l];
                    strategy.emit_load_local(&mut self.emitter(), slot, off);
                    ctx.ptr_cache[p] = Some(*l);
                }
                Ok((slot, Some(*l)))
            }
            Expr::Null(_) => {
                let strategy = self.strategy;
                strategy.emit_null(&mut self.emitter(), slot);
                ctx.ptr_cache[p] = None;
                Ok((slot, None))
            }
            Expr::LoadPtr { ptr, strukt, field } => {
                let (loc, prov) = self.eval_ptr(f, ctx, ptr, i, p)?;
                let off = self.layouts[*strukt].offsets[*field];
                let chk = self.need_check(ctx, prov, off, self.strategy.ptr_size());
                let strategy = self.strategy;
                strategy.emit_load_ptr_field(&mut self.emitter(), slot, loc, off as i16, chk);
                ctx.ptr_cache[p] = None;
                Ok((slot, None))
            }
            Expr::Index { ptr, strukt, index } => {
                let (loc, _) = self.eval_ptr(f, ctx, ptr, i, p)?;
                debug_assert_eq!(loc, slot);
                let idx = self.eval_int(f, ctx, index, i, p + 1)?;
                let size = self.layouts[*strukt].size;
                if size.is_power_of_two() {
                    if size > 1 {
                        self.asm.dsll(idx, idx, size.trailing_zeros() as u8);
                    }
                } else {
                    self.asm.li64(INT_POOL[i + 1], size as i64);
                    self.asm.dmultu(idx, INT_POOL[i + 1]);
                    self.asm.mflo(idx);
                }
                let strategy = self.strategy;
                strategy.emit_index(&mut self.emitter(), slot, slot, idx);
                ctx.ptr_cache[p] = None;
                ctx.int_cache[i] = None;
                if i + 1 < INT_POOL.len() {
                    ctx.int_cache[i + 1] = None;
                }
                Ok((slot, None))
            }
            Expr::Const(_)
            | Expr::Bin(..)
            | Expr::Cmp(..)
            | Expr::Load { .. }
            | Expr::IsNull(_)
            | Expr::PtrToInt(_)
            | Expr::Call { .. }
            | Expr::Alloc { .. } => {
                unreachable!("checked module: {e:?} is not a pointer expression here")
            }
        }
    }

    /// Emits a call, leaving the result in `$v0` / the strategy's return
    /// location.
    fn emit_call(
        &mut self,
        f: &FuncDef,
        ctx: &mut FuncCtx,
        func: usize,
        args: &[Expr],
    ) -> Result<(), CompileError> {
        let callee = &self.module.funcs[func];
        let locs = self.assign_args(callee)?;
        for (a, loc) in args.iter().zip(&locs) {
            match loc {
                ArgLoc::Int(g) => {
                    let r = self.eval_int(f, ctx, a, 0, 0)?;
                    self.asm.move_(*g, r);
                }
                ArgLoc::Ptr(pl) => {
                    let (src, _) = self.eval_ptr(f, ctx, a, 0, 0)?;
                    let strategy = self.strategy;
                    strategy.emit_move(&mut self.emitter(), *pl, src);
                }
            }
        }
        self.asm.jal(self.func_labels[func]);
        // Called code may have invalidated anything we knew.
        ctx.clear_flow_state();
        Ok(())
    }

    /// Emits an allocation, leaving the pointer in scratch slot 0.
    /// Returns the statically-known byte size, if any.
    fn emit_alloc(
        &mut self,
        f: &FuncDef,
        ctx: &mut FuncCtx,
        strukt: usize,
        count: &Expr,
    ) -> Result<Option<u64>, CompileError> {
        let size = self.layouts[strukt].size.max(self.strategy.heap_align());
        let bytes = INT_POOL[0];
        let known = if let Expr::Const(n) = count {
            let total = size * (*n as u64);
            self.asm.li64(bytes, total as i64);
            Some(total)
        } else {
            let r = self.eval_int(f, ctx, count, 0, 0)?;
            debug_assert_eq!(r, bytes);
            if size.is_power_of_two() {
                self.asm.dsll(bytes, bytes, size.trailing_zeros() as u8);
            } else {
                self.asm.li64(INT_POOL[1], size as i64);
                self.asm.dmultu(bytes, INT_POOL[1]);
                self.asm.mflo(bytes);
            }
            None
        };
        ctx.int_cache[0] = None;
        ctx.int_cache[1] = None;
        ctx.ptr_cache[0] = None;
        let slot = self.strategy.scratch(0);
        let heap_cell = self.heap_cell;
        let strategy = self.strategy;
        strategy.emit_alloc(&mut self.emitter(), slot, bytes, heap_cell);
        Ok(known)
    }

    // --- statements --------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn compile_stmts(
        &mut self,
        f: &FuncDef,
        ctx: &mut FuncCtx,
        body: &[Stmt],
    ) -> Result<(), CompileError> {
        for s in body {
            match s {
                Stmt::Let(l, e) => {
                    let off = ctx.local_off[*l];
                    match e {
                        Expr::Call { func, args } => {
                            self.emit_call(f, ctx, *func, args)?;
                            ctx.local_clobbered(*l);
                            match f.locals[*l] {
                                Ty::I64 => self.asm.sd(reg::V0, reg::SP, off),
                                Ty::Ptr(_) => {
                                    let strategy = self.strategy;
                                    let ret = strategy.ret_loc();
                                    strategy.emit_store_local(&mut self.emitter(), ret, off);
                                }
                            }
                        }
                        Expr::Alloc { strukt, count } => {
                            let known = self.emit_alloc(f, ctx, *strukt, count)?;
                            let strategy = self.strategy;
                            let slot = strategy.scratch(0);
                            strategy.emit_store_local(&mut self.emitter(), slot, off);
                            ctx.local_clobbered(*l);
                            // Slot 0 now holds the new local's value.
                            ctx.ptr_cache[0] = Some(*l);
                            if let Some(total) = known {
                                if strategy.elides_checks() {
                                    // A fresh allocation is known in-bounds
                                    // over its whole extent.
                                    ctx.checked.insert(*l, vec![(0, total)]);
                                }
                            }
                        }
                        _ => match f.locals[*l] {
                            Ty::I64 => {
                                let r = self.eval_int(f, ctx, e, 0, 0)?;
                                self.asm.sd(r, reg::SP, off);
                                ctx.local_clobbered(*l);
                                ctx.int_cache[0] = Some(*l);
                            }
                            Ty::Ptr(_) => {
                                let (loc, _) = self.eval_ptr(f, ctx, e, 0, 0)?;
                                let strategy = self.strategy;
                                strategy.emit_store_local(&mut self.emitter(), loc, off);
                                ctx.local_clobbered(*l);
                                debug_assert_eq!(loc, strategy.scratch(0));
                                ctx.ptr_cache[0] = Some(*l);
                            }
                        },
                    }
                }
                Stmt::Store { ptr, strukt, field, value } => {
                    let (loc, prov) = self.eval_ptr(f, ctx, ptr, 0, 0)?;
                    let v = self.eval_int(f, ctx, value, 0, 1)?;
                    let off = self.layouts[*strukt].offsets[*field];
                    let chk = self.need_check(ctx, prov, off, 8);
                    let strategy = self.strategy;
                    strategy.emit_store_field(&mut self.emitter(), v, loc, off as i16, chk);
                }
                Stmt::StorePtr { ptr, strukt, field, value } => {
                    let (dst, prov) = self.eval_ptr(f, ctx, ptr, 0, 0)?;
                    let (src, _) = self.eval_ptr(f, ctx, value, 0, 1)?;
                    let off = self.layouts[*strukt].offsets[*field];
                    let chk = self.need_check(ctx, prov, off, self.strategy.ptr_size());
                    let strategy = self.strategy;
                    strategy.emit_store_ptr_field(&mut self.emitter(), src, dst, off as i16, chk);
                }
                Stmt::If { cond, then, els } => {
                    let c = self.eval_int(f, ctx, cond, 0, 0)?;
                    let else_l = self.asm.new_label();
                    let end_l = self.asm.new_label();
                    self.asm.beq(c, reg::ZERO, else_l);
                    ctx.clear_flow_state();
                    self.compile_stmts(f, ctx, then)?;
                    self.asm.b(end_l);
                    self.asm.bind(else_l)?;
                    ctx.clear_flow_state();
                    self.compile_stmts(f, ctx, els)?;
                    self.asm.bind(end_l)?;
                    ctx.clear_flow_state();
                }
                Stmt::While { cond, body } => {
                    let top = self.asm.new_label();
                    let end = self.asm.new_label();
                    self.asm.bind(top)?;
                    ctx.clear_flow_state();
                    let c = self.eval_int(f, ctx, cond, 0, 0)?;
                    self.asm.beq(c, reg::ZERO, end);
                    self.compile_stmts(f, ctx, body)?;
                    self.asm.b(top);
                    self.asm.bind(end)?;
                    ctx.clear_flow_state();
                }
                Stmt::Return(e) => {
                    match e {
                        None => {}
                        Some(Expr::Call { func, args }) => {
                            // Result is already in the return location.
                            self.emit_call(f, ctx, *func, args)?;
                        }
                        Some(Expr::Alloc { strukt, count }) => {
                            self.emit_alloc(f, ctx, *strukt, count)?;
                            let strategy = self.strategy;
                            let (slot, ret) = (strategy.scratch(0), strategy.ret_loc());
                            strategy.emit_move(&mut self.emitter(), ret, slot);
                        }
                        Some(other) => match expr_ty(self.module, f, other) {
                            Ty::I64 => {
                                let r = self.eval_int(f, ctx, other, 0, 0)?;
                                self.asm.move_(reg::V0, r);
                            }
                            Ty::Ptr(_) => {
                                let (loc, _) = self.eval_ptr(f, ctx, other, 0, 0)?;
                                let strategy = self.strategy;
                                let ret = strategy.ret_loc();
                                strategy.emit_move(&mut self.emitter(), ret, loc);
                            }
                        },
                    }
                    self.asm.b(ctx.epilogue);
                }
                Stmt::Expr(e) => {
                    if let Expr::Call { func, args } = e {
                        self.emit_call(f, ctx, *func, args)?;
                    }
                }
                Stmt::Phase(id) => {
                    self.asm.li64(reg::A0, *id as i64);
                    self.asm.li64(reg::V0, abi::SYS_PHASE as i64);
                    self.asm.syscall(0);
                }
                Stmt::Print(e) => {
                    let r = self.eval_int(f, ctx, e, 0, 0)?;
                    self.asm.move_(reg::A0, r);
                    self.asm.li64(reg::V0, abi::SYS_PRINT as i64);
                    self.asm.syscall(0);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::build::*;
    use crate::ir::{FuncDef, Module, StructDef};
    use crate::strategy::{CapPtr, LegacyPtr, SoftFatPtr};
    use cheri_os::{boot, ExitReason, KernelConfig};

    fn strategies() -> Vec<Box<dyn PtrStrategy>> {
        vec![
            Box::new(LegacyPtr),
            Box::new(SoftFatPtr::checked()),
            Box::new(SoftFatPtr::eliding()),
            Box::new(CapPtr::c256()),
        ]
    }

    fn run(module: &Module, strategy: &dyn PtrStrategy) -> cheri_os::RunOutcome {
        let prog = compile(module, strategy)
            .unwrap_or_else(|e| panic!("[{}] compile failed: {e}", strategy.name()));
        let mut k = boot(KernelConfig {
            machine: beri_sim::MachineConfig { mem_bytes: 16 << 20, ..Default::default() },
            max_instructions: 50_000_000,
            ..KernelConfig::default()
        });
        k.exec_and_run(&prog).unwrap_or_else(|e| panic!("[{}] run failed: {e}", strategy.name()))
    }

    fn assert_all_modes(module: &Module, expect: u64) {
        for s in strategies() {
            let out = run(module, s.as_ref());
            assert_eq!(out.exit_value(), Some(expect), "[{}] exit {:?}", s.name(), out.exit);
        }
    }

    /// node { val, left, right }
    fn tree_module() -> (Module, usize) {
        let node = 0usize;
        let module = Module {
            structs: vec![StructDef {
                name: "node",
                fields: vec![Ty::I64, Ty::ptr(0), Ty::ptr(0)],
            }],
            funcs: vec![],
            entry: 0,
        };
        (module, node)
    }

    #[test]
    fn arithmetic_program_runs_in_all_modes() {
        let m = Module {
            structs: vec![],
            funcs: vec![FuncDef {
                name: "main",
                params: 0,
                ret: Some(Ty::I64),
                locals: vec![Ty::I64, Ty::I64],
                body: vec![
                    Stmt::Let(0, c(0)),
                    Stmt::Let(1, c(1)),
                    Stmt::While {
                        cond: cmp(CmpOp::Le, l(1), c(10)),
                        body: vec![Stmt::Let(0, add(l(0), l(1))), Stmt::Let(1, add(l(1), c(1)))],
                    },
                    Stmt::Return(Some(l(0))),
                ],
            }],
            entry: 0,
        };
        assert_all_modes(&m, 55);
    }

    #[test]
    fn heap_allocation_and_field_access() {
        let (mut m, node) = tree_module();
        m.funcs.push(FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            locals: vec![Ty::ptr(node), Ty::ptr(node)],
            body: vec![
                Stmt::Let(0, alloc(node, c(1))),
                Stmt::Store { ptr: l(0), strukt: node, field: 0, value: c(41) },
                Stmt::Let(1, alloc(node, c(1))),
                Stmt::Store { ptr: l(1), strukt: node, field: 0, value: c(1) },
                Stmt::StorePtr { ptr: l(0), strukt: node, field: 1, value: l(1) },
                // return p->val + p->left->val
                Stmt::Return(Some(add(load(l(0), node, 0), load(loadp(l(0), node, 1), node, 0)))),
            ],
        });
        assert_all_modes(&m, 42);
    }

    #[test]
    fn recursion_with_pointer_args_and_returns() {
        // build(depth): allocates a tree; sum(p): adds it up.
        let (mut m, node) = tree_module();
        let build = 0usize;
        let sum = 1usize;
        let main = 2usize;
        m.funcs = vec![
            FuncDef {
                name: "build",
                params: 1,
                ret: Some(Ty::ptr(node)),
                locals: vec![Ty::I64, Ty::ptr(node), Ty::ptr(node)],
                body: vec![
                    Stmt::If {
                        cond: cmp(CmpOp::Le, l(0), c(0)),
                        then: vec![Stmt::Return(Some(Expr::Null(node)))],
                        els: vec![],
                    },
                    Stmt::Let(1, alloc(node, c(1))),
                    Stmt::Store { ptr: l(1), strukt: node, field: 0, value: l(0) },
                    Stmt::Let(2, call(build, vec![sub(l(0), c(1))])),
                    Stmt::StorePtr { ptr: l(1), strukt: node, field: 1, value: l(2) },
                    Stmt::Let(2, call(build, vec![sub(l(0), c(1))])),
                    Stmt::StorePtr { ptr: l(1), strukt: node, field: 2, value: l(2) },
                    Stmt::Return(Some(l(1))),
                ],
            },
            FuncDef {
                name: "sum",
                params: 1,
                ret: Some(Ty::I64),
                locals: vec![Ty::ptr(node), Ty::I64, Ty::I64],
                body: vec![
                    Stmt::If {
                        cond: is_null(l(0)),
                        then: vec![Stmt::Return(Some(c(0)))],
                        els: vec![],
                    },
                    Stmt::Let(1, call(sum, vec![loadp(l(0), node, 1)])),
                    Stmt::Let(2, call(sum, vec![loadp(l(0), node, 2)])),
                    Stmt::Return(Some(add(load(l(0), node, 0), add(l(1), l(2))))),
                ],
            },
            FuncDef {
                name: "main",
                params: 0,
                ret: Some(Ty::I64),
                locals: vec![Ty::ptr(node)],
                body: vec![
                    Stmt::Let(0, call(build, vec![c(4)])),
                    Stmt::Return(Some(call(sum, vec![l(0)]))),
                ],
            },
        ];
        m.entry = main;
        // depth-4 tree: level values 4,3,2,1 with 1,2,4,8 nodes.
        assert_all_modes(&m, 4 + 3 * 2 + 2 * 4 + 8);
    }

    #[test]
    fn array_indexing() {
        let cell = 0usize;
        let m = Module {
            structs: vec![StructDef { name: "cell", fields: vec![Ty::I64] }],
            funcs: vec![FuncDef {
                name: "main",
                params: 0,
                ret: Some(Ty::I64),
                locals: vec![Ty::ptr(cell), Ty::I64, Ty::I64],
                body: vec![
                    Stmt::Let(0, alloc(cell, c(10))),
                    Stmt::Let(1, c(0)),
                    Stmt::While {
                        cond: cmp(CmpOp::Lt, l(1), c(10)),
                        body: vec![
                            Stmt::Store {
                                ptr: index(l(0), cell, l(1)),
                                strukt: cell,
                                field: 0,
                                value: mul(l(1), l(1)),
                            },
                            Stmt::Let(1, add(l(1), c(1))),
                        ],
                    },
                    Stmt::Let(1, c(0)),
                    Stmt::Let(2, c(0)),
                    Stmt::While {
                        cond: cmp(CmpOp::Lt, l(1), c(10)),
                        body: vec![
                            Stmt::Let(2, add(l(2), load(index(l(0), cell, l(1)), cell, 0))),
                            Stmt::Let(1, add(l(1), c(1))),
                        ],
                    },
                    Stmt::Return(Some(l(2))),
                ],
            }],
            entry: 0,
        };
        assert_all_modes(&m, 285); // sum of squares 0..9
    }

    #[test]
    fn out_of_bounds_caught_by_cheri_and_soft_but_not_legacy() {
        let cell = 0usize;
        let m = Module {
            structs: vec![StructDef { name: "cell", fields: vec![Ty::I64] }],
            funcs: vec![FuncDef {
                name: "main",
                params: 0,
                ret: Some(Ty::I64),
                locals: vec![Ty::ptr(cell)],
                body: vec![
                    Stmt::Let(0, alloc(cell, c(4))),
                    // read element 4 of a 4-element array: one past the end
                    Stmt::Return(Some(load(index(l(0), cell, c(4)), cell, 0))),
                ],
            }],
            entry: 0,
        };
        let legacy = run(&m, &LegacyPtr);
        assert!(
            matches!(legacy.exit, ExitReason::Exit(_)),
            "legacy silently reads past the allocation: {:?}",
            legacy.exit
        );
        let soft = run(&m, &SoftFatPtr::checked());
        assert!(matches!(soft.exit, ExitReason::SoftBoundsFault { .. }), "{:?}", soft.exit);
        let cheri = run(&m, &CapPtr::c256());
        match cheri.exit {
            ExitReason::CapFault { cause, .. } => {
                assert_eq!(cause.code(), cheri_core::CapExcCode::LengthViolation);
            }
            other => panic!("expected CapFault, got {other:?}"),
        }
    }

    #[test]
    fn phases_and_prints_flow_through() {
        let m = Module {
            structs: vec![],
            funcs: vec![FuncDef {
                name: "main",
                params: 0,
                ret: Some(Ty::I64),
                locals: vec![],
                body: vec![
                    Stmt::Phase(1),
                    Stmt::Print(c(99)),
                    Stmt::Phase(2),
                    Stmt::Return(Some(c(0))),
                ],
            }],
            entry: 0,
        };
        let out = run(&m, &LegacyPtr);
        assert_eq!(out.prints, vec![99]);
        assert_eq!(out.phases.len(), 2);
    }

    #[test]
    fn elision_reduces_instructions_but_not_safety() {
        // Repeated field stores through one pointer in straight-line code.
        let (mut m, node) = tree_module();
        m.funcs.push(FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            locals: vec![Ty::ptr(node)],
            body: vec![
                Stmt::Let(0, alloc(node, c(1))),
                Stmt::Store { ptr: l(0), strukt: node, field: 0, value: c(1) },
                Stmt::Store { ptr: l(0), strukt: node, field: 0, value: c(2) },
                Stmt::Store { ptr: l(0), strukt: node, field: 0, value: c(3) },
                Stmt::Return(Some(load(l(0), node, 0))),
            ],
        });
        let checked = run(&m, &SoftFatPtr::checked());
        let eliding = run(&m, &SoftFatPtr::eliding());
        assert_eq!(checked.exit_value(), Some(3));
        assert_eq!(eliding.exit_value(), Some(3));
        assert!(
            eliding.stats.instructions < checked.stats.instructions,
            "elision must save instructions: {} vs {}",
            eliding.stats.instructions,
            checked.stats.instructions
        );
    }

    #[test]
    fn cheri_mode_instructions_close_to_legacy() {
        // The headline Section 8 claim in miniature: CHERI's per-access
        // instruction overhead is ~zero; software checking is not.
        let (mut m, node) = tree_module();
        m.funcs.push(FuncDef {
            name: "main",
            params: 0,
            ret: Some(Ty::I64),
            locals: vec![Ty::ptr(node), Ty::I64, Ty::I64],
            body: vec![
                Stmt::Let(0, alloc(node, c(1))),
                Stmt::Let(1, c(0)),
                Stmt::Let(2, c(0)),
                Stmt::While {
                    cond: cmp(CmpOp::Lt, l(1), c(1000)),
                    body: vec![
                        Stmt::Store { ptr: l(0), strukt: node, field: 0, value: l(1) },
                        Stmt::Let(2, add(l(2), load(l(0), node, 0))),
                        Stmt::Let(1, add(l(1), c(1))),
                    ],
                },
                Stmt::Return(Some(l(2))),
            ],
        });
        let legacy = run(&m, &LegacyPtr).stats.instructions;
        let cheri = run(&m, &CapPtr::c256()).stats.instructions;
        let soft = run(&m, &SoftFatPtr::checked()).stats.instructions;
        let cheri_over = cheri as f64 / legacy as f64;
        let soft_over = soft as f64 / legacy as f64;
        assert!(cheri_over < 1.05, "CHERI instruction overhead too high: {cheri_over}");
        assert!(soft_over > 1.30, "software checks should cost much more: {soft_over}");
    }
}
