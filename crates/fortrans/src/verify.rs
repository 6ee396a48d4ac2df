//! Static bytecode verifier: proves a compiled [`BUnit`] safe to run on
//! the VM tier before it ever executes.
//!
//! The VM ([`crate::vm`]) is written against a compiler invariant — slot
//! indices are in range, jump targets land inside the unit, the operand
//! stack balances along every control-flow path — and indexes its banks
//! without bounds checks on the strength of it. A miscompiled or
//! corrupted instruction stream would turn those assumptions into
//! panics or silent wrong answers. This module re-establishes the
//! invariant *from the bytecode alone*, in two passes per unit:
//!
//! 1. **Structural pass** over every instruction (reachable or not):
//!    slot indices within the declared banks, global cells within the
//!    program's global table, jump/branch/loop targets inside
//!    `[0, code.len()]`, message/call/OMP/print/shape/affine descriptor
//!    indices within their tables, DO-loop strides provably non-zero
//!    where the compiler elided the runtime check, and call sites whose
//!    arity and parameter slots match the callee.
//! 2. **Abstract interpretation** of stack depths from the entry point:
//!    each reachable pc gets a `(operand, array, stash)` depth triple;
//!    joins must agree, pops must not underflow, and every exit —
//!    falling off the end, `RETURN`, or a loop-flow escape — must leave
//!    all three stacks empty.
//!
//! [`verify_program`] runs after `compile_program`: inside
//! [`crate::CompiledProgram::compile`] for the optimized build, and when
//! the first Simulated run makes the traced one, so no bytecode runs
//! before it is *verified*. The other half of the
//! bargain lives with the tests: `tests/common/mutate.rs` is a
//! deterministic fault injector that corrupts verified bytecode in ways
//! the verifier (or the engine's trap-and-fallback path) must catch —
//! see `tests/fault_injection.rs`.

use crate::bytecode::{
    dummy_arrays, fixed_global, global_cells, mask_stack_effect, nest_exit_state, prove_streams,
    region_cost, span_cost, static_shape, vec_stack_effect, BArg, BInstr, BUnit,
    MaskOp, PItem, SpanCost, SubOp, VSlot, VecDesc, VecOp, VecSel, VecSub, MAX_INLINE_RANK, NO_PC,
    NO_SDIMS, NO_SLOT, VEC_MAX_ACCESSES, VEC_MAX_DEPTH,
};
use crate::error::CompileError;
use crate::intrinsics::Intr;
use crate::rir::{RProgram, ScalarTy};

/// Verifies every unit of a compiled program. Returns the first
/// violation as [`CompileError::Verify`] with the unit name and pc.
pub fn verify_program(prog: &RProgram, bunits: &[BUnit]) -> Result<(), CompileError> {
    for bu in bunits {
        let v = Verifier { prog, bunits, bu };
        v.verify().map_err(|(pc, msg)| CompileError::Verify {
            unit: unit_name(prog, bu),
            pc,
            msg,
        })?;
    }
    Ok(())
}

/// Re-checks a single vector descriptor's acceptance invariants —
/// exactly the check [`verify_program`] runs over `bu.vecs`. The
/// native tier ([`crate::jit`]) calls this at promotion time so machine
/// code is only ever emitted from bytecode that passes verification
/// *right now* (a descriptor corrupted after the compile-time pass is
/// refused, not compiled).
pub fn check_vec_desc(
    prog: &RProgram,
    bunits: &[BUnit],
    uidx: usize,
    desc: u32,
) -> Result<(), String> {
    let Some(bu) = bunits.get(uidx) else {
        return Err(format!("unit index {uidx} out of range"));
    };
    let v = Verifier { prog, bunits, bu };
    v.vec_desc_ok(desc)
}

fn unit_name(prog: &RProgram, bu: &BUnit) -> String {
    match prog.units.get(bu.unit as usize) {
        Some(u) => u.name.clone(),
        None => format!("unit#{}", bu.unit),
    }
}

/// Abstract machine state: depths of the operand stack, the array-handle
/// stack and the subscript stash, and the innermost open inlined block
/// ([`NO_PC`] for none).
type Depth = (u32, u32, u32, u32);

/// The state at a unit's entry and at every exit from it.
const EMPTY: Depth = (0, 0, 0, NO_PC);

/// A violation: (pc, message).
type Violation = (u32, String);

struct Verifier<'a> {
    prog: &'a RProgram,
    bunits: &'a [BUnit],
    bu: &'a BUnit,
}

impl Verifier<'_> {
    fn verify(&self) -> Result<(), Violation> {
        self.check_unit_tables()?;
        for (pc, ins) in self.bu.code.iter().enumerate() {
            self.structural(pc as u32, ins)?;
        }
        self.dataflow()
    }

    // ---------- unit-level tables ----------

    fn check_unit_tables(&self) -> Result<(), Violation> {
        let bu = self.bu;
        let unit = self
            .prog
            .units
            .get(bu.unit as usize)
            .ok_or_else(|| (0, format!("unit index {} out of range", bu.unit)))?;
        if bu.vslots.len() != unit.vars.len() {
            return Err((
                0,
                format!(
                    "slot table has {} entries for {} variables",
                    bu.vslots.len(),
                    unit.vars.len()
                ),
            ));
        }
        for &vs in &bu.vslots {
            self.slot_ok(bu, vs).map_err(|m| (0, m))?;
        }
        if let Some((vs, _)) = bu.result {
            self.scalar_slot_ok(bu, vs).map_err(|m| (0, m))?;
        }
        let mut prev = None;
        let dummies = dummy_arrays(unit, &bu.vslots);
        for &(slot, _, ref dims) in &bu.fixed_arrays {
            if slot >= bu.na {
                return Err((0, format!("fixed array slot {slot} out of range (na={})", bu.na)));
            }
            // Calls and entry arguments bind dummy slots: a fixed one
            // would hold the caller's array, not one of its declared shape.
            if dummies.contains(&slot) {
                return Err((0, format!("fixed array slot {slot} is a dummy's")));
            }
            // Frame reset walks the slots and this table in one pass.
            if prev.is_some_and(|p| p >= slot) {
                return Err((0, format!("fixed array slot {slot} out of ascending order")));
            }
            prev = Some(slot);
            if !crate::storage::ArrayObj::dims_fit(dims) {
                return Err((0, "fixed array shape exceeds the element cap".into()));
            }
        }
        // Fault context names the unit the PC→unit table gives.
        let mut prev = None;
        for &(pc, u) in &bu.units {
            if u as usize >= self.prog.units.len() || prev.is_some_and(|p| p >= pc) {
                return Err((pc, format!("PC→unit entry ({pc}, {u}) out of range or order")));
            }
            prev = Some(pc);
        }
        Ok(())
    }

    /// A fixed frame array is allocated from frame set-up to return:
    /// static-shape element access and vector stream resolution rely on
    /// it, so nothing may allocate, free or query it.
    fn not_fixed(bu: &BUnit, vs: VSlot) -> Result<(), String> {
        match vs {
            VSlot::A(s) if bu.fixed_arrays.iter().any(|f| f.0 == s) => {
                Err(format!("allocation status of fixed frame array slot {s} is not variable"))
            }
            _ => Ok(()),
        }
    }

    // ---------- per-instruction structural checks ----------

    #[allow(clippy::too_many_lines)]
    fn structural(&self, pc: u32, ins: &BInstr) -> Result<(), Violation> {
        use BInstr::*;
        let bu = self.bu;
        let n = bu.code.len() as u32;
        let at = |m: String| (pc, m);
        let tgt = |t: u32, what: &str| -> Result<(), Violation> {
            if t > n {
                Err(at(format!("{what} target {t} out of range (unit has {n} instructions)")))
            } else {
                Ok(())
            }
        };
        let islot = |s: u32, what: &str| -> Result<(), Violation> {
            if s >= bu.ni {
                Err(at(format!("{what} i-slot {s} out of range (ni={})", bu.ni)))
            } else {
                Ok(())
            }
        };
        let msg_ok = |m: u32| -> Result<(), Violation> {
            if m as usize >= bu.msgs.len() {
                Err(at(format!("message index {m} out of range ({} messages)", bu.msgs.len())))
            } else {
                Ok(())
            }
        };
        match *ins {
            LoadI(s) | StoreI(s) => islot(s, "scalar")?,
            LoadF(s) | StoreF(s) => {
                if s >= bu.nf {
                    return Err(at(format!("f-slot {s} out of range (nf={})", bu.nf)));
                }
            }
            LoadB(s) | StoreB(s) => {
                if s >= bu.nb {
                    return Err(at(format!("b-slot {s} out of range (nb={})", bu.nb)));
                }
            }
            LoadG(c) | StoreG(c) => self.glob_ok(c).map_err(at)?,
            FailType { msg } | Stop { msg } => msg_ok(msg)?,
            StashElem { vs, v, nsubs, .. } | AtomicElem { vs, v, nsubs, .. } => {
                self.slot_ok(bu, vs).map_err(at)?;
                self.var_ok(v).map_err(at)?;
                rank_ok(nsubs).map_err(at)?;
            }
            Broadcast { vs, v, .. } | ArrRed { vs, v, .. } | PushArr { vs, v } => {
                self.slot_ok(bu, vs).map_err(at)?;
                self.var_ok(v).map_err(at)?;
            }
            AtomicScal { vs, v, .. } => {
                self.scalar_slot_ok(bu, vs).map_err(at)?;
                self.var_ok(v).map_err(at)?;
            }
            AllocatedQ { vs } => {
                self.slot_ok(bu, vs).map_err(at)?;
                Self::not_fixed(bu, vs).map_err(at)?;
            }
            CopyArr { dvs, dv, svs, sv } => {
                self.slot_ok(bu, dvs).map_err(at)?;
                self.slot_ok(bu, svs).map_err(at)?;
                self.var_ok(dv).map_err(at)?;
                self.var_ok(sv).map_err(at)?;
            }
            LoadElemS { vs, v, subs, n, sd, .. } | StoreElemS { vs, v, subs, n, sd, .. } => {
                self.slot_ok(bu, vs).map_err(at)?;
                self.var_ok(v).map_err(at)?;
                // The VM gathers the subscripts into a fixed buffer and
                // reads `Slot` operands straight from the i-bank.
                rank_ok(n).map_err(at)?;
                let ops = self.sub_operands(subs, n).map_err(at)?;
                for op in ops {
                    if let SubOp::Slot(s) = *op {
                        islot(s, "subscript operand")?;
                    }
                }
                if sd != NO_SDIMS {
                    let shape = bu
                        .sdims
                        .get(sd as usize)
                        .ok_or_else(|| at(format!("shape descriptor {sd} out of range")))?;
                    if !matches!(vs, VSlot::A(_)) {
                        return Err(at(format!("static shape on non-frame-array slot {vs:?}")));
                    }
                    if shape.dims.len() != n as usize || shape.strides.len() != n as usize {
                        return Err(at(format!(
                            "static shape of rank {} referenced with {n} subscripts",
                            shape.dims.len()
                        )));
                    }
                }
            }
            Alloc { vs, v, .. } | Dealloc { vs, v } => {
                if let Alloc { ndims, .. } = *ins {
                    rank_ok(ndims).map_err(at)?;
                }
                self.slot_ok(bu, vs).map_err(at)?;
                self.var_ok(v).map_err(at)?;
                if matches!(vs, VSlot::I(_) | VSlot::F(_) | VSlot::B(_)) {
                    return Err(at("ALLOCATE/DEALLOCATE of a scalar slot".into()));
                }
                Self::not_fixed(bu, vs).map_err(at)?;
                // Proven vector streams rely on a fixed global keeping
                // the array built with its declared dims.
                if let VSlot::GlobA(c) | VSlot::GlobS(c) = vs {
                    if self.prog.globals.get(c as usize).is_some_and(fixed_global) {
                        return Err(at(format!(
                            "ALLOCATE/DEALLOCATE of fixed-shape global cell {c}"
                        )));
                    }
                }
            }
            Jump(t) => tgt(t, "jump")?,
            JumpIfFalse(t) => tgt(t, "branch")?,
            DoInitC { ctr, left } | DoInitK { ctr, left, .. } => {
                islot(ctr, "DO counter")?;
                islot(left, "DO trips")?;
            }
            SetI { dst, aff } => {
                islot(dst, "SetI destination")?;
                let a = bu.affine.get(aff as usize).ok_or_else(|| {
                    at(format!("affine entry {aff} out of range ({} in table)", bu.affine.len()))
                })?;
                for &(s, _) in &a.terms {
                    islot(s, "affine term")?;
                }
            }
            DoInit { ctr, left, step, check } => {
                islot(ctr, "DO counter")?;
                islot(left, "DO trips")?;
                islot(step, "DO step")?;
                if !check {
                    // The compiler only elides the runtime zero-step check
                    // when the step folded to a constant it proved
                    // non-zero — which it pushes immediately before.
                    let prev = pc.checked_sub(1).map(|p| &bu.code[p as usize]);
                    match prev {
                        Some(&Const(bits)) if bits as i64 != 0 => {}
                        _ => {
                            return Err(at(
                                "unchecked DO step is not a non-zero constant".into(),
                            ));
                        }
                    }
                }
            }
            DoHead { ctr, left, var, exit } => {
                islot(ctr, "DO counter")?;
                islot(left, "DO trips")?;
                islot(var, "DO variable")?;
                tgt(exit, "loop exit")?;
            }
            VecLoop { desc, ctr, left, var, exit } => {
                islot(ctr, "DO counter")?;
                islot(left, "DO trips")?;
                islot(var, "DO variable")?;
                tgt(exit, "vector loop exit")?;
                self.vec_desc_ok(desc).map_err(at)?;
                // A span's fused region is priced from the span's loops,
                // by its `SpanEnter` (`span_ok`).
                let fused = bu.spans.iter().enumerate().any(|(k, sd)| {
                    let enter = sd.s.0.checked_sub(1).and_then(|p| bu.code.get(p as usize));
                    let named = matches!(enter, Some(SpanEnter { span }) if *span as usize == k);
                    sd.fused == pc && named
                });
                if !fused {
                    self.region_ok(pc, desc, exit).map_err(at)?;
                }
            }
            DoIncr1 { ctr, head } => {
                islot(ctr, "DO counter")?;
                tgt(head, "loop head")?;
            }
            DoIncr { ctr, step, head } => {
                islot(ctr, "DO counter")?;
                islot(step, "DO step")?;
                tgt(head, "loop head")?;
            }
            Critical { name, end, exit, cycle } => {
                msg_ok(name)?;
                tgt(end, "CRITICAL end")?;
                if end < pc + 1 {
                    return Err(at("CRITICAL body ends before it starts".into()));
                }
                if exit != NO_PC {
                    tgt(exit, "CRITICAL exit")?;
                }
                if cycle != NO_PC {
                    tgt(cycle, "CRITICAL cycle")?;
                }
            }
            OmpDo { desc } => {
                let od = bu
                    .omps
                    .get(desc as usize)
                    .ok_or_else(|| at(format!("OMP descriptor {desc} out of range")))?;
                if od.dims.is_empty() {
                    return Err(at("OMP descriptor has no loop dimensions".into()));
                }
                for &(vs, _) in &od.dims {
                    self.scalar_slot_ok(bu, vs).map_err(at)?;
                }
                let (blo, bhi) = od.body;
                if blo > bhi {
                    return Err(at(format!("OMP body range {blo}..{bhi} is reversed")));
                }
                tgt(bhi, "OMP body end")?;
                for &pa in &od.private_arrays {
                    if pa >= bu.na {
                        return Err(at(format!("PRIVATE array slot {pa} out of range")));
                    }
                }
                for spec in &od.reductions {
                    self.scalar_slot_ok(bu, spec.vs).map_err(at)?;
                }
                match od.sched {
                    omprt::Schedule::StaticChunk(0)
                    | omprt::Schedule::Dynamic(0)
                    | omprt::Schedule::Guided(0) => {
                        return Err(at("OMP schedule chunk must be >= 1".into()));
                    }
                    _ => {}
                }
            }
            Call { spec, push } => {
                let cs = bu
                    .calls
                    .get(spec as usize)
                    .ok_or_else(|| at(format!("call spec {spec} out of range")))?;
                let callee = self
                    .bunits
                    .get(cs.callee as usize)
                    .ok_or_else(|| at(format!("callee unit {} out of range", cs.callee)))?;
                let cunit = self
                    .prog
                    .units
                    .get(cs.callee as usize)
                    .ok_or_else(|| at(format!("callee unit {} out of range", cs.callee)))?;
                if cs.args.len() != cunit.params.len() {
                    return Err(at(format!(
                        "call to `{}` passes {} args, callee takes {}",
                        cunit.name,
                        cs.args.len(),
                        cunit.params.len()
                    )));
                }
                let stash: u32 = cs
                    .args
                    .iter()
                    .map(|a| match *a {
                        BArg::Elem { nsubs, .. } => u32::from(nsubs),
                        _ => 0,
                    })
                    .sum();
                if stash != cs.n_stash {
                    return Err(at(format!(
                        "call stash count {} disagrees with arguments ({stash})",
                        cs.n_stash
                    )));
                }
                if push && cs.ret.is_none() {
                    return Err(at("call pushes a result but the callee has none".into()));
                }
                if let Some((rvs, _)) = cs.ret {
                    self.scalar_slot_ok(callee, rvs).map_err(at)?;
                }
                for arg in &cs.args {
                    match *arg {
                        BArg::Scalar { src_vs, src_v, p, .. } => {
                            self.scalar_slot_ok(bu, src_vs).map_err(at)?;
                            self.var_ok(src_v).map_err(at)?;
                            self.scalar_slot_ok(callee, p).map_err(at)?;
                        }
                        BArg::Val { p, .. } => self.scalar_slot_ok(callee, p).map_err(at)?,
                        BArg::Elem { vs, v, nsubs, p, .. } => {
                            rank_ok(nsubs).map_err(at)?;
                            self.slot_ok(bu, vs).map_err(at)?;
                            self.var_ok(v).map_err(at)?;
                            self.scalar_slot_ok(callee, p).map_err(at)?;
                        }
                        BArg::Arr { p } => {
                            if p >= callee.na {
                                return Err(at(format!(
                                    "array argument slot {p} out of callee range (na={})",
                                    callee.na
                                )));
                            }
                        }
                    }
                }
                // An array argument binds its dummy's slot and no other:
                // `VecDesc::write_pairs` proves non-dummy frame arrays
                // apart on the strength of it.
                for (k, arg) in cs.args.iter().enumerate() {
                    if let BArg::Arr { p } = *arg {
                        let dummy = callee.vslots.get(cunit.params[k]);
                        if dummy != Some(&VSlot::A(p)) {
                            return Err(at(format!(
                                "array argument {k} binds callee slot {p}, not its dummy's"
                            )));
                        }
                    }
                }
            }
            Print { spec } => {
                if spec as usize >= bu.prints.len() {
                    return Err(at(format!("print spec {spec} out of range")));
                }
            }
            InlineEnter { desc } | InlineExit { desc } => self.inline_ok(desc).map_err(at)?,
            SpanEnter { span } => self.span_ok(pc, span).map_err(at)?,
            // Pure stack/cost instructions carry no indices.
            Const(_) | CvtIF | CvtFI | CvtIB | CvtFB | AddF | SubF | MulF | DivF | PowFF
            | PowFI | NegF | AddI | SubI | MulI | DivI | PowII | NegI | NotB | AndB | OrB
            | CmpF(_) | CmpI(_) | FailArith2 | FailNegB | IntrI { .. } | IntrF { .. }
            | CostBranch | VecEnter(_) | VecLeave | CheckStepNZ | FlowExit | FlowCycle
            | FlowReturn | CallPre => {}
        }
        Ok(())
    }

    // ---------- stack-depth abstract interpretation ----------

    fn dataflow(&self) -> Result<(), Violation> {
        let n = self.bu.code.len();
        let mut state: Vec<Option<Depth>> = vec![None; n + 1];
        let mut work: Vec<u32> = Vec::new();
        // Successors of a branching pc, reused across the walk.
        let mut succ: Vec<(u32, Depth)> = Vec::with_capacity(4);
        join(&mut state, &mut work, 0, EMPTY, 0)?;
        while let Some(mut pc) = work.pop() {
            if pc as usize == n {
                continue; // virtual exit node; depth checked in `join`
            }
            let Some(mut d) = state[pc as usize] else { continue };
            loop {
                let pcu = pc as usize;
                succ.clear();
                match self.step(pc, self.bu.code[pcu], d, &mut succ)? {
                    // Straight-line flow into a pc not seen yet goes on
                    // here: the worklist would pop it next anyway.
                    Some(nd) if pcu + 1 < n && state[pcu + 1].is_none() => {
                        state[pcu + 1] = Some(nd);
                        (pc, d) = (pc + 1, nd);
                    }
                    Some(nd) => {
                        join(&mut state, &mut work, pc + 1, nd, pc)?;
                        break;
                    }
                    None => {
                        for &(t, nd) in &succ {
                            join(&mut state, &mut work, t, nd, pc)?;
                        }
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Transfer function. An instruction whose one successor is `pc + 1`
    /// returns that successor's entry depths; any other pushes its
    /// successors with their entry depths onto `succ` and returns `None`.
    /// Terminators push none.
    fn step(
        &self,
        pc: u32,
        ins: BInstr,
        d: Depth,
        succ: &mut Vec<(u32, Depth)>,
    ) -> Result<Option<Depth>, Violation> {
        use BInstr::*;
        let (mut s, mut a, mut t, mut open) = d;
        let pop = |s: &mut u32, n: u32| -> Result<(), Violation> {
            if *s < n {
                Err((pc, format!("operand stack underflow: need {n}, have {}", *s)))
            } else {
                *s -= n;
                Ok(())
            }
        };
        match ins {
            Const(_) | LoadI(_) | LoadF(_) | LoadB(_) | LoadG(_) | ArrRed { .. }
            | AllocatedQ { .. } => s += 1,
            StoreI(_) | StoreF(_) | StoreB(_) | StoreG(_) | Broadcast { .. }
            | AtomicScal { .. } => pop(&mut s, 1)?,
            CvtIF | CvtFI | CvtIB | CvtFB | NegF | NegI | NotB => {
                pop(&mut s, 1)?;
                s += 1;
            }
            AddF | SubF | MulF | DivF | PowFF | PowFI | AddI | SubI | MulI | DivI | PowII
            | AndB | OrB | CmpF(_) | CmpI(_) => {
                pop(&mut s, 2)?;
                s += 1;
            }
            FailArith2 | FailNegB | FailType { .. } | Stop { .. } => return Ok(None),
            IntrI { argc, .. } | IntrF { argc, .. } => {
                pop(&mut s, u32::from(argc))?;
                s += 1;
            }
            LoadElemS { subs, n, .. } => {
                pop(&mut s, self.stack_operands(pc, subs, n)?)?;
                s += 1;
            }
            StoreElemS { subs, n, .. } => pop(&mut s, 1 + self.stack_operands(pc, subs, n)?)?,
            AtomicElem { nsubs, .. } => pop(&mut s, u32::from(nsubs) + 1)?,
            Alloc { ndims, .. } => pop(&mut s, 2 * u32::from(ndims))?,
            CopyArr { .. } | Dealloc { .. } | CostBranch | VecEnter(_) | VecLeave | CallPre
            | SetI { .. } | DoInitK { .. } => {}
            Jump(tg) => {
                succ.push((tg, (s, a, t, open)));
                return Ok(None);
            }
            JumpIfFalse(tg) => {
                pop(&mut s, 1)?;
                succ.extend([(pc + 1, (s, a, t, open)), (tg, (s, a, t, open))]);
                return Ok(None);
            }
            DoInitC { .. } => pop(&mut s, 2)?,
            DoInit { .. } => pop(&mut s, 3)?,
            DoHead { exit, .. } => {
                succ.extend([(pc + 1, d), (exit, d)]);
                return Ok(None);
            }
            // A vector loop either completes and jumps to `exit` or falls
            // through to its scalar head; its lane stack is internal to
            // the descriptor (checked structurally), so both successors
            // see the incoming depths unchanged.
            VecLoop { exit, .. } => {
                succ.extend([(pc + 1, d), (exit, d)]);
                return Ok(None);
            }
            DoIncr1 { head, .. } | DoIncr { head, .. } => {
                succ.push((head, d));
                return Ok(None);
            }
            CheckStepNZ => {
                if s == 0 {
                    return Err((pc, "operand stack underflow: need 1, have 0".into()));
                }
            }
            FlowExit | FlowCycle | FlowReturn => {
                if d != EMPTY {
                    return Err((
                        pc,
                        format!("EXIT/CYCLE/RETURN with non-empty stacks or open block {d:?}"),
                    ));
                }
                return Ok(None);
            }
            Critical { end, exit, cycle, .. } => {
                succ.extend([(pc + 1, d), (end, d)]);
                if exit != NO_PC {
                    succ.push((exit, d));
                }
                if cycle != NO_PC {
                    succ.push((cycle, d));
                }
                return Ok(None);
            }
            OmpDo { desc } => {
                let od = &self.bu.omps[desc as usize];
                let npop = 3 + 2 * (od.dims.len() as u32 - 1) + u32::from(od.has_nt);
                pop(&mut s, npop)?;
                if (s, a, t, open) != EMPTY {
                    return Err((
                        pc,
                        format!(
                            "OMP region entered with non-empty stacks ({s}, {a}, {t}) or \
                             in inlined block {open}"
                        ),
                    ));
                }
                // Body runs on a worker's fresh stacks; after the region
                // execution resumes at the body end.
                succ.extend([(od.body.0, EMPTY), (od.body.1, EMPTY)]);
                return Ok(None);
            }
            StashElem { nsubs, .. } => {
                pop(&mut s, u32::from(nsubs))?;
                s += 1;
                t += u32::from(nsubs);
            }
            PushArr { .. } => a += 1,
            Call { spec, push } => {
                let cs = &self.bu.calls[spec as usize];
                let (mut ops, mut arrs) = (0u32, 0u32);
                for arg in &cs.args {
                    match arg {
                        BArg::Arr { .. } => arrs += 1,
                        _ => ops += 1,
                    }
                }
                pop(&mut s, ops)?;
                if a < arrs {
                    return Err((pc, format!("array stack underflow: need {arrs}, have {a}")));
                }
                a -= arrs;
                if t < cs.n_stash {
                    return Err((
                        pc,
                        format!("subscript stash underflow: need {}, have {t}", cs.n_stash),
                    ));
                }
                t -= cs.n_stash;
                if push {
                    s += 1;
                }
            }
            Print { spec } => {
                let nv = self.bu.prints[spec as usize]
                    .iter()
                    .filter(|i| matches!(i, PItem::Val(_)))
                    .count() as u32;
                pop(&mut s, nv)?;
            }
            // Blocks nest: an entry opens inside the block it names as
            // outer, an exit closes the innermost one.
            InlineEnter { desc } => {
                let outer = self.bu.inlines[desc as usize].outer;
                if open != outer {
                    let m = format!("inlined block {desc} entered in block {open}, not {outer}");
                    return Err((pc, m));
                }
                open = desc;
            }
            // The span's S and its fused region run, and the region
            // commits or falls through to the original statements; a
            // fault in S or a refused `SpanEnter` goes to them directly,
            // with the depths `SpanEnter` found.
            SpanEnter { span } => {
                let sd = &self.bu.spans[span as usize];
                succ.extend([(pc + 1, d), (sd.fused + 1, d)]);
                return Ok(None);
            }
            InlineExit { desc } => {
                if open != desc {
                    let m = format!("inlined block {desc} left while block {open} is open");
                    return Err((pc, m));
                }
                open = self.bu.inlines[desc as usize].outer;
            }
        }
        Ok(Some((s, a, t, open)))
    }

    // ---------- vector descriptor checks ----------

    /// Validates one vector-loop descriptor: every access names an
    /// in-range array slot, every lane program references only declared
    /// accesses/slots and balances its lane stack within the declared
    /// depth, map statements end in a store to a written access, and an
    /// accumulator statement leaves one lane vector to fold into a
    /// scalar f64 slot, whose running value only the statements after
    /// it read. The VM's chunked executor indexes lanes and access
    /// streams without bounds checks on the strength of these.
    fn vec_desc_ok(&self, desc: u32) -> Result<(), String> {
        let bu = self.bu;
        let d = bu
            .vecs
            .get(desc as usize)
            .ok_or_else(|| format!("vector descriptor {desc} out of range"))?;
        if d.max_depth > VEC_MAX_DEPTH {
            return Err(format!("vector lane depth {} exceeds cap {VEC_MAX_DEPTH}", d.max_depth));
        }
        // The emitter patches in the scalar cost of head-through-incr,
        // which is at least 2; the VM's step pre-reserve and the native
        // tier's safepoint cadence both scale by it.
        if d.iter_cost == 0 {
            return Err(format!("vector descriptor {desc} has zero iteration cost"));
        }
        // The entry resolves the streams into a table of this length
        // owned by its caller. Proven streams skip the shape and bounds
        // checks there (one window test covers them all), so their
        // proofs are re-derived below from the slots' static shapes;
        // the alias walk compares `alias_pairs` instead of all pairs,
        // and the handle prefetch walks `globals` instead of every
        // access and guarded load.
        if d.accesses.len() > VEC_MAX_ACCESSES {
            return Err(format!(
                "vector descriptor has {} accesses, cap is {VEC_MAX_ACCESSES}",
                d.accesses.len()
            ));
        }
        let unit = &self.prog.units[bu.unit as usize];
        if d.alias_pairs != VecDesc::write_pairs(&d.accesses, &dummy_arrays(unit, &bu.vslots)) {
            return Err("vector alias pair list disagrees with the accesses".into());
        }
        for a in &d.accesses {
            self.slot_ok(bu, a.vs)?;
            self.var_ok(a.v)?;
            if !matches!(a.vs, VSlot::A(_) | VSlot::GlobA(_)) {
                return Err(format!("vector access slot {:?} is not an array", a.vs));
            }
            if a.subs.is_empty() {
                return Err("vector access has no subscripts".into());
            }
            for sub in &a.subs {
                if sub.inv != NO_SLOT && sub.inv >= bu.ni {
                    return Err(format!("vector subscript invariant i-slot {} out of range", sub.inv));
                }
            }
            if a.write && a.subs.iter().all(|s| s.coeff == 0) {
                return Err("vector write stream does not advance with the loop".into());
            }
        }
        let (proofs, window) = prove_streams(&d.accesses, &bu.fixed_arrays, &self.prog.globals);
        for (k, (a, proof)) in d.accesses.iter().zip(proofs).enumerate() {
            let shape = static_shape(a.vs, &bu.fixed_arrays, &self.prog.globals);
            if let (Some(_), Some((ty, _))) = (a.proven, shape) {
                if ty != a.ty {
                    return Err(format!(
                        "proven vector access {k} reads {:?}, its slot is declared {ty:?}",
                        a.ty
                    ));
                }
            }
            if a.proven != proof {
                return Err(format!(
                    "vector access {k} carries proof {:?}, its slot's shape gives {proof:?}",
                    a.proven
                ));
            }
        }
        if d.window != window {
            return Err(format!(
                "vector window {:?} disagrees with the proven accesses' {window:?}",
                d.window
            ));
        }
        if d.globals != global_cells(&d.accesses, &d.guarded) {
            return Err("vector global-cell list disagrees with the accesses".into());
        }
        // The entry gathers a guarded load's subscripts into a fixed
        // buffer and reads `Slot` operands and writes `slot` unchecked.
        for g in &d.guarded {
            self.slot_ok(bu, g.vs)?;
            self.var_ok(g.v)?;
            if !matches!(g.vs, VSlot::A(_) | VSlot::GlobA(_)) {
                return Err(format!("guarded load slot {:?} is not an array", g.vs));
            }
            if g.slot >= bu.ni {
                return Err(format!("guarded load target i-slot {} out of range", g.slot));
            }
            if g.subs.is_empty() || g.subs.len() > MAX_INLINE_RANK {
                return Err(format!("guarded load has {} subscripts", g.subs.len()));
            }
            for op in &g.subs {
                match *op {
                    SubOp::Const(_) => {}
                    SubOp::Slot(s) if s < bu.ni => {}
                    op => return Err(format!("guarded load subscript operand {op:?} invalid")),
                }
            }
        }
        if let Some(&(slot, _)) = d.exit_state.iter().find(|&&(slot, _)| slot >= bu.ni) {
            return Err(format!("vector exit-state i-slot {slot} out of range"));
        }
        if let Some(sel) = &d.sel {
            self.select_ok(d, sel)?;
        }
        if let Some(r) = d.red {
            match r.vs {
                VSlot::F(s) if s < bu.nf => {}
                VSlot::GlobS(c) if (c as usize) < self.prog.globals.len() => {}
                vs => return Err(format!("vector reduction accumulator slot {vs:?} invalid")),
            }
            if r.stmt as usize >= d.stmts.len() {
                return Err(format!(
                    "vector accumulator statement {} out of range ({} statements)",
                    r.stmt,
                    d.stmts.len()
                ));
            }
        }
        for (k, ops) in d.stmts.iter().enumerate() {
            let acc_stmt = d.red.is_some_and(|r| r.stmt as usize == k);
            for op in ops {
                match *op {
                    // The running value's lanes are filled by the fold
                    // after the accumulator statement, chunk by chunk.
                    VecOp::Running => match d.red {
                        None => {
                            return Err(
                                "vector running-value read in a descriptor with no accumulator"
                                    .into(),
                            );
                        }
                        Some(r) if k <= r.stmt as usize => {
                            return Err(format!(
                                "vector running-value read in statement {k} does not follow \
                                 the accumulator statement {}",
                                r.stmt
                            ));
                        }
                        Some(_) => {}
                    },
                    VecOp::Load(ai) | VecOp::Store(ai) => {
                        if ai as usize >= d.accesses.len() {
                            return Err(format!(
                                "vector op references access {ai}, descriptor has {}",
                                d.accesses.len()
                            ));
                        }
                        let a = &d.accesses[ai as usize];
                        if matches!(*op, VecOp::Store(_)) && !a.write {
                            return Err(format!("vector store to read-only access {ai}"));
                        }
                        if a.ty != ScalarTy::F {
                            return Err(format!("vector lane op on {:?} access {ai}", a.ty));
                        }
                    }
                    VecOp::SplatF(s) if s >= bu.nf => {
                        return Err(format!("vector splat f-slot {s} out of range"));
                    }
                    VecOp::SplatG(c) => self.glob_ok(c)?,
                    VecOp::SplatI { inv, .. } if inv != NO_SLOT && inv >= bu.ni => {
                        return Err(format!("vector splat invariant i-slot {inv} out of range"));
                    }
                    VecOp::Intr { argc, .. } if argc == 0 || u32::from(argc) > 8 => {
                        return Err(format!("vector intrinsic arity {argc} out of range"));
                    }
                    _ => {}
                }
            }
            let Some((fin, max)) = vec_stack_effect(ops) else {
                return Err("vector statement underflows its lane stack".into());
            };
            let want = u32::from(acc_stmt);
            if fin != want {
                return Err(format!(
                    "vector statement leaves {fin} lanes on the stack, expected {want}"
                ));
            }
            if max > d.max_depth {
                return Err(format!(
                    "vector statement needs {max} lanes, descriptor declares {}",
                    d.max_depth
                ));
            }
            if !acc_stmt && !matches!(ops.last(), Some(VecOp::Store(_))) {
                return Err("vector map statement does not end in a store".into());
            }
        }
        Ok(())
    }

    /// A masked select: the only lane program is the mask, over INTEGER
    /// read streams, balanced to one LOGICAL lane vector within the
    /// declared depth; the accumulator is a frame INTEGER slot and the
    /// fold an INTEGER `MAX`/`MIN`. The select executor indexes lanes
    /// and streams unchecked on the strength of these.
    fn select_ok(&self, d: &VecDesc, sel: &VecSel) -> Result<(), String> {
        let bu = self.bu;
        if !d.stmts.is_empty() || d.red.is_some() {
            return Err("vector select descriptor also has lane statements".into());
        }
        if sel.acc >= bu.ni {
            return Err(format!("vector select accumulator i-slot {} out of range", sel.acc));
        }
        if !matches!(sel.f, Intr::Max | Intr::Min) {
            return Err(format!("vector select folds with {:?}", sel.f));
        }
        let inv_ok = |s: &VecSub| s.inv == NO_SLOT || s.inv < bu.ni;
        if !inv_ok(&sel.term) {
            let inv = sel.term.inv;
            return Err(format!("vector select term invariant i-slot {inv} out of range"));
        }
        for op in &sel.mask {
            match *op {
                MaskOp::Load(ai) => match d.accesses.get(ai as usize) {
                    Some(a) if a.ty == ScalarTy::I && !a.write => {}
                    _ => return Err(format!("vector mask loads access {ai}, not an INTEGER read")),
                },
                MaskOp::Affine(s) if !inv_ok(&s) => {
                    return Err(format!("vector mask invariant i-slot {} out of range", s.inv));
                }
                _ => {}
            }
        }
        match mask_stack_effect(&sel.mask) {
            Some((1, max)) if max <= d.max_depth => Ok(()),
            _ => Err("vector mask does not leave one lane vector within its depth".into()),
        }
    }

    // ---------- helpers ----------

    /// The operand run `subops[first..first + n]` of an element access.
    fn sub_operands(&self, first: u32, n: u8) -> Result<&[SubOp], String> {
        let (lo, n) = (first as usize, n as usize);
        self.bu.subops.get(lo..lo + n).ok_or_else(|| {
            format!(
                "subscript operands {lo}..{} out of range ({} in table)",
                lo + n,
                self.bu.subops.len()
            )
        })
    }

    /// How many of an access's operands are popped from the stack.
    fn stack_operands(&self, pc: u32, first: u32, n: u8) -> Result<u32, Violation> {
        let ops = self.sub_operands(first, n).map_err(|m| (pc, m))?;
        Ok(ops.iter().filter(|op| **op == SubOp::Stack).count() as u32)
    }

    /// An inlined block's descriptor: its unit exists, its nesting is
    /// consistent, and its reset ranges lie inside the frame banks and
    /// hold no dummy array, whose slot binds the caller's array.
    fn inline_ok(&self, desc: u32) -> Result<(), String> {
        let bu = self.bu;
        let d = bu
            .inlines
            .get(desc as usize)
            .ok_or_else(|| format!("inline descriptor {desc} out of range"))?;
        if d.unit as usize >= self.prog.units.len() {
            return Err(format!("inlined unit {} out of range", d.unit));
        }
        // The VM follows `outer` to the outermost block.
        let o = d.outer;
        if o != NO_PC && o >= desc {
            return Err(format!("inline descriptor {desc} nests in descriptor {o}, not before it"));
        }
        for ((lo, hi), n, bank) in
            [(d.i, bu.ni, 'i'), (d.f, bu.nf, 'f'), (d.b, bu.nb, 'b'), (d.a, bu.na, 'a')]
        {
            if lo > hi || hi > n {
                return Err(format!("inline reset {bank}-slots {lo}..{hi} out of range ({n})"));
            }
        }
        let unit = &self.prog.units[bu.unit as usize];
        let reset = d.a.0..d.a.1;
        if let Some(s) = dummy_arrays(unit, &bu.vslots).into_iter().find(|s| reset.contains(s)) {
            return Err(format!("inline reset covers dummy array slot {s}"));
        }
        Ok(())
    }

    /// A `VecLoop` region at `pc` against the scalar loop `[pc + 1, exit)`
    /// it shadows, which it leaves where that loop does. A committed
    /// entry reserves `trip x iter_cost` steps (plus `taken x
    /// taken_cost` for a masked select) and a Simulated one posts `trip
    /// x iter_ledger` in place of the loop, so all three must be what
    /// that loop — inner constant-trip loops included — retires and
    /// posts (a nest or a select has no ledger).
    fn region_ok(&self, pc: u32, desc: u32, exit: u32) -> Result<(), String> {
        let (code, d) = (&self.bu.code, &self.bu.vecs[desc as usize]);
        let Some(cost) = region_cost(code, pc as usize + 1, exit as usize) else {
            return Err(format!(
                "vector descriptor {desc}: the loop it shadows is not straight-line code and \
                 constant-trip nests, nor a masked select"
            ));
        };
        if !matches!(code[pc as usize + 1], BInstr::DoHead { exit: e, .. } if e == exit) {
            return Err(format!("vector descriptor {desc}: exit {exit} is not its scalar loop's"));
        }
        if d.iter_cost != cost.iter {
            return Err(format!(
                "vector descriptor {desc}: iteration cost {} disagrees with the scalar loop ({})",
                d.iter_cost, cost.iter
            ));
        }
        if d.taken_cost != cost.taken || d.sel.is_some() != (cost.taken > 0) {
            return Err(format!(
                "vector descriptor {desc}: taken-IF cost {} (select: {}) disagrees with the \
                 scalar loop ({})",
                d.taken_cost,
                d.sel.is_some(),
                cost.taken
            ));
        }
        if d.iter_ledger != cost.ledger {
            return Err(format!(
                "vector descriptor {desc}: iteration ledger disagrees with the scalar loop"
            ));
        }
        if d.exit_state != nest_exit_state(code, pc as usize + 1, exit as usize) {
            return Err(format!(
                "vector descriptor {desc}: exit state disagrees with the scalar loop"
            ));
        }
        Ok(())
    }

    /// A fused span's descriptor, re-derived from the code: the layout
    /// [`crate::bytecode::SpanDesc`] documents; the step constant and
    /// the fused region's costs from the original loops ([`span_cost`]);
    /// an S that writes only frame scalars and transfers control only
    /// within itself, the same instructions as the original statements'
    /// S in order; and each S independent of the original loops before
    /// it — it writes no slot they read or write and reads none they
    /// write, and reads no array that may be one they store to.
    /// Speculating S ahead of those loops is exact on the strength of
    /// that.
    fn span_ok(&self, pc: u32, span: u32) -> Result<(), String> {
        let bu = self.bu;
        let code = &bu.code;
        let d = bu.spans.get(span as usize).ok_or_else(|| format!("span {span} out of range"))?;
        let (lo, hi) = d.s;
        let Some(&BInstr::VecLoop { desc, exit: end, .. }) = code.get(d.fused as usize) else {
            return Err(format!("span {span} fuses no vector loop at {}", d.fused));
        };
        if !(lo == pc + 1 && lo <= hi && hi <= d.fused) || end > code.len() as u32 {
            return Err(format!("span {span} ranges out of order: {d:?}"));
        }
        let v = bu
            .vecs
            .get(desc as usize)
            .ok_or_else(|| format!("span {span}: no descriptor {desc}"))?;
        if v.red.is_some() || v.sel.is_some() {
            return Err(format!("span {span}: its region is not map statements alone"));
        }
        // The original loops tile what the region falls through to, an S
        // between each two, up to the region's exit.
        let mut between = Vec::new();
        let mut at = d.fused + 1;
        for (k, &(start, head)) in d.loops.iter().enumerate() {
            let Some(&BInstr::DoHead { exit, .. }) = code.get(head as usize) else {
                return Err(format!("span {span}: loop {k} has no head at {head}"));
            };
            let placed = start >= at && (k > 0 || start == at) && start < head && head < exit;
            if !placed || exit > end {
                return Err(format!("span {span}: loop {k} ({start}, {head}) out of place"));
            }
            if k > 0 {
                between.push((at, start));
            }
            at = exit;
        }
        if d.loops.len() < 2 || at != end {
            return Err(format!("span {span}: its loops do not end it"));
        }
        let region =
            SpanCost { fixed: d.fixed, iter: v.iter_cost, exit_state: v.exit_state.clone() };
        if span_cost(code, &d.loops, (hi, d.fused)) != Some(region)
            || (v.taken_cost, v.iter_ledger) != (0, None)
        {
            return Err(format!(
                "span {span}: its step constant {} or its region's costs disagree with its loops",
                d.fixed
            ));
        }
        let kind = |p: u32| std::mem::discriminant(&code[p as usize]);
        let slow_s = between.iter().flat_map(|&(a, b)| a..b).map(kind);
        if !slow_s.eq((lo..hi).map(kind)) {
            return Err(format!("span {span}: its S is not `slow`'s"));
        }
        for p in lo..hi {
            self.speculable(code[p as usize], (lo, hi))
                .map_err(|m| format!("span {span}: S at {p} {m}"))?;
        }
        // Each S of `fast` against the loops `slow` runs before it.
        let dummies = dummy_arrays(&self.prog.units[bu.unit as usize], &bu.vslots);
        let (mut s_at, mut loops) = (lo, Vec::new());
        for (k, &(a, b)) in between.iter().enumerate() {
            let s = self.slot_use(s_at, s_at + (b - a));
            s_at += b - a;
            if a == b {
                continue;
            }
            for &(start, head) in &d.loops[loops.len()..=k] {
                let BInstr::DoHead { exit, .. } = code[head as usize] else { unreachable!() };
                loops.push(self.slot_use(start, exit));
            }
            for (j, l) in loops.iter().enumerate() {
                if let Some(m) = s.conflict(l, &dummies) {
                    return Err(format!("span {span}: S {k} and loop {j} {m}"));
                }
            }
        }
        Ok(())
    }

    /// An instruction of a span's S, which runs `[s.0, s.1)` ahead of
    /// the loops before it: no store but to a frame scalar, no call,
    /// I/O, allocation, OMP or CRITICAL, and control flow only within S.
    fn speculable(&self, ins: BInstr, (lo, hi): (u32, u32)) -> Result<(), String> {
        use BInstr::*;
        let within = |t: u32| {
            if (lo..=hi).contains(&t) {
                Ok(())
            } else {
                Err(format!("leaves S for {t}"))
            }
        };
        match ins {
            Jump(t) | JumpIfFalse(t) => within(t),
            DoHead { exit, .. } => within(exit),
            DoIncr1 { head, .. } | DoIncr { head, .. } => within(head),
            VecLoop { desc, exit, .. } => {
                let v = &self.bu.vecs[desc as usize];
                if v.accesses.iter().any(|a| a.write)
                    || v.red.is_some_and(|r| !matches!(r.vs, VSlot::F(_)))
                {
                    return Err("runs a region that stores outside the frame scalars".into());
                }
                within(exit)
            }
            StoreG(_) | StoreElemS { .. } | AtomicScal { .. } | AtomicElem { .. }
            | Broadcast { .. } | CopyArr { .. } | Alloc { .. } | Dealloc { .. } | FlowExit
            | FlowCycle | FlowReturn | Critical { .. } | OmpDo { .. } | CallPre
            | StashElem { .. } | PushArr { .. } | Call { .. } | Print { .. } | Stop { .. }
            | SpanEnter { .. } | VecEnter(_) | VecLeave | CostBranch => {
                Err(format!("is {ins:?}, which S may not run"))
            }
            _ => Ok(()),
        }
    }

    /// The slots `code[lo..hi]` reads and writes, by bank.
    fn slot_use(&self, lo: u32, hi: u32) -> SlotUse {
        use BInstr::*;
        let bu = self.bu;
        let mut u = SlotUse::default();
        for &ins in &bu.code[lo as usize..hi as usize] {
            match ins {
                LoadI(s) => u.read.push(VSlot::I(s)),
                LoadF(s) => u.read.push(VSlot::F(s)),
                LoadB(s) => u.read.push(VSlot::B(s)),
                LoadG(c) => u.read.push(VSlot::GlobS(c)),
                StoreI(s) => u.write.push(VSlot::I(s)),
                StoreF(s) => u.write.push(VSlot::F(s)),
                StoreB(s) => u.write.push(VSlot::B(s)),
                StoreG(c) => u.write.push(VSlot::GlobS(c)),
                LoadElemS { vs, subs, n, .. } | StoreElemS { vs, subs, n, .. } => {
                    let ops = bu.subops.get(subs as usize..subs as usize + n as usize);
                    for op in ops.into_iter().flatten() {
                        if let SubOp::Slot(s) = *op {
                            u.read.push(VSlot::I(s));
                        }
                    }
                    match ins {
                        StoreElemS { .. } => u.write.push(vs),
                        _ => u.read.push(vs),
                    }
                }
                ArrRed { vs, .. } | AllocatedQ { vs } => u.read.push(vs),
                DoInitC { ctr, left } | DoInitK { ctr, left, .. } => {
                    u.write.extend([VSlot::I(ctr), VSlot::I(left)]);
                }
                SetI { dst, aff } => {
                    let terms = bu.affine.get(aff as usize).map(|a| &a.terms[..]);
                    u.read.extend(terms.unwrap_or_default().iter().map(|&(s, _)| VSlot::I(s)));
                    u.write.push(VSlot::I(dst));
                }
                DoInit { ctr, left, step, .. } => {
                    u.write.extend([VSlot::I(ctr), VSlot::I(left), VSlot::I(step)]);
                }
                DoHead { ctr, left, var, .. } => {
                    u.read.extend([VSlot::I(ctr), VSlot::I(left)]);
                    u.write.extend([VSlot::I(left), VSlot::I(var)]);
                }
                DoIncr1 { ctr, .. } | DoIncr { ctr, .. } => {
                    u.read.push(VSlot::I(ctr));
                    u.write.push(VSlot::I(ctr));
                }
                VecLoop { desc, ctr, left, var, .. } => {
                    u.read.extend([VSlot::I(ctr), VSlot::I(left)]);
                    u.write.extend([VSlot::I(ctr), VSlot::I(left), VSlot::I(var)]);
                    u.region(&bu.vecs[desc as usize]);
                }
                InlineEnter { desc } => {
                    let d = &bu.inlines[desc as usize];
                    u.write.extend((d.i.0..d.i.1).map(VSlot::I));
                    u.write.extend((d.f.0..d.f.1).map(VSlot::F));
                    u.write.extend((d.b.0..d.b.1).map(VSlot::B));
                    u.write.extend((d.a.0..d.a.1).map(VSlot::A));
                }
                _ => {}
            }
        }
        u
    }

    fn glob_ok(&self, c: u32) -> Result<(), String> {
        if c as usize >= self.prog.globals.len() {
            Err(format!("global cell {c} out of range ({} cells)", self.prog.globals.len()))
        } else {
            Ok(())
        }
    }

    /// Any storage slot within the owning unit's declared banks.
    fn slot_ok(&self, bu: &BUnit, vs: VSlot) -> Result<(), String> {
        let ok = match vs {
            VSlot::I(s) => s < bu.ni,
            VSlot::F(s) => s < bu.nf,
            VSlot::B(s) => s < bu.nb,
            VSlot::A(s) => s < bu.na,
            VSlot::GlobS(c) | VSlot::GlobA(c) => (c as usize) < self.prog.globals.len(),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("slot {vs:?} out of range"))
        }
    }

    /// A slot a scalar value can be read from / written to (the VM's
    /// `VFrame::read`/`write` reject array slots by panicking).
    fn scalar_slot_ok(&self, bu: &BUnit, vs: VSlot) -> Result<(), String> {
        match vs {
            VSlot::A(_) | VSlot::GlobA(_) => {
                Err(format!("array slot {vs:?} used as a scalar"))
            }
            _ => self.slot_ok(bu, vs),
        }
    }

    fn var_ok(&self, v: u32) -> Result<(), String> {
        let nvars = self.prog.units[self.bu.unit as usize].vars.len();
        if (v as usize) < nvars {
            Ok(())
        } else {
            Err(format!("variable index {v} out of range ({nvars} vars)"))
        }
    }
}

/// The storage a range of code reads and writes ([`Verifier::slot_use`]):
/// frame scalars and global scalars by slot, arrays by the slot that
/// holds them.
#[derive(Default)]
struct SlotUse {
    read: Vec<VSlot>,
    write: Vec<VSlot>,
}

impl SlotUse {
    /// A region's slots: its streams, invariants, accumulator, guarded
    /// loads and the inner loops' exit state.
    fn region(&mut self, v: &VecDesc) {
        let inv = |s: &VecSub| (s.inv != NO_SLOT).then_some(VSlot::I(s.inv));
        for a in &v.accesses {
            self.read.extend(a.subs.iter().filter_map(inv));
            if a.write {
                self.write.push(a.vs);
            } else {
                self.read.push(a.vs);
            }
        }
        for op in v.stmts.iter().flatten() {
            match *op {
                VecOp::SplatF(s) => self.read.push(VSlot::F(s)),
                VecOp::SplatG(c) => self.read.push(VSlot::GlobS(c)),
                VecOp::SplatI { inv, .. } if inv != NO_SLOT => self.read.push(VSlot::I(inv)),
                _ => {}
            }
        }
        if let Some(r) = v.red {
            self.read.push(r.vs);
            self.write.push(r.vs);
        }
        if let Some(sel) = &v.sel {
            self.read.push(VSlot::I(sel.acc));
            self.write.push(VSlot::I(sel.acc));
            self.read.extend(inv(&sel.term));
            for op in &sel.mask {
                if let MaskOp::Affine(s) = op {
                    self.read.extend(inv(s));
                }
            }
        }
        for g in &v.guarded {
            self.read.push(g.vs);
            self.write.push(VSlot::I(g.slot));
            for op in &g.subs {
                if let SubOp::Slot(s) = *op {
                    self.read.push(VSlot::I(s));
                }
            }
        }
        self.write.extend(v.exit_state.iter().map(|&(s, _)| VSlot::I(s)));
    }

    /// What makes running `self` before `later` differ from after it,
    /// if anything: a write of something `later` reads or writes, or a
    /// read of something it writes. Arrays in different slots meet when
    /// neither is a frame array of the unit's own (`dummies` lists the
    /// dummy ones) and they are not two global cells.
    fn conflict(&self, later: &SlotUse, dummies: &[u32]) -> Option<String> {
        let own = |vs: VSlot| matches!(vs, VSlot::A(s) if !dummies.contains(&s));
        let array = |vs: VSlot| matches!(vs, VSlot::A(_) | VSlot::GlobA(_));
        let meet = |x: VSlot, y: VSlot| {
            x == y
                || (array(x)
                    && array(y)
                    && !own(x)
                    && !own(y)
                    && !matches!((x, y), (VSlot::GlobA(_), VSlot::GlobA(_))))
        };
        let hit = |mine: &[VSlot], theirs: &[VSlot]| {
            mine.iter().find(|&&x| theirs.iter().any(|&y| meet(x, y))).copied()
        };
        if let Some(x) = hit(&self.write, &later.read).or_else(|| hit(&self.write, &later.write)) {
            return Some(format!("both touch {x:?}, which S writes"));
        }
        hit(&self.read, &later.write).map(|x| format!("both touch {x:?}, which the loop writes"))
    }
}

/// The VM gathers subscripts and ALLOCATE bounds into a buffer of
/// [`MAX_INLINE_RANK`].
fn rank_ok(n: u8) -> Result<(), String> {
    if usize::from(n) > MAX_INLINE_RANK {
        return Err(format!("element access of rank {n} exceeds the cap {MAX_INLINE_RANK}"));
    }
    Ok(())
}

fn join(
    state: &mut [Option<Depth>],
    work: &mut Vec<u32>,
    t: u32,
    d: Depth,
    from: u32,
) -> Result<(), Violation> {
    let n = state.len() - 1;
    let tu = t as usize;
    if tu > n {
        // Structural pass bounds every target; this guards internal misuse.
        return Err((from, format!("flow target {t} out of range")));
    }
    if tu == n && d != EMPTY {
        return Err((
            from,
            format!("stacks not empty at unit end: {d:?} (operand, array, stash, block)"),
        ));
    }
    match state[tu] {
        None => {
            state[tu] = Some(d);
            work.push(t);
        }
        Some(prev) if prev == d => {}
        Some(prev) => {
            return Err((
                t,
                format!(
                    "inconsistent stack depths or inlined block at join: {prev:?} vs {d:?} \
                     (operand, array, stash, block)"
                ),
            ));
        }
    }
    Ok(())
}
