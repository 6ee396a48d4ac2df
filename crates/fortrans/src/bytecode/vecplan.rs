//! The vector analysis: decides which serial `DO` loops become
//! `VecLoop` regions and plans each one — the descriptor's accesses and
//! lane programs, and the prep code and guarded loads that fill its
//! invariant slots — or says why a loop stays scalar ([`VecRefusal`]).
//! Emission of the plan (prep, `VecLoop`, the scalar loop it shadows)
//! stays in the parent module, which also owns the descriptor format.

use super::*;
use std::borrow::Cow;

/// Caps on the plan, next to the descriptor's own in the parent.
const VEC_MAX_STMTS: usize = 32;
const VEC_MAX_OPS: usize = 256;
const VEC_MAX_ARGC: usize = 8;

/// Why the vector analysis left a serial DO loop on the scalar tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecRefusal {
    /// The body branches (other than a masked select reduction, see
    /// [`VecSel`]), exits, or holds a loop that is not a short
    /// constant-trip nest.
    Control,
    /// The body calls a subprogram.
    Call,
    /// A subscript (or an INTEGER operand) is not affine in the loop
    /// variable.
    NonAffine,
    /// A loop-invariant subscript part is neither affine in frame
    /// INTEGER scalars (which one `SetI` hoists) nor a plain INTEGER
    /// element load.
    ImpureInvariant,
    /// A written array is accessed through two subscript patterns that
    /// may name the same cell (they are not [`VecAccess::disjoint`]).
    WrittenPatterns,
    /// A written element does not move with the loop variable.
    NotInjective,
    /// The (unrolled) body exceeds a descriptor cap.
    TooBig,
    /// Anything else about the loop or a statement: non-unit step,
    /// non-REAL data, a second accumulator, a loop-carried scalar (an
    /// accumulator read before its update included), I/O, or a
    /// forward-substituted scalar temp that something after the loop may
    /// read (a region never stores such a temp, so its last value would
    /// be lost).
    Shape,
}

/// Per-loop vectorization plan (the descriptor plus the prep code the
/// emitter must materialize before the `VecLoop`).
#[derive(Default)]
pub(super) struct VecPlan {
    pub(super) accesses: Vec<VecAccess>,
    pub(super) stmts: Vec<Vec<VecOp>>,
    pub(super) red: Option<VecRed>,
    pub(super) sel: Option<VecSel>,
    pub(super) max_depth: u32,
    /// Loop-invariant subscript parts to set into hidden i-slots between
    /// `DoInitC` and `VecLoop`, one `SetI` each: (value, slot).
    pub(super) prep: Vec<(Affine, u32)>,
    /// Invariant element loads the `VecLoop` entry performs instead.
    pub(super) guarded: Vec<GuardedLoad>,
    /// Dedup table over both: (expression, slot).
    inv_slots: Vec<(RExpr, u32)>,
    /// The accumulator once its statement is compiled: a later read of
    /// it is its running value ([`VecOp::Running`]).
    running: Option<VarIdx>,
}

impl VecPlan {
    /// Moves the hidden i-slots the analysis took, numbered from `from`,
    /// to start at `to` instead: every i-slot at or past `from` in the
    /// plan is one of them, as the unit's own variables' slots lie below
    /// the first hidden slot.
    pub(super) fn relocate(&mut self, from: u32, to: u32) {
        if from == to {
            return;
        }
        let slot = |s: &mut u32| {
            if *s != NO_SLOT && *s >= from {
                *s = *s - from + to;
            }
        };
        for a in &mut self.accesses {
            a.subs.iter_mut().for_each(|sub| slot(&mut sub.inv));
        }
        for op in self.stmts.iter_mut().flatten() {
            if let VecOp::SplatI { inv, .. } = op {
                slot(inv);
            }
        }
        if let Some(sel) = &mut self.sel {
            slot(&mut sel.term.inv);
            for op in &mut sel.mask {
                if let MaskOp::Affine(sub) = op {
                    slot(&mut sub.inv);
                }
            }
        }
        self.prep.iter_mut().for_each(|(_, s)| slot(s));
        for g in &mut self.guarded {
            slot(&mut g.slot);
            for op in &mut g.subs {
                if let SubOp::Slot(s) = op {
                    slot(s);
                }
            }
        }
        self.inv_slots.iter_mut().for_each(|(_, s)| slot(s));
    }
}

/// What the analysis knows about a loop body while it walks it.
#[derive(Default)]
struct VecBody {
    /// The loop variable of the would-be region.
    var: VarIdx,
    /// Arrays written and scalars assigned anywhere in the body
    /// (unrolled loop indices included) — filled by the pre-scan.
    awritten: Vec<VarIdx>,
    sassigned: Vec<VarIdx>,
    plan: VecPlan,
    /// Forwarded temps so far: (temp, substituted RHS).
    temps: Vec<(VarIdx, RExpr)>,
    /// Map statements compiled so far.
    maps: usize,
}

/// True when `e` references variable `var` anywhere (conservatively true
/// for user calls, whose by-ref arguments could smuggle it through).
fn expr_uses_var(e: &RExpr, var: VarIdx) -> bool {
    let mut uses = matches!(e, RExpr::Call { .. });
    expr_vars(e, &mut |_, &v| uses |= v == var);
    operands(e, &mut |x| uses = uses || expr_uses_var(x, var));
    uses
}

/// Calls `f` on every variable a statement of `stmts` outside the loop
/// body `skip` (found by address) may read: conservatively, every
/// [`Seen::Ref`] — any expression's mention and a statement's own (a
/// call's by-ref argument, an OMP clause) — but not a [`Seen::Store`],
/// the target of an assignment. A function call reads one only through
/// an argument that mentions it, as a subroutine call does: a callee
/// cannot reach its caller's frame. One walk serves every forwarded temp
/// of a loop.
fn reads_outside(stmts: &[SpStmt], skip: &[SpStmt], f: &mut dyn FnMut(VarIdx)) {
    for sp in stmts {
        walk_own(&sp.s, &mut |seen| {
            if let Seen::Ref(w) = seen {
                f(w);
            }
        });
        each_child(&sp.s, &mut |b| {
            if !std::ptr::eq(b, skip) {
                reads_outside(b, skip, f);
            }
        });
    }
}

/// `e` with every `LoadScalar` of an unrolled loop index replaced by
/// the constant it holds and every one of a forwarded temp by the
/// temp's defining expression (itself already substituted, so the
/// result never references another temp). A tree with nothing to
/// replace comes back borrowed.
fn subst_scalars<'e>(
    e: &'e RExpr,
    idx: &[(VarIdx, i64)],
    temps: &[(VarIdx, RExpr)],
) -> Cow<'e, RExpr> {
    let has = |v: VarIdx| idx.iter().any(|(u, _)| *u == v) || temps.iter().any(|(u, _)| *u == v);
    let mut hit = false;
    if !idx.is_empty() || !temps.is_empty() {
        walk_expr(e, &mut |seen| hit |= matches!(seen, Seen::Ref(v) if has(v)));
    }
    if !hit {
        return Cow::Borrowed(e);
    }
    let by = |v: VarIdx| match idx.iter().find(|(u, _)| *u == v) {
        Some((_, c)) => Some(RExpr::ConstI(*c)),
        None => temps.iter().find(|(u, _)| *u == v).map(|(_, d)| d.clone()),
    };
    let mut out = e.clone();
    rename_expr(&mut out, &mut |_| {}, &by);
    Cow::Owned(out)
}

/// [`subst_scalars`] over a subscript list, borrowed when nothing in
/// it changes.
fn subst_all<'e>(
    es: &'e [RExpr],
    idx: &[(VarIdx, i64)],
    temps: &[(VarIdx, RExpr)],
) -> Cow<'e, [RExpr]> {
    let mut out: Option<Vec<RExpr>> = None;
    for (k, e) in es.iter().enumerate() {
        if let Cow::Owned(x) = subst_scalars(e, idx, temps) {
            out.get_or_insert_with(|| es.to_vec())[k] = x;
        }
    }
    out.map_or(Cow::Borrowed(es), Cow::Owned)
}

impl UnitCompiler<'_> {
    /// Decides whether a canonical unit-stride frame-I DO loop body can
    /// execute as a vector superinstruction, and if so builds its plan.
    ///
    /// Legality: every statement is an elementwise REAL array assignment
    /// with affine subscripts — any array both read and written must use
    /// *identical* subscripts with at least one loop-dependent dimension,
    /// so the only dependences are loop-independent — except at most one
    /// `acc = acc + term` / `acc * term` REAL accumulator statement whose
    /// term does not reference the accumulator. REAL scalar temps
    /// assigned from expressions with no loop-carried reads are forward-
    /// substituted into their consumers (privatization): they don't
    /// block either shape, as long as nothing after the loop may read
    /// one, whose last value the region never stores. Inner loops over
    /// literal bounds of
    /// at most [`NEST_TRIP`] trips are looked through: the body is
    /// analysed as if they were fully unrolled in iteration order
    /// (`vec_stmts`), so a same-cell chain such as
    /// `g(d) = g(d) + w(d, f)` over `f` stays in statement order, which
    /// statement-at-a-time lane execution preserves cell by cell.
    /// Anything else (control flow, calls, I/O, allocation, non-affine
    /// subscripts, LOGICAL/INTEGER element types) keeps the scalar loop
    /// and says why.
    ///
    /// A map statement after the accumulator's may read the accumulator:
    /// it reads the running value, what the scalar loop holds there
    /// ([`VecOp::Running`]), so `s = s + a(i); b(i) = s` is a running
    /// sum. A read before the update is loop-carried and stays scalar.
    pub(super) fn analyze_vec(
        &mut self,
        var: VarIdx,
        body: &[SpStmt],
    ) -> Result<VecPlan, VecRefusal> {
        use VecRefusal::*;
        if let [SpStmt { s: RStmt::If { arms, else_body }, .. }] = body {
            return self.vec_select(var, arms, else_body);
        }
        // Pre-scan for the forwarding legality checks: arrays written and
        // scalars assigned anywhere in the body — unrolled loop indices
        // included, which are constants inside their loop and loop-
        // carried outside it. A temp's RHS may not read either set — a
        // written array would make a consumer that statement-at-a-time
        // lane execution runs after the store read the stored value, and
        // a still-assigned scalar read is either loop-carried or an
        // accumulator reference.
        let mut b = VecBody { var, ..VecBody::default() };
        if self.vec_prescan(body, &mut vec![var], &mut b)? > VEC_MAX_STMTS {
            return Err(TooBig);
        }
        self.vec_stmts(body, &mut Vec::new(), &mut b)?;
        let VecBody { mut plan, temps, maps, .. } = b;
        if plan.red.is_none() && maps == 0 && !temps.is_empty() {
            // A body of only forwarded temps stays scalar — the empty
            // vector loop would win nothing.
            return Err(Shape);
        }
        // The region never stores a temp, so one that may be read after
        // the loop keeps it scalar: a dummy's value goes back to the
        // caller and a function's result is returned. SAVE'd locals live
        // in global cells, which are never forwarded, and EQUIVALENCE
        // names one variable by every alias.
        if !temps.is_empty() {
            let unit = self.unit;
            let mut read = vec![false; unit.vars.len()];
            reads_outside(&unit.body, body, &mut |w| read[w] = true);
            let live = |&(t, _): &(VarIdx, RExpr)| {
                unit.vars[t].is_param || unit.result.is_some_and(|(r, _)| r == t) || read[t]
            };
            if temps.iter().any(live) {
                return Err(Shape);
            }
        }
        for (k, ops) in plan.stmts.iter().enumerate() {
            let (fin, mx) = vec_stack_effect(ops).ok_or(Shape)?;
            if fin != u32::from(plan.red.is_some_and(|r| r.stmt as usize == k)) {
                return Err(Shape);
            }
            if mx > VEC_MAX_DEPTH {
                return Err(TooBig);
            }
            plan.max_depth = plan.max_depth.max(mx);
        }
        Ok(plan)
    }

    /// A masked select reduction: a body of exactly `IF (c) acc =
    /// MAX(acc, t)` — or `MIN`, either argument order — with no ELSE.
    /// Legal when `acc` is a frame INTEGER scalar that neither `c`
    /// nor `t` reads, `t` is INTEGER and affine in the loop variable, and
    /// `c` is `.AND.`/`.OR.`/`.NOT.` over INTEGER comparisons. The body
    /// writes no array, so no alias guard applies, and stores no scalar
    /// but `acc`, so every other frame scalar is invariant. Any other
    /// `IF` body is `Control`.
    fn vec_select(
        &mut self,
        var: VarIdx,
        arms: &[(RExpr, Vec<SpStmt>)],
        else_body: &[SpStmt],
    ) -> Result<VecPlan, VecRefusal> {
        use VecRefusal::{Control, TooBig};
        let ([(c, arm)], []) = (arms, else_body) else {
            return Err(Control);
        };
        let [SpStmt { s: RStmt::AssignScalar { v: acc, e }, .. }] = arm.as_slice() else {
            return Err(Control);
        };
        let RExpr::Intrinsic { f: f @ (Intr::Max | Intr::Min), args } = e else {
            return Err(Control);
        };
        let is_acc = |x: &RExpr| matches!(x, RExpr::LoadScalar(v) if v == acc);
        let t = match args.as_slice() {
            [a, t] if is_acc(a) => t,
            [t, a] if is_acc(a) => t,
            _ => return Err(Control),
        };
        let VSlot::I(slot) = self.vslot(*acc) else { return Err(Control) };
        if *acc == var
            || self.ty_of(t) != ScalarTy::I
            || expr_uses_var(c, *acc)
            || expr_uses_var(t, *acc)
        {
            return Err(Control);
        }
        let mut plan = VecPlan::default();
        let mut mask = Vec::new();
        self.vec_mask(c, var, &mut plan, &mut mask)?;
        let term = self.vec_lanes_i(t, var, &mut plan)?;
        let (_, depth) = mask_stack_effect(&mask).ok_or(Control)?;
        if depth > VEC_MAX_DEPTH {
            return Err(TooBig);
        }
        plan.max_depth = depth;
        plan.sel = Some(VecSel { acc: slot, f: *f, term, mask });
        Ok(plan)
    }

    /// A select's condition as a mask program. The leaves are INTEGER
    /// comparisons; each operand is an INTEGER element with affine
    /// subscripts (a stream) or affine lanes: a constant, the loop
    /// variable, a frame INTEGER scalar, a guarded invariant load.
    fn vec_mask(
        &mut self,
        c: &RExpr,
        var: VarIdx,
        plan: &mut VecPlan,
        mask: &mut Vec<MaskOp>,
    ) -> Result<(), VecRefusal> {
        use VecRefusal::{Control, TooBig};
        if mask.len() >= VEC_MAX_OPS {
            return Err(TooBig);
        }
        match c {
            RExpr::Bin { op: op @ (Bin::And | Bin::Or), l, r, .. } => {
                self.vec_mask(l, var, plan, mask)?;
                self.vec_mask(r, var, plan, mask)?;
                mask.push(if *op == Bin::And { MaskOp::And } else { MaskOp::Or });
            }
            RExpr::Not(x) => {
                self.vec_mask(x, var, plan, mask)?;
                mask.push(MaskOp::Not);
            }
            RExpr::Bin { op, ty: ScalarTy::I, l, r }
                if self.ty_of(l) == ScalarTy::I && self.ty_of(r) == ScalarTy::I =>
            {
                let cmp = Cmp::of(*op).ok_or(Control)?;
                for x in [l, r] {
                    let lanes = match x.as_ref() {
                        RExpr::LoadElem { v, subs } if expr_uses_var(x, var) => {
                            MaskOp::Load(self.vec_access(*v, subs, var, ScalarTy::I, false, plan)?)
                        }
                        x => MaskOp::Affine(self.vec_lanes_i(x, var, plan)?),
                    };
                    mask.push(lanes);
                }
                mask.push(MaskOp::Cmp(cmp));
            }
            _ => return Err(Control),
        }
        Ok(())
    }

    /// First pass over a loop body, nothing allocated per statement:
    /// refuses statement kinds no region holds, records what the body
    /// writes and assigns, and returns how many assignments one
    /// iteration executes once every inner loop over literal bounds is
    /// unrolled ([`unrolled_bounds`]). `open` holds the variables of the
    /// region's loop and the enclosing inner loops.
    fn vec_prescan(
        &self,
        body: &[SpStmt],
        open: &mut Vec<VarIdx>,
        b: &mut VecBody,
    ) -> Result<usize, VecRefusal> {
        use VecRefusal::*;
        let mut n = 0usize;
        for sp in body {
            n += match &sp.s {
                RStmt::Nop => 0,
                RStmt::AssignScalar { v, .. } => {
                    b.sassigned.push(*v);
                    1
                }
                RStmt::AssignElem { v, .. } => {
                    b.awritten.push(*v);
                    1
                }
                RStmt::Do { var: k, body, .. } => {
                    let Some((lo, hi)) = unrolled_bounds(&sp.s, &self.unit.vars, open) else {
                        return Err(Control);
                    };
                    b.sassigned.push(*k);
                    open.push(*k);
                    let inner = self.vec_prescan(body, open, b)?;
                    open.pop();
                    inner.saturating_mul((hi - lo + 1) as usize)
                }
                RStmt::Call(_) | RStmt::Inlined { .. } => return Err(Call),
                RStmt::If { .. }
                | RStmt::Span { .. }
                | RStmt::DoWhile { .. }
                | RStmt::Critical { .. }
                | RStmt::Return
                | RStmt::Exit
                | RStmt::Cycle
                | RStmt::Stop(_) => return Err(Control),
                _ => return Err(Shape), // whole-array statements, ATOMIC, allocation, I/O
            };
        }
        Ok(n)
    }

    /// Second pass: the assignments one iteration executes, in order,
    /// as if every inner loop were unrolled — `idx` maps the enclosing
    /// inner loops' variables to the constants they hold — each one
    /// forwarded or compiled to its lane program, the accumulator's
    /// included. The first refusal stops the walk.
    fn vec_stmts(
        &mut self,
        body: &[SpStmt],
        idx: &mut Vec<(VarIdx, i64)>,
        b: &mut VecBody,
    ) -> Result<(), VecRefusal> {
        use VecRefusal::Shape;
        let var = b.var;
        for sp in body {
            match &sp.s {
                RStmt::AssignElem { v, subs, e } => {
                    let subs = subst_all(subs, idx, &b.temps);
                    let e = subst_scalars(e, idx, &b.temps);
                    let a = self.vec_access(*v, &subs, var, ScalarTy::F, true, &mut b.plan)?;
                    let mut ops = Vec::new();
                    self.vec_operand_f(&e, var, &mut b.plan, &mut ops)?;
                    ops.push(VecOp::Store(a));
                    b.plan.stmts.push(ops);
                    b.maps += 1;
                    // A leftover reference to a body-assigned scalar is a
                    // use-before-def (loop-carried) read: the splat/prep
                    // machinery would freeze its pre-loop value. Only an
                    // updated accumulator's value is known: it was read
                    // as `Running`.
                    let running = b.plan.running;
                    if b.sassigned.iter().any(|&t| {
                        (Some(t) != running && expr_uses_var(&e, t))
                            || subs.iter().any(|s| expr_uses_var(s, t))
                    }) {
                        return Err(Shape);
                    }
                }
                RStmt::AssignScalar { v, e } => {
                    let e = subst_scalars(e, idx, &b.temps);
                    let fwd = matches!(self.vslot(*v), VSlot::F(_))
                        && self.unit.vars[*v].ty == ScalarTy::F
                        && self.ty_of(&e) == ScalarTy::F
                        && self.vec_temp_ok(&e, &b.awritten, &b.sassigned)
                        && self.vec_intern_reads(&e, var, &mut b.plan).is_ok();
                    if fwd {
                        let e = e.into_owned();
                        match b.temps.iter_mut().find(|(u, _)| u == v) {
                            Some(slot) => slot.1 = e,
                            None => b.temps.push((*v, e)),
                        }
                    } else if b.plan.red.is_some() {
                        // Not forwardable: the only remaining legal role
                        // is the one accumulator statement.
                        return Err(Shape);
                    } else {
                        self.vec_accumulate(*v, &e, b)?;
                    }
                }
                RStmt::Do { var: k, body, .. } => {
                    let open: Vec<VarIdx> = idx.iter().map(|&(j, _)| j).chain([var]).collect();
                    let (lo, hi) =
                        unrolled_bounds(&sp.s, &self.unit.vars, &open).expect("prescanned");
                    for val in lo..=hi {
                        idx.push((*k, val));
                        self.vec_stmts(body, idx, b)?;
                        idx.pop();
                    }
                }
                _ => {} // `Nop`; `vec_prescan` refused the rest
            }
        }
        Ok(())
    }

    /// The accumulator statement `acc = acc ⊕ t` (`⊕` REAL `+` or `*`,
    /// `acc` on either side) of a reduction or running sum: `acc` is a
    /// REAL frame or global scalar and `t`, substituted, reads no scalar
    /// the body assigns. Compiles `t`'s lanes in statement order; the
    /// executors fold them right after the statement.
    fn vec_accumulate(
        &mut self,
        acc: VarIdx,
        e: &RExpr,
        b: &mut VecBody,
    ) -> Result<(), VecRefusal> {
        use VecRefusal::Shape;
        let avs = self.vslot(acc);
        if self.unit.vars[acc].ty != ScalarTy::F || !matches!(avs, VSlot::F(_) | VSlot::GlobS(_))
        {
            return Err(Shape);
        }
        let RExpr::Bin { op, ty: ScalarTy::F, l, r } = e else { return Err(Shape) };
        let op = match op {
            Bin::Add => VecRedOp::Add,
            Bin::Mul => VecRedOp::Mul,
            _ => return Err(Shape),
        };
        let is_acc = |x: &RExpr| matches!(x, RExpr::LoadScalar(v) if *v == acc);
        let (acc_left, term) = match (is_acc(l), is_acc(r)) {
            (true, false) => (true, r.as_ref()),
            (false, true) => (false, l.as_ref()),
            _ => return Err(Shape),
        };
        // After substitution the term may only reference a body-assigned
        // scalar through use-before-def — loop-carried, so reject (this
        // also subsumes the accumulator itself).
        if b.sassigned.iter().any(|&t| expr_uses_var(term, t)) {
            return Err(Shape);
        }
        let mut ops = Vec::new();
        self.vec_operand_f(term, b.var, &mut b.plan, &mut ops)?;
        let stmt = b.plan.stmts.len() as u32;
        b.plan.stmts.push(ops);
        b.plan.red = Some(VecRed { vs: avs, op, acc_left, stmt });
        b.plan.running = Some(acc);
        Ok(())
    }

    /// Whether a (substituted) scalar-temp RHS is safe to forward: no
    /// trap potential outside interned array reads, no read of a scalar
    /// assigned in the body (loop-carried or accumulator), and no read
    /// of an array the body writes (a consumer's substituted read may
    /// run after the store lands). Array element reads are
    /// allowed — `vec_intern_reads` registers them so the vector
    /// entry guard proves them in-bounds for the whole trip range.
    fn vec_temp_ok(&self, e: &RExpr, awritten: &[VarIdx], sassigned: &[VarIdx]) -> bool {
        match e {
            RExpr::ConstI(_) | RExpr::ConstF(_) | RExpr::ConstB(_) => true,
            RExpr::LoadScalar(v) => !sassigned.contains(v),
            RExpr::AllocatedQ(v) => !matches!(self.vslot(*v), VSlot::GlobS(_)),
            RExpr::LoadElem { v, subs } => {
                !awritten.contains(v)
                    && subs.iter().all(|s| self.vec_temp_ok(s, awritten, sassigned))
            }
            RExpr::Bin { op, ty, l, r } => {
                let arith = matches!(op, Bin::Add | Bin::Sub | Bin::Mul | Bin::Div | Bin::Pow);
                if arith && *ty == ScalarTy::B {
                    return false; // runtime type error
                }
                if matches!(op, Bin::Div) && *ty == ScalarTy::I {
                    return false; // possible division by zero
                }
                self.vec_temp_ok(l, awritten, sassigned) && self.vec_temp_ok(r, awritten, sassigned)
            }
            RExpr::Neg(x) => {
                self.ty_of(x) != ScalarTy::B && self.vec_temp_ok(x, awritten, sassigned)
            }
            RExpr::Not(x) | RExpr::ToF(x) | RExpr::ToI(x) => {
                self.vec_temp_ok(x, awritten, sassigned)
            }
            RExpr::Intrinsic { args, .. } => {
                args.iter().all(|a| self.vec_temp_ok(a, awritten, sassigned))
            }
            RExpr::ArrReduce { .. } | RExpr::Call { .. } => false,
        }
    }

    /// Interns every array element read of a forwarded temp's RHS as a
    /// read access of the plan, so the vector entry guard bounds-checks
    /// it (the scalar loop reads it every iteration, whether or not a
    /// statement consumes the temp) and the dependence rule sees it.
    /// Fails on non-affine subscripts, which would leave the read
    /// unprovable.
    fn vec_intern_reads(
        &mut self,
        e: &RExpr,
        var: VarIdx,
        plan: &mut VecPlan,
    ) -> Result<(), VecRefusal> {
        match e {
            // An invariant INTEGER read is proven by the entry's guarded
            // load of it instead.
            RExpr::LoadElem { v, .. }
                if self.unit.vars[*v].ty == ScalarTy::I && !expr_uses_var(e, var) =>
            {
                self.vec_inv_slot(e, plan).map(|_| ())
            }
            RExpr::LoadElem { v, subs } => {
                self.vec_access(*v, subs, var, ScalarTy::F, false, plan).map(|_| ())
            }
            RExpr::ArrReduce { .. } | RExpr::Call { .. } => Err(VecRefusal::Shape),
            _ => {
                let mut out = Ok(());
                operands(e, &mut |x| {
                    if out.is_ok() {
                        out = self.vec_intern_reads(x, var, plan);
                    }
                });
                out
            }
        }
    }

    /// Interns one affine array access of a vector loop, of an array
    /// declared with element type `ty`.
    fn vec_access(
        &mut self,
        v: VarIdx,
        subs: &[RExpr],
        var: VarIdx,
        ty: ScalarTy,
        write: bool,
        plan: &mut VecPlan,
    ) -> Result<u32, VecRefusal> {
        let vs = self.vslot(v);
        let info = &self.unit.vars[v];
        if !matches!(vs, VSlot::A(_) | VSlot::GlobA(_))
            || info.ty != ty
            || info.rank != subs.len()
            || subs.len() > MAX_INLINE_RANK
        {
            return Err(VecRefusal::Shape);
        }
        // On the stack until the access turns out to be a new one.
        let mut buf = [VecSub { coeff: 0, add: 0, inv: NO_SLOT }; MAX_INLINE_RANK];
        for (s, sub) in subs.iter().zip(&mut buf) {
            *sub = self.vec_lanes_i(s, var, plan)?;
        }
        let vsubs = &buf[..subs.len()];
        // Injectivity: a write must move with the loop, else later
        // elements overwrite earlier ones out of statement order.
        if write && vsubs.iter().all(|s| s.coeff == 0) {
            return Err(VecRefusal::NotInjective);
        }
        let at = match plan.accesses.iter().position(|a| a.vs == vs && a.subs == vsubs) {
            Some(i) => {
                plan.accesses[i].write |= write;
                i
            }
            None if plan.accesses.len() >= VEC_MAX_ACCESSES => return Err(VecRefusal::TooBig),
            None => {
                // Emission proves what it can of the stream.
                let v = v as u32;
                let subs = vsubs.to_vec();
                plan.accesses.push(VecAccess { vs, v, ty, subs, write, proven: None });
                plan.accesses.len() - 1
            }
        };
        // Dependence rule: distinct subscript patterns on a written array
        // would need cross-element ordering — reject, unless they can
        // never name the same cell. (Identical patterns are one interned
        // entry.)
        let a = &plan.accesses[at];
        let meet = |b: &VecAccess| b.vs == a.vs && b.subs != a.subs && !a.disjoint(b);
        if plan.accesses.iter().any(|b| meet(b) && (a.write || b.write)) {
            return Err(VecRefusal::WrittenPatterns);
        }
        Ok(at as u32)
    }

    /// An I-typed expression as affine lanes: `vec_affine`'s split, its
    /// invariant part in a slot.
    fn vec_lanes_i(
        &mut self,
        e: &RExpr,
        var: VarIdx,
        plan: &mut VecPlan,
    ) -> Result<VecSub, VecRefusal> {
        let (coeff, add, inv) = self.vec_affine(e, var)?;
        let inv = match inv {
            None => NO_SLOT,
            Some(x) => self.vec_inv_slot(&x, plan)?,
        };
        Ok(VecSub { coeff, add, inv })
    }

    /// Splits an I-typed expression into `coeff*var + add + invariant`.
    /// The invariant remainder comes back as a (possibly synthetic)
    /// expression; integer arithmetic distributes exactly over the
    /// wrapping ring, so the decomposition preserves scalar semantics.
    fn vec_affine(
        &mut self,
        e: &RExpr,
        var: VarIdx,
    ) -> Result<(i64, i64, Option<RExpr>), VecRefusal> {
        use VecRefusal::NonAffine;
        if let Some(v) = self.const_eval(e) {
            return Ok((0, v.as_i(), None));
        }
        if !expr_uses_var(e, var) {
            return Ok((0, 0, Some(e.clone())));
        }
        let add_inv = |a: Option<RExpr>, b: Option<RExpr>| match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(RExpr::Bin {
                op: Bin::Add,
                ty: ScalarTy::I,
                l: Box::new(a),
                r: Box::new(b),
            }),
        };
        let neg_inv = |x: Option<RExpr>| x.map(|x| RExpr::Neg(Box::new(x)));
        // Coefficients that overflow i64 are not worth a region.
        let fit = |x: Option<i64>| x.ok_or(NonAffine);
        match e {
            RExpr::LoadScalar(v) if *v == var => Ok((1, 0, None)),
            RExpr::Bin { op: Bin::Add, ty: ScalarTy::I, l, r } => {
                let (c1, a1, i1) = self.vec_affine(l, var)?;
                let (c2, a2, i2) = self.vec_affine(r, var)?;
                Ok((fit(c1.checked_add(c2))?, fit(a1.checked_add(a2))?, add_inv(i1, i2)))
            }
            RExpr::Bin { op: Bin::Sub, ty: ScalarTy::I, l, r } => {
                let (c1, a1, i1) = self.vec_affine(l, var)?;
                let (c2, a2, i2) = self.vec_affine(r, var)?;
                Ok((fit(c1.checked_sub(c2))?, fit(a1.checked_sub(a2))?, add_inv(i1, neg_inv(i2))))
            }
            RExpr::Bin { op: Bin::Mul, ty: ScalarTy::I, l, r } => {
                let (k, x) = if let Some(k) = self.const_eval(l) {
                    (k.as_i(), r)
                } else if let Some(k) = self.const_eval(r) {
                    (k.as_i(), l)
                } else {
                    return Err(NonAffine); // runtime coefficient on the loop var
                };
                let (c, a, i) = self.vec_affine(x, var)?;
                let scaled = i.map(|x| RExpr::Bin {
                    op: Bin::Mul,
                    ty: ScalarTy::I,
                    l: Box::new(RExpr::ConstI(k)),
                    r: Box::new(x),
                });
                Ok((fit(c.checked_mul(k))?, fit(a.checked_mul(k))?, scaled))
            }
            RExpr::Neg(x) if self.ty_of(x) == ScalarTy::I => {
                let (c, a, i) = self.vec_affine(x, var)?;
                Ok((fit(c.checked_neg())?, fit(a.checked_neg())?, neg_inv(i)))
            }
            RExpr::ToI(x) if self.ty_of(x) == ScalarTy::I => self.vec_affine(x, var),
            RExpr::Call { .. } => Err(VecRefusal::Call),
            _ => Err(NonAffine),
        }
    }

    /// Hidden i-slot holding a loop-invariant I expression. A bare
    /// frame-I scalar uses its own slot; an [`Affine`] one is set by a
    /// prep `SetI` between `DoInitC` and `VecLoop`, which cannot fail and
    /// posts nothing; an INTEGER element load becomes a [`GuardedLoad`]
    /// of the region's entry, its own subscripts constants or invariant
    /// slots in turn. Identical expressions within one loop share a
    /// slot.
    fn vec_inv_slot(&mut self, e: &RExpr, plan: &mut VecPlan) -> Result<u32, VecRefusal> {
        use VecRefusal::ImpureInvariant;
        if self.ty_of(e) != ScalarTy::I {
            return Err(ImpureInvariant);
        }
        // A running value is not invariant: `INT(s)` would freeze the
        // accumulator's value before the loop.
        if plan.running.is_some_and(|a| expr_uses_var(e, a)) {
            return Err(VecRefusal::Shape);
        }
        if let RExpr::LoadScalar(v) = e {
            if let VSlot::I(s) = self.vslot(*v) {
                return Ok(s);
            }
        }
        if let Some((_, s)) = plan.inv_slots.iter().find(|(k, _)| k.same(e)) {
            return Ok(*s);
        }
        if let Some(a) = self.affine(e) {
            let s = self.hidden_i();
            plan.prep.push((a, s));
            plan.inv_slots.push((e.clone(), s));
            return Ok(s);
        }
        let RExpr::LoadElem { v, subs } = e else { return Err(ImpureInvariant) };
        let (vs, info) = (self.vslot(*v), &self.unit.vars[*v]);
        if !matches!(vs, VSlot::A(_) | VSlot::GlobA(_))
            || info.ty != ScalarTy::I
            || info.rank != subs.len()
            || subs.len() > MAX_INLINE_RANK
        {
            return Err(ImpureInvariant);
        }
        let mut ops = Vec::with_capacity(subs.len());
        for s in subs {
            ops.push(match self.const_eval(s).map(|c| i32::try_from(c.as_i())) {
                Some(Ok(c)) if self.ty_of(s) == ScalarTy::I => SubOp::Const(c),
                _ => SubOp::Slot(self.vec_inv_slot(s, plan)?),
            });
        }
        let slot = self.hidden_i();
        plan.guarded.push(GuardedLoad { slot, vs, v: *v as u32, subs: ops });
        plan.inv_slots.push((e.clone(), slot));
        Ok(slot)
    }

    /// Emits micro-ops evaluating `e` as an f64 lane vector, mirroring
    /// the scalar tier's emit-then-convert-to-F path.
    fn vec_operand_f(
        &mut self,
        e: &RExpr,
        var: VarIdx,
        plan: &mut VecPlan,
        ops: &mut Vec<VecOp>,
    ) -> Result<(), VecRefusal> {
        if ops.len() >= VEC_MAX_OPS {
            return Err(VecRefusal::TooBig);
        }
        match self.ty_of(e) {
            ScalarTy::F => self.vec_expr_f(e, var, plan, ops),
            ScalarTy::I => {
                // The scalar tier's CvtIF of an integer expression: only
                // affine-in-var (or invariant) shapes stay vectorizable.
                if let Some(v) = self.const_eval(e) {
                    ops.push(VecOp::Splat(v.as_f()));
                    return Ok(());
                }
                let VecSub { coeff, add, inv } = self.vec_lanes_i(e, var, plan)?;
                ops.push(VecOp::SplatI { coeff, add, inv });
                Ok(())
            }
            ScalarTy::B => Err(VecRefusal::Shape),
        }
    }

    fn vec_expr_f(
        &mut self,
        e: &RExpr,
        var: VarIdx,
        plan: &mut VecPlan,
        ops: &mut Vec<VecOp>,
    ) -> Result<(), VecRefusal> {
        use VecRefusal::Shape;
        if let Some(v) = self.const_eval(e) {
            ops.push(VecOp::Splat(v.as_f()));
            return Ok(());
        }
        match e {
            RExpr::ConstF(c) => ops.push(VecOp::Splat(*c)),
            RExpr::LoadScalar(v) if plan.running == Some(*v) => ops.push(VecOp::Running),
            RExpr::LoadScalar(v) => ops.push(match self.vslot(*v) {
                VSlot::F(s) => VecOp::SplatF(s),
                VSlot::GlobS(c) => VecOp::SplatG(c),
                _ => return Err(Shape),
            }),
            RExpr::LoadElem { v, subs } => {
                let a = self.vec_access(*v, subs, var, ScalarTy::F, false, plan)?;
                ops.push(VecOp::Load(a));
            }
            RExpr::Bin { op, ty: ScalarTy::F, l, r } => match op {
                Bin::Add | Bin::Sub | Bin::Mul | Bin::Div => {
                    self.vec_operand_f(l, var, plan, ops)?;
                    self.vec_operand_f(r, var, plan, ops)?;
                    ops.push(match op {
                        Bin::Add => VecOp::Add,
                        Bin::Sub => VecOp::Sub,
                        Bin::Mul => VecOp::Mul,
                        _ => VecOp::Div,
                    });
                }
                Bin::Pow => {
                    self.vec_operand_f(l, var, plan, ops)?;
                    if self.ty_of(r) == ScalarTy::I {
                        // `F ** I` needs a constant exponent so the
                        // powi-vs-powf rule resolves at compile time.
                        let ev = self.const_eval(r).ok_or(Shape)?.as_i();
                        match intrinsics::powi_exponent(ev) {
                            Some(e) => ops.push(VecOp::PowI(e)),
                            None => ops.extend([VecOp::Splat(ev as f64), VecOp::Pow]),
                        }
                    } else {
                        self.vec_operand_f(r, var, plan, ops)?;
                        ops.push(VecOp::Pow);
                    }
                }
                _ => return Err(Shape),
            },
            RExpr::Neg(x) if self.ty_of(x) == ScalarTy::F => {
                self.vec_expr_f(x, var, plan, ops)?;
                ops.push(VecOp::Neg);
            }
            RExpr::ToF(x) => self.vec_operand_f(x, var, plan, ops)?,
            RExpr::Intrinsic { f, args } => {
                if self.intr_int_flavor(*f, args)
                    || matches!(f, Intr::Int | Intr::Nint)
                    || args.len() > VEC_MAX_ARGC
                {
                    return Err(Shape);
                }
                for a in args {
                    self.vec_operand_f(a, var, plan, ops)?;
                }
                ops.push(VecOp::Intr { f: *f, argc: args.len() as u8 });
            }
            RExpr::Call { .. } => return Err(VecRefusal::Call),
            _ => return Err(Shape),
        }
        Ok(())
    }
}
