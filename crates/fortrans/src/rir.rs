//! The resolved IR: names replaced by slots, types settled, intrinsics
//! identified. Produced by [`crate::sema`], consumed by [`crate::interp`];
//! [`rewrite`] holds the program-to-program rules the optimized build
//! applies before lowering.
//!
//! What a node holds is written down here once: an expression's
//! operands, a statement's own expressions and the variables a node
//! names (the `node_parts!` walks, each with a `_mut` twin), and the
//! statement lists nested in a statement ([`each_child`]). The rewrites
//! and the vector analysis reach a node's contents only through them,
//! [`walk_stmts`] for every mention and [`rename_stmts`] to rename in
//! place; a pass matches on a variant only where the variant decides
//! something. The tree-walker and the verifier keep
//! their own matches.

use crate::ast::{Bin, RedOp};
use crate::intrinsics::Intr;

pub mod rewrite;

/// Scalar evaluation types. `REAL` and `REAL(8)` both evaluate as `F`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarTy {
    I,
    F,
    B,
}

/// Where a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// Slot in the current call frame.
    Frame(usize),
    /// Index into [`crate::storage::Globals`].
    Global(usize),
}

/// Resolved variable metadata (one table per unit; index = `VarIdx`).
#[derive(Debug, Clone)]
pub struct VarInfo {
    pub name: String,
    pub ty: ScalarTy,
    pub place: Place,
    /// Rank 0 = scalar.
    pub rank: usize,
    /// Static dims for non-allocatable arrays (lo, hi). A contracted
    /// temporary ([`rewrite::contract_temporaries`]), a scalar now, keeps
    /// the extent it had as an array.
    pub dims: Vec<(i64, i64)>,
    pub allocatable: bool,
    /// True for parameters (scalars use value-result; arrays share cells).
    pub is_param: bool,
}

impl VarInfo {
    /// The extent of a rank-1 REAL fixed array of the unit's own frame
    /// (no dummy, no `SAVE`, no ALLOCATABLE): the arrays contraction
    /// makes scalars and fusion gives a fresh copy.
    pub(crate) fn frame_extent(&self) -> Option<(i64, i64)> {
        let own = matches!(self.place, Place::Frame(_)) && !self.is_param && !self.allocatable;
        if own && self.rank == 1 && self.ty == ScalarTy::F {
            self.dims.first().copied()
        } else {
            None
        }
    }
}

pub type VarIdx = usize;
pub type UnitId = usize;

/// Resolved expressions.
#[derive(Debug, Clone)]
pub enum RExpr {
    ConstI(i64),
    ConstF(f64),
    ConstB(bool),
    LoadScalar(VarIdx),
    LoadElem { v: VarIdx, subs: Vec<RExpr> },
    Bin { op: Bin, ty: ScalarTy, l: Box<RExpr>, r: Box<RExpr> },
    Neg(Box<RExpr>),
    Not(Box<RExpr>),
    /// Numeric conversion inserted by sema.
    ToF(Box<RExpr>),
    ToI(Box<RExpr>),
    Intrinsic { f: Intr, args: Vec<RExpr> },
    /// Whole-array reduction intrinsics.
    ArrReduce { f: ArrRed, v: VarIdx },
    /// `ALLOCATED(x)`.
    AllocatedQ(VarIdx),
    /// User function call.
    CallFn { unit: UnitId, args: Vec<RArg>, ret: ScalarTy },
}

impl RExpr {
    /// Structural equality, constants bit for bit: two expressions that
    /// are the same tree evaluate alike. A function call is equal to
    /// nothing, since two calls need not return alike.
    pub fn same(&self, other: &RExpr) -> bool {
        use RExpr::*;
        let all = |a: &[RExpr], b: &[RExpr]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same(y))
        };
        match (self, other) {
            (ConstI(x), ConstI(y)) => x == y,
            (ConstF(x), ConstF(y)) => x.to_bits() == y.to_bits(),
            (ConstB(x), ConstB(y)) => x == y,
            (LoadScalar(x), LoadScalar(y)) | (AllocatedQ(x), AllocatedQ(y)) => x == y,
            (LoadElem { v, subs }, LoadElem { v: w, subs: t }) => v == w && all(subs, t),
            (Bin { op, ty, l, r }, Bin { op: o, ty: u, l: m, r: q }) => {
                op == o && ty == u && l.same(m) && r.same(q)
            }
            (Neg(x), Neg(y)) | (Not(x), Not(y)) | (ToF(x), ToF(y)) | (ToI(x), ToI(y)) => x.same(y),
            (Intrinsic { f, args }, Intrinsic { f: g, args: b }) => f == g && all(args, b),
            (ArrReduce { f, v }, ArrReduce { f: g, v: w }) => f == g && v == w,
            _ => false,
        }
    }
}

/// Whole-array reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrRed {
    Sum,
    Maxval,
    Minval,
    Size,
}

/// A resolved call argument.
#[derive(Debug, Clone)]
pub enum RArg {
    /// Scalar variable: copy-in / copy-out (value-result).
    ByRefScalar(VarIdx),
    /// Array element: copy-in / copy-out.
    ByRefElem { v: VarIdx, subs: Vec<RExpr> },
    /// Whole array: handle shared with the callee.
    Array(VarIdx),
    /// Arbitrary expression: by value.
    Value(RExpr),
}

/// Resolved OMP PARALLEL DO clauses.
#[derive(Debug, Clone)]
pub struct ROmp {
    /// PRIVATE + FIRSTPRIVATE variables (per-thread copies; firstprivate
    /// initialization is what frame cloning gives us anyway).
    pub private: Vec<VarIdx>,
    /// `(op, var)` reductions; scalars only.
    pub reductions: Vec<(RedOp, VarIdx)>,
    pub collapse: usize,
    pub num_threads: Option<Box<RExpr>>,
    /// Resolved loop schedule (clause absent → static block).
    pub sched: omprt::Schedule,
    /// The region body touches per-thread (SAVE / THREADPRIVATE) storage
    /// directly. Staging data through such cells across regions is only
    /// consistent when the iteration→thread mapping is reproducible, so
    /// runtime-dispatched schedules are legalized to static for these
    /// regions (see [`omprt::Schedule::legalize_for_per_thread`]).
    /// Computed by [`mark_per_thread_regions`].
    pub per_thread_access: bool,
}

/// Compiler-model classification of a serial DO loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VecClass {
    /// Not vectorizable (calls, control flow, inner loops).
    #[default]
    None,
    /// Straight-line elementwise body: SIMD bucket.
    Simd,
    /// Single zero-store body: memset bucket.
    Memset,
}

/// A resolved statement tagged with its source line, so both execution
/// tiers can report *where* a runtime fault happened (and the bytecode
/// compiler can emit a PC→line debug table).
#[derive(Debug, Clone)]
pub struct SpStmt {
    pub line: u32,
    pub s: RStmt,
}

/// Resolved statements.
#[derive(Debug, Clone)]
pub enum RStmt {
    AssignScalar { v: VarIdx, e: RExpr },
    AssignElem { v: VarIdx, subs: Vec<RExpr>, e: RExpr },
    /// Whole-array assignment from a scalar (broadcast).
    Broadcast { v: VarIdx, e: RExpr },
    /// Whole-array copy `dst = src` (shapes checked at runtime).
    CopyArray { dst: VarIdx, src: VarIdx },
    /// `!$OMP ATOMIC`-protected update `v[subs] = v[subs] op e`.
    AtomicUpdate { v: VarIdx, subs: Vec<RExpr>, op: RedOp, e: RExpr },
    If { arms: Vec<(RExpr, Vec<SpStmt>)>, else_body: Vec<SpStmt> },
    Do {
        var: VarIdx,
        start: RExpr,
        end: RExpr,
        step: Option<RExpr>,
        body: Vec<SpStmt>,
        omp: Option<ROmp>,
        vec: VecClass,
        /// For COLLAPSE(n): the next n-1 perfectly-nested inner loops.
        /// (Filled by sema when the loop carries an OMP collapse clause.)
        collapse_with: Vec<CollapseDim>,
    },
    DoWhile { cond: RExpr, body: Vec<SpStmt> },
    CallSub { unit: UnitId, args: Vec<RArg> },
    Allocate { v: VarIdx, dims: Vec<(RExpr, RExpr)> },
    Deallocate { v: VarIdx },
    Critical { name: String, body: Vec<SpStmt> },
    Return,
    Exit,
    Cycle,
    Print(Vec<PrintItem>),
    Stop(Option<String>),
    Nop,
    /// A call of leaf unit `unit` with the callee's body in place
    /// ([`rewrite::inline_leaves`]): the variables `locals` of the
    /// enclosing unit are the callee's frame, reset on entry as a call
    /// resets a fresh frame; `enter` copies the arguments in and `leave`
    /// copies them out (and the function result to its target), both on
    /// the call's line; `body` runs as the callee, one call level
    /// deeper.
    Inlined {
        unit: UnitId,
        locals: std::ops::Range<VarIdx>,
        enter: Vec<SpStmt>,
        body: Vec<SpStmt>,
        leave: Vec<SpStmt>,
    },
    /// Same-range loops fused into one ([`rewrite::fuse_spans`]): `slow`
    /// is the original statements, `DO v = a, b` … S … `DO v = a, b`
    /// (more loops for a chain); `fast` runs S first, then one loop
    /// whose body is the loops' bodies in order. Both run the same; the
    /// optimized build tries `fast` and falls back to `slow` (DESIGN §6),
    /// every other tier runs `slow`. Spans do not nest.
    Span { fast: Vec<SpStmt>, slow: Vec<SpStmt> },
}

/// One item of a PRINT list.
#[derive(Debug, Clone)]
pub enum PrintItem {
    Str(String),
    Val(RExpr),
}

/// One collapsed inner dimension: its loop variable and bounds.
#[derive(Debug, Clone)]
pub struct CollapseDim {
    pub var: VarIdx,
    pub start: RExpr,
    pub end: RExpr,
}

/// A resolved subprogram.
#[derive(Debug, Clone)]
pub struct RUnit {
    pub name: String,
    /// Parameter var indices, in order.
    pub params: Vec<VarIdx>,
    /// All variables of the unit.
    pub vars: Vec<VarInfo>,
    /// Frame size (slots).
    pub frame_size: usize,
    /// Result slot for functions.
    pub result: Option<(VarIdx, ScalarTy)>,
    pub body: Vec<SpStmt>,
}

/// Metadata for one global cell (allocation + reset + introspection).
#[derive(Debug, Clone)]
pub struct GlobalDecl {
    /// Diagnostic name, e.g. `fuliou_mod::fi%vd` or `common rad::cc`.
    pub name: String,
    pub ty: ScalarTy,
    pub rank: usize,
    /// Static dims; empty for scalars and allocatables.
    pub dims: Vec<(i64, i64)>,
    pub allocatable: bool,
    /// Per-thread storage (THREADPRIVATE, or SAVE used in parallel).
    pub per_thread: bool,
    /// Shared scalar some `REDUCTION` clause names: its cell must be
    /// splittable into per-thread partials (see
    /// [`crate::storage::GlobalCell::ReductionScalar`]). Computed by
    /// [`mark_per_thread_regions`].
    pub reduction: bool,
    /// Scalar initializer bits.
    pub init_bits: Option<u64>,
    /// Per-element initializer bits for statically-shaped arrays
    /// (fixed-form `DATA`); length equals the element count.
    pub init_elems: Option<Vec<u64>>,
}

/// The resolved program. Units are shared, so a rewrite that changes a
/// few of them ([`rewrite`]) clones only those.
#[derive(Debug, Clone, Default)]
pub struct RProgram {
    pub units: Vec<std::sync::Arc<RUnit>>,
    pub globals: Vec<GlobalDecl>,
}

/// Post-pass: set [`ROmp::per_thread_access`] on every parallel region
/// whose body references a per-thread (SAVE / THREADPRIVATE) global cell.
/// Only direct references count — a callee that uses its own SAVE locals
/// writes and reads them within one invocation, which is consistent on
/// whichever thread runs that iteration. Also flags every shared global
/// scalar a `REDUCTION` clause names ([`GlobalDecl::reduction`]).
pub fn mark_per_thread_regions(prog: &mut RProgram) {
    let RProgram { units, globals } = prog;
    for u in units.iter_mut() {
        let RUnit { vars, body, .. } = std::sync::Arc::make_mut(u);
        mark_stmts(body, vars, globals);
    }
}

fn mark_stmts(stmts: &mut [SpStmt], vars: &[VarInfo], globals: &mut [GlobalDecl]) {
    for sp in stmts.iter_mut() {
        if let RStmt::Do {
            var,
            body,
            omp: Some(o),
            collapse_with,
            ..
        } = &mut sp.s
        {
            o.per_thread_access = pt_var(*var, vars, globals)
                || collapse_with.iter().any(|c| pt_var(c.var, vars, globals))
                || stmts_touch_pt(body, vars, globals);
            for &(_, rv) in &o.reductions {
                if let Place::Global(c) = vars[rv].place {
                    globals[c].reduction = !globals[c].per_thread;
                }
            }
        }
        each_child_mut(&mut sp.s, &mut |b| mark_stmts(b, vars, globals));
    }
}

fn pt_var(v: VarIdx, vars: &[VarInfo], globals: &[GlobalDecl]) -> bool {
    matches!(vars[v].place, Place::Global(c) if globals[c].per_thread)
}

fn stmts_touch_pt(stmts: &[SpStmt], vars: &[VarInfo], globals: &[GlobalDecl]) -> bool {
    let mut touched = false;
    walk_stmts(stmts, &mut |seen| match seen {
        Seen::Ref(v) | Seen::Store(v) | Seen::Alloc(v) | Seen::Dealloc(v) | Seen::Query(v) => {
            touched |= pt_var(v, vars, globals);
        }
        Seen::Return => {}
    });
    touched
}

/// Calls `f` on each statement list nested in `s`, in statement order:
/// an `IF`'s arms then its `ELSE`, an inlined block's copies in and out
/// around its body, a span's `fast` then its `slow`.
pub(crate) fn each_child<'a>(s: &'a RStmt, f: &mut dyn FnMut(&'a [SpStmt])) {
    match s {
        RStmt::If { arms, else_body } => {
            arms.iter().for_each(|(_, b)| f(b));
            f(else_body);
        }
        RStmt::Do { body, .. } | RStmt::DoWhile { body, .. } | RStmt::Critical { body, .. } => {
            f(body)
        }
        RStmt::Inlined {
            enter, body, leave, ..
        } => {
            f(enter);
            f(body);
            f(leave);
        }
        RStmt::Span { fast, slow } => {
            f(fast);
            f(slow);
        }
        _ => {}
    }
}

/// [`each_child`] with the lists open to change.
pub(crate) fn each_child_mut(s: &mut RStmt, f: &mut dyn FnMut(&mut [SpStmt])) {
    match s {
        RStmt::If { arms, else_body } => {
            arms.iter_mut().for_each(|(_, b)| f(b));
            f(else_body);
        }
        RStmt::Do { body, .. } | RStmt::DoWhile { body, .. } | RStmt::Critical { body, .. } => {
            f(body)
        }
        RStmt::Inlined {
            enter, body, leave, ..
        } => {
            f(enter);
            f(body);
            f(leave);
        }
        RStmt::Span { fast, slow } => {
            f(fast);
            f(slow);
        }
        _ => {}
    }
}

/// One thing [`walk_stmts`] reports.
#[derive(Clone, Copy)]
pub(crate) enum Seen {
    /// Any mention of a variable but the four below.
    Ref(VarIdx),
    /// The variable a statement stores to as a whole target: an
    /// assignment's, a `DO` loop's (a collapsed one's too). A call's
    /// by-reference argument is a [`Seen::Ref`].
    Store(VarIdx),
    Alloc(VarIdx),
    Dealloc(VarIdx),
    /// `ALLOCATED(v)`.
    Query(VarIdx),
    Return,
}

/// What an RIR node holds, written down once for both borrows: the
/// walks below call `f` on the parts of one node, not on those of the
/// nodes inside them, and each has a `_mut` twin (`$m` = `mut`) for the
/// rewrites that change the parts in place. A new `RExpr` or `RStmt`
/// variant is listed here and in [`each_child`], and every walk of the
/// optimized build's passes follows.
macro_rules! node_parts {
    ($operands:ident, $arg_exprs:ident, $own_exprs:ident, $expr_vars:ident,
     $stmt_vars:ident, $arg_var:ident $(, $m:tt)?) => {
        /// Calls `f` on each operand of `e`, in evaluation order, a
        /// call's argument expressions included.
        pub(crate) fn $operands<'a>(e: &'a $($m)? RExpr, f: &mut dyn FnMut(&'a $($m)? RExpr)) {
            match e {
                RExpr::LoadElem { subs: xs, .. } | RExpr::Intrinsic { args: xs, .. } => {
                    xs.into_iter().for_each(f)
                }
                RExpr::Bin { l, r, .. } => {
                    f(l);
                    f(r);
                }
                RExpr::Neg(x) | RExpr::Not(x) | RExpr::ToF(x) | RExpr::ToI(x) => f(x),
                RExpr::CallFn { args, .. } => args.into_iter().for_each(|a| $arg_exprs(a, f)),
                RExpr::ConstI(_)
                | RExpr::ConstF(_)
                | RExpr::ConstB(_)
                | RExpr::LoadScalar(_)
                | RExpr::ArrReduce { .. }
                | RExpr::AllocatedQ(_) => {}
            }
        }

        /// Calls `f` on the expressions argument `a` evaluates.
        pub(crate) fn $arg_exprs<'a>(a: &'a $($m)? RArg, f: &mut dyn FnMut(&'a $($m)? RExpr)) {
            match a {
                RArg::ByRefElem { subs, .. } => subs.into_iter().for_each(f),
                RArg::Value(e) => f(e),
                RArg::ByRefScalar(_) | RArg::Array(_) => {}
            }
        }

        /// Calls `f` on the expressions `s` evaluates itself, in
        /// statement order (not those of the statements nested in it).
        pub(crate) fn $own_exprs<'a>(s: &'a $($m)? RStmt, f: &mut dyn FnMut(&'a $($m)? RExpr)) {
            match s {
                RStmt::AssignScalar { e, .. } | RStmt::Broadcast { e, .. } => f(e),
                RStmt::AssignElem { subs, e, .. } | RStmt::AtomicUpdate { subs, e, .. } => {
                    subs.into_iter().for_each(&mut *f);
                    f(e);
                }
                RStmt::If { arms, .. } => arms.into_iter().for_each(|(c, _)| f(c)),
                RStmt::Do { start, end, step, omp, collapse_with, .. } => {
                    f(start);
                    f(end);
                    step.into_iter().for_each(&mut *f);
                    for CollapseDim { start, end, .. } in collapse_with {
                        f(start);
                        f(end);
                    }
                    if let Some(ROmp { num_threads: Some(nt), .. }) = omp {
                        f(nt);
                    }
                }
                RStmt::DoWhile { cond, .. } => f(cond),
                RStmt::CallSub { args, .. } => args.into_iter().for_each(|a| $arg_exprs(a, f)),
                RStmt::Allocate { dims, .. } => {
                    for (lo, hi) in dims {
                        f(lo);
                        f(hi);
                    }
                }
                RStmt::Print(items) => {
                    for it in items {
                        if let PrintItem::Val(e) = it {
                            f(e);
                        }
                    }
                }
                RStmt::CopyArray { .. }
                | RStmt::Deallocate { .. }
                | RStmt::Critical { .. }
                | RStmt::Return
                | RStmt::Exit
                | RStmt::Cycle
                | RStmt::Stop(_)
                | RStmt::Nop
                | RStmt::Inlined { .. }
                | RStmt::Span { .. } => {}
            }
        }

        /// Calls `f` on each variable `e` names itself (not its
        /// operands), with the [`Seen`] each one is: a call's
        /// by-reference and array arguments included.
        pub(crate) fn $expr_vars<'a>(
            e: &'a $($m)? RExpr,
            f: &mut dyn FnMut(fn(VarIdx) -> Seen, &'a $($m)? VarIdx),
        ) {
            match e {
                RExpr::LoadScalar(v) | RExpr::LoadElem { v, .. } | RExpr::ArrReduce { v, .. } => {
                    f(Seen::Ref, v)
                }
                RExpr::AllocatedQ(v) => f(Seen::Query, v),
                RExpr::CallFn { args, .. } => args.into_iter().for_each(|a| $arg_var(a, f)),
                RExpr::ConstI(_)
                | RExpr::ConstF(_)
                | RExpr::ConstB(_)
                | RExpr::Bin { .. }
                | RExpr::Neg(_)
                | RExpr::Not(_)
                | RExpr::ToF(_)
                | RExpr::ToI(_)
                | RExpr::Intrinsic { .. } => {}
            }
        }

        /// Calls `f` on each variable `s` names itself (not in its
        /// expressions or nested statements), with the [`Seen`] each
        /// one is. An inlined block's `locals` are no mention (see
        /// [`walk_stmts`]).
        pub(crate) fn $stmt_vars<'a>(
            s: &'a $($m)? RStmt,
            f: &mut dyn FnMut(fn(VarIdx) -> Seen, &'a $($m)? VarIdx),
        ) {
            match s {
                RStmt::AssignScalar { v, .. }
                | RStmt::AssignElem { v, .. }
                | RStmt::Broadcast { v, .. } => f(Seen::Store, v),
                RStmt::CopyArray { dst, src } => {
                    f(Seen::Store, dst);
                    f(Seen::Ref, src);
                }
                RStmt::AtomicUpdate { v, .. } => f(Seen::Ref, v),
                RStmt::Do { var, omp, collapse_with, .. } => {
                    f(Seen::Store, var);
                    for CollapseDim { var, .. } in collapse_with {
                        f(Seen::Store, var);
                    }
                    if let Some(ROmp { private, reductions, .. }) = omp {
                        private.into_iter().for_each(|v| f(Seen::Ref, v));
                        reductions.into_iter().for_each(|(_, v)| f(Seen::Ref, v));
                    }
                }
                RStmt::CallSub { args, .. } => args.into_iter().for_each(|a| $arg_var(a, f)),
                RStmt::Allocate { v, .. } => f(Seen::Alloc, v),
                RStmt::Deallocate { v } => f(Seen::Dealloc, v),
                RStmt::If { .. }
                | RStmt::DoWhile { .. }
                | RStmt::Critical { .. }
                | RStmt::Return
                | RStmt::Exit
                | RStmt::Cycle
                | RStmt::Print(_)
                | RStmt::Stop(_)
                | RStmt::Nop
                | RStmt::Inlined { .. }
                | RStmt::Span { .. } => {}
            }
        }

        fn $arg_var<'a>(a: &'a $($m)? RArg, f: &mut dyn FnMut(fn(VarIdx) -> Seen, &'a $($m)? VarIdx)) {
            match a {
                RArg::ByRefScalar(v) | RArg::Array(v) | RArg::ByRefElem { v, .. } => f(Seen::Ref, v),
                RArg::Value(_) => {}
            }
        }
    };
}

node_parts!(operands, arg_exprs, own_exprs, expr_vars, stmt_vars, arg_var);
node_parts!(
    operands_mut,
    arg_exprs_mut,
    own_exprs_mut,
    expr_vars_mut,
    stmt_vars_mut,
    arg_var_mut,
    mut
);

/// Calls `f` on every variable mention and every `RETURN` in `stmts`:
/// each statement's own, then those of the statements nested in it,
/// OMP clauses included. An inlined block's reset of its locals is no
/// mention: it writes what a fresh frame holds, which no statement
/// outside the block reads.
pub(crate) fn walk_stmts(stmts: &[SpStmt], f: &mut dyn FnMut(Seen)) {
    for sp in stmts {
        walk_stmt(&sp.s, f);
    }
}

/// [`walk_stmts`] over one statement.
pub(crate) fn walk_stmt(s: &RStmt, f: &mut dyn FnMut(Seen)) {
    walk_own(s, f);
    each_child(s, &mut |b| walk_stmts(b, f));
}

/// [`walk_stmt`] less the statements nested in `s`.
pub(crate) fn walk_own(s: &RStmt, f: &mut dyn FnMut(Seen)) {
    if let RStmt::Return = s {
        f(Seen::Return);
    }
    stmt_vars(s, &mut |seen, &v| f(seen(v)));
    own_exprs(s, &mut |e| walk_expr(e, f));
}

/// [`walk_stmts`] over one expression, a call's arguments included.
pub(crate) fn walk_expr(e: &RExpr, f: &mut dyn FnMut(Seen)) {
    expr_vars(e, &mut |seen, &v| f(seen(v)));
    operands(e, &mut |x| walk_expr(x, f));
}

/// Longest constant trip of an inner loop a `VecLoop` region unrolls.
pub(crate) const NEST_TRIP: u64 = 8;

/// The literal bounds of an inner `DO` a region unrolls, and so a fused
/// body may hold: unit step, 1 to [`NEST_TRIP`] trips, over a frame
/// INTEGER scalar none of the enclosing loops `open` uses.
pub(crate) fn unrolled_bounds(s: &RStmt, vars: &[VarInfo], open: &[VarIdx]) -> Option<(i64, i64)> {
    let RStmt::Do {
        var,
        start: RExpr::ConstI(lo),
        end: RExpr::ConstI(hi),
        step: None | Some(RExpr::ConstI(1)),
        omp: None,
        ..
    } = s
    else {
        return None;
    };
    let v = &vars[*var];
    let frame_int = matches!(v.place, Place::Frame(_)) && v.rank == 0 && v.ty == ScalarTy::I;
    let trips = crate::intrinsics::do_trips(*lo, *hi, 1);
    (frame_int && !open.contains(var) && (1..=NEST_TRIP).contains(&trips)).then_some((*lo, *hi))
}

/// True when evaluating `e` can store to frame scalar `var`: only a
/// user function call passing `var` by reference does (copy-out on
/// return); nothing else in an expression assigns.
pub(crate) fn expr_copies_out_to(e: &RExpr, var: VarIdx) -> bool {
    let mut out = matches!(e, RExpr::CallFn { args, .. }
        if args.iter().any(|a| matches!(a, RArg::ByRefScalar(v) if *v == var)));
    operands(e, &mut |x| out = out || expr_copies_out_to(x, var));
    out
}

/// Renames the variables of `stmts` in place: the one mutable walk the
/// renamers share. `f` maps every variable mention [`walk_stmts`]
/// reports, and each inlined block's `locals` move with their first
/// variable; a scalar load `load` gives an expression for becomes that
/// expression, which the walk leaves as it is.
pub(crate) fn rename_stmts(
    stmts: &mut [SpStmt],
    f: &mut dyn FnMut(&mut VarIdx),
    load: &dyn Fn(VarIdx) -> Option<RExpr>,
) {
    for sp in stmts {
        if let RStmt::Inlined { locals, .. } = &mut sp.s {
            let n = locals.len();
            f(&mut locals.start);
            locals.end = locals.start + n;
        }
        stmt_vars_mut(&mut sp.s, &mut |_, v| f(v));
        own_exprs_mut(&mut sp.s, &mut |e| rename_expr(e, f, load));
        each_child_mut(&mut sp.s, &mut |b| rename_stmts(b, f, load));
    }
}

/// [`rename_stmts`] over one expression.
pub(crate) fn rename_expr(
    e: &mut RExpr,
    f: &mut dyn FnMut(&mut VarIdx),
    load: &dyn Fn(VarIdx) -> Option<RExpr>,
) {
    if let RExpr::LoadScalar(v) = e {
        if let Some(x) = load(*v) {
            *e = x;
            return;
        }
    }
    expr_vars_mut(e, &mut |_, v| f(v));
    operands_mut(e, &mut |x| rename_expr(x, f, load));
}

impl RProgram {
    pub fn unit_id(&self, name: &str) -> Option<UnitId> {
        let lower = name.to_ascii_lowercase();
        self.units.iter().position(|u| u.name == lower)
    }

    /// Finds a global cell index by its diagnostic name.
    pub fn global_id(&self, name: &str) -> Option<usize> {
        self.globals.iter().position(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Which `RExpr` variant `e` is, and how many there are.
    fn expr_kind(e: &RExpr) -> usize {
        match e {
            RExpr::ConstI(_) => 0,
            RExpr::ConstF(_) => 1,
            RExpr::ConstB(_) => 2,
            RExpr::LoadScalar(_) => 3,
            RExpr::LoadElem { .. } => 4,
            RExpr::Bin { .. } => 5,
            RExpr::Neg(_) => 6,
            RExpr::Not(_) => 7,
            RExpr::ToF(_) => 8,
            RExpr::ToI(_) => 9,
            RExpr::Intrinsic { .. } => 10,
            RExpr::ArrReduce { .. } => 11,
            RExpr::AllocatedQ(_) => 12,
            RExpr::CallFn { .. } => 13,
        }
    }
    const EXPR_KINDS: usize = 14;

    /// Which `RStmt` variant `s` is, and how many there are.
    fn stmt_kind(s: &RStmt) -> usize {
        match s {
            RStmt::AssignScalar { .. } => 0,
            RStmt::AssignElem { .. } => 1,
            RStmt::Broadcast { .. } => 2,
            RStmt::CopyArray { .. } => 3,
            RStmt::AtomicUpdate { .. } => 4,
            RStmt::If { .. } => 5,
            RStmt::Do { .. } => 6,
            RStmt::DoWhile { .. } => 7,
            RStmt::CallSub { .. } => 8,
            RStmt::Allocate { .. } => 9,
            RStmt::Deallocate { .. } => 10,
            RStmt::Critical { .. } => 11,
            RStmt::Return => 12,
            RStmt::Exit => 13,
            RStmt::Cycle => 14,
            RStmt::Print(_) => 15,
            RStmt::Stop(_) => 16,
            RStmt::Nop => 17,
            RStmt::Inlined { .. } => 18,
            RStmt::Span { .. } => 19,
        }
    }
    const STMT_KINDS: usize = 20;

    /// A body holding every statement and expression variant, each
    /// mention a variable of its own: 0, 1, 2, … in no particular order.
    fn every_variant() -> Vec<SpStmt> {
        let next = Cell::new(0);
        let v = || {
            next.set(next.get() + 1);
            next.get() - 1
        };
        let bx = Box::new;
        let e = || RExpr::Bin {
            op: Bin::Add,
            ty: ScalarTy::F,
            l: bx(RExpr::Intrinsic {
                f: Intr::Max,
                args: vec![
                    RExpr::Neg(bx(RExpr::LoadScalar(v()))),
                    RExpr::ToF(bx(RExpr::ConstI(1))),
                    RExpr::ConstF(2.0),
                    RExpr::ArrReduce { f: ArrRed::Sum, v: v() },
                ],
            }),
            r: bx(RExpr::CallFn {
                unit: 0,
                ret: ScalarTy::F,
                args: vec![
                    RArg::ByRefScalar(v()),
                    RArg::ByRefElem {
                        v: v(),
                        subs: vec![RExpr::ToI(bx(RExpr::LoadElem {
                            v: v(),
                            subs: vec![RExpr::LoadScalar(v())],
                        }))],
                    },
                    RArg::Array(v()),
                    RArg::Value(RExpr::Not(bx(RExpr::AllocatedQ(v())))),
                    RArg::Value(RExpr::ConstB(true)),
                ],
            }),
        };
        let at = |s: RStmt| SpStmt { line: 1, s };
        let leaf = || {
            vec![
                at(RStmt::AssignScalar { v: v(), e: e() }),
                at(RStmt::AssignElem { v: v(), subs: vec![e()], e: e() }),
                at(RStmt::Broadcast { v: v(), e: e() }),
                at(RStmt::CopyArray { dst: v(), src: v() }),
                at(RStmt::AtomicUpdate { v: v(), subs: vec![e()], op: RedOp::Add, e: e() }),
                at(RStmt::CallSub { unit: 0, args: vec![RArg::ByRefScalar(v()), RArg::Value(e())] }),
                at(RStmt::Allocate { v: v(), dims: vec![(e(), e())] }),
                at(RStmt::Deallocate { v: v() }),
                at(RStmt::Print(vec![PrintItem::Str("x".into()), PrintItem::Val(e())])),
                at(RStmt::Exit),
                at(RStmt::Cycle),
                at(RStmt::Stop(None)),
                at(RStmt::Nop),
                at(RStmt::Return),
            ]
        };
        let mut body = leaf();
        body.push(at(RStmt::If { arms: vec![(e(), leaf()), (e(), leaf())], else_body: leaf() }));
        body.push(at(RStmt::Do {
            var: v(),
            start: e(),
            end: e(),
            step: Some(e()),
            body: leaf(),
            omp: Some(ROmp {
                private: vec![v()],
                reductions: vec![(RedOp::Add, v())],
                collapse: 2,
                num_threads: Some(bx(e())),
                sched: omprt::Schedule::StaticBlock,
                per_thread_access: false,
            }),
            vec: VecClass::None,
            collapse_with: vec![CollapseDim { var: v(), start: e(), end: e() }],
        }));
        body.push(at(RStmt::DoWhile { cond: e(), body: leaf() }));
        body.push(at(RStmt::Critical { name: "c".into(), body: leaf() }));
        body.push(at(RStmt::Inlined {
            unit: 0,
            locals: 1000..1010,
            enter: leaf(),
            body: leaf(),
            leave: leaf(),
        }));
        body.push(at(RStmt::Span { fast: leaf(), slow: leaf() }));
        body
    }

    /// Every mention [`walk_stmts`] reports, and how many `RETURN`s.
    fn mentions(body: &[SpStmt]) -> (Vec<VarIdx>, usize) {
        let (mut vars, mut returns) = (Vec::new(), 0);
        walk_stmts(body, &mut |seen| match seen {
            Seen::Ref(v) | Seen::Store(v) | Seen::Alloc(v) | Seen::Dealloc(v) | Seen::Query(v) => {
                vars.push(v)
            }
            Seen::Return => returns += 1,
        });
        (vars, returns)
    }

    /// The sample holds every variant, so the walks below see them all.
    #[test]
    fn the_sample_holds_every_variant() {
        fn kinds(body: &[SpStmt], s: &mut [bool], e: &mut [bool]) {
            fn expr(x: &RExpr, e: &mut [bool]) {
                e[expr_kind(x)] = true;
                operands(x, &mut |y| expr(y, e));
            }
            for sp in body {
                s[stmt_kind(&sp.s)] = true;
                own_exprs(&sp.s, &mut |x| expr(x, e));
                each_child(&sp.s, &mut |b| kinds(b, s, e));
            }
        }
        let (mut s, mut e) = ([false; STMT_KINDS], [false; EXPR_KINDS]);
        kinds(&every_variant(), &mut s, &mut e);
        assert!(s.iter().all(|&k| k), "statement kinds: {s:?}");
        assert!(e.iter().all(|&k| k), "expression kinds: {e:?}");
    }

    /// The shared walk reports each mention once, and renaming every
    /// variable `v` to `v + k` through the mutable walk shifts each one
    /// by `k` — none missed, none renamed twice — and moves an inlined
    /// block's locals with them.
    #[test]
    fn renaming_shifts_every_mention_once() {
        let mut body = every_variant();
        let (before, returns) = mentions(&body);
        let mut sorted = before.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..before.len()).collect::<Vec<_>>(), "each mention once");
        assert_eq!(returns, 12, "the RETURN of each of the 12 statement lists");
        let k = 10_000;
        rename_stmts(&mut body, &mut |v| *v += k, &|_| None);
        let (after, _) = mentions(&body);
        let shifted: Vec<VarIdx> = before.iter().map(|v| v + k).collect();
        assert_eq!(after, shifted);
        let RStmt::Inlined { locals, .. } = &body[body.len() - 2].s else {
            panic!("the sample's inlined block");
        };
        assert_eq!(*locals, 1000 + k..1010 + k);
    }
}
