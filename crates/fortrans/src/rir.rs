//! The resolved IR: names replaced by slots, types settled, intrinsics
//! identified. Produced by [`crate::sema`], consumed by [`crate::interp`];
//! [`rewrite`] holds the program-to-program rules the optimized build
//! applies before lowering.

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
    /// Static dims for non-allocatable arrays (lo, hi).
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
        Seen::Ref(v) | Seen::Alloc(v) | Seen::Dealloc(v) | Seen::Query(v) => {
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
    /// Any mention of a variable but the three below.
    Ref(VarIdx),
    Alloc(VarIdx),
    Dealloc(VarIdx),
    /// `ALLOCATED(v)`.
    Query(VarIdx),
    Return,
}

/// Calls `f` on every variable mention and every `RETURN` in `stmts`,
/// in statement order, nested bodies and OMP clauses included. An
/// inlined block's reset of its locals is no mention: it writes what a
/// fresh frame holds, which no statement outside the block reads.
pub(crate) fn walk_stmts(stmts: &[SpStmt], f: &mut dyn FnMut(Seen)) {
    for sp in stmts {
        walk_stmt(&sp.s, f);
    }
}

/// [`walk_stmts`] over one statement.
pub(crate) fn walk_stmt(s: &RStmt, f: &mut dyn FnMut(Seen)) {
    match s {
        RStmt::AssignScalar { v, e } | RStmt::Broadcast { v, e } => {
            f(Seen::Ref(*v));
            walk_expr(e, f);
        }
        RStmt::AssignElem { v, subs, e } | RStmt::AtomicUpdate { v, subs, e, .. } => {
            f(Seen::Ref(*v));
            subs.iter().for_each(|x| walk_expr(x, f));
            walk_expr(e, f);
        }
        RStmt::CopyArray { dst, src } => {
            f(Seen::Ref(*dst));
            f(Seen::Ref(*src));
        }
        RStmt::If { arms, else_body } => {
            for (c, b) in arms {
                walk_expr(c, f);
                walk_stmts(b, f);
            }
            walk_stmts(else_body, f);
        }
        RStmt::Do { var, start, end, step, body, omp, collapse_with, .. } => {
            f(Seen::Ref(*var));
            [start, end].into_iter().chain(step).for_each(|x| walk_expr(x, f));
            for c in collapse_with {
                f(Seen::Ref(c.var));
                walk_expr(&c.start, f);
                walk_expr(&c.end, f);
            }
            if let Some(o) = omp {
                o.private.iter().for_each(|&v| f(Seen::Ref(v)));
                o.reductions.iter().for_each(|&(_, v)| f(Seen::Ref(v)));
                o.num_threads.iter().for_each(|x| walk_expr(x, f));
            }
            walk_stmts(body, f);
        }
        RStmt::DoWhile { cond, body } => {
            walk_expr(cond, f);
            walk_stmts(body, f);
        }
        RStmt::CallSub { args, .. } => args.iter().for_each(|a| walk_arg(a, f)),
        RStmt::Allocate { v, dims } => {
            f(Seen::Alloc(*v));
            for (lo, hi) in dims {
                walk_expr(lo, f);
                walk_expr(hi, f);
            }
        }
        RStmt::Deallocate { v } => f(Seen::Dealloc(*v)),
        RStmt::Critical { body, .. } => walk_stmts(body, f),
        RStmt::Return => f(Seen::Return),
        RStmt::Print(items) => {
            for it in items {
                if let PrintItem::Val(e) = it {
                    walk_expr(e, f);
                }
            }
        }
        RStmt::Inlined { enter, body, leave, .. } => {
            walk_stmts(enter, f);
            walk_stmts(body, f);
            walk_stmts(leave, f);
        }
        RStmt::Span { fast, slow } => {
            walk_stmts(fast, f);
            walk_stmts(slow, f);
        }
        RStmt::Exit | RStmt::Cycle | RStmt::Stop(_) | RStmt::Nop => {}
    }
}

/// [`walk_stmts`] over one expression, a call's arguments included.
pub(crate) fn walk_expr(e: &RExpr, f: &mut dyn FnMut(Seen)) {
    match e {
        RExpr::ConstI(_) | RExpr::ConstF(_) | RExpr::ConstB(_) => {}
        RExpr::LoadScalar(v) | RExpr::ArrReduce { v, .. } => f(Seen::Ref(*v)),
        RExpr::AllocatedQ(v) => f(Seen::Query(*v)),
        RExpr::LoadElem { v, subs } => {
            f(Seen::Ref(*v));
            subs.iter().for_each(|x| walk_expr(x, f));
        }
        RExpr::Bin { l, r, .. } => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        RExpr::Neg(x) | RExpr::Not(x) | RExpr::ToF(x) | RExpr::ToI(x) => walk_expr(x, f),
        RExpr::Intrinsic { args, .. } => args.iter().for_each(|x| walk_expr(x, f)),
        RExpr::CallFn { args, .. } => args.iter().for_each(|a| walk_arg(a, f)),
    }
}

fn walk_arg(a: &RArg, f: &mut dyn FnMut(Seen)) {
    match a {
        RArg::ByRefScalar(v) | RArg::Array(v) => f(Seen::Ref(*v)),
        RArg::ByRefElem { v, subs } => {
            f(Seen::Ref(*v));
            subs.iter().for_each(|x| walk_expr(x, f));
        }
        RArg::Value(x) => walk_expr(x, f),
    }
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
