//! The resolved IR: names replaced by slots, types settled, intrinsics
//! identified. Produced by [`crate::sema`], consumed by [`crate::interp`].

use crate::ast::{Bin, RedOp};
use crate::intrinsics::Intr;

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

/// The resolved program.
#[derive(Debug, Clone, Default)]
pub struct RProgram {
    pub units: Vec<RUnit>,
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
        let RUnit { vars, body, .. } = u;
        mark_stmts(body, vars, globals);
    }
}

fn mark_stmts(stmts: &mut [SpStmt], vars: &[VarInfo], globals: &mut [GlobalDecl]) {
    for sp in stmts.iter_mut() {
        match &mut sp.s {
            RStmt::Do { var, body, omp, collapse_with, .. } => {
                mark_stmts(body, vars, globals);
                if let Some(o) = omp {
                    let mut touched = pt_var(*var, vars, globals)
                        || collapse_with.iter().any(|c| pt_var(c.var, vars, globals));
                    touched = touched || stmts_touch_pt(body, vars, globals);
                    o.per_thread_access = touched;
                    for &(_, rv) in &o.reductions {
                        if let Place::Global(c) = vars[rv].place {
                            globals[c].reduction = !globals[c].per_thread;
                        }
                    }
                }
            }
            RStmt::If { arms, else_body } => {
                for (_, b) in arms.iter_mut() {
                    mark_stmts(b, vars, globals);
                }
                mark_stmts(else_body, vars, globals);
            }
            RStmt::DoWhile { body, .. } | RStmt::Critical { body, .. } => {
                mark_stmts(body, vars, globals);
            }
            _ => {}
        }
    }
}

fn pt_var(v: VarIdx, vars: &[VarInfo], globals: &[GlobalDecl]) -> bool {
    matches!(vars[v].place, Place::Global(c) if globals[c].per_thread)
}

fn stmts_touch_pt(stmts: &[SpStmt], vars: &[VarInfo], globals: &[GlobalDecl]) -> bool {
    let pt = |v: VarIdx| pt_var(v, vars, globals);
    let pe = |e: &RExpr| expr_touches_pt(e, vars, globals);
    stmts.iter().any(|sp| match &sp.s {
        RStmt::AssignScalar { v, e } | RStmt::Broadcast { v, e } => pt(*v) || pe(e),
        RStmt::AssignElem { v, subs, e } => pt(*v) || subs.iter().any(pe) || pe(e),
        RStmt::CopyArray { dst, src } => pt(*dst) || pt(*src),
        RStmt::AtomicUpdate { v, subs, e, .. } => pt(*v) || subs.iter().any(pe) || pe(e),
        RStmt::If { arms, else_body } => {
            arms.iter().any(|(c, b)| pe(c) || stmts_touch_pt(b, vars, globals))
                || stmts_touch_pt(else_body, vars, globals)
        }
        RStmt::Do { var, start, end, step, body, collapse_with, .. } => {
            pt(*var)
                || pe(start)
                || pe(end)
                || step.as_ref().is_some_and(&pe)
                || collapse_with
                    .iter()
                    .any(|c| pt(c.var) || pe(&c.start) || pe(&c.end))
                || stmts_touch_pt(body, vars, globals)
        }
        RStmt::DoWhile { cond, body } => pe(cond) || stmts_touch_pt(body, vars, globals),
        RStmt::CallSub { args, .. } => args.iter().any(|a| arg_touches_pt(a, vars, globals)),
        RStmt::Allocate { v, dims } => {
            pt(*v) || dims.iter().any(|(lo, hi)| pe(lo) || pe(hi))
        }
        RStmt::Deallocate { v } => pt(*v),
        RStmt::Critical { body, .. } => stmts_touch_pt(body, vars, globals),
        RStmt::Print(items) => items.iter().any(|i| match i {
            PrintItem::Str(_) => false,
            PrintItem::Val(e) => pe(e),
        }),
        RStmt::Return | RStmt::Exit | RStmt::Cycle | RStmt::Stop(_) | RStmt::Nop => false,
    })
}

fn arg_touches_pt(a: &RArg, vars: &[VarInfo], globals: &[GlobalDecl]) -> bool {
    match a {
        RArg::ByRefScalar(v) | RArg::Array(v) => pt_var(*v, vars, globals),
        RArg::ByRefElem { v, subs } => {
            pt_var(*v, vars, globals)
                || subs.iter().any(|e| expr_touches_pt(e, vars, globals))
        }
        RArg::Value(e) => expr_touches_pt(e, vars, globals),
    }
}

fn expr_touches_pt(e: &RExpr, vars: &[VarInfo], globals: &[GlobalDecl]) -> bool {
    let pt = |v: VarIdx| pt_var(v, vars, globals);
    match e {
        RExpr::ConstI(_) | RExpr::ConstF(_) | RExpr::ConstB(_) => false,
        RExpr::LoadScalar(v) | RExpr::ArrReduce { v, .. } | RExpr::AllocatedQ(v) => pt(*v),
        RExpr::LoadElem { v, subs } => {
            pt(*v) || subs.iter().any(|s| expr_touches_pt(s, vars, globals))
        }
        RExpr::Bin { l, r, .. } => {
            expr_touches_pt(l, vars, globals) || expr_touches_pt(r, vars, globals)
        }
        RExpr::Neg(x) | RExpr::Not(x) | RExpr::ToF(x) | RExpr::ToI(x) => {
            expr_touches_pt(x, vars, globals)
        }
        RExpr::Intrinsic { args, .. } => {
            args.iter().any(|a| expr_touches_pt(a, vars, globals))
        }
        RExpr::CallFn { args, .. } => args.iter().any(|a| arg_touches_pt(a, vars, globals)),
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
