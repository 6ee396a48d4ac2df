//! The interpreter: executes the resolved IR in three modes.
//!
//! * **Serial** — plain execution, OMP directives ignored (this is what
//!   "compiled without -fopenmp" means).
//! * **Parallel(t)** — `!$OMP PARALLEL DO` loops fork onto an
//!   [`omprt::ThreadPool`]; frames are cloned per thread (giving
//!   private/firstprivate semantics for frame scalars and shared semantics
//!   for array handles and globals), REDUCTION variables accumulate into
//!   per-thread identities and combine at the join, ATOMIC updates CAS.
//! * **Simulated(t)** — serial-order execution that *attributes* each
//!   iteration's operation counts to the thread that would own it under
//!   the static schedule, producing a [`CostTrace`] for the `simcpu`
//!   machine model. Results are bit-identical to Serial.
//!
//! Nested parallel regions execute with a team of one (OpenMP's default
//! `OMP_NESTED=false`) while still paying the fork cost — the mechanism
//! behind the FUN3D "inner-loop parallelization only adds overhead"
//! finding (§4.2.2).

use std::sync::Arc;

use omprt::{chunks_for, CriticalRegistry, Schedule, ThreadPool};
use parking_lot::Mutex;

use crate::ast::{Bin, RedOp};
use crate::cost::{CostCounters, CostTrace, RegionEvent};
use crate::error::RunError;
use crate::intrinsics::Intr;
use crate::rir::*;
use crate::storage::{ArrayObj, Frame, FrameVal, GlobalCell, Globals};

/// Reduction partials from one parallel region, keyed for a
/// deterministic combine order (tid under static schedules, first flat
/// iteration of the chunk under dynamic/guided).
type KeyedPartials = Vec<(usize, Result<Vec<Val>, RunError>)>;

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    Serial,
    Parallel { threads: usize },
    Simulated { threads: usize },
}

impl ExecMode {
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel { threads } | ExecMode::Simulated { threads } => threads.max(1),
        }
    }
}

/// A scalar runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    I(i64),
    F(f64),
    B(bool),
}

impl Val {
    pub fn as_f(self) -> f64 {
        match self {
            Val::I(v) => v as f64,
            Val::F(v) => v,
            Val::B(b) => f64::from(u8::from(b)),
        }
    }

    pub fn as_i(self) -> i64 {
        match self {
            Val::I(v) => v,
            Val::F(v) => v.trunc() as i64,
            Val::B(b) => i64::from(b),
        }
    }

    pub fn as_b(self) -> bool {
        match self {
            Val::B(b) => b,
            Val::I(v) => v != 0,
            Val::F(v) => v != 0.0,
        }
    }

    pub(crate) fn to_bits(self, ty: ScalarTy) -> u64 {
        match ty {
            ScalarTy::I => self.as_i() as u64,
            ScalarTy::F => self.as_f().to_bits(),
            ScalarTy::B => u64::from(self.as_b()),
        }
    }

    pub(crate) fn from_bits(bits: u64, ty: ScalarTy) -> Val {
        match ty {
            ScalarTy::I => Val::I(bits as i64),
            ScalarTy::F => Val::F(f64::from_bits(bits)),
            ScalarTy::B => Val::B(bits != 0),
        }
    }
}

/// Engine-level execution limits. Every field defaults to the engine's
/// historical behavior (no step budget, no deadline, call depth 200), so
/// `RunLimits::default()` is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Execution-step budget per top-level call (statements in the
    /// tree-walk tier, instructions in the VM tier). `None` = unlimited.
    pub max_steps: Option<u64>,
    /// Wall-clock budget per top-level call. `None` = unlimited.
    pub deadline: Option<std::time::Duration>,
    /// Recursion safety valve (nested user-unit calls).
    pub max_call_depth: usize,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits { max_steps: None, deadline: None, max_call_depth: 200 }
    }
}

/// Cooperative cancellation token shared between a run and whoever may
/// need to stop it (a batch watchdog, a caller-side ctrl-c handler, a
/// test). Both execution tiers poll it at the same safepoints the step
/// budget uses — DO-loop back-edges and statement/instruction dispatch
/// (every 1024 steps) plus OMP region entry — so a fired token surfaces
/// as [`RunError::Cancelled`] instead of a hang. The first `cancel` call
/// wins; later calls keep the original reason.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: std::sync::atomic::AtomicBool,
    reason: Mutex<String>,
}

impl CancelToken {
    pub fn new() -> std::sync::Arc<CancelToken> {
        std::sync::Arc::new(CancelToken::default())
    }

    /// Fires the token. Idempotent; the first reason is kept.
    pub fn cancel(&self, reason: &str) {
        use std::sync::atomic::Ordering;
        let mut slot = self.reason.lock();
        if !self.cancelled.load(Ordering::Relaxed) {
            *slot = reason.to_string();
            self.cancelled.store(true, Ordering::Release);
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The reason passed to the winning `cancel` call (empty if unfired).
    pub fn reason(&self) -> String {
        self.reason.lock().clone()
    }
}

/// `RunLimits` resolved against a concrete run start time.
pub(crate) struct EffLimits {
    pub(crate) max_steps: Option<u64>,
    pub(crate) deadline: Option<std::time::Instant>,
    pub(crate) max_call_depth: usize,
    pub(crate) cancel: Option<std::sync::Arc<CancelToken>>,
    /// Precomputed `deadline.is_some() || cancel.is_some()`: the per-tick
    /// poll gate, so unlimited runs pay one bool test per 1024 steps.
    pub(crate) poll: bool,
}

impl EffLimits {
    pub(crate) fn start(lim: &RunLimits, cancel: Option<std::sync::Arc<CancelToken>>) -> Self {
        let deadline = lim.deadline.map(|d| std::time::Instant::now() + d);
        EffLimits {
            max_steps: lim.max_steps,
            deadline,
            max_call_depth: lim.max_call_depth,
            poll: deadline.is_some() || cancel.is_some(),
            cancel,
        }
    }

    pub(crate) fn check_deadline(&self) -> Result<(), RunError> {
        if let Some(t) = self.deadline {
            if std::time::Instant::now() >= t {
                return Err(RunError::Limit { msg: "deadline exceeded".into() });
            }
        }
        Ok(())
    }

    /// The shared safepoint check: cancellation first (so a watchdog that
    /// fired the token wins over a simultaneous deadline trip), then the
    /// wall-clock deadline. `at_line` is the caller's best known source
    /// line for the [`RunError::Cancelled`] report.
    pub(crate) fn check_interrupt(&self, at_line: Option<u32>) -> Result<(), RunError> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(RunError::Cancelled { at_line, reason: tok.reason() });
            }
        }
        self.check_deadline()
    }
}

/// Loop-schedule overrides applied on top of the compiled `SCHEDULE`
/// clauses. Precedence: per-line override > blanket override > the
/// schedule recorded in the descriptor.
///
/// Set on a session with [`crate::Session::set_schedule_overrides`] (the
/// feedback path: a measured profile keys overrides by `omp@line`) or
/// [`crate::Session::set_schedule_override_all`] (schedule-matrix
/// benchmarking). Both execution tiers consult the same snapshot.
#[derive(Debug, Default, Clone)]
pub struct ScheduleOverrides {
    /// Blanket override applied to every parallel DO.
    pub all: Option<Schedule>,
    /// Per-source-line overrides, keyed by the parallel DO's line.
    pub by_line: std::collections::BTreeMap<u32, Schedule>,
}

impl ScheduleOverrides {
    /// The effective schedule for the parallel DO at `line` whose
    /// descriptor recorded `desc`.
    pub fn resolve(&self, line: u32, desc: Schedule) -> Schedule {
        if let Some(&s) = self.by_line.get(&line) {
            return s;
        }
        self.all.unwrap_or(desc)
    }
}

/// Shared execution services.
pub struct Exec {
    pub prog: Arc<RProgram>,
    pub globals: Arc<Globals>,
    pub mode: ExecMode,
    pub pool: Option<Arc<ThreadPool>>,
    pub critical: Arc<CriticalRegistry>,
    pub printed: Mutex<String>,
    pub sched_overrides: Arc<ScheduleOverrides>,
    pub(crate) limits: EffLimits,
    /// Allow the bytecode tier to take the vector superinstruction path.
    /// Off forces every `VecLoop` to fall through to its scalar head.
    pub vector_enabled: bool,
    /// Count of loop entries that actually ran vectorized (all tiers,
    /// all threads); feeds the CI vector smoke check.
    pub vector_entries: Arc<std::sync::atomic::AtomicU64>,
    /// Chaos hook: the worker with this logical thread id panics on OMP
    /// region entry (exercises `RegionPanic` containment end to end).
    /// One-shot: the session arms it for a single `make_exec`.
    pub(crate) debug_panic_worker: Option<usize>,
    /// Native-tier (JIT) promotion hooks for this run. `None` means the
    /// tier is off for this run or unavailable on this target, and the
    /// `VecLoop` dispatch pays a single pointer test.
    pub(crate) native: Option<Arc<crate::jit::NativeHooks>>,
}

/// Statement outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Normal,
    Exit,
    Cycle,
    Return,
}


/// Per-thread interpretation state.
pub(crate) struct Task<'e> {
    ex: &'e Exec,
    /// Logical thread id (selects per-thread global cells).
    tid: usize,
    /// Collect cost counters (Simulated mode)?
    collect: bool,
    serial_cost: CostCounters,
    region: Option<Box<RegionCtx>>,
    trace: CostTrace,
    /// Real threads currently executing under a forked region.
    in_real_region: bool,
    /// Simulated-mode: inside a region (for nesting detection).
    in_sim_region: bool,
    critical_depth: u32,
    vec_mode: VecClass,
    depth: usize,
    out: String,
    /// Source line of the statement currently executing (fault context).
    cur_line: u32,
    /// Unit currently executing (fault context).
    cur_unit: UnitId,
    /// Statements executed (checked against `RunLimits::max_steps`).
    steps: u64,
    /// Profiling collector, attached only to the orchestrating task of a
    /// profiled run (`Session::run_profiled`); worker tasks never carry
    /// one. Same boundary-only cost contract as the VM tier.
    pub(crate) prof: Option<&'e crate::trace::Collector>,
}

struct RegionCtx {
    per_thread: Vec<CostCounters>,
    cur: usize,
    critical: CostCounters,
    threads: usize,
    trip: u64,
    reductions: usize,
}

/// Operation kinds for cost hooks.
#[derive(Clone, Copy)]
enum OpK {
    Flop,
    FDiv,
    FSpecial,
    IOp,
    Load,
    Store,
}

impl<'e> Task<'e> {
    pub(crate) fn new(ex: &'e Exec, tid: usize, collect: bool) -> Self {
        Task {
            ex,
            tid,
            collect,
            serial_cost: CostCounters::default(),
            region: None,
            trace: CostTrace::default(),
            in_real_region: false,
            in_sim_region: false,
            critical_depth: 0,
            vec_mode: VecClass::None,
            depth: 0,
            out: String::new(),
            cur_line: 0,
            cur_unit: 0,
            steps: 0,
            prof: None,
        }
    }

    /// The display name used in fault context for the current unit.
    fn cur_unit_name(&self) -> &str {
        &self.ex.prog.units[self.cur_unit].name
    }

    /// Wraps a fault with the location registers at the fault point.
    fn attach_ctx(&self, e: RunError) -> RunError {
        let line = if self.cur_line > 0 { Some(self.cur_line) } else { None };
        e.with_ctx(self.cur_unit_name(), line, None)
    }

    fn bucket(&mut self) -> &mut CostCounters {
        match &mut self.region {
            Some(r) => &mut r.per_thread[r.cur],
            None => &mut self.serial_cost,
        }
    }

    #[inline]
    fn op(&mut self, k: OpK) {
        if !self.collect {
            return;
        }
        self.op_n(k, 1);
    }

    fn op_n(&mut self, k: OpK, n: u64) {
        if !self.collect {
            return;
        }
        let vec = self.vec_mode;
        let crit = self.critical_depth > 0 && self.region.is_some();
        let apply = |c: &mut CostCounters| {
            let o = match vec {
                VecClass::Simd => &mut c.vector,
                _ => &mut c.scalar,
            };
            match k {
                OpK::Flop => o.flop += n,
                OpK::FDiv => o.fdiv += n,
                OpK::FSpecial => o.fspecial += n,
                OpK::IOp => o.iop += n,
                OpK::Load => o.load += n,
                OpK::Store => {
                    if vec == VecClass::Memset {
                        c.memset_bytes += 8 * n;
                    } else {
                        o.store += n;
                    }
                }
            }
        };
        apply(self.bucket());
        if crit {
            if let Some(r) = &mut self.region {
                apply(&mut r.critical);
            }
        }
    }

    fn add_misc(&mut self, f: impl Fn(&mut CostCounters)) {
        if !self.collect {
            return;
        }
        f(self.bucket());
        if self.critical_depth > 0 {
            if let Some(r) = &mut self.region {
                f(&mut r.critical);
            }
        }
    }

    // ---------- storage access ----------

    fn read_scalar(&mut self, unit: &RUnit, frame: &Frame, v: VarIdx) -> Result<Val, RunError> {
        let info = &unit.vars[v];
        match info.place {
            Place::Frame(slot) => match &frame.slots[slot] {
                FrameVal::I(x) => Ok(Val::I(*x)),
                FrameVal::F(x) => Ok(Val::F(*x)),
                FrameVal::B(x) => Ok(Val::B(*x)),
                FrameVal::Uninit => Ok(zero_of(info.ty)),
                FrameVal::Arr(_) => Err(RunError::Type {
                    msg: format!("array `{}` read as scalar", info.name),
                }),
            },
            Place::Global(cell) => {
                self.op(OpK::Load);
                let bits = self.ex.globals.cells[cell].load_bits(self.tid);
                Ok(Val::from_bits(bits, info.ty))
            }
        }
    }

    fn write_scalar(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        v: VarIdx,
        val: Val,
    ) -> Result<(), RunError> {
        let info = &unit.vars[v];
        match info.place {
            Place::Frame(slot) => {
                frame.slots[slot] = match info.ty {
                    ScalarTy::I => FrameVal::I(val.as_i()),
                    ScalarTy::F => FrameVal::F(val.as_f()),
                    ScalarTy::B => FrameVal::B(val.as_b()),
                };
                Ok(())
            }
            Place::Global(cell) => {
                self.op(OpK::Store);
                self.ex.globals.cells[cell].store_bits(self.tid, val.to_bits(info.ty));
                Ok(())
            }
        }
    }

    fn array_handle(
        &self,
        unit: &RUnit,
        frame: &Frame,
        v: VarIdx,
    ) -> Result<Arc<ArrayObj>, RunError> {
        let info = &unit.vars[v];
        match info.place {
            Place::Frame(slot) => match &frame.slots[slot] {
                FrameVal::Arr(Some(a)) => Ok(Arc::clone(a)),
                FrameVal::Arr(None) => Err(RunError::Unallocated { var: info.name.clone() }),
                _ => Err(RunError::Type { msg: format!("`{}` is not an array", info.name) }),
            },
            Place::Global(cell) => self.ex.globals.cells[cell]
                .array_handle(self.tid)
                .ok_or_else(|| RunError::Unallocated { var: info.name.clone() }),
        }
    }

    fn eval_subs(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        subs: &[RExpr],
    ) -> Result<Vec<i64>, RunError> {
        subs.iter()
            .map(|e| Ok(self.eval(unit, frame, e)?.as_i()))
            .collect()
    }

    // ---------- expression evaluation ----------

    fn eval(&mut self, unit: &RUnit, frame: &mut Frame, e: &RExpr) -> Result<Val, RunError> {
        match e {
            RExpr::ConstI(v) => Ok(Val::I(*v)),
            RExpr::ConstF(v) => Ok(Val::F(*v)),
            RExpr::ConstB(v) => Ok(Val::B(*v)),
            RExpr::LoadScalar(v) => self.read_scalar(unit, frame, *v),
            RExpr::LoadElem { v, subs } => {
                let ix = self.eval_subs(unit, frame, subs)?;
                let arr = self.array_handle(unit, frame, *v)?;
                let off = arr.offset(&unit.vars[*v].name, &ix)?;
                self.op(OpK::Load);
                Ok(match arr.ty {
                    ScalarTy::I => Val::I(arr.get_i(off)),
                    ScalarTy::F => Val::F(arr.get_f(off)),
                    ScalarTy::B => Val::B(arr.get_b(off)),
                })
            }
            RExpr::Bin { op, ty, l, r } => {
                let a = self.eval(unit, frame, l)?;
                let b = self.eval(unit, frame, r)?;
                self.eval_bin(*op, *ty, a, b)
            }
            RExpr::Neg(x) => {
                let v = self.eval(unit, frame, x)?;
                self.op(match v {
                    Val::F(_) => OpK::Flop,
                    _ => OpK::IOp,
                });
                Ok(match v {
                    Val::I(i) => Val::I(-i),
                    Val::F(f) => Val::F(-f),
                    Val::B(_) => return Err(RunError::Type { msg: "negate LOGICAL".into() }),
                })
            }
            RExpr::Not(x) => {
                let v = self.eval(unit, frame, x)?;
                self.op(OpK::IOp);
                Ok(Val::B(!v.as_b()))
            }
            RExpr::ToF(x) => {
                let v = self.eval(unit, frame, x)?;
                Ok(Val::F(v.as_f()))
            }
            RExpr::ToI(x) => {
                let v = self.eval(unit, frame, x)?;
                Ok(Val::I(v.as_i()))
            }
            RExpr::Intrinsic { f, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(unit, frame, a)?);
                }
                self.op(if f.is_special() { OpK::FSpecial } else { OpK::Flop });
                // Integer-flavored when every operand is I.
                if vals.iter().all(|v| matches!(v, Val::I(_)))
                    && matches!(
                        f,
                        Intr::Abs | Intr::Max | Intr::Min | Intr::Mod | Intr::Sign
                    )
                {
                    let iv: Vec<i64> = vals.iter().map(|v| v.as_i()).collect();
                    return Ok(Val::I(f.eval_i(&iv)));
                }
                let fv: Vec<f64> = vals.iter().map(|v| v.as_f()).collect();
                let r = f.eval_f(&fv);
                Ok(match f {
                    Intr::Int | Intr::Nint => Val::I(r as i64),
                    _ => Val::F(r),
                })
            }
            RExpr::ArrReduce { f, v } => {
                let arr = self.array_handle(unit, frame, *v)?;
                let n = arr.len();
                self.op_n(OpK::Load, n as u64);
                self.op_n(OpK::Flop, n as u64);
                Ok(match f {
                    ArrRed::Size => Val::I(n as i64),
                    ArrRed::Sum => match arr.ty {
                        ScalarTy::I => Val::I((0..n).map(|i| arr.get_i(i)).sum()),
                        _ => Val::F((0..n).map(|i| arr.get_f(i)).sum()),
                    },
                    ArrRed::Maxval => match arr.ty {
                        ScalarTy::I => {
                            Val::I((0..n).map(|i| arr.get_i(i)).max().unwrap_or(i64::MIN))
                        }
                        _ => Val::F(
                            (0..n).map(|i| arr.get_f(i)).fold(f64::NEG_INFINITY, f64::max),
                        ),
                    },
                    ArrRed::Minval => match arr.ty {
                        ScalarTy::I => {
                            Val::I((0..n).map(|i| arr.get_i(i)).min().unwrap_or(i64::MAX))
                        }
                        _ => Val::F((0..n).map(|i| arr.get_f(i)).fold(f64::INFINITY, f64::min)),
                    },
                })
            }
            RExpr::AllocatedQ(v) => {
                let info = &unit.vars[*v];
                let alloc = match info.place {
                    Place::Frame(slot) => matches!(&frame.slots[slot], FrameVal::Arr(Some(_))),
                    Place::Global(cell) => {
                        self.ex.globals.cells[cell].array_handle(self.tid).is_some()
                    }
                };
                Ok(Val::B(alloc))
            }
            RExpr::CallFn { unit: callee, args, ret: _ } => {
                let r = self.call_unit(unit, frame, *callee, args)?;
                r.ok_or_else(|| RunError::Type { msg: "function returned nothing".into() })
            }
        }
    }

    fn eval_bin(&mut self, op: Bin, ty: ScalarTy, a: Val, b: Val) -> Result<Val, RunError> {
        match op {
            Bin::And => {
                self.op(OpK::IOp);
                return Ok(Val::B(a.as_b() && b.as_b()));
            }
            Bin::Or => {
                self.op(OpK::IOp);
                return Ok(Val::B(a.as_b() || b.as_b()));
            }
            Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge => {
                self.op(if ty == ScalarTy::F { OpK::Flop } else { OpK::IOp });
                let r = match ty {
                    ScalarTy::F => {
                        let (x, y) = (a.as_f(), b.as_f());
                        match op {
                            Bin::Eq => x == y,
                            Bin::Ne => x != y,
                            Bin::Lt => x < y,
                            Bin::Le => x <= y,
                            Bin::Gt => x > y,
                            _ => x >= y,
                        }
                    }
                    _ => {
                        let (x, y) = (a.as_i(), b.as_i());
                        match op {
                            Bin::Eq => x == y,
                            Bin::Ne => x != y,
                            Bin::Lt => x < y,
                            Bin::Le => x <= y,
                            Bin::Gt => x > y,
                            _ => x >= y,
                        }
                    }
                };
                return Ok(Val::B(r));
            }
            _ => {}
        }
        match ty {
            ScalarTy::F => {
                let (x, y) = (a.as_f(), b.as_f());
                let r = match op {
                    Bin::Add => {
                        self.op(OpK::Flop);
                        x + y
                    }
                    Bin::Sub => {
                        self.op(OpK::Flop);
                        x - y
                    }
                    Bin::Mul => {
                        self.op(OpK::Flop);
                        x * y
                    }
                    Bin::Div => {
                        self.op(OpK::FDiv);
                        x / y
                    }
                    Bin::Pow => {
                        self.op(OpK::FSpecial);
                        match b {
                            Val::I(e) if e.unsigned_abs() <= 64 => x.powi(e as i32),
                            _ => x.powf(y),
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(Val::F(r))
            }
            ScalarTy::I => {
                let (x, y) = (a.as_i(), b.as_i());
                self.op(OpK::IOp);
                let r = match op {
                    Bin::Add => x.wrapping_add(y),
                    Bin::Sub => x.wrapping_sub(y),
                    Bin::Mul => x.wrapping_mul(y),
                    Bin::Div => {
                        if y == 0 {
                            return Err(RunError::Arith { msg: "integer division by zero".into() });
                        }
                        x / y
                    }
                    Bin::Pow => {
                        if y < 0 {
                            0
                        } else {
                            x.checked_pow(y.min(63) as u32).unwrap_or(i64::MAX)
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(Val::I(r))
            }
            ScalarTy::B => Err(RunError::Type { msg: "arithmetic on LOGICAL".into() }),
        }
    }

    // ---------- calls ----------

    fn build_frame(&mut self, callee: &RUnit) -> Frame {
        let mut frame = Frame::new(callee.frame_size);
        for info in &callee.vars {
            if let Place::Frame(slot) = info.place {
                if info.rank > 0 {
                    if info.allocatable || info.is_param {
                        frame.slots[slot] = FrameVal::Arr(None);
                    } else {
                        // Fixed-shape local: fresh zeroed array per call.
                        frame.slots[slot] =
                            FrameVal::Arr(Some(Arc::new(ArrayObj::new(info.ty, info.dims.clone()))));
                    }
                } else {
                    frame.slots[slot] = match info.ty {
                        ScalarTy::I => FrameVal::I(0),
                        ScalarTy::F => FrameVal::F(0.0),
                        ScalarTy::B => FrameVal::B(false),
                    };
                }
            }
        }
        frame
    }

    fn call_unit(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        callee_id: UnitId,
        args: &[RArg],
    ) -> Result<Option<Val>, RunError> {
        if self.depth >= self.ex.limits.max_call_depth {
            return Err(RunError::Limit { msg: "call depth exceeded".into() });
        }
        self.add_misc(|c| c.calls += 1);
        let prog = Arc::clone(&self.ex.prog);
        let callee = &prog.units[callee_id];
        let mut cframe = self.build_frame(callee);

        // Copy-in.
        enum Writeback {
            Scalar(VarIdx),
            Elem(VarIdx, Vec<i64>),
            None,
        }
        let mut writebacks: Vec<Writeback> = Vec::with_capacity(args.len());
        for (k, arg) in args.iter().enumerate() {
            let pvar = callee.params[k];
            let pinfo = &callee.vars[pvar];
            let Place::Frame(pslot) = pinfo.place else { unreachable!("params are frame vars") };
            match arg {
                RArg::ByRefScalar(v) => {
                    let val = self.read_scalar(unit, frame, *v)?;
                    cframe.slots[pslot] = typed_frameval(val, pinfo.ty);
                    writebacks.push(Writeback::Scalar(*v));
                }
                RArg::ByRefElem { v, subs } => {
                    let ix = self.eval_subs(unit, frame, subs)?;
                    let arr = self.array_handle(unit, frame, *v)?;
                    let off = arr.offset(&unit.vars[*v].name, &ix)?;
                    self.op(OpK::Load);
                    let val = match arr.ty {
                        ScalarTy::I => Val::I(arr.get_i(off)),
                        ScalarTy::F => Val::F(arr.get_f(off)),
                        ScalarTy::B => Val::B(arr.get_b(off)),
                    };
                    cframe.slots[pslot] = typed_frameval(val, pinfo.ty);
                    writebacks.push(Writeback::Elem(*v, ix));
                }
                RArg::Array(v) => {
                    let h = self.array_handle(unit, frame, *v)?;
                    cframe.slots[pslot] = FrameVal::Arr(Some(h));
                    writebacks.push(Writeback::None);
                }
                RArg::Value(e) => {
                    let val = self.eval(unit, frame, e)?;
                    cframe.slots[pslot] = typed_frameval(val, pinfo.ty);
                    writebacks.push(Writeback::None);
                }
            }
        }

        // Execute. The location registers move to the callee and are
        // restored only on success, so a propagating fault keeps the
        // innermost (most precise) location.
        let (saved_unit, saved_line) = (self.cur_unit, self.cur_line);
        self.cur_unit = callee_id;
        self.depth += 1;
        if let Some(p) = self.prof {
            p.unit_enter(&callee.name);
        }
        let flow = self.exec_block(callee, &mut cframe, &callee.body);
        self.depth -= 1;
        let flow = flow?;
        if let Some(p) = self.prof {
            // Also sweeps loop spans a RETURN left open inside the callee.
            p.unit_exit();
        }
        self.cur_unit = saved_unit;
        self.cur_line = saved_line;
        match flow {
            Flow::Normal | Flow::Return => {}
            _ => return Err(RunError::Type { msg: "EXIT/CYCLE escaped a unit".into() }),
        }

        // Copy-out (value-result for scalar designator args).
        for (k, wb) in writebacks.into_iter().enumerate() {
            let pvar = callee.params[k];
            let pinfo = &callee.vars[pvar];
            let Place::Frame(pslot) = pinfo.place else { unreachable!() };
            match wb {
                Writeback::Scalar(v) => {
                    let val = frameval_to_val(&cframe.slots[pslot], pinfo.ty);
                    self.write_scalar(unit, frame, v, val)?;
                }
                Writeback::Elem(v, ix) => {
                    let val = frameval_to_val(&cframe.slots[pslot], pinfo.ty);
                    let arr = self.array_handle(unit, frame, v)?;
                    let off = arr.offset(&unit.vars[v].name, &ix)?;
                    self.op(OpK::Store);
                    store_val(&arr, off, val);
                }
                Writeback::None => {}
            }
        }

        // Function result.
        if let Some((rv, rty)) = callee.result {
            let Place::Frame(rslot) = callee.vars[rv].place else { unreachable!() };
            Ok(Some(frameval_to_val(&cframe.slots[rslot], rty)))
        } else {
            Ok(None)
        }
    }

    // ---------- statements ----------

    fn exec_block(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        body: &[SpStmt],
    ) -> Result<Flow, RunError> {
        for sp in body {
            self.cur_line = sp.line;
            self.tick()?;
            match self.exec_stmt(unit, frame, &sp.s)? {
                Flow::Normal => {}
                f => return Ok(f),
            }
        }
        Ok(Flow::Normal)
    }

    /// Per-statement accounting against the engine's `RunLimits`.
    #[inline]
    fn tick(&mut self) -> Result<(), RunError> {
        self.steps += 1;
        let lim = &self.ex.limits;
        if let Some(max) = lim.max_steps {
            if self.steps > max {
                return Err(RunError::Limit { msg: format!("step budget of {max} exhausted") });
            }
        }
        if lim.poll && self.steps.is_multiple_of(1024) {
            lim.check_interrupt((self.cur_line > 0).then_some(self.cur_line))?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        s: &RStmt,
    ) -> Result<Flow, RunError> {
        match s {
            RStmt::AssignScalar { v, e } => {
                let val = self.eval(unit, frame, e)?;
                self.write_scalar(unit, frame, *v, val)?;
                Ok(Flow::Normal)
            }
            RStmt::AssignElem { v, subs, e } => {
                let ix = self.eval_subs(unit, frame, subs)?;
                let val = self.eval(unit, frame, e)?;
                let arr = self.array_handle(unit, frame, *v)?;
                let off = arr.offset(&unit.vars[*v].name, &ix)?;
                self.op(OpK::Store);
                store_val(&arr, off, val);
                Ok(Flow::Normal)
            }
            RStmt::Broadcast { v, e } => {
                let val = self.eval(unit, frame, e)?;
                let arr = self.array_handle(unit, frame, *v)?;
                let n = arr.len();
                self.op_n(OpK::Store, n as u64);
                for off in 0..n {
                    store_val(&arr, off, val);
                }
                Ok(Flow::Normal)
            }
            RStmt::CopyArray { dst, src } => {
                let d = self.array_handle(unit, frame, *dst)?;
                let s = self.array_handle(unit, frame, *src)?;
                if d.len() != s.len() {
                    return Err(RunError::Type {
                        msg: format!(
                            "array copy shape mismatch: {} vs {}",
                            d.len(),
                            s.len()
                        ),
                    });
                }
                let n = d.len();
                self.op_n(OpK::Load, n as u64);
                self.op_n(OpK::Store, n as u64);
                for off in 0..n {
                    d.set_bits(off, s.get_bits(off));
                }
                Ok(Flow::Normal)
            }
            RStmt::AtomicUpdate { v, subs, op, e } => {
                let delta = self.eval(unit, frame, e)?;
                self.add_misc(|c| c.atomics += 1);
                self.op(OpK::Load);
                self.op(OpK::Store);
                let info = &unit.vars[*v];
                if info.rank == 0 {
                    match info.place {
                        Place::Global(cell) =>

                        {
                            let g = &self.ex.globals.cells[cell];
                            atomic_scalar_update(g, self.tid, info.ty, *op, delta);
                        }
                        Place::Frame(_) => {
                            // Frame scalar: thread-private anyway; plain RMW.
                            let cur = self.read_scalar(unit, frame, *v)?;
                            let nv = combine_vals(info.ty, *op, cur, delta);
                            self.write_scalar(unit, frame, *v, nv)?;
                        }
                    }
                } else {
                    let ix = self.eval_subs(unit, frame, subs)?;
                    let arr = self.array_handle(unit, frame, *v)?;
                    let off = arr.offset(&info.name, &ix)?;
                    match arr.ty {
                        ScalarTy::F => {
                            let d = delta.as_f();
                            arr.atomic_update_f(off, |x| combine_f(*op, x, d));
                        }
                        ScalarTy::I => {
                            let d = delta.as_i();
                            arr.atomic_update_i(off, |x| combine_i(*op, x, d));
                        }
                        ScalarTy::B => {
                            return Err(RunError::Type { msg: "ATOMIC on LOGICAL".into() })
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::If { arms, else_body } => {
                self.add_misc(|c| c.branches += 1);
                for (cond, body) in arms {
                    if self.eval(unit, frame, cond)?.as_b() {
                        return self.exec_block(unit, frame, body);
                    }
                }
                self.exec_block(unit, frame, else_body)
            }
            RStmt::DoWhile { cond, body } => {
                loop {
                    self.add_misc(|c| c.branches += 1);
                    if !self.eval(unit, frame, cond)?.as_b() {
                        break;
                    }
                    match self.exec_block(unit, frame, body)? {
                        Flow::Normal | Flow::Cycle => {}
                        Flow::Exit => break,
                        Flow::Return => return Ok(Flow::Return),
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Do { var, start, end, step, body, omp, vec, collapse_with } => self.exec_do(
                unit,
                frame,
                *var,
                start,
                end,
                step.as_ref(),
                body,
                omp.as_ref(),
                *vec,
                collapse_with,
            ),
            RStmt::CallSub { unit: callee, args } => {
                self.call_unit(unit, frame, *callee, args)?;
                Ok(Flow::Normal)
            }
            RStmt::Allocate { v, dims } => {
                let mut rd = Vec::with_capacity(dims.len());
                for (lo, hi) in dims {
                    let lo = self.eval(unit, frame, lo)?.as_i();
                    let hi = self.eval(unit, frame, hi)?.as_i();
                    rd.push((lo, hi));
                }
                let info = &unit.vars[*v];
                let ty = info.ty;
                let obj = Arc::new(ArrayObj::try_new(ty, rd.clone())?);
                self.add_misc(|c| {
                    c.alloc_calls += 1;
                });
                let bytes = (obj.len() * 8) as u64;
                self.add_misc(move |c| c.alloc_bytes += bytes);
                match info.place {
                    Place::Frame(slot) => {
                        if matches!(&frame.slots[slot], FrameVal::Arr(Some(_))) {
                            return Err(RunError::AlreadyAllocated { var: info.name.clone() });
                        }
                        frame.slots[slot] = FrameVal::Arr(Some(obj));
                    }
                    Place::Global(cell) => {
                        let gc = &self.ex.globals.cells[cell];
                        let prev = if gc.is_per_thread() {
                            gc.set_array_all_threads(self.tid, || {
                                Arc::new(ArrayObj::new(ty, rd.clone()))
                            })
                        } else {
                            gc.set_array(self.tid, Some(obj))
                        };
                        if prev.is_some() {
                            return Err(RunError::AlreadyAllocated { var: info.name.clone() });
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Deallocate { v } => {
                let info = &unit.vars[*v];
                match info.place {
                    Place::Frame(slot) => {
                        if !matches!(&frame.slots[slot], FrameVal::Arr(Some(_))) {
                            return Err(RunError::Unallocated { var: info.name.clone() });
                        }
                        frame.slots[slot] = FrameVal::Arr(None);
                    }
                    Place::Global(cell) => {
                        let gc = &self.ex.globals.cells[cell];
                        let prev = if gc.is_per_thread() {
                            gc.clear_array_all_threads(self.tid)
                        } else {
                            gc.set_array(self.tid, None)
                        };
                        if prev.is_none() {
                            return Err(RunError::Unallocated { var: info.name.clone() });
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Critical { name, body } => {
                self.critical_depth += 1;
                let result = if matches!(self.ex.mode, ExecMode::Parallel { .. })
                    && self.in_real_region
                {
                    let _guard = self.ex.critical.enter(name);
                    self.exec_block(unit, frame, body)
                } else {
                    self.exec_block(unit, frame, body)
                };
                self.critical_depth -= 1;
                result
            }
            RStmt::Return => Ok(Flow::Return),
            RStmt::Exit => Ok(Flow::Exit),
            RStmt::Cycle => Ok(Flow::Cycle),
            RStmt::Nop => Ok(Flow::Normal),
            RStmt::Print(items) => {
                let mut line = String::new();
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        line.push(' ');
                    }
                    match item {
                        PrintItem::Str(s) => line.push_str(s),
                        PrintItem::Val(e) => {
                            let v = self.eval(unit, frame, e)?;
                            match v {
                                Val::I(x) => line.push_str(&x.to_string()),
                                Val::F(x) => line.push_str(&format!("{x:.6}")),
                                Val::B(b) => line.push_str(if b { "T" } else { "F" }),
                            }
                        }
                    }
                }
                line.push('\n');
                self.out.push_str(&line);
                Ok(Flow::Normal)
            }
            RStmt::Stop(msg) => Err(RunError::Stop { msg: msg.clone().unwrap_or_default() }),
        }
    }

    // ---------- DO loops ----------

    #[allow(clippy::too_many_arguments)]
    fn exec_do(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        var: VarIdx,
        start: &RExpr,
        end: &RExpr,
        step: Option<&RExpr>,
        body: &[SpStmt],
        omp: Option<&ROmp>,
        vec: VecClass,
        collapse_with: &[CollapseDim],
    ) -> Result<Flow, RunError> {
        // The DO statement's own line (bound expressions may call units
        // and move `cur_line`).
        let do_line = self.cur_line;
        let s0 = self.eval(unit, frame, start)?.as_i();
        let e0 = self.eval(unit, frame, end)?.as_i();
        let st = match step {
            Some(e) => {
                let v = self.eval(unit, frame, e)?.as_i();
                if v == 0 {
                    return Err(RunError::Arith { msg: "zero DO step".into() });
                }
                v
            }
            None => 1,
        };

        let Some(o) = omp else {
            // Span entered after bounds/step evaluation (and the zero-step
            // check), exactly where the VM's `DoInit` opens its span.
            if let Some(p) = self.prof {
                p.loop_enter(do_line, 0);
            }
            let r = self.exec_serial_do(unit, frame, var, s0, e0, st, body, vec);
            if let Some(p) = self.prof {
                if r.is_ok() {
                    p.loop_exit();
                }
            }
            return r;
        };

        // --- OpenMP PARALLEL DO ---
        let outer_trip = trip_count(s0, e0, st);
        // Collapsed inner dims (bounds evaluated once, per OpenMP rules).
        let mut dims: Vec<(VarIdx, i64, i64)> = vec![(var, s0, e0)];
        for cd in collapse_with {
            let lo = self.eval(unit, frame, &cd.start)?.as_i();
            let hi = self.eval(unit, frame, &cd.end)?.as_i();
            dims.push((cd.var, lo, hi));
        }
        let total_trip: u64 = if collapse_with.is_empty() {
            outer_trip
        } else {
            dims.iter()
                .map(|&(_, lo, hi)| trip_count(lo, hi, 1))
                .product()
        };

        let mode_threads = self.ex.mode.threads();
        let clause_threads = match &o.num_threads {
            Some(e) => Some(self.eval(unit, frame, e)?.as_i().max(1) as usize),
            None => None,
        };
        let team = clause_threads.unwrap_or(mode_threads).min(crate::storage::MAX_THREADS);

        if let Some(p) = self.prof {
            // Matches the VM's `OmpDo` instruction: after bounds, step,
            // collapse bounds and NUM_THREADS have evaluated.
            p.omp_enter(do_line);
        }
        let r = self.exec_omp_dispatch(unit, frame, &dims, st, body, o, team, total_trip, do_line);
        if let Some(p) = self.prof {
            if r.is_ok() {
                p.omp_exit();
            }
        }
        r
    }

    /// Mode dispatch for an OMP nest whose bounds are already evaluated.
    #[allow(clippy::too_many_arguments)]
    fn exec_omp_dispatch(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        dims: &[(VarIdx, i64, i64)],
        st: i64,
        body: &[SpStmt],
        o: &ROmp,
        team: usize,
        total_trip: u64,
        do_line: u32,
    ) -> Result<Flow, RunError> {
        // OMP region entry is a safepoint: never fork a team for a run
        // whose token already fired (or whose deadline already passed).
        if self.ex.limits.poll {
            self.ex.limits.check_interrupt(Some(do_line))?;
        }
        match self.ex.mode {
            ExecMode::Serial => {
                // Directives ignored; plain serial nest. A serial build
                // would also vectorize eligible loops, but GLAF-parallel
                // loops are structurally complex (that's why they kept
                // directives); classify anyway for fairness.
                self.exec_omp_serially(unit, frame, dims, st, body, o, None)
            }
            ExecMode::Simulated { .. } => {
                if self.in_sim_region || self.in_real_region {
                    // Nested region: team of one + fork overhead.
                    self.add_misc(|c| c.nested_forks += 1);
                    return self.exec_omp_serially(unit, frame, dims, st, body, o, None);
                }
                // Flush serial counters, open a region.
                let serial = std::mem::take(&mut self.serial_cost);
                self.trace.push_serial(serial);
                self.region = Some(Box::new(RegionCtx {
                    per_thread: vec![CostCounters::default(); team],
                    cur: 0,
                    critical: CostCounters::default(),
                    threads: team,
                    trip: total_trip,
                    reductions: o.reductions.len(),
                }));
                self.in_sim_region = true;
                let mut sched = self.ex.sched_overrides.resolve(do_line, o.sched);
                if o.per_thread_access {
                    sched = sched.legalize_for_per_thread();
                }
                // Owner map: iteration -> thread (serial-order execution).
                let owner = build_owner_map(sched, total_trip as usize, team);
                let r = self.exec_omp_serially(unit, frame, dims, st, body, o, Some(&owner));
                self.in_sim_region = false;
                let region = self.region.take().expect("region open");
                self.trace.push_region(RegionEvent {
                    threads: region.threads,
                    per_thread: region.per_thread,
                    critical: region.critical,
                    reductions: region.reductions,
                    trip: region.trip,
                    line: do_line,
                });
                r
            }
            ExecMode::Parallel { .. } => {
                if self.in_real_region {
                    // Nested: team of one.
                    return self.exec_omp_serially(unit, frame, dims, st, body, o, None);
                }
                self.exec_omp_parallel(unit, frame, dims, st, body, o, team, total_trip, do_line)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_serial_do(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        var: VarIdx,
        s0: i64,
        e0: i64,
        st: i64,
        body: &[SpStmt],
        vec: VecClass,
    ) -> Result<Flow, RunError> {
        let prev_vec = self.vec_mode;
        if self.collect && vec != VecClass::None {
            self.vec_mode = vec;
        }
        let mut i = s0;
        let flow = loop {
            if (st > 0 && i > e0) || (st < 0 && i < e0) {
                break Flow::Normal;
            }
            self.write_scalar(unit, frame, var, Val::I(i))?;
            match self.exec_block(unit, frame, body)? {
                Flow::Normal | Flow::Cycle => {}
                Flow::Exit => break Flow::Normal,
                Flow::Return => break Flow::Return,
            }
            i += st;
        };
        self.vec_mode = prev_vec;
        Ok(flow)
    }

    /// Executes an OMP nest in serial iteration order. `owner` switches the
    /// simulated-cost bucket per iteration.
    #[allow(clippy::too_many_arguments)]
    fn exec_omp_serially(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        dims: &[(VarIdx, i64, i64)],
        outer_step: i64,
        body: &[SpStmt],
        _o: &ROmp,
        owner: Option<&[u16]>,
    ) -> Result<Flow, RunError> {
        // Iterate the collapsed space in row-major (outer slowest) order.
        let trips: Vec<u64> = dims
            .iter()
            .enumerate()
            .map(|(k, &(_, lo, hi))| {
                if k == 0 {
                    trip_count(lo, hi, outer_step)
                } else {
                    trip_count(lo, hi, 1)
                }
            })
            .collect();
        let total: u64 = trips.iter().product();
        let mut result = Flow::Normal;
        'outer: for k in 0..total {
            if let (Some(map), Some(region)) = (owner, self.region.as_mut()) {
                region.cur = map[k as usize] as usize;
            }
            // Decompose flat k into per-dim indices, outer slowest.
            let mut rem = k;
            for (d, &(v, lo, _hi)) in dims.iter().enumerate().rev() {
                let t = trips[d].max(1);
                let ix = rem % t;
                rem /= t;
                let step = if d == 0 { outer_step } else { 1 };
                self.write_scalar(unit, frame, v, Val::I(lo + ix as i64 * step))?;
            }
            match self.exec_block(unit, frame, body)? {
                Flow::Normal | Flow::Cycle => {}
                Flow::Exit => break 'outer,
                Flow::Return => {
                    result = Flow::Return;
                    break 'outer;
                }
            }
        }
        if let Some(region) = self.region.as_mut() {
            region.cur = 0;
        }
        Ok(result)
    }

    /// Real fork-join execution on the pool.
    #[allow(clippy::too_many_arguments)]
    fn exec_omp_parallel(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        dims: &[(VarIdx, i64, i64)],
        outer_step: i64,
        body: &[SpStmt],
        o: &ROmp,
        team: usize,
        total_trip: u64,
        do_line: u32,
    ) -> Result<Flow, RunError> {
        let pool = self
            .ex
            .pool
            .as_ref()
            .expect("Parallel mode has a pool")
            .clone();
        let team = team.min(pool.threads());
        let mut sched = self.ex.sched_overrides.resolve(do_line, o.sched);
        if o.per_thread_access {
            sched = sched.legalize_for_per_thread();
        }
        let trips: Vec<u64> = dims
            .iter()
            .enumerate()
            .map(|(k, &(_, lo, hi))| {
                if k == 0 {
                    trip_count(lo, hi, outer_step)
                } else {
                    trip_count(lo, hi, 1)
                }
            })
            .collect();

        // Reduction setup: identity per thread, combine after.
        let red_info: Vec<(RedOp, VarIdx, ScalarTy, Val)> = o
            .reductions
            .iter()
            .map(|&(op, v)| {
                let ty = unit.vars[v].ty;
                let cur = match unit.vars[v].place {
                    Place::Frame(slot) => frameval_to_val(&frame.slots[slot], ty),
                    Place::Global(cell) => {
                        Val::from_bits(self.ex.globals.cells[cell].load_bits(self.tid), ty)
                    }
                };
                (op, v, ty, cur)
            })
            .collect();

        // Partials are keyed so the reduction combine is deterministic
        // regardless of thread completion (or chunk claim) order: one
        // partial per thread keyed by tid under static schedules, one
        // partial per chunk keyed by its first flat iteration under
        // dynamic/guided. The join sorts by key and folds in order.
        let results: Mutex<KeyedPartials> = Mutex::new(Vec::new());
        let prints: Mutex<String> = Mutex::new(String::new());
        let ex = self.ex;
        let cur_unit = self.cur_unit;
        let base_frame = &*frame;
        let dims_ref = dims;
        let trips_ref = &trips;
        let o_ref = o;
        let red_ref = &red_info;
        let total = trips.iter().product::<u64>() as usize;
        let dispenser =
            sched.is_runtime_dispatched().then(|| omprt::Dispenser::new(sched, total, team));
        let disp_ref = &dispenser;

        pool.run_tagged(do_line, sched, |tid| {
            if tid >= team {
                return;
            }
            if ex.debug_panic_worker == Some(tid) {
                panic!("chaos: injected worker panic on tid {tid}");
            }
            let mut task = Task::new(ex, tid, false);
            task.in_real_region = true;
            task.cur_unit = cur_unit;
            let mut tframe = base_frame.clone();
            // PRIVATE arrays: detach per-thread deep copies.
            for &pv in &o_ref.private {
                let info = &unit.vars[pv];
                if info.rank > 0 {
                    if let Place::Frame(slot) = info.place {
                        if let FrameVal::Arr(Some(a)) = &tframe.slots[slot] {
                            tframe.slots[slot] = FrameVal::Arr(Some(Arc::new(a.deep_clone())));
                        }
                    }
                }
            }
            let set_identities = |tframe: &mut Frame| {
                for &(op, v, ty, _) in red_ref {
                    if let Place::Frame(slot) = unit.vars[v].place {
                        tframe.slots[slot] = typed_frameval(identity_val(op, ty), ty);
                    }
                }
            };
            let collect_partials = |tframe: &Frame| -> Vec<Val> {
                red_ref
                    .iter()
                    .map(|&(_, v, ty, _)| match unit.vars[v].place {
                        Place::Frame(slot) => frameval_to_val(&tframe.slots[slot], ty),
                        _ => Val::I(0),
                    })
                    .collect()
            };
            let run_range =
                |task: &mut Task<'_>, tframe: &mut Frame, lo: usize, hi: usize| {
                    for k in lo..hi {
                        let mut rem = k as u64;
                        for (d, &(v, dlo, _)) in dims_ref.iter().enumerate().rev() {
                            let t = trips_ref[d].max(1);
                            let ix = rem % t;
                            rem /= t;
                            let step = if d == 0 { outer_step } else { 1 };
                            task.write_scalar(unit, tframe, v, Val::I(dlo + ix as i64 * step))?;
                        }
                        match task.exec_block(unit, tframe, body)? {
                            Flow::Normal | Flow::Cycle => {}
                            Flow::Exit | Flow::Return => {
                                return Err(RunError::Type {
                                    msg: "EXIT/RETURN out of a parallel loop".into(),
                                })
                            }
                        }
                    }
                    Ok(())
                };

            match disp_ref {
                // Dynamic/guided: claim chunks first-come-first-served.
                Some(disp) => {
                    while let Some((lo, hi)) = disp.claim() {
                        set_identities(&mut tframe);
                        let r = run_range(&mut task, &mut tframe, lo, hi)
                            .map(|()| collect_partials(&tframe));
                        let failed = r.is_err();
                        results.lock().push((lo, r.map_err(|e| task.attach_ctx(e))));
                        if failed {
                            // Stop claiming; let the team drain and join.
                            break;
                        }
                    }
                }
                // Static: the thread owns its chunks up front and
                // accumulates one partial across all of them.
                None => {
                    set_identities(&mut tframe);
                    let r = (|| {
                        for (lo, hi) in chunks_for(sched, total, tid, team) {
                            run_range(&mut task, &mut tframe, lo, hi)?;
                        }
                        Ok(collect_partials(&tframe))
                    })();
                    results.lock().push((tid, r.map_err(|e| task.attach_ctx(e))));
                }
            }
            if !task.out.is_empty() {
                prints.lock().push_str(&task.out);
            }
        })
        .map_err(|p| RunError::Trap { what: p.to_string() })?;

        self.out.push_str(&prints.into_inner());
        let mut keyed = results.into_inner();
        keyed.sort_by_key(|&(k, _)| k);
        let mut all_partials: Vec<Vec<Val>> = Vec::new();
        for (_, r) in keyed {
            all_partials.push(r?);
        }
        let _ = total_trip;

        // Combine reductions into the original variables, in key order.
        for (ri, &(op, v, ty, init)) in red_info.iter().enumerate() {
            let mut acc = init;
            for p in &all_partials {
                acc = combine_vals(ty, op, acc, p[ri]);
            }
            self.write_scalar(unit, frame, v, acc)?;
        }
        Ok(Flow::Normal)
    }

    /// Runs a top-level unit call and returns (result, trace, printed).
    pub(crate) fn run_entry(
        mut self,
        unit_id: UnitId,
        frame: Frame,
    ) -> Result<(Option<Val>, CostTrace, String), RunError> {
        let prog = Arc::clone(&self.ex.prog);
        let unit = &prog.units[unit_id];
        let mut frame = frame;
        self.cur_unit = unit_id;
        if let Some(p) = self.prof {
            p.unit_enter(&unit.name);
        }
        let flow = self
            .exec_block(unit, &mut frame, &unit.body)
            .map_err(|e| self.attach_ctx(e))?;
        if let Some(p) = self.prof {
            p.unit_exit();
            p.set_steps(self.steps);
        }
        debug_assert!(matches!(flow, Flow::Normal | Flow::Return));
        let result = unit.result.map(|(rv, rty)| {
            let Place::Frame(slot) = unit.vars[rv].place else { unreachable!() };
            frameval_to_val(&frame.slots[slot], rty)
        });
        let serial = std::mem::take(&mut self.serial_cost);
        self.trace.push_serial(serial);
        Ok((result, self.trace, self.out))
    }

    /// Builds and fills the entry frame for an external call.
    pub(crate) fn entry_frame(
        &mut self,
        unit_id: UnitId,
        args: &[crate::engine::ArgVal],
    ) -> Result<Frame, RunError> {
        let prog = Arc::clone(&self.ex.prog);
        let unit = &prog.units[unit_id];
        if unit.params.len() != args.len() {
            return Err(RunError::BadCall {
                name: unit.name.clone(),
                msg: format!("takes {} args, got {}", unit.params.len(), args.len()),
            });
        }
        let mut frame = self.build_frame(unit);
        for (k, a) in args.iter().enumerate() {
            let pinfo = &unit.vars[unit.params[k]];
            let Place::Frame(slot) = pinfo.place else { unreachable!() };
            frame.slots[slot] = match a {
                crate::engine::ArgVal::I(v) => typed_frameval(Val::I(*v), pinfo.ty),
                crate::engine::ArgVal::F(v) => typed_frameval(Val::F(*v), pinfo.ty),
                crate::engine::ArgVal::B(v) => typed_frameval(Val::B(*v), pinfo.ty),
                crate::engine::ArgVal::Arr(h) => FrameVal::Arr(Some(Arc::clone(h))),
            };
        }
        Ok(frame)
    }
}

pub(crate) fn zero_of(ty: ScalarTy) -> Val {
    match ty {
        ScalarTy::I => Val::I(0),
        ScalarTy::F => Val::F(0.0),
        ScalarTy::B => Val::B(false),
    }
}

pub(crate) fn typed_frameval(v: Val, ty: ScalarTy) -> FrameVal {
    match ty {
        ScalarTy::I => FrameVal::I(v.as_i()),
        ScalarTy::F => FrameVal::F(v.as_f()),
        ScalarTy::B => FrameVal::B(v.as_b()),
    }
}

pub(crate) fn frameval_to_val(fv: &FrameVal, ty: ScalarTy) -> Val {
    match fv {
        FrameVal::I(v) => Val::I(*v),
        FrameVal::F(v) => Val::F(*v),
        FrameVal::B(v) => Val::B(*v),
        FrameVal::Uninit => zero_of(ty),
        FrameVal::Arr(_) => zero_of(ty),
    }
}

pub(crate) fn store_val(arr: &ArrayObj, off: usize, v: Val) {
    match arr.ty {
        ScalarTy::I => arr.set_i(off, v.as_i()),
        ScalarTy::F => arr.set_f(off, v.as_f()),
        ScalarTy::B => arr.set_b(off, v.as_b()),
    }
}

pub(crate) fn trip_count(lo: i64, hi: i64, step: i64) -> u64 {
    if step > 0 {
        if hi < lo {
            0
        } else {
            ((hi - lo) / step + 1) as u64
        }
    } else if lo < hi {
        0
    } else {
        ((lo - hi) / (-step) + 1) as u64
    }
}

pub(crate) fn combine_f(op: RedOp, a: f64, b: f64) -> f64 {
    match op {
        RedOp::Add => a + b,
        RedOp::Mul => a * b,
        RedOp::Max => a.max(b),
        RedOp::Min => a.min(b),
    }
}

pub(crate) fn combine_i(op: RedOp, a: i64, b: i64) -> i64 {
    match op {
        RedOp::Add => a.wrapping_add(b),
        RedOp::Mul => a.wrapping_mul(b),
        RedOp::Max => a.max(b),
        RedOp::Min => a.min(b),
    }
}

pub(crate) fn combine_vals(ty: ScalarTy, op: RedOp, a: Val, b: Val) -> Val {
    match ty {
        ScalarTy::F => Val::F(combine_f(op, a.as_f(), b.as_f())),
        _ => Val::I(combine_i(op, a.as_i(), b.as_i())),
    }
}

pub(crate) fn identity_val(op: RedOp, ty: ScalarTy) -> Val {
    match (op, ty) {
        (RedOp::Add, ScalarTy::F) => Val::F(0.0),
        (RedOp::Mul, ScalarTy::F) => Val::F(1.0),
        (RedOp::Max, ScalarTy::F) => Val::F(f64::NEG_INFINITY),
        (RedOp::Min, ScalarTy::F) => Val::F(f64::INFINITY),
        (RedOp::Add, _) => Val::I(0),
        (RedOp::Mul, _) => Val::I(1),
        (RedOp::Max, _) => Val::I(i64::MIN),
        (RedOp::Min, _) => Val::I(i64::MAX),
    }
}

pub(crate) fn atomic_scalar_update(cell: &GlobalCell, tid: usize, ty: ScalarTy, op: RedOp, delta: Val) {
    let atom = cell.scalar_atomic(tid);
    match ty {
        ScalarTy::F => {
            let d = delta.as_f();
            let mut cur = atom.load(std::sync::atomic::Ordering::Relaxed);
            loop {
                let next = combine_f(op, f64::from_bits(cur), d).to_bits();
                match atom.compare_exchange_weak(
                    cur,
                    next,
                    std::sync::atomic::Ordering::AcqRel,
                    std::sync::atomic::Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(a) => cur = a,
                }
            }
        }
        _ => {
            let d = delta.as_i();
            let mut cur = atom.load(std::sync::atomic::Ordering::Relaxed);
            loop {
                let next = combine_i(op, cur as i64, d) as u64;
                match atom.compare_exchange_weak(
                    cur,
                    next,
                    std::sync::atomic::Ordering::AcqRel,
                    std::sync::atomic::Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(a) => cur = a,
                }
            }
        }
    }
}

/// Precomputed iteration -> owning-thread map for simulated regions.
pub(crate) fn build_owner_map(sched: Schedule, n: usize, threads: usize) -> Vec<u16> {
    let mut owner = vec![0u16; n];
    for t in 0..threads {
        for (lo, hi) in chunks_for(sched, n, t, threads) {
            for slot in owner.iter_mut().take(hi).skip(lo) {
                *slot = t as u16;
            }
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_counts() {
        assert_eq!(trip_count(1, 10, 1), 10);
        assert_eq!(trip_count(1, 10, 3), 4);
        assert_eq!(trip_count(10, 1, -1), 10);
        assert_eq!(trip_count(5, 4, 1), 0);
        assert_eq!(trip_count(4, 5, -1), 0);
    }

    #[test]
    fn owner_map_covers() {
        let m = build_owner_map(Schedule::StaticBlock, 10, 4);
        assert_eq!(m.len(), 10);
        assert_eq!(m[0], 0);
        assert_eq!(m[9], 3);
    }

    #[test]
    fn val_conversions() {
        assert_eq!(Val::F(2.9).as_i(), 2);
        assert_eq!(Val::I(3).as_f(), 3.0);
        assert!(Val::I(1).as_b());
        assert_eq!(Val::B(true).as_f(), 1.0);
    }

    #[test]
    fn identities_and_combines() {
        assert_eq!(identity_val(RedOp::Add, ScalarTy::F), Val::F(0.0));
        assert_eq!(combine_vals(ScalarTy::F, RedOp::Max, Val::F(1.0), Val::F(3.0)), Val::F(3.0));
        assert_eq!(combine_vals(ScalarTy::I, RedOp::Add, Val::I(2), Val::I(3)), Val::I(5));
    }
}
