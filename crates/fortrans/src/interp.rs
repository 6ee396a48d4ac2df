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
//!
//! The three modes' region protocol is [`crate::region`]'s and the cost
//! bookkeeping is [`crate::cost::CostAcc`]'s, both shared with the VM;
//! this file keeps what makes the tree-walker an independent oracle —
//! expression and statement evaluation over [`Frame`]s — and tells the
//! driver how to drive it (`TaskSite`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use omprt::{CriticalRegistry, Schedule, ThreadPool};
use parking_lot::Mutex;

use crate::ast::RedOp;
use crate::cost::{CostCounters, CostTrace, OpKind};
use crate::error::RunError;
use crate::intrinsics;
use crate::region::{self, Reduction, RegionSpec, RegionState};
use crate::rir::*;
use crate::storage::{ArrayObj, Frame, FrameVal, Globals};

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
/// need to stop it (a caller-side ctrl-c handler, a test, or the token's
/// own expiry: the job queue gives a job with a deadline a token that
/// fires itself once the deadline has passed). Both execution tiers poll
/// it at the same safepoints the step budget uses — DO-loop back-edges
/// and statement/instruction dispatch (every 1024 steps), every 64-lane
/// vector chunk, OMP region entry — so a fired token surfaces as
/// [`RunError::Cancelled`] instead of a hang. The first `cancel` call
/// wins; later calls keep the original reason.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: std::sync::atomic::AtomicBool,
    reason: Mutex<String>,
    /// Once this instant has passed, the next poll fires the token with
    /// this reason.
    expiry: Option<(std::time::Instant, String)>,
}

impl CancelToken {
    pub fn new() -> std::sync::Arc<CancelToken> {
        std::sync::Arc::new(CancelToken::default())
    }

    /// A token that fires itself with `reason` at the first poll after
    /// `at`.
    pub(crate) fn expiring(at: std::time::Instant, reason: String) -> std::sync::Arc<CancelToken> {
        std::sync::Arc::new(CancelToken { expiry: Some((at, reason)), ..CancelToken::default() })
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
        if self.cancelled.load(std::sync::atomic::Ordering::Acquire) {
            return true;
        }
        match &self.expiry {
            Some((at, reason)) if std::time::Instant::now() >= *at => {
                self.cancel(reason);
                true
            }
            _ => false,
        }
    }

    /// Sleeps `wait`, cut short at `token`'s expiry if it has one;
    /// returns the time slept.
    pub(crate) fn sleep(
        token: Option<&CancelToken>,
        wait: std::time::Duration,
    ) -> std::time::Duration {
        let wait = match token.and_then(|t| t.expiry.as_ref()) {
            Some((at, _)) => wait.min(at.saturating_duration_since(std::time::Instant::now())),
            None => wait,
        };
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        wait
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
    /// How the message of a step-budget trip opens. The retry policy
    /// tells that trip (transient: the oracle counts statements, so the
    /// same budget goes further there) from a deadline trip by it.
    pub(crate) const STEP_BUDGET: &'static str = "step budget";

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

    /// Per-step accounting (a statement in the tree-walker, an instruction
    /// in the VM): the step budget on every step, the interrupt safepoint
    /// every 1024. `line` (0 = unknown) locates a cancellation report.
    #[inline(always)]
    pub(crate) fn tick(&self, steps: &mut u64, line: u32) -> Result<(), RunError> {
        *steps += 1;
        if let Some(max) = self.max_steps {
            if *steps > max {
                let msg = format!("{} of {max} exhausted", Self::STEP_BUDGET);
                return Err(RunError::Limit { msg });
            }
        }
        if self.poll && steps.is_multiple_of(1024) {
            self.check_interrupt((line > 0).then_some(line))?;
        }
        Ok(())
    }

    pub(crate) fn check_deadline(&self) -> Result<(), RunError> {
        if let Some(t) = self.deadline {
            if std::time::Instant::now() >= t {
                return Err(RunError::Limit { msg: "deadline exceeded".into() });
            }
        }
        Ok(())
    }

    /// The shared safepoint check: cancellation first (so a fired or
    /// expired token wins over a simultaneous [`RunLimits::deadline`]
    /// trip), then that wall-clock deadline. `at_line` is the caller's
    /// best known source line for the [`RunError::Cancelled`] report.
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
/// [`crate::Session::set_schedule_override_all`] (one schedule for every
/// parallel DO). Both execution tiers consult the same snapshot.
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
    /// The session's rung entry and deopt counts, which each VM folds
    /// its own into when it retires.
    pub(crate) counts: Arc<RungCounts>,
    /// Chaos hook: the worker with this logical thread id panics on OMP
    /// region entry (exercises `RegionPanic` containment end to end).
    /// One-shot: the session arms it for a single `make_exec`.
    pub(crate) debug_panic_worker: Option<usize>,
    /// The promotion table of the build this run executes. `None` means
    /// the native tier is off for this run, unavailable on this target
    /// or the run is Simulated, and the `VecLoop` entry pays a single
    /// pointer test.
    pub(crate) native: Option<Arc<crate::jit::NativeCache>>,
    /// Compile a region on its first entry instead of at
    /// [`crate::jit::DEFAULT_HOT_THRESHOLD`].
    pub(crate) native_eager: bool,
}

/// `VecLoop` entries that ran on the vector rung and natively, and
/// native deopts (entry-guard failures on promoted regions), across
/// all of a session's runs and threads.
#[derive(Default)]
pub(crate) struct RungCounts {
    pub(crate) vector_entries: AtomicU64,
    pub(crate) native_entries: AtomicU64,
    pub(crate) native_deopts: AtomicU64,
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
    /// Collect cost counters (Simulated mode)? Gates every call into
    /// `st.cost`.
    collect: bool,
    st: RegionState,
    depth: usize,
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

impl<'e> Task<'e> {
    pub(crate) fn new(ex: &'e Exec, tid: usize, collect: bool) -> Self {
        Task {
            ex,
            tid,
            collect,
            st: RegionState::default(),
            depth: 0,
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

    #[inline]
    fn op(&mut self, k: OpKind) {
        self.op_n(k, 1);
    }

    #[inline]
    fn op_n(&mut self, k: OpKind, n: u64) {
        if self.collect {
            self.st.cost.op_n(k, n);
        }
    }

    fn add_misc(&mut self, f: impl Fn(&mut CostCounters)) {
        if self.collect {
            self.st.cost.add_misc(f);
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
                self.op(OpKind::Load);
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
    ) {
        let info = &unit.vars[v];
        match info.place {
            Place::Frame(slot) => frame.slots[slot] = typed_frameval(val, info.ty),
            Place::Global(cell) => {
                self.op(OpKind::Store);
                self.ex.globals.cells[cell].store_bits(self.tid, val.to_bits(info.ty));
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
                self.op(OpKind::Load);
                Ok(match arr.ty {
                    ScalarTy::I => Val::I(arr.get_i(off)),
                    ScalarTy::F => Val::F(arr.get_f(off)),
                    ScalarTy::B => Val::B(arr.get_b(off)),
                })
            }
            RExpr::Bin { op, ty, l, r } => {
                let a = self.eval(unit, frame, l)?;
                let b = self.eval(unit, frame, r)?;
                if let Some(k) = intrinsics::bin_cost(*op, *ty) {
                    self.op(k);
                }
                intrinsics::bin(*op, *ty, a, b)
            }
            RExpr::Neg(x) => {
                let v = self.eval(unit, frame, x)?;
                self.op(if matches!(v, Val::F(_)) { OpKind::Flop } else { OpKind::IOp });
                intrinsics::neg(v)
            }
            RExpr::Not(x) => {
                let v = self.eval(unit, frame, x)?;
                self.op(OpKind::IOp);
                Ok(intrinsics::not(v))
            }
            RExpr::ToF(x) => Ok(intrinsics::to_f(self.eval(unit, frame, x)?)),
            RExpr::ToI(x) => Ok(intrinsics::to_i(self.eval(unit, frame, x)?)),
            RExpr::Intrinsic { f, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(unit, frame, a)?);
                }
                self.op(f.cost());
                Ok(f.call(&vals))
            }
            RExpr::ArrReduce { f, v } => {
                let arr = self.array_handle(unit, frame, *v)?;
                self.op_n(OpKind::Load, arr.len() as u64);
                self.op_n(OpKind::Flop, arr.len() as u64);
                Ok(intrinsics::reduce(*f, &arr))
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
            RExpr::Call { call, .. } => self
                .call(unit, frame, call)?
                .ok_or_else(|| RunError::Type { msg: "function returned nothing".into() }),
        }
    }

    // ---------- calls ----------

    fn build_frame(&mut self, callee: &RUnit) -> Frame {
        let mut frame = Frame::new(callee.frame_size);
        for info in &callee.vars {
            if let Place::Frame(slot) = info.place {
                frame.slots[slot] = fresh_frameval(info);
            }
        }
        frame
    }

    /// Runs call `c` ([`RCall`]): the depth check and the call count,
    /// its copies in, the callee over a fresh frame whose dummies hold
    /// the bound variables — a scalar copied, an array's handle shared —
    /// each scalar copied back, then its copies back. Returns a
    /// function's result.
    fn call(
        &mut self,
        unit: &RUnit,
        frame: &mut Frame,
        c: &RCall,
    ) -> Result<Option<Val>, RunError> {
        if self.depth >= self.ex.limits.max_call_depth {
            return Err(RunError::Limit { msg: "call depth exceeded".into() });
        }
        self.add_misc(|c| c.calls += 1);
        self.exec_block(unit, frame, &c.enter)?;
        let prog = Arc::clone(&self.ex.prog);
        let callee = &prog.units[c.unit];
        let mut cframe = self.build_frame(callee);
        let slot = |p: VarIdx| match callee.vars[p].place {
            Place::Frame(s) => s,
            Place::Global(_) => unreachable!("dummies are frame vars"),
        };
        for (&b, &p) in c.binds.iter().zip(&callee.params) {
            cframe.slots[slot(p)] = match unit.vars[b].rank {
                0 => typed_frameval(self.read_scalar(unit, frame, b)?, callee.vars[p].ty),
                _ => FrameVal::Arr(Some(self.array_handle(unit, frame, b)?)),
            };
        }

        // Execute. The location registers move to the callee and are
        // restored only on success, so a propagating fault keeps the
        // innermost (most precise) location.
        let (saved_unit, saved_line) = (self.cur_unit, self.cur_line);
        self.cur_unit = c.unit;
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
        for (&b, &p) in c.binds.iter().zip(&callee.params) {
            if unit.vars[b].rank == 0 {
                let val = frameval_to_val(&cframe.slots[slot(p)], callee.vars[p].ty);
                self.write_scalar(unit, frame, b, val);
            }
        }
        self.exec_block(unit, frame, &c.leave)?;
        Ok(callee.result.map(|(rv, rty)| frameval_to_val(&cframe.slots[slot(rv)], rty)))
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
            self.ex.limits.tick(&mut self.steps, self.cur_line)?;
            match self.exec_stmt(unit, frame, &sp.s)? {
                Flow::Normal => {}
                f => return Ok(f),
            }
        }
        Ok(Flow::Normal)
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
                self.write_scalar(unit, frame, *v, val);
                Ok(Flow::Normal)
            }
            RStmt::AssignElem { v, subs, e } => {
                let ix = self.eval_subs(unit, frame, subs)?;
                let val = self.eval(unit, frame, e)?;
                let arr = self.array_handle(unit, frame, *v)?;
                let off = arr.offset(&unit.vars[*v].name, &ix)?;
                self.op(OpKind::Store);
                store_val(&arr, off, val);
                Ok(Flow::Normal)
            }
            RStmt::Broadcast { v, e } => {
                let val = self.eval(unit, frame, e)?;
                let arr = self.array_handle(unit, frame, *v)?;
                let n = arr.len();
                self.op_n(OpKind::Store, n as u64);
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
                self.op_n(OpKind::Load, n as u64);
                self.op_n(OpKind::Store, n as u64);
                for off in 0..n {
                    d.set_bits(off, s.get_bits(off));
                }
                Ok(Flow::Normal)
            }
            RStmt::AtomicUpdate { v, subs, op, e } => {
                let delta = self.eval(unit, frame, e)?;
                self.add_misc(|c| c.atomics += 1);
                self.op(OpKind::Load);
                self.op(OpKind::Store);
                let info = &unit.vars[*v];
                if info.rank == 0 {
                    match info.place {
                        Place::Global(cell) => {
                            let atom = self.ex.globals.cells[cell].scalar_atomic(self.tid);
                            atomic_update(atom, info.ty, *op, delta);
                        }
                        Place::Frame(_) => {
                            // Frame scalar: thread-private anyway; plain RMW.
                            let cur = self.read_scalar(unit, frame, *v)?;
                            let nv = combine_vals(info.ty, *op, cur, delta);
                            self.write_scalar(unit, frame, *v, nv);
                        }
                    }
                } else {
                    let ix = self.eval_subs(unit, frame, subs)?;
                    let arr = self.array_handle(unit, frame, *v)?;
                    let off = arr.offset(&info.name, &ix)?;
                    if arr.ty == ScalarTy::B {
                        return Err(RunError::Type { msg: "ATOMIC on LOGICAL".into() });
                    }
                    atomic_update(&arr.cells[off], arr.ty, *op, delta);
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
            RStmt::Call(c) => {
                self.call(unit, frame, c)?;
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
                let len = ArrayObj::checked_len(&rd)?;
                self.add_misc(|c| {
                    c.alloc_calls += 1;
                    c.alloc_bytes += (len * 8) as u64;
                });
                match info.place {
                    Place::Frame(slot) => {
                        if matches!(&frame.slots[slot], FrameVal::Arr(Some(_))) {
                            return Err(RunError::AlreadyAllocated { var: info.name.clone() });
                        }
                        frame.slots[slot] = FrameVal::Arr(Some(Arc::new(ArrayObj::new(info.ty, rd))));
                    }
                    Place::Global(cell) => {
                        self.ex.globals.cells[cell].allocate(self.tid, &info.name, info.ty, &rd)?
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
                        self.ex.globals.cells[cell].deallocate(self.tid, &info.name)?
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Critical { name, body } => {
                self.st.cost.enter_critical();
                // Only team members of a real fork contend for the lock.
                let guard = self.st.in_real_region.then(|| self.ex.critical.enter(name));
                let result = self.exec_block(unit, frame, body);
                drop(guard);
                self.st.cost.leave_critical();
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
                            intrinsics::print_item(&mut line, self.eval(unit, frame, e)?)
                        }
                    }
                }
                line.push('\n');
                self.st.out.push_str(&line);
                Ok(Flow::Normal)
            }
            RStmt::Stop(msg) => Err(RunError::Stop { msg: msg.clone().unwrap_or_default() }),
            RStmt::Inlined { unit: callee, locals, enter, body, leave } => {
                // `call`'s, over the caller's own frame.
                if self.depth >= self.ex.limits.max_call_depth {
                    return Err(RunError::Limit { msg: "call depth exceeded".into() });
                }
                for info in &unit.vars[locals.clone()] {
                    if let Place::Frame(slot) = info.place {
                        frame.slots[slot] = fresh_frameval(info);
                    }
                }
                self.exec_block(unit, frame, enter)?;
                let (saved_unit, saved_line) = (self.cur_unit, self.cur_line);
                self.cur_unit = *callee;
                self.depth += 1;
                if let Some(p) = self.prof {
                    p.unit_enter(&self.ex.prog.units[*callee].name);
                }
                let flow = self.exec_block(unit, frame, body);
                self.depth -= 1;
                let flow = flow?;
                if let Some(p) = self.prof {
                    p.unit_exit();
                }
                self.cur_unit = saved_unit;
                self.cur_line = saved_line;
                debug_assert_eq!(flow, Flow::Normal, "an inlined leaf has no RETURN");
                self.exec_block(unit, frame, leave)
            }
            // The original statements: `fast` runs the same (the
            // rewrite's oracle runs it in their place).
            RStmt::Span { slow, .. } => self.exec_block(unit, frame, slow),
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
        // Collapsed inner dims (bounds evaluated once, per OpenMP rules).
        let mut dims = vec![var];
        let mut bounds = vec![(s0, e0)];
        for cd in collapse_with {
            let lo = self.eval(unit, frame, &cd.start)?.as_i();
            let hi = self.eval(unit, frame, &cd.end)?.as_i();
            dims.push(cd.var);
            bounds.push((lo, hi));
        }
        let num_threads = match &o.num_threads {
            Some(e) => Some(self.eval(unit, frame, e)?.as_i()),
            None => None,
        };
        let reductions: Vec<Reduction> = o
            .reductions
            .iter()
            .map(|&(op, v)| {
                let info = &unit.vars[v];
                let cell = match info.place {
                    Place::Global(c) => Some(c),
                    Place::Frame(_) => None,
                };
                Reduction { op, ty: info.ty, cell }
            })
            .collect();
        let site =
            TaskSite { ex: self.ex, unit, cur_unit: self.cur_unit, body, dims: &dims, omp: o };
        let spec = RegionSpec {
            line: do_line,
            sched: o.sched,
            per_thread_access: o.per_thread_access,
            num_threads,
            bounds: &bounds,
            outer_step: st,
            reductions: &reductions,
        };

        if let Some(p) = self.prof {
            // Matches the VM's `OmpDo` instruction: after bounds, step,
            // collapse bounds and NUM_THREADS have evaluated.
            p.omp_enter(do_line);
        }
        let r = region::run(self.ex, &site, self, frame, &spec);
        if let Some(p) = self.prof {
            if r.is_ok() {
                p.omp_exit();
            }
        }
        r
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
        let prev_vec = self.st.cost.vec_mode;
        if self.collect && vec != VecClass::None {
            self.st.cost.vec_mode = vec;
        }
        let mut i = s0;
        let mut flow = Flow::Normal;
        for _ in 0..intrinsics::do_trips(s0, e0, st) {
            self.write_scalar(unit, frame, var, Val::I(i));
            match self.exec_block(unit, frame, body)? {
                Flow::Normal | Flow::Cycle => {}
                Flow::Exit => break,
                Flow::Return => {
                    flow = Flow::Return;
                    break;
                }
            }
            i = i.wrapping_add(st);
        }
        self.st.cost.vec_mode = prev_vec;
        Ok(flow)
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
        Ok((result, self.st.cost.finish(), self.st.out))
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

/// One `!$OMP PARALLEL DO` site of the tree-walker, as the shared
/// region driver sees it.
struct TaskSite<'a, 'e> {
    ex: &'e Exec,
    unit: &'a RUnit,
    /// The unit the region sits in (workers' fault context).
    cur_unit: UnitId,
    body: &'a [SpStmt],
    /// Loop variable per collapsed dimension, outer first.
    dims: &'a [VarIdx],
    omp: &'a ROmp,
}

impl<'e> region::Tier for TaskSite<'_, 'e> {
    type Exe = Task<'e>;
    type Frame = Frame;

    fn worker(&self, tid: usize, base: &Frame) -> (Task<'e>, Frame) {
        let mut task = Task::new(self.ex, tid, false);
        task.st.in_real_region = true;
        task.cur_unit = self.cur_unit;
        let mut frame = base.clone();
        // PRIVATE arrays: detach per-thread deep copies.
        for &pv in &self.omp.private {
            if let Place::Frame(slot) = self.unit.vars[pv].place {
                if let FrameVal::Arr(Some(a)) = &frame.slots[slot] {
                    frame.slots[slot] = FrameVal::Arr(Some(Arc::new(a.deep_clone())));
                }
            }
        }
        (task, frame)
    }

    fn set_index(&self, task: &mut Task<'e>, frame: &mut Frame, dim: usize, v: i64) {
        task.write_scalar(self.unit, frame, self.dims[dim], Val::I(v));
    }

    fn run_body(&self, task: &mut Task<'e>, frame: &mut Frame) -> Result<Flow, RunError> {
        task.exec_block(self.unit, frame, self.body)
    }

    fn red_read(&self, task: &Task<'e>, frame: &Frame, ri: usize) -> Val {
        let info = &self.unit.vars[self.omp.reductions[ri].1];
        match info.place {
            Place::Frame(slot) => frameval_to_val(&frame.slots[slot], info.ty),
            Place::Global(cell) => {
                Val::from_bits(self.ex.globals.cells[cell].load_bits(task.tid), info.ty)
            }
        }
    }

    fn red_write(&self, task: &mut Task<'e>, frame: &mut Frame, ri: usize, v: Val) {
        task.write_scalar(self.unit, frame, self.omp.reductions[ri].1, v);
    }

    fn fault_ctx(&self, task: &Task<'e>, e: RunError) -> RunError {
        task.attach_ctx(e)
    }

    fn state(task: &mut Self::Exe) -> &mut RegionState {
        &mut task.st
    }

    fn steps(task: &mut Self::Exe) -> &mut u64 {
        &mut task.steps
    }
}

/// What a call's fresh frame holds in `info`'s slot: zero, or a
/// zeroed array of its declared shape for a fixed-shape local, or no
/// array for a dummy or an allocatable.
fn fresh_frameval(info: &VarInfo) -> FrameVal {
    if info.rank == 0 {
        return typed_frameval(zero_of(info.ty), info.ty);
    }
    if info.allocatable || info.is_param {
        FrameVal::Arr(None)
    } else {
        FrameVal::Arr(Some(Arc::new(ArrayObj::new(info.ty, info.dims.clone()))))
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

/// `!$OMP ATOMIC` read-modify-write of one storage cell, scalar or array
/// element (a LOGICAL scalar combines as its 0/1 integer bits).
pub(crate) fn atomic_update(cell: &AtomicU64, ty: ScalarTy, op: RedOp, delta: Val) {
    let next = |cur: u64| match ty {
        ScalarTy::F => combine_f(op, f64::from_bits(cur), delta.as_f()).to_bits(),
        _ => combine_i(op, cur as i64, delta.as_i()) as u64,
    };
    // The closure never declines, so the update cannot fail.
    let _ = cell.fetch_update(Ordering::AcqRel, Ordering::Relaxed, |cur| Some(next(cur)));
}

#[cfg(test)]
mod tests {
    use super::*;

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
