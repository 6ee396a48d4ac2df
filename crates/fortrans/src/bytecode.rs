//! Bytecode tier: compiles the resolved IR ([`crate::rir`]) into a flat
//! instruction stream executed by [`crate::vm`].
//!
//! The tree-walking interpreter re-dispatches on boxed `RExpr`/`RStmt`
//! nodes for every iteration of every loop and allocates a `Vec<i64>` per
//! subscript list. This tier resolves everything resolvable at compile
//! time instead:
//!
//! * frame variables become indices into unboxed per-type value banks
//!   (`i64`/`f64`/`bool`/array-handle) — see [`VSlot`];
//! * structured control flow becomes jump-target PCs;
//! * subscripts that are INTEGER frame scalars or integer constants are
//!   not pushed at all: the element instruction names a run of
//!   [`SubOp`]s in the unit's subscript table and the VM reads the
//!   slots directly (`LoadElemS`/`StoreElemS`; fixed-shape local arrays
//!   additionally carry their precomputed strides/bounds, [`SDims`]);
//! * every `DO` loop fixes its trip count when it starts
//!   ([`intrinsics::do_trips`]) and one `DoHead` counts it down; a
//!   canonical unit-stride loop over a frame INTEGER compiles to a fused
//!   `DoInitC`/`DoHead`/`DoIncr1` triple (one trip test + one variable
//!   store + one increment per iteration), and those whose body
//!   is elementwise REAL arithmetic over affine subscripts — inner loops
//!   of a few literal trips looked through as if unrolled — get a
//!   `VecLoop` in front that runs the whole trip as a [`VecDesc`];
//! * constant subexpressions fold, only in the *optimized* build
//!   variant;
//! * the scalar glue between regions carries its operands, again in the
//!   optimized build only: an INTEGER frame-scalar assignment whose
//!   right side is affine in frame INTEGER scalars ([`Affine`]) is one
//!   `SetI`, and a fused loop over `i32` literal bounds starts with one
//!   `DoInitK` instead of `Const Const DoInitC`.
//!
//! Lowering takes the program it is given as it is and applies no
//! program rule. The optimized build's rules — scoped temporaries,
//! inlined leaves, fused spans, contracted temporaries — are rewrites of
//! the resolved program before lowering
//! ([`crate::rir::rewrite::optimized`]); what they leave is ordinary
//! RIR here (a scoped temporary is a fixed frame array like any other,
//! a contracted one a frame scalar).
//!
//! Two build variants exist per program, and they are the same lowering
//! but for what changes operation counts. `traced = false` (used by
//! `ExecMode::Serial` / `Parallel`, on the rewritten program) applies
//! everything above. `traced = true` (used by `ExecMode::Simulated`, on
//! the program as resolved, whose `ALLOCATE`s and element accesses post
//! the counts the interpreter posts) omits operator folding, which
//! removes operations the interpreter counts, and the scalar glue's
//! `SetI` sets and `DoInitK` heads, and adds the cost-only instructions
//! (`CostBranch`, `VecEnter`/`VecLeave`), so the VM emits a
//! [`crate::cost::CostTrace`] bit-identical to the interpreter's.
//! Everything else is cost-neutral and shared: frame loads, constants,
//! a region's prep `SetI`s and the `Do*` loop instructions post nothing,
//! so operand-addressed subscripts and fused heads cannot move a count.
//!
//! Vector regions are shared too. A flat `VecLoop` body is straight-line
//! and lane-independent, so the scalar tier posts the same counts on
//! every iteration; `region_cost` sums them once, from the emitted
//! scalar loop `DoHead … DoIncr1` through the per-instruction table
//! (`BInstr::posts`) the VM's own handlers post from, and a Simulated
//! run that commits to the vector rung posts `trip x ledger` in one
//! step (a nest region gets no ledger and stays scalar there). That is
//! exact, not an estimate: the entry guards prove no iteration can
//! fault, the counters are integers that only add, and the bucket they
//! land in cannot change mid-loop (see below). The ledger describes
//! the *traced* scalar body — unfolded constants and all — while the
//! lane program is built by an analysis that folds in both builds; the
//! two need not mirror each other because one supplies only counts and
//! the other only values. What the vector path adds in front of the
//! loop (hoisted subscript parts) re-evaluates expressions the body
//! already paid for, so it is one `SetI` per part in both builds, which
//! posts nothing. Every
//! region falls back to code that runs: the scalar loop it shadows, or
//! a fused span's original statements. The verifier
//! recomputes every ledger ([`crate::verify`]).
//!
//! Evaluation *order* of side effects (stores, allocations, calls,
//! prints, error checks) mirrors the interpreter exactly; cost-counter
//! ordering within one statement may differ, which is unobservable
//! because counters only segment at iteration/region/critical/vec
//! boundaries — always statement boundaries.
//!
//! One documented divergence: when an entry caller passes an
//! [`crate::engine::ArgVal`] whose shape disagrees with the declared
//! parameter (array for a scalar, or an array handle whose element type
//! differs from the declaration), the interpreter defers the type error
//! to first use while the VM reports it at entry (or converts at load).
//! No real program hits this; the differential suite pins everything
//! else.

use crate::ast::{Bin, RedOp};
use crate::cost::{Ledger, OpKind};
use crate::intrinsics::{self, Intr};
use crate::interp::Val;
use crate::rir::*;

mod vecplan;

pub use crate::intrinsics::Cmp;
pub use vecplan::VecRefusal;
use vecplan::VecPlan;

/// "No target": flow propagates out of the enclosing range instead.
pub const NO_PC: u32 = u32::MAX;

/// Resolved storage location of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VSlot {
    /// Frame scalar in the i64 bank.
    I(u32),
    /// Frame scalar in the f64 bank.
    F(u32),
    /// Frame scalar in the bool bank.
    B(u32),
    /// Frame array handle in the handle bank.
    A(u32),
    /// Global scalar cell.
    GlobS(u32),
    /// Global array cell.
    GlobA(u32),
}

/// Precomputed layout of a fixed-shape array (column-major strides).
#[derive(Debug, Clone)]
pub struct SDims {
    pub dims: Vec<(i64, i64)>,
    pub strides: Vec<usize>,
}

impl SDims {
    fn of(dims: &[(i64, i64)]) -> SDims {
        let mut strides = Vec::with_capacity(dims.len());
        let mut s = 1usize;
        for &(lo, hi) in dims {
            strides.push(s);
            s *= (hi - lo + 1).max(0) as usize;
        }
        SDims { dims: dims.to_vec(), strides }
    }
}

/// The right side of a [`BInstr::SetI`]: `add + Σ coeff · i[slot]` over
/// `terms` (`(slot, coeff)`, each slot once, no zero coefficient), in
/// wrapping i64 arithmetic. It folds an expression built from INTEGER
/// literals and frame INTEGER scalars with `+`, `-`, unary `-` and `*`
/// by a constant. Those operations wrap (`AddI`, `SubI`, `MulI`,
/// `NegI`), so they compute in the ring of integers modulo 2^64, where
/// distributing, reassociating and collecting terms change no value:
/// the folded sum is the stack code's result bit for bit. Nothing in
/// such an expression can fail or store, so when the slots are read
/// does not matter either.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Affine {
    pub add: i64,
    pub terms: Vec<(u32, i64)>,
}

impl Affine {
    /// The value over the i-bank `i`.
    #[inline(always)]
    pub(crate) fn eval(&self, i: &[i64]) -> i64 {
        let mut v = self.add;
        for &(s, c) in &self.terms {
            v = v.wrapping_add(c.wrapping_mul(i[s as usize]));
        }
        v
    }

    /// Adds `coeff · i[slot]`.
    fn term(&mut self, slot: u32, coeff: i64) {
        match self.terms.iter_mut().find(|t| t.0 == slot) {
            Some(t) => t.1 = t.1.wrapping_add(coeff),
            None => self.terms.push((slot, coeff)),
        }
        self.terms.retain(|t| t.1 != 0);
    }
}

/// "Dynamic shape" marker for `LoadElemS`/`StoreElemS::sd`: bounds and
/// strides come from the array handle at run time.
pub const NO_SDIMS: u16 = u16::MAX;

/// Longest subscript or bound list an instruction may name: the VM
/// gathers them into a stack buffer this long. The front end refuses
/// arrays of higher rank (`ast::MAX_RANK`), so lowering never
/// needs more.
pub const MAX_INLINE_RANK: usize = crate::ast::MAX_RANK;

/// One subscript operand of a `LoadElemS`/`StoreElemS`, resolved at
/// lowering time. A `Slot` is read when the access executes — *after*
/// its sibling subscripts (and a store's right-hand side) have been
/// evaluated — so the compiler only uses it when none of those can
/// change the variable (see `UnitCompiler::emit_sub_operands`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubOp {
    /// INTEGER frame scalar: `frame.i[slot]`.
    Slot(u32),
    /// Integer constant.
    Const(i32),
    /// General expression: popped from the operand stack (`Stack`
    /// operands of one access are pushed in subscript order).
    Stack,
}

/// One flat instruction. Operands live on an untyped `u64` stack whose
/// static types the compiler tracks; `B` values are stored as 0/1.
#[derive(Debug, Clone, Copy)]
pub enum BInstr {
    /// Push raw bits.
    Const(u64),
    // Frame scalar access (cost-free, like the interpreter's frames).
    LoadI(u32),
    LoadF(u32),
    LoadB(u32),
    StoreI(u32),
    StoreF(u32),
    StoreB(u32),
    /// Global scalar load (counts one Load).
    LoadG(u32),
    /// Global scalar store (counts one Store).
    StoreG(u32),
    // Cost-free conversions (mirror `Val::as_f` / `as_i` / `as_b`).
    CvtIF,
    CvtFI,
    CvtIB,
    CvtFB,
    // f64 arithmetic.
    AddF,
    SubF,
    MulF,
    DivF,
    PowFF,
    /// `F ** I` with the interpreter's powi-for-small-exponents rule.
    PowFI,
    NegF,
    // i64 arithmetic (wrapping; DivI errors on zero).
    AddI,
    SubI,
    MulI,
    DivI,
    PowII,
    NegI,
    // LOGICAL ops (operands already converted to 0/1).
    NotB,
    AndB,
    OrB,
    CmpF(Cmp),
    CmpI(Cmp),
    /// Defensive: arithmetic `Bin` with `ty == B` — evaluate operands,
    /// then fail like the interpreter.
    FailArith2,
    /// Defensive: `Neg` of a LOGICAL.
    FailNegB,
    /// Type error with a precomputed message (pops nothing).
    FailType { msg: u32 },
    /// Integer-flavored intrinsic (all operands statically I).
    IntrI { f: Intr, argc: u8 },
    /// Float-flavored intrinsic ([`Intr::call_f`]); INT and NINT give an
    /// INTEGER.
    IntrF { f: Intr, argc: u8 },
    /// Array element access, operand-addressed: the `n` subscripts are
    /// `subops[subs..subs + n]`; only the `Stack` ones are popped. `sd`
    /// is the static shape of a fixed frame array (`vs` is then its `A`
    /// slot) or [`NO_SDIMS`].
    LoadElemS { vs: VSlot, v: u32, subs: u32, n: u8, sd: u16, want: ScalarTy },
    /// As `LoadElemS`; pops the value first, then the `Stack` subscripts.
    StoreElemS { vs: VSlot, v: u32, subs: u32, n: u8, sd: u16, src: ScalarTy },
    ArrRed { f: ArrRed, vs: VSlot, v: u32, want: ScalarTy },
    AllocatedQ { vs: VSlot },
    Broadcast { vs: VSlot, v: u32, src: ScalarTy },
    CopyArr { dvs: VSlot, dv: u32, svs: VSlot, sv: u32 },
    /// Scalar `!$OMP ATOMIC` target; pops the delta (static ty `ety`).
    AtomicScal { vs: VSlot, v: u32, op: RedOp, ety: ScalarTy, vty: ScalarTy },
    /// Array-element ATOMIC; pops subs then delta.
    AtomicElem { vs: VSlot, v: u32, op: RedOp, nsubs: u8, ety: ScalarTy },
    /// Pops `2*ndims` bounds (lo/hi pairs, in order).
    Alloc { vs: VSlot, v: u32, ndims: u8, ty: ScalarTy },
    Dealloc { vs: VSlot, v: u32 },
    // Control flow.
    Jump(u32),
    /// Pops a 0/1 condition.
    JumpIfFalse(u32),
    /// Traced builds only: `branches += 1`.
    CostBranch,
    /// Traced builds only: serial-loop vectorization bracket.
    VecEnter(VecClass),
    VecLeave,
    /// Pops end, start; constant step 1. `i[ctr] = start`, and `i[left]`
    /// is the loop's trip count ([`intrinsics::do_trips`]), which the
    /// head counts down.
    DoInitC { ctr: u32, left: u32 },
    /// `DoInitC` of `i32` literal bounds, which it carries. Optimized
    /// builds only.
    DoInitK { ctr: u32, left: u32, lo: i32, hi: i32 },
    /// `i[dst] = affine[aff]` ([`Affine`]): a `VecLoop`'s prep in both
    /// builds, and in the optimized build an INTEGER frame-scalar
    /// assignment — a set or a move — whose right side is affine in
    /// frame INTEGER scalars.
    SetI { dst: u32, aff: u32 },
    /// Vector superinstruction covering the whole unit-step loop that
    /// follows: executes `vecs[desc]` over the `i[left]` trips from
    /// `i[ctr]` in chunked slice form, leaves the DO state the loop's
    /// head would and jumps to `exit`, the loop's, or — when any runtime
    /// guard fails (alias, bounds, shape, budget, vector tier disabled) —
    /// falls through to the scalar head with no state changed. A span's
    /// fused region falls through to the original statements instead.
    VecLoop { desc: u32, ctr: u32, left: u32, var: u32, exit: u32 },
    /// Pops step, end, start: `DoInitC` with `i[step]` the step; `check`
    /// enforces the zero-step error.
    DoInit { ctr: u32, left: u32, step: u32, check: bool },
    /// Every loop's head: jumps to `exit` when no trip is left, else
    /// counts one down and stores the counter in the loop variable —
    /// `var` is `ctr` when that is no frame INTEGER, and the following
    /// instructions store it.
    DoHead { ctr: u32, left: u32, var: u32, exit: u32 },
    DoIncr1 { ctr: u32, head: u32 },
    DoIncr { ctr: u32, step: u32, head: u32 },
    /// Peeks the i64 top of stack; errors if zero ("zero DO step").
    CheckStepNZ,
    // Dynamic flow (crosses an OMP-body / CRITICAL boundary).
    FlowExit,
    FlowCycle,
    FlowReturn,
    /// CRITICAL section: body is `[pc+1, end)`; `exit`/`cycle` give the
    /// enclosing loop's targets at this nesting level, or [`NO_PC`].
    Critical { name: u32, end: u32, exit: u32, cycle: u32 },
    /// OMP PARALLEL DO; stack holds bounds/clauses, body in the descriptor.
    OmpDo { desc: u32 },
    /// Call-depth check + call cost, before argument evaluation.
    CallPre,
    /// By-ref element argument: pops subs into the stash, pushes the value.
    StashElem { vs: VSlot, v: u32, nsubs: u8, want: ScalarTy },
    /// Whole-array argument: pushes the handle onto the array stack.
    PushArr { vs: VSlot, v: u32 },
    Call { spec: u32, push: bool },
    Print { spec: u32 },
    Stop { msg: u32 },
    /// Entry of an inlined leaf call, `inlines[desc]`: the call-depth
    /// check of `CallPre`, then a reset of the block's locals (frame
    /// slot ranges) to what a fresh callee frame holds. Opens the
    /// callee's unit span in a profiled run.
    InlineEnter { desc: u32 },
    /// Exit of the inlined block `inlines[desc]`: closes the callee's
    /// unit span in a profiled run, and does nothing otherwise.
    InlineExit { desc: u32 },
    /// Entry of the fused span `spans[span]` ([`SpanDesc`]): runs the
    /// span's S and the fused loop's set-up speculated, then at the fused
    /// loop's `VecLoop` the fused region, and continues at the span's
    /// end; or, when any of that fails — a fault or limit in S, a refused
    /// entry guard or step reservation — or the run is profiled or has no
    /// vector rung, puts the step count back and continues at the
    /// original statements.
    SpanEnter { span: u32 },
}

/// What one execution of an instruction posts to the Simulated-mode
/// cost trace. [`BInstr::posts`] is the one definition both the VM's
/// handlers and [`region_cost`] read, so a `VecLoop` region's static
/// ledger cannot drift from what its scalar body posts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Posts {
    Free,
    Op(OpKind),
    /// `!$OMP ATOMIC`: the atomics counter, one load and one store.
    Atomic,
    /// `branches += 1`.
    Branch,
    /// No per-instruction constant: the count depends on run-time state
    /// (array length, allocation size), or the instruction transfers
    /// control or runs other code. The VM handler posts for itself.
    Dynamic,
}

impl BInstr {
    #[inline(always)]
    pub(crate) fn posts(&self) -> Posts {
        use BInstr::*;
        match self {
            Const(_) | LoadI(_) | LoadF(_) | LoadB(_) | StoreI(_) | StoreF(_) | StoreB(_)
            | CvtIF | CvtFI | CvtIB | CvtFB | AllocatedQ { .. } => Posts::Free,
            // The integer operations it stands for post `IOp`s, but only
            // the traced build keeps those counts, and there it is a
            // prep, which recomputes what the scalar body pays for.
            SetI { .. } => Posts::Free,
            AddF | SubF | MulF | NegF | CmpF(_) => Posts::Op(OpKind::Flop),
            DivF => Posts::Op(OpKind::FDiv),
            PowFF | PowFI => Posts::Op(OpKind::FSpecial),
            AddI | SubI | MulI | DivI | PowII | NegI | NotB | AndB | OrB | CmpI(_) => {
                Posts::Op(OpKind::IOp)
            }
            IntrI { f, .. } | IntrF { f, .. } => Posts::Op(f.cost()),
            LoadG(_) | LoadElemS { .. } => Posts::Op(OpKind::Load),
            StoreG(_) | StoreElemS { .. } => Posts::Op(OpKind::Store),
            AtomicScal { .. } | AtomicElem { .. } => Posts::Atomic,
            CostBranch => Posts::Branch,
            FailArith2 | FailNegB | FailType { .. } | ArrRed { .. } | Broadcast { .. }
            | CopyArr { .. } | Alloc { .. } | Dealloc { .. } | Jump(_) | JumpIfFalse(_)
            | VecEnter(_) | VecLeave | DoInitC { .. } | DoInitK { .. } | VecLoop { .. }
            | DoInit { .. } | DoHead { .. } | DoIncr1 { .. } | DoIncr { .. } | CheckStepNZ
            | FlowExit | FlowCycle | FlowReturn | Critical { .. } | OmpDo { .. } | CallPre
            | StashElem { .. } | PushArr { .. } | Call { .. } | Print { .. } | Stop { .. }
            | InlineEnter { .. } | InlineExit { .. } | SpanEnter { .. } => Posts::Dynamic,
        }
    }
}

/// A fused loop over literal bounds, as `emit_serial_do` lays it out:
/// `DoInitK` (the optimized build) or `Const(start) Const(end) DoInitC`
/// (the traced build, and bounds past `i32`), then `[VecEnter] DoHead …
/// DoIncr1`. `first` is its first instruction, `trips` its count.
struct ConstLoop {
    first: usize,
    start: i64,
    trips: u64,
    ctr: u32,
    left: u32,
    var: u32,
    head: usize,
    exit: usize,
}

/// The constant-bounds loop whose `DoInitK` or `DoInitC` sits at
/// `code[init]`, if that is what the code there is.
fn const_loop_at(code: &[BInstr], init: usize) -> Option<ConstLoop> {
    let (first, s, e, ctr, left) = match *code.get(init)? {
        BInstr::DoInitK { ctr, left, lo, hi } => (init, i64::from(lo), i64::from(hi), ctr, left),
        BInstr::DoInitC { ctr, left } => {
            let first = init.checked_sub(2)?;
            let (BInstr::Const(s), BInstr::Const(e)) = (code[first], code[init - 1]) else {
                return None;
            };
            (first, s as i64, e as i64, ctr, left)
        }
        _ => return None,
    };
    let head = init + 1 + usize::from(matches!(code.get(init + 1), Some(BInstr::VecEnter(_))));
    let BInstr::DoHead { ctr: hc, left: hl, var, exit } = *code.get(head)? else { return None };
    let exit = exit as usize;
    let incr = exit.checked_sub(1).filter(|&p| p > head)?;
    match *code.get(incr)? {
        BInstr::DoIncr1 { ctr: ic, head: ih }
            if (hc, hl, ic, ih as usize) == (ctr, left, ctr, head) =>
        {
            let trips = intrinsics::do_trips(s, e, 1);
            Some(ConstLoop { first, start: s, trips, ctr, left, var, head, exit })
        }
        _ => None,
    }
}

/// What one pass over `code[lo..hi]` retires (VM steps) and posts, when
/// the range is straight-line code and constant-trip loops of at most
/// [`NEST_TRIP`] iterations — the only shapes the body of a
/// `VecLoop` region takes. `None` for anything else. The ledger is
/// `None` as soon as the range holds a loop: innermost loops post under
/// their own vectorization class (`VecEnter`), which one scaled posting
/// cannot express, so a Simulated run leaves nests to the scalar tier.
fn pass_cost(code: &[BInstr], lo: usize, hi: usize) -> Option<(u32, Option<Ledger>)> {
    let mut steps = 0u32;
    let mut ledger = Some(Ledger::default());
    let mut pc = lo;
    while pc < hi {
        let ins = code.get(pc)?;
        steps = steps.checked_add(1)?;
        match (ins.posts(), ins) {
            (Posts::Dynamic, BInstr::VecEnter(_) | BInstr::VecLeave) => ledger = None,
            (Posts::Dynamic, BInstr::DoInitC { .. } | BInstr::DoInitK { .. }) => {
                let l = const_loop_at(code, pc).filter(|l| l.first >= lo && l.exit <= hi)?;
                let trip = u32::try_from(l.trips).ok().filter(|&t| u64::from(t) <= NEST_TRIP)?;
                let (body, _) = pass_cost(code, l.head + 1, l.exit - 1)?;
                // Head and increment retire every trip, the head once more
                // to leave; a `VecEnter` in front of the head retires once.
                steps = steps
                    .checked_add((l.head - pc - 1) as u32)?
                    .checked_add(trip.checked_mul(body.checked_add(2)?)?)?
                    .checked_add(1)?;
                ledger = None;
                pc = l.exit;
                continue;
            }
            (Posts::Dynamic, _) => return None,
            (Posts::Free, _) => {}
            (Posts::Op(k), _) => ledger.iter_mut().for_each(|l| l.op(k)),
            (Posts::Atomic, _) => ledger.iter_mut().for_each(|l| {
                l.atomics += 1;
                l.op(OpKind::Load);
                l.op(OpKind::Store);
            }),
            (Posts::Branch, _) => ledger.iter_mut().for_each(|l| l.branches += 1),
        }
        pc += 1;
    }
    Some((steps, ledger))
}

/// What one iteration of the scalar loop a `VecLoop` region shadows
/// retires and posts: [`VecDesc::iter_cost`], [`VecDesc::taken_cost`]
/// and [`VecDesc::iter_ledger`].
#[derive(Debug, PartialEq)]
pub(crate) struct RegionCost {
    pub iter: u32,
    pub taken: u32,
    pub ledger: Option<Ledger>,
}

/// Cost of one iteration of the scalar loop `code[head..exit]` =
/// `DoHead … DoIncr1` that a `VecLoop` region shadows. The body is
/// straight-line code and constant-trip nests, or a masked select's
/// `cond JumpIfFalse(incr) arm Jump(incr)`, whose `IF` is priced apart:
/// `iter` when it is not taken, `taken` more when it is, and no ledger
/// (so a Simulated run stays on the scalar head). `None` for any other
/// range. The compiler patches the costs into the descriptor and the
/// verifier recomputes them.
pub(crate) fn region_cost(code: &[BInstr], head: usize, exit: usize) -> Option<RegionCost> {
    if exit < head + 2 {
        return None;
    }
    let (lo, incr) = (head + 1, exit - 1);
    let (BInstr::DoHead { .. }, BInstr::DoIncr1 { .. }) = (code.get(head)?, code.get(incr)?) else {
        return None;
    };
    let to_incr = |pc: usize| matches!(code[pc], BInstr::JumpIfFalse(t) if t as usize == incr);
    let Some(jf) = (lo..incr).find(|&pc| to_incr(pc)) else {
        let (body, ledger) = pass_cost(code, lo, incr)?;
        return Some(RegionCost { iter: body.checked_add(2)?, taken: 0, ledger });
    };
    let jump = incr - 1;
    if jump <= jf + 1 || !matches!(code[jump], BInstr::Jump(t) if t as usize == incr) {
        return None;
    }
    let (cond, _) = pass_cost(code, lo, jf)?;
    let (arm, _) = pass_cost(code, jf + 1, jump)?;
    // Head, branch and increment retire every trip; the arm and its
    // jump out only when the IF is taken.
    Some(RegionCost { iter: cond.checked_add(3)?, taken: arm.checked_add(1)?, ledger: None })
}

/// A span's step constant and its fused region's costs: what
/// [`span_cost`] derives and the compiler patches into [`SpanDesc::fixed`],
/// [`VecDesc::iter_cost`] and [`VecDesc::exit_state`].
#[derive(Debug, PartialEq)]
pub(crate) struct SpanCost {
    pub fixed: i64,
    pub iter: u32,
    pub exit_state: Vec<(u32, i64)>,
}

/// A span's [`SpanCost`] from its original `loops` (first instruction,
/// `DoHead`) and its fused loop, `code[setup.0..=setup.1]` (bounds,
/// `DoInitC`, prep and the `VecLoop`): the region's iteration cost is
/// the loops' summed, its exit state theirs in order. `None` unless each
/// loop's instructions up to its head run once ([`straight_setup`]) and
/// its iteration costs a constant (no select).
pub(crate) fn span_cost(
    code: &[BInstr],
    loops: &[(u32, u32)],
    setup: (u32, u32),
) -> Option<SpanCost> {
    let fast = straight_setup(code, setup.0, setup.1.checked_add(1)?)?;
    // `SpanEnter` and the fused loop, and the head once more to leave,
    // which the region's entry reserves itself.
    let mut c = SpanCost { fixed: -2 - i64::from(fast), iter: 0, exit_state: Vec::new() };
    for &(start, head) in loops {
        let BInstr::DoHead { exit, .. } = *code.get(head as usize)? else { return None };
        let cost = region_cost(code, head as usize, exit as usize).filter(|r| r.taken == 0)?;
        c.fixed += i64::from(straight_setup(code, start, head)?) + 1;
        c.iter = c.iter.checked_add(cost.iter)?;
        c.exit_state.extend(nest_exit_state(code, head as usize, exit as usize));
    }
    Some(c)
}

/// How many instructions a loop's set-up `code[lo..hi]` — bounds and
/// `DoInitC`, or `DoInitK`, prep and a `VecLoop` last — retires: each
/// one once, when none but the `VecLoop` transfers control. `None`
/// otherwise.
pub(crate) fn straight_setup(code: &[BInstr], lo: u32, hi: u32) -> Option<u32> {
    let range = code.get(lo as usize..hi as usize)?;
    let last = range.len().checked_sub(1);
    let once = |(k, ins): (usize, &BInstr)| match ins {
        BInstr::DoInitC { .. } | BInstr::DoInitK { .. } => true,
        BInstr::VecLoop { .. } => Some(k) == last,
        ins => !matches!(ins.posts(), Posts::Dynamic),
    };
    range.iter().enumerate().all(once).then_some(hi - lo)
}

/// The values the constant-trip loops inside `code[lo..hi]` (a nest
/// region's scalar body) leave in their variable, counter and trip
/// slots, in code order: [`VecDesc::exit_state`]. A loop that never ran
/// leaves its variable as it was.
pub(crate) fn nest_exit_state(code: &[BInstr], lo: usize, hi: usize) -> Vec<(u32, i64)> {
    let mut out = Vec::new();
    for pc in lo..hi {
        if let Some(l) = const_loop_at(code, pc) {
            let at = |k| intrinsics::do_index(l.start, 1, k);
            out.extend(l.trips.checked_sub(1).map(|k| (l.var, at(k))));
            out.extend([(l.ctr, at(l.trips)), (l.left, 0)]);
        }
    }
    out
}

/// One OMP PARALLEL DO descriptor.
#[derive(Debug, Clone)]
pub struct OmpDesc {
    /// Loop variables, outermost first (collapse dims after dim 0).
    pub dims: Vec<(VSlot, ScalarTy)>,
    pub has_nt: bool,
    /// Loop schedule from the SCHEDULE clause (static block when absent).
    pub sched: omprt::Schedule,
    /// Body touches per-thread (SAVE / THREADPRIVATE) storage; dynamic
    /// and guided schedules are legalized to static for this region
    /// (see [`omprt::Schedule::legalize_for_per_thread`]).
    pub per_thread_access: bool,
    /// Frame-array slots of PRIVATE rank>0 vars (deep-cloned per thread).
    pub private_arrays: Vec<u32>,
    pub reductions: Vec<RedSpec>,
    /// Body PC range.
    pub body: (u32, u32),
}

#[derive(Debug, Clone, Copy)]
pub struct RedSpec {
    pub op: RedOp,
    pub vs: VSlot,
    pub ty: ScalarTy,
}

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct CallSpec {
    pub callee: u32,
    pub args: Vec<BArg>,
    /// Total stash entries consumed by `Elem` args.
    pub n_stash: u32,
    /// Callee function-result slot.
    pub ret: Option<(VSlot, ScalarTy)>,
}

/// One call argument: how to pop it and where to write it back.
#[derive(Debug, Clone, Copy)]
pub enum BArg {
    /// Value-result scalar: pops the value, writes back after the call.
    Scalar { src_vs: VSlot, src_v: u32, src_ty: ScalarTy, p: VSlot, pty: ScalarTy },
    /// Value-result array element (subscripts held in the stash).
    Elem { vs: VSlot, v: u32, nsubs: u8, want: ScalarTy, p: VSlot, pty: ScalarTy },
    /// Shared whole-array handle.
    Arr { p: u32 },
    /// By-value expression.
    Val { src_ty: ScalarTy, p: VSlot, pty: ScalarTy },
}

/// One PRINT list item (value types resolved statically).
#[derive(Debug, Clone)]
pub enum PItem {
    Str(String),
    Val(ScalarTy),
}

/// A fixed-shape frame array to instantiate per call: (slot, type, dims).
pub type FixedArray = (u32, ScalarTy, Vec<(i64, i64)>);

/// One inlined leaf call of a unit (an `InlineEnter`/`InlineExit`
/// pair): which unit's body it holds and which frame slots it resets.
/// Each bank range is `[lo, hi)`; the block's locals are one run of
/// the unit's variables ([`RStmt::Inlined`]), so each bank's share of
/// them is one run of slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineDesc {
    /// The inlined unit: its span in a profiled run, the fault context
    /// of the block's body.
    pub unit: u32,
    /// The block this one is nested in, an earlier descriptor, or
    /// [`NO_PC`]. A call as deep in the source program as this block ran
    /// one level below the unit per block around it, so the depth check
    /// counts them along this chain.
    pub outer: u32,
    pub i: (u32, u32),
    pub f: (u32, u32),
    pub b: (u32, u32),
    pub a: (u32, u32),
}

/// A fused span ([`RStmt::Span`]) as the optimized build lays it out:
///
/// ```text
/// SpanEnter   S   DoInitK prep VecLoop   loop 1  S1  loop 2 … loop k   end:
/// ```
///
/// (A fused loop whose bounds are not `i32` literals has `bounds
/// DoInitC` for `DoInitK`; each prep is one `SetI`.)
///
/// The fused loop is its region alone. Its `VecLoop` commits the span
/// and jumps to `end`, or falls through to the original statements,
/// which run as they would without the span and leave at `end` too.
/// The region's costs are the original loops' ([`span_cost`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDesc {
    /// `[lo, hi)`: the span's S as `fast` runs it, every S of the
    /// original statements in order. The fused loop's bounds, `DoInitC`
    /// and prep follow, up to its `VecLoop` at `fused`; the original
    /// statements start at `fused + 1`.
    pub s: (u32, u32),
    pub fused: u32,
    /// Per original loop, in order: its first instruction and its
    /// `DoHead`. Each S of the original statements lies between one
    /// loop's exit and the next loop's first instruction.
    pub loops: Vec<(u32, u32)>,
    /// What the original statements retire besides their S and the
    /// loops' iterations, less what `fast` retires outside S (`SpanEnter`
    /// and `[s.1, fused]`, the `VecLoop` included) and the head once more
    /// to leave that the region's entry reserves: each loop's
    /// instructions up to its head, and its head once more to leave. A
    /// committed span has retired what the original statements would
    /// have: the steps so far, `fixed`, and the region's `trip x
    /// iter_cost + 1`.
    pub fixed: i64,
}

/// A compiled unit.
#[derive(Debug, Clone)]
pub struct BUnit {
    pub code: Vec<BInstr>,
    /// Per-`VarIdx` resolved slot.
    pub vslots: Vec<VSlot>,
    pub ni: u32,
    pub nf: u32,
    pub nb: u32,
    pub na: u32,
    /// Fixed-shape frame arrays to instantiate per call.
    pub fixed_arrays: Vec<FixedArray>,
    pub calls: Vec<CallSpec>,
    pub omps: Vec<OmpDesc>,
    pub prints: Vec<Vec<PItem>>,
    pub sdims: Vec<SDims>,
    /// Subscript table: the operand runs `LoadElemS`/`StoreElemS` name.
    pub subops: Vec<SubOp>,
    /// Affine table: the right sides `SetI` names.
    pub affine: Vec<Affine>,
    /// Error/CRITICAL-name/STOP message string table.
    pub msgs: Vec<String>,
    /// Function result slot.
    pub result: Option<(VSlot, ScalarTy)>,
    /// Source unit index (for names in diagnostics).
    pub unit: u32,
    /// PC→line debug table: `(first_pc, source_line)`, sorted by pc.
    /// Instructions between two entries belong to the earlier one.
    pub lines: Vec<(u32, u32)>,
    /// Serial DO-loop sites, sorted by `init_pc` (profiling side table).
    pub loops: Vec<BLoopSite>,
    /// Vector superinstruction descriptors.
    pub vecs: Vec<VecDesc>,
    /// Serial DO loops that got no `VecLoop`, as `(DO line, reason)` in
    /// source order. Loops inside a region are covered by it and appear
    /// in neither table.
    pub vec_refusals: Vec<(u32, VecRefusal)>,
    /// Inlined leaf calls, indexed by `InlineEnter`/`InlineExit`.
    pub inlines: Vec<InlineDesc>,
    /// PC→unit table, `(first_pc, unit)` sorted by pc, read like
    /// `lines`: the unit whose source an instruction was compiled from,
    /// where it is not `unit` (an inlined body). Empty without inlining.
    pub units: Vec<(u32, u32)>,
    /// Fused spans, indexed by `SpanEnter`.
    pub spans: Vec<SpanDesc>,
}

/// The entry of a sorted `(first_pc, value)` table covering `pc`.
fn covering<T: Copy>(table: &[(u32, T)], pc: u32) -> Option<T> {
    match table.binary_search_by_key(&pc, |&(p, _)| p) {
        Ok(i) => Some(table[i].1),
        Err(0) => None,
        Err(i) => Some(table[i - 1].1),
    }
}

impl BUnit {
    /// The source line an instruction was compiled from, if known.
    pub fn line_for_pc(&self, pc: u32) -> Option<u32> {
        covering(&self.lines, pc)
    }

    /// The unit whose source an instruction was compiled from: `unit`,
    /// or the leaf whose inlined body holds it.
    pub fn unit_for_pc(&self, pc: u32) -> u32 {
        covering(&self.units, pc).unwrap_or(self.unit)
    }

    /// The loop site whose `DoInitC`/`DoInit` sits at exactly `init_pc`.
    pub fn loop_site_at(&self, init_pc: u32) -> Option<&BLoopSite> {
        self.loops
            .binary_search_by_key(&init_pc, |s| s.init_pc)
            .ok()
            .map(|i| &self.loops[i])
    }
}

/// A serial DO loop's static extent, recorded for the profiler: the
/// `DoInitC`/`DoInit` pc identifies the loop on entry, `end_pc` is the
/// first instruction after the loop (where EXIT patches land), and
/// `line` is the DO statement's source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BLoopSite {
    pub init_pc: u32,
    pub end_pc: u32,
    pub line: u32,
}

// ---------------------------------------------------------------------
// Vector superinstructions
// ---------------------------------------------------------------------

/// "No invariant slot" marker for [`VecSub::inv`] / [`VecOp::SplatI`].
pub const NO_SLOT: u32 = u32::MAX;

/// Lane count of one vector chunk. The executor processes the iteration
/// space in runs of this many elements so the per-op inner loops stay in
/// cache and rustc/LLVM can autovectorize them.
pub const VEC_CHUNK: usize = 64;

/// Caps keeping descriptors (and the executor's scratch) small.
pub const VEC_MAX_DEPTH: u32 = 16;
pub const VEC_MAX_ACCESSES: usize = 32;

/// A loop-invariant INTEGER element load that a region's subscripts (or
/// integer operands) depend on — `c2n(2, cidx)` in `qn(m, c2n(2, cidx))`.
/// Unlike prep code it can fault, so no bytecode evaluates it: the
/// `VecLoop` entry reads it without trapping into the hidden i-slot
/// `slot`, and a failed read (unallocated, out of range, not INTEGER)
/// fails the entry guard, leaving the fault to the scalar loop at the
/// iteration and line it belongs to. Reading it once, early, is exact
/// because a region stores to REAL arrays only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedLoad {
    pub slot: u32,
    pub vs: VSlot,
    /// Source var index, for diagnostics.
    pub v: u32,
    /// `Const` and `Slot` operands only; a `Slot` may be an earlier
    /// guarded load's.
    pub subs: Vec<SubOp>,
}

/// One affine subscript of a vector access: at iteration value `i` the
/// subscript is `coeff*i + add + frame.i[inv]` (wrapping i64 arithmetic,
/// exactly the scalar tier's; `inv == NO_SLOT` contributes 0). `inv`
/// points either at the loop-invariant variable's own frame slot or at a
/// hidden slot filled by prep code emitted between `DoInitC` and
/// `VecLoop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VecSub {
    pub coeff: i64,
    pub add: i64,
    pub inv: u32,
}

/// One array stream of a vector loop. Interned: one entry per distinct
/// `(slot, subscripts)` pair, so identical-subscript reads and writes of
/// the same array share an entry (the legality rule that makes chunked
/// statement-at-a-time execution exact).
#[derive(Debug, Clone)]
pub struct VecAccess {
    pub vs: VSlot,
    /// Source var index, for diagnostics.
    pub v: u32,
    /// Element type, which the entry guard requires of the array: REAL
    /// for a lane program's streams, INTEGER for a mask's.
    pub ty: ScalarTy,
    pub subs: Vec<VecSub>,
    pub write: bool,
    /// `(base0, stride)` when lowering proved this stream: its slot has a
    /// compile-time shape ([`static_shape`]) of its type and no subscript
    /// has an invariant slot. The element offset at iteration `i` is then
    /// `base0 + stride*i`, in bounds for every `i` in
    /// [`VecDesc::window`], so the entry neither checks the handle's
    /// shape nor the stream's endpoints ([`prove_streams`]).
    pub proven: Option<StreamProof>,
}

/// A proven stream's `(base0, stride)` ([`VecAccess::proven`]).
pub type StreamProof = (i64, i64);

/// A range `(lo, hi)` of the loop variable ([`VecDesc::window`]).
pub type Window = (i64, i64);

impl VecAccess {
    /// `(base0, stride)` of this access over an array shaped `dims`, and
    /// the range of the loop variable over which every subscript lies in
    /// its dimension ([`EMPTY_WINDOW`] when there is none). `None` when
    /// a subscript has an invariant slot, the rank differs, or the
    /// offsets leave `i64`.
    fn prove(&self, dims: &[(i64, i64)]) -> Option<(StreamProof, Window)> {
        if dims.len() != self.subs.len() || self.subs.iter().any(|s| s.inv != NO_SLOT) {
            return None;
        }
        // In i128, where a difference of two i64s cannot overflow; the
        // offsets' products and sums are checked.
        let floor = |x: i128, d: i128| x.div_euclid(d);
        let ceil = |x: i128, d: i128| -(-x).div_euclid(d);
        let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX));
        let (mut base, mut stride, mut step) = (0i128, 0i128, 1i128);
        for (s, &(dlo, dhi)) in self.subs.iter().zip(dims) {
            let (c, a) = (i128::from(s.coeff), i128::from(s.add));
            let (dlo, dhi) = (i128::from(dlo), i128::from(dhi));
            // The `i` with `dlo <= c*i + a <= dhi`: an interval, because
            // the subscript is affine in `i`.
            let (l, h) = match c.signum() {
                0 if (dlo..=dhi).contains(&a) => (lo, hi), // every `i`
                0 => (1, 0),
                1 => (ceil(dlo - a, c), floor(dhi - a, c)),
                _ => (ceil(a - dhi, -c), floor(a - dlo, -c)),
            };
            (lo, hi) = (lo.max(l), hi.min(h));
            base = base.checked_add((a - dlo).checked_mul(step)?)?;
            stride = stride.checked_add(c.checked_mul(step)?)?;
            step = step.checked_mul((dhi - dlo + 1).max(0))?;
        }
        let fit = |x: i128| i64::try_from(x).ok();
        // `lo` and `hi` start at i64's ends and only move inwards.
        let window = if lo > hi { EMPTY_WINDOW } else { (fit(lo)?, fit(hi)?) };
        Some(((fit(base)?, fit(stride)?), window))
    }

    /// Two subscript patterns of one array that can never name the same
    /// cell: in some position both are literals (`coeff == 0`, no
    /// invariant slot) and the literals differ — `g(1, i)` and `g(2, j)`
    /// for every `i`, `j`. Column-major addressing of in-bounds
    /// subscripts is injective, so their flat offsets differ too.
    pub fn disjoint(&self, other: &VecAccess) -> bool {
        let literal = |s: &VecSub| s.coeff == 0 && s.inv == NO_SLOT;
        let apart = |(a, b): (&VecSub, &VecSub)| literal(a) && literal(b) && a.add != b.add;
        self.subs.len() == other.subs.len() && self.subs.iter().zip(&other.subs).any(apart)
    }
}

/// Postfix micro-op of a vector statement program. Lane vectors live in
/// a depth-indexed f64 scratch; one inner loop over the chunk per op.
#[derive(Debug, Clone, Copy)]
pub enum VecOp {
    /// Gather the access's lanes for the current chunk.
    Load(u32),
    /// Broadcast a constant.
    Splat(f64),
    /// Broadcast a frame f64 scalar.
    SplatF(u32),
    /// Broadcast a global scalar cell (declared REAL, so bits are f64).
    SplatG(u32),
    /// Affine integer as f64: `(coeff*i + add + frame.i[inv]) as f64`.
    SplatI { coeff: i64, add: i64, inv: u32 },
    Add,
    Sub,
    Mul,
    Div,
    /// `x.powf(y)` — the scalar tier's `F ** F` (and its `F ** I` rule
    /// for constant exponents with `|e| > 64`, via a `Splat`).
    Pow,
    /// `x.powi(e)` — the scalar tier's `F ** I` small-constant-exponent
    /// rule, decided at compile time. The lane rungs multiply 2, 3 and
    /// 4 out inline (`intrinsics::powi_lane`).
    PowI(i32),
    Neg,
    /// Per-element intrinsic: the lane rungs run its typed kernel
    /// (`Intr::with_kernel`), the functions [`Intr::eval_f`] calls.
    Intr { f: Intr, argc: u8 },
    /// Scatter the top lanes into the access (map statements only; last
    /// op of its statement).
    Store(u32),
    /// The accumulator's running value: at each lane, what the
    /// accumulator holds once that lane's iteration folded its term in
    /// ([`VecRed::stmt`]). Only statements after the accumulator's read
    /// it — a running sum.
    Running,
}

/// Reduction flavor of a vector loop's accumulator statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecRedOp {
    Add,
    Mul,
}

/// The accumulator statement `acc = acc op t` (or `t op acc` when
/// `acc_left` is false): its program leaves `t`'s lanes, which are
/// folded sequentially in iteration order, for bit-exactness, right
/// after it. Statements after it may read the running value
/// ([`VecOp::Running`]); with none, the loop is a plain reduction.
#[derive(Debug, Clone, Copy)]
pub struct VecRed {
    /// Accumulator slot (`F` or `GlobS`).
    pub vs: VSlot,
    pub op: VecRedOp,
    pub acc_left: bool,
    /// Index of the accumulator statement in [`VecDesc::stmts`].
    pub stmt: u32,
}

/// Postfix micro-op of a masked select's mask program. Lanes are i64,
/// in a depth-indexed scratch like [`VecOp`]'s; LOGICAL lanes are 0/1,
/// the scalar tier's bit convention.
#[derive(Debug, Clone, Copy)]
pub enum MaskOp {
    /// Gather an INTEGER access's lanes.
    Load(u32),
    /// Affine integer lanes `coeff*i + add + frame.i[inv]`: a constant,
    /// the loop variable, a frame INTEGER scalar or a guarded load.
    Affine(VecSub),
    /// `CmpI`: two INTEGER lane vectors to one LOGICAL.
    Cmp(Cmp),
    And,
    Or,
    Not,
}

/// A masked select reduction, the body `IF (c) acc = MAX(acc, t)` (or
/// `MIN`, either argument order — INTEGER `MAX`/`MIN` commute): the
/// lanes whose mask is true fold their `t` into `acc` in iteration
/// order through [`Intr::eval_i`], the scalar tier's own `IntrI`.
#[derive(Debug, Clone)]
pub struct VecSel {
    /// Accumulator: a frame INTEGER slot neither `c` nor `t` reads.
    pub acc: u32,
    /// `Intr::Max` or `Intr::Min`.
    pub f: Intr,
    /// `t`, affine in the loop variable.
    pub term: VecSub,
    /// `c`; leaves one LOGICAL lane vector.
    pub mask: Vec<MaskOp>,
}

/// A vectorized loop body: interned accesses, one postfix program per
/// statement, one of which may be an accumulator's — or, with no
/// statements, a masked select.
#[derive(Debug, Clone)]
pub struct VecDesc {
    pub accesses: Vec<VecAccess>,
    pub stmts: Vec<Vec<VecOp>>,
    pub red: Option<VecRed>,
    pub sel: Option<VecSel>,
    /// Invariant element loads the entry performs, in dependence order.
    pub guarded: Vec<GuardedLoad>,
    /// The access pairs the entry guard checks for runtime storage
    /// aliasing — exactly [`VecDesc::write_pairs`] of `accesses`.
    pub alias_pairs: Vec<(u32, u32)>,
    /// The loop-variable range over which every proven access
    /// ([`VecAccess::proven`]) is in bounds: one entry test,
    /// `window.0 <= lo && hi <= window.1`, stands for all their bounds
    /// checks. [`FULL_WINDOW`] when none is proven, [`EMPTY_WINDOW`] when
    /// one never is (a literal subscript outside its dimension).
    pub window: Window,
    /// The distinct global cells the accesses and guarded loads name, in
    /// first-use order: what the entry fetches into the VM's handle cache
    /// ([`global_cells`]).
    pub globals: Vec<u32>,
    /// Max operand depth over all statement programs (or the mask).
    pub max_depth: u32,
    /// Scalar-tier instructions one iteration retires (`DoHead` through
    /// `DoIncr1`, inner constant-trip loops counted trip by trip), used
    /// by the VM to pre-reserve the step budget so a run that would
    /// exhaust its budget falls back to the scalar head and trips
    /// there, exactly as before. Patched after loop emission. For a
    /// masked select it is the iteration whose `IF` is not taken.
    pub iter_cost: u32,
    /// What a taken `IF` retires on top of `iter_cost` (0 without a
    /// select): the entry evaluates the mask first and reserves
    /// `n x iter_cost + taken x taken_cost`. Patched like `iter_cost`.
    pub taken_cost: u32,
    /// What the scalar loop this descriptor shadows posts to the cost
    /// trace per iteration, so a Simulated run can post a whole
    /// vectorized trip in O(1). `None` (the body is a nest, see
    /// `region_cost`) keeps such a run on the scalar head. Patched
    /// after loop emission like `iter_cost`; the verifier recomputes
    /// both.
    pub iter_ledger: Option<Ledger>,
    /// `(i-slot, value)` stores a committed entry makes on top of the
    /// outer DO state: the variable, counter and trip slot of every
    /// unrolled inner loop as the scalar nest leaves them. Read off the
    /// emitted scalar loop like the two fields above.
    pub exit_state: Vec<(u32, i64)>,
    /// DO statement source line.
    pub line: u32,
}

impl VecDesc {
    /// The access pairs `(i, j)`, `i < j`, the runtime alias guard must
    /// compare (the content of [`VecDesc::alias_pairs`]): those with a
    /// write, less the ones proven apart at compile time.
    ///
    /// * Two [`VecAccess::disjoint`] patterns of one slot never meet.
    /// * Two different slots never share storage when one of them is a
    ///   frame array that is not a dummy (`dummies` lists the unit's
    ///   array dummy slots, `dummy_arrays`). Such a slot only ever
    ///   holds an array of its own: a fresh or reset fixed local, a
    ///   fresh `ALLOCATE`d one, or a PRIVATE deep copy. Calls and entry
    ///   arguments bind dummy slots only, which the verifier checks.
    /// * Two different global cells never share storage either. Each
    ///   cell gets an array of its own at start-up, on `ALLOCATE` and on
    ///   `reset_globals`; no call or entry argument binds a global slot;
    ///   and `EQUIVALENCE` renames its names onto one cell, which is one
    ///   slot and falls under the first rule.
    ///
    /// Anything else — a dummy against a dummy or a global, which the
    /// caller may have bound to one array — keeps its runtime check.
    pub fn write_pairs(accesses: &[VecAccess], dummies: &[u32]) -> Vec<(u32, u32)> {
        let owned = |vs: VSlot| matches!(vs, VSlot::A(s) if !dummies.contains(&s));
        let global = |vs: VSlot| matches!(vs, VSlot::GlobA(_));
        let mut pairs = Vec::new();
        for (i, a) in accesses.iter().enumerate() {
            for (j, b) in accesses.iter().enumerate().skip(i + 1) {
                let apart = if a.vs == b.vs {
                    a.disjoint(b)
                } else {
                    owned(a.vs) || owned(b.vs) || (global(a.vs) && global(b.vs))
                };
                if (a.write || b.write) && !apart {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs
    }
}

/// [`VecDesc::window`] when no access is proven: every range passes.
pub const FULL_WINDOW: Window = (i64::MIN, i64::MAX);
/// [`VecDesc::window`] when some proven access is in bounds at no
/// iteration: no range passes, so every entry runs the scalar loop.
pub const EMPTY_WINDOW: Window = (1, 0);

/// A global cell whose array exists from start-up with its declared
/// dims: built with them at start-up and on `reset_globals`, and never
/// `ALLOCATE`d or `DEALLOCATE`d (sema refuses both, the verifier too).
pub(crate) fn fixed_global(g: &GlobalDecl) -> bool {
    !g.allocatable && !g.dims.is_empty()
}

/// The compile-time type and shape of array slot `vs`, when it has one:
/// a frame slot listed in `fixed` (instantiated per call, never
/// allocated, freed or bound by a call or entry argument — the verifier
/// checks all three) or a [`fixed_global`] cell.
pub(crate) fn static_shape<'a>(
    vs: VSlot,
    fixed: &'a [FixedArray],
    globals: &'a [GlobalDecl],
) -> Option<(ScalarTy, &'a [(i64, i64)])> {
    match vs {
        VSlot::A(s) => fixed.iter().find(|f| f.0 == s).map(|(_, ty, dims)| (*ty, dims.as_slice())),
        VSlot::GlobA(c) => {
            let g = globals.get(c as usize).filter(|g| fixed_global(g))?;
            Some((g.ty, g.dims.as_slice()))
        }
        _ => None,
    }
}

/// What lowering proves of the entry guards of `accesses`, with `fixed`
/// the unit's fixed frame arrays: each access's
/// [`VecAccess::proven`], and the [`VecDesc::window`] their ranges
/// intersect to. An access is proven when [`static_shape`] knows its
/// slot, of the access's type, and no subscript has an invariant slot.
/// The window is exact: an affine subscript is in bounds on an interval
/// of the loop variable, so `[lo, hi]` lies in the window iff both
/// endpoints do. The verifier recomputes both.
pub(crate) fn prove_streams(
    accesses: &[VecAccess],
    fixed: &[FixedArray],
    globals: &[GlobalDecl],
) -> (Vec<Option<StreamProof>>, Window) {
    let mut window = FULL_WINDOW;
    let proofs = accesses
        .iter()
        .map(|a| {
            let (_, dims) = static_shape(a.vs, fixed, globals).filter(|s| s.0 == a.ty)?;
            let (proof, (lo, hi)) = a.prove(dims)?;
            window = (window.0.max(lo), window.1.min(hi));
            Some(proof)
        })
        .collect();
    if window.0 > window.1 {
        window = EMPTY_WINDOW;
    }
    (proofs, window)
}

/// The distinct global cells `accesses` and `guarded` name, in first-use
/// order: [`VecDesc::globals`].
pub(crate) fn global_cells(accesses: &[VecAccess], guarded: &[GuardedLoad]) -> Vec<u32> {
    let mut cells = Vec::new();
    for vs in accesses.iter().map(|a| a.vs).chain(guarded.iter().map(|g| g.vs)) {
        if let VSlot::GlobA(c) | VSlot::GlobS(c) = vs {
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
    }
    cells
}

/// The frame array slots of `unit`'s dummies, from its slot table: the
/// only array slots a call or an entry argument binds.
pub(crate) fn dummy_arrays(unit: &RUnit, vslots: &[VSlot]) -> Vec<u32> {
    let slot = |&p: &VarIdx| match vslots.get(p) {
        Some(&VSlot::A(s)) => Some(s),
        _ => None,
    };
    unit.params.iter().filter_map(slot).collect()
}

/// Per-unit slot assignment (phase 1; needed across units for calls).
struct SlotTable {
    vslots: Vec<VSlot>,
    ni: u32,
    nf: u32,
    nb: u32,
    na: u32,
    fixed_arrays: Vec<FixedArray>,
    result: Option<(VSlot, ScalarTy)>,
}

fn assign_slots(unit: &RUnit) -> SlotTable {
    let (mut ni, mut nf, mut nb, mut na) = (0u32, 0u32, 0u32, 0u32);
    let mut fixed = Vec::new();
    let mut vslots = Vec::with_capacity(unit.vars.len());
    for info in &unit.vars {
        let vs = match info.place {
            Place::Global(cell) => {
                if info.rank > 0 {
                    VSlot::GlobA(cell as u32)
                } else {
                    VSlot::GlobS(cell as u32)
                }
            }
            Place::Frame(_) => {
                if info.rank > 0 {
                    let s = na;
                    na += 1;
                    if !info.allocatable && !info.is_param {
                        fixed.push((s, info.ty, info.dims.clone()));
                    }
                    VSlot::A(s)
                } else {
                    match info.ty {
                        ScalarTy::I => {
                            ni += 1;
                            VSlot::I(ni - 1)
                        }
                        ScalarTy::F => {
                            nf += 1;
                            VSlot::F(nf - 1)
                        }
                        ScalarTy::B => {
                            nb += 1;
                            VSlot::B(nb - 1)
                        }
                    }
                }
            }
        };
        vslots.push(vs);
    }
    let result = unit.result.map(|(rv, rty)| (vslots[rv], rty));
    SlotTable { vslots, ni, nf, nb, na, fixed_arrays: fixed, result }
}

/// What [`UnitCompiler::emit_loop_head`] laid out: the loop's hidden
/// counter, trip and (unfused heads only) step slots, its `DoInitC` or
/// `DoInit`, its `VecLoop` if it is a region, and its `DO` line.
struct LoopHead {
    ctr: u32,
    left: u32,
    steps: u32,
    init: usize,
    vec_loop: Option<usize>,
    line: u32,
}

/// A serial `DO` loop's vector analysis, made once: the plan — its
/// hidden i-slots numbered from `base`, `taken` of them — or why the
/// loop stays scalar. Emission takes a loop's probe instead of analysing
/// it again ([`VecPlan::relocate`] moves the slots to where it is).
struct Probe {
    plan: Result<VecPlan, VecRefusal>,
    base: u32,
    taken: u32,
}

/// Compiles every unit of `prog` as it is. `traced = true` produces the
/// cost-exact variant for `ExecMode::Simulated`.
pub fn compile_program(prog: &RProgram, traced: bool) -> Vec<BUnit> {
    let tables: Vec<SlotTable> = prog.units.iter().map(|u| assign_slots(u)).collect();
    let mut bunits: Vec<BUnit> = prog
        .units
        .iter()
        .enumerate()
        .map(|(u, unit)| UnitCompiler::new(prog, unit, u, &tables[u], &tables, traced).compile())
        .collect();
    // Call sites read every unit's table; once all are lowered, each
    // unit takes its own.
    for (bu, t) in bunits.iter_mut().zip(tables) {
        (bu.vslots, bu.fixed_arrays) = (t.vslots, t.fixed_arrays);
    }
    bunits
}

// ---------------------------------------------------------------------
// The per-unit compiler
// ---------------------------------------------------------------------

/// Pending jump-target patch inside a loop context.
enum Patch {
    /// `Jump` / `JumpIfFalse` / `DoHead` exit operand at this index.
    Target(usize),
    CritExit(usize),
    CritCycle(usize),
}

/// Flow-resolution context: either a flat loop at this nesting level or
/// a boundary (OMP body / CRITICAL body) flow must cross dynamically.
enum Ctx {
    Loop { exit: Vec<Patch>, cycle: Vec<Patch> },
    Boundary,
}

/// Simulates a postfix program's operand-stack effect, given each op's
/// `(pops, pushes)`. Returns `(final_depth, max_depth)`, or `None` on
/// underflow.
fn stack_effect<T>(ops: &[T], arity: impl Fn(&T) -> (i64, i64)) -> Option<(u32, u32)> {
    let mut d: i64 = 0;
    let mut mx: i64 = 0;
    for op in ops {
        let (pop, push) = arity(op);
        d -= pop;
        if d < 0 {
            return None;
        }
        d += push;
        mx = mx.max(d);
    }
    Some((d as u32, mx as u32))
}

/// `stack_effect` of a vector statement program. Shared with the
/// bytecode verifier.
pub fn vec_stack_effect(ops: &[VecOp]) -> Option<(u32, u32)> {
    stack_effect(ops, |op| match op {
        VecOp::Load(_)
        | VecOp::Splat(_)
        | VecOp::SplatF(_)
        | VecOp::SplatG(_)
        | VecOp::SplatI { .. }
        | VecOp::Running => (0, 1),
        VecOp::Add | VecOp::Sub | VecOp::Mul | VecOp::Div | VecOp::Pow => (2, 1),
        VecOp::PowI(_) | VecOp::Neg => (1, 1),
        VecOp::Intr { argc, .. } => (i64::from(*argc), 1),
        VecOp::Store(_) => (1, 0),
    })
}

/// [`stack_effect`] of a select's mask program.
pub(crate) fn mask_stack_effect(ops: &[MaskOp]) -> Option<(u32, u32)> {
    stack_effect(ops, |op| match op {
        MaskOp::Load(_) | MaskOp::Affine(_) => (0, 1),
        MaskOp::Cmp(_) | MaskOp::And | MaskOp::Or => (2, 1),
        MaskOp::Not => (1, 1),
    })
}

struct UnitCompiler<'a> {
    prog: &'a RProgram,
    unit: &'a RUnit,
    unit_idx: usize,
    /// The unit's own slot table.
    table: &'a SlotTable,
    /// Every unit's, for call sites.
    tables: &'a [SlotTable],
    traced: bool,
    code: Vec<BInstr>,
    calls: Vec<CallSpec>,
    omps: Vec<OmpDesc>,
    prints: Vec<Vec<PItem>>,
    sdims: Vec<SDims>,
    sdim_of: Vec<Option<u32>>,
    subops: Vec<SubOp>,
    affine: Vec<Affine>,
    msgs: Vec<String>,
    ctx: Vec<Ctx>,
    /// Extra hidden i-slots for loop counters/bounds.
    ni_extra: u32,
    /// PC→line debug table under construction.
    lines: Vec<(u32, u32)>,
    /// Last line recorded in `lines` (u32::MAX = none yet).
    last_line: u32,
    /// Serial DO-loop sites under construction (unordered).
    loops: Vec<BLoopSite>,
    /// Vector descriptors under construction.
    vecs: Vec<VecDesc>,
    vec_refusals: Vec<(u32, VecRefusal)>,
    /// How many `VecLoop` regions enclose the statement being emitted:
    /// loops in there belong to the region and get none of their own.
    region_depth: u32,
    /// Inlined-call descriptors and the PC→unit table under construction.
    inlines: Vec<InlineDesc>,
    units: Vec<(u32, u32)>,
    /// The inlined blocks enclosing the statement being emitted.
    inline_open: Vec<u32>,
    /// Fused-span descriptors under construction.
    spans: Vec<SpanDesc>,
    /// The `DoHead` of the last serial `DO` emitted.
    last_head: u32,
}

impl<'a> UnitCompiler<'a> {
    fn new(
        prog: &'a RProgram,
        unit: &'a RUnit,
        unit_idx: usize,
        table: &'a SlotTable,
        tables: &'a [SlotTable],
        traced: bool,
    ) -> Self {
        // Static-dims table: fixed-shape frame locals only (their handle
        // provably matches the declaration — fresh per call).
        let t = table;
        let mut sdims = Vec::new();
        let mut sdim_of = vec![None; unit.vars.len()];
        for (v, info) in unit.vars.iter().enumerate() {
            let VSlot::A(s) = t.vslots[v] else { continue };
            match t.fixed_arrays.iter().find(|f| f.0 == s) {
                Some((_, _, dims)) if dims.len() == info.rank => {
                    sdim_of[v] = Some(sdims.len() as u32);
                    sdims.push(SDims::of(dims));
                }
                _ => {}
            }
        }
        UnitCompiler {
            prog,
            unit,
            unit_idx,
            table,
            tables,
            traced,
            // Past the first few doublings: most units lower to dozens
            // of instructions or more.
            code: Vec::with_capacity(64),
            calls: Vec::new(),
            omps: Vec::new(),
            prints: Vec::new(),
            sdims,
            sdim_of,
            subops: Vec::new(),
            affine: Vec::new(),
            msgs: Vec::new(),
            ctx: Vec::new(),
            ni_extra: table.ni,
            lines: Vec::new(),
            last_line: u32::MAX,
            loops: Vec::new(),
            vecs: Vec::new(),
            vec_refusals: Vec::new(),
            region_depth: 0,
            inlines: Vec::new(),
            units: Vec::new(),
            inline_open: Vec::new(),
            spans: Vec::new(),
            last_head: 0,
        }
    }

    fn compile(mut self) -> BUnit {
        let body = &self.unit.body;
        self.emit_block(body);
        self.loops.sort_by_key(|s| s.init_pc);
        let t = self.table;
        BUnit {
            code: self.code,
            // Filled by `compile_program` once every unit is lowered.
            vslots: Vec::new(),
            ni: self.ni_extra,
            nf: t.nf,
            nb: t.nb,
            na: t.na,
            fixed_arrays: Vec::new(),
            calls: self.calls,
            omps: self.omps,
            prints: self.prints,
            sdims: self.sdims,
            subops: self.subops,
            affine: self.affine,
            msgs: self.msgs,
            result: t.result,
            unit: self.unit_idx as u32,
            lines: self.lines,
            loops: self.loops,
            vecs: self.vecs,
            vec_refusals: self.vec_refusals,
            inlines: self.inlines,
            units: self.units,
            spans: self.spans,
        }
    }

    // ---------- small helpers ----------

    fn vslot(&self, v: VarIdx) -> VSlot {
        self.table.vslots[v]
    }

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn push(&mut self, i: BInstr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn msg(&mut self, s: String) -> u32 {
        if let Some(i) = self.msgs.iter().position(|m| m == &s) {
            return i as u32;
        }
        self.msgs.push(s);
        self.msgs.len() as u32 - 1
    }

    fn hidden_i(&mut self) -> u32 {
        self.ni_extra += 1;
        self.ni_extra - 1
    }

    /// Static type of an expression (mirrors sema's typing).
    fn ty_of(&self, e: &RExpr) -> ScalarTy {
        match e {
            RExpr::ConstI(_) => ScalarTy::I,
            RExpr::ConstF(_) => ScalarTy::F,
            RExpr::ConstB(_) => ScalarTy::B,
            RExpr::LoadScalar(v) | RExpr::LoadElem { v, .. } => self.unit.vars[*v].ty,
            RExpr::Bin { op, ty, .. } => match op {
                Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge | Bin::And | Bin::Or => {
                    ScalarTy::B
                }
                _ => *ty,
            },
            RExpr::Neg(x) => self.ty_of(x),
            RExpr::Not(_) => ScalarTy::B,
            RExpr::ToF(_) => ScalarTy::F,
            RExpr::ToI(_) => ScalarTy::I,
            RExpr::Intrinsic { f, args } if self.intr_int_flavor(*f, args) => ScalarTy::I,
            RExpr::Intrinsic { f, .. } => f.result_ty(ScalarTy::F),
            RExpr::ArrReduce { f, v } => {
                if *f == ArrRed::Size {
                    ScalarTy::I
                } else {
                    self.unit.vars[*v].ty
                }
            }
            RExpr::AllocatedQ(_) => ScalarTy::B,
            RExpr::CallFn { ret, .. } => *ret,
        }
    }

    fn intr_int_flavor(&self, f: Intr, args: &[RExpr]) -> bool {
        f.int_flavor(args.iter().all(|a| self.ty_of(a) == ScalarTy::I))
    }

    /// Conversion instructions between static types (`Val::as_*`).
    fn emit_cvt(&mut self, from: ScalarTy, to: ScalarTy) {
        use ScalarTy::*;
        match (from, to) {
            (I, F) | (B, F) => {
                // B bits are 0/1, a valid i64, so B→F shares CvtIF.
                self.push(BInstr::CvtIF);
            }
            (F, I) => {
                self.push(BInstr::CvtFI);
            }
            (I, B) => {
                self.push(BInstr::CvtIB);
            }
            (F, B) => {
                self.push(BInstr::CvtFB);
            }
            // B→I: bits already 0/1 two's-complement; identical.
            _ => {}
        }
    }

    /// Constant folding at emission. Traced builds fold literals only:
    /// a folded operator is an operation the interpreter counts.
    fn fold(&self, e: &RExpr) -> Option<Val> {
        let literal = matches!(e, RExpr::ConstI(_) | RExpr::ConstF(_) | RExpr::ConstB(_));
        if self.traced && !literal {
            return None;
        }
        self.const_eval(e)
    }

    /// Compile-time constant evaluation through the operator table
    /// ([`crate::intrinsics`]), the one the run-time tiers call. `None`
    /// keeps the run-time evaluation: the expression reads state, or its
    /// operation fails (integer division by zero, arithmetic on or
    /// negation of a LOGICAL) and keeps its run-time error. The vector
    /// analysis calls this directly in both builds: a lane program
    /// computes the same values however its constants were obtained, and
    /// the cost of a vectorized trip comes from the scalar body's ledger.
    fn const_eval(&self, e: &RExpr) -> Option<Val> {
        match e {
            RExpr::ConstI(v) => Some(Val::I(*v)),
            RExpr::ConstF(v) => Some(Val::F(*v)),
            RExpr::ConstB(v) => Some(Val::B(*v)),
            RExpr::Bin { op, ty, l, r } => {
                intrinsics::bin(*op, *ty, self.const_eval(l)?, self.const_eval(r)?).ok()
            }
            RExpr::Neg(x) => intrinsics::neg(self.const_eval(x)?).ok(),
            RExpr::Not(x) => Some(intrinsics::not(self.const_eval(x)?)),
            RExpr::ToF(x) => Some(intrinsics::to_f(self.const_eval(x)?)),
            RExpr::ToI(x) => Some(intrinsics::to_i(self.const_eval(x)?)),
            RExpr::Intrinsic { f, args } => {
                let vals: Option<Vec<Val>> = args.iter().map(|a| self.const_eval(a)).collect();
                Some(f.call(&vals?))
            }
            _ => None,
        }
    }

    /// `e` as an [`Affine`] right side, when it is one.
    fn affine(&self, e: &RExpr) -> Option<Affine> {
        let mut a = Affine::default();
        self.affine_into(e, 1, &mut a).then_some(a)
    }

    /// Adds `k · e` to `a`; false when `e` is not affine.
    fn affine_into(&self, e: &RExpr, k: i64, a: &mut Affine) -> bool {
        if self.ty_of(e) != ScalarTy::I {
            return false;
        }
        let int = |x: &RExpr| self.ty_of(x) == ScalarTy::I;
        match e {
            RExpr::ConstI(c) => a.add = a.add.wrapping_add(k.wrapping_mul(*c)),
            RExpr::LoadScalar(v) => match self.vslot(*v) {
                VSlot::I(s) => a.term(s, k),
                _ => return false,
            },
            RExpr::Neg(x) => return self.affine_into(x, k.wrapping_neg(), a),
            RExpr::Bin { op: Bin::Add, l, r, .. } if int(l) && int(r) => {
                return self.affine_into(l, k, a) && self.affine_into(r, k, a);
            }
            RExpr::Bin { op: Bin::Sub, l, r, .. } if int(l) && int(r) => {
                return self.affine_into(l, k, a) && self.affine_into(r, k.wrapping_neg(), a);
            }
            RExpr::Bin { op: Bin::Mul, l, r, .. } if int(l) && int(r) => {
                let (c, x) = match (self.const_eval(l), self.const_eval(r)) {
                    (Some(c), _) => (c, r),
                    (None, Some(c)) => (c, l),
                    (None, None) => return false,
                };
                return self.affine_into(x, k.wrapping_mul(c.as_i()), a);
            }
            _ => match self.const_eval(e) {
                Some(c) => a.add = a.add.wrapping_add(k.wrapping_mul(c.as_i())),
                None => return false,
            },
        }
        true
    }

    /// Emits `i[dst] = a` as one `SetI`.
    fn emit_set_i(&mut self, dst: u32, a: Affine) {
        self.affine.push(a);
        let aff = self.affine.len() as u32 - 1;
        self.push(BInstr::SetI { dst, aff });
    }

    /// The `i32` value of an INTEGER bound that folds, if any.
    fn literal_i32(&self, e: &RExpr) -> Option<i32> {
        let v = self.fold(e).filter(|_| self.ty_of(e) == ScalarTy::I)?;
        i32::try_from(v.as_i()).ok()
    }

    // ---------- expression emission ----------

    /// Emits `e`; leaves one value of static type `ty_of(e)` on the stack.
    fn emit_expr(&mut self, e: &RExpr) {
        if let Some(v) = self.fold(e) {
            let bits = v.to_bits(self.ty_of(e));
            self.push(BInstr::Const(bits));
            return;
        }
        match e {
            RExpr::ConstI(v) => {
                self.push(BInstr::Const(*v as u64));
            }
            RExpr::ConstF(v) => {
                self.push(BInstr::Const(v.to_bits()));
            }
            RExpr::ConstB(v) => {
                self.push(BInstr::Const(u64::from(*v)));
            }
            RExpr::LoadScalar(v) => self.emit_load_scalar(*v),
            RExpr::LoadElem { v, subs } => {
                let (vs, want) = (self.vslot(*v), self.unit.vars[*v].ty);
                let n = subs.len() as u8;
                let first = self.emit_sub_operands(subs, None);
                let sd = self.static_shape(*v, subs.len());
                self.push(BInstr::LoadElemS { vs, v: *v as u32, subs: first, n, sd, want });
            }
            RExpr::Bin { op, ty, l, r } => self.emit_bin(*op, *ty, l, r),
            RExpr::Neg(x) => {
                self.emit_expr(x);
                match self.ty_of(x) {
                    ScalarTy::F => self.push(BInstr::NegF),
                    ScalarTy::I => self.push(BInstr::NegI),
                    ScalarTy::B => self.push(BInstr::FailNegB),
                };
            }
            RExpr::Not(x) => {
                self.emit_expr(x);
                self.emit_cvt(self.ty_of(x), ScalarTy::B);
                self.push(BInstr::NotB);
            }
            RExpr::ToF(x) => {
                self.emit_expr(x);
                self.emit_cvt(self.ty_of(x), ScalarTy::F);
            }
            RExpr::ToI(x) => {
                self.emit_expr(x);
                self.emit_cvt(self.ty_of(x), ScalarTy::I);
            }
            RExpr::Intrinsic { f, args } => {
                let int_flavor = self.intr_int_flavor(*f, args);
                for a in args {
                    self.emit_expr(a);
                    if !int_flavor {
                        self.emit_cvt(self.ty_of(a), ScalarTy::F);
                    }
                }
                let argc = args.len() as u8;
                if int_flavor {
                    self.push(BInstr::IntrI { f: *f, argc });
                } else {
                    self.push(BInstr::IntrF { f: *f, argc });
                }
            }
            RExpr::ArrReduce { f, v } => {
                let want = self.ty_of(e);
                self.push(BInstr::ArrRed { f: *f, vs: self.vslot(*v), v: *v as u32, want });
            }
            RExpr::AllocatedQ(v) => {
                let vs = self.vslot(*v);
                match vs {
                    VSlot::I(_) | VSlot::F(_) | VSlot::B(_) => {
                        // Interpreter: a scalar frame slot is never
                        // `FrameVal::Arr(Some)` → constant false.
                        self.push(BInstr::Const(0));
                    }
                    _ => {
                        self.push(BInstr::AllocatedQ { vs });
                    }
                }
            }
            RExpr::CallFn { unit, args, ret: _ } => {
                self.emit_call(*unit, args, true);
            }
        }
    }

    fn emit_bin(&mut self, op: Bin, ty: ScalarTy, l: &RExpr, r: &RExpr) {
        use ScalarTy::*;
        let (lt, rt) = (self.ty_of(l), self.ty_of(r));
        match op {
            Bin::And | Bin::Or => {
                self.emit_expr(l);
                self.emit_cvt(lt, B);
                self.emit_expr(r);
                self.emit_cvt(rt, B);
                self.push(if op == Bin::And { BInstr::AndB } else { BInstr::OrB });
            }
            Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge => {
                let c = Cmp::of(op).expect("a comparison operator");
                if ty == F {
                    self.emit_expr(l);
                    self.emit_cvt(lt, F);
                    self.emit_expr(r);
                    self.emit_cvt(rt, F);
                    self.push(BInstr::CmpF(c));
                } else {
                    // I and B compare on as_i (B bits are 0/1).
                    self.emit_expr(l);
                    self.emit_cvt(lt, I);
                    self.emit_expr(r);
                    self.emit_cvt(rt, I);
                    self.push(BInstr::CmpI(c));
                }
            }
            Bin::Add | Bin::Sub | Bin::Mul | Bin::Div | Bin::Pow => match ty {
                F => {
                    self.emit_expr(l);
                    self.emit_cvt(lt, F);
                    self.emit_expr(r);
                    if op == Bin::Pow && rt == I {
                        // Keep the integer exponent for the powi rule.
                        self.push(BInstr::PowFI);
                    } else {
                        self.emit_cvt(rt, F);
                        self.push(match op {
                            Bin::Add => BInstr::AddF,
                            Bin::Sub => BInstr::SubF,
                            Bin::Mul => BInstr::MulF,
                            Bin::Div => BInstr::DivF,
                            _ => BInstr::PowFF,
                        });
                    }
                }
                I => {
                    self.emit_expr(l);
                    self.emit_cvt(lt, I);
                    self.emit_expr(r);
                    self.emit_cvt(rt, I);
                    self.push(match op {
                        Bin::Add => BInstr::AddI,
                        Bin::Sub => BInstr::SubI,
                        Bin::Mul => BInstr::MulI,
                        Bin::Div => BInstr::DivI,
                        _ => BInstr::PowII,
                    });
                }
                B => {
                    self.emit_expr(l);
                    self.emit_expr(r);
                    self.push(BInstr::FailArith2);
                }
            },
        }
    }

    fn emit_load_scalar(&mut self, v: VarIdx) {
        match self.vslot(v) {
            VSlot::I(s) => {
                self.push(BInstr::LoadI(s));
            }
            VSlot::F(s) => {
                self.push(BInstr::LoadF(s));
            }
            VSlot::B(s) => {
                self.push(BInstr::LoadB(s));
            }
            VSlot::GlobS(c) => {
                self.push(BInstr::LoadG(c));
            }
            VSlot::A(_) | VSlot::GlobA(_) => {
                let m = self.msg(format!("array `{}` read as scalar", self.unit.vars[v].name));
                self.push(BInstr::FailType { msg: m });
            }
        }
    }

    /// Emits a store to scalar var `v` from a stack value of type `src`.
    fn emit_store_scalar(&mut self, v: VarIdx, src: ScalarTy) {
        let ty = self.unit.vars[v].ty;
        self.emit_cvt(src, ty);
        match self.vslot(v) {
            VSlot::I(s) => {
                self.push(BInstr::StoreI(s));
            }
            VSlot::F(s) => {
                self.push(BInstr::StoreF(s));
            }
            VSlot::B(s) => {
                self.push(BInstr::StoreB(s));
            }
            VSlot::GlobS(c) => {
                self.push(BInstr::StoreG(c));
            }
            VSlot::A(_) | VSlot::GlobA(_) => unreachable!("sema rejects scalar store to array"),
        }
    }

    /// Subscript expressions, each coerced to I.
    fn emit_subs(&mut self, subs: &[RExpr]) {
        for s in subs {
            self.emit_expr(s);
            self.emit_cvt(self.ty_of(s), ScalarTy::I);
        }
    }

    /// Lowers the subscript list of an element load/store to a run of
    /// [`SubOp`]s in the unit's subscript table and returns the run's
    /// first index; code is emitted for the `Stack` operands only.
    /// Cost-neutral, so both builds do it: the `LoadI`/`Const` pushes it
    /// saves post nothing.
    ///
    /// Legality of `Slot`: the VM reads the slot when the access
    /// executes, i.e. after every sibling subscript and (for a store)
    /// the right-hand side `rhs` have been evaluated, where the stack
    /// form read it in subscript order. The two agree unless one of
    /// those expressions stores to the variable in between, which only
    /// a function call's copy-out can do (`a(i, bump(i))`); such a
    /// subscript keeps the stack path.
    fn emit_sub_operands(&mut self, subs: &[RExpr], rhs: Option<&RExpr>) -> u32 {
        assert!(subs.len() <= MAX_INLINE_RANK, "the front end caps array rank");
        // A nested access (`qn(m, c2n(k, c))`) appends its own run while
        // this one's `Stack` operands are emitted, so collect first.
        let mut run = [SubOp::Stack; MAX_INLINE_RANK];
        for (k, (s, op)) in subs.iter().zip(&mut run).enumerate() {
            *op = match s {
                _ if self.ty_of(s) != ScalarTy::I => SubOp::Stack,
                RExpr::LoadScalar(var) => match self.vslot(*var) {
                    VSlot::I(slot)
                        if !subs
                            .iter()
                            .enumerate()
                            .any(|(j, t)| j != k && expr_copies_out_to(t, *var))
                            && !rhs.is_some_and(|e| expr_copies_out_to(e, *var)) =>
                    {
                        SubOp::Slot(slot)
                    }
                    _ => SubOp::Stack,
                },
                _ => match self.fold(s).map(|c| i32::try_from(c.as_i())) {
                    Some(Ok(c)) => SubOp::Const(c),
                    _ => SubOp::Stack,
                },
            };
            if *op == SubOp::Stack {
                self.emit_expr(s);
                self.emit_cvt(self.ty_of(s), ScalarTy::I);
            }
        }
        let first = self.subops.len() as u32;
        self.subops.extend_from_slice(&run[..subs.len()]);
        first
    }

    /// Static-shape descriptor for an access to `v` with `nsubs`
    /// subscripts: fixed-shape frame locals referenced at full rank.
    fn static_shape(&self, v: VarIdx, nsubs: usize) -> u16 {
        match (self.sdim_of[v], self.vslot(v)) {
            (Some(sd), VSlot::A(_)) if self.sdims[sd as usize].dims.len() == nsubs => {
                // Shapes past the u16 index space just stay dynamic.
                u16::try_from(sd).unwrap_or(NO_SDIMS)
            }
            _ => NO_SDIMS,
        }
    }

    // ---------- calls ----------

    fn emit_call(&mut self, callee: UnitId, args: &[RArg], push: bool) {
        self.push(BInstr::CallPre);
        let ct = &self.tables[callee];
        let cunit = &self.prog.units[callee];
        let mut bargs = Vec::with_capacity(args.len());
        let mut n_stash = 0u32;
        for (k, arg) in args.iter().enumerate() {
            let pvar = cunit.params[k];
            let p = ct.vslots[pvar];
            let pty = cunit.vars[pvar].ty;
            match arg {
                RArg::ByRefScalar(v) => {
                    self.emit_load_scalar(*v);
                    let src_ty = self.unit.vars[*v].ty;
                    bargs.push(BArg::Scalar {
                        src_vs: self.vslot(*v),
                        src_v: *v as u32,
                        src_ty,
                        p,
                        pty,
                    });
                }
                RArg::ByRefElem { v, subs } => {
                    self.emit_subs(subs);
                    let want = self.unit.vars[*v].ty;
                    self.push(BInstr::StashElem {
                        vs: self.vslot(*v),
                        v: *v as u32,
                        nsubs: subs.len() as u8,
                        want,
                    });
                    n_stash += subs.len() as u32;
                    bargs.push(BArg::Elem {
                        vs: self.vslot(*v),
                        v: *v as u32,
                        nsubs: subs.len() as u8,
                        want,
                        p,
                        pty,
                    });
                }
                RArg::Array(v) => {
                    self.push(BInstr::PushArr { vs: self.vslot(*v), v: *v as u32 });
                    let VSlot::A(pa) = p else {
                        unreachable!("array param has an A slot")
                    };
                    bargs.push(BArg::Arr { p: pa });
                }
                RArg::Value(e) => {
                    self.emit_expr(e);
                    bargs.push(BArg::Val { src_ty: self.ty_of(e), p, pty });
                }
            }
        }
        let spec = CallSpec { callee: callee as u32, args: bargs, n_stash, ret: ct.result };
        self.calls.push(spec);
        let s = self.calls.len() as u32 - 1;
        self.push(BInstr::Call { spec: s, push });
    }

    // ---------- statements ----------

    fn emit_block(&mut self, body: &[SpStmt]) {
        for sp in body {
            self.line_at(sp.line);
            self.emit_stmt(&sp.s);
        }
    }

    /// Attributes the instructions emitted next to source line `line`.
    fn line_at(&mut self, line: u32) {
        if self.last_line != line {
            self.lines.push((self.pc(), line));
            self.last_line = line;
        }
    }

    /// Resolves EXIT at the current position: static jump or dynamic flow.
    fn nearest_loop(&mut self) -> Option<&mut Ctx> {
        match self.ctx.last_mut() {
            Some(c @ Ctx::Loop { .. }) => Some(c),
            _ => None,
        }
    }

    fn emit_stmt(&mut self, s: &RStmt) {
        match s {
            RStmt::AssignScalar { v, e } => {
                // The traced build keeps the operations the interpreter
                // counts.
                let set = match self.vslot(*v) {
                    VSlot::I(dst) if !self.traced => self.affine(e).map(|a| (dst, a)),
                    _ => None,
                };
                match set {
                    Some((dst, a)) => self.emit_set_i(dst, a),
                    None => {
                        self.emit_expr(e);
                        self.emit_store_scalar(*v, self.ty_of(e));
                    }
                }
            }
            RStmt::AssignElem { v, subs, e } => {
                let (vs, src) = (self.vslot(*v), self.ty_of(e));
                let n = subs.len() as u8;
                let first = self.emit_sub_operands(subs, Some(e));
                self.emit_expr(e);
                let sd = self.static_shape(*v, subs.len());
                self.push(BInstr::StoreElemS { vs, v: *v as u32, subs: first, n, sd, src });
            }
            RStmt::Broadcast { v, e } => {
                self.emit_expr(e);
                self.push(BInstr::Broadcast {
                    vs: self.vslot(*v),
                    v: *v as u32,
                    src: self.ty_of(e),
                });
            }
            RStmt::CopyArray { dst, src } => {
                self.push(BInstr::CopyArr {
                    dvs: self.vslot(*dst),
                    dv: *dst as u32,
                    svs: self.vslot(*src),
                    sv: *src as u32,
                });
            }
            RStmt::AtomicUpdate { v, subs, op, e } => {
                self.emit_expr(e);
                let ety = self.ty_of(e);
                let info = &self.unit.vars[*v];
                if info.rank == 0 {
                    self.push(BInstr::AtomicScal {
                        vs: self.vslot(*v),
                        v: *v as u32,
                        op: *op,
                        ety,
                        vty: info.ty,
                    });
                } else {
                    self.emit_subs(subs);
                    self.push(BInstr::AtomicElem {
                        vs: self.vslot(*v),
                        v: *v as u32,
                        op: *op,
                        nsubs: subs.len() as u8,
                        ety,
                    });
                }
            }
            RStmt::If { arms, else_body } => {
                if self.traced {
                    self.push(BInstr::CostBranch);
                }
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    self.emit_expr(cond);
                    self.emit_cvt(self.ty_of(cond), ScalarTy::B);
                    let jf = self.push(BInstr::JumpIfFalse(NO_PC));
                    self.emit_block(body);
                    end_jumps.push(self.push(BInstr::Jump(NO_PC)));
                    let here = self.pc();
                    self.set_target(jf, here);
                }
                self.emit_block(else_body);
                let end = self.pc();
                for j in end_jumps {
                    self.set_target(j, end);
                }
            }
            RStmt::DoWhile { cond, body } => {
                let head = self.pc();
                if self.traced {
                    self.push(BInstr::CostBranch);
                }
                self.emit_expr(cond);
                self.emit_cvt(self.ty_of(cond), ScalarTy::B);
                let jf = self.push(BInstr::JumpIfFalse(NO_PC));
                self.ctx.push(Ctx::Loop { exit: Vec::new(), cycle: Vec::new() });
                self.emit_block(body);
                self.push(BInstr::Jump(head));
                let Some(Ctx::Loop { exit, cycle }) = self.ctx.pop() else { unreachable!() };
                let end = self.pc();
                self.apply_patch(Patch::Target(jf), end);
                for p in exit {
                    self.apply_patch(p, end);
                }
                for p in cycle {
                    self.apply_patch(p, head);
                }
            }
            RStmt::Do { var, start, end, step, body, omp, vec, collapse_with } => {
                if let Some(o) = omp {
                    self.emit_omp_do(*var, start, end, step.as_ref(), body, o, collapse_with);
                } else {
                    self.emit_serial_do(*var, start, end, step.as_ref(), body, *vec);
                }
            }
            RStmt::CallSub { unit, args } => {
                self.emit_call(*unit, args, false);
            }
            RStmt::Allocate { v, dims } => {
                for (lo, hi) in dims {
                    self.emit_expr(lo);
                    self.emit_cvt(self.ty_of(lo), ScalarTy::I);
                    self.emit_expr(hi);
                    self.emit_cvt(self.ty_of(hi), ScalarTy::I);
                }
                self.push(BInstr::Alloc {
                    vs: self.vslot(*v),
                    v: *v as u32,
                    ndims: dims.len() as u8,
                    ty: self.unit.vars[*v].ty,
                });
            }
            RStmt::Deallocate { v } => {
                self.push(BInstr::Dealloc { vs: self.vslot(*v), v: *v as u32 });
            }
            RStmt::Critical { name, body } => {
                let m = self.msg(name.clone());
                // Resolve the enclosing loop's targets at *this* level.
                let idx = self.push(BInstr::Critical { name: m, end: NO_PC, exit: NO_PC, cycle: NO_PC });
                if let Some(Ctx::Loop { exit, cycle }) = self.ctx.last_mut() {
                    exit.push(Patch::CritExit(idx));
                    cycle.push(Patch::CritCycle(idx));
                }
                self.ctx.push(Ctx::Boundary);
                self.emit_block(body);
                self.ctx.pop();
                let end = self.pc();
                if let BInstr::Critical { end: e, .. } = &mut self.code[idx] {
                    *e = end;
                }
            }
            RStmt::Return => {
                self.push(BInstr::FlowReturn);
            }
            RStmt::Exit => {
                if self.nearest_loop().is_some() {
                    let j = self.push(BInstr::Jump(NO_PC));
                    if let Some(Ctx::Loop { exit, .. }) = self.ctx.last_mut() {
                        exit.push(Patch::Target(j));
                    }
                } else {
                    self.push(BInstr::FlowExit);
                }
            }
            RStmt::Cycle => {
                if self.nearest_loop().is_some() {
                    let j = self.push(BInstr::Jump(NO_PC));
                    if let Some(Ctx::Loop { cycle, .. }) = self.ctx.last_mut() {
                        cycle.push(Patch::Target(j));
                    }
                } else {
                    self.push(BInstr::FlowCycle);
                }
            }
            RStmt::Print(items) => {
                let mut spec = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        PrintItem::Str(s) => spec.push(PItem::Str(s.clone())),
                        PrintItem::Val(e) => {
                            self.emit_expr(e);
                            spec.push(PItem::Val(self.ty_of(e)));
                        }
                    }
                }
                self.prints.push(spec);
                let p = self.prints.len() as u32 - 1;
                self.push(BInstr::Print { spec: p });
            }
            RStmt::Stop(msg) => {
                let m = self.msg(msg.clone().unwrap_or_default());
                self.push(BInstr::Stop { msg: m });
            }
            RStmt::Nop => {}
            RStmt::Inlined { unit, locals, enter, body, leave } => {
                // `emit_block` recorded the call's line at the entry.
                let line = self.last_line;
                let desc = self.inline_desc(*unit, locals.clone());
                self.push(BInstr::InlineEnter { desc });
                self.emit_block(enter);
                self.inline_open.push(desc);
                self.enter_unit(*unit as u32);
                self.emit_block(body);
                self.inline_open.pop();
                let outer = self.inline_open.last().map(|&d| self.inlines[d as usize].unit);
                self.enter_unit(outer.unwrap_or(self.unit_idx as u32));
                at_pc(&mut self.lines, self.code.len() as u32, line);
                self.last_line = line;
                self.push(BInstr::InlineExit { desc });
                self.emit_block(leave);
            }
            RStmt::Span { fast, slow } => self.emit_span(fast, slow),
        }
    }

    /// A fused span ([`SpanDesc`] shows the layout). `fast` is lowered
    /// only when its fused loop becomes a region of map statements — no
    /// accumulator or select, which the span's step accounting leaves
    /// out — outside any region, in the optimized build; `slow` alone
    /// otherwise. The fused loop is analysed once, here, and its
    /// emission takes that analysis.
    fn emit_span(&mut self, fast: &[SpStmt], slow: &[SpStmt]) {
        let (fused, between) = fast.split_last().expect("a span ends in its fused loop");
        let RStmt::Do { var, start, end, step, body, vec, .. } = &fused.s else {
            unreachable!("a fused loop")
        };
        let probe = (!self.traced && self.region_depth == 0)
            .then(|| self.probe_loop(*var, step.as_ref(), body))
            .filter(|p| matches!(&p.plan, Ok(p) if p.red.is_none() && p.sel.is_none()));
        let Some(probe) = probe else {
            self.emit_block(slow);
            return;
        };
        let span = self.spans.len() as u32;
        let enter = self.push(BInstr::SpanEnter { span });
        self.emit_block(between);
        let s_end = self.pc();
        self.line_at(fused.line);
        let head = self.emit_loop_head(Some(probe), *var, start, end, step.as_ref(), body, *vec);
        let vi = head.vec_loop.expect("the fused loop is a region");
        let mut loops = Vec::new();
        for sp in slow {
            let start = self.pc();
            self.emit_block(std::slice::from_ref(sp));
            // The original loops are the ones over the fused variable,
            // which no S assigns.
            if matches!(sp.s, RStmt::Do { var: v, .. } if v == *var) {
                loops.push((start, self.last_head));
            }
        }
        let exit = self.pc();
        let SpanCost { fixed, iter, exit_state } = span_cost(&self.code, &loops, (s_end, vi as u32))
            .expect("a span's original loops are straight-line region loops");
        let BInstr::VecLoop { desc, exit: e, .. } = &mut self.code[vi] else { unreachable!() };
        *e = exit;
        let d = &mut self.vecs[*desc as usize];
        (d.iter_cost, d.exit_state) = (iter, exit_state);
        self.spans.push(SpanDesc { s: (enter as u32 + 1, s_end), fused: vi as u32, loops, fixed });
    }

    /// Starts attributing the instructions emitted next to `unit`'s
    /// source: the PC→unit entry, and a fresh PC→line entry at the
    /// next statement.
    fn enter_unit(&mut self, unit: u32) {
        at_pc(&mut self.units, self.code.len() as u32, unit);
        self.last_line = u32::MAX;
    }

    /// The descriptor of an inlined call of `unit` whose locals are the
    /// variables `locals`: each bank's reset range spans their slots.
    fn inline_desc(&mut self, unit: UnitId, locals: std::ops::Range<VarIdx>) -> u32 {
        let none = (u32::MAX, 0);
        let (mut i, mut f, mut b, mut a) = (none, none, none, none);
        for v in locals {
            let (r, s) = match self.vslot(v) {
                VSlot::I(s) => (&mut i, s),
                VSlot::F(s) => (&mut f, s),
                VSlot::B(s) => (&mut b, s),
                VSlot::A(s) => (&mut a, s),
                VSlot::GlobS(_) | VSlot::GlobA(_) => continue,
            };
            *r = (r.0.min(s), r.1.max(s + 1));
        }
        let span = |(lo, hi): (u32, u32)| if lo < hi { (lo, hi) } else { (0, 0) };
        let outer = self.inline_open.last().copied().unwrap_or(NO_PC);
        self.inlines.push(InlineDesc {
            unit: unit as u32,
            outer,
            i: span(i),
            f: span(f),
            b: span(b),
            a: span(a),
        });
        self.inlines.len() as u32 - 1
    }

    fn set_target(&mut self, idx: usize, pc: u32) {
        match &mut self.code[idx] {
            BInstr::Jump(t) | BInstr::JumpIfFalse(t) => *t = pc,
            BInstr::DoHead { exit, .. } => *exit = pc,
            other => unreachable!("not a patchable instruction: {other:?}"),
        }
    }

    fn apply_patch(&mut self, p: Patch, pc: u32) {
        match p {
            Patch::Target(i) => self.set_target(i, pc),
            Patch::CritExit(i) => {
                if let BInstr::Critical { exit, .. } = &mut self.code[i] {
                    *exit = pc;
                }
            }
            Patch::CritCycle(i) => {
                if let BInstr::Critical { cycle, .. } = &mut self.code[i] {
                    *cycle = pc;
                }
            }
        }
    }

    // ---------- DO loops ----------

    /// Whether a serial `DO` over `var` with `step` gets the fused
    /// `DoInitC`/`DoHead`/`DoIncr1` head, which a region needs: a
    /// frame-I variable and a step that folds to 1.
    fn fused_head(&self, var: VarIdx, step: Option<&RExpr>) -> bool {
        let one = step.map_or(Some(1), |e| self.fold(e).map(|v| v.as_i())) == Some(1);
        one && matches!(self.vslot(var), VSlot::I(_))
    }

    /// The vector analysis of a serial `DO` over `var` as emission
    /// outside any region would make it. The hidden slots it takes are
    /// given back.
    fn probe_loop(&mut self, var: VarIdx, step: Option<&RExpr>, body: &[SpStmt]) -> Probe {
        let base = self.ni_extra;
        let plan = if self.fused_head(var, step) {
            self.analyze_vec(var, body)
        } else {
            Err(VecRefusal::Shape)
        };
        let taken = self.ni_extra - base;
        self.ni_extra = base;
        Probe { plan, base, taken }
    }

    /// The head of a serial `DO` over `var`: bounds, `DoInitC` (or
    /// `DoInit`), a traced build's `VecEnter`, and, when the vector
    /// analysis — `probe` if the caller made it — accepts the loop, its
    /// prep and a `VecLoop` whose exit and costs the caller patches. A
    /// span's fused loop is its head alone.
    #[allow(clippy::too_many_arguments)]
    fn emit_loop_head(
        &mut self,
        probe: Option<Probe>,
        var: VarIdx,
        start: &RExpr,
        end: &RExpr,
        step: Option<&RExpr>,
        body: &[SpStmt],
        vec: VecClass,
    ) -> LoopHead {
        let fused1 = self.fused_head(var, step);
        // The optimized build carries `i32` literal bounds in `DoInitK`.
        let literal = (fused1 && !self.traced)
            .then(|| self.literal_i32(start).zip(self.literal_i32(end)))
            .flatten();
        if literal.is_none() {
            self.emit_expr(start);
            self.emit_cvt(self.ty_of(start), ScalarTy::I);
            self.emit_expr(end);
            self.emit_cvt(self.ty_of(end), ScalarTy::I);
        }
        let line = self.last_line;
        // Vector path: canonical unit-stride frame-I loops only, and not
        // the inner loops of a nest a region already covers. A refused
        // analysis gives back the hidden slots it took.
        let vec_plan = if self.region_depth > 0 {
            None
        } else {
            let probe = probe.unwrap_or_else(|| self.probe_loop(var, step, body));
            match probe.plan {
                Ok(mut plan) => {
                    plan.relocate(probe.base, self.ni_extra);
                    self.ni_extra += probe.taken;
                    Some(plan)
                }
                Err(why) => {
                    self.vec_refusals.push((line, why));
                    None
                }
            }
        };
        let (ctr, left) = (self.hidden_i(), self.hidden_i());
        let steps = if fused1 { 0 } else { self.hidden_i() };
        // A step that folds to 1 (traced builds fold a literal step only)
        // needs no zero check; a computed one takes the interpreter's.
        let init = if let Some((lo, hi)) = literal {
            self.push(BInstr::DoInitK { ctr, left, lo, hi })
        } else if fused1 {
            self.push(BInstr::DoInitC { ctr, left })
        } else {
            match step {
                Some(e) if self.fold(e).map(|v| v.as_i()) != Some(1) => {
                    self.emit_expr(e);
                    self.emit_cvt(self.ty_of(e), ScalarTy::I);
                    self.push(BInstr::DoInit { ctr, left, step: steps, check: true })
                }
                _ => {
                    self.push(BInstr::Const(1));
                    self.push(BInstr::DoInit { ctr, left, step: steps, check: false })
                }
            }
        };
        if self.traced && vec != VecClass::None {
            self.push(BInstr::VecEnter(vec));
        }
        let vec_loop = vec_plan.map(|plan| {
            // Prep: loop-invariant subscript parts into hidden i-slots,
            // one `SetI` each in both builds. The scalar body evaluates
            // them again every iteration; a `SetI` posts nothing.
            let VecPlan { mut accesses, stmts, red, sel, max_depth, prep, guarded, .. } = plan;
            for (a, slot) in prep {
                self.emit_set_i(slot, a);
            }
            let desc = self.vecs.len() as u32;
            let t = self.table;
            let dummies = dummy_arrays(self.unit, &t.vslots);
            let (proofs, window) = prove_streams(&accesses, &t.fixed_arrays, &self.prog.globals);
            for (a, proof) in accesses.iter_mut().zip(proofs) {
                a.proven = proof;
            }
            self.vecs.push(VecDesc {
                alias_pairs: VecDesc::write_pairs(&accesses, &dummies),
                window,
                globals: global_cells(&accesses, &guarded),
                accesses,
                stmts,
                red,
                sel,
                guarded,
                max_depth,
                iter_cost: 0,
                taken_cost: 0,
                iter_ledger: None,
                exit_state: Vec::new(),
                line,
            });
            let VSlot::I(var) = self.vslot(var) else { unreachable!("a region's loop is fused") };
            self.push(BInstr::VecLoop { desc, ctr, left, var, exit: NO_PC })
        });
        LoopHead { ctr, left, steps, init, vec_loop, line }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_serial_do(
        &mut self,
        var: VarIdx,
        start: &RExpr,
        end: &RExpr,
        step: Option<&RExpr>,
        body: &[SpStmt],
        vec: VecClass,
    ) {
        let LoopHead { ctr, left, steps, init, vec_loop, line } =
            self.emit_loop_head(None, var, start, end, step, body, vec);
        let fused1 = self.fused_head(var, step);
        let head = self.pc();
        let frame_var = match self.vslot(var) {
            VSlot::I(vslot) => Some(vslot),
            _ => None,
        };
        let head_idx =
            self.push(BInstr::DoHead { ctr, left, var: frame_var.unwrap_or(ctr), exit: NO_PC });
        if frame_var.is_none() {
            // Store the loop variable (global or non-I): converted from
            // the counter, costing a Store for globals exactly like the
            // interpreter's per-iteration write_scalar.
            self.push(BInstr::LoadI(ctr));
            self.emit_store_scalar(var, ScalarTy::I);
        }
        self.ctx.push(Ctx::Loop { exit: Vec::new(), cycle: Vec::new() });
        self.region_depth += u32::from(vec_loop.is_some());
        self.emit_block(body);
        self.region_depth -= u32::from(vec_loop.is_some());
        let incr = self.pc();
        if fused1 {
            self.push(BInstr::DoIncr1 { ctr, head });
        } else {
            self.push(BInstr::DoIncr { ctr, step: steps, head });
        }
        let Some(Ctx::Loop { exit, cycle }) = self.ctx.pop() else { unreachable!() };
        let after = self.pc();
        if let Some(vi) = vec_loop {
            // What the scalar loop retires and posts per iteration.
            let (lo, hi) = (head as usize, after as usize);
            let cost = region_cost(&self.code, lo, hi)
                .expect("a region's scalar loop has a shape `region_cost` prices");
            if let BInstr::VecLoop { desc, exit, .. } = &mut self.code[vi] {
                *exit = after;
                let d = &mut self.vecs[*desc as usize];
                (d.iter_cost, d.taken_cost, d.iter_ledger) = (cost.iter, cost.taken, cost.ledger);
                d.exit_state = nest_exit_state(&self.code, lo, hi);
            }
        }
        self.last_head = head;
        self.loops.push(BLoopSite { init_pc: init as u32, end_pc: after, line });
        if self.traced && vec != VecClass::None {
            self.push(BInstr::VecLeave);
        }
        self.apply_patch(Patch::Target(head_idx), after);
        for p in exit {
            self.apply_patch(p, after);
        }
        for p in cycle {
            self.apply_patch(p, incr);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_omp_do(
        &mut self,
        var: VarIdx,
        start: &RExpr,
        end: &RExpr,
        step: Option<&RExpr>,
        body: &[SpStmt],
        o: &ROmp,
        collapse_with: &[CollapseDim],
    ) {
        // Stack layout the OmpDo handler pops (top last):
        //   s0, e0, st, [lo,hi]*, [num_threads]
        self.emit_expr(start);
        self.emit_cvt(self.ty_of(start), ScalarTy::I);
        self.emit_expr(end);
        self.emit_cvt(self.ty_of(end), ScalarTy::I);
        match step {
            Some(e) => {
                self.emit_expr(e);
                self.emit_cvt(self.ty_of(e), ScalarTy::I);
                // The zero check fires before collapse bounds evaluate,
                // mirroring the interpreter's evaluation order.
                self.push(BInstr::CheckStepNZ);
            }
            None => {
                self.push(BInstr::Const(1));
            }
        }
        for cd in collapse_with {
            self.emit_expr(&cd.start);
            self.emit_cvt(self.ty_of(&cd.start), ScalarTy::I);
            self.emit_expr(&cd.end);
            self.emit_cvt(self.ty_of(&cd.end), ScalarTy::I);
        }
        if let Some(nt) = &o.num_threads {
            self.emit_expr(nt);
            self.emit_cvt(self.ty_of(nt), ScalarTy::I);
        }
        let mut dims = vec![(self.vslot(var), self.unit.vars[var].ty)];
        for cd in collapse_with {
            dims.push((self.vslot(cd.var), self.unit.vars[cd.var].ty));
        }
        let private_arrays = o
            .private
            .iter()
            .filter_map(|&pv| match (self.unit.vars[pv].rank, self.vslot(pv)) {
                (r, VSlot::A(a)) if r > 0 => Some(a),
                _ => None,
            })
            .collect();
        let reductions = o
            .reductions
            .iter()
            .map(|&(op, v)| RedSpec { op, vs: self.vslot(v), ty: self.unit.vars[v].ty })
            .collect();
        let desc = OmpDesc {
            dims,
            has_nt: o.num_threads.is_some(),
            sched: o.sched,
            per_thread_access: o.per_thread_access,
            private_arrays,
            reductions,
            body: (0, 0),
        };
        self.omps.push(desc);
        let d = self.omps.len() as u32 - 1;
        let instr = self.push(BInstr::OmpDo { desc: d });
        self.ctx.push(Ctx::Boundary);
        self.emit_block(body);
        self.ctx.pop();
        let body_hi = self.pc();
        self.omps[d as usize].body = (instr as u32 + 1, body_hi);
    }
}

/// Sets a sorted `(first_pc, value)` table to `v` from `pc` on.
fn at_pc(table: &mut Vec<(u32, u32)>, pc: u32, v: u32) {
    match table.last_mut() {
        Some(last) if last.0 == pc => last.1 = v,
        _ => table.push((pc, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpCounts;

    fn compile(src: &str) -> (RProgram, Vec<BUnit>, Vec<BUnit>) {
        let mut ast = crate::ast::Ast::default();
        let mut part = crate::parse::parse(src).unwrap();
        ast.modules.append(&mut part.modules);
        let prog = crate::sema::resolve(&ast).unwrap();
        let opt = compile_program(&prog, false);
        let traced = compile_program(&prog, true);
        (prog, opt, traced)
    }

    const SRC: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE work(a, n, s)
    REAL(8), DIMENSION(1:64) :: a
    INTEGER :: n, i
    REAL(8) :: s, unused
    unused = 2.0D0 * 3.0D0
    s = 0.0D0
    DO i = 1, n
      s = s + a(i) * (1.0D0 + 2.0D0)
    END DO
  END SUBROUTINE work
END MODULE m
"#;

    #[test]
    fn folding_only_in_optimized_builds() {
        let (_, opt, traced) = compile(SRC);
        // The optimized build folds 1.0+2.0 and 2.0*3.0.
        let consts = |c: &[BInstr]| {
            c.iter()
                .filter(|i| matches!(i, BInstr::Const(b) if f64::from_bits(*b) == 3.0))
                .count()
        };
        assert!(consts(&opt[0].code) >= 1, "folded constant expected");
        assert!(
            opt[0].code.len() < traced[0].code.len(),
            "optimized build should be shorter (folding): {} vs {}",
            opt[0].code.len(),
            traced[0].code.len()
        );
        // The traced build keeps the AddF for 1.0+2.0 (cost fidelity).
        assert!(traced[0]
            .code
            .iter()
            .any(|i| matches!(i, BInstr::Const(b) if f64::from_bits(*b) == 2.0)));
    }

    #[test]
    fn unit_stride_loop_uses_fused_head() {
        let (_, opt, _) = compile(SRC);
        assert!(opt[0].code.iter().any(|i| matches!(i, BInstr::DoHead { .. })));
        assert!(opt[0].code.iter().any(|i| matches!(i, BInstr::DoIncr1 { .. })));
    }

    #[test]
    fn fixed_local_arrays_get_static_dims() {
        let (_, opt, _) = compile(
            r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION peek()
    REAL(8), DIMENSION(1:4, 1:3) :: t
    t(2, 2) = 5.0D0
    peek = t(2, 2)
  END FUNCTION peek
END MODULE m
"#,
        );
        // Both accesses fold their constant subscripts into the subscript
        // table (nothing pushed) and carry the static shape.
        let (a, sd) = (opt[0].vslots[0], 0);
        assert!(opt[0].code.iter().any(|i| matches!(
            *i,
            BInstr::StoreElemS { vs, subs: 0, n: 2, sd: s, .. } if vs == a && s == sd
        )));
        assert!(opt[0].code.iter().any(|i| matches!(
            *i,
            BInstr::LoadElemS { vs, subs: 2, n: 2, sd: s, .. } if vs == a && s == sd
        )));
        assert_eq!(opt[0].subops, vec![SubOp::Const(2); 4]);
        assert!(!opt[0].code.iter().any(|i| matches!(i, BInstr::LoadI(_))));
        assert_eq!(opt[0].sdims.len(), 1);
        assert_eq!(opt[0].sdims[0].strides, vec![1, 4]);
    }

    #[test]
    fn subscript_operands_resolve_at_lowering_time() {
        let (_, opt, traced) = compile(
            r#"
MODULE m
CONTAINS
  INTEGER FUNCTION bump(k)
    INTEGER :: k
    k = k + 1
    bump = k
  END FUNCTION bump
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:8, 1:8) :: a
    INTEGER :: n, i, j
    i = 1
    j = 2
    a(i, j) = a(j, 3) + a(i + 1, n)
    a(i, bump(i)) = 1.0D0
  END SUBROUTINE work
END MODULE m
"#,
        );
        let w = &opt[1];
        let VSlot::I(si) = w.vslots[2] else { panic!("i is a frame INTEGER") };
        let VSlot::I(sj) = w.vslots[3] else { panic!("j is a frame INTEGER") };
        let VSlot::I(sn) = w.vslots[1] else { panic!("n is a frame INTEGER") };
        let run = |first: u32, n: u8| &w.subops[first as usize..first as usize + n as usize];
        let stores: Vec<_> = w
            .code
            .iter()
            .filter_map(|i| match *i {
                BInstr::StoreElemS { subs, n, .. } => Some(run(subs, n).to_vec()),
                _ => None,
            })
            .collect();
        // `a(i, j) = ...`: both subscripts read from their slots.
        // `a(i, bump(i))`: the call copies out to `i`, so `i` must be
        // pushed before it runs; the call itself goes through the stack.
        assert_eq!(
            stores,
            vec![vec![SubOp::Slot(si), SubOp::Slot(sj)], vec![SubOp::Stack, SubOp::Stack]]
        );
        let loads: Vec<_> = w
            .code
            .iter()
            .filter_map(|i| match *i {
                BInstr::LoadElemS { subs, n, .. } => Some(run(subs, n).to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(
            loads,
            vec![
                vec![SubOp::Slot(sj), SubOp::Const(3)],
                vec![SubOp::Stack, SubOp::Slot(sn)]
            ]
        );
        // The traced build addresses subscripts the same way — the
        // pushes it saves post nothing — so every access names the same
        // operand run; only what it *emits* for a `Stack` operand
        // differs (`i + 1` stays an `AddI` in both, but is never folded).
        assert_eq!(traced[1].subops, w.subops);
        assert!(std::mem::size_of::<BInstr>() <= 24);
    }

    #[test]
    fn traced_build_vectorizes_with_a_ledger_and_set_i_preps() {
        let (prog, opt, traced) = compile(
            r#"
MODULE m
CONTAINS
  SUBROUTINE work(a, b, n, j)
    REAL(8), DIMENSION(1:64, 1:4) :: a
    REAL(8), DIMENSION(1:64) :: b
    INTEGER :: n, j, i
    REAL(8) :: t, unused
    DO i = 1, n
      unused = 2.0D0 * 3.0D0
      t = b(i) * (1.0D0 + 2.0D0)
      a(i, j + 1) = t / 4.0D0 + EXP(b(i))
    END DO
  END SUBROUTINE work
END MODULE m
"#,
        );
        let (o, t) = (&opt[0], &traced[0]);
        // Same region in both builds: the analysis folds whatever the
        // emitter does, and forwards `unused` like `t`.
        assert_eq!((o.vecs.len(), t.vecs.len()), (1, 1));
        assert_eq!(format!("{:?}", o.vecs[0].stmts), format!("{:?}", t.vecs[0].stmts));
        assert_eq!(o.vecs[0].accesses.len(), t.vecs[0].accesses.len());
        // Both builds store `t` and `unused`, which nothing reads after
        // the loop, in the scalar body only.
        let stores = |name: &str, u: &BUnit| {
            let v = prog.units[0].vars.iter().position(|v| v.name == name).expect("declared");
            let VSlot::F(sv) = u.vslots[v] else { panic!("{name} is a frame REAL") };
            u.code.iter().filter(|i| matches!(i, BInstr::StoreF(s) if *s == sv)).count()
        };
        assert_eq!((stores("t", o), stores("t", t)), (1, 1));
        assert_eq!((stores("unused", o), stores("unused", t)), (1, 1));
        // The traced scalar body keeps the unfolded MulF and AddF, and
        // its ledger says so; the optimized body stores the folded
        // constants, which posts nothing. Subscript `j + 1` is one IOp
        // per iteration in both.
        let ops = |l: Option<Ledger>| l.expect("straight-line body").ops;
        assert_eq!(
            ops(t.vecs[0].iter_ledger),
            OpCounts { flop: 4, fdiv: 1, fspecial: 1, iop: 1, load: 2, store: 1 }
        );
        assert_eq!(
            ops(o.vecs[0].iter_ledger),
            OpCounts { flop: 2, fdiv: 1, fspecial: 1, iop: 1, load: 2, store: 1 }
        );
        // Prep (`j + 1` into a hidden slot) is one `SetI` in both builds,
        // and the traced build emits no other.
        let set_i = |u: &BUnit| u.code.iter().filter(|i| matches!(i, BInstr::SetI { .. })).count();
        assert_eq!((set_i(o), set_i(t)), (1, 1));
    }
}
