//! The bytecode VM: executes [`crate::bytecode`] instruction streams.
//!
//! Register/stack hybrid: frame scalars live in unboxed per-type value
//! banks ([`VFrame`]) addressed directly by instructions; expression
//! temporaries flow through an untyped `u64` operand stack (f64 as
//! bits, bool as 0/1). The `TRACE` const generic compiles the whole
//! cost-accounting layer out of the Serial/Parallel fast path: with
//! `TRACE = false` every `op()` call is an empty inlined function.
//!
//! Semantics match [`crate::interp::Task`] exactly — same side-effect
//! order, same error messages, same cost-event stream in Simulated mode
//! (the differential suite in `tests/vm_differential.rs` pins this).
//! Evaluation, frames and dispatch are this tier's own; the run-time
//! protocol around them is shared with the tree-walker rather than
//! copied: cost events go to one [`crate::cost::CostAcc`], `OmpDo`
//! hands its region to the [`crate::region`] driver (this file only
//! says how to make a worker VM, set a loop index, run the body range
//! and touch a reduction slot — `VmSite`), the step budget ticks through
//! `EffLimits::tick`. Every `VecLoop` goes through one entry,
//! `exec_fast_loop`, which runs the guards once and then picks the
//! native or the chunked vector rung.

use std::sync::Arc;

use crate::bytecode::{
    BArg, BInstr, BUnit, FixedArray, InlineDesc, MaskOp, OmpDesc, PItem, Posts, SDims, SubOp,
    VSlot, VecDesc, VecOp, VecRed, VecRedOp, VecSel, VecSub, MAX_INLINE_RANK, NO_PC, NO_SDIMS,
    NO_SLOT, VEC_CHUNK, VEC_MAX_ACCESSES,
};
use crate::cost::{CostCounters, CostTrace, OpKind};
use crate::engine::ArgVal;
use crate::error::RunError;
use crate::interp::{atomic_update, combine_vals, store_val, Exec, ExecMode, Flow, Val};
use crate::intrinsics::{self, powi_lane, Intr, Kernel1, Kernel2, KernelSink};
use crate::jit::{JitCtx, NativeRegion, PoolEntry, Stream as JitStream};
use crate::region::{self, Reduction, RegionSpec, RegionState};
use crate::rir::{RProgram, ScalarTy, VecClass};
use crate::storage::ArrayObj;

/// One access stream of a vector-loop entry, resolved for the whole
/// trip range: the array (borrowed from the frame or the global-handle
/// cache, which own the `Arc`s for the entry's duration — no
/// `Alloc`/`Dealloc` executes inside a region), the flat offset at the
/// first iteration and the per-iteration element stride.
#[derive(Clone, Copy)]
struct VStream<'a> {
    arr: &'a ArrayObj,
    base: i64,
    stride: i64,
}

/// The resolved streams of one entry, indexed like `VecDesc::accesses`.
type VStreams<'a> = [Option<VStream<'a>>; VEC_MAX_ACCESSES];

/// [`ArrayObj::offset_of`] against a fixed-shape local's declared bounds
/// and precomputed strides (rank equality is a verifier invariant).
#[inline(always)]
fn elem_offset_static(sd: &SDims, ix: &[i64]) -> Option<usize> {
    let mut off = 0usize;
    for ((&i, &(lo, hi)), &stride) in ix.iter().zip(&sd.dims).zip(&sd.strides) {
        if i < lo || i > hi {
            return None;
        }
        off += (i - lo) as usize * stride;
    }
    Some(off)
}

/// The error of a failed element access, in the tree-walker's order:
/// not an array / unallocated, then rank, then the first out-of-range
/// dimension. Only here is the variable's name looked up.
#[cold]
fn elem_fault(
    prog: &RProgram,
    uidx: usize,
    vs: VSlot,
    v: u32,
    arr: Option<&ArrayObj>,
    ix: &[i64],
) -> RunError {
    let name = &prog.units[uidx].vars[v as usize].name;
    match (arr, vs) {
        (Some(a), _) => a.offset(name, ix).err().unwrap_or_else(|| RunError::Trap {
            what: format!("`{name}`: static shape disagrees with the array"),
        }),
        (None, VSlot::A(_) | VSlot::GlobA(_) | VSlot::GlobS(_)) => {
            RunError::Unallocated { var: name.clone() }
        }
        (None, _) => RunError::Type { msg: format!("`{name}` is not an array") },
    }
}

/// Folds a chunk of accumulator-statement `terms` into `acc` in
/// iteration order, the accumulator on the side it held in source, and
/// writes each lane's running value to `run` when a later statement
/// reads it.
#[inline(always)]
fn fold_lanes(r: VecRed, acc: &mut f64, terms: &[f64], run: Option<&mut [f64]>) {
    let step = |a: f64, t: f64| match (r.op, r.acc_left) {
        (VecRedOp::Add, true) => a + t,
        (VecRedOp::Add, false) => t + a,
        (VecRedOp::Mul, true) => a * t,
        (VecRedOp::Mul, false) => t * a,
    };
    match run {
        None => terms.iter().for_each(|&t| *acc = step(*acc, t)),
        Some(run) => {
            for (&t, x) in terms.iter().zip(run) {
                *acc = step(*acc, t);
                *x = *acc;
            }
        }
    }
}

/// One lane kernel over a chunk's lanes, in place.
#[inline(always)]
fn map_lanes(lanes: &mut [f64], k: impl Fn(f64) -> f64) {
    for x in lanes {
        *x = k(*x);
    }
}

/// A vector intrinsic over one chunk, out of line so the entry path
/// stays small: each arm of [`Intr::with_kernel`] gets its own loop,
/// which calls its kernel directly.
#[inline(never)]
fn intr_lanes(f: Intr, lanes: &mut [f64], rest: &[f64]) {
    f.with_kernel(ChunkArgs { lanes, rest });
}

/// One chunk of an intrinsic's arguments: the first argument's lanes,
/// which take the result, and the others, one [`VEC_CHUNK`] each.
struct ChunkArgs<'a> {
    lanes: &'a mut [f64],
    rest: &'a [f64],
}

impl KernelSink for ChunkArgs<'_> {
    type Out = ();
    #[inline(always)]
    fn constant(self, c: f64) {
        self.lanes.fill(c);
    }
    #[inline(always)]
    fn unary(self, k: Kernel1) {
        map_lanes(self.lanes, |x| k(x));
    }
    #[inline(always)]
    fn binary(self, k: Kernel2) {
        let m = self.lanes.len();
        for (x, &y) in self.lanes.iter_mut().zip(&self.rest[..m]) {
            *x = k(*x, y);
        }
    }
    #[inline(always)]
    fn fold(self, seed: f64, k: Kernel2) {
        let m = self.lanes.len();
        map_lanes(self.lanes, |x| k(seed, x));
        for b in self.rest.chunks(VEC_CHUNK) {
            for (x, &y) in self.lanes.iter_mut().zip(&b[..m]) {
                *x = k(*x, y);
            }
        }
    }
}

/// Element bits converted to the static type `want` the stack expects.
#[inline(always)]
fn load_elem_bits(arr: &ArrayObj, off: usize, want: ScalarTy) -> u64 {
    if arr.ty == want {
        // Stack and cell share the bit convention.
        return arr.get_bits(off);
    }
    let val = match arr.ty {
        ScalarTy::I => Val::I(arr.get_i(off)),
        ScalarTy::F => Val::F(arr.get_f(off)),
        ScalarTy::B => Val::B(arr.get_b(off)),
    };
    val.to_bits(want)
}

/// Stores stack bits of static type `src` into an element.
#[inline(always)]
fn store_elem_bits(arr: &ArrayObj, off: usize, bits: u64, src: ScalarTy) {
    if arr.ty == src {
        arr.set_bits(off, bits);
    } else {
        store_val(arr, off, Val::from_bits(bits, src));
    }
}

/// A fused span whose S and set-up are running speculated
/// ([`BInstr::SpanEnter`]): what a fallback puts back and where it goes.
#[derive(Clone, Copy)]
struct Spec {
    span: u32,
    /// The step count before `SpanEnter`, and the operand stack's depth.
    saved: u64,
    depth: usize,
    /// The fused loop's `VecLoop`, where the span commits; the original
    /// statements follow it.
    fused: u32,
}

/// Unboxed per-type value banks for one call frame.
#[derive(Clone)]
pub(crate) struct VFrame {
    pub i: Vec<i64>,
    pub f: Vec<f64>,
    pub b: Vec<bool>,
    pub a: Vec<Option<Arc<ArrayObj>>>,
}

impl VFrame {
    fn new(bu: &BUnit) -> VFrame {
        let mut fr = VFrame {
            i: vec![0; bu.ni as usize],
            f: vec![0.0; bu.nf as usize],
            b: vec![false; bu.nb as usize],
            a: vec![None; bu.na as usize],
        };
        for (slot, ty, dims) in &bu.fixed_arrays {
            fr.a[*slot as usize] = Some(Arc::new(ArrayObj::new(*ty, dims.clone())));
        }
        fr
    }

    /// Restores a pooled frame to the `VFrame::new` state: banks zeroed,
    /// fixed-shape locals zeroed (reusing their storage when this frame
    /// holds the only handle), everything else unallocated.
    fn reset(&mut self, bu: &BUnit) {
        self.i.iter_mut().for_each(|x| *x = 0);
        self.f.iter_mut().for_each(|x| *x = 0.0);
        self.b.iter_mut().for_each(|x| *x = false);
        reset_arrays(&mut self.a, 0, &bu.fixed_arrays);
    }

    /// [`Self::reset`] of an inlined block's locals: the slot ranges
    /// `d` names, in every bank.
    fn reset_block(&mut self, bu: &BUnit, d: &InlineDesc) {
        let range = |(lo, hi): (u32, u32)| lo as usize..hi as usize;
        self.i[range(d.i)].fill(0);
        self.f[range(d.f)].fill(0.0);
        self.b[range(d.b)].fill(false);
        if d.a.0 < d.a.1 {
            let fixed = bu.fixed_arrays.partition_point(|f| f.0 < d.a.0);
            reset_arrays(&mut self.a[range(d.a)], d.a.0 as usize, &bu.fixed_arrays[fixed..]);
        }
    }

    fn read(&self, vs: VSlot, ex: &Exec, tid: usize) -> u64 {
        match vs {
            VSlot::I(s) => self.i[s as usize] as u64,
            VSlot::F(s) => self.f[s as usize].to_bits(),
            VSlot::B(s) => u64::from(self.b[s as usize]),
            VSlot::GlobS(c) => ex.globals.cells[c as usize].load_bits(tid),
            VSlot::A(_) | VSlot::GlobA(_) => unreachable!("scalar read of array slot"),
        }
    }

    /// Writes `val` converted to the slot's declared type `ty`.
    fn write(&mut self, vs: VSlot, ty: ScalarTy, val: Val, ex: &Exec, tid: usize) {
        match vs {
            VSlot::I(s) => self.i[s as usize] = val.as_i(),
            VSlot::F(s) => self.f[s as usize] = val.as_f(),
            VSlot::B(s) => self.b[s as usize] = val.as_b(),
            VSlot::GlobS(c) => ex.globals.cells[c as usize].store_bits(tid, val.to_bits(ty)),
            VSlot::A(_) | VSlot::GlobA(_) => unreachable!("scalar write to array slot"),
        }
    }
}

/// Zeroes (reusing the storage when the frame holds the only handle) or
/// rebuilds each fixed-shape local among the array slots `slots`, the
/// first of which is slot `base`, and unbinds every other one. `fixed`
/// starts at the first fixed array among them; it is in ascending slot
/// order (the verifier checks it), so one merged pass does.
fn reset_arrays(slots: &mut [Option<Arc<ArrayObj>>], base: usize, fixed: &[FixedArray]) {
    let mut fixed = fixed.iter().peekable();
    for (idx, s) in slots.iter_mut().enumerate() {
        let Some((_, ty, dims)) = fixed.next_if(|f| f.0 as usize == base + idx) else {
            *s = None;
            continue;
        };
        match s {
            Some(h) if Arc::strong_count(h) == 1 => {
                for off in 0..h.len() {
                    h.set_bits(off, 0);
                }
            }
            _ => *s = Some(Arc::new(ArrayObj::new(*ty, dims.clone()))),
        }
    }
}

pub(crate) struct Vm<'e, const TRACE: bool> {
    ex: &'e Exec,
    /// The program `bunits` was lowered from: variable names and units
    /// resolve through it (an optimized build's units hold variables
    /// that inlining added, which `ex.prog` lacks).
    prog: &'e RProgram,
    bunits: &'e [BUnit],
    tid: usize,
    stack: Vec<u64>,
    astack: Vec<Arc<ArrayObj>>,
    sstash: Vec<i64>,
    fscratch: Vec<f64>,
    /// `IntrI` arguments, and a masked select's INTEGER lanes.
    iscratch: Vec<i64>,
    /// Per-run cache of global array handles, indexed by cell: fetching a
    /// handle through the cell's RwLock on every element access dominates
    /// kernel time. Entries are dropped on ALLOCATE/DEALLOCATE of the
    /// cell and wholesale after a real parallel region (workers may have
    /// reallocated); within one VM every handle change flows through this
    /// VM's own instructions, so the cache stays coherent.
    gcache: Vec<Option<Arc<ArrayObj>>>,
    /// Frame free-list per unit: call-heavy kernels (FUN3D's optimized
    /// build makes one frame per cell) would otherwise pay four Vec
    /// allocations plus fixed-array instantiation on every call.
    fpool: Vec<Vec<VFrame>>,
    /// Region-protocol state; its cost accumulator is dormant (never
    /// touched) when `TRACE = false`.
    st: RegionState,
    /// Vectorization classes of the enclosing `VecEnter`s (the
    /// tree-walker keeps these on its recursion stack).
    vec_stack: Vec<VecClass>,
    depth: usize,
    /// Profiling collector, attached only to the main-thread VM of a
    /// profiled run (`Session::run_profiled`); `None` everywhere else —
    /// workers never carry one, keeping the hot path a single
    /// pointer-null test at loop/unit/region boundaries.
    prof: Option<&'e crate::trace::Collector>,
    /// Fault-location registers: the unit and pc currently executing.
    /// Kept current by `run_range`; restored across nested calls only on
    /// success, so a propagating error pins the innermost fault site.
    cur_uidx: usize,
    cur_pc: u32,
    /// Instructions retired, for the `RunLimits` step budget.
    steps: u64,
    /// Lane scratch for the vector superinstruction path: `max_depth`
    /// stacked lanes of [`VEC_CHUNK`] f64 each, reused across loops.
    vbuf: Vec<f64>,
    /// Reused operand-pool and stream buffers for native-tier entries.
    npool: Vec<u64>,
    nstreams: Vec<JitStream>,
    /// `VecLoop` entries this VM ran on the vector rung and natively, and
    /// its native deopts. Counted here because a shared atomic bumped on
    /// every entry is a cache line the whole team fights over;
    /// [`Vm::retire`] folds them into the session's counters.
    vector_entries: u64,
    native_entries: u64,
    native_deopts: u64,
}

impl<'e, const TRACE: bool> Vm<'e, TRACE> {
    fn new(ex: &'e Exec, prog: &'e RProgram, bunits: &'e [BUnit], tid: usize) -> Self {
        Vm {
            ex,
            prog,
            bunits,
            tid,
            stack: Vec::with_capacity(32),
            astack: Vec::new(),
            sstash: Vec::new(),
            fscratch: Vec::new(),
            iscratch: Vec::new(),
            gcache: vec![None; ex.globals.cells.len()],
            fpool: vec![Vec::new(); bunits.len()],
            st: RegionState::default(),
            vec_stack: Vec::new(),
            depth: 0,
            prof: None,
            cur_uidx: 0,
            cur_pc: 0,
            steps: 0,
            vbuf: Vec::new(),
            npool: Vec::new(),
            nstreams: Vec::new(),
            vector_entries: 0,
            native_entries: 0,
            native_deopts: 0,
        }
    }

    /// Folds the rung entries counted privately into the session's shared
    /// counters: called when a team member has run its share and when the
    /// run ends. A method, not `Drop`: `go` moves fields out of the `Vm`.
    fn retire(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        let fold = |shared: &std::sync::atomic::AtomicU64, n: &mut u64| {
            if *n > 0 {
                shared.fetch_add(std::mem::take(n), Relaxed);
            }
        };
        let shared = &self.ex.counts;
        fold(&shared.vector_entries, &mut self.vector_entries);
        fold(&shared.native_entries, &mut self.native_entries);
        fold(&shared.native_deopts, &mut self.native_deopts);
    }

    // ---------- cost hooks: compiled out unless TRACE ----------

    #[inline(always)]
    fn op(&mut self, k: OpKind) {
        self.op_n(k, 1);
    }

    #[inline(always)]
    fn op_n(&mut self, k: OpKind, n: u64) {
        if TRACE {
            self.st.cost.op_n(k, n);
        }
    }

    #[inline(always)]
    fn add_misc(&mut self, f: impl Fn(&mut CostCounters)) {
        if TRACE {
            self.st.cost.add_misc(f);
        }
    }

    /// Posts what [`BInstr::posts`] says one execution of `ins` costs.
    /// Called from the arm that matched and bound `ins` (`ins @ …`), so
    /// the inner match folds to that arm's constant and an untraced
    /// build never copies the instruction. (Binding it once before the
    /// dispatch `match` instead cost `sarb_warm` 2.7 %.)
    #[inline(always)]
    fn post(&mut self, ins: BInstr) {
        if TRACE {
            match ins.posts() {
                Posts::Free | Posts::Dynamic => {}
                Posts::Op(k) => self.st.cost.op_n(k, 1),
                Posts::Atomic => {
                    self.st.cost.add_misc(|c| c.atomics += 1);
                    self.st.cost.op_n(OpKind::Load, 1);
                    self.st.cost.op_n(OpKind::Store, 1);
                }
                Posts::Branch => self.st.cost.add_misc(|c| c.branches += 1),
            }
        }
    }

    // ---------- small helpers ----------

    #[inline(always)]
    fn pop(&mut self) -> u64 {
        self.stack.pop().expect("operand stack underflow")
    }

    #[inline(always)]
    fn push(&mut self, v: u64) {
        self.stack.push(v);
    }

    #[inline(always)]
    fn popf(&mut self) -> f64 {
        f64::from_bits(self.pop())
    }

    #[inline(always)]
    fn popi(&mut self) -> i64 {
        self.pop() as i64
    }

    fn var_name<'p>(&self, uidx: usize, v: u32) -> &'p str
    where
        'e: 'p,
    {
        &self.prog.units[uidx].vars[v as usize].name
    }

    /// Cached global array handle for cell `c` (None = unallocated).
    #[inline]
    fn gfill(&mut self, c: u32) {
        let slot = &mut self.gcache[c as usize];
        if slot.is_none() {
            *slot = self.ex.globals.cells[c as usize].array_handle(self.tid);
        }
    }

    /// Array handle of slot `vs` (interpreter's `array_handle`), as an
    /// owned handle — for handlers that iterate or keep it.
    fn handle_in(
        &mut self,
        uidx: usize,
        frame: &VFrame,
        vs: VSlot,
        v: u32,
    ) -> Result<Arc<ArrayObj>, RunError> {
        match vs {
            VSlot::A(s) => frame.a[s as usize]
                .clone()
                .ok_or_else(|| RunError::Unallocated { var: self.var_name(uidx, v).to_string() }),
            VSlot::GlobA(c) | VSlot::GlobS(c) => {
                self.gfill(c);
                self.gcache[c as usize]
                    .clone()
                    .ok_or_else(|| RunError::Unallocated { var: self.var_name(uidx, v).to_string() })
            }
            _ => Err(RunError::Type {
                msg: format!("`{}` is not an array", self.var_name(uidx, v)),
            }),
        }
    }

    /// Resolves one element access to its array and flat offset — the
    /// element-access fast path: no lock, no refcount, and the variable
    /// name is only looked up by [`elem_fault`] once a check has failed.
    /// `shape` is the static shape of a fixed frame array, if any.
    ///
    /// `#[inline]`, not `always` (likewise [`Self::gather_subs`]):
    /// forcing the body into all four element handlers of both
    /// `run_range` instantiations grew the dispatch loop enough to cost
    /// the `simulated` benchmark workload 10 % and `sarb_warm` 6 %.
    #[inline]
    fn elem_at<'s>(
        &'s mut self,
        uidx: usize,
        frame: &'s VFrame,
        (vs, v): (VSlot, u32),
        shape: Option<&SDims>,
        ix: &[i64],
    ) -> Result<(&'s ArrayObj, usize), RunError> {
        let prog = self.prog;
        let arr = match vs {
            VSlot::A(s) => frame.a[s as usize].as_deref(),
            VSlot::GlobA(c) | VSlot::GlobS(c) => {
                self.gfill(c);
                self.gcache[c as usize].as_deref()
            }
            _ => None,
        };
        let off = arr.and_then(|a| match shape {
            Some(sd) => elem_offset_static(sd, ix),
            None => a.offset_of(ix),
        });
        match (arr, off) {
            (Some(a), Some(off)) => Ok((a, off)),
            _ => Err(elem_fault(prog, uidx, vs, v, arr, ix)),
        }
    }

    /// Gathers the subscripts of an operand-addressed access into `ix`:
    /// slots and constants directly, `Stack` operands popped (they were
    /// pushed in subscript order, so walk the run backwards).
    #[inline]
    fn gather_subs(&mut self, frame: &VFrame, ops: &[SubOp], ix: &mut [i64; MAX_INLINE_RANK]) {
        for (d, op) in ops.iter().enumerate().rev() {
            ix[d] = match *op {
                SubOp::Slot(s) => frame.i[s as usize],
                SubOp::Const(c) => i64::from(c),
                SubOp::Stack => self.popi(),
            };
        }
    }

    /// Pops `n` subscripts (pushed in order) into a stack-local buffer.
    #[inline]
    fn pop_subs_into(&mut self, n: usize, buf: &mut [i64; MAX_INLINE_RANK]) {
        debug_assert!(n <= MAX_INLINE_RANK);
        let at = self.stack.len() - n;
        for (d, &b) in self.stack[at..].iter().enumerate() {
            buf[d] = b as i64;
        }
        self.stack.truncate(at);
    }

    fn vec_snapshot(&self) -> (VecClass, usize) {
        (self.st.cost.vec_mode, self.vec_stack.len())
    }

    fn vec_restore(&mut self, snap: (VecClass, usize)) {
        if TRACE {
            self.st.cost.vec_mode = snap.0;
            self.vec_stack.truncate(snap.1);
        }
    }

    // ---------- vector superinstruction execution ----------

    /// Fills the global-handle cache for every global cell `d` streams
    /// or loads from (its `globals` list), so
    /// [`Self::resolve_vec_streams`] and [`Self::fill_guarded`] can
    /// borrow from it immutably.
    fn prefetch_globals(
        gcache: &mut [Option<Arc<ArrayObj>>],
        ex: &Exec,
        tid: usize,
        d: &VecDesc,
    ) {
        for &c in &d.globals {
            if let Some(slot @ None) = gcache.get_mut(c as usize) {
                *slot = ex.globals.cells[c as usize].array_handle(tid);
            }
        }
    }

    /// Performs the guarded invariant loads of `d` into their hidden
    /// i-slots (region-private, so writing them commits nothing).
    /// `None` — an entry guard like any other — when a load would
    /// fault or is not of an INTEGER array: the scalar loop then
    /// raises the error where it belongs. Indices are checked, not
    /// trusted, like the stream resolution's.
    ///
    /// `#[inline(always)]`: its one caller is [`Self::exec_fast_loop`],
    /// and LLVM stopped inlining it into the traced instantiation when
    /// the entry began to read its trip count from the loop state, which
    /// cost `simulated` about 6 % in `ops_per_s` and `setup_s`.
    #[inline(always)]
    fn fill_guarded(
        gcache: &[Option<Arc<ArrayObj>>],
        fa: &[Option<Arc<ArrayObj>>],
        fi: &mut [i64],
        d: &VecDesc,
    ) -> Option<()> {
        for g in &d.guarded {
            let h = match g.vs {
                VSlot::A(s) => fa.get(s as usize)?.as_deref()?,
                VSlot::GlobA(c) | VSlot::GlobS(c) => gcache.get(c as usize)?.as_deref()?,
                _ => return None,
            };
            let mut ix = [0i64; MAX_INLINE_RANK];
            for (x, op) in ix.iter_mut().zip(&g.subs) {
                *x = match *op {
                    SubOp::Const(c) => i64::from(c),
                    SubOp::Slot(s) => *fi.get(s as usize)?,
                    SubOp::Stack => return None,
                };
            }
            let off = h.offset_of(ix.get(..g.subs.len())?).filter(|_| h.ty == ScalarTy::I)?;
            *fi.get_mut(g.slot as usize)? = h.get_i(off);
        }
        Some(())
    }

    /// Resolves every access stream of `d` for the whole range
    /// `[lo, hi]` into the caller's table `rt` (indexed like
    /// `d.accesses`): the array (borrowed from the frame's handle bank
    /// `fa` or the prefetched global-handle cache — no refcount
    /// traffic), the flat base offset at iteration `lo`, and the
    /// per-iteration element stride, with per-dimension bounds proven
    /// for the whole range — by lowering for a proven stream, whose
    /// bounds are one window test for all of them, by checked
    /// arithmetic here for the others. Shared by the vector and native
    /// tiers so both commit (or give up) on exactly the same guards.
    /// Returns `None` — no state touched but `rt` — when any guard
    /// fails: `[lo, hi]` outside the window, unallocated/mistyped
    /// handle, rank mismatch, subscript overflow, out-of-range endpoint
    /// extrema, or aliasing.
    fn resolve_vec_streams<'a>(
        gcache: &'a [Option<Arc<ArrayObj>>],
        fa: &'a [Option<Arc<ArrayObj>>],
        fi: &[i64],
        d: &VecDesc,
        lo: i64,
        hi: i64,
        rt: &mut VStreams<'a>,
    ) -> Option<()> {
        // Injected/corrupted descriptors (fault-injection harness) must
        // deopt, not index out of range: the length check and every
        // `get` below validate the stream count and the slot, cell and
        // invariant indices before touching the banks.
        if d.accesses.len() > VEC_MAX_ACCESSES {
            return None;
        }
        // The bounds of every proven stream, in one test.
        if lo < d.window.0 || hi > d.window.1 {
            return None;
        }
        for (a, out) in d.accesses.iter().zip(rt.iter_mut()) {
            let h = match a.vs {
                VSlot::A(s) => fa.get(s as usize)?.as_deref()?,
                VSlot::GlobA(c) | VSlot::GlobS(c) => gcache.get(c as usize)?.as_deref()?,
                _ => return None,
            };
            if let Some((base0, stride)) = a.proven {
                // The verified slot holds an array of the proven type and
                // shape, and `[lo, hi]` is inside the window: the offset
                // at `lo` is in bounds, so the wrapping sum is exact.
                let base = base0.wrapping_add(stride.wrapping_mul(lo));
                *out = Some(VStream { arr: h, base, stride });
                continue;
            }
            if h.ty != a.ty || h.dims.len() != a.subs.len() {
                return None;
            }
            let mut base: i64 = 0;
            let mut stride: i64 = 0;
            let mut dim_stride: i64 = 1;
            for (sub, &(dlo, dhi)) in a.subs.iter().zip(h.dims.iter()) {
                let inv = match sub.inv {
                    NO_SLOT => 0,
                    s => *fi.get(s as usize)?,
                };
                let at = |i: i64| {
                    sub.coeff.checked_mul(i)?.checked_add(sub.add)?.checked_add(inv)
                };
                let (at_lo, at_hi) = (at(lo)?, at(hi)?);
                // The subscript is affine in i, so its extrema over the
                // range sit at the endpoints.
                if at_lo.min(at_hi) < dlo || at_lo.max(at_hi) > dhi {
                    return None;
                }
                let ds = sub.coeff.checked_mul(dim_stride)?;
                base += (at_lo - dlo) * dim_stride;
                stride += ds;
                dim_stride *= (dhi - dlo + 1).max(0);
            }
            *out = Some(VStream { arr: h, base, stride });
        }
        // Aliasing: compile time only proved distinct *slots*. If a
        // written stream shares storage with any other stream they must
        // walk the exact same cells (a loop-independent dependence the
        // per-element statement order already honors); anything else —
        // offset overlap, different strides — re-runs scalar.
        for &(i, j) in &d.alias_pairs {
            let (a, b) = (rt.get(i as usize)?.as_ref()?, rt.get(j as usize)?.as_ref()?);
            if std::ptr::eq(a.arr, b.arr) && (a.base != b.base || a.stride != b.stride) {
                return None;
            }
        }
        Some(())
    }

    /// Runs a compiled region over iterations `[0, n)` in blocks of
    /// ~1024 scalar-equivalent steps, polling the deadline/token between
    /// blocks — the scalar `tick()` cadence. Returns the reduction
    /// accumulator (`acc` passed through when the region has none).
    #[allow(clippy::too_many_arguments)]
    fn enter_native(
        ex: &Exec,
        region: &NativeRegion,
        rt: &VStreams<'_>,
        pool: &[u64],
        streams: &mut Vec<JitStream>,
        n: i64,
        iter_cost: u32,
        acc: f64,
    ) -> Result<f64, RunError> {
        // Stream pointers address the element at iteration `lo`; every
        // offset `base + stride*k` for the whole range was proven
        // in-bounds (affine subscripts, endpoint extrema): by
        // `resolve_vec_streams` for a checked stream, by lowering for a
        // proven one, whose slot the verifier shows holds an array of the
        // proven shape (re-derived from the fixed frame array or fixed
        // global's declaration, no ALLOCATE/DEALLOCATE of it, no call or
        // entry argument binding it) while the entry checked `[lo, hi]`
        // against the window. So the emitted code needs no bounds checks.
        streams.clear();
        streams.extend(rt.iter().map_while(|s| s.as_ref()).map(|s| JitStream {
            // SAFETY: `base` is an in-bounds element offset of `cells`
            // (proven above), and `AtomicU64` has `u64`'s layout.
            ptr: unsafe { (s.arr.cells.as_ptr() as *mut u64).offset(s.base as isize) },
            stride8: s.stride * 8,
        }));
        let mut ctx = JitCtx {
            k0: 0,
            k1: 0,
            streams: streams.as_ptr(),
            pool: pool.as_ptr(),
            acc,
            spill: [0; 24],
        };
        let block = (1024 / i64::from(iter_cost.max(1))).max(1);
        let mut k0: i64 = 0;
        while k0 < n {
            if ex.limits.poll {
                ex.limits.check_interrupt(None)?;
            }
            let k1 = (k0 + block).min(n);
            ctx.k0 = k0;
            ctx.k1 = k1;
            // SAFETY: `rt` borrows every stream's array for the whole
            // call — the frame and the global-handle cache own the
            // `Arc`s for the entry's duration, and no `Alloc`/`Dealloc`
            // executes inside a region — so the stream pointers stay
            // valid; `streams`/`pool` outlive the call; every iteration
            // offset in `[k0, k1)` was proven in-bounds; the region was
            // emitted from a verifier-accepted descriptor. The VM owns
            // this frame's arrays meanwhile (same discipline as the
            // vector tier's relaxed loads/stores).
            unsafe { region.enter(&mut ctx) };
            k0 = k1;
        }
        Ok(ctx.acc)
    }

    /// The one entry of a `VecLoop` region: runs the whole loop on the
    /// best rung available — native code once the region is promoted,
    /// the chunked vector executor otherwise.
    ///
    /// `Ok(true)` — the loop ran (caller jumps to `exit`). `Ok(false)` —
    /// a guard failed, no program-visible state was touched (at most
    /// the region's own guarded-load slots) and the caller falls through
    /// to the scalar `DoHead`, which re-runs the loop — the whole nest,
    /// for a nest region — with the exact scalar semantics, including
    /// the bounds/limit error at the precise faulting iteration. The
    /// entry reads the trip count the loop's `DoInitC`/`DoInitK` fixed
    /// ([`intrinsics::do_trips`]), the one the head counts down, and a
    /// committed entry leaves the state that head would
    /// ([`Self::leave_do_state`]). All guards run once, before the first
    /// element is written, and both rungs commit on the same set, so a
    /// loop either completes on a fast rung or executes fully scalar,
    /// with bit-identical results. A guard failure on a promoted region
    /// is a *deopt*, counted on the session. Step pre-reservation is the same
    /// on every rung and exact: an entry that commits retires what the
    /// scalar loop would, `trip x iter_cost` (plus `taken x taken_cost`
    /// for a select) and the head once more to leave. A budget that
    /// cannot cover that sends the loop to the scalar head, so
    /// `RunLimits` trips at the same step on every rung. The interrupt
    /// cadence (one poll per ~1024 scalar-equivalent steps) is the same
    /// too, so cancellation trips identically.
    ///
    /// A Simulated run (`TRACE`) commits the same way and then posts
    /// `trip x iter_ledger` — what the scalar body would have posted one
    /// instruction at a time — under the bucket, CRITICAL depth and
    /// vectorization class in force, none of which can change inside
    /// the loop. It stays off the native rung: only the optimized build
    /// has a promotion table.
    ///
    /// `#[inline(never)]`: inlined into [`Self::run_range`], its one
    /// caller, it grows the scalar dispatch loop by 40 %, which cost
    /// `fun3d_warm` about 6 %.
    #[inline(never)]
    fn exec_fast_loop(
        &mut self,
        frame: &mut VFrame,
        bu: &'e BUnit,
        desc: u32,
        ctr: u32,
        left: u32,
        var: u32,
    ) -> Result<bool, RunError> {
        let ex = self.ex;
        let table = if TRACE { None } else { ex.native.as_deref() };
        // Profiled runs want per-iteration loop events, so they take the
        // scalar path.
        if self.prof.is_some() || (table.is_none() && !ex.vector_enabled) {
            return Ok(false);
        }
        let d = &bu.vecs[desc as usize];
        // A region whose body cost is not a per-iteration constant has
        // no ledger; a Simulated run counts it on the scalar head.
        let ledger = match &d.iter_ledger {
            _ if !TRACE => None,
            Some(l) => Some(l),
            None => return Ok(false),
        };
        // The trips the loop's `DoInitC`/`DoInitK` fixed. With none left
        // the scalar head exits at once, and no run finishes more than
        // `i64` holds.
        let (lo, n) = (frame.i[ctr as usize], frame.i[left as usize]);
        let Some(hi) = (n > 0).then(|| lo.checked_add(n - 1)).flatten() else {
            return Ok(false);
        };
        // Pre-reserve the steps the scalar loop would retire: every
        // trip, and the head once more to leave. If the budget can't
        // cover them, run scalar so it trips with the stock error at
        // the right iteration.
        let cost = (n as u64).saturating_mul(u64::from(d.iter_cost)).saturating_add(1);
        if ex.limits.max_steps.is_some_and(|max| self.steps.saturating_add(cost) > max) {
            return Ok(false);
        }
        // Promotion: the region's slot in the build's table runs it
        // natively once compiled, and until it settles counts this
        // entry's heat (compiling at the threshold; refusals settle too).
        let mut native = table.and_then(|t| {
            t.region(self.prog, self.bunits, self.cur_uidx, desc, ex.native_eager)
        });
        if native.is_none() && !ex.vector_enabled {
            return Ok(false);
        }
        // Same injected-corruption defense as the access streams: an
        // out-of-range accumulator slot deopts to the scalar head.
        let red_ok = d.red.is_none_or(|r| match r.vs {
            VSlot::F(s) => (s as usize) < frame.f.len(),
            VSlot::GlobS(c) => (c as usize) < ex.globals.cells.len(),
            _ => false,
        });
        Self::prefetch_globals(&mut self.gcache, ex, self.tid, d);
        let mut rt: VStreams<'_> = [None; VEC_MAX_ACCESSES];
        let resolved = red_ok
            && Self::fill_guarded(&self.gcache, &frame.a, &mut frame.i, d).is_some()
            && Self::resolve_vec_streams(&self.gcache, &frame.a, &frame.i, d, lo, hi, &mut rt)
                .is_some();
        if let Some(region) = native {
            if !resolved || d.accesses.len() != region.naccess {
                self.native_deopts += 1;
                native = None;
            }
        }
        if !resolved || (native.is_none() && !ex.vector_enabled) {
            return Ok(false);
        }
        if let Some(s) = &d.sel {
            // A masked select (never promoted) only reads, so it runs
            // before anything commits: what the scalar loop retires
            // depends on how many IFs are taken, and a budget that cannot
            // cover that still trips on the scalar path. It commits on
            // its own, leaving the shared commit below to the regions
            // that write.
            let Some((acc, taken)) =
                Self::run_select(ex, &mut self.iscratch, frame, d, s, &rt, lo, n)?
            else {
                return Ok(false);
            };
            let cost = cost.saturating_add(taken.saturating_mul(u64::from(d.taken_cost)));
            if ex.limits.max_steps.is_some_and(|max| self.steps.saturating_add(cost) > max) {
                return Ok(false);
            }
            self.steps = self.steps.saturating_add(cost);
            self.vector_entries += 1;
            frame.i[s.acc as usize] = acc;
            Self::leave_do_state(frame, d, ctr, left, hi, var);
            return Ok(true);
        }
        // Committed: all guards passed.
        self.steps = self.steps.saturating_add(cost);
        if let Some(l) = ledger {
            self.st.cost.post_scaled(l, n as u64);
        }
        let acc = d.red.map(|r| match r.vs {
            VSlot::F(s) => frame.f[s as usize],
            VSlot::GlobS(c) => f64::from_bits(ex.globals.cells[c as usize].load_bits(self.tid)),
            _ => unreachable!("verified reduction accumulator slot"),
        });
        let acc = match native {
            Some(region) => {
                self.native_entries += 1;
                // Resolve the loop-invariant operand pool from the
                // region's recipe (frame scalars / globals can change
                // between entries; the machine code only sees pool
                // offsets). Pool and stream buffers are per-VM scratch,
                // reused across entries.
                self.npool.clear();
                self.npool.extend(region.pool.iter().map(|e| match *e {
                    PoolEntry::ConstF(b) => b,
                    PoolEntry::FrameF(s) => frame.f[s as usize].to_bits(),
                    PoolEntry::GlobF(c) => ex.globals.cells[c as usize].load_bits(self.tid),
                    PoolEntry::ICoeff(c) => c as u64,
                    PoolEntry::IBase { coeff, add, inv } => {
                        let invv = match inv {
                            NO_SLOT => 0,
                            s => frame.i[s as usize],
                        };
                        coeff.wrapping_mul(lo).wrapping_add(add).wrapping_add(invv) as u64
                    }
                }));
                let acc0 = acc.unwrap_or(0.0);
                let out = Self::enter_native(
                    ex,
                    region,
                    &rt,
                    &self.npool,
                    &mut self.nstreams,
                    n,
                    d.iter_cost,
                    acc0,
                )?;
                acc.map(|_| out)
            }
            None => {
                self.vector_entries += 1;
                Self::run_chunks(ex, self.tid, &mut self.vbuf, frame, d, &rt, lo, n, acc)?
            }
        };
        if let (Some(r), Some(a)) = (d.red, acc) {
            match r.vs {
                VSlot::F(s) => frame.f[s as usize] = a,
                VSlot::GlobS(c) => {
                    ex.globals.cells[c as usize].store_bits(self.tid, a.to_bits());
                }
                _ => unreachable!("verified reduction accumulator slot"),
            }
        }
        Self::leave_do_state(frame, d, ctr, left, hi, var);
        Ok(true)
    }

    /// Leaves the DO state exactly as the scalar head/incr would: the
    /// variable holds the last iteration `hi`, the counter one step past
    /// it and no trip is left — and likewise for the inner loops of a
    /// nest.
    #[inline(always)]
    fn leave_do_state(frame: &mut VFrame, d: &VecDesc, ctr: u32, left: u32, hi: i64, var: u32) {
        frame.i[var as usize] = hi;
        frame.i[ctr as usize] = hi.wrapping_add(1);
        frame.i[left as usize] = 0;
        for &(slot, v) in &d.exit_state {
            frame.i[slot as usize] = v;
        }
    }

    /// The vector rung: iterations `[0, n)` of `d` as chunked slice
    /// loops over [`VEC_CHUNK`] lanes. Returns the reduction accumulator
    /// (`acc` passed through when the region has none).
    ///
    /// `#[inline(always)]`: its one caller is [`Self::exec_fast_loop`],
    /// and LLVM stopped inlining it there when the entry counters became
    /// plain fields, which cost `sarb_warm` and `fun3d_warm` 2 % each
    /// (~20 ns per `VecLoop` entry).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn run_chunks(
        ex: &Exec,
        tid: usize,
        vbuf: &mut Vec<f64>,
        frame: &VFrame,
        d: &VecDesc,
        rt: &VStreams<'_>,
        lo: i64,
        n: i64,
        mut acc: Option<f64>,
    ) -> Result<Option<f64>, RunError> {
        if d.stmts.is_empty() {
            return Ok(acc);
        }
        // A verified lane op only names declared accesses, all resolved.
        let stream = |ai: u32| rt[ai as usize].expect("resolved access stream");
        // Every lane is written before it is read: grow, never clear.
        // The running value's lanes sit past the operand depths.
        let run_at = (d.max_depth as usize).max(1) * VEC_CHUNK;
        let need = run_at + VEC_CHUNK;
        if vbuf.len() < need {
            vbuf.resize(need, 0.0);
        }
        let vbuf = vbuf.as_mut_slice();
        // The accumulator statement's index; past the last without one.
        let acc_stmt = d.red.map_or(d.stmts.len(), |r| r.stmt as usize);
        let mut k0: i64 = 0;
        while k0 < n {
            // The scalar tick() only polls the deadline/token every
            // 1024 steps; checking every chunk is at least as prompt.
            if ex.limits.poll {
                ex.limits.check_interrupt(None)?;
            }
            let m = ((n - k0) as usize).min(VEC_CHUNK);
            for (k, ops) in d.stmts.iter().enumerate() {
                let mut dep = 0usize;
                for op in ops {
                    match *op {
                        VecOp::Load(ai) => {
                            let VStream { arr, base, stride } = stream(ai);
                            let mut off = base + stride * k0;
                            for x in &mut vbuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m] {
                                *x = arr.get_f(off as usize);
                                off += stride;
                            }
                            dep += 1;
                        }
                        VecOp::Running => {
                            vbuf.copy_within(run_at..run_at + m, dep * VEC_CHUNK);
                            dep += 1;
                        }
                        VecOp::Splat(c) => {
                            vbuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m].fill(c);
                            dep += 1;
                        }
                        VecOp::SplatF(s) => {
                            vbuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m]
                                .fill(frame.f[s as usize]);
                            dep += 1;
                        }
                        VecOp::SplatG(c) => {
                            let v = f64::from_bits(ex.globals.cells[c as usize].load_bits(tid));
                            vbuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m].fill(v);
                            dep += 1;
                        }
                        VecOp::SplatI { coeff, add, inv } => {
                            let invv = match inv {
                                NO_SLOT => 0,
                                s => frame.i[s as usize],
                            };
                            let i0 = lo.wrapping_add(k0);
                            for (j, x) in vbuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m]
                                .iter_mut()
                                .enumerate()
                            {
                                let i = i0.wrapping_add(j as i64);
                                *x = coeff.wrapping_mul(i).wrapping_add(add).wrapping_add(invv)
                                    as f64;
                            }
                            dep += 1;
                        }
                        VecOp::Add | VecOp::Sub | VecOp::Mul | VecOp::Div | VecOp::Pow => {
                            let at = (dep - 2) * VEC_CHUNK;
                            let (a, b) = vbuf[at..].split_at_mut(VEC_CHUNK);
                            let (a, b) = (&mut a[..m], &b[..m]);
                            match *op {
                                VecOp::Add => {
                                    for (x, y) in a.iter_mut().zip(b) {
                                        *x += y;
                                    }
                                }
                                VecOp::Sub => {
                                    for (x, y) in a.iter_mut().zip(b) {
                                        *x -= y;
                                    }
                                }
                                VecOp::Mul => {
                                    for (x, y) in a.iter_mut().zip(b) {
                                        *x *= y;
                                    }
                                }
                                VecOp::Div => {
                                    for (x, y) in a.iter_mut().zip(b) {
                                        *x /= y;
                                    }
                                }
                                _ => {
                                    for (x, &y) in a.iter_mut().zip(b.iter()) {
                                        *x = x.powf(y);
                                    }
                                }
                            }
                            dep -= 1;
                        }
                        VecOp::PowI(e) => {
                            let lanes = &mut vbuf[(dep - 1) * VEC_CHUNK..][..m];
                            // One loop per unrolled exponent: its lanes
                            // multiply inline instead of calling powi.
                            match e {
                                2 => map_lanes(lanes, |x| powi_lane(x, 2)),
                                3 => map_lanes(lanes, |x| powi_lane(x, 3)),
                                4 => map_lanes(lanes, |x| powi_lane(x, 4)),
                                _ => map_lanes(lanes, |x| x.powi(e)),
                            }
                        }
                        VecOp::Neg => {
                            let at = (dep - 1) * VEC_CHUNK;
                            for x in &mut vbuf[at..at + m] {
                                *x = -*x;
                            }
                        }
                        VecOp::Intr { f, argc } => {
                            let na = argc as usize;
                            dep -= na;
                            // The first argument's lanes take the result;
                            // `rest` holds the others, one chunk each.
                            let (lanes, rest) = vbuf[dep * VEC_CHUNK..(dep + na) * VEC_CHUNK]
                                .split_at_mut(VEC_CHUNK);
                            intr_lanes(f, &mut lanes[..m], rest);
                            dep += 1;
                        }
                        VecOp::Store(ai) => {
                            dep -= 1;
                            let VStream { arr, base, stride } = stream(ai);
                            let mut off = base + stride * k0;
                            for &x in &vbuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m] {
                                arr.set_f(off as usize, x);
                                off += stride;
                            }
                        }
                    }
                }
                if k == acc_stmt {
                    if let (Some(r), Some(a)) = (d.red, acc.as_mut()) {
                        // The accumulator statement left its term lanes
                        // at depth 0: fold them in iteration order with
                        // the accumulator on the side it held in source,
                        // keeping each lane's running value for the
                        // statements after it.
                        let (terms, run) = vbuf.split_at_mut(run_at);
                        let later = k + 1 < d.stmts.len();
                        fold_lanes(r, a, &terms[..m], later.then(|| &mut run[..m]));
                    }
                }
            }
            k0 += m as i64;
        }
        Ok(acc)
    }

    /// The masked select rung: iterations `[0, n)` of `d`'s mask as
    /// chunked INTEGER lane loops over [`VEC_CHUNK`] lanes, each true
    /// lane's term folded into the accumulator in iteration order by
    /// the scalar tier's own `MAX`/`MIN`. Reads only: returns the folded
    /// accumulator and how many lanes the mask took, for the caller to
    /// reserve and commit, or `None` (a failed guard) when the
    /// accumulator slot is outside the frame.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn run_select(
        ex: &Exec,
        ibuf: &mut Vec<i64>,
        frame: &VFrame,
        d: &VecDesc,
        s: &VecSel,
        rt: &VStreams<'_>,
        lo: i64,
        n: i64,
    ) -> Result<Option<(i64, u64)>, RunError> {
        // A verified mask only loads declared INTEGER reads, all resolved.
        let stream = |ai: u32| rt[ai as usize].expect("resolved access stream");
        // `coeff*i + (add + inv)`: wrapping addition reassociates.
        let offset = |sub: &VecSub| match sub.inv {
            NO_SLOT => sub.add,
            slot => sub.add.wrapping_add(frame.i[slot as usize]),
        };
        // Every lane is written before it is read: no clearing.
        let need = (d.max_depth as usize).max(1) * VEC_CHUNK;
        if ibuf.len() < need {
            ibuf.resize(need, 0);
        }
        let (term_coeff, term_offset) = (s.term.coeff, offset(&s.term));
        // Same injected-corruption defense as a reduction's accumulator.
        let Some(&acc0) = frame.i.get(s.acc as usize) else { return Ok(None) };
        let (mut acc, mut taken) = (acc0, 0u64);
        let mut k0: i64 = 0;
        while k0 < n {
            if ex.limits.poll {
                ex.limits.check_interrupt(None)?;
            }
            let m = ((n - k0) as usize).min(VEC_CHUNK);
            let i0 = lo.wrapping_add(k0);
            let mut dep = 0usize;
            for op in &s.mask {
                match *op {
                    MaskOp::Load(ai) => {
                        let VStream { arr, base, stride } = stream(ai);
                        let mut off = base + stride * k0;
                        for x in &mut ibuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m] {
                            *x = arr.get_i(off as usize);
                            off += stride;
                        }
                        dep += 1;
                    }
                    MaskOp::Affine(sub) => {
                        let at = offset(&sub);
                        let lanes = &mut ibuf[dep * VEC_CHUNK..dep * VEC_CHUNK + m];
                        for (j, x) in lanes.iter_mut().enumerate() {
                            *x = sub.coeff.wrapping_mul(i0.wrapping_add(j as i64)).wrapping_add(at);
                        }
                        dep += 1;
                    }
                    MaskOp::Not => {
                        for x in &mut ibuf[(dep - 1) * VEC_CHUNK..(dep - 1) * VEC_CHUNK + m] {
                            *x ^= 1;
                        }
                    }
                    MaskOp::Cmp(_) | MaskOp::And | MaskOp::Or => {
                        let (a, b) = ibuf[(dep - 2) * VEC_CHUNK..].split_at_mut(VEC_CHUNK);
                        for (x, &y) in a[..m].iter_mut().zip(&b[..m]) {
                            *x = i64::from(match *op {
                                MaskOp::Cmp(c) => c.holds(*x, y),
                                MaskOp::And => *x != 0 && y != 0,
                                _ => *x != 0 || y != 0,
                            });
                        }
                        dep -= 1;
                    }
                }
            }
            for (j, _) in ibuf[..m].iter().enumerate().filter(|(_, &t)| t != 0) {
                let i = i0.wrapping_add(j as i64);
                acc = s.f.eval_i(&[acc, term_coeff.wrapping_mul(i).wrapping_add(term_offset)]);
                taken += 1;
            }
            k0 += m as i64;
        }
        Ok(Some((acc, taken)))
    }

    // ---------- the dispatch loop ----------

    /// Runs `[lo, hi)` of unit `uidx`. A fused span's S and set-up run
    /// here speculated (`SpanEnter`): whatever they raise — a fault, a
    /// limit, a cancellation — is dropped, what the span changed is put
    /// back, and the run resumes at the span's original statements,
    /// which raise it again or raise something before it.
    fn run_range(
        &mut self,
        uidx: usize,
        frame: &mut VFrame,
        lo: u32,
        hi: u32,
    ) -> Result<Flow, RunError> {
        let mut at = lo;
        loop {
            let mut spec = None;
            match self.dispatch(uidx, frame, at, hi, &mut spec) {
                Err(e) => match spec {
                    Some(s) => {
                        self.fall_back(s);
                        at = s.fused + 1;
                    }
                    None => return Err(e),
                },
                ok => return ok,
            }
        }
    }

    /// The dispatch loop over `[lo, hi)`; `spec` is the span it is
    /// speculating, if any.
    #[inline(always)]
    fn dispatch(
        &mut self,
        uidx: usize,
        frame: &mut VFrame,
        lo: u32,
        hi: u32,
        spec: &mut Option<Spec>,
    ) -> Result<Flow, RunError> {
        let bu: &'e BUnit = &self.bunits[uidx];
        let code: &'e [BInstr] = &bu.code;
        let mut pc = lo as usize;
        let hi = hi as usize;
        self.cur_uidx = uidx;
        while pc < hi {
            self.cur_pc = pc as u32;
            // No line: attribution happens in `vm_ctx` at the catch site
            // (`line_for_pc` is a table walk; keep the hot path lean).
            self.ex.limits.tick(&mut self.steps, 0)?;
            match code[pc] {
                BInstr::Const(b) => self.push(b),
                BInstr::LoadI(s) => self.push(frame.i[s as usize] as u64),
                BInstr::LoadF(s) => self.push(frame.f[s as usize].to_bits()),
                BInstr::LoadB(s) => self.push(u64::from(frame.b[s as usize])),
                BInstr::StoreI(s) => frame.i[s as usize] = self.pop() as i64,
                BInstr::StoreF(s) => frame.f[s as usize] = f64::from_bits(self.pop()),
                BInstr::StoreB(s) => frame.b[s as usize] = self.pop() != 0,
                BInstr::SetI { dst, aff } => {
                    frame.i[dst as usize] = bu.affine[aff as usize].eval(&frame.i);
                }
                ins @ BInstr::LoadG(c) => {
                    self.post(ins);
                    self.push(self.ex.globals.cells[c as usize].load_bits(self.tid));
                }
                ins @ BInstr::StoreG(c) => {
                    self.post(ins);
                    let bits = self.pop();
                    self.ex.globals.cells[c as usize].store_bits(self.tid, bits);
                }
                BInstr::CvtIF => {
                    let v = self.popi();
                    self.push((v as f64).to_bits());
                }
                BInstr::CvtFI => {
                    let v = self.popf();
                    self.push((v.trunc() as i64) as u64);
                }
                BInstr::CvtIB => {
                    let v = self.popi();
                    self.push(u64::from(v != 0));
                }
                BInstr::CvtFB => {
                    let v = self.popf();
                    self.push(u64::from(v != 0.0));
                }
                ins @ BInstr::AddF => {
                    let (b, a) = (self.popf(), self.popf());
                    self.post(ins);
                    self.push((a + b).to_bits());
                }
                ins @ BInstr::SubF => {
                    let (b, a) = (self.popf(), self.popf());
                    self.post(ins);
                    self.push((a - b).to_bits());
                }
                ins @ BInstr::MulF => {
                    let (b, a) = (self.popf(), self.popf());
                    self.post(ins);
                    self.push((a * b).to_bits());
                }
                ins @ BInstr::DivF => {
                    let (b, a) = (self.popf(), self.popf());
                    self.post(ins);
                    self.push((a / b).to_bits());
                }
                ins @ BInstr::PowFF => {
                    let (b, a) = (self.popf(), self.popf());
                    self.post(ins);
                    self.push(intrinsics::pow_f(a, b).to_bits());
                }
                ins @ BInstr::PowFI => {
                    let e = self.popi();
                    let x = self.popf();
                    self.post(ins);
                    self.push(intrinsics::pow_fi(x, e).to_bits());
                }
                ins @ BInstr::NegF => {
                    let x = self.popf();
                    self.post(ins);
                    self.push((-x).to_bits());
                }
                ins @ BInstr::AddI => {
                    let (b, a) = (self.popi(), self.popi());
                    self.post(ins);
                    self.push(a.wrapping_add(b) as u64);
                }
                ins @ BInstr::SubI => {
                    let (b, a) = (self.popi(), self.popi());
                    self.post(ins);
                    self.push(a.wrapping_sub(b) as u64);
                }
                ins @ BInstr::MulI => {
                    let (b, a) = (self.popi(), self.popi());
                    self.post(ins);
                    self.push(a.wrapping_mul(b) as u64);
                }
                ins @ BInstr::DivI => {
                    let (b, a) = (self.popi(), self.popi());
                    self.post(ins);
                    self.push(intrinsics::div_i(a, b)? as u64);
                }
                ins @ BInstr::PowII => {
                    let (b, a) = (self.popi(), self.popi());
                    self.post(ins);
                    self.push(intrinsics::pow_i(a, b) as u64);
                }
                ins @ BInstr::NegI => {
                    let x = self.popi();
                    self.post(ins);
                    self.push(intrinsics::neg_i(x) as u64);
                }
                ins @ BInstr::NotB => {
                    let x = self.pop();
                    self.post(ins);
                    self.push(u64::from(x == 0));
                }
                ins @ BInstr::AndB => {
                    let (b, a) = (self.pop(), self.pop());
                    self.post(ins);
                    self.push(u64::from(a != 0 && b != 0));
                }
                ins @ BInstr::OrB => {
                    let (b, a) = (self.pop(), self.pop());
                    self.post(ins);
                    self.push(u64::from(a != 0 || b != 0));
                }
                ins @ BInstr::CmpF(c) => {
                    let (b, a) = (self.popf(), self.popf());
                    self.post(ins);
                    self.push(u64::from(c.holds(a, b)));
                }
                ins @ BInstr::CmpI(c) => {
                    let (b, a) = (self.popi(), self.popi());
                    self.post(ins);
                    self.push(u64::from(c.holds(a, b)));
                }
                BInstr::FailArith2 => return Err(intrinsics::logical_arith()),
                BInstr::FailNegB => {
                    self.op(OpKind::IOp);
                    return Err(intrinsics::logical_neg());
                }
                BInstr::FailType { msg } => {
                    return Err(RunError::Type { msg: bu.msgs[msg as usize].clone() });
                }
                ins @ BInstr::IntrI { f, argc } => {
                    let n = argc as usize;
                    let at = self.stack.len() - n;
                    self.iscratch.clear();
                    self.iscratch.extend(self.stack[at..].iter().map(|&b| b as i64));
                    self.stack.truncate(at);
                    self.post(ins);
                    let r = f.eval_i(&self.iscratch);
                    self.push(r as u64);
                }
                ins @ BInstr::IntrF { f, argc } => {
                    let n = argc as usize;
                    let at = self.stack.len() - n;
                    self.fscratch.clear();
                    self.fscratch.extend(self.stack[at..].iter().map(|&b| f64::from_bits(b)));
                    self.stack.truncate(at);
                    self.post(ins);
                    self.push(f.call_f(&self.fscratch).to_bits(f.result_ty(ScalarTy::F)));
                }
                ins @ BInstr::LoadElemS { vs, v, subs, n, sd, want } => {
                    let n = n as usize;
                    let mut ix = [0i64; MAX_INLINE_RANK];
                    self.gather_subs(frame, &bu.subops[subs as usize..subs as usize + n], &mut ix);
                    let shape = (sd != NO_SDIMS).then(|| &bu.sdims[sd as usize]);
                    let (arr, off) = self.elem_at(uidx, frame, (vs, v), shape, &ix[..n])?;
                    let bits = load_elem_bits(arr, off, want);
                    self.post(ins);
                    self.push(bits);
                }
                ins @ BInstr::StoreElemS { vs, v, subs, n, sd, src } => {
                    let bits = self.pop();
                    let n = n as usize;
                    let mut ix = [0i64; MAX_INLINE_RANK];
                    self.gather_subs(frame, &bu.subops[subs as usize..subs as usize + n], &mut ix);
                    let shape = (sd != NO_SDIMS).then(|| &bu.sdims[sd as usize]);
                    let (arr, off) = self.elem_at(uidx, frame, (vs, v), shape, &ix[..n])?;
                    store_elem_bits(arr, off, bits, src);
                    self.post(ins);
                }
                BInstr::ArrRed { f, vs, v, want } => {
                    let arr = self.handle_in(uidx, frame, vs, v)?;
                    self.op_n(OpKind::Load, arr.len() as u64);
                    self.op_n(OpKind::Flop, arr.len() as u64);
                    self.push(intrinsics::reduce(f, &arr).to_bits(want));
                }
                BInstr::AllocatedQ { vs } => {
                    let alloc = match vs {
                        VSlot::A(s) => frame.a[s as usize].is_some(),
                        VSlot::GlobA(c) | VSlot::GlobS(c) => {
                            self.ex.globals.cells[c as usize].array_handle(self.tid).is_some()
                        }
                        _ => false,
                    };
                    self.push(u64::from(alloc));
                }
                BInstr::Broadcast { vs, v, src } => {
                    let bits = self.pop();
                    let arr = self.handle_in(uidx, frame, vs, v)?;
                    let n = arr.len();
                    self.op_n(OpKind::Store, n as u64);
                    let val = Val::from_bits(bits, src);
                    for off in 0..n {
                        store_val(&arr, off, val);
                    }
                }
                BInstr::CopyArr { dvs, dv, svs, sv } => {
                    let d = self.handle_in(uidx, frame, dvs, dv)?;
                    let s = self.handle_in(uidx, frame, svs, sv)?;
                    if d.len() != s.len() {
                        return Err(RunError::Type {
                            msg: format!("array copy shape mismatch: {} vs {}", d.len(), s.len()),
                        });
                    }
                    let n = d.len();
                    self.op_n(OpKind::Load, n as u64);
                    self.op_n(OpKind::Store, n as u64);
                    for off in 0..n {
                        d.set_bits(off, s.get_bits(off));
                    }
                }
                ins @ BInstr::AtomicScal { vs, v: _, op, ety, vty } => {
                    let delta = Val::from_bits(self.pop(), ety);
                    self.post(ins);
                    match vs {
                        VSlot::GlobS(c) => {
                            let atom = self.ex.globals.cells[c as usize].scalar_atomic(self.tid);
                            atomic_update(atom, vty, op, delta);
                        }
                        _ => {
                            // Frame scalar: thread-private anyway; plain RMW.
                            let cur = Val::from_bits(frame.read(vs, self.ex, self.tid), vty);
                            let nv = combine_vals(vty, op, cur, delta);
                            frame.write(vs, vty, nv, self.ex, self.tid);
                        }
                    }
                }
                ins @ BInstr::AtomicElem { vs, v, op, nsubs, ety } => {
                    let n = nsubs as usize;
                    let mut subs = [0i64; MAX_INLINE_RANK];
                    self.pop_subs_into(n, &mut subs);
                    let delta = Val::from_bits(self.pop(), ety);
                    self.post(ins);
                    let arr = self.handle_in(uidx, frame, vs, v)?;
                    let off = arr.offset(self.var_name(uidx, v), &subs[..n])?;
                    if arr.ty == ScalarTy::B {
                        return Err(RunError::Type { msg: "ATOMIC on LOGICAL".into() });
                    }
                    atomic_update(&arr.cells[off], arr.ty, op, delta);
                }
                BInstr::Alloc { vs, v, ndims, ty } => {
                    let at = self.stack.len() - 2 * ndims as usize;
                    let rd: Vec<(i64, i64)> =
                        self.stack[at..].chunks(2).map(|b| (b[0] as i64, b[1] as i64)).collect();
                    self.stack.truncate(at);
                    let len = ArrayObj::checked_len(&rd)?;
                    self.add_misc(|c| {
                        c.alloc_calls += 1;
                        c.alloc_bytes += (len * 8) as u64;
                    });
                    match vs {
                        VSlot::A(s) => {
                            if frame.a[s as usize].is_some() {
                                let var = self.var_name(uidx, v).to_string();
                                return Err(RunError::AlreadyAllocated { var });
                            }
                            frame.a[s as usize] = Some(Arc::new(ArrayObj::new(ty, rd)));
                        }
                        VSlot::GlobA(c) | VSlot::GlobS(c) => {
                            let var = self.var_name(uidx, v);
                            self.ex.globals.cells[c as usize].allocate(self.tid, var, ty, &rd)?;
                            self.gcache[c as usize] = None;
                        }
                        _ => unreachable!("ALLOCATE of a scalar"),
                    }
                }
                BInstr::Dealloc { vs, v } => {
                    match vs {
                        VSlot::A(s) => {
                            if frame.a[s as usize].take().is_none() {
                                let var = self.var_name(uidx, v).to_string();
                                return Err(RunError::Unallocated { var });
                            }
                        }
                        VSlot::GlobA(c) | VSlot::GlobS(c) => {
                            let var = self.var_name(uidx, v);
                            self.ex.globals.cells[c as usize].deallocate(self.tid, var)?;
                            self.gcache[c as usize] = None;
                        }
                        _ => unreachable!("DEALLOCATE of a scalar"),
                    }
                }
                BInstr::Jump(t) => {
                    // EXIT jumps land exactly on a loop's end pc; any
                    // other jump target sits strictly inside every open
                    // loop, making this a no-op for them.
                    if let Some(p) = self.prof {
                        p.close_loops_at(t);
                    }
                    pc = t as usize;
                    continue;
                }
                BInstr::JumpIfFalse(t) => {
                    if self.pop() == 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                ins @ BInstr::CostBranch => self.post(ins),
                BInstr::VecEnter(v) => {
                    if TRACE {
                        self.vec_stack.push(self.st.cost.vec_mode);
                        self.st.cost.vec_mode = v;
                    }
                }
                BInstr::VecLeave => {
                    if TRACE {
                        self.st.cost.vec_mode = self.vec_stack.pop().unwrap_or(VecClass::None);
                    }
                }
                ins @ (BInstr::DoInitC { ctr, left } | BInstr::DoInitK { ctr, left, .. }) => {
                    let (s, e) = match ins {
                        BInstr::DoInitK { lo, hi, .. } => (i64::from(lo), i64::from(hi)),
                        _ => {
                            let e = self.popi();
                            (self.popi(), e)
                        }
                    };
                    frame.i[left as usize] = intrinsics::do_trips(s, e, 1) as i64;
                    frame.i[ctr as usize] = s;
                    if let Some(p) = self.prof {
                        if let Some(site) = bu.loop_site_at(pc as u32) {
                            p.loop_enter(site.line, site.end_pc);
                        }
                    }
                }
                BInstr::VecLoop { desc, ctr, left, var, exit } => {
                    let ran = match spec.take_if(|s| s.fused == pc as u32) {
                        Some(s) => self.span_commit(frame, bu, s, desc, ctr, left, var)?,
                        None => self.exec_fast_loop(frame, bu, desc, ctr, left, var)?,
                    };
                    if ran {
                        pc = exit as usize;
                        continue;
                    }
                    // Refused: fall through to the scalar head, or to a
                    // fused span's original statements.
                }
                BInstr::DoInit { ctr, left, step, check } => {
                    let st = self.popi();
                    let e = self.popi();
                    let s = self.popi();
                    if check && st == 0 {
                        return Err(RunError::Arith { msg: "zero DO step".into() });
                    }
                    frame.i[step as usize] = st;
                    frame.i[left as usize] = intrinsics::do_trips(s, e, st) as i64;
                    frame.i[ctr as usize] = s;
                    if let Some(p) = self.prof {
                        if let Some(site) = bu.loop_site_at(pc as u32) {
                            p.loop_enter(site.line, site.end_pc);
                        }
                    }
                }
                BInstr::DoHead { ctr, left, var, exit } => {
                    let n = frame.i[left as usize];
                    if n == 0 {
                        if let Some(p) = self.prof {
                            p.close_loops_at(exit);
                        }
                        pc = exit as usize;
                        continue;
                    }
                    frame.i[left as usize] = n.wrapping_sub(1);
                    frame.i[var as usize] = frame.i[ctr as usize];
                }
                BInstr::DoIncr1 { ctr, head } => {
                    frame.i[ctr as usize] = frame.i[ctr as usize].wrapping_add(1);
                    pc = head as usize;
                    continue;
                }
                BInstr::DoIncr { ctr, step, head } => {
                    frame.i[ctr as usize] =
                        frame.i[ctr as usize].wrapping_add(frame.i[step as usize]);
                    pc = head as usize;
                    continue;
                }
                BInstr::CheckStepNZ => {
                    if *self.stack.last().expect("step on stack") as i64 == 0 {
                        return Err(RunError::Arith { msg: "zero DO step".into() });
                    }
                }
                BInstr::FlowExit => return Ok(Flow::Exit),
                BInstr::FlowCycle => return Ok(Flow::Cycle),
                BInstr::FlowReturn => return Ok(Flow::Return),
                BInstr::Critical { name, end, exit, cycle } => {
                    if TRACE {
                        self.st.cost.enter_critical();
                    }
                    let snap = self.vec_snapshot();
                    // Only team members of a real fork contend for the lock.
                    let section = &bu.msgs[name as usize];
                    let guard = self.st.in_real_region.then(|| self.ex.critical.enter(section));
                    let r = self.run_range(uidx, frame, pc as u32 + 1, end);
                    drop(guard);
                    if TRACE {
                        self.st.cost.leave_critical();
                    }
                    match r? {
                        Flow::Normal => {
                            pc = end as usize;
                            continue;
                        }
                        Flow::Exit => {
                            self.vec_restore(snap);
                            if exit == NO_PC {
                                return Ok(Flow::Exit);
                            }
                            if let Some(p) = self.prof {
                                p.close_loops_at(exit);
                            }
                            pc = exit as usize;
                            continue;
                        }
                        Flow::Cycle => {
                            self.vec_restore(snap);
                            if cycle == NO_PC {
                                return Ok(Flow::Cycle);
                            }
                            pc = cycle as usize;
                            continue;
                        }
                        Flow::Return => return Ok(Flow::Return),
                    }
                }
                BInstr::OmpDo { desc } => {
                    let omp_line = bu.line_for_pc(pc as u32).unwrap_or(0);
                    if let Some(p) = self.prof {
                        p.omp_enter(omp_line);
                    }
                    let flow = self.exec_omp(uidx, frame, bu, desc as usize, omp_line)?;
                    if let Some(p) = self.prof {
                        p.omp_exit();
                    }
                    match flow {
                        Flow::Normal => {
                            pc = bu.omps[desc as usize].body.1 as usize;
                            continue;
                        }
                        Flow::Return => return Ok(Flow::Return),
                        _ => unreachable!("OMP nest yields Normal or Return"),
                    }
                }
                BInstr::CallPre => {
                    if self.depth >= self.ex.limits.max_call_depth {
                        return Err(RunError::Limit { msg: "call depth exceeded".into() });
                    }
                    self.add_misc(|c| c.calls += 1);
                }
                BInstr::StashElem { vs, v, nsubs, want } => {
                    let n = nsubs as usize;
                    let mut subs = [0i64; MAX_INLINE_RANK];
                    self.pop_subs_into(n, &mut subs);
                    let arr = self.handle_in(uidx, frame, vs, v)?;
                    let off = arr.offset(self.var_name(uidx, v), &subs[..n])?;
                    self.op(OpKind::Load);
                    self.sstash.extend_from_slice(&subs[..n]);
                    self.push(load_elem_bits(&arr, off, want));
                }
                BInstr::PushArr { vs, v } => {
                    let h = self.handle_in(uidx, frame, vs, v)?;
                    self.astack.push(h);
                }
                BInstr::Call { spec, push } => {
                    let ret = self.exec_call(uidx, frame, bu, spec as usize)?;
                    if push {
                        match ret {
                            Some(bits) => self.push(bits),
                            None => {
                                return Err(RunError::Type {
                                    msg: "function returned nothing".into(),
                                });
                            }
                        }
                    }
                }
                BInstr::Print { spec } => {
                    let items = &bu.prints[spec as usize];
                    let nvals = items.iter().filter(|i| matches!(i, PItem::Val(_))).count();
                    let at = self.stack.len() - nvals;
                    let mut line = String::new();
                    let mut vi = at;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            line.push(' ');
                        }
                        match item {
                            PItem::Str(s) => line.push_str(s),
                            PItem::Val(ty) => {
                                intrinsics::print_item(&mut line, Val::from_bits(self.stack[vi], *ty));
                                vi += 1;
                            }
                        }
                    }
                    self.stack.truncate(at);
                    line.push('\n');
                    self.st.out.push_str(&line);
                }
                BInstr::Stop { msg } => {
                    return Err(RunError::Stop { msg: bu.msgs[msg as usize].clone() });
                }
                BInstr::InlineEnter { desc } => self.inline_enter(bu, frame, desc)?,
                BInstr::SpanEnter { span } => {
                    let d = &bu.spans[span as usize];
                    let ex = self.ex;
                    if TRACE || self.prof.is_some() || (!ex.vector_enabled && ex.native.is_none()) {
                        self.steps -= 1;
                        pc = d.fused as usize + 1;
                        continue;
                    }
                    *spec = Some(Spec {
                        span,
                        saved: self.steps - 1,
                        depth: self.stack.len(),
                        fused: d.fused,
                    });
                }
                BInstr::InlineExit { .. } => {
                    if let Some(p) = self.prof {
                        p.unit_exit();
                    }
                }
            }
            pc += 1;
        }
        Ok(Flow::Normal)
    }

    /// A speculated span's commit, at its fused loop's `VecLoop`: with
    /// the step count where the original statements would leave it less
    /// what the region's entry reserves ([`SpanDesc::fixed`]), the entry
    /// runs the loop and the span continues at the region's exit; or,
    /// when the entry refuses (an empty trip, a guard or the step
    /// reservation), the count and the operand stack go back to where
    /// `SpanEnter` found them and the span falls through to the original
    /// statements.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn span_commit(
        &mut self,
        frame: &mut VFrame,
        bu: &'e BUnit,
        spec: Spec,
        desc: u32,
        ctr: u32,
        left: u32,
        var: u32,
    ) -> Result<bool, RunError> {
        if let Some(steps) = self.steps.checked_add_signed(bu.spans[spec.span as usize].fixed) {
            self.steps = steps;
            if self.exec_fast_loop(frame, bu, desc, ctr, left, var)? {
                return Ok(true);
            }
        }
        self.fall_back(spec);
        Ok(false)
    }

    /// Puts back what a speculated span changed outside the frame's
    /// scalars and hidden slots: the step count, to where it stood before
    /// its `SpanEnter`, whose step is then the original statements' first
    /// instruction's, and the operand stack.
    fn fall_back(&mut self, spec: Spec) {
        self.stack.truncate(spec.depth);
        self.steps = spec.saved;
    }

    // ---------- calls ----------

    /// `InlineEnter`: `CallPre`'s depth check, one level down per block
    /// around this one, then the reset of the block's locals. Out of
    /// line, so the dispatch loop does not grow by it.
    #[inline(never)]
    fn inline_enter(&mut self, bu: &BUnit, frame: &mut VFrame, desc: u32) -> Result<(), RunError> {
        let d = &bu.inlines[desc as usize];
        let mut depth = self.depth;
        let mut outer = d.outer;
        while outer != NO_PC {
            depth += 1;
            outer = bu.inlines[outer as usize].outer;
        }
        if depth >= self.ex.limits.max_call_depth {
            return Err(RunError::Limit { msg: "call depth exceeded".into() });
        }
        frame.reset_block(bu, d);
        if let Some(p) = self.prof {
            p.unit_enter(&self.prog.units[d.unit as usize].name);
        }
        Ok(())
    }

    /// Executes a call; returns the function-result bits when the callee
    /// is a function (already in the result's declared type).
    fn exec_call(
        &mut self,
        uidx: usize,
        frame: &mut VFrame,
        bu: &'e BUnit,
        spec: usize,
    ) -> Result<Option<u64>, RunError> {
        let cs = &bu.calls[spec];
        let callee: &'e BUnit = &self.bunits[cs.callee as usize];
        let mut cframe = match self.fpool[cs.callee as usize].pop() {
            Some(mut fr) => {
                fr.reset(callee);
                fr
            }
            None => VFrame::new(callee),
        };
        // Copy-in: payloads were pushed in argument order; pop in reverse.
        for arg in cs.args.iter().rev() {
            match *arg {
                BArg::Scalar { src_ty, p, pty, .. } | BArg::Val { src_ty, p, pty } => {
                    let val = Val::from_bits(self.pop(), src_ty);
                    cframe.write(p, pty, val, self.ex, self.tid);
                }
                BArg::Elem { want, p, pty, .. } => {
                    let val = Val::from_bits(self.pop(), want);
                    cframe.write(p, pty, val, self.ex, self.tid);
                }
                BArg::Arr { p } => {
                    let h = self.astack.pop().expect("array argument on stack");
                    cframe.a[p as usize] = Some(h);
                }
            }
        }
        // Execute the callee body.
        let snap = self.vec_snapshot();
        let (saved_uidx, saved_pc) = (self.cur_uidx, self.cur_pc);
        self.depth += 1;
        if let Some(p) = self.prof {
            p.unit_enter(&self.prog.units[cs.callee as usize].name);
        }
        let flow = self.run_range(cs.callee as usize, &mut cframe, 0, callee.code.len() as u32);
        self.depth -= 1;
        self.vec_restore(snap);
        let flow = flow?;
        if let Some(p) = self.prof {
            // Also sweeps loop spans a RETURN left open inside the callee.
            p.unit_exit();
        }
        self.cur_uidx = saved_uidx;
        self.cur_pc = saved_pc;
        match flow {
            Flow::Normal | Flow::Return => {}
            _ => return Err(RunError::Type { msg: "EXIT/CYCLE escaped a unit".into() }),
        }
        // Copy-out (value-result), forward order; Elem subscripts were
        // stashed left-to-right, so walk the stash tail forward.
        let base = self.sstash.len() - cs.n_stash as usize;
        let mut soff = base;
        for arg in &cs.args {
            match *arg {
                BArg::Scalar { src_vs, src_v, src_ty, p, pty } => {
                    let val = Val::from_bits(cframe.read(p, self.ex, self.tid), pty);
                    match src_vs {
                        VSlot::GlobS(_) => self.op(OpKind::Store),
                        VSlot::A(_) | VSlot::GlobA(_) => {
                            return Err(RunError::Type {
                                msg: format!(
                                    "array `{}` read as scalar",
                                    self.var_name(uidx, src_v)
                                ),
                            });
                        }
                        _ => {}
                    }
                    frame.write(src_vs, src_ty, val, self.ex, self.tid);
                }
                BArg::Elem { vs, v, nsubs, p, pty, .. } => {
                    let val = Val::from_bits(cframe.read(p, self.ex, self.tid), pty);
                    let n = nsubs as usize;
                    let mut buf = [0i64; MAX_INLINE_RANK];
                    buf[..n].copy_from_slice(&self.sstash[soff..soff + n]);
                    let (arr, off) = self.elem_at(uidx, frame, (vs, v), None, &buf[..n])?;
                    store_val(arr, off, val);
                    soff += n;
                    self.op(OpKind::Store);
                }
                BArg::Arr { .. } | BArg::Val { .. } => {}
            }
        }
        self.sstash.truncate(base);
        let ret = cs
            .ret
            .map(|(rvs, rty)| Val::from_bits(cframe.read(rvs, self.ex, self.tid), rty).to_bits(rty));
        self.fpool[cs.callee as usize].push(cframe);
        Ok(ret)
    }

    // ---------- OMP PARALLEL DO ----------

    fn exec_omp(
        &mut self,
        uidx: usize,
        frame: &mut VFrame,
        bu: &'e BUnit,
        desc: usize,
        line: u32,
    ) -> Result<Flow, RunError> {
        let d: &'e OmpDesc = &bu.omps[desc];
        // Stack (top last): s0, e0, st, [lo,hi]*, [num_threads].
        let num_threads = d.has_nt.then(|| self.popi());
        let mut bounds = vec![(0i64, 0i64); d.dims.len()];
        for b in bounds[1..].iter_mut().rev() {
            let hi = self.popi();
            *b = (self.popi(), hi);
        }
        let outer_step = self.popi();
        let e0 = self.popi();
        bounds[0] = (self.popi(), e0);
        let reductions: Vec<Reduction> = d
            .reductions
            .iter()
            .map(|r| {
                let cell = match r.vs {
                    VSlot::GlobS(c) => Some(c as usize),
                    _ => None,
                };
                Reduction { op: r.op, ty: r.ty, cell }
            })
            .collect();
        let site = VmSite::<TRACE> { ex: self.ex, prog: self.prog, bunits: self.bunits, uidx, d };
        let spec = RegionSpec {
            line,
            sched: d.sched,
            per_thread_access: d.per_thread_access,
            num_threads,
            bounds: &bounds,
            outer_step,
            reductions: &reductions,
        };
        region::run(self.ex, &site, self, frame, &spec)
    }
}

/// One `OmpDo` site of the VM, as the shared region driver sees it.
struct VmSite<'e, const TRACE: bool> {
    ex: &'e Exec,
    prog: &'e RProgram,
    bunits: &'e [BUnit],
    uidx: usize,
    d: &'e OmpDesc,
}

impl<'e, const TRACE: bool> region::Tier for VmSite<'e, TRACE> {
    type Exe = Vm<'e, TRACE>;
    type Frame = VFrame;

    fn worker(&self, tid: usize, base: &VFrame) -> (Vm<'e, TRACE>, VFrame) {
        let mut vm = Vm::new(self.ex, self.prog, self.bunits, tid);
        vm.st.in_real_region = true;
        let mut frame = base.clone();
        // PRIVATE arrays: detach per-thread deep copies.
        for &pa in &self.d.private_arrays {
            if let Some(h) = &frame.a[pa as usize] {
                frame.a[pa as usize] = Some(Arc::new(h.deep_clone()));
            }
        }
        (vm, frame)
    }

    fn set_index(&self, vm: &mut Vm<'e, TRACE>, frame: &mut VFrame, dim: usize, v: i64) {
        let (vs, ty) = self.d.dims[dim];
        if let VSlot::GlobS(_) = vs {
            vm.op(OpKind::Store); // a global loop variable costs a store
        }
        frame.write(vs, ty, Val::I(v), self.ex, vm.tid);
    }

    fn run_body(&self, vm: &mut Vm<'e, TRACE>, frame: &mut VFrame) -> Result<Flow, RunError> {
        let (lo, hi) = self.d.body;
        vm.run_range(self.uidx, frame, lo, hi)
    }

    fn red_read(&self, vm: &Vm<'e, TRACE>, frame: &VFrame, ri: usize) -> Val {
        let r = &self.d.reductions[ri];
        Val::from_bits(frame.read(r.vs, self.ex, vm.tid), r.ty)
    }

    fn red_write(&self, vm: &mut Vm<'e, TRACE>, frame: &mut VFrame, ri: usize, v: Val) {
        let r = &self.d.reductions[ri];
        frame.write(r.vs, r.ty, v, self.ex, vm.tid);
    }

    fn fault_ctx(&self, vm: &Vm<'e, TRACE>, e: RunError) -> RunError {
        vm_ctx(vm, e)
    }

    fn retire(&self, vm: &mut Vm<'e, TRACE>) {
        vm.retire();
    }

    fn joined(&self, vm: &mut Vm<'e, TRACE>) {
        // Workers may have allocated or freed global arrays; drop every
        // cached handle so we re-read the cells.
        vm.gcache.iter_mut().for_each(|s| *s = None);
    }

    fn state(vm: &mut Self::Exe) -> &mut RegionState {
        &mut vm.st
    }

    fn steps(vm: &mut Self::Exe) -> &mut u64 {
        &mut vm.steps
    }
}

/// Wraps a fault with the VM's location registers: source line when the
/// debug table knows it, raw pc otherwise. Display matches the
/// tree-walker's context exactly whenever a line is known, keeping the
/// differential suite's string comparison tier-blind.
fn vm_ctx<const TRACE: bool>(vm: &Vm<'_, TRACE>, e: RunError) -> RunError {
    let bu = &vm.bunits[vm.cur_uidx];
    let line = bu.line_for_pc(vm.cur_pc);
    let pc = if line.is_some() { None } else { Some(vm.cur_pc) };
    // The dispatch-loop safepoint defers line attribution to here: give
    // a cancellation its observed line so both tiers report it.
    let e = match e {
        RunError::Cancelled { at_line: None, reason } => {
            RunError::Cancelled { at_line: line, reason }
        }
        other => other,
    };
    e.with_ctx(&vm.prog.units[bu.unit_for_pc(vm.cur_pc) as usize].name, line, pc)
}

/// Entry point: runs `unit_id` with `args` under `exec.mode` on the
/// given bytecode build (optimized or traced — the engine picks the
/// matching one), lowered from `prog`. Returns (result, trace, printed)
/// like the interpreter's `run_entry`.
pub(crate) fn run_vm(
    exec: &Exec,
    prog: &RProgram,
    bunits: &[BUnit],
    unit_id: usize,
    args: &[ArgVal],
    prof: Option<&crate::trace::Collector>,
) -> Result<(Option<Val>, CostTrace, String), RunError> {
    match exec.mode {
        ExecMode::Simulated { .. } => go::<true>(exec, prog, bunits, unit_id, args, prof),
        _ => go::<false>(exec, prog, bunits, unit_id, args, prof),
    }
}

fn go<const TRACE: bool>(
    exec: &Exec,
    prog: &RProgram,
    bunits: &[BUnit],
    unit_id: usize,
    args: &[ArgVal],
    prof: Option<&crate::trace::Collector>,
) -> Result<(Option<Val>, CostTrace, String), RunError> {
    let bu = &bunits[unit_id];
    let unit = &prog.units[unit_id];
    if unit.params.len() != args.len() {
        return Err(RunError::BadCall {
            name: unit.name.clone(),
            msg: format!("takes {} args, got {}", unit.params.len(), args.len()),
        });
    }
    let mut frame = VFrame::new(bu);
    for (k, a) in args.iter().enumerate() {
        let pvar = unit.params[k];
        let vs = bu.vslots[pvar];
        let pty = unit.vars[pvar].ty;
        match a {
            ArgVal::I(v) => frame.write(vs, pty, Val::I(*v), exec, 0),
            ArgVal::F(v) => frame.write(vs, pty, Val::F(*v), exec, 0),
            ArgVal::B(v) => frame.write(vs, pty, Val::B(*v), exec, 0),
            ArgVal::Arr(h) => match vs {
                VSlot::A(s) => frame.a[s as usize] = Some(Arc::clone(h)),
                // Array handle passed for a scalar parameter: the
                // tree-walker defers the type error to first use; the
                // VM reports it at entry (documented divergence).
                _ => {
                    return Err(RunError::Type {
                        msg: format!("array `{}` read as scalar", unit.vars[pvar].name),
                    });
                }
            },
        }
    }
    let mut vm = Vm::<TRACE>::new(exec, prog, bunits, 0);
    vm.prof = prof;
    if let Some(p) = prof {
        p.unit_enter(&unit.name);
    }
    let ran = vm.run_range(unit_id, &mut frame, 0, bu.code.len() as u32);
    vm.retire();
    let flow = match ran {
        Ok(f) => f,
        Err(e) => return Err(vm_ctx(&vm, e)),
    };
    if let Some(p) = prof {
        p.unit_exit();
        p.set_steps(vm.steps);
    }
    debug_assert!(matches!(flow, Flow::Normal | Flow::Return));
    let result = bu
        .result
        .map(|(rvs, rty)| Val::from_bits(frame.read(rvs, exec, 0), rty));
    Ok((result, vm.st.cost.finish(), vm.st.out))
}
