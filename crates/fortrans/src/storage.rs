//! Runtime storage: arrays of atomic cells, global cells, frames.
//!
//! Every array element and every shared scalar lives in an `AtomicU64`
//! holding either IEEE-754 bits (reals), two's-complement (integers) or
//! 0/1 (logicals). Relaxed atomic loads/stores cost the same as plain
//! ones on x86 and make the parallel execution mode data-race-free at the
//! language level: a FORTRAN program with genuinely conflicting
//! unsynchronized writes gets *unspecified values* (as real OpenMP would)
//! instead of undefined behaviour.

// Storage is on the user-reachable fault path (allocation sizes come
// from program input): failures must surface as `RunError`, not panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::RunError;
use crate::rir::ScalarTy;

/// `(lo:hi,lo:hi,...)` shape description for diagnostics.
fn dims_desc(dims: &[(i64, i64)]) -> String {
    let parts: Vec<String> = dims.iter().map(|(lo, hi)| format!("{lo}:{hi}")).collect();
    format!("({})", parts.join(","))
}

/// Maximum logical threads the engine supports (sizing for per-thread
/// storage — SAVE/THREADPRIVATE cells).
pub const MAX_THREADS: usize = 64;

/// Allocation safety valve: the largest element count a single runtime
/// array may hold (2^32 elements = 32 GiB of cells). Corrupt or hostile
/// ALLOCATE bounds surface as [`RunError::Limit`] instead of aborting
/// the process inside the allocator.
pub const MAX_ARRAY_ELEMS: usize = 1 << 32;

/// A runtime array: dims + typed atomic cells, column-major.
#[derive(Debug)]
pub struct ArrayObj {
    pub ty: ScalarTy,
    /// `(lo, hi)` inclusive per dimension.
    pub dims: Vec<(i64, i64)>,
    pub cells: Box<[AtomicU64]>,
}

impl ArrayObj {
    /// Creates a zero-initialized array (FORTRAN setups in the workloads
    /// initialize explicitly; zero matches `-finit-local-zero`-style
    /// deterministic behaviour).
    pub fn new(ty: ScalarTy, dims: Vec<(i64, i64)>) -> Self {
        let n: usize = dims
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1).max(0) as usize)
            .product();
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicU64::new(0));
        ArrayObj { ty, dims, cells: v.into_boxed_slice() }
    }

    /// Checked variant of [`ArrayObj::new`]: rejects element counts that
    /// overflow or exceed [`MAX_ARRAY_ELEMS`] instead of aborting inside
    /// the allocator. Runtime ALLOCATE goes through here.
    pub fn try_new(ty: ScalarTy, dims: Vec<(i64, i64)>) -> Result<Self, RunError> {
        let n = Self::checked_len(&dims)?;
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicU64::new(0));
        Ok(ArrayObj { ty, dims, cells: v.into_boxed_slice() })
    }

    /// Element count of an array shaped `dims`, or [`RunError::Limit`]
    /// when it overflows or exceeds [`MAX_ARRAY_ELEMS`].
    pub fn checked_len(dims: &[(i64, i64)]) -> Result<usize, RunError> {
        let mut n: usize = 1;
        for &(lo, hi) in dims {
            let extent = if hi >= lo {
                usize::try_from(hi - lo).ok().and_then(|e| e.checked_add(1))
            } else {
                Some(0)
            };
            n = extent
                .and_then(|e| n.checked_mul(e))
                .filter(|&n| n <= MAX_ARRAY_ELEMS)
                .ok_or_else(|| RunError::Limit {
                    msg: format!("array allocation of {} exceeds the element cap", dims_desc(dims)),
                })?;
        }
        Ok(n)
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether static dims fit the allocation cap (compile-time check).
    pub fn dims_fit(dims: &[(i64, i64)]) -> bool {
        Self::checked_len(dims).is_ok()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Linear offset of `subs` (column-major); `None` on a rank mismatch
    /// or an out-of-range subscript. The VM's element-access fast path:
    /// [`ArrayObj::offset`] names the failed check.
    #[inline(always)]
    pub fn offset_of(&self, subs: &[i64]) -> Option<usize> {
        if subs.len() != self.dims.len() {
            return None;
        }
        let (mut off, mut stride) = (0usize, 1usize);
        for (&ix, &(lo, hi)) in subs.iter().zip(self.dims.iter()) {
            if ix < lo || ix > hi {
                return None;
            }
            off += (ix - lo) as usize * stride;
            stride *= (hi - lo + 1) as usize;
        }
        Some(off)
    }

    /// Linear, bounds-checked offset of `subs` (column-major).
    pub fn offset(&self, name: &str, subs: &[i64]) -> Result<usize, RunError> {
        self.offset_of(subs).ok_or_else(|| self.offset_fault(name, subs))
    }

    /// Why [`ArrayObj::offset_of`] refused `subs`: the rank, else the
    /// first out-of-range dimension.
    #[cold]
    fn offset_fault(&self, name: &str, subs: &[i64]) -> RunError {
        if subs.len() != self.dims.len() {
            return RunError::Type {
                msg: format!(
                    "`{name}`: rank {} referenced with {} subscripts",
                    self.dims.len(),
                    subs.len()
                ),
            };
        }
        let bad = subs.iter().zip(self.dims.iter()).enumerate().find_map(
            |(d, (&ix, &(lo, hi)))| {
                (ix < lo || ix > hi).then(|| RunError::OutOfBounds {
                    var: name.to_string(),
                    dim: d,
                    index: ix,
                    lo,
                    hi,
                })
            },
        );
        bad.unwrap_or_else(|| RunError::Trap {
            what: format!("`{name}`: offset fault without cause"),
        })
    }

    #[inline]
    pub fn get_f(&self, off: usize) -> f64 {
        f64::from_bits(self.cells[off].load(Ordering::Relaxed))
    }

    #[inline]
    pub fn set_f(&self, off: usize, v: f64) {
        self.cells[off].store(v.to_bits(), Ordering::Relaxed)
    }

    #[inline]
    pub fn get_i(&self, off: usize) -> i64 {
        self.cells[off].load(Ordering::Relaxed) as i64
    }

    #[inline]
    pub fn set_i(&self, off: usize, v: i64) {
        self.cells[off].store(v as u64, Ordering::Relaxed)
    }

    #[inline]
    pub fn get_b(&self, off: usize) -> bool {
        self.cells[off].load(Ordering::Relaxed) != 0
    }

    #[inline]
    pub fn set_b(&self, off: usize, v: bool) {
        self.cells[off].store(u64::from(v), Ordering::Relaxed)
    }

    /// Raw bits accessors for generic copies.
    #[inline]
    pub fn get_bits(&self, off: usize) -> u64 {
        self.cells[off].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn set_bits(&self, off: usize, v: u64) {
        self.cells[off].store(v, Ordering::Relaxed)
    }

    /// Deep copy (used for PRIVATE arrays in parallel regions).
    pub fn deep_clone(&self) -> ArrayObj {
        let mut v = Vec::with_capacity(self.cells.len());
        for c in self.cells.iter() {
            v.push(AtomicU64::new(c.load(Ordering::Relaxed)));
        }
        ArrayObj { ty: self.ty, dims: self.dims.clone(), cells: v.into_boxed_slice() }
    }

    /// Snapshot as f64s (test/bench convenience; integers are converted).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| match self.ty {
                ScalarTy::F => self.get_f(i),
                ScalarTy::I => self.get_i(i) as f64,
                ScalarTy::B => f64::from(u8::from(self.get_b(i))),
            })
            .collect()
    }
}

/// One thread's instance of a SAVE / THREADPRIVATE array.
#[derive(Debug, Default)]
pub struct ThreadInstance {
    arr: Option<Arc<ArrayObj>>,
    /// The instance's own thread ALLOCATEd it. False while it is only
    /// *provisioned* — filled in by another thread's ALLOCATE (see
    /// [`GlobalCell::allocate`]) — which the owning thread
    /// may still ALLOCATE once without an "already allocated" error.
    claimed: bool,
}

/// One global storage cell.
#[derive(Debug)]
pub enum GlobalCell {
    Scalar(AtomicU64),
    Array(RwLock<Option<Arc<ArrayObj>>>),
    /// SAVE / THREADPRIVATE array: one instance per logical thread.
    PerThreadArray(Box<[RwLock<ThreadInstance>]>),
    /// THREADPRIVATE scalar.
    PerThreadScalar(Box<[AtomicU64]>),
    /// Shared scalar named in a `REDUCTION` clause. One cell (slot 0)
    /// everywhere except inside a fork reducing on it, where `split` is
    /// set and each thread addresses its own partial — the worker bodies
    /// name the cell itself, so privatization has to happen here.
    ReductionScalar { split: AtomicBool, slots: Box<[AtomicU64]> },
}

impl GlobalCell {
    pub fn new_scalar() -> Self {
        GlobalCell::Scalar(AtomicU64::new(0))
    }

    pub fn new_array() -> Self {
        GlobalCell::Array(RwLock::new(None))
    }

    pub fn new_per_thread_array() -> Self {
        let mut v = Vec::with_capacity(MAX_THREADS);
        v.resize_with(MAX_THREADS, || RwLock::new(ThreadInstance::default()));
        GlobalCell::PerThreadArray(v.into_boxed_slice())
    }

    fn per_thread_slots() -> Box<[AtomicU64]> {
        let mut v = Vec::with_capacity(MAX_THREADS);
        v.resize_with(MAX_THREADS, || AtomicU64::new(0));
        v.into_boxed_slice()
    }

    pub fn new_per_thread_scalar() -> Self {
        GlobalCell::PerThreadScalar(Self::per_thread_slots())
    }

    pub fn new_reduction_scalar() -> Self {
        GlobalCell::ReductionScalar {
            split: AtomicBool::new(false),
            slots: Self::per_thread_slots(),
        }
    }

    /// Scalar bits access (thread-aware).
    pub fn load_bits(&self, tid: usize) -> u64 {
        self.scalar_atomic(tid).load(Ordering::Relaxed)
    }

    pub fn store_bits(&self, tid: usize, bits: u64) {
        self.scalar_atomic(tid).store(bits, Ordering::Relaxed)
    }

    /// The scalar atomic itself (for ATOMIC updates).
    pub fn scalar_atomic(&self, tid: usize) -> &AtomicU64 {
        match self {
            GlobalCell::Scalar(c) => c,
            GlobalCell::PerThreadScalar(v) => &v[tid],
            GlobalCell::ReductionScalar { split, slots } => {
                // Relaxed: the flag only flips outside a fork, and the
                // pool's fork and join order it against the team.
                &slots[if split.load(Ordering::Relaxed) { tid } else { 0 }]
            }
            _ => panic!("scalar access to array cell"),
        }
    }

    /// Enters (`on`) or leaves a fork that reduces on this cell: while
    /// split, thread `tid` sees its own partial; slot 0 doubles as the
    /// shared value, which the forking thread reads before and writes
    /// after. A no-op for every other kind of cell (per-thread scalars
    /// are private already).
    pub fn split_for_reduction(&self, on: bool) {
        if let GlobalCell::ReductionScalar { split, .. } = self {
            split.store(on, Ordering::Relaxed);
        }
    }

    /// Current array handle (thread-aware).
    pub fn array_handle(&self, tid: usize) -> Option<Arc<ArrayObj>> {
        match self {
            GlobalCell::Array(l) => l.read().clone(),
            GlobalCell::PerThreadArray(v) => v[tid].read().arr.clone(),
            _ => panic!("array access to scalar cell"),
        }
    }

    /// Replaces the array handle; returns the previous one.
    pub fn set_array(&self, tid: usize, a: Option<Arc<ArrayObj>>) -> Option<Arc<ArrayObj>> {
        match self {
            GlobalCell::Array(l) => std::mem::replace(&mut *l.write(), a),
            GlobalCell::PerThreadArray(v) => {
                let mut w = v[tid].write();
                w.claimed = a.is_some();
                std::mem::replace(&mut w.arr, a)
            }
            _ => panic!("array access to scalar cell"),
        }
    }

    /// `ALLOCATE` of this cell to `dims` (which passed
    /// [`ArrayObj::checked_len`]) by thread `tid`; `var` names it in the
    /// error. A shared cell takes one zeroed array.
    ///
    /// A per-thread cell: `tid` claims its own instance (a fresh zeroed
    /// array) and *provisions* every other thread's unallocated
    /// instance, so inner parallel regions forked by any thread find
    /// their instance allocated — FORTRAN SAVE-allocate-once semantics
    /// lifted to the per-thread model. It is "already allocated" only
    /// when `tid` itself allocated its instance before. An instance
    /// merely provisioned by another thread is replaced — otherwise
    /// `IF (.NOT. ALLOCATED(x)) ALLOCATE(x)` races: thread B sees "not
    /// allocated", thread A's ALLOCATE provisions B's instance, and B's
    /// own ALLOCATE would then fail.
    pub fn allocate(
        &self,
        tid: usize,
        var: &str,
        ty: ScalarTy,
        dims: &[(i64, i64)],
    ) -> Result<(), RunError> {
        let mk = || Arc::new(ArrayObj::new(ty, dims.to_vec()));
        let taken = match self {
            GlobalCell::PerThreadArray(v) => {
                let mut own = v[tid].write();
                let taken = own.claimed;
                if !taken {
                    *own = ThreadInstance { arr: Some(mk()), claimed: true };
                    drop(own);
                    // One lock at a time: two threads allocating
                    // concurrently never wait on each other while
                    // holding a slot.
                    for slot in v.iter() {
                        let mut w = slot.write();
                        if w.arr.is_none() {
                            w.arr = Some(mk());
                        }
                    }
                }
                taken
            }
            _ => self.set_array(tid, Some(mk())).is_some(),
        };
        if taken {
            return Err(RunError::AlreadyAllocated { var: var.to_string() });
        }
        Ok(())
    }

    /// `DEALLOCATE` of this cell by thread `tid`: of a per-thread cell,
    /// every thread's instance (and its claim).
    pub fn deallocate(&self, tid: usize, var: &str) -> Result<(), RunError> {
        let prev = match self {
            GlobalCell::PerThreadArray(v) => {
                let prev = v[tid].read().arr.clone();
                for slot in v.iter() {
                    *slot.write() = ThreadInstance::default();
                }
                prev
            }
            _ => self.set_array(tid, None),
        };
        prev.map(drop).ok_or_else(|| RunError::Unallocated { var: var.to_string() })
    }
}

/// All global storage of a compiled program (module variables, COMMON
/// members, SAVE/THREADPRIVATE cells).
#[derive(Debug)]
pub struct Globals {
    pub cells: Vec<GlobalCell>,
}

/// A frame slot value.
#[derive(Debug, Clone)]
pub enum FrameVal {
    I(i64),
    F(f64),
    B(bool),
    Arr(Option<Arc<ArrayObj>>),
    Uninit,
}

/// A call frame.
#[derive(Debug, Clone)]
pub struct Frame {
    pub slots: Vec<FrameVal>,
}

impl Frame {
    pub fn new(size: usize) -> Self {
        Frame { slots: vec![FrameVal::Uninit; size] }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn column_major_offsets() {
        let a = ArrayObj::new(ScalarTy::F, vec![(1, 4), (1, 3)]);
        assert_eq!(a.len(), 12);
        assert_eq!(a.offset("a", &[1, 1]).unwrap(), 0);
        assert_eq!(a.offset("a", &[2, 1]).unwrap(), 1);
        assert_eq!(a.offset("a", &[1, 2]).unwrap(), 4);
        assert_eq!(a.offset("a", &[4, 3]).unwrap(), 11);
    }

    #[test]
    fn custom_lower_bounds() {
        let a = ArrayObj::new(ScalarTy::I, vec![(0, 3)]);
        assert_eq!(a.offset("a", &[0]).unwrap(), 0);
        assert!(matches!(
            a.offset("a", &[4]),
            Err(RunError::OutOfBounds { index: 4, lo: 0, hi: 3, .. })
        ));
        assert!(a.offset("a", &[-1]).is_err());
    }

    #[test]
    fn rank_mismatch_is_type_error() {
        let a = ArrayObj::new(ScalarTy::F, vec![(1, 4)]);
        assert!(matches!(a.offset("a", &[1, 2]), Err(RunError::Type { .. })));
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let a = ArrayObj::new(ScalarTy::F, vec![(1, 2)]);
        a.set_f(0, -3.25);
        assert_eq!(a.get_f(0), -3.25);
        let b = ArrayObj::new(ScalarTy::I, vec![(1, 2)]);
        b.set_i(1, -77);
        assert_eq!(b.get_i(1), -77);
        let c = ArrayObj::new(ScalarTy::B, vec![(1, 2)]);
        c.set_b(0, true);
        assert!(c.get_b(0));
        assert!(!c.get_b(1));
    }

    #[test]
    fn deep_clone_detaches() {
        let a = ArrayObj::new(ScalarTy::F, vec![(1, 2)]);
        a.set_f(0, 1.0);
        let b = a.deep_clone();
        a.set_f(0, 2.0);
        assert_eq!(b.get_f(0), 1.0);
    }

    #[test]
    fn per_thread_cells_isolated() {
        let c = GlobalCell::new_per_thread_scalar();
        c.store_bits(0, 42);
        c.store_bits(1, 99);
        assert_eq!(c.load_bits(0), 42);
        assert_eq!(c.load_bits(1), 99);

        let arr = GlobalCell::new_per_thread_array();
        arr.set_array(2, Some(Arc::new(ArrayObj::new(ScalarTy::F, vec![(1, 4)]))));
        assert!(arr.array_handle(2).is_some());
        assert!(arr.array_handle(3).is_none());
    }

    #[test]
    fn reduction_scalar_is_one_cell_until_split() {
        let c = GlobalCell::new_reduction_scalar();
        c.store_bits(3, 7);
        assert_eq!(c.load_bits(0), 7, "shared: every thread sees one cell");
        c.split_for_reduction(true);
        c.store_bits(3, 11);
        assert_eq!((c.load_bits(0), c.load_bits(3)), (7, 11));
        c.split_for_reduction(false);
        assert_eq!(c.load_bits(3), 7, "partials drop out of sight at the join");
    }

    #[test]
    fn provisioned_instance_can_be_claimed_once() {
        let alloc = |c: &GlobalCell, tid| c.allocate(tid, "x", ScalarTy::F, &[(1, 5)]).is_ok();
        let c = GlobalCell::new_per_thread_array();
        // Thread 1 has seen "not allocated" ...
        assert!(c.array_handle(1).is_none());
        // ... thread 0 allocates, provisioning thread 1's instance ...
        assert!(alloc(&c, 0));
        let provisioned = c.array_handle(1).expect("provisioned for inner regions");
        provisioned.set_f(0, 7.0);
        // ... and thread 1's own ALLOCATE claims a fresh zeroed array.
        assert!(alloc(&c, 1));
        let claimed = c.array_handle(1).expect("claimed");
        assert!(!Arc::ptr_eq(&provisioned, &claimed));
        assert_eq!(claimed.get_f(0), 0.0);
        // A second ALLOCATE by either owning thread is still an error.
        assert!(!alloc(&c, 0));
        let again = c.allocate(1, "x", ScalarTy::F, &[(1, 5)]).unwrap_err();
        assert!(matches!(again, RunError::AlreadyAllocated { var } if var == "x"));
        // DEALLOCATE resets instances and claims alike.
        assert!(c.deallocate(1, "x").is_ok());
        assert!(c.array_handle(0).is_none());
        assert!(c.deallocate(0, "x").is_err(), "nothing left to deallocate");
        assert!(alloc(&c, 0));
    }

    #[test]
    fn shared_cell_allocates_one_array() {
        let c = GlobalCell::new_array();
        assert!(c.allocate(1, "g", ScalarTy::I, &[(0, 2)]).is_ok());
        assert_eq!(c.array_handle(0).map(|a| (a.ty, a.len())), Some((ScalarTy::I, 3)));
        assert!(c.allocate(0, "g", ScalarTy::I, &[(0, 2)]).is_err());
        assert!(c.deallocate(0, "g").is_ok());
        assert!(c.deallocate(0, "g").is_err());
    }

    #[test]
    fn global_array_replace() {
        let c = GlobalCell::new_array();
        assert!(c.array_handle(0).is_none());
        let prev = c.set_array(0, Some(Arc::new(ArrayObj::new(ScalarTy::F, vec![(1, 2)]))));
        assert!(prev.is_none());
        let prev = c.set_array(0, None);
        assert!(prev.is_some());
    }
}
