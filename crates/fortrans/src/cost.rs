//! Cost accounting for the simulated execution mode.
//!
//! While interpreting, the engine tallies abstract operation counts. The
//! counts are split into a **scalar** and a **vector** bucket: work inside
//! a serial loop the (modeled) compiler could vectorize lands in the
//! vector bucket; everything else is scalar. The `simcpu` crate turns a
//! [`CostTrace`] into simulated time on a machine model.
//!
//! Both executors tally through one [`CostAcc`]: it owns the serial
//! counters, the open parallel region (per-thread buckets, the owner
//! map that routes each iteration to its thread, the CRITICAL bucket)
//! and the vectorization class in force. Postings collect in one
//! pending set of counters and move to their bucket only when the
//! bucket is about to change. The executors keep only their
//! call sites — and the gate in front of them (`collect` in the
//! tree-walker, the `TRACE` const generic in the VM), so an untraced
//! run never reaches this module.

use crate::rir::VecClass;

/// Raw operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    /// f64 add/sub/mul and comparisons.
    pub flop: u64,
    /// f64 divisions.
    pub fdiv: u64,
    /// Transcendentals (exp, log, sqrt, pow, trig).
    pub fspecial: u64,
    /// Integer ALU ops.
    pub iop: u64,
    /// Memory reads of array elements / shared scalars.
    pub load: u64,
    /// Memory writes.
    pub store: u64,
}

impl OpCounts {
    pub fn add(&mut self, o: &OpCounts) {
        self.flop += o.flop;
        self.fdiv += o.fdiv;
        self.fspecial += o.fspecial;
        self.iop += o.iop;
        self.load += o.load;
        self.store += o.store;
    }

    /// Total memory traffic in bytes (8 bytes per access in our model).
    pub fn mem_bytes(&self) -> u64 {
        (self.load + self.store) * 8
    }

    pub fn is_zero(&self) -> bool {
        *self == OpCounts::default()
    }
}

/// Counters for a stretch of execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostCounters {
    pub scalar: OpCounts,
    /// Work attributable to compiler-vectorizable serial loops.
    pub vector: OpCounts,
    /// Work attributable to memset-recognizable zero-initialization loops.
    pub memset_bytes: u64,
    pub branches: u64,
    pub calls: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    /// `!$OMP ATOMIC` updates executed.
    pub atomics: u64,
    /// Fork costs of *nested* parallel regions encountered while already
    /// inside a region (executed with a team of one).
    pub nested_forks: u64,
}

impl CostCounters {
    pub fn add(&mut self, o: &CostCounters) {
        self.scalar.add(&o.scalar);
        self.vector.add(&o.vector);
        self.memset_bytes += o.memset_bytes;
        self.branches += o.branches;
        self.calls += o.calls;
        self.alloc_calls += o.alloc_calls;
        self.alloc_bytes += o.alloc_bytes;
        self.atomics += o.atomics;
        self.nested_forks += o.nested_forks;
    }

    pub fn is_zero(&self) -> bool {
        *self == CostCounters::default()
    }
}

/// A parallel region observed during simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionEvent {
    /// Team size the region forked with.
    pub threads: usize,
    /// Per-thread work under the static schedule.
    pub per_thread: Vec<CostCounters>,
    /// Work executed inside `!$OMP CRITICAL` sections (serializes).
    pub critical: CostCounters,
    /// Number of `REDUCTION` variables combined at the join.
    pub reductions: usize,
    /// Total iterations of the (collapsed) parallel loop.
    pub trip: u64,
    /// Source line of the parallel DO (0 when unknown) — joins simulated
    /// region costs with measured `omp@line` profile spans.
    pub line: u32,
}

/// The trace: serial stretches interleaved with parallel regions.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    Serial(CostCounters),
    Region(RegionEvent),
}

/// A full simulated-execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostTrace {
    pub events: Vec<TraceEvent>,
}

impl CostTrace {
    /// Appends accumulated serial counters (if non-empty).
    pub fn push_serial(&mut self, c: CostCounters) {
        if !c.is_zero() {
            self.events.push(TraceEvent::Serial(c));
        }
    }

    pub fn push_region(&mut self, r: RegionEvent) {
        self.events.push(TraceEvent::Region(r));
    }

    /// Number of parallel regions in the trace.
    pub fn region_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Region(_)))
            .count()
    }

    /// Sum of all counters (flattened over threads) — a coarse "total
    /// work" metric used in tests.
    pub fn total(&self) -> CostCounters {
        let mut t = CostCounters::default();
        for e in &self.events {
            match e {
                TraceEvent::Serial(c) => t.add(c),
                TraceEvent::Region(r) => {
                    for p in &r.per_thread {
                        t.add(p);
                    }
                    t.add(&r.critical);
                }
            }
        }
        t
    }
}

/// Operation kinds the executors report.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    Flop,
    FDiv,
    FSpecial,
    IOp,
    Load,
    Store,
}

/// What one pass over a straight-line stretch of code posts, before it
/// is routed: operation counts not yet split into scalar/vector/memset
/// (that is the accumulator's job at posting time) plus the two
/// non-operation counters a single instruction can bump statically.
/// A `VecLoop` region carries one per iteration
/// ([`crate::bytecode::VecDesc::iter_ledger`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub ops: OpCounts,
    pub branches: u64,
    pub atomics: u64,
}

impl Ledger {
    pub(crate) fn op(&mut self, k: OpKind) {
        let o = &mut self.ops;
        match k {
            OpKind::Flop => o.flop += 1,
            OpKind::FDiv => o.fdiv += 1,
            OpKind::FSpecial => o.fspecial += 1,
            OpKind::IOp => o.iop += 1,
            OpKind::Load => o.load += 1,
            OpKind::Store => o.store += 1,
        }
    }
}

/// The parallel region a simulated run is currently inside.
struct OpenRegion {
    per_thread: Vec<CostCounters>,
    /// Bucket of the iteration now executing.
    cur: usize,
    critical: CostCounters,
    trip: u64,
    reductions: usize,
    /// Flat iteration → owning thread under the region's schedule.
    owner: Vec<u16>,
}

/// The cost accumulator of one simulated run.
#[derive(Default)]
pub(crate) struct CostAcc {
    serial: CostCounters,
    /// Posted since the last bucket switch, not yet in any bucket: a
    /// posting then costs no region/thread/CRITICAL lookup. Already
    /// split by vectorization class, so a class change needs no flush.
    pending: CostCounters,
    region: Option<Box<OpenRegion>>,
    trace: CostTrace,
    /// Nesting depth of the `!$OMP CRITICAL` sections being executed.
    critical_depth: u32,
    /// Vectorization class of the serial loop being executed.
    pub(crate) vec_mode: VecClass,
}

impl CostAcc {
    /// The bucket operations are charged to — the running iteration's
    /// thread inside a region, the serial stretch outside — and, while
    /// inside a CRITICAL section inside a region, the region's CRITICAL
    /// bucket as well.
    #[inline]
    fn buckets(&mut self) -> (&mut CostCounters, Option<&mut CostCounters>) {
        match &mut self.region {
            Some(r) => {
                let critical = (self.critical_depth > 0).then_some(&mut r.critical);
                (&mut r.per_thread[r.cur], critical)
            }
            None => (&mut self.serial, None),
        }
    }

    /// Moves what was posted since the last switch into the bucket(s)
    /// in force. Every method that changes the routing calls this first.
    fn flush(&mut self) {
        let p = std::mem::take(&mut self.pending);
        let (bucket, critical) = self.buckets();
        bucket.add(&p);
        if let Some(c) = critical {
            c.add(&p);
        }
    }

    /// Counts `n` operations of kind `k` in the current bucket (and the
    /// region's CRITICAL bucket when inside a section). The
    /// vectorization class picks the scalar or vector side; stores of a
    /// memset-recognizable loop count as bytes instead.
    #[inline]
    pub(crate) fn op_n(&mut self, k: OpKind, n: u64) {
        let vec = self.vec_mode;
        let apply = |c: &mut CostCounters| {
            let o = match vec {
                VecClass::Simd => &mut c.vector,
                _ => &mut c.scalar,
            };
            match k {
                OpKind::Flop => o.flop += n,
                OpKind::FDiv => o.fdiv += n,
                OpKind::FSpecial => o.fspecial += n,
                OpKind::IOp => o.iop += n,
                OpKind::Load => o.load += n,
                OpKind::Store if vec == VecClass::Memset => c.memset_bytes += 8 * n,
                OpKind::Store => o.store += n,
            }
        };
        apply(&mut self.pending);
    }

    /// Posts `n` passes over the code `l` summarizes, exactly as `n`
    /// times its per-instruction [`Self::op_n`] / [`Self::add_misc`]
    /// calls would: same bucket, same CRITICAL bucket, same
    /// vectorization class (none of the three can change inside a
    /// straight-line stretch, and the counters only add).
    pub(crate) fn post_scaled(&mut self, l: &Ledger, n: u64) {
        let vec = self.vec_mode;
        let apply = |c: &mut CostCounters| {
            let mut ops = l.ops;
            if vec == VecClass::Memset {
                c.memset_bytes += 8 * n * ops.store;
                ops.store = 0;
            }
            let side = if vec == VecClass::Simd { &mut c.vector } else { &mut c.scalar };
            side.flop += n * ops.flop;
            side.fdiv += n * ops.fdiv;
            side.fspecial += n * ops.fspecial;
            side.iop += n * ops.iop;
            side.load += n * ops.load;
            side.store += n * ops.store;
            c.branches += n * l.branches;
            c.atomics += n * l.atomics;
        };
        apply(&mut self.pending);
    }

    /// Applies `f` to the current bucket (and the CRITICAL bucket): the
    /// non-operation counters — branches, calls, allocations, atomics.
    #[inline]
    pub(crate) fn add_misc(&mut self, f: impl Fn(&mut CostCounters)) {
        f(&mut self.pending);
    }

    /// A `!$OMP CRITICAL` section begins: inside a region, what follows
    /// is also charged to the region's CRITICAL bucket.
    pub(crate) fn enter_critical(&mut self) {
        self.flush();
        self.critical_depth += 1;
    }

    pub(crate) fn leave_critical(&mut self) {
        self.flush();
        self.critical_depth -= 1;
    }

    pub(crate) fn in_region(&self) -> bool {
        self.region.is_some()
    }

    /// Flushes the serial stretch and opens a region of `team` threads
    /// whose iteration `k` belongs to thread `owner[k]`.
    pub(crate) fn open_region(&mut self, owner: Vec<u16>, team: usize, reductions: usize) {
        self.flush();
        let serial = std::mem::take(&mut self.serial);
        self.trace.push_serial(serial);
        self.region = Some(Box::new(OpenRegion {
            per_thread: vec![CostCounters::default(); team],
            cur: 0,
            critical: CostCounters::default(),
            trip: owner.len() as u64,
            reductions,
            owner,
        }));
    }

    /// Routes what follows to the thread owning flat iteration `k`.
    pub(crate) fn begin_iteration(&mut self, k: usize) {
        if let Some(thread) = self.region.as_ref().map(|r| usize::from(r.owner[k])) {
            self.route_to(thread);
        }
    }

    /// Routes what follows to the master thread (the end of a nest).
    pub(crate) fn end_iterations(&mut self) {
        self.route_to(0);
    }

    /// Under a block schedule consecutive iterations share a thread, so
    /// most calls change nothing and flush nothing.
    fn route_to(&mut self, thread: usize) {
        if self.region.as_ref().is_some_and(|r| r.cur != thread) {
            self.flush();
            if let Some(r) = &mut self.region {
                r.cur = thread;
            }
        }
    }

    /// Closes the open region into a [`RegionEvent`] tagged `line`.
    pub(crate) fn close_region(&mut self, line: u32) {
        self.flush();
        let r = self.region.take().expect("a region is open");
        self.trace.push_region(RegionEvent {
            threads: r.per_thread.len(),
            per_thread: r.per_thread,
            critical: r.critical,
            reductions: r.reductions,
            trip: r.trip,
            line,
        });
    }

    /// Flushes the trailing serial stretch and yields the trace.
    pub(crate) fn finish(mut self) -> CostTrace {
        self.flush();
        self.trace.push_serial(std::mem::take(&mut self.serial));
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut a = CostCounters::default();
        a.scalar.flop = 3;
        a.atomics = 1;
        let mut b = CostCounters::default();
        b.scalar.flop = 2;
        b.vector.load = 5;
        a.add(&b);
        assert_eq!(a.scalar.flop, 5);
        assert_eq!(a.vector.load, 5);
        assert_eq!(a.atomics, 1);
    }

    #[test]
    fn empty_serial_not_pushed() {
        let mut t = CostTrace::default();
        t.push_serial(CostCounters::default());
        assert!(t.events.is_empty());
        t.push_serial(CostCounters { branches: 1, ..Default::default() });
        assert_eq!(t.events.len(), 1);
    }

    #[test]
    fn totals_flatten_regions() {
        let mut t = CostTrace::default();
        let mut s = CostCounters::default();
        s.scalar.flop = 1;
        t.push_serial(s);
        let mut p0 = CostCounters::default();
        p0.scalar.flop = 10;
        let mut p1 = CostCounters::default();
        p1.scalar.flop = 20;
        t.push_region(RegionEvent {
            threads: 2,
            per_thread: vec![p0, p1],
            critical: CostCounters::default(),
            reductions: 1,
            trip: 30,
            line: 0,
        });
        assert_eq!(t.total().scalar.flop, 31);
        assert_eq!(t.region_count(), 1);
    }

    #[test]
    fn mem_bytes() {
        let o = OpCounts { load: 3, store: 2, ..Default::default() };
        assert_eq!(o.mem_bytes(), 40);
    }

    #[test]
    fn critical_op_in_a_region_lands_in_thread_and_critical_buckets() {
        let mut acc = CostAcc::default();
        acc.op_n(OpKind::Flop, 2); // serial stretch
        acc.open_region(vec![0, 1, 1], 2, 0);
        acc.begin_iteration(2);
        acc.enter_critical();
        acc.op_n(OpKind::Load, 3);
        acc.add_misc(|c| c.atomics += 1);
        acc.leave_critical();
        acc.op_n(OpKind::IOp, 5); // outside the section: thread bucket only
        acc.close_region(17);
        // A CRITICAL outside any region serializes nothing.
        acc.enter_critical();
        acc.op_n(OpKind::FDiv, 1);
        acc.leave_critical();
        let events = acc.finish().events;
        let [TraceEvent::Serial(before), TraceEvent::Region(r), TraceEvent::Serial(after)] =
            &events[..]
        else {
            panic!("{events:?}");
        };
        assert_eq!(before.scalar.flop, 2);
        assert!(r.per_thread[0].is_zero());
        assert_eq!((r.per_thread[1].scalar.load, r.per_thread[1].atomics), (3, 1));
        assert_eq!(r.per_thread[1].scalar.iop, 5);
        assert_eq!((r.critical.scalar.load, r.critical.atomics, r.critical.scalar.iop), (3, 1, 0));
        assert_eq!(after.scalar.fdiv, 1);
    }

    #[test]
    fn vec_class_picks_the_bucket() {
        let mut acc = CostAcc { vec_mode: VecClass::Memset, ..Default::default() };
        acc.op_n(OpKind::Store, 4);
        acc.op_n(OpKind::IOp, 1);
        acc.vec_mode = VecClass::Simd;
        acc.op_n(OpKind::Store, 2);
        acc.op_n(OpKind::FSpecial, 6);
        acc.vec_mode = VecClass::None;
        acc.op_n(OpKind::Store, 1);
        let t = acc.finish().total();
        assert_eq!(t.memset_bytes, 32);
        assert_eq!((t.vector.store, t.vector.fspecial), (2, 6));
        assert_eq!((t.scalar.store, t.scalar.iop), (1, 1));
    }

    #[test]
    fn post_scaled_is_n_passes_of_per_op_posting() {
        let mut l = Ledger { branches: 1, atomics: 2, ..Default::default() };
        let body = [
            (OpKind::Flop, 3),
            (OpKind::FDiv, 1),
            (OpKind::FSpecial, 2),
            (OpKind::IOp, 4),
            (OpKind::Load, 5),
            (OpKind::Store, 2),
        ];
        for (k, times) in body {
            (0..times).for_each(|_| l.op(k));
        }
        // Every routing a VecLoop entry can meet: each class, serial and
        // inside a region, outside and inside a CRITICAL section.
        for vec in [VecClass::None, VecClass::Simd, VecClass::Memset] {
            for (in_region, critical) in [(false, 0), (true, 0), (true, 1), (false, 1)] {
                let mut accs = [CostAcc::default(), CostAcc::default()];
                for acc in &mut accs {
                    if in_region {
                        acc.open_region(vec![1, 0], 2, 0);
                        acc.begin_iteration(0);
                    }
                    acc.vec_mode = vec;
                    (0..critical).for_each(|_| acc.enter_critical());
                }
                let [scaled, stepped] = &mut accs;
                scaled.post_scaled(&l, 7);
                for _ in 0..7 {
                    for (k, times) in body {
                        (0..times).for_each(|_| stepped.op_n(k, 1));
                    }
                    stepped.add_misc(|c| c.branches += 1);
                    stepped.add_misc(|c| c.atomics += 2);
                }
                let [scaled, stepped] = accs.map(|mut acc| {
                    if in_region {
                        acc.close_region(1);
                    }
                    acc.finish()
                });
                assert_eq!(scaled, stepped, "{vec:?}, region {in_region}, critical {critical}");
                assert!(!scaled.total().is_zero());
            }
        }
    }

    #[test]
    fn owner_map_routes_iterations_and_close_emits_the_event() {
        let owner = vec![0, 0, 2, 1, 2];
        let mut acc = CostAcc::default();
        acc.open_region(owner.clone(), 3, 2);
        assert!(acc.in_region());
        for k in 0..owner.len() {
            acc.begin_iteration(k);
            acc.op_n(OpKind::Flop, 10u64.pow(k as u32));
        }
        acc.end_iterations();
        acc.add_misc(|c| c.branches += 1); // after the nest: master thread
        acc.close_region(42);
        assert!(!acc.in_region());
        let mut expect = vec![CostCounters::default(); 3];
        expect[0].scalar.flop = 11;
        expect[0].branches = 1;
        expect[1].scalar.flop = 1_000;
        expect[2].scalar.flop = 10_100;
        assert_eq!(
            acc.finish().events,
            vec![TraceEvent::Region(RegionEvent {
                threads: 3,
                per_thread: expect,
                critical: CostCounters::default(),
                reductions: 2,
                trip: 5,
                line: 42,
            })]
        );
    }
}
