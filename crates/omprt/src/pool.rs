//! A persistent fork-join worker pool.
//!
//! `ThreadPool::new(t)` spawns `t - 1` workers; the calling thread acts as
//! thread 0 of every region (exactly how OpenMP implementations reuse the
//! master thread). [`ThreadPool::run`] executes a closure once per thread
//! id and returns when every thread has finished — the fork-join contract
//! that makes the single `unsafe` lifetime-erasure below sound.
//!
//! # Waiting: spin, then park
//!
//! Two waits bracket every region: a worker waits for the next
//! `generation`, the forking caller waits for `active == 0`. While the
//! team is *hot* — the next fork follows the last join within
//! [`SPIN_BOUND`] — both are served in user space by
//! [`SpinGate::spin_until`]: Acquire loads of the one atomic the other side
//! writes, a `yield_now` every `POLLS_PER_YIELD` loads, and a wall-clock
//! bound. Past the bound the waiter parks on its condvar, as every waiter
//! did before: an idle pool costs no CPU. The wake-up syscalls follow the
//! same rule — `work_cv`/`done_cv` are notified only when
//! `State::parked` / `State::joiner_parked` say somebody is really asleep
//! — so a hot fork and a hot join are a handful of cache-line transfers,
//! what an in-region [`crate::Barrier`] phase costs.
//!
//! Spinning pays only while every team thread has a CPU to itself, and
//! two gates keep it to that case; neither is a setting. They are one
//! [`SpinGate`], which an in-region [`crate::Barrier`] keeps too.
//!
//! * A team wider than `std::thread::available_parallelism()` (read once
//!   per pool) never spins: its members cannot all be running, so a
//!   spinning waiter would burn the time slice of the thread it is
//!   waiting for. Such a pool parks at once.
//! * The yield doubles as a probe for *other people's* threads. Alone on
//!   its CPU a waiter gets the CPU straight back; next to a runnable
//!   thread of anybody's the kernel runs that thread for a scheduler
//!   slice first — milliseconds, against regions of microseconds — and
//!   does so on every other yield or so. One yield that comes back later
//!   than `SPIN_BOUND` is only suspicious (a shared host interrupts a
//!   lone thread that long a few times a second); a second one within the
//!   same thread's next `CONFIRM_YIELDS` yields marks the host as
//!   crowded, and the whole pool parks at once for `CROWDED_BACKOFF`
//!   times what that yield lost, which caps what probing a busy host can
//!   cost at about 1 % of the time. A parked thread is woken ahead of a
//!   CPU hog, a spinning one queues behind it, so on a crowded host
//!   parking is also simply the faster wait.
//!
//! # Lock order
//!
//! `generation` is written, and `parked`/`joiner_parked` are read and
//! written, only under the `state` lock, and both condvars wait on that
//! lock. A waiter re-checks its condition under the lock *before* it
//! raises its parked mark and sleeps (one atomic step, `Condvar::wait`);
//! the other side changes the condition first and only then takes the
//! lock to read the mark. Whichever takes the lock second sees the
//! other's write, so no wake-up is lost: either the waiter sees the
//! condition met and does not sleep, or the notifier sees the mark and
//! notifies. The `fork` mutex is taken before `state`, never inside it.
//!
//! # Panics
//!
//! Panics are contained at the pool boundary: a closure that panics (on a
//! worker *or* on thread 0) does not kill the pool or leak the job
//! pointer. Each invocation runs under `catch_unwind`, the join always
//! completes, and [`ThreadPool::run`] reports the first panic as a
//! [`RegionPanic`]. Because the catch happens *inside* the worker's loop,
//! a panicked worker waits again and serves later regions — the pool
//! self-heals without respawning threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::metrics::RegionMetrics;
use crate::schedule::Schedule;

/// How long a hot team's waiter polls in user space before it parks.
///
/// Sized from the gaps between a join and the next fork on SARB GLAF
/// v3 under `Parallel{2}` (EXPERIMENTS.md, "Execution rungs", has the
/// distribution): each column forks twice, 2 µs apart, and then runs its
/// serial remainder, a gap of 85 µs in the median, 120 µs at the 90th
/// percentile and 150 µs at the 99th on a quiet host, and 140 / 170 /
/// 200–300 µs on a day the host runs 1.6x slow; 0.1 % resp. 1–3.5 % of
/// those gaps pass 200 µs. So this bound keeps the team hot across a
/// whole `run_columns` call, and an idle pool is parked a fifth of a
/// millisecond after its last region. The same figure is the line
/// between a yield that came straight back (0.4 µs; under 50 µs even
/// when the host interrupts it) and one that ran another thread first
/// (1 ms and up).
pub const SPIN_BOUND: Duration = Duration::from_micros(200);

/// Loads between two `yield_now` calls of [`SpinGate::spin_until`].
const POLLS_PER_YIELD: u32 = 64;

/// A yield slower than [`SPIN_BOUND`] is confirmed as crowding by a second
/// one within the thread's next `CONFIRM_YIELDS` yields. Next to a CPU
/// hog about every other yield is slow, on a lone CPU a few in a million.
const CONFIRM_YIELDS: u32 = 16;

/// After a confirming yield that lost the CPU for `d`, the pool parks at
/// once for `CROWDED_BACKOFF * d` before it probes the host again (two
/// slices lost per probe, so 200 caps the loss at 1 %).
const CROWDED_BACKOFF: u32 = 200;

/// Type-erased job pointer: a borrowed `&(dyn Fn(usize) + Sync)` smuggled
/// across the `'static` requirement of worker threads.
///
/// Soundness argument. `run` publishes the pointer together with a new
/// `generation` under the `state` lock, after setting `active` to the
/// number of workers. A worker reads the pointer only under that lock and
/// only together with a generation it has not served, so it takes each
/// region's pointer at most once, and its `fetch_sub` on `active`
/// (`AcqRel`) comes after its last use of it. `run` *does not return*
/// until it has Acquire-observed `active == 0` — in [`Shared::spin_until`] or,
/// past the bound, in the locked `done_cv` loop; the two differ only in
/// how the caller waits — i.e. until every worker has taken this
/// region's pointer and is done with it. The next region cannot be
/// published earlier either (same caller, or one queued on `fork`), so no
/// worker can skip a generation and wake up holding a stale pointer.
/// Between regions the slot keeps the last pointer, dangling and unread.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation from many threads is its
// contract) and the pool guarantees the pointee outlives all uses (see
// above), so a worker may hold the pointer.
unsafe impl Send for JobPtr {}
// SAFETY: as for `Send`: a shared `JobPtr` only hands out the pointer,
// which is `Copy`, and the pointee is `Sync`.
unsafe impl Sync for JobPtr {}

/// A panic that escaped a region closure, caught at the pool boundary.
#[derive(Debug)]
pub struct RegionPanic {
    /// Logical thread id whose closure panicked (lowest, if several did).
    pub tid: usize,
    /// Stringified panic payload.
    pub what: String,
}

impl std::fmt::Display for RegionPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker thread {} panicked: {}", self.tid, self.what)
    }
}

impl std::error::Error for RegionPanic {}

/// Best-effort stringification of a panic payload.
fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one team thread alone writes, on a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    /// Busy time inside the current region's closure.
    busy_ns: AtomicU64,
    /// Fork-to-closure-entry latency of the current region.
    start_ns: AtomicU64,
    /// Lifetime count of waits this thread finished without parking.
    spin_exits: AtomicU64,
    /// Yields left in which a slow one confirms the host as crowded.
    suspect: AtomicU32,
}

/// The two gates of a bounded user-space wait (module docs): a team
/// wider than the host's CPUs never spins, and a host found crowded
/// bars spinning for `CROWDED_BACKOFF` times what the confirming yield
/// lost. One per pool, shared by its waiters, and one per barrier.
pub(crate) struct SpinGate {
    /// The team fits the host's CPUs, so its waits spin before parking.
    hot: bool,
    /// Creation: the origin of `crowded_until_ns`.
    born: Instant,
    /// While `born.elapsed()` is below this, the host is taken to be
    /// crowded and no wait spins. A hint, so `Relaxed` throughout.
    crowded_until_ns: AtomicU64,
}

impl SpinGate {
    /// The gate of a team of `team` threads.
    pub(crate) fn new(team: usize) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinGate { hot: team <= cpus, born: Instant::now(), crowded_until_ns: AtomicU64::new(0) }
    }

    /// The bounded user-space wait: polls `ready` until it holds
    /// (`true`), or until [`SPIN_BOUND`] has passed or the gate bars
    /// spinning (`false`; the caller parks). `suspect` counts the yields
    /// left in which a slow one confirms the host as crowded.
    pub(crate) fn spin_until(&self, suspect: &AtomicU32, ready: impl Fn() -> bool) -> bool {
        if !self.hot {
            return false;
        }
        let since_born = |t: Instant| (t - self.born).as_nanos() as u64;
        let t0 = Instant::now();
        if since_born(t0) < self.crowded_until_ns.load(Ordering::Relaxed) {
            return false;
        }
        let mut last = t0;
        loop {
            if (0..POLLS_PER_YIELD).any(|_| ready()) {
                return true;
            }
            std::thread::yield_now();
            let now = Instant::now();
            let lost = now - last;
            if lost > SPIN_BOUND {
                // One round of polls is nanoseconds: the yield ran
                // somebody else's thread on this CPU, or the host took
                // the CPU away. The second time in a row it is the former.
                if suspect.swap(CONFIRM_YIELDS, Ordering::Relaxed) > 0 {
                    let cold = lost.as_nanos() as u64 * u64::from(CROWDED_BACKOFF);
                    self.crowded_until_ns.store(since_born(now) + cold, Ordering::Relaxed);
                }
                return ready();
            }
            let left = suspect.load(Ordering::Relaxed);
            if left > 0 {
                suspect.store(left - 1, Ordering::Relaxed);
            }
            if now - t0 >= SPIN_BOUND {
                return ready();
            }
            last = now;
        }
    }
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Regions forked so far. Stored only under the `state` lock, together
    /// with `State::job`; loaded lock-free by spinning workers.
    generation: AtomicU64,
    /// Workers still executing the current generation's job.
    active: AtomicUsize,
    /// Panics caught on workers during the current generation.
    panics: Mutex<Vec<RegionPanic>>,
    /// When set, every region records a [`RegionMetrics`] entry.
    metrics_on: AtomicBool,
    /// Whether and when the team's waits spin.
    gate: SpinGate,
    /// Per-thread slots, indexed by tid (busy/start time are zeroed at
    /// each timed fork).
    slots: Vec<Slot>,
    /// Lifetime count of panics caught at the pool boundary (workers and
    /// thread 0 alike). Never reset: a health probe for shared pools.
    contained: AtomicU64,
}

impl Shared {
    /// The bounded user-space wait both sides of a region use, here on
    /// behalf of thread `tid` ([`SpinGate::spin_until`]).
    fn spin_until(&self, tid: usize, ready: impl Fn() -> bool) -> bool {
        let slot = &self.slots[tid];
        let met = self.gate.spin_until(&slot.suspect, ready);
        if met {
            slot.spin_exits.fetch_add(1, Ordering::Relaxed);
        }
        met
    }
}

struct State {
    /// The current region's closure, and its fork time when the region is
    /// timed.
    job: Option<(JobPtr, Option<Instant>)>,
    shutdown: bool,
    /// Workers asleep on `work_cv`.
    parked: usize,
    /// The forking caller is asleep on `done_cv`.
    joiner_parked: bool,
    /// Lifetime count of condvar sleeps, workers and callers alike.
    parks: u64,
}

/// A fixed-size fork-join pool. Thread ids run `0..threads`, with the
/// caller as id 0.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    /// Completed-region metrics in fork order (only the forking caller
    /// touches this; workers write their `Shared::slots` entry).
    records: Mutex<Vec<RegionMetrics>>,
    /// Serializes whole regions: a pool shared between sessions admits
    /// one forking caller at a time — later callers queue here instead of
    /// racing on the single job slot (and instead of oversubscribing the
    /// machine with overlapping teams).
    fork: Mutex<()>,
}

impl ThreadPool {
    /// Creates a pool presenting `threads` logical OpenMP threads
    /// (`threads - 1` OS workers plus the caller). `threads == 0` is
    /// treated as 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                shutdown: false,
                parked: 0,
                joiner_parked: false,
                parks: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            generation: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
            metrics_on: AtomicBool::new(false),
            gate: SpinGate::new(threads),
            slots: (0..threads).map(|_| Slot::default()).collect(),
            contained: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for tid in 1..threads {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("omprt-worker-{tid}"))
                    .spawn(move || worker_loop(shared, tid))
                    .expect("spawn omprt worker"),
            );
        }
        ThreadPool { shared, handles, threads, records: Mutex::new(Vec::new()), fork: Mutex::new(()) }
    }

    /// Number of logical threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Switches per-region utilization accounting on or off. Off (the
    /// default) keeps `run` free of timing syscalls.
    pub fn set_metrics(&self, on: bool) {
        self.shared.metrics_on.store(on, Ordering::Relaxed);
    }

    /// Drains the [`RegionMetrics`] accumulated since the last call, in
    /// fork order.
    pub fn take_metrics(&self) -> Vec<RegionMetrics> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Lifetime count of panics the pool has contained (on any thread,
    /// including the forking caller). Monotone — it is a health probe for
    /// pools shared across sessions, not a per-region flag: a value that
    /// stopped growing means later regions ran clean.
    pub fn contained_panics(&self) -> u64 {
        self.shared.contained.load(Ordering::Relaxed)
    }

    /// Lifetime counts of how this pool's waits ended, workers and forking
    /// callers alike: `(spin exits, parks)` — waits that found their
    /// condition within [`SPIN_BOUND`], and condvar sleeps. A probe for
    /// tests of the spin/park boundary; read it between regions.
    #[doc(hidden)]
    pub fn wait_counts(&self) -> (u64, u64) {
        let spins = self.shared.slots.iter().map(|s| s.spin_exits.load(Ordering::Relaxed)).sum();
        (spins, self.shared.state.lock().parks)
    }

    /// Runs `f(tid)` once for each `tid in 0..threads`, in parallel, and
    /// returns after all invocations complete (the join of fork-join).
    ///
    /// A panicking closure does not poison the pool: the join still
    /// completes on every thread, and the first panic (lowest tid) comes
    /// back as `Err`. The pool remains usable for later regions.
    ///
    /// Safe for concurrent callers: regions on one pool are serialized,
    /// so sessions sharing a pool take turns instead of racing the job
    /// slot or oversubscribing the machine.
    pub fn run<F>(&self, f: F) -> Result<(), RegionPanic>
    where
        F: Fn(usize) + Sync,
    {
        self.run_tagged(0, Schedule::default(), f)
    }

    /// [`ThreadPool::run`], with the recorded [`RegionMetrics`] tagged by
    /// the source line and loop schedule of the forking construct, so
    /// profile consumers can join utilization back to a specific loop.
    pub fn run_tagged<F>(&self, line: u32, sched: Schedule, f: F) -> Result<(), RegionPanic>
    where
        F: Fn(usize) + Sync,
    {
        let shared = &*self.shared;
        let timing = shared.metrics_on.load(Ordering::Relaxed);
        if self.threads == 1 {
            // Degenerate team: the region *is* the caller's inline call,
            // so busy time equals wall time by construction and the
            // closure starts at the fork.
            let t0 = timing.then(Instant::now);
            let r = catch_unwind(AssertUnwindSafe(|| f(0))).map_err(|p| {
                shared.contained.fetch_add(1, Ordering::Relaxed);
                RegionPanic { tid: 0, what: payload_msg(&*p) }
            });
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                self.records.lock().push(RegionMetrics {
                    threads: 1,
                    wall_ns: ns,
                    busy_ns: vec![ns],
                    start_ns: vec![0],
                    line,
                    sched,
                });
            }
            return r;
        }
        // Admit one region at a time: concurrent sessions sharing this
        // pool queue here rather than overlapping teams. Panics inside
        // the region are caught before the guard drops, so the lock is
        // never abandoned mid-region.
        let _region = self.fork.lock();
        if timing {
            for slot in &shared.slots {
                slot.busy_ns.store(0, Ordering::Relaxed);
                slot.start_ns.store(0, Ordering::Relaxed);
            }
        }
        let forked_at = timing.then(Instant::now);
        let erased: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: see `JobPtr` — we block until all workers are done with
        // the pointer before `f` can be dropped.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
                as *const _
        });
        {
            let mut st = shared.state.lock();
            shared.active.store(self.threads - 1, Ordering::Release);
            st.job = Some((ptr, forked_at));
            if st.parked > 0 {
                shared.work_cv.notify_all();
            }
            // Last, so a spinning worker meets the lock about to open.
            shared.generation.fetch_add(1, Ordering::Release);
        }
        // The caller is thread 0. Catch its panic too: unwinding out of
        // `run` while workers still hold the job pointer would free `f`
        // under them.
        let t0 = run_member(shared, 0, forked_at, || f(0));
        // Join: wait for workers — unconditionally, for soundness.
        let done = || shared.active.load(Ordering::Acquire) == 0;
        if !shared.spin_until(0, done) {
            let mut st = shared.state.lock();
            while !done() {
                st.joiner_parked = true;
                st.parks += 1;
                shared.done_cv.wait(&mut st);
            }
            st.joiner_parked = false;
        }
        if let Some(s) = forked_at {
            let per_thread = |ns: fn(&Slot) -> &AtomicU64| {
                shared.slots.iter().map(|s| ns(s).load(Ordering::Relaxed)).collect()
            };
            self.records.lock().push(RegionMetrics {
                threads: self.threads,
                wall_ns: s.elapsed().as_nanos() as u64,
                busy_ns: per_thread(|s| &s.busy_ns),
                start_ns: per_thread(|s| &s.start_ns),
                line,
                sched,
            });
        }
        let mut caught: Vec<RegionPanic> = shared.panics.lock().drain(..).collect();
        if let Err(p) = t0 {
            shared.contained.fetch_add(1, Ordering::Relaxed);
            caught.push(RegionPanic { tid: 0, what: payload_msg(&*p) });
        }
        match caught.into_iter().min_by_key(|p| p.tid) {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        // A worker still spinning meets `shutdown` when its bound passes.
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One team member's share of a region: `call` under `catch_unwind`,
/// with the member's start latency and busy time written to its slot
/// when the region is timed (`forked_at`).
fn run_member(
    shared: &Shared,
    tid: usize,
    forked_at: Option<Instant>,
    call: impl FnOnce(),
) -> std::thread::Result<()> {
    let entered = forked_at.map(|f| {
        let now = Instant::now();
        shared.slots[tid].start_ns.store((now - f).as_nanos() as u64, Ordering::Relaxed);
        now
    });
    let r = catch_unwind(AssertUnwindSafe(call));
    if let Some(t) = entered {
        shared.slots[tid].busy_ns.store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    r
}

fn worker_loop(shared: Arc<Shared>, tid: usize) {
    let mut served = 0u64;
    loop {
        shared.spin_until(tid, || shared.generation.load(Ordering::Acquire) != served);
        let (job, forked_at) = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                let generation = shared.generation.load(Ordering::Relaxed);
                if generation != served {
                    served = generation;
                    break st.job.expect("generation bumped with job set");
                }
                st.parked += 1;
                st.parks += 1;
                shared.work_cv.wait(&mut st);
                st.parked -= 1;
            }
        };
        // SAFETY: the pointer is valid for the duration of the generation —
        // `run` does not return before it has observed this thread's
        // decrement of `active` below (see `JobPtr`).
        if let Err(p) = run_member(&shared, tid, forked_at, || unsafe { (*job.0)(tid) }) {
            shared.contained.fetch_add(1, Ordering::Relaxed);
            shared.panics.lock().push(RegionPanic { tid, what: payload_msg(&*p) });
        }
        // Decrement even after a panic — a hung join would be worse than
        // the panic itself.
        if shared.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let st = shared.state.lock();
            if st.joiner_parked {
                shared.done_cv.notify_one();
            }
        }
    }
}

/// A registry of [`ThreadPool`]s keyed by team width, shared across
/// sessions so that N concurrent runs requesting `t` threads fork the
/// *same* `t`-wide pool instead of spawning `N × t` OS threads
/// (oversubscription). Cloning the returned `Arc` is the hand-off; pools
/// live until the set and every borrower drop them.
pub struct PoolSet {
    pools: Mutex<Vec<(usize, Arc<ThreadPool>)>>,
}

impl PoolSet {
    /// Creates an empty set; pools materialize lazily per width.
    pub fn new() -> Self {
        PoolSet { pools: Mutex::new(Vec::new()) }
    }

    /// Returns the shared pool presenting `threads` logical threads,
    /// creating it on first request. `threads == 0` is clamped to 1,
    /// matching [`ThreadPool::new`].
    pub fn pool_for(&self, threads: usize) -> Arc<ThreadPool> {
        let threads = threads.max(1);
        let mut pools = self.pools.lock();
        if let Some((_, p)) = pools.iter().find(|(t, _)| *t == threads) {
            return Arc::clone(p);
        }
        let p = Arc::new(ThreadPool::new(threads));
        pools.push((threads, Arc::clone(&p)));
        p
    }

    /// Team widths that have materialized, in creation order.
    pub fn widths(&self) -> Vec<usize> {
        self.pools.lock().iter().map(|(t, _)| *t).collect()
    }

    /// Total OS worker threads owned by the set (the caller thread of each
    /// fork is not an OS worker, so a `t`-wide pool contributes `t - 1`).
    pub fn os_workers(&self) -> usize {
        self.pools.lock().iter().map(|(t, _)| t - 1).sum()
    }

    /// Sum of [`ThreadPool::contained_panics`] over every pool in the set.
    pub fn contained_panics(&self) -> u64 {
        self.pools.lock().iter().map(|(_, p)| p.contained_panics()).sum()
    }
}

impl Default for PoolSet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_thread_id_runs_once() {
        for t in [1usize, 2, 4, 8] {
            let pool = ThreadPool::new(t);
            let hits: Vec<AtomicU64> = (0..t).map(|_| AtomicU64::new(0)).collect();
            pool.run(|tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            for (tid, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "thread {tid} of {t}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_regions() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(|_tid| {
                total.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn borrows_local_data_soundly() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3, 4, 5, 6];
        let sum = AtomicU64::new(0);
        pool.run(|tid| {
            for (i, v) in data.iter().enumerate() {
                if i % 3 == tid {
                    sum.fetch_add(*v, Ordering::Relaxed);
                }
            }
        })
        .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 21);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = AtomicU64::new(0);
        pool.run(|tid| {
            assert_eq!(tid, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn results_deterministic_with_partitioned_writes() {
        // The partition derives from the pool size via `chunks_for`, so
        // the test stays correct for any team width.
        for t in [1usize, 3, 4, 7] {
            let pool = ThreadPool::new(t);
            let n = 1000;
            let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run(|tid| {
                for (lo, hi) in
                    crate::chunks_for(Schedule::StaticBlock, n, tid, pool.threads())
                {
                    for (i, slot) in out.iter().enumerate().take(hi).skip(lo) {
                        slot.store((i * i) as u64, Ordering::Relaxed);
                    }
                }
            })
            .unwrap();
            for (i, c) in out.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), (i * i) as u64, "threads={t}");
            }
        }
    }

    #[test]
    fn dispenser_covers_space_exactly_once_across_forked_region() {
        // Satellite coverage check: a *real* forked region drains the
        // dispenser from concurrent workers; every iteration must be
        // claimed exactly once (sequential consistency of the claim
        // protocol), for both runtime-dispatched kinds.
        for sched in [Schedule::Dynamic(3), Schedule::Guided(2)] {
            let pool = ThreadPool::new(4);
            let n = 10_000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let disp = crate::Dispenser::new(sched, n, pool.threads());
            pool.run(|_tid| {
                while let Some((lo, hi)) = disp.claim() {
                    for slot in hits.iter().take(hi).skip(lo) {
                        slot.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
            .unwrap();
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "{sched:?} iteration {i}");
            }
        }
    }

    #[test]
    fn metrics_off_records_nothing() {
        let pool = ThreadPool::new(2);
        pool.run(|_tid| {}).unwrap();
        assert!(pool.take_metrics().is_empty());
    }

    #[test]
    fn metrics_record_one_region_per_fork() {
        for t in [1usize, 4] {
            let pool = ThreadPool::new(t);
            pool.set_metrics(true);
            for _ in 0..3 {
                pool.run(|_tid| {
                    // Make busy time observable on coarse clocks.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                })
                .unwrap();
            }
            pool.set_metrics(false);
            pool.run(|_tid| {}).unwrap();
            let recs = pool.take_metrics();
            assert_eq!(recs.len(), 3, "threads={t}");
            for m in &recs {
                assert_eq!(m.threads, t);
                assert_eq!(m.busy_ns.len(), t);
                assert!(m.wall_ns > 0);
                // Every thread ran the closure, so every slot is busy.
                for (tid, b) in m.busy_ns.iter().enumerate() {
                    assert!(*b > 0, "threads={t} tid={tid}");
                }
                assert!(m.utilization() > 0.0 && m.utilization() <= 1.0);
                assert!(m.imbalance() >= 1.0);
            }
            // Drained: a second take is empty.
            assert!(pool.take_metrics().is_empty());
        }
    }

    #[test]
    fn worker_panic_is_contained_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let err = pool
            .run(|tid| {
                if tid == 2 {
                    panic!("worker {tid} exploded");
                }
            })
            .unwrap_err();
        assert_eq!(err.tid, 2);
        assert!(err.what.contains("exploded"), "payload: {}", err.what);
        // Self-heal: the same pool serves later regions on all threads.
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.run(|tid| {
            hits[tid].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn thread_zero_panic_still_joins_workers() {
        let pool = ThreadPool::new(3);
        let worker_hits = AtomicU64::new(0);
        let err = pool
            .run(|tid| {
                if tid == 0 {
                    panic!("master exploded");
                }
                worker_hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert_eq!(err.tid, 0);
        assert_eq!(worker_hits.load(Ordering::Relaxed), 2, "join completed on workers");
        // Pool stays healthy.
        pool.run(|_tid| {}).unwrap();
    }

    #[test]
    fn lowest_tid_panic_wins_when_several_fire() {
        let pool = ThreadPool::new(4);
        let err = pool
            .run(|tid| {
                if tid >= 1 {
                    panic!("boom {tid}");
                }
            })
            .unwrap_err();
        assert_eq!(err.tid, 1);
        assert!(err.what.contains("boom 1"));
    }

    #[test]
    fn contained_panics_counts_every_catch_and_is_monotone() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.contained_panics(), 0);
        let _ = pool.run(|tid| {
            if tid >= 2 {
                panic!("boom");
            }
        });
        assert_eq!(pool.contained_panics(), 2, "both panicking workers counted");
        pool.run(|_tid| {}).unwrap();
        assert_eq!(pool.contained_panics(), 2, "clean region leaves the count alone");
        let _ = pool.run(|tid| {
            if tid == 0 {
                panic!("master boom");
            }
        });
        assert_eq!(pool.contained_panics(), 3, "thread-0 catch counted too");
        // Single-thread degenerate path.
        let solo = ThreadPool::new(1);
        let _ = solo.run(|_tid| panic!("inline boom"));
        assert_eq!(solo.contained_panics(), 1);
    }

    #[test]
    fn poolset_shares_one_pool_per_width() {
        let set = PoolSet::new();
        let a = set.pool_for(4);
        let b = set.pool_for(4);
        assert!(Arc::ptr_eq(&a, &b), "same width -> same pool");
        assert_eq!(a.threads(), 4);
        let c = set.pool_for(2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(set.widths(), vec![4, 2]);
        assert_eq!(set.os_workers(), 3 + 1);
        // Clamp matches ThreadPool::new.
        assert_eq!(set.pool_for(0).threads(), 1);
        // Health probe aggregates across pools.
        let _ = a.run(|tid| {
            if tid == 1 {
                panic!("boom");
            }
        });
        assert_eq!(set.contained_panics(), 1);
    }

    #[test]
    fn concurrent_callers_on_one_pool_serialize_regions() {
        // 8 OS threads all fork regions on the same 4-thread pool. The
        // fork lock admits one region at a time, so every region sees a
        // quiescent pool: its 4 increments land before the next begins.
        let pool = Arc::new(ThreadPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        let in_region = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (pool, total, in_region) = (pool.clone(), total.clone(), in_region.clone());
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        pool.run(|tid| {
                            if tid == 0 {
                                // Only one forking caller may be inside.
                                assert_eq!(in_region.fetch_add(1, Ordering::SeqCst), 0);
                            }
                            total.fetch_add(1, Ordering::Relaxed);
                            if tid == 0 {
                                in_region.fetch_sub(1, Ordering::SeqCst);
                            }
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 8 * 25 * 4);
        assert_eq!(pool.contained_panics(), 0);
    }
}
