//! A sense-reversing barrier for in-region synchronization.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::pool::SpinGate;

/// A reusable barrier for a fixed team size that exposes the "serial
/// thread" return like OpenMP's implicit barriers do. A waiter spins as
/// a hot pool's does ([`SpinGate::spin_until`]: polls, a yield every few
/// dozen, parked past [`crate::pool::SPIN_BOUND`]) and sleeps on a
/// condvar once the gate bars spinning: a team wider than the host, or a
/// host that CPU hogs crowd, where a spinning waiter would burn the time
/// slice of the thread it waits for.
///
/// No wake-up is lost: a sleeper raises `sleepers` under `lock` before it
/// re-reads `sense` and sleeps (one step, `Condvar::wait`), and the last
/// arriver flips `sense` before it reads `sleepers`, all `SeqCst`. So
/// either the sleeper sees the flip and does not sleep, or the last
/// arriver sees the sleeper and takes the lock to notify it, which it can
/// only get once the sleeper waits.
pub struct Barrier {
    team: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    /// Lifetime total of `wait` arrivals, for utilization reports.
    waits: AtomicU64,
    gate: SpinGate,
    /// Yields left in which a slow one confirms the host as crowded,
    /// shared by the team's waiters.
    suspect: AtomicU32,
    /// Waiters asleep on `wake`, and the lifetime count of sleeps.
    sleepers: AtomicUsize,
    parks: AtomicU64,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Barrier {
    pub fn new(team: usize) -> Self {
        let team = team.max(1);
        Barrier {
            team,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            waits: AtomicU64::new(0),
            gate: SpinGate::new(team),
            suspect: AtomicU32::new(0),
            sleepers: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Total arrivals observed so far: each thread's `wait` call counts
    /// once, so a full barrier phase adds `team`.
    pub fn wait_count(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Lifetime count of waits that slept on the condvar instead of
    /// finishing in the spin.
    pub fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Waits until all `team` threads arrive. Returns `true` on exactly one
    /// thread (the last to arrive).
    pub fn wait(&self) -> bool {
        self.waits.fetch_add(1, Ordering::Relaxed);
        let my_sense = !self.sense.load(Ordering::Relaxed);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.team {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _held = self.lock.lock();
                self.wake.notify_all();
            }
            true
        } else {
            let released = || self.sense.load(Ordering::Acquire) == my_sense;
            if !self.gate.spin_until(&self.suspect, released) {
                let mut held = self.lock.lock();
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                self.parks.fetch_add(1, Ordering::Relaxed);
                while self.sense.load(Ordering::SeqCst) != my_sense {
                    self.wake.wait(&mut held);
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_thread_barrier_is_noop() {
        let b = Barrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn barrier_orders_phases() {
        let t = 4;
        let pool = ThreadPool::new(t);
        let barrier = Barrier::new(t);
        let phase1 = AtomicU64::new(0);
        let observed_at_phase2: Vec<AtomicU64> = (0..t).map(|_| AtomicU64::new(0)).collect();
        pool.run(|tid| {
            phase1.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
            // After the barrier every thread must see all phase-1 work.
            observed_at_phase2[tid].store(phase1.load(Ordering::Relaxed), Ordering::Relaxed);
        })
        .unwrap();
        for o in &observed_at_phase2 {
            assert_eq!(o.load(Ordering::Relaxed), t as u64);
        }
    }

    #[test]
    fn wait_count_tracks_arrivals() {
        let t = 4;
        let pool = ThreadPool::new(t);
        let barrier = Barrier::new(t);
        assert_eq!(barrier.wait_count(), 0);
        pool.run(|_tid| {
            for _ in 0..5 {
                barrier.wait();
            }
        })
        .unwrap();
        assert_eq!(barrier.wait_count(), 5 * t as u64);
    }

    #[test]
    fn exactly_one_last_arriver_per_phase() {
        let t = 4;
        let pool = ThreadPool::new(t);
        let barrier = Barrier::new(t);
        let lasts = AtomicU64::new(0);
        pool.run(|_tid| {
            for _ in 0..10 {
                if barrier.wait() {
                    lasts.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .unwrap();
        assert_eq!(lasts.load(Ordering::Relaxed), 10);
    }
}
