//! The spin-then-park fork/join of [`omprt::ThreadPool`]: the spin-hit
//! path, the park path and the boundary between them, under panics,
//! shutdown and concurrent callers; and the same gate in an in-region
//! [`omprt::Barrier`] next to CPU hogs.
//!
//! Every test body runs on a thread of its own while the test thread
//! waits for it with a deadline, so a lost wake-up fails the test instead
//! of hanging the suite.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use omprt::pool::SPIN_BOUND;
use omprt::{Barrier, ThreadPool};

/// Runs `body` under a watchdog: panics if it has not finished within
/// `limit`, re-raises its panic if it has one.
fn watched(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => worker.join().expect("body finished"),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung: no result within {limit:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("body panicked"))
        }
    }
}

/// The widest team that still spins on this host (at most 4), or `None`
/// on a single CPU, where every real team is oversubscribed.
fn hot_width() -> Option<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cpus >= 2).then_some(cpus.min(4))
}

/// A few microseconds of work the optimizer cannot remove.
fn body_work(tid: usize) {
    let mut x = tid as u64 + 1;
    for _ in 0..2_000 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(tid as u64));
    }
    std::hint::black_box(x);
}

fn wait_out(gap: Duration) {
    if gap.is_zero() {
        return;
    }
    if gap < SPIN_BOUND {
        // Sleeping overshoots by more than the bound: stay on the CPU.
        let t0 = Instant::now();
        while t0.elapsed() < gap {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(gap);
    }
}

#[test]
fn every_tid_runs_once_per_region_across_the_spin_park_boundary() {
    watched(Duration::from_secs(240), || {
        let team = hot_width().unwrap_or(2);
        let pool = ThreadPool::new(team);
        let hits: Vec<AtomicU64> = (0..team).map(|_| AtomicU64::new(0)).collect();
        let gaps = [Duration::ZERO, SPIN_BOUND / 2, SPIN_BOUND * 2, SPIN_BOUND * 10];
        for region in 0..20_000u64 {
            pool.run(|tid| {
                body_work(tid);
                hits[tid].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            for (tid, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), region + 1, "tid {tid}, region {region}");
            }
            wait_out(gaps[region as usize % gaps.len()]);
        }
        let (spin_exits, parks) = pool.wait_counts();
        assert!(parks > 0, "gaps of 2x and 10x the bound park the workers");
        if hot_width().is_some() {
            assert!(spin_exits > 0, "gaps under the bound are served spinning");
        }
    });
}

#[test]
fn panics_while_the_team_spins_leave_a_working_pool() {
    watched(Duration::from_secs(60), || {
        let team = hot_width().unwrap_or(2);
        let pool = ThreadPool::new(team);
        let warm = |n: usize| {
            for _ in 0..n {
                pool.run(body_work).unwrap();
            }
        };
        for round in 0..20 {
            // Back-to-back regions: the team is spinning when the
            // panicking region is forked.
            warm(10);
            let victim = if round % 2 == 0 { team - 1 } else { 0 };
            let err = pool
                .run(|tid| {
                    if tid == victim {
                        panic!("member {tid} exploded");
                    }
                    body_work(tid);
                })
                .unwrap_err();
            assert_eq!(err.tid, victim);
        }
        assert_eq!(pool.contained_panics(), 20);
        let hits: Vec<AtomicU64> = (0..team).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            pool.run(|tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 100, "tid {tid}");
        }
    });
}

#[test]
fn dropping_the_pool_while_workers_spin_joins_them() {
    watched(Duration::from_secs(60), || {
        let team = hot_width().unwrap_or(2);
        for _ in 0..200 {
            let pool = ThreadPool::new(team);
            pool.run(body_work).unwrap();
            // The workers are inside their bound right now.
            drop(pool);
        }
    });
}

#[test]
fn eight_concurrent_callers_share_one_hot_pool() {
    watched(Duration::from_secs(120), || {
        let team = hot_width().unwrap_or(2);
        let pool = Arc::new(ThreadPool::new(team));
        let total = Arc::new(AtomicU64::new(0));
        let in_region = Arc::new(AtomicU64::new(0));
        let callers: Vec<_> = (0..8)
            .map(|_| {
                let (pool, total, in_region) = (pool.clone(), total.clone(), in_region.clone());
                std::thread::spawn(move || {
                    for _ in 0..500 {
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
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 8 * 500 * team as u64);
        assert_eq!(pool.contained_panics(), 0);
    });
}

#[test]
fn a_team_wider_than_the_host_never_spins() {
    watched(Duration::from_secs(60), || {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = ThreadPool::new(cpus + 1);
        for _ in 0..500 {
            pool.run(body_work).unwrap();
        }
        let (spin_exits, parks) = pool.wait_counts();
        assert_eq!(spin_exits, 0, "an oversubscribed team parks at once");
        assert!(parks > 0);
    });
}

/// CPU hogs on every CPU (two on a 2-CPU host; the test stands down on
/// a single CPU or past four) next to a team of two that fits the host:
/// the team's threads keep losing their CPUs to the hogs, so the
/// barrier's waiters find the host crowded, or outwait the spin bound
/// while the thread they wait for is off its CPU, and sleep instead of
/// yielding to the hogs; every phase still completes, with one last
/// arriver each.
#[test]
fn a_barrier_sleeps_next_to_cpu_hogs() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hot_width().is_none() || cpus > 4 {
        return;
    }
    watched(Duration::from_secs(120), move || {
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));
        let hogs: Vec<_> = (0..cpus)
            .map(|k| {
                let (stop, started) = (Arc::clone(&stop), Arc::clone(&started));
                std::thread::spawn(move || {
                    started.fetch_add(1, Ordering::Relaxed);
                    let t0 = Instant::now();
                    while !stop.load(Ordering::Relaxed) && t0.elapsed() < Duration::from_secs(60) {
                        body_work(k);
                    }
                })
            })
            .collect();
        while started.load(Ordering::Relaxed) < cpus as u64 {
            std::thread::yield_now();
        }
        const PHASES: u64 = 100;
        let pool = ThreadPool::new(2);
        let barrier = Barrier::new(2);
        let lasts = AtomicU64::new(0);
        // Until a wait slept, for at least 300 ms — long enough for the
        // scheduler to take the team's CPUs many times over (slices are
        // milliseconds) — and at most 5 s: the load balancer may keep
        // both team threads on one CPU a while, where each yield hands
        // that CPU to the partner and comes straight back.
        let (t0, mut regions) = (Instant::now(), 0u64);
        while t0.elapsed() < Duration::from_millis(300)
            || (barrier.park_count() == 0 && t0.elapsed() < Duration::from_secs(5))
        {
            pool.run(|tid| {
                for _ in 0..PHASES {
                    body_work(tid);
                    if barrier.wait() {
                        lasts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
            .unwrap();
            regions += 1;
        }
        stop.store(true, Ordering::Relaxed);
        for h in hogs {
            h.join().unwrap();
        }
        assert_eq!(lasts.load(Ordering::Relaxed), regions * PHASES);
        assert_eq!(barrier.wait_count(), 2 * regions * PHASES);
        assert!(barrier.park_count() > 0, "no barrier wait slept next to the CPU hogs");
    });
}
