//! The spin-then-park fork/join of [`omprt::ThreadPool`]: the spin-hit
//! path, the park path and the boundary between them, under panics,
//! shutdown and concurrent callers.
//!
//! Every test body runs on a thread of its own while the test thread
//! waits for it with a deadline, so a lost wake-up fails the test instead
//! of hanging the suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use omprt::pool::SPIN_BOUND;
use omprt::ThreadPool;

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
