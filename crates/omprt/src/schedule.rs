//! Loop scheduling: `SCHEDULE(STATIC|DYNAMIC|GUIDED[, chunk])`.
//!
//! Static kinds partition the iteration space with [`chunks_for`];
//! dynamic and guided kinds dispatch chunks at run time through the
//! lock-free [`Dispenser`]. For deterministic replay (Simulated mode)
//! the dynamic/guided kinds also have a *canonical* static partition —
//! [`chunk_sequence`] deals the claim sequence round-robin to threads,
//! which covers the same chunks the dispenser would hand out, just with
//! a fixed owner per chunk.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Loop schedule kinds supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[derive(Default)]
pub enum Schedule {
    /// One contiguous block per thread (OpenMP `STATIC` without a chunk).
    #[default]
    StaticBlock,
    /// Round-robin chunks of the given size (`STATIC, chunk`).
    StaticChunk(usize),
    /// First-come-first-served chunks of the given size (`DYNAMIC[, chunk]`,
    /// default chunk 1), claimed via an atomic fetch-add.
    Dynamic(usize),
    /// Geometrically decaying chunks with the given minimum size
    /// (`GUIDED[, chunk]`, default minimum 1), claimed via a CAS loop.
    Guided(usize),
}

impl Schedule {
    /// The schedule family name: `static`, `dynamic` or `guided`.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::StaticBlock | Schedule::StaticChunk(_) => "static",
            Schedule::Dynamic(_) => "dynamic",
            Schedule::Guided(_) => "guided",
        }
    }

    /// Render as an OpenMP-style clause body, e.g. `static`, `static,8`,
    /// `dynamic,1`, `guided,4`.
    pub fn render(&self) -> String {
        match self {
            Schedule::StaticBlock => "static".to_string(),
            Schedule::StaticChunk(c) => format!("static,{}", c.max(&1)),
            Schedule::Dynamic(c) => format!("dynamic,{}", c.max(&1)),
            Schedule::Guided(c) => format!("guided,{}", c.max(&1)),
        }
    }

    /// Whether chunks are claimed at run time (dynamic/guided) rather
    /// than partitioned up front (static).
    pub fn is_runtime_dispatched(&self) -> bool {
        matches!(self, Schedule::Dynamic(_) | Schedule::Guided(_))
    }

    /// Legalizes the schedule for a loop that stages data through
    /// per-thread (threadprivate) storage. Cross-region write→read
    /// consistency through such storage holds only when the same thread
    /// executes the same iterations every time the loop shape recurs —
    /// the guarantee OpenMP gives for static schedules and explicitly
    /// withholds for dynamic/guided, whose iteration→thread mapping is
    /// first-come-first-served. Dynamic and guided therefore fall back
    /// to the static block default; static schedules pass through.
    pub fn legalize_for_per_thread(self) -> Schedule {
        if self.is_runtime_dispatched() {
            Schedule::StaticBlock
        } else {
            self
        }
    }
}

/// Lock-free iteration dispenser for the dynamic and guided schedules.
///
/// Workers call [`Dispenser::claim`] in a loop until it returns `None`.
/// Every iteration in `0..n` is handed out exactly once across the
/// team; for `Guided` the chunk *boundaries* match [`chunk_sequence`]'s
/// regardless of which worker claims which chunk.
#[derive(Debug)]
pub struct Dispenser {
    next: AtomicUsize,
    n: usize,
    threads: usize,
    sched: Schedule,
}

impl Dispenser {
    /// A dispenser over `n` iterations for a team of `threads`.
    ///
    /// Static schedules are accepted for uniformity and behave like
    /// `Dynamic` with the equivalent chunk size (block schedules use
    /// one `n/threads`-sized chunk floor-ed at 1).
    pub fn new(sched: Schedule, n: usize, threads: usize) -> Dispenser {
        Dispenser { next: AtomicUsize::new(0), n, threads: threads.max(1), sched }
    }

    /// Fixed chunk size for the non-guided kinds.
    fn fixed_chunk(&self) -> usize {
        match self.sched {
            Schedule::StaticBlock => (self.n / self.threads).max(1),
            Schedule::StaticChunk(c) | Schedule::Dynamic(c) => c.max(1),
            Schedule::Guided(_) => unreachable!("guided uses the CAS path"),
        }
    }

    /// Claim the next chunk, or `None` once the space is exhausted.
    pub fn claim(&self) -> Option<(usize, usize)> {
        if let Schedule::Guided(min_chunk) = self.sched {
            let min_chunk = min_chunk.max(1);
            loop {
                let lo = self.next.load(Ordering::Acquire);
                if lo >= self.n {
                    return None;
                }
                let remaining = self.n - lo;
                let chunk =
                    (remaining / (2 * self.threads)).max(min_chunk).min(remaining);
                match self.next.compare_exchange_weak(
                    lo,
                    lo + chunk,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some((lo, lo + chunk)),
                    Err(_) => continue,
                }
            }
        }
        let chunk = self.fixed_chunk();
        let lo = self.next.fetch_add(chunk, Ordering::AcqRel);
        if lo >= self.n {
            // Park the counter so repeated drained claims cannot
            // overflow the atomic no matter how often they retry.
            self.next.store(self.n, Ordering::Release);
            return None;
        }
        Some((lo, (lo + chunk).min(self.n)))
    }
}

/// The chunks of `sched` over `n` iterations for a team of `threads`,
/// in iteration order: half-open `(lo, hi)` ranges over a zero-based
/// iteration space, each with the thread that owns it. Lazy, so a
/// schedule over `2**64` iterations costs nothing until its chunks are
/// asked for.
///
/// A block schedule gives each thread one contiguous block, the first
/// `n % threads` of them one iteration more. A chunked schedule deals
/// chunks of its size round-robin; a guided one deals decaying chunks
/// round-robin, each `remaining / (2 * threads)` clamped to at least its
/// minimum and at most what remains. For `Dynamic` and `Guided` this is
/// the *canonical* owner assignment that Simulated mode replays: real
/// runs claim the same chunks through the [`Dispenser`]
/// first-come-first-served, whose CAS serializes claims, so only a
/// chunk's owner is racy, never its boundaries.
pub fn chunk_sequence(sched: Schedule, n: usize, threads: usize) -> Chunks {
    Chunks { sched, n, threads: threads.max(1), lo: 0, dealt: 0 }
}

/// The iterator [`chunk_sequence`] returns: `(lo, hi, owner)` per chunk.
#[derive(Debug, Clone)]
pub struct Chunks {
    sched: Schedule,
    n: usize,
    threads: usize,
    /// Where the next chunk starts.
    lo: usize,
    /// Chunks dealt so far.
    dealt: usize,
}

impl Iterator for Chunks {
    type Item = (usize, usize, usize);

    fn next(&mut self) -> Option<(usize, usize, usize)> {
        let (lo, remaining, threads) = (self.lo, self.n - self.lo, self.threads);
        if remaining == 0 {
            return None;
        }
        // A block schedule's blocks sum to `n`, so none is empty while
        // iterations remain.
        let len = match self.sched {
            Schedule::StaticBlock => self.n / threads + usize::from(self.dealt < self.n % threads),
            Schedule::StaticChunk(c) | Schedule::Dynamic(c) => c.max(1),
            Schedule::Guided(min_chunk) => (remaining / (2 * threads)).max(min_chunk.max(1)),
        };
        self.lo += len.min(remaining);
        self.dealt += 1;
        Some((lo, self.lo, (self.dealt - 1) % threads))
    }
}

/// The chunks of [`chunk_sequence`] that thread `tid` of `threads` owns,
/// in iteration order.
pub fn chunks_for(
    sched: Schedule,
    n: usize,
    tid: usize,
    threads: usize,
) -> impl Iterator<Item = (usize, usize)> {
    debug_assert!(tid < threads.max(1));
    chunk_sequence(sched, n, threads).filter(move |c| c.2 == tid).map(|(lo, hi, _)| (lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn covers_exactly(sched: Schedule, n: usize, threads: usize) {
        let mut seen = vec![0u32; n];
        for tid in 0..threads {
            for (lo, hi) in chunks_for(sched, n, tid, threads) {
                assert!(lo <= hi && hi <= n);
                for slot in seen.iter_mut().take(hi).skip(lo) {
                    *slot += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{sched:?} n={n} t={threads}: {seen:?}");
    }

    #[test]
    fn legalize_demotes_dispatched_kinds_only() {
        assert_eq!(Schedule::Dynamic(3).legalize_for_per_thread(), Schedule::StaticBlock);
        assert_eq!(Schedule::Guided(2).legalize_for_per_thread(), Schedule::StaticBlock);
        assert_eq!(Schedule::StaticBlock.legalize_for_per_thread(), Schedule::StaticBlock);
        assert_eq!(
            Schedule::StaticChunk(4).legalize_for_per_thread(),
            Schedule::StaticChunk(4)
        );
    }

    /// All schedule kinds exercised by the edge-case tests below.
    fn all_kinds(chunk: usize) -> Vec<Schedule> {
        vec![
            Schedule::StaticBlock,
            Schedule::StaticChunk(chunk),
            Schedule::Dynamic(chunk),
            Schedule::Guided(chunk),
        ]
    }

    #[test]
    fn block_schedule_balanced() {
        // 10 iterations over 4 threads: 3,3,2,2.
        let lens: Vec<usize> = (0..4)
            .map(|t| {
                chunks_for(Schedule::StaticBlock, 10, t, 4)
                    .map(|(lo, hi)| hi - lo)
                    .sum()
            })
            .collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }

    #[test]
    fn empty_iteration_space() {
        for sched in all_kinds(4) {
            for tid in 0..4 {
                assert!(
                    chunks_for(sched, 0, tid, 4).next().is_none(),
                    "{sched:?} tid={tid}"
                );
            }
            let d = Dispenser::new(sched, 0, 4);
            assert_eq!(d.claim(), None, "{sched:?}");
            assert_eq!(d.claim(), None, "{sched:?} repeated claim");
        }
    }

    #[test]
    fn more_threads_than_iterations() {
        for sched in all_kinds(2) {
            covers_exactly(sched, 3, 8);
        }
    }

    #[test]
    fn chunk_larger_than_space() {
        // chunk > n: one chunk, clamped to the space.
        for sched in [Schedule::StaticChunk(64), Schedule::Dynamic(64), Schedule::Guided(64)] {
            covers_exactly(sched, 5, 4);
            let owned: Vec<(usize, usize)> = (0..4)
                .flat_map(|t| chunks_for(sched, 5, t, 4))
                .collect();
            assert_eq!(owned, vec![(0, 5)], "{sched:?}");
        }
    }

    #[test]
    fn guided_chunks_decay_and_cover() {
        let guided = |min| -> Vec<(usize, usize)> {
            chunk_sequence(Schedule::Guided(min), 100, 4).map(|(lo, hi, _)| (lo, hi)).collect()
        };
        let seq = guided(1);
        // Contiguous cover of 0..100.
        assert_eq!(seq.first(), Some(&(0, 12)));
        assert_eq!(seq.last().map(|&(_, hi)| hi), Some(100));
        for w in seq.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks contiguous");
            assert!(w[0].1 - w[0].0 >= w[1].1 - w[1].0, "chunks non-increasing");
        }
        // The minimum chunk is respected until the tail remnant.
        let seq = guided(8);
        for &(lo, hi) in &seq[..seq.len() - 1] {
            assert!(hi - lo >= 8);
        }
    }

    #[test]
    fn dispenser_sequential_drain_matches_canonical_chunks() {
        // Drained from one thread, the dispenser hands out exactly the
        // canonical chunk sequence in order.
        for sched in [Schedule::Dynamic(7), Schedule::Guided(3)] {
            let n = 95;
            let threads = 4;
            let d = Dispenser::new(sched, n, threads);
            let mut claimed = Vec::new();
            while let Some(c) = d.claim() {
                claimed.push(c);
            }
            let mut canonical: Vec<(usize, usize)> =
                (0..threads).flat_map(|t| chunks_for(sched, n, t, threads)).collect();
            canonical.sort_unstable();
            assert_eq!(claimed, canonical, "{sched:?}");
        }
    }

    /// Chunks are dealt as they are asked for: the round-robin of a
    /// schedule over every `usize` index starts at once.
    #[test]
    fn chunks_are_dealt_lazily() {
        let n = usize::MAX;
        let seq: Vec<_> = chunk_sequence(Schedule::StaticChunk(1), n, 2).take(3).collect();
        assert_eq!(seq, vec![(0, 1, 0), (1, 2, 1), (2, 3, 0)]);
        assert_eq!(chunks_for(Schedule::Dynamic(4), n, 1, 2).nth(1), Some((12, 16)));
        let half = n / 2 + 1;
        assert_eq!(chunks_for(Schedule::StaticBlock, n, 0, 2).next(), Some((0, half)));
    }

    proptest! {
        #[test]
        fn block_partitions(n in 0usize..200, threads in 1usize..17) {
            covers_exactly(Schedule::StaticBlock, n, threads);
        }

        #[test]
        fn chunked_partitions(n in 0usize..200, threads in 1usize..17, chunk in 1usize..9) {
            covers_exactly(Schedule::StaticChunk(chunk), n, threads);
        }

        #[test]
        fn dynamic_partitions(n in 0usize..200, threads in 1usize..17, chunk in 1usize..9) {
            covers_exactly(Schedule::Dynamic(chunk), n, threads);
        }

        #[test]
        fn guided_partitions(n in 0usize..200, threads in 1usize..17, chunk in 1usize..9) {
            covers_exactly(Schedule::Guided(chunk), n, threads);
        }

        #[test]
        fn dispenser_drains_exactly_once(
            n in 0usize..200, threads in 1usize..17, chunk in 1usize..9, guided in 0usize..2,
        ) {
            let sched = if guided == 1 { Schedule::Guided(chunk) } else { Schedule::Dynamic(chunk) };
            let d = Dispenser::new(sched, n, threads);
            let mut seen = vec![0u32; n];
            while let Some((lo, hi)) = d.claim() {
                prop_assert!(lo < hi && hi <= n);
                for slot in seen.iter_mut().take(hi).skip(lo) {
                    *slot += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }
    }
}
