//! Per-region utilization metrics.
//!
//! The [`crate::pool::ThreadPool`] can account, per fork-join region, how
//! long each team thread spent inside the region closure versus the
//! region's fork-to-join wall time, and how long after the fork it got
//! there. Collection is off by default and
//! switched with [`crate::pool::ThreadPool::set_metrics`]; while off, the
//! only residue in the hot path is one relaxed atomic load per region.

use crate::schedule::Schedule;

/// Utilization record for one parallel region (one fork-join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMetrics {
    /// Logical team size (caller as thread 0, plus workers).
    pub threads: usize,
    /// Fork-to-join wall time of the region, in nanoseconds.
    pub wall_ns: u64,
    /// Per-thread busy time inside the region closure, indexed by tid.
    pub busy_ns: Vec<u64>,
    /// Per-thread wake latency — fork to closure entry — indexed by tid.
    /// What thread 0 pays is the fork itself (publishing the job, waking
    /// parked workers); what a worker pays is noticing it.
    pub start_ns: Vec<u64>,
    /// Source line of the parallel construct that forked the region
    /// (0 when the caller did not tag the fork).
    pub line: u32,
    /// Loop schedule the region ran under.
    pub sched: Schedule,
}

impl RegionMetrics {
    /// Total idle time summed over the team: the capacity
    /// `threads * wall` minus the busy time actually used.
    pub fn idle_ns(&self) -> u64 {
        let cap = self.wall_ns.saturating_mul(self.threads as u64);
        cap.saturating_sub(self.busy_ns.iter().sum())
    }

    /// Mean busy fraction of the team, in [0, 1].
    pub fn utilization(&self) -> f64 {
        let cap = self.wall_ns.saturating_mul(self.threads as u64);
        if cap == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        (busy as f64 / cap as f64).min(1.0)
    }

    /// Max-over-mean busy time — 1.0 means a perfectly balanced team.
    pub fn imbalance(&self) -> f64 {
        let max = self.busy_ns.iter().copied().max().unwrap_or(0);
        let n = self.busy_ns.len().max(1) as f64;
        let mean = self.busy_ns.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 1.0;
        }
        max as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(threads: usize, wall_ns: u64, busy_ns: Vec<u64>) -> RegionMetrics {
        let start_ns = vec![0; busy_ns.len()];
        RegionMetrics { threads, wall_ns, busy_ns, start_ns, line: 0, sched: Schedule::default() }
    }

    #[test]
    fn derived_ratios() {
        let m = metrics(2, 100, vec![100, 50]);
        assert_eq!(m.idle_ns(), 50);
        assert!((m.utilization() - 0.75).abs() < 1e-12);
        assert!((m.imbalance() - 100.0 / 75.0).abs() < 1e-12);
    }

    #[test]
    fn empty_region_is_defined() {
        let m = metrics(4, 0, vec![0; 4]);
        assert_eq!(m.idle_ns(), 0);
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.imbalance(), 1.0);
    }
}
