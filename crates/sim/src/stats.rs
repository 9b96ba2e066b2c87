//! Simulation reports and derived metrics.

use serde::{Deserialize, Serialize};

/// Counters for the fault-injection subsystem. All zero in a fault-free
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Fault events applied during the run.
    pub injected: u64,
    /// Pages that transitioned to dead.
    pub pages_killed: u64,
    /// Pages that transitioned to degraded (still usable, slower).
    pub pages_degraded: u64,
    /// Threads shrunk/remapped onto surviving pages by a page death.
    pub threads_remapped: u64,
    /// Threads that lost their last page and had to re-queue.
    pub threads_revoked: u64,
    /// Kernel iterations that were in flight when their pages died and
    /// had to be re-run after re-admission.
    pub iterations_deferred: u64,
    /// Cycles from each fault to the moment the affected thread was
    /// making progress again (remap boundary + switch overhead, or
    /// re-admission from the queue).
    pub recovery_cycles: u64,
    /// Pages repaired after a transient fault (Dead → Repairing →
    /// Healthy, returned to the allocator's free pool).
    pub repairs: u64,
    /// Threads re-expanded onto repaired pages by the supervision
    /// policy.
    pub reexpansions: u64,
}

impl FaultStats {
    /// Whether any fault was applied.
    pub fn any(&self) -> bool {
        self.injected > 0
    }

    /// Add `other`'s counters into `self` (sweep drivers aggregate the
    /// per-seed counters of one point this way).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.pages_killed += other.pages_killed;
        self.pages_degraded += other.pages_degraded;
        self.threads_remapped += other.threads_remapped;
        self.threads_revoked += other.threads_revoked;
        self.iterations_deferred += other.iterations_deferred;
        self.recovery_cycles += other.recovery_cycles;
        self.repairs += other.repairs;
        self.reexpansions += other.reexpansions;
    }
}

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Cycle at which the last thread finished.
    pub makespan: u64,
    /// Per-thread completion times.
    pub thread_finish: Vec<u64>,
    /// Total kernel iterations executed on the CGRA.
    pub cgra_iterations: u64,
    /// Integral of allocated pages over time (page·cycles) — CGRA
    /// occupancy. It equals the occupancy integrated from the run's
    /// trace page lists; the `golden_sim` test checks that on every run.
    pub page_cycles: u64,
    /// Number of shrink transformations performed.
    pub shrinks: u64,
    /// Number of expand transformations performed.
    pub expands: u64,
    /// Cycles threads spent stalled waiting for CGRA pages.
    pub stall_cycles: u64,
    /// Fault-injection counters (all zero when no faults were injected).
    pub faults: FaultStats,
}

impl SimReport {
    /// Mean page occupancy over the run (pages in use on average).
    pub fn mean_pages_busy(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.page_cycles as f64 / self.makespan as f64
        }
    }
}

/// Percentage improvement of `ours` over `baseline` in completion time
/// (positive = ours finished sooner). The Fig. 9 metric.
pub fn improvement_percent(baseline_makespan: u64, ours_makespan: u64) -> f64 {
    if ours_makespan == 0 {
        return 0.0;
    }
    (baseline_makespan as f64 / ours_makespan as f64 - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_signs() {
        assert!(improvement_percent(200, 100) > 0.0);
        assert!(improvement_percent(100, 200) < 0.0);
        assert_eq!(improvement_percent(100, 100), 0.0);
    }

    #[test]
    fn improvement_magnitude() {
        assert!((improvement_percent(300, 100) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn mean_pages() {
        let r = SimReport {
            makespan: 100,
            thread_finish: vec![50, 100],
            cgra_iterations: 10,
            page_cycles: 400,
            shrinks: 0,
            expands: 0,
            stall_cycles: 0,
            faults: FaultStats::default(),
        };
        assert_eq!(r.mean_pages_busy(), 4.0);
        assert!(!r.faults.any());
    }
}
