//! Execution reports: per-worker statistics and derived metrics.
//!
//! Every executor run produces an [`ExecutionReport`] from which the
//! study's headline quantities are computed: wall time, utilization
//! (fraction of worker-seconds spent in task bodies), busy-time
//! imbalance, and the scheduling-overhead breakdown.

use std::time::Duration;

/// Statistics of one worker over one run.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Tasks executed by this worker.
    pub tasks: usize,
    /// Total time inside task bodies (including variability padding).
    pub busy: Duration,
    /// Time added by the variability model on this worker.
    pub padded: Duration,
    /// Steal attempts made (work-stealing model only).
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// Shared-counter fetches (dynamic-counter model only).
    pub counter_fetches: u64,
    /// Task panics caught by this worker (injected or genuine).
    pub panics_caught: u64,
    /// Tasks this worker completed after at least one caught panic.
    pub recovered_tasks: u64,
}

/// Full result of one executor run.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Execution-model name.
    pub model: String,
    /// Worker count.
    pub workers: usize,
    /// Task count.
    pub tasks: usize,
    /// Wall-clock time of the parallel region.
    pub wall: Duration,
    /// Per-worker statistics.
    pub worker_stats: Vec<WorkerStats>,
}

impl ExecutionReport {
    /// Fraction of total worker-time spent in task bodies, in `[0, 1]`.
    ///
    /// This is the paper's *system utilization* metric: 1.0 means no
    /// worker ever waited on scheduling, stealing, or imbalance.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.worker_stats.iter().map(|w| w.busy.as_secs_f64()).sum();
        (busy / denom).min(1.0)
    }

    /// Busy-time imbalance: `max(busy) / mean(busy)`; 1.0 is perfect.
    pub fn busy_imbalance(&self) -> f64 {
        let times: Vec<f64> = self
            .worker_stats
            .iter()
            .map(|w| w.busy.as_secs_f64())
            .collect();
        let total: f64 = times.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / times.len() as f64;
        times.iter().cloned().fold(0.0, f64::max) / mean
    }

    /// Total idle + scheduling worker-time: `P·wall − Σ busy`.
    pub fn overhead(&self) -> Duration {
        let total = self.wall.as_secs_f64() * self.workers as f64;
        let busy: f64 = self.worker_stats.iter().map(|w| w.busy.as_secs_f64()).sum();
        Duration::from_secs_f64((total - busy).max(0.0))
    }

    /// Total successful steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.steals).sum()
    }

    /// Total shared-counter fetches across workers.
    pub fn total_counter_fetches(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.counter_fetches).sum()
    }

    /// Total caught task panics across workers (fault injection).
    pub fn total_panics_caught(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.panics_caught).sum()
    }

    /// Total tasks completed after at least one caught panic.
    pub fn total_recovered_tasks(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.recovered_tasks).sum()
    }

    /// Total tasks reported executed (must equal `tasks` — checked by
    /// the executor's own assertion, exposed for tests).
    pub fn total_tasks_run(&self) -> usize {
        self.worker_stats.iter().map(|w| w.tasks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(workers: usize, wall_ms: u64, busys_ms: &[u64]) -> ExecutionReport {
        ExecutionReport {
            model: "test".into(),
            workers,
            tasks: 10,
            wall: Duration::from_millis(wall_ms),
            worker_stats: busys_ms
                .iter()
                .map(|&b| WorkerStats {
                    busy: Duration::from_millis(b),
                    tasks: 1,
                    ..Default::default()
                })
                .collect(),
        }
    }

    #[test]
    fn utilization_full() {
        let r = mk(2, 100, &[100, 100]);
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_half() {
        let r = mk(2, 100, &[100, 0]);
        assert!((r.utilization() - 0.5).abs() < 1e-9);
        assert_eq!(r.overhead(), Duration::from_millis(100));
    }

    #[test]
    fn imbalance_of_even_load_is_one() {
        assert!((mk(4, 50, &[40, 40, 40, 40]).busy_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_skew() {
        let r = mk(2, 100, &[90, 10]);
        assert!((r.busy_imbalance() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_is_guarded() {
        let r = mk(2, 0, &[0, 0]);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.busy_imbalance(), 1.0);
    }
}
