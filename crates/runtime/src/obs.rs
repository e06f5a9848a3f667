//! Optional executor observability: metric handles and event rings.
//!
//! An [`Executor`](crate::pool::Executor) carries `obs: Option<RuntimeObs>`.
//! With `None` (the default) the task loop touches no registry, no ring
//! and no extra clocks — the only cost is one predictable branch per
//! task. With `Some`, every worker resolves its metric handles once at
//! spawn time and then updates plain atomics / its own event ring from
//! the hot loop.
//!
//! ## Metric names (all registered lazily, only when obs is attached)
//!
//! | name                           | kind      | unit  |
//! |--------------------------------|-----------|-------|
//! | `runtime.tasks`                | counter   | count |
//! | `runtime.task_duration`        | histogram | ns    |
//! | `runtime.steal_attempts`       | counter   | count |
//! | `runtime.steals`               | counter   | count |
//! | `runtime.steal_latency`        | histogram | ns    |
//! | `runtime.counter_fetches`      | counter   | count |
//! | `runtime.counter_fetch_latency`| histogram | ns    |
//! | `runtime.faults.injected`      | counter   | events|
//! | `runtime.faults.recovered`     | counter   | tasks |
//! | `runtime.faults.recovery_latency`| histogram | ns  |
//!
//! The three `runtime.faults.*` metrics are registered only when the
//! executor carries a [`FaultInjection`](crate::faults::FaultInjection)
//! config. Recovery latency is measured from a task's first caught
//! panic to its successful completion.
//!
//! Steal latency is measured from the moment a worker runs out of local
//! work to the moment a steal succeeds — the paper's "time to find
//! work", not the cost of one deque operation. The same interval is
//! recorded as a hunt on the worker's ring when rings are attached.

use crate::report::ExecutionReport;
use emx_obs::{Counter, Histogram, MetricsRegistry, RingSet, RingWriter};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Observability attachment for an executor run: a metrics registry
/// and optional per-worker profiling event rings.
#[derive(Clone)]
pub struct RuntimeObs {
    /// Registry receiving the runtime.* metrics.
    pub metrics: Arc<MetricsRegistry>,
    /// Per-worker profiling event rings (the one capture path:
    /// bounded, allocation-free after setup). Worker `w` writes ring
    /// `w`; drain with [`RingSet::snapshot_all`] after the run.
    pub rings: Option<Arc<RingSet>>,
}

impl RuntimeObs {
    /// Metrics-only observability (no event rings).
    pub fn new(metrics: Arc<MetricsRegistry>) -> RuntimeObs {
        RuntimeObs {
            metrics,
            rings: None,
        }
    }

    /// Attaches per-worker profiling rings. Each worker then records
    /// task / steal / counter-fetch / idle events (and the reduction
    /// merges) into its own bounded ring — three atomic stores per
    /// event, no allocation, overwrite-oldest when full.
    pub fn with_rings(mut self, rings: Arc<RingSet>) -> RuntimeObs {
        self.rings = Some(rings);
        self
    }
}

impl fmt::Debug for RuntimeObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeObs")
            .field("metrics", &"MetricsRegistry")
            .field("rings", &self.rings.is_some())
            .finish()
    }
}

/// Per-worker handles, resolved once at worker spawn so the hot loop
/// never takes the registry lock.
pub(crate) struct WorkerObs {
    pub(crate) tasks: Arc<Counter>,
    pub(crate) task_duration: Arc<Histogram>,
    pub(crate) steal_attempts: Arc<Counter>,
    pub(crate) steals: Arc<Counter>,
    pub(crate) steal_latency: Arc<Histogram>,
    pub(crate) counter_fetches: Arc<Counter>,
    pub(crate) counter_fetch_latency: Arc<Histogram>,
    pub(crate) faults: Option<FaultObsHandles>,
    /// Producer handle into this worker's profiling ring (`None` when
    /// the run has no rings attached — then no event clock is read).
    pub(crate) ring: Option<RingWriter>,
}

/// Fault-injection metric handles, resolved only when the executor
/// carries a fault config (so fault-free runs register no fault names).
pub(crate) struct FaultObsHandles {
    pub(crate) injected: Arc<Counter>,
    pub(crate) recovered: Arc<Counter>,
    pub(crate) recovery_latency: Arc<Histogram>,
}

impl WorkerObs {
    pub(crate) fn for_worker(obs: &RuntimeObs, worker: u32) -> WorkerObs {
        let m = &obs.metrics;
        WorkerObs {
            tasks: m.counter("runtime.tasks", "count"),
            task_duration: m.histogram("runtime.task_duration", "ns"),
            steal_attempts: m.counter("runtime.steal_attempts", "count"),
            steals: m.counter("runtime.steals", "count"),
            steal_latency: m.histogram("runtime.steal_latency", "ns"),
            counter_fetches: m.counter("runtime.counter_fetches", "count"),
            counter_fetch_latency: m.histogram("runtime.counter_fetch_latency", "ns"),
            faults: None,
            ring: obs.rings.as_ref().map(|r| r.writer(worker as usize)),
        }
    }

    /// Resolves the `runtime.faults.*` handles (call only when the run
    /// actually injects faults).
    pub(crate) fn attach_fault_handles(&mut self, obs: &RuntimeObs) {
        let m = &obs.metrics;
        self.faults = Some(FaultObsHandles {
            injected: m.counter("runtime.faults.injected", "events"),
            recovered: m.counter("runtime.faults.recovered", "tasks"),
            recovery_latency: m.histogram("runtime.faults.recovery_latency", "ns"),
        });
    }
}

/// Publishes a report's derived quantities as gauges under `prefix`
/// (e.g. `ws.utilization`, `ws.busy_imbalance`, `ws.wall_ms`).
pub fn publish_report_gauges(metrics: &MetricsRegistry, prefix: &str, report: &ExecutionReport) {
    metrics.set_gauge(
        &format!("{prefix}.utilization"),
        "ratio",
        report.utilization(),
    );
    metrics.set_gauge(
        &format!("{prefix}.busy_imbalance"),
        "ratio",
        report.busy_imbalance(),
    );
    metrics.set_gauge(
        &format!("{prefix}.wall_ms"),
        "ms",
        report.wall.as_secs_f64() * 1e3,
    );
    metrics.set_gauge(&format!("{prefix}.workers"), "count", report.workers as f64);
}

/// `Duration` → saturating nanoseconds for histogram recording.
#[inline]
pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkerStats;

    #[test]
    fn gauges_published_under_prefix() {
        let report = ExecutionReport {
            model: "static-block".into(),
            workers: 2,
            tasks: 1,
            wall: Duration::from_millis(10),
            worker_stats: vec![
                WorkerStats {
                    busy: Duration::from_millis(10),
                    tasks: 1,
                    ..Default::default()
                },
                WorkerStats::default(),
            ],
        };
        let m = MetricsRegistry::new();
        publish_report_gauges(&m, "sb", &report);
        let names: Vec<String> = m.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "sb.busy_imbalance",
                "sb.utilization",
                "sb.wall_ms",
                "sb.workers"
            ]
        );
    }
}
