//! `reproduce distsim` measurement: event-core throughput of the
//! discrete-event simulator at cluster scale.
//!
//! The full policy roster runs at 10⁴–10⁵ simulated ranks twice per
//! scale — once on the production calendar-queue event core and once on
//! the retained binary-heap oracle ([`emx_distsim::eventq::QueueKind`]). Both
//! backends pop the same `(time, seq)` total order, so every pair is
//! asserted **bitwise identical** before its walls count; the figure of
//! merit is simulated events per second of wall clock (events =
//! executed tasks + counter fetches + steal attempts).
//!
//! The floor is deliberately host-independent: rather than pinning
//! an absolute events/sec (which varies with hardware), the gate is the
//! *ratio* of calendar throughput to heap throughput on the same host —
//! the calendar core must deliver at least [`DISTSIM_FLOOR_RATIO`] of
//! the oracle's rate in aggregate. `EMX_DISTSIM_SMOKE=1` shrinks the
//! rank sweep for CI.

use emx_distsim::machine::MachineModel;
use emx_distsim::prelude::*;
use emx_distsim::sim::SimModel;
use std::time::Instant;

/// True when `EMX_DISTSIM_SMOKE` is set — CI's fast mode (10³/10⁴
/// ranks, single sample).
pub fn distsim_smoke() -> bool {
    std::env::var("EMX_DISTSIM_SMOKE").is_ok()
}

/// Aggregate calendar throughput must be at least this multiple of the
/// heap oracle's (host-independent: both run on the same machine in the
/// same process): the production backend may not lose to its oracle.
/// The sort-on-open calendar reads 1.7–2.1× at 10⁴–10⁵ ranks, ten smoke
/// runs on a noisy two-core host read 1.60–2.07, and `benchmark/`'s
/// `distsim.heap_over_calendar` is 1.5–1.8 at both 2 and 128 tasks a
/// rank; the per-bucket-heap calendar before it read 0.94×.
pub const DISTSIM_FLOOR_RATIO: f64 = 1.0;

/// One (model, rank count) cell of the sweep.
pub struct DistsimBenchRow {
    /// Scheduling model name ([`SimModel::name`]).
    pub model: &'static str,
    /// Simulated ranks (workers).
    pub ranks: usize,
    /// Tasks in the workload.
    pub ntasks: usize,
    /// Simulated events processed: executed tasks + counter fetches +
    /// steal attempts (identical across backends by the oracle check).
    pub events: u64,
    /// Best-of-`samples` wall on the calendar-queue backend.
    pub calendar_wall_secs: f64,
    /// Best-of-`samples` wall on the binary-heap oracle.
    pub heap_wall_secs: f64,
    /// Simulated makespan (s) — identical across backends.
    pub makespan: f64,
}

impl DistsimBenchRow {
    /// Events per second of wall clock on the calendar backend.
    pub fn calendar_events_per_sec(&self) -> f64 {
        if self.calendar_wall_secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.calendar_wall_secs
        }
    }

    /// Events per second of wall clock on the heap oracle.
    pub fn heap_events_per_sec(&self) -> f64 {
        if self.heap_wall_secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.heap_wall_secs
        }
    }

    /// Calendar wall speedup over the heap oracle (>1 = faster).
    pub fn speedup_vs_heap(&self) -> f64 {
        if self.calendar_wall_secs <= 0.0 {
            0.0
        } else {
            self.heap_wall_secs / self.calendar_wall_secs
        }
    }
}

/// Everything the `reproduce distsim` arm reports.
pub struct DistsimBenchReport {
    /// Timed runs per cell (walls are the minimum).
    pub samples: usize,
    /// One row per (model, rank count).
    pub rows: Vec<DistsimBenchRow>,
}

impl DistsimBenchReport {
    /// Aggregate calendar throughput: total events over total wall.
    pub fn calendar_rate(&self) -> f64 {
        let (e, w) = self.rows.iter().fold((0u64, 0.0), |(e, w), r| {
            (e + r.events, w + r.calendar_wall_secs)
        });
        if w <= 0.0 {
            0.0
        } else {
            e as f64 / w
        }
    }

    /// Aggregate heap-oracle throughput: total events over total wall.
    pub fn heap_rate(&self) -> f64 {
        let (e, w) = self.rows.iter().fold((0u64, 0.0), |(e, w), r| {
            (e + r.events, w + r.heap_wall_secs)
        });
        if w <= 0.0 {
            0.0
        } else {
            e as f64 / w
        }
    }

    /// The CI gate: aggregate calendar rate over aggregate heap rate.
    pub fn ratio_vs_heap(&self) -> f64 {
        let h = self.heap_rate();
        if h <= 0.0 {
            0.0
        } else {
            self.calendar_rate() / h
        }
    }
}

/// The full scheduling-model roster at `n` tasks on `p` ranks — the
/// same seven models the oracle-equivalence suite pins.
fn roster(n: usize, p: usize) -> Vec<SimModel> {
    let owners: Vec<u32> = (0..n).map(|i| (i * p / n.max(1)) as u32).collect();
    vec![
        SimModel::Static(owners.clone()),
        SimModel::Counter { chunk: 4 },
        SimModel::Guided { min_chunk: 2 },
        SimModel::HierCounters {
            chunk: 4,
            node_size: 32,
            parent_chunk: 32,
        },
        SimModel::WorkStealing { steal_half: true },
        SimModel::SeededStealing {
            owners,
            steal_half: true,
        },
        SimModel::TopologyStealing { steal_half: true },
    ]
}

/// Measures the roster at each rank count in `rank_counts`, with
/// `tasks_per_rank` tasks per rank and min-of-`samples` walls. Each
/// cell runs on both backends and the pair is asserted bitwise
/// identical (makespan ULPs, per-worker task counts, all counters)
/// before its walls are recorded.
pub fn distsim_measure_at(
    rank_counts: &[usize],
    tasks_per_rank: usize,
    samples: usize,
) -> DistsimBenchReport {
    let mut rows = Vec::new();
    for &p in rank_counts {
        let n = p * tasks_per_rank;
        // Deterministic skewed costs — same shape as the scale tests.
        let costs: Vec<f64> = (0..n).map(|i| ((i * 13) % 7 + 1) as f64 * 1e-6).collect();
        for model in roster(n, p) {
            let mut cfg = SimConfig::new(p);
            cfg.machine = MachineModel::with_topology();
            let run = |queue: QueueKind| -> (f64, SimReport) {
                let mut qcfg = cfg.clone();
                qcfg.queue = queue;
                let mut best = f64::INFINITY;
                let mut last = simulate(&costs, &model, &qcfg);
                for _ in 0..samples {
                    let t0 = Instant::now();
                    last = simulate(&costs, &model, &qcfg);
                    best = best.min(t0.elapsed().as_secs_f64());
                }
                (best, last)
            };
            let (calendar_wall_secs, cal) = run(QueueKind::Calendar);
            let (heap_wall_secs, heap) = run(QueueKind::Heap);
            assert_eq!(
                cal.makespan.to_bits(),
                heap.makespan.to_bits(),
                "{} p={p}: calendar/heap makespan diverged",
                model.name()
            );
            assert_eq!(
                cal.tasks,
                heap.tasks,
                "{} p={p}: calendar/heap task counts diverged",
                model.name()
            );
            assert_eq!(
                (cal.counter_fetches, cal.steals, cal.steal_attempts),
                (heap.counter_fetches, heap.steals, heap.steal_attempts),
                "{} p={p}: calendar/heap counters diverged",
                model.name()
            );
            let events =
                cal.tasks.iter().sum::<usize>() as u64 + cal.counter_fetches + cal.steal_attempts;
            rows.push(DistsimBenchRow {
                model: model.name(),
                ranks: p,
                ntasks: n,
                events,
                calendar_wall_secs,
                heap_wall_secs,
                makespan: cal.makespan,
            });
        }
    }
    DistsimBenchReport { samples, rows }
}

/// Runs the sweep and collects the report. Full mode: 10⁴ and 10⁵
/// ranks, 3 samples. Smoke: 10³ and 10⁴ ranks, single sample.
pub fn distsim_measure(smoke: bool) -> DistsimBenchReport {
    if smoke {
        distsim_measure_at(&[1_000, 10_000], 2, 1)
    } else {
        distsim_measure_at(&[10_000, 100_000], 2, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_the_full_roster_on_both_backends() {
        // Unit-test sizes (debug builds); the reproduce arm runs the
        // real 10⁴–10⁵ sweep in release.
        let report = distsim_measure_at(&[64, 256], 2, 1);
        assert_eq!(report.rows.len(), 2 * 7, "roster × rank counts");
        for r in &report.rows {
            assert!(r.events >= r.ntasks as u64, "{}: event floor", r.model);
            assert!(r.calendar_wall_secs > 0.0 && r.heap_wall_secs > 0.0);
            assert!(r.makespan > 0.0);
        }
        assert!(report.calendar_rate() > 0.0);
        assert!(report.heap_rate() > 0.0);
        assert!(report.ratio_vs_heap() > 0.0);
    }
}
