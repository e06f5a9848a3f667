//! Observability adapters for the simulated distributed substrate:
//! Chrome-trace export of DES timelines and metric publication for
//! simulation reports.
//!
//! Metric names (all prefixed by the caller):
//!
//! | suffix              | kind    | unit  | source                      |
//! |---------------------|---------|-------|-----------------------------|
//! | `.makespan_ms`      | gauge   | ms    | [`SimReport::makespan`]     |
//! | `.utilization`      | gauge   | ratio | [`SimReport::utilization`]  |
//! | `.steals`           | counter | count | [`SimReport::steals`]       |
//! | `.steal_attempts`   | counter | count | [`SimReport::steal_attempts`] |
//! | `.counter_fetches`  | counter | count | [`SimReport::counter_fetches`] |

use crate::sim::SimReport;
use emx_obs::{ChromeTrace, MetricsRegistry};

/// Converts a traced simulation report into one Chrome-trace process:
/// one thread track per simulated rank, one `"task"` slice per busy
/// interval. Tracks are labeled `rank N` (the simulator's workers model
/// cluster ranks, unlike the thread runtime's `worker N` tracks), so a
/// combined trace distinguishes the two substrates at a glance.
/// Requires the simulation to have run with `SimConfig::trace = true`
/// (untraced reports yield an empty process).
pub fn sim_report_to_chrome(report: &SimReport, pid: u32, label: &str) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.set_process_name(pid, label.to_string());
    for (w, intervals) in report.traces.iter().enumerate() {
        trace.set_thread_name(pid, w as u32, format!("rank {w}"));
        trace.add_worker_intervals(pid, w as u32, "task", "sim", intervals);
    }
    trace
}

/// Publishes a simulation report's headline numbers under `prefix`.
pub fn publish_sim_metrics(metrics: &MetricsRegistry, prefix: &str, report: &SimReport) {
    metrics.set_gauge(
        &format!("{prefix}.makespan_ms"),
        "ms",
        report.makespan * 1e3,
    );
    metrics.set_gauge(
        &format!("{prefix}.utilization"),
        "ratio",
        report.utilization(),
    );
    metrics
        .counter(&format!("{prefix}.steals"), "count")
        .add(report.steals);
    metrics
        .counter(&format!("{prefix}.steal_attempts"), "count")
        .add(report.steal_attempts);
    metrics
        .counter(&format!("{prefix}.counter_fetches"), "count")
        .add(report.counter_fetches);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::sim::{simulate, SimConfig, SimModel};
    use emx_obs::{Json, MetricValue};

    fn traced_report() -> SimReport {
        let costs: Vec<f64> = (1..=16).map(|i| i as f64 * 1e-6).collect();
        let cfg = SimConfig {
            trace: true,
            machine: MachineModel::ideal(),
            ..SimConfig::new(4)
        };
        simulate(&costs, &SimModel::WorkStealing { steal_half: true }, &cfg)
    }

    #[test]
    fn chrome_trace_has_one_track_per_sim_worker() {
        let r = traced_report();
        let trace = sim_report_to_chrome(&r, 3, "sim ws");
        let v = Json::parse(&trace.to_json_string()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let tracks: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(tracks.len(), 4);
        for (w, name) in tracks.iter().enumerate() {
            assert_eq!(*name, format!("rank {w}"), "sim tracks are rank-labeled");
        }
        let proc = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("process_name"))
            .unwrap();
        assert_eq!(
            proc.get("args").unwrap().get("name").unwrap().as_str(),
            Some("sim ws")
        );
        let slices = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .count();
        assert_eq!(slices, r.traces.iter().map(|t| t.len()).sum::<usize>());
    }

    #[test]
    fn sim_metrics_published() {
        let r = traced_report();
        let m = MetricsRegistry::new();
        publish_sim_metrics(&m, "sim", &r);
        let entries = m.snapshot();
        let steals = entries.iter().find(|e| e.name == "sim.steals").unwrap();
        match &steals.value {
            MetricValue::Counter(v) => assert_eq!(*v, r.steals),
            other => panic!("unexpected {other:?}"),
        }
        let util = entries
            .iter()
            .find(|e| e.name == "sim.utilization")
            .unwrap();
        match &util.value {
            MetricValue::Gauge(v) => assert!((*v - r.utilization()).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }
}
