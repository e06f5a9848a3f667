//! Metric publication for simulation reports. (Timelines of a simulated
//! run are its [`SimConfig::events`](crate::sim::SimConfig::events)
//! streams, which `emx_obs::ChromeTrace::add_event_streams` exports and
//! `emx_obs::render_timeline` draws as text strips.)
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
use emx_obs::MetricsRegistry;

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
    use emx_obs::MetricValue;

    fn report() -> SimReport {
        let costs: Vec<f64> = (1..=16).map(|i| i as f64 * 1e-6).collect();
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(4)
        };
        simulate(&costs, &SimModel::WorkStealing { steal_half: true }, &cfg)
    }

    #[test]
    fn sim_metrics_published() {
        let r = report();
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
