//! Calendar-vs-heap oracle equivalence.
//!
//! The simulator's production event core is a bucketed calendar queue;
//! the binary heap is retained as the ordering oracle. Because every
//! event is keyed `(time, insertion sequence)` and both backends pop
//! the same total order, a simulation must be **bitwise identical**
//! under either backend — makespan to the last ULP, every per-worker
//! series, every profiling event (task intervals included, as ns
//! timestamps), and all fault accounting. Every case captures events,
//! so none of the stream comparisons is vacuous. This matrix pins that
//! across the full policy roster,
//! fault scenarios, seeds, and scales (including coincident-timestamp
//! regimes on the ideal machine, where the old per-site heap keys
//! diverged).

mod common;

use common::roster;
use emx_distsim::machine::MachineModel;
use emx_distsim::prelude::*;

fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{label}: makespan diverged"
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.busy), bits(&b.busy), "{label}: busy diverged");
    assert_eq!(a.tasks, b.tasks, "{label}: task counts diverged");
    assert_eq!(a.steals, b.steals, "{label}: steals diverged");
    assert_eq!(
        a.steal_attempts, b.steal_attempts,
        "{label}: attempts diverged"
    );
    assert_eq!(
        a.counter_fetches, b.counter_fetches,
        "{label}: fetches diverged"
    );
    assert_eq!(a.assignment, b.assignment, "{label}: assignment diverged");
    assert!(!a.events.is_empty(), "{label}: no events to compare");
    assert_eq!(a.events, b.events, "{label}: event streams diverged");
}

fn run_pair(costs: &[f64], model: &SimModel, cfg: &SimConfig, label: &str) {
    let mut cal_cfg = cfg.clone();
    cal_cfg.queue = QueueKind::Calendar;
    let mut heap_cfg = cfg.clone();
    heap_cfg.queue = QueueKind::Heap;
    let a = simulate(costs, model, &cal_cfg);
    let b = simulate(costs, model, &heap_cfg);
    assert_reports_identical(&a, &b, label);
}

#[test]
fn healthy_roster_is_bitwise_identical_across_backends() {
    let n = 160;
    for p in [4, 16, 64] {
        for seed in [1u64, 0xdecaf, 0xffff_ffff_0000_0001] {
            let costs: Vec<f64> = (0..n).map(|i| ((i * 29) % 13 + 1) as f64 * 1e-5).collect();
            for model in roster(n, p) {
                let mut cfg = SimConfig::new(p);
                cfg.seed = seed;
                cfg.events = true;
                cfg.machine.topology = Some(Topology::default());
                run_pair(
                    &costs,
                    &model,
                    &cfg,
                    &format!("{} p={p} seed={seed:#x}", model.name()),
                );
            }
        }
    }
}

#[test]
fn coincident_timestamp_regime_is_bitwise_identical() {
    // Zero-cost tasks on the ideal machine put every event at t = 0 —
    // the regime where tie-breaking decides the whole schedule.
    let costs = vec![0.0; 96];
    for model in roster(96, 8) {
        let mut cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(8)
        };
        cfg.events = true;
        run_pair(&costs, &model, &cfg, &format!("ideal {}", model.name()));
    }
}

#[test]
fn cluster_scale_roster_is_bitwise_identical_across_backends() {
    // Hundreds of ranks with sub-microsecond costs drive the calendar
    // through thousands of sweep windows per run — the regime where an
    // accumulated floating-point window bound drifts from the
    // push-side bucket placement by ULPs and reorders events (the
    // historical divergence this test pins; membership is now decided
    // by the same `vbucket` computation that placed the event).
    let p = 256;
    let n = 2 * p;
    let costs: Vec<f64> = (0..n).map(|i| ((i * 13) % 7 + 1) as f64 * 1e-6).collect();
    for model in roster(n, p) {
        let mut cfg = SimConfig::new(p);
        cfg.machine = MachineModel::with_topology();
        cfg.events = true;
        run_pair(&costs, &model, &cfg, &format!("cluster {}", model.name()));
    }
}

#[test]
fn faulty_roster_is_bitwise_identical_across_backends() {
    let n = 120;
    let p = 6;
    let costs: Vec<f64> = (1..=n).map(|i| i as f64 * 1e-5).collect();
    let total: f64 = costs.iter().sum();
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("fault-free", FaultPlan::fault_free()),
        (
            "fail-stop",
            FaultPlan::fault_free()
                .with_rank_failure(3, 0.2 * total / p as f64)
                .with_recovery(RecoveryPolicy::BlockSurvivors),
        ),
        (
            "messages",
            FaultPlan::fault_free().with_message_faults(0.2, 0.2, 30e-6),
        ),
        (
            "combined",
            FaultPlan::fault_free()
                .with_rank_failure(1, 0.1 * total / p as f64)
                .with_rank_failure(4, 0.3 * total / p as f64)
                .with_message_faults(0.1, 0.1, 20e-6)
                .with_backoff(10e-6, 2.0, 1e-3)
                .with_recovery(RecoveryPolicy::SemiMatching),
        ),
    ];
    for (pname, plan) in &plans {
        for model in roster(n, p) {
            let mut cal_cfg = SimConfig::new(p);
            cal_cfg.events = true;
            cal_cfg.machine.topology = Some(Topology::default());
            let mut heap_cfg = cal_cfg.clone();
            cal_cfg.queue = QueueKind::Calendar;
            heap_cfg.queue = QueueKind::Heap;
            let a = simulate_with_faults(&costs, &model, &cal_cfg, plan);
            let b = simulate_with_faults(&costs, &model, &heap_cfg, plan);
            let label = format!("{} under {pname}", model.name());
            assert_reports_identical(&a.sim, &b.sim, &label);
            assert_eq!(a.faults.injected, b.faults.injected, "{label}: injected");
            assert_eq!(a.faults.orphaned, b.faults.orphaned, "{label}: orphaned");
            assert_eq!(a.faults.recovered, b.faults.recovered, "{label}: recovered");
            assert_eq!(a.faults.lost, b.faults.lost, "{label}: lost");
            assert_eq!(
                a.faults.rpc_timeouts, b.faults.rpc_timeouts,
                "{label}: timeouts"
            );
            let lat = |f: &FaultStats| {
                f.recovery_latency
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(lat(&a.faults), lat(&b.faults), "{label}: recovery latency");
        }
    }
}

#[test]
fn quiescent_gap_is_bitwise_identical_across_backends_and_event_capture() {
    // Every survivor parks at one timestamp and wakes at another: the
    // regime in which wake order (park order) is all the queue decides.
    for seed in [1u64, 7] {
        for recovery in common::RECOVERIES {
            let cell = common::gap_cell(64, seed, recovery);
            for model in common::stealing_roster(cell.costs.len(), cell.p) {
                let label = format!("gap {} {} seed={seed}", model.name(), recovery.name());
                let run = |queue: QueueKind, events: bool| {
                    let mut cfg = cell.cfg.clone();
                    (cfg.queue, cfg.events) = (queue, events);
                    simulate_with_faults(&cell.costs, &model, &cfg, &cell.plan)
                };
                let cal = run(QueueKind::Calendar, true);
                let heap = run(QueueKind::Heap, true);
                assert_reports_identical(&cal.sim, &heap.sim, &label);
                // Debug prints floats so that they round-trip: equal text
                // is equal bits, field by field, fault accounting included.
                assert_eq!(format!("{cal:?}"), format!("{heap:?}"), "{label}");
                let mut silent = cal;
                silent.sim.events.clear();
                let off = run(QueueKind::Calendar, false);
                assert_eq!(format!("{silent:?}"), format!("{off:?}"), "{label}: events");
            }
        }
    }
}
