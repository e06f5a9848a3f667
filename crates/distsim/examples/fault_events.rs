//! What a fault plan costs the simulator host, in events, on the
//! benchmark's `sim-wide` inputs at seed 42 (10⁵ ranks × 2 tasks of
//! 1–7 µs):
//!
//! ```text
//! cargo run --release -p emx-distsim --example fault_events
//! ```
//!
//! Host time is events × ns/event, and only the first factor depends on
//! the plan — the table behind `docs/FAULT_MODEL.md`, "What the
//! fail-stop path costs the simulator host". Timings are best-of-three
//! and host-dependent; the counts are exact, and the run asserts the
//! quiescence rule's bounds on them: a fail-stop adds at most three
//! probes a rank, and the same number whatever the detection interval.

use emx_distsim::prelude::*;
use emx_sched::SplitMix64;
use std::time::Instant;

const RANKS: usize = 100_000;
const SEED: u64 = 42;

/// The benchmark's cost vector: seven equally frequent levels, placed by
/// a Fisher–Yates shuffle (`benchmark/src/inputs.rs`).
fn costs() -> Vec<f64> {
    let mut v: Vec<f64> = (0..2 * RANKS).map(|i| (i % 7 + 1) as f64 * 1e-6).collect();
    let mut rng = SplitMix64::new(SEED);
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    v
}

/// Best-of-three host seconds of the run, and its report.
fn timed(costs: &[f64], model: &SimModel, cfg: &SimConfig, plan: &FaultPlan) -> (f64, FaultReport) {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let r = simulate_with_faults(costs, model, cfg, plan);
            (t.elapsed().as_secs_f64(), r)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three runs")
}

fn main() {
    let costs = costs();
    let (n, p) = (costs.len(), RANKS);
    let mut cfg = SimConfig::new(p);
    cfg.machine = MachineModel::with_topology();
    cfg.seed ^= SEED;
    let ideal = costs.iter().sum::<f64>() / p as f64;
    let seeded = |mut plan: FaultPlan| {
        plan.seed ^= SEED;
        plan
    };
    let fail_stop = || FaultPlan::fault_free().with_rank_failure(p / 3, 0.25 * ideal);
    let plans = [
        ("fault-free", FaultPlan::fault_free()),
        (
            "5 % drops + 10 % delays",
            FaultPlan::fault_free().with_message_faults(0.05, 0.10, 5e-6),
        ),
        (
            "fail-stop + drops + delays (the benchmark's plan)",
            fail_stop().with_message_faults(0.05, 0.10, 5e-6),
        ),
        ("fail-stop alone", fail_stop()),
    ]
    .map(|(name, plan)| (name, seeded(plan)));

    for model in [
        SimModel::WorkStealing { steal_half: true },
        SimModel::TopologyStealing { steal_half: true },
    ] {
        println!("\n{} ({p} ranks x 2 tasks, seed {SEED})", model.name());
        println!("| plan | steal attempts | events | makespan (s) | host (s) | ns / event |");
        println!("|---|---|---|---|---|---|");
        let mut attempts = Vec::new();
        for (name, plan) in &plans {
            let (host, r) = timed(&costs, &model, &cfg, plan);
            let events = n as u64 + r.sim.steal_attempts;
            println!(
                "| {name} | {} | {events} | {:.3e} | {host:.3} | {:.0} |",
                r.sim.steal_attempts,
                r.sim.makespan,
                host * 1e9 / events as f64
            );
            assert_eq!(r.sim.tasks.iter().sum::<usize>(), n, "{name}: tasks run");
            assert_eq!(r.faults.lost, 0, "{name}: lost");
            assert_eq!(r.faults.recovered, r.faults.orphaned, "{name}: recovered");
            attempts.push(r.sim.steal_attempts);
        }
        // The fail-stop rank costs each survivor a wait for the detector
        // and a short hunt after it, not a probe per steal latency.
        let slack = 3 * p as u64;
        assert!(attempts[3] <= attempts[0] + slack, "fail-stop alone");
        assert!(attempts[2] <= attempts[1] + slack, "the benchmark's plan");
        assert!(attempts[2] <= 3 * attempts[0], "the benchmark's plan");

        // Attempts do not depend on how long the detector takes.
        let mut by_interval = Vec::new();
        for interval in [1e-4, 1e-3, 1e-2] {
            let mut plan = plans[3].1.clone();
            plan.detection_interval = interval;
            let r = simulate_with_faults(&costs, &model, &cfg, &plan);
            assert_eq!(r.faults.lost, 0, "{interval}: lost");
            assert!(r.faults.recovery_latency.iter().all(|&l| l >= interval));
            println!(
                "fail-stop alone, detection {interval:e} s: {} attempts, makespan {:.3e} s",
                r.sim.steal_attempts, r.sim.makespan
            );
            by_interval.push(r.sim.steal_attempts);
        }
        let spread = by_interval.iter().max().unwrap() - by_interval.iter().min().unwrap();
        assert!(spread <= p as u64 / 100, "attempts vary with detection");
    }
}
