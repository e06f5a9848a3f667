//! Cross-substrate policy equality tests.
//!
//! The whole point of `emx-sched` is that one policy description drives
//! both substrates. These tests pin that contract:
//!
//! * deterministic policies produce the *identical* task→worker
//!   assignment on real threads and in the discrete-event simulator:
//!   the one reference is [`PolicyKind::initial_partition`];
//! * every policy in the full roster runs to completion on both
//!   substrates with every task executed exactly once.

use std::sync::Arc;

use emx_core::balancer::full_roster;
use emx_distsim::sim::{simulate_policy, SimConfig};
use emx_runtime::{Executor, PolicyKind};

const NTASKS: usize = 23;
const WORKERS: usize = 4;

fn skewed_costs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1e-7 * (1.0 + (i % 7) as f64)).collect()
}

/// The roster's static models (serial, block, cyclic and the
/// persistence-balanced map) plus one hand-made owner map.
fn deterministic_roster(ntasks: usize, workers: usize) -> Vec<PolicyKind> {
    let mut roster: Vec<PolicyKind> = full_roster(&skewed_costs(ntasks), workers, 2)
        .into_iter()
        .map(|(_, kind)| kind)
        .filter(PolicyKind::is_deterministic)
        .collect();
    assert_eq!(roster.len(), 4);
    roster.push(PolicyKind::StaticAssigned(Arc::new(
        (0..ntasks).map(|i| ((i * i) % workers) as u32).collect(),
    )));
    roster
}

/// Runs `kind` on the threaded executor and returns the observed
/// task→worker map: each worker's local is the list of tasks it ran.
fn threaded_assignment(kind: &PolicyKind, ntasks: usize, workers: usize) -> Vec<u32> {
    let ex = Executor::new(workers, kind.clone());
    let (locals, _) = ex.run(ntasks, |_| Vec::new(), |i, ran| ran.push(i));
    let mut owners = vec![u32::MAX; ntasks];
    for (w, ran) in locals.iter().enumerate() {
        ran.iter().for_each(|&i| owners[i] = w as u32);
    }
    owners
}

#[test]
fn deterministic_policies_agree_on_assignment() {
    for kind in deterministic_roster(NTASKS, WORKERS) {
        assert!(kind.is_deterministic(), "{kind} should be deterministic");
        let expected = kind
            .initial_partition(NTASKS, WORKERS)
            .expect("deterministic policy has a partition");

        let threaded = threaded_assignment(&kind, NTASKS, WORKERS);
        assert_eq!(threaded, expected, "thread executor diverged for {kind}");

        let sim = simulate_policy(&skewed_costs(NTASKS), &kind, &SimConfig::new(WORKERS));
        assert_eq!(sim.assignment, expected, "simulator diverged for {kind}");
    }
}

#[test]
fn full_roster_runs_on_threads_exactly_once() {
    let costs = skewed_costs(NTASKS);
    let want: u64 = (1..=NTASKS as u64).sum();
    for (label, kind) in full_roster(&costs, WORKERS, 2) {
        let ex = Executor::new(WORKERS, kind);
        let (locals, report) = ex.run(NTASKS, |_| 0u64, |i, acc| *acc += i as u64 + 1);
        assert_eq!(
            locals.iter().sum::<u64>(),
            want,
            "policy {label} dropped or duplicated work"
        );
        assert_eq!(report.total_tasks_run(), NTASKS, "policy {label}");
    }
}

#[test]
fn full_roster_runs_in_simulator_exactly_once() {
    let costs = skewed_costs(NTASKS);
    for (label, kind) in full_roster(&costs, WORKERS, 2) {
        let report = simulate_policy(&costs, &kind, &SimConfig::new(WORKERS));
        assert!(report.makespan > 0.0, "policy {label} did no work");
        assert_eq!(
            report.assignment.len(),
            NTASKS,
            "policy {label} lost its assignment record"
        );
        assert!(
            report.assignment.iter().all(|&w| (w as usize) < WORKERS),
            "policy {label} owner out of range"
        );
        // Counted from the per-rank tallies, not the one-slot-per-task
        // map, so a task run twice shows as well as one never run.
        assert_eq!(
            report.tasks.iter().sum::<usize>(),
            NTASKS,
            "policy {label} dropped or duplicated work"
        );
    }
}

#[test]
fn the_roster_is_seven_names_and_removed_models_are_not_ones() {
    let names = [
        "serial",
        "static-block",
        "static-cyclic",
        "static-assigned",
        "dynamic-counter",
        "guided",
        "work-stealing",
    ];
    // Every model has a roster entry, and nothing else does: a removed
    // model has none. The persistence entry is a rebalanced owner map,
    // so it reports `static-assigned` under its own label.
    let roster = full_roster(&skewed_costs(NTASKS), WORKERS, 2);
    assert_eq!(roster.len(), names.len());
    for name in names {
        assert!(roster.iter().any(|(_, kind)| kind.name() == name), "{name}");
    }
    for (label, kind) in &roster {
        assert!(names.contains(&kind.name()), "{label}: {}", kind.name());
    }
    let (label, kind) = roster.last().unwrap();
    assert_eq!(
        (label.as_str(), kind.name()),
        ("persistence-based", "static-assigned")
    );
}

/// Threads and the simulator's replay both equal the partition at every
/// worker count from 1 to 6, not only at [`WORKERS`].
#[test]
fn replay_matches_threads_for_every_worker_count() {
    for workers in 1..=6 {
        let costs = skewed_costs(NTASKS);
        for kind in deterministic_roster(NTASKS, workers) {
            let expected = kind
                .initial_partition(NTASKS, workers)
                .expect("deterministic policy has a partition");
            let threaded = threaded_assignment(&kind, NTASKS, workers);
            assert_eq!(threaded, expected, "threads: {kind} at p={workers}");
            let sim = simulate_policy(&costs, &kind, &SimConfig::new(workers));
            assert_eq!(sim.assignment, expected, "simulator: {kind} at p={workers}");
        }
    }
}
