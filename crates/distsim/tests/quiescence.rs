//! The quiescence rule of the stealing loop, in counts: when no queue
//! holds work and no haul is in flight, an idle rank waits for the
//! detector instead of probing empty victims at steal latency. A
//! fail-stop then costs each survivor a wake-up, not a probe per steal
//! latency for the whole detection interval, so steal attempts neither
//! grow with the interval nor, to speak of, with the failure.

mod common;

use common::{gap_cell, stealing_roster, RECOVERIES};
use emx_distsim::prelude::*;

/// Makespans (s) of the polling loop the rule replaced (commit 3bfbaf8)
/// on the 64-rank gap cell at seed 1 and the default 1 ms detection
/// interval, `[model of stealing_roster][recovery of RECOVERIES]`. It made
/// 8 405–8 575 steal attempts there; the fault-free run makes 73–111.
const POLLING_MAKESPAN: [[f64; 3]; 4] = [
    [1.00945e-3, 1.00945e-3, 1.01445e-3],
    [1.00945e-3, 1.00945e-3, 1.01445e-3],
    [1.01695e-3, 1.01695e-3, 1.01445e-3],
    [1.01170e-3, 1.01170e-3, 1.01045e-3],
];

fn assert_recovered(r: &FaultReport, n: usize, label: &str) {
    assert_eq!(r.faults.lost, 0, "{label}: lost");
    assert_eq!(r.faults.recovered, r.faults.orphaned, "{label}: recovered");
    assert_eq!(r.sim.tasks.iter().sum::<usize>(), n, "{label}: tasks run");
}

#[test]
fn a_fail_stop_costs_attempts_that_do_not_grow_with_the_detection_interval() {
    for p in [64, 10_000] {
        for (k, recovery) in RECOVERIES.into_iter().enumerate() {
            let cell = gap_cell(p, 1, recovery);
            let n = cell.costs.len();
            for (m, model) in stealing_roster(n, p).iter().enumerate() {
                let plain = simulate(&cell.costs, model, &cell.cfg).steal_attempts;
                let mut attempts = Vec::new();
                for interval in [1e-4, 1e-3, 1e-2] {
                    let label = format!("{} {} p={p} {interval}", model.name(), recovery.name());
                    let mut plan = cell.plan.clone();
                    plan.detection_interval = interval;
                    let r = simulate_with_faults(&cell.costs, model, &cell.cfg, &plan);
                    assert_recovered(&r, n, &label);
                    assert!(r.faults.orphaned > 0, "{label}: the dead rank held work");
                    assert!(
                        r.faults.recovery_latency.iter().all(|&l| l >= interval),
                        "{label}: recovered before detection"
                    );
                    assert!(
                        r.sim.steal_attempts <= plain + 3 * p as u64,
                        "{label}: {} attempts, {plain} fault-free",
                        r.sim.steal_attempts
                    );
                    if p == 64 && interval == cell.plan.detection_interval {
                        assert!(
                            r.sim.makespan <= POLLING_MAKESPAN[m][k],
                            "{label}: makespan {} behind the polling loop's",
                            r.sim.makespan
                        );
                    }
                    attempts.push(r.sim.steal_attempts);
                }
                let spread = attempts.iter().max().unwrap() - attempts.iter().min().unwrap();
                assert!(
                    spread <= p as u64 / 100,
                    "{} p={p}: {attempts:?}",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn deaths_with_different_due_times_conserve_tasks() {
    // Rank 5 is killed mid-task 2 µs after the first death, so a second
    // batch of orphans falls due 2 µs after the first and survivors wait
    // once for each; rank 40 dies idle in the middle of the gap.
    for recovery in RECOVERIES {
        let mut cell = gap_cell(64, 1, recovery);
        let first = cell.plan.rank_failures[0].at;
        cell.plan = cell
            .plan
            .with_rank_failure(5, first + 2e-6)
            .with_rank_failure(40, first + 3e-4);
        let n = cell.costs.len();
        for model in stealing_roster(n, cell.p) {
            let label = format!("{} {}", model.name(), recovery.name());
            let r = simulate_with_faults(&cell.costs, &model, &cell.cfg, &cell.plan);
            assert_recovered(&r, n, &label);
            assert_eq!(r.faults.injected, 3, "{label}: deaths");
            let plain = simulate(&cell.costs, &model, &cell.cfg).steal_attempts;
            assert!(r.sim.steal_attempts <= plain + 3 * 3 * 64, "{label}");
        }
    }
}

#[test]
fn a_thief_that_dies_while_parked_is_handed_nothing() {
    // Rank 0 — first in line for orphans under every recovery policy —
    // is scheduled to die in the middle of the gap. It must be out of the
    // survivor set by the time the detector redistributes, or the orphans
    // would wait out a second detection interval on a dead rank.
    for recovery in RECOVERIES {
        let cell = gap_cell(64, 1, recovery);
        let due = cell.plan.rank_failures[0].at + cell.plan.detection_interval;
        let plan = cell.plan.clone().with_rank_failure(0, 0.5 * due);
        let n = cell.costs.len();
        for model in stealing_roster(n, cell.p) {
            let label = format!("{} {}", model.name(), recovery.name());
            let one = simulate_with_faults(&cell.costs, &model, &cell.cfg, &cell.plan);
            let r = simulate_with_faults(&cell.costs, &model, &cell.cfg, &plan);
            assert_recovered(&r, n, &label);
            assert_eq!(r.faults.injected, 2, "{label}: deaths");
            assert_eq!(
                r.faults.orphaned, one.faults.orphaned,
                "{label}: re-orphaned"
            );
            assert!(
                r.sim.makespan < due + 2e-5,
                "{label}: makespan {}",
                r.sim.makespan
            );
        }
    }
}
