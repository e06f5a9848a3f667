//! Regression matrix for orphan redistribution: every
//! [`RecoveryPolicy`] × a fully-dead leaf of a counter tree (and the
//! other fully-dead-subset shapes a redistribution pass must survive), then
//! the whole model roster × seven fault scenarios × every policy.
//!
//! The invariants: work conservation (`executed + lost = total`), zero
//! loss while survivors remain, orphans fully recovered, recovery
//! latency bounded below by the detection interval, and bit-for-bit
//! reproducibility of the degraded run.

mod common;

use emx_distsim::machine::MachineModel;
use emx_distsim::prelude::*;

const NTASKS: usize = 40;
const P: usize = 4;

fn cfg() -> SimConfig {
    SimConfig {
        machine: MachineModel::ideal(),
        ..SimConfig::new(P)
    }
}

/// A two-leaf counter tree on the four ranks: ranks 0 and 1 share leaf
/// 0, ranks 2 and 3 leaf 1, and a dry leaf refills 10 tasks from the
/// root. A leaf whose ranks all die orphans its unclaimed block.
fn two_leaf_tree() -> SimModel {
    SimModel::HierCounters {
        chunk: 2,
        node_size: 2,
        parent_chunk: 10,
    }
}

fn policies() -> [RecoveryPolicy; 3] {
    [
        RecoveryPolicy::BlockSurvivors,
        RecoveryPolicy::SemiMatching,
        RecoveryPolicy::Persistence,
    ]
}

fn assert_degraded_invariants(r: &FaultReport, plan: &FaultPlan, label: &str) {
    let executed: usize = r.sim.tasks.iter().sum();
    assert_eq!(
        executed + r.faults.lost as usize,
        NTASKS,
        "{label}: work not conserved"
    );
    assert_eq!(
        r.faults.lost, 0,
        "{label}: survivors exist, nothing may be lost"
    );
    assert_eq!(
        r.faults.recovered, r.faults.orphaned,
        "{label}: every orphan must be recovered"
    );
    for &lat in &r.faults.recovery_latency {
        assert!(
            lat + 1e-12 >= plan.detection_interval,
            "{label}: recovery at {lat} beats detection interval {}",
            plan.detection_interval
        );
    }
}

/// Leaf 0 (ranks 0 and 1) dies entirely, mid-claim, under every
/// recovery policy: its two claims and the rest of its block must land
/// on the survivors of leaf 1, with identical accounting across reruns.
#[test]
fn fully_dead_group_recovers_under_every_policy() {
    let costs = vec![1.0; NTASKS];
    let model = two_leaf_tree();
    for policy in policies() {
        let plan = FaultPlan::fault_free()
            .with_rank_failure(0, 2.5)
            .with_rank_failure(1, 2.5)
            .with_recovery(policy);
        let label = format!("group-dead/{}", policy.name());
        let r = simulate_with_faults(&costs, &model, &cfg(), &plan);
        assert_degraded_invariants(&r, &plan, &label);
        assert_eq!(
            r.faults.orphaned, 6,
            "{label}: two claims and the block's unclaimed 8..10"
        );
        assert_eq!(
            r.sim.tasks[2] + r.sim.tasks[3],
            NTASKS - 4,
            "{label}: survivors must absorb the dead leaf's residue"
        );
        // The degraded run is deterministic per policy.
        let again = simulate_with_faults(&costs, &model, &cfg(), &plan);
        assert_eq!(
            again.sim.assignment, r.sim.assignment,
            "{label}: not reproducible"
        );
        assert_eq!(again.faults.recovered, r.faults.recovered, "{label}");
    }
}

/// The same matrix with the leaf dying inside its first tasks, before
/// it completes anything: the entire first block, 0..10, is orphaned —
/// the worst case for a redistribution pass.
#[test]
fn group_dead_at_start_orphans_entire_range_under_every_policy() {
    let costs = vec![1.0; NTASKS];
    let model = two_leaf_tree();
    for policy in policies() {
        let plan = FaultPlan::fault_free()
            .with_rank_failure(0, 0.5)
            .with_rank_failure(1, 0.5)
            .with_recovery(policy);
        let label = format!("group-dead-at-start/{}", policy.name());
        let r = simulate_with_faults(&costs, &model, &cfg(), &plan);
        assert_degraded_invariants(&r, &plan, &label);
        assert_eq!(r.faults.orphaned, 10, "{label}: the whole first block");
        assert_eq!(r.sim.tasks[0] + r.sim.tasks[1], 0, "{label}: dead at 0.5");
        assert_eq!(
            r.sim.tasks[2] + r.sim.tasks[3],
            NTASKS,
            "{label}: survivors run everything"
        );
    }
}

/// Static partitioning with one rank's whole block orphaned — the
/// degenerate "group of one" — across every recovery policy, including
/// staggered second deaths re-orphaning already-redistributed work.
#[test]
fn static_block_owner_death_and_reorphaning_under_every_policy() {
    let costs = vec![1.0; NTASKS];
    let owners: Vec<u32> = (0..NTASKS).map(|i| (i * P / NTASKS) as u32).collect();
    for policy in policies() {
        // Rank 1 dies early; rank 2 dies later, after it may have
        // absorbed part of rank 1's block — its own block plus any
        // inherited orphans re-orphan onto ranks 0 and 3.
        let plan = FaultPlan::fault_free()
            .with_rank_failure(1, 1.5)
            .with_rank_failure(2, 6.5)
            .with_recovery(policy);
        let label = format!("staggered-deaths/{}", policy.name());
        let r = simulate_with_faults(&costs, &SimModel::Static(owners.clone()), &cfg(), &plan);
        assert_degraded_invariants(&r, &plan, &label);
        assert!(r.faults.orphaned > 0, "{label}: deaths must orphan work");
        assert!(
            r.sim.tasks[0] + r.sim.tasks[3] > NTASKS / 2,
            "{label}: the two survivors carry the majority"
        );
    }
}

/// Both leaves fully dead: with no survivors anywhere, every policy
/// must report the unexecuted residue as lost — and exactly that
/// residue, orphaned blocks and the root's unclaimed range alike.
#[test]
fn all_groups_dead_loses_exactly_the_residue_under_every_policy() {
    let costs = vec![1.0; NTASKS];
    let model = two_leaf_tree();
    for policy in policies() {
        let plan = FaultPlan::fault_free()
            .with_rank_failure(0, 2.5)
            .with_rank_failure(1, 2.5)
            .with_rank_failure(2, 2.5)
            .with_rank_failure(3, 2.5)
            .with_recovery(policy);
        let label = format!("all-dead/{}", policy.name());
        let r = simulate_with_faults(&costs, &model, &cfg(), &plan);
        let executed: usize = r.sim.tasks.iter().sum();
        assert!(executed < NTASKS, "{label}: nobody survives to finish");
        assert_eq!(
            r.faults.lost as usize,
            NTASKS - executed,
            "{label}: lost must equal the unexecuted residue"
        );
        assert_eq!(r.faults.recovered, 0, "{label}: no survivors, no recovery");
    }
}

/// Dead leaf with message chaos layered on top: recovery must still
/// conserve work when the redistribution-era messages themselves drop
/// and stall.
#[test]
fn dead_group_with_message_faults_still_conserves_work() {
    let costs = vec![1.0; NTASKS];
    let model = two_leaf_tree();
    for policy in policies() {
        let plan = FaultPlan::fault_free()
            .with_rank_failure(0, 2.5)
            .with_rank_failure(1, 2.5)
            .with_message_faults(0.15, 0.15, 0.5)
            .with_recovery(policy);
        let label = format!("dead-group+chaos/{}", policy.name());
        let r = simulate_with_faults(&costs, &model, &cfg(), &plan);
        assert_degraded_invariants(&r, &plan, &label);
    }
}

// ----------------------------------------------------------------------
// The same invariants across the whole model roster.
// ----------------------------------------------------------------------

fn skewed(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64 * 1e-4).collect()
}

/// Fault scenarios on `p` ranks, at the microsecond scale of
/// [`fail_stop_recovers_all_orphans_under_every_model`]'s tasks. In the
/// first six, deaths land in the first few tasks and the detector fires
/// long after the survivors run dry, so a recovery that jumps the
/// detection interval shows in its latency; in the last, rank 3's death
/// is detected while every survivor is still busy.
fn scenarios(p: usize) -> Vec<(&'static str, FaultPlan)> {
    let mut out = vec![
        ("healthy", FaultPlan::fault_free()),
        (
            "one-death",
            FaultPlan::fault_free().with_rank_failure(p - 1, 2e-6),
        ),
        (
            "two-deaths",
            FaultPlan::fault_free()
                .with_rank_failure(1, 2e-6)
                .with_rank_failure(p - 1, 4e-6),
        ),
        (
            "message-chaos",
            FaultPlan::fault_free().with_message_faults(0.2, 0.2, 3e-6),
        ),
        (
            "death-plus-chaos",
            FaultPlan::fault_free()
                .with_rank_failure(0, 3e-6)
                .with_message_faults(0.1, 0.1, 2e-6),
        ),
        (
            "counter-outage",
            FaultPlan::fault_free().with_counter_outage(2e-6, 10e-6),
        ),
    ];
    for (_, plan) in &mut out {
        plan.rpc_timeout = 50e-6;
    }
    let mut mid_run = FaultPlan::fault_free().with_rank_failure(3, 20e-6);
    mid_run.detection_interval = 10e-6;
    out.push(("detected-mid-run", mid_run));
    out
}

#[test]
fn fail_stop_recovers_all_orphans_under_every_model() {
    let n = 96;
    let p = 6;
    // Heavy head, light tail, 1-13 µs a task.
    let costs: Vec<f64> = (0..n)
        .map(|i| 1e-6 * (1.0 + (n - i) as f64 / 8.0))
        .collect();
    let cfg = SimConfig::new(p);
    for (name, base) in scenarios(p) {
        for policy in policies() {
            let plan = base.clone().with_recovery(policy);
            for model in common::roster(n, p) {
                let label = format!("{name}/{}/{}", policy.name(), model.name());
                let r = simulate_with_faults(&costs, &model, &cfg, &plan);
                let executed: usize = r.sim.tasks.iter().sum();
                assert_eq!(
                    executed + r.faults.lost as usize,
                    n,
                    "{label}: work not conserved"
                );
                assert_eq!(r.faults.lost, 0, "{label}: survivors exist");
                assert_eq!(r.faults.recovered, r.faults.orphaned, "{label}");
                for f in &plan.rank_failures {
                    assert!(r.sim.tasks[f.rank] < n, "{label}: rank {} died", f.rank);
                }
                assert_eq!(
                    r.faults.recovery_latency.len() as u64,
                    r.faults.recovered,
                    "{label}"
                );
                assert!(
                    r.faults
                        .recovery_latency
                        .iter()
                        .all(|&l| l >= plan.detection_interval),
                    "{label}: recovery cannot precede detection"
                );
                let again = simulate_with_faults(&costs, &model, &cfg, &plan);
                assert_eq!(again.sim.assignment, r.sim.assignment, "{label}: rerun");
                assert_eq!(again.faults.lost, r.faults.lost, "{label}: rerun");
                assert_eq!(again.faults.recovered, r.faults.recovered, "{label}");
            }
        }
    }
}

#[test]
fn all_ranks_dead_terminates_and_counts_lost() {
    let costs = vec![1.0; NTASKS];
    let cfg = cfg();
    let mut plan = FaultPlan::fault_free();
    for w in 0..P {
        plan = plan.with_rank_failure(w, 2.5);
    }
    for model in common::roster(NTASKS, P) {
        let r = simulate_with_faults(&costs, &model, &cfg, &plan);
        let done = r.sim.tasks.iter().sum::<usize>();
        assert!(done < NTASKS, "{}: nobody survives to finish", model.name());
        assert_eq!(r.faults.lost as usize, NTASKS - done, "{}", model.name());
    }
}

#[test]
fn fault_runs_are_deterministic() {
    let costs = skewed(80);
    let cfg = SimConfig::new(5);
    let plan = FaultPlan::fault_free()
        .with_rank_failure(1, 0.01)
        .with_message_faults(0.1, 0.1, 20e-6)
        .with_backoff(10e-6, 2.0, 1e-3);
    for model in common::roster(80, 5) {
        let a = simulate_with_faults(&costs, &model, &cfg, &plan);
        let b = simulate_with_faults(&costs, &model, &cfg, &plan);
        assert_eq!(a.sim.makespan, b.sim.makespan, "{}", model.name());
        assert_eq!(a.faults.recovered, b.faults.recovered, "{}", model.name());
        assert_eq!(
            a.faults.dropped_messages,
            b.faults.dropped_messages,
            "{}",
            model.name()
        );
    }
}
