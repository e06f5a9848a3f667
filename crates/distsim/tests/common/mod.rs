//! Shared by the integration tests of this crate.

#![allow(dead_code)] // each test binary uses its own part of this

use emx_distsim::prelude::*;

/// All seven simulator models for `n` tasks on `p` workers, with small
/// chunks and nodes so that every mechanism (refills, leaf boundaries,
/// node- and rack-local steals) fires at test sizes.
pub fn roster(n: usize, p: usize) -> Vec<SimModel> {
    let owners: Vec<u32> = (0..n).map(|i| (i * p / n.max(1)) as u32).collect();
    vec![
        SimModel::Static(owners.clone()),
        SimModel::Counter { chunk: 3 },
        SimModel::Guided { min_chunk: 2 },
        SimModel::HierCounters {
            chunk: 2,
            node_size: 4,
            parent_chunk: 8,
        },
        SimModel::WorkStealing { steal_half: true },
        SimModel::SeededStealing {
            owners,
            steal_half: false,
        },
        SimModel::TopologyStealing { steal_half: true },
    ]
}

/// The stealing-family models of [`roster`].
pub fn stealing_roster(n: usize, p: usize) -> Vec<SimModel> {
    let mut models = roster(n, p);
    models.retain(|m| m.name().contains("stealing"));
    models
}

pub const RECOVERIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::BlockSurvivors,
    RecoveryPolicy::SemiMatching,
    RecoveryPolicy::Persistence,
];

/// The quiescent-gap cell — the benchmark's `sim-wide` regime at test
/// size: two tasks a rank of 1–7 µs on the topology machine, and one rank
/// that fail-stops a quarter into the ideal run. Every survivor is out of
/// work after ~20 µs, and the dead rank's orphans become redistributable
/// only after the 1 ms default detection interval: fifty makespans in
/// which nothing is stealable.
pub struct GapCell {
    pub p: usize,
    pub costs: Vec<f64>,
    pub cfg: SimConfig,
    pub plan: FaultPlan,
}

pub fn gap_cell(p: usize, seed: u64, recovery: RecoveryPolicy) -> GapCell {
    let costs: Vec<f64> = (0..2 * p)
        .map(|i| ((i * 13) % 7 + 1) as f64 * 1e-6)
        .collect();
    let mut cfg = SimConfig::new(p);
    cfg.machine = MachineModel::with_topology();
    cfg.seed = seed;
    let ideal = costs.iter().sum::<f64>() / p as f64;
    let plan = FaultPlan::fault_free()
        .with_rank_failure(p / 3, 0.25 * ideal)
        .with_recovery(recovery);
    GapCell {
        p,
        costs,
        cfg,
        plan,
    }
}
