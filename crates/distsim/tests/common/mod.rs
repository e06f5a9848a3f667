//! Shared by the integration tests of this crate.

use emx_distsim::prelude::SimModel;

/// All nine simulator models for `n` tasks on `p` workers, with small
/// chunks, groups and nodes so that every mechanism (refills, group
/// boundaries, node- and rack-local steals) fires at test sizes.
pub fn roster(n: usize, p: usize) -> Vec<SimModel> {
    let owners: Vec<u32> = (0..n).map(|i| (i * p / n.max(1)) as u32).collect();
    vec![
        SimModel::Static(owners.clone()),
        SimModel::Counter { chunk: 3 },
        SimModel::Guided { min_chunk: 2 },
        SimModel::GroupCounters {
            groups: 2,
            chunk: 3,
        },
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
        SimModel::HierarchicalStealing {
            steal_half: true,
            node_size: 4,
            remote_factor: 4.0,
        },
        SimModel::TopologyStealing { steal_half: true },
    ]
}
