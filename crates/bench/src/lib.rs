//! # emx-bench — shared helpers for the benchmark harness
//!
//! The `reproduce` binary regenerates every table and figure of the
//! study; this library holds the workload constructors and the
//! `profile` and `distsim` measurements it runs, so every experiment
//! measures the same inputs.

use emx_chem::basis::BasisSet;
use emx_chem::molecule::Molecule;
use emx_chem::synthetic::CostModel;
use emx_core::prelude::*;

pub mod distsimbench;
pub mod profbench;
pub mod slug;

pub use distsimbench::{
    distsim_measure, distsim_smoke, DistsimBenchReport, DistsimBenchRow, DISTSIM_FLOOR_RATIO,
};
pub use profbench::{
    profile_fock_roster, profile_smoke, PolicyProfile, ProfileReport, RecordingOverhead,
    OVERHEAD_CEILING_FRAC,
};
pub use slug::csv_slug;

/// The standard chemistry workload of the scaling experiments:
/// (H₂O)₂ / 6-31G, inspector-estimated costs, chunk = 8.
pub fn chem_workload_medium() -> KernelWorkload {
    estimate_fock_workload(
        &Molecule::water_cluster(2, 42),
        BasisSet::SixThirtyOneG,
        8,
        1e-10,
        1.0,
        "(H2O)2/6-31G chunk=8",
    )
}

/// A large synthetic workload calibrated to the chemistry skew, for
/// cluster-scale simulations.
pub fn synthetic_workload_large(ntasks: usize) -> KernelWorkload {
    synthetic_workload(
        CostModel::LogNormal {
            mu: 0.0,
            sigma: 1.3,
        },
        ntasks,
        7,
        10.0,
        format!("lognormal-{ntasks}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_nonempty_and_deterministic() {
        let a = chem_workload_medium();
        let b = chem_workload_medium();
        assert!(a.ntasks() > 100);
        assert_eq!(a.costs, b.costs);
        let s = synthetic_workload_large(1000);
        assert_eq!(s.ntasks(), 1000);
    }
}
