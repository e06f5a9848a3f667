//! Execution-model descriptions (thin shim over [`emx_sched`]).
//!
//! The policy vocabulary — which worker runs which task and when, the
//! variable of the whole study — now lives in the substrate-agnostic
//! [`emx_sched`] crate so the thread runtime and the distributed
//! simulator share one definition. This module re-exports those types.

pub use emx_sched::{
    block_owner, block_partition, cyclic_partition, ChunkRule, PolicyKind, SeedPartition,
    StealConfig,
};

#[cfg(test)]
mod reexport_tests {
    use super::*;

    #[test]
    fn block_owner_reexport_partitions_evenly() {
        let owners: Vec<usize> = (0..10).map(|i| block_owner(i, 10, 3)).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }
}
