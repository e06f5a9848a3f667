//! # emx-core — the execution-model case study
//!
//! Reproduction of *"On the Impact of Execution Models: A Case Study in
//! Computational Chemistry"* (Chavarría-Miranda et al., IPDPSW 2015).
//! This crate is the study itself, wiring the substrates together:
//!
//! * [`fockexec`] — the Hartree–Fock Fock build ([`emx_chem`]) executed
//!   under any execution model ([`emx_runtime`]), plus a fully parallel
//!   SCF driver;
//! * [`balancer`] — one interface over LPT, semi-matching and
//!   hypergraph partitioning ([`emx_balance`]), with task-affinity
//!   extraction from the kernel, and the full policy roster whose
//!   persistence entry it balances;
//! * [`workload`] — measured, estimated and synthetic task-cost
//!   workloads;
//! * [`experiments`] — one driver per table/figure (E1–E8, see
//!   `DESIGN.md`), running on the discrete-event simulator
//!   ([`emx_distsim`]) or the real thread runtime;
//! * [`table`] — plain-text/CSV result tables.
//!
//! ## Quick start
//!
//! ```
//! use emx_core::prelude::*;
//!
//! // Build an unpredictably skewed workload and compare execution
//! // models (a lognormal matches the screened kernel's distribution).
//! let w = synthetic_workload(
//!     CostModel::LogNormal { mu: 0.0, sigma: 1.5 }, 256, 5, 1.0, "demo");
//! let headline = e2_headline(&w, 16, &MachineModel::default());
//! println!("{}", headline.table);
//! assert!(headline.vs_block > 1.0);
//! ```

pub mod balancer;
pub mod experiments;
pub mod fockexec;
pub mod table;
pub mod workload;

/// Common imports for examples and benches.
pub mod prelude {
    pub use crate::balancer::{balance, fock_affinity, full_roster, BalancerKind, TaskAffinity};
    pub use crate::experiments::{
        e10_faults, e1_scaling, e2_headline, e3_balancer_quality, e3_comm_aware, e4_partition_cost,
        e5_granularity, e6_variability, e7_overheads, e8_distributed, e9_weak_scaling,
        hypergraph_misses_epsilon, overhead_decomposition, synthetic_affinity, HeadlineResult,
    };
    pub use crate::fockexec::{rhf_parallel, FockProfile, ParallelFock};
    pub use crate::table::{fmt3, fmt_secs, Table};
    pub use crate::workload::{
        estimate_fock_workload, measure_fock_workload, synthetic_workload, KernelWorkload,
    };
    pub use emx_chem::prelude::*;
    pub use emx_distsim::prelude::*;
    pub use emx_runtime::prelude::*;
}
