//! # emx-distsim — simulated distributed-memory substrate
//!
//! The paper's environment is an MPI + Global Arrays cluster; this crate
//! substitutes it with [`sim`], a single-threaded, deterministic
//! discrete-event simulator replaying measured or synthetic task costs
//! through each execution model with a parameterized
//! [`machine::MachineModel`], reproducing the paper's scaling shapes for
//! thousands of ranks on any host. The shared NXTVAL counter is the
//! counter family of loops; remote-accumulate volume is priced per
//! assignment by [`sim::DataLayout`].
//!
//! [`faults`] describes deterministic fault injection (rank fail-stop,
//! message drop/delay, counter-host outage, unanswered steals) for the
//! simulator's loops to act on, with orphaned work redistributed through
//! `emx-balance`; the fault-free simulator is those loops under a plan
//! that injects nothing. See `docs/FAULT_MODEL.md`.
//!
//! ## Example
//!
//! ```
//! use emx_distsim::prelude::*;
//!
//! // Skewed tasks: work stealing beats a static block partition.
//! let costs: Vec<f64> = (1..=64).map(|i| i as f64 * 1e-6).collect();
//! let cfg = SimConfig::new(8);
//! let ws = simulate(&costs, &SimModel::WorkStealing { steal_half: true }, &cfg);
//! let owners: Vec<u32> = (0..64).map(|i| (i / 8) as u32).collect();
//! let st = simulate(&costs, &SimModel::Static(owners), &cfg);
//! assert!(ws.makespan < st.makespan);
//! ```

#![warn(missing_docs)]

pub mod eventq;
pub mod faults;
pub mod machine;
pub mod sim;

/// Common imports.
pub mod prelude {
    pub use crate::eventq::{EventQueue, QueueKind};
    pub use crate::faults::{
        simulate_with_faults, CounterOutage, FaultPlan, FaultReport, FaultStats, RankFailure,
        RecoveryPolicy,
    };
    pub use crate::machine::{MachineModel, Topology};
    pub use crate::sim::{
        simulate, simulate_policy, simulate_static_with_data, DataLayout, SimConfig, SimModel,
        SimReport,
    };
    pub use emx_sched::PolicyKind;
}
