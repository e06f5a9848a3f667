//! # emx-runtime — shared-memory execution models
//!
//! The runtime half of the execution-model study: a worker pool that
//! executes an indexed set of independent tasks under any of the
//! policies the paper compares —
//!
//! * static block / cyclic / balancer-assigned partitioning,
//! * NXTVAL-style dynamic shared-counter self-scheduling (with chunking),
//! * work stealing on Chase–Lev deques (random victims, single-task or
//!   batch steals),
//!
//! with per-worker statistics ([`ExecutionReport`]: utilization,
//! busy-time imbalance, steal/counter overheads, caught panics), optional
//! per-worker profiling event rings ([`Executor::with_rings`], the one
//! per-task capture), injectable per-core performance variability
//! ([`Variability`]) modelling energy-induced speed differences, and
//! deterministic fault injection ([`faults`]: poisoned tasks caught and
//! re-enqueued) — see `docs/FAULT_MODEL.md`.
//!
//! A parallel run executes worker 0 on the calling thread and the other
//! workers on long-lived helper threads that the crate keeps for the
//! whole process: a run takes idle helpers (spawning only those that are
//! missing) and gives them back, and an idle helper spins briefly and
//! then parks, so back-to-back runs pay neither a spawn nor a join.
//!
//! The scheduling-policy vocabulary itself ([`PolicyKind`] and friends)
//! and the variability model live in the substrate-agnostic `emx-sched`
//! crate, shared with the distributed simulator, and are re-exported
//! here; this crate executes those policies on real threads.
//!
//! ## Example
//!
//! ```
//! use emx_runtime::prelude::*;
//!
//! let ex = Executor::new(2, PolicyKind::WorkStealing(StealConfig::default()));
//! let (locals, report) = ex.run(100, |_| 0u64, |i, sum| *sum += i as u64);
//! assert_eq!(locals.iter().sum::<u64>(), 4950);
//! assert_eq!(report.total_tasks_run(), 100);
//! ```

#![warn(missing_docs)]

pub mod faults;
mod helpers;
pub mod pool;
pub mod report;

pub use emx_sched::{ChunkRule, PolicyKind, SeedPartition, StealConfig, Variability};
pub use faults::{FaultInjection, PoisonSpec};
pub use pool::Executor;
pub use report::{ExecutionReport, WorkerStats};

/// Common imports.
pub mod prelude {
    pub use crate::faults::{FaultInjection, PoisonSpec};
    pub use crate::pool::Executor;
    pub use crate::report::{ExecutionReport, WorkerStats};
    pub use emx_sched::{ChunkRule, PolicyKind, SeedPartition, StealConfig, Variability};
}
