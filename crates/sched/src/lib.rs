//! # emx-sched — the scheduling-policy layer
//!
//! The study compares *execution models* as first-class objects, so the
//! model descriptions must not be owned by any one substrate. This crate
//! defines them once:
//!
//! * [`PolicyKind`] — the registry enum naming every model of the paper's
//!   spectrum (serial, static block/cyclic/assigned, shared-counter
//!   self-scheduling, guided self-scheduling, work stealing), with
//!   canonical names, classification, and the experiment rosters. A
//!   persistence-based assignment is a `StaticAssigned` map rebalanced
//!   between runs; `emx-core` builds it, since the rebalancer lives in
//!   `emx-balance`;
//! * [`ChunkRule`] — the single source of truth for how a counter fetch
//!   sizes its claim (fixed chunks vs the guided `remaining/(2·P)` taper);
//! * [`partition`] and [`rng`] — the partition maps and the splitmix64
//!   victim-selection streams both substrates reproduce bit-for-bit;
//! * [`Variability`] — the per-worker slowdown model both substrates
//!   apply to task durations.
//!
//! The crate depends on no other workspace crate.
//!
//! The thread runtime (`emx-runtime`) executes these policies with real
//! atomics and Chase–Lev deques; the discrete-event simulator
//! (`emx-distsim`) replays the same descriptions in virtual time. There
//! is no third, sequential implementation: for a deterministic policy
//! [`PolicyKind::initial_partition`] is the assignment both substrates
//! must reproduce. Both consume this crate, so adding an execution model
//! here makes it appear in every experiment on both substrates.
//!
//! ## Example
//!
//! ```
//! use emx_sched::PolicyKind;
//!
//! let kind = PolicyKind::Guided { min_chunk: 2 };
//! assert_eq!(kind.to_string(), "guided:2");
//! assert!(kind.is_dynamic());
//! // Static policies fix the task→worker map before execution:
//! let owners = PolicyKind::StaticCyclic.initial_partition(5, 2).unwrap();
//! assert_eq!(owners, vec![0, 1, 0, 1, 0]);
//! ```

#![warn(missing_docs)]

pub mod chunk;
pub mod kind;
pub mod partition;
pub mod rng;
pub mod variability;

pub use chunk::ChunkRule;
pub use kind::{PolicyKind, SeedPartition, StealConfig};
pub use partition::{block_owner, block_partition, cyclic_partition};
pub use rng::{random_victim, worker_stream, SplitMix64};
pub use variability::Variability;
