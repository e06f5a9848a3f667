//! # emx-balance — load balancing for the execution-model study
//!
//! The paper compares three static cost-model balancers and one
//! iterative rebalancer; all four live here, fully from scratch:
//!
//! * [`lpt`] — greedy Longest-Processing-Time list scheduling (cheap
//!   baseline);
//! * [`semimatching`] — the paper's *novel* technique: optimal
//!   semi-matching for unit tasks plus a weighted variant with
//!   move/swap refinement over the task×worker bipartite graph;
//! * [`hypergraph`] + [`hpartition`] — a multilevel hypergraph
//!   partitioner (heavy-connectivity coarsening, greedy growth, FM
//!   refinement, connectivity-λ−1 metric) — the *expensive* baseline
//!   with the best communication behaviour;
//! * [`persistence`] — inspector–executor sticky rebalancing from
//!   measured per-iteration costs.
//!
//! [`problem`] holds the shared task/assignment model and metrics.
//!
//! ## Example
//!
//! ```
//! use emx_balance::prelude::*;
//!
//! let p = Problem::new(vec![5.0, 4.0, 3.0, 3.0, 3.0], 2);
//! let adj = full_adjacency(5, 2);
//! let a = semi_matching(&p, &adj, &SemiMatchConfig::default());
//! assert_eq!(p.makespan(&a), 9.0); // {5,4} vs {3,3,3}
//! ```

#![warn(missing_docs)]

pub mod hpartition;
pub mod hypergraph;
pub mod kk;
pub mod lpt;
pub mod persistence;
pub mod problem;
pub mod semimatching;

/// Common imports.
pub mod prelude {
    pub use crate::hpartition::{partition, HgpConfig};
    pub use crate::hypergraph::Hypergraph;
    pub use crate::kk::karmarkar_karp;
    pub use crate::lpt::lpt;
    pub use crate::persistence::rebalance;
    pub use crate::problem::{is_valid, movement, Assignment, Problem};
    pub use crate::semimatching::{
        full_adjacency, optimal_semi_matching_unit, semi_matching, Adjacency, SemiMatchConfig,
    };
}
