//! # emx-chem — the computational chemistry kernel
//!
//! A from-scratch Gaussian-basis restricted Hartree–Fock implementation
//! whose Fock build is the case-study kernel of the execution-model
//! reproduction:
//!
//! * [`molecule`] — built-in geometries and workload generators (water
//!   clusters, alkanes, benzene);
//! * [`basis`] — contracted Gaussian shells, STO-3G and 6-31G data;
//! * [`boys`], [`md`] — Boys function and McMurchie–Davidson machinery;
//! * [`oneint`], [`eri`] — one- and two-electron integrals
//!   ([`eribatch`] holds the batched SoA quartet kernel the Fock build
//!   runs on; [`eri`] keeps the scalar oracle);
//! * [`screening`] — Schwarz screening (the source of task-cost skew);
//! * [`fock`] — the Fock build decomposed into schedulable tasks;
//! * [`scf`] — the RHF driver consuming the kernel;
//! * [`tasks`], [`synthetic`] — cost statistics and calibrated synthetic
//!   surrogates for fast execution-model sweeps.
//!
//! ## Quick start
//!
//! ```
//! use emx_chem::prelude::*;
//!
//! let mol = Molecule::h2(1.4);
//! let bm = BasisedMolecule::assign(&mol, BasisSet::Sto3g);
//! let result = rhf(&bm, &ScfConfig::default());
//! assert!(result.converged);
//! assert!((result.energy + 1.1167).abs() < 1e-3);
//! ```

// Attribute rather than Cargo-level [lints]: the alloc-guard
// integration test legitimately implements an unsafe GlobalAlloc, so
// only the library proper forbids unsafe.
#![forbid(unsafe_code)]

pub mod basis;
pub mod boys;
pub mod eri;
pub mod eribatch;
pub mod fock;
pub mod md;
pub mod molecule;
pub mod oneint;
pub mod scf;
pub mod screening;
pub mod shellpair;
pub mod synthetic;
pub mod tasks;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::basis::{BasisSet, BasisedMolecule, Element, Shell};
    pub use crate::fock::{FockBuilder, FockTask};
    pub use crate::molecule::Molecule;
    pub use crate::scf::{rhf, rhf_incremental, rhf_with, IterationPhases, ScfConfig, ScfResult};
    pub use crate::screening::{ScreenedPairs, ScreeningStats};
    pub use crate::synthetic::{generate_costs, CostModel};
    pub use crate::tasks::{imbalance, makespan_lower_bound, CostStats};
}
