//! # emx-analyze — static analysis of scheduling correctness
//!
//! The workspace's other crates *run* schedules; this crate proves
//! things about them before (and after) they run:
//!
//! * [`verifier`] — drives every [`emx_sched::PolicyKind`] through the
//!   sequential replay, the discrete-event simulator and the threaded
//!   executor, checking exactly-once coverage, bounded idle, replay
//!   determinism, cross-substrate agreement, and the full fault-
//!   scenario × recovery-policy matrix (work conservation, no lost
//!   tasks while survivors remain, orphan recovery, detection-bounded
//!   recovery latency, degraded-mode determinism).
//! * [`waitfor`] — rejects wedgeable configurations *structurally*,
//!   from [`emx_sched::StealConfig`] / fault-plan shape alone, via a
//!   wait-for graph: blocking waits into dead parties (deadlock) and
//!   all-victims-dead spin with unbounded retries (livelock, the
//!   exhausted-retries bug class).
//! * [`mutation`] — the self-test: seeds known defects (dropped task,
//!   double assignment, dead-victim spin) into healthy policies and
//!   asserts the verifier flags each as exactly the expected
//!   [`report::ViolationKind`]. A verifier that cannot see the seeded
//!   bugs fails its own gate.
//! * [`report`] — the shared, machine-readable violation vocabulary
//!   (JSON via `emx-obs`), consumed by `reproduce analyze` and CI.
//!
//! See `docs/ANALYSIS.md` for the invariant catalogue and how the
//! loom / miri / sanitizer walls complement these checks.

#![warn(missing_docs)]

pub mod mutation;
pub mod replay;
pub mod report;
pub mod verifier;
pub mod waitfor;

/// Common imports.
pub mod prelude {
    pub use crate::mutation::{run_mutation, self_test, DeadVictimSpinPolicy, Mutation};
    pub use crate::replay::{probe, probe_with_budget, ProbeOutcome};
    pub use crate::report::{AnalysisReport, Violation, ViolationKind};
    pub use crate::verifier::{
        fault_scenarios, verification_roster, verify_all, verify_policy, verify_policy_faults,
        VerifierConfig,
    };
    pub use crate::waitfor::{
        build_graph, check_liveness, check_roster_liveness, LivenessConfig, WaitForGraph,
    };
}
