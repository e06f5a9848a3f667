//! Parallel Fock builds: the chemistry kernel under any execution model.
//!
//! This is the integration point of the whole study: the Fock task list
//! from [`emx_chem::fock`] executed by [`emx_runtime::Executor`] under
//! any [`emx_sched::PolicyKind`], with worker-local `G`
//! accumulators reduced at the end (the shared-memory analogue of the
//! paper's Global-Arrays accumulate). Because tasks only ever *add*
//! contributions, the result is identical (up to floating-point
//! reassociation far below SCF tolerances) across all models — the
//! integration tests assert exactly that.

use emx_chem::basis::BasisedMolecule;
use emx_chem::eri::EriScratch;
use emx_chem::fock::{FockBuilder, FockTask};
use emx_chem::scf::{rhf_with, ScfConfig, ScfResult};
use emx_chem::screening::ScreenedPairs;
use emx_linalg::Matrix;
use emx_obs::{Attribution, ProfEvent, RingSet};
use emx_runtime::{ExecutionReport, Executor, PolicyKind};
use std::time::Instant;

/// Everything one profiled Fock build captures beyond its result: the
/// blame attribution and the raw per-worker event streams it was
/// reconstructed from (keep the streams for the Chrome trace export —
/// one capture, every view).
pub struct FockProfile {
    /// Critical path + per-worker blame decomposition of the build.
    pub attribution: Attribution,
    /// Raw per-worker profiling events (ring snapshot order).
    pub events: Vec<Vec<ProfEvent>>,
}

/// A Fock build bound to a task decomposition, ready to execute under
/// any execution model.
pub struct ParallelFock<'a> {
    builder: FockBuilder<'a>,
    tasks: Vec<FockTask>,
}

impl<'a> ParallelFock<'a> {
    /// Prepares the task list (`chunk` = ket pairs per task; see
    /// [`FockBuilder::tasks`]).
    pub fn new(
        bm: &'a BasisedMolecule,
        pairs: &'a ScreenedPairs,
        tau: f64,
        chunk: usize,
    ) -> ParallelFock<'a> {
        let builder = FockBuilder::new(bm, pairs, tau);
        let tasks = builder.tasks(chunk);
        ParallelFock { builder, tasks }
    }

    /// Number of tasks in the decomposition.
    pub fn ntasks(&self) -> usize {
        self.tasks.len()
    }

    /// The task list (for balancers and inspectors).
    pub fn tasks(&self) -> &[FockTask] {
        &self.tasks
    }

    /// Inspector cost estimates, one per task (arbitrary additive units).
    pub fn estimated_costs(&self) -> Vec<f64> {
        self.tasks.iter().map(|t| t.est_cost as f64).collect()
    }

    /// A scratch workspace sized for this system's largest shell quartet
    /// (see [`FockBuilder::scratch`]) — one per rank/worker.
    pub fn scratch(&self) -> EriScratch {
        self.builder.scratch()
    }

    /// Executes one task by index into a caller-owned accumulator —
    /// the entry point for a caller that schedules tasks itself instead
    /// of through an [`Executor`]. Returns the quartets computed.
    pub fn execute_task_into(
        &self,
        i: usize,
        density: &Matrix,
        g_local: &mut Matrix,
        scratch: &mut EriScratch,
    ) -> u64 {
        self.builder
            .execute(&self.tasks[i], density, g_local, scratch)
    }

    /// Executes all tasks under `executor` against `density`, reducing
    /// the worker-local accumulators into the returned `G`.
    ///
    /// Each worker owns a `(G, EriScratch)` pair for the whole build —
    /// the hot loop performs no heap allocation — and the locals merge
    /// through [`Executor::run_reduced`]'s pairwise tree, whose order
    /// depends only on the worker count. Within one worker, tasks under
    /// a *deterministic* policy arrive in a fixed order too, so static
    /// and counter policies reproduce `G` bitwise run to run; work
    /// stealing reorders additions within a worker but stays within
    /// floating-point reassociation noise (≪ SCF tolerances), which the
    /// integration tests pin.
    pub fn execute(&self, density: &Matrix, executor: &Executor) -> (Matrix, ExecutionReport) {
        let n = density.rows();
        let ((g, _), report) = executor.run_reduced(
            self.tasks.len(),
            |_| (Matrix::zeros(n, n), self.scratch()),
            |i, local: &mut (Matrix, EriScratch)| {
                let (g_local, scratch) = local;
                self.builder
                    .execute(&self.tasks[i], density, g_local, scratch);
            },
            |acc, other| {
                acc.0.axpy(1.0, &other.0).expect("local G shapes match");
            },
        );
        (g, report)
    }

    /// Executes one build under a fresh `workers`-wide executor with
    /// per-worker profiling rings attached, and reconstructs the blame
    /// attribution from the captured event streams.
    ///
    /// The wall clock the attribution is normalized against wraps the
    /// *whole* build — worker execution plus the pairwise reduction
    /// merges stamped after the join — so the compute / counter / steal
    /// / merge / idle decomposition sums to it by construction.
    ///
    /// `ring_capacity` is per worker. To capture a build without
    /// overwrite, size it at `2 · ntasks` (under a dynamic policy one
    /// worker may run every task) plus headroom for the hunt, fetch and
    /// merge events — the benchmark uses `4 · ntasks + 1024`. Losses are
    /// reported in [`Attribution::overwritten`], never silently.
    pub fn execute_profiled(
        &self,
        density: &Matrix,
        workers: usize,
        kind: PolicyKind,
        ring_capacity: usize,
    ) -> (Matrix, ExecutionReport, FockProfile) {
        let label = kind.name();
        let rings = RingSet::new(workers, ring_capacity);
        let ex = Executor::new(workers, kind).with_rings(rings.clone());
        let start = Instant::now();
        let (g, report) = self.execute(density, &ex);
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let snaps = rings.snapshot_all();
        let overwritten: u64 = snaps.iter().map(|s| s.overwritten).sum();
        let events: Vec<Vec<ProfEvent>> = snaps.into_iter().map(|s| s.events).collect();
        let attribution = Attribution {
            overwritten,
            ..Attribution::build(label, wall_ns, &events)
        };
        (
            g,
            report,
            FockProfile {
                attribution,
                events,
            },
        )
    }
}

/// Full RHF where every Fock build runs under `executor`.
///
/// Returns the SCF result plus the per-iteration execution reports — the
/// wall times the paper's per-iteration comparisons are built from.
pub fn rhf_parallel(
    bm: &BasisedMolecule,
    config: &ScfConfig,
    executor: &Executor,
    chunk: usize,
) -> (ScfResult, Vec<ExecutionReport>) {
    let pairs = ScreenedPairs::build(bm, config.tau * 1e-2);
    let pf = ParallelFock::new(bm, &pairs, config.tau, chunk);
    let mut reports = Vec::new();
    let result = rhf_with(bm, config, |p| {
        let (g, report) = pf.execute(p, executor);
        reports.push(report);
        g
    });
    (result, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_chem::basis::{BasisSet, BasisedMolecule};
    use emx_chem::molecule::Molecule;
    use emx_runtime::{PolicyKind, StealConfig};

    fn water() -> BasisedMolecule {
        BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g)
    }

    #[test]
    fn parallel_g_matches_serial_for_every_model() {
        let bm = water();
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let pf = ParallelFock::new(&bm, &pairs, 1e-10, 4);
        let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
            0.2 / (1.0 + (i as f64 - j as f64).abs())
        });
        d.symmetrize();
        let (reference, _) = pf.execute(&d, &Executor::new(1, PolicyKind::Serial));
        for model in [
            PolicyKind::StaticBlock,
            PolicyKind::StaticCyclic,
            PolicyKind::DynamicCounter { chunk: 2 },
            PolicyKind::WorkStealing(StealConfig::default()),
        ] {
            let (g, report) = pf.execute(&d, &Executor::new(3, model.clone()));
            assert!(
                g.max_abs_diff(&reference) < 1e-12,
                "model {} diverged: {}",
                model.name(),
                g.max_abs_diff(&reference)
            );
            assert_eq!(report.total_tasks_run(), pf.ntasks());
        }
    }

    #[test]
    fn scf_energy_identical_across_models() {
        let bm = water();
        let cfg = ScfConfig::default();
        let (serial, _) =
            rhf_parallel(&bm, &cfg, &Executor::new(1, PolicyKind::Serial), usize::MAX);
        let (ws, reports) = rhf_parallel(
            &bm,
            &cfg,
            &Executor::new(2, PolicyKind::WorkStealing(StealConfig::default())),
            3,
        );
        assert!(serial.converged && ws.converged);
        assert!((serial.energy - ws.energy).abs() < 1e-9);
        assert_eq!(reports.len(), ws.iterations);
    }

    #[test]
    fn profiled_build_matches_unprofiled_and_attributes_every_task() {
        let bm = water();
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let pf = ParallelFock::new(&bm, &pairs, 1e-10, 4);
        let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
            0.2 / (1.0 + (i as f64 - j as f64).abs())
        });
        d.symmetrize();
        let (reference, _) = pf.execute(&d, &Executor::new(1, PolicyKind::Serial));
        let (g, report, profile) = pf.execute_profiled(
            &d,
            3,
            PolicyKind::WorkStealing(StealConfig::default()),
            4096,
        );
        assert!(g.max_abs_diff(&reference) < 1e-12, "profiling is passive");
        assert_eq!(report.total_tasks_run(), pf.ntasks());
        let a = &profile.attribution;
        assert_eq!(a.policy, "work-stealing");
        assert_eq!(a.workers.len(), 3);
        assert_eq!(a.overwritten, 0, "4096-deep rings capture a water build");
        let tasks: u64 = a.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(tasks as usize, pf.ntasks(), "every task attributed");
        assert!(
            a.max_sum_error() < 0.01,
            "decomposition must sum to wall within 1%: {}",
            a.max_sum_error()
        );
        assert!(a.critical_path_ns > 0 && a.critical_path_ns <= a.wall_ns);
        assert_eq!(profile.events.len(), 3, "one stream per worker");
    }

    #[test]
    fn estimated_costs_are_positive_and_skewed() {
        let bm = water();
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let pf = ParallelFock::new(&bm, &pairs, 1e-10, usize::MAX);
        let costs = pf.estimated_costs();
        assert_eq!(costs.len(), pf.ntasks());
        assert!(costs.iter().all(|&c| c > 0.0));
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > min, "uniform costs would defeat the study");
    }
}
