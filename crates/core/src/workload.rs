//! Workload preparation: measured chemistry task costs and calibrated
//! synthetic surrogates.
//!
//! Every experiment consumes a [`KernelWorkload`]: named task costs in
//! seconds plus the task→data affinity. Chemistry workloads come from a
//! profiled serial execution of the real Fock build (the inspector
//! pass, read off its event ring);
//! synthetic workloads come from `emx_chem::synthetic` cost models,
//! optionally calibrated to a measured distribution.

use crate::balancer::{fock_affinity, TaskAffinity};
use crate::fockexec::{FockProfile, ParallelFock};
use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::screening::ScreenedPairs;
use emx_chem::synthetic::{generate_costs, CostModel};
use emx_linalg::Matrix;
use emx_obs::task_spans;
use emx_runtime::PolicyKind;

/// A named task-cost vector with affinity information.
#[derive(Debug, Clone)]
pub struct KernelWorkload {
    /// Human-readable name ("(H2O)4/6-31G chunk=8", "lognormal-10k", …).
    pub name: String,
    /// Per-task cost in seconds.
    pub costs: Vec<f64>,
    /// Task→data-block affinity (present for chemistry workloads).
    pub affinity: Option<TaskAffinity>,
}

impl KernelWorkload {
    /// Total work in seconds.
    pub fn total(&self) -> f64 {
        self.costs.iter().sum()
    }

    /// Number of tasks.
    pub fn ntasks(&self) -> usize {
        self.costs.len()
    }
}

/// Measures the real per-task costs of one Fock build by executing it
/// serially with a profiling ring attached (the inspector pass of an
/// inspector–executor scheme): a task's cost is its `TaskStart` →
/// `TaskEnd` interval in the captured stream.
///
/// The ring holds the whole build (two events a task plus headroom). A
/// lossy capture — overwritten events, or a task not seen exactly once —
/// panics; it is never truncated into a cost vector.
///
/// The density used is the core-guess-like mock (costs depend on the
/// basis and screening, not on density values).
pub fn measure_fock_workload(
    mol: &Molecule,
    basis: BasisSet,
    chunk: usize,
    tau: f64,
    name: impl Into<String>,
) -> KernelWorkload {
    let bm = BasisedMolecule::assign(mol, basis);
    let pairs = ScreenedPairs::build(&bm, tau * 1e-2);
    let pf = ParallelFock::new(&bm, &pairs, tau, chunk);
    let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.4 / (1.0 + (i as f64 - j as f64).abs())
    });
    d.symmetrize();
    let ntasks = pf.ntasks();
    let (_, _, profile) = pf.execute_profiled(&d, 1, PolicyKind::Serial, 2 * ntasks + 16);
    let costs = measured_costs(&profile, ntasks);
    let affinity = fock_affinity(pf.tasks(), pairs.len());
    KernelWorkload {
        name: name.into(),
        costs,
        affinity: Some(affinity),
    }
}

/// Each task's measured duration (s) from a profiled build's event
/// streams. Panics if the rings overwrote events or if any task is not
/// seen exactly once.
fn measured_costs(profile: &FockProfile, ntasks: usize) -> Vec<f64> {
    let lost = profile.attribution.overwritten;
    if lost > 0 {
        panic!("measured costs: the rings overwrote {lost} events");
    }
    let mut costs = vec![None; ntasks];
    for (task, t0, t1) in profile.events.iter().flat_map(|s| task_spans(s)) {
        let seen = costs[task].replace(t1.saturating_sub(t0) as f64 * 1e-9);
        assert!(seen.is_none(), "measured costs: task {task} seen twice");
    }
    let seen_once = |(i, c): (usize, Option<f64>)| {
        c.unwrap_or_else(|| panic!("measured costs: task {i} never seen"))
    };
    costs.into_iter().enumerate().map(seen_once).collect()
}

/// Inspector-estimate workload (no execution): model-based costs scaled
/// so the total equals `total_seconds`. Much faster than measuring and
/// sufficient whenever only the *distribution* matters.
pub fn estimate_fock_workload(
    mol: &Molecule,
    basis: BasisSet,
    chunk: usize,
    tau: f64,
    total_seconds: f64,
    name: impl Into<String>,
) -> KernelWorkload {
    let bm = BasisedMolecule::assign(mol, basis);
    let pairs = ScreenedPairs::build(&bm, tau * 1e-2);
    let pf = ParallelFock::new(&bm, &pairs, tau, chunk);
    let mut costs = pf.estimated_costs();
    let total: f64 = costs.iter().sum();
    if total > 0.0 {
        let scale = total_seconds / total;
        for c in &mut costs {
            *c *= scale;
        }
    }
    let affinity = fock_affinity(pf.tasks(), pairs.len());
    KernelWorkload {
        name: name.into(),
        costs,
        affinity: Some(affinity),
    }
}

/// Synthetic workload with total work scaled to `total_seconds`.
pub fn synthetic_workload(
    model: CostModel,
    ntasks: usize,
    seed: u64,
    total_seconds: f64,
    name: impl Into<String>,
) -> KernelWorkload {
    let mut costs = generate_costs(model, ntasks, seed);
    let total: f64 = costs.iter().sum();
    if total > 0.0 {
        let scale = total_seconds / total;
        for c in &mut costs {
            *c *= scale;
        }
    }
    KernelWorkload {
        name: name.into(),
        costs,
        affinity: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_workload_has_positive_costs() {
        let w = measure_fock_workload(&Molecule::water(), BasisSet::Sto3g, usize::MAX, 1e-10, "w");
        assert!(w.ntasks() > 0);
        assert!(w.costs.iter().all(|&c| c > 0.0));
        assert!(w.affinity.is_some());
        assert!(w.total() > 0.0);
    }

    #[test]
    #[should_panic(expected = "measured costs: the rings overwrote")]
    fn measured_costs_refuse_an_undersized_ring() {
        // Eight slots hold four tasks; a water/STO-3G build has more.
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let pf = ParallelFock::new(&bm, &pairs, 1e-10, 4);
        let d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| if i == j { 1.0 } else { 0.0 });
        let (_, _, profile) = pf.execute_profiled(&d, 1, PolicyKind::Serial, 8);
        measured_costs(&profile, pf.ntasks());
    }

    #[test]
    fn estimated_workload_scales_to_requested_total() {
        let w = estimate_fock_workload(&Molecule::water(), BasisSet::Sto3g, 4, 1e-10, 2.0, "w");
        assert!((w.total() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn estimated_matches_measured_shape() {
        // The inspector estimate should correlate with measured cost:
        // the largest estimated task should be among the largest
        // measured ones (rank agreement on the extreme).
        let mol = Molecule::water();
        let est = estimate_fock_workload(&mol, BasisSet::Sto3g, usize::MAX, 1e-10, 1.0, "e");
        let mea = measure_fock_workload(&mol, BasisSet::Sto3g, usize::MAX, 1e-10, "m");
        assert_eq!(est.ntasks(), mea.ntasks());
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        let e = argmax(&est.costs);
        // Measured rank of the estimated-max task must be in the top
        // quartile.
        let threshold = {
            let mut sorted = mea.costs.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            sorted[sorted.len() / 4]
        };
        assert!(
            mea.costs[e] >= threshold,
            "estimate/measure rank disagreement: measured {} vs q75 {}",
            mea.costs[e],
            threshold
        );
    }

    #[test]
    fn synthetic_workload_scaled() {
        let w = synthetic_workload(CostModel::Triangular { scale: 1.0 }, 10, 0, 5.0, "t");
        assert_eq!(w.ntasks(), 10);
        assert!((w.total() - 5.0).abs() < 1e-12);
        assert!(w.affinity.is_none());
    }
}
