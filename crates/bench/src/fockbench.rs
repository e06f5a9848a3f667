//! `fock_hotpath` measurement: the real (H₂O)₂/6-31G Fock build per
//! policy × workers, reported as builds/second and ERI quartets/second.
//!
//! Unlike the benchmark's `runtime.dispatch_ns_per_task.*` (empty task
//! bodies, pure dispatch cost) this measures the production kernel end
//! to end — screening lookups, ERI evaluation, scatter — so it is the
//! number the kernel-perf trajectory (`results/BENCH_fock.json`) tracks
//! across revisions; the `fock_hotpath` bench target runs it.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::screening::ScreenedPairs;
use emx_core::fockexec::ParallelFock;
use emx_linalg::Matrix;
use emx_runtime::{Executor, PolicyKind};
use std::time::Instant;

/// One measured (policy, workers) cell.
pub struct FockBenchRow {
    pub policy: String,
    pub workers: usize,
    pub builds_per_sec: f64,
    pub quartets_per_sec: f64,
}

/// The full measurement: workload identity plus every measured cell.
pub struct FockBenchReport {
    pub molecule: String,
    pub basis: String,
    pub nbf: usize,
    pub ntasks: usize,
    pub quartets_per_build: u64,
    pub samples: usize,
    pub rows: Vec<FockBenchRow>,
}

impl FockBenchReport {
    /// The serial-build throughput (builds/second) — the headline
    /// number the kernel trajectory compares across revisions.
    pub fn serial_builds_per_sec(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.policy == "serial")
            .map(|r| r.builds_per_sec)
    }

    /// The serial throughput of the retained *scalar* quartet kernel
    /// (`FockBuilder::execute_scalar`) on the same workload.
    pub fn scalar_serial_builds_per_sec(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.policy == "serial-scalar")
            .map(|r| r.builds_per_sec)
    }

    /// Batched-kernel speedup over the scalar kernel, serial on this
    /// host. Both arms run in the same process on the same workload, so
    /// unlike the absolute builds/s trajectory this ratio is
    /// host-independent evidence that the SoA restructure pays.
    pub fn batched_vs_scalar(&self) -> Option<f64> {
        match (
            self.serial_builds_per_sec(),
            self.scalar_serial_builds_per_sec(),
        ) {
            (Some(b), Some(s)) if s > 0.0 => Some(b / s),
            _ => None,
        }
    }
}

/// The standard hot-path workload: (H₂O)₂/6-31G, τ = 1e-10, chunk = 8,
/// pair threshold τ·1e-2 (matching `rhf_parallel`).
pub fn fock_hotpath_workload() -> (BasisedMolecule, ScreenedPairs) {
    let bm = BasisedMolecule::assign(&Molecule::water_cluster(2, 42), BasisSet::SixThirtyOneG);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    (bm, pairs)
}

/// A fixed symmetric mock density (same shape the fockexec invariance
/// tests use) so every revision measures the identical build.
pub fn mock_density(nbf: usize) -> Matrix {
    let mut d = Matrix::from_fn(nbf, nbf, |i, j| 0.2 / (1.0 + (i as f64 - j as f64).abs()));
    d.symmetrize();
    d
}

/// Measures the (H₂O)₂/6-31G Fock build for every policy of the
/// comparison roster (plus serial) at each worker count. `samples`
/// timed builds per cell, median reported, one untimed warm-up.
pub fn fock_hotpath_measure(samples: usize, worker_counts: &[usize]) -> FockBenchReport {
    let (bm, pairs) = fock_hotpath_workload();
    let tau = 1e-10;
    let pf = ParallelFock::new(&bm, &pairs, tau, 8);
    let density = mock_density(bm.nbf);

    // Quartet count of one build, measured once on the serial path.
    let mut scratch_g = Matrix::zeros(bm.nbf, bm.nbf);
    let mut scratch = pf.scratch();
    let quartets_per_build: u64 = (0..pf.ntasks())
        .map(|i| pf.execute_task_into(i, &density, &mut scratch_g, &mut scratch))
        .sum();

    let mut rows = Vec::new();

    // The retained scalar kernel, serial, same task list: the batched /
    // scalar ratio is the host-independent reading of the SoA rework.
    {
        let fb = emx_chem::fock::FockBuilder::new(&bm, &pairs, tau);
        let tasks = fb.tasks(8);
        let mut scratch = fb.scratch();
        let mut g = Matrix::zeros(bm.nbf, bm.nbf);
        for t in &tasks {
            fb.execute_scalar(t, &density, &mut g, &mut scratch);
        }
        let mut secs: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                let mut g = Matrix::zeros(bm.nbf, bm.nbf);
                let mut q = 0;
                for t in &tasks {
                    q += fb.execute_scalar(t, &density, &mut g, &mut scratch);
                }
                assert_eq!(q, quartets_per_build);
                start.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(|a, b| a.total_cmp(b));
        let median = secs[secs.len() / 2];
        rows.push(FockBenchRow {
            policy: "serial-scalar".into(),
            workers: 1,
            builds_per_sec: 1.0 / median,
            quartets_per_sec: quartets_per_build as f64 / median,
        });
    }
    for &workers in worker_counts {
        let mut roster = vec![("serial".to_string(), PolicyKind::Serial)];
        roster.extend(PolicyKind::comparison_roster(8));
        for (label, kind) in roster {
            // Serial ignores the worker count; measure it once.
            if matches!(kind, PolicyKind::Serial) && workers != 1 {
                continue;
            }
            let ex = Executor::new(workers, kind);
            // Warm-up build outside the timed samples.
            pf.execute(&density, &ex);
            let mut secs: Vec<f64> = (0..samples)
                .map(|_| {
                    let start = Instant::now();
                    let (g, r) = pf.execute(&density, &ex);
                    assert_eq!(r.total_tasks_run(), pf.ntasks());
                    assert!(g.rows() == bm.nbf);
                    start.elapsed().as_secs_f64()
                })
                .collect();
            secs.sort_by(|a, b| a.total_cmp(b));
            let median = secs[secs.len() / 2];
            rows.push(FockBenchRow {
                policy: label,
                workers,
                builds_per_sec: 1.0 / median,
                quartets_per_sec: quartets_per_build as f64 / median,
            });
        }
    }

    FockBenchReport {
        molecule: "(H2O)2".into(),
        basis: "6-31G".into(),
        nbf: bm.nbf,
        ntasks: pf.ntasks(),
        quartets_per_build,
        samples,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_measure_smoke() {
        let report = fock_hotpath_measure(1, &[1]);
        assert!(report.quartets_per_build > 1000, "screening left work");
        assert!(report.serial_builds_per_sec().unwrap() > 0.0);
        // scalar arm + serial + the 5-policy comparison roster at one
        // worker count
        assert_eq!(report.rows.len(), 7);
        assert!(report.scalar_serial_builds_per_sec().unwrap() > 0.0);
        assert!(report.batched_vs_scalar().unwrap() > 0.0);
    }
}
