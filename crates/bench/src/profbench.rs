//! `reproduce profile` measurement: full-roster attribution capture on
//! the real Fock build, plus the rings-on vs obs-off recording overhead.
//!
//! Two halves:
//!
//! * [`profile_fock_roster`] runs every roster policy on the standard
//!   (H₂O)₂/6-31G build with per-worker event rings attached and
//!   returns one [`FockProfile`] per policy — attribution table rows,
//!   the Chrome trace export, and the differential comparison all come
//!   from this single capture.
//! * [`recording_overhead`] measures the cost of leaving the rings on:
//!   median builds/second with no observability vs with rings attached,
//!   on the same warmed kernel. Outside smoke mode the overhead is held
//!   to [`OVERHEAD_CEILING_FRAC`].
//!
//! `EMX_PROFILE_SMOKE=1` switches both to the small H₂O/STO-3G workload
//! and the reduced [`PolicyKind::profile_roster`] for CI.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::screening::ScreenedPairs;
use emx_core::balancer::full_roster;
use emx_core::fockexec::{FockProfile, ParallelFock};
use emx_linalg::Matrix;
use emx_obs::RingSet;
use emx_runtime::{Executor, PolicyKind};
use std::time::Instant;

/// Ceiling on the rings-on recording overhead vs the obs-off build
/// (fraction of build time), asserted by non-smoke `reproduce profile`
/// runs. Deliberately wider than the measurement (~4.6% on the
/// reference host): a median-of-5 wall-clock micro-benchmark needs
/// headroom for slower or noisier hosts, so the ceiling catches real
/// regressions while the printed overhead remains the tracked signal.
pub const OVERHEAD_CEILING_FRAC: f64 = 0.08;

/// Ring depth used for profiled builds: deep enough to hold every
/// event of a medium build on few workers without overwrite.
pub const PROFILE_RING_CAPACITY: usize = 1 << 14;

/// True when `EMX_PROFILE_SMOKE` is set — CI's fast mode (small
/// molecule, reduced roster, fewer overhead samples, no ceiling
/// assertion since shared runners are noisy).
pub fn profile_smoke() -> bool {
    std::env::var("EMX_PROFILE_SMOKE").is_ok()
}

/// One profiled roster entry.
pub struct PolicyProfile {
    /// Roster display label (the historical CSV name).
    pub label: String,
    /// Attribution + raw event streams of one build under this policy.
    pub profile: FockProfile,
}

/// The rings-on vs obs-off cost of recording, measured on the same
/// warmed kernel (median of `samples` timed builds each).
pub struct RecordingOverhead {
    /// Timed builds per mode.
    pub samples: usize,
    /// Workers used for the measured builds.
    pub workers: usize,
    /// Median throughput with `obs = None` (the zero-cost path).
    pub obs_off_builds_per_sec: f64,
    /// Median throughput with per-worker rings attached.
    pub rings_on_builds_per_sec: f64,
}

impl RecordingOverhead {
    /// Fractional slowdown of rings-on vs obs-off (negative = noise).
    pub fn overhead_frac(&self) -> f64 {
        if self.rings_on_builds_per_sec <= 0.0 {
            return f64::INFINITY;
        }
        self.obs_off_builds_per_sec / self.rings_on_builds_per_sec - 1.0
    }
}

/// Everything the `reproduce profile` arm reports.
pub struct ProfileReport {
    /// Workload molecule label.
    pub molecule: String,
    /// Basis-set label.
    pub basis: String,
    /// Tasks in the decomposition.
    pub ntasks: usize,
    /// Workers every profiled build ran on.
    pub workers: usize,
    /// One profiled build per roster policy.
    pub policies: Vec<PolicyProfile>,
    /// The recording-overhead measurement.
    pub overhead: RecordingOverhead,
}

/// The profile workload: (H₂O)₂/6-31G, or H₂O/STO-3G under smoke, with
/// pairs screened at 1e-12 (τ·1e-2 for the τ = 1e-10 builds below,
/// matching `rhf_parallel`).
fn profile_workload(smoke: bool) -> (BasisedMolecule, ScreenedPairs, &'static str, &'static str) {
    let (molecule, basis, molecule_label, basis_label) = if smoke {
        (Molecule::water(), BasisSet::Sto3g, "H2O", "STO-3G")
    } else {
        let dimer = Molecule::water_cluster(2, 42);
        (dimer, BasisSet::SixThirtyOneG, "(H2O)2", "6-31G")
    };
    let bm = BasisedMolecule::assign(&molecule, basis);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    (bm, pairs, molecule_label, basis_label)
}

/// A fixed symmetric mock density (same shape the fockexec invariance
/// tests use) so every revision measures the identical build.
fn mock_density(nbf: usize) -> Matrix {
    let mut d = Matrix::from_fn(nbf, nbf, |i, j| 0.2 / (1.0 + (i as f64 - j as f64).abs()));
    d.symmetrize();
    d
}

/// Runs the roster with rings attached and measures recording overhead.
/// Full mode: the 7-policy [`full_roster`] at `workers`,
/// 5 overhead samples. Smoke: [`PolicyKind::profile_roster`], 2 samples.
pub fn profile_fock_roster(workers: usize, smoke: bool) -> ProfileReport {
    let (bm, pairs, molecule, basis) = profile_workload(smoke);
    let pf = ParallelFock::new(&bm, &pairs, 1e-10, if smoke { 4 } else { 8 });
    let density = mock_density(bm.nbf);

    let roster = if smoke {
        PolicyKind::profile_roster(4)
    } else {
        full_roster(&pf.estimated_costs(), workers, 8)
    };

    let mut policies = Vec::new();
    for (label, kind) in roster {
        // Serial profiles on one worker; everything else on `workers`.
        let w = if matches!(kind, PolicyKind::Serial) {
            1
        } else {
            workers
        };
        // Warm-up build so attribution measures the steady-state kernel.
        pf.execute(&density, &Executor::new(w, kind.clone()));
        let (_, report, mut profile) =
            pf.execute_profiled(&density, w, kind, PROFILE_RING_CAPACITY);
        assert_eq!(report.total_tasks_run(), pf.ntasks());
        // Report under the roster's display label (`kind.name()` is the
        // family name; the roster distinguishes e.g. counter chunks).
        profile.attribution.policy = label.clone();
        policies.push(PolicyProfile { label, profile });
    }

    let overhead = recording_overhead(&pf, &density, workers, if smoke { 2 } else { 5 });

    ProfileReport {
        molecule: molecule.into(),
        basis: basis.into(),
        ntasks: pf.ntasks(),
        workers,
        policies,
        overhead,
    }
}

/// Median-of-samples builds/second for obs-off vs rings-on on one
/// warmed kernel under work stealing (the policy whose idle/steal path
/// takes the extra ring clock reads — the worst case for recording
/// overhead).
pub fn recording_overhead(
    pf: &ParallelFock<'_>,
    density: &Matrix,
    workers: usize,
    samples: usize,
) -> RecordingOverhead {
    let kind = PolicyKind::WorkStealing(Default::default());

    let median_secs = |ex: &Executor| -> f64 {
        // One untimed warm-up, then `samples` timed builds.
        pf.execute(density, ex);
        let mut secs: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let (_, r) = pf.execute(density, ex);
                assert_eq!(r.total_tasks_run(), pf.ntasks());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(|a, b| a.total_cmp(b));
        secs[secs.len() / 2]
    };

    let off = median_secs(&Executor::new(workers, kind.clone()));
    let rings = RingSet::new(workers, PROFILE_RING_CAPACITY);
    let on = median_secs(&Executor::new(workers, kind).with_rings(rings));

    RecordingOverhead {
        samples,
        workers,
        obs_off_builds_per_sec: 1.0 / off,
        rings_on_builds_per_sec: 1.0 / on,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_attributes_every_policy() {
        let report = profile_fock_roster(2, true);
        assert_eq!(report.policies.len(), 3, "reduced roster");
        for p in &report.policies {
            let a = &p.profile.attribution;
            assert_eq!(a.policy, p.label);
            let tasks: u64 = a.workers.iter().map(|w| w.tasks).sum();
            assert_eq!(tasks as usize, report.ntasks, "{}", p.label);
            assert!(
                a.max_sum_error() < 0.01,
                "{}: decomposition off by {}",
                p.label,
                a.max_sum_error()
            );
        }
        assert!(report.overhead.obs_off_builds_per_sec > 0.0);
        assert!(report.overhead.rings_on_builds_per_sec > 0.0);
    }
}
