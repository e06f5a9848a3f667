//! Restricted Hartree–Fock SCF driver.
//!
//! A textbook closed-shell Roothaan procedure with DIIS acceleration.
//! The SCF loop is the *consumer* of the Fock-build kernel that the
//! execution-model study schedules: each iteration performs one full
//! task-set execution, so per-iteration wall time is exactly the
//! quantity the paper's experiments measure.

use crate::basis::BasisedMolecule;
use crate::fock::FockBuilder;
use crate::oneint::{core_hamiltonian, overlap};
use crate::screening::ScreenedPairs;
use emx_linalg::{jacobi_eigen, lu_decompose, lu_solve, symmetric_orthogonalizer, Matrix};

/// SCF configuration.
#[derive(Debug, Clone)]
pub struct ScfConfig {
    /// Maximum number of SCF iterations.
    pub max_iter: usize,
    /// Convergence threshold on the energy change (Hartree).
    pub e_tol: f64,
    /// Convergence threshold on the density RMS change.
    pub d_tol: f64,
    /// Schwarz quartet threshold for the Fock builds.
    pub tau: f64,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            max_iter: 100,
            e_tol: 1e-9,
            d_tol: 1e-7,
            tau: 1e-10,
        }
    }
}

/// Maximum DIIS subspace size.
const DIIS_SIZE: usize = 6;

/// Wall-clock breakdown of one SCF iteration — the paper's discussion
/// of where iteration time goes (Fock build vs. everything else) reads
/// straight off them.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterationPhases {
    /// Two-electron (Fock `G`) build — the parallel kernel under study.
    pub fock: std::time::Duration,
    /// DIIS error build + extrapolation.
    pub diis: std::time::Duration,
    /// Orthogonalization, diagonalization and density rebuild.
    pub diag: std::time::Duration,
    /// Whole iteration, including energy evaluation and bookkeeping.
    pub total: std::time::Duration,
}

/// Result of an SCF run.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Total energy (electronic + nuclear repulsion), Hartree.
    pub energy: f64,
    /// Electronic energy only.
    pub electronic_energy: f64,
    /// Nuclear repulsion energy.
    pub nuclear_repulsion: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether both convergence criteria were met.
    pub converged: bool,
    /// Orbital energies (ascending).
    pub orbital_energies: Vec<f64>,
    /// Final density matrix `P` (Szabo convention, trace = n electrons).
    pub density: Matrix,
    /// Energy after each iteration.
    pub energy_history: Vec<f64>,
    /// Wall-clock phase breakdown of each iteration (same length as
    /// [`ScfResult::energy_history`]).
    pub phase_timings: Vec<IterationPhases>,
}

/// Builds the closed-shell density `P = 2 Σᵢ^{occ} C·Cᵀ` from the MO
/// coefficients (columns) and the number of doubly-occupied orbitals.
fn density_from_mos(c: &Matrix, nocc: usize) -> Matrix {
    let n = c.rows();
    let mut p = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for o in 0..nocc {
                s += c[(i, o)] * c[(j, o)];
            }
            p[(i, j)] = 2.0 * s;
        }
    }
    p
}

/// Runs RHF with the default serial Fock builder.
///
/// # Panics
/// Panics if the molecule has an odd electron count (RHF is closed-shell
/// only) — degenerate inputs in a study driver should fail loudly.
pub fn rhf(bm: &BasisedMolecule, config: &ScfConfig) -> ScfResult {
    let pairs = ScreenedPairs::build(bm, config.tau * 1e-2);
    let fock_builder = FockBuilder::new(bm, &pairs, config.tau);
    rhf_with(bm, config, |p| fock_builder.build_serial(p))
}

/// Runs RHF with a caller-supplied two-electron builder `g(P) → G`.
///
/// This is the seam the execution-model study plugs into: the SCF loop
/// is identical whichever runtime builds `G`, so energies must agree to
/// machine precision across execution models (asserted by integration
/// tests).
///
/// # Panics
/// Panics on an odd electron count.
pub fn rhf_with(
    bm: &BasisedMolecule,
    config: &ScfConfig,
    mut g_builder: impl FnMut(&Matrix) -> Matrix,
) -> ScfResult {
    let nelec = bm.nelectrons();
    assert!(
        nelec % 2 == 0,
        "RHF requires an even electron count, got {nelec}"
    );
    let nocc = nelec / 2;

    let s = overlap(bm);
    let h = core_hamiltonian(bm);
    let x = symmetric_orthogonalizer(&s).expect("overlap must be positive definite");

    // Core-Hamiltonian initial guess.
    let mut p = {
        let hp = h.congruence(&x).expect("congruence shapes");
        let e = jacobi_eigen(&hp, 1e-12, 100).expect("Hcore diagonalization");
        let c = x.matmul(&e.vectors).expect("back-transform");
        density_from_mos(&c, nocc)
    };

    let enuc = bm.nuclear_repulsion();
    let mut e_old = 0.0;
    let mut history = Vec::new();
    let mut diis_f: Vec<Matrix> = Vec::new();
    let mut diis_e: Vec<Matrix> = Vec::new();
    let mut orbital_energies = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    let mut phase_timings = Vec::new();

    for it in 0..config.max_iter {
        iterations = it + 1;
        let mut phases = IterationPhases::default();
        let iter_start = std::time::Instant::now();
        let g = g_builder(&p);
        phases.fock = iter_start.elapsed();
        let mut f = h.add(&g).expect("F = H + G");

        // Electronic energy: E = ½ Σ P(H + F).
        let e_elec = 0.5 * p.dot(&h.add(&f).expect("H+F")).expect("energy trace");
        history.push(e_elec + enuc);

        // DIIS error e = FPS − SPF, expressed in the orthonormal basis so
        // its norm is meaningful.
        let diis_start = std::time::Instant::now();
        let fps = f.matmul(&p).expect("FP").matmul(&s).expect("FPS");
        let spf = s.matmul(&p).expect("SP").matmul(&f).expect("SPF");
        let err = fps
            .sub(&spf)
            .expect("FPS-SPF")
            .congruence(&x)
            .expect("error transform");
        diis_f.push(f.clone());
        diis_e.push(err);
        if diis_f.len() > DIIS_SIZE {
            diis_f.remove(0);
            diis_e.remove(0);
        }
        if diis_f.len() >= 2 {
            if let Some(fd) = diis_extrapolate(&diis_f, &diis_e) {
                f = fd;
            }
        }
        phases.diis = diis_start.elapsed();

        // Diagonalize in the orthonormal basis and rebuild the density.
        let diag_start = std::time::Instant::now();
        let fp = f.congruence(&x).expect("F transform");
        let eig = jacobi_eigen(&fp, 1e-12, 100).expect("Fock diagonalization");
        let c = x.matmul(&eig.vectors).expect("back-transform");
        let p_new = density_from_mos(&c, nocc);
        phases.diag = diag_start.elapsed();
        orbital_energies = eig.values.clone();

        let de = (e_elec + enuc - e_old).abs();
        let dp = rms_diff(&p_new, &p);
        e_old = e_elec + enuc;
        p = p_new;
        phases.total = iter_start.elapsed();
        phase_timings.push(phases);
        if it > 0 && de < config.e_tol && dp < config.d_tol {
            converged = true;
            break;
        }
    }

    ScfResult {
        energy: e_old,
        electronic_energy: e_old - enuc,
        nuclear_repulsion: enuc,
        iterations,
        converged,
        orbital_energies,
        density: p,
        energy_history: history,
        phase_timings,
    }
}

/// RHF with **incremental Fock builds**: `G_k = G_{k−1} + G(ΔD_k)` with
/// density-weighted screening on ΔD, run as one stateful `G` builder
/// inside [`rhf_with`].
///
/// Every eighth build (from the first) rebuilds `G` from scratch, since
/// the skipped ΔD contributions accumulate as bias in `G`; the others
/// screen on ΔD. The recursion tracks `G(P)` for whatever density the
/// loop hands it, so DIIS — which only extrapolates `F` — runs as in
/// [`rhf`]. Screening on ΔD limits the reachable convergence, so the
/// thresholds are floored at `e_tol = 1e-8`, `d_tol = 1e-6`.
///
/// The *work per task changes every build*: `observe(build, ‖ΔD‖∞,
/// quartets)` receives the per-task quartet counts of each build, the
/// drift the execution-model study's persistence assumption has to
/// survive.
pub fn rhf_incremental(
    bm: &BasisedMolecule,
    config: &ScfConfig,
    mut observe: impl FnMut(usize, f64, &[u64]),
) -> ScfResult {
    const REBUILD_EVERY: usize = 8;
    let pairs = ScreenedPairs::build(bm, config.tau * 1e-2);
    let fock_builder = FockBuilder::new(bm, &pairs, config.tau);
    let tasks = fock_builder.tasks(usize::MAX);
    let mut scratch = fock_builder.scratch();
    let mut g = Matrix::zeros(bm.nbf, bm.nbf);
    let mut p_prev = Matrix::zeros(bm.nbf, bm.nbf);
    let mut quartets = vec![0u64; tasks.len()];
    let mut build = 0;
    let config = ScfConfig {
        e_tol: config.e_tol.max(1e-8),
        d_tol: config.d_tol.max(1e-6),
        ..config.clone()
    };
    rhf_with(bm, &config, |p| {
        let delta = p.sub(&p_prev).expect("shapes");
        if build % REBUILD_EVERY == 0 {
            g.fill_zero();
            for (q, task) in quartets.iter_mut().zip(&tasks) {
                *q = fock_builder.execute(task, p, &mut g, &mut scratch);
            }
        } else {
            let dmax = fock_builder.pair_density_max(&delta);
            for (q, task) in quartets.iter_mut().zip(&tasks) {
                *q = fock_builder.execute_density_screened(
                    task,
                    &delta,
                    &dmax,
                    &mut g,
                    &mut scratch,
                );
            }
        }
        observe(build, delta.max_abs(), &quartets);
        build += 1;
        p_prev = p.clone();
        g.clone()
    })
}

/// Root-mean-square elementwise difference.
fn rms_diff(a: &Matrix, b: &Matrix) -> f64 {
    let n = (a.rows() * a.cols()) as f64;
    let mut s = 0.0;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        s += (x - y) * (x - y);
    }
    (s / n).sqrt()
}

/// Solves the DIIS least-squares problem and returns the extrapolated
/// Fock matrix, or `None` when the B-matrix is singular (collinear
/// error vectors — the caller just keeps the unextrapolated Fock).
fn diis_extrapolate(fs: &[Matrix], es: &[Matrix]) -> Option<Matrix> {
    let m = fs.len();
    // B-matrix with the Lagrange-multiplier border.
    let mut b = Matrix::zeros(m + 1, m + 1);
    for i in 0..m {
        for j in 0..m {
            b[(i, j)] = es[i].dot(&es[j]).expect("error dot");
        }
        b[(i, m)] = -1.0;
        b[(m, i)] = -1.0;
    }
    let mut rhs = vec![0.0; m + 1];
    rhs[m] = -1.0;
    let f = lu_decompose(&b).ok()?;
    let coef = lu_solve(&f, &rhs).ok()?;
    let mut out = Matrix::zeros(fs[0].rows(), fs[0].cols());
    for (c, fm) in coef[..m].iter().zip(fs) {
        out.axpy(*c, fm).expect("DIIS combine");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, BasisedMolecule};
    use crate::molecule::Molecule;

    /// The validation table's tolerance: literature energies are quoted
    /// to 4 decimals, plus convergence slack.
    const E_TOL: f64 = 6e-5;

    /// Per-build records of an incremental run: `(build, ‖ΔD‖∞,
    /// per-task quartets)`.
    type Builds = Vec<(usize, f64, Vec<u64>)>;

    fn run_incremental(bm: &BasisedMolecule, cfg: &ScfConfig) -> (ScfResult, Builds) {
        let mut builds = Vec::new();
        let r = rhf_incremental(bm, cfg, |b, dnorm, q| builds.push((b, dnorm, q.to_vec())));
        (r, builds)
    }

    fn run(mol: &Molecule, basis: BasisSet) -> ScfResult {
        rhf(&BasisedMolecule::assign(mol, basis), &ScfConfig::default())
    }

    #[test]
    fn h2_sto3g_total_energy() {
        // Szabo & Ostlund: E(RHF/STO-3G, R = 1.4 a₀) = −1.1167 Eh, and
        // −1.1267 Eh in 6-31G; pinned at the validation table's 6e-5.
        let r = run(&Molecule::h2(1.4), BasisSet::Sto3g);
        assert!(r.converged, "did not converge: {:?}", r.energy_history);
        assert!((r.energy + 1.1167).abs() < E_TOL, "E = {}", r.energy);
        let r = run(&Molecule::h2(1.4), BasisSet::SixThirtyOneG);
        assert!(r.converged, "did not converge: {:?}", r.energy_history);
        assert!((r.energy + 1.1267).abs() < E_TOL, "E = {}", r.energy);
    }

    #[test]
    fn h2_nuclear_repulsion_split() {
        let r = run(&Molecule::h2(1.4), BasisSet::Sto3g);
        assert!((r.nuclear_repulsion - 1.0 / 1.4).abs() < 1e-12);
        assert!((r.electronic_energy + r.nuclear_repulsion - r.energy).abs() < 1e-12);
    }

    #[test]
    fn water_sto3g_total_energy_per_geometry() {
        // Each geometry pinned against its own reference: the
        // often-quoted −74.9659 Eh is the minimum of the STO-3G surface
        // (r(OH) = 0.9894 Å, ∠ = 100.03°); the *experimental* geometry
        // (0.9572 Å, 104.52°) sits 3.0 mEh higher at −74.9629. Mixing
        // the two was a long-standing validation-table bug; the tight
        // tolerances here keep the pairing honest.
        let exp = run(&Molecule::water(), BasisSet::Sto3g);
        assert!(exp.converged);
        assert!(
            (exp.energy - (-74.962929)).abs() < 5e-5,
            "E = {}",
            exp.energy
        );

        let opt = run(&Molecule::water_sto3g_opt(), BasisSet::Sto3g);
        assert!(opt.converged);
        assert!(
            (opt.energy - (-74.965901)).abs() < 5e-5,
            "E = {}",
            opt.energy
        );

        // The optimized geometry must lie below the experimental one on
        // the same surface — the fact the old table silently violated.
        assert!(opt.energy < exp.energy);
    }

    #[test]
    fn water_631g_lower_than_sto3g() {
        // The variational principle: a bigger basis gives a lower energy.
        let small = run(&Molecule::water(), BasisSet::Sto3g);
        let big = run(&Molecule::water(), BasisSet::SixThirtyOneG);
        assert!(big.converged);
        assert!(
            big.energy < small.energy,
            "{} !< {}",
            big.energy,
            small.energy
        );
        // 6-31G water at the experimental geometry: −75.9840 Eh (the
        // often-quoted −75.9854 belongs to the 6-31G-optimized one).
        assert!((big.energy + 75.9840).abs() < E_TOL, "E = {}", big.energy);
    }

    #[test]
    fn incremental_scf_matches_regular() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let regular = rhf(&bm, &ScfConfig::default());
        let (incremental, builds) = run_incremental(&bm, &ScfConfig::default());
        assert!(
            incremental.converged,
            "history {:?}",
            incremental.energy_history
        );
        assert!(
            (incremental.energy - regular.energy).abs() < 1e-5,
            "incremental {} vs regular {}",
            incremental.energy,
            regular.energy
        );
        // ΔD norms decay as SCF converges.
        let last = builds.last().unwrap().1;
        assert!(last < 1e-3, "last ‖ΔD‖ {last}");
        assert!(builds[0].1 > 10.0 * last);
    }

    #[test]
    fn incremental_work_shrinks_on_extended_molecule() {
        // An extended molecule has Q-products spanning orders of
        // magnitude, so density-weighted screening kills quartets as
        // ‖ΔD‖ decays — per-iteration work drifts downward, which is
        // the property the persistence-balancing ablation studies.
        // Per-quartet screening error is bounded by τ, so the reachable
        // convergence is ~n_quartets·τ — the thresholds must match.
        let bm = BasisedMolecule::assign(&Molecule::alkane(2), BasisSet::Sto3g);
        let cfg = ScfConfig {
            tau: 1e-7,
            e_tol: 1e-6,
            d_tol: 1e-5,
            ..ScfConfig::default()
        };
        let regular = rhf(
            &bm,
            &ScfConfig {
                tau: 1e-10,
                ..ScfConfig::default()
            },
        );
        let (incremental, builds) = run_incremental(&bm, &cfg);
        assert!(
            incremental.converged,
            "history {:?}",
            incremental.energy_history
        );
        assert!(
            (incremental.energy - regular.energy).abs() < 1e-3,
            "incremental {} vs regular {}",
            incremental.energy,
            regular.energy
        );
        let totals: Vec<u64> = builds.iter().map(|(_, _, q)| q.iter().sum()).collect();
        let (first, last) = (totals[0], *totals.last().unwrap());
        assert!(last < first, "quartet counts should shrink: {totals:?}");
    }

    #[test]
    fn density_screened_execute_drops_work_for_tiny_delta() {
        // Mechanism check, independent of SCF: scaling the density
        // change down by 1e-6 must reduce the surviving quartets.
        use crate::fock::FockBuilder;
        use crate::screening::ScreenedPairs;
        let bm = BasisedMolecule::assign(&Molecule::alkane(2), BasisSet::Sto3g);
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let fb = FockBuilder::new(&bm, &pairs, 1e-8);
        let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
            0.4 / (1.0 + (i as f64 - j as f64).abs())
        });
        d.symmetrize();
        let tiny = d.scaled(1e-6);
        let tasks = fb.tasks(usize::MAX);
        let mut g = Matrix::zeros(bm.nbf, bm.nbf);
        let mut scratch = fb.scratch();
        let full: u64 = {
            let dmax = fb.pair_density_max(&d);
            tasks
                .iter()
                .map(|t| fb.execute_density_screened(t, &d, &dmax, &mut g, &mut scratch))
                .sum()
        };
        let small: u64 = {
            let dmax = fb.pair_density_max(&tiny);
            tasks
                .iter()
                .map(|t| fb.execute_density_screened(t, &tiny, &dmax, &mut g, &mut scratch))
                .sum()
        };
        assert!(small < full / 2, "full {full}, small {small}");
        // And zero delta does zero work.
        let zero = Matrix::zeros(bm.nbf, bm.nbf);
        let dmax = fb.pair_density_max(&zero);
        let none: u64 = tasks
            .iter()
            .map(|t| fb.execute_density_screened(t, &zero, &dmax, &mut g, &mut scratch))
            .sum();
        assert_eq!(none, 0);
    }

    #[test]
    fn incremental_stats_shapes() {
        let bm = BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g);
        let (r, builds) = run_incremental(&bm, &ScfConfig::default());
        // One observed build per iteration, numbered from zero, each
        // with one quartet count per task.
        assert_eq!(builds.len(), r.iterations);
        let ntasks = builds[0].2.len();
        for (i, (b, dnorm, q)) in builds.iter().enumerate() {
            assert_eq!(*b, i);
            assert!(dnorm.is_finite() && *dnorm >= 0.0);
            assert_eq!(q.len(), ntasks);
        }
        assert!((r.energy + 1.1167).abs() < 1e-3);
    }

    #[test]
    fn incremental_scf_converges_on_butane() {
        // Plain Roothaan iterations oscillate between two energies on
        // this system, so the ΔD builder must run under DIIS — which it
        // can, since its recursion tracks G(P) whatever density the loop
        // hands it.
        let bm = BasisedMolecule::assign(&Molecule::alkane(4), BasisSet::Sto3g);
        let cfg = ScfConfig {
            tau: 1e-8,
            ..ScfConfig::default()
        };
        let regular = rhf(&bm, &cfg);
        let (incremental, builds) = run_incremental(&bm, &cfg);
        assert!(
            incremental.converged,
            "history {:?}",
            incremental.energy_history
        );
        assert!(
            (incremental.energy - regular.energy).abs() < 1e-6,
            "incremental {} vs regular {}",
            incremental.energy,
            regular.energy
        );
        assert_eq!(builds.len(), incremental.iterations);
    }

    #[test]
    fn water_631gstar_total_energy() {
        // RHF/6-31G* (Cartesian 6d) water at the experimental geometry:
        // −76.0105 Eh (−76.0107 belongs to the basis's optimized one).
        let r = run(&Molecule::water(), BasisSet::SixThirtyOneGStar);
        assert!(r.converged);
        assert!((r.energy + 76.0105).abs() < E_TOL, "E = {}", r.energy);
    }

    #[test]
    fn density_trace_counts_electrons() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let r = rhf(&bm, &ScfConfig::default());
        // tr(P·S) = number of electrons.
        let s = overlap(&bm);
        let ps = r.density.matmul(&s).unwrap();
        assert!((ps.trace().unwrap() - 10.0).abs() < 1e-8);
    }

    #[test]
    fn energy_history_is_recorded() {
        let r = run(&Molecule::h2(1.4), BasisSet::Sto3g);
        assert_eq!(r.energy_history.len(), r.iterations);
        // Final history entry equals the reported energy.
        assert!((r.energy_history.last().unwrap() - r.energy).abs() < 1e-10);
    }

    #[test]
    fn phase_timings_cover_every_iteration() {
        let r = run(&Molecule::water(), BasisSet::Sto3g);
        assert_eq!(r.phase_timings.len(), r.iterations);
        for ph in &r.phase_timings {
            // Phases are sub-intervals of the iteration.
            assert!(ph.total >= ph.fock);
            assert!(ph.total >= ph.diis);
            assert!(ph.total >= ph.diag);
            assert!(ph.total > std::time::Duration::ZERO);
        }
        let (ri, _) = run_incremental(
            &BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g),
            &ScfConfig::default(),
        );
        assert_eq!(ri.phase_timings.len(), ri.iterations);
    }

    #[test]
    #[should_panic(expected = "even electron count")]
    fn odd_electron_count_panics() {
        let mut m = Molecule::new();
        m.push(crate::basis::Element::H, [0.0; 3]);
        let bm = BasisedMolecule::assign(&m, BasisSet::Sto3g);
        let _ = rhf(&bm, &ScfConfig::default());
    }

    #[test]
    fn orbital_energies_water_shape() {
        let r = run(&Molecule::water(), BasisSet::Sto3g);
        assert_eq!(r.orbital_energies.len(), 7);
        // Core O(1s) orbital should be deeply bound (≈ −20.2 Eh).
        assert!(r.orbital_energies[0] < -18.0);
        // HOMO (5th orbital) negative, LUMO positive.
        assert!(r.orbital_energies[4] < 0.0);
        assert!(r.orbital_energies[5] > 0.0);
    }
}
