//! Fock-matrix construction and its decomposition into schedulable tasks.
//!
//! The two-electron part of the closed-shell Fock matrix is
//!
//! ```text
//! G[μν] = Σ_{λσ} P[λσ] ( (μν|λσ) − ½ (μλ|νσ) )
//! ```
//!
//! computed over *unique* shell-pair quartets with 8-fold permutational
//! symmetry. The unit of scheduling — the **task** — is a bra shell pair
//! together with a contiguous chunk of ket shell pairs, mirroring the
//! blocked `(ij, kl)` decomposition of the paper's SCF kernel. Tasks are
//! embarrassingly parallel: each produces *additive* contributions to
//! `G`, so any execution model may run them in any order on any worker,
//! accumulating into worker-local buffers that are reduced at the end
//! (the shared-memory analogue of Global Arrays `acc`).
//!
//! *Inside* a task the kernel is batched: the surviving kets of the
//! task's ket range are gathered into a list and evaluated in one
//! [`eri_bra_block_into`] pass over the SoA pair data, amortizing the
//! bra-side contraction across the whole ket block. Batching never
//! crosses a task boundary and each ket's block is accumulated
//! independently, so task→worker assignment semantics and the
//! per-worker reduction are exactly as before — `G` stays bitwise
//! identical across chunk sizes and worker counts.

use crate::basis::{cartesian_components, BasisedMolecule};
use crate::eri::{eri_quartet_into, quartet_cost_estimate, EriScratch};
use crate::eribatch::eri_bra_block_into;
use crate::screening::ScreenedPairs;
use emx_linalg::Matrix;

/// One schedulable unit of Fock-build work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FockTask {
    /// Index of the bra shell pair in the screened pair list.
    pub bra: usize,
    /// First ket-pair index covered (inclusive).
    pub ket_begin: usize,
    /// One past the last ket-pair index covered.
    pub ket_end: usize,
    /// Inspector cost estimate (arbitrary units, additive).
    pub est_cost: u64,
}

/// The Fock-build engine: owns the screened pair list and the Schwarz
/// threshold, and executes tasks against a density matrix.
pub struct FockBuilder<'a> {
    /// The basis-expanded molecule.
    pub bm: &'a BasisedMolecule,
    /// Screened shell pairs.
    pub pairs: &'a ScreenedPairs,
    /// Schwarz quartet threshold τ.
    pub tau: f64,
}

impl<'a> FockBuilder<'a> {
    /// Creates an engine with quartet threshold `tau`.
    pub fn new(bm: &'a BasisedMolecule, pairs: &'a ScreenedPairs, tau: f64) -> FockBuilder<'a> {
        FockBuilder { bm, pairs, tau }
    }

    /// An [`EriScratch`] pre-sized for this molecule's largest shell,
    /// so task execution never allocates. Each worker keeps one in its
    /// local state.
    pub fn scratch(&self) -> EriScratch {
        let lmax = self.bm.shells.iter().map(|s| s.l).max().unwrap_or(0);
        EriScratch::for_max_shell_l(lmax)
    }

    /// Decomposes the triangular quartet loop into tasks.
    ///
    /// `chunk` caps the number of ket pairs per task; `usize::MAX` gives
    /// the classic one-task-per-bra-pair decomposition whose costs grow
    /// linearly with the bra index (maximal skew), small values give
    /// many near-uniform tasks (maximal scheduling overhead) — the
    /// granularity axis of experiment E5.
    pub fn tasks(&self, chunk: usize) -> Vec<FockTask> {
        assert!(chunk > 0, "chunk must be positive");
        let np = self.pairs.len();
        let mut tasks = Vec::new();
        for bra in 0..np {
            let mut begin = 0;
            while begin <= bra {
                let end = (begin + chunk).min(bra + 1);
                let est = self.estimate_range(bra, begin, end);
                if est > 0 {
                    tasks.push(FockTask {
                        bra,
                        ket_begin: begin,
                        ket_end: end,
                        est_cost: est,
                    });
                }
                begin = end;
            }
        }
        tasks
    }

    /// Inspector estimate for a (bra, ket-range) chunk: the summed
    /// quartet cost over surviving quartets.
    pub fn estimate_range(&self, bra: usize, begin: usize, end: usize) -> u64 {
        let bp = &self.pairs.pairs[bra];
        let mut est = 0;
        for ket in begin..end {
            if self.pairs.survives(bra, ket, self.tau) {
                est += quartet_cost_estimate(bp, &self.pairs.pairs[ket]);
            }
        }
        est
    }

    /// Executes one task: computes its surviving quartets into `scratch`
    /// and adds their contributions into `g_local` (shape `nbf × nbf`).
    ///
    /// The surviving kets of the range are staged into the scratch's
    /// ket list and evaluated in one batched kernel pass; their blocks
    /// are then scattered in the same canonical ket order the scalar
    /// loop used, so `G` is unchanged to the last bit.
    ///
    /// Returns the number of quartets actually computed (post-screening),
    /// which the persistence-based balancer uses as a measured cost.
    /// Allocation-free with a warm scratch (see [`Self::scratch`]).
    pub fn execute(
        &self,
        task: &FockTask,
        density: &Matrix,
        g_local: &mut Matrix,
        scratch: &mut EriScratch,
    ) -> u64 {
        let survives = |ket| self.pairs.survives(task.bra, ket, self.tau);
        self.execute_kets(task, survives, density, g_local, scratch)
    }

    /// The pre-batching task executor: one scalar
    /// [`eri_quartet_into`] call per surviving quartet. Kept as the
    /// comparison arm of the benchmark's `chem.batched_vs_scalar` and of
    /// the `batched_fock_build_beats_the_scalar_oracle` test (the
    /// batched-vs-scalar speedup is host-independent evidence the
    /// restructure pays; the test asserts it is ≥ 1.3×) and as a second
    /// full-path oracle in tests. Scatter, screening and counts
    /// are identical to [`Self::execute`]; only summation order inside a
    /// block differs (≤ 1e-12 relative on `G`).
    pub fn execute_scalar(
        &self,
        task: &FockTask,
        density: &Matrix,
        g_local: &mut Matrix,
        scratch: &mut EriScratch,
    ) -> u64 {
        debug_assert_eq!(density.shape(), (self.bm.nbf, self.bm.nbf));
        debug_assert_eq!(g_local.shape(), (self.bm.nbf, self.bm.nbf));
        let mut done = 0;
        let bra_pair = &self.pairs.pairs[task.bra];
        for ket in task.ket_begin..task.ket_end {
            if !self.pairs.survives(task.bra, ket, self.tau) {
                continue;
            }
            let ket_pair = &self.pairs.pairs[ket];
            let block = eri_quartet_into(scratch, bra_pair, ket_pair, &self.bm.shells);
            self.scatter(bra_pair, ket_pair, block, density, g_local);
            done += 1;
        }
        done
    }

    /// Scatters one quartet block into `g` using 8-fold symmetry:
    /// `G += J(P) − ½·K(P)`.
    ///
    /// Shell-level uniqueness comes from the triangular task loop
    /// (`a ≥ b`, `c ≥ d`, bra pair index ≥ ket pair index); component
    /// duplicates therefore only arise between *coincident* shells, and
    /// the filters below dedup exactly those cases:
    ///
    /// * `a == b` → keep `ia ≥ ib`, i.e. `μ ≥ ν` (for `a > b` every `μ`
    ///   exceeds every `ν`);
    /// * `c == d` → keep `λ ≥ σ`;
    /// * bra pair == ket pair → keep global compound `(μν) ≥ (λσ)`.
    ///
    /// A global-compound filter applied unconditionally would be wrong:
    /// when bra and ket share only the *first* shell, some component
    /// orbits have their canonical representative in the mirrored
    /// quartet that the triangular loop never visits, and the
    /// contribution would be silently dropped (visible only with
    /// split-valence bases, where the dropped integrals are nonzero).
    ///
    /// Returns the number of permutational images applied — the
    /// old-vs-scratch equivalence tests compare these counts.
    fn scatter(
        &self,
        bra: &crate::shellpair::ShellPair,
        ket: &crate::shellpair::ShellPair,
        block: &[f64],
        density: &Matrix,
        g: &mut Matrix,
    ) -> u64 {
        debug_assert!(bra.a >= bra.b && ket.a >= ket.b, "pair list not canonical");
        let off = &self.bm.shell_offsets;
        let (oa, ob, oc, od) = (off[bra.a], off[bra.b], off[ket.a], off[ket.b]);
        let nc = |l| cartesian_components(l).len();
        let same_pair = bra.a == ket.a && bra.b == ket.b;
        let n = g.cols();
        let (g, p) = (g.as_mut_slice(), density.as_slice());

        let mut images = 0;
        let mut idx = 0;
        for mu in oa..oa + nc(bra.la) {
            for nu in ob..ob + nc(bra.lb) {
                for la in oc..oc + nc(ket.la) {
                    for si in od..od + nc(ket.lb) {
                        let v = block[idx];
                        idx += 1;
                        if v == 0.0 || nu > mu || si > la {
                            continue;
                        }
                        if same_pair && mu * (mu + 1) / 2 + nu < la * (la + 1) / 2 + si {
                            continue;
                        }
                        let q = [mu, nu, la, si];
                        let distinct = distinct_images(q);
                        for &k in distinct {
                            // The symmetry orbits of all canonical quartets
                            // partition the full (a,b,c,d) index space, so
                            // applying the two naive updates once per
                            // distinct image reproduces the unrestricted
                            // four-index sums exactly:
                            //   Coulomb   G[ab] += P[cd]·(ab|cd)
                            //   Exchange  G[ac] −= ½·P[bd]·(ab|cd)
                            let [a, b, c, d] = IMAGES[k as usize].map(|i| q[i]);
                            g[a * n + b] += p[c * n + d] * v;
                            g[a * n + c] -= 0.5 * p[b * n + d] * v;
                        }
                        images += distinct.len() as u64;
                    }
                }
            }
        }
        images
    }

    /// Builds the full two-electron matrix `G` serially (the reference
    /// execution model: one worker, canonical task order, one scratch).
    pub fn build_serial(&self, density: &Matrix) -> Matrix {
        let mut g = Matrix::zeros(self.bm.nbf, self.bm.nbf);
        let mut scratch = self.scratch();
        for task in self.tasks(usize::MAX) {
            self.execute(&task, density, &mut g, &mut scratch);
        }
        g
    }

    /// The batched executor: stages the kets of `task` that `keep` admits
    /// into the scratch's ket list, evaluates them in one kernel call,
    /// and scatters their blocks in canonical ket order. Returns how
    /// many quartets it computed.
    fn execute_kets(
        &self,
        task: &FockTask,
        keep: impl Fn(usize) -> bool,
        density: &Matrix,
        g_local: &mut Matrix,
        scratch: &mut EriScratch,
    ) -> u64 {
        debug_assert_eq!(density.shape(), (self.bm.nbf, self.bm.nbf));
        debug_assert_eq!(g_local.shape(), (self.bm.nbf, self.bm.nbf));
        let mut kets = std::mem::take(&mut scratch.ket_buf);
        kets.clear();
        kets.extend(
            (task.ket_begin..task.ket_end)
                .filter(|&ket| keep(ket))
                .map(|ket| ket as u32),
        );
        eri_bra_block_into(scratch, &self.pairs.batch, task.bra, &kets);
        let bra_pair = &self.pairs.pairs[task.bra];
        for (i, &ket) in kets.iter().enumerate() {
            let ket_pair = &self.pairs.pairs[ket as usize];
            let block = scratch.ket_block(i);
            self.scatter(bra_pair, ket_pair, block, density, g_local);
        }
        let done = kets.len() as u64;
        scratch.ket_buf = kets;
        done
    }

    /// Largest |density| entry touching each shell pair's block — the
    /// density factor of density-weighted (incremental) screening.
    pub fn pair_density_max(&self, density: &Matrix) -> Vec<f64> {
        let off = &self.bm.shell_offsets;
        self.pairs
            .pairs
            .iter()
            .map(|sp| {
                let (a0, a1) = (off[sp.a], off[sp.a] + self.bm.shells[sp.a].ncart());
                let (b0, b1) = (off[sp.b], off[sp.b] + self.bm.shells[sp.b].ncart());
                let mut m = 0.0f64;
                for i in a0..a1 {
                    for j in b0..b1 {
                        m = m.max(density[(i, j)].abs());
                    }
                }
                m
            })
            .collect()
    }

    /// Executes one task with density-weighted screening: the quartet
    /// `(I|J)` is skipped when `Q_I·Q_J·max(D_I, D_J)` falls below τ.
    ///
    /// With `density = ΔD` (the density *change*), this is the
    /// incremental Fock build: as SCF converges, ΔD shrinks and ever
    /// more quartets vanish — per-task costs drift between iterations,
    /// eroding the persistence-balancer's core assumption.
    pub fn execute_density_screened(
        &self,
        task: &FockTask,
        density: &Matrix,
        dmax: &[f64],
        g_local: &mut Matrix,
        scratch: &mut EriScratch,
    ) -> u64 {
        debug_assert_eq!(dmax.len(), self.pairs.len());
        let keep = |ket| {
            let dfactor = dmax[task.bra].max(dmax[ket]);
            self.pairs.q[task.bra] * self.pairs.q[ket] * dfactor >= self.tau
        };
        self.execute_kets(task, keep, density, g_local, scratch)
    }
}

/// The eight permutational images of `(μν|λσ)`, as positions in
/// `[μ, ν, λ, σ]`.
const IMAGES: [[usize; 4]; 8] = [
    [0, 1, 2, 3],
    [1, 0, 2, 3],
    [0, 1, 3, 2],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 0, 1],
    [2, 3, 1, 0],
    [3, 2, 1, 0],
];

/// The distinct [`IMAGES`], each at its first occurrence, by coincidence
/// class `(μ = ν) + 2·(λ = σ) + 4·((μν) = (λσ))`. Under the canonical
/// order `μ ≥ ν`, `λ ≥ σ` these three equalities decide every
/// coincidence among the eight (any other forces all four indices
/// equal), and `(μν) = (λσ)` with exactly one of the other two cannot
/// occur (classes 5 and 6).
const DISTINCT_IMAGES: [&[u8]; 8] = [
    &[0, 1, 2, 3, 4, 5, 6, 7],
    &[0, 2, 4, 5],
    &[0, 1, 4, 6],
    &[0, 4],
    &[0, 1, 2, 3],
    &[0],
    &[0],
    &[0],
];

/// The distinct permutational images of the canonical quartet `[μ, ν, λ,
/// σ]`, as indices into [`IMAGES`].
#[inline]
fn distinct_images([mu, nu, la, si]: [usize; 4]) -> &'static [u8] {
    debug_assert!(mu >= nu && la >= si, "non-canonical quartet");
    let class = (mu == nu) as usize + 2 * (la == si) as usize + 4 * (mu == la && nu == si) as usize;
    DISTINCT_IMAGES[class]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, BasisedMolecule};
    use crate::molecule::Molecule;

    fn setup(mol: &Molecule) -> (BasisedMolecule, ScreenedPairs) {
        let bm = BasisedMolecule::assign(mol, BasisSet::Sto3g);
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        (bm, pairs)
    }

    fn mock_density(n: usize) -> Matrix {
        // A symmetric, not-too-structured density stand-in.
        let mut d = Matrix::from_fn(n, n, |i, j| 0.3 / (1.0 + (i as f64 - j as f64).abs()));
        d.symmetrize();
        d
    }

    /// The full AO ERI tensor `(μν|λσ)`, row-major over four indices
    /// (`nbf⁴` doubles). Each canonical quartet of a threshold-0 pair
    /// list is evaluated once through the *scalar* kernel and written to
    /// all 8 permutational images, so the tensor is exactly symmetric and
    /// independent of the batched path.
    fn full_eri_tensor(bm: &BasisedMolecule) -> Vec<f64> {
        let n = bm.nbf;
        let mut eri = vec![0.0; n * n * n * n];
        let at = |m: usize, u: usize, l: usize, s: usize| ((m * n + u) * n + l) * n + s;
        let pairs = ScreenedPairs::build(bm, 0.0);
        let mut scratch = EriScratch::new();
        for pi in 0..pairs.len() {
            let bra = &pairs.pairs[pi];
            for pj in 0..=pi {
                let ket = &pairs.pairs[pj];
                let block = eri_quartet_into(&mut scratch, bra, ket, &bm.shells);
                let (na, nb) = (bm.shells[bra.a].ncart(), bm.shells[bra.b].ncart());
                let (nc, nd) = (bm.shells[ket.a].ncart(), bm.shells[ket.b].ncart());
                let (oa, ob, oc, od) = (
                    bm.shell_offsets[bra.a],
                    bm.shell_offsets[bra.b],
                    bm.shell_offsets[ket.a],
                    bm.shell_offsets[ket.b],
                );
                let mut i = 0;
                for mu in oa..oa + na {
                    for nu in ob..ob + nb {
                        for la in oc..oc + nc {
                            for si in od..od + nd {
                                let v = block[i];
                                i += 1;
                                // All 8 images; duplicate writes are
                                // idempotent (same canonical value).
                                eri[at(mu, nu, la, si)] = v;
                                eri[at(nu, mu, la, si)] = v;
                                eri[at(mu, nu, si, la)] = v;
                                eri[at(nu, mu, si, la)] = v;
                                eri[at(la, si, mu, nu)] = v;
                                eri[at(si, la, mu, nu)] = v;
                                eri[at(la, si, nu, mu)] = v;
                                eri[at(si, la, nu, mu)] = v;
                            }
                        }
                    }
                }
            }
        }
        eri
    }

    /// Reference `G` from the naive four-index loop over
    /// [`full_eri_tensor`] (no symmetry in the contraction, no
    /// screening), so the `serial_matches_naive_reference_*` tests are
    /// end-to-end batched-vs-scalar checks. Test-sized molecules only.
    fn g_matrix_reference(bm: &BasisedMolecule, density: &Matrix) -> Matrix {
        let n = bm.nbf;
        let eri = full_eri_tensor(bm);
        let at = |m: usize, u: usize, l: usize, s: usize| ((m * n + u) * n + l) * n + s;
        let mut g = Matrix::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                let mut s = 0.0;
                for la in 0..n {
                    for si in 0..n {
                        s += density[(la, si)]
                            * (eri[at(mu, nu, la, si)] - 0.5 * eri[at(mu, la, nu, si)]);
                    }
                }
                g[(mu, nu)] = s;
            }
        }
        g
    }

    #[test]
    fn serial_matches_naive_reference_h2() {
        let mol = Molecule::h2(1.4);
        let (bm, pairs) = setup(&mol);
        let fb = FockBuilder::new(&bm, &pairs, 0.0);
        let d = mock_density(bm.nbf);
        let g = fb.build_serial(&d);
        let gref = g_matrix_reference(&bm, &d);
        assert!(
            g.max_abs_diff(&gref) < 1e-10,
            "diff {}",
            g.max_abs_diff(&gref)
        );
    }

    #[test]
    fn serial_matches_naive_reference_water() {
        let mol = Molecule::water();
        let (bm, pairs) = setup(&mol);
        let fb = FockBuilder::new(&bm, &pairs, 0.0);
        let d = mock_density(bm.nbf);
        let g = fb.build_serial(&d);
        let gref = g_matrix_reference(&bm, &d);
        assert!(
            g.max_abs_diff(&gref) < 1e-9,
            "diff {}",
            g.max_abs_diff(&gref)
        );
    }

    #[test]
    fn serial_matches_naive_reference_split_valence() {
        // Regression: split-valence bases have two shells of the same
        // angular momentum on one center, producing quartets where bra
        // and ket share only their first shell. A global-compound
        // canonicality filter silently drops those contributions (they
        // vanish by symmetry in minimal bases, masking the bug).
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
        let pairs = ScreenedPairs::build(&bm, 1e-14);
        let fb = FockBuilder::new(&bm, &pairs, 0.0);
        let d = mock_density(bm.nbf);
        let g = fb.build_serial(&d);
        let gref = g_matrix_reference(&bm, &d);
        assert!(
            g.max_abs_diff(&gref) < 1e-9,
            "diff {}",
            g.max_abs_diff(&gref)
        );
    }

    #[test]
    fn g_is_symmetric_for_symmetric_density() {
        let (bm, pairs) = setup(&Molecule::water());
        let fb = FockBuilder::new(&bm, &pairs, 0.0);
        let g = fb.build_serial(&mock_density(bm.nbf));
        assert!(g.is_symmetric(1e-9), "asymmetry {}", g.max_asymmetry());
    }

    #[test]
    fn task_chunking_partitions_ket_ranges() {
        let (bm, pairs) = setup(&Molecule::water());
        let fb = FockBuilder::new(&bm, &pairs, 0.0);
        for chunk in [1, 2, 3, 7, usize::MAX] {
            let tasks = fb.tasks(chunk);
            // For each bra, ket ranges must tile 0..=bra without gaps.
            for bra in 0..pairs.len() {
                let mut ranges: Vec<_> = tasks
                    .iter()
                    .filter(|t| t.bra == bra)
                    .map(|t| (t.ket_begin, t.ket_end))
                    .collect();
                ranges.sort();
                let mut expect = 0;
                for (b, e) in ranges {
                    assert_eq!(b, expect, "gap in ket coverage for bra {bra} chunk {chunk}");
                    expect = e;
                }
                assert_eq!(expect, bra + 1);
            }
        }
    }

    #[test]
    fn chunked_execution_sums_to_serial() {
        let (bm, pairs) = setup(&Molecule::water());
        let fb = FockBuilder::new(&bm, &pairs, 0.0);
        let d = mock_density(bm.nbf);
        let reference = fb.build_serial(&d);
        for chunk in [1, 3, 5] {
            let mut g = Matrix::zeros(bm.nbf, bm.nbf);
            // Execute in a scrambled order to mimic dynamic scheduling.
            let mut tasks = fb.tasks(chunk);
            tasks.reverse();
            let mut scratch = fb.scratch();
            for t in &tasks {
                fb.execute(t, &d, &mut g, &mut scratch);
            }
            assert!(g.max_abs_diff(&reference) < 1e-10, "chunk {chunk}");
        }
    }

    #[test]
    fn image_table_matches_the_search_it_replaced() {
        // The distinct images of every canonical (μν|λσ) over 0..6, in
        // order, against a dedup search over all eight.
        for mu in 0..6 {
            for nu in 0..=mu {
                for la in 0..6 {
                    for si in 0..=la {
                        let q = [mu, nu, la, si];
                        let mut searched = Vec::new();
                        for im in [
                            [mu, nu, la, si],
                            [nu, mu, la, si],
                            [mu, nu, si, la],
                            [nu, mu, si, la],
                            [la, si, mu, nu],
                            [si, la, mu, nu],
                            [la, si, nu, mu],
                            [si, la, nu, mu],
                        ] {
                            if !searched.contains(&im) {
                                searched.push(im);
                            }
                        }
                        let table: Vec<_> = distinct_images(q)
                            .iter()
                            .map(|&k| IMAGES[k as usize].map(|i| q[i]))
                            .collect();
                        assert_eq!(table, searched, "{q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn screening_changes_little_for_loose_threshold() {
        let (bm, pairs) = setup(&Molecule::alkane(3));
        let d = mock_density(bm.nbf);
        let exact = FockBuilder::new(&bm, &pairs, 0.0).build_serial(&d);
        let screened = FockBuilder::new(&bm, &pairs, 1e-9).build_serial(&d);
        assert!(exact.max_abs_diff(&screened) < 1e-6);
    }

    #[test]
    fn task_costs_are_skewed() {
        let (bm, pairs) = setup(&Molecule::water_cluster(2, 1));
        let fb = FockBuilder::new(&bm, &pairs, 1e-10);
        let tasks = fb.tasks(usize::MAX);
        let max = tasks.iter().map(|t| t.est_cost).max().unwrap();
        let min = tasks.iter().map(|t| t.est_cost).min().unwrap();
        assert!(max > 10 * min.max(1), "expected skew, got {min}..{max}");
    }

    #[test]
    fn measured_quartets_match_screen_count() {
        let (bm, pairs) = setup(&Molecule::water());
        let fb = FockBuilder::new(&bm, &pairs, 1e-10);
        let d = mock_density(bm.nbf);
        let mut g = Matrix::zeros(bm.nbf, bm.nbf);
        let mut scratch = fb.scratch();
        let total: u64 = fb
            .tasks(usize::MAX)
            .iter()
            .map(|t| fb.execute(t, &d, &mut g, &mut scratch))
            .sum();
        assert_eq!(total as usize, pairs.surviving_quartets(1e-10));
    }

    /// Replays a task list through the *pre-rework* allocating kernel
    /// ([`crate::eri::eri_quartet_alloc_reference`]) with the same
    /// screening and scatter, returning (quartets, images, G).
    fn execute_all_alloc_oracle(
        fb: &FockBuilder,
        tasks: &[FockTask],
        d: &Matrix,
    ) -> (u64, u64, Matrix) {
        let mut g = Matrix::zeros(fb.bm.nbf, fb.bm.nbf);
        let (mut quartets, mut images) = (0u64, 0u64);
        for task in tasks {
            let bra_pair = &fb.pairs.pairs[task.bra];
            for ket in task.ket_begin..task.ket_end {
                if !fb.pairs.survives(task.bra, ket, fb.tau) {
                    continue;
                }
                let ket_pair = &fb.pairs.pairs[ket];
                let block =
                    crate::eri::eri_quartet_alloc_reference(bra_pair, ket_pair, &fb.bm.shells);
                images += fb.scatter(bra_pair, ket_pair, &block, d, &mut g);
                quartets += 1;
            }
        }
        (quartets, images, g)
    }

    /// The same replay through the scratch-buffer production kernel.
    fn execute_all_scratch(fb: &FockBuilder, tasks: &[FockTask], d: &Matrix) -> (u64, u64, Matrix) {
        let mut g = Matrix::zeros(fb.bm.nbf, fb.bm.nbf);
        let mut scratch = fb.scratch();
        let (mut quartets, mut images) = (0u64, 0u64);
        for task in tasks {
            let bra_pair = &fb.pairs.pairs[task.bra];
            for ket in task.ket_begin..task.ket_end {
                if !fb.pairs.survives(task.bra, ket, fb.tau) {
                    continue;
                }
                let ket_pair = &fb.pairs.pairs[ket];
                let block =
                    crate::eri::eri_quartet_into(&mut scratch, bra_pair, ket_pair, &fb.bm.shells);
                images += fb.scatter(bra_pair, ket_pair, block, d, &mut g);
                quartets += 1;
            }
        }
        (quartets, images, g)
    }

    fn assert_scratch_equivalent(bm: &BasisedMolecule, pair_threshold: f64, tau: f64) {
        let pairs = ScreenedPairs::build(bm, pair_threshold);
        let fb = FockBuilder::new(bm, &pairs, tau);
        let d = mock_density(bm.nbf);
        let tasks = fb.tasks(4);
        let (q_old, im_old, g_old) = execute_all_alloc_oracle(&fb, &tasks, &d);
        let (q_new, im_new, g_new) = execute_all_scratch(&fb, &tasks, &d);
        assert_eq!(q_old, q_new, "quartets-computed counts diverged");
        assert_eq!(im_old, im_new, "scatter-image counts diverged");
        assert!(q_new > 0 && im_new > q_new, "workload must be nontrivial");
        assert!(
            g_old.max_abs_diff(&g_new) < 1e-12,
            "G diverged: {}",
            g_old.max_abs_diff(&g_new)
        );
        // And the production entry point reports the same quartet count.
        let mut g = Matrix::zeros(bm.nbf, bm.nbf);
        let mut scratch = fb.scratch();
        let q_exec: u64 = tasks
            .iter()
            .map(|t| fb.execute(t, &d, &mut g, &mut scratch))
            .sum();
        assert_eq!(q_exec, q_new);
    }

    #[test]
    fn batched_execute_matches_scalar_execute() {
        // The production (batched) executor against the retained scalar
        // arm, per task: same quartet counts, same G to summation-order
        // rounding. 6-31G exercises mixed classes and deep contractions.
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let fb = FockBuilder::new(&bm, &pairs, 1e-10);
        let d = mock_density(bm.nbf);
        let mut g_b = Matrix::zeros(bm.nbf, bm.nbf);
        let mut g_s = Matrix::zeros(bm.nbf, bm.nbf);
        let mut scratch = fb.scratch();
        for t in fb.tasks(5) {
            let qb = fb.execute(&t, &d, &mut g_b, &mut scratch);
            let qs = fb.execute_scalar(&t, &d, &mut g_s, &mut scratch);
            assert_eq!(qb, qs, "quartet counts diverged on task {t:?}");
        }
        assert!(
            g_b.max_abs_diff(&g_s) < 1e-11,
            "diff {}",
            g_b.max_abs_diff(&g_s)
        );
    }

    #[test]
    fn batched_g_bitwise_identical_across_chunkings() {
        // Canonical task order with different chunk sizes visits the
        // same quartets in the same order; because each ket's block is
        // independent of its batch's composition, G must agree to the
        // last bit — the invariant that keeps worker-count determinism.
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let fb = FockBuilder::new(&bm, &pairs, 1e-10);
        let d = mock_density(bm.nbf);
        let mut scratch = fb.scratch();
        let build = |fb: &FockBuilder, chunk: usize, scratch: &mut EriScratch| {
            let mut g = Matrix::zeros(bm.nbf, bm.nbf);
            for t in fb.tasks(chunk) {
                fb.execute(&t, &d, &mut g, scratch);
            }
            g
        };
        let reference = build(&fb, usize::MAX, &mut scratch);
        for chunk in [1, 2, 7] {
            let g = build(&fb, chunk, &mut scratch);
            for (a, b) in g.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk {chunk} perturbed G");
            }
        }
    }

    #[test]
    fn estimate_monotone_in_block_size() {
        // The inspector estimate for (bra, 0..end) must be non-decreasing
        // in end and additive over a split — the properties the static
        // balancers rely on when they carve ket ranges.
        let (bm, pairs) = setup(&Molecule::water_cluster(2, 1));
        let fb = FockBuilder::new(&bm, &pairs, 1e-10);
        for bra in 0..pairs.len() {
            let mut prev = 0;
            for end in 0..=bra + 1 {
                let est = fb.estimate_range(bra, 0, end);
                assert!(
                    est >= prev,
                    "estimate shrank growing block: bra {bra} end {end}"
                );
                prev = est;
            }
            let mid = (bra + 1).div_ceil(2);
            let whole = fb.estimate_range(bra, 0, bra + 1);
            let split = fb.estimate_range(bra, 0, mid) + fb.estimate_range(bra, mid, bra + 1);
            assert_eq!(whole, split, "estimate not additive for bra {bra}");
        }
    }

    #[test]
    fn scratch_path_counts_match_alloc_path_sto3g() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        assert_scratch_equivalent(&bm, 1e-12, 1e-10);
    }

    #[test]
    fn scratch_path_counts_match_alloc_path_split_valence() {
        // Split-valence: multiple shells of equal angular momentum per
        // center exercise every scatter dedup filter, and the scratch
        // block resizes across quartet shapes.
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
        assert_scratch_equivalent(&bm, 1e-12, 1e-10);
    }

    #[test]
    fn kernel_counts_add_up_to_surviving_primitive_quartets() {
        // The benchmark's `chem.prim_quartets_per_build`, two ways: from
        // the pair list, and as counted inside the kernel — by total
        // order and by Boys regime — at a chunking that splits ket
        // ranges across calls.
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
        let pairs = ScreenedPairs::build(&bm, 1e-12);
        let tau = 1e-10;
        let fb = FockBuilder::new(&bm, &pairs, tau);
        let d = mock_density(bm.nbf);
        let mut g = Matrix::zeros(bm.nbf, bm.nbf);
        let mut scratch = fb.scratch();
        for task in fb.tasks(8) {
            fb.execute(&task, &d, &mut g, &mut scratch);
        }
        let mut by_l_tot = [0u64; 2 * crate::md::PAIR_L_MAX + 1];
        for bra in 0..pairs.len() {
            for ket in (0..=bra).filter(|&ket| pairs.survives(bra, ket, tau)) {
                let (b, k) = (&pairs.pairs[bra], &pairs.pairs[ket]);
                by_l_tot[b.la + b.lb + k.la + k.lb] += (b.prims.len() * k.prims.len()) as u64;
            }
        }
        let counts = scratch.counts();
        assert_eq!(counts.by_l_tot, by_l_tot);
        assert_eq!(counts.boys.iter().sum::<u64>(), counts.prim_quartets());
        // One water molecule has same-centre quartets and nothing far
        // enough apart to leave the Boys table.
        assert!(counts.boys[0] > 0 && counts.boys[1] > 0);
    }
}
