//! Property test: the batched SoA kernel `eri_bra_block_into` must
//! reproduce the scalar oracle `eri_quartet_into` on randomized shell
//! sets — mixed s/p/d angular momenta, mixed contraction depths,
//! random centers — to 1e-12 relative, element by element.
//!
//! The two kernels share no contraction code and no `R` code: the
//! scalar path walks the sparse six-deep `E` loops per component over
//! the generic cube recursion, the batched path contracts dense
//! precomputed `E`-product rows in two stages over the simplex-ordered
//! front end (running powers, in-place levels; exponent and prefactor
//! are the scalar kernel's expressions on purpose — a near-cancelling
//! contraction sums terms 10⁴ times this tolerance's scale, so an ulp
//! in every prefactor shows). Agreement across random inputs therefore
//! pins the `ShellPairBatch` table construction (coefficient/norm/sign
//! folding), the front end in every Boys regime, and the two-stage
//! summation.
//!
//! The same two paths also carry the kernel's one host-independent
//! speed floor: on (H₂O)₂/6-31G a full batched Fock build must beat the
//! scalar oracle by 1.3×, timed in this process.

use emx_chem::basis::{BasisSet, BasisedMolecule, Shell};
use emx_chem::eri::{eri_quartet_into, EriScratch};
use emx_chem::eribatch::{eri_bra_block_into, KernelCounts};
use emx_chem::fock::FockBuilder;
use emx_chem::molecule::Molecule;
use emx_chem::screening::ScreenedPairs;
use emx_chem::shellpair::{PairBatchSet, ShellPair};
use emx_linalg::Matrix;
use std::time::{Duration, Instant};

/// splitmix64 — same no-dependency PRNG idiom as `emx-sched::rng`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random shell: l ∈ {0, 1, 2}, 1–3 primitives, center within a
/// ~2 a₀ box so no primitive pair is pruned away entirely. In this box
/// with these exponents the Boys argument stays in the tabulated range.
fn random_shell(rng: &mut Rng) -> Shell {
    let l = rng.pick(3);
    let nprim = 1 + rng.pick(3);
    let mut exps = Vec::new();
    let mut coefs = Vec::new();
    for _ in 0..nprim {
        exps.push(rng.uniform(0.15, 3.5));
        coefs.push(rng.uniform(0.2, 1.0) * if rng.pick(4) == 0 { -1.0 } else { 1.0 });
    }
    let center = [
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
    ];
    Shell::new(l, center, exps, coefs, 0)
}

/// A shell for the regimes the box never reaches: it sits on one of a
/// few sites (fewer sites than shells, so same-site quartets with `P =
/// Q` and `T = 0` exactly always occur), each primitive is diffuse or
/// tight (exponent 50–400, `T` in the thousands across an 8 a₀ gap),
/// and s/p contractions run to six primitives. Coefficients are
/// positive: sign folding is the box generator's job, and six terms of
/// mixed sign can cancel to 1e-5 of their size, where "relative to the
/// block" stops measuring the kernel.
fn regime_shell(rng: &mut Rng, sites: &[[f64; 3]]) -> Shell {
    let l = rng.pick(3);
    let nprim = if l < 2 {
        [1, 2, 3, 6][rng.pick(4)]
    } else {
        1 + rng.pick(2)
    };
    let mut exps = Vec::new();
    let mut coefs = Vec::new();
    for _ in 0..nprim {
        exps.push(if rng.pick(3) == 0 {
            rng.uniform(50.0, 400.0)
        } else {
            rng.uniform(0.15, 3.5)
        });
        coefs.push(rng.uniform(0.2, 1.0));
    }
    Shell::new(l, sites[rng.pick(sites.len())], exps, coefs, 0)
}

/// All unique non-empty pairs (a ≥ b), as the screened pair list builds
/// them.
fn unique_pairs(shells: &[Shell]) -> Vec<ShellPair> {
    let mut pairs = Vec::new();
    for a in 0..shells.len() {
        for b in 0..=a {
            let sp = ShellPair::build(a, &shells[a], b, &shells[b], 0);
            if !sp.prims.is_empty() {
                pairs.push(sp);
            }
        }
    }
    pairs
}

/// Every quartet of `shells`, batched against scalar. Returns the
/// batched kernel's counts.
fn assert_batched_matches_scalar(label: &str, shells: &[Shell]) -> KernelCounts {
    let pairs = unique_pairs(shells);
    let set = PairBatchSet::build(shells, &pairs);
    let all_kets: Vec<u32> = (0..pairs.len() as u32).collect();

    let mut scratch = EriScratch::new();
    let mut oracle = EriScratch::new();
    for bra in 0..pairs.len() {
        // Every bra sees the full ket list in one batched call.
        eri_bra_block_into(&mut scratch, &set, bra, &all_kets);
        for ket in 0..pairs.len() {
            let want = eri_quartet_into(&mut oracle, &pairs[bra], &pairs[ket], shells);
            let got = scratch.ket_block(ket);
            assert_eq!(
                got.len(),
                want.len(),
                "{label} bra {bra} ket {ket}: block size"
            );
            let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-12 * scale,
                    "{label} bra {bra} ket {ket} [{i}]: batched {g} vs scalar {w}"
                );
            }
        }
    }
    *scratch.counts()
}

#[test]
fn batched_kernel_matches_scalar_oracle_on_random_shells() {
    let mut rng = Rng(0x5eed_cafe);
    for round in 0..12 {
        let shells: Vec<Shell> = (0..4).map(|_| random_shell(&mut rng)).collect();
        assert_batched_matches_scalar(&format!("round {round}"), &shells);
    }
}

#[test]
fn batched_kernel_matches_scalar_oracle_in_every_boys_regime() {
    let mut rng = Rng(0x7a11_b075);
    let mut boys = [0u64; 3];
    for round in 0..12 {
        // Three sites: a neighbour 1–2.5 a₀ away (tabulated T) and a
        // distant one 8–10 a₀ away, off-axis half the time.
        let a = [0; 3].map(|_| rng.uniform(-1.0, 1.0));
        let axis = rng.pick(3);
        let (mut near, mut far) = (a, a);
        near[(axis + 2) % 3] += rng.uniform(1.0, 2.5);
        far[axis] += rng.uniform(8.0, 10.0);
        if round % 2 == 1 {
            far[(axis + 1) % 3] += rng.uniform(1.0, 3.0);
        }
        let sites = [a, near, far];
        let shells: Vec<Shell> = (0..4).map(|_| regime_shell(&mut rng, &sites)).collect();
        let counts = assert_batched_matches_scalar(&format!("regime round {round}"), &shells);
        for (total, n) in boys.iter_mut().zip(counts.boys) {
            *total += n;
        }
    }
    // The point of this generator: each regime is a real share.
    let all: u64 = boys.iter().sum();
    for (regime, n) in ["T < 1e-13", "tabulated", "T >= 36"].iter().zip(boys) {
        assert!(
            n * 20 >= all,
            "{regime}: only {n} of {all} primitive quartets"
        );
    }
}

#[test]
fn ket_blocks_are_independent_of_batch_composition() {
    // A quartet's block must be bit-identical whether its ket is
    // evaluated alone, in a prefix, or in the full list — this is what
    // keeps G bitwise-deterministic across task chunkings.
    let mut rng = Rng(0xabcd_0123);
    let shells: Vec<Shell> = (0..3).map(|_| random_shell(&mut rng)).collect();
    let pairs = unique_pairs(&shells);
    let set = PairBatchSet::build(&shells, &pairs);
    let all_kets: Vec<u32> = (0..pairs.len() as u32).collect();

    let mut full = EriScratch::new();
    let mut single = EriScratch::new();
    for bra in 0..pairs.len() {
        eri_bra_block_into(&mut full, &set, bra, &all_kets);
        for ket in 0..pairs.len() {
            eri_bra_block_into(&mut single, &set, bra, &all_kets[ket..ket + 1]);
            let a = full.ket_block(ket);
            let b = single.ket_block(0);
            assert_eq!(a, b, "bra {bra} ket {ket}: batch composition leaked");
        }
    }
}

#[test]
fn batched_fock_build_beats_the_scalar_oracle() {
    // `reproduce profile`'s workload and mock density: (H2O)2/6-31G,
    // pairs screened at 1e-12, tau = 1e-10, chunk 8.
    let bm = BasisedMolecule::assign(&Molecule::water_cluster(2, 42), BasisSet::SixThirtyOneG);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let fb = FockBuilder::new(&bm, &pairs, 1e-10);
    let tasks = fb.tasks(8);
    let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.2 / (1.0 + (i as f64 - j as f64).abs())
    });
    d.symmetrize();
    let mut scratch = fb.scratch();

    // One full build through either path; returns its wall and quartets.
    let mut build = |scalar: bool| {
        let mut g = Matrix::zeros(bm.nbf, bm.nbf);
        let start = Instant::now();
        let mut quartets = 0u64;
        for t in &tasks {
            quartets += if scalar {
                fb.execute_scalar(t, &d, &mut g, &mut scratch)
            } else {
                fb.execute(t, &d, &mut g, &mut scratch)
            };
        }
        (start.elapsed(), quartets)
    };

    // Warm-up grows the scratch and builds the Boys table; then the two
    // paths alternate, so a slow spell of the host hits both, and the
    // minimum of each is its unloaded speed.
    let (_, quartets) = build(false);
    assert_eq!(build(true).1, quartets, "both paths run the same quartets");
    let (mut batched, mut scalar) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        batched = batched.min(build(false).0);
        scalar = scalar.min(build(true).0);
    }
    let ratio = scalar.as_secs_f64() / batched.as_secs_f64();
    assert!(
        ratio >= 1.3,
        "batched build {batched:?} is only {ratio:.2}x the scalar oracle's {scalar:?} (floor 1.3x)"
    );
}
