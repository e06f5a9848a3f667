//! Two-electron repulsion integrals (ERIs) over shell quartets.
//!
//! The quartet `(AB|CD)` combines a *bra* shell pair and a *ket* shell
//! pair through the Hermite Coulomb tensor:
//!
//! ```text
//! (ab|cd) = 2π^{5/2}/(pq√(p+q)) Σ_{tuv} E^{ab}_{tuv} Σ_{τνφ} (−1)^{τ+ν+φ}
//!           E^{cd}_{τνφ} R_{t+τ, u+ν, v+φ}(pq/(p+q), P−Q)
//! ```
//!
//! This is the *only* compute kernel in the whole study's hot loop — the
//! Fock build spends >95 % of its time here, and the skew of its cost
//! across quartets (contraction depth × angular momentum × screening) is
//! precisely the load-imbalance source the paper investigates.

use crate::basis::{cartesian_components, Shell};
use crate::md::{hermite_r_into, r_index, RScratch};
use crate::shellpair::ShellPair;
use std::f64::consts::PI;

/// Reusable per-worker buffers for the ERI kernels: the scalar output
/// block, the Hermite/Boys scratch of [`RScratch`], and the batched
/// kernel's accumulators ([`crate::eribatch::BatchScratch`]). One
/// `EriScratch` lives in each worker's local state; after a warm-up
/// pass per angular-momentum class the hot loop performs zero heap
/// allocations (asserted by the counting-allocator guard in
/// `tests/alloc_guard.rs`).
#[derive(Debug, Clone, Default)]
pub struct EriScratch {
    pub(crate) block: Vec<f64>,
    pub(crate) r: RScratch,
    pub(crate) batch: crate::eribatch::BatchScratch,
    /// Surviving-ket staging list for the batched consumers (taken and
    /// restored around `eri_bra_block_into` calls).
    pub(crate) ket_buf: Vec<u32>,
}

impl EriScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> EriScratch {
        EriScratch::default()
    }

    /// Scratch pre-sized for shells up to angular momentum `l_shell`
    /// (so even the first quartet allocates nothing).
    pub fn for_max_shell_l(l_shell: usize) -> EriScratch {
        let ncart = (l_shell + 1) * (l_shell + 2) / 2;
        let mut s = EriScratch {
            block: Vec::with_capacity(ncart * ncart * ncart * ncart),
            ..EriScratch::default()
        };
        s.r.ensure(4 * l_shell);
        s.batch.warm(l_shell);
        s
    }

    /// Operation counts of every batched-kernel call made on this
    /// scratch since it was created.
    pub fn counts(&self) -> &crate::eribatch::KernelCounts {
        &self.batch.counts
    }

    /// Output block of ket `i` from the last
    /// [`crate::eribatch::eri_bra_block_into`] call on this scratch,
    /// laid out exactly like [`eri_quartet_into`]'s return.
    #[inline]
    pub fn ket_block(&self, i: usize) -> &[f64] {
        let (b, e) = (self.batch.offs[i], self.batch.offs[i + 1]);
        &self.batch.blocks[b..e]
    }
}

/// Computes the full Cartesian integral block for the quartet formed by
/// `bra` (shells a,b) and `ket` (shells c,d) into `scratch`, returning
/// the filled block.
///
/// The result is indexed `[((ia·ncb + ib)·ncc + ic)·ncd + id]`, with
/// per-component normalization corrections already applied. The slice
/// is valid until the next call on the same scratch; allocation-free
/// once the scratch has seen the quartet's angular-momentum class.
pub fn eri_quartet_into<'s>(
    scratch: &'s mut EriScratch,
    bra: &ShellPair,
    ket: &ShellPair,
    shells: &[Shell],
) -> &'s [f64] {
    let (sa, sb) = (&shells[bra.a], &shells[bra.b]);
    let (sc, sd) = (&shells[ket.a], &shells[ket.b]);
    let carts_a = cartesian_components(bra.la);
    let carts_b = cartesian_components(bra.lb);
    let carts_c = cartesian_components(ket.la);
    let carts_d = cartesian_components(ket.lb);
    let (nca, ncb, ncc, ncd) = (carts_a.len(), carts_b.len(), carts_c.len(), carts_d.len());
    let l_total = bra.la + bra.lb + ket.la + ket.lb;

    scratch.block.clear();
    scratch.block.resize(nca * ncb * ncc * ncd, 0.0);
    let out = &mut scratch.block;

    for bp in &bra.prims {
        for kp in &ket.prims {
            let p = bp.p;
            let q = kp.p;
            let alpha = p * q / (p + q);
            let pref = 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt()) * bp.coef * kp.coef;
            hermite_r_into(
                &mut scratch.r,
                l_total,
                alpha,
                bp.center[0] - kp.center[0],
                bp.center[1] - kp.center[1],
                bp.center[2] - kp.center[2],
            );
            let r = scratch.r.r();

            let mut o = 0;
            for &(ax, ay, az) in carts_a {
                for &(bx, by, bz) in carts_b {
                    for &(cx, cy, cz) in carts_c {
                        for &(dx, dy, dz) in carts_d {
                            let mut val = 0.0;
                            for t in 0..=(ax + bx) {
                                let ebx = bp.ex.at(ax, bx, t);
                                if ebx == 0.0 {
                                    continue;
                                }
                                for u in 0..=(ay + by) {
                                    let eby = bp.ey.at(ay, by, u);
                                    if eby == 0.0 {
                                        continue;
                                    }
                                    for v in 0..=(az + bz) {
                                        let ebz = bp.ez.at(az, bz, v);
                                        if ebz == 0.0 {
                                            continue;
                                        }
                                        let ebra = ebx * eby * ebz;
                                        for tau in 0..=(cx + dx) {
                                            let ekx = kp.ex.at(cx, dx, tau);
                                            if ekx == 0.0 {
                                                continue;
                                            }
                                            for nu in 0..=(cy + dy) {
                                                let eky = kp.ey.at(cy, dy, nu);
                                                if eky == 0.0 {
                                                    continue;
                                                }
                                                for phi in 0..=(cz + dz) {
                                                    let ekz = kp.ez.at(cz, dz, phi);
                                                    if ekz == 0.0 {
                                                        continue;
                                                    }
                                                    let sign = if (tau + nu + phi) % 2 == 0 {
                                                        1.0
                                                    } else {
                                                        -1.0
                                                    };
                                                    val += ebra
                                                        * sign
                                                        * ekx
                                                        * eky
                                                        * ekz
                                                        * r[r_index(
                                                            l_total,
                                                            t + tau,
                                                            u + nu,
                                                            v + phi,
                                                        )];
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            out[o] += pref * val;
                            o += 1;
                        }
                    }
                }
            }
        }
    }

    // Per-component normalization corrections (relative to (l,0,0)).
    let mut o = 0;
    for &ca in carts_a {
        let na = sa.component_norm(ca);
        for &cb in carts_b {
            let nb = sb.component_norm(cb);
            for &cc in carts_c {
                let nc = sc.component_norm(cc);
                for &cd in carts_d {
                    let nd = sd.component_norm(cd);
                    out[o] *= na * nb * nc * nd;
                    o += 1;
                }
            }
        }
    }
    out
}

/// Allocating convenience wrapper around [`eri_quartet_into`] for
/// reference paths (`g_matrix_reference`, `full_eri_tensor` setup) and
/// tests; the Fock/screening hot loops pass a long-lived scratch
/// instead.
pub fn eri_quartet(bra: &ShellPair, ket: &ShellPair, shells: &[Shell]) -> Vec<f64> {
    let mut scratch = EriScratch::new();
    eri_quartet_into(&mut scratch, bra, ket, shells);
    scratch.block
}

/// Maximum `|(ab|ab)|` over the components of the pair `sp` — the
/// Schwarz diagonal that `ScreenedPairs::build` needs — computed
/// without forming the full `ncart⁴` quartet block.
///
/// A diagonal entry fixes the ket component to the bra component, so
/// only `nca·ncb` values are accumulated and the component loops cost
/// `ncart²` instead of `ncart⁴` per primitive pair (for a d|d pair
/// that's 36 values instead of 1296). The result is identical to
/// `max |diag(eri_quartet(sp, sp))|` to the last bit: the arithmetic
/// per surviving entry is unchanged, the off-diagonal work is simply
/// never done.
pub fn eri_quartet_schwarz_max(scratch: &mut EriScratch, sp: &ShellPair, shells: &[Shell]) -> f64 {
    let (sa, sb) = (&shells[sp.a], &shells[sp.b]);
    let carts_a = cartesian_components(sp.la);
    let carts_b = cartesian_components(sp.lb);
    let (nca, ncb) = (carts_a.len(), carts_b.len());
    let l_total = 2 * (sp.la + sp.lb);

    scratch.block.clear();
    scratch.block.resize(nca * ncb, 0.0);
    let diag = &mut scratch.block;

    for bp in &sp.prims {
        for kp in &sp.prims {
            let p = bp.p;
            let q = kp.p;
            let alpha = p * q / (p + q);
            let pref = 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt()) * bp.coef * kp.coef;
            hermite_r_into(
                &mut scratch.r,
                l_total,
                alpha,
                bp.center[0] - kp.center[0],
                bp.center[1] - kp.center[1],
                bp.center[2] - kp.center[2],
            );
            let r = scratch.r.r();

            let mut o = 0;
            for &(ax, ay, az) in carts_a {
                for &(bx, by, bz) in carts_b {
                    // Ket component = bra component: (ab|ab).
                    let mut val = 0.0;
                    for t in 0..=(ax + bx) {
                        let ebx = bp.ex.at(ax, bx, t);
                        if ebx == 0.0 {
                            continue;
                        }
                        for u in 0..=(ay + by) {
                            let eby = bp.ey.at(ay, by, u);
                            if eby == 0.0 {
                                continue;
                            }
                            for v in 0..=(az + bz) {
                                let ebz = bp.ez.at(az, bz, v);
                                if ebz == 0.0 {
                                    continue;
                                }
                                let ebra = ebx * eby * ebz;
                                for tau in 0..=(ax + bx) {
                                    let ekx = kp.ex.at(ax, bx, tau);
                                    if ekx == 0.0 {
                                        continue;
                                    }
                                    for nu in 0..=(ay + by) {
                                        let eky = kp.ey.at(ay, by, nu);
                                        if eky == 0.0 {
                                            continue;
                                        }
                                        for phi in 0..=(az + bz) {
                                            let ekz = kp.ez.at(az, bz, phi);
                                            if ekz == 0.0 {
                                                continue;
                                            }
                                            let sign =
                                                if (tau + nu + phi) % 2 == 0 { 1.0 } else { -1.0 };
                                            val += ebra
                                                * sign
                                                * ekx
                                                * eky
                                                * ekz
                                                * r[r_index(l_total, t + tau, u + nu, v + phi)];
                                        }
                                    }
                                }
                            }
                        }
                    }
                    diag[o] += pref * val;
                    o += 1;
                }
            }
        }
    }

    let mut maxv = 0.0f64;
    let mut o = 0;
    for &ca in carts_a {
        let na = sa.component_norm(ca);
        for &cb in carts_b {
            let nb = sb.component_norm(cb);
            // Same association as the full-block correction
            // (((na·nb)·nc)·nd with c=a, d=b) so the result is
            // bit-identical to the full quartet's diagonal.
            let nfac = na * nb * na * nb;
            maxv = maxv.max((diag[o] * nfac).abs());
            o += 1;
        }
    }
    maxv
}

/// Estimated floating-point work of one quartet under the batched
/// kernel ([`crate::eribatch::eri_bra_block_into`]), in FMA-ish units.
/// Used by the inspector pass and the static cost-model balancers.
///
/// Mirrors the kernel's two-stage shape: per primitive *pair*, the `R`
/// recurrence (`Σ_n` tetrahedra ≈ the 4-simplex count) plus the stage-1
/// gather and ket contraction (`nh_bra·nh_ket·(1 + ncomp_ket)`); per
/// *bra* primitive, one stage-2 `nh_bra·ncomp_bra·ncomp_ket` product —
/// the bra-side contraction is amortized over the ket contraction
/// depth, which is exactly why deep ket contractions are relatively
/// cheaper than the old `P_b·P_k·ncomp⁴`-style model claimed.
pub fn quartet_cost_estimate(bra: &ShellPair, ket: &ShellPair) -> u64 {
    let ncart = |l: usize| (l + 1) * (l + 2) / 2;
    let tetra = |l: usize| (l + 1) * (l + 2) * (l + 3) / 6;
    let ncomp_bra = (ncart(bra.la) * ncart(bra.lb)) as u64;
    let ncomp_ket = (ncart(ket.la) * ncart(ket.lb)) as u64;
    let nh_bra = tetra(bra.la + bra.lb) as u64;
    let nh_ket = tetra(ket.la + ket.lb) as u64;
    let l = bra.la + bra.lb + ket.la + ket.lb;
    // Building R_{tuv} writes one simplex per auxiliary level: the
    // 4-simplex number (l+1)(l+2)(l+3)(l+4)/24.
    let r_cost = (tetra(l) * (l + 4) / 4) as u64;
    let pb = bra.prims.len() as u64;
    let pk = ket.prims.len() as u64;
    pb * pk * (r_cost + nh_bra * nh_ket * (1 + ncomp_ket)) + pb * nh_bra * ncomp_bra * ncomp_ket
}

/// The pre-scratch allocating kernel, kept verbatim as the oracle the
/// equivalence tests (here and in `fock.rs`) replay against the
/// scratch-buffer path: per-quartet output `Vec`, per-primitive-pair
/// `hermite_r` allocation. Test-only — the production path is
/// [`eri_quartet_into`].
#[cfg(test)]
pub(crate) fn eri_quartet_alloc_reference(
    bra: &ShellPair,
    ket: &ShellPair,
    shells: &[Shell],
) -> Vec<f64> {
    use crate::md::hermite_r;
    let (sa, sb) = (&shells[bra.a], &shells[bra.b]);
    let (sc, sd) = (&shells[ket.a], &shells[ket.b]);
    let carts_a = cartesian_components(bra.la);
    let carts_b = cartesian_components(bra.lb);
    let carts_c = cartesian_components(ket.la);
    let carts_d = cartesian_components(ket.lb);
    let (nca, ncb, ncc, ncd) = (carts_a.len(), carts_b.len(), carts_c.len(), carts_d.len());
    let l_total = bra.la + bra.lb + ket.la + ket.lb;

    let mut out = vec![0.0; nca * ncb * ncc * ncd];

    for bp in &bra.prims {
        for kp in &ket.prims {
            let p = bp.p;
            let q = kp.p;
            let alpha = p * q / (p + q);
            let pref = 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt()) * bp.coef * kp.coef;
            let r = hermite_r(
                l_total,
                alpha,
                bp.center[0] - kp.center[0],
                bp.center[1] - kp.center[1],
                bp.center[2] - kp.center[2],
            );

            let mut o = 0;
            for &(ax, ay, az) in carts_a {
                for &(bx, by, bz) in carts_b {
                    for &(cx, cy, cz) in carts_c {
                        for &(dx, dy, dz) in carts_d {
                            let mut val = 0.0;
                            for t in 0..=(ax + bx) {
                                let ebx = bp.ex.at(ax, bx, t);
                                if ebx == 0.0 {
                                    continue;
                                }
                                for u in 0..=(ay + by) {
                                    let eby = bp.ey.at(ay, by, u);
                                    if eby == 0.0 {
                                        continue;
                                    }
                                    for v in 0..=(az + bz) {
                                        let ebz = bp.ez.at(az, bz, v);
                                        if ebz == 0.0 {
                                            continue;
                                        }
                                        let ebra = ebx * eby * ebz;
                                        for tau in 0..=(cx + dx) {
                                            let ekx = kp.ex.at(cx, dx, tau);
                                            if ekx == 0.0 {
                                                continue;
                                            }
                                            for nu in 0..=(cy + dy) {
                                                let eky = kp.ey.at(cy, dy, nu);
                                                if eky == 0.0 {
                                                    continue;
                                                }
                                                for phi in 0..=(cz + dz) {
                                                    let ekz = kp.ez.at(cz, dz, phi);
                                                    if ekz == 0.0 {
                                                        continue;
                                                    }
                                                    let sign = if (tau + nu + phi) % 2 == 0 {
                                                        1.0
                                                    } else {
                                                        -1.0
                                                    };
                                                    val += ebra
                                                        * sign
                                                        * ekx
                                                        * eky
                                                        * ekz
                                                        * r[r_index(
                                                            l_total,
                                                            t + tau,
                                                            u + nu,
                                                            v + phi,
                                                        )];
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            out[o] += pref * val;
                            o += 1;
                        }
                    }
                }
            }
        }
    }

    let mut o = 0;
    for &ca in carts_a {
        let na = sa.component_norm(ca);
        for &cb in carts_b {
            let nb = sb.component_norm(cb);
            for &cc in carts_c {
                let nc = sc.component_norm(cc);
                for &cd in carts_d {
                    let nd = sd.component_norm(cd);
                    out[o] *= na * nb * nc * nd;
                    o += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::Shell;

    fn s_shell(center: [f64; 3], exps: Vec<f64>, coefs: Vec<f64>) -> Shell {
        Shell::new(0, center, exps, coefs, 0)
    }

    fn p_shell(center: [f64; 3], exps: Vec<f64>, coefs: Vec<f64>) -> Shell {
        Shell::new(1, center, exps, coefs, 0)
    }

    /// (ss|ss) for single normalized primitives has the closed form
    ///   N⁴ · 2π^{5/2}/(pq√(p+q)) · F₀(α|P−Q|²).
    #[test]
    fn ssss_closed_form_same_center() {
        let a = 0.9;
        let sh = s_shell([0.0; 3], vec![a], vec![1.0]);
        let shells = vec![sh.clone(), sh.clone(), sh.clone(), sh];
        let bra = ShellPair::build(0, &shells[0], 1, &shells[1], 0);
        let ket = ShellPair::build(2, &shells[2], 3, &shells[3], 0);
        let v = eri_quartet(&bra, &ket, &shells)[0];
        let n = (2.0 * a / PI).powf(0.75);
        let p = 2.0 * a;
        let expected = n.powi(4) * 2.0 * PI.powf(2.5) / (p * p * (2.0 * p).sqrt());
        assert!((v - expected).abs() < 1e-12, "{v} vs {expected}");
    }

    #[test]
    fn eri_8fold_symmetry() {
        // Three distinct s shells: check (ab|cd) = (ba|cd) = (ab|dc) = (cd|ab).
        let s1 = s_shell([0.0; 3], vec![1.1, 0.3], vec![0.7, 0.4]);
        let s2 = s_shell([0.0, 0.9, 0.2], vec![0.8], vec![1.0]);
        let s3 = s_shell([0.5, -0.3, 1.0], vec![0.5, 2.0], vec![0.5, 0.5]);
        let shells = vec![s1, s2, s3];
        let pair = |x: usize, y: usize| ShellPair::build(x, &shells[x], y, &shells[y], 0);

        let abcd = eri_quartet(&pair(0, 1), &pair(1, 2), &shells)[0];
        let bacd = eri_quartet(&pair(1, 0), &pair(1, 2), &shells)[0];
        let abdc = eri_quartet(&pair(0, 1), &pair(2, 1), &shells)[0];
        let cdab = eri_quartet(&pair(1, 2), &pair(0, 1), &shells)[0];
        assert!((abcd - bacd).abs() < 1e-13);
        assert!((abcd - abdc).abs() < 1e-13);
        assert!((abcd - cdab).abs() < 1e-13);
    }

    #[test]
    fn eri_positivity_of_diagonal() {
        // (ab|ab) ≥ 0 — it is a Coulomb self-energy.
        let s1 = s_shell([0.0; 3], vec![1.3], vec![1.0]);
        let s2 = p_shell([0.0, 0.0, 1.1], vec![0.7], vec![1.0]);
        let shells = vec![s1, s2];
        let bra = ShellPair::build(0, &shells[0], 1, &shells[1], 0);
        let block = eri_quartet(&bra, &bra, &shells);
        // Diagonal elements (ab|ab) of the 1×3×1×3 block: positions
        // (0,ib,0,ib).
        for ib in 0..3 {
            let v = block[ib * 3 + ib];
            assert!(v >= -1e-14, "diagonal ERI negative: {v}");
        }
    }

    #[test]
    fn h2_style_two_center_value() {
        // Szabo & Ostlund appendix: for STO-3G H₂ at 1.4 a₀,
        // (11|11) ≈ 0.7746 and (11|22) ≈ 0.5697.
        use crate::basis::{BasisSet, BasisedMolecule};
        use crate::molecule::Molecule;
        let bm = BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g);
        let pair = |x: usize, y: usize| ShellPair::build(x, &bm.shells[x], y, &bm.shells[y], 0);
        let v1111 = eri_quartet(&pair(0, 0), &pair(0, 0), &bm.shells)[0];
        let v1122 = eri_quartet(&pair(0, 0), &pair(1, 1), &bm.shells)[0];
        let v1212 = eri_quartet(&pair(0, 1), &pair(0, 1), &bm.shells)[0];
        assert!((v1111 - 0.7746).abs() < 5e-4, "(11|11) = {v1111}");
        assert!((v1122 - 0.5697).abs() < 5e-4, "(11|22) = {v1122}");
        // (12|12) ≈ 0.2970 in the same table.
        assert!((v1212 - 0.2970).abs() < 5e-4, "(12|12) = {v1212}");
    }

    #[test]
    fn p_quartet_block_size() {
        let s1 = p_shell([0.0; 3], vec![1.0], vec![1.0]);
        let shells = vec![s1.clone(), s1.clone(), s1.clone(), s1];
        let bra = ShellPair::build(0, &shells[0], 1, &shells[1], 0);
        let ket = ShellPair::build(2, &shells[2], 3, &shells[3], 0);
        assert_eq!(eri_quartet(&bra, &ket, &shells).len(), 81);
    }

    #[test]
    fn d_quartet_symmetry_and_schwarz() {
        // A d shell and an s shell off-center: the full 8-fold
        // permutational symmetry and the Schwarz bound must hold with
        // l = 2 machinery engaged.
        let d = Shell::new(2, [0.0; 3], vec![0.8], vec![1.0], 0);
        let s = s_shell([0.4, -0.2, 0.9], vec![1.1], vec![1.0]);
        let shells = vec![d, s];
        let pair = |x: usize, y: usize| ShellPair::build(x, &shells[x], y, &shells[y], 0);

        let dsds = eri_quartet(&pair(0, 1), &pair(0, 1), &shells);
        let sdds = eri_quartet(&pair(1, 0), &pair(0, 1), &shells);
        // (ds|ds) vs (sd|ds): block layouts differ; compare elementwise
        // through the index permutation (a,b,c,d) → (b,a,c,d).
        for ia in 0..6 {
            for ic in 0..6 {
                let v1 = dsds[ia * 6 + ic];
                let v2 = sdds[ia * 6 + ic]; // (1×6×6×1) block
                assert!((v1 - v2).abs() < 1e-12, "({ia},{ic}): {v1} vs {v2}");
            }
        }
        // Schwarz: |(ds|ds)| diagonal entries are the bound roots.
        let dd = eri_quartet(&pair(0, 0), &pair(0, 0), &shells);
        let ss = eri_quartet(&pair(1, 1), &pair(1, 1), &shells);
        let qd = dd.iter().fold(0.0f64, |m, v| m.max(v.abs())).sqrt();
        let qs = ss.iter().fold(0.0f64, |m, v| m.max(v.abs())).sqrt();
        let maxv = dsds.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // |(ds|ds)| ≤ Q_ds² ≤ … but also the generic cross bound holds:
        assert!(
            maxv <= qd * qs * (1.0 + 1e-8) + 1e-14,
            "{maxv} vs {}",
            qd * qs
        );
    }

    #[test]
    fn d_diagonal_quartets_positive() {
        let d = Shell::new(2, [0.1, 0.2, -0.3], vec![0.9, 0.4], vec![0.6, 0.4], 0);
        let shells = vec![d];
        let pair = ShellPair::build(0, &shells[0], 0, &shells[0], 0);
        let block = eri_quartet(&pair, &pair, &shells);
        // (ab|ab) diagonals of the 6×6×6×6 block.
        for a in 0..6 {
            for b in 0..6 {
                let idx = ((a * 6 + b) * 6 + a) * 6 + b;
                assert!(block[idx] >= -1e-12, "negative diagonal at ({a},{b})");
            }
        }
    }

    #[test]
    fn scratch_path_matches_alloc_reference() {
        // The scratch kernel vs the preserved pre-rework kernel, with
        // scratch reuse across quartets of different shapes (s, p, d,
        // contracted, off-center) so stale-buffer leaks would show.
        let shells = vec![
            s_shell([0.0; 3], vec![1.1, 0.3], vec![0.7, 0.4]),
            p_shell([0.0, 0.9, 0.2], vec![0.8], vec![1.0]),
            Shell::new(2, [0.5, -0.3, 1.0], vec![0.9, 0.4], vec![0.6, 0.4], 0),
        ];
        let pair = |x: usize, y: usize| ShellPair::build(x, &shells[x], y, &shells[y], 0);
        let mut scratch = EriScratch::new();
        for (b, k) in [(2, 2), (0, 0), (0, 1), (1, 2), (2, 0), (1, 1)] {
            let bra = pair(0, b);
            let ket = pair(k, 1);
            let reference = eri_quartet_alloc_reference(&bra, &ket, &shells);
            let block = eri_quartet_into(&mut scratch, &bra, &ket, &shells);
            assert_eq!(block.len(), reference.len(), "bra {b} ket {k}");
            for (i, (&s, &r)) in block.iter().zip(&reference).enumerate() {
                assert!(
                    (s - r).abs() < 1e-12 * (1.0 + r.abs()),
                    "bra {b} ket {k} [{i}]: {s} vs {r}"
                );
            }
        }
    }

    #[test]
    fn schwarz_diagonal_matches_full_block() {
        // Diagonal-only kernel vs max |diag| of the full quartet, for
        // every pair class the bases produce (s|s, s|p, p|p, d|s, d|d,
        // contracted, off-center).
        let shells = vec![
            s_shell([0.0; 3], vec![1.1, 0.3], vec![0.7, 0.4]),
            p_shell([0.3, -0.9, 0.2], vec![0.8, 2.1], vec![0.6, 0.5]),
            Shell::new(2, [0.5, -0.3, 1.0], vec![0.9, 0.4], vec![0.6, 0.4], 0),
        ];
        let mut scratch = EriScratch::new();
        for a in 0..shells.len() {
            for b in 0..shells.len() {
                let sp = ShellPair::build(a, &shells[a], b, &shells[b], 0);
                let block = eri_quartet(&sp, &sp, &shells);
                let nca = cartesian_components(sp.la).len();
                let ncb = cartesian_components(sp.lb).len();
                let mut expected = 0.0f64;
                for ia in 0..nca {
                    for ib in 0..ncb {
                        let idx = ((ia * ncb + ib) * nca + ia) * ncb + ib;
                        expected = expected.max(block[idx].abs());
                    }
                }
                let got = eri_quartet_schwarz_max(&mut scratch, &sp, &shells);
                assert!(
                    (got - expected).abs() <= 1e-15 * (1.0 + expected),
                    "pair ({a},{b}): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn cost_estimate_orders_sensibly() {
        let tight = s_shell([0.0; 3], vec![1.0], vec![1.0]);
        let deep = s_shell([0.0; 3], vec![3.4, 0.6, 0.2], vec![0.2, 0.5, 0.3]);
        let pshell = p_shell([0.0; 3], vec![1.0], vec![1.0]);
        let shells = [tight, deep, pshell];
        let pair = |x: usize, y: usize| ShellPair::build(x, &shells[x], y, &shells[y], 0);
        let cheap = quartet_cost_estimate(&pair(0, 0), &pair(0, 0));
        let contracted = quartet_cost_estimate(&pair(1, 1), &pair(1, 1));
        let angular = quartet_cost_estimate(&pair(2, 2), &pair(2, 2));
        assert!(contracted > cheap, "deep contraction must cost more");
        assert!(angular > cheap, "higher angular momentum must cost more");
    }
}
