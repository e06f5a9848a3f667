//! One-electron integrals: overlap, kinetic energy, nuclear attraction.
//!
//! All three are assembled shell-pair by shell-pair from the Hermite `E`
//! tables; nuclear attraction additionally contracts against the Hermite
//! Coulomb tensor `R` for every nucleus.

use crate::basis::BasisedMolecule;
use crate::md::{hermite_r, r_index};
use crate::shellpair::ShellPair;
use emx_linalg::Matrix;
use std::f64::consts::PI;

/// Computes the overlap matrix `S`.
pub fn overlap(bm: &BasisedMolecule) -> Matrix {
    build_pairwise(bm, |pair, block, ncb, carts_a, carts_b, norms| {
        for pp in &pair.prims {
            let pref = pp.coef * (PI / pp.p).powf(1.5);
            for (ia, &(ax, ay, az)) in carts_a.iter().enumerate() {
                for (ib, &(bx, by, bz)) in carts_b.iter().enumerate() {
                    let v = pp.ex.at(ax, bx, 0) * pp.ey.at(ay, by, 0) * pp.ez.at(az, bz, 0);
                    block[ia * ncb + ib] += pref * v * norms[ia * ncb + ib];
                }
            }
        }
    })
}

/// Computes the kinetic-energy matrix `T`.
pub fn kinetic(bm: &BasisedMolecule) -> Matrix {
    // The 1-D kinetic integral in terms of overlap-type coefficients:
    //   T_ij = -2b²·S_{i,j+2} + b(2j+1)·S_{ij} − ½ j(j−1)·S_{i,j−2}
    // where b is the *second* primitive's exponent; the shell-pair E
    // tables are built with extra_j = 2 to make S_{i,j+2} available.
    let shells = &bm.shells;
    let mut t = Matrix::zeros(bm.nbf, bm.nbf);
    for (a, sa) in shells.iter().enumerate() {
        for (b, sb) in shells.iter().enumerate().skip(a) {
            let pair = ShellPair::build(a, sa, b, sb, 2);
            let carts_a = sa.cartesians();
            let carts_b = sb.cartesians();
            let (oa, ob) = (bm.shell_offsets[a], bm.shell_offsets[b]);
            for pp in &pair.prims {
                let eb = pp.eb;
                let pref = pp.coef * (PI / pp.p).powf(1.5);
                // 1-D kinetic integral in overlap-type coefficients (the
                // E table was built with extra_j = 2 so j+2 is in range).
                let kin1d = |e: &crate::md::HermiteE, i: usize, j: usize| -> f64 {
                    let jj = j as f64;
                    let low = if j >= 2 { e.at(i, j - 2, 0) } else { 0.0 };
                    -2.0 * eb * eb * e.at(i, j + 2, 0) + eb * (2.0 * jj + 1.0) * e.at(i, j, 0)
                        - 0.5 * jj * (jj - 1.0) * low
                };
                for (ia, &ca) in carts_a.iter().enumerate() {
                    for (ib, &cb) in carts_b.iter().enumerate() {
                        let na = sa.component_norm(ca);
                        let nb = sb.component_norm(cb);
                        let (ax, ay, az) = ca;
                        let (bx, by, bz) = cb;
                        let sx = pp.ex.at(ax, bx, 0);
                        let sy = pp.ey.at(ay, by, 0);
                        let sz = pp.ez.at(az, bz, 0);
                        let v = kin1d(&pp.ex, ax, bx) * sy * sz
                            + sx * kin1d(&pp.ey, ay, by) * sz
                            + sx * sy * kin1d(&pp.ez, az, bz);
                        let val = pref * v * na * nb;
                        t[(oa + ia, ob + ib)] += val;
                        if a != b {
                            t[(ob + ib, oa + ia)] += val;
                        }
                    }
                }
            }
        }
    }
    t
}

/// Computes the nuclear-attraction matrix `V` (includes the −Z sign).
pub fn nuclear_attraction(bm: &BasisedMolecule) -> Matrix {
    build_pairwise(bm, |pair, block, ncb, carts_a, carts_b, norms| {
        let la = carts_a.first().map_or(0, |c| c.0 + c.1 + c.2);
        let lb = carts_b.first().map_or(0, |c| c.0 + c.1 + c.2);
        let l = la + lb;
        for pp in &pair.prims {
            let pref = pp.coef * 2.0 * PI / pp.p;
            for (charge, pos) in bm.charges.iter().zip(&bm.positions) {
                let r = hermite_r(
                    l,
                    pp.p,
                    pp.center[0] - pos[0],
                    pp.center[1] - pos[1],
                    pp.center[2] - pos[2],
                );
                for (ia, &(ax, ay, az)) in carts_a.iter().enumerate() {
                    for (ib, &(bx, by, bz)) in carts_b.iter().enumerate() {
                        let mut v = 0.0;
                        for t in 0..=(ax + bx) {
                            let etx = pp.ex.at(ax, bx, t);
                            if etx == 0.0 {
                                continue;
                            }
                            for u in 0..=(ay + by) {
                                let ety = pp.ey.at(ay, by, u);
                                if ety == 0.0 {
                                    continue;
                                }
                                for w in 0..=(az + bz) {
                                    let etz = pp.ez.at(az, bz, w);
                                    if etz == 0.0 {
                                        continue;
                                    }
                                    v += etx * ety * etz * r[r_index(l, t, u, w)];
                                }
                            }
                        }
                        block[ia * ncb + ib] += -charge * pref * v * norms[ia * ncb + ib];
                    }
                }
            }
        }
    })
}

/// Core Hamiltonian `H = T + V`.
pub fn core_hamiltonian(bm: &BasisedMolecule) -> Matrix {
    kinetic(bm)
        .add(&nuclear_attraction(bm))
        .expect("T and V shapes match")
}

/// Shared driver: loops over unique shell pairs, lets `fill` accumulate
/// the pair block, then scatters it (and its transpose) into the matrix.
fn build_pairwise(
    bm: &BasisedMolecule,
    fill: impl Fn(
        &ShellPair,
        &mut [f64],
        usize,
        &[(usize, usize, usize)],
        &[(usize, usize, usize)],
        &[f64],
    ),
) -> Matrix {
    let shells = &bm.shells;
    let mut m = Matrix::zeros(bm.nbf, bm.nbf);
    for (a, sa) in shells.iter().enumerate() {
        for (b, sb) in shells.iter().enumerate().skip(a) {
            let pair = ShellPair::build(a, sa, b, sb, 0);
            let carts_a = sa.cartesians();
            let carts_b = sb.cartesians();
            let (nca, ncb) = (carts_a.len(), carts_b.len());
            let mut norms = vec![0.0; nca * ncb];
            for (ia, &ca) in carts_a.iter().enumerate() {
                for (ib, &cb) in carts_b.iter().enumerate() {
                    norms[ia * ncb + ib] = sa.component_norm(ca) * sb.component_norm(cb);
                }
            }
            let mut block = vec![0.0; nca * ncb];
            fill(&pair, &mut block, ncb, carts_a, carts_b, &norms);
            let (oa, ob) = (bm.shell_offsets[a], bm.shell_offsets[b]);
            for ia in 0..nca {
                for ib in 0..ncb {
                    let v = block[ia * ncb + ib];
                    m[(oa + ia, ob + ib)] = v;
                    m[(ob + ib, oa + ia)] = v;
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, BasisedMolecule};
    use crate::molecule::Molecule;
    use emx_linalg::jacobi_eigen;

    fn water_sto3g() -> BasisedMolecule {
        BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g)
    }

    #[test]
    fn overlap_diagonal_is_one() {
        let s = overlap(&water_sto3g());
        for i in 0..s.rows() {
            assert!(
                (s[(i, i)] - 1.0).abs() < 1e-10,
                "S[{i}][{i}] = {}",
                s[(i, i)]
            );
        }
    }

    #[test]
    fn overlap_symmetric_positive_definite() {
        let s = overlap(&water_sto3g());
        assert!(s.is_symmetric(1e-12));
        let e = jacobi_eigen(&s, 1e-12, 100).unwrap();
        assert!(
            e.values.iter().all(|&v| v > 1e-6),
            "eigenvalues: {:?}",
            e.values
        );
    }

    #[test]
    fn overlap_bounded_by_one() {
        let s = overlap(&water_sto3g());
        for i in 0..s.rows() {
            for j in 0..s.cols() {
                assert!(s[(i, j)].abs() <= 1.0 + 1e-10);
            }
        }
    }

    #[test]
    fn h2_overlap_known_value() {
        // Szabo & Ostlund table 3.4: STO-3G H₂ at R = 1.4 a₀ has
        // S₁₂ ≈ 0.6593.
        let bm = BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g);
        let s = overlap(&bm);
        assert!((s[(0, 1)] - 0.6593).abs() < 5e-4, "S12 = {}", s[(0, 1)]);
    }

    #[test]
    fn h2_kinetic_known_values() {
        // Szabo & Ostlund: T₁₁ ≈ 0.7600, T₁₂ ≈ 0.2365.
        let bm = BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g);
        let t = kinetic(&bm);
        assert!((t[(0, 0)] - 0.7600).abs() < 5e-4, "T11 = {}", t[(0, 0)]);
        assert!((t[(0, 1)] - 0.2365).abs() < 5e-4, "T12 = {}", t[(0, 1)]);
    }

    #[test]
    fn h2_nuclear_attraction_known_values() {
        // Szabo & Ostlund: V₁₁ (both nuclei) ≈ −1.8804 for H₂/STO-3G.
        let bm = BasisedMolecule::assign(&Molecule::h2(1.4), BasisSet::Sto3g);
        let v = nuclear_attraction(&bm);
        assert!((v[(0, 0)] + 1.8804).abs() < 2e-3, "V11 = {}", v[(0, 0)]);
    }

    #[test]
    fn kinetic_positive_definite() {
        let t = kinetic(&water_sto3g());
        assert!(t.is_symmetric(1e-10));
        let e = jacobi_eigen(&t, 1e-12, 100).unwrap();
        assert!(e.values.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn nuclear_attraction_is_negative_definite() {
        let v = nuclear_attraction(&water_sto3g());
        assert!(v.is_symmetric(1e-10));
        let e = jacobi_eigen(&v, 1e-12, 100).unwrap();
        assert!(e.values.iter().all(|&x| x < 0.0));
    }

    #[test]
    fn translational_invariance() {
        let mut shifted = Molecule::water();
        for a in &mut shifted.atoms {
            a.position[0] += 3.7;
            a.position[1] -= 1.2;
            a.position[2] += 0.4;
        }
        let b0 = water_sto3g();
        let b1 = BasisedMolecule::assign(&shifted, BasisSet::Sto3g);
        assert!(overlap(&b0).max_abs_diff(&overlap(&b1)) < 1e-10);
        assert!(kinetic(&b0).max_abs_diff(&kinetic(&b1)) < 1e-10);
        assert!(nuclear_attraction(&b0).max_abs_diff(&nuclear_attraction(&b1)) < 1e-8);
    }

    #[test]
    fn d_shell_overlap_normalized_and_spd_consistent() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneGStar);
        let s = overlap(&bm);
        for i in 0..bm.nbf {
            assert!(
                (s[(i, i)] - 1.0).abs() < 1e-10,
                "S[{i}][{i}] = {}",
                s[(i, i)]
            );
        }
        assert!(s.is_symmetric(1e-12));
        let e = jacobi_eigen(&s, 1e-12, 200).unwrap();
        assert!(
            e.values.iter().all(|&v| v > 1e-8),
            "near-dependent basis: {:?}",
            e.values[0]
        );
        // Kinetic stays positive definite with d functions present.
        let t = kinetic(&bm);
        let et = jacobi_eigen(&t, 1e-12, 200).unwrap();
        assert!(et.values.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn p_shell_overlap_orthogonal_to_s_same_center() {
        // On one atom, ⟨s|p⟩ = 0 by symmetry.
        let bm = water_sto3g();
        let s = overlap(&bm);
        // O shells: 1s (bf 0), 2s (bf 1), 2p (bf 2..5).
        for p in 2..5 {
            assert!(s[(0, p)].abs() < 1e-12);
            assert!(s[(1, p)].abs() < 1e-12);
        }
    }
}
