//! Molecular geometries and workload generators.
//!
//! All coordinates are in **Bohr** (atomic units). The generators cover
//! the workload families the study sweeps over:
//!
//! * [`Molecule::water`] / [`Molecule::water_cluster`] — (H₂O)ₙ clusters,
//!   the canonical Hartree–Fock benchmark family;
//! * [`Molecule::alkane`] — linear CₙH₂ₙ₊₂ chains, elongated systems
//!   where Schwarz screening kills most far-apart quartets and makes the
//!   task-cost distribution extremely skewed;
//! * [`Molecule::benzene`] — the aromatic ring whose contracted sp shells
//!   make the Boys function and Hermite `R` tensor dominate.

use crate::basis::Element;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Conversion factor Ångström → Bohr.
pub const ANGSTROM: f64 = 1.889_726_124_626_18;

/// One atom: element plus position in Bohr.
#[derive(Debug, Clone, Copy)]
pub struct Atom {
    /// Chemical element.
    pub element: Element,
    /// Position in Bohr.
    pub position: [f64; 3],
}

/// A molecule: an ordered list of atoms.
#[derive(Debug, Clone, Default)]
pub struct Molecule {
    /// The atoms.
    pub atoms: Vec<Atom>,
}

impl Molecule {
    /// Empty molecule.
    pub fn new() -> Molecule {
        Molecule { atoms: Vec::new() }
    }

    /// Adds one atom (builder style).
    pub fn push(&mut self, element: Element, position: [f64; 3]) -> &mut Self {
        self.atoms.push(Atom { element, position });
        self
    }

    /// Number of atoms.
    pub fn natoms(&self) -> usize {
        self.atoms.len()
    }

    /// H₂ with the given bond length (Bohr).
    pub fn h2(r: f64) -> Molecule {
        let mut m = Molecule::new();
        m.push(Element::H, [0.0, 0.0, 0.0]);
        m.push(Element::H, [0.0, 0.0, r]);
        m
    }

    /// A single water molecule at the experimental equilibrium geometry
    /// (r(OH) = 0.9572 Å, ∠HOH = 104.52°), oxygen at the origin.
    pub fn water() -> Molecule {
        let r = 0.9572 * ANGSTROM;
        let half = (104.52f64 / 2.0).to_radians();
        let mut m = Molecule::new();
        m.push(Element::O, [0.0, 0.0, 0.0]);
        m.push(Element::H, [r * half.sin(), 0.0, r * half.cos()]);
        m.push(Element::H, [-r * half.sin(), 0.0, r * half.cos()]);
        m
    }

    /// A single water molecule at the RHF/STO-3G *optimized* geometry
    /// (r(OH) = 0.9894 Å, ∠HOH = 100.03°), oxygen at the origin.
    ///
    /// The often-quoted water/STO-3G reference energy of −74.9659 Ha is
    /// the minimum of the STO-3G surface, i.e. *this* geometry — at the
    /// experimental geometry of [`Molecule::water`] the same method
    /// gives −74.9629 Ha. Validation tables must pair each reference
    /// energy with the geometry it belongs to or they inherit a
    /// spurious ~3 mHa discrepancy.
    pub fn water_sto3g_opt() -> Molecule {
        let r = 0.9894 * ANGSTROM;
        let half = (100.03f64 / 2.0).to_radians();
        let mut m = Molecule::new();
        m.push(Element::O, [0.0, 0.0, 0.0]);
        m.push(Element::H, [r * half.sin(), 0.0, r * half.cos()]);
        m.push(Element::H, [-r * half.sin(), 0.0, r * half.cos()]);
        m
    }

    /// A cluster of `n` rigid water molecules placed on a cubic grid
    /// (3 Å spacing) with deterministic random jitter and orientation.
    ///
    /// The same `seed` always produces the same geometry, so workloads
    /// are reproducible across runs and machines.
    pub fn water_cluster(n: usize, seed: u64) -> Molecule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
        let monomer = Molecule::water();
        let spacing = 3.0 * ANGSTROM;
        let side = (n as f64).cbrt().ceil() as usize;
        let mut m = Molecule::new();
        let mut placed = 0;
        'outer: for gx in 0..side {
            for gy in 0..side {
                for gz in 0..side {
                    if placed == n {
                        break 'outer;
                    }
                    let mut jitter = || -> f64 { rng.random_range(-0.3..0.3) };
                    let origin = [
                        gx as f64 * spacing + jitter(),
                        gy as f64 * spacing + jitter(),
                        gz as f64 * spacing + jitter(),
                    ];
                    let rot = random_rotation(&mut rng);
                    for atom in &monomer.atoms {
                        let p = rotate(&rot, atom.position);
                        m.push(
                            atom.element,
                            [p[0] + origin[0], p[1] + origin[1], p[2] + origin[2]],
                        );
                    }
                    placed += 1;
                }
            }
        }
        m
    }

    /// A linear alkane CₙH₂ₙ₊₂ in an idealized all-anti zig-zag
    /// conformation (r(CC) = 1.54 Å, r(CH) = 1.09 Å, tetrahedral angles).
    ///
    /// For `n == 0` returns methane-free H₂ (degenerate case guarded in
    /// tests); `n == 1` gives methane.
    pub fn alkane(n: usize) -> Molecule {
        assert!(n >= 1, "alkane requires at least one carbon");
        let rcc = 1.54 * ANGSTROM;
        let rch = 1.09 * ANGSTROM;
        let half_tet = (109.471f64 / 2.0).to_radians();
        // Carbon backbone zig-zags in the xz plane.
        let dx = rcc * half_tet.sin();
        let dz = rcc * half_tet.cos();
        let mut m = Molecule::new();
        let carbon =
            |i: usize| -> [f64; 3] { [i as f64 * dx, 0.0, if i % 2 == 0 { 0.0 } else { dz }] };
        for i in 0..n {
            m.push(Element::C, carbon(i));
        }
        // Two H per interior carbon, pointing ±y with a z offset away
        // from the backbone; three on each terminal carbon (idealized).
        for i in 0..n {
            let c = carbon(i);
            let up = if i % 2 == 0 { -1.0 } else { 1.0 };
            let hy = rch * half_tet.sin();
            let hz = rch * half_tet.cos() * up;
            m.push(Element::H, [c[0], c[1] + hy, c[2] + hz]);
            m.push(Element::H, [c[0], c[1] - hy, c[2] + hz]);
            if i == 0 {
                m.push(
                    Element::H,
                    [c[0] - dx * (rch / rcc), c[1], c[2] + dz * (rch / rcc) * up],
                );
            }
            if i == n - 1 {
                m.push(
                    Element::H,
                    [c[0] + dx * (rch / rcc), c[1], c[2] + dz * (rch / rcc) * up],
                );
            }
        }
        if n == 1 {
            // Methane got 2 + 1 + 1 = 4 hydrogens from the rules above.
            debug_assert_eq!(m.natoms(), 5);
        }
        m
    }

    /// Benzene (C₆H₆): planar hexagon, r(CC) = 1.397 Å (= ring radius
    /// for a regular hexagon), r(CH) = 1.084 Å radially outward.
    pub fn benzene() -> Molecule {
        let rc = 1.397 * ANGSTROM;
        let rh = rc + 1.084 * ANGSTROM;
        let mut m = Molecule::new();
        for i in 0..6 {
            let a = i as f64 * std::f64::consts::TAU / 6.0;
            m.push(Element::C, [rc * a.cos(), rc * a.sin(), 0.0]);
        }
        for i in 0..6 {
            let a = i as f64 * std::f64::consts::TAU / 6.0;
            m.push(Element::H, [rh * a.cos(), rh * a.sin(), 0.0]);
        }
        m
    }
}

/// A 3×3 rotation matrix drawn uniformly-ish from random Euler angles.
/// (Exact uniformity over SO(3) is irrelevant here — we only need
/// deterministic variety.)
fn random_rotation(rng: &mut StdRng) -> [[f64; 3]; 3] {
    let (a, b, c) = (
        rng.random_range(0.0..std::f64::consts::TAU),
        rng.random_range(0.0..std::f64::consts::TAU),
        rng.random_range(0.0..std::f64::consts::TAU),
    );
    let (sa, ca) = a.sin_cos();
    let (sb, cb) = b.sin_cos();
    let (sc, cc) = c.sin_cos();
    // R = Rz(a) · Ry(b) · Rx(c)
    [
        [ca * cb, ca * sb * sc - sa * cc, ca * sb * cc + sa * sc],
        [sa * cb, sa * sb * sc + ca * cc, sa * sb * cc - ca * sc],
        [-sb, cb * sc, cb * cc],
    ]
}

fn rotate(r: &[[f64; 3]; 3], v: [f64; 3]) -> [f64; 3] {
    [
        r[0][0] * v[0] + r[0][1] * v[1] + r[0][2] * v[2],
        r[1][0] * v[0] + r[1][1] * v[1] + r[1][2] * v[2],
        r[2][0] * v[0] + r[2][1] * v[1] + r[2][2] * v[2],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
        (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
    }

    #[test]
    fn water_geometry() {
        let w = Molecule::water();
        assert_eq!(w.natoms(), 3);
        let r1 = dist2(w.atoms[0].position, w.atoms[1].position).sqrt();
        let r2 = dist2(w.atoms[0].position, w.atoms[2].position).sqrt();
        assert!((r1 - 0.9572 * ANGSTROM).abs() < 1e-10);
        assert!((r1 - r2).abs() < 1e-10);
    }

    #[test]
    fn water_cluster_counts_and_determinism() {
        let a = Molecule::water_cluster(4, 7);
        let b = Molecule::water_cluster(4, 7);
        let c = Molecule::water_cluster(4, 8);
        assert_eq!(a.natoms(), 12);
        for (x, y) in a.atoms.iter().zip(&b.atoms) {
            assert_eq!(x.position, y.position);
        }
        // Different seed gives a different geometry.
        assert!(a
            .atoms
            .iter()
            .zip(&c.atoms)
            .any(|(x, y)| x.position != y.position));
    }

    #[test]
    fn water_cluster_no_overlaps() {
        let m = Molecule::water_cluster(8, 3);
        for (i, a) in m.atoms.iter().enumerate() {
            for b in &m.atoms[i + 1..] {
                assert!(
                    dist2(a.position, b.position).sqrt() > 0.8,
                    "atoms too close"
                );
            }
        }
    }

    #[test]
    fn alkane_formula() {
        // CnH2n+2
        for n in 1..=6 {
            let m = Molecule::alkane(n);
            let nc = m.atoms.iter().filter(|a| a.element == Element::C).count();
            let nh = m.atoms.iter().filter(|a| a.element == Element::H).count();
            assert_eq!(nc, n);
            assert_eq!(nh, 2 * n + 2, "alkane({n})");
        }
    }

    #[test]
    fn alkane_is_elongated() {
        // The C₁–Cₙ distance grows with the chain.
        let ends = |n: usize| {
            let m = Molecule::alkane(n);
            dist2(m.atoms[0].position, m.atoms[n - 1].position).sqrt()
        };
        assert!(ends(10) > 3.0 * ends(2));
    }

    #[test]
    fn benzene_geometry() {
        let b = Molecule::benzene();
        assert_eq!(b.natoms(), 12);
        let nc = b.atoms.iter().filter(|a| a.element == Element::C).count();
        assert_eq!(nc, 6);
        // Every C–C bond is 1.397 Å (hexagon side = radius).
        let d01 = dist2(b.atoms[0].position, b.atoms[1].position).sqrt();
        assert!((d01 - 1.397 * ANGSTROM).abs() < 1e-10, "CC = {d01}");
        // Each H is 1.084 Å from its carbon.
        let dch = dist2(b.atoms[0].position, b.atoms[6].position).sqrt();
        assert!((dch - 1.084 * ANGSTROM).abs() < 1e-10, "CH = {dch}");
        // Planar.
        assert!(b.atoms.iter().all(|a| a.position[2] == 0.0));
    }
}
