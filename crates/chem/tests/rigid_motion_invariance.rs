//! The SCF energy does not depend on where the molecule sits or how it
//! is turned — and the benchmark relies on it: every seed other than
//! the default rigidly moves the molecule and still checks the pinned
//! energy. Library geometries are axis-aligned (benzene lies in a
//! coordinate plane, water on an axis), so a kernel that is only right
//! for axis-aligned displacements would pass every other test here and
//! fail in the pipeline; this makes it fail in `cargo test`.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::scf::{rhf, ScfConfig};

/// splitmix64, as in `eri_batch_equivalence.rs`.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A uniformly random rotation (Shoemake's quaternion) followed by a
/// shift of up to 1 bohr per axis — the motion the benchmark's seeds
/// apply.
fn moved(mol: &Molecule, rng: &mut Rng) -> Molecule {
    let (u1, u2, u3) = (rng.unit(), rng.unit(), rng.unit());
    let (a, b) = ((1.0 - u1).sqrt(), u1.sqrt());
    let (t2, t3) = (std::f64::consts::TAU * u2, std::f64::consts::TAU * u3);
    let (x, y, z, w) = (a * t2.sin(), a * t2.cos(), b * t3.sin(), b * t3.cos());
    let rot = [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - z * w),
            2.0 * (x * z + y * w),
        ],
        [
            2.0 * (x * y + z * w),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - x * w),
        ],
        [
            2.0 * (x * z - y * w),
            2.0 * (y * z + x * w),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ];
    let shift = [0; 3].map(|_| 2.0 * rng.unit() - 1.0);
    let mut out = mol.clone();
    for atom in &mut out.atoms {
        let p = atom.position;
        atom.position =
            [0, 1, 2].map(|i| rot[i][0] * p[0] + rot[i][1] * p[1] + rot[i][2] * p[2] + shift[i]);
    }
    out
}

/// Asserts the converged energy moves by < 1e-9 under one random rigid
/// motion; returns the energy at home.
fn assert_invariant(name: &str, mol: Molecule, basis: BasisSet, seed: u64) -> f64 {
    let cfg = ScfConfig::default();
    let home = rhf(&BasisedMolecule::assign(&mol, basis), &cfg);
    let away = rhf(
        &BasisedMolecule::assign(&moved(&mol, &mut Rng(seed)), basis),
        &cfg,
    );
    assert!(home.converged && away.converged, "{name}: SCF converged");
    assert!(
        (home.energy - away.energy).abs() < 1e-9,
        "{name}: {} at home, {} moved",
        home.energy,
        away.energy
    );
    home.energy
}

#[test]
fn benzene_sto3g_energy_is_invariant_under_rigid_motion() {
    let e = assert_invariant(
        "benzene/STO-3G",
        Molecule::benzene(),
        BasisSet::Sto3g,
        0x0dd_ba11,
    );
    // The seventh `reproduce validate` row, at its tolerance.
    assert!((e + 227.8906).abs() < 6e-5, "benzene/STO-3G: {e}");
}

#[test]
fn water_trimer_631g_energy_is_invariant_under_rigid_motion() {
    assert_invariant(
        "(H2O)3/6-31G",
        Molecule::water_cluster(3, 42),
        BasisSet::SixThirtyOneG,
        0x5eed_0003,
    );
}
