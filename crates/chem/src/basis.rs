//! Contracted Gaussian basis shells and built-in basis sets.
//!
//! A *shell* is a set of contracted Cartesian Gaussian functions sharing
//! one center, one angular momentum `l` and one set of primitive
//! exponents. An `l`-shell spans `(l+1)(l+2)/2` Cartesian components
//! (`s`: 1, `p`: 3, `d`: 6, …).
//!
//! Two standard basis sets are built in, transcribed from the standard
//! tables (Basis Set Exchange): **STO-3G** and **6-31G**, each for
//! H, C, N and O — ample for the water-cluster and alkane workloads this
//! study uses. SP-type shells from the tables are expanded into separate
//! `s` and `p` shells sharing exponents.
//!
//! ## Normalization
//!
//! Primitive coefficients are stored pre-multiplied by the primitive
//! normalization constant of the `(l,0,0)` component, and the contraction
//! is scaled so that the contracted `(l,0,0)` function has unit
//! self-overlap. The remaining per-component correction
//! `√((2l−1)!! / ((2i−1)!!(2j−1)!!(2k−1)!!))` is exposed via
//! [`Shell::component_norm`] and applied by the integral kernels.

use crate::molecule::Molecule;

/// Chemical elements supported by the built-in basis sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    /// Hydrogen (Z = 1)
    H,
    /// Carbon (Z = 6)
    C,
    /// Nitrogen (Z = 7)
    N,
    /// Oxygen (Z = 8)
    O,
}

impl Element {
    /// Nuclear charge.
    pub fn charge(self) -> f64 {
        match self {
            Element::H => 1.0,
            Element::C => 6.0,
            Element::N => 7.0,
            Element::O => 8.0,
        }
    }
}

/// Identifier of a built-in basis set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasisSet {
    /// Minimal STO-3G basis (each AO is 3 contracted primitives).
    Sto3g,
    /// Split-valence 6-31G basis.
    SixThirtyOneG,
    /// 6-31G* — 6-31G plus a Cartesian (6-component) d polarization
    /// shell on heavy atoms. The d quartets are 10–100× more expensive
    /// than s/p ones, widening the task-cost skew the study depends on.
    SixThirtyOneGStar,
}

impl BasisSet {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BasisSet::Sto3g => "STO-3G",
            BasisSet::SixThirtyOneG => "6-31G",
            BasisSet::SixThirtyOneGStar => "6-31G*",
        }
    }
}

/// One contracted Cartesian Gaussian shell placed on an atom.
#[derive(Debug, Clone)]
pub struct Shell {
    /// Angular momentum (0 = s, 1 = p, 2 = d, …).
    pub l: usize,
    /// Center in Bohr.
    pub center: [f64; 3],
    /// Primitive exponents.
    pub exps: Vec<f64>,
    /// Contraction coefficients, pre-normalized (see module docs).
    pub coefs: Vec<f64>,
    /// Index of the owning atom in the molecule.
    pub atom: usize,
}

/// Double factorial `(2n-1)!!` with `(-1)!! = 1`.
fn odd_double_factorial(n: usize) -> f64 {
    // (2n-1)!! = 1·3·5·…·(2n-1)
    (0..n).fold(1.0, |acc, k| acc * (2 * k + 1) as f64)
}

impl Shell {
    /// Builds a shell and normalizes its contraction (see module docs).
    pub fn new(l: usize, center: [f64; 3], exps: Vec<f64>, coefs: Vec<f64>, atom: usize) -> Shell {
        assert_eq!(exps.len(), coefs.len(), "exps/coefs length mismatch");
        assert!(!exps.is_empty(), "shell needs at least one primitive");
        let mut shell = Shell {
            l,
            center,
            exps,
            coefs,
            atom,
        };
        shell.normalize();
        shell
    }

    /// Number of Cartesian components of this shell.
    #[inline]
    pub fn ncart(&self) -> usize {
        (self.l + 1) * (self.l + 2) / 2
    }

    /// Number of primitives in the contraction.
    #[inline]
    pub fn nprim(&self) -> usize {
        self.exps.len()
    }

    /// Cartesian component exponent triples `(i, j, k)` with
    /// `i + j + k = l`, in the conventional lexicographic order
    /// (x-major): s → `(0,0,0)`; p → x, y, z; d → xx, xy, xz, yy, yz, zz.
    pub fn cartesians(&self) -> &'static [(usize, usize, usize)] {
        cartesian_components(self.l)
    }

    /// Per-component normalization correction relative to the `(l,0,0)`
    /// component: `√((2l−1)!! / ((2i−1)!!(2j−1)!!(2k−1)!!))`.
    pub fn component_norm(&self, (i, j, k): (usize, usize, usize)) -> f64 {
        debug_assert_eq!(i + j + k, self.l);
        (odd_double_factorial(self.l)
            / (odd_double_factorial(i) * odd_double_factorial(j) * odd_double_factorial(k)))
        .sqrt()
    }

    /// Squared distance to another shell's center.
    pub fn dist2(&self, other: &Shell) -> f64 {
        let dx = self.center[0] - other.center[0];
        let dy = self.center[1] - other.center[1];
        let dz = self.center[2] - other.center[2];
        dx * dx + dy * dy + dz * dz
    }

    /// Normalizes primitives for the `(l,0,0)` component and scales the
    /// contraction so the contracted `(l,0,0)` function has unit norm.
    fn normalize(&mut self) {
        let l = self.l as f64;
        let dfl = odd_double_factorial(self.l);
        // Primitive normalization for (l,0,0):
        //   N(α) = (2α/π)^{3/4} (4α)^{l/2} / √((2l−1)!!)
        for (c, &a) in self.coefs.iter_mut().zip(&self.exps) {
            let n =
                (2.0 * a / std::f64::consts::PI).powf(0.75) * (4.0 * a).powf(l / 2.0) / dfl.sqrt();
            *c *= n;
        }
        // Contraction normalization: ⟨(l00)|(l00)⟩ = Σ_pq c_p c_q S_pq
        // with the primitive self-overlap
        //   S_pq = (π/(α_p+α_q))^{3/2} (2l−1)!! / (2(α_p+α_q))^{l} … for
        // same-center primitives; using the closed form below.
        let mut s = 0.0;
        for (p, (&cp, &ap)) in self.coefs.iter().zip(&self.exps).enumerate() {
            for (q, (&cq, &aq)) in self.coefs.iter().zip(&self.exps).enumerate() {
                let _ = (p, q);
                let pab = ap + aq;
                let overlap = (std::f64::consts::PI / pab).powf(1.5) * dfl / (2.0 * pab).powf(l);
                s += cp * cq * overlap;
            }
        }
        let scale = 1.0 / s.sqrt();
        for c in &mut self.coefs {
            *c *= scale;
        }
    }
}

/// Cartesian component triples for angular momentum `l` in x-major order.
///
/// Returns a process-global precomputed slice: this sits inside the
/// quartet hot loop (four calls per ERI block and four more per
/// scatter), so it must not allocate per call — the `alloc_guard`
/// integration test enforces that.
pub fn cartesian_components(l: usize) -> &'static [(usize, usize, usize)] {
    use std::sync::OnceLock;
    // Far above any basis this study uses (s..d); the table costs a few
    // hundred bytes once per process.
    const L_MAX: usize = 8;
    static TABLES: OnceLock<Vec<Vec<(usize, usize, usize)>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        (0..=L_MAX)
            .map(|l| {
                let mut out = Vec::with_capacity((l + 1) * (l + 2) / 2);
                for i in (0..=l).rev() {
                    for j in (0..=(l - i)).rev() {
                        out.push((i, j, l - i - j));
                    }
                }
                out
            })
            .collect()
    });
    &tables[l]
}

/// A molecule expanded in a basis: the flat list of shells plus the
/// mapping from shells to basis-function offsets.
#[derive(Debug, Clone)]
pub struct BasisedMolecule {
    /// All shells, ordered by atom then by shell within the element.
    pub shells: Vec<Shell>,
    /// First basis-function index of each shell.
    pub shell_offsets: Vec<usize>,
    /// Total number of (Cartesian) basis functions.
    pub nbf: usize,
    /// Nuclear charges per atom.
    pub charges: Vec<f64>,
    /// Atom positions in Bohr.
    pub positions: Vec<[f64; 3]>,
    /// Name of the basis set used.
    pub basis_name: &'static str,
}

impl BasisedMolecule {
    /// Expands `mol` in the given basis set.
    ///
    /// # Panics
    /// Panics if the molecule contains an element the basis set does not
    /// cover (the built-in sets cover H, C, N, O).
    pub fn assign(mol: &Molecule, basis: BasisSet) -> BasisedMolecule {
        let mut shells = Vec::new();
        for (ai, atom) in mol.atoms.iter().enumerate() {
            for proto in element_shells(basis, atom.element) {
                shells.push(Shell::new(
                    proto.l,
                    atom.position,
                    proto.exps,
                    proto.coefs,
                    ai,
                ));
            }
        }
        let mut shell_offsets = Vec::with_capacity(shells.len());
        let mut nbf = 0;
        for s in &shells {
            shell_offsets.push(nbf);
            nbf += s.ncart();
        }
        BasisedMolecule {
            shells,
            shell_offsets,
            nbf,
            charges: mol.atoms.iter().map(|a| a.element.charge()).collect(),
            positions: mol.atoms.iter().map(|a| a.position).collect(),
            basis_name: basis.name(),
        }
    }

    /// Number of shells.
    pub fn nshells(&self) -> usize {
        self.shells.len()
    }

    /// Number of electrons (neutral molecule).
    pub fn nelectrons(&self) -> usize {
        self.charges.iter().map(|&c| c as usize).sum()
    }

    /// Nuclear repulsion energy `Σ_{A<B} Z_A Z_B / R_AB`.
    pub fn nuclear_repulsion(&self) -> f64 {
        let n = self.charges.len();
        let mut e = 0.0;
        for a in 0..n {
            for b in a + 1..n {
                let d = dist(&self.positions[a], &self.positions[b]);
                e += self.charges[a] * self.charges[b] / d;
            }
        }
        e
    }
}

fn dist(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

/// A shell prototype before placement on an atom.
struct ProtoShell {
    l: usize,
    exps: Vec<f64>,
    coefs: Vec<f64>,
}

fn proto(l: usize, exps: &[f64], coefs: &[f64]) -> ProtoShell {
    ProtoShell {
        l,
        exps: exps.to_vec(),
        coefs: coefs.to_vec(),
    }
}

/// Shell prototypes for one element in one basis set.
fn element_shells(basis: BasisSet, el: Element) -> Vec<ProtoShell> {
    match basis {
        BasisSet::Sto3g => sto3g_shells(el),
        BasisSet::SixThirtyOneG => g631_shells(el),
        BasisSet::SixThirtyOneGStar => {
            let mut shells = g631_shells(el);
            // Standard single-primitive d polarization exponent 0.8 on
            // heavy atoms (hydrogen is unpolarized in 6-31G*).
            if el != Element::H {
                shells.push(proto(2, &[0.8], &[1.0]));
            }
            shells
        }
    }
}

// STO-3G contraction coefficients shared by all first-row 1s / 2sp sets.
const STO3G_1S: [f64; 3] = [0.154_328_97, 0.535_328_14, 0.444_634_54];
const STO3G_2S: [f64; 3] = [-0.099_967_23, 0.399_512_83, 0.700_115_47];
const STO3G_2P: [f64; 3] = [0.155_916_27, 0.607_683_72, 0.391_957_39];

fn sto3g_shells(el: Element) -> Vec<ProtoShell> {
    match el {
        Element::H => {
            let e = [3.425_250_91, 0.623_913_73, 0.168_855_40];
            vec![proto(0, &e, &STO3G_1S)]
        }
        Element::C => {
            let e1 = [71.616_837_0, 13.045_096_0, 3.530_512_2];
            let e2 = [2.941_249_4, 0.683_483_1, 0.222_289_9];
            vec![
                proto(0, &e1, &STO3G_1S),
                proto(0, &e2, &STO3G_2S),
                proto(1, &e2, &STO3G_2P),
            ]
        }
        Element::N => {
            let e1 = [99.106_169_0, 18.052_312_0, 4.885_660_2];
            let e2 = [3.780_455_9, 0.878_496_6, 0.285_714_4];
            vec![
                proto(0, &e1, &STO3G_1S),
                proto(0, &e2, &STO3G_2S),
                proto(1, &e2, &STO3G_2P),
            ]
        }
        Element::O => {
            let e1 = [130.709_320_0, 23.808_861_0, 6.443_608_3];
            let e2 = [5.033_151_3, 1.169_596_1, 0.380_389_0];
            vec![
                proto(0, &e1, &STO3G_1S),
                proto(0, &e2, &STO3G_2S),
                proto(1, &e2, &STO3G_2P),
            ]
        }
    }
}

fn g631_shells(el: Element) -> Vec<ProtoShell> {
    match el {
        Element::H => vec![
            proto(
                0,
                &[18.731_137_0, 2.825_393_7, 0.640_121_7],
                &[0.033_494_60, 0.234_726_95, 0.813_757_33],
            ),
            proto(0, &[0.161_277_8], &[1.0]),
        ],
        Element::C => {
            let core_e = [
                3_047.524_9,
                457.369_51,
                103.948_69,
                29.210_155,
                9.286_663,
                3.163_927,
            ];
            let core_c = [
                0.001_834_7,
                0.014_037_3,
                0.068_842_6,
                0.232_184_4,
                0.467_941_3,
                0.362_312_0,
            ];
            let val_e = [7.868_272_4, 1.881_288_5, 0.544_249_3];
            let val_s = [-0.119_332_4, -0.160_854_2, 1.143_456_4];
            let val_p = [0.068_999_1, 0.316_424_0, 0.744_308_3];
            vec![
                proto(0, &core_e, &core_c),
                proto(0, &val_e, &val_s),
                proto(1, &val_e, &val_p),
                proto(0, &[0.168_714_4], &[1.0]),
                proto(1, &[0.168_714_4], &[1.0]),
            ]
        }
        Element::N => {
            let core_e = [
                4_173.511, 627.457_9, 142.902_1, 40.234_33, 12.820_21, 4.390_437,
            ];
            let core_c = [
                0.001_834_8,
                0.013_995_0,
                0.068_587_0,
                0.232_241_0,
                0.469_070_0,
                0.360_455_0,
            ];
            let val_e = [11.626_358, 2.716_28, 0.772_218];
            let val_s = [-0.114_961_0, -0.169_118_0, 1.145_852_0];
            let val_p = [0.067_580_0, 0.323_907_0, 0.740_895_0];
            vec![
                proto(0, &core_e, &core_c),
                proto(0, &val_e, &val_s),
                proto(1, &val_e, &val_p),
                proto(0, &[0.212_031_3], &[1.0]),
                proto(1, &[0.212_031_3], &[1.0]),
            ]
        }
        Element::O => {
            let core_e = [
                5_484.671_7,
                825.234_95,
                188.046_96,
                52.964_5,
                16.897_57,
                5.799_635_3,
            ];
            let core_c = [
                0.001_831_1,
                0.013_950_1,
                0.068_445_1,
                0.232_714_3,
                0.470_193_0,
                0.358_520_9,
            ];
            let val_e = [15.539_616, 3.599_933_6, 1.013_761_8];
            let val_s = [-0.110_777_5, -0.148_026_3, 1.130_767_0];
            let val_p = [0.070_874_3, 0.339_752_8, 0.727_158_6];
            vec![
                proto(0, &core_e, &core_c),
                proto(0, &val_e, &val_s),
                proto(1, &val_e, &val_p),
                proto(0, &[0.270_005_8], &[1.0]),
                proto(1, &[0.270_005_8], &[1.0]),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::Molecule;

    #[test]
    fn cartesian_component_counts() {
        assert_eq!(cartesian_components(0), vec![(0, 0, 0)]);
        assert_eq!(
            cartesian_components(1),
            vec![(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        );
        assert_eq!(cartesian_components(2).len(), 6);
        assert_eq!(cartesian_components(2)[0], (2, 0, 0));
        assert_eq!(cartesian_components(2)[1], (1, 1, 0));
        assert_eq!(cartesian_components(3).len(), 10);
    }

    #[test]
    fn element_properties() {
        assert_eq!(Element::O.charge(), 8.0);
        assert_eq!(Element::C.charge(), 6.0);
    }

    #[test]
    fn double_factorial_values() {
        assert_eq!(odd_double_factorial(0), 1.0);
        assert_eq!(odd_double_factorial(1), 1.0);
        assert_eq!(odd_double_factorial(2), 3.0);
        assert_eq!(odd_double_factorial(3), 15.0);
    }

    #[test]
    fn shell_counts_water_sto3g() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        // O: 1s + 2s + 2p(3) = 5; 2 × H 1s = 2 → 7 basis functions.
        assert_eq!(bm.nbf, 7);
        assert_eq!(bm.nshells(), 5);
        assert_eq!(bm.nelectrons(), 10);
    }

    #[test]
    fn shell_counts_water_631g() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
        // O: s,s,p,s,p = 1+1+3+1+3 = 9; each H: s,s = 2 → 13.
        assert_eq!(bm.nbf, 13);
        assert_eq!(bm.nshells(), 9);
    }

    #[test]
    fn shell_counts_water_631gstar() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneGStar);
        // 6-31G's 13 functions + one Cartesian d shell (6) on oxygen.
        assert_eq!(bm.nbf, 19);
        assert_eq!(bm.nshells(), 10);
        let d = bm
            .shells
            .iter()
            .find(|s| s.l == 2)
            .expect("d shell present");
        assert_eq!(d.ncart(), 6);
        assert_eq!(d.atom, 0, "polarization sits on oxygen");
        // Hydrogens carry no d functions.
        assert_eq!(bm.shells.iter().filter(|s| s.l == 2).count(), 1);
    }

    #[test]
    fn shell_offsets_are_cumulative() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let mut expect = 0;
        for (s, &off) in bm.shells.iter().zip(&bm.shell_offsets) {
            assert_eq!(off, expect);
            expect += s.ncart();
        }
        assert_eq!(expect, bm.nbf);
    }

    #[test]
    fn contracted_shell_is_normalized() {
        // Verified directly via the same-center closed-form overlap.
        let sh = Shell::new(
            0,
            [0.0; 3],
            vec![3.425_250_91, 0.623_913_73, 0.168_855_40],
            STO3G_1S.to_vec(),
            0,
        );
        let mut s = 0.0;
        for (&cp, &ap) in sh.coefs.iter().zip(&sh.exps) {
            for (&cq, &aq) in sh.coefs.iter().zip(&sh.exps) {
                s += cp * cq * (std::f64::consts::PI / (ap + aq)).powf(1.5);
            }
        }
        assert!((s - 1.0).abs() < 1e-12, "self-overlap {s}");
    }

    #[test]
    fn p_shell_normalization_closed_form() {
        let sh = Shell::new(1, [0.0; 3], vec![1.3, 0.4], vec![0.5, 0.5], 0);
        // ⟨(100)|(100)⟩ with the (2l−1)!!/(2p)^l closed form.
        let mut s = 0.0;
        for (&cp, &ap) in sh.coefs.iter().zip(&sh.exps) {
            for (&cq, &aq) in sh.coefs.iter().zip(&sh.exps) {
                let pab = ap + aq;
                s += cp * cq * (std::f64::consts::PI / pab).powf(1.5) / (2.0 * pab);
            }
        }
        assert!((s - 1.0).abs() < 1e-12, "self-overlap {s}");
    }

    #[test]
    fn component_norms_for_d_shell() {
        let sh = Shell::new(2, [0.0; 3], vec![1.0], vec![1.0], 0);
        // (2,0,0): factor 1; (1,1,0): √(3!!/1) = √3.
        assert!((sh.component_norm((2, 0, 0)) - 1.0).abs() < 1e-15);
        assert!((sh.component_norm((1, 1, 0)) - 3.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn nuclear_repulsion_h2() {
        let mol = Molecule::h2(1.4);
        let bm = BasisedMolecule::assign(&mol, BasisSet::Sto3g);
        assert!((bm.nuclear_repulsion() - 1.0 / 1.4).abs() < 1e-14);
    }
}
