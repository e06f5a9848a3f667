//! The batched ERI kernel: all surviving kets of one bra pair in a
//! single pass over the SoA shell-pair data.
//!
//! Same McMurchie–Davidson contraction as [`crate::eri::eri_quartet_into`],
//! restructured for throughput. The scalar kernel walks six nested
//! sparse `E`-coefficient loops per output component, calling
//! `HermiteE::at` (index arithmetic + bounds branch) for every factor.
//! Here the `E` products are precomputed dense rows over the Hermite
//! simplex ([`crate::shellpair::ShellPairBatch`]), so the contraction
//! becomes two flat, branch-free stages per bra primitive:
//!
//! ```text
//! front end (per primitive quartet bp,kp):
//!   R[h] = 2π^{5/2}/(pq√(p+q)) · R⁰_tuv(pq/(p+q), P−Q),  h over the simplex
//! stage 1 (per ket primitive kp):
//!   T[hb][cd] += Σ_hk  e_ket[kp][cd][hk] · R[comb[hb][hk]]
//! stage 2 (per bra primitive bp, after all kp):
//!   out[ab][cd] += Σ_hb e_bra[bp][ab][hb] · T[hb][cd]
//! ```
//!
//! The front end is [`front_end`]: the scalar kernel's exponent and
//! prefactor expressions, `2π^{5/2}` from a constant, and
//! [`hermite_r_simplex`] — the `R` recurrence on a dense simplex-ordered
//! vector (so `comb` is an index into `nh` values, not into an `(l+1)³`
//! cube), instantiated with a literal order for `l_bra + l_ket ≤ 4`,
//! every quartet of an s/p basis. `examples/kernel_phases.rs` prints the
//! front end's share of a build.
//!
//! Stage 2 — the `ncomp_bra · ncomp_ket · nh_bra` triple product that
//! dominates high-angular-momentum quartets — thus runs once per *bra*
//! primitive instead of once per primitive *pair*: the bra contraction
//! is amortized over the ket contraction depth. All loops are
//! contiguous-slice dot products and AXPYs the autovectorizer handles;
//! the `(−1)^{τ+ν+φ}` sign and every coefficient/norm factor are folded
//! into the tables at pair-build time.
//!
//! Both stages are one `#[inline(always)]` body, `Quartet::contract`,
//! called with literal class sizes (`nh`, `ncomp` of each side) for the
//! nine shape pairs of an s/p basis and with the sizes as loaded for any
//! class with a d shell: one source, and every loop of an s/p quartet has
//! a fixed trip count. Stage 1 keeps the `ncomp_ket` dots of a bra
//! Hermite row side by side, each summed in `hk` order, so the
//! vectorizer pairs ket components into lanes without reordering a sum.
//!
//! Each ket's block is computed into its own accumulators, so a
//! quartet's result is bit-identical regardless of which other kets
//! share the call — task chunking and worker count cannot perturb `G`.
//! Against the scalar kernel the summation order and the `R`
//! bookkeeping differ, so agreement is to rounding (≤ 1e-12 relative;
//! pinned by the property tests in `tests/eri_batch_equivalence.rs`),
//! not bitwise.

use crate::boys::{T_LARGE, T_TINY};
use crate::eri::EriScratch;
use crate::md::{hermite_comb_table, hermite_count, hermite_r_simplex, PAIR_L_MAX, R_SIMPLEX_LEN};
use crate::shellpair::{PairBatchSet, ShellPairBatch};
use std::f64::consts::{FRAC_2_SQRT_PI, PI};

/// `2π^{5/2}` (as `4π²/(2/√π)`), the constant of the ERI prefactor
/// `2π^{5/2}/(pq√(p+q))`.
const TWO_PI_POW_2_5: f64 = 4.0 * PI * PI / FRAC_2_SQRT_PI;

/// Exact operation counts of the batched kernel, accumulated over every
/// [`eri_bra_block_into`] call on one scratch. Plain integer adds in the
/// loop — no clock reads — so a build's counts repeat exactly and the
/// phase probe (`examples/kernel_phases.rs`) can weigh its timings by
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Primitive quartets evaluated, by total Hermite order `l_bra +
    /// l_ket`.
    pub by_l_tot: [u64; 2 * PAIR_L_MAX + 1],
    /// Primitive quartets by Boys regime: coincident centres
    /// (`T < 1e-13`), the tabulated range, and the large-`T` exact
    /// ladder (`T ≥ 36`).
    pub boys: [u64; 3],
}

impl KernelCounts {
    /// All primitive quartets evaluated.
    pub fn prim_quartets(&self) -> u64 {
        self.by_l_tot.iter().sum()
    }
}

/// Reusable buffers of the batched kernel, embedded in [`EriScratch`]
/// so every consumer keeps one per worker. `blocks` holds the
/// concatenated per-ket output blocks of the last
/// [`eri_bra_block_into`] call, delimited by `offs`.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Stage-1 accumulator `T[hb][comp_ket]` for the current bra prim.
    pub(crate) tacc: Vec<f64>,
    /// Concatenated per-ket output blocks.
    pub(crate) blocks: Vec<f64>,
    /// Block offsets: ket `i` owns `blocks[offs[i]..offs[i+1]]`.
    pub(crate) offs: Vec<usize>,
    pub(crate) counts: KernelCounts,
}

impl BatchScratch {
    /// Pre-sizes the per-quartet buffers for shells up to `l_shell`
    /// (the ket-list-dependent `blocks` buffer still grows on first
    /// use; consumers warm it with one untimed pass, as the allocation
    /// guard does).
    pub(crate) fn warm(&mut self, l_shell: usize) {
        let ncart = (l_shell + 1) * (l_shell + 2) / 2;
        self.tacc
            .resize(hermite_count(2 * l_shell) * ncart * ncart, 0.0);
    }
}

/// Computes the Cartesian integral blocks of every quartet `(bra |
/// ket)` for `kets` (pair indices, caller order preserved) into
/// `scratch`; read them back via [`EriScratch::ket_block`].
///
/// Block `i` is indexed `[(ia·ncb + ib)·ncc·ncd + ic·ncd + id]` with
/// normalization applied — identical layout and meaning to
/// [`crate::eri::eri_quartet_into`], which remains the independent
/// scalar oracle. Allocation-free once the scratch has seen the
/// angular classes and a ket list at least this large.
pub fn eri_bra_block_into(scratch: &mut EriScratch, set: &PairBatchSet, bra: usize, kets: &[u32]) {
    let BatchScratch {
        tacc,
        blocks,
        offs,
        counts,
    } = &mut scratch.batch;
    let (bc, bslot) = set.class_of(bra);
    offs.clear();
    offs.push(0);
    let mut total = 0usize;
    let mut tacc_len = 0usize;
    for &k in kets {
        let ncomp_k = set.class_of(k as usize).0.ncomp;
        total += bc.ncomp * ncomp_k;
        tacc_len = tacc_len.max(bc.nh * ncomp_k);
        offs.push(total);
    }
    blocks.clear();
    blocks.resize(total, 0.0);
    // Class-sized once per call (a no-op on a warmed scratch), never
    // per primitive.
    if tacc.len() < tacc_len {
        tacc.resize(tacc_len, 0.0);
    }
    // The prefactor-scaled R tensor of one primitive quartet.
    let mut r = [0.0; R_SIMPLEX_LEN];
    let (mut prims, mut tiny, mut large) = (0, 0, 0);

    for (ki, &k) in kets.iter().enumerate() {
        let (kc, kslot) = set.class_of(k as usize);
        let q = Quartet::new(bc, bslot, kc, kslot);
        let n = (bc.nprims(bslot) * kc.nprims(kslot)) as u64;
        counts.by_l_tot[bc.l + kc.l] += n;
        prims += n;
        let out = &mut blocks[offs[ki]..offs[ki + 1]];
        let dims = [bc.nh, bc.ncomp, kc.nh, kc.ncomp];
        // The nine shape pairs of an s/p basis get literal dims, so every
        // loop of the body has a fixed trip count; a d shell runs the
        // same body with the dims as loaded.
        let (q_tiny, q_large) = match dims {
            [1, 1, 1, 1] => q.contract([1, 1, 1, 1], &mut r, tacc, out),
            [1, 1, 4, 3] => q.contract([1, 1, 4, 3], &mut r, tacc, out),
            [1, 1, 10, 9] => q.contract([1, 1, 10, 9], &mut r, tacc, out),
            [4, 3, 1, 1] => q.contract([4, 3, 1, 1], &mut r, tacc, out),
            [4, 3, 4, 3] => q.contract([4, 3, 4, 3], &mut r, tacc, out),
            [4, 3, 10, 9] => q.contract([4, 3, 10, 9], &mut r, tacc, out),
            [10, 9, 1, 1] => q.contract([10, 9, 1, 1], &mut r, tacc, out),
            [10, 9, 4, 3] => q.contract([10, 9, 4, 3], &mut r, tacc, out),
            [10, 9, 10, 9] => q.contract([10, 9, 10, 9], &mut r, tacc, out),
            _ => q.contract(dims, &mut r, tacc, out),
        };
        tiny += q_tiny;
        large += q_large;
    }
    counts.boys[0] += tiny;
    counts.boys[1] += prims - tiny - large;
    counts.boys[2] += large;
}

/// `[nh_bra, ncomp_bra, nh_ket, ncomp_ket]`: Hermite simplex size and
/// Cartesian component pairs of each side of a quartet.
type Dims = [usize; 4];

/// Largest component-pair count of a class: `ncart(la)·ncart(lb)` with
/// `la + lb ≤ PAIR_L_MAX` peaks at `la = lb`.
const MAX_NCOMP: usize = {
    let ncart = (PAIR_L_MAX / 2 + 1) * (PAIR_L_MAX / 2 + 2) / 2;
    ncart * ncart
};

/// One (bra pair, ket pair) quartet: both classes, each side's
/// primitive-pair range and the class pair's `comb` table.
struct Quartet<'a> {
    bc: &'a ShellPairBatch,
    kc: &'a ShellPairBatch,
    bp: (usize, usize),
    kp: (usize, usize),
    comb: &'a [u32],
}

impl<'a> Quartet<'a> {
    /// Member `bslot` of class `bc` against member `kslot` of `kc`.
    fn new(bc: &'a ShellPairBatch, bslot: usize, kc: &'a ShellPairBatch, kslot: usize) -> Self {
        let prims =
            |c: &ShellPairBatch, m: usize| (c.prim_off[m] as usize, c.prim_off[m + 1] as usize);
        Quartet {
            bc,
            kc,
            bp: prims(bc, bslot),
            kp: prims(kc, kslot),
            comb: hermite_comb_table(bc.l, kc.l),
        }
    }

    /// The quartet's block into `out` (zeroed, `ncomp_bra · ncomp_ket`),
    /// with `tacc` as the stage-1 accumulator. `dims` must be the two
    /// classes' own; a literal gives every loop a fixed trip count.
    /// Returns how many primitive quartets had `T < T_TINY` and `T ≥
    /// T_LARGE`.
    #[inline(always)]
    fn contract(
        &self,
        [nh_b, ncomp_b, nh_k, ncomp_k]: Dims,
        r: &mut [f64; R_SIMPLEX_LEN],
        tacc: &mut [f64],
        out: &mut [f64],
    ) -> (u64, u64) {
        let Quartet { bc, kc, comb, .. } = *self;
        debug_assert_eq!(
            [nh_b, ncomp_b, nh_k, ncomp_k],
            [bc.nh, bc.ncomp, kc.nh, kc.ncomp]
        );
        let tacc = &mut tacc[..nh_b * ncomp_k];
        let comb = &comb[..nh_b * nh_k];
        let out = &mut out[..ncomp_b * ncomp_k];
        let (mut tiny, mut large) = (0, 0);
        let mut dots = [0.0; MAX_NCOMP];
        for bp in self.bp.0..self.bp.1 {
            tacc.fill(0.0);
            for kp in self.kp.0..self.kp.1 {
                let t_arg = front_end(bc, bp, kc, kp, r);
                tiny += (t_arg < T_TINY) as u64;
                large += (t_arg >= T_LARGE) as u64;

                // Stage 1: for each bra Hermite component, the R row it
                // pairs with against every ket component's dense E row —
                // one dot per ket component, summed in `hk` order, with
                // the components side by side so they share each R value.
                let e_k = &kc.e_ket[kp * ncomp_k * nh_k..][..ncomp_k * nh_k];
                for (trow, crow) in tacc.chunks_exact_mut(ncomp_k).zip(comb.chunks_exact(nh_k)) {
                    let dots = &mut dots[..ncomp_k];
                    dots.fill(0.0);
                    for (hk, &ci) in crow.iter().enumerate() {
                        let rv = r[ci as usize];
                        for (s, erow) in dots.iter_mut().zip(e_k.chunks_exact(nh_k)) {
                            *s += erow[hk] * rv;
                        }
                    }
                    for (t, s) in trow.iter_mut().zip(dots.iter()) {
                        *t += s;
                    }
                }
            }

            // Stage 2: contract the bra E rows against the accumulated
            // T — once per bra primitive, amortized over ket prims.
            let e_b = &bc.e_bra[bp * ncomp_b * nh_b..][..ncomp_b * nh_b];
            for (orow, erow) in out.chunks_exact_mut(ncomp_k).zip(e_b.chunks_exact(nh_b)) {
                for (&w, trow) in erow.iter().zip(tacc.chunks_exact(ncomp_k)) {
                    // Dense bra rows keep the E triangle's zeros; a row
                    // skip here saves the whole ncomp_k AXPY.
                    if w == 0.0 {
                        continue;
                    }
                    for (o, t) in orow.iter_mut().zip(trow) {
                        *o += w * t;
                    }
                }
            }
        }
        (tiny, large)
    }
}

/// The front end for primitive quartet `(bp | kp)` of two pair classes:
/// `2π^{5/2}/(pq√(p+q)) · R⁰_tuv(pq/(p+q), P−Q)` over the simplex of
/// order `l_bra + l_ket`, into `r`. Returns the Boys argument.
///
/// Exponent and prefactor are the scalar kernel's expressions, rounding
/// for rounding: a contraction can sum terms 10⁴ times its result, and
/// a cheaper prefactor (hoisted reciprocals) is off by an ulp in every
/// term at once — 1e-12 of such a block.
#[inline(always)]
pub fn front_end(
    bc: &ShellPairBatch,
    bp: usize,
    kc: &ShellPairBatch,
    kp: usize,
    r: &mut [f64; R_SIMPLEX_LEN],
) -> f64 {
    let (p, q) = (bc.p[bp], kc.p[kp]);
    hermite_r_simplex(
        bc.l + kc.l,
        p * q / (p + q),
        TWO_PI_POW_2_5 / (p * q * (p + q).sqrt()),
        bc.px[bp] - kc.px[kp],
        bc.py[bp] - kc.py[kp],
        bc.pz[bp] - kc.pz[kp],
        r,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::Shell;
    use crate::shellpair::ShellPair;

    #[test]
    fn prefactor_constant_is_the_scalar_kernels() {
        // `front_end` promises the scalar kernel's prefactor bit for bit.
        assert_eq!(TWO_PI_POW_2_5, 2.0 * PI.powf(2.5));
    }

    #[test]
    fn literal_and_runtime_dims_give_the_same_bits() {
        // Random s/p shells: every block the kernel computes (literal
        // dims) against the same body with the dims hidden from the
        // optimizer, bit for bit; all nine shape pairs must occur.
        let mut state = 0x5eed_d1a5_u64;
        let mut uniform = |lo: f64, hi: f64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        let shape = |c: &ShellPairBatch| [1, 4, 10].iter().position(|&nh| nh == c.nh).unwrap();
        let mut seen = [[false; 3]; 3];
        for _ in 0..8 {
            let shells: Vec<Shell> = (0..4)
                .map(|_| {
                    let l = uniform(0.0, 2.0) as usize;
                    let nprim = uniform(1.0, 4.0) as usize;
                    let exps = (0..nprim).map(|_| uniform(0.15, 3.5)).collect();
                    let coefs = (0..nprim).map(|_| uniform(-0.5, 1.0)).collect();
                    let center = [0; 3].map(|_| uniform(-1.0, 1.0));
                    Shell::new(l, center, exps, coefs, 0)
                })
                .collect();
            let mut pairs = Vec::new();
            for a in 0..shells.len() {
                for b in 0..=a {
                    pairs.push(ShellPair::build(a, &shells[a], b, &shells[b], 0));
                }
            }
            let set = PairBatchSet::build(&shells, &pairs);
            let kets: Vec<u32> = (0..pairs.len() as u32).collect();
            let mut scratch = EriScratch::new();
            for bra in 0..pairs.len() {
                eri_bra_block_into(&mut scratch, &set, bra, &kets);
                let (bc, bslot) = set.class_of(bra);
                for (i, &k) in kets.iter().enumerate() {
                    let (kc, kslot) = set.class_of(k as usize);
                    let dims = std::hint::black_box([bc.nh, bc.ncomp, kc.nh, kc.ncomp]);
                    let mut r = [0.0; R_SIMPLEX_LEN];
                    let mut tacc = vec![0.0; bc.nh * kc.ncomp];
                    let mut out = vec![0.0; bc.ncomp * kc.ncomp];
                    Quartet::new(bc, bslot, kc, kslot).contract(dims, &mut r, &mut tacc, &mut out);
                    let bits = |b: &[f64]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(scratch.ket_block(i)), bits(&out), "bra {bra} ket {k}");
                    seen[shape(bc)][shape(kc)] = true;
                }
            }
        }
        assert_eq!(seen, [[true; 3]; 3], "shape pairs covered");
    }
}
