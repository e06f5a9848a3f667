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
    let nh_b = bc.nh;
    let ncomp_b = bc.ncomp;
    let bp0 = bc.prim_off[bslot] as usize;
    let bp1 = bc.prim_off[bslot + 1] as usize;

    offs.clear();
    offs.push(0);
    let mut total = 0usize;
    let mut tacc_len = 0usize;
    for &k in kets {
        let ncomp_k = set.class_of(k as usize).0.ncomp;
        total += ncomp_b * ncomp_k;
        tacc_len = tacc_len.max(nh_b * ncomp_k);
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

    for (ki, &k) in kets.iter().enumerate() {
        let (kc, kslot) = set.class_of(k as usize);
        let nh_k = kc.nh;
        let ncomp_k = kc.ncomp;
        let l_tot = bc.l + kc.l;
        let comb = hermite_comb_table(bc.l, kc.l);
        let kp0 = kc.prim_off[kslot] as usize;
        let kp1 = kc.prim_off[kslot + 1] as usize;
        let out = &mut blocks[offs[ki]..offs[ki + 1]];
        let tacc = &mut tacc[..nh_b * ncomp_k];
        counts.by_l_tot[l_tot] += ((bp1 - bp0) * (kp1 - kp0)) as u64;

        for bp in bp0..bp1 {
            tacc.fill(0.0);
            for kp in kp0..kp1 {
                let t_arg = front_end(bc, bp, kc, kp, &mut r);
                counts.boys[(t_arg >= T_TINY) as usize + (t_arg >= T_LARGE) as usize] += 1;

                let e_k = &kc.e_ket[kp * ncomp_k * nh_k..][..ncomp_k * nh_k];
                // Literal simplex sizes (s|s, s|p and p|p kets) give the
                // gather and the dots fixed trip counts.
                match nh_k {
                    1 => stage1::<1>(1, tacc, e_k, &r, comb, ncomp_k),
                    4 => stage1::<4>(4, tacc, e_k, &r, comb, ncomp_k),
                    10 => stage1::<10>(10, tacc, e_k, &r, comb, ncomp_k),
                    _ => {
                        stage1::<{ hermite_count(PAIR_L_MAX) }>(nh_k, tacc, e_k, &r, comb, ncomp_k)
                    }
                }
            }

            // Stage 2: contract the bra E rows against the accumulated
            // T — once per bra primitive, amortized over ket prims.
            let e_b = &bc.e_bra[bp * ncomp_b * nh_b..][..ncomp_b * nh_b];
            for a in 0..ncomp_b {
                let erow = &e_b[a * nh_b..][..nh_b];
                let orow = &mut out[a * ncomp_k..][..ncomp_k];
                for (hb, &w) in erow.iter().enumerate() {
                    // Dense bra rows keep the E triangle's zeros; a row
                    // skip here saves the whole ncomp_k AXPY.
                    if w == 0.0 {
                        continue;
                    }
                    let trow = &tacc[hb * ncomp_k..][..ncomp_k];
                    for (o, t) in orow.iter_mut().zip(trow) {
                        *o += w * t;
                    }
                }
            }
        }
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

/// Stage 1 for one primitive quartet: `T[hb][cd] += Σ_hk e_k[cd][hk] ·
/// r[comb[hb][hk]]`, with `T` as `tacc` (`nh_bra` rows of `ncomp_k`).
/// `CAP ≥ nh_k` sizes the gathered row; when the caller passes both as
/// the same literal the row lives in registers.
#[inline(always)]
fn stage1<const CAP: usize>(
    nh_k: usize,
    tacc: &mut [f64],
    e_k: &[f64],
    r: &[f64; R_SIMPLEX_LEN],
    comb: &[u32],
    ncomp_k: usize,
) {
    let mut rg = [0.0; CAP];
    let rg = &mut rg[..nh_k];
    let mut c0 = 0;
    let mut t0 = 0;
    while t0 < tacc.len() {
        // Gather the R row this bra Hermite component pairs with, then
        // dot it against every ket component's dense E row.
        for (x, &ci) in rg.iter_mut().zip(&comb[c0..c0 + nh_k]) {
            *x = r[ci as usize];
        }
        let mut ec = 0;
        for t in &mut tacc[t0..t0 + ncomp_k] {
            let mut s = 0.0;
            for (e, g) in e_k[ec..ec + nh_k].iter().zip(rg.iter()) {
                s += e * g;
            }
            *t += s;
            ec += nh_k;
        }
        c0 += nh_k;
        t0 += ncomp_k;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn prefactor_constant_is_the_scalar_kernels() {
        // `front_end` promises the scalar kernel's prefactor bit for bit.
        assert_eq!(super::TWO_PI_POW_2_5, 2.0 * std::f64::consts::PI.powf(2.5));
    }
}
