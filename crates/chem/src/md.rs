//! McMurchie–Davidson machinery: Hermite expansion coefficients `E_t^{ij}`
//! and Hermite Coulomb integrals `R_{tuv}`.
//!
//! The McMurchie–Davidson scheme expands a product of two Cartesian
//! Gaussians as a sum of Hermite Gaussians,
//!
//! ```text
//! G_i(x; a, A) · G_j(x; b, B) = Σ_t E_t^{ij} Λ_t(x; p, P)
//! ```
//!
//! after which overlaps are single coefficients, and all Coulomb-type
//! integrals contract `E` tables against the Hermite Coulomb tensor
//! `R_{tuv}`, itself built from the Boys function. The recurrences follow
//! Helgaker, Jørgensen & Olsen, *Molecular Electronic-Structure Theory*,
//! ch. 9.

use crate::boys::boys_ladder_cached;

/// Table of Hermite expansion coefficients for one Cartesian direction.
///
/// Stores `E_t^{ij}` for `0 ≤ i ≤ imax`, `0 ≤ j ≤ jmax`, `0 ≤ t ≤ i+j`,
/// already including the Gaussian product prefactor
/// `exp(-ab/(a+b)·X_AB²)` for this direction.
#[derive(Debug, Clone)]
pub struct HermiteE {
    imax: usize,
    jmax: usize,
    tdim: usize,
    data: Vec<f64>,
}

impl HermiteE {
    /// Builds the full table for one dimension.
    ///
    /// * `a`, `b` — primitive exponents; `ax`, `bx` — center coordinates
    ///   along this dimension.
    pub fn build(imax: usize, jmax: usize, a: f64, b: f64, ax: f64, bx: f64) -> HermiteE {
        let p = a + b;
        let mu = a * b / p;
        let xab = ax - bx;
        let px = (a * ax + b * bx) / p;
        let xpa = px - ax;
        let xpb = px - bx;
        let one_over_2p = 0.5 / p;
        let tdim = imax + jmax + 1;
        let mut e = HermiteE {
            imax,
            jmax,
            tdim,
            data: vec![0.0; (imax + 1) * (jmax + 1) * tdim],
        };

        // Base case.
        *e.at_mut(0, 0, 0) = (-mu * xab * xab).exp();

        // Build up in i at j = 0:
        //   E_t^{i+1,0} = 1/(2p)·E_{t-1}^{i,0} + X_PA·E_t^{i,0} + (t+1)·E_{t+1}^{i,0}
        for i in 0..imax {
            for t in 0..=(i + 1) {
                let mut v = xpa * e.at(i, 0, t);
                if t > 0 {
                    v += one_over_2p * e.at(i, 0, t - 1);
                }
                if t < i {
                    v += (t + 1) as f64 * e.at(i, 0, t + 1);
                }
                *e.at_mut(i + 1, 0, t) = v;
            }
        }
        // Build up in j for every i:
        //   E_t^{i,j+1} = 1/(2p)·E_{t-1}^{i,j} + X_PB·E_t^{i,j} + (t+1)·E_{t+1}^{i,j}
        for i in 0..=imax {
            for j in 0..jmax {
                for t in 0..=(i + j + 1) {
                    let mut v = xpb * e.at(i, j, t);
                    if t > 0 {
                        v += one_over_2p * e.at(i, j, t - 1);
                    }
                    if t < i + j {
                        v += (t + 1) as f64 * e.at(i, j, t + 1);
                    }
                    *e.at_mut(i, j + 1, t) = v;
                }
            }
        }
        e
    }

    /// Reads `E_t^{ij}` (zero outside the stored `t ≤ i+j` triangle).
    #[inline]
    pub fn at(&self, i: usize, j: usize, t: usize) -> f64 {
        if t >= self.tdim {
            return 0.0;
        }
        debug_assert!(i <= self.imax && j <= self.jmax);
        self.data[(i * (self.jmax + 1) + j) * self.tdim + t]
    }

    #[inline]
    fn at_mut(&mut self, i: usize, j: usize, t: usize) -> &mut f64 {
        &mut self.data[(i * (self.jmax + 1) + j) * self.tdim + t]
    }
}

/// Number of Hermite components `(t,u,v)` with `t+u+v ≤ l` — the
/// tetrahedral number `(l+1)(l+2)(l+3)/6`. This is the row length of
/// every dense Hermite table in the batched ERI path.
#[inline]
pub const fn hermite_count(l: usize) -> usize {
    (l + 1) * (l + 2) * (l + 3) / 6
}

/// Highest per-side Hermite order the precomputed component/combination
/// tables cover. A shell pair's order is `la + lb`, so 4 serves every
/// basis in the study (s..d shells) with nothing to spare by design:
/// exceeding it is a programming error the batch builder asserts on.
pub const PAIR_L_MAX: usize = 4;

/// The Hermite component triples `(t,u,v)` with `t+u+v ≤ l`, in the
/// canonical order (ascending total, then ascending `t`, then `u`) that
/// every flat Hermite index in the batched ERI tables refers to.
pub fn hermite_components(l: usize) -> &'static [(usize, usize, usize)] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Vec<Vec<(usize, usize, usize)>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut all = Vec::with_capacity(2 * PAIR_L_MAX + 1);
        for l in 0..=2 * PAIR_L_MAX {
            let mut out = Vec::with_capacity(hermite_count(l));
            for total in 0..=l {
                for t in 0..=total {
                    for u in 0..=(total - t) {
                        out.push((t, u, total - t - u));
                    }
                }
            }
            all.push(out);
        }
        all
    });
    &tables[l]
}

/// Flat position of `(t,u,v)` in the canonical order of
/// [`hermite_components`]. It does not depend on the simplex's order:
/// an order-`l` simplex is a prefix of every higher one, which is what
/// lets [`hermite_r_simplex`] build all auxiliary levels in one buffer.
#[inline]
pub const fn hermite_index(t: usize, u: usize, v: usize) -> usize {
    let total = t + u + v;
    // hermite_count(total − 1) entries precede the layer; within it
    // rows of `total − t' + 1` entries precede row `t`.
    total * (total + 1) * (total + 2) / 6 + t * (2 * total + 3 - t) / 2 + u
}

/// Flat index-combination table for one `(bra order, ket order)` class:
/// entry `hb·nh_ket + hk` holds the [`hermite_index`] of the
/// componentwise sum of bra triple `hb` and ket triple `hk` — a
/// position in the dense simplex-ordered tensor [`hermite_r_simplex`]
/// writes. The batched ERI kernel's innermost gather walks this table
/// instead of re-deriving `(t+τ, u+ν, v+φ)` per element.
pub fn hermite_comb_table(l_bra: usize, l_ket: usize) -> &'static [u32] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Vec<Vec<u32>>> = OnceLock::new();
    assert!(
        l_bra <= PAIR_L_MAX && l_ket <= PAIR_L_MAX,
        "hermite_comb_table: pair order ({l_bra},{l_ket}) exceeds PAIR_L_MAX {PAIR_L_MAX}"
    );
    let tables = TABLES.get_or_init(|| {
        let mut all = Vec::with_capacity((PAIR_L_MAX + 1) * (PAIR_L_MAX + 1));
        for lb in 0..=PAIR_L_MAX {
            for lk in 0..=PAIR_L_MAX {
                let bras = hermite_components(lb);
                let kets = hermite_components(lk);
                let mut tab = Vec::with_capacity(bras.len() * kets.len());
                for &(t, u, v) in bras {
                    for &(tau, nu, phi) in kets {
                        tab.push(hermite_index(t + tau, u + nu, v + phi) as u32);
                    }
                }
                all.push(tab);
            }
        }
        all
    });
    &tables[l_bra * (PAIR_L_MAX + 1) + l_ket]
}

/// Reusable buffers for [`hermite_r_into`]: the Boys ladder plus the
/// two ping-pong Hermite levels. The integral kernels keep one per
/// worker (inside [`crate::eri::EriScratch`]) so the inner loop never
/// touches the allocator; the only allocations happen in
/// [`RScratch::ensure`] the first time a given order is requested.
#[derive(Debug, Clone, Default)]
pub struct RScratch {
    f: Vec<f64>,
    prev: Vec<f64>,
    cur: Vec<f64>,
}

impl RScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> RScratch {
        RScratch::default()
    }

    /// Grows the buffers to hold order-`l` tensors (idempotent; no-op
    /// once warm).
    pub fn ensure(&mut self, l: usize) {
        let dim3 = (l + 1) * (l + 1) * (l + 1);
        if self.f.len() < l + 1 {
            self.f.resize(l + 1, 0.0);
        }
        if self.cur.len() < dim3 {
            self.cur.resize(dim3, 0.0);
            self.prev.resize(dim3, 0.0);
        }
    }

    /// The tensor produced by the last [`hermite_r_into`] call, indexed
    /// by [`r_index`] with that call's `l`.
    #[inline]
    pub fn r(&self) -> &[f64] {
        &self.cur
    }
}

/// Hermite Coulomb integral tensor `R⁰_{tuv}` for all `t+u+v ≤ l`,
/// computed into `scratch` (read it back via [`RScratch::r`]).
///
/// * `l` — maximum total Hermite order;
/// * `alpha` — the effective exponent (`p` for nuclear attraction,
///   `pq/(p+q)` for ERIs);
/// * `dx, dy, dz` — the displacement vector (`P−C` or `P−Q`).
///
/// The first `(l+1)³` entries of the result are indexed by [`r_index`];
/// only entries with `t+u+v ≤ l` are meaningful (positions outside the
/// simplex are left untouched, so a reused scratch carries stale values
/// there — every kernel indexes within the simplex). Allocation-free
/// once the scratch is warm: the auxiliary levels ping-pong between two
/// persistent buffers instead of cloning per level, and the Boys
/// ladder comes from the precomputed table
/// ([`crate::boys::boys_ladder_cached`]).
pub fn hermite_r_into(scratch: &mut RScratch, l: usize, alpha: f64, dx: f64, dy: f64, dz: f64) {
    scratch.ensure(l);
    let dim = l + 1;
    let t_arg = alpha * (dx * dx + dy * dy + dz * dz);
    let RScratch { f, prev, cur } = scratch;
    boys_ladder_cached(l, t_arg, &mut f[..l + 1]);

    let idx = |t: usize, u: usize, v: usize| (t * dim + u) * dim + v;

    // Build levels n = l down to 0; at level n entries with
    // t+u+v ≤ l−n are valid. Each level reads the previous one, so the
    // two buffers alternate roles (swap instead of clone). No per-level
    // clear: every read below stays inside the previous level's valid
    // simplex (total−1 ≤ budget−1), so stale entries outside it are
    // never consulted and rewriting the valid simplex suffices.
    for n in (0..=l).rev() {
        if n != l {
            std::mem::swap(prev, cur);
        }
        cur[idx(0, 0, 0)] = (-2.0 * alpha).powi(n as i32) * f[n];
        let budget = l - n;
        for total in 1..=budget {
            for t in 0..=total {
                for u in 0..=(total - t) {
                    let v = total - t - u;
                    let val = if t > 0 {
                        let mut x = dx * prev[idx(t - 1, u, v)];
                        if t > 1 {
                            x += (t - 1) as f64 * prev[idx(t - 2, u, v)];
                        }
                        x
                    } else if u > 0 {
                        let mut x = dy * prev[idx(t, u - 1, v)];
                        if u > 1 {
                            x += (u - 1) as f64 * prev[idx(t, u - 2, v)];
                        }
                        x
                    } else {
                        let mut x = dz * prev[idx(t, u, v - 1)];
                        if v > 1 {
                            x += (v - 1) as f64 * prev[idx(t, u, v - 2)];
                        }
                        x
                    };
                    cur[idx(t, u, v)] = val;
                }
            }
        }
    }
}

/// Allocating convenience wrapper around [`hermite_r_into`] for the
/// one-electron integrals and tests (the ERI hot path uses the scratch
/// form directly).
pub fn hermite_r(l: usize, alpha: f64, dx: f64, dy: f64, dz: f64) -> Vec<f64> {
    let mut scratch = RScratch::new();
    hermite_r_into(&mut scratch, l, alpha, dx, dy, dz);
    scratch.cur
}

/// Index into the flat tensor returned by [`hermite_r`].
#[inline]
pub fn r_index(l: usize, t: usize, u: usize, v: usize) -> usize {
    let dim = l + 1;
    (t * dim + u) * dim + v
}

/// Length of the simplex-ordered tensor at the highest quartet order
/// the batched tables cover (`2·PAIR_L_MAX`).
pub const R_SIMPLEX_LEN: usize = hermite_count(2 * PAIR_L_MAX);

/// One step of the `R` recurrence on the simplex:
/// `R^n[h] = d[axis]·R^{n+1}[a] + k·R^{n+1}[b]`, where `a` and `b` drop
/// one and two quanta from the first non-zero index of `h`'s triple.
#[derive(Clone, Copy)]
struct RStep {
    axis: u8,
    a: u8,
    b: u8,
    k: f64,
}

/// The recurrence as data, built at compile time so that a call with a
/// literal order unrolls to straight-line code with every index and
/// factor folded in.
static R_STEPS: [RStep; R_SIMPLEX_LEN] = {
    assert!(R_SIMPLEX_LEN <= 1 << u8::BITS, "RStep indexes with u8");
    let mut steps = [RStep {
        axis: 0,
        a: 0,
        b: 0,
        k: 0.0,
    }; R_SIMPLEX_LEN];
    let mut total = 1;
    while total <= 2 * PAIR_L_MAX {
        let mut t = 0;
        while t <= total {
            let mut u = 0;
            while u <= total - t {
                let mut c = [t, u, total - t - u];
                let h = hermite_index(c[0], c[1], c[2]);
                // The first non-zero index of the triple.
                let axis = (t == 0) as usize + (t == 0 && u == 0) as usize;
                c[axis] -= 1;
                let (a, k) = (hermite_index(c[0], c[1], c[2]), c[axis]);
                c[axis] = k.saturating_sub(1);
                steps[h] = RStep {
                    axis: axis as u8,
                    a: a as u8,
                    b: hermite_index(c[0], c[1], c[2]) as u8,
                    k: k as f64,
                };
                u += 1;
            }
            t += 1;
        }
        total += 1;
    }
    steps
};

/// `scale · R⁰_{tuv}` for all `t+u+v ≤ l`, written densely into
/// `r[..hermite_count(l)]` in [`hermite_index`] order — the `R` half of
/// the batched ERI kernel's front end, for `l ≤ 2·PAIR_L_MAX`. Returns
/// the Boys argument `T = α·|d|²`.
///
/// Same recurrence and per-entry arithmetic as [`hermite_r_into`], which
/// stays the oracle; what differs is the layout and the bookkeeping.
/// The auxiliary levels share one buffer (level `n` is a prefix of level
/// `n−1`, and a step reads only lower positions, so each level is
/// rewritten in place from the top down), `scale·(−2α)ⁿ` is a running
/// product instead of a `powi` per level and a pass over the finished
/// tensor, and orders 0–4 — every quartet of an s/p basis — are
/// instantiated with a literal `l`.
pub fn hermite_r_simplex(
    l: usize,
    alpha: f64,
    scale: f64,
    dx: f64,
    dy: f64,
    dz: f64,
    r: &mut [f64; R_SIMPLEX_LEN],
) -> f64 {
    let d = [dx, dy, dz];
    match l {
        0 => r_simplex(0, alpha, scale, d, r),
        1 => r_simplex(1, alpha, scale, d, r),
        2 => r_simplex(2, alpha, scale, d, r),
        3 => r_simplex(3, alpha, scale, d, r),
        4 => r_simplex(4, alpha, scale, d, r),
        _ => r_simplex(l, alpha, scale, d, r),
    }
}

#[inline(always)]
fn r_simplex(l: usize, alpha: f64, scale: f64, d: [f64; 3], r: &mut [f64; R_SIMPLEX_LEN]) -> f64 {
    let t_arg = alpha * (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
    // s[n] = scale·(−2α)ⁿ·F_n, the apex R^n_{000} of level n.
    let mut s = [0.0; 2 * PAIR_L_MAX + 1];
    boys_ladder_cached(l, t_arg, &mut s[..=l]);
    let mut power = scale;
    for sn in &mut s[..=l] {
        *sn *= power;
        power *= -2.0 * alpha;
    }
    r[0] = s[l];
    for n in (0..l).rev() {
        for h in (1..hermite_count(l - n)).rev() {
            let st = R_STEPS[h];
            let mut x = d[st.axis as usize] * r[st.a as usize];
            if st.k != 0.0 {
                x += st.k * r[st.b as usize];
            }
            r[h] = x;
        }
        r[0] = s[n];
    }
    t_arg
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn e000_is_gaussian_product_prefactor() {
        let (a, b, ax, bx) = (0.8, 1.3, 0.0, 1.5);
        let e = HermiteE::build(0, 0, a, b, ax, bx);
        let mu = a * b / (a + b);
        assert!((e.at(0, 0, 0) - (-mu * 2.25).exp()).abs() < 1e-15);
    }

    #[test]
    fn overlap_from_e_matches_closed_form_ss() {
        // S = E_0^{00}(x)·E_0^{00}(y)·E_0^{00}(z) · (π/p)^{3/2}
        let (a, b) = (0.7, 0.9);
        let (pa, pb) = ([0.1, -0.2, 0.3], [1.0, 0.5, -0.4]);
        let p = a + b;
        let mut s = (PI / p).powf(1.5);
        for d in 0..3 {
            s *= HermiteE::build(0, 0, a, b, pa[d], pb[d]).at(0, 0, 0);
        }
        let mu = a * b / p;
        let r2: f64 = (0..3).map(|d| (pa[d] - pb[d]) * (pa[d] - pb[d])).sum();
        let expected = (PI / p).powf(1.5) * (-mu * r2).exp();
        assert!((s - expected).abs() < 1e-14);
    }

    #[test]
    fn e_sum_rule_same_center() {
        // For A == B, E_t^{ij} with t = 0 equals the 1D same-center
        // overlap moment ⟨x^{i+j}⟩-type coefficient; spot check i=j=1:
        // E_0^{11} = 1/(2p).
        let (a, b) = (1.1, 0.6);
        let e = HermiteE::build(1, 1, a, b, 0.0, 0.0);
        assert!((e.at(1, 1, 0) - 0.5 / (a + b)).abs() < 1e-15);
        // And E_2^{11} = (1/(2p))² · … the top coefficient is always
        // (1/(2p))^{i+j} when centers coincide.
        assert!((e.at(1, 1, 2) - (0.5 / (a + b)).powi(2)).abs() < 1e-15);
    }

    #[test]
    fn e_top_coefficient_general() {
        // E_{i+j}^{ij} = (1/(2p))^{i+j} · E_0^{00} holds for any centers.
        let (a, b, ax, bx) = (0.9, 1.7, -0.3, 0.8);
        let e = HermiteE::build(2, 2, a, b, ax, bx);
        let k = e.at(0, 0, 0);
        let h = 0.5 / (a + b);
        for (i, j) in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)] {
            let top = e.at(i, j, i + j);
            assert!(
                (top - k * h.powi((i + j) as i32)).abs() < 1e-14,
                "i={i} j={j}: {top}"
            );
        }
    }

    #[test]
    fn out_of_range_t_reads_zero() {
        let e = HermiteE::build(1, 1, 1.0, 1.0, 0.0, 0.0);
        assert_eq!(e.at(1, 1, 3), 0.0);
    }

    #[test]
    fn r000_at_zero_distance() {
        // R⁰_{000} = F_0(0) = 1 regardless of alpha.
        let r = hermite_r(0, 0.75, 0.0, 0.0, 0.0);
        assert!((r[r_index(0, 0, 0, 0)] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        // Warm the scratch with a high order, then compute lower
        // orders: stale tail entries must never leak into indexed
        // reads, and reuse must be bit-identical to a fresh buffer.
        let mut s = RScratch::new();
        hermite_r_into(&mut s, 4, 0.9, 0.3, -0.7, 0.5);
        for l in [0usize, 1, 2, 3] {
            hermite_r_into(&mut s, l, 0.6, 0.4, 0.1, -0.2);
            let fresh = hermite_r(l, 0.6, 0.4, 0.1, -0.2);
            for t in 0..=l {
                for u in 0..=(l - t) {
                    for v in 0..=(l - t - u) {
                        assert_eq!(
                            s.r()[r_index(l, t, u, v)],
                            fresh[r_index(l, t, u, v)],
                            "l={l} ({t},{u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hermite_component_tables_enumerate_the_simplex() {
        for l in 0..=2 * PAIR_L_MAX {
            let comps = hermite_components(l);
            assert_eq!(comps.len(), hermite_count(l), "l={l}");
            // Every triple valid, distinct, and in ascending-total order.
            let mut last_total = 0;
            let mut seen = std::collections::HashSet::new();
            for (h, &(t, u, v)) in comps.iter().enumerate() {
                assert_eq!(hermite_index(t, u, v), h, "l={l} ({t},{u},{v})");
                assert!(t + u + v <= l);
                assert!(t + u + v >= last_total, "order regressed at l={l}");
                last_total = t + u + v;
                assert!(seen.insert((t, u, v)), "duplicate ({t},{u},{v})");
            }
        }
    }

    #[test]
    fn comb_table_matches_direct_hermite_index() {
        for lb in 0..=PAIR_L_MAX {
            for lk in 0..=PAIR_L_MAX {
                let tab = hermite_comb_table(lb, lk);
                let bras = hermite_components(lb);
                let kets = hermite_components(lk);
                assert_eq!(tab.len(), bras.len() * kets.len());
                for (hb, &(t, u, v)) in bras.iter().enumerate() {
                    for (hk, &(tau, nu, phi)) in kets.iter().enumerate() {
                        let expect = hermite_index(t + tau, u + nu, v + phi);
                        assert_eq!(
                            tab[hb * kets.len() + hk] as usize,
                            expect,
                            "({lb},{lk}) hb={hb} hk={hk}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simplex_r_matches_generic_recursion() {
        // The specialised front end against the oracle, every order the
        // tables cover, T from the coincident-centre limit through the
        // tabulated range and past the large-T crossover; zero,
        // axis-aligned and general displacements. Compared per total
        // order, relative to that layer's largest entry.
        let dirs = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0],
            [0.6, -0.48, 0.64],
        ];
        let mut oracle = RScratch::new();
        let mut r = [0.0; R_SIMPLEX_LEN];
        for l in 0..=2 * PAIR_L_MAX {
            for &alpha in &[0.35f64, 1.7, 60.0] {
                for &t_want in &[0.0f64, 1e-14, 0.03, 2.5, 17.0, 35.99, 36.0, 41.0, 100.0] {
                    for dir in dirs {
                        let len = (t_want / alpha).sqrt();
                        let d = dir.map(|x| x * len);
                        let scale = 1.75;
                        let t_got = hermite_r_simplex(l, alpha, scale, d[0], d[1], d[2], &mut r);
                        hermite_r_into(&mut oracle, l, alpha, d[0], d[1], d[2]);
                        let norm2: f64 = d.iter().map(|x| x * x).sum();
                        assert_eq!(t_got, alpha * norm2);
                        let mut layer_max = vec![0.0f64; l + 1];
                        for &(t, u, v) in hermite_components(l) {
                            let want = scale * oracle.r()[r_index(l, t, u, v)];
                            layer_max[t + u + v] = layer_max[t + u + v].max(want.abs());
                        }
                        for (h, &(t, u, v)) in hermite_components(l).iter().enumerate() {
                            let want = scale * oracle.r()[r_index(l, t, u, v)];
                            assert!(
                                (r[h] - want).abs() <= 1e-13 * layer_max[t + u + v],
                                "l={l} α={alpha} T={t_want} d={d:?} ({t},{u},{v}): {} vs {want}",
                                r[h]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn r_first_derivatives_are_odd() {
        // R_{100} is the x-derivative of R_{000} → antisymmetric in dx.
        let l = 1;
        let rp = hermite_r(l, 0.6, 0.9, 0.2, -0.1);
        let rm = hermite_r(l, 0.6, -0.9, 0.2, -0.1);
        let t = r_index(l, 1, 0, 0);
        assert!((rp[t] + rm[t]).abs() < 1e-14);
        // while R_{000} is even.
        let o = r_index(l, 0, 0, 0);
        assert!((rp[o] - rm[o]).abs() < 1e-14);
    }

    #[test]
    fn r100_matches_finite_difference() {
        // R_{100}(d) = ∂/∂dx R_{000}(d); check with central differences.
        let alpha = 0.8;
        let (dx, dy, dz) = (0.7, -0.3, 0.45);
        let h = 1e-5;
        let r0 = |x: f64| {
            let t = hermite_r(0, alpha, x, dy, dz);
            t[r_index(0, 0, 0, 0)]
        };
        let fd = (r0(dx + h) - r0(dx - h)) / (2.0 * h);
        let r = hermite_r(1, alpha, dx, dy, dz);
        assert!(
            (r[r_index(1, 1, 0, 0)] - fd).abs() < 1e-8,
            "{} vs {}",
            r[r_index(1, 1, 0, 0)],
            fd
        );
    }

    #[test]
    fn r_mixed_second_derivative_fd() {
        // R_{110} = ∂²/∂dx∂dy R_{000}.
        let alpha = 1.1;
        let (dx, dy, dz) = (0.4, 0.6, -0.2);
        let h = 1e-4;
        let r0 = |x: f64, y: f64| {
            let t = hermite_r(0, alpha, x, y, dz);
            t[r_index(0, 0, 0, 0)]
        };
        let fd = (r0(dx + h, dy + h) - r0(dx + h, dy - h) - r0(dx - h, dy + h)
            + r0(dx - h, dy - h))
            / (4.0 * h * h);
        let r = hermite_r(2, alpha, dx, dy, dz);
        assert!((r[r_index(2, 1, 1, 0)] - fd).abs() < 1e-6);
    }
}
