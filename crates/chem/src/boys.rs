//! The Boys function `F_m(T)`.
//!
//! Every Coulomb-type Gaussian integral (nuclear attraction, electron
//! repulsion) reduces to the Boys function
//!
//! ```text
//! F_m(T) = ∫₀¹ t^{2m} exp(-T t²) dt
//! ```
//!
//! We evaluate it with the classic three-regime scheme:
//!
//! * `T ≈ 0` — exact limit `F_m(0) = 1/(2m+1)`.
//! * moderate `T` — convergent series for the *highest* required order
//!   followed by stable **downward** recursion
//!   `F_m = (2T·F_{m+1} + e^{-T}) / (2m+1)`.
//! * large `T` — asymptotic `F_0 ≈ ½√(π/T)` (the `erf` factor is 1 to
//!   machine precision for `T > 36`) followed by stable **upward**
//!   recursion `F_{m+1} = ((2m+1)F_m − e^{-T}) / (2T)`.

/// Threshold below which `T` is treated as zero.
pub(crate) const T_TINY: f64 = 1e-13;
/// Crossover from series+downward to asymptotic+upward evaluation.
pub(crate) const T_LARGE: f64 = 36.0;

/// Evaluates `F_m(T)` for all orders `0..=m_max`, writing into `out`
/// (which must have length `m_max + 1`).
///
/// This is the workhorse used by the integral kernels: they always need
/// a contiguous ladder of orders, and computing the ladder costs barely
/// more than a single order.
pub fn boys_ladder(m_max: usize, t: f64, out: &mut [f64]) {
    assert!(
        out.len() == m_max + 1,
        "boys_ladder: out length {} != m_max+1 {}",
        out.len(),
        m_max + 1
    );
    debug_assert!(t >= 0.0, "Boys function argument must be non-negative");

    if t < T_TINY {
        for (m, o) in out.iter_mut().enumerate() {
            *o = 1.0 / (2 * m + 1) as f64;
        }
        return;
    }

    let emt = (-t).exp();
    if t < T_LARGE {
        // Series for the top order:
        //   F_m(T) = e^{-T} Σ_{i≥0} (2T)^i / ((2m+1)(2m+3)…(2m+2i+1))
        let mut term = 1.0 / (2 * m_max + 1) as f64;
        let mut sum = term;
        let mut denom = (2 * m_max + 1) as f64;
        for _ in 0..200 {
            denom += 2.0;
            term *= 2.0 * t / denom;
            sum += term;
            if term < sum * 1e-17 {
                break;
            }
        }
        out[m_max] = emt * sum;
        // Downward recursion (numerically stable in this direction).
        for m in (0..m_max).rev() {
            out[m] = (2.0 * t * out[m + 1] + emt) / (2 * m + 1) as f64;
        }
    } else {
        // erf(√T) = 1 to machine precision here.
        out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
        // Upward recursion (stable for large T).
        for m in 0..m_max {
            out[m + 1] = ((2 * m + 1) as f64 * out[m] - emt) / (2.0 * t);
        }
    }
}

/// Evaluates a single `F_m(T)`.
pub fn boys(m: usize, t: f64) -> f64 {
    let mut buf = vec![0.0; m + 1];
    boys_ladder(m, t, &mut buf);
    buf[m]
}

// ---------------------------------------------------------------------
// Tabulated fast path
// ---------------------------------------------------------------------

/// Grid spacing of the precomputed table (1/16 keeps |δ| ≤ 1/32, so a
/// 7-term Taylor step is accurate to ~7e-15 — below every kernel
/// tolerance in the crate).
const TAB_STEP: f64 = 0.0625;
const TAB_INV_STEP: f64 = 16.0;
/// Highest order the tabulated path serves (an spdf quartet needs
/// `4·l_shell ≤ 12`; 16 leaves headroom). Higher orders fall back to
/// the exact ladder.
const TAB_M_MAX: usize = 16;
/// Taylor terms per evaluation; the table stores `TAB_M_MAX +
/// TAB_TERMS` orders per grid point so every served order has a full
/// derivative ladder above it.
const TAB_TERMS: usize = 7;
/// Orders stored per grid point.
const TAB_ROW: usize = TAB_M_MAX + TAB_TERMS;
/// Grid points covering `[0, T_LARGE]` inclusive.
const TAB_POINTS: usize = (T_LARGE as usize) * 16 + 1;

/// 1/k! for the Taylor step.
const INV_FACT: [f64; TAB_TERMS] = [
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
];

/// The process-wide Boys table: `F_m(T)` on a uniform grid over
/// `[0, 36]` for `m ≤ TAB_ROW−1`, built once from the exact ladder
/// (so the tabulated path is anchored to the reference implementation)
/// and shared by every shell pair and worker thread thereafter.
fn boys_table() -> &'static [f64] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut values = vec![0.0; TAB_POINTS * TAB_ROW];
        for (i, row) in values.chunks_mut(TAB_ROW).enumerate() {
            boys_ladder(TAB_ROW - 1, i as f64 * TAB_STEP, row);
        }
        values
    })
}

/// Tabulated `boys_ladder`: identical contract, served from the
/// precomputed grid via a 7-term downward Taylor step
/// `F_m(T) = Σ_k F_{m+k}(T₀)·(T₀−T)^k/k!` (using `F_m' = −F_{m+1}`).
///
/// Agrees with [`boys_ladder`] to ~1e-14 on the tabulated domain
/// (`T < 36`, `m_max ≤ 16`) and falls back to it exactly outside. This
/// is the hot-path entry point: it never calls `exp()` and touches one
/// cache-resident table row per evaluation.
#[inline(always)]
pub fn boys_ladder_cached(m_max: usize, t: f64, out: &mut [f64]) {
    if m_max == 0 && t >= T_LARGE {
        // `boys_ladder`'s large-T value, without the e^{-T} that only its
        // upward recursion reads.
        out[0] = 0.5 * (std::f64::consts::PI / t).sqrt();
        return;
    }
    if !(T_TINY..T_LARGE).contains(&t) || m_max > TAB_M_MAX {
        boys_ladder(m_max, t, out);
        return;
    }
    assert!(
        out.len() == m_max + 1,
        "boys_ladder_cached: out length {} != m_max+1 {}",
        out.len(),
        m_max + 1
    );
    let table = boys_table();
    let i = (t * TAB_INV_STEP + 0.5) as usize;
    let dt = i as f64 * TAB_STEP - t; // |dt| ≤ step/2
    let row = &table[i * TAB_ROW..(i + 1) * TAB_ROW];
    for (m, o) in out.iter_mut().enumerate() {
        // Horner over Σ_k row[m+k]·dt^k/k!.
        let mut acc = row[m + TAB_TERMS - 1] * INV_FACT[TAB_TERMS - 1];
        for k in (0..TAB_TERMS - 1).rev() {
            acc = acc * dt + row[m + k] * INV_FACT[k];
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference via adaptive Simpson on the defining integral.
    fn boys_quadrature(m: usize, t: f64) -> f64 {
        let f = |x: f64| x.powi(2 * m as i32) * (-t * x * x).exp();
        let n = 20_000;
        let h = 1.0 / n as f64;
        let mut s = f(0.0) + f(1.0);
        for i in 1..n {
            let x = i as f64 * h;
            s += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
        }
        s * h / 3.0
    }

    #[test]
    fn zero_argument_limits() {
        for m in 0..12 {
            assert_eq!(boys(m, 0.0), 1.0 / (2 * m + 1) as f64);
        }
    }

    #[test]
    fn matches_quadrature_small_t() {
        for &t in &[0.001, 0.1, 0.5, 1.0, 3.0, 7.5] {
            for m in 0..8 {
                let ours = boys(m, t);
                let reference = boys_quadrature(m, t);
                assert!(
                    (ours - reference).abs() < 1e-10,
                    "m={m} t={t}: {ours} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn matches_quadrature_across_crossover() {
        for &t in &[20.0, 34.0, 35.9, 36.1, 40.0, 80.0] {
            for m in 0..6 {
                let ours = boys(m, t);
                let reference = boys_quadrature(m, t);
                assert!(
                    (ours - reference).abs() < 1e-11 * (1.0 + reference.abs()),
                    "m={m} t={t}: {ours} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn f0_closed_form() {
        // F_0(T) = ½ √(π/T) erf(√T); spot-check at T where erf ≈ 1.
        let t = 49.0;
        let expected = 0.5 * (std::f64::consts::PI / t).sqrt();
        assert!((boys(0, t) - expected).abs() < 1e-14);
    }

    #[test]
    fn ladder_consistent_with_scalar() {
        let mut buf = vec![0.0; 9];
        boys_ladder(8, 4.2, &mut buf);
        for (m, &v) in buf.iter().enumerate() {
            assert!((v - boys(m, 4.2)).abs() < 1e-15);
        }
    }

    #[test]
    fn recursion_identity_holds() {
        // (2m+1) F_m(T) = 2T F_{m+1}(T) + e^{-T}
        for &t in &[0.3, 5.0, 33.0, 50.0] {
            for m in 0..7 {
                let lhs = (2 * m + 1) as f64 * boys(m, t);
                let rhs = 2.0 * t * boys(m + 1, t) + (-t).exp();
                assert!((lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()), "m={m} t={t}");
            }
        }
    }

    #[test]
    fn cached_matches_exact_over_tabulated_domain() {
        // Sweep T off-grid (worst-case Taylor distance) and on-grid.
        let mut exact = vec![0.0; TAB_M_MAX + 1];
        let mut cached = vec![0.0; TAB_M_MAX + 1];
        let mut t = 1e-3;
        while t < 36.0 {
            boys_ladder(TAB_M_MAX, t, &mut exact);
            boys_ladder_cached(TAB_M_MAX, t, &mut cached);
            for m in 0..=TAB_M_MAX {
                assert!(
                    (exact[m] - cached[m]).abs() < 1e-13 * (1.0 + exact[m].abs()),
                    "m={m} t={t}: {} vs {}",
                    cached[m],
                    exact[m]
                );
            }
            t *= 1.37; // irrational-ish stride: lands between grid points
            t += 0.013;
        }
    }

    #[test]
    fn cached_falls_back_outside_table() {
        // Large T, tiny T and high m all route to the exact ladder.
        for &(m_max, t) in &[(3usize, 50.0), (0, 50.0), (3, 1e-15), (TAB_M_MAX + 4, 5.0)] {
            let mut a = vec![0.0; m_max + 1];
            let mut b = vec![0.0; m_max + 1];
            boys_ladder(m_max, t, &mut a);
            boys_ladder_cached(m_max, t, &mut b);
            assert_eq!(
                a, b,
                "fallback must be bit-identical (m_max={m_max}, t={t})"
            );
        }
    }

    #[test]
    fn monotone_decreasing_in_m_and_t() {
        for &t in &[0.5, 10.0, 60.0] {
            for m in 0..6 {
                assert!(boys(m + 1, t) < boys(m, t));
            }
        }
        for m in 0..4 {
            assert!(boys(m, 2.0) < boys(m, 1.0));
        }
    }
}
