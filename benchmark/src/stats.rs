//! Sample summaries: median, min, max, count — and no tail percentile
//! unless at least ten samples lie beyond it.

/// A percentile is reported only when ten samples lie beyond it. With
/// 21 samples that percentile is the median itself, so below 21 there
/// is no tail to claim; the arms here collect fewer than that in a run
/// and the output says so rather than printing a p95 it cannot support.
pub const MIN_SAMPLES_FOR_TAIL: usize = 21;
const SAMPLES_BEYOND_TAIL: usize = 10;

/// Summary of one timed arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    /// Highest percentile with ten samples beyond it, as `(percentile,
    /// value)`; `None` below [`MIN_SAMPLES_FOR_TAIL`] samples.
    pub tail: Option<(f64, f64)>,
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: an arm that collected no sample is a bug
/// in the harness, not a measurement.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = (v.len() >= MIN_SAMPLES_FOR_TAIL).then(|| {
        let rank = v.len() - SAMPLES_BEYOND_TAIL;
        (100.0 * rank as f64 / v.len() as f64, v[rank - 1])
    });
    Summary {
        median: median(&v),
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
        tail,
    }
}

/// Sample standard deviation over mean (0 for fewer than two values).
pub fn coeff_of_variation(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn no_tail_percentile_below_21_samples() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&twenty).tail, None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&hundred).tail, Some((90.0, 90.0)));
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(coeff_of_variation(&[2.0, 2.0, 2.0]), 0.0);
        assert!(coeff_of_variation(&[1.0, 3.0]) > 0.5);
    }
}
