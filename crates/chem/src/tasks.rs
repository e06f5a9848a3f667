//! Task-cost statistics and workload characterization.
//!
//! The execution-model experiments all hinge on properties of the task
//! cost distribution: total work, skew, and how many units there are
//! relative to worker count. This module computes the standard
//! imbalance statistics the paper discusses (max/mean ratio, coefficient
//! of variation, Gini coefficient) from either inspector estimates or
//! measured costs.

/// Summary statistics of a task-cost distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CostStats {
    /// Number of tasks.
    pub count: usize,
    /// Sum of costs.
    pub total: f64,
    /// Smallest cost.
    pub min: f64,
    /// Largest cost.
    pub max: f64,
    /// Mean cost.
    pub mean: f64,
    /// Max-to-mean ratio — the lower bound on static imbalance when one
    /// task dominates a processor.
    pub max_over_mean: f64,
    /// Coefficient of variation (σ/μ).
    pub cv: f64,
    /// Gini coefficient in [0, 1): 0 = perfectly uniform costs.
    pub gini: f64,
}

impl CostStats {
    /// Computes statistics from a slice of non-negative costs.
    ///
    /// Returns a zeroed struct for an empty slice — callers treat that
    /// as "no work" rather than an error.
    pub fn from_costs(costs: &[f64]) -> CostStats {
        let count = costs.len();
        if count == 0 {
            return CostStats {
                count: 0,
                total: 0.0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                max_over_mean: 0.0,
                cv: 0.0,
                gini: 0.0,
            };
        }
        debug_assert!(
            costs.iter().all(|&c| c >= 0.0),
            "costs must be non-negative"
        );
        let total: f64 = costs.iter().sum();
        let mean = total / count as f64;
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let var = costs.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / count as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

        // Gini via the sorted-rank formula.
        let mut sorted = costs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN cost"));
        let gini = if total > 0.0 {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &c)| (2.0 * (i as f64 + 1.0) - count as f64 - 1.0) * c)
                .sum();
            weighted / (count as f64 * total)
        } else {
            0.0
        };
        CostStats {
            count,
            total,
            min,
            max,
            mean,
            max_over_mean: if mean > 0.0 { max / mean } else { 0.0 },
            cv,
            gini,
        }
    }
}

/// The theoretical makespan lower bound for `p` workers:
/// `max(total/p, max_task)`.
pub fn makespan_lower_bound(costs: &[f64], p: usize) -> f64 {
    assert!(p > 0, "need at least one worker");
    let total: f64 = costs.iter().sum();
    let max = costs.iter().cloned().fold(0.0, f64::max);
    (total / p as f64).max(max)
}

/// Load imbalance of an assignment: `max_load / mean_load` (1.0 is
/// perfect). `loads` are per-worker summed costs.
pub fn imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let total: f64 = loads.iter().sum();
    let mean = total / loads.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    loads.iter().cloned().fold(0.0, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_costs_have_zero_skew() {
        let s = CostStats::from_costs(&[2.0; 10]);
        assert_eq!(s.count, 10);
        assert_eq!(s.total, 20.0);
        assert_eq!(s.max_over_mean, 1.0);
        assert!(s.cv.abs() < 1e-12);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn single_dominant_task() {
        let mut costs = vec![1.0; 99];
        costs.push(1000.0);
        let s = CostStats::from_costs(&costs);
        assert!(s.max_over_mean > 50.0);
        assert!(s.gini > 0.8);
    }

    #[test]
    fn empty_costs_are_zeroed() {
        let s = CostStats::from_costs(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.total, 0.0);
        assert_eq!(s.gini, 0.0);
    }

    #[test]
    fn gini_bounds() {
        for costs in [vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 10.0], vec![5.0]] {
            let s = CostStats::from_costs(&costs);
            assert!((0.0..1.0).contains(&s.gini), "gini = {}", s.gini);
        }
    }

    #[test]
    fn gini_known_value() {
        // Two agents, one owns everything: G = 1/2 for n = 2.
        let s = CostStats::from_costs(&[0.0, 1.0]);
        assert!((s.gini - 0.5).abs() < 1e-12);
    }

    #[test]
    fn makespan_bound_picks_max() {
        // A dominant task beats the average bound.
        assert_eq!(makespan_lower_bound(&[1.0, 1.0, 10.0], 4), 10.0);
        // Otherwise total/p dominates.
        assert_eq!(makespan_lower_bound(&[3.0, 3.0, 3.0, 3.0], 2), 6.0);
    }

    #[test]
    fn imbalance_metrics() {
        assert_eq!(imbalance(&[2.0, 2.0, 2.0]), 1.0);
        assert_eq!(imbalance(&[4.0, 0.0]), 2.0);
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
    }
}
