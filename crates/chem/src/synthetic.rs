//! Synthetic surrogate workloads calibrated to the chemistry kernel.
//!
//! The real Fock build is the ground truth, but sweeping execution
//! models over hundreds of configurations with real integrals would be
//! needlessly slow. This module generates task-cost vectors whose
//! *distribution* matches what the inspector measures on the real kernel
//! (heavily right-skewed, approximately log-normal with a long tail).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Families of synthetic task-cost distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostModel {
    /// All tasks cost exactly `scale`.
    Uniform {
        /// The constant cost.
        scale: f64,
    },
    /// Log-normal with the given log-mean and log-stddev — the shape the
    /// screened Fock build exhibits.
    LogNormal {
        /// Mean of ln(cost).
        mu: f64,
        /// Stddev of ln(cost).
        sigma: f64,
    },
    /// Discrete Pareto-ish tail: `cost = scale / u^{1/alpha}` for
    /// uniform `u` — a few giant tasks among many small ones.
    ParetoTail {
        /// Scale of the smallest tasks.
        scale: f64,
        /// Tail exponent; smaller = heavier tail.
        alpha: f64,
    },
    /// Triangular ramp `1..=n` like the triangular quartet loop of the
    /// unchunked Fock build (task `i` covers `i+1` ket pairs).
    Triangular {
        /// Cost multiplier.
        scale: f64,
    },
}

/// Generates `n` task costs from the model, deterministically from
/// `seed`.
pub fn generate_costs(model: CostModel, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_57_5e_ed);
    match model {
        CostModel::Uniform { scale } => vec![scale; n],
        CostModel::LogNormal { mu, sigma } => (0..n)
            .map(|_| {
                let z = standard_normal(&mut rng);
                (mu + sigma * z).exp()
            })
            .collect(),
        CostModel::ParetoTail { scale, alpha } => (0..n)
            .map(|_| {
                let u: f64 = rng.random_range(1e-9..1.0);
                scale / u.powf(1.0 / alpha)
            })
            .collect(),
        CostModel::Triangular { scale } => (0..n).map(|i| scale * (i + 1) as f64).collect(),
    }
}

/// Box–Muller standard normal deviate.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::CostStats;

    #[test]
    fn uniform_generates_constant() {
        let c = generate_costs(CostModel::Uniform { scale: 3.5 }, 10, 1);
        assert!(c.iter().all(|&v| v == 3.5));
    }

    #[test]
    fn generation_is_deterministic() {
        let m = CostModel::LogNormal {
            mu: 2.0,
            sigma: 1.0,
        };
        assert_eq!(generate_costs(m, 100, 9), generate_costs(m, 100, 9));
        assert_ne!(generate_costs(m, 100, 9), generate_costs(m, 100, 10));
    }

    #[test]
    fn lognormal_moments_roughly_match() {
        let (mu, sigma) = (1.5, 0.8);
        let c = generate_costs(CostModel::LogNormal { mu, sigma }, 20_000, 3);
        let logs: Vec<f64> = c.iter().map(|v| v.ln()).collect();
        let m = logs.iter().sum::<f64>() / logs.len() as f64;
        let v = logs.iter().map(|l| (l - m) * (l - m)).sum::<f64>() / logs.len() as f64;
        assert!((m - mu).abs() < 0.05, "mu {m}");
        assert!((v.sqrt() - sigma).abs() < 0.05, "sigma {}", v.sqrt());
    }

    #[test]
    fn pareto_is_heavier_tailed_than_lognormal() {
        let p = generate_costs(
            CostModel::ParetoTail {
                scale: 1.0,
                alpha: 1.2,
            },
            5_000,
            4,
        );
        let l = generate_costs(
            CostModel::LogNormal {
                mu: 0.0,
                sigma: 0.5,
            },
            5_000,
            4,
        );
        assert!(CostStats::from_costs(&p).max_over_mean > CostStats::from_costs(&l).max_over_mean);
    }

    #[test]
    fn triangular_ramp() {
        let c = generate_costs(CostModel::Triangular { scale: 2.0 }, 4, 0);
        assert_eq!(c, vec![2.0, 4.0, 6.0, 8.0]);
    }
}
