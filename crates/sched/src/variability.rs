//! Performance-variability injection.
//!
//! The paper's closing observation is that emerging platforms exhibit
//! *energy-induced performance variability*: nominally identical cores
//! run at different effective speeds (power capping, thermal throttling,
//! DVFS). This module models such variability as a per-worker,
//! possibly time-varying *slowdown factor* ≥ 1, a pure function of
//! (worker, P, t). The thread executor stretches each task by
//! `factor − 1` of its measured duration, which is exactly what a
//! proportionally slower core would do; the simulator scales each
//! task's virtual duration by the same factor.

use crate::rng::mix64;
use std::time::Duration;

/// A per-worker slowdown model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variability {
    /// All cores at nominal speed.
    None,
    /// Each worker gets a fixed factor drawn uniformly from
    /// `[1, 1+spread]` (hashed from `seed`, reproducible).
    PerCoreUniform {
        /// Maximum extra slowdown (0.5 → worst core runs at ⅔ speed).
        spread: f64,
        /// Deterministic seed.
        seed: u64,
    },
    /// `count` workers run `factor`× slower; the rest at nominal speed.
    /// Models a few power-capped/throttled cores.
    SlowCores {
        /// Slowdown of the affected cores (≥ 1).
        factor: f64,
        /// How many cores are affected (the lowest worker ids).
        count: usize,
    },
    /// Sinusoidal DVFS-like oscillation: the factor swings between 1 and
    /// `1 + amplitude` with the given period; phases are staggered per
    /// worker so cores are never all slow simultaneously.
    Sinusoidal {
        /// Peak extra slowdown.
        amplitude: f64,
        /// Oscillation period.
        period: Duration,
    },
}

impl Variability {
    /// Slowdown factor (≥ 1) for `worker` of `nworkers` at offset `now`
    /// from run start.
    pub fn factor(&self, worker: usize, nworkers: usize, now: Duration) -> f64 {
        match *self {
            Variability::None => 1.0,
            Variability::PerCoreUniform { spread, seed } => {
                1.0 + spread * unit_hash(seed, worker as u64)
            }
            Variability::SlowCores { factor, count } => {
                if worker < count.min(nworkers) {
                    factor.max(1.0)
                } else {
                    1.0
                }
            }
            Variability::Sinusoidal { amplitude, period } => {
                let p = period.as_secs_f64().max(1e-9);
                let phase = worker as f64 / nworkers.max(1) as f64 * std::f64::consts::TAU;
                let s = (now.as_secs_f64() / p * std::f64::consts::TAU + phase).sin();
                1.0 + amplitude * 0.5 * (1.0 + s)
            }
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Variability::None => "none",
            Variability::PerCoreUniform { .. } => "per-core-uniform",
            Variability::SlowCores { .. } => "slow-cores",
            Variability::Sinusoidal { .. } => "sinusoidal-dvfs",
        }
    }
}

/// Deterministic hash of `(seed, x)` to `[0, 1)`: the per-core factors
/// here and the poison draws of `emx-runtime`'s fault injection both
/// read it.
pub fn unit_hash(seed: u64, x: u64) -> f64 {
    let z = mix64(seed.wrapping_add(x.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_unity() {
        assert_eq!(Variability::None.factor(3, 8, Duration::from_secs(1)), 1.0);
    }

    #[test]
    fn per_core_uniform_in_range_and_deterministic() {
        let v = Variability::PerCoreUniform {
            spread: 0.5,
            seed: 42,
        };
        for w in 0..16 {
            let f = v.factor(w, 16, Duration::ZERO);
            assert!((1.0..=1.5).contains(&f), "factor {f}");
            assert_eq!(f, v.factor(w, 16, Duration::from_secs(9)), "time-invariant");
        }
        // Different workers get different factors (overwhelmingly).
        let f0 = v.factor(0, 16, Duration::ZERO);
        let f1 = v.factor(1, 16, Duration::ZERO);
        assert_ne!(f0, f1);
    }

    #[test]
    fn slow_cores_affects_prefix_only() {
        let v = Variability::SlowCores {
            factor: 2.0,
            count: 2,
        };
        assert_eq!(v.factor(0, 8, Duration::ZERO), 2.0);
        assert_eq!(v.factor(1, 8, Duration::ZERO), 2.0);
        assert_eq!(v.factor(2, 8, Duration::ZERO), 1.0);
    }

    #[test]
    fn slow_cores_clamps_below_one() {
        let v = Variability::SlowCores {
            factor: 0.5,
            count: 1,
        };
        assert_eq!(v.factor(0, 4, Duration::ZERO), 1.0);
    }

    #[test]
    fn sinusoidal_bounds_and_time_dependence() {
        let v = Variability::Sinusoidal {
            amplitude: 0.8,
            period: Duration::from_millis(100),
        };
        for w in 0..4 {
            for ms in [0u64, 13, 27, 50, 77, 99] {
                let f = v.factor(w, 4, Duration::from_millis(ms));
                assert!((1.0..=1.8 + 1e-12).contains(&f), "factor {f}");
            }
        }
        // Quarter period apart (sin 0 vs sin π/2) — must differ.
        let a = v.factor(0, 4, Duration::from_millis(0));
        let b = v.factor(0, 4, Duration::from_millis(25));
        assert!((a - b).abs() > 1e-6, "must vary over time");
    }

    #[test]
    fn unit_hash_is_uniformish() {
        let vals: Vec<f64> = (0..1000).map(|i| unit_hash(7, i)).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        assert!(vals.iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
