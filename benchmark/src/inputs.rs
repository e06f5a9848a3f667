//! Seeded task-cost vectors for the simulator and balancer workloads.
//!
//! The *set* of costs is the same at every seed and the seed only
//! places them: the total work, the skew and the heaviest task — which
//! decides an endgame — then stay put, and what differs from seed to
//! seed is what a scheduler cannot know in advance. Drawing the values
//! themselves per seed moved the simulator's host time by several per
//! cent between seeds, which is the input's doing and not the host's.

use emx_chem::synthetic::{generate_costs, CostModel};
use emx_sched::SplitMix64;

/// `n` log-normal values `exp(σ·z)`, the same at every call.
pub fn lognormal(n: usize, sigma: f64) -> Vec<f64> {
    generate_costs(CostModel::LogNormal { mu: 0.0, sigma }, n, 0)
}

/// Fisher–Yates shuffle of `v` by `seed`.
pub fn shuffled(mut v: Vec<f64>, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..v.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_permute_one_set_of_costs() {
        let base = lognormal(500, 1.3);
        assert!(base.iter().all(|c| c.is_finite() && *c > 0.0));
        let (a, b) = (shuffled(base.clone(), 1), shuffled(base.clone(), 2));
        assert_ne!(a, b, "different seeds place the costs differently");
        assert_eq!(a, shuffled(base.clone(), 1), "same seed, same input");
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(sorted(a), sorted(base), "the set itself is untouched");
    }
}
