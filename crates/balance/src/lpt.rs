//! Greedy Longest-Processing-Time (LPT) list scheduling.
//!
//! The classical baseline: sort tasks by decreasing weight and assign
//! each to the currently least-loaded worker. Guarantees makespan
//! ≤ (4/3 − 1/(3p))·OPT and runs in `O(n log n + n log p)` — the cheap
//! end of the cost/quality spectrum against which semi-matching and
//! hypergraph partitioning are compared.

use crate::problem::{Assignment, Problem};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordered-float wrapper so worker loads can live in a heap.
#[derive(PartialEq)]
struct Load(f64, u32);

impl Eq for Load {}

impl PartialOrd for Load {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Load {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: by load, then worker id for determinism.
        self.0
            .partial_cmp(&other.0)
            .expect("NaN load")
            .then(self.1.cmp(&other.1))
    }
}

/// Computes an LPT assignment.
pub fn lpt(problem: &Problem) -> Assignment {
    let n = problem.ntasks();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        problem.weights[b]
            .partial_cmp(&problem.weights[a])
            .expect("NaN weight")
            .then(a.cmp(&b))
    });

    let mut heap: BinaryHeap<Reverse<Load>> = (0..problem.workers as u32)
        .map(|w| Reverse(Load(0.0, w)))
        .collect();
    let mut assignment = vec![0u32; n];
    for t in order {
        let Reverse(Load(load, w)) = heap.pop().expect("non-empty heap");
        assignment[t] = w;
        heap.push(Reverse(Load(load + problem.weights[t], w)));
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::is_valid;

    #[test]
    fn classic_lpt_trap() {
        // LPT lands on (7,5) here; the optimum (6,6) needs a swap —
        // which is exactly what semi-matching refinement adds on top.
        let p = Problem::new(vec![3.0, 3.0, 2.0, 2.0, 2.0], 2);
        let a = lpt(&p);
        assert!(is_valid(&a, 5, 2));
        assert_eq!(p.makespan(&a), 7.0);
    }

    #[test]
    fn perfect_split_found_when_greedy_suffices() {
        let p = Problem::new(vec![4.0, 3.0, 3.0, 2.0], 2);
        let a = lpt(&p);
        assert_eq!(p.makespan(&a), 6.0); // {4,2} vs {3,3}
    }

    #[test]
    fn single_worker_gets_everything() {
        let p = Problem::new(vec![1.0, 2.0, 3.0], 1);
        let a = lpt(&p);
        assert!(a.iter().all(|&w| w == 0));
        assert_eq!(p.makespan(&a), 6.0);
    }

    #[test]
    fn respects_two_times_lower_bound() {
        // List scheduling guarantee: C ≤ LB + max ≤ 2·LB.
        for seed in 0..20u64 {
            let weights: Vec<f64> = (0..50)
                .map(|i| (((seed.wrapping_mul(31) + i) % 97) as f64 + 1.0).powi(2))
                .collect();
            let p = Problem::new(weights, 7);
            let a = lpt(&p);
            assert!(
                p.makespan(&a) <= 2.0 * p.lower_bound() + 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let p = Problem::new(vec![5.0, 5.0, 5.0, 1.0], 2);
        assert_eq!(lpt(&p), lpt(&p));
    }

    #[test]
    fn zero_weight_tasks_allowed() {
        let p = Problem::new(vec![0.0, 0.0, 1.0], 2);
        let a = lpt(&p);
        assert!(is_valid(&a, 3, 2));
        assert_eq!(p.makespan(&a), 1.0);
    }

    #[test]
    fn empty_task_list() {
        let p = Problem::new(vec![], 3);
        assert!(lpt(&p).is_empty());
    }
}
