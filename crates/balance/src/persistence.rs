//! Persistence-based (inspector–executor) rebalancing.
//!
//! Iterative applications — SCF is one — execute the *same* task set
//! every iteration, so costs measured in iteration `k` predict iteration
//! `k+1` almost perfectly. The persistence balancer exploits this: keep
//! the previous assignment as the starting point (tasks are "sticky" for
//! locality) and migrate just enough weight from overloaded to
//! underloaded workers to reach a target imbalance.
//!
//! This reproduces the persistence-based load balancers the PNNL line of
//! work pairs with Global Arrays runtimes.

use crate::problem::{Assignment, Problem};

/// Migration stops once `max load ≤ TARGET_IMBALANCE · mean load`.
const TARGET_IMBALANCE: f64 = 1.05;

/// Rebalances `previous` using measured `problem.weights`.
///
/// Greedy donor→acceptor migration: repeatedly take the most-loaded
/// worker and move its best-fitting task (the largest task that does not
/// push the least-loaded worker above the mean) to the least-loaded
/// worker. Stops at the imbalance target or when no move improves the
/// makespan.
pub fn rebalance(problem: &Problem, previous: &[u32]) -> Assignment {
    assert_eq!(
        previous.len(),
        problem.ntasks(),
        "assignment length mismatch"
    );
    let mut assignment = previous.to_vec();
    let mut loads = problem.loads(&assignment);
    let total: f64 = loads.iter().sum();
    if total <= 0.0 {
        return assignment;
    }
    let mean = total / problem.workers as f64;

    // tasks_by_worker, each sorted by ascending weight for binary search.
    let mut tasks_of: Vec<Vec<usize>> = vec![Vec::new(); problem.workers];
    for (t, &w) in assignment.iter().enumerate() {
        tasks_of[w as usize].push(t);
    }
    for list in &mut tasks_of {
        list.sort_by(|&a, &b| {
            problem.weights[a]
                .partial_cmp(&problem.weights[b])
                .expect("NaN weight")
        });
    }

    loop {
        let (hi, lo) = extremes(&loads);
        if loads[hi] <= TARGET_IMBALANCE * mean || hi == lo {
            break;
        }
        // Largest task on `hi` that still helps: moving t helps the
        // makespan iff load(lo) + w_t < load(hi).
        let gap = loads[hi] - loads[lo];
        let candidates = &mut tasks_of[hi];
        // Binary search for the largest weight strictly below `gap`.
        let mut chosen: Option<usize> = None;
        for (pos, &t) in candidates.iter().enumerate().rev() {
            if problem.weights[t] < gap - 1e-12 && problem.weights[t] > 0.0 {
                chosen = Some(pos);
                break;
            }
        }
        let Some(pos) = chosen else { break };
        let t = candidates.remove(pos);
        let w = problem.weights[t];
        assignment[t] = lo as u32;
        loads[hi] -= w;
        loads[lo] += w;
        // Keep the acceptor's list sorted.
        let ins = tasks_of[lo]
            .binary_search_by(|&x| problem.weights[x].partial_cmp(&w).expect("NaN weight"))
            .unwrap_or_else(|e| e);
        tasks_of[lo].insert(ins, t);
    }
    assignment
}

fn extremes(loads: &[f64]) -> (usize, usize) {
    let mut hi = 0;
    let mut lo = 0;
    for (i, &l) in loads.iter().enumerate() {
        if l > loads[hi] {
            hi = i;
        }
        if l < loads[lo] {
            lo = i;
        }
    }
    (hi, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::movement;

    #[test]
    fn balanced_input_is_untouched() {
        let p = Problem::new(vec![1.0; 8], 4);
        let prev = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let out = rebalance(&p, &prev);
        assert_eq!(out, prev);
    }

    #[test]
    fn skewed_input_gets_fixed() {
        // All tasks on worker 0.
        let p = Problem::new(vec![1.0; 12], 3);
        let prev = vec![0; 12];
        let out = rebalance(&p, &prev);
        let loads = p.loads(&out);
        assert!(p.imbalance(&out) <= 1.05, "loads {loads:?}");
    }

    #[test]
    fn minimal_migration_for_small_skew() {
        // Worker 0 has one extra unit task; moving it only swaps the
        // roles, so at most one task moves.
        let p = Problem::new(vec![1.0; 9], 2);
        let prev = vec![0, 0, 0, 0, 0, 1, 1, 1, 1];
        let out = rebalance(&p, &prev);
        assert!(movement(&prev, &out) <= 1);
    }

    #[test]
    fn never_worsens_makespan() {
        for seed in 0..10u64 {
            let weights: Vec<f64> = (0..40)
                .map(|i| 1.0 + ((seed * 31 + i * 7) % 13) as f64)
                .collect();
            let p = Problem::new(weights, 5);
            let prev: Vec<u32> = (0..40).map(|i| ((seed as usize + i) % 5) as u32).collect();
            let before = p.makespan(&prev);
            let out = rebalance(&p, &prev);
            assert!(p.makespan(&out) <= before + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn zero_total_weight_is_noop() {
        let p = Problem::new(vec![0.0; 4], 2);
        let prev = vec![0, 0, 0, 0];
        assert_eq!(rebalance(&p, &prev), prev);
    }

    #[test]
    fn giant_task_cannot_be_fixed() {
        // One task dominates; no migration helps, so nothing moves much.
        let p = Problem::new(vec![100.0, 1.0, 1.0], 2);
        let prev = vec![0, 0, 1];
        let out = rebalance(&p, &prev);
        // Task 0 stays (moving it to the other worker would not reduce
        // the max beyond what the small task movements achieve).
        let loads = p.loads(&out);
        assert!(loads.iter().cloned().fold(0.0, f64::max) >= 100.0);
    }
}
