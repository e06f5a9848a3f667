//! Property-based invariants across the whole stack.
//!
//! Randomized inputs drive the executor, the simulator, the balancers
//! and the linear algebra through their core contracts: exactly-once
//! execution, work conservation, assignment validity, bound respect,
//! and numerical identities.

use emx_balance::prelude::*;
use emx_core::prelude::*;
use emx_linalg::{jacobi_eigen, Matrix};
use emx_sched::block_partition;
use proptest::prelude::*;
use std::sync::Arc;

fn cost_vector() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 1..200)
}

/// Maps a proptest-drawn index onto the full `PolicyKind` roster so the
/// executor invariants cover every registered policy.
fn policy_pick(pick: usize, n: usize, workers: usize, chunk: usize) -> PolicyKind {
    match pick {
        0 => PolicyKind::StaticBlock,
        1 => PolicyKind::StaticCyclic,
        2 => PolicyKind::DynamicCounter { chunk },
        3 => PolicyKind::WorkStealing(StealConfig::default()),
        4 => PolicyKind::Guided { min_chunk: chunk },
        5 => PolicyKind::Serial,
        // The roster's last entry: its persistence-balanced owner map.
        6 => {
            let costs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            full_roster(&costs, workers, chunk).pop().unwrap().1
        }
        _ => PolicyKind::StaticAssigned(Arc::new(
            (0..n as u32).map(|i| i % workers as u32).collect(),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn executor_runs_each_task_exactly_once(
        n in 1usize..150,
        workers in 1usize..5,
        model_pick in 0usize..8,
        chunk in 1usize..9,
    ) {
        let model = policy_pick(model_pick, n, workers, chunk);
        let ex = Executor::new(workers, model);
        let (locals, report) = ex.run(n, |_| vec![0u8; n], |i, l: &mut Vec<u8>| l[i] += 1);
        let mut counts = vec![0u32; n];
        for l in &locals {
            for (c, v) in counts.iter_mut().zip(l) {
                *c += *v as u32;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == 1));
        prop_assert_eq!(report.total_tasks_run(), n);
    }

    #[test]
    fn executor_recovers_poisoned_task_under_every_policy(
        n in 1usize..120,
        workers in 1usize..5,
        model_pick in 0usize..8,
        chunk in 1usize..9,
        poison_seed in 0usize..1000,
    ) {
        // One poisoned task (panics once, is caught and re-run): the
        // run must still complete with exactly-once semantics and the
        // recovery must be accounted for.
        let model = policy_pick(model_pick, n, workers, chunk);
        let poisoned = poison_seed % n;
        let ex = Executor::new(workers, model)
            .with_faults(FaultInjection::poison_tasks(vec![poisoned]));
        let (locals, report) = ex.run(n, |_| vec![0u8; n], |i, l: &mut Vec<u8>| l[i] += 1);
        let mut counts = vec![0u32; n];
        for l in &locals {
            for (c, v) in counts.iter_mut().zip(l) {
                *c += *v as u32;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == 1));
        prop_assert_eq!(report.total_tasks_run(), n);
        prop_assert_eq!(report.total_panics_caught(), 1);
        prop_assert_eq!(report.total_recovered_tasks(), 1);
    }

    #[test]
    fn simulator_conserves_work(
        costs in cost_vector(),
        workers in 1usize..40,
        model_pick in 0usize..5,
        chunk in 1usize..32,
        node_size in 1usize..6,
    ) {
        let n = costs.len();
        let model = match model_pick {
            0 => SimModel::Static(
                block_partition(n, workers),
            ),
            1 => SimModel::Counter { chunk },
            2 => SimModel::Guided { min_chunk: chunk },
            3 => SimModel::HierCounters { chunk, node_size, parent_chunk: 4 * chunk },
            _ => SimModel::WorkStealing { steal_half: true },
        };
        let r = simulate(&costs, &model, &SimConfig::new(workers));
        prop_assert_eq!(r.tasks.iter().sum::<usize>(), n);
        let total: f64 = costs.iter().sum();
        // Makespan can never beat total/P (no variability here, but
        // overheads may add).
        prop_assert!(r.makespan + 1e-12 >= total / workers as f64);
        // Makespan can never exceed running everything serially plus
        // all modeled overheads on one worker (loose sanity bound).
        prop_assert!(r.makespan <= total + 1.0);
        let u = r.utilization();
        prop_assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn balancers_valid_and_bounded(
        costs in cost_vector(),
        workers in 1usize..17,
        kind_pick in 0usize..3,
    ) {
        let kind = BalancerKind::all()[kind_pick];
        let (a, _) = balance(kind, &costs, workers, None);
        prop_assert!(is_valid(&a, costs.len(), workers));
        let p = Problem::new(costs.clone(), workers);
        // Any sane balancer is within 2× of the lower bound
        // (list-scheduling guarantee; the others only improve on it).
        if kind != BalancerKind::Hypergraph {
            prop_assert!(p.makespan(&a) <= 2.0 * p.lower_bound() + 1e-9);
        }
        // Any assignment's makespan is at least the heaviest task.
        let heaviest = costs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(p.makespan(&a) + 1e-9 >= heaviest);
    }

    #[test]
    fn semi_matching_never_loses_to_seed(
        costs in proptest::collection::vec(0.1f64..50.0, 2..120),
        workers in 2usize..9,
    ) {
        let p = Problem::new(costs.clone(), workers);
        let seed = lpt(&p);
        let adj = full_adjacency(costs.len(), workers);
        let refined = semi_matching(&p, &adj, &SemiMatchConfig::default());
        prop_assert!(p.makespan(&refined) <= p.makespan(&seed) + 1e-9);
    }

    #[test]
    fn persistence_never_worsens(
        costs in proptest::collection::vec(0.0f64..20.0, 1..100),
        workers in 1usize..8,
    ) {
        let p = Problem::new(costs.clone(), workers);
        let prev: Vec<u32> = (0..costs.len()).map(|i| (i % workers) as u32).collect();
        let out = rebalance(&p, &prev);
        prop_assert!(is_valid(&out, costs.len(), workers));
        prop_assert!(p.makespan(&out) <= p.makespan(&prev) + 1e-9);
    }

    #[test]
    fn hypergraph_cut_is_invariant_under_part_relabeling(
        n in 2usize..40,
        seed in 0u64..1000,
    ) {
        // Build a random hypergraph and partition; swapping part labels
        // must not change the connectivity cut.
        let affinity = synthetic_affinity(n, (n / 2).max(2), seed);
        let hg = Hypergraph::from_affinities(vec![1.0; n], &affinity.touches, affinity.nblocks);
        let parts = partition(&hg, 2, &HgpConfig::default());
        let swapped: Vec<u32> = parts.iter().map(|&x| 1 - x).collect();
        let a = hg.connectivity_cut(&parts, 2);
        let b = hg.connectivity_cut(&swapped, 2);
        prop_assert!((a - b).abs() < 1e-12);
        // And the cut is bounded by total net weight (λ ≤ 2 for k = 2).
        let worst: f64 = hg.nwts.iter().sum();
        prop_assert!(a <= worst + 1e-12);
    }

    #[test]
    fn jacobi_reconstructs_random_symmetric(
        n in 1usize..9,
        seed in 0u64..500,
    ) {
        let mut m = Matrix::from_fn(n, n, |i, j| {
            let h = (seed.wrapping_mul(31).wrapping_add((i * n + j) as u64))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        });
        m.symmetrize();
        let e = jacobi_eigen(&m, 1e-13, 100).unwrap();
        let d = Matrix::from_diag(&e.values);
        let rec = e.vectors.matmul(&d).unwrap().matmul(&e.vectors.transpose()).unwrap();
        prop_assert!(rec.max_abs_diff(&m) < 1e-8);
        // Orthonormality.
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        prop_assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-9);
    }

    #[test]
    fn boys_function_ladder_monotonicity(t in 0.0f64..120.0) {
        // F_{m+1}(T) < F_m(T) for T > 0, and all values in (0, 1].
        let mut buf = [0.0; 9];
        emx_chem::boys::boys_ladder(8, t, &mut buf);
        for w in buf.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-15);
        }
        prop_assert!(buf.iter().all(|&v| v > 0.0 && v <= 1.0));
    }

    #[test]
    fn seeded_stealing_conserves_work(
        costs in cost_vector(),
        workers in 1usize..20,
        seed_mod in 1usize..8,
    ) {
        let n = costs.len();
        let owners: Vec<u32> =
            (0..n).map(|i| ((i * seed_mod) % workers) as u32).collect();
        let r = simulate(
            &costs,
            &SimModel::SeededStealing { owners, steal_half: true },
            &SimConfig::new(workers),
        );
        prop_assert_eq!(r.tasks.iter().sum::<usize>(), n);
        let total: f64 = costs.iter().sum();
        prop_assert!(r.makespan + 1e-12 >= total / workers as f64);
    }

    #[test]
    fn karmarkar_karp_valid_and_never_below_bound(
        costs in proptest::collection::vec(0.0f64..50.0, 1..80),
        workers in 1usize..9,
    ) {
        let p = Problem::new(costs.clone(), workers);
        let a = karmarkar_karp(&p);
        prop_assert!(is_valid(&a, costs.len(), workers));
        prop_assert!(p.makespan(&a) + 1e-9 >= p.lower_bound());
        // Differencing is also within the 2× list-scheduling envelope.
        prop_assert!(p.makespan(&a) <= 2.0 * p.lower_bound() + 1e-9);
    }

    #[test]
    fn data_layout_comm_accounting(
        ntasks in 1usize..60,
        workers in 1usize..8,
        nblocks in 1usize..12,
        seed in 0u64..500,
    ) {
        use emx_distsim::sim::{simulate_static_with_data, DataLayout};
        let affinity = synthetic_affinity(ntasks, nblocks, seed);
        let costs = vec![1e-5; ntasks];
        let owners: Vec<u32> = (0..ntasks).map(|i| (i % workers) as u32).collect();
        let layout = DataLayout::majority_placement(
            affinity.touches.clone(),
            &owners,
            nblocks,
            workers,
            4096,
        );
        let r = simulate_static_with_data(&costs, &owners, &layout, &SimConfig::new(workers));
        prop_assert_eq!(r.tasks.iter().sum::<usize>(), ntasks);
        // Comm is bounded by every worker fetching every block once.
        let xfer = SimConfig::new(workers).machine.transfer_time(4096);
        let bound = (workers * nblocks) as f64 * xfer;
        prop_assert!(r.comm.iter().sum::<f64>() <= bound + 1e-12);
        // One worker can never pay comm for blocks it homes.
        for w in 0..workers {
            let owned = layout.block_home.iter().filter(|&&h| h as usize == w).count();
            let max_foreign = (nblocks - owned) as f64 * xfer;
            prop_assert!(r.comm[w] <= max_foreign + 1e-12);
        }
    }

    #[test]
    fn cost_stats_bounds(costs in cost_vector()) {
        let s = CostStats::from_costs(&costs);
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!((0.0..1.0 + 1e-9).contains(&s.gini));
        prop_assert!(s.max_over_mean >= 1.0 - 1e-9 || s.total == 0.0);
        let lb = makespan_lower_bound(&costs, 4);
        prop_assert!(lb >= s.max - 1e-9);
    }
}
