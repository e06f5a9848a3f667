//! Integration: load balancers on real chemistry workloads.
//!
//! Exercises the E3/E4 claims end to end: semi-matching quality is
//! comparable to hypergraph partitioning on measured Fock-task costs,
//! at a cost closer to LPT's; persistence-based rebalancing converges
//! across SCF-style iterations.

use emx_balance::prelude::*;
use emx_core::prelude::*;
use emx_sched::block_partition;

fn chem_workload() -> KernelWorkload {
    measure_fock_workload(
        &Molecule::water_cluster(2, 5),
        BasisSet::Sto3g,
        8,
        1e-10,
        "(H2O)2",
    )
}

#[test]
fn all_balancers_valid_on_chemistry_tasks() {
    let w = chem_workload();
    for p in [2, 4, 8, 16] {
        for kind in BalancerKind::all() {
            let (a, secs) = balance(kind, &w.costs, p, w.affinity.as_ref());
            assert!(is_valid(&a, w.ntasks(), p), "{} P={p}", kind.name());
            assert!(secs < 10.0, "{} took {secs}s", kind.name());
        }
    }
}

#[test]
fn semi_matching_quality_tracks_hypergraph_on_chemistry() {
    let w = chem_workload();
    let p = 8;
    let problem = Problem::new(w.costs.clone(), p);
    let (sm, sm_time) = balance(BalancerKind::SemiMatching, &w.costs, p, None);
    let (hg, _hg_time) = balance(BalancerKind::Hypergraph, &w.costs, p, w.affinity.as_ref());
    let ratio = problem.makespan(&sm) / problem.makespan(&hg).max(1e-300);
    assert!(
        ratio < 1.15,
        "semi-matching {} vs hypergraph {} (ratio {ratio})",
        problem.makespan(&sm),
        problem.makespan(&hg)
    );
    assert!(sm_time < 5.0);
}

#[test]
fn hypergraph_is_the_expensive_one_at_scale() {
    // The paper's E4 point — the multilevel partitioner is the costly
    // technique — as a ratio of walls taken in this process and this
    // build, best of three a side (this host has slow spells). With the
    // lazy-heap FM that ratio was 68–85× here (debug; 100–110× in
    // release), most of it the partitioner's own waste; with delta-gain
    // FM it is 4.6–5.3× (debug; 8.3× in release), and the floor of 2×
    // leaves that a factor of two of noise.
    let n = 20_000;
    let w = synthetic_workload(
        CostModel::LogNormal {
            mu: 0.0,
            sigma: 1.0,
        },
        n,
        9,
        1.0,
        "big",
    );
    let affinity = synthetic_affinity(n, n / 4, 9);
    let best_of_three = |kind: BalancerKind| {
        (0..3)
            .map(|_| balance(kind, &w.costs, 16, Some(&affinity)).1)
            .fold(f64::INFINITY, f64::min)
    };
    let t_lpt = best_of_three(BalancerKind::Lpt);
    let t_sm = best_of_three(BalancerKind::SemiMatching);
    let t_hg = best_of_three(BalancerKind::Hypergraph);
    assert!(
        t_hg > 2.0 * t_sm.max(t_lpt),
        "expected hypergraph > 2 × others: lpt {t_lpt:.4}s, sm {t_sm:.4}s, hg {t_hg:.4}s"
    );
}

#[test]
fn balanced_assignments_beat_block_partition_in_simulation() {
    let w = chem_workload();
    let p = 8;
    let cfg = SimConfig::new(p);
    let block = block_partition(w.ntasks(), p);
    let naive = simulate(&w.costs, &SimModel::Static(block), &cfg);
    for kind in BalancerKind::all() {
        let (a, _) = balance(kind, &w.costs, p, w.affinity.as_ref());
        let r = simulate(&w.costs, &SimModel::Static(a), &cfg);
        assert!(
            r.makespan <= naive.makespan,
            "{}: {} vs naive {}",
            kind.name(),
            r.makespan,
            naive.makespan
        );
    }
}

#[test]
fn persistence_rebalancing_converges_over_iterations() {
    // SCF-style loop: costs drift slightly between iterations; the
    // persistence balancer keeps imbalance low with bounded migration.
    // The costs are the inspector's estimates, not a timed build: one
    // preempted ~25 us task of a measured build can alone exceed 1.2x a
    // worker's share, and then no assignment meets the bound.
    let w = estimate_fock_workload(
        &Molecule::water_cluster(2, 5),
        BasisSet::Sto3g,
        8,
        1e-10,
        1.0,
        "(H2O)2",
    );
    let p = 6;
    let mut assignment = block_partition(w.ntasks(), p);
    let mut imbalances = Vec::new();
    for iter in 0..5 {
        // Slight deterministic drift models iteration-to-iteration noise.
        let costs: Vec<f64> = w
            .costs
            .iter()
            .enumerate()
            .map(|(i, &c)| c * (1.0 + 0.02 * (((i + iter) % 7) as f64 - 3.0) / 3.0))
            .collect();
        let problem = Problem::new(costs, p);
        let before = assignment.clone();
        assignment = rebalance(&problem, &assignment);
        imbalances.push(problem.imbalance(&assignment));
        if iter > 0 {
            // After warm-up, migrations should be few.
            assert!(
                movement(&before, &assignment) <= w.ntasks() / 4,
                "iteration {iter} moved too much"
            );
        }
    }
    assert!(
        imbalances.last().unwrap() < &1.2,
        "persistence did not converge: {imbalances:?}"
    );
}

#[test]
fn unit_semi_matching_on_fock_affinity_graph() {
    // Locality-restricted semi-matching: each task may only run on the
    // owners of the blocks it touches (blocks distributed round-robin).
    let w = chem_workload();
    let p = 4;
    let affinity = w
        .affinity
        .as_ref()
        .expect("chemistry workload has affinity");
    let adj: Adjacency = affinity
        .touches
        .iter()
        .map(|blocks| {
            let mut c: Vec<u32> = blocks.iter().map(|&b| b % p as u32).collect();
            c.sort_unstable();
            c.dedup();
            c
        })
        .collect();
    let a = optimal_semi_matching_unit(&adj, p);
    assert!(is_valid(&a, w.ntasks(), p));
    for (t, &worker) in a.iter().enumerate() {
        assert!(
            adj[t].contains(&worker),
            "task {t} placed off its candidate set"
        );
    }
    // Unit loads should be near-perfectly spread.
    let mut loads = vec![0usize; p];
    for &x in &a {
        loads[x as usize] += 1;
    }
    let max = *loads.iter().max().unwrap();
    let min = *loads.iter().min().unwrap();
    assert!(max - min <= w.ntasks() / p, "loads {loads:?}");
}
