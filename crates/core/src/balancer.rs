//! Unified interface over the study's load balancers.
//!
//! The balancer comparison experiments (E3/E4) sweep one task set across
//! all techniques; this module gives them a single entry point and
//! builds the task-affinity structures (for semi-matching candidate
//! sets and hypergraph nets) from the Fock task list. It also builds the
//! full policy roster ([`full_roster`]), whose persistence-based entry
//! is a rebalanced static map.

use emx_balance::prelude::*;
use emx_chem::fock::FockTask;
use emx_sched::{block_partition, PolicyKind};
use std::sync::Arc;

/// Which balancing technique to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerKind {
    /// Greedy Longest-Processing-Time (cheap baseline).
    Lpt,
    /// Karmarkar–Karp largest differencing (cheap, beats LPT when a few
    /// large tasks dominate).
    KarmarkarKarp,
    /// Weighted semi-matching (the paper's novel technique).
    SemiMatching,
    /// Multilevel hypergraph partitioning (expensive baseline).
    Hypergraph,
}

impl BalancerKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            BalancerKind::Lpt => "lpt",
            BalancerKind::KarmarkarKarp => "karmarkar-karp",
            BalancerKind::SemiMatching => "semi-matching",
            BalancerKind::Hypergraph => "hypergraph",
        }
    }

    /// All kinds, in presentation order.
    pub fn all() -> [BalancerKind; 4] {
        [
            BalancerKind::Lpt,
            BalancerKind::KarmarkarKarp,
            BalancerKind::SemiMatching,
            BalancerKind::Hypergraph,
        ]
    }
}

/// Task→data-block affinity extracted from the kernel (blocks are shell
/// pairs: each task reads the density blocks and accumulates the Fock
/// blocks of its bra pair and every ket pair it covers).
#[derive(Debug, Clone)]
pub struct TaskAffinity {
    /// Blocks touched by each task.
    pub touches: Vec<Vec<u32>>,
    /// Total number of blocks.
    pub nblocks: usize,
}

/// Builds the affinity structure from a Fock task list over `npairs`
/// shell pairs.
pub fn fock_affinity(tasks: &[FockTask], npairs: usize) -> TaskAffinity {
    let touches = tasks
        .iter()
        .map(|t| {
            let mut blocks: Vec<u32> = vec![t.bra as u32];
            blocks.extend((t.ket_begin..t.ket_end).map(|k| k as u32));
            blocks.sort_unstable();
            blocks.dedup();
            blocks
        })
        .collect();
    TaskAffinity {
        touches,
        nblocks: npairs,
    }
}

/// Computes an assignment of `costs` onto `workers` with the chosen
/// technique. `affinity` feeds the hypergraph model (ignored by LPT;
/// semi-matching uses the full bipartite graph — every worker is a
/// candidate — matching the paper's global-balancing setting).
///
/// Returns the assignment and the balancer's wall-clock time in seconds
/// (the cost axis of experiment E4).
pub fn balance(
    kind: BalancerKind,
    costs: &[f64],
    workers: usize,
    affinity: Option<&TaskAffinity>,
) -> (Vec<u32>, f64) {
    let problem = Problem::new(costs.to_vec(), workers);
    let t0 = std::time::Instant::now();
    let assignment = match kind {
        BalancerKind::Lpt => lpt(&problem),
        BalancerKind::KarmarkarKarp => karmarkar_karp(&problem),
        BalancerKind::SemiMatching => {
            let adj = full_adjacency(costs.len(), workers);
            semi_matching(&problem, &adj, &SemiMatchConfig::default())
        }
        BalancerKind::Hypergraph => {
            let hg = match affinity {
                Some(a) => Hypergraph::from_affinities(costs.to_vec(), &a.touches, a.nblocks),
                // Without affinities the hypergraph degenerates to pure
                // weight balancing (no nets).
                None => Hypergraph::new(costs.to_vec(), Vec::new(), Vec::new()),
            };
            partition(&hg, workers, &HgpConfig::default())
        }
    };
    (assignment, t0.elapsed().as_secs_f64())
}

/// The full policy roster: every model of the paper's spectrum,
/// runnable on both substrates. Its `"persistence-based"` entry is a
/// [`PolicyKind::StaticAssigned`] map: the block partition plays the
/// previous iteration's assignment and is rebalanced against `costs`
/// (the measured or estimated task costs, or uniform costs for
/// microbenchmarks). The balancing happens here, between runs; the
/// executor runs the map statically.
pub fn full_roster(costs: &[f64], workers: usize, chunk: usize) -> Vec<(String, PolicyKind)> {
    let previous = block_partition(costs.len(), workers);
    let persistence = rebalance(&Problem::new(costs.to_vec(), workers), &previous);
    let mut out = vec![("serial".into(), PolicyKind::Serial)];
    out.extend(PolicyKind::comparison_roster(chunk));
    out.push((
        "persistence-based".into(),
        PolicyKind::StaticAssigned(Arc::new(persistence)),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_costs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + ((i * 17) % 29) as f64).collect()
    }

    #[test]
    fn all_kinds_produce_valid_assignments() {
        let costs = skewed_costs(60);
        for kind in BalancerKind::all() {
            let (a, secs) = balance(kind, &costs, 5, None);
            assert!(is_valid(&a, 60, 5), "{}", kind.name());
            assert!(secs >= 0.0);
        }
    }

    #[test]
    fn balancers_beat_naive_block_partition() {
        let costs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
        let p = Problem::new(costs.clone(), 4);
        let block: Vec<u32> = (0..64).map(|i| (i / 16) as u32).collect();
        let naive = p.makespan(&block);
        for kind in BalancerKind::all() {
            let (a, _) = balance(kind, &costs, 4, None);
            assert!(
                p.makespan(&a) < naive,
                "{} did not beat block: {} vs {naive}",
                kind.name(),
                p.makespan(&a)
            );
        }
    }

    #[test]
    fn affinity_from_fock_tasks() {
        let tasks = vec![
            FockTask {
                bra: 2,
                ket_begin: 0,
                ket_end: 2,
                est_cost: 5,
            },
            FockTask {
                bra: 3,
                ket_begin: 3,
                ket_end: 4,
                est_cost: 1,
            },
        ];
        let a = fock_affinity(&tasks, 5);
        assert_eq!(a.touches[0], vec![0, 1, 2]);
        assert_eq!(a.touches[1], vec![3]);
        assert_eq!(a.nblocks, 5);
    }

    #[test]
    fn hypergraph_with_affinity_balances() {
        let costs = skewed_costs(40);
        let tasks: Vec<FockTask> = (0..40)
            .map(|i| FockTask {
                bra: i % 10,
                ket_begin: 0,
                ket_end: i % 10 + 1,
                est_cost: 1,
            })
            .collect();
        let aff = fock_affinity(&tasks, 10);
        let (a, _) = balance(BalancerKind::Hypergraph, &costs, 4, Some(&aff));
        let p = Problem::new(costs, 4);
        assert!(p.imbalance(&a) < 1.6, "imbalance {}", p.imbalance(&a));
    }

    #[test]
    fn semi_matching_quality_comparable_to_hypergraph() {
        // The paper's headline for E3: semi-matching ≈ hypergraph quality.
        let costs = skewed_costs(200);
        let p = Problem::new(costs.clone(), 8);
        let (sm, _) = balance(BalancerKind::SemiMatching, &costs, 8, None);
        let (hg, _) = balance(BalancerKind::Hypergraph, &costs, 8, None);
        let r = p.makespan(&sm) / p.makespan(&hg);
        assert!(
            r < 1.1,
            "semi-matching {} vs hypergraph {}",
            p.makespan(&sm),
            p.makespan(&hg)
        );
    }

    #[test]
    fn full_roster_covers_the_spectrum_and_persistence_balances() {
        // Skewed costs: the persistence assignment must differ from the
        // block partition it starts from and stay in range.
        let costs: Vec<f64> = (1..=32).map(|i| i as f64).collect();
        let roster = full_roster(&costs, 4, 8);
        assert_eq!(roster.len(), 7);
        assert_eq!(roster[0].0, "serial");
        let (label, persistence) = roster.last().unwrap();
        assert_eq!(label, "persistence-based");
        let owners = persistence.initial_partition(32, 4).unwrap();
        assert!(owners.iter().all(|&w| w < 4));
        assert_ne!(owners, block_partition(32, 4));
    }

    #[test]
    fn profile_roster_is_a_labeled_subset_of_the_full_roster() {
        let costs = vec![1.0; 16];
        let full: Vec<String> = full_roster(&costs, 4, 8)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        let profile = PolicyKind::profile_roster(8);
        assert_eq!(profile.len(), 3, "one representative per family");
        for (label, kind) in &profile {
            assert!(full.contains(label), "{label} must keep its CSV name");
            assert!(!matches!(kind, PolicyKind::Serial));
        }
    }
}
