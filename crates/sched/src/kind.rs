//! The execution-model registry.
//!
//! [`PolicyKind`] is the single enumeration of every scheduling policy
//! the study compares. Both substrates dispatch on it and the experiment
//! drivers build their rosters from it — adding a variant here is the
//! whole cost of adding an execution model to the repository.

use crate::chunk::ChunkRule;
use crate::partition::{block_partition, cyclic_partition};
use std::fmt;
use std::sync::Arc;

/// A scheduling policy: which worker runs which task, decided when.
///
/// The variants mirror the paper's spectrum. *Static* policies fix the
/// task→worker map before execution ([`PolicyKind::initial_partition`]
/// returns `Some`); *dynamic* policies decide at runtime and return
/// `None`.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// One worker runs everything in task order (baseline).
    Serial,
    /// Contiguous index blocks: worker `w` owns `[w·n/P, (w+1)·n/P)`.
    StaticBlock,
    /// Round-robin: task `i` belongs to worker `i mod P`.
    StaticCyclic,
    /// Explicit per-task owner map (`assignment[i] < P`), produced by a
    /// cost-model load balancer — or by persistence-based rebalancing of
    /// a previous run's map against measured costs: either way the map
    /// is made between runs and executed statically.
    StaticAssigned(Arc<Vec<u32>>),
    /// NXTVAL-style self-scheduling off a single shared counter; each
    /// fetch claims `chunk` consecutive tasks.
    DynamicCounter {
        /// Tasks claimed per counter fetch.
        chunk: usize,
    },
    /// Guided self-scheduling: each fetch claims `remaining/(2·P)`
    /// tasks, floored at `min_chunk`.
    Guided {
        /// Smallest chunk a fetch may claim.
        min_chunk: usize,
    },
    /// Work stealing over per-worker deques.
    WorkStealing(StealConfig),
}

impl PolicyKind {
    /// Short, stable canonical name used in reports and CSVs.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Serial => "serial",
            PolicyKind::StaticBlock => "static-block",
            PolicyKind::StaticCyclic => "static-cyclic",
            PolicyKind::StaticAssigned(_) => "static-assigned",
            PolicyKind::DynamicCounter { .. } => "dynamic-counter",
            PolicyKind::Guided { .. } => "guided",
            PolicyKind::WorkStealing(_) => "work-stealing",
        }
    }

    /// Whether the policy can rebalance at runtime.
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            PolicyKind::DynamicCounter { .. }
                | PolicyKind::Guided { .. }
                | PolicyKind::WorkStealing(_)
        )
    }

    /// Whether the task→worker assignment is fully determined before
    /// execution (independent of timing). For deterministic policies the
    /// simulator and the thread executor must both reproduce
    /// [`PolicyKind::initial_partition`].
    pub fn is_deterministic(&self) -> bool {
        !self.is_dynamic()
    }

    /// The pre-execution task→worker map of a static policy (`None` for
    /// dynamic policies). Validates explicit maps: panics on length
    /// mismatch or an owner `≥ workers`.
    pub fn initial_partition(&self, ntasks: usize, workers: usize) -> Option<Vec<u32>> {
        assert!(workers > 0, "need at least one worker");
        let check = |map: &Arc<Vec<u32>>| {
            assert_eq!(map.len(), ntasks, "assignment length mismatch");
            assert!(
                map.iter().all(|&w| (w as usize) < workers),
                "assignment names a worker out of range"
            );
            map.as_ref().clone()
        };
        match self {
            PolicyKind::Serial => Some(vec![0; ntasks]),
            PolicyKind::StaticBlock => Some(block_partition(ntasks, workers)),
            PolicyKind::StaticCyclic => Some(cyclic_partition(ntasks, workers)),
            PolicyKind::StaticAssigned(map) => Some(check(map)),
            _ => None,
        }
    }

    /// The chunk-sizing rule of a counter-family policy (`None` for
    /// everything else).
    pub fn chunk_rule(&self) -> Option<ChunkRule> {
        match *self {
            PolicyKind::DynamicCounter { chunk } => Some(ChunkRule::Fixed(chunk)),
            PolicyKind::Guided { min_chunk } => Some(ChunkRule::Tapering { min: min_chunk }),
            _ => None,
        }
    }

    /// The five-model roster of the scaling experiments (E1/E6/E8/E9 and
    /// the overhead decomposition), with the display labels those tables
    /// have always used.
    pub fn comparison_roster(chunk: usize) -> Vec<(String, PolicyKind)> {
        vec![
            ("static-block".into(), PolicyKind::StaticBlock),
            ("static-cyclic".into(), PolicyKind::StaticCyclic),
            (
                format!("counter(c={chunk})"),
                PolicyKind::DynamicCounter { chunk },
            ),
            ("guided".into(), PolicyKind::Guided { min_chunk: 1 }),
            (
                "work-stealing".into(),
                PolicyKind::WorkStealing(StealConfig::default()),
            ),
        ]
    }

    /// The dispatch-overhead roster of E7: the models whose per-task
    /// scheduling cost the real-thread microbenchmarks measure.
    pub fn overhead_roster() -> Vec<PolicyKind> {
        vec![
            PolicyKind::StaticBlock,
            PolicyKind::DynamicCounter { chunk: 1 },
            PolicyKind::DynamicCounter { chunk: 64 },
            PolicyKind::WorkStealing(StealConfig::default()),
        ]
    }

    /// The reduced roster of the `reproduce profile` smoke: one
    /// representative per scheduling family — static partition,
    /// shared-counter, work stealing — so the attribution pipeline
    /// exercises every event kind (tasks, counter fetches, steals,
    /// merges) in seconds instead of minutes.
    pub fn profile_roster(chunk: usize) -> Vec<(String, PolicyKind)> {
        vec![
            ("static-block".into(), PolicyKind::StaticBlock),
            (
                format!("counter(c={chunk})"),
                PolicyKind::DynamicCounter { chunk },
            ),
            (
                "work-stealing".into(),
                PolicyKind::WorkStealing(StealConfig::default()),
            ),
        ]
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::DynamicCounter { chunk } => write!(f, "dynamic-counter:{chunk}"),
            PolicyKind::Guided { min_chunk } => write!(f, "guided:{min_chunk}"),
            other => f.write_str(other.name()),
        }
    }
}

/// Work-stealing policy knobs (the ablation axes of experiment E7).
#[derive(Debug, Clone)]
pub struct StealConfig {
    /// How tasks are seeded into the deques before execution.
    pub seed: SeedPartition,
    /// Steal a batch (about half the victim's deque) instead of one task.
    pub steal_batch: bool,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            seed: SeedPartition::Block,
            steal_batch: true,
        }
    }
}

/// Initial distribution of tasks into the stealing deques.
#[derive(Debug, Clone)]
pub enum SeedPartition {
    /// Contiguous blocks (default — mirrors the static baseline).
    Block,
    /// Round-robin.
    Cyclic,
    /// Explicit owner map, e.g. from a locality-aware balancer.
    Assigned(Arc<Vec<u32>>),
}

impl SeedPartition {
    /// The deque-seeding owner map for `ntasks` tasks on `workers`
    /// workers (validated for explicit maps).
    pub fn owners(&self, ntasks: usize, workers: usize) -> Vec<u32> {
        match self {
            SeedPartition::Block => block_partition(ntasks, workers),
            SeedPartition::Cyclic => cyclic_partition(ntasks, workers),
            SeedPartition::Assigned(map) => {
                assert_eq!(map.len(), ntasks, "seed assignment length mismatch");
                assert!(
                    map.iter().all(|&w| (w as usize) < workers),
                    "seed owner out of range"
                );
                map.as_ref().clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(PolicyKind::Serial.name(), "serial");
        assert_eq!(PolicyKind::StaticBlock.name(), "static-block");
        assert_eq!(
            PolicyKind::DynamicCounter { chunk: 4 }.name(),
            "dynamic-counter"
        );
        assert_eq!(PolicyKind::Guided { min_chunk: 1 }.name(), "guided");
        assert_eq!(
            PolicyKind::WorkStealing(StealConfig::default()).name(),
            "work-stealing"
        );
        assert_eq!(
            PolicyKind::StaticAssigned(Arc::new(vec![])).name(),
            "static-assigned"
        );
    }

    #[test]
    fn dynamic_classification() {
        assert!(!PolicyKind::StaticBlock.is_dynamic());
        assert!(!PolicyKind::Serial.is_dynamic());
        assert!(!PolicyKind::StaticAssigned(Arc::new(vec![0, 0])).is_dynamic());
        assert!(PolicyKind::DynamicCounter { chunk: 1 }.is_dynamic());
        assert!(PolicyKind::Guided { min_chunk: 1 }.is_dynamic());
        assert!(PolicyKind::WorkStealing(StealConfig::default()).is_dynamic());
        assert!(PolicyKind::StaticCyclic.is_deterministic());
    }

    #[test]
    fn initial_partitions() {
        assert_eq!(
            PolicyKind::Serial.initial_partition(4, 3).unwrap(),
            vec![0, 0, 0, 0]
        );
        assert_eq!(
            PolicyKind::StaticCyclic.initial_partition(5, 2).unwrap(),
            vec![0, 1, 0, 1, 0]
        );
        assert_eq!(
            PolicyKind::StaticBlock.initial_partition(9, 3).unwrap(),
            vec![0, 0, 0, 1, 1, 1, 2, 2, 2]
        );
        let map = Arc::new(vec![1, 0, 1]);
        assert_eq!(
            PolicyKind::StaticAssigned(map.clone())
                .initial_partition(3, 2)
                .unwrap(),
            vec![1, 0, 1]
        );
        assert!(PolicyKind::WorkStealing(StealConfig::default())
            .initial_partition(10, 2)
            .is_none());
        assert!(PolicyKind::Guided { min_chunk: 1 }
            .initial_partition(10, 2)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "assignment length mismatch")]
    fn assigned_partition_length_is_checked() {
        let _ = PolicyKind::StaticAssigned(Arc::new(vec![0; 3])).initial_partition(4, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assigned_partition_range_is_checked() {
        let _ = PolicyKind::StaticAssigned(Arc::new(vec![5; 3])).initial_partition(3, 2);
    }

    #[test]
    fn chunk_rules_match_policy_parameters() {
        assert_eq!(
            PolicyKind::DynamicCounter { chunk: 8 }.chunk_rule(),
            Some(ChunkRule::Fixed(8))
        );
        assert_eq!(
            PolicyKind::Guided { min_chunk: 2 }.chunk_rule(),
            Some(ChunkRule::Tapering { min: 2 })
        );
        assert_eq!(PolicyKind::StaticBlock.chunk_rule(), None);
    }

    #[test]
    fn comparison_roster_labels_are_the_historical_csv_names() {
        let labels: Vec<String> = PolicyKind::comparison_roster(8)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(
            labels,
            vec![
                "static-block",
                "static-cyclic",
                "counter(c=8)",
                "guided",
                "work-stealing"
            ]
        );
    }

    #[test]
    fn seed_partition_owners_match_static_partitions() {
        assert_eq!(
            SeedPartition::Block.owners(9, 3),
            PolicyKind::StaticBlock.initial_partition(9, 3).unwrap()
        );
        assert_eq!(
            SeedPartition::Cyclic.owners(5, 2),
            PolicyKind::StaticCyclic.initial_partition(5, 2).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "seed assignment length mismatch")]
    fn seed_partition_length_is_checked() {
        let _ = SeedPartition::Assigned(Arc::new(vec![0; 2])).owners(3, 2);
    }
}
