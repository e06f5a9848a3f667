//! The substrate-agnostic policy objects.
//!
//! [`SchedulePolicy`] expresses a scheduling policy as an abstract state
//! machine: an optional pre-execution partition, a `next_task(worker)`
//! claim stream, and completion/rebalance hooks. The implementations
//! here are *sequential reference semantics* — the executable
//! specification of each policy. The thread runtime realizes the same
//! decisions with lock-free structures (fetch-add counters, CAS tapers,
//! Chase–Lev deques) and the simulator replays them in virtual time;
//! [`replay_assignment`] drives a policy object directly, giving tests a
//! third, substrate-free opinion on who runs what.

use crate::chunk::ChunkRule;
use crate::kind::{PolicyKind, StealConfig, VictimPolicy};
use crate::rng::{random_victim, round_robin_victim, SplitMix64};
use std::collections::VecDeque;

/// One scheduling decision handed to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Run the locally-owned contiguous range `begin..end`.
    Local {
        /// First task of the claim.
        begin: usize,
        /// One past the last task of the claim.
        end: usize,
    },
    /// Run the range `begin..end` obtained from the shared counter.
    FromCounter {
        /// First task of the claim.
        begin: usize,
        /// One past the last task of the claim.
        end: usize,
    },
    /// `amount` tasks were stolen from `victim`'s queue into the
    /// caller's; call `next_task` again to receive them as local claims.
    StealFrom {
        /// The worker stolen from.
        victim: usize,
        /// Tasks transferred (≥ 1).
        amount: usize,
    },
    /// No work remains for this worker, now or ever.
    Done,
}

/// A scheduling policy as an abstract, substrate-independent object.
pub trait SchedulePolicy {
    /// Canonical policy name (stable, used in labels).
    fn name(&self) -> &'static str;

    /// The pre-execution task→worker map, for policies that have one.
    fn initial_partition(&self) -> Option<Vec<u32>>;

    /// The next scheduling decision for `worker`.
    fn next_task(&mut self, worker: usize) -> Claim;

    /// Completion hook: `worker` finished `task` at measured `cost`.
    /// Policies that adapt to observed costs override this; the default
    /// ignores it.
    fn task_done(&mut self, _worker: usize, _task: usize, _cost: f64) {}

    /// Rebalance hook between iterations: given the measured per-task
    /// costs of the last run, returns a new assignment for the next one
    /// (`None` when the policy does not rebalance).
    fn rebalance(&mut self, _costs: &[f64]) -> Option<Vec<u32>> {
        None
    }
}

/// Builds the reference policy object for `kind` over `ntasks` tasks and
/// `workers` workers.
pub fn build_policy(kind: &PolicyKind, ntasks: usize, workers: usize) -> Box<dyn SchedulePolicy> {
    assert!(workers > 0, "need at least one worker");
    match kind {
        PolicyKind::Serial
        | PolicyKind::StaticBlock
        | PolicyKind::StaticCyclic
        | PolicyKind::StaticAssigned(_)
        | PolicyKind::PersistenceBased(_) => {
            let owners = kind
                .initial_partition(ntasks, workers)
                .expect("static policy has a partition");
            Box::new(StaticPolicy::new(kind.name(), owners, workers))
        }
        PolicyKind::DynamicCounter { .. }
        | PolicyKind::Guided { .. }
        | PolicyKind::GuidedAdaptive { .. } => {
            let rule = kind.chunk_rule().expect("counter-family policy");
            rule.validate();
            Box::new(CounterPolicy {
                name: kind.name(),
                next: 0,
                ntasks,
                workers,
                rule,
            })
        }
        PolicyKind::WorkStealing(cfg) => {
            Box::new(StealingPolicy::new(cfg.clone(), ntasks, workers))
        }
    }
}

/// Static policies: per-worker queues fixed before execution. Also the
/// reference for persistence-based scheduling, whose rebalance hook
/// produces next iteration's partition from measured costs.
struct StaticPolicy {
    name: &'static str,
    owners: Vec<u32>,
    queues: Vec<VecDeque<usize>>,
    workers: usize,
}

impl StaticPolicy {
    fn new(name: &'static str, owners: Vec<u32>, workers: usize) -> StaticPolicy {
        let mut queues = vec![VecDeque::new(); workers];
        for (i, &w) in owners.iter().enumerate() {
            queues[w as usize].push_back(i);
        }
        StaticPolicy {
            name,
            owners,
            queues,
            workers,
        }
    }
}

impl SchedulePolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn initial_partition(&self) -> Option<Vec<u32>> {
        Some(self.owners.clone())
    }

    fn next_task(&mut self, worker: usize) -> Claim {
        match self.queues[worker].pop_front() {
            Some(i) => Claim::Local {
                begin: i,
                end: i + 1,
            },
            None => Claim::Done,
        }
    }

    fn rebalance(&mut self, costs: &[f64]) -> Option<Vec<u32>> {
        if self.name != "persistence-based" {
            return None;
        }
        let problem = emx_balance::prelude::Problem::new(costs.to_vec(), self.workers);
        Some(emx_balance::persistence::rebalance(
            &problem,
            &self.owners,
            &emx_balance::persistence::PersistenceConfig::default(),
        ))
    }
}

/// Counter-family policies: a shared index advanced by [`ChunkRule`]
/// claims.
struct CounterPolicy {
    name: &'static str,
    next: usize,
    ntasks: usize,
    workers: usize,
    rule: ChunkRule,
}

impl SchedulePolicy for CounterPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn initial_partition(&self) -> Option<Vec<u32>> {
        None
    }

    fn next_task(&mut self, _worker: usize) -> Claim {
        if self.next >= self.ntasks {
            return Claim::Done;
        }
        let remaining = self.ntasks - self.next;
        let chunk = self.rule.claim(remaining, self.workers);
        let begin = self.next;
        self.next += chunk;
        Claim::FromCounter {
            begin,
            end: begin + chunk,
        }
    }
}

/// Work stealing: per-worker queues seeded from the configured
/// partition; an idle worker steals from the configured victim stream
/// (one task or half the victim's queue).
struct StealingPolicy {
    cfg: StealConfig,
    queues: Vec<VecDeque<usize>>,
    rng: SplitMix64,
    attempts: Vec<u64>,
}

impl StealingPolicy {
    fn new(cfg: StealConfig, ntasks: usize, workers: usize) -> StealingPolicy {
        let owners = cfg.seed.owners(ntasks, workers);
        let mut queues = vec![VecDeque::new(); workers];
        for (i, &w) in owners.iter().enumerate() {
            queues[w as usize].push_back(i);
        }
        let rng = SplitMix64::new(cfg.rng_seed);
        StealingPolicy {
            cfg,
            queues,
            rng,
            attempts: vec![0; workers],
        }
    }
}

impl SchedulePolicy for StealingPolicy {
    fn name(&self) -> &'static str {
        "work-stealing"
    }

    fn initial_partition(&self) -> Option<Vec<u32>> {
        None
    }

    fn next_task(&mut self, worker: usize) -> Claim {
        if let Some(i) = self.queues[worker].pop_front() {
            return Claim::Local {
                begin: i,
                end: i + 1,
            };
        }
        let p = self.queues.len();
        loop {
            if self.queues.iter().all(VecDeque::is_empty) || p == 1 {
                return Claim::Done;
            }
            let victim = match self.cfg.victim {
                VictimPolicy::Random => random_victim(self.rng.next(), worker, p),
                VictimPolicy::RoundRobin => {
                    let v = round_robin_victim(worker, self.attempts[worker], p);
                    self.attempts[worker] += 1;
                    v
                }
            };
            let qlen = self.queues[victim].len();
            if victim == worker || qlen == 0 {
                continue;
            }
            let take = if self.cfg.steal_batch {
                qlen.div_ceil(2)
            } else {
                1
            };
            // Steal from the back (the cold end), like Chase–Lev thieves.
            for _ in 0..take {
                if let Some(task) = self.queues[victim].pop_back() {
                    self.queues[worker].push_back(task);
                }
            }
            return Claim::StealFrom {
                victim,
                amount: take,
            };
        }
    }
}

/// Drives a policy object sequentially (round-robin over workers) and
/// returns the resulting task→worker assignment. For deterministic
/// policies this is, by construction, the assignment both substrates
/// must reproduce; for dynamic policies it is *a* valid schedule that
/// conserves work.
///
/// Panics, naming the policy, on a task claimed twice, a task never
/// claimed, or a stall: a policy whose workers neither claim nor retire
/// (a thief that steals from drained victims forever) panics once
/// `2·P + 4` rounds in a row pass with no claim while some worker is
/// unfinished, instead of hanging. A healthy policy claims something in
/// every round.
pub fn replay_assignment(kind: &PolicyKind, ntasks: usize, workers: usize) -> Vec<u32> {
    let mut policy = build_policy(kind, ntasks, workers);
    replay(policy.as_mut(), ntasks, workers)
}

/// The loop behind [`replay_assignment`], open to any policy object.
fn replay(policy: &mut dyn SchedulePolicy, ntasks: usize, workers: usize) -> Vec<u32> {
    let name = policy.name();
    let stall_bound = 2 * workers + 4;
    let mut assignment = vec![u32::MAX; ntasks];
    let mut done = vec![false; workers];
    let mut idle_rounds = 0;
    while !done.iter().all(|&d| d) {
        let mut claimed = false;
        for (w, finished) in done.iter_mut().enumerate() {
            if *finished {
                continue;
            }
            match policy.next_task(w) {
                Claim::Local { begin, end } | Claim::FromCounter { begin, end } => {
                    claimed |= end > begin;
                    for (off, slot) in assignment[begin..end].iter_mut().enumerate() {
                        let i = begin + off;
                        assert_eq!(*slot, u32::MAX, "{name}: task {i} claimed twice");
                        *slot = w as u32;
                        policy.task_done(w, i, 0.0);
                    }
                }
                Claim::StealFrom { .. } => {} // stolen work arrives on the next call
                Claim::Done => *finished = true,
            }
        }
        idle_rounds = if claimed { 0 } else { idle_rounds + 1 };
        assert!(
            idle_rounds < stall_bound || done.iter().all(|&d| d),
            "{name}: replay stalled, {idle_rounds} rounds in a row without a claim \
             while workers {:?} are unfinished",
            (0..workers).filter(|&w| !done[w]).collect::<Vec<_>>()
        );
    }
    assert!(
        assignment.iter().all(|&w| w != u32::MAX),
        "{name}: replay dropped tasks"
    );
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::SeedPartition;
    use std::sync::Arc;

    fn kinds(ntasks: usize, workers: usize) -> Vec<PolicyKind> {
        let costs: Vec<f64> = (0..ntasks).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut v = vec![
            PolicyKind::Serial,
            PolicyKind::StaticBlock,
            PolicyKind::StaticCyclic,
            PolicyKind::DynamicCounter { chunk: 3 },
            PolicyKind::Guided { min_chunk: 1 },
            PolicyKind::GuidedAdaptive { k: 4, min_chunk: 2 },
            PolicyKind::WorkStealing(StealConfig::default()),
            PolicyKind::WorkStealing(StealConfig {
                victim: VictimPolicy::RoundRobin,
                steal_batch: false,
                ..StealConfig::default()
            }),
        ];
        if ntasks > 0 {
            v.push(PolicyKind::persistence_from_costs(&costs, workers));
        }
        v
    }

    #[test]
    fn replay_runs_every_task_exactly_once() {
        for n in [0, 1, 17, 100] {
            for p in [1, 3, 8] {
                for kind in kinds(n, p) {
                    let a = replay_assignment(&kind, n, p);
                    assert_eq!(a.len(), n, "{}", kind.name());
                    assert!(
                        a.iter().all(|&w| (w as usize) < p),
                        "{} assigned out of range",
                        kind.name()
                    );
                    // No hidden state (wall clock, ambient RNG) reaches
                    // a replay: the same inputs give the same map.
                    assert_eq!(a, replay_assignment(&kind, n, p), "{}", kind.name());
                }
            }
        }
    }

    /// Worker 0 drains everything in one claim; every other worker
    /// steals from it forever and never retires.
    struct DeadVictimSpinner {
        left: usize,
    }

    impl SchedulePolicy for DeadVictimSpinner {
        fn name(&self) -> &'static str {
            "dead-victim-spin"
        }

        fn initial_partition(&self) -> Option<Vec<u32>> {
            None
        }

        fn next_task(&mut self, worker: usize) -> Claim {
            match worker {
                0 if self.left > 0 => {
                    let end = std::mem::take(&mut self.left);
                    Claim::Local { begin: 0, end }
                }
                0 => Claim::Done,
                _ => Claim::StealFrom {
                    victim: 0,
                    amount: 0,
                },
            }
        }
    }

    #[test]
    #[should_panic(expected = "dead-victim-spin: replay stalled")]
    fn a_spinning_policy_panics_instead_of_hanging() {
        replay(&mut DeadVictimSpinner { left: 40 }, 40, 4);
    }

    #[test]
    fn deterministic_replay_matches_initial_partition() {
        for kind in [
            PolicyKind::Serial,
            PolicyKind::StaticBlock,
            PolicyKind::StaticCyclic,
            PolicyKind::StaticAssigned(Arc::new(vec![2, 0, 1, 1, 2, 0])),
        ] {
            let a = replay_assignment(&kind, 6, 3);
            assert_eq!(a, kind.initial_partition(6, 3).unwrap(), "{}", kind.name());
        }
    }

    #[test]
    fn counter_policy_claims_follow_the_chunk_rule() {
        let mut policy = build_policy(&PolicyKind::Guided { min_chunk: 1 }, 64, 4);
        match policy.next_task(0) {
            Claim::FromCounter { begin: 0, end } => assert_eq!(end, 64 / 8),
            other => panic!("unexpected claim {other:?}"),
        }
    }

    #[test]
    fn stealing_policy_steals_from_the_loaded_worker() {
        // Everything seeded on worker 0; worker 1's first claim must be
        // a steal of half the queue.
        let cfg = StealConfig {
            seed: SeedPartition::Assigned(Arc::new(vec![0; 8])),
            ..StealConfig::default()
        };
        let mut policy = build_policy(&PolicyKind::WorkStealing(cfg), 8, 2);
        match policy.next_task(1) {
            Claim::StealFrom { victim: 0, amount } => assert_eq!(amount, 4),
            other => panic!("unexpected claim {other:?}"),
        }
        match policy.next_task(1) {
            Claim::Local { .. } => {}
            other => panic!("stolen work not delivered: {other:?}"),
        }
    }

    #[test]
    fn persistence_rebalance_hook_moves_load() {
        let kind = PolicyKind::persistence_from_costs(&[1.0; 16], 4);
        let mut policy = build_policy(&kind, 16, 4);
        // Skewed measured costs: the hook must propose a new assignment.
        let skewed: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        let next = policy.rebalance(&skewed).expect("persistence rebalances");
        assert_eq!(next.len(), 16);
        assert!(next.iter().all(|&w| w < 4));
        // Non-persistence statics do not rebalance.
        let mut block = build_policy(&PolicyKind::StaticBlock, 16, 4);
        assert!(block.rebalance(&skewed).is_none());
    }
}
