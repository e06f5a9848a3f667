//! Deterministic fault injection for the distributed simulator.
//!
//! The paper's E6 experiment shows how execution models respond to
//! *performance* variability (slow cores). This module generalizes that
//! question to *hard* faults — the regime motivating task-based runtimes
//! in the strong-scaling-limit literature: rank fail-stop, transient
//! message loss and delay, counter-host outages, and unanswered steal
//! requests. Every fault is scheduled or drawn deterministically from
//! [`FaultPlan`] (seeded splitmix64 streams independent of the victim
//! RNG), so a run is exactly reproducible given `(costs, model, cfg,
//! plan)`.
//!
//! The degraded-mode story mirrors production runtimes:
//!
//! * **fail-stop** — a rank dies at a scheduled time; the task it is
//!   executing loses all partial progress and is orphaned together with
//!   any work still queued on the rank. After a heartbeat-style
//!   [`FaultPlan::detection_interval`], survivors redistribute the
//!   orphans through the `emx-balance` crate (see [`RecoveryPolicy`]) —
//!   the paper's load balancers double as the recovery path;
//! * **message faults** — counter fetches and steal requests may be
//!   dropped (retried after [`FaultPlan::rpc_timeout`]) or delayed;
//! * **counter outage** — the shared-counter host goes down and fetches
//!   stall until a backup host takes over after
//!   [`CounterOutage::failover`];
//! * **dead-victim steals** — a steal request to a rank that died but
//!   whose death is not yet detected gets no response; the thief times
//!   out and retries under exponential backoff instead of spinning.
//!   Once the detection interval elapses, thieves drop the rank from
//!   their believed-alive victim set and stop paying timeouts. A thief
//!   that finds nothing stealable anywhere while orphans still wait for
//!   the detector sleeps until they are redistributed rather than
//!   polling (the quiescence rule, `Liveness::quiescent_until`).
//!
//! This module holds the plan, its accounting and the recovery
//! machinery; the loops that consult them are the simulator's own
//! ([`crate::sim`] has one per model family, and
//! [`crate::sim::simulate`] runs it under [`FaultPlan::fault_free`]),
//! which is what makes degraded-vs-healthy comparisons meaningful. See
//! `docs/FAULT_MODEL.md` for the full contract.

use crate::eventq::{RankQueues, WorkTracker};
use crate::sim::{SimConfig, SimModel, SimReport, SplitMix};
use emx_balance::prelude::{full_adjacency, rebalance, semi_matching, Problem, SemiMatchConfig};

/// A scheduled fail-stop failure of one simulated rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankFailure {
    /// Rank (simulated worker id) that dies.
    pub rank: usize,
    /// Simulated time (s) at which it fail-stops. Partial progress on
    /// the task running at that instant is lost.
    pub at: f64,
}

/// Outage of the shared-counter host with failover to a backup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterOutage {
    /// Outage start (s). Fetches arriving during the outage stall.
    pub at: f64,
    /// Time (s) until the backup counter host takes over; stalled
    /// fetches resume at `at + failover`.
    pub failover: f64,
}

/// How survivors redistribute a dead rank's orphaned tasks.
///
/// All three run the orphan set through `emx-balance`, so the fault
/// path exercises the paper's load-balancing machinery end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Contiguous blocks of orphans over survivors in rank order — the
    /// cheapest possible reassignment, ignores weights and loads.
    BlockSurvivors,
    /// Weighted semi-matching ([`semi_matching`]) of the orphans onto
    /// survivors, with each survivor's residual load modeled as a
    /// pinned phantom task so loaded survivors receive less.
    SemiMatching,
    /// Persistence-style rebalance ([`rebalance`]): orphans start as a
    /// naive single-survivor assignment and the rebalancer migrates the
    /// minimum weight needed to meet its imbalance target.
    Persistence,
}

impl RecoveryPolicy {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::BlockSurvivors => "block-survivors",
            RecoveryPolicy::SemiMatching => "semi-matching",
            RecoveryPolicy::Persistence => "persistence",
        }
    }
}

/// Deterministic fault schedule for one simulated run.
///
/// The default plan is fault-free — the healthy simulator; builder
/// methods ([`FaultPlan::with_rank_failure`] etc.)
/// switch individual faults on.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the fault-fate RNG (message drop/delay draws). This is
    /// a *separate* splitmix64 stream from [`SimConfig::seed`]'s victim
    /// selection, so enabling message faults never perturbs victim
    /// choice.
    pub seed: u64,
    /// Scheduled fail-stop failures. Multiple entries for one rank keep
    /// the earliest.
    pub rank_failures: Vec<RankFailure>,
    /// Probability in `[0, 1)` that a counter fetch or steal request is
    /// silently dropped (retried after [`FaultPlan::rpc_timeout`]).
    pub drop_prob: f64,
    /// Probability in `[0, 1)` that a message is delayed by
    /// [`FaultPlan::delay`] instead of arriving on time.
    pub delay_prob: f64,
    /// Extra latency (s) applied to delayed messages.
    pub delay: f64,
    /// Optional shared-counter host outage (applies to the one counter
    /// of `Counter` and `Guided`, and to the root of a `HierCounters`
    /// tree).
    pub counter_outage: Option<CounterOutage>,
    /// No-response deadline (s) for counter fetches and steal round
    /// trips: a dropped request or dead victim costs the sender this
    /// much waiting before it retries.
    pub rpc_timeout: f64,
    /// First exponential-backoff wait (s) after a failed steal. `0`
    /// disables backoff (and is required for fault-free baseline
    /// equality).
    pub backoff_base: f64,
    /// Multiplier applied to the backoff wait per consecutive failure.
    pub backoff_factor: f64,
    /// Upper bound (s) on one backoff wait.
    pub backoff_max: f64,
    /// Heartbeat-style failure-detection time (s): orphans of a rank
    /// dying at `t` become redistributable at `t + detection_interval`.
    pub detection_interval: f64,
    /// Orphan redistribution policy.
    pub recovery: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0xfa017,
            rank_failures: Vec::new(),
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: 0.0,
            counter_outage: None,
            rpc_timeout: 100e-6,
            backoff_base: 0.0,
            backoff_factor: 2.0,
            backoff_max: 1e-3,
            detection_interval: 1e-3,
            recovery: RecoveryPolicy::SemiMatching,
        }
    }
}

impl FaultPlan {
    /// A plan injecting nothing — [`simulate_with_faults`] under this
    /// plan is [`crate::sim::simulate`].
    pub fn fault_free() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules no fault of any kind.
    pub fn is_fault_free(&self) -> bool {
        self.rank_failures.is_empty()
            && self.drop_prob == 0.0
            && self.delay_prob == 0.0
            && self.counter_outage.is_none()
    }

    /// Adds a fail-stop failure of `rank` at time `at` (s).
    pub fn with_rank_failure(mut self, rank: usize, at: f64) -> FaultPlan {
        self.rank_failures.push(RankFailure { rank, at });
        self
    }

    /// Schedules a counter-host outage starting at `at` with the given
    /// failover time (both seconds).
    pub fn with_counter_outage(mut self, at: f64, failover: f64) -> FaultPlan {
        self.counter_outage = Some(CounterOutage { at, failover });
        self
    }

    /// Enables transient message faults: requests dropped with
    /// probability `drop_prob`, delayed by `delay` seconds with
    /// probability `delay_prob`.
    pub fn with_message_faults(mut self, drop_prob: f64, delay_prob: f64, delay: f64) -> FaultPlan {
        self.drop_prob = drop_prob;
        self.delay_prob = delay_prob;
        self.delay = delay;
        self
    }

    /// Enables exponential backoff on failed steals: waits
    /// `base · factor^(k−1)` (capped at `max`) after the `k`-th
    /// consecutive failure.
    pub fn with_backoff(mut self, base: f64, factor: f64, max: f64) -> FaultPlan {
        self.backoff_base = base;
        self.backoff_factor = factor;
        self.backoff_max = max;
        self
    }

    /// Selects the orphan-redistribution policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> FaultPlan {
        self.recovery = policy;
        self
    }

    pub(crate) fn validate(&self, workers: usize) {
        for f in &self.rank_failures {
            assert!(f.rank < workers, "failed rank {} out of range", f.rank);
            assert!(f.at.is_finite() && f.at >= 0.0, "failure time invalid");
        }
        assert!(
            (0.0..1.0).contains(&self.drop_prob),
            "drop_prob outside [0,1)"
        );
        assert!(
            (0.0..1.0).contains(&self.delay_prob),
            "delay_prob outside [0,1)"
        );
        assert!(self.delay >= 0.0, "delay must be non-negative");
        assert!(self.detection_interval >= 0.0, "detection_interval < 0");
        if let Some(o) = self.counter_outage {
            assert!(
                o.at.is_finite() && o.at >= 0.0,
                "counter outage start invalid"
            );
            assert!(
                o.failover.is_finite() && o.failover >= 0.0,
                "counter failover time invalid"
            );
        }
        if self.drop_prob > 0.0 || !self.rank_failures.is_empty() {
            assert!(
                self.rpc_timeout > 0.0,
                "rpc_timeout must be positive when requests can go unanswered"
            );
        }
    }
}

/// Fault/recovery event counts of one degraded run.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Fault events that fired (rank deaths, dropped/delayed messages,
    /// counter outage).
    pub injected: u64,
    /// Rank failures the scheduler detected and acted upon.
    pub detected: u64,
    /// Tasks orphaned by rank deaths (a task re-orphaned by a second
    /// death counts again).
    pub orphaned: u64,
    /// Orphaned tasks re-executed to completion on survivors.
    pub recovered: u64,
    /// Tasks never executed (only possible when every rank that could
    /// run them died).
    pub lost: u64,
    /// Messages silently dropped (retried by the sender).
    pub dropped_messages: u64,
    /// Messages that arrived late by [`FaultPlan::delay`].
    pub delayed_messages: u64,
    /// Round trips abandoned after [`FaultPlan::rpc_timeout`] because a
    /// dead rank never responded.
    pub rpc_timeouts: u64,
    /// Counter-host failovers to the backup (0 or 1).
    pub counter_failovers: u64,
    /// Per-recovered-task latency (s) from the orphaning death to the
    /// completed re-execution.
    pub recovery_latency: Vec<f64>,
}

/// Result of a fault-injected simulation: the usual [`SimReport`] plus
/// fault accounting.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Performance report (makespan, busy, tasks, steals, …).
    pub sim: SimReport,
    /// Fault and recovery accounting.
    pub faults: FaultStats,
}

/// Runs `costs` under `model` with faults injected per `plan`.
///
/// [`crate::sim::simulate`] is this function under
/// [`FaultPlan::fault_free`]: there is one loop per model family, and a
/// plan that schedules no fault of some kind makes it allocate and touch
/// none of that fault's state.
pub fn simulate_with_faults(
    costs: &[f64],
    model: &SimModel,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> FaultReport {
    crate::sim::run(costs, &model.lower(cfg), cfg, plan)
}

/// Earliest scheduled death per worker; empty when the plan kills
/// nobody, so fault-free runs carry no per-rank fault state.
pub(crate) fn death_times(p: usize, plan: &FaultPlan) -> Vec<Option<f64>> {
    if plan.rank_failures.is_empty() {
        return Vec::new();
    }
    let mut d: Vec<Option<f64>> = vec![None; p];
    for f in &plan.rank_failures {
        d[f.rank] = Some(d[f.rank].map_or(f.at, |x: f64| x.min(f.at)));
    }
    d
}

/// Assigns orphan tasks to survivors; returns, per orphan, an index
/// into the survivor list. `survivor_loads` are the survivors' residual
/// completion times (s).
pub(crate) fn assign_orphans(
    weights: &[f64],
    survivor_loads: &[f64],
    policy: RecoveryPolicy,
) -> Vec<usize> {
    let s = survivor_loads.len();
    assert!(s > 0, "no survivors to receive orphans");
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    match policy {
        RecoveryPolicy::BlockSurvivors => (0..n).map(|i| i * s / n).collect(),
        RecoveryPolicy::SemiMatching => {
            // Orphans may go anywhere; each survivor's residual load is
            // a phantom task pinned to it so the balancer sees current
            // imbalance.
            let base = survivor_loads.iter().cloned().fold(f64::INFINITY, f64::min);
            let mut w = weights.to_vec();
            let mut adj = full_adjacency(n, s);
            for (k, &load) in survivor_loads.iter().enumerate() {
                w.push((load - base).max(0.0));
                adj.push(vec![k as u32]);
            }
            let problem = Problem::new(w, s);
            let assignment = semi_matching(&problem, &adj, &SemiMatchConfig::default());
            assignment[..n].iter().map(|&x| x as usize).collect()
        }
        RecoveryPolicy::Persistence => {
            // Naive initial placement (everything on the least-loaded
            // survivor), then the persistence rebalancer migrates the
            // minimum to meet its imbalance target.
            let least = survivor_loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN load"))
                .map_or(0, |(k, _)| k);
            let previous = vec![least as u32; n];
            let problem = Problem::new(weights.to_vec(), s);
            let assignment = rebalance(&problem, &previous);
            assignment.iter().map(|&x| x as usize).collect()
        }
    }
}

/// Fail-stop bookkeeping of the stealing loop, built only for plans that
/// kill a rank: who is dead, whom thieves still believe alive, what was
/// orphaned, and when survivors may redistribute it.
pub(crate) struct Liveness {
    /// Earliest scheduled death per rank.
    pub(crate) death: Vec<Option<f64>>,
    /// Fail-stop flags, indexed by rank.
    pub(crate) dead: Vec<bool>,
    /// Live ranks in ascending rank order — the survivor set orphans are
    /// redistributed over. Updated immediately at death.
    alive_now: Vec<usize>,
    /// Ranks *believed* live by thieves, in ascending rank order: a dead
    /// rank stays in here (and keeps absorbing steal requests, which
    /// time out) until its death is detected.
    alive: Vec<usize>,
    /// Index of each rank in `alive` (valid only while the rank is in
    /// `alive`).
    alive_pos: Vec<usize>,
    /// Pending detections `(dt + detection_interval, rank)`, sorted by
    /// descending time so the next one pops from the back.
    detect: Vec<(f64, usize)>,
    /// Residual queued cost per rank, maintained incrementally so
    /// redistribution never rescans queues.
    pub(crate) qload: Vec<f64>,
    /// Time of the death that last orphaned each task (NaN: never).
    orphan_death: Vec<f64>,
    /// Pending redistributions `(due time, batch serial, orphans)`,
    /// sorted by descending key so the earliest batch pops from the
    /// back; the serial keeps same-time batches in death order.
    redis: Vec<(f64, u64, Vec<usize>)>,
    redis_ser: u64,
    detection_interval: f64,
    recovery: RecoveryPolicy,
}

impl Liveness {
    pub(crate) fn new(costs: &[f64], queues: &RankQueues, plan: &FaultPlan) -> Liveness {
        let p = queues.ranks();
        Liveness {
            death: death_times(p, plan),
            dead: vec![false; p],
            alive_now: (0..p).collect(),
            alive: (0..p).collect(),
            alive_pos: (0..p).collect(),
            detect: Vec::new(),
            qload: (0..p)
                .map(|w| queues.queue(w).map(|i| costs[i]).sum())
                .collect(),
            orphan_death: vec![f64::NAN; costs.len()],
            redis: Vec::new(),
            redis_ser: 0,
            detection_interval: plan.detection_interval,
            recovery: plan.recovery,
        }
    }

    /// Brings the fault state up to time `t`: thieves drop every rank
    /// whose death has been detected, and survivors redistribute each
    /// orphan batch whose detection time has passed.
    #[inline]
    pub(crate) fn advance(
        &mut self,
        t: f64,
        costs: &[f64],
        queues: &mut RankQueues,
        tracker: &mut WorkTracker,
        stats: &mut FaultStats,
    ) {
        while self.detect.last().is_some_and(|&(due, _)| due <= t) {
            let (_, v) = self.detect.pop().expect("checked non-empty");
            let pos = self.alive_pos[v];
            self.alive.remove(pos);
            for k in pos..self.alive.len() {
                self.alive_pos[self.alive[k]] = k;
            }
        }
        while self.redis.last().is_some_and(|&(due, _, _)| due <= t) {
            let (_, _, orphans) = self.redis.pop().expect("checked non-empty");
            if self.alive_now.is_empty() {
                continue; // unreachable: the worker popped at `t` is alive
            }
            stats.detected += 1;
            let weights: Vec<f64> = orphans.iter().map(|&i| costs[i]).collect();
            let loads: Vec<f64> = self.alive_now.iter().map(|&s| self.qload[s]).collect();
            let assign = assign_orphans(&weights, &loads, self.recovery);
            for (k, &i) in orphans.iter().enumerate() {
                let s = self.alive_now[assign[k]];
                queues.push_back(s, i);
                self.qload[s] += costs[i];
                tracker.update(s, true);
            }
        }
    }

    /// The quiescence rule. Asked when every queue is empty and no haul
    /// is in flight, so that each unfinished task is either running to
    /// completion or waiting in an orphan batch (a rank that will die
    /// mid-task is killed when the task starts, so running tasks orphan
    /// nothing later): no probe can succeed before the earliest pending
    /// redistribution, and idle rank `w` has nothing to do until then, or
    /// until its own scheduled death if that comes first. `None` when no
    /// redistribution is pending — nothing will ever be stealable again.
    #[inline]
    pub(crate) fn quiescent_until(&self, w: usize) -> Option<f64> {
        let &(due, _, _) = self.redis.last()?;
        Some(self.death[w].map_or(due, |dt| dt.min(due)))
    }

    /// Uniform victim for thief `w` among the ranks it believes alive —
    /// dead ranks keep getting hit until detection. `w` itself, without
    /// a draw, when it knows of no other rank.
    #[inline]
    pub(crate) fn victim(&self, rng: &mut SplitMix, w: usize) -> usize {
        let k = self.alive.len();
        if k < 2 {
            return w;
        }
        let mut idx = (rng.next() as usize) % (k - 1);
        if idx >= self.alive_pos[w] {
            idx += 1;
        }
        self.alive[idx]
    }

    /// Task `i` (of cost `cost`) left `w`'s queue and ran to completion
    /// at `end`.
    #[inline]
    pub(crate) fn completed(
        &mut self,
        w: usize,
        i: usize,
        cost: f64,
        end: f64,
        stats: &mut FaultStats,
    ) {
        self.qload[w] -= cost;
        if !self.orphan_death[i].is_nan() {
            stats.recovered += 1;
            stats.recovery_latency.push(end - self.orphan_death[i]);
        }
    }

    /// Fail-stop of `w` at `dt`: freezes the rank, orphans its queue,
    /// drops it from the survivor set, and schedules both redistribution
    /// and thief-side detection after the detection interval.
    pub(crate) fn die(
        &mut self,
        w: usize,
        dt: f64,
        queues: &mut RankQueues,
        tracker: &mut WorkTracker,
        stats: &mut FaultStats,
    ) {
        self.dead[w] = true;
        stats.injected += 1;
        let orphans = queues.take_all(w);
        self.qload[w] = 0.0;
        tracker.update(w, false);
        let pos = self
            .alive_now
            .binary_search(&w)
            .expect("dying rank is alive");
        self.alive_now.remove(pos);
        let due = dt + self.detection_interval;
        let pos = self.detect.partition_point(|&(d, _)| d > due);
        self.detect.insert(pos, (due, w));
        stats.orphaned += orphans.len() as u64;
        for &i in &orphans {
            self.orphan_death[i] = dt;
        }
        if !orphans.is_empty() {
            let ser = self.redis_ser;
            self.redis_ser += 1;
            let pos = self.redis.partition_point(|&(d, s, _)| (d, s) > (due, ser));
            self.redis.insert(pos, (due, ser, orphans));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::sim::simulate;
    use emx_sched::block_partition;

    fn skewed(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64 * 1e-4).collect()
    }

    #[test]
    fn static_fail_stop_orphans_the_residual_list() {
        let costs = vec![1.0; 32];
        let p = 4;
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(p)
        };
        // Worker 1 owns tasks 8..16 and dies after ~2 of them.
        let plan = FaultPlan::fault_free().with_rank_failure(1, 2.5);
        let r = simulate_with_faults(
            &costs,
            &SimModel::Static(block_partition(32, p)),
            &cfg,
            &plan,
        );
        // 2 done before death, the in-flight third loses progress: 6 orphans.
        assert_eq!(r.faults.orphaned, 6);
        assert_eq!(r.faults.recovered, 6);
        assert_eq!(r.sim.tasks[1], 2);
        assert!(r.sim.makespan > 8.0, "survivors absorb the orphans");
    }

    #[test]
    fn fully_dead_group_orphans_its_range_to_other_groups() {
        // A two-leaf counter tree: workers 0,1 share leaf 0, workers 2,3
        // leaf 1, and each leaf refills 10-task blocks from the root.
        // Both ranks of leaf 0 die mid-claim at 2.5 with 8..10 of the
        // leaf's block unclaimed: that residue must join their two
        // claims on the global recovery queue — survivors on leaf 1
        // finish it, so nothing is lost.
        let costs = vec![1.0; 40];
        let p = 4;
        let cfg = SimConfig {
            machine: MachineModel::ideal(),
            ..SimConfig::new(p)
        };
        let plan = FaultPlan::fault_free()
            .with_rank_failure(0, 2.5)
            .with_rank_failure(1, 2.5);
        let model = SimModel::HierCounters {
            chunk: 2,
            node_size: 2,
            parent_chunk: 10,
        };
        let r = simulate_with_faults(&costs, &model, &cfg, &plan);
        assert_eq!(r.faults.lost, 0, "dead leaf's block must be recovered");
        assert_eq!(r.faults.recovered, r.faults.orphaned);
        assert_eq!(r.faults.orphaned, 2 + 2 + 2, "two claims and the residue");
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 40);
        assert_eq!(r.sim.tasks[0] + r.sim.tasks[1], 4, "two chunks before 2.5");
        assert_eq!(r.sim.tasks[2] + r.sim.tasks[3], 36);
    }

    #[test]
    fn counter_outage_stalls_then_fails_over() {
        let costs = vec![1e-3; 64];
        let cfg = SimConfig::new(4);
        let baseline = simulate(&costs, &SimModel::Counter { chunk: 2 }, &cfg);
        let plan = FaultPlan::fault_free().with_counter_outage(baseline.makespan * 0.3, 5e-3);
        let r = simulate_with_faults(&costs, &SimModel::Counter { chunk: 2 }, &cfg, &plan);
        assert_eq!(r.faults.counter_failovers, 1);
        assert_eq!(r.faults.lost, 0);
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 64);
        assert!(
            r.sim.makespan > baseline.makespan,
            "outage must cost time: {} vs {}",
            r.sim.makespan,
            baseline.makespan
        );
    }

    /// Runs a four-rank counter simulation under an outage at `at` with
    /// `failover` — the shape every invalid-outage case below shares.
    fn outage(at: f64, failover: f64) {
        let plan = FaultPlan::fault_free().with_counter_outage(at, failover);
        simulate_with_faults(
            &[1e-3; 16],
            &SimModel::Counter { chunk: 2 },
            &SimConfig::new(4),
            &plan,
        );
    }

    #[test]
    #[should_panic(expected = "counter failover time invalid")]
    fn infinite_counter_failover_is_rejected() {
        outage(1e-3, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "counter failover time invalid")]
    fn nan_counter_failover_is_rejected() {
        outage(1e-3, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "counter failover time invalid")]
    fn negative_counter_failover_is_rejected() {
        outage(1e-3, -1e-3);
    }

    #[test]
    #[should_panic(expected = "counter outage start invalid")]
    fn infinite_counter_outage_start_is_rejected() {
        outage(f64::INFINITY, 1e-3);
    }

    #[test]
    #[should_panic(expected = "counter outage start invalid")]
    fn nan_counter_outage_start_is_rejected() {
        outage(f64::NAN, 1e-3);
    }

    #[test]
    #[should_panic(expected = "counter outage start invalid")]
    fn negative_counter_outage_start_is_rejected() {
        outage(-1e-3, 1e-3);
    }

    #[test]
    #[should_panic(expected = "rpc_timeout must be positive")]
    fn a_death_without_an_rpc_timeout_is_rejected() {
        let mut plan = FaultPlan::fault_free().with_rank_failure(1, 1e-3);
        plan.rpc_timeout = 0.0;
        simulate_with_faults(
            &[1e-3; 16],
            &SimModel::WorkStealing { steal_half: true },
            &SimConfig::new(4),
            &plan,
        );
    }

    #[test]
    fn message_drops_retry_until_done() {
        let costs = skewed(64);
        let cfg = SimConfig::new(4);
        for model in [
            SimModel::Counter { chunk: 2 },
            SimModel::WorkStealing { steal_half: true },
        ] {
            let plan = FaultPlan::fault_free().with_message_faults(0.3, 0.2, 50e-6);
            let r = simulate_with_faults(&costs, &model, &cfg, &plan);
            assert!(r.faults.dropped_messages > 0, "{}", model.name());
            assert!(r.faults.delayed_messages > 0, "{}", model.name());
            assert_eq!(r.faults.lost, 0, "{}", model.name());
            assert_eq!(r.sim.tasks.iter().sum::<usize>(), 64, "{}", model.name());
        }
    }

    #[test]
    fn dead_victim_steals_time_out_with_backoff() {
        let costs = skewed(64);
        let p = 4;
        let cfg = SimConfig::new(p);
        let total: f64 = costs.iter().sum();
        let mut plan = FaultPlan::fault_free()
            .with_rank_failure(2, 0.15 * total / p as f64)
            .with_backoff(20e-6, 2.0, 1e-3);
        // Slow detector: the dead rank stays in the thieves'
        // believed-alive victim set for the whole stealing phase, so
        // requests keep hitting it and timing out. (Once a death is
        // detected, thieves drop the rank and stop paying timeouts.)
        plan.detection_interval = 0.5;
        let r = simulate_with_faults(
            &costs,
            &SimModel::WorkStealing { steal_half: true },
            &cfg,
            &plan,
        );
        assert!(r.faults.rpc_timeouts > 0, "thieves must hit the dead rank");
        assert_eq!(r.faults.lost, 0);
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 64);
    }

    #[test]
    fn endgame_steal_ping_pong_terminates() {
        // Two of four ranks die early, leaving two idle survivors and a
        // dwindling task supply. With instantaneous steals the last
        // task used to bounce between the survivors forever — each
        // re-stole it from the other's queue before the other's arrival
        // event could execute it. In-flight hauls (tasks invisible
        // between the steal decision and the thief's arrival) make that
        // livelock structurally impossible; this pins the exact wedged
        // configuration from the fault-matrix verifier.
        let costs: Vec<f64> = (0..48)
            .map(|i| 1e-6 * (1.0 + (48 - i) as f64 / 8.0))
            .collect();
        let mut plan = FaultPlan::fault_free()
            .with_rank_failure(1, 2e-6)
            .with_rank_failure(3, 4e-6)
            .with_recovery(RecoveryPolicy::BlockSurvivors);
        plan.rpc_timeout = 50e-6;
        let cfg = SimConfig::new(4);
        let r = simulate_with_faults(
            &costs,
            &SimModel::WorkStealing { steal_half: true },
            &cfg,
            &plan,
        );
        assert_eq!(r.faults.lost, 0, "survivors must finish every task");
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), 48);
    }

    #[test]
    fn ten_thousand_ranks_with_half_failing_finish_without_blowup() {
        // Scale regression for the fault path: 10⁴ ranks, every even
        // rank fail-stops early, survivors absorb the orphans. Bounded in
        // events, not seconds: tasks + steal attempts stay linear in
        // n + P = 30 000 (measured 20 000 + 471 685, of which 183 734
        // time out on a dead victim: survivors with a task left keep the
        // others probing until the detector fires, so this cell has no
        // quiescent gap to wait out).
        let p = 10_000;
        let n = 2 * p;
        let costs: Vec<f64> = (0..n).map(|i| ((i * 13) % 7 + 1) as f64 * 1e-4).collect();
        let mut cfg = SimConfig::new(p);
        cfg.machine.topology = Some(crate::machine::Topology::default());
        let mut plan = FaultPlan::fault_free().with_recovery(RecoveryPolicy::BlockSurvivors);
        for w in (0..p).step_by(2) {
            plan = plan.with_rank_failure(w, 1e-4 + w as f64 * 1e-8);
        }
        let r = simulate_with_faults(
            &costs,
            &SimModel::TopologyStealing { steal_half: true },
            &cfg,
            &plan,
        );
        assert_eq!(r.faults.injected, (p / 2) as u64);
        assert_eq!(r.faults.lost, 0, "survivors must finish every task");
        assert_eq!(r.sim.tasks.iter().sum::<usize>(), n);
        assert!((0..p).step_by(2).all(|w| r.sim.tasks[w] * 50 < n));
        let events = n as u64 + r.sim.steal_attempts;
        assert!(events <= 32 * (n + p) as u64, "{events} events");
    }

    #[test]
    fn recovery_policies_land_orphans_on_distinct_survivor_sets() {
        // Sanity on assign_orphans itself: everything in range, and the
        // balanced policies spread load better than a single survivor.
        let weights: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let loads = vec![5.0, 0.0, 30.0];
        for policy in [
            RecoveryPolicy::BlockSurvivors,
            RecoveryPolicy::SemiMatching,
            RecoveryPolicy::Persistence,
        ] {
            let a = assign_orphans(&weights, &loads, policy);
            assert_eq!(a.len(), 20);
            assert!(a.iter().all(|&s| s < 3), "{}", policy.name());
            assert!(
                a.iter().collect::<std::collections::HashSet<_>>().len() > 1,
                "{} uses more than one survivor",
                policy.name()
            );
        }
    }
}
