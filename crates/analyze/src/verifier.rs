//! The schedule verifier.
//!
//! For every [`PolicyKind`] this module checks the invariants the rest
//! of the workspace merely asserts in passing:
//!
//! * **Exactly-once coverage** — the sequential replay assigns each of
//!   `0..ntasks` to exactly one worker (via [`crate::replay::probe`]).
//! * **Bounded idle** — no worker spends more than a small, topology-
//!   derived number of scheduling rounds neither obtaining work nor
//!   retiring.
//! * **Determinism** — two identically-configured replays agree; any
//!   divergence means hidden state (wall clock, ambient RNG) leaked
//!   into a replay path.
//! * **Cross-substrate agreement** — deterministic policies produce the
//!   same task→worker map on the sequential replay, the discrete-event
//!   simulator and the threaded executor; dynamic policies keep
//!   exactly-once on every substrate.
//! * **Fault tolerance** — under every fault scenario ×
//!   [`RecoveryPolicy`], work is conserved (`executed + lost = total`),
//!   nothing is lost while survivors remain, orphans are recovered, no
//!   recovery completes faster than the failure could be detected, and
//!   the whole degraded run is reproducible.
//!
//! Combinations the fault simulator cannot express are recorded in
//! [`AnalysisReport::skipped`] — never silently dropped.

use crate::replay::probe;
use crate::report::{AnalysisReport, Violation, ViolationKind};
use emx_distsim::prelude::{
    simulate_policy, simulate_with_faults, FaultPlan, RecoveryPolicy, SimConfig, SimModel,
};
use emx_runtime::pool::Executor;
use emx_sched::{build_policy, PolicyKind};
use std::sync::{Arc, Mutex};

/// Workload shape the verifier drives every policy through.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// Number of tasks in the synthetic workload.
    pub ntasks: usize,
    /// Worker / rank count.
    pub workers: usize,
    /// Chunk size used when building counter-based rosters.
    pub chunk: usize,
    /// Also run the threaded executor as a third substrate. Off for
    /// unit tests that must stay single-threaded (miri, loom builds).
    pub threads: bool,
}

impl Default for VerifierConfig {
    fn default() -> VerifierConfig {
        VerifierConfig {
            ntasks: 96,
            workers: 6,
            chunk: 4,
            threads: true,
        }
    }
}

impl VerifierConfig {
    /// Synthetic task costs: a deterministic skewed profile (heavy head,
    /// light tail) that exercises rebalancing without any RNG.
    pub fn costs(&self) -> Vec<f64> {
        (0..self.ntasks)
            .map(|i| 1e-6 * (1.0 + ((self.ntasks - i) as f64) / 8.0))
            .collect()
    }
}

/// The policy roster the verifier sweeps: every [`PolicyKind`] variant,
/// including the two assignment-carrying ones. `full_roster` covers all
/// but `StaticAssigned`; a reversed-block explicit map is appended so
/// the sweep reaches that variant too.
pub fn verification_roster(cfg: &VerifierConfig) -> Vec<PolicyKind> {
    let costs = cfg.costs();
    let mut out: Vec<PolicyKind> = PolicyKind::full_roster(&costs, cfg.workers, cfg.chunk)
        .into_iter()
        .map(|(_, k)| k)
        .collect();
    let owners: Vec<u32> = (0..cfg.ntasks)
        .map(|i| (cfg.workers - 1 - i * cfg.workers / cfg.ntasks.max(1)) as u32)
        .collect();
    out.push(PolicyKind::StaticAssigned(Arc::new(owners)));
    out
}

/// Named fault scenarios crossed with every recovery policy by
/// [`verify_policy_faults`]. All times are in simulated seconds and sit
/// well inside the synthetic workload's makespan.
pub fn fault_scenarios(cfg: &VerifierConfig) -> Vec<(String, FaultPlan)> {
    let p = cfg.workers;
    let mut out = vec![
        ("healthy".to_string(), FaultPlan::fault_free()),
        (
            "one-death".to_string(),
            FaultPlan::fault_free().with_rank_failure(p - 1, 2e-6),
        ),
        (
            "two-deaths".to_string(),
            FaultPlan::fault_free()
                .with_rank_failure(1, 2e-6)
                .with_rank_failure(p - 1, 4e-6),
        ),
        (
            "message-chaos".to_string(),
            FaultPlan::fault_free().with_message_faults(0.2, 0.2, 3e-6),
        ),
        (
            "death-plus-chaos".to_string(),
            FaultPlan::fault_free()
                .with_rank_failure(0, 3e-6)
                .with_message_faults(0.1, 0.1, 2e-6),
        ),
        (
            "counter-outage".to_string(),
            FaultPlan::fault_free().with_counter_outage(2e-6, 10e-6),
        ),
    ];
    for (_, plan) in &mut out {
        // A positive timeout keeps dead-rank round trips bounded in
        // every scenario; healthy runs never consult it.
        plan.rpc_timeout = 50e-6;
    }
    out
}

fn assignment_from_threads(kind: &PolicyKind, ntasks: usize, workers: usize) -> Vec<Vec<usize>> {
    let exec = Executor::new(workers, kind.clone());
    let (locals, _report) = exec.run(
        ntasks,
        |_w| Vec::new(),
        |i, local: &mut Vec<usize>| local.push(i),
    );
    locals
}

/// Healthy-path verification of one policy: exactly-once, bounded idle,
/// replay determinism, and cross-substrate agreement.
pub fn verify_policy(kind: &PolicyKind, cfg: &VerifierConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let label = kind.name();
    let scenario = "healthy";

    // Substrate 1: sequential replay, probed twice for determinism.
    let mut p1 = build_policy(kind, cfg.ntasks, cfg.workers);
    let out1 = probe(p1.as_mut(), cfg.ntasks, cfg.workers, label, scenario);
    report.violations.extend(out1.violations.clone());
    let mut p2 = build_policy(kind, cfg.ntasks, cfg.workers);
    let out2 = probe(p2.as_mut(), cfg.ntasks, cfg.workers, label, scenario);
    if out1.assignment != out2.assignment {
        report.violations.push(Violation::new(
            label,
            ViolationKind::Nondeterminism,
            scenario,
            "two identically-configured replays produced different assignments",
        ));
    }

    // Bounded idle: the replay budget flags unbounded spin as Livelock;
    // here we additionally bound *transient* idle. A worker may wait for
    // one redistribution chain (≤ workers rounds) plus slack.
    let idle_bound = 2 * cfg.workers as u64 + 4;
    if !out1.stalled && out1.max_idle_rounds > idle_bound {
        report.violations.push(Violation::new(
            label,
            ViolationKind::UnboundedIdle,
            scenario,
            format!(
                "{} consecutive fruitless rounds observed (bound {idle_bound})",
                out1.max_idle_rounds
            ),
        ));
    }

    // Substrate 2: the discrete-event simulator.
    let sim_cfg = SimConfig::new(cfg.workers);
    let costs = cfg.costs();
    if SimModel::from_policy(kind, cfg.ntasks, cfg.workers).is_some() {
        let sim = simulate_policy(&costs, kind, &sim_cfg);
        if kind.is_deterministic() {
            if sim.assignment != out1.assignment_or_max() {
                report.violations.push(Violation::new(
                    label,
                    ViolationKind::SubstrateMismatch,
                    scenario,
                    "simulator assignment differs from sequential replay \
                     for a deterministic policy",
                ));
            }
        } else {
            // Dynamic policies keep exactly-once on the simulator too.
            let mut seen = vec![0u32; cfg.ntasks];
            for (i, &w) in sim.assignment.iter().enumerate() {
                if (w as usize) < cfg.workers {
                    seen[i] += 1;
                } else {
                    report.violations.push(
                        Violation::new(
                            label,
                            ViolationKind::OutOfRange,
                            scenario,
                            format!("simulator assigned task {i} to worker {w}"),
                        )
                        .at_task(i),
                    );
                }
            }
            for (i, &n) in seen.iter().enumerate() {
                if n == 0 {
                    report.violations.push(
                        Violation::new(
                            label,
                            ViolationKind::TaskDropped,
                            scenario,
                            format!("simulator never ran task {i}"),
                        )
                        .at_task(i),
                    );
                }
            }
        }
    } else {
        report.skipped.push(format!(
            "{label}/simulator: no SimModel equivalent for this policy"
        ));
    }

    // Substrate 3: the threaded executor.
    if cfg.threads {
        let locals = assignment_from_threads(kind, cfg.ntasks, cfg.workers);
        let mut owner = vec![None::<usize>; cfg.ntasks];
        for (w, tasks) in locals.iter().enumerate() {
            for &i in tasks {
                match owner[i] {
                    Some(prev) => report.violations.push(
                        Violation::new(
                            label,
                            ViolationKind::TaskDuplicated,
                            scenario,
                            format!("threads ran task {i} on workers {prev} and {w}"),
                        )
                        .at_task(i)
                        .at_worker(w),
                    ),
                    None => owner[i] = Some(w),
                }
            }
        }
        for (i, o) in owner.iter().enumerate() {
            if o.is_none() {
                report.violations.push(
                    Violation::new(
                        label,
                        ViolationKind::TaskDropped,
                        scenario,
                        format!("threads never ran task {i}"),
                    )
                    .at_task(i),
                );
            }
        }
        if kind.is_deterministic() {
            let threads: Vec<u32> = owner
                .iter()
                .map(|o| o.map_or(u32::MAX, |w| w as u32))
                .collect();
            if threads != out1.assignment_or_max() {
                report.violations.push(Violation::new(
                    label,
                    ViolationKind::SubstrateMismatch,
                    scenario,
                    "threaded executor assignment differs from sequential \
                     replay for a deterministic policy",
                ));
            }
        }
    }

    if report.is_clean() {
        report
            .passed
            .push((label.to_string(), scenario.to_string()));
    }
    report
}

/// Fault-tolerance verification of one policy: every scenario from
/// [`fault_scenarios`] crossed with every [`RecoveryPolicy`].
pub fn verify_policy_faults(kind: &PolicyKind, cfg: &VerifierConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let label = kind.name();
    let Some(model) = SimModel::from_policy(kind, cfg.ntasks, cfg.workers) else {
        report.skipped.push(format!(
            "{label}/faults: no SimModel equivalent for this policy"
        ));
        return report;
    };
    let costs = cfg.costs();
    let sim_cfg = SimConfig::new(cfg.workers);

    for (name, base_plan) in fault_scenarios(cfg) {
        for recovery in [
            RecoveryPolicy::BlockSurvivors,
            RecoveryPolicy::SemiMatching,
            RecoveryPolicy::Persistence,
        ] {
            let scenario = format!("{name}/{}", recovery.name());
            let plan = base_plan.clone().with_recovery(recovery);
            let r = simulate_with_faults(&costs, &model, &sim_cfg, &plan);
            let executed: usize = r.sim.tasks.iter().sum();
            let deaths = {
                let mut ranks: Vec<usize> = plan.rank_failures.iter().map(|f| f.rank).collect();
                ranks.sort_unstable();
                ranks.dedup();
                ranks.len()
            };
            let survivors = cfg.workers - deaths;

            if executed + r.faults.lost as usize != cfg.ntasks {
                report.violations.push(Violation::new(
                    label,
                    ViolationKind::AccountingLeak,
                    &scenario,
                    format!(
                        "executed {executed} + lost {} != {} tasks",
                        r.faults.lost, cfg.ntasks
                    ),
                ));
            }
            if survivors > 0 && r.faults.lost > 0 {
                report.violations.push(Violation::new(
                    label,
                    ViolationKind::LostTask,
                    &scenario,
                    format!(
                        "{} tasks lost although {survivors} ranks survived",
                        r.faults.lost
                    ),
                ));
            }
            if r.faults.lost == 0 && r.faults.recovered != r.faults.orphaned {
                report.violations.push(Violation::new(
                    label,
                    ViolationKind::AccountingLeak,
                    &scenario,
                    format!(
                        "orphaned {} but recovered {} with nothing lost",
                        r.faults.orphaned, r.faults.recovered
                    ),
                ));
            }
            for &lat in &r.faults.recovery_latency {
                if lat + 1e-12 < plan.detection_interval {
                    report.violations.push(Violation::new(
                        label,
                        ViolationKind::EarlyRecovery,
                        &scenario,
                        format!(
                            "recovery latency {lat:.2e}s beats the \
                             {:.2e}s detection interval",
                            plan.detection_interval
                        ),
                    ));
                    break;
                }
            }

            // Degraded-mode determinism: the whole faulty run replays.
            let again = simulate_with_faults(&costs, &model, &sim_cfg, &plan);
            if again.sim.assignment != r.sim.assignment
                || again.faults.lost != r.faults.lost
                || again.faults.recovered != r.faults.recovered
            {
                report.violations.push(Violation::new(
                    label,
                    ViolationKind::Nondeterminism,
                    &scenario,
                    "two identically-seeded fault-injected runs disagreed",
                ));
            }

            let clean_before = report
                .violations
                .iter()
                .filter(|v| v.scenario == scenario && v.policy == label)
                .count();
            if clean_before == 0 {
                report.passed.push((label.to_string(), scenario));
            }
        }
    }
    report
}

/// Runs the full verification: every roster policy through the healthy
/// checks and the fault matrix. This is what `reproduce analyze` and the
/// CI gate execute.
pub fn verify_all(cfg: &VerifierConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    for kind in verification_roster(cfg) {
        report.merge(verify_policy(&kind, cfg));
        report.merge(verify_policy_faults(&kind, cfg));
    }
    report
}

/// A [`Mutex`]-guarded scratch used by tests that tweak process-wide
/// state; exported so integration tests across the crate serialize.
pub static VERIFY_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> VerifierConfig {
        VerifierConfig {
            ntasks: 48,
            workers: 4,
            chunk: 3,
            threads: false,
        }
    }

    #[test]
    fn roster_covers_every_policy_kind_variant() {
        let cfg = quick();
        let roster = verification_roster(&cfg);
        let mut variants: Vec<&str> = roster.iter().map(|k| k.name()).collect();
        variants.sort_unstable();
        variants.dedup();
        // One roster entry per PolicyKind variant (canonical_names is
        // the registry's own variant list).
        for name in PolicyKind::canonical_names() {
            assert!(
                variants.iter().any(|v| v == name),
                "roster misses variant {name}"
            );
        }
    }

    #[test]
    fn healthy_roster_verifies_clean() {
        let cfg = quick();
        for kind in verification_roster(&cfg) {
            let r = verify_policy(&kind, &cfg);
            assert!(r.is_clean(), "{}: {:?}", kind.name(), r.violations);
            assert_eq!(r.passed.len(), 1);
        }
    }

    #[test]
    fn fault_matrix_verifies_clean_and_skips_are_explicit() {
        let cfg = quick();
        let mut expressible = 0;
        for kind in verification_roster(&cfg) {
            let r = verify_policy_faults(&kind, &cfg);
            assert!(r.is_clean(), "{}: {:?}", kind.name(), r.violations);
            if r.skipped.is_empty() {
                expressible += 1;
                // 6 scenarios × 3 recovery policies all passed.
                assert_eq!(r.passed.len(), 18, "{}", kind.name());
            } else {
                assert!(r.passed.is_empty());
            }
        }
        assert!(
            expressible >= 5,
            "fault matrix covered {expressible} policies"
        );
    }

    #[test]
    fn threaded_substrate_agrees() {
        let cfg = VerifierConfig {
            threads: true,
            ..quick()
        };
        for kind in [
            PolicyKind::StaticBlock,
            PolicyKind::DynamicCounter { chunk: 3 },
            PolicyKind::WorkStealing(Default::default()),
        ] {
            let r = verify_policy(&kind, &cfg);
            assert!(r.is_clean(), "{}: {:?}", kind.name(), r.violations);
        }
    }
}
