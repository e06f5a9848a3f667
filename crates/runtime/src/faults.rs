//! Fault injection for the shared-memory executor: poisoned tasks.
//!
//! OS threads cannot be fail-stopped safely the way simulated ranks can
//! (killing a thread mid-task would leak locks and corrupt shared
//! accumulators), so the thread substrate models degraded execution with
//! the fault that *is* meaningful in-process: a selected task panics
//! (before touching any worker state); the executor catches the unwind,
//! logs it, and re-enqueues the work item instead of wedging the pool.
//! A task that keeps panicking beyond [`FaultInjection::max_retries`] is
//! treated as genuinely broken and its panic is propagated. A worker
//! that is alive but slow is not a fault here: it is
//! [`Variability::SlowCores`](crate::Variability::SlowCores).
//!
//! Injected panics fire *before* the task body runs, so a retry cannot
//! double-accumulate into the worker-local state — which is what keeps
//! cross-model Fock/energy consistency intact under injected faults
//! (asserted in `tests/cross_model_consistency.rs`). Genuine panics from
//! the task body itself are also caught and retried, but such a body
//! may have partially mutated its local state; idempotence there is the
//! caller's contract, exactly as it is for any retry-based runtime.
//!
//! Everything is deterministic: poison sets are explicit task lists or
//! seeded hashes.

use emx_sched::variability::unit_hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Which tasks are poisoned (panic once when first executed).
#[derive(Debug, Clone, Default)]
pub enum PoisonSpec {
    /// No poisoned tasks.
    #[default]
    None,
    /// Exactly these task indices are poisoned.
    Tasks(Arc<Vec<usize>>),
    /// Each task is poisoned independently with probability `prob`,
    /// decided by a deterministic hash of `(seed, task index)`.
    Random {
        /// Poisoning probability in `[0, 1]`.
        prob: f64,
        /// Deterministic seed.
        seed: u64,
    },
}

/// Fault-injection configuration carried by an
/// [`Executor`](crate::pool::Executor).
#[derive(Debug, Clone)]
pub struct FaultInjection {
    /// Poisoned-task selection.
    pub poison: PoisonSpec,
    /// How many times one task may panic before the executor gives up
    /// and propagates the panic (a genuinely broken task must not
    /// livelock the pool).
    pub max_retries: u32,
}

impl Default for FaultInjection {
    fn default() -> FaultInjection {
        FaultInjection {
            poison: PoisonSpec::None,
            max_retries: 3,
        }
    }
}

impl FaultInjection {
    /// Poisons exactly the given task indices.
    pub fn poison_tasks(tasks: Vec<usize>) -> FaultInjection {
        FaultInjection {
            poison: PoisonSpec::Tasks(Arc::new(tasks)),
            ..FaultInjection::default()
        }
    }
}

/// Shared per-run fault state: which tasks are poisoned, which poisons
/// have already fired, and per-task retry counts.
pub(crate) struct FaultState {
    poisoned: Vec<bool>,
    tripped: Vec<AtomicBool>,
    attempts: Vec<AtomicU32>,
    aborted: AtomicBool,
    pub(crate) max_retries: u32,
}

impl FaultState {
    pub(crate) fn new(ntasks: usize, cfg: &FaultInjection) -> FaultState {
        let mut poisoned = vec![false; ntasks];
        match &cfg.poison {
            PoisonSpec::None => {}
            PoisonSpec::Tasks(list) => {
                for &i in list.iter() {
                    if i < ntasks {
                        poisoned[i] = true;
                    }
                }
            }
            PoisonSpec::Random { prob, seed } => {
                for (i, p) in poisoned.iter_mut().enumerate() {
                    *p = unit_hash(*seed, i as u64) < *prob;
                }
            }
        }
        FaultState {
            poisoned,
            tripped: (0..ntasks).map(|_| AtomicBool::new(false)).collect(),
            attempts: (0..ntasks).map(|_| AtomicU32::new(0)).collect(),
            aborted: AtomicBool::new(false),
            max_retries: cfg.max_retries,
        }
    }

    /// Marks the run as aborted: some worker is about to propagate a
    /// panic from a task that exhausted its retries. Spin loops that
    /// otherwise wait for the remaining-task count to reach zero (the
    /// work-stealing idle loop) must check this, because the count will
    /// never reach zero once a worker unwinds.
    pub(crate) fn abort(&self) {
        // Protocol `runtime-abort-flag` role `raise`
        // (docs/protocols.toml): Release pairs with the Acquire in
        // `aborted`, so fault accounting written before the abort is
        // visible to every observer that sees the flag.
        self.aborted.store(true, Ordering::Release);
    }

    /// True once [`abort`](FaultState::abort) has been called.
    pub(crate) fn aborted(&self) -> bool {
        // Protocol `runtime-abort-flag` role `observe`.
        self.aborted.load(Ordering::Acquire)
    }

    // The three bookkeeping fns below are protocol
    // `runtime-fault-counters` (docs/protocols.toml): Relaxed per-task
    // cells read for reporting after the run, never used to publish
    // task data. The fns are enumerated in the manifest on purpose —
    // a file-wide wildcard could mask a weakened abort-flag store.

    /// True exactly once per poisoned task: the caller must panic.
    pub(crate) fn arm_poison(&self, i: usize) -> bool {
        self.poisoned[i] && !self.tripped[i].swap(true, Ordering::Relaxed)
    }

    /// Number of caught panics so far for task `i`.
    pub(crate) fn attempts(&self, i: usize) -> u32 {
        self.attempts[i].load(Ordering::Relaxed)
    }

    /// Records one caught panic of task `i` and returns the new attempt
    /// count.
    pub(crate) fn record_failure(&self, i: usize) -> u32 {
        self.attempts[i].fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Runs `f` under a poison check for task `i`: panics (to be caught by
/// the worker) when the task is poisoned and has not fired yet. A caught
/// panic — the poison or a genuine one from `f` — comes back as its
/// unwind payload, for re-raising after `max_retries`.
pub(crate) fn run_poisonable<R>(
    state: &FaultState,
    i: usize,
    f: impl FnOnce() -> R,
) -> Result<R, Box<dyn std::any::Any + Send>> {
    let poison = state.arm_poison(i);
    catch_unwind(AssertUnwindSafe(move || {
        if poison {
            panic!("injected fault: poisoned task {i}");
        }
        f()
    }))
}

/// Re-raises a payload from a task that exhausted its retries.
pub(crate) fn propagate(payload: Box<dyn std::any::Any + Send>) -> ! {
    resume_unwind(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_list_arms_exactly_once() {
        let cfg = FaultInjection::poison_tasks(vec![2, 5]);
        let st = FaultState::new(8, &cfg);
        assert!(st.arm_poison(2));
        assert!(!st.arm_poison(2), "a poison fires only once");
        assert!(!st.arm_poison(3));
        assert!(st.arm_poison(5));
    }

    #[test]
    fn random_poison_is_deterministic_and_roughly_calibrated() {
        let cfg = FaultInjection {
            poison: PoisonSpec::Random {
                prob: 0.25,
                seed: 7,
            },
            ..FaultInjection::default()
        };
        let a = FaultState::new(1000, &cfg);
        let b = FaultState::new(1000, &cfg);
        let count_a = a.poisoned.iter().filter(|&&p| p).count();
        let count_b = b.poisoned.iter().filter(|&&p| p).count();
        assert_eq!(count_a, count_b);
        assert!((150..350).contains(&count_a), "poisoned {count_a}/1000");
    }

    #[test]
    fn out_of_range_poison_indices_are_ignored() {
        let cfg = FaultInjection::poison_tasks(vec![99]);
        let st = FaultState::new(4, &cfg);
        assert!(!st.poisoned.iter().any(|&p| p));
    }

    #[test]
    fn failure_bookkeeping_counts_attempts() {
        let st = FaultState::new(3, &FaultInjection::default());
        assert_eq!(st.attempts(1), 0);
        assert_eq!(st.record_failure(1), 1);
        assert_eq!(st.record_failure(1), 2);
        assert_eq!(st.attempts(1), 2);
        assert_eq!(st.attempts(0), 0, "counts are per task");
    }

    #[test]
    fn run_poisonable_catches_injected_panic_then_succeeds() {
        let cfg = FaultInjection::poison_tasks(vec![0]);
        let st = FaultState::new(1, &cfg);
        let caught = run_poisonable(&st, 0, || 42).expect_err("poison must fire");
        let msg = caught.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(msg, "injected fault: poisoned task 0");
        assert_eq!(
            run_poisonable(&st, 0, || 42).expect("retry must succeed"),
            42
        );
    }

    #[test]
    fn genuine_task_panic_is_caught() {
        let st = FaultState::new(1, &FaultInjection::default());
        let caught =
            run_poisonable(&st, 0, || -> i32 { panic!("task body bug") }).expect_err("must catch");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"task body bug"));
    }

    #[test]
    fn abort_flag_starts_clear_and_latches() {
        let st = FaultState::new(1, &FaultInjection::default());
        assert!(!st.aborted());
        st.abort();
        assert!(st.aborted());
    }
}
