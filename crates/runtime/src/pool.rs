//! The shared-memory executor: runs an indexed task set under a chosen
//! execution model with per-worker local state.
//!
//! The contract mirrors the structure of the Fock build (and of any
//! inspector–executor iteration): `ntasks` independent tasks, each
//! executed exactly once by some worker, accumulating into that worker's
//! local state; the caller reduces the locals afterwards. This shape is
//! what lets one kernel run unchanged under every execution model.

use crate::faults::{propagate, run_poisonable, FaultInjection, FaultState};
use crate::report::{ExecutionReport, WorkerStats};
use crossbeam::deque::{Steal, Stealer, Worker as Deque};
use emx_obs::{EventKind, RingSet, RingWriter};
use emx_sched::{random_victim, worker_stream, ChunkRule, PolicyKind, StealConfig, Variability};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A configured executor.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Number of worker threads.
    pub workers: usize,
    /// Scheduling policy.
    pub model: PolicyKind,
    /// Performance-variability injection.
    pub variability: Variability,
    /// Per-worker profiling event rings; `None` (the default) keeps
    /// the task loop free of event clocks. Worker `w` writes ring `w`
    /// (`TaskStart`/`TaskEnd` per executed task, plus its hunts, counter
    /// fetches and reduction merges); drain with
    /// [`RingSet::snapshot_all`] after the run.
    pub rings: Option<Arc<RingSet>>,
    /// Fault injection (poisoned tasks); `None` (the default) keeps the
    /// task loop free of the catch-unwind wrapper.
    pub faults: Option<FaultInjection>,
}

impl Executor {
    /// Creates an executor with no variability and no rings attached.
    pub fn new(workers: usize, model: impl Into<PolicyKind>) -> Executor {
        assert!(workers > 0, "need at least one worker");
        Executor {
            workers,
            model: model.into(),
            variability: Variability::None,
            rings: None,
            faults: None,
        }
    }

    /// Attaches per-worker profiling rings (builder style): three atomic
    /// stores per event, no allocation, overwrite-oldest when full.
    pub fn with_rings(mut self, rings: Arc<RingSet>) -> Executor {
        self.rings = Some(rings);
        self
    }

    /// Attaches fault injection (builder style). Poisoned tasks are
    /// caught, logged and retried (re-enqueued under work stealing).
    pub fn with_faults(mut self, faults: FaultInjection) -> Executor {
        self.faults = Some(faults);
        self
    }

    /// Shared fault state for one run (`None` when faults are off).
    fn fault_state(&self, ntasks: usize) -> Option<Arc<FaultState>> {
        self.faults
            .as_ref()
            .map(|f| Arc::new(FaultState::new(ntasks, f)))
    }

    /// Worker `w`'s context among `p`: the run's clock and fault state,
    /// and its ring writer when rings are attached.
    fn worker_ctx(
        &self,
        w: usize,
        p: usize,
        start: Instant,
        faults: Option<Arc<FaultState>>,
    ) -> WorkerCtx {
        WorkerCtx {
            worker: w,
            nworkers: p,
            variability: self.variability,
            start,
            stats: WorkerStats::default(),
            ring: self.rings.as_ref().map(|r| r.writer(w)),
            faults,
        }
    }

    /// Runs `ntasks` tasks. `init(w)` builds worker `w`'s local state;
    /// `task(i, local)` executes task `i` into that state. Returns the
    /// locals (index = worker) and the execution report.
    ///
    /// Every task index in `0..ntasks` is executed exactly once; the
    /// executor asserts this invariant after the run.
    pub fn run<L, FInit, FTask>(
        &self,
        ntasks: usize,
        init: FInit,
        task: FTask,
    ) -> (Vec<L>, ExecutionReport)
    where
        L: Send,
        FInit: Fn(usize) -> L + Sync,
        FTask: Fn(usize, &mut L) + Sync,
    {
        assert!(self.workers > 0, "need at least one worker");
        let p = self.workers;
        // The simulator's three families: a policy with an initial
        // partition runs owner lists, one with a chunk rule a shared
        // counter, and the rest the deques. `Serial` runs inline on the
        // calling thread, so the serial baseline pays no spawn.
        let (locals, report) = if let PolicyKind::Serial = self.model {
            let start = Instant::now();
            let mut local = init(0);
            let mut ctx = self.worker_ctx(0, 1, start, self.fault_state(ntasks));
            for i in 0..ntasks {
                ctx.run_task(i, &mut local, &task);
            }
            self.assemble(ntasks, start.elapsed(), vec![(local, ctx.stats)])
        } else if let Some(owners) = self.model.initial_partition(ntasks, p) {
            let mut lists: Vec<Vec<usize>> = vec![Vec::new(); p];
            for (i, &w) in owners.iter().enumerate() {
                lists[w as usize].push(i);
            }
            self.scoped(ntasks, lists, &init, |ctx, list, local| {
                for i in list {
                    ctx.run_task(i, local, &task);
                }
            })
        } else if let Some(rule) = self.model.chunk_rule() {
            rule.validate();
            let next = AtomicUsize::new(0);
            self.scoped(ntasks, vec![(); p], &init, |ctx, (), local| loop {
                let t_fetch = ctx.obs_mark();
                let claimed = match rule {
                    ChunkRule::Fixed(chunk) => claim_fixed(&next, chunk, ntasks),
                    ChunkRule::Tapering { .. } => claim_tapering(&next, rule, p, ntasks),
                };
                let Some(chunk) = claimed else { break };
                ctx.stats.counter_fetches += 1;
                ctx.obs_counter_fetch(t_fetch, chunk.start);
                for i in chunk {
                    ctx.run_task(i, local, &task);
                }
            })
        } else {
            let PolicyKind::WorkStealing(cfg) = &self.model else {
                unreachable!("{}: no partition, chunk rule or deques", self.model.name())
            };
            // Seed the deques on the calling thread (each Worker handle
            // then moves into its owning thread).
            let deques: Vec<Deque<usize>> = (0..p).map(|_| Deque::new_lifo()).collect();
            let stealers: Vec<Stealer<usize>> = deques.iter().map(|d| d.stealer()).collect();
            for (i, &owner) in cfg.seed.owners(ntasks, p).iter().enumerate() {
                deques[owner as usize].push(i);
            }
            let remaining = AtomicUsize::new(ntasks);
            self.scoped(ntasks, deques, &init, |ctx, deque, local| {
                run_stealing(ctx, &deque, &stealers, &remaining, cfg, local, &task)
            })
        };
        assert_eq!(
            report.total_tasks_run(),
            ntasks,
            "executor dropped or duplicated tasks ({} of {ntasks})",
            report.total_tasks_run()
        );
        (locals, report)
    }

    /// Runs `ntasks` tasks like [`Executor::run`], then reduces the
    /// worker locals into a single value with a **deterministic pairwise
    /// tree**: at stride `s`, the local of worker `i` absorbs the local
    /// of worker `i + s` (`s = 1, 2, 4, …`). The merge order is a
    /// function of the worker count alone — never of task timing — so
    /// for floating-point accumulators the reduced value is bitwise
    /// reproducible run to run under every policy, and `merge` is called
    /// exactly `workers − 1` times (the Global-Arrays accumulate
    /// analogue: locals merge pairwise instead of funnelling every
    /// worker's matrix through one linear fold).
    pub fn run_reduced<L, FInit, FTask, FMerge>(
        &self,
        ntasks: usize,
        init: FInit,
        task: FTask,
        merge: FMerge,
    ) -> (L, ExecutionReport)
    where
        L: Send,
        FInit: Fn(usize) -> L + Sync,
        FTask: Fn(usize, &mut L) + Sync,
        FMerge: Fn(&mut L, L),
    {
        let (locals, report) = self.run(ntasks, init, task);
        let mut slots: Vec<Option<L>> = locals.into_iter().map(Some).collect();
        let n = slots.len();
        // Merge events land in the absorbing worker's profiling ring,
        // stamped on the run's timeline: the workers have joined, so the
        // merge phase continues from `report.wall` on a fresh clock.
        let rings = self.rings.as_ref();
        let merge_clock = rings.map(|_| (Instant::now(), dur_ns(report.wall)));
        let merge_ns = |clock: &Option<(Instant, u64)>| {
            clock
                .as_ref()
                .map(|(t0, base)| base + dur_ns(t0.elapsed()))
                .unwrap_or(0)
        };
        let mut stride = 1;
        while stride < n {
            let mut i = 0;
            while i + stride < n {
                let other = slots[i + stride].take().expect("slot consumed once");
                let mut writer = rings.map(|r| {
                    let mut w = r.writer(i);
                    w.record(
                        EventKind::MergeStart,
                        (i + stride) as u64,
                        merge_ns(&merge_clock),
                    );
                    w
                });
                merge(slots[i].as_mut().expect("left slot alive"), other);
                if let Some(w) = writer.as_mut() {
                    w.record(
                        EventKind::MergeEnd,
                        (i + stride) as u64,
                        merge_ns(&merge_clock),
                    );
                }
                i += 2 * stride;
            }
            stride *= 2;
        }
        let reduced = slots[0].take().expect("workers >= 1 leaves a root");
        (reduced, report)
    }

    /// The one spawn site: a scoped thread per seed (an owner list,
    /// nothing, or a deque), in which worker `w` builds its local with
    /// `init(w)` and runs `body` over its seed; then the join and the
    /// report.
    fn scoped<L, S>(
        &self,
        ntasks: usize,
        seeds: Vec<S>,
        init: &(impl Fn(usize) -> L + Sync),
        body: impl Fn(&mut WorkerCtx, S, &mut L) + Sync,
    ) -> (Vec<L>, ExecutionReport)
    where
        L: Send,
        S: Send,
    {
        let p = seeds.len();
        let faults = self.fault_state(ntasks);
        let start = Instant::now();
        let body = &body;
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = seeds
                .into_iter()
                .enumerate()
                .map(|(w, seed)| {
                    let mut ctx = self.worker_ctx(w, p, start, faults.clone());
                    s.spawn(move || {
                        let mut local = init(w);
                        body(&mut ctx, seed, &mut local);
                        (local, ctx.stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        self.assemble(ntasks, start.elapsed(), results)
    }

    fn assemble<L>(
        &self,
        ntasks: usize,
        wall: Duration,
        results: Vec<(L, WorkerStats)>,
    ) -> (Vec<L>, ExecutionReport) {
        let (locals, worker_stats): (Vec<L>, Vec<WorkerStats>) = results.into_iter().unzip();
        (
            locals,
            ExecutionReport {
                model: self.model.name().to_string(),
                workers: worker_stats.len(),
                tasks: ntasks,
                wall,
                worker_stats,
            },
        )
    }
}

/// Claims the next `chunk` tasks off a fixed-chunk shared counter (the
/// paper's NXTVAL); `None` once the counter has passed `ntasks`.
fn claim_fixed(next: &AtomicUsize, chunk: usize, ntasks: usize) -> Option<Range<usize>> {
    // Protocol `runtime-counter-claim` role `fixed` (docs/protocols.toml):
    // Relaxed claim — task indices are data-independent, the fetch_add
    // only needs atomicity.
    let begin = next.fetch_add(chunk, Ordering::Relaxed);
    (begin < ntasks).then(|| begin..(begin + chunk).min(ntasks))
}

/// Claims what the tapering `rule` grants at the counter's current
/// value; `None` once the counter has reached `ntasks`. The claim size
/// depends on that value, so it takes a CAS, not a fetch_add.
fn claim_tapering(
    next: &AtomicUsize,
    rule: ChunkRule,
    workers: usize,
    ntasks: usize,
) -> Option<Range<usize>> {
    // Protocol `runtime-counter-claim` role `tapering`
    // (docs/protocols.toml): Acquire read + AcqRel CAS, each claim's
    // Release side pairs with the next claimant's load.
    loop {
        let cur = next.load(Ordering::Acquire);
        if cur >= ntasks {
            return None;
        }
        let end = cur + rule.claim(ntasks - cur, workers);
        if next
            .compare_exchange_weak(cur, end, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Some(cur..end);
        }
    }
}

/// One work-stealing worker: drains its own deque, then hunts victims
/// until `remaining` reaches zero or a peer aborts the run.
fn run_stealing<L>(
    ctx: &mut WorkerCtx,
    deque: &Deque<usize>,
    stealers: &[Stealer<usize>],
    remaining: &AtomicUsize,
    cfg: &StealConfig,
    local: &mut L,
    task: &impl Fn(usize, &mut L),
) {
    let (w, p) = (ctx.worker, ctx.nworkers);
    let mut rng = worker_stream(w);
    'outer: loop {
        // Drain the local deque first. A task whose panic was caught
        // goes back on the deque (where a thief may pick it up) instead
        // of wedging this worker.
        //
        // Completions are batched in a worker-local count and published
        // as one decrement when the deque runs dry — the NXTVAL-claims
        // analogue for the termination counter. The invariant: a worker
        // never idle-waits on `remaining` with unflushed completions, so
        // peers' termination detection stays exact.
        let mut done = 0usize;
        while let Some(i) = deque.pop() {
            if ctx.try_run_task(i, local, task) {
                done += 1;
            } else {
                deque.push(i);
            }
        }
        if done > 0 {
            publish_completions(remaining, done);
        }
        // Steal until we obtain work or everything is done. `spins` is
        // the hunt's failed probes: a thief can make thousands while a
        // peer finishes its last task, so they are counted here and
        // reach the profiling ring as one number when the hunt closes,
        // never as an event each.
        let mut spins = 0u32;
        let idle_from = ctx.obs_mark();
        loop {
            if remaining.load(Ordering::Acquire) == 0 {
                ctx.obs_idle_end(idle_from, spins);
                return;
            }
            if ctx.fault_aborted() {
                // A peer is propagating the panic of a task that
                // exhausted its retries; `remaining` will never reach
                // zero, so exit instead of spinning (the scope join
                // re-raises the panic).
                ctx.obs_idle_end(idle_from, spins);
                return;
            }
            if p == 1 {
                // No victims exist; the remaining check above is the
                // only exit.
                std::hint::spin_loop();
                continue;
            }
            let victim = random_victim(rng.next(), w, p);
            ctx.stats.steal_attempts += 1;
            let got = if cfg.steal_batch {
                stealers[victim].steal_batch_and_pop(deque)
            } else {
                stealers[victim].steal()
            };
            match got {
                Steal::Success(i) => {
                    ctx.stats.steals += 1;
                    ctx.obs_steal_success(idle_from, spins, victim);
                    if ctx.try_run_task(i, local, task) {
                        publish_completions(remaining, 1);
                    } else {
                        deque.push(i);
                    }
                    continue 'outer;
                }
                Steal::Empty | Steal::Retry => {
                    spins += 1;
                    if spins % (4 * p as u32) == 0 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }
}

/// Publishes `done` completed tasks to the work-stealing termination
/// counter `remaining`. More completions than tasks left means some task
/// completed twice: a wrapped counter would never read zero and every
/// peer would spin forever, so the counter is stored to zero, which
/// releases them, and the excess is raised as a panic that the scope
/// join re-raises.
fn publish_completions(remaining: &AtomicUsize, done: usize) {
    // Protocol `runtime-ws-termination` (docs/protocols.toml): Release
    // decrements publish completed work; the idle loop's Acquire load of
    // zero is the only exit signal.
    let left = remaining.fetch_sub(done, Ordering::Release);
    if left < done {
        remaining.store(0, Ordering::Release);
        panic!(
            "work stealing: {done} completions with {left} tasks left, {} completed twice",
            done - left
        );
    }
}

/// Per-worker execution context: stats, variability clock, optional
/// ring writer.
struct WorkerCtx {
    worker: usize,
    nworkers: usize,
    variability: Variability,
    start: Instant,
    stats: WorkerStats,
    /// Producer handle into this worker's profiling ring (`None` when
    /// the run has no rings attached — then no event clock is read).
    ring: Option<RingWriter>,
    faults: Option<Arc<FaultState>>,
}

impl WorkerCtx {
    /// True when some worker is propagating a permanently-failing
    /// task's panic and the run can never complete normally.
    #[inline]
    fn fault_aborted(&self) -> bool {
        self.faults.as_ref().is_some_and(|s| s.aborted())
    }

    /// Runs task `i` to completion: with faults attached a caught panic
    /// is retried in place (list/counter models have no queue to return
    /// the task to); without faults this is the plain task call.
    #[inline]
    fn run_task<L>(&mut self, i: usize, local: &mut L, task: &impl Fn(usize, &mut L)) {
        if self.faults.is_some() {
            while !self.try_run_task(i, local, task) {}
        } else {
            self.exec_task(i, local, task);
        }
    }

    /// One execution attempt of task `i`. Returns `false` when a panic
    /// was caught (injected poison or a genuine task panic) and the
    /// task must be re-run; panics beyond `max_retries` are propagated.
    fn try_run_task<L>(&mut self, i: usize, local: &mut L, task: &impl Fn(usize, &mut L)) -> bool {
        let Some(state) = self.faults.clone() else {
            self.exec_task(i, local, task);
            return true;
        };
        let t0 = self.start.elapsed();
        let result = run_poisonable(&state, i, || task(i, local));
        let t1 = self.start.elapsed();
        match result {
            Ok(()) => {
                self.account(i, t0, t1);
                true
            }
            Err(payload) => {
                // The failed attempt still consumed this worker's time.
                self.stats.busy += t1.saturating_sub(t0);
                self.stats.panics_caught += 1;
                let n = state.record_failure(i);
                if n > state.max_retries {
                    eprintln!(
                        "[emx-runtime] worker {}: task {i} panicked {n} times, propagating",
                        self.worker
                    );
                    // Peers spinning on the remaining-task count must
                    // see the run is over — it will never reach zero
                    // once this worker unwinds.
                    state.abort();
                    propagate(payload);
                }
                eprintln!(
                    "[emx-runtime] worker {}: caught panic in task {i} (attempt {n}), re-enqueueing",
                    self.worker
                );
                false
            }
        }
    }

    /// Fault-free task execution (the pre-fault hot path, unchanged).
    #[inline]
    fn exec_task<L>(&mut self, i: usize, local: &mut L, task: &impl Fn(usize, &mut L)) {
        let t0 = self.start.elapsed();
        task(i, local);
        let t1 = self.start.elapsed();
        self.account(i, t0, t1);
    }

    /// Post-task accounting: busy time, variability stretch, ring
    /// events, and fault-recovery bookkeeping.
    #[inline]
    fn account(&mut self, i: usize, t0: Duration, t1: Duration) {
        let dur = t1.saturating_sub(t0);
        self.stats.tasks += 1;
        self.stats.busy += dur;
        let f = self.variability.factor(self.worker, self.nworkers, t1);
        if f > 1.0 {
            // Stretch the task as a proportionally slower core would.
            let pad = dur.mul_f64(f - 1.0);
            let deadline = t1 + pad;
            while self.start.elapsed() < deadline {
                std::hint::spin_loop();
            }
            self.stats.busy += pad;
            self.stats.padded += pad;
        }
        if let Some(ring) = self.ring.as_mut() {
            let end = self.start.elapsed();
            ring.record(EventKind::TaskStart, i as u64, dur_ns(t0));
            ring.record(EventKind::TaskEnd, i as u64, dur_ns(end));
        }
        if let Some(state) = &self.faults {
            if state.attempts(i) > 0 {
                self.stats.recovered_tasks += 1;
            }
        }
    }

    /// Timestamp for a ring interval — `None` when no rings are
    /// attached, so the hot loops never read the clock just for
    /// instrumentation.
    #[inline]
    fn obs_mark(&self) -> Option<Duration> {
        if self.ring.is_some() {
            Some(self.start.elapsed())
        } else {
            None
        }
    }

    /// Records one productive shared-counter fetch as a ring round trip
    /// from `mark` (the instant just before the atomic claim); `begin`
    /// is the first task index the fetch returned.
    #[inline]
    fn obs_counter_fetch(&mut self, mark: Option<Duration>, begin: usize) {
        if let (Some(ring), Some(from)) = (self.ring.as_mut(), mark) {
            let now = self.start.elapsed();
            ring.record(EventKind::CounterFetchStart, 0, dur_ns(from));
            ring.record(EventKind::CounterFetchEnd, begin as u64, dur_ns(now));
        }
    }

    /// Records a successful steal that `failed_probes` fruitless probes
    /// preceded: the time from running out of local work (`idle_from`)
    /// to acquiring the stolen task becomes a hunt on the event ring —
    /// `IdleStart` (stamped `idle_from`, carrying the failed count), the
    /// winning `StealAttempt`, `StealSuccess`.
    #[inline]
    fn obs_steal_success(
        &mut self,
        idle_from: Option<Duration>,
        failed_probes: u32,
        victim: usize,
    ) {
        if let (Some(ring), Some(from)) = (self.ring.as_mut(), idle_from) {
            let now = self.start.elapsed();
            ring.record(EventKind::IdleStart, failed_probes as u64, dur_ns(from));
            ring.record(EventKind::StealAttempt, victim as u64, dur_ns(now));
            ring.record(EventKind::StealSuccess, victim as u64, dur_ns(now));
        }
    }

    /// Closes the trailing idle interval when a worker exits because all
    /// work is done: none of the interval's `failed_probes` steal probes
    /// succeeded. The ring gets the hunt as `IdleStart` (stamped
    /// `idle_from`, carrying the count) and `IdleEnd`.
    #[inline]
    fn obs_idle_end(&mut self, idle_from: Option<Duration>, failed_probes: u32) {
        if let (Some(ring), Some(from)) = (self.ring.as_mut(), idle_from) {
            let now = self.start.elapsed();
            ring.record(EventKind::IdleStart, failed_probes as u64, dur_ns(from));
            ring.record(EventKind::IdleEnd, 0, dur_ns(now));
        }
    }
}

/// `Duration` → saturating nanoseconds for ring timestamps.
#[inline]
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_sched::SeedPartition;
    use std::sync::Arc;

    fn all_models(n: usize) -> Vec<PolicyKind> {
        vec![
            PolicyKind::Serial,
            PolicyKind::StaticBlock,
            PolicyKind::StaticCyclic,
            PolicyKind::StaticAssigned(Arc::new((0..n as u32).map(|i| i % 3).collect())),
            PolicyKind::DynamicCounter { chunk: 1 },
            PolicyKind::DynamicCounter { chunk: 7 },
            PolicyKind::Guided { min_chunk: 1 },
            PolicyKind::Guided { min_chunk: 4 },
            PolicyKind::WorkStealing(StealConfig::default()),
            PolicyKind::WorkStealing(StealConfig {
                steal_batch: false,
                ..StealConfig::default()
            }),
            PolicyKind::WorkStealing(StealConfig {
                seed: SeedPartition::Cyclic,
                ..StealConfig::default()
            }),
        ]
    }

    #[test]
    fn every_model_runs_each_task_exactly_once() {
        let n = 97;
        for model in all_models(n) {
            let ex = Executor::new(3, model.clone());
            let (locals, report) = ex.run(n, |_| vec![0u32; n], |i, l: &mut Vec<u32>| l[i] += 1);
            let mut counts = vec![0u32; n];
            for l in &locals {
                for (c, v) in counts.iter_mut().zip(l) {
                    *c += v;
                }
            }
            assert!(
                counts.iter().all(|&c| c == 1),
                "model {} duplicated/dropped tasks: {counts:?}",
                model.name()
            );
            assert_eq!(report.total_tasks_run(), n, "model {}", model.name());
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        for model in all_models(0) {
            let ex = Executor::new(2, model);
            let (locals, report) = ex.run(0, |_| 0u64, |_, _| unreachable!());
            assert!(report.total_tasks_run() == 0);
            assert!(!locals.is_empty());
        }
    }

    #[test]
    fn single_worker_single_task() {
        for model in all_models(1) {
            let ex = Executor::new(1, model);
            let (locals, _) = ex.run(1, |_| 0usize, |i, l| *l += i + 10);
            assert_eq!(locals.iter().sum::<usize>(), 10);
        }
    }

    #[test]
    fn locals_reduce_to_task_sum() {
        let n = 1000usize;
        let expected: u64 = (0..n as u64).sum();
        for model in all_models(n) {
            let ex = Executor::new(4, model.clone());
            let (locals, _) = ex.run(n, |_| 0u64, |i, l| *l += i as u64);
            assert_eq!(
                locals.iter().sum::<u64>(),
                expected,
                "model {}",
                model.name()
            );
        }
    }

    #[test]
    fn run_reduced_matches_run_plus_fold() {
        let n = 500usize;
        let expected: u64 = (0..n as u64).sum();
        for model in all_models(n) {
            let ex = Executor::new(4, model.clone());
            let (total, report) =
                ex.run_reduced(n, |_| 0u64, |i, l| *l += i as u64, |a, b| *a += b);
            assert_eq!(total, expected, "model {}", model.name());
            assert_eq!(report.total_tasks_run(), n);
        }
    }

    #[test]
    fn run_reduced_merge_order_is_a_pairwise_tree() {
        // With 5 workers the stride-doubling tree must merge
        // (0,1) (2,3) then (0,2) then (0,4) — a fixed order that
        // depends only on the worker count, never on task timing.
        let ex = Executor::new(5, PolicyKind::StaticCyclic);
        let merges = std::sync::Mutex::new(Vec::new());
        let (root, _) = ex.run_reduced(
            10,
            |w| vec![w],
            |_, _| {},
            |a: &mut Vec<usize>, b: Vec<usize>| {
                merges.lock().unwrap().push((a[0], b[0]));
                a.extend(b);
            },
        );
        assert_eq!(
            merges.into_inner().unwrap(),
            vec![(0, 1), (2, 3), (0, 2), (0, 4)]
        );
        let mut all = root;
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_reduced_single_worker_never_merges() {
        let ex = Executor::new(1, PolicyKind::Serial);
        let (v, _) = ex.run_reduced(
            7,
            |_| 0u64,
            |i, l| *l += i as u64,
            |_, _| panic!("one local needs no merge"),
        );
        assert_eq!(v, 21);
    }

    #[test]
    fn nxtval_claims_are_batched_by_chunk() {
        // The dynamic-counter model is the paper's NXTVAL pattern: one
        // shared-counter RMW claims `chunk` tasks, so counter traffic is
        // ntasks/chunk productive fetches (plus ≤ workers empty probes),
        // not one RMW per task.
        let n = 1200usize;
        for chunk in [1usize, 8, 32] {
            let ex = Executor::new(3, PolicyKind::DynamicCounter { chunk });
            let (_, r) = ex.run(n, |_| (), |_, _| {});
            let productive = n.div_ceil(chunk) as u64;
            let fetches = r.total_counter_fetches();
            assert!(
                (productive..=productive + 3).contains(&fetches),
                "chunk {chunk}: {fetches} fetches for {productive} claims"
            );
        }
    }

    #[test]
    fn static_block_assigns_contiguously() {
        let ex = Executor::new(3, PolicyKind::StaticBlock);
        let (locals, _) = ex.run(9, |_| Vec::new(), |i, l: &mut Vec<usize>| l.push(i));
        assert_eq!(locals[0], vec![0, 1, 2]);
        assert_eq!(locals[1], vec![3, 4, 5]);
        assert_eq!(locals[2], vec![6, 7, 8]);
    }

    #[test]
    fn static_cyclic_assigns_round_robin() {
        let ex = Executor::new(2, PolicyKind::StaticCyclic);
        let (locals, _) = ex.run(5, |_| Vec::new(), |i, l: &mut Vec<usize>| l.push(i));
        assert_eq!(locals[0], vec![0, 2, 4]);
        assert_eq!(locals[1], vec![1, 3]);
    }

    #[test]
    fn counter_model_reports_fetches() {
        let ex = Executor::new(2, PolicyKind::DynamicCounter { chunk: 10 });
        let (_, report) = ex.run(100, |_| (), |_, _| {});
        // 10 productive fetches plus up to `workers` empty ones.
        let fetches = report.total_counter_fetches();
        assert!((10..=12).contains(&fetches), "fetches = {fetches}");
    }

    #[test]
    fn guided_uses_fewer_fetches_than_unit_counter() {
        let n = 4096;
        let unit = Executor::new(2, PolicyKind::DynamicCounter { chunk: 1 });
        let (_, r_unit) = unit.run(n, |_| (), |_, _| {});
        let guided = Executor::new(2, PolicyKind::Guided { min_chunk: 1 });
        let (_, r_guided) = guided.run(n, |_| (), |_, _| {});
        assert!(
            r_guided.total_counter_fetches() * 10 < r_unit.total_counter_fetches(),
            "guided {} vs unit {}",
            r_guided.total_counter_fetches(),
            r_unit.total_counter_fetches()
        );
    }

    #[test]
    fn guided_single_worker_claims_shrink() {
        // With P = 1 and min_chunk 1, claims follow remaining/2:
        // 0..2048, then 1024, … — the fetch count is O(log n).
        let ex = Executor::new(1, PolicyKind::Guided { min_chunk: 1 });
        let (_, r) = ex.run(4096, |_| (), |_, _| {});
        let fetches = r.total_counter_fetches();
        assert!(fetches <= 30, "fetches {fetches}");
        assert_eq!(r.total_tasks_run(), 4096);
    }

    #[test]
    fn stealing_happens_under_skew() {
        // All work seeded to worker 0, which additionally runs 5× slow;
        // the other workers must steal. The slow factor keeps the test
        // robust on machines where worker 0 could otherwise drain its
        // deque before the thieves are even scheduled.
        let map: Arc<Vec<u32>> = Arc::new(vec![0; 64]);
        let mut ex = Executor::new(
            4,
            PolicyKind::WorkStealing(StealConfig {
                seed: SeedPartition::Assigned(map),
                ..StealConfig::default()
            }),
        );
        ex.variability = Variability::SlowCores {
            factor: 5.0,
            count: 1,
        };
        let (_, report) = ex.run(
            64,
            |_| (),
            |_, _| {
                std::hint::black_box(emx_busy(50_000));
            },
        );
        assert!(
            report.total_steals() > 0,
            "expected steals: {:?}",
            report.worker_stats
        );
    }

    /// Tiny local busy-loop (runtime crate must not depend on emx-chem).
    fn emx_busy(iters: u64) -> f64 {
        let mut x = 1.0001f64;
        for _ in 0..iters {
            x = x * 1.0000003 + 0.0000007;
        }
        x
    }

    #[test]
    fn serial_model_reports_one_worker() {
        let ex = Executor::new(8, PolicyKind::Serial);
        let (locals, report) = ex.run(10, |_| 0u32, |_, l| *l += 1);
        assert_eq!(report.workers, 1);
        assert_eq!(locals.len(), 1);
        assert_eq!(locals[0], 10);
    }

    #[test]
    fn variability_pads_busy_time() {
        let mut ex = Executor::new(1, PolicyKind::Serial);
        ex.variability = Variability::SlowCores {
            factor: 3.0,
            count: 1,
        };
        let (_, report) = ex.run(
            5,
            |_| (),
            |_, _| {
                std::hint::black_box(emx_busy(50_000));
            },
        );
        let st = &report.worker_stats[0];
        assert!(st.padded > Duration::ZERO);
        // padded ≈ 2× raw busy; allow generous slack for timer noise.
        let raw = st.busy - st.padded;
        assert!(
            st.padded >= raw,
            "padded {:?} should be ≥ raw busy {:?} at factor 3",
            st.padded,
            raw
        );
    }

    #[test]
    #[should_panic(expected = "assignment length mismatch")]
    fn bad_assignment_length_panics() {
        let ex = Executor::new(2, PolicyKind::StaticAssigned(Arc::new(vec![0; 3])));
        let _ = ex.run(4, |_| (), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_assignment_target_panics() {
        let ex = Executor::new(2, PolicyKind::StaticAssigned(Arc::new(vec![5; 3])));
        let _ = ex.run(3, |_| (), |_, _| {});
    }

    /// `Executor`'s fields are public, so a struct literal can skip
    /// `Executor::new`'s worker check; `run` must refuse it itself.
    fn zero_workers(model: PolicyKind) -> Executor {
        Executor {
            workers: 0,
            model,
            variability: Variability::None,
            rings: None,
            faults: None,
        }
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_refused_for_owner_lists() {
        let _ = zero_workers(PolicyKind::StaticBlock).run(4, |_| (), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_refused_for_the_counter() {
        // With no tasks the counter used to run zero threads and fail
        // only in `run_reduced`, indexing the missing root local.
        let ex = zero_workers(PolicyKind::DynamicCounter { chunk: 1 });
        let _ = ex.run_reduced(0, |_| 0u64, |_, _| {}, |a, b| *a += b);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_refused_for_the_deques() {
        let ex = zero_workers(PolicyKind::WorkStealing(StealConfig::default()));
        let _ = ex.run(4, |_| (), |_, _| {});
    }

    #[test]
    fn serial_runs_on_the_calling_thread() {
        // The serial baseline must not pay a spawn: every task runs on
        // the thread that called `run`.
        let caller = std::thread::current().id();
        let ex = Executor::new(4, PolicyKind::Serial);
        let (locals, _) = ex.run(
            5,
            |_| Vec::new(),
            |_, ids: &mut Vec<std::thread::ThreadId>| ids.push(std::thread::current().id()),
        );
        assert_eq!(locals[0], vec![caller; 5]);
    }

    #[test]
    fn counter_fetches_replay_the_chunk_rule() {
        // One worker claims exactly what `ChunkRule::claim` grants from
        // `remaining = n` down to zero, whichever claim fn serves it.
        let n = 1000;
        for (model, rule) in [
            (PolicyKind::DynamicCounter { chunk: 1 }, ChunkRule::Fixed(1)),
            (PolicyKind::DynamicCounter { chunk: 7 }, ChunkRule::Fixed(7)),
            (
                PolicyKind::Guided { min_chunk: 1 },
                ChunkRule::Tapering { min: 1 },
            ),
            (
                PolicyKind::Guided { min_chunk: 2 },
                ChunkRule::Tapering { min: 2 },
            ),
        ] {
            assert_eq!(model.chunk_rule(), Some(rule));
            let (mut remaining, mut claims) = (n, 0u64);
            while remaining > 0 {
                remaining -= rule.claim(remaining, 1);
                claims += 1;
            }
            let (_, r) = Executor::new(1, model).run(n, |_| (), |_, _| {});
            assert_eq!(r.total_counter_fetches(), claims, "{rule:?}");
        }
    }

    #[test]
    fn a_double_completion_releases_peers_and_panics() {
        let remaining = AtomicUsize::new(3);
        publish_completions(&remaining, 2);
        assert_eq!(remaining.load(Ordering::Relaxed), 1);
        // Two more completions than tasks left: the counter must read
        // zero (peers exit) instead of wrapping, and the call must fail.
        let err = std::panic::catch_unwind(|| publish_completions(&remaining, 3))
            .expect_err("a completion past zero must panic");
        assert_eq!(remaining.load(Ordering::Relaxed), 0, "peers released");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("2 completed twice"), "{msg}");
    }

    #[test]
    fn work_stealing_with_one_worker_terminates() {
        let ex = Executor::new(1, PolicyKind::WorkStealing(StealConfig::default()));
        let (locals, _) = ex.run(50, |_| 0u32, |_, l| *l += 1);
        assert_eq!(locals[0], 50);
    }

    mod faults {
        use super::*;
        use crate::faults::FaultInjection;

        #[test]
        fn poisoned_tasks_recover_under_every_model() {
            let n = 60;
            let expected: u64 = (0..n as u64).sum();
            for model in all_models(n) {
                let ex = Executor::new(3, model.clone())
                    .with_faults(FaultInjection::poison_tasks(vec![0, 7, 31, 59]));
                let (locals, report) = ex.run(n, |_| 0u64, |i, l| *l += i as u64);
                assert_eq!(
                    locals.iter().sum::<u64>(),
                    expected,
                    "model {}",
                    model.name()
                );
                assert_eq!(report.total_tasks_run(), n, "model {}", model.name());
                assert_eq!(report.total_panics_caught(), 4, "model {}", model.name());
                assert_eq!(report.total_recovered_tasks(), 4, "model {}", model.name());
            }
        }

        #[test]
        fn fault_free_config_changes_nothing() {
            let n = 100;
            let ex =
                Executor::new(3, PolicyKind::StaticCyclic).with_faults(FaultInjection::default());
            let (locals, report) = ex.run(n, |_| 0u64, |i, l| *l += i as u64);
            assert_eq!(locals.iter().sum::<u64>(), (0..n as u64).sum());
            assert_eq!(report.total_panics_caught(), 0);
            assert_eq!(report.total_recovered_tasks(), 0);
        }

        #[test]
        fn stragglers_pad_but_do_not_change_results() {
            // A slow core stretches its tasks on the fault-wrapped path too.
            let mut ex = Executor::new(4, PolicyKind::WorkStealing(StealConfig::default()))
                .with_faults(FaultInjection::default());
            ex.variability = Variability::SlowCores {
                factor: 3.0,
                count: 1,
            };
            let (locals, report) = ex.run(
                64,
                |_| 0u64,
                |i, l| {
                    std::hint::black_box(emx_busy(50_000));
                    *l += i as u64;
                },
            );
            assert_eq!(locals.iter().sum::<u64>(), (0..64u64).sum());
            assert!(
                report.worker_stats[0].padded > Duration::ZERO,
                "slow worker 0 must be spin-amplified"
            );
            assert_eq!(report.worker_stats[1].padded, Duration::ZERO);
        }

        #[test]
        fn genuine_panics_are_caught_and_recovered() {
            use std::sync::atomic::AtomicBool;
            // Task 7 panics once from its own body, not from an injected
            // poison: it is caught and retried like one.
            let tripped = AtomicBool::new(false);
            let ex = Executor::new(2, PolicyKind::DynamicCounter { chunk: 4 })
                .with_faults(FaultInjection::default());
            let (locals, report) = ex.run(
                20,
                |_| 0u64,
                |i, l| {
                    if i == 7 && !tripped.swap(true, Ordering::Relaxed) {
                        panic!("one-shot genuine failure");
                    }
                    *l += i as u64;
                },
            );
            assert_eq!(locals.iter().sum::<u64>(), (0..20u64).sum());
            assert_eq!(report.total_panics_caught(), 1);
            assert_eq!(report.total_recovered_tasks(), 1);
        }

        #[test]
        #[should_panic(expected = "worker panicked")]
        fn exhausted_retries_propagate() {
            let mut fi = FaultInjection::poison_tasks(vec![2]);
            fi.max_retries = 0;
            let ex = Executor::new(2, PolicyKind::StaticBlock).with_faults(fi);
            let _ = ex.run(10, |_| (), |_, _| {});
        }

        #[test]
        #[should_panic(expected = "worker panicked")]
        fn genuinely_broken_task_does_not_livelock() {
            // Task 5 panics on every attempt — the executor must give up
            // after max_retries instead of spinning forever.
            let ex = Executor::new(2, PolicyKind::DynamicCounter { chunk: 2 })
                .with_faults(FaultInjection::default());
            let _ = ex.run(
                10,
                |_| (),
                |i, _| {
                    if i == 5 {
                        panic!("task body is genuinely broken");
                    }
                },
            );
        }

        #[test]
        #[should_panic(expected = "worker panicked")]
        fn stealing_exhausted_retries_do_not_deadlock_peers() {
            // Regression: when a task exhausts max_retries under work
            // stealing, the propagating worker must set the abort flag,
            // or peers spin forever on `remaining > 0` and the scoped
            // join never returns (the run used to hang here).
            let ex = Executor::new(2, PolicyKind::WorkStealing(StealConfig::default()))
                .with_faults(FaultInjection::default());
            let _ = ex.run(
                10,
                |_| (),
                |i, _| {
                    if i == 5 {
                        panic!("task body is genuinely broken");
                    }
                },
            );
        }

        #[test]
        #[should_panic(expected = "worker panicked")]
        fn stealing_single_worker_exhausted_retries_propagate() {
            // p = 1 has no victims: the abort/remaining checks are the
            // only exits from the idle loop.
            let mut fi = FaultInjection::poison_tasks(vec![0]);
            fi.max_retries = 0;
            let ex =
                Executor::new(1, PolicyKind::WorkStealing(StealConfig::default())).with_faults(fi);
            let _ = ex.run(4, |_| (), |_, _| {});
        }
    }

    mod obs {
        use super::*;
        use emx_obs::{task_spans, Attribution, EventKind, RingSet};

        #[test]
        fn obs_does_not_change_results() {
            let n = 300;
            let expected: u64 = (0..n as u64).sum();
            for model in all_models(n) {
                let ex = Executor::new(3, model.clone()).with_rings(RingSet::new(3, 4096));
                let (locals, report) = ex.run(n, |_| 0u64, |i, l| *l += i as u64);
                assert_eq!(
                    locals.iter().sum::<u64>(),
                    expected,
                    "model {}",
                    model.name()
                );
                assert_eq!(report.total_tasks_run(), n);
            }
        }

        /// Runs `ex` over `n` tasks with fresh rings, checks that the
        /// rings hold every task exactly once with monotone timestamps,
        /// and that every count read off them is the report's: per
        /// worker, `Attribution`'s tasks, steals and steal attempts, and
        /// the `CounterFetchEnd` events against `counter_fetches`.
        fn rings_match_report(
            ex: Executor,
            n: usize,
            task: impl Fn(usize, &mut ()) + Sync,
        ) -> ExecutionReport {
            let name = ex.model.name();
            let rings = RingSet::new(ex.workers, 4096);
            let (_, report) = ex.with_rings(rings.clone()).run(n, |_| (), task);
            assert_eq!(report.total_tasks_run(), n);
            assert_eq!(rings.total_overwritten(), 0, "model {name}");
            let streams = rings.events_per_worker();
            let mut seen = vec![0u32; n];
            for stream in &streams {
                let monotone = stream.windows(2).all(|e| e[0].t_ns <= e[1].t_ns);
                assert!(monotone, "model {name}: timestamps not monotone");
                task_spans(stream).for_each(|(i, ..)| seen[i] += 1);
            }
            let once = seen.iter().all(|&c| c == 1);
            assert!(once, "model {name}: lost or duplicated task events");
            let a = Attribution::from_rings(name, dur_ns(report.wall), &rings);
            let idle = WorkerStats::default();
            for (w, (blame, stream)) in a.workers.iter().zip(&streams).enumerate() {
                let st = report.worker_stats.get(w).unwrap_or(&idle);
                assert_eq!(blame.tasks, st.tasks as u64, "model {name} worker {w}");
                assert_eq!(blame.steals, st.steals, "model {name} worker {w}");
                assert_eq!(
                    blame.steal_attempts, st.steal_attempts,
                    "model {name} worker {w}"
                );
                let fetches = stream
                    .iter()
                    .filter(|e| e.kind == EventKind::CounterFetchEnd)
                    .count();
                assert_eq!(
                    fetches as u64, st.counter_fetches,
                    "model {name} worker {w}"
                );
            }
            report
        }

        #[test]
        fn rings_capture_every_task_for_every_model() {
            let n = 120;
            for model in all_models(n) {
                rings_match_report(Executor::new(3, model), n, |_, _| {});
            }
        }

        #[test]
        fn counter_model_metrics_match_report() {
            let rings = RingSet::new(2, 4096);
            let ex = Executor::new(2, PolicyKind::DynamicCounter { chunk: 10 })
                .with_rings(rings.clone());
            let (_, report) = ex.run(100, |_| (), |_, _| {});
            let a = Attribution::from_rings("dynamic-counter", dur_ns(report.wall), &rings);
            let tasks: u64 = a.workers.iter().map(|w| w.tasks).sum();
            assert_eq!(tasks, 100);
            // Every fetch is a closed Start/End round trip on the ring.
            let events: Vec<_> = rings.events_per_worker().into_iter().flatten().collect();
            for kind in [EventKind::CounterFetchStart, EventKind::CounterFetchEnd] {
                let count = events.iter().filter(|e| e.kind == kind).count();
                assert_eq!(count as u64, report.total_counter_fetches(), "{kind:?}");
            }
        }

        #[test]
        fn stealing_metrics_and_spans_recorded() {
            // All work seeded to worker 0, which also runs 5× slow (the
            // setup of `stealing_happens_under_skew`), so the steal and
            // steal-attempt counts compared are not all zero.
            let map: Arc<Vec<u32>> = Arc::new(vec![0; 64]);
            let mut ex = Executor::new(
                4,
                PolicyKind::WorkStealing(StealConfig {
                    seed: SeedPartition::Assigned(map),
                    ..StealConfig::default()
                }),
            );
            ex.variability = Variability::SlowCores {
                factor: 5.0,
                count: 1,
            };
            let report = rings_match_report(ex, 64, |_, _| {
                std::hint::black_box(emx_busy(50_000));
            });
            assert!(report.total_steals() > 0, "{:?}", report.worker_stats);
        }

        #[test]
        fn fault_metrics_published_when_faults_attached() {
            use crate::faults::FaultInjection;
            // Failed attempts leave no ring events: each poisoned task
            // still shows up exactly once, from its recovered run.
            let ex = Executor::new(2, PolicyKind::DynamicCounter { chunk: 4 })
                .with_faults(FaultInjection::poison_tasks(vec![3, 9]));
            let report = rings_match_report(ex, 20, |_, _| {});
            assert_eq!(report.total_panics_caught(), 2);
            assert_eq!(report.total_recovered_tasks(), 2);
        }

        /// A thief's fruitless probes reach the ring as a count on the
        /// hunt, not as events of their own: while a peer sleeps 5 ms
        /// in a task, per-probe events would wrap a 4096-slot ring many
        /// times over and take the thief's own `TaskStart/End` with them.
        #[test]
        fn a_long_hunt_costs_its_ring_a_constant_number_of_events() {
            let (n, p) = (8, 2);
            let rings = RingSet::new(p, 4096);
            let ex = Executor::new(p, PolicyKind::WorkStealing(StealConfig::default()))
                .with_rings(rings.clone());
            let (_, report) = ex.run(
                n,
                |_| (),
                |i, _| {
                    if i == n - 1 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                },
            );
            let a = Attribution::from_rings("work-stealing", dur_ns(report.wall), &rings);
            assert_eq!(a.overwritten, 0);
            let stats = report.worker_stats.iter();
            for ((st, blame), snap) in stats.zip(&a.workers).zip(rings.snapshot_all()) {
                let w = blame.worker;
                assert_eq!(blame.tasks, st.tasks as u64, "worker {w}");
                assert_eq!(blame.steals, st.steals, "worker {w}");
                assert_eq!(blame.steal_attempts, st.steal_attempts, "worker {w}");
                // Two events a task, three a hunt; every steal closes
                // one hunt and exhaustion closes the last.
                let recorded = snap.events.len() as u64 + snap.overwritten;
                let hunts = st.steals + 1;
                assert!(
                    recorded <= 2 * st.tasks as u64 + 3 * hunts,
                    "worker {w}: {recorded} events for {} tasks, {hunts} hunts, {} probes",
                    st.tasks,
                    st.steal_attempts
                );
            }
        }

        #[test]
        fn counter_model_rings_record_fetch_round_trips() {
            let rings = RingSet::new(2, 4096);
            let ex = Executor::new(2, PolicyKind::DynamicCounter { chunk: 10 })
                .with_rings(rings.clone());
            let (_, report) = ex.run(100, |_| (), |_, _| {});
            let fetch_ends: usize = rings
                .events_per_worker()
                .iter()
                .flatten()
                .filter(|e| e.kind == EventKind::CounterFetchEnd)
                .count();
            assert_eq!(fetch_ends as u64, report.total_counter_fetches());
        }

        #[test]
        fn run_reduced_rings_record_the_pairwise_merge_tree() {
            let p = 5;
            let rings = RingSet::new(p, 4096);
            let ex = Executor::new(p, PolicyKind::StaticBlock).with_rings(rings.clone());
            let (sum, _) = ex.run_reduced(50, |_| 0u64, |i, l| *l += i as u64, |a, b| *a += b);
            assert_eq!(sum, (0..50u64).sum());
            // Stride-doubling for 5 workers: (0,1), (2,3), (0,2), (0,4).
            let merges: Vec<(usize, u64)> = rings
                .events_per_worker()
                .iter()
                .enumerate()
                .flat_map(|(w, stream)| {
                    stream
                        .iter()
                        .filter(|e| e.kind == EventKind::MergeStart)
                        .map(move |e| (w, e.arg))
                        .collect::<Vec<_>>()
                })
                .collect();
            assert_eq!(merges.len(), p - 1, "workers − 1 merges");
            for expect in [(0usize, 1u64), (2, 3), (0, 2), (0, 4)] {
                assert!(
                    merges.contains(&expect),
                    "missing merge {expect:?} in {merges:?}"
                );
            }
            // Merge timestamps sit on the run timeline: after each
            // worker's last task event.
            for stream in rings.events_per_worker() {
                let last_task = stream
                    .iter()
                    .filter(|e| e.kind == EventKind::TaskEnd)
                    .map(|e| e.t_ns)
                    .max();
                let first_merge = stream
                    .iter()
                    .find(|e| e.kind == EventKind::MergeStart)
                    .map(|e| e.t_ns);
                if let (Some(t), Some(m)) = (last_task, first_merge) {
                    assert!(m >= t, "merge stamped before the last task");
                }
            }
        }
    }
}
