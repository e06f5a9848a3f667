//! Long-lived helper threads: every parallel [`Executor`](crate::Executor)
//! run fans out onto them instead of spawning and joining its workers.
//!
//! [`fan_out`] runs worker 0 on the calling thread and workers
//! 1…W−1 on helpers taken from one process-wide idle list, spawning
//! only the helpers the list lacks. A helper that has finished its worker
//! puts itself back on the list, then reports to the run. Waiting for
//! its next job it spins for [`SPIN`] and then parks on its condvar, so
//! back-to-back runs (an SCF's Fock builds) find it awake, and an idle
//! process burns no CPU on it. Concurrent and nested runs simply take
//! more helpers; none is ever torn down.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a helper polls for its next job, and a caller for its
/// helpers' reports, before parking. Longer than the serial stretch
/// between two Fock builds of one SCF (~50 µs of diagonalisation and
/// DIIS for H₂O/6-31G), so a helper is still awake when the next build
/// starts; well under a millisecond, so an idle process parks at once.
/// A sweep of 0 µs–10 ms on the benchmark's 48-point H₂O scan found no
/// gain beyond this budget.
const SPIN: Duration = Duration::from_micros(500);

/// One worker's share of a run: the run's per-worker body, lifetime
/// erased (see [`fan_out`]), and the worker index to call it with.
struct Job {
    work: &'static (dyn Fn(usize) + Sync),
    worker: usize,
    run: Arc<RunState>,
}

/// What a run's helpers report to its caller.
struct RunState {
    /// Helpers posted a job and not yet done with it.
    pending: AtomicUsize,
    /// The first helper panic's message.
    panic: Mutex<Option<String>>,
    /// Unparked by the helper whose report brings `pending` to zero.
    caller: Thread,
}

impl RunState {
    /// Reports one helper done. Protocol `runtime-helper-latch` role
    /// `finish` (docs/protocols.toml): the Release decrement publishes
    /// the worker's results to the caller's Acquire load in `wait`.
    fn finish(&self) {
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            self.caller.unpark();
        }
    }

    /// Returns once every posted helper has reported: spins for
    /// [`SPIN`], then parks.
    fn wait(&self) {
        let deadline = Instant::now() + SPIN;
        while self.pending.load(Ordering::Acquire) != 0 {
            if Instant::now() < deadline {
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
    }
}

/// Waits in `drop` for every helper of the run, so the caller cannot
/// return or unwind past the borrows its helpers are still using.
struct WaitForHelpers<'r>(&'r RunState);

impl Drop for WaitForHelpers<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// A long-lived helper thread's mailbox.
struct Helper {
    slot: Mutex<Slot>,
    wake: Condvar,
    /// Set with the posted job. Only a hint for the spinning helper:
    /// the job itself passes through `slot`'s mutex.
    posted: AtomicBool,
}

struct Slot {
    job: Option<Job>,
    /// True while the helper waits on `wake`, so that posting to a
    /// helper that is still spinning makes no wake-up call.
    parked: bool,
}

/// Helpers waiting for a job, most recently idle last.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

/// Locks `m`, ignoring poison: no lock here is held across user code.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Helper {
    /// `n` distinct helpers: idle ones first, new ones for the rest.
    /// Taken together, before any is posted a job, so a helper that
    /// finishes fast cannot come back as a second worker of one run.
    fn take(n: usize) -> Vec<Arc<Helper>> {
        let mut helpers = {
            let mut idle = lock(&IDLE);
            let from = idle.len().saturating_sub(n);
            idle.split_off(from)
        };
        while helpers.len() < n {
            let helper = Arc::new(Helper {
                slot: Mutex::new(Slot {
                    job: None,
                    parked: false,
                }),
                wake: Condvar::new(),
                posted: AtomicBool::new(false),
            });
            let me = Arc::clone(&helper);
            // Never joined: a helper lives as long as the process, and
            // `serve` catches every job's panic.
            thread::Builder::new()
                .name("emx-helper".into())
                .spawn(move || me.serve())
                .expect("spawn an executor helper thread");
            helpers.push(helper);
        }
        helpers
    }

    /// Hands `job` to this helper, waking it if it has parked.
    /// Protocol `runtime-helper-mailbox` role `post`.
    fn post(&self, job: Job) {
        let mut slot = lock(&self.slot);
        slot.job = Some(job);
        self.posted.store(true, Ordering::Relaxed);
        if slot.parked {
            self.wake.notify_one();
        }
    }

    /// The next posted job: spins on `posted` for [`SPIN`], then parks.
    /// Protocol `runtime-helper-mailbox` role `poll`.
    fn next_job(&self) -> Job {
        let deadline = Instant::now() + SPIN;
        while !self.posted.load(Ordering::Relaxed) && Instant::now() < deadline {
            std::hint::spin_loop();
        }
        let mut slot = lock(&self.slot);
        loop {
            if let Some(job) = slot.job.take() {
                self.posted.store(false, Ordering::Relaxed);
                return job;
            }
            slot.parked = true;
            slot = self.wake.wait(slot).unwrap_or_else(|e| e.into_inner());
            slot.parked = false;
        }
    }

    /// The helper thread's loop: run a job, go back on the idle list,
    /// report. Back on the list before the report, so the caller's
    /// next run finds it there instead of spawning another.
    fn serve(self: Arc<Helper>) {
        loop {
            let Job { work, worker, run } = self.next_job();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(worker))) {
                lock(&run.panic).get_or_insert_with(|| describe(&*payload));
            }
            lock(&IDLE).push(Arc::clone(&self));
            run.finish();
        }
    }
}

/// Runs `work(0)` on the calling thread and `work(1)`…`work(p − 1)` on
/// helpers, and returns once all `p` calls have returned. A panic in
/// any of them is raised here as `"worker panicked: …"`, after every
/// call has stopped.
pub(crate) fn fan_out(p: usize, work: &(dyn Fn(usize) + Sync)) {
    let run = Arc::new(RunState {
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
    });
    let own = {
        let _wait = WaitForHelpers(&run);
        // Each helper is counted in `pending` before it is posted its
        // job, and reports (`finish`) only after its call of `work` has
        // returned or unwound, never touching `work` again. `_wait`'s
        // drop blocks until `pending` is zero, on every exit from this
        // block: after worker 0 returns or unwinds (caught below), and
        // if taking helpers panics.
        // SAFETY: the `std::thread::scope` argument: `_wait` keeps this
        // frame, and all `work` borrows, alive until no helper can call
        // `work` again, so a helper may hold it as `'static` until then.
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(work)
        };
        for (worker, helper) in (1..p).zip(Helper::take(p - 1)) {
            // Protocol `runtime-helper-latch` role `count`: only this
            // thread increments, before it waits.
            run.pending.fetch_add(1, Ordering::Relaxed);
            helper.post(Job {
                work: erased,
                worker,
                run: Arc::clone(&run),
            });
        }
        catch_unwind(AssertUnwindSafe(|| work(0)))
    };
    let panicked = match own {
        Err(payload) => Some(describe(&*payload)),
        Ok(()) => lock(&run.panic).take(),
    };
    if let Some(message) = panicked {
        panic!("worker panicked: {message}");
    }
}

/// A panic payload's message, when it has one.
fn describe(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
