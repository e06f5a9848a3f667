//! Loom harnesses for the pool's load-bearing protocols: deque handoff
//! (owner pop vs thief steal), the abort-flag broadcast that keeps
//! peers from spinning after a task exhausts its retries (the e82b711
//! deadlock class), and the shared-counter claim of
//! `runtime-counter-dispatch` (docs/protocols.toml) — chunked fetch-add
//! claims must partition the task range under every schedule.
//!
//! Under the vendored loom stand-in these run 64 perturbed schedules
//! per `model` call; build with `RUSTFLAGS="--cfg loom"` for the deep
//! (512-schedule) nightly exploration. The harness code is identical
//! against the real loom.

use crossbeam::deque::{Steal, Worker};
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};

/// Owner and thief race over one deque: every pushed task is obtained
/// exactly once, through exactly one of the two ends.
#[test]
fn loom_deque_handoff_exactly_once() {
    loom::model(|| {
        const N: usize = 8;
        let owner = Worker::new_lifo();
        for i in 0..N {
            owner.push(i);
        }
        let stealer = owner.stealer();
        let stolen = Arc::new(Mutex::new(Vec::new()));

        let thief = {
            let stolen = Arc::clone(&stolen);
            loom::thread::spawn(move || loop {
                match stealer.steal() {
                    Steal::Success(v) => stolen.lock().unwrap().push(v),
                    Steal::Empty => break,
                    Steal::Retry => loom::thread::yield_now(),
                }
            })
        };

        let mut popped = Vec::new();
        while let Some(v) = owner.pop() {
            popped.push(v);
            loom::thread::yield_now();
        }
        thief.join().unwrap();

        let mut all = popped;
        all.extend(stolen.lock().unwrap().iter().copied());
        all.sort_unstable();
        assert_eq!(
            all,
            (0..N).collect::<Vec<_>>(),
            "handoff lost or duplicated a task"
        );
    });
}

/// The abort protocol: when one worker gives up (retries exhausted) it
/// raises the shared abort flag; every spinning peer must observe the
/// flag and exit its steal loop — no schedule may leave a peer spinning
/// on permanently-empty deques.
#[test]
fn loom_abort_flag_releases_spinning_peers() {
    loom::model(|| {
        let abort = Arc::new(AtomicBool::new(false));
        let exited = Arc::new(AtomicUsize::new(0));

        let peers: Vec<_> = (0..2)
            .map(|_| {
                let abort = Arc::clone(&abort);
                let exited = Arc::clone(&exited);
                loom::thread::spawn(move || {
                    // A peer whose own queue is drained: steal loop with
                    // the abort check the executor performs per attempt.
                    loop {
                        if abort.load(Ordering::Acquire) {
                            break;
                        }
                        loom::thread::yield_now(); // failed steal attempt
                    }
                    exited.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();

        // The failing worker: publishes its verdict, then raises abort
        // with release ordering so the payload write is visible to
        // every peer that observes the flag.
        let verdict = Arc::new(AtomicUsize::new(0));
        let failer = {
            let abort = Arc::clone(&abort);
            let verdict = Arc::clone(&verdict);
            loom::thread::spawn(move || {
                verdict.store(42, Ordering::Relaxed);
                abort.store(true, Ordering::Release);
            })
        };

        failer.join().unwrap();
        for p in peers {
            p.join().unwrap();
        }
        assert_eq!(exited.load(Ordering::SeqCst), 2, "a peer never exited");
        assert_eq!(
            verdict.load(Ordering::Relaxed),
            42,
            "payload not visible after abort"
        );
    });
}

/// Batch steal vs owner drain: `steal_batch_and_pop` transfers a prefix
/// of the victim's queue; no task may be observed by both sides.
#[test]
fn loom_batch_steal_does_not_duplicate() {
    loom::model(|| {
        const N: usize = 6;
        let victim = Worker::new_lifo();
        for i in 0..N {
            victim.push(i);
        }
        let stealer = victim.stealer();
        let thief_local = Worker::new_lifo();

        let got = {
            loom::thread::spawn(move || {
                let mut got = Vec::new();
                if let Steal::Success(v) = stealer.steal_batch_and_pop(&thief_local) {
                    got.push(v);
                }
                while let Some(v) = thief_local.pop() {
                    got.push(v);
                }
                got
            })
        };

        let mut mine = Vec::new();
        while let Some(v) = victim.pop() {
            mine.push(v);
            loom::thread::yield_now();
        }

        let theirs = got.join().unwrap();
        let mut all = mine;
        all.extend(theirs);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), N, "batch steal duplicated or dropped a task");
    });
}

/// End-to-end canary: the real executor's exactly-once assertion holds
/// across repeated perturbed runs of the stealing pool. (The executor
/// uses std primitives internally; the model loop here is a stress
/// repeat, not an interleaving proof — the protocol-level proofs above
/// are the loom checks.)
#[test]
fn loom_executor_stealing_exactly_once_stress() {
    use emx_runtime::pool::Executor;
    use emx_sched::PolicyKind;
    loom::model(|| {
        let exec = Executor::new(3, PolicyKind::WorkStealing(Default::default()));
        // run() asserts every task of 0..24 executes exactly once.
        let (locals, _report) = exec.run(24, |_| 0usize, |_, n| *n += 1);
        assert_eq!(locals.iter().sum::<usize>(), 24);
    });
}

/// The `runtime-counter-dispatch` claim on model atomics: three workers
/// claim chunks until the range is exhausted; claims never overlap and
/// cover every task.
#[test]
fn loom_counter_chunked_claims_partition_the_range() {
    loom::model(|| {
        const NTASKS: usize = 12;
        const CHUNK: usize = 2;
        let next = Arc::new(AtomicUsize::new(0));
        let claims = Arc::new(Mutex::new(Vec::new()));

        let workers: Vec<_> = (0..3)
            .map(|_| {
                let next = Arc::clone(&next);
                let claims = Arc::clone(&claims);
                loom::thread::spawn(move || loop {
                    let begin = next.fetch_add(CHUNK, Ordering::Relaxed);
                    if begin >= NTASKS {
                        break;
                    }
                    let end = (begin + CHUNK).min(NTASKS);
                    claims.lock().unwrap().push((begin, end));
                    loom::thread::yield_now();
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let mut tasks: Vec<usize> = claims
            .lock()
            .unwrap()
            .iter()
            .flat_map(|&(b, e)| b..e)
            .collect();
        tasks.sort_unstable();
        assert_eq!(
            tasks,
            (0..NTASKS).collect::<Vec<_>>(),
            "claims must partition 0..{NTASKS} exactly"
        );
    });
}

/// Over-claiming past the end is benign: every worker that fetches a
/// begin ≥ ntasks retires without touching a task, and the counter
/// never hands the same begin to two workers.
#[test]
fn loom_counter_overshoot_is_idempotent() {
    loom::model(|| {
        let next = Arc::new(AtomicUsize::new(0));
        let begins = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let next = Arc::clone(&next);
                let begins = Arc::clone(&begins);
                loom::thread::spawn(move || {
                    let b = next.fetch_add(3, Ordering::Relaxed);
                    begins.lock().unwrap().push(b);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let mut b = begins.lock().unwrap().clone();
        b.sort_unstable();
        assert_eq!(b, vec![0, 3, 6, 9], "each worker owns a distinct chunk");
    });
}

/// The real counter executor under repeated perturbed schedules: the
/// tasks the workers ran are a disjoint exact cover of the range, for a
/// fixed chunk that divides it, one that overshoots its end, and both
/// tapering rules (the two claim fns feed one counter loop). (A stress
/// repeat like the stealing canary above, not an interleaving proof.)
#[test]
fn loom_executor_counter_claims_are_a_disjoint_exact_cover() {
    use emx_runtime::pool::Executor;
    use emx_sched::PolicyKind;
    loom::model(|| {
        for model in [
            PolicyKind::DynamicCounter { chunk: 2 },
            PolicyKind::DynamicCounter { chunk: 5 },
            PolicyKind::Guided { min_chunk: 1 },
            PolicyKind::GuidedAdaptive { k: 4, min_chunk: 2 },
        ] {
            let exec = Executor::new(3, model.clone());
            let (locals, _report) = exec.run(24, |_| Vec::new(), |i, ran| ran.push(i));
            let mut all: Vec<usize> = locals.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..24).collect::<Vec<_>>(), "{model:?}");
        }
    });
}
