//! Acceptance gates of the always-on profiler:
//!
//! 1. the blame decomposition sums to wall clock within 1% for **every**
//!    roster policy on a real Fock build (the invariant the attribution
//!    table rests on);
//! 2. both substrates — real threads and the discrete-event simulator —
//!    emit the same task-event schema for a deterministic policy, so one
//!    analysis pipeline genuinely serves both.
//!
//! The recording-overhead ceiling is asserted by full-mode
//! `reproduce profile` runs, not here: it is a wall-clock reading.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::screening::ScreenedPairs;
use emx_core::prelude::{full_roster, ParallelFock};
use emx_distsim::prelude::{simulate_policy, SimConfig};
use emx_linalg::Matrix;
use emx_obs::{Attribution, EventKind, ProfEvent, RingSet};
use emx_runtime::{Executor, PolicyKind};

/// Gate 1: on every policy of the full roster, the per-worker
/// compute/counter/steal/merge/idle decomposition covers each worker's
/// wall time with ≤ 1% error, and every task is attributed exactly once.
#[test]
fn full_roster_attribution_sums_to_wall_within_one_percent() {
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let pf = ParallelFock::new(&bm, &pairs, 1e-10, 4);
    let density = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.3 / (1.0 + (i as f64 - j as f64).abs())
    });
    let workers = 2;

    for (label, kind) in full_roster(&pf.estimated_costs(), workers, 4) {
        let w = if matches!(kind, PolicyKind::Serial) {
            1
        } else {
            workers
        };
        // Warm-up, then the profiled build the invariant is checked on.
        pf.execute(&density, &Executor::new(w, kind.clone()));
        let (_, report, profile) = pf.execute_profiled(&density, w, kind, 1 << 12);
        assert_eq!(report.total_tasks_run(), pf.ntasks(), "{label}");

        let a = &profile.attribution;
        assert_eq!(a.workers.len(), w, "{label}: one blame row per worker");
        assert_eq!(a.overwritten, 0, "{label}");
        let tasks: u64 = a.workers.iter().map(|b| b.tasks).sum();
        assert_eq!(
            tasks as usize,
            pf.ntasks(),
            "{label}: every task attributed"
        );
        assert!(
            a.max_sum_error() < 0.01,
            "{label}: decomposition misses wall by {:.4} (> 1%)",
            a.max_sum_error()
        );
        let cp = a.critical_path_fraction();
        assert!(
            cp > 0.0 && cp <= 1.0 + 1e-9,
            "{label}: critical path fraction {cp} out of range"
        );
    }
}

/// The `(kind, arg)` task-event stream of one worker, dropping
/// timestamps (real vs virtual time differ; the schema must not).
fn task_schema(events: &[ProfEvent]) -> Vec<(EventKind, u64)> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskStart | EventKind::TaskEnd))
        .map(|e| (e.kind, e.arg))
        .collect()
}

/// Gate 2: for a deterministic policy (static block partition) the
/// thread runtime's rings and the simulator's virtual-time emission
/// produce identical per-worker `(kind, arg)` task-event sequences.
#[test]
fn thread_and_simulator_task_event_schemas_agree_for_static_block() {
    const NTASKS: usize = 24;
    const WORKERS: usize = 3;
    let kind = PolicyKind::StaticBlock;

    // Real threads, rings attached.
    let rings = RingSet::new(WORKERS, 256);
    let ex = Executor::new(WORKERS, kind.clone()).with_rings(rings.clone());
    let (_, report) = ex.run(NTASKS, |_| 0u64, |i, acc| *acc += i as u64);
    assert_eq!(report.total_tasks_run(), NTASKS);
    let thread_events = rings.events_per_worker();
    assert_eq!(rings.total_overwritten(), 0);

    // Simulator, same policy over uniform costs, events on.
    let costs = vec![1.0e-6; NTASKS];
    let mut cfg = SimConfig::new(WORKERS);
    cfg.events = true;
    let sim = simulate_policy(&costs, &kind, &cfg);
    assert_eq!(sim.events.len(), WORKERS);

    for (w, worker_events) in thread_events.iter().enumerate() {
        let threads = task_schema(worker_events);
        let simulated = task_schema(&sim.events[w]);
        assert!(!threads.is_empty(), "worker {w} ran no tasks");
        assert_eq!(
            threads, simulated,
            "worker {w}: substrates disagree on the task-event schema"
        );
    }

    // And both substrates' streams flow through the one attribution
    // pipeline unchanged.
    let wall = thread_events
        .iter()
        .flatten()
        .map(|e| e.t_ns)
        .max()
        .unwrap_or(1)
        .max(1);
    let a = Attribution::build("threads", wall, &thread_events);
    let b = Attribution::build("sim", (sim.makespan * 1e9).round() as u64, &sim.events);
    let a_tasks: u64 = a.workers.iter().map(|w| w.tasks).sum();
    let b_tasks: u64 = b.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(a_tasks, NTASKS as u64);
    assert_eq!(b_tasks, NTASKS as u64);
}
