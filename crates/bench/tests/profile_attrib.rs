//! Acceptance gates of the always-on profiler:
//!
//! 1. the blame decomposition sums to wall clock within 1% for **every**
//!    roster policy on a real Fock build (the invariant the attribution
//!    table rests on);
//! 2. both substrates — real threads and the discrete-event simulator —
//!    emit the same task-event schema for a deterministic policy, so one
//!    analysis pipeline genuinely serves both;
//! 3. the committed `results/BENCH_obs.json` parses, embeds a usable
//!    differential baseline, and (for full-mode stamps) holds the
//!    recording overhead under its stamped ceiling.

use emx_bench::profbench;
use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::screening::ScreenedPairs;
use emx_core::prelude::ParallelFock;
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

    for (label, kind) in PolicyKind::full_roster(&pf.estimated_costs(), workers, 4) {
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

/// Gate 3: the committed results stamp parses, carries the differential
/// baseline, and a full-mode stamp respects its own overhead ceiling.
#[test]
fn committed_bench_obs_stamp_is_within_its_ceiling() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_obs.json");
    let text = std::fs::read_to_string(path).expect("results/BENCH_obs.json is committed");
    let v = emx_obs::Json::parse(&text).expect("stamp parses");

    assert_eq!(
        v.get("schema_version").and_then(|s| s.as_f64()),
        Some(emx_obs::SCHEMA_VERSION as f64)
    );
    assert_eq!(
        v.get("experiment").and_then(|e| e.as_str()),
        Some("profile")
    );
    let overhead = v
        .get("recording_overhead_frac")
        .and_then(|o| o.as_f64())
        .expect("overhead stamped");
    let ceiling = v
        .get("overhead_ceiling_frac")
        .and_then(|c| c.as_f64())
        .expect("ceiling stamped");
    assert_eq!(ceiling, profbench::OVERHEAD_CEILING_FRAC);

    // Smoke stamps (CI re-runs on noisy shared runners) are exempt from
    // the ceiling; the committed stamp is expected to be full-mode.
    let smoke = matches!(v.get("smoke"), Some(emx_obs::Json::Bool(true)));
    if !smoke {
        assert!(
            overhead <= ceiling,
            "stamped recording overhead {overhead:.4} exceeds ceiling {ceiling:.2}"
        );
    }

    // The embedded attribution is the differential baseline future runs
    // compare against — it must round-trip.
    let a = profbench::baseline_attribution(path).expect("baseline attribution embedded");
    assert!(!a.workers.is_empty());
    assert!(
        a.max_sum_error() < 0.01,
        "stamped baseline violates the sums-to-wall invariant"
    );
}
