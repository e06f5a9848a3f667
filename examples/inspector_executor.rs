//! Inspector–executor SCF: persistence-based load balancing.
//!
//! The paper's iterative-application play: the first SCF iteration runs
//! a naive static partition with profiling rings attached (the
//! *inspector*), every later iteration re-balances from the per-task
//! costs measured on those rings (persistence) and runs the tuned static
//! assignment (the *executor*). No dynamic
//! scheduling is needed once the costs are known — this is the execution
//! model that made Global-Arrays codes competitive with work stealing
//! on iteration-stable workloads.
//!
//! Run with: `cargo run --release --example inspector_executor`

use emx_balance::prelude::{movement, rebalance, Problem};
use emx_chem::prelude::*;
use emx_core::prelude::{fmt3, ParallelFock};
use emx_linalg::Matrix;
use emx_obs::task_spans;
use emx_sched::block_partition;
use std::sync::Arc;

fn main() {
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let pf = ParallelFock::new(&bm, &pairs, 1e-10, 8);
    let workers = 2;
    println!(
        "inspector–executor SCF: water/6-31G, {} tasks, {} workers\n",
        pf.ntasks(),
        workers
    );

    // Start from the naive static-block partition.
    let mut assignment = block_partition(pf.ntasks(), workers);

    let cfg = ScfConfig::default();
    let mut iteration = 0usize;
    let mut history: Vec<(usize, f64, f64, usize)> = Vec::new();

    let result = {
        let assignment_ref = &mut assignment;
        let history_ref = &mut history;
        rhf_with(&bm, &cfg, |density: &Matrix| {
            iteration += 1;
            let kind = emx_runtime::PolicyKind::StaticAssigned(Arc::new(assignment_ref.clone()));
            let ntasks = pf.ntasks();
            let (g, _, profile) = pf.execute_profiled(density, workers, kind, 2 * ntasks + 16);

            // Inspector: measured per-task costs drive the rebalance
            // for the next iteration. A lossy capture is refused.
            assert_eq!(profile.attribution.overwritten, 0, "rings hold the build");
            let spans: Vec<_> = profile.events.iter().flat_map(|s| task_spans(s)).collect();
            assert_eq!(spans.len(), ntasks, "one span per task");
            let mut costs = vec![f64::NAN; ntasks];
            for (task, t0, t1) in spans {
                costs[task] = (t1 - t0) as f64 * 1e-9;
            }
            assert!(costs.iter().all(|c| !c.is_nan()), "every task measured");
            let problem = Problem::new(costs, workers);
            let imbalance_before = problem.imbalance(assignment_ref);
            let next = rebalance(&problem, assignment_ref);
            let moved = movement(assignment_ref, &next);
            let imbalance_after = problem.imbalance(&next);
            history_ref.push((iteration, imbalance_before, imbalance_after, moved));
            *assignment_ref = next;
            g
        })
    };

    println!("iter  imbalance(run)  imbalance(rebalanced)  migrated");
    println!("------------------------------------------------------");
    for (it, before, after, moved) in &history {
        println!(
            "{it:>4}  {:>14}  {:>21}  {moved:>8}",
            fmt3(*before),
            fmt3(*after)
        );
    }
    println!(
        "\nE = {:.8} Ha in {} iterations (converged: {})",
        result.energy, result.iterations, result.converged
    );
    assert!((result.energy + 75.98).abs() < 0.05);
}
