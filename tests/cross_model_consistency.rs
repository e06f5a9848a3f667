//! Integration: the chemistry kernel produces identical results under
//! every execution model, worker count, and task granularity.
//!
//! This is the correctness backbone of the study — performance
//! comparisons are only meaningful because the answer never changes.

use emx_core::prelude::*;
use emx_linalg::Matrix;
use std::sync::Arc;

fn mock_density(n: usize) -> Matrix {
    let mut d = Matrix::from_fn(n, n, |i, j| 0.25 / (1.0 + (i as f64 - j as f64).abs()));
    d.symmetrize();
    d
}

/// The roster's last entry, its persistence-based one: `costs`
/// rebalanced from the block partition into a static owner map.
fn persistence(costs: &[f64], workers: usize) -> PolicyKind {
    full_roster(costs, workers, 1).pop().unwrap().1
}

fn all_models(ntasks: usize, workers: usize) -> Vec<PolicyKind> {
    vec![
        PolicyKind::StaticBlock,
        PolicyKind::StaticCyclic,
        PolicyKind::StaticAssigned(Arc::new(
            (0..ntasks as u32).map(|i| i % workers as u32).collect(),
        )),
        PolicyKind::DynamicCounter { chunk: 1 },
        PolicyKind::DynamicCounter { chunk: 5 },
        PolicyKind::Guided { min_chunk: 1 },
        persistence(&vec![1.0; ntasks], workers),
        PolicyKind::WorkStealing(StealConfig::default()),
        PolicyKind::WorkStealing(StealConfig {
            steal_batch: false,
            ..StealConfig::default()
        }),
    ]
}

#[test]
fn fock_identical_across_models_and_granularities() {
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let d = mock_density(bm.nbf);

    let reference = {
        let pf = ParallelFock::new(&bm, &pairs, 1e-10, usize::MAX);
        let (g, _) = pf.execute(&d, &Executor::new(1, PolicyKind::Serial));
        g
    };

    for chunk in [1, 3, 16, usize::MAX] {
        let pf = ParallelFock::new(&bm, &pairs, 1e-10, chunk);
        for workers in [1, 2, 4] {
            for model in all_models(pf.ntasks(), workers) {
                let (g, report) = pf.execute(&d, &Executor::new(workers, model.clone()));
                assert!(
                    g.max_abs_diff(&reference) < 1e-11,
                    "chunk {chunk}, P={workers}, model {}: diff {}",
                    model.name(),
                    g.max_abs_diff(&reference)
                );
                assert_eq!(report.total_tasks_run(), pf.ntasks());
            }
        }
    }
}

#[test]
fn full_scf_energy_invariant_under_execution_model() {
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let cfg = ScfConfig::default();
    let (reference, _) = rhf_parallel(&bm, &cfg, &Executor::new(1, PolicyKind::Serial), usize::MAX);
    assert!(reference.converged);
    assert!((reference.energy + 74.96).abs() < 0.05);

    // Task count of the parallel Fock build at chunk 2 (same derivation
    // as `rhf_parallel`), needed to size the persistence assignment.
    let ntasks_c2 = {
        let pairs = ScreenedPairs::build(&bm, cfg.tau * 1e-2);
        ParallelFock::new(&bm, &pairs, cfg.tau, 2).ntasks()
    };
    for (workers, model, chunk) in [
        (2, PolicyKind::StaticCyclic, 4),
        (3, PolicyKind::DynamicCounter { chunk: 2 }, 2),
        (4, PolicyKind::Guided { min_chunk: 1 }, 2),
        (4, persistence(&vec![1.0; ntasks_c2], 4), 2),
        (4, PolicyKind::WorkStealing(StealConfig::default()), 1),
    ] {
        let (r, reports) = rhf_parallel(&bm, &cfg, &Executor::new(workers, model.clone()), chunk);
        assert!(r.converged, "model {}", model.name());
        assert!(
            (r.energy - reference.energy).abs() < 1e-9,
            "model {} energy {} vs {}",
            model.name(),
            r.energy,
            reference.energy
        );
        assert_eq!(reports.len(), r.iterations);
        assert!(reports.iter().all(|rep| rep.total_tasks_run() > 0));
    }
}

#[test]
fn h2_dissociation_curve_is_model_invariant() {
    // A small sweep over geometries — every point must agree between
    // serial and work stealing, and the curve must have a minimum
    // between the endpoints.
    let cfg = ScfConfig::default();
    let serial = Executor::new(1, PolicyKind::Serial);
    let ws = Executor::new(2, PolicyKind::WorkStealing(StealConfig::default()));
    let mut energies = Vec::new();
    for r in [1.0, 1.4, 2.0, 3.0] {
        let bm = BasisedMolecule::assign(&Molecule::h2(r), BasisSet::Sto3g);
        let (e1, _) = rhf_parallel(&bm, &cfg, &serial, usize::MAX);
        let (e2, _) = rhf_parallel(&bm, &cfg, &ws, 2);
        assert!((e1.energy - e2.energy).abs() < 1e-9, "r = {r}");
        energies.push(e1.energy);
    }
    assert!(energies[1] < energies[0], "E(1.4) < E(1.0)");
    assert!(energies[1] < energies[3], "E(1.4) < E(3.0)");
}

#[test]
fn fault_injection_does_not_change_scf_energy() {
    // Poisoned tasks (caught, logged, re-run) plus a slow core under
    // every thread execution model: the converged energy must be
    // identical to the fault-free serial run and no task may be lost.
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let cfg = ScfConfig::default();
    let (reference, _) = rhf_parallel(&bm, &cfg, &Executor::new(1, PolicyKind::Serial), usize::MAX);
    assert!(reference.converged);

    for (workers, model) in [
        (4, PolicyKind::StaticBlock),
        (4, PolicyKind::StaticCyclic),
        (3, PolicyKind::DynamicCounter { chunk: 2 }),
        (4, PolicyKind::Guided { min_chunk: 2 }),
        (4, PolicyKind::WorkStealing(StealConfig::default())),
    ] {
        let mut ex = Executor::new(workers, model.clone())
            .with_faults(FaultInjection::poison_tasks(vec![0, 1, 2]));
        ex.variability = Variability::SlowCores {
            factor: 2.0,
            count: 1,
        };
        let (r, reports) = rhf_parallel(&bm, &cfg, &ex, 4);
        assert!(r.converged, "model {}", model.name());
        assert!(
            (r.energy - reference.energy).abs() < 1e-9,
            "model {} energy {} vs fault-free {}",
            model.name(),
            r.energy,
            reference.energy
        );
        // Each SCF iteration re-arms the poisons; every iteration must
        // catch them and recover every poisoned task.
        assert!(!reports.is_empty());
        for rep in &reports {
            assert!(rep.total_panics_caught() >= 1, "model {}", model.name());
            assert_eq!(
                rep.total_recovered_tasks(),
                rep.total_panics_caught(),
                "model {}",
                model.name()
            );
        }
    }
}

#[test]
fn simulated_rank_failure_loses_no_tasks_in_any_model() {
    // Kill rank 3 mid-run under every simulated execution model and
    // every recovery policy: all orphaned tasks must be re-executed by
    // survivors and the total executed count conserved.
    let n = 400usize;
    let p = 8usize;
    let costs: Vec<f64> = (0..n).map(|i| 1e-6 * (1.0 + (i % 13) as f64)).collect();
    let owners: Vec<u32> = (0..n).map(|i| (i % p) as u32).collect();
    let cfg = SimConfig::new(p);
    let at = 0.25 * costs.iter().sum::<f64>() / p as f64;
    let models = vec![
        SimModel::Static(owners.clone()),
        SimModel::Counter { chunk: 4 },
        SimModel::Guided { min_chunk: 1 },
        SimModel::HierCounters {
            chunk: 4,
            node_size: 4,
            parent_chunk: 32,
        },
        SimModel::WorkStealing { steal_half: true },
        SimModel::SeededStealing {
            owners: owners.clone(),
            steal_half: true,
        },
    ];
    for model in &models {
        for policy in [
            RecoveryPolicy::BlockSurvivors,
            RecoveryPolicy::SemiMatching,
            RecoveryPolicy::Persistence,
        ] {
            let plan = FaultPlan::fault_free()
                .with_rank_failure(3, at)
                .with_recovery(policy);
            let r = simulate_with_faults(&costs, model, &cfg, &plan);
            let label = format!("model {} policy {}", model.name(), policy.name());
            assert_eq!(r.faults.lost, 0, "{label}");
            assert_eq!(r.faults.recovered, r.faults.orphaned, "{label}");
            let executed: usize = r.sim.tasks.iter().sum();
            assert_eq!(executed, n, "{label}");
            assert!(
                r.sim.tasks[3] > 0,
                "{label}: rank 3 should run before dying"
            );
        }
    }
}

#[test]
fn variability_injection_does_not_change_results() {
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let pf = ParallelFock::new(&bm, &pairs, 1e-10, 4);
    let d = mock_density(bm.nbf);
    let (reference, _) = pf.execute(&d, &Executor::new(1, PolicyKind::Serial));

    // Both cores slowed: with one, stealing can finish this tiny build
    // on the unpadded worker before the padded one runs a task.
    let mut ex = Executor::new(2, PolicyKind::WorkStealing(StealConfig::default()));
    ex.variability = Variability::SlowCores {
        factor: 2.0,
        count: 2,
    };
    let (g, report) = pf.execute(&d, &ex);
    assert!(g.max_abs_diff(&reference) < 1e-11);
    assert!(report
        .worker_stats
        .iter()
        .any(|w| w.padded > std::time::Duration::ZERO));
}
