//! The `obs` experiment: one instrumented capture of the whole stack.
//!
//! Runs a small but real slice of the study with observability attached
//! — a ring-captured work-stealing Fock build, a counter-model build, a
//! full SCF with per-iteration phase timings and a discrete-event
//! simulation with events on — and renders the results as Chrome-trace
//! JSON files (built from the two event-stream captures) plus one
//! stamped JSONL metrics snapshot.
//! The `reproduce` binary writes these under `--trace-out` /
//! `--metrics-out`; the integration tests assert their shape.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::scf::ScfConfig;
use emx_core::prelude::*;
use emx_distsim::machine::MachineModel;
use emx_distsim::sim::{simulate, SimConfig, SimModel};
use emx_obs::{
    git_describe_string, metrics_to_jsonl, ChromeTrace, Json, MetricsRegistry, RingSet, RunMeta,
};
use emx_runtime::{publish_report_gauges, Executor, PolicyKind, RuntimeObs, StealConfig};
use std::sync::Arc;

/// Everything the `obs` experiment produces, ready to write to disk.
#[derive(Debug)]
pub struct ObsCapture {
    /// `(file stem, Chrome trace-event JSON)` pairs — each loads
    /// directly into Perfetto / `chrome://tracing`.
    pub traces: Vec<(String, String)>,
    /// Stamped JSONL metrics snapshot (meta line first).
    pub metrics_jsonl: String,
    /// SCF iterations captured (for reporting).
    pub scf_iterations: usize,
}

/// Runs the instrumented capture. Deterministic inputs; wall-clock
/// durations inside naturally vary run to run.
pub fn capture_observability(experiment_id: &str) -> ObsCapture {
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = RuntimeObs::new(metrics.clone());
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let cfg = ScfConfig::default();
    let mut traces: Vec<(String, String)> = Vec::new();

    // 1. One ring-captured work-stealing Fock build: steal metrics + a
    //    per-worker timeline.
    {
        let pairs = ScreenedPairs::build(&bm, cfg.tau * 1e-2);
        let pf = ParallelFock::new(&bm, &pairs, cfg.tau, 2);
        let density = initial_density(&bm);
        let workers = 4;
        let rings = RingSet::new(workers, 1 << 12);
        let ex = Executor::new(workers, PolicyKind::WorkStealing(StealConfig::default()))
            .with_obs(obs.clone().with_rings(rings.clone()));
        let (_, report) = pf.execute(&density, &ex);
        publish_report_gauges(&metrics, "exec.ws", &report);
        let mut chrome = ChromeTrace::new();
        chrome.set_process_name(1, format!("fock build ({})", report.model));
        chrome.add_event_streams(1, "worker", &rings.events_per_worker());
        traces.push(("exec_ws".into(), chrome.to_json_string()));
    }

    // 2. The same build under the shared counter: fetch count/latency.
    {
        let pairs = ScreenedPairs::build(&bm, cfg.tau * 1e-2);
        let pf = ParallelFock::new(&bm, &pairs, cfg.tau, 2);
        let density = initial_density(&bm);
        let ex = Executor::new(4, PolicyKind::DynamicCounter { chunk: 2 }).with_obs(obs.clone());
        let (_, report) = pf.execute(&density, &ex);
        publish_report_gauges(&metrics, "exec.counter", &report);
    }

    // 3. Full SCF with per-iteration phase timings → `scf_iter` records.
    let mut extra: Vec<Json> = Vec::new();
    let scf_iterations;
    {
        let ex = Executor::new(2, PolicyKind::WorkStealing(StealConfig::default()))
            .with_obs(obs.clone());
        let (result, _reports) = rhf_parallel(&bm, &cfg, &ex, 3);
        scf_iterations = result.iterations;
        for (i, ph) in result.phase_timings.iter().enumerate() {
            extra.push(Json::obj(vec![
                ("record", Json::Str("scf_iter".into())),
                ("iter", Json::Num(i as f64)),
                ("fock_ms", Json::Num(ph.fock.as_secs_f64() * 1e3)),
                ("diis_ms", Json::Num(ph.diis.as_secs_f64() * 1e3)),
                ("diag_ms", Json::Num(ph.diag.as_secs_f64() * 1e3)),
                ("total_ms", Json::Num(ph.total.as_secs_f64() * 1e3)),
            ]));
        }
    }

    // 4. A discrete-event simulation at P=8 with events on — the scaled
    //    view, in virtual time.
    {
        let costs: Vec<f64> = (1..=256).map(|i| (i % 17 + 1) as f64 * 1e-6).collect();
        let sim_cfg = SimConfig {
            events: true,
            machine: MachineModel::default(),
            ..SimConfig::new(8)
        };
        let r = simulate(
            &costs,
            &SimModel::WorkStealing { steal_half: true },
            &sim_cfg,
        );
        publish_sim_metrics(&metrics, "sim.ws", &r);
        let mut chrome = ChromeTrace::new();
        chrome.set_process_name(2, "sim work-stealing P=8");
        chrome.add_event_streams(2, "rank", &r.events);
        traces.push(("sim_ws".into(), chrome.to_json_string()));
    }

    let meta = RunMeta::new(experiment_id, git_describe_string());
    let metrics_jsonl = metrics_to_jsonl(&meta, &metrics.snapshot(), &extra);
    ObsCapture {
        traces,
        metrics_jsonl,
        scf_iterations,
    }
}

/// A symmetric, deterministic starter density for standalone Fock
/// builds (SCF runs derive their own).
fn initial_density(bm: &BasisedMolecule) -> emx_linalg::Matrix {
    let mut d = emx_linalg::Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.2 / (1.0 + (i as f64 - j as f64).abs())
    });
    d.symmetrize();
    d
}
