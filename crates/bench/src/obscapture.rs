//! The `obs` experiment: one instrumented capture of the whole stack.
//!
//! Runs a small but real slice of the study with event rings attached
//! — a work-stealing Fock build and a counter-model build, a full SCF
//! with per-iteration phase timings and a discrete-event simulation
//! with events on — and renders the results as Chrome-trace JSON files
//! (built from the event-stream captures) plus one stamped JSONL file:
//! an attribution record per captured run (per-worker blame and task /
//! steal / steal-attempt counts, all read off the event streams) and
//! one record per SCF iteration.
//! The `reproduce` binary writes these under `--trace-out` /
//! `--metrics-out`; the integration tests assert their shape.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::scf::ScfConfig;
use emx_core::prelude::*;
use emx_distsim::machine::MachineModel;
use emx_distsim::sim::{simulate, SimConfig, SimModel};
use emx_obs::{git_describe_string, to_jsonl, Attribution, ChromeTrace, Json, RunMeta};
use emx_runtime::{Executor, PolicyKind, StealConfig};

/// Everything the `obs` experiment produces, ready to write to disk.
#[derive(Debug)]
pub struct ObsCapture {
    /// `(file stem, Chrome trace-event JSON)` pairs — each loads
    /// directly into Perfetto / `chrome://tracing`.
    pub traces: Vec<(String, String)>,
    /// Stamped JSONL records (meta line first, then one `attribution`
    /// record per captured run and one `scf_iter` record per SCF
    /// iteration).
    pub metrics_jsonl: String,
    /// SCF iterations captured (for reporting).
    pub scf_iterations: usize,
}

/// Runs the instrumented capture. Deterministic inputs; wall-clock
/// durations inside naturally vary run to run.
pub fn capture_observability(experiment_id: &str) -> ObsCapture {
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let cfg = ScfConfig::default();
    let mut traces: Vec<(String, String)> = Vec::new();
    let mut records: Vec<Json> = Vec::new();

    // 1. The same ring-captured Fock build under work stealing (steals
    //    and a per-worker timeline) and under the shared counter
    //    (fetch round trips).
    {
        let pairs = ScreenedPairs::build(&bm, cfg.tau * 1e-2);
        let pf = ParallelFock::new(&bm, &pairs, cfg.tau, 2);
        let density = initial_density(&bm);
        let builds = [
            ("exec.ws", PolicyKind::WorkStealing(StealConfig::default())),
            ("exec.counter", PolicyKind::DynamicCounter { chunk: 2 }),
        ];
        for (name, kind) in builds {
            let (_, report, profile) = pf.execute_profiled(&density, 4, kind, 1 << 12);
            records.push(attribution_record(name, &profile.attribution));
            if name == "exec.ws" {
                let mut chrome = ChromeTrace::new();
                chrome.set_process_name(1, format!("fock build ({})", report.model));
                chrome.add_event_streams(1, "worker", &profile.events);
                traces.push(("exec_ws".into(), chrome.to_json_string()));
            }
        }
    }

    // 2. A discrete-event simulation at P=8 with events on — the scaled
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
        let makespan_ns = (r.makespan * 1e9).round() as u64;
        let a = Attribution::build("work-stealing", makespan_ns, &r.events);
        records.push(attribution_record("sim.ws", &a));
        let mut chrome = ChromeTrace::new();
        chrome.set_process_name(2, "sim work-stealing P=8");
        chrome.add_event_streams(2, "rank", &r.events);
        traces.push(("sim_ws".into(), chrome.to_json_string()));
    }

    // 3. Full SCF with per-iteration phase timings → `scf_iter` records.
    let scf_iterations;
    {
        let ex = Executor::new(2, PolicyKind::WorkStealing(StealConfig::default()));
        let (result, _reports) = rhf_parallel(&bm, &cfg, &ex, 3);
        scf_iterations = result.iterations;
        for (i, ph) in result.phase_timings.iter().enumerate() {
            records.push(Json::obj(vec![
                ("record", Json::Str("scf_iter".into())),
                ("iter", Json::Num(i as f64)),
                ("fock_ms", Json::Num(ph.fock.as_secs_f64() * 1e3)),
                ("diis_ms", Json::Num(ph.diis.as_secs_f64() * 1e3)),
                ("diag_ms", Json::Num(ph.diag.as_secs_f64() * 1e3)),
                ("total_ms", Json::Num(ph.total.as_secs_f64() * 1e3)),
            ]));
        }
    }

    let meta = RunMeta::new(experiment_id, git_describe_string());
    ObsCapture {
        traces,
        metrics_jsonl: to_jsonl(&meta, &records),
        scf_iterations,
    }
}

/// `{"record":"attribution","name":…}` followed by the attribution's
/// own fields.
fn attribution_record(name: &str, a: &Attribution) -> Json {
    let mut fields = vec![
        ("record".to_string(), Json::Str("attribution".into())),
        ("name".to_string(), Json::Str(name.into())),
    ];
    if let Json::Obj(own) = a.to_json() {
        fields.extend(own);
    }
    Json::Obj(fields)
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
