//! Shape test for the Chrome trace JSON that `reproduce profile
//! --trace-out` writes, on both substrates: a ring-captured Fock build
//! on real threads and a simulated run with events on. Each trace must
//! be Perfetto-loadable (valid JSON, metadata tracks, monotonic slice
//! timestamps, one `task` slice per task on `worker N` or `rank N`
//! tracks).

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::scf::ScfConfig;
use emx_core::prelude::{ParallelFock, ScreenedPairs};
use emx_distsim::machine::MachineModel;
use emx_distsim::sim::{simulate, SimConfig, SimModel};
use emx_linalg::Matrix;
use emx_obs::{ChromeTrace, Json};
use emx_runtime::{PolicyKind, StealConfig};

/// `(name, track prefix, tracks, tasks, trace JSON)` for a work-stealing
/// Fock build of water/STO-3G on 4 threads (two ket pairs a task) and a
/// work-stealing simulation of 256 tasks on 8 ranks.
fn traces() -> Vec<(&'static str, &'static str, usize, usize, String)> {
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let tau = ScfConfig::default().tau;
    let pairs = ScreenedPairs::build(&bm, tau * 1e-2);
    let pf = ParallelFock::new(&bm, &pairs, tau, 2);
    let mut density = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.2 / (1.0 + (i as f64 - j as f64).abs())
    });
    density.symmetrize();
    let kind = PolicyKind::WorkStealing(StealConfig::default());
    let (_, _, profile) = pf.execute_profiled(&density, 4, kind, 1 << 12);
    assert_eq!(profile.attribution.overwritten, 0, "rings hold the build");
    let mut exec = ChromeTrace::new();
    exec.set_process_name(1, "work-stealing fock build");
    exec.add_event_streams(1, "worker", &profile.events);

    let costs: Vec<f64> = (1..=256).map(|i| (i % 17 + 1) as f64 * 1e-6).collect();
    let cfg = SimConfig {
        events: true,
        machine: MachineModel::default(),
        ..SimConfig::new(8)
    };
    let r = simulate(&costs, &SimModel::WorkStealing { steal_half: true }, &cfg);
    let mut sim = ChromeTrace::new();
    sim.set_process_name(2, "sim work-stealing P=8");
    sim.add_event_streams(2, "rank", &r.events);

    vec![
        ("exec_ws", "worker", 4, pf.ntasks(), exec.to_json_string()),
        ("sim_ws", "rank", 8, 256, sim.to_json_string()),
    ]
}

#[test]
fn chrome_traces_are_perfetto_loadable() {
    for (stem, track, tracks, ntasks, json) in traces() {
        let v = Json::parse(&json).unwrap_or_else(|e| panic!("{stem}: invalid JSON: {e:?}"));
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty(), "{stem}: empty trace");

        // Exactly one process_name, one thread_name per worker track.
        let name_count = |n: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(|x| x.as_str()) == Some(n))
                .count()
        };
        assert_eq!(name_count("process_name"), 1, "{stem}");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|x| x.as_str()) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        let want: Vec<String> = (0..tracks).map(|w| format!("{track} {w}")).collect();
        assert_eq!(names, want, "{stem}: one named track per worker");

        // Complete events: monotonic non-decreasing ts, non-negative
        // dur, every tid a named track.
        let mut last_ts = f64::NEG_INFINITY;
        let mut slices = 0;
        let mut task_slices = vec![0u32; ntasks];
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
                continue;
            }
            slices += 1;
            let name = e.get("name").unwrap().as_str().unwrap();
            if let Some(i) = name.strip_prefix("task ") {
                task_slices[i.parse::<usize>().unwrap()] += 1;
            }
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            assert!(
                ts >= last_ts,
                "{stem}: ts went backwards ({ts} < {last_ts})"
            );
            last_ts = ts;
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0, "{stem}");
        }
        assert!(slices > 0, "{stem}: no slices");
        assert!(
            task_slices.iter().all(|&c| c == 1),
            "{stem}: not exactly one task slice per task: {task_slices:?}"
        );
    }
}
