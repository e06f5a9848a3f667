//! Shape tests for the `obs` experiment's exports: the Chrome trace
//! JSON must be Perfetto-loadable (valid JSON, metadata tracks,
//! monotonic slice timestamps, one `task` slice per task on `worker N`
//! or `rank N` tracks) and the JSONL records must be stamped, parseable
//! line by line, and carry one attribution per captured run plus one
//! record per SCF iteration.

use emx_bench::capture_observability;
use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::scf::ScfConfig;
use emx_core::prelude::{ParallelFock, ScreenedPairs};
use emx_obs::{Attribution, Json, SCHEMA_VERSION};

fn parsed_lines(jsonl: &str) -> Vec<Json> {
    jsonl
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e:?}")))
        .collect()
}

#[test]
fn metrics_jsonl_is_stamped_and_complete() {
    let capture = capture_observability("obs");
    let lines = parsed_lines(&capture.metrics_jsonl);
    assert_eq!(lines.len(), 1 + 3 + capture.scf_iterations);

    // Meta header: first line, exactly once.
    let head = &lines[0];
    assert_eq!(head.get("record").unwrap().as_str(), Some("meta"));
    assert_eq!(
        head.get("schema_version").unwrap().as_f64(),
        Some(SCHEMA_VERSION as f64)
    );
    assert_eq!(head.get("experiment").unwrap().as_str(), Some("obs"));
    assert!(head.get("git").unwrap().as_str().is_some());
    let metas = lines
        .iter()
        .filter(|l| l.get("record").and_then(|r| r.as_str()) == Some("meta"))
        .count();
    assert_eq!(metas, 1);

    // One attribution record per captured run, in order, each over
    // its run's workers with every task attributed once.
    let attributions: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("record").and_then(|r| r.as_str()) == Some("attribution"))
        .collect();
    let names: Vec<&str> = attributions
        .iter()
        .map(|l| l.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["exec.ws", "exec.counter", "sim.ws"]);
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let cfg = ScfConfig::default();
    let pairs = ScreenedPairs::build(&bm, cfg.tau * 1e-2);
    let fock_tasks = ParallelFock::new(&bm, &pairs, cfg.tau, 2).ntasks();
    for (rec, (workers, ntasks)) in
        attributions
            .iter()
            .zip([(4, fock_tasks), (4, fock_tasks), (8, 256)])
    {
        let a = Attribution::from_json(rec).expect("attribution fields");
        assert_eq!(a.workers.len(), workers, "{}", a.policy);
        assert_eq!(a.totals().tasks, ntasks as u64, "{}", a.policy);
        assert_eq!(a.overwritten, 0, "{}", a.policy);
    }
    let steal_attempts = |i: usize| {
        let a = Attribution::from_json(attributions[i]).unwrap();
        a.totals().steal_attempts
    };
    assert!(steal_attempts(2) > 0, "the simulated stealing run probes");
    assert_eq!(steal_attempts(1), 0, "the counter run never steals");

    // SCF phase records: one per iteration, with all phase fields.
    let scf_iters: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("record").and_then(|r| r.as_str()) == Some("scf_iter"))
        .collect();
    assert_eq!(scf_iters.len(), capture.scf_iterations);
    for (i, rec) in scf_iters.iter().enumerate() {
        assert_eq!(rec.get("iter").unwrap().as_f64(), Some(i as f64));
        for field in ["fock_ms", "diis_ms", "diag_ms", "total_ms"] {
            assert!(
                rec.get(field).unwrap().as_f64().unwrap() >= 0.0,
                "iteration {i} field {field}"
            );
        }
    }
}

#[test]
fn chrome_traces_are_perfetto_loadable() {
    let capture = capture_observability("obs");
    let stems: Vec<&str> = capture.traces.iter().map(|(s, _)| s.as_str()).collect();
    assert!(stems.contains(&"exec_ws"), "missing exec_ws in {stems:?}");
    assert!(stems.contains(&"sim_ws"), "missing sim_ws in {stems:?}");

    // The captured Fock build's decomposition (water/STO-3G, two ket
    // pairs a task) and the simulation's 256 tasks on 8 ranks.
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let cfg = ScfConfig::default();
    let pairs = ScreenedPairs::build(&bm, cfg.tau * 1e-2);
    let fock_tasks = ParallelFock::new(&bm, &pairs, cfg.tau, 2).ntasks();
    let expected = |stem: &str| match stem {
        "exec_ws" => ("worker", 4, fock_tasks),
        "sim_ws" => ("rank", 8, 256),
        other => panic!("unexpected trace {other}"),
    };

    for (stem, json) in &capture.traces {
        let (track, tracks, ntasks) = expected(stem);
        let v = Json::parse(json).unwrap_or_else(|e| panic!("{stem}: invalid JSON: {e:?}"));
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
