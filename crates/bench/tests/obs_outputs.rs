//! Shape tests for the `obs` experiment's exports: the Chrome trace
//! JSON must be Perfetto-loadable (valid JSON, metadata tracks,
//! monotonic slice timestamps, one `task` slice per task on `worker N`
//! or `rank N` tracks) and the JSONL metrics snapshot must be stamped,
//! parseable line by line, and cover the study's headline observables.

use emx_bench::capture_observability;
use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::molecule::Molecule;
use emx_chem::scf::ScfConfig;
use emx_core::prelude::{ParallelFock, ScreenedPairs};
use emx_obs::{Json, SCHEMA_VERSION};

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
    assert!(
        lines.len() > 10,
        "expected a rich snapshot, got {}",
        lines.len()
    );

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

    // Headline observables, each with the right kind.
    let kind_of = |name: &str| -> String {
        lines
            .iter()
            .find(|l| l.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("missing metric {name}"))
            .get("kind")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    for gauge in [
        "exec.ws.utilization",
        "exec.ws.busy_imbalance",
        "sim.ws.utilization",
    ] {
        assert_eq!(kind_of(gauge), "gauge", "{gauge}");
    }
    for counter in [
        "runtime.steal_attempts",
        "runtime.steals",
        "runtime.counter_fetches",
    ] {
        assert_eq!(kind_of(counter), "counter", "{counter}");
    }
    for hist in [
        "runtime.steal_latency",
        "runtime.counter_fetch_latency",
        "runtime.task_duration",
        "chem.quartets_per_task",
    ] {
        assert_eq!(kind_of(hist), "histogram", "{hist}");
    }

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
