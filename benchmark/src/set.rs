//! A set: every workload of `BENCHMARK.json`, each in a fresh child
//! process; and `--aa`, two sets of the same build compared.

use crate::host;
use crate::report::Spec;
use crate::stats::MIN_SAMPLES_FOR_TAIL;
use crate::Options;
use emx_obs::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub struct SetResult {
    pub correct: bool,
    /// Metric values per workload, by metric name.
    pub values: BTreeMap<String, BTreeMap<String, f64>>,
}

/// Per-layer metrics that are counts or simulated statistics: the same
/// seed must reproduce them bit for bit.
fn is_exact(metric: &str) -> bool {
    const EXACT: [&str; 12] = [
        "chem.quartets_per_build",
        "chem.prim_quartets_per_build",
        "chem.tasks_per_build",
        "chem.task_cost_cv",
        "chem.scf_iterations",
        "runtime.ring_overwritten",
        "distsim.events.",
        "distsim.stats_hash",
        "distsim.fault_free_mismatches",
        "distsim.ws_vs_static_makespan",
        "balance.imbalance.",
        "balance.comm_volume.",
    ];
    EXACT.iter().any(|e| metric.starts_with(e))
}

/// Runs one workload in a child of this executable; echoes its metric
/// lines when `echo`, returns its parsed result line.
fn run_child(name: &str, o: &Options, echo: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives the set.
    let out = cmd.output().expect("child starts");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop()?;
    if echo {
        lines.iter().for_each(|l| println!("{l}"));
    }
    Json::parse(last).ok()
}

/// Runs every workload (last first when `reversed`), writes
/// `benchmark/out/<git-describe>-seed<N>.json`, returns the values.
pub fn run_set(spec: &Spec, o: &Options, reversed: bool, echo: bool) -> Option<SetResult> {
    let mut names: Vec<&String> = spec.workloads.iter().collect();
    if reversed {
        names.reverse();
    }
    let mut correct = true;
    let mut values = BTreeMap::new();
    let mut results = Vec::new();
    for name in names {
        let result = run_child(name, o, echo)?;
        correct &= result.get("correct") == Some(&Json::Bool(true));
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return None;
        };
        let by_name = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        values.insert(name.clone(), by_name);
        results.push((name.as_str(), result));
    }
    let mode = match (o.traced, o.smoke) {
        (false, false) => "",
        (true, false) => "-trace",
        (false, true) => "-smoke",
        (true, true) => "-trace-smoke",
    };
    let git = emx_obs::git_describe_string();
    let path = format!("benchmark/out/{git}-seed{}{mode}.json", o.seed);
    let doc = Json::obj(vec![
        ("benchmark", Json::Str("emx-benchmark".into())),
        ("git", Json::Str(git)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("traced", Json::Bool(o.traced)),
        ("smoke", Json::Bool(o.smoke)),
        ("host", host::record()),
        (
            "note",
            Json::Str(format!(
                "values are medians of fewer than {MIN_SAMPLES_FOR_TAIL} samples: \
                 no tail percentile is claimed"
            )),
        ),
        ("workloads", Json::obj(results)),
    ]);
    if let Err(e) = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, doc.to_json_string()))
    {
        eprintln!("writing {path}: {e}");
        return None;
    }
    eprintln!("wrote {path}");
    Some(SetResult { correct, values })
}

/// Two sets of the same build back to back, in opposite workload order;
/// prints a markdown table of every (workload, metric) pair and fails
/// if an end-to-end metric differs by more than its bound — or, traced,
/// if an exact count differs at all.
pub fn run_aa(spec: &Spec, o: &Options) -> bool {
    if o.smoke {
        eprintln!("--aa refuses --smoke: smoke numbers are not measurements");
        return false;
    }
    // After an idle spell the host's second core takes seconds to come
    // up, which the first workload of the first set would pay alone:
    // run one smoke child first and throw its numbers away.
    let warm_up = Options {
        workload: None,
        smoke: true,
        ..*o
    };
    run_child(&spec.workloads[0], &warm_up, false);
    let sets: Vec<SetResult> = [false, true]
        .iter()
        .filter_map(|&reversed| run_set(spec, o, reversed, false))
        .collect();
    let [a, b] = sets.as_slice() else {
        eprintln!("a set did not complete");
        return false;
    };
    let mut ok = a.correct && b.correct;
    println!("# A/A: two sets of one build\n");
    println!(
        "`{}`, seed {}, {} s per run, traced: {}, host: `{}`\n",
        emx_obs::git_describe_string(),
        o.seed,
        o.seconds,
        o.traced,
        host::record()
    );
    println!("| workload | metric | set 1 | set 2 | rel. diff | allowed | ok |");
    println!("|---|---|---|---|---|---|---|");
    for name in &spec.workloads {
        for m in spec.metrics(o.traced) {
            let allowed = match m.bound {
                Some(b) => b,
                None if is_exact(&m.name) => 0.0,
                None => continue,
            };
            let (x, y) = (a.values[name][&m.name], b.values[name][&m.name]);
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
            let pass = diff <= allowed;
            ok &= pass;
            println!(
                "| {name} | {} | {x:.6} | {y:.6} | {:.2} % | {:.0} % | {} |",
                m.name,
                100.0 * diff,
                100.0 * allowed,
                if pass { "yes" } else { "NO" }
            );
        }
    }
    println!("\n{}", if ok { "A/A holds." } else { "A/A FAILED." });
    ok
}
