//! The repository's benchmark: six named workloads, five end-to-end
//! metrics from an untraced run and the per-layer metrics from a traced
//! one, all listed in `BENCHMARK.json`. See `benchmark/README.md`.
//!
//! With `--workload` this process *is* the run (the driver's form, and
//! the child of a set); without it, it runs every workload in a fresh
//! child each, so that `setup_s` and `peak_rss_mb` are per workload.

mod balance;
mod harness;
mod host;
mod inputs;
mod report;
mod scf;
mod set;
mod sim;
mod stats;
mod trace;

use report::{Run, Spec, DEFAULT_SEED};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--aa]";

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One sample at reduced sizes: exercises the harness, measures
    /// nothing anyone may quote.
    pub smoke: bool,
    pub aa: bool,
}

fn parse(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        traced: false,
        smoke: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--aa" => o.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload {w}; BENCHMARK.json lists {:?}",
                spec.workloads
            ));
        }
    }
    Ok(o)
}

/// Which family's `(traced, plain)` walls give `trace.overhead_frac`.
#[derive(Clone, Copy)]
enum Family {
    Scf,
    Sim,
    Balance,
}

/// The traced pass over all three families. Every traced run prints
/// every per-layer metric, so the two families a workload does not
/// belong to are passed in at their small size; the overhead reported
/// is the workload's `own` family's.
fn traced_run(
    run: &mut Run,
    own: Family,
    scf: scf::ScfCase,
    sim: &sim::SimCase,
    bal: &balance::BalCase,
) -> Tracer {
    let mut tr = Tracer::new();
    let walls = [
        scf::traced(run, &mut tr, scf),
        sim::traced(run, &mut tr, sim),
        balance::traced(run, &mut tr, bal),
    ];
    let (traced, plain) = walls[own as usize];
    run.put("trace.overhead_frac", traced / plain - 1.0);
    tr
}

/// One workload, in this process. Prints a line per metric, then the
/// result object as the last line.
fn run_workload(spec: &Spec, name: &str, o: &Options) -> bool {
    let mut run = Run::new(name, spec.metrics(o.traced));
    let scf_case = || scf::case(name, o.seed, o.smoke);
    let sim_case = sim::case(name, o.seed, o.smoke);
    let bal_case = balance::case(name, o.seed, o.smoke);
    let own = match (scf_case(), &sim_case, &bal_case) {
        (Some(_), ..) => Family::Scf,
        (_, Some(_), _) => Family::Sim,
        (.., Some(_)) => Family::Balance,
        _ => unreachable!("every workload of BENCHMARK.json belongs to a family"),
    };
    if o.traced {
        let tr = traced_run(
            &mut run,
            own,
            scf_case().unwrap_or_else(|| scf::small(o.seed)),
            &sim_case.unwrap_or_else(|| sim::small(o.seed)),
            &bal_case.unwrap_or_else(|| balance::small(o.seed)),
        );
        let path = format!("benchmark/out/trace-{name}.json");
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, tr.to_json(name).to_json_string()));
        run.check(written.is_ok(), || format!("writing {path}: {written:?}"));
    } else {
        match own {
            Family::Scf => {
                let case = || scf_case().expect("an SCF workload");
                scf::untraced(&mut run, case, o.seconds, o.smoke);
            }
            Family::Sim => {
                let case = sim_case.expect("a simulator workload");
                sim::untraced(&mut run, &case, o.seconds, o.smoke);
            }
            Family::Balance => {
                let case = bal_case.expect("the balancer workload");
                balance::untraced(&mut run, &case, o.seconds, o.smoke);
            }
        }
        run.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    }
    let (correct, line) = run.finish();
    println!("{line}");
    correct
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &o.workload {
        Some(name) => run_workload(&spec, name, &o),
        None if o.aa => set::run_aa(&spec, &o),
        None => set::run_set(&spec, &o, false, true).is_some_and(|s| s.correct),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_obs::Json;

    /// Names of the metrics in a result line.
    fn printed(line: &str) -> Vec<String> {
        let v = Json::parse(line).expect("result line parses");
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics object")
        };
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    fn listed(spec: &[report::MetricSpec]) -> Vec<String> {
        spec.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn traced_run_prints_exactly_the_per_layer_metrics_of_the_spec() {
        let spec = Spec::load();
        let mut run = Run::new("scf-w3-631g", &spec.per_layer);
        traced_run(
            &mut run,
            Family::Scf,
            scf::tiny(),
            &sim::tiny(),
            &balance::tiny(),
        );
        let (correct, line) = run.finish();
        assert!(correct, "a check failed or a name is missing or unlisted");
        assert_eq!(printed(&line), listed(&spec.per_layer));
    }

    #[test]
    fn untraced_runs_print_exactly_the_end_to_end_metrics_of_the_spec() {
        let spec = Spec::load();
        for family in [Family::Scf, Family::Sim, Family::Balance] {
            let mut run = Run::new("balance-16k", &spec.end_to_end);
            match family {
                Family::Scf => scf::untraced(&mut run, scf::tiny, 0.0, true),
                Family::Sim => sim::untraced(&mut run, &sim::tiny(), 0.0, true),
                Family::Balance => balance::untraced(&mut run, &balance::tiny(), 0.0, true),
            }
            run.put("peak_rss_mb", host::peak_rss_mb().expect("procfs"));
            let (correct, line) = run.finish();
            assert!(correct);
            assert_eq!(printed(&line), listed(&spec.end_to_end));
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let spec = Spec::load();
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(
            &args("--workload sim-deep --seed 7 --seconds 3 --trace 1"),
            &spec,
        )
        .expect("the driver's form");
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.traced),
            (Some("sim-deep"), 7, 3.0, true)
        );
        assert_eq!(parse(&[], &spec).expect("defaults").seed, DEFAULT_SEED);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad), &spec).is_err(), "{bad}");
        }
    }
}
