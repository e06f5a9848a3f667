//! `BENCHMARK.json` as the single list of names, units and bounds, and
//! the per-run collector that refuses anything not on that list.

use crate::stats::{summarize, Summary, MIN_SAMPLES_FOR_TAIL};
use emx_obs::Json;

/// The contract file, compiled in: the binary and the file cannot drift
/// apart, and a run needs no path to find it.
const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Allowed worsening as a share of the reference median;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let v = Json::parse(SPEC_TEXT).expect("BENCHMARK.json parses");
        let list = |key: &str| v.get(key).and_then(Json::as_arr).expect("list in spec");
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .expect("string in spec")
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics a run in this mode must print: all of `end_to_end`
    /// untraced, all of `per_layer` traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One workload run's metrics and correctness checks.
pub struct Run<'a> {
    pub workload: String,
    spec: &'a [MetricSpec],
    values: Vec<(String, f64, Option<Summary>)>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Run<'a> {
    pub fn new(workload: &str, spec: &'a [MetricSpec]) -> Run<'a> {
        Run {
            workload: workload.to_string(),
            spec,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one correctness check; a failed one is reported on stderr
    /// and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED [{}]: {}", self.workload, what());
        }
    }

    /// Records a metric; `finish` fails the run on a name the spec does
    /// not list for this mode.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value, None));
    }

    /// Records the median of timed samples, keeping min / max / count
    /// for the printed line.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        let s = summarize(samples);
        self.values.push((name.to_string(), s.median, Some(s)));
    }

    /// Checks the recorded set against the spec (every name once, none
    /// missing, all finite), prints one `workload metric value unit`
    /// line per metric and returns the result line.
    pub fn finish(mut self) -> (bool, String) {
        let mut metrics = Vec::new();
        for m in self.spec {
            let found: Vec<_> = self.values.iter().filter(|(n, ..)| *n == m.name).collect();
            let ok = found.len() == 1 && found[0].1.is_finite();
            self.attempted += 1;
            if !ok {
                self.failed += 1;
                eprintln!(
                    "CHECK FAILED [{}]: metric {} recorded {} times or not finite",
                    self.workload,
                    m.name,
                    found.len()
                );
                continue;
            }
            let (_, value, summary) = found[0];
            let detail = summary.as_ref().map_or(String::new(), |s| {
                let tail = match s.tail {
                    Some((p, v)) => format!(" p{p:.0}={v}"),
                    None if s.n > 1 => format!(" (n<{MIN_SAMPLES_FOR_TAIL}: no tail percentile)"),
                    None => String::new(),
                };
                format!(" min={} max={} n={}{tail}", s.min, s.max, s.n)
            });
            println!("{} {} {} {}{detail}", self.workload, m.name, value, m.unit);
            metrics.push((
                m.name.as_str(),
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            ));
        }
        for (name, ..) in &self.values {
            if !self.spec.iter().any(|m| m.name == *name) {
                self.attempted += 1;
                self.failed += 1;
                eprintln!(
                    "CHECK FAILED [{}]: metric {name} is not in BENCHMARK.json",
                    self.workload
                );
            }
        }
        let correct = self.failed == 0;
        let line = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        (correct, line.to_json_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn spec_names_are_well_formed_and_unique() {
        let spec = Spec::load();
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn result_line_round_trips_and_carries_exactly_the_contract_keys() {
        let spec = vec![
            MetricSpec {
                name: "a_s".into(),
                unit: "s".into(),
                bound: Some(0.1),
            },
            MetricSpec {
                name: "b.count".into(),
                unit: "count".into(),
                bound: None,
            },
        ];
        let mut run = Run::new("w", &spec);
        run.check(true, || unreachable!());
        run.put_samples("a_s", &[0.25, 0.125, 0.5]);
        run.put("b.count", 7.0);
        let (correct, line) = run.finish();
        assert!(correct);
        let v = Json::parse(&line).expect("result line parses");
        let Json::Obj(fields) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        let a = v.get("metrics").and_then(|m| m.get("a_s")).expect("a_s");
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn missing_unknown_and_non_finite_metrics_fail_the_run() {
        let spec = vec![MetricSpec {
            name: "a_s".into(),
            unit: "s".into(),
            bound: None,
        }];
        let (correct, _) = Run::new("w", &spec).finish();
        assert!(!correct, "missing");
        let mut run = Run::new("w", &spec);
        run.put("a_s", f64::NAN);
        assert!(!run.finish().0, "not finite");
        let mut run = Run::new("w", &spec);
        run.put("a_s", 1.0);
        run.put("typo_s", 1.0);
        assert!(!run.finish().0, "unknown");
    }
}
