//! JSONL metric snapshots, stamped and schema-versioned.
//!
//! Every exported metrics file is self-describing: the first JSONL
//! record carries the schema version, the experiment id and a
//! git-describe string, so a results directory can be read years later
//! without the producing binary.
//!
//! ## JSONL schema (version 1)
//!
//! One JSON object per line, discriminated by `"record"`:
//!
//! * `{"record":"meta","schema_version":1,"experiment":…,"git":…}` —
//!   always the first line, exactly once.
//! * `{"record":"metric","name":…,"kind":"counter","unit":…,"value":…}`
//! * `{"record":"metric","name":…,"kind":"gauge","unit":…,"value":…}`
//! * `{"record":"metric","name":…,"kind":"histogram","unit":…,
//!    "count":…,"sum":…,"min":…,"max":…,"p50":…,"p90":…,"p99":…,
//!    "buckets":[[upper,count],…]}`
//! * Producer-specific records (e.g. `"record":"scf_iter"`) may follow;
//!   consumers must skip unknown `record` values.
//!
//! The schema version increments only on breaking changes to the
//! records above; adding new record types or optional fields is
//! non-breaking.

use crate::json::Json;
use crate::metrics::{MetricEntry, MetricValue};

/// Version of the JSONL metric schema documented in this module.
pub const SCHEMA_VERSION: u32 = 1;

/// Identity stamp attached to every exported file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Experiment id (`e2`, `obs`, `validate`, …).
    pub experiment_id: String,
    /// `git describe` output of the producing tree (or `"unknown"`).
    pub git_describe: String,
    /// Schema version of the emitted records.
    pub schema_version: u32,
}

impl RunMeta {
    /// Stamp for `experiment_id` at the current schema version.
    pub fn new(experiment_id: impl Into<String>, git_describe: impl Into<String>) -> RunMeta {
        RunMeta {
            experiment_id: experiment_id.into(),
            git_describe: git_describe.into(),
            schema_version: SCHEMA_VERSION,
        }
    }

    /// The `"record":"meta"` JSONL header line.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("record", Json::Str("meta".into())),
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("experiment", Json::Str(self.experiment_id.clone())),
            ("git", Json::Str(self.git_describe.clone())),
        ])
    }
}

/// `git describe --always --dirty` of the working tree, `"unknown"` when
/// git is unavailable (deterministic for a given commit state).
pub fn git_describe_string() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_to_json(entry: &MetricEntry) -> Json {
    let mut fields = vec![
        ("record".to_string(), Json::Str("metric".into())),
        ("name".to_string(), Json::Str(entry.name.clone())),
    ];
    match &entry.value {
        MetricValue::Counter(v) => {
            fields.push(("kind".to_string(), Json::Str("counter".into())));
            fields.push(("unit".to_string(), Json::Str(entry.unit.clone())));
            fields.push(("value".to_string(), Json::Num(*v as f64)));
        }
        MetricValue::Gauge(v) => {
            fields.push(("kind".to_string(), Json::Str("gauge".into())));
            fields.push(("unit".to_string(), Json::Str(entry.unit.clone())));
            fields.push(("value".to_string(), Json::Num(*v)));
        }
        MetricValue::Histogram(h) => {
            fields.push(("kind".to_string(), Json::Str("histogram".into())));
            fields.push(("unit".to_string(), Json::Str(entry.unit.clone())));
            fields.push(("count".to_string(), Json::Num(h.count as f64)));
            fields.push(("sum".to_string(), Json::Num(h.sum as f64)));
            fields.push(("min".to_string(), Json::Num(h.min as f64)));
            fields.push(("max".to_string(), Json::Num(h.max as f64)));
            fields.push(("p50".to_string(), Json::Num(h.p50 as f64)));
            fields.push(("p90".to_string(), Json::Num(h.p90 as f64)));
            fields.push(("p99".to_string(), Json::Num(h.p99 as f64)));
            fields.push((
                "buckets".to_string(),
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(upper, n)| {
                            Json::Arr(vec![Json::Num(upper as f64), Json::Num(n as f64)])
                        })
                        .collect(),
                ),
            ));
        }
    }
    Json::Obj(fields)
}

/// Serializes a metrics snapshot (plus any producer-specific `extra`
/// records) to JSONL, meta header first.
pub fn metrics_to_jsonl(meta: &RunMeta, entries: &[MetricEntry], extra: &[Json]) -> String {
    let mut out = String::new();
    out.push_str(&meta.to_json().to_json_string());
    out.push('\n');
    for entry in entries {
        out.push_str(&metric_to_json(entry).to_json_string());
        out.push('\n');
    }
    for record in extra {
        out.push_str(&record.to_json_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_entries() -> Vec<MetricEntry> {
        let reg = MetricsRegistry::new();
        reg.counter("runtime.steals", "count").add(7);
        reg.set_gauge("runtime.utilization", "ratio", 0.875);
        let h = reg.histogram("runtime.steal_latency", "ns");
        h.record(100);
        h.record(9000);
        reg.snapshot()
    }

    #[test]
    fn jsonl_has_meta_first_and_parses() {
        let meta = RunMeta::new("e2", "abc1234");
        let text = metrics_to_jsonl(
            &meta,
            &sample_entries(),
            &[Json::obj(vec![("record", Json::Str("scf_iter".into()))])],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let head = Json::parse(lines[0]).unwrap();
        assert_eq!(head.get("record").unwrap().as_str(), Some("meta"));
        assert_eq!(head.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(head.get("experiment").unwrap().as_str(), Some("e2"));
        for line in &lines[1..] {
            assert!(Json::parse(line).is_ok(), "bad line: {line}");
        }
        // Sorted snapshot: steal_latency < steals < utilization.
        let hist = Json::parse(lines[1]).unwrap();
        assert_eq!(hist.get("kind").unwrap().as_str(), Some("histogram"));
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe_string().is_empty());
    }
}
