//! JSONL run records, stamped and schema-versioned.
//!
//! Every exported JSONL file is self-describing: the first record carries
//! the schema version, the experiment id and a git-describe string, so a
//! results directory can be read years later without the producing binary.
//!
//! ## JSONL schema (version 2)
//!
//! One JSON object per line, discriminated by `"record"`:
//!
//! * `{"record":"meta","schema_version":2,"experiment":…,"git":…}` —
//!   always the first line, exactly once.
//! * `{"record":"attribution","name":…,"policy":…,"wall_ns":…,…}` —
//!   one captured run's [`Attribution::to_json`](crate::Attribution::to_json)
//!   fields under a producer-chosen `name`: per-worker blame
//!   nanoseconds and task / steal / steal-attempt counts.
//! * Producer-specific records (e.g. `"record":"scf_iter"`) may follow;
//!   consumers must skip unknown `record` values.
//!
//! Version 1's `"record":"metric"` lines came from a metrics registry
//! that counted every task, steal and fetch a second time beside the
//! rings; version 2 reads those counts off the rings instead. The
//! version increments only on breaking changes to the records above.

use crate::json::Json;

/// Version of the JSONL schema documented in this module.
pub const SCHEMA_VERSION: u32 = 2;

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

/// Serializes `records` to JSONL behind the meta header line.
pub fn to_jsonl(meta: &RunMeta, records: &[Json]) -> String {
    let mut out = String::new();
    for record in std::iter::once(&meta.to_json()).chain(records) {
        out.push_str(&record.to_json_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_has_meta_first_and_parses() {
        let meta = RunMeta::new("e2", "abc1234");
        let text = to_jsonl(
            &meta,
            &[
                Json::obj(vec![("record", Json::Str("attribution".into()))]),
                Json::obj(vec![("record", Json::Str("scf_iter".into()))]),
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let head = Json::parse(lines[0]).unwrap();
        assert_eq!(head.get("record").unwrap().as_str(), Some("meta"));
        assert_eq!(head.get("schema_version").unwrap().as_f64(), Some(2.0));
        assert_eq!(head.get("experiment").unwrap().as_str(), Some("e2"));
        let records: Vec<Json> = lines[1..].iter().map(|l| Json::parse(l).unwrap()).collect();
        let kinds: Vec<_> = records
            .iter()
            .map(|r| r.get("record").unwrap().as_str())
            .collect();
        assert_eq!(kinds, [Some("attribution"), Some("scf_iter")]);
    }

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe_string().is_empty());
    }
}
