//! The findings vocabulary: one [`Violation`] per broken protocol rule,
//! collected into a [`Report`].
//!
//! The JSON shape (`passed` / `violations` / `skipped`, and per
//! violation `policy` / `kind` / `scenario` / `task` / `worker` /
//! `detail`) is the one CI archives; `task`, `worker` and `skipped` are
//! always empty for a source pass and stay in the shape for its readers.

use emx_obs::Json;
use std::fmt;

/// The rule a source site or manifest entry broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A source atomic site uses `Ordering::Relaxed` outside any
    /// manifest-declared counter role and without a `// relaxed-ok:`
    /// justification.
    UnmanagedOrdering,
    /// A declared protocol sequence expects a memory fence that is
    /// absent from the source — the fence-less seqlock-writer bug class.
    MissingFence,
    /// A source site or function diverges from its declared protocol
    /// rule: wrong ordering for the role, or an atomic-op sequence
    /// that does not match the manifest exactly.
    ProtocolMismatch,
    /// An `unsafe` occurrence without a `// SAFETY:` comment on or
    /// directly above it.
    MissingSafetyComment,
    /// A non-Relaxed atomic site in the source that no manifest rule
    /// covers — new synchronization must declare its protocol.
    UndeclaredSite,
    /// A manifest rule performs an Acquire-side read but names no
    /// Release-side partner role, or its named partner publishes
    /// nothing.
    UnpairedAcquire,
    /// A manifest rule matched no source site at all — the code moved
    /// and the declared protocol went stale.
    ManifestStale,
    /// A path of the forbidden-path table (`Instant::now` in a replay
    /// path, `BinaryHeap` in a simulator loop) in code its row covers,
    /// or a row root that names no scanned file.
    ForbiddenPath,
}

impl ViolationKind {
    /// Stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::UnmanagedOrdering => "unmanaged-ordering",
            ViolationKind::MissingFence => "missing-fence",
            ViolationKind::ProtocolMismatch => "protocol-mismatch",
            ViolationKind::MissingSafetyComment => "missing-safety-comment",
            ViolationKind::UndeclaredSite => "undeclared-site",
            ViolationKind::UnpairedAcquire => "unpaired-acquire",
            ViolationKind::ManifestStale => "manifest-stale",
            ViolationKind::ForbiddenPath => "forbidden-path",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken rule, located by protocol and source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Protocol the finding is under, or `"srclint"` for the
    /// workspace-wide rules.
    pub policy: String,
    /// Which rule broke.
    pub kind: ViolationKind,
    /// Where: `file:line` or the manifest rule.
    pub scenario: String,
    /// Human-readable explanation with the observed values.
    pub detail: String,
}

impl Violation {
    /// Constructs a violation.
    pub fn new(
        policy: impl Into<String>,
        kind: ViolationKind,
        scenario: impl Into<String>,
        detail: impl Into<String>,
    ) -> Violation {
        Violation {
            policy: policy.into(),
            kind,
            scenario: scenario.into(),
            detail: detail.into(),
        }
    }

    /// The violation as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("policy", Json::Str(self.policy.clone())),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("scenario", Json::Str(self.scenario.clone())),
            ("task", Json::Null),
            ("worker", Json::Null),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} / {}: {}",
            self.kind, self.policy, self.scenario, self.detail
        )
    }
}

/// The outcome of one pass: the checks that passed and every violation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `(subject, check)` pairs that were checked and passed.
    pub passed: Vec<(String, String)>,
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "passed",
                Json::Arr(
                    self.passed
                        .iter()
                        .map(|(p, s)| Json::Str(format!("{p}/{s}")))
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Violation::to_json).collect()),
            ),
            ("skipped", Json::Arr(Vec::new())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_json_has_every_field() {
        let v = Violation::new(
            "seqlock-ring",
            ViolationKind::MissingFence,
            "crates/obs/src/ring.rs:40",
            "gone",
        );
        let j = v.to_json();
        assert_eq!(j.get("policy").and_then(Json::as_str), Some("seqlock-ring"));
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("missing-fence"));
        assert_eq!(
            j.get("scenario").and_then(Json::as_str),
            Some("crates/obs/src/ring.rs:40")
        );
        assert_eq!(j.get("task"), Some(&Json::Null));
        assert_eq!(j.get("worker"), Some(&Json::Null));
        assert_eq!(j.get("detail").and_then(Json::as_str), Some("gone"));
    }

    #[test]
    fn display_locates_the_violation() {
        let v = Violation::new(
            "srclint",
            ViolationKind::MissingSafetyComment,
            "crates/x/src/lib.rs:3",
            "unsafe block",
        );
        let s = v.to_string();
        assert!(s.contains("missing-safety-comment"), "{s}");
        assert!(s.contains("crates/x/src/lib.rs:3"), "{s}");
    }

    #[test]
    fn report_is_clean_until_a_violation_and_keeps_its_json_shape() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.passed.push(("seqlock-ring".into(), "writer".into()));
        r.violations.push(Violation::new(
            "seqlock-ring",
            ViolationKind::ManifestStale,
            "docs/protocols.toml",
            "no site",
        ));
        assert!(!r.is_clean());
        let j = r.to_json();
        let len = |k: &str| j.get(k).and_then(Json::as_arr).map(|a| a.len());
        assert_eq!(len("passed"), Some(1));
        assert_eq!(len("violations"), Some(1));
        assert_eq!(len("skipped"), Some(0));
    }
}
