//! The identity stamp on every exported table.
//!
//! Each stamped CSV (`reproduce --csv`) carries the schema version, the
//! experiment id and a git-describe string, so a results directory can
//! be read years later without the producing binary. The version
//! increments only on breaking changes to that layout.

/// Version of the stamped file layout.
pub const SCHEMA_VERSION: u32 = 2;

/// Identity stamp attached to every exported file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Experiment id (`e2`, `profile`, `validate`, …).
    pub experiment_id: String,
    /// `git describe` output of the producing tree (or `"unknown"`).
    pub git_describe: String,
    /// Schema version of the stamped file.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe_string().is_empty());
    }
}
