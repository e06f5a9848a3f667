//! emx-srclint — static analysis of the workspace source, and the
//! repository's lint wall.
//!
//! The repo's execution-model infrastructure (shared counters, the
//! seqlock event ring, the work-stealing pool) is exactly where
//! review-fix commits found memory-ordering bugs. This crate turns that review into a standing
//! gate: a hand-rolled lexer ([`lex`]) feeds an extractor
//! ([`extract`]) that models every atomic operation and `unsafe`
//! occurrence in the workspace source, and a checker ([`check`])
//! verifies the model against the declared memory-protocol manifest
//! `docs/protocols.toml` ([`manifest`]). The same tokens carry the
//! forbidden-path table ([`check::FORBIDDEN`]): no wall clock or
//! ambient randomness in the replay paths, no raw `BinaryHeap` in the
//! simulator loops. Findings are [`Violation`]s of eight
//! [`ViolationKind`]s, collected into a [`Report`] that serializes to
//! the JSON shape CI archives.
//!
//! The crate's binary is the lint wall, `cargo xtask lint [--json
//! PATH]` (an alias in `.cargo/config.toml`): this pass plus the
//! doc-link check of the markdown files.
//!
//! The pass proves it can fail: a mutation self-test ([`selftest`])
//! re-introduces the bug classes the reviews
//! caught (the fence-less seqlock writer from PR 6, a declared Release
//! weakened to Relaxed) into a scratch copy of the source and fails if
//! the pass does not flag them.

#![warn(missing_docs)]

pub mod check;
pub mod extract;
pub mod lex;
pub mod manifest;
mod report;
pub mod selftest;

pub use report::{Report, Violation, ViolationKind};

use emx_obs::Json;
use std::path::Path;

/// Repo-relative path of the protocol manifest.
pub const MANIFEST_PATH: &str = "docs/protocols.toml";

/// One full srclint run: the extracted model plus the check verdict.
pub struct Outcome {
    /// Every atomic site and `unsafe` occurrence found.
    pub inventory: extract::Inventory,
    /// The parsed manifest the inventory was checked against.
    pub manifest: manifest::Manifest,
    /// Findings (clean iff the workspace conforms).
    pub report: Report,
}

/// Scans the workspace under `root` (the repository root), loads
/// `docs/protocols.toml`, and checks the source against it and against
/// the forbidden-path table.
pub fn run(root: &Path) -> Result<Outcome, String> {
    let manifest = manifest::Manifest::load(&root.join(MANIFEST_PATH))?;
    let inventory = extract::scan_workspace(root);
    if inventory.files_scanned == 0 {
        return Err(format!("no Rust sources under {}", root.display()));
    }
    let mut report = check::check(&inventory, &manifest);
    report.violations.extend(check::missing_roots(&inventory));
    Ok(Outcome {
        inventory,
        manifest,
        report,
    })
}

impl Outcome {
    /// The machine-readable report: scan statistics, the full site
    /// inventory, and the violation report (CI artifact shape).
    pub fn to_json(&self) -> Json {
        let sites = self
            .inventory
            .sites
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("crate", Json::Str(s.crate_name.clone())),
                    ("file", Json::Str(s.file.clone())),
                    ("line", Json::Num(s.line as f64)),
                    ("type", Json::Str(s.atomic_type.clone())),
                    ("receiver", Json::Str(s.receiver.clone())),
                    ("op", Json::Str(s.op.clone())),
                    ("ordering", Json::Str(s.ordering.clone())),
                    (
                        "ordering2",
                        s.ordering2.clone().map(Json::Str).unwrap_or(Json::Null),
                    ),
                    ("fn", Json::Str(s.func.clone())),
                    ("test", Json::Bool(s.in_test)),
                ])
            })
            .collect();
        let unsafes = self
            .inventory
            .unsafes
            .iter()
            .map(|u| {
                Json::obj(vec![
                    ("file", Json::Str(u.file.clone())),
                    ("line", Json::Num(u.line as f64)),
                    ("kind", Json::Str(u.kind.clone())),
                    ("fn", Json::Str(u.func.clone())),
                    ("safety_comment", Json::Bool(u.has_safety)),
                    ("test", Json::Bool(u.in_test)),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "files_scanned",
                Json::Num(self.inventory.files_scanned as f64),
            ),
            ("atomic_sites", Json::Num(self.inventory.sites.len() as f64)),
            (
                "unsafe_sites",
                Json::Num(self.inventory.unsafes.len() as f64),
            ),
            (
                "protocols",
                Json::Arr(
                    self.manifest
                        .protocols
                        .iter()
                        .map(|p| Json::Str(p.name.clone()))
                        .collect(),
                ),
            ),
            ("sites", Json::Arr(sites)),
            ("unsafe", Json::Arr(unsafes)),
            ("report", self.report.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn workspace_run_is_clean() {
        let outcome = run(&repo_root()).expect("srclint run");
        let msgs: Vec<String> = outcome
            .report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert!(
            outcome.report.is_clean(),
            "workspace does not conform to docs/protocols.toml:\n{}",
            msgs.join("\n")
        );
    }

    #[test]
    fn json_report_round_trips() {
        let outcome = run(&repo_root()).expect("srclint run");
        let text = outcome.to_json().to_json_string();
        let back = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            back.get("atomic_sites").and_then(Json::as_f64),
            Some(outcome.inventory.sites.len() as f64)
        );
        let sites = back.get("sites").and_then(Json::as_arr).expect("sites");
        assert_eq!(sites.len(), outcome.inventory.sites.len());
    }
}
