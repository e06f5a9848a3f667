//! Mutation self-test: proves the pass catches the bug classes it
//! exists for.
//!
//! A static-analysis gate that silently stopped firing is worse than
//! none. In the PR-4 style, this module re-introduces known-bad code
//! into a scratch mirror of the workspace source and asserts each
//! mutant is flagged with the **expected** finding kind — an escape is
//! itself a failure. The seeded mutants are not all synthetic: the
//! first is the exact bug human review caught after the code shipped
//! (the PR-6 fence-less seqlock writer).
//!
//! The mirror copies *every* workspace source plus the manifest, so
//! all other protocol rules stay satisfied and the check isolates the
//! one seeded defect.

use crate::{check, extract, manifest, Report, ViolationKind};
use std::path::{Path, PathBuf};

/// One seeded defect and the finding it must produce.
pub struct Mutant {
    /// Short name for failure messages.
    pub name: &'static str,
    /// Repo-relative file to mutate (source or the manifest).
    pub file: &'static str,
    /// Exact text that must exist in the file (staleness guard).
    pub find: &'static str,
    /// Replacement text introducing the defect.
    pub replace: &'static str,
    /// The finding kind the pass must emit.
    pub expect: ViolationKind,
    /// Substring the finding's location must contain.
    pub expect_at: &'static str,
}

/// The seeded mutants. The first is the historical review-caught bug;
/// the rest cover the remaining finding kinds.
pub fn builtin_mutants() -> Vec<Mutant> {
    vec![
        // PR 6, exact pre-fix state: the seqlock writer published
        // payload stores with no Release fence after the odd-sequence
        // store, so a reader could see fresh payload under a stale
        // even sequence word and accept a torn event.
        Mutant {
            name: "pr6-fenceless-seqlock-writer",
            file: "crates/obs/src/ring.rs",
            find: "        fence(Ordering::Release);\n        slot.w0.store(",
            replace: "        slot.w0.store(",
            expect: ViolationKind::MissingFence,
            expect_at: "crates/obs/src/ring.rs",
        },
        // A declared ordering weakened in place: the work-stealing
        // pool's batched completion decrement dropped below Release no
        // longer publishes the finished tasks' writes to the peer whose
        // Acquire load of zero ends the run.
        Mutant {
            name: "relaxed-ws-termination-publish",
            file: "crates/runtime/src/pool.rs",
            find: "remaining.fetch_sub(done, Ordering::Release);",
            replace: "remaining.fetch_sub(done, Ordering::Relaxed);",
            expect: ViolationKind::ProtocolMismatch,
            expect_at: "crates/runtime/src/pool.rs",
        },
        // A new Relaxed counter nobody declared or justified.
        Mutant {
            name: "unjustified-relaxed-counter",
            file: "crates/runtime/src/pool.rs",
            find: "use std::sync::atomic::{AtomicUsize, Ordering};",
            replace: "use std::sync::atomic::{AtomicUsize, Ordering};\nfn srclint_mutant_counter(n: &AtomicUsize) -> usize {\n    n.fetch_add(1, Ordering::Relaxed)\n}",
            expect: ViolationKind::UnmanagedOrdering,
            expect_at: "crates/runtime/src/pool.rs",
        },
        // New synchronization (an Acquire load) with no protocol.
        Mutant {
            name: "undeclared-acquire-site",
            file: "crates/runtime/src/pool.rs",
            find: "use std::sync::atomic::{AtomicUsize, Ordering};",
            replace: "use std::sync::atomic::{AtomicUsize, Ordering};\nfn srclint_mutant_flag(n: &AtomicUsize) -> usize {\n    n.load(Ordering::Acquire)\n}",
            expect: ViolationKind::UndeclaredSite,
            expect_at: "crates/runtime/src/pool.rs",
        },
        // An unsafe block with no SAFETY comment.
        Mutant {
            name: "undocumented-unsafe",
            file: "crates/runtime/src/pool.rs",
            find: "use std::sync::atomic::{AtomicUsize, Ordering};",
            replace: "use std::sync::atomic::{AtomicUsize, Ordering};\nfn srclint_mutant_unsafe() -> usize {\n    unsafe { String::new().as_mut_vec().len() }\n}",
            expect: ViolationKind::MissingSafetyComment,
            expect_at: "crates/runtime/src/pool.rs",
        },
        // Manifest drift: a rule whose fn no longer exists.
        Mutant {
            name: "stale-manifest-rule",
            file: "docs/protocols.toml",
            find: "fn        = \"snapshot\"",
            replace: "fn        = \"snapshot_renamed_away\"",
            expect: ViolationKind::ManifestStale,
            expect_at: "docs/protocols.toml",
        },
        // Manifest weakening: the seqlock reader drops its pairing
        // declaration.
        Mutant {
            name: "unpaired-acquire-reader",
            file: "docs/protocols.toml",
            find: "pairs     = \"writer\" # seqlock-reader-pair",
            replace: "",
            expect: ViolationKind::UnpairedAcquire,
            expect_at: "docs/protocols.toml",
        },
    ]
}

/// Mirrors the scannable workspace (`crates/**`, `tests/**`,
/// `examples/**` `.rs` files, plus the manifest) from `root` into
/// `work`, returning the copied file list.
pub fn mirror_workspace(root: &Path, work: &Path) -> Result<Vec<PathBuf>, String> {
    let mut copied = Vec::new();
    let mut stack = vec![
        "crates".to_string(),
        "tests".to_string(),
        "examples".to_string(),
    ];
    let mut files: Vec<String> = vec![crate::MANIFEST_PATH.to_string()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().to_string();
            let child = format!("{rel}/{name}");
            let p = e.path();
            if p.is_dir() {
                if name != "target" {
                    stack.push(child);
                }
            } else if name.ends_with(".rs") {
                files.push(child);
            }
        }
    }
    for rel in files {
        let src = root.join(&rel);
        let dst = work.join(&rel);
        if let Some(parent) = dst.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
        std::fs::copy(&src, &dst).map_err(|e| format!("copy {rel}: {e}"))?;
        copied.push(dst);
    }
    Ok(copied)
}

fn run_on(work: &Path) -> Result<Report, String> {
    let m = manifest::Manifest::load(&work.join(crate::MANIFEST_PATH))?;
    let inv = extract::scan_workspace(work);
    Ok(check::check(&inv, &m))
}

/// Runs every builtin mutant against a mirror of `root` rooted at
/// `work` (created if needed, reused if present). Returns the list of
/// failures — empty means the pass caught everything, including the
/// baseline being clean before any mutation.
pub fn run_mutants(root: &Path, work: &Path) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("mkdir {work:?}: {e}"))?;
    mirror_workspace(root, work)?;
    let mut failures = Vec::new();

    let baseline = run_on(work)?;
    if !baseline.is_clean() {
        for v in &baseline.violations {
            failures.push(format!("baseline not clean: {v}"));
        }
        return Ok(failures);
    }

    for m in builtin_mutants() {
        let path = work.join(m.file);
        let original =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", m.file))?;
        if !original.contains(m.find) {
            failures.push(format!(
                "mutant `{}` is stale: `{}` no longer contains its anchor text",
                m.name, m.file
            ));
            continue;
        }
        let mutated = original.replacen(m.find, m.replace, 1);
        std::fs::write(&path, &mutated).map_err(|e| format!("write {}: {e}", m.file))?;
        let verdict = run_on(work);
        std::fs::write(&path, &original).map_err(|e| format!("restore {}: {e}", m.file))?;
        match verdict {
            Ok(report) => {
                let caught = report
                    .violations
                    .iter()
                    .any(|v| v.kind == m.expect && v.scenario.contains(m.expect_at));
                if !caught {
                    let got: Vec<String> =
                        report.violations.iter().map(|v| v.to_string()).collect();
                    failures.push(format!(
                        "ESCAPE: mutant `{}` not flagged as {} at {} (findings: [{}])",
                        m.name,
                        m.expect.name(),
                        m.expect_at,
                        got.join("; ")
                    ));
                }
            }
            // A manifest mutant may make the manifest unparseable;
            // that still counts as caught only when the mutant expects
            // a manifest finding — otherwise it is a self-test bug.
            Err(e) => {
                failures.push(format!(
                    "mutant `{}`: run failed instead of reporting {}: {e}",
                    m.name,
                    m.expect.name()
                ));
            }
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_finding_kind_has_a_mutant() {
        // `ForbiddenPath` is seeded by the lint wall's fixture table
        // (`scanner_flags_seeded_violations` in main.rs) instead.
        let kinds: Vec<ViolationKind> = builtin_mutants().iter().map(|m| m.expect).collect();
        for k in [
            ViolationKind::MissingFence,
            ViolationKind::ProtocolMismatch,
            ViolationKind::UnmanagedOrdering,
            ViolationKind::UndeclaredSite,
            ViolationKind::MissingSafetyComment,
            ViolationKind::ManifestStale,
            ViolationKind::UnpairedAcquire,
        ] {
            assert!(kinds.contains(&k), "no mutant exercises {}", k.name());
        }
    }
}
