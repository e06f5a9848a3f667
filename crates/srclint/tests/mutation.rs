//! Mutation self-test (PR-4 style): seeds known-bad source and
//! manifest mutants into a scratch mirror of the workspace and fails
//! on any escape. One mutant is the literal review-caught bug this
//! pass exists to catch mechanically, the PR-6 fence-less seqlock
//! writer; another weakens a declared ordering in place.

use emx_srclint::selftest::{builtin_mutants, run_mutants};
use emx_srclint::ViolationKind;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn no_mutant_escapes() {
    let work = std::env::temp_dir().join(format!("emx-srclint-mutants-{}", std::process::id()));
    let failures = run_mutants(&repo_root(), &work).expect("self-test harness");
    let _ = std::fs::remove_dir_all(&work);
    assert!(
        failures.is_empty(),
        "mutation self-test failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn the_review_caught_bug_and_a_weakened_ordering_are_seeded() {
    let mutants = builtin_mutants();
    let pr6 = mutants
        .iter()
        .find(|m| m.name == "pr6-fenceless-seqlock-writer")
        .expect("PR-6 mutant present");
    assert_eq!(pr6.expect, ViolationKind::MissingFence);
    assert_eq!(pr6.file, "crates/obs/src/ring.rs");
    let weakened = mutants
        .iter()
        .find(|m| m.name == "relaxed-ws-termination-publish")
        .expect("weakened-ordering mutant present");
    assert_eq!(weakened.expect, ViolationKind::ProtocolMismatch);
    assert_eq!(weakened.file, "crates/runtime/src/pool.rs");
}
