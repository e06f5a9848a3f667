//! Inventory-completeness gate: the extractor must see the whole
//! concurrency surface, not a convenient subset. The counts below are
//! floors, asserted against the real workspace source — if a
//! refactor moves atomic sites somewhere the scanner cannot see, this
//! fails before the protocol checks can silently pass on a partial
//! model.

use emx_srclint::extract::scan_workspace;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn inventory_covers_the_whole_concurrency_surface() {
    let inv = scan_workspace(&repo_root());

    // All atomic sites in runtime/obs (and chem's alloc-guard test,
    // E7's counter-fetch row in core) are in the inventory: 46 today,
    // ≥ 30 total.
    assert!(
        inv.sites.len() >= 30,
        "expected ≥ 30 atomic sites workspace-wide, found {}",
        inv.sites.len()
    );

    // Every production file with atomics must be represented.
    let production_files = [
        "crates/runtime/src/pool.rs",
        "crates/runtime/src/faults.rs",
        "crates/obs/src/ring.rs",
    ];
    for f in production_files {
        let n = inv
            .sites
            .iter()
            .filter(|s| s.file == f && !s.in_test)
            .count();
        assert!(n > 0, "no non-test atomic sites extracted from {f}");
    }

    // Per-crate floors (production + test code), conservative against
    // the current source: runtime 12, obs 17.
    let per_crate = |c: &str| inv.sites.iter().filter(|s| s.crate_name == c).count();
    assert!(
        per_crate("runtime") >= 8,
        "runtime: {}",
        per_crate("runtime")
    );
    assert!(per_crate("obs") >= 14, "obs: {}", per_crate("obs"));

    // The simulator is single-threaded by construction: its source
    // holds no atomic operation outside tests.
    let distsim: Vec<_> = inv
        .sites
        .iter()
        .filter(|s| s.file.starts_with("crates/distsim/src/") && !s.in_test)
        .map(|s| s.location())
        .collect();
    assert!(
        distsim.is_empty(),
        "atomic sites in emx-distsim: {distsim:?}"
    );

    // Both load-bearing fences (seqlock writer Release, reader
    // Acquire) must be modeled as sites.
    let fences: Vec<_> = inv
        .sites
        .iter()
        .filter(|s| s.op == "fence" && s.file == "crates/obs/src/ring.rs")
        .collect();
    assert!(
        fences
            .iter()
            .any(|s| s.ordering == "Release" && s.func == "record"),
        "missing the seqlock writer's Release fence"
    );
    assert!(
        fences
            .iter()
            .any(|s| s.ordering == "Acquire" && s.func == "snapshot"),
        "missing the seqlock reader's Acquire fence"
    );

    // Enclosing-fn attribution works for the protocol-bearing fns.
    for (file, func) in [
        ("crates/obs/src/ring.rs", "record"),
        ("crates/obs/src/ring.rs", "snapshot"),
        ("crates/runtime/src/pool.rs", "run_stealing"),
    ] {
        assert!(
            !inv.fn_sites(file, func).is_empty(),
            "no sites attributed to {file} fn {func}"
        );
    }

    // Unsafe surface: the counting allocators of the two alloc guards
    // (chem's Fock hot path, distsim's stealing loop) and the one
    // lifetime erasure that hands a run's borrowed workers to the
    // executor's helper threads are the only unsafe code in the
    // workspace, and every occurrence carries a SAFETY comment.
    assert!(!inv.unsafes.is_empty(), "unsafe extraction found nothing");
    let helper_sites: Vec<_> = inv
        .unsafes
        .iter()
        .filter(|u| u.file == "crates/runtime/src/helpers.rs")
        .map(|u| u.func.as_str())
        .collect();
    assert_eq!(helper_sites, ["fan_out"], "the helpers' unsafe sites");
    for u in &inv.unsafes {
        assert!(
            u.file == "crates/chem/tests/alloc_guard.rs"
                || u.file == "crates/distsim/tests/alloc_guard.rs"
                || u.file == "crates/runtime/src/helpers.rs",
            "unexpected unsafe outside the alloc guards and the helpers: {}:{}",
            u.file,
            u.line
        );
        assert!(u.has_safety, "undocumented unsafe at {}:{}", u.file, u.line);
    }

    // Receiver/type resolution: spot-check a struct field and a
    // local through Arc::new.
    assert!(
        inv.sites
            .iter()
            .any(|s| s.receiver == "head" && s.atomic_type == "AtomicU64"),
        "ring head receiver type not resolved"
    );
}
