//! Layering gate: the workspace crate graph is the one
//! `docs/ARCHITECTURE.md` draws. Every `crates/*/Cargo.toml` is read and
//! the `emx-*` names of its `[dependencies]` table must equal the
//! table below — no more (a leaf crate grows an edge, the simulator
//! links the thread runtime) and no fewer (the table goes stale). A
//! crate missing from the table fails too, so a new crate has to be
//! placed in the diagram before it builds green.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Crate directory → the `emx-*` crates it may depend on (without the
/// prefix). `sched`, `balance`, `obs` and `linalg` are leaves; the two
/// substrates share `sched` and never see each other.
const LAYERS: &[(&str, &[&str])] = &[
    ("linalg", &[]),
    ("obs", &[]),
    ("sched", &[]),
    ("balance", &[]),
    ("chem", &["linalg"]),
    ("runtime", &["obs", "sched"]),
    ("distsim", &["obs", "sched", "balance"]),
    (
        "core",
        &[
            "linalg", "chem", "sched", "runtime", "distsim", "balance", "obs",
        ],
    ),
    (
        "bench",
        &[
            "core", "chem", "sched", "runtime", "distsim", "balance", "linalg", "obs",
        ],
    ),
    ("srclint", &["obs"]),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// The `emx-*` keys of a manifest's `[dependencies]` table, prefix
/// stripped.
fn emx_dependencies(manifest: &str) -> BTreeSet<String> {
    let mut in_deps = false;
    let mut out = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps {
            if let Some(rest) = line.strip_prefix("emx-") {
                let name = rest.split(['=', ' ']).next().unwrap_or_default();
                out.insert(name.to_string());
            }
        }
    }
    out
}

#[test]
fn crate_edges_are_exactly_the_documented_graph() {
    let crates_dir = repo_root().join("crates");
    let mut seen = BTreeSet::new();
    for entry in std::fs::read_dir(&crates_dir).expect("crates/ is readable") {
        let dir = entry.expect("directory entry").path();
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let (_, allowed) = LAYERS
            .iter()
            .find(|(c, _)| *c == name)
            .unwrap_or_else(|| panic!("crates/{name} is not in the layering table"));
        let want: BTreeSet<String> = allowed.iter().map(|s| s.to_string()).collect();
        let text = std::fs::read_to_string(&manifest).expect("manifest is readable");
        assert_eq!(emx_dependencies(&text), want, "crates/{name}/Cargo.toml");
        seen.insert(name);
    }
    let listed: BTreeSet<String> = LAYERS.iter().map(|(c, _)| c.to_string()).collect();
    assert_eq!(seen, listed, "every table row names a crate on disk");
}
