//! `cargo xtask lint [--json PATH]` — the repository's lint wall (the
//! alias lives in `.cargo/config.toml`). Exits non-zero on any finding.
//!
//! It runs two checks that rustc and clippy cannot express:
//!
//! 1. **The source pass** ([`emx_srclint::run`]): every atomic site and
//!    `unsafe` occurrence checked against `docs/protocols.toml`, and the
//!    forbidden-path table ([`emx_srclint::check::FORBIDDEN`]) — no
//!    wall clock or ambient randomness anywhere in the replay paths, no
//!    raw `BinaryHeap` in the simulator loops' non-test code. A pass
//!    that cannot run (missing manifest, parse error) is itself a
//!    finding. `--json PATH` writes the site inventory and report (the
//!    CI artifact).
//! 2. **Doc-link integrity**: every relative markdown link in
//!    `README.md` and `docs/*.md` must resolve to an existing file
//!    (fragments stripped, absolute URLs and pure anchors skipped), so
//!    renaming or dropping a document cannot leave dangling references
//!    behind.

use emx_srclint::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--json PATH]";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/srclint sits two levels below the root")
        .to_path_buf()
}

/// The markdown files whose relative links are checked: the README
/// plus everything under `docs/`.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("README.md")];
    if let Ok(entries) = std::fs::read_dir(root.join("docs")) {
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "md") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Every `](target)` markdown-link target on one line, in order.
fn markdown_link_targets(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find("](") {
        let tail = &rest[i + 2..];
        let Some(close) = tail.find(')') else { break };
        out.push(tail[..close].trim().to_string());
        rest = &tail[close + 1..];
    }
    out
}

/// Every relative markdown link in the README and `docs/*.md` must
/// resolve (relative to the containing file) after stripping any
/// `#fragment`. Absolute URLs, `mailto:` and pure in-page anchors are
/// out of scope; fenced code blocks are skipped so example syntax
/// cannot false-positive.
fn lint_doc_links(root: &Path, findings: &mut Vec<String>) {
    for file in doc_files(root) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            findings.push(format!("doc links: cannot read {}", file.display()));
            continue;
        };
        let dir = file.parent().unwrap_or(root).to_path_buf();
        let shown = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        let mut in_fence = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
            for target in markdown_link_targets(line) {
                if target.is_empty()
                    || target.starts_with('#')
                    || target.contains("://")
                    || target.starts_with("mailto:")
                {
                    continue;
                }
                let path_part = target.split('#').next().unwrap_or(target.as_str());
                if path_part.is_empty() {
                    continue;
                }
                if !dir.join(path_part).exists() {
                    findings.push(format!(
                        "{shown}:{}: doc link: `{target}` does not resolve to an \
                         existing file",
                        lineno + 1
                    ));
                }
            }
        }
    }
}

/// Runs the whole wall over the tree at `root`: the source pass's
/// outcome (`None` when it could not run) and every finding.
fn lint(root: &Path) -> (Option<Outcome>, Vec<String>) {
    let mut findings = Vec::new();
    let outcome = match emx_srclint::run(root) {
        Ok(o) => {
            findings.extend(o.report.violations.iter().map(|v| v.to_string()));
            Some(o)
        }
        Err(e) => {
            findings.push(format!("srclint: {e}"));
            None
        }
    };
    lint_doc_links(root, &mut findings);
    (outcome, findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["lint"] => None,
        ["lint", "--json", path] => Some(path.to_string()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (outcome, findings) = lint(&repo_root());
    if let Some(o) = &outcome {
        if let Some(path) = &json_path {
            if let Err(e) = std::fs::write(path, o.to_json().to_json_string()) {
                eprintln!("lint: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("lint: wrote {path}");
        }
        println!(
            "lint: {} files, {} atomic site(s), {} unsafe site(s), {} protocol(s)",
            o.inventory.files_scanned,
            o.inventory.sites.len(),
            o.inventory.unsafes.len(),
            o.manifest.protocols.len()
        );
    }
    if findings.is_empty() {
        let passed = outcome.map_or(0, |o| o.report.passed.len());
        println!("lint: clean ({passed} check(s) passed)");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_srclint::check::{self, FORBIDDEN};
    use emx_srclint::extract::{scan_file, Inventory};
    use emx_srclint::manifest::Manifest;

    #[test]
    fn lint_wall_is_clean() {
        assert_eq!(lint(&repo_root()).1, Vec::<String>::new());
    }

    #[test]
    fn markdown_link_target_extraction() {
        assert_eq!(
            markdown_link_targets("see [a](docs/A.md) and ![img](x.png#frag)"),
            vec!["docs/A.md".to_string(), "x.png#frag".to_string()]
        );
        assert!(markdown_link_targets("no links [here] (space)").is_empty());
    }

    /// A throwaway tree under the system temp dir, removed on drop.
    struct Fixture(PathBuf);
    impl Fixture {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("lint-fixture-{name}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            Fixture(dir)
        }
        fn write(&self, rel: &str, text: &str) {
            let path = self.0.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
    }
    impl Drop for Fixture {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn doc_link_lint_flags_dangling_and_accepts_valid() {
        let fx = Fixture::new("doclink");
        fx.write("README.md", "[ok](docs/GOOD.md)\n");
        fx.write(
            "docs/GOOD.md",
            "[up](../README.md#anchor)\n[web](https://example.com/x.md)\n\
             [anchor](#local)\n```\n[fenced](MISSING.md)\n```\n[bad](GONE.md)\n",
        );
        let mut findings = Vec::new();
        lint_doc_links(&fx.0, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("GONE.md"), "{findings:?}");
    }

    /// The forbidden-path findings of one scanned file, as `row@line`.
    fn scan_findings(file: &str, src: &str) -> Vec<String> {
        let mut inv = Inventory::default();
        scan_file(file, src, &mut inv);
        check::check(&inv, &Manifest::default())
            .violations
            .iter()
            .map(|v| format!("{}@{}", v.policy, v.scenario.rsplit(':').next().unwrap()))
            .collect()
    }

    #[test]
    fn replay_hygiene_flags_seeded_randomness() {
        assert_eq!(
            scan_findings(
                "crates/balance/src/lpt.rs",
                "fn f() -> u64 { rand::random() }\n"
            ),
            ["replay-hygiene@1"]
        );
    }

    #[test]
    fn binaryheap_lint_flags_seeded_heap_but_not_tests() {
        // Both non-test lines fire; the #[cfg(test)] reference is exempt.
        let got = scan_findings(
            "crates/distsim/src/sim.rs",
            "use std::collections::BinaryHeap;\n\
             fn run() { let h: BinaryHeap<u64> = BinaryHeap::new(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let _h: std::collections::BinaryHeap<u64> = Default::default(); } }\n",
        );
        assert_eq!(got, ["event-core@1", "event-core@2", "event-core@2"]);
    }

    /// Every row of the forbidden-path table fires on a seeded bad
    /// snippet in a file it covers, and stays quiet on code it does not
    /// cover: comments, strings, test code of a non-test row, files
    /// outside its roots.
    #[test]
    fn scanner_flags_seeded_violations() {
        const REPLAY: &str = "crates/sched/src/kind.rs";
        const SIM: &str = "crates/distsim/src/sim.rs";
        // (file, source, findings as `row@line`)
        let cases: &[(&str, &str, &[&str])] = &[
            // A `//` inside a string does not start a comment.
            (
                REPLAY,
                "fn f() {\n    let u = \"http://x\"; let t = Instant::now();\n}\n",
                &["replay-hygiene@2"],
            ),
            (REPLAY, "fn f() { /* Instant::now() */ }\n", &[]),
            (REPLAY, "// let t = SystemTime::now();\n", &[]),
            (
                "crates/balance/src/lpt.rs",
                "fn f() -> u64 { rand::random() }\nfn g() { let r = rand::thread_rng(); }\n",
                &["replay-hygiene@1", "replay-hygiene@2"],
            ),
            // The replay row covers test modules too.
            (
                REPLAY,
                "fn f() {}\n#[cfg(test)]\nmod tests { fn t() { let _ = std::time::Instant::now(); } }\n",
                &["replay-hygiene@3"],
            ),
            (
                SIM,
                "use std::collections::BinaryHeap;\n\
                 fn run() { let h: BinaryHeap<u64> = BinaryHeap::new(); }\n\
                 #[cfg(test)]\n\
                 mod tests { fn t() { let _h: std::collections::BinaryHeap<u64> = Default::default(); } }\n",
                &["event-core@1", "event-core@2", "event-core@2"],
            ),
            // Outside every root, nothing is forbidden.
            (
                "crates/runtime/src/pool.rs",
                "fn f() { let t = Instant::now(); let h = BinaryHeap::<u8>::new(); }\n",
                &[],
            ),
        ];
        let mut fired = Vec::new();
        for (file, src, want) in cases {
            let got = scan_findings(file, src);
            assert_eq!(got, *want, "{file}: {src}");
            fired.extend(got);
        }
        for row in FORBIDDEN {
            assert!(
                fired.iter().any(|f| f.starts_with(row.name)),
                "no fixture fires row `{}`",
                row.name
            );
        }
    }

    #[test]
    fn replay_hygiene_flags_a_missing_root() {
        // A renamed file must not drop out of the scan silently: every
        // root that names no scanned file is a finding.
        let mut inv = Inventory::default();
        scan_file("crates/sched/src/lib.rs", "fn f() {}\n", &mut inv);
        scan_file("crates/distsim/src/sim.rs", "fn f() {}\n", &mut inv);
        scan_file("crates/distsim/src/faults.rs", "fn f() {}\n", &mut inv);
        scan_file("crates/balance/src/lib.rs", "fn f() {}\n", &mut inv);
        let missing: Vec<String> = check::missing_roots(&inv)
            .iter()
            .map(|v| format!("{} {}", v.policy, v.scenario))
            .collect();
        assert_eq!(missing, ["replay-hygiene crates/distsim/src/eventq.rs"]);
    }

    #[test]
    fn srclint_family_reports_run_errors_as_findings() {
        // Pointing the wall at a tree with no manifest must surface as
        // a finding, not a silent pass.
        let fx = Fixture::new("srclint");
        fx.write("crates/empty/src/lib.rs", "pub fn nothing() {}\n");
        fx.write("README.md", "");
        let (outcome, findings) = lint(&fx.0);
        assert!(outcome.is_none());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("srclint:"), "{findings:?}");
    }
}
