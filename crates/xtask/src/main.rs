//! `cargo xtask` — the repository's lint wall.
//!
//! `cargo xtask lint` runs seven families of checks that rustc and
//! clippy cannot express, and exits non-zero on any finding:
//!
//! 1. **Replay-path hygiene** — the deterministic replay paths
//!    (`emx-sched`, the simulator, fault injection, the balancers) must
//!    not read the wall clock (`Instant::now`, `SystemTime`) or ambient
//!    randomness (`thread_rng`, `from_entropy`, `OsRng`): any of those
//!    would make `replay_assignment` and `simulate_with_faults`
//!    unreproducible. Instrumentation-only exceptions would be listed
//!    explicitly in [`WALL_CLOCK_ALLOW`] (empty today). A root in
//!    [`REPLAY_PATH_ROOTS`] that cannot be read is itself a finding, so
//!    a renamed file cannot drop out of the scan unnoticed.
//! 2. **Experiment registration** — every experiment id matched by the
//!    `reproduce` binary must be runnable from its default list (or be
//!    an explicitly-listed on-demand id), and vice versa, so dead or
//!    unregistered experiments cannot accumulate silently.
//! 3. **Hot-path allocation hygiene** — the ERI quartet inner-loop
//!    modules ([`HOT_PATH_FILES`]) must not grow `Vec` allocations in
//!    their non-test code: the whole point of the scratch-buffer API is
//!    that a warmed Fock build performs zero heap traffic (enforced
//!    dynamically by `crates/chem/tests/alloc_guard.rs`; this lint
//!    catches the regression at review time). Setup-time allocations
//!    are listed in [`HOT_PATH_ALLOC_ALLOW`].
//!
//!    In both families with an allow list, an entry that matches no
//!    scanned source line is itself a finding: a stale entry would
//!    silently excuse that exact line if someone added it back.
//! 4. **Doc-link integrity** — every relative markdown link in
//!    `README.md` and `docs/*.md` must resolve to an existing file
//!    (fragments stripped, absolute URLs and pure anchors skipped), so
//!    renaming or dropping a document cannot leave dangling references
//!    behind.
//! 5. **Pair-data reuse** — the quartet hot-path modules
//!    ([`NO_PAIR_REBUILD_FILES`]) must not construct shell-pair data
//!    (`ShellPair::build`, `HermiteE::build`) in non-test code: all `E`
//!    tables are precomputed once per pair at screening time (AoS and
//!    batched SoA forms), and rebuilding them inside a quartet or
//!    tensor loop silently multiplies the per-pair recurrence cost by
//!    the quartet count — exactly the regression the old
//!    `full_eri_tensor` shipped with.
//! 6. **Memory-protocol conformance (emx-srclint)** — a real static
//!    pass (lexer + site extractor, not a grep): every atomic
//!    operation and `unsafe` occurrence in the workspace is modeled
//!    and checked against the declared protocols in
//!    `docs/protocols.toml` — required orderings per role, exact
//!    fence/store sequences (the PR-6 seqlock bug class), Acquire/
//!    Release pairing, Relaxed-needs-a-role, and `// SAFETY:` hygiene.
//!    `cargo xtask srclint --json <path>` additionally writes the full
//!    machine-readable site inventory + report (the CI artifact).
//! 7. **Event-core discipline** — the simulator loops
//!    ([`NO_BINARYHEAP_FILES`]) must schedule through the shared
//!    `emx_distsim` `EventQueue` abstraction, never a raw
//!    `BinaryHeap`: per-site heaps are how the `(time, worker)`
//!    tie-break divergence shipped, and a direct heap bypasses both the
//!    total `(time, seq)` order and the calendar-queue backend that
//!    keeps 10⁴–10⁵-rank simulations inside seconds.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Source roots whose code must be wall-clock- and ambient-RNG-free.
const REPLAY_PATH_ROOTS: &[&str] = &[
    "crates/sched/src",
    "crates/distsim/src/sim.rs",
    "crates/distsim/src/faults.rs",
    "crates/distsim/src/eventq.rs",
    "crates/balance/src",
];

/// `file:substring` pairs exempt from the wall-clock lint (metrics
/// timestamps on non-replay paths, with the burden of proof on the
/// entry).
const WALL_CLOCK_ALLOW: &[(&str, &str)] = &[];

/// Experiment ids legitimately absent from `reproduce`'s default list
/// (on-demand modes).
const ON_DEMAND_EXPERIMENTS: &[&str] = &["smoke", "fock", "profile", "distsim"];

/// Files whose non-test code forms the ERI quartet inner loop and must
/// stay free of per-call `Vec` allocation.
const HOT_PATH_FILES: &[&str] = &[
    "crates/chem/src/eri.rs",
    "crates/chem/src/eribatch.rs",
    "crates/chem/src/md.rs",
];

/// `file:substring` pairs exempt from the hot-path allocation lint —
/// one-time setup, never per-quartet work.
const HOT_PATH_ALLOC_ALLOW: &[(&str, &str)] = &[
    // EriScratch pre-sizing: allocates once per worker, before the loop.
    ("eri.rs", "block: Vec::with_capacity"),
    // Hermite E-table construction: runs once per *shell pair* when the
    // screened pair list is built, not per quartet.
    ("md.rs", "data: vec![0.0;"),
    // Static Hermite component/index tables: built once per process
    // inside OnceLock initializers, then only read.
    ("md.rs", "Vec::with_capacity(2 * PAIR_L_MAX"),
    ("md.rs", "Vec::with_capacity(hermite_count"),
    ("md.rs", "Vec::with_capacity((PAIR_L_MAX"),
    ("md.rs", "Vec::with_capacity(bras.len()"),
];

/// Simulator-loop files whose non-test code must use the shared
/// `EventQueue` event core, never a raw `BinaryHeap` (the tie-break
/// and scale story lives in `crates/distsim/src/eventq.rs`; the one
/// sanctioned `BinaryHeap` is the oracle backend inside it).
const NO_BINARYHEAP_FILES: &[&str] = &["crates/distsim/src/sim.rs", "crates/distsim/src/faults.rs"];

/// Files whose non-test code sits inside (or feeds) the quartet loops
/// and must read precomputed pair data instead of rebuilding it.
const NO_PAIR_REBUILD_FILES: &[&str] = &[
    "crates/chem/src/eri.rs",
    "crates/chem/src/eribatch.rs",
    "crates/chem/src/fock.rs",
];

fn repo_root() -> PathBuf {
    // xtask always runs via `cargo xtask` from inside the workspace.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("run via cargo");
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the root")
        .to_path_buf()
}

/// The `.rs` files under `rel` (or `rel` itself if it is a file); `None`
/// when `rel` is neither a file nor a readable directory.
fn rust_sources(root: &Path, rel: &str) -> Option<Vec<PathBuf>> {
    let path = root.join(rel);
    if path.is_file() {
        return Some(vec![path]);
    }
    std::fs::read_dir(&path).ok()?;
    let mut out = Vec::new();
    let mut stack = vec![path];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Some(out)
}

/// Whether an allow entry excuses `line` of file `shown`; marks every
/// entry that matches as used.
fn allowed(allow: &[(&str, &str)], used: &mut [bool], shown: &str, line: &str) -> bool {
    let mut any = false;
    for (k, (f, s)) in allow.iter().enumerate() {
        if shown.ends_with(f) && line.contains(s) {
            used[k] = true;
            any = true;
        }
    }
    any
}

/// One finding per allow entry that matched no scanned source line.
fn stale_allow_entries(
    allow: &[(&str, &str)],
    used: &[bool],
    what: &str,
    findings: &mut Vec<String>,
) {
    for ((f, s), _) in allow.iter().zip(used).filter(|(_, &u)| !u) {
        findings.push(format!(
            "{what}: allow entry `{f}`: `{s}` matches no source line (delete it)"
        ));
    }
}

fn scan_for(
    root: &Path,
    roots: &[&str],
    needles: &[&str],
    allow: &[(&str, &str)],
    what: &str,
    findings: &mut Vec<String>,
) {
    let mut used = vec![false; allow.len()];
    for rel in roots {
        let Some(files) = rust_sources(root, rel) else {
            findings.push(format!("{what}: cannot read {rel}"));
            continue;
        };
        for file in files {
            let Ok(text) = std::fs::read_to_string(&file) else {
                findings.push(format!("{what}: cannot read {}", file.display()));
                continue;
            };
            let shown = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            for (lineno, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap_or(line);
                let excused = allowed(allow, &mut used, &shown, line);
                for needle in needles {
                    if code.contains(needle) && !excused {
                        findings.push(format!(
                            "{shown}:{}: {what}: `{needle}` in a replay path",
                            lineno + 1
                        ));
                    }
                }
            }
        }
    }
    stale_allow_entries(allow, &used, what, findings);
}

fn lint_replay_hygiene(root: &Path, findings: &mut Vec<String>) {
    lint_replay_hygiene_at(root, REPLAY_PATH_ROOTS, findings);
}

fn lint_replay_hygiene_at(root: &Path, roots: &[&str], findings: &mut Vec<String>) {
    scan_for(
        root,
        roots,
        &["Instant::now", "SystemTime"],
        WALL_CLOCK_ALLOW,
        "wall clock",
        findings,
    );
    scan_for(
        root,
        roots,
        &["thread_rng", "from_entropy", "OsRng", "rand::random"],
        &[],
        "ambient randomness",
        findings,
    );
}

fn quoted_idents(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        let ident = &tail[..close];
        if !ident.is_empty()
            && ident
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            out.push(ident.to_string());
        }
        rest = &tail[close + 1..];
    }
    out
}

fn lint_experiment_registration(root: &Path, findings: &mut Vec<String>) {
    let path = root.join("crates/bench/src/bin/reproduce.rs");
    let Ok(text) = std::fs::read_to_string(&path) else {
        findings.push("experiment registration: cannot read reproduce.rs".into());
        return;
    };
    experiment_registration_core(&text, &path.display().to_string(), findings);
}

/// Core of lint 2, injectable for the fixture tests: parses the given
/// `reproduce.rs` source text instead of reading it from disk.
fn experiment_registration_core(text: &str, shown: &str, findings: &mut Vec<String>) {
    // The default experiment list: quoted ids between `wanted = vec![`
    // and the closing `];`.
    let mut defaults = Vec::new();
    let mut in_defaults = false;
    // Match arms of `match exp.as_str()`: `"id" => ...` lines.
    let mut arms = Vec::new();
    let mut in_match = false;
    for line in text.lines() {
        if line.contains("wanted = vec![") {
            in_defaults = true;
        }
        if in_defaults {
            defaults.extend(quoted_idents(line));
            if line.contains(']') && !line.contains("vec![") {
                in_defaults = false;
            }
        }
        if line.contains("match exp.as_str()") {
            in_match = true;
            continue;
        }
        if in_match {
            let t = line.trim_start();
            if let Some(arrow) = t.find("=>") {
                let head = &t[..arrow];
                if head.starts_with('"') {
                    arms.extend(quoted_idents(head));
                } else if head.starts_with("other") || head.starts_with('_') {
                    in_match = false;
                }
            }
        }
    }

    if defaults.is_empty() || arms.is_empty() {
        findings.push(format!(
            "experiment registration: failed to parse {shown} (defaults {}, arms {})",
            defaults.len(),
            arms.len()
        ));
        return;
    }
    for d in &defaults {
        if !arms.contains(d) {
            findings.push(format!(
                "experiment registration: default experiment `{d}` has no match \
                 arm in reproduce.rs"
            ));
        }
    }
    for a in &arms {
        if !defaults.contains(a) && !ON_DEMAND_EXPERIMENTS.contains(&a.as_str()) {
            findings.push(format!(
                "experiment registration: experiment `{a}` is matched but neither \
                 in the default list nor declared on-demand"
            ));
        }
    }
}

/// Lint 3: no `Vec` allocation in the quartet inner-loop modules'
/// non-test code (everything before the first `#[cfg(test)]` line —
/// both the test-only reference kernel and the test module sit below
/// it by construction).
fn lint_hotpath_allocations(root: &Path, findings: &mut Vec<String>) {
    hotpath_allocations_at(root, HOT_PATH_FILES, HOT_PATH_ALLOC_ALLOW, findings);
}

fn hotpath_allocations_at(
    root: &Path,
    files: &[&str],
    allow: &[(&str, &str)],
    findings: &mut Vec<String>,
) {
    const NEEDLES: &[&str] = &[
        "vec![",
        "Vec::new",
        "with_capacity",
        ".to_vec()",
        ".collect()",
    ];
    let mut used = vec![false; allow.len()];
    for rel in files {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            findings.push(format!("hot-path allocations: cannot read {rel}"));
            continue;
        };
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let code = line.split("//").next().unwrap_or(line);
            let excused = allowed(allow, &mut used, rel, line);
            for needle in NEEDLES {
                if code.contains(needle) && !excused {
                    findings.push(format!(
                        "{rel}:{}: hot-path allocation: `{needle}` in a quartet \
                         inner-loop module (use the scratch buffers, or add a \
                         justified allow entry)",
                        lineno + 1
                    ));
                }
            }
        }
    }
    stale_allow_entries(allow, &used, "hot-path allocations", findings);
}

/// The markdown files whose relative links lint 4 checks: the README
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

/// Lint 4: every relative markdown link in the README and `docs/*.md`
/// must resolve (relative to the containing file) after stripping any
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

/// Lint 5: shell-pair data may not be rebuilt in the quartet hot-path
/// modules' non-test code — `ShellPair::build` and `HermiteE::build`
/// belong to pair-list construction (`screening.rs`, `shellpair.rs`,
/// one-electron setup), never inside quartet or tensor loops.
fn lint_no_pair_rebuild(root: &Path, findings: &mut Vec<String>) {
    pair_rebuild_at(root, NO_PAIR_REBUILD_FILES, findings);
}

fn pair_rebuild_at(root: &Path, files: &[&str], findings: &mut Vec<String>) {
    const NEEDLES: &[&str] = &["ShellPair::build", "HermiteE::build"];
    for rel in files {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            findings.push(format!("pair-data reuse: cannot read {rel}"));
            continue;
        };
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let code = line.split("//").next().unwrap_or(line);
            for needle in NEEDLES {
                if code.contains(needle) {
                    findings.push(format!(
                        "{rel}:{}: pair-data reuse: `{needle}` in a quartet \
                         hot-path module (read the precomputed ScreenedPairs \
                         cache instead)",
                        lineno + 1
                    ));
                }
            }
        }
    }
}

/// Lint 7: simulator loops must schedule through the shared
/// `EventQueue` event core. A raw `BinaryHeap` in `sim.rs`/`faults.rs`
/// non-test code reintroduces per-site keys — the exact path the
/// `(time, worker)` tie-break divergence shipped through — and skips
/// the calendar backend entirely.
fn lint_no_binaryheap(root: &Path, findings: &mut Vec<String>) {
    binaryheap_at(root, NO_BINARYHEAP_FILES, findings);
}

fn binaryheap_at(root: &Path, files: &[&str], findings: &mut Vec<String>) {
    for rel in files {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            findings.push(format!("event-core discipline: cannot read {rel}"));
            continue;
        };
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let code = line.split("//").next().unwrap_or(line);
            if code.contains("BinaryHeap") {
                findings.push(format!(
                    "{rel}:{}: event-core discipline: `BinaryHeap` in a \
                     simulator loop (schedule through `EventQueue` — the heap \
                     oracle lives behind it in eventq.rs)",
                    lineno + 1
                ));
            }
        }
    }
}

/// Lint 6: the whole-workspace memory-protocol pass. Runs the
/// emx-srclint extractor + checker against `docs/protocols.toml` and
/// folds every violation into the lint wall. A failure to run the pass
/// at all (missing manifest, parse error) is itself a finding.
fn lint_srclint(root: &Path, findings: &mut Vec<String>) {
    match emx_srclint::run(root) {
        Ok(outcome) => {
            for v in &outcome.report.violations {
                findings.push(format!(
                    "srclint: [{}] {}: {}",
                    v.kind.name(),
                    v.scenario,
                    v.detail
                ));
            }
        }
        Err(e) => findings.push(format!("srclint: {e}")),
    }
}

fn run_lints() -> Vec<String> {
    let root = repo_root();
    let mut findings = Vec::new();
    lint_replay_hygiene(&root, &mut findings);
    lint_experiment_registration(&root, &mut findings);
    lint_hotpath_allocations(&root, &mut findings);
    lint_doc_links(&root, &mut findings);
    lint_no_pair_rebuild(&root, &mut findings);
    lint_no_binaryheap(&root, &mut findings);
    lint_srclint(&root, &mut findings);
    findings
}

/// `cargo xtask srclint [--json <path>]` — run only the
/// memory-protocol pass, print a human summary, and (with `--json`)
/// write the full machine-readable site inventory + report for CI to
/// archive.
fn run_srclint(json_path: Option<&str>) -> ExitCode {
    let root = repo_root();
    let outcome = match emx_srclint::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask srclint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = json_path {
        let json = outcome.to_json().to_json_string();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("xtask srclint: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("xtask srclint: wrote {path}");
    }
    println!(
        "xtask srclint: {} files, {} atomic site(s), {} unsafe site(s), \
         {} protocol(s)",
        outcome.inventory.files_scanned,
        outcome.inventory.sites.len(),
        outcome.inventory.unsafes.len(),
        outcome.manifest.protocols.len()
    );
    if outcome.report.is_clean() {
        println!(
            "xtask srclint: clean ({} check(s) passed)",
            outcome.report.passed.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &outcome.report.violations {
            eprintln!("srclint: [{}] {}: {}", v.kind.name(), v.scenario, v.detail);
        }
        eprintln!(
            "xtask srclint: {} violation(s)",
            outcome.report.violations.len()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let findings = run_lints();
            if findings.is_empty() {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("xtask lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Some("srclint") => {
            let json_path = match args.get(1).map(String::as_str) {
                Some("--json") => match args.get(2) {
                    Some(p) => Some(p.as_str()),
                    None => {
                        eprintln!("usage: cargo xtask srclint [--json <path>]");
                        return ExitCode::FAILURE;
                    }
                },
                Some(other) => {
                    eprintln!("unknown srclint flag `{other}`");
                    eprintln!("usage: cargo xtask srclint [--json <path>]");
                    return ExitCode::FAILURE;
                }
                None => None,
            };
            run_srclint(json_path)
        }
        _ => {
            eprintln!("usage: cargo xtask lint | cargo xtask srclint [--json <path>]");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_wall_is_clean() {
        assert_eq!(run_lints(), Vec::<String>::new());
    }

    #[test]
    fn quoted_ident_extraction() {
        assert_eq!(
            quoted_idents(r#"  "e1" | "e2" => run(),"#),
            vec!["e1".to_string(), "e2".to_string()]
        );
        assert!(quoted_idents("no strings here").is_empty());
    }

    #[test]
    fn markdown_link_target_extraction() {
        assert_eq!(
            markdown_link_targets("see [a](docs/A.md) and ![img](x.png#frag)"),
            vec!["docs/A.md".to_string(), "x.png#frag".to_string()]
        );
        assert!(markdown_link_targets("no links [here] (space)").is_empty());
    }

    #[test]
    fn doc_link_lint_flags_dangling_and_accepts_valid() {
        let dir = std::env::temp_dir().join("xtask-doclink-selftest");
        let docs = dir.join("docs");
        std::fs::create_dir_all(&docs).unwrap();
        std::fs::write(dir.join("README.md"), "[ok](docs/GOOD.md)\n").unwrap();
        std::fs::write(
            docs.join("GOOD.md"),
            "[up](../README.md#anchor)\n[web](https://example.com/x.md)\n\
             [anchor](#local)\n```\n[fenced](MISSING.md)\n```\n[bad](GONE.md)\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_doc_links(&dir, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("GONE.md"), "{findings:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scanner_flags_seeded_violations() {
        let dir = std::env::temp_dir().join("xtask-lint-selftest");
        let src = dir.join("bad/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "fn f() { let t = std::time::Instant::now(); }\n// Instant::now in a comment is fine\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        scan_for(
            &dir,
            &["bad/src"],
            &["Instant::now"],
            &[],
            "wall clock",
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("lib.rs:1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- per-family seeded fixtures: each lint family must fire on a
    // ---- deliberately bad snippet, so a silently-dead lint is caught.

    /// A throwaway fixture tree under the system temp dir, removed on drop.
    struct Fixture(PathBuf);
    impl Fixture {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("xtask-fixture-{name}-{}", std::process::id()));
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
    fn replay_hygiene_flags_seeded_randomness() {
        let fx = Fixture::new("replay");
        fx.write(
            "crates/bad/src/lib.rs",
            "fn f() -> u64 { rand::random() }\n",
        );
        let mut findings = Vec::new();
        lint_replay_hygiene_at(&fx.0, &["crates/bad/src"], &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("ambient randomness"), "{findings:?}");
    }

    #[test]
    fn replay_hygiene_flags_a_missing_root() {
        // A renamed or deleted entry must not drop out of the scan
        // silently: each of the two scans reports it.
        let fx = Fixture::new("replay-missing");
        fx.write(
            "crates/ok/src/lib.rs",
            "fn f() {}
",
        );
        let mut findings = Vec::new();
        lint_replay_hygiene_at(
            &fx.0,
            &["crates/ok/src", "crates/gone/src/eventq.rs"],
            &mut findings,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        for f in &findings {
            assert!(
                f.contains("cannot read crates/gone/src/eventq.rs"),
                "{findings:?}"
            );
        }
    }

    #[test]
    fn experiment_registration_flags_unmatched_and_unregistered() {
        let text = "\
let wanted = vec![
    \"alpha\",
    \"beta\",
];
match exp.as_str() {
    \"alpha\" => run_alpha(),
    \"gamma\" => run_gamma(),
    other => die(other),
}
";
        let mut findings = Vec::new();
        experiment_registration_core(text, "fixture.rs", &mut findings);
        // `beta` is a default with no arm; `gamma` has an arm but is
        // neither a default nor declared on-demand.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].contains("`beta`"), "{findings:?}");
        assert!(findings[1].contains("`gamma`"), "{findings:?}");
    }

    #[test]
    fn hotpath_allocation_lint_flags_seeded_vec() {
        let fx = Fixture::new("hotpath");
        fx.write(
            "crates/bad/src/eri.rs",
            "fn quartet() { let v: Vec<f64> = Vec::new(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let w = vec![1.0]; } }\n",
        );
        let mut findings = Vec::new();
        hotpath_allocations_at(&fx.0, &["crates/bad/src/eri.rs"], &[], &mut findings);
        // The Vec::new before #[cfg(test)] fires; the vec![ after it is
        // exempt (test-only reference kernels live below that marker).
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("Vec::new"), "{findings:?}");
        // ...and an allow entry silences it.
        let mut allowed = Vec::new();
        hotpath_allocations_at(
            &fx.0,
            &["crates/bad/src/eri.rs"],
            &[("eri.rs", "Vec::new()")],
            &mut allowed,
        );
        assert!(allowed.is_empty(), "{allowed:?}");
    }

    #[test]
    fn stale_allow_entries_are_findings() {
        // An entry whose line is gone would excuse that exact line if it
        // came back: both families with an allow list report it.
        let fx = Fixture::new("stale");
        fx.write(
            "crates/bad/src/eri.rs",
            "fn setup() { let v: Vec<f64> = Vec::with_capacity(8); }\n",
        );
        let allow: &[(&str, &str)] = &[
            ("eri.rs", "Vec::with_capacity(8)"),
            ("eri.rs", "let t0 = std::time::Instant::now();"),
        ];
        let mut findings = Vec::new();
        scan_for(
            &fx.0,
            &["crates/bad/src"],
            &["Instant::now"],
            allow,
            "wall clock",
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("Instant::now();` matches no source line"));
        let mut findings = Vec::new();
        hotpath_allocations_at(&fx.0, &["crates/bad/src/eri.rs"], allow, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("hot-path allocations: allow entry"));
    }

    #[test]
    fn pair_rebuild_lint_flags_seeded_build() {
        let fx = Fixture::new("pair");
        fx.write(
            "crates/bad/src/fock.rs",
            "fn quartet(a: &Shell, b: &Shell) { let p = ShellPair::build(a, b); }\n",
        );
        let mut findings = Vec::new();
        pair_rebuild_at(&fx.0, &["crates/bad/src/fock.rs"], &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("ShellPair::build"), "{findings:?}");
    }

    #[test]
    fn binaryheap_lint_flags_seeded_heap_but_not_tests() {
        let fx = Fixture::new("binheap");
        fx.write(
            "crates/bad/src/sim.rs",
            "use std::collections::BinaryHeap;\n\
             fn run() { let h: BinaryHeap<u64> = BinaryHeap::new(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let _h: std::collections::BinaryHeap<u64> = Default::default(); } }\n",
        );
        let mut findings = Vec::new();
        binaryheap_at(&fx.0, &["crates/bad/src/sim.rs"], &mut findings);
        // Both non-test lines fire; the #[cfg(test)] reference is exempt.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].contains("BinaryHeap"), "{findings:?}");
    }

    #[test]
    fn srclint_family_reports_run_errors_as_findings() {
        // Pointing the pass at a tree with no manifest must surface as
        // a finding, not a silent pass.
        let fx = Fixture::new("srclint");
        fx.write("crates/empty/src/lib.rs", "pub fn nothing() {}\n");
        let mut findings = Vec::new();
        lint_srclint(&fx.0, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("srclint:"), "{findings:?}");
    }
}
