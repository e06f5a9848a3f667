//! Atomic-site and `unsafe`-site extraction over the lexed token
//! stream.
//!
//! For every Rust source file under the workspace's own roots
//! (`crates/`, `tests/`, `examples/` — never `vendor/`), the extractor
//! produces a model of the concurrency surface:
//!
//! * an [`AtomicSite`] for every atomic operation — a method call
//!   (`load`, `store`, `swap`, `fetch_*`, `compare_exchange[_weak]`,
//!   `fetch_update`) whose arguments contain a memory-[`Ordering`]
//!   token, plus every free `fence(Ordering::…)` call. Requiring an
//!   ordering token is what separates `AtomicUsize::swap` from
//!   `Vec::swap` without type inference;
//! * an [`UnsafeSite`] for every `unsafe` keyword (block, fn, impl,
//!   trait), tagged with whether a `// SAFETY:` comment sits on it;
//! * a [`ForbiddenSite`] for every run of code tokens that spells a
//!   path of the [`FORBIDDEN`] table in a file under that row's roots;
//! * the enclosing function name (tracked by `fn` items and brace
//!   depth) and whether the site is test code (under a `tests/`
//!   directory, or at/after the file's first top-level
//!   `#[cfg(test)]`).
//!
//! The receiver's declared atomic type is resolved best-effort from
//! declarations seen in the same file (`name: AtomicU64`,
//! `name = AtomicUsize::new(…)`, including through `Vec<…>`/`Arc<…>`
//! wrappers); an unresolvable receiver is reported as `"?"`, never
//! silently dropped.
//!
//! [`Ordering`]: std::sync::atomic::Ordering
//! [`FORBIDDEN`]: crate::check::FORBIDDEN

use crate::check::FORBIDDEN;
use crate::lex::{lex, Comment, Spanned, Tok};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Atomic operations the extractor recognizes. `fence` is the only
/// free function; the rest are method calls.
pub const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "fence",
];

/// The five memory orderings.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic operation in the workspace source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    /// Workspace crate directory name (`obs`, `runtime`, …) or the
    /// root pseudo-crates `tests`/`examples`.
    pub crate_name: String,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the operation.
    pub line: usize,
    /// Declared type of the receiver (`AtomicU64`, …), `"fence"` for
    /// fences, `"?"` when unresolvable.
    pub atomic_type: String,
    /// Receiver's final path segment (`head`, `remaining`, …); empty
    /// for fences.
    pub receiver: String,
    /// Operation name (`load`, `fetch_add`, `fence`, …).
    pub op: String,
    /// Primary ordering (the success ordering for CAS/`fetch_update`).
    pub ordering: String,
    /// Failure ordering for two-ordering operations.
    pub ordering2: Option<String>,
    /// Enclosing function name, `"-"` at item scope.
    pub func: String,
    /// True for test code.
    pub in_test: bool,
}

impl AtomicSite {
    /// `file:line` location string used in reports.
    pub fn location(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// One `unsafe` keyword occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What the keyword introduces: `block`, `fn`, `impl`, `trait`,
    /// `extern`, or `other`.
    pub kind: String,
    /// Enclosing function, `"-"` at item scope.
    pub func: String,
    /// True when a `// SAFETY:` comment sits within the three lines
    /// above (or on) the keyword.
    pub has_safety: bool,
    /// True for test code.
    pub in_test: bool,
}

/// One occurrence of a forbidden token path in a file its row covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForbiddenSite {
    /// Index of the row in [`FORBIDDEN`].
    pub row: usize,
    /// The path as the table spells it (`Instant::now`).
    pub path: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line of the path's first token.
    pub line: usize,
    /// True for test code.
    pub in_test: bool,
}

/// The extracted concurrency surface of the workspace.
#[derive(Debug, Default)]
pub struct Inventory {
    /// Every atomic site, in (file, line) order.
    pub sites: Vec<AtomicSite>,
    /// Every `unsafe` occurrence, in (file, line) order.
    pub unsafes: Vec<UnsafeSite>,
    /// Every forbidden-path occurrence, in (file, row, line) order.
    pub forbidden: Vec<ForbiddenSite>,
    /// Comments per file (for `// relaxed-ok:` justification lookup);
    /// every scanned file has an entry.
    pub comments: BTreeMap<String, Vec<Comment>>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Inventory {
    /// True when a `// relaxed-ok:` comment sits on `line` or within
    /// the two lines above it in `file`.
    pub fn relaxed_justified(&self, file: &str, line: usize) -> bool {
        self.comment_near(file, line, "relaxed-ok:")
    }

    fn comment_near(&self, file: &str, line: usize, needle: &str) -> bool {
        let Some(comments) = self.comments.get(file) else {
            return false;
        };
        comments
            .iter()
            .any(|c| c.line + 3 > line && c.line <= line && c.text.contains(needle))
    }

    /// Sites in `file` within function `func`, non-test only, in
    /// source order.
    pub fn fn_sites(&self, file: &str, func: &str) -> Vec<&AtomicSite> {
        self.sites
            .iter()
            .filter(|s| s.file == file && s.func == func && !s.in_test)
            .collect()
    }
}

/// Scans every workspace-owned Rust source under `root` (the
/// repository root): `crates/**`, `tests/**`, `examples/**`. The
/// vendored dependency stand-ins under `vendor/` are third-party code
/// and are deliberately out of scope.
pub fn scan_workspace(root: &Path) -> Inventory {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    let mut inv = Inventory::default();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        scan_file(&rel, &text, &mut inv);
        inv.files_scanned += 1;
    }
    inv
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            // `target/` never sits under crates/, but guard anyway.
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        Some(top) => top.to_string(),
        None => "?".to_string(),
    }
}

/// First line (1-based) at which test code starts: the file's first
/// top-level (unindented) `#[cfg(test)]` attribute — the workspace
/// convention keeps test modules below all production code, while an
/// indented one (a test-only field or method) sits inside production
/// code — or `usize::MAX` when the file has none. Files under a
/// `tests/` directory are test code in full.
fn test_boundary(rel: &str, text: &str) -> usize {
    if rel.split('/').any(|seg| seg == "tests") {
        return 0;
    }
    for (i, line) in text.lines().enumerate() {
        if line.starts_with("#[cfg(test)]") {
            return i + 1;
        }
    }
    usize::MAX
}

/// Extracts sites from one file into `inv`.
pub fn scan_file(rel: &str, text: &str, inv: &mut Inventory) {
    let lexed = lex(text);
    let toks = &lexed.tokens;
    let crate_name = crate_of(rel);
    let test_from = test_boundary(rel, text);
    let decls = atomic_decls(toks);

    // Enclosing-fn tracking state.
    let mut depth: usize = 0;
    let mut fn_stack: Vec<(String, usize)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut paren_depth: usize = 0;

    let mut i = 0usize;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Ident(id) if id == "fn" => {
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                    pending_fn = Some(name.clone());
                    paren_depth = 0;
                }
            }
            Tok::Punct('(') | Tok::Punct('[') if pending_fn.is_some() => {
                paren_depth += 1;
            }
            Tok::Punct(')') | Tok::Punct(']') if pending_fn.is_some() => {
                paren_depth = paren_depth.saturating_sub(1);
            }
            Tok::Punct(';') if paren_depth == 0 => {
                pending_fn = None; // trait method declaration
            }
            Tok::Punct('{') => {
                depth += 1;
                if paren_depth == 0 {
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                }
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                while fn_stack.last().is_some_and(|(_, d)| *d > depth) {
                    fn_stack.pop();
                }
            }
            Tok::Ident(id) if id == "unsafe" => {
                let kind = match toks.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Punct('{')) => "block",
                    Some(Tok::Ident(k)) if k == "fn" => "fn",
                    Some(Tok::Ident(k)) if k == "impl" => "impl",
                    Some(Tok::Ident(k)) if k == "trait" => "trait",
                    Some(Tok::Ident(k)) if k == "extern" => "extern",
                    _ => "other",
                };
                let has_safety = lexed
                    .comments
                    .iter()
                    .any(|c| c.line + 4 > line && c.line <= line && c.text.contains("SAFETY:"));
                inv.unsafes.push(UnsafeSite {
                    file: rel.to_string(),
                    line,
                    kind: kind.to_string(),
                    func: fn_stack
                        .last()
                        .map(|(n, _)| n.clone())
                        .unwrap_or_else(|| "-".to_string()),
                    has_safety,
                    in_test: line >= test_from,
                });
            }
            Tok::Ident(id) if ATOMIC_OPS.contains(&id.as_str()) => {
                if let Some(site) = try_site(toks, i, rel, &crate_name, &decls) {
                    let func = fn_stack
                        .last()
                        .map(|(n, _)| n.clone())
                        .unwrap_or_else(|| "-".to_string());
                    inv.sites.push(AtomicSite {
                        func,
                        in_test: line >= test_from,
                        ..site
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }

    for (row, f) in FORBIDDEN.iter().enumerate().filter(|(_, f)| f.covers(rel)) {
        for (i, t) in toks.iter().enumerate() {
            for &path in f.paths.iter().filter(|p| path_at(toks, i, p)) {
                inv.forbidden.push(ForbiddenSite {
                    row,
                    path,
                    file: rel.to_string(),
                    line: t.line,
                    in_test: t.line >= test_from,
                });
            }
        }
    }

    inv.comments.insert(rel.to_string(), lexed.comments);
}

/// Whether the code tokens from index `i` spell `path`: its
/// `::`-separated identifiers with `:` `:` between them.
fn path_at(toks: &[Spanned], i: usize, path: &str) -> bool {
    let mut j = i;
    for (k, seg) in path.split("::").enumerate() {
        if k > 0 {
            let sep = toks.get(j..j + 2).map(|w| [&w[0].tok, &w[1].tok]);
            if sep != Some([&Tok::Punct(':'), &Tok::Punct(':')]) {
                return false;
            }
            j += 2;
        }
        match toks.get(j).map(|t| &t.tok) {
            Some(Tok::Ident(id)) if id == seg => j += 1,
            _ => return false,
        }
    }
    true
}

/// Declared atomic types in this token stream:
/// `name: [Vec<|Arc<|Box<|Option<]* AtomicX` and
/// `name = AtomicX::new(…)` both map `name → AtomicX`.
fn atomic_decls(toks: &[Spanned]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for (k, t) in toks.iter().enumerate() {
        let Tok::Ident(ty) = &t.tok else { continue };
        if !ty.starts_with("Atomic") || ty == "Atomic" {
            continue;
        }
        // Walk back over wrapper generics, references and `::new(`
        // layers to the introducing `:` or `=`.
        let mut j = k;
        while j > 0 {
            j -= 1;
            match &toks[j].tok {
                Tok::Punct('<') | Tok::Punct('&') | Tok::Punct('(') => continue,
                Tok::Ident(w) if matches!(w.as_str(), "Vec" | "Arc" | "Box" | "Option" | "new") => {
                    continue
                }
                Tok::Punct(':') | Tok::Punct('=') => {
                    // Skip a `::` path separator (e.g. `atomic::AtomicU64`).
                    if toks[j].tok == Tok::Punct(':') && j > 0 && toks[j - 1].tok == Tok::Punct(':')
                    {
                        j -= 1;
                        continue;
                    }
                    if let Some(Tok::Ident(name)) = toks.get(j.wrapping_sub(1)).map(|t| &t.tok) {
                        map.entry(name.clone()).or_insert_with(|| ty.clone());
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    map
}

/// Tries to read an atomic-operation site at token index `i` (which
/// holds an op identifier). Returns `None` when the shape doesn't
/// match — no call parens, or no ordering token among the arguments.
fn try_site(
    toks: &[Spanned],
    i: usize,
    rel: &str,
    crate_name: &str,
    decls: &BTreeMap<String, String>,
) -> Option<AtomicSite> {
    let Tok::Ident(op) = &toks[i].tok else {
        return None;
    };
    let is_fence = op == "fence";
    // Must be a call.
    if toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
        return None;
    }
    let dotted = i > 0 && toks[i - 1].tok == Tok::Punct('.');
    if is_fence {
        // A free function, never a method.
        if dotted {
            return None;
        }
    } else if !dotted {
        return None;
    }

    // Collect ordering idents among the call's arguments.
    let mut orders = Vec::new();
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < toks.len() && depth > 0 {
        match &toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth -= 1,
            Tok::Ident(x) if ORDERINGS.contains(&x.as_str()) => {
                // Exclude `cmp::Ordering`-style false positives by
                // construction: Less/Equal/Greater are not in the set.
                orders.push(x.clone());
            }
            _ => {}
        }
        j += 1;
    }
    if orders.is_empty() {
        return None;
    }

    let (receiver, atomic_type) = if is_fence {
        (String::new(), "fence".to_string())
    } else {
        let recv = receiver_name(toks, i - 1);
        let ty = recv
            .as_deref()
            .and_then(|r| decls.get(r).cloned())
            .unwrap_or_else(|| "?".to_string());
        (recv.unwrap_or_else(|| "?".to_string()), ty)
    };

    Some(AtomicSite {
        crate_name: crate_name.to_string(),
        file: rel.to_string(),
        line: toks[i].line,
        atomic_type,
        receiver,
        op: op.clone(),
        ordering: orders[0].clone(),
        ordering2: orders.get(1).cloned(),
        func: String::new(), // filled by caller
        in_test: false,      // filled by caller
    })
}

/// The receiver's final path segment, walking back from the `.` at
/// token index `dot`: `self.ring.head.load(…)` → `head`;
/// `self.buckets[idx].fetch_add(…)` → `buckets`.
fn receiver_name(toks: &[Spanned], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        match &toks[j].tok {
            Tok::Ident(name) => return Some(name.clone()),
            Tok::Punct(']') => {
                // Skip the index expression back to its `[`.
                let mut depth = 1usize;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    match &toks[j].tok {
                        Tok::Punct(']') => depth += 1,
                        Tok::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
                j = j.checked_sub(1)?;
            }
            Tok::Punct(')') => {
                let mut depth = 1usize;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    match &toks[j].tok {
                        Tok::Punct(')') => depth += 1,
                        Tok::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                j = j.checked_sub(1)?;
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Inventory {
        let mut inv = Inventory::default();
        scan_file("crates/demo/src/lib.rs", src, &mut inv);
        inv
    }

    #[test]
    fn extracts_method_ops_with_receiver_type_and_fn() {
        let src = "
            struct S { head: AtomicU64 }
            impl S {
                fn publish(&self) {
                    self.head.store(1, Ordering::Release);
                }
                fn read(&self) -> u64 {
                    self.head.load(Ordering::Acquire)
                }
            }
        ";
        let inv = scan(src);
        assert_eq!(inv.sites.len(), 2);
        let s = &inv.sites[0];
        assert_eq!(
            (
                s.op.as_str(),
                s.ordering.as_str(),
                s.receiver.as_str(),
                s.atomic_type.as_str(),
                s.func.as_str()
            ),
            ("store", "Release", "head", "AtomicU64", "publish")
        );
        assert_eq!(inv.sites[1].func, "read");
        assert_eq!(inv.sites[1].crate_name, "demo");
    }

    #[test]
    fn vec_swap_is_not_an_atomic_site() {
        let src = "fn f(v: &mut Vec<u32>) { v.swap(0, 1); }";
        assert!(scan(src).sites.is_empty());
    }

    #[test]
    fn bare_imported_orderings_are_recognized() {
        let src = "
            use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
            fn claim(n: &AtomicUsize) -> usize { n.fetch_add(1, SeqCst) }
        ";
        let inv = scan(src);
        assert_eq!(inv.sites.len(), 1);
        assert_eq!(inv.sites[0].ordering, "SeqCst");
        assert_eq!(inv.sites[0].op, "fetch_add");
    }

    #[test]
    fn fence_and_cas_record_orderings() {
        let src = "
            fn f(n: &AtomicUsize) {
                fence(Ordering::Release);
                let _ = n.compare_exchange_weak(0, 1, Ordering::AcqRel, Ordering::Acquire);
            }
        ";
        let inv = scan(src);
        assert_eq!(inv.sites.len(), 2);
        assert_eq!(inv.sites[0].op, "fence");
        assert_eq!(inv.sites[0].atomic_type, "fence");
        assert_eq!(inv.sites[1].ordering, "AcqRel");
        assert_eq!(inv.sites[1].ordering2.as_deref(), Some("Acquire"));
    }

    #[test]
    fn indexed_receiver_resolves_through_brackets() {
        let src = "
            struct H { buckets: Vec<AtomicU64> }
            impl H {
                fn record(&self, i: usize) {
                    self.buckets[idx(i)].fetch_add(1, Ordering::Relaxed);
                }
            }
        ";
        let inv = scan(src);
        assert_eq!(inv.sites.len(), 1);
        assert_eq!(inv.sites[0].receiver, "buckets");
        assert_eq!(inv.sites[0].atomic_type, "AtomicU64");
    }

    #[test]
    fn cfg_test_boundary_marks_test_sites() {
        let src = "
struct Q {
    #[cfg(test)]
    totals: u64,
}
fn prod(n: &AtomicU64) { n.load(Ordering::Relaxed); }
#[cfg(test)]
mod tests {
    fn t(n: &AtomicU64) { n.load(Ordering::Relaxed); }
}
";
        // The indented test-only field does not end production code.
        let inv = scan(src);
        assert_eq!(inv.sites.len(), 2);
        assert!(!inv.sites[0].in_test);
        assert!(inv.sites[1].in_test);
    }

    #[test]
    fn unsafe_sites_and_safety_comments() {
        let src = "
fn a() {
    // SAFETY: the pointer is valid for the call.
    unsafe { go() }
}
fn b() {
    unsafe { go() }
}
unsafe fn c() {}
";
        let inv = scan(src);
        assert_eq!(inv.unsafes.len(), 3);
        assert!(inv.unsafes[0].has_safety);
        assert_eq!(inv.unsafes[0].kind, "block");
        assert_eq!(inv.unsafes[0].func, "a");
        assert!(!inv.unsafes[1].has_safety);
        assert_eq!(inv.unsafes[2].kind, "fn");
    }

    #[test]
    fn relaxed_ok_comment_lookup() {
        let src = "
fn f(n: &AtomicU64) {
    // relaxed-ok: monotonic counter, no payload published.
    n.fetch_add(1, Ordering::Relaxed);
    n.fetch_add(1, Ordering::Relaxed);
}
";
        let inv = scan(src);
        let file = "crates/demo/src/lib.rs";
        assert!(inv.relaxed_justified(file, inv.sites[0].line));
        // The second site is 2 lines below the comment: still within
        // the window? The comment is on line 3, site on line 5.
        assert!(inv.relaxed_justified(file, inv.sites[1].line));
        assert!(!inv.relaxed_justified(file, inv.sites[1].line + 5));
    }

    #[test]
    fn ops_inside_strings_and_comments_are_ignored() {
        let src = r#"
fn f() {
    let s = "x.load(Ordering::Acquire)";
    // y.store(1, Ordering::Release);
}
"#;
        assert!(scan(src).sites.is_empty());
    }

    #[test]
    fn tests_directory_files_are_all_test_code() {
        let mut inv = Inventory::default();
        scan_file(
            "crates/runtime/tests/x.rs",
            "fn f(n: &AtomicU64) { n.load(Ordering::Acquire); }",
            &mut inv,
        );
        assert_eq!(inv.sites.len(), 1);
        assert!(inv.sites[0].in_test);
    }
}
