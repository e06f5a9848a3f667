//! The declared memory-protocol manifest (`docs/protocols.toml`).
//!
//! Each `[[protocol]]` names one synchronization discipline (the
//! seqlock ring, the work-stealing termination counter, the abort
//! flag, …) and carries `[[protocol.rule]]` entries binding
//! source locations to roles:
//!
//! ```toml
//! [[protocol]]
//! name = "runtime-ws-termination"
//! doc  = "remaining-task counter that gates pool shutdown"
//!
//! [[protocol.rule]]
//! role      = "publish"
//! file      = "crates/runtime/src/pool.rs"
//! fn        = "publish_completions"
//! sequence  = ["fetch_sub Release", "store Release"]
//!
//! [[protocol.rule]]
//! role      = "check"
//! file      = "crates/runtime/src/pool.rs"
//! fn        = "run_stealing"
//! ops       = ["load"]
//! orderings = ["load Acquire"]
//! pairs     = "publish"
//! ```
//!
//! Rule semantics (enforced by [`crate::check`]):
//!
//! * `relaxed_ok = true` — the matched sites are plain counters; every
//!   ordering at the site must literally be `Relaxed` (a counter rule
//!   never excuses a site that *should* be stronger).
//! * `orderings = ["op Ordering", …]` — the site's `(op, primary
//!   ordering)` must appear in the list; `"* Ordering"` matches any op.
//! * `sequence = […]` — the named fn's complete non-test atomic-op
//!   list must equal the sequence **exactly** (each element
//!   `"op Ordering"`). Exact matching is what catches a *removed*
//!   fence, not just a reordered one.
//! * `pairs = "role"` — required on any rule whose orderings/sequence
//!   contain an explicit `Acquire` (the paired-ordering rule): the
//!   named role must exist in the same protocol and perform a
//!   Release-side write.
//!
//! The parser is a deliberate TOML subset (tables-of-tables, string /
//! string-array / bool / int values, `#` comments) — enough for the
//! manifest, zero new dependencies, and any line it does not
//! understand is a hard error rather than a silent skip.

/// One location-binding rule inside a protocol.
#[derive(Debug, Clone, Default)]
pub struct Rule {
    /// Role name within the protocol (`writer`, `reader`, `publish`…).
    pub role: String,
    /// Repo-relative file the rule binds to.
    pub file: String,
    /// Enclosing fn name, or `"*"` for any fn in the file.
    pub func: String,
    /// When non-empty, the rule only governs these ops.
    pub ops: Vec<String>,
    /// Counter rule: every matched site must be `Relaxed`.
    pub relaxed_ok: bool,
    /// Allowed `(op, ordering)` entries, each `"op Ordering"`.
    pub orderings: Vec<String>,
    /// Exact full atomic-op sequence for the fn, each `"op Ordering"`.
    pub sequence: Vec<String>,
    /// Release-side partner role for Acquire-bearing rules.
    pub pairs: Option<String>,
    /// 1-based manifest line the rule starts on (for findings).
    pub line: usize,
}

impl Rule {
    /// True when the rule's declared orderings or sequence contain an
    /// Acquire-side element, which makes `pairs` mandatory.
    pub fn has_acquire(&self) -> bool {
        self.orderings
            .iter()
            .chain(self.sequence.iter())
            .any(|e| e.ends_with(" Acquire"))
    }
}

/// One declared protocol.
#[derive(Debug, Clone, Default)]
pub struct Protocol {
    /// Protocol name.
    pub name: String,
    /// One-line description.
    pub doc: String,
    /// Location-binding rules.
    pub rules: Vec<Rule>,
}

/// The parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// All declared protocols.
    pub protocols: Vec<Protocol>,
}

impl Manifest {
    /// Loads and parses a manifest file.
    pub fn load(path: &std::path::Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse(&text)
    }
}

/// Parses manifest text. Errors carry the offending line number.
pub fn parse(text: &str) -> Result<Manifest, String> {
    let mut m = Manifest::default();
    // Which table a `key = value` line belongs to.
    enum Ctx {
        None,
        Protocol,
        Rule,
    }
    let mut ctx = Ctx::None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[protocol]]" {
            m.protocols.push(Protocol::default());
            ctx = Ctx::Protocol;
            continue;
        }
        if line == "[[protocol.rule]]" {
            let p = m
                .protocols
                .last_mut()
                .ok_or_else(|| format!("line {lineno}: rule before any [[protocol]]"))?;
            p.rules.push(Rule {
                line: lineno,
                ..Rule::default()
            });
            ctx = Ctx::Rule;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unsupported table `{line}`"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`, got `{line}`"))?;
        let key = key.trim();
        let value = value.trim();
        match ctx {
            Ctx::None => return Err(format!("line {lineno}: `{key}` outside any table")),
            Ctx::Protocol => {
                let p = m.protocols.last_mut().expect("ctx Protocol implies one");
                match key {
                    "name" => p.name = parse_string(value, lineno)?,
                    "doc" => p.doc = parse_string(value, lineno)?,
                    _ => return Err(format!("line {lineno}: unknown protocol key `{key}`")),
                }
            }
            Ctx::Rule => {
                let r = m
                    .protocols
                    .last_mut()
                    .and_then(|p| p.rules.last_mut())
                    .expect("ctx Rule implies one");
                match key {
                    "role" => r.role = parse_string(value, lineno)?,
                    "file" => r.file = parse_string(value, lineno)?,
                    "fn" => r.func = parse_string(value, lineno)?,
                    "ops" => r.ops = parse_string_array(value, lineno)?,
                    "relaxed_ok" => r.relaxed_ok = parse_bool(value, lineno)?,
                    "orderings" => r.orderings = parse_string_array(value, lineno)?,
                    "sequence" => r.sequence = parse_string_array(value, lineno)?,
                    "pairs" => r.pairs = Some(parse_string(value, lineno)?),
                    _ => return Err(format!("line {lineno}: unknown rule key `{key}`")),
                }
            }
        }
    }
    validate(&m)?;
    Ok(m)
}

/// Structural validation, independent of any source scan.
fn validate(m: &Manifest) -> Result<(), String> {
    for p in &m.protocols {
        if p.name.is_empty() {
            return Err("protocol without a name".to_string());
        }
        for r in &p.rules {
            if r.role.is_empty() || r.file.is_empty() || r.func.is_empty() {
                return Err(format!(
                    "protocol `{}` line {}: rule needs role, file and fn",
                    p.name, r.line
                ));
            }
            if r.relaxed_ok && (!r.orderings.is_empty() || !r.sequence.is_empty()) {
                return Err(format!(
                    "protocol `{}` role `{}`: relaxed_ok excludes orderings/sequence",
                    p.name, r.role
                ));
            }
            if !r.relaxed_ok && r.orderings.is_empty() && r.sequence.is_empty() {
                return Err(format!(
                    "protocol `{}` role `{}`: rule declares no discipline \
                     (need relaxed_ok, orderings or sequence)",
                    p.name, r.role
                ));
            }
            if !r.sequence.is_empty() && r.func == "*" {
                return Err(format!(
                    "protocol `{}` role `{}`: sequence needs an exact fn, not \"*\"",
                    p.name, r.role
                ));
            }
            for e in r.orderings.iter().chain(r.sequence.iter()) {
                let mut it = e.split_whitespace();
                let (op, ord, extra) = (it.next(), it.next(), it.next());
                let ok = matches!((op, ord, extra), (Some(op), Some(ord), None)
                    if (op == "*" || crate::extract::ATOMIC_OPS.contains(&op))
                        && crate::extract::ORDERINGS.contains(&ord));
                if !ok {
                    return Err(format!(
                        "protocol `{}` role `{}`: malformed entry `{e}` (want `op Ordering`)",
                        p.name, r.role
                    ));
                }
            }
            if let Some(partner) = &r.pairs {
                if !p.rules.iter().any(|o| &o.role == partner) {
                    return Err(format!(
                        "protocol `{}` role `{}`: pairs names unknown role `{partner}`",
                        p.name, r.role
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Removes a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(v: &str, lineno: usize) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("line {lineno}: expected quoted string, got `{v}`"))
    }
}

fn parse_bool(v: &str, lineno: usize) -> Result<bool, String> {
    match v.trim() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("line {lineno}: expected bool, got `{other}`")),
    }
}

fn parse_string_array(v: &str, lineno: usize) -> Result<Vec<String>, String> {
    let v = v.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(format!("line {lineno}: expected array, got `{v}`"));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

/// Splits on commas outside string quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut in_str = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# The seqlock ring.
[[protocol]]
name = "seqlock-ring"
doc  = "odd/even sequence lock around ring slots"

[[protocol.rule]]
role      = "writer"
file      = "crates/obs/src/ring.rs"
fn        = "record"
sequence  = ["store Relaxed", "fence Release", "store Relaxed", "store Release"]

[[protocol.rule]]
role      = "reader"
file      = "crates/obs/src/ring.rs"
fn        = "snapshot"
orderings = ["load Acquire", "load Relaxed", "fence Acquire"]
pairs     = "writer"

[[protocol]]
name = "counters"

[[protocol.rule]]
role       = "count"
file       = "crates/obs/src/metrics.rs"
fn         = "*"
relaxed_ok = true
"#;

    #[test]
    fn parses_protocols_rules_and_values() {
        let m = parse(SAMPLE).unwrap();
        assert_eq!(m.protocols.len(), 2);
        let ring = &m.protocols[0];
        assert_eq!(ring.name, "seqlock-ring");
        assert_eq!(ring.rules.len(), 2);
        assert_eq!(ring.rules[0].sequence.len(), 4);
        assert_eq!(ring.rules[1].pairs.as_deref(), Some("writer"));
        assert!(ring.rules[1].has_acquire());
        assert!(!ring.rules[0].has_acquire());
        assert!(m.protocols[1].rules[0].relaxed_ok);
        assert_eq!(m.protocols[1].rules[0].func, "*");
    }

    #[test]
    fn unknown_keys_and_malformed_entries_are_errors() {
        assert!(parse("[[protocol]]\nname = \"x\"\nbogus = \"y\"\n").is_err());
        assert!(parse("stray = \"x\"\n").is_err());
        let bad_entry = "[[protocol]]\nname = \"x\"\n[[protocol.rule]]\nrole = \"r\"\nfile = \"f\"\nfn = \"g\"\norderings = [\"warble Relaxed\"]\n";
        assert!(parse(bad_entry).is_err());
    }

    #[test]
    fn pairs_must_name_an_existing_role() {
        let src = "[[protocol]]\nname = \"x\"\n[[protocol.rule]]\nrole = \"r\"\nfile = \"f\"\nfn = \"g\"\norderings = [\"load Acquire\"]\npairs = \"ghost\"\n";
        let err = parse(src).unwrap_err();
        assert!(err.contains("ghost"), "{err}");
    }

    #[test]
    fn relaxed_ok_excludes_orderings() {
        let src = "[[protocol]]\nname = \"x\"\n[[protocol.rule]]\nrole = \"r\"\nfile = \"f\"\nfn = \"g\"\nrelaxed_ok = true\norderings = [\"load Relaxed\"]\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn comments_and_wildcard_ops_parse() {
        let src = "[[protocol]]\nname = \"x\" # trailing\n[[protocol.rule]]\nrole = \"r\"\nfile = \"f\"\nfn = \"g\"\norderings = [\"* SeqCst\"]\n";
        let m = parse(src).unwrap();
        assert_eq!(m.protocols[0].rules[0].orderings[0], "* SeqCst");
    }
}
