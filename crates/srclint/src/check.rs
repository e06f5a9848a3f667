//! Checks an extracted [`Inventory`] against the declared-protocol
//! [`Manifest`].
//!
//! Four layers, each a distinct finding kind (all reported as
//! [`Violation`]s so CI reads one shape):
//!
//! 1. **Site coverage.** Every non-test atomic site must either match
//!    a manifest rule or — for `Relaxed` sites only — carry a
//!    `// relaxed-ok:` justification. A bare Relaxed site is
//!    [`UnmanagedOrdering`]; an uncovered *stronger* site is
//!    [`UndeclaredSite`] (new synchronization must declare its
//!    protocol before it lands).
//! 2. **Role discipline.** A site that matches rules but satisfies
//!    none of them — wrong ordering for the role, non-Relaxed op under
//!    a counter rule — is [`ProtocolMismatch`].
//! 3. **Sequence rules.** A rule with `sequence = […]` pins the named
//!    fn's complete non-test atomic-op list, exactly. Divergence is
//!    [`MissingFence`] when the expected-but-absent element is a
//!    fence (the PR-6 seqlock-writer bug), [`ProtocolMismatch`]
//!    otherwise. A rule matching no site at all is [`ManifestStale`].
//! 4. **Pairing and hygiene.** Acquire-bearing rules must name a
//!    Release-publishing partner role ([`UnpairedAcquire`]); every
//!    `unsafe` without a `// SAFETY:` comment — test code included —
//!    is [`MissingSafetyComment`].
//! 5. **Forbidden paths.** A path of a [`FORBIDDEN`] row in the code
//!    that row covers is [`ForbiddenPath`]; so is a root that names no
//!    scanned file ([`missing_roots`]), since a renamed file must not
//!    drop out of the scan unnoticed.
//!
//! [`UnmanagedOrdering`]: ViolationKind::UnmanagedOrdering
//! [`UndeclaredSite`]: ViolationKind::UndeclaredSite
//! [`ProtocolMismatch`]: ViolationKind::ProtocolMismatch
//! [`MissingFence`]: ViolationKind::MissingFence
//! [`ManifestStale`]: ViolationKind::ManifestStale
//! [`UnpairedAcquire`]: ViolationKind::UnpairedAcquire
//! [`MissingSafetyComment`]: ViolationKind::MissingSafetyComment
//! [`ForbiddenPath`]: ViolationKind::ForbiddenPath

use crate::extract::{AtomicSite, Inventory};
use crate::manifest::{Manifest, Protocol, Rule};
use crate::report::{Report, Violation, ViolationKind};

/// Orderings that publish on the write side.
const RELEASING: &[&str] = &["Release", "AcqRel", "SeqCst"];

/// One row of the forbidden-path table: token paths that must not
/// appear in the code of any file under `roots`.
pub struct Forbidden {
    /// Row name, reported as the violation's policy.
    pub name: &'static str,
    /// Repo-relative files or directories the row covers.
    pub roots: &'static [&'static str],
    /// The forbidden paths, `::`-separated. Each matches a run of code
    /// tokens, never text inside a comment or a string literal.
    pub paths: &'static [&'static str],
    /// Whether test code under the roots is covered too.
    pub tests_too: bool,
    /// Why the paths are forbidden there; ends every finding.
    pub why: &'static str,
}

impl Forbidden {
    /// Whether the row covers the repo-relative file `rel`.
    pub fn covers(&self, rel: &str) -> bool {
        self.roots.iter().any(|r| under(r, rel))
    }
}

fn under(root: &str, rel: &str) -> bool {
    rel.strip_prefix(root)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// The forbidden-path table.
pub const FORBIDDEN: &[Forbidden] = &[
    Forbidden {
        name: "replay-hygiene",
        roots: &[
            "crates/sched/src",
            "crates/distsim/src/sim.rs",
            "crates/distsim/src/faults.rs",
            "crates/distsim/src/eventq.rs",
            "crates/balance/src",
        ],
        paths: &[
            "Instant::now",
            "SystemTime",
            "thread_rng",
            "from_entropy",
            "OsRng",
            "rand::random",
        ],
        tests_too: true,
        why: "a wall-clock read or ambient entropy makes `PolicyKind::initial_partition`, \
              `SeedPartition::owners`, the balancers and `simulate_with_faults` \
              unreproducible",
    },
    Forbidden {
        name: "event-core",
        roots: &["crates/distsim/src/sim.rs", "crates/distsim/src/faults.rs"],
        paths: &["BinaryHeap"],
        tests_too: false,
        why: "the simulator loops schedule through `EventQueue`, which keeps \
              the total (time, seq) order; the heap oracle lives behind it in \
              eventq.rs",
    },
];

/// Runs every check; the returned report is clean iff the workspace
/// conforms to the manifest and the forbidden-path table.
pub fn check(inv: &Inventory, manifest: &Manifest) -> Report {
    let mut report = Report::default();
    check_sites(inv, manifest, &mut report);
    check_rules(inv, manifest, &mut report);
    check_unsafe(inv, &mut report);
    check_forbidden(inv, &mut report);
    report
}

fn check_forbidden(inv: &Inventory, report: &mut Report) {
    for s in &inv.forbidden {
        let row = &FORBIDDEN[s.row];
        if row.tests_too || !s.in_test {
            report.violations.push(Violation::new(
                row.name,
                ViolationKind::ForbiddenPath,
                format!("{}:{}", s.file, s.line),
                format!("`{}`: {}", s.path, row.why),
            ));
        }
    }
}

/// One [`ForbiddenPath`] finding per [`FORBIDDEN`] root under which
/// `inv` scanned no file. Only a whole-workspace inventory can answer
/// this, so [`check`] leaves it to [`crate::run`].
///
/// [`ForbiddenPath`]: ViolationKind::ForbiddenPath
pub fn missing_roots(inv: &Inventory) -> Vec<Violation> {
    FORBIDDEN
        .iter()
        .flat_map(|row| row.roots.iter().map(move |r| (row, *r)))
        .filter(|(_, r)| !inv.comments.keys().any(|f| under(r, f)))
        .map(|(row, r)| {
            Violation::new(
                row.name,
                ViolationKind::ForbiddenPath,
                r,
                "root names no scanned file (renamed or deleted?)",
            )
        })
        .collect()
}

fn rule_matches(rule: &Rule, site: &AtomicSite) -> bool {
    rule.file == site.file
        && (rule.func == "*" || rule.func == site.func)
        && (rule.ops.is_empty() || rule.ops.iter().any(|o| o == &site.op))
}

/// All orderings at a site are `Relaxed` (for CAS, both of them).
fn fully_relaxed(site: &AtomicSite) -> bool {
    site.ordering == "Relaxed" && site.ordering2.as_deref().unwrap_or("Relaxed") == "Relaxed"
}

fn rule_satisfied(rule: &Rule, site: &AtomicSite) -> bool {
    if rule.relaxed_ok {
        return fully_relaxed(site);
    }
    if !rule.orderings.is_empty() {
        let key = format!("{} {}", site.op, site.ordering);
        let wild = format!("* {}", site.ordering);
        return rule.orderings.iter().any(|e| e == &key || e == &wild);
    }
    // A pure sequence rule: site-level always passes; the fn-level
    // exact-sequence check owns the verdict.
    true
}

fn check_sites(inv: &Inventory, manifest: &Manifest, report: &mut Report) {
    let mut clean = 0usize;
    for site in inv.sites.iter().filter(|s| !s.in_test) {
        let matching: Vec<(&Protocol, &Rule)> = manifest
            .protocols
            .iter()
            .flat_map(|p| p.rules.iter().map(move |r| (p, r)))
            .filter(|(_, r)| rule_matches(r, site))
            .collect();
        if matching.is_empty() {
            if fully_relaxed(site) {
                if inv.relaxed_justified(&site.file, site.line) {
                    clean += 1;
                } else {
                    report.violations.push(Violation::new(
                        "srclint",
                        ViolationKind::UnmanagedOrdering,
                        site.location(),
                        format!(
                            "{}.{}({}) in fn `{}` is Relaxed with no manifest role and \
                             no `// relaxed-ok:` justification",
                            site.receiver, site.op, site.ordering, site.func
                        ),
                    ));
                }
            } else {
                report.violations.push(Violation::new(
                    "srclint",
                    ViolationKind::UndeclaredSite,
                    site.location(),
                    format!(
                        "{} {}({}) in fn `{}` synchronizes but no protocol in \
                         docs/protocols.toml covers it",
                        site.atomic_type, site.op, site.ordering, site.func
                    ),
                ));
            }
        } else if matching.iter().any(|(_, r)| rule_satisfied(r, site)) {
            clean += 1;
        } else {
            let roles: Vec<String> = matching
                .iter()
                .map(|(p, r)| format!("{}/{}", p.name, r.role))
                .collect();
            report.violations.push(Violation::new(
                matching[0].0.name.clone(),
                ViolationKind::ProtocolMismatch,
                site.location(),
                format!(
                    "{}.{}({}) in fn `{}` satisfies none of its declared roles [{}]",
                    site.receiver,
                    site.op,
                    site.ordering,
                    site.func,
                    roles.join(", ")
                ),
            ));
        }
    }
    if clean > 0 {
        report
            .passed
            .push(("srclint-sites".to_string(), format!("{clean} conforming")));
    }
}

fn check_rules(inv: &Inventory, manifest: &Manifest, report: &mut Report) {
    for p in &manifest.protocols {
        let before = report.violations.len();
        for r in &p.rules {
            let matched = inv
                .sites
                .iter()
                .filter(|s| !s.in_test)
                .filter(|s| rule_matches(r, s))
                .count();
            if matched == 0 {
                report.violations.push(Violation::new(
                    p.name.clone(),
                    ViolationKind::ManifestStale,
                    format!("docs/protocols.toml:{}", r.line),
                    format!(
                        "role `{}` matches no site in {} fn `{}` — code moved or rule is dead",
                        r.role, r.file, r.func
                    ),
                ));
                continue;
            }
            if !r.sequence.is_empty() {
                check_sequence(inv, p, r, report);
            }
            if r.has_acquire() {
                check_pairing(p, r, report);
            }
        }
        if report.violations.len() == before {
            report
                .passed
                .push((p.name.clone(), "protocol-conforms".to_string()));
        }
    }
}

/// Exact-sequence check for one rule: the fn's full non-test atomic-op
/// list must equal `rule.sequence` element-for-element.
fn check_sequence(inv: &Inventory, p: &Protocol, r: &Rule, report: &mut Report) {
    let sites = inv.fn_sites(&r.file, &r.func);
    let actual: Vec<String> = sites
        .iter()
        .map(|s| format!("{} {}", s.op, s.ordering))
        .collect();
    if actual == r.sequence {
        return;
    }
    // Locate the divergence for the report.
    let idx = actual
        .iter()
        .zip(r.sequence.iter())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.len().min(r.sequence.len()));
    let expected_here = r.sequence.get(idx).map(String::as_str).unwrap_or("<end>");
    let actual_here = actual.get(idx).map(String::as_str).unwrap_or("<end>");
    // A fence expected where the source has none (or has run out of
    // ops) is the missing-fence bug class; anything else is a general
    // protocol mismatch.
    let expected_fences = r
        .sequence
        .iter()
        .filter(|e| e.starts_with("fence "))
        .count();
    let actual_fences = actual.iter().filter(|e| e.starts_with("fence ")).count();
    let kind = if expected_fences > actual_fences {
        ViolationKind::MissingFence
    } else {
        ViolationKind::ProtocolMismatch
    };
    let location = sites
        .first()
        .map(|s| s.location())
        .unwrap_or_else(|| r.file.clone());
    report.violations.push(Violation::new(
        p.name.clone(),
        kind,
        location,
        format!(
            "fn `{}` atomic-op sequence diverges from role `{}` at step {}: \
             expected `{}`, found `{}` (declared {} ops, source has {})",
            r.func,
            r.role,
            idx + 1,
            expected_here,
            actual_here,
            r.sequence.len(),
            actual.len()
        ),
    ));
}

/// Paired-ordering rule: an Acquire-side rule must name a partner role
/// that publishes with Release/AcqRel/SeqCst.
fn check_pairing(p: &Protocol, r: &Rule, report: &mut Report) {
    let Some(partner) = &r.pairs else {
        report.violations.push(Violation::new(
            p.name.clone(),
            ViolationKind::UnpairedAcquire,
            format!("docs/protocols.toml:{}", r.line),
            format!(
                "role `{}` performs Acquire reads but names no Release partner (`pairs`)",
                r.role
            ),
        ));
        return;
    };
    let publishes = p
        .rules
        .iter()
        .filter(|o| &o.role == partner)
        .flat_map(|o| o.orderings.iter().chain(o.sequence.iter()))
        .any(|e| {
            let mut it = e.split_whitespace();
            let (op, ord) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            op != "load" && RELEASING.contains(&ord)
        });
    if !publishes {
        report.violations.push(Violation::new(
            p.name.clone(),
            ViolationKind::UnpairedAcquire,
            format!("docs/protocols.toml:{}", r.line),
            format!(
                "role `{}` pairs with `{partner}`, but `{partner}` declares no \
                 Release-side write",
                r.role
            ),
        ));
    }
}

fn check_unsafe(inv: &Inventory, report: &mut Report) {
    let mut clean = 0usize;
    for u in &inv.unsafes {
        if u.has_safety {
            clean += 1;
        } else {
            report.violations.push(Violation::new(
                "srclint",
                ViolationKind::MissingSafetyComment,
                format!("{}:{}", u.file, u.line),
                format!(
                    "unsafe {} in fn `{}` has no `// SAFETY:` comment",
                    u.kind, u.func
                ),
            ));
        }
    }
    if clean > 0 {
        report
            .passed
            .push(("srclint-unsafe".to_string(), format!("{clean} documented")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::scan_file;
    use crate::manifest;

    fn inv_of(file: &str, src: &str) -> Inventory {
        let mut inv = Inventory::default();
        scan_file(file, src, &mut inv);
        inv
    }

    fn kinds(r: &Report) -> Vec<ViolationKind> {
        r.violations.iter().map(|v| v.kind).collect()
    }

    const FILE: &str = "crates/demo/src/lib.rs";

    #[test]
    fn unjustified_relaxed_is_unmanaged() {
        let inv = inv_of(
            FILE,
            "fn f(n: &AtomicU64) { n.fetch_add(1, Ordering::Relaxed); }",
        );
        let m = Manifest::default();
        assert_eq!(
            kinds(&check(&inv, &m)),
            vec![ViolationKind::UnmanagedOrdering]
        );
    }

    #[test]
    fn relaxed_ok_comment_clears_uncovered_relaxed() {
        let src = "
fn f(n: &AtomicU64) {
    // relaxed-ok: local diagnostic counter.
    n.fetch_add(1, Ordering::Relaxed);
}";
        let inv = inv_of(FILE, src);
        assert!(check(&inv, &Manifest::default()).is_clean());
    }

    #[test]
    fn uncovered_strong_site_is_undeclared() {
        let inv = inv_of(
            FILE,
            "fn f(n: &AtomicU64) { n.store(1, Ordering::Release); }",
        );
        assert_eq!(
            kinds(&check(&inv, &Manifest::default())),
            vec![ViolationKind::UndeclaredSite]
        );
    }

    #[test]
    fn counter_rule_accepts_relaxed_and_flags_strong() {
        let toml = format!(
            "[[protocol]]\nname = \"c\"\n[[protocol.rule]]\nrole = \"count\"\nfile = \"{FILE}\"\nfn = \"*\"\nrelaxed_ok = true\n"
        );
        let m = manifest::parse(&toml).unwrap();
        let ok = inv_of(
            FILE,
            "fn f(n: &AtomicU64) { n.fetch_add(1, Ordering::Relaxed); }",
        );
        assert!(check(&ok, &m).is_clean());
        // The same role cannot excuse a Release store: that would let
        // a weakened protocol hide under a counter rule.
        let strong = inv_of(
            FILE,
            "fn f(n: &AtomicU64) { n.store(1, Ordering::Release); }",
        );
        assert_eq!(
            kinds(&check(&strong, &m)),
            vec![ViolationKind::ProtocolMismatch]
        );
    }

    #[test]
    fn orderings_rule_flags_weakened_site() {
        let toml = format!(
            "[[protocol]]\nname = \"flag\"\n[[protocol.rule]]\nrole = \"raise\"\nfile = \"{FILE}\"\nfn = \"raise\"\norderings = [\"store Release\"]\n"
        );
        let m = manifest::parse(&toml).unwrap();
        let good = inv_of(
            FILE,
            "fn raise(n: &AtomicBool) { n.store(true, Ordering::Release); }",
        );
        assert!(check(&good, &m).is_clean());
        let weak = inv_of(
            FILE,
            "fn raise(n: &AtomicBool) { n.store(true, Ordering::Relaxed); }",
        );
        assert_eq!(
            kinds(&check(&weak, &m)),
            vec![ViolationKind::ProtocolMismatch]
        );
    }

    #[test]
    fn sequence_rule_catches_removed_fence() {
        let toml = format!(
            "[[protocol]]\nname = \"seq\"\n[[protocol.rule]]\nrole = \"writer\"\nfile = \"{FILE}\"\nfn = \"publish\"\nsequence = [\"store Relaxed\", \"fence Release\", \"store Release\"]\n"
        );
        let m = manifest::parse(&toml).unwrap();
        let good = "
fn publish(a: &AtomicU64, b: &AtomicU64) {
    a.store(1, Ordering::Relaxed);
    fence(Ordering::Release);
    b.store(2, Ordering::Release);
}";
        assert!(check(&inv_of(FILE, good), &m).is_clean());
        let fenceless = "
fn publish(a: &AtomicU64, b: &AtomicU64) {
    a.store(1, Ordering::Relaxed);
    b.store(2, Ordering::Release);
}";
        assert_eq!(
            kinds(&check(&inv_of(FILE, fenceless), &m)),
            vec![ViolationKind::MissingFence]
        );
        let reordered = "
fn publish(a: &AtomicU64, b: &AtomicU64) {
    a.store(1, Ordering::Release);
    fence(Ordering::Release);
    b.store(2, Ordering::Release);
}";
        assert_eq!(
            kinds(&check(&inv_of(FILE, reordered), &m)),
            vec![ViolationKind::ProtocolMismatch]
        );
    }

    #[test]
    fn stale_rule_is_flagged() {
        let toml = format!(
            "[[protocol]]\nname = \"s\"\n[[protocol.rule]]\nrole = \"r\"\nfile = \"{FILE}\"\nfn = \"vanished\"\norderings = [\"load Acquire\"]\npairs = \"r\"\n"
        );
        let m = manifest::parse(&toml).unwrap();
        let inv = inv_of(FILE, "fn other() {}");
        assert_eq!(kinds(&check(&inv, &m)), vec![ViolationKind::ManifestStale]);
    }

    #[test]
    fn acquire_without_release_partner_is_unpaired() {
        // Partner exists (validation passes) but only reads.
        let toml = format!(
            "[[protocol]]\nname = \"p\"\n[[protocol.rule]]\nrole = \"obs\"\nfile = \"{FILE}\"\nfn = \"obs\"\norderings = [\"load Acquire\"]\npairs = \"also\"\n[[protocol.rule]]\nrole = \"also\"\nfile = \"{FILE}\"\nfn = \"also\"\norderings = [\"load Acquire\"]\npairs = \"obs\"\n"
        );
        let m = manifest::parse(&toml).unwrap();
        let src = "
fn obs(n: &AtomicU64) { n.load(Ordering::Acquire); }
fn also(n: &AtomicU64) { n.load(Ordering::Acquire); }";
        let inv = inv_of(FILE, src);
        let got = kinds(&check(&inv, &m));
        assert_eq!(
            got,
            vec![
                ViolationKind::UnpairedAcquire,
                ViolationKind::UnpairedAcquire
            ]
        );
    }

    #[test]
    fn undocumented_unsafe_is_flagged_even_in_tests() {
        let src = "
#[cfg(test)]
mod tests {
    fn t() { unsafe { go() } }
}";
        let inv = inv_of(FILE, src);
        assert_eq!(
            kinds(&check(&inv, &Manifest::default())),
            vec![ViolationKind::MissingSafetyComment]
        );
    }

    #[test]
    fn test_code_sites_are_exempt_from_site_coverage() {
        let src = "
#[cfg(test)]
mod tests {
    fn t(n: &AtomicU64) { n.store(1, Ordering::Release); }
}";
        let inv = inv_of(FILE, src);
        assert!(check(&inv, &Manifest::default()).is_clean());
    }
}
