//! `frogwild-lint` — the workspace determinism & panic-freedom static-analysis
//! pass.
//!
//! FrogWild's headline engineering claim is that responses are bit-identical
//! across worker counts, batch sizes, and staleness windows. The dynamic
//! enforcement (golden fingerprints, proptest sweeps) samples a tiny corner of
//! the configuration space; this pass enforces the *classes* of bug statically,
//! for every configuration at once:
//!
//! * **determinism** — no std hash containers or wall-clock/thread-identity
//!   reads in `crates/{core,engine,graph}` library code;
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!`-family/indexing in
//!   library code without a documented `lint:allow(rule, reason)`;
//! * **overflow hygiene** — stat-counter accumulators use `saturating_*` and
//!   never narrow with `as`;
//! * **API hygiene** — every `#[non_exhaustive]` pub type in `crates/core`
//!   keeps a public constructor helper, and every `pub` item of the library
//!   crates has a caller outside tests (`orphan-pub`: the public surface is the
//!   called surface);
//! * **shape** — the code shapes a rewrite removed from named files stay out, or
//!   under a count (`forbidden`, whose rows are [`rules::FORBIDDEN`]: the engine's
//!   addressing, its one pool and its one clock, the set-up path, graph construction,
//!   the walk arena, the engine configuration and its one pool setting, the one p_T,
//!   the figures' one laboratory).
//!
//! The analysis is a hand-rolled lexer ([`lexer`]) plus shallow token-pattern
//! rules ([`rules`]) — no external dependencies, no type information. That
//! buys zero-setup CI enforcement at the cost of needing `lint:allow` escape
//! hatches where the rules cannot see an invariant (every allow requires a
//! written reason, which is the point).

pub mod lexer;
pub mod rules;

use rules::{
    analyze_file, finish_ctor_rule, finish_forbidden_rule, finish_orphan_rule, Finding, Scope,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived `lint:allow`, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Scans `files` (path, source) pairs. Paths must be workspace-relative with
/// forward slashes; the crate-level constructor join groups files by their
/// `crates/<name>/` prefix, the `orphan-pub` and `forbidden` joins span every file
/// given.
pub fn run_on_sources(files: &[(String, String)]) -> Report {
    let mut findings = Vec::new();
    // Constructor-rule state grouped per crate (fixture/scratch files outside
    // `crates/` join a shared "" group, so a fixture pair still links up).
    let mut decls: BTreeMap<String, Vec<rules::TypeDecl>> = BTreeMap::new();
    let mut evidence: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut pub_decls = Vec::new();
    let mut referenced = BTreeSet::new();
    let mut forbidden = Vec::new();

    for (path, src) in files {
        let scope = Scope::classify(path);
        let report = analyze_file(path, scope, src);
        findings.extend(report.findings);
        let group = crate_group(path);
        decls
            .entry(group.clone())
            .or_default()
            .extend(report.non_exhaustive);
        evidence
            .entry(group)
            .or_default()
            .extend(report.ctor_evidence);
        pub_decls.extend(report.pub_decls);
        referenced.extend(report.referenced);
        forbidden.extend(report.forbidden);
    }
    for (group, d) in &decls {
        let e = evidence.get(group).map(Vec::as_slice).unwrap_or(&[]);
        findings.extend(finish_ctor_rule(d, e));
    }
    findings.extend(finish_orphan_rule(&pub_decls, &referenced));
    findings.extend(finish_forbidden_rule(&forbidden));
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    Report {
        findings,
        files_scanned: files.len(),
    }
}

fn crate_group(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

/// Collects the `.rs` files the workspace pass scans: `crates/*/src`, the root
/// `src/`, and `examples/` (only the `forbidden` rows naming `examples/` run on an
/// example; it is otherwise read as evidence that a library item is called),
/// relative to `root`. Test trees
/// (`crates/*/tests`, `tests/`, `benches/`) hold test code by definition and are
/// skipped.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok()) {
            dirs.push(krate.path().join("src"));
        }
    }
    dirs.extend(["src", "examples"].map(|dir| root.join(dir)));
    dirs.retain(|dir| dir.is_dir());
    rust_files(&dirs)
}

/// Every `.rs` file under the directories in `paths`, plus each file in `paths` as
/// given, sorted.
pub fn rust_files(paths: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for path in paths {
        if path.is_dir() {
            collect_rs(path, &mut out)?;
        } else if path.is_file() {
            out.push(path.clone());
        } else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no such file or directory: {}", path.display()),
            ));
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)?.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative, forward-slash rendering of `path` under `root`.
/// Paths outside the root are returned as given (still forward-slashed).
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Renders the report: one `path:line:col: rule: message` line per finding, then a
/// count.
pub fn render_report(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: {}: {}",
            f.path, f.line, f.col, f.rule, f.message
        );
    }
    let _ = writeln!(
        out,
        "{} finding{} across {} file{}",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files_scanned,
        if report.files_scanned == 1 { "" } else { "s" },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn run_orders_findings_and_counts_files() {
        let files = sources(&[
            ("crates/core/src/b.rs", "fn f() { x.unwrap(); }"),
            ("crates/core/src/a.rs", "use std::collections::HashMap;"),
        ]);
        let report = run_on_sources(&files);
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.findings[0].path, "crates/core/src/a.rs");
        assert_eq!(report.findings[1].path, "crates/core/src/b.rs");
    }

    #[test]
    fn ctor_join_spans_files_within_a_crate_but_not_across_crates() {
        let linked = run_on_sources(&sources(&[
            ("crates/core/src/a.rs", "#[non_exhaustive]\npub struct T;"),
            ("crates/core/src/b.rs", "impl T { pub fn new() -> T { T } }"),
            ("crates/cli/src/main.rs", "fn main() { T::new(); }"),
        ]));
        assert!(linked.findings.is_empty(), "{:?}", linked.findings);

        let unlinked = run_on_sources(&sources(&[
            ("crates/core/src/a.rs", "#[non_exhaustive]\npub struct T;"),
            (
                "crates/graph/src/b.rs",
                "impl T { pub fn new() -> T { T } }",
            ),
            ("crates/cli/src/main.rs", "fn main() { T::new(); }"),
        ]));
        assert_eq!(unlinked.findings.len(), 1);
        assert_eq!(unlinked.findings[0].rule, "non-exhaustive-ctor");
    }

    #[test]
    fn orphan_join_spans_the_workspace_and_skips_test_regions_and_tool_crates() {
        let lonely = ("crates/engine/src/a.rs", "pub fn lonely() {}");
        let rules = |extra: &[(&str, &str)]| -> Vec<&'static str> {
            let mut files = vec![lonely];
            files.extend_from_slice(extra);
            let report = run_on_sources(&sources(&files));
            report.findings.iter().map(|f| f.rule).collect()
        };
        assert_eq!(rules(&[]), ["orphan-pub"]);
        // A caller in any crate, or in an example, is a caller.
        assert!(rules(&[("crates/cli/src/main.rs", "fn main() { lonely(); }")]).is_empty());
        assert!(rules(&[("examples/demo.rs", "fn main() { lonely(); }")]).is_empty());
        // A test is not.
        let test_only = "#[cfg(test)]\nmod tests { fn t() { lonely(); } }";
        assert_eq!(
            rules(&[("crates/core/src/b.rs", test_only)]),
            ["orphan-pub"]
        );
        // Binaries and dev tooling own no public surface to police.
        assert_eq!(
            rules(&[("crates/bench/src/x.rs", "pub fn unused() {}")]),
            ["orphan-pub"]
        );
    }

    fn forbidden(files: &[(String, String)]) -> Vec<Finding> {
        let report = run_on_sources(files);
        (report.findings.into_iter())
            .filter(|f| f.rule == "forbidden")
            .collect()
    }

    /// A file the row path `covered` names: the file itself, or one in the directory.
    fn file_in(covered: &str) -> String {
        match covered.ends_with('/') {
            true => format!("{covered}case.rs"),
            false => covered.to_string(),
        }
    }

    /// One occurrence of `pattern` as live code (a `lint:allow(` pattern as a directive).
    fn occurrence(pattern: &str) -> String {
        match pattern.starts_with("lint:allow(") {
            true => format!("// {pattern}, generated case)\n"),
            false => format!("fn case() {{ {pattern} }}\n"),
        }
    }

    /// `copies` occurrences of `pattern`, dealt round-robin over the files of `paths`.
    fn occurrences(paths: &[&str], pattern: &str, copies: usize) -> Vec<(String, String)> {
        let mut files: BTreeMap<String, String> = BTreeMap::new();
        for i in 0..copies {
            let path = file_in(paths[i % paths.len()]);
            files
                .entry(path)
                .or_default()
                .push_str(&occurrence(pattern));
        }
        files.into_iter().collect()
    }

    #[test]
    fn every_forbidden_row_bites_at_its_paths_past_its_count_and_nowhere_else() {
        for rule in rules::FORBIDDEN {
            for &pattern in rule.patterns {
                let over = rule.at_most + 1;
                let case = format!("{pattern} x{over}");
                assert!(
                    forbidden(&occurrences(rule.paths, pattern, rule.at_most)).is_empty(),
                    "{case}: at the limit"
                );
                let found = forbidden(&occurrences(rule.paths, pattern, over));
                assert_eq!(found.len(), 1, "{case}: {found:?}");
                assert!(
                    found[0].message.contains(rule.reason) && found[0].message.contains(pattern),
                    "{case}: {}",
                    found[0].message
                );
                // The same text in a test region, a comment or a string, or at a path the
                // row does not name, is no finding.
                let path = file_in(rule.paths[0]);
                let code = occurrence(pattern).repeat(over);
                let elsewhere = [
                    (
                        path.clone(),
                        format!("#[cfg(test)]\nmod tests {{\n{code}}}\n"),
                    ),
                    (path.clone(), format!("/* {pattern} */\n").repeat(over)),
                    (
                        path.clone(),
                        format!("const S: &str = \"{pattern}\";\n").repeat(over),
                    ),
                    ("src/case.rs".to_string(), code),
                ];
                for file in elsewhere {
                    let found = forbidden(std::slice::from_ref(&file));
                    assert!(found.is_empty(), "{case} in {file:?}: {found:?}");
                }
            }
        }
    }

    #[test]
    fn an_example_is_held_to_the_rows_that_name_examples() {
        let example = "fn main() { b.add_edge_unchecked(0, 1); let _ = x.unwrap(); }";
        let found = forbidden(&sources(&[("examples/demo.rs", example)]));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("add_edge_unchecked"));
        // No other rule runs on an example.
        let report = run_on_sources(&sources(&[("examples/demo.rs", example)]));
        assert_eq!(report.findings, found);
    }

    #[test]
    fn a_reasoned_forbidden_allow_suppresses_one_occurrence() {
        let path = "crates/engine/src/placement.rs";
        let call = "fn f() { shard.local_index(v); }\n";
        let allowed = format!("// lint:allow(forbidden, validate searches on purpose)\n{call}");
        assert!(forbidden(&sources(&[(path, &allowed)])).is_empty());
        assert_eq!(
            forbidden(&sources(&[(path, &format!("{allowed}{call}"))])).len(),
            1
        );
    }
}
