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
//!   called surface).
//!
//! The analysis is a hand-rolled lexer ([`lexer`]) plus shallow token-pattern
//! rules ([`rules`]) — no external dependencies, no type information. That
//! buys zero-setup CI enforcement at the cost of needing `lint:allow` escape
//! hatches where the rules cannot see an invariant (every allow requires a
//! written reason, which is the point).

pub mod lexer;
pub mod rules;

use rules::{analyze_file, finish_ctor_rule, finish_orphan_rule, Finding, Scope};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Driver configuration, assembled by the CLI (or tests).
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Rules to drop from the report entirely (`--allow <rule>`).
    pub allow_rules: Vec<String>,
    /// Baseline entries to subtract (grandfathered findings).
    pub baseline: Vec<BaselineEntry>,
    /// Report findings in these files only (`--changed-since`). Every file is still
    /// analyzed: the cross-file joins need the whole scan set as evidence.
    pub only_paths: Option<Vec<String>>,
}

/// One grandfathered finding: `rule <TAB> path <TAB> line` in the baseline file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub path: String,
    pub line: u32,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived allows and the baseline, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Scans `files` (path, source) pairs. Paths must be workspace-relative with
/// forward slashes; the crate-level constructor join groups files by their
/// `crates/<name>/` prefix, the `orphan-pub` join spans every file given.
pub fn run_on_sources(files: &[(String, String)], config: &Config) -> Report {
    let mut findings = Vec::new();
    // Constructor-rule state grouped per crate (fixture/scratch files outside
    // `crates/` join a shared "" group, so a fixture pair still links up).
    let mut decls: BTreeMap<String, Vec<rules::TypeDecl>> = BTreeMap::new();
    let mut evidence: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut pub_decls = Vec::new();
    let mut referenced = BTreeSet::new();

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
    }
    for (group, d) in &decls {
        let e = evidence.get(group).map(Vec::as_slice).unwrap_or(&[]);
        findings.extend(finish_ctor_rule(d, e));
    }
    findings.extend(finish_orphan_rule(&pub_decls, &referenced));

    findings.retain(|f| !config.allow_rules.iter().any(|r| r == f.rule));
    if let Some(only) = &config.only_paths {
        findings.retain(|f| only.contains(&f.path));
    }
    findings.retain(|f| {
        !config
            .baseline
            .iter()
            .any(|b| b.rule == f.rule && b.path == f.path && b.line == f.line)
    });
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
/// `src/`, and `examples/` (no rule runs on an example; it is read as evidence
/// that a library item is called), relative to `root`. Test trees
/// (`crates/*/tests`, `tests/`, `benches/`) hold test code by definition and are
/// skipped.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<_> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        crates.sort();
        for krate in crates {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    for dir in ["src", "examples"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
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

/// Parses a baseline file: one `rule<TAB>path<TAB>line` entry per line,
/// `#`-comments and blank lines skipped.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(rule), Some(path), Some(ln)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "baseline line {}: expected `rule<TAB>path<TAB>line`",
                i + 1
            ));
        };
        let ln: u32 = ln
            .trim()
            .parse()
            .map_err(|_| format!("baseline line {}: bad line number `{ln}`", i + 1))?;
        entries.push(BaselineEntry {
            rule: rule.trim().to_string(),
            path: path.trim().to_string(),
            line: ln,
        });
    }
    Ok(entries)
}

/// Renders findings back into baseline-file form (`--write-baseline`).
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# frogwild-lint baseline: grandfathered findings, one `rule<TAB>path<TAB>line`\n\
         # per line. CI fails when this file is non-empty — burn entries down, don't\n\
         # add them. Regenerate with `cargo run -p frogwild-lint -- --write-baseline`.\n",
    );
    for f in findings {
        let _ = writeln!(out, "{}\t{}\t{}", f.rule, f.path, f.line);
    }
    out
}

/// Output format for the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Format {
    #[default]
    Human,
    Csv,
}

/// Renders the report in the chosen format.
pub fn render_report(report: &Report, format: Format) -> String {
    let mut out = String::new();
    match format {
        Format::Human => {
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
        }
        Format::Csv => {
            let _ = writeln!(out, "rule,path,line,col,message");
            for f in &report.findings {
                let _ = writeln!(
                    out,
                    "{},{},{},{},\"{}\"",
                    f.rule,
                    f.path,
                    f.line,
                    f.col,
                    f.message.replace('"', "\"\"")
                );
            }
        }
    }
    out
}

/// Files touched since `rev`, per `git diff --name-only <rev>` plus untracked
/// files — the `--changed-since` report set.
pub fn changed_since(root: &Path, rev: &str) -> Result<Vec<String>, String> {
    let diff = git_lines(root, &["diff", "--name-only", rev])?;
    let untracked = git_lines(root, &["ls-files", "--others", "--exclude-standard"])?;
    let mut files: Vec<String> = diff.into_iter().chain(untracked).collect();
    files.sort();
    files.dedup();
    Ok(files)
}

fn git_lines(root: &Path, args: &[&str]) -> Result<Vec<String>, String> {
    let output = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .map_err(|e| format!("failed to run git: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "git {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
        .collect())
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
        let report = run_on_sources(&files, &Config::default());
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.findings[0].path, "crates/core/src/a.rs");
        assert_eq!(report.findings[1].path, "crates/core/src/b.rs");
    }

    #[test]
    fn allow_rules_drop_whole_rule() {
        let files = sources(&[("crates/core/src/a.rs", "fn f() { x.unwrap(); }")]);
        let config = Config {
            allow_rules: vec!["panic".to_string()],
            ..Config::default()
        };
        assert!(run_on_sources(&files, &config).findings.is_empty());
    }

    #[test]
    fn baseline_suppresses_exact_matches_only() {
        let files = sources(&[(
            "crates/core/src/a.rs",
            "fn f() { x.unwrap(); }\nfn g() { y.unwrap(); }",
        )]);
        let config = Config {
            baseline: vec![BaselineEntry {
                rule: "panic".to_string(),
                path: "crates/core/src/a.rs".to_string(),
                line: 1,
            }],
            ..Config::default()
        };
        let report = run_on_sources(&files, &config);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn baseline_round_trips() {
        let files = sources(&[(
            "crates/engine/src/x.rs",
            "fn f() { a.unwrap(); let t = Instant::now(); }",
        )]);
        let first = run_on_sources(&files, &Config::default());
        assert_eq!(first.findings.len(), 2);
        let baseline_text = render_baseline(&first.findings);
        let baseline = parse_baseline(&baseline_text).expect("parses");
        assert_eq!(baseline.len(), 2);
        let second = run_on_sources(
            &files,
            &Config {
                baseline,
                ..Config::default()
            },
        );
        assert!(second.findings.is_empty(), "{:?}", second.findings);
    }

    #[test]
    fn baseline_parser_rejects_garbage() {
        assert!(parse_baseline("# comment\n\npanic\tcrates/core/src/a.rs\t3\n").is_ok());
        assert!(parse_baseline("panic crates/core/src/a.rs 3\n").is_err());
        assert!(parse_baseline("panic\tp\tnot-a-number\n").is_err());
    }

    #[test]
    fn ctor_join_spans_files_within_a_crate_but_not_across_crates() {
        let linked = run_on_sources(
            &sources(&[
                ("crates/core/src/a.rs", "#[non_exhaustive]\npub struct T;"),
                ("crates/core/src/b.rs", "impl T { pub fn new() -> T { T } }"),
                ("crates/cli/src/main.rs", "fn main() { T::new(); }"),
            ]),
            &Config::default(),
        );
        assert!(linked.findings.is_empty(), "{:?}", linked.findings);

        let unlinked = run_on_sources(
            &sources(&[
                ("crates/core/src/a.rs", "#[non_exhaustive]\npub struct T;"),
                (
                    "crates/graph/src/b.rs",
                    "impl T { pub fn new() -> T { T } }",
                ),
                ("crates/cli/src/main.rs", "fn main() { T::new(); }"),
            ]),
            &Config::default(),
        );
        assert_eq!(unlinked.findings.len(), 1);
        assert_eq!(unlinked.findings[0].rule, "non-exhaustive-ctor");
    }

    #[test]
    fn orphan_join_spans_the_workspace_and_skips_test_regions_and_tool_crates() {
        let lonely = ("crates/engine/src/a.rs", "pub fn lonely() {}");
        let rules = |extra: &[(&str, &str)]| -> Vec<&'static str> {
            let mut files = vec![lonely];
            files.extend_from_slice(extra);
            let report = run_on_sources(&sources(&files), &Config::default());
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

    #[test]
    fn only_paths_limits_the_report_not_the_evidence() {
        let files = sources(&[
            (
                "crates/core/src/a.rs",
                "pub fn used() {}\npub fn unused() {}",
            ),
            ("crates/core/src/b.rs", "fn f() { used(); x.unwrap(); }"),
        ]);
        let config = Config {
            only_paths: Some(vec!["crates/core/src/a.rs".to_string()]),
            ..Config::default()
        };
        let report = run_on_sources(&files, &config);
        // b.rs still vouches for `used`, but its own unwrap is out of the report.
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "orphan-pub");
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn csv_format_escapes_quotes() {
        let report = Report {
            findings: vec![Finding {
                rule: "panic",
                path: "a.rs".to_string(),
                line: 1,
                col: 2,
                message: "uses \"quotes\"".to_string(),
            }],
            files_scanned: 1,
        };
        let csv = render_report(&report, Format::Csv);
        assert!(csv.starts_with("rule,path,line,col,message\n"));
        assert!(csv.contains("panic,a.rs,1,2,\"uses \"\"quotes\"\"\""));
    }

    #[test]
    fn changed_since_runs_against_this_repo_when_git_is_available() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        if !root.join(".git").exists() {
            return; // packaged source, nothing to test against
        }
        match changed_since(root, "HEAD") {
            Ok(files) => {
                for f in files {
                    assert!(!f.contains('\\'), "forward slashes expected: {f}");
                }
            }
            Err(e) => panic!("git diff against HEAD failed: {e}"),
        }
    }
}
