//! Fixture-tree integration tests: the exact findings (rule, line, column) the
//! pass produces over `tests/fixtures/`, allow handling, and the `frogwild-lint`
//! binary's exit-code contract.

use frogwild_lint::{run_on_sources, rust_files};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads every fixture file keyed by its path relative to the manifest dir
/// (`tests/fixtures/...`), matching what the binary reports with
/// `--root <manifest dir>`. The prefix keeps the paths out of `crates/`, which
/// classifies them under the strictest (library) rule scope.
fn fixture_sources() -> Vec<(String, String)> {
    let root = fixture_dir();
    rust_files(std::slice::from_ref(&root))
        .unwrap()
        .into_iter()
        .map(|p| {
            let rel = format!(
                "tests/fixtures/{}",
                p.strip_prefix(&root).unwrap().to_string_lossy()
            );
            (rel, std::fs::read_to_string(&p).unwrap())
        })
        .collect()
}

#[test]
fn fixture_tree_produces_exactly_the_expected_findings() {
    let report = run_on_sources(&fixture_sources());
    let got: Vec<(&str, &str, u32, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line, f.col))
        .collect();
    let expected = [
        ("allow-syntax", "tests/fixtures/allowed.rs", 9, 1),
        ("panic", "tests/fixtures/allowed.rs", 9, 7),
        (
            "non-exhaustive-ctor",
            "tests/fixtures/violations/ctor.rs",
            3,
            1,
        ),
        (
            "hash-container",
            "tests/fixtures/violations/determinism.rs",
            2,
            23,
        ),
        (
            "hash-container",
            "tests/fixtures/violations/determinism.rs",
            4,
            19,
        ),
        ("timing", "tests/fixtures/violations/determinism.rs", 6, 16),
        (
            "counter-arith",
            "tests/fixtures/violations/metrics.rs",
            9,
            24,
        ),
        (
            "counter-arith",
            "tests/fixtures/violations/metrics.rs",
            10,
            24,
        ),
        ("orphan-pub", "tests/fixtures/violations/orphan.rs", 3, 1),
        ("panic", "tests/fixtures/violations/panics.rs", 3, 25),
        ("indexing", "tests/fixtures/violations/panics.rs", 4, 15),
        ("panic", "tests/fixtures/violations/panics.rs", 6, 9),
        ("orphan-pub", "tests/fixtures/violations/reexport.rs", 6, 1),
        ("span-guard", "tests/fixtures/violations/spans.rs", 4, 5),
    ];
    assert_eq!(got, expected, "full findings: {:#?}", report.findings);
}

#[test]
fn clean_fixture_has_no_findings_even_under_the_strictest_scope() {
    let sources: Vec<_> = fixture_sources()
        .into_iter()
        .filter(|(p, _)| p.ends_with("clean.rs"))
        .collect();
    assert_eq!(sources.len(), 1);
    let report = run_on_sources(&sources);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn well_formed_allow_suppresses_and_reasonless_allow_does_not() {
    let sources: Vec<_> = fixture_sources()
        .into_iter()
        .filter(|(p, _)| p.ends_with("allowed.rs"))
        .collect();
    let report = run_on_sources(&sources);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    // The reasoned allow on `g` suppressed its unwrap; `h` keeps both the
    // malformed-allow finding and the unsuppressed panic finding.
    assert_eq!(rules, ["allow-syntax", "panic"]);
    assert!(report.findings.iter().all(|f| f.line == 9));
}

fn orphan_fixture() -> (String, String) {
    fixture_sources()
        .into_iter()
        .find(|(p, _)| p.ends_with("violations/orphan.rs"))
        .expect("orphan fixture")
}

#[test]
fn orphan_pub_flags_the_uncalled_item_and_honours_the_oracle_allow() {
    let report = run_on_sources(&[orphan_fixture()]);
    let got: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.message.as_str()))
        .collect();
    // `orphaned` is called by a test only; `closed_form` is allowed as an oracle;
    // `called` has a non-test caller.
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!((got[0].0, got[0].1), ("orphan-pub", 3));
    assert!(got[0].2.contains("`orphaned`"), "{got:?}");
}

#[test]
fn orphan_pub_reads_an_example_as_a_caller_and_runs_no_rule_on_it() {
    let example = (
        "examples/demo.rs".to_string(),
        "fn main() { let xs = [1u64]; println!(\"{}\", orphaned(xs[0])); }".to_string(),
    );
    let report = run_on_sources(&[orphan_fixture(), example]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn orphan_pub_does_not_take_a_reexport_or_a_mod_line_for_a_caller() {
    let reexport = fixture_sources()
        .into_iter()
        .find(|(p, _)| p.ends_with("violations/reexport.rs"))
        .expect("reexport fixture");
    let report = run_on_sources(std::slice::from_ref(&reexport));
    let got: Vec<(&str, u32)> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, [("orphan-pub", 6)], "{:?}", report.findings);
    // A `use` in the caller's file is no call either; the call below it is.
    let importer = |body: &str| {
        let src = format!("use fixtures::reexported;\nfn main() {{ {body} }}");
        ("examples/demo.rs".to_string(), src)
    };
    let uncalled = run_on_sources(&[reexport.clone(), importer("")]);
    assert_eq!(uncalled.findings.len(), 1, "{:?}", uncalled.findings);
    let called = run_on_sources(&[reexport, importer("reexported(1);")]);
    assert!(called.findings.is_empty(), "{:?}", called.findings);
}

#[test]
fn orphan_pub_allow_must_name_the_oracle_test() {
    let (path, src) = orphan_fixture();
    let vague = src.replace(
        "oracle for estimator_matches_the_closed_form",
        "tests use it",
    );
    let report = run_on_sources(&[(path, vague)]);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["orphan-pub", "allow-syntax"]);
}

// ---- binary-level tests -----------------------------------------------------

fn lint_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_frogwild-lint"));
    // Root at the crate dir: fixture paths print relative to it.
    cmd.arg("--root").arg(env!("CARGO_MANIFEST_DIR"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

#[test]
fn deny_all_fails_on_each_seeded_violation_class_and_passes_on_clean() {
    for file in [
        "violations/determinism.rs",
        "violations/panics.rs",
        "violations/metrics.rs",
        "violations/ctor.rs",
        "violations/spans.rs",
        "violations/orphan.rs",
        "violations/reexport.rs",
    ] {
        let out = lint_cmd()
            .arg("--deny-all")
            .arg(fixture_dir().join(file))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{file} should fail --deny-all");
    }
    let out = lint_cmd()
        .arg("--deny-all")
        .arg(fixture_dir().join("clean.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "clean.rs should pass");
}

#[test]
fn unknown_rule_and_unknown_option_are_usage_errors() {
    // There is no option that shapes or filters the report.
    for args in [
        &["--frobnicate"][..],
        &["--allow", "panic"],
        &["--baseline", "none.lint"],
        &["--write-baseline"],
        &["--format", "csv"],
        &["--changed-since", "HEAD"],
    ] {
        let out = lint_cmd().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn list_rules_names_every_rule() {
    let out = lint_cmd().arg("--list-rules").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for rule in [
        "hash-container",
        "timing",
        "span-guard",
        "panic",
        "indexing",
        "counter-arith",
        "non-exhaustive-ctor",
        "orphan-pub",
        "forbidden",
        "allow-syntax",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn the_workspace_itself_is_clean_under_deny_all() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let out = Command::new(env!("CARGO_BIN_EXE_frogwild-lint"))
        .arg("--root")
        .arg(root)
        .arg("--deny-all")
        .current_dir(root)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint regressed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
