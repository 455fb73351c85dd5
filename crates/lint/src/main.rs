//! The `frogwild-lint` binary: scans the workspace (or explicit paths) and
//! reports invariant violations. See `--help` / `--list-rules`.
//!
//! Exit codes: `0` clean (or report-only mode), `1` findings under
//! `--deny-all`, `2` usage or I/O error.

use frogwild_lint::{
    changed_since, parse_baseline, relative_path, render_baseline, render_report, rules,
    run_on_sources, workspace_files, Config, Format,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
frogwild-lint — workspace determinism & panic-freedom static analysis

USAGE:
    frogwild-lint [OPTIONS] [PATHS...]

By default the workspace sources (crates/*/src, src/, and examples/ as caller
evidence) under the workspace root are scanned and findings are *reported*
without failing. CI runs `--deny-all`. Explicit PATHS (files or directories)
replace the default scan set — the cross-file rules (non-exhaustive-ctor,
orphan-pub) then see only those files; paths outside crates/ get the strictest
(library) rule scope.

OPTIONS:
    --deny-all             Exit non-zero when any finding survives allows and
                           the baseline
    --allow <rule>         Drop one rule from the report (repeatable)
    --baseline <file>      Baseline file of grandfathered findings
                           (default: <root>/crates/lint/baseline.lint)
    --write-baseline       Rewrite the baseline file from this run's findings
    --format <human|csv>   Output format (default: human)
    --changed-since <rev>  Only report findings in files `git diff --name-only
                           <rev>` (plus untracked files) reports as touched
    --root <dir>           Workspace root (default: nearest ancestor of the
                           current directory containing Cargo.toml)
    --list-rules           Print the rule table and exit
    -h, --help             Print this help and exit
";

struct Args {
    deny_all: bool,
    allow: Vec<String>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    format: Format,
    changed_since: Option<String>,
    root: Option<PathBuf>,
    list_rules: bool,
    paths: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        deny_all: false,
        allow: Vec::new(),
        baseline: None,
        write_baseline: false,
        format: Format::Human,
        changed_since: None,
        root: None,
        list_rules: false,
        paths: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--deny-all" => args.deny_all = true,
            "--allow" => {
                let rule = value("--allow")?;
                if !rules::known_rule(&rule) {
                    return Err(format!("--allow: unknown rule `{rule}` (see --list-rules)"));
                }
                args.allow.push(rule);
            }
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--write-baseline" => args.write_baseline = true,
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "human" => Format::Human,
                    "csv" => Format::Csv,
                    other => return Err(format!("--format: expected human|csv, got `{other}`")),
                }
            }
            "--changed-since" => args.changed_since = Some(value("--changed-since")?),
            "--root" => args.root = Some(PathBuf::from(value("--root")?)),
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (see --help)"));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

/// Nearest ancestor of the current directory containing a `Cargo.toml`
/// declaring `[workspace]`, falling back to the nearest with any `Cargo.toml`.
fn find_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    let mut fallback = None;
    for dir in cwd.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            fallback.get_or_insert_with(|| dir.to_path_buf());
            if std::fs::read_to_string(&manifest)
                .map(|t| t.contains("[workspace]"))
                .unwrap_or(false)
            {
                return Some(dir.to_path_buf());
            }
        }
    }
    fallback
}

fn list_rules() {
    println!("{:<22} CHECKS FOR", "RULE");
    for rule in rules::RULES {
        // Wrap the doc onto the name column by hand; docs are one sentence.
        println!(
            "{:<22} {}",
            rule.name,
            rule.doc.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
    println!(
        "\nSuppress one finding with `// lint:allow(rule, reason)` on the same or the\n\
         preceding line, or a whole file with `// lint:allow-file(rule, reason)`.\n\
         The reason is mandatory."
    );
}

fn gather_files(args: &Args, root: &Path) -> Result<Vec<PathBuf>, String> {
    if args.paths.is_empty() {
        workspace_files(root).map_err(|e| format!("scanning workspace sources: {e}"))
    } else {
        let mut out = Vec::new();
        for p in &args.paths {
            if p.is_dir() {
                collect_dir(p, &mut out).map_err(|e| format!("scanning {}: {e}", p.display()))?;
            } else if p.is_file() {
                out.push(p.clone());
            } else {
                return Err(format!("no such file or directory: {}", p.display()));
            }
        }
        out.sort();
        Ok(out)
    }
}

fn collect_dir(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_dir(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.list_rules {
        list_rules();
        return Ok(ExitCode::SUCCESS);
    }

    let root = match &args.root {
        Some(r) => r.clone(),
        None => find_root().ok_or("no Cargo.toml found above the current directory")?,
    };

    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("crates/lint/baseline.lint"));
    let baseline = if baseline_path.is_file() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
        parse_baseline(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?
    } else {
        Vec::new()
    };

    let files = gather_files(&args, &root)?;
    let only_paths = match &args.changed_since {
        Some(rev) => Some(changed_since(&root, rev)?),
        None => None,
    };
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        sources.push((relative_path(&root, file), text));
    }

    // `--write-baseline` captures what the *rules* see (allows still apply,
    // the old baseline does not — it is being replaced).
    if args.write_baseline {
        let config = Config {
            allow_rules: args.allow.clone(),
            baseline: Vec::new(),
            only_paths,
        };
        let report = run_on_sources(&sources, &config);
        std::fs::write(&baseline_path, render_baseline(&report.findings))
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        eprintln!(
            "wrote {} entr{} to {}",
            report.findings.len(),
            if report.findings.len() == 1 {
                "y"
            } else {
                "ies"
            },
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let config = Config {
        allow_rules: args.allow.clone(),
        baseline,
        only_paths,
    };
    let report = run_on_sources(&sources, &config);
    print!("{}", render_report(&report, args.format));

    if args.deny_all && !report.findings.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("frogwild-lint: {message}");
            ExitCode::from(2)
        }
    }
}
