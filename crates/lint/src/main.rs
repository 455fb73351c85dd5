//! The `frogwild-lint` binary: scans the workspace (or explicit paths) and
//! reports invariant violations. See `--help` / `--list-rules`.
//!
//! Exit codes: `0` clean (or report-only mode), `1` findings under
//! `--deny-all`, `2` usage or I/O error.

use frogwild_lint::{
    relative_path, render_report, rules, run_on_sources, rust_files, workspace_files,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
frogwild-lint — workspace determinism & panic-freedom static analysis

USAGE:
    frogwild-lint [OPTIONS] [PATHS...]

By default the workspace sources (crates/*/src, src/, and examples/ as caller
evidence) under the workspace root are scanned and findings are *reported*
without failing. CI runs `--deny-all`. Explicit PATHS (files or directories)
replace the default scan set — the cross-file rules (non-exhaustive-ctor,
orphan-pub, forbidden) then see only those files; paths outside crates/ get the
strictest (library) rule scope. No option drops a rule or a finding: a finding
is suppressed only by a reasoned `lint:allow` in the source (see --list-rules).

OPTIONS:
    --deny-all             Exit non-zero when any finding survives lint:allow
    --root <dir>           Workspace root (default: nearest ancestor of the
                           current directory containing Cargo.toml)
    --list-rules           Print the rule table and exit
    -h, --help             Print this help and exit
";

struct Args {
    deny_all: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    paths: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        deny_all: false,
        root: None,
        list_rules: false,
        paths: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-all" => args.deny_all = true,
            "--root" => {
                let root = it.next().ok_or("--root requires a value")?;
                args.root = Some(PathBuf::from(root));
            }
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

    let files = if args.paths.is_empty() {
        workspace_files(&root)
    } else {
        rust_files(&args.paths)
    }
    .map_err(|e| format!("scanning sources: {e}"))?;
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        sources.push((relative_path(&root, file), text));
    }

    let report = run_on_sources(&sources);
    print!("{}", render_report(&report));

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
